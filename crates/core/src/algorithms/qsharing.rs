//! The `q-sharing` algorithm (Section IV, Algorithm 1).
//!
//! Instead of reformulating the query through every mapping and then deduplicating the results
//! (e-basic), q-sharing first partitions the mapping set with the partition tree: two mappings
//! land in the same partition exactly when they translate every query attribute identically,
//! hence produce the same source query.  Only one *representative* mapping per partition is then
//! reformulated ([`partitioned_reformulations`]), carrying the partition's total probability.
//!
//! Execution is a batch of one query on a throwaway epoch (the lowering of
//! [`crate::algorithms::batch`]): every source query is split into the factors of its
//! optimised product, and source queries that still overlap structurally (shared scans, shared
//! factors — sharing *below* query granularity, which the partition tree cannot see) run each
//! distinct bound operator once.

use crate::algorithms::batch::{lower_alone, Rewrite};
use crate::metrics::Evaluation;
use crate::query::TargetQuery;
use crate::reformulate::partitioned_reformulations;
use crate::CoreResult;
use urm_matching::MappingSet;
use urm_storage::Catalog;

/// Evaluates the query with query-level sharing.
pub fn evaluate(
    query: &TargetQuery,
    mappings: &MappingSet,
    catalog: &Catalog,
) -> CoreResult<Evaluation> {
    let rewrite = Rewrite::timed("q-sharing", || {
        partitioned_reformulations(query, mappings, catalog)
    })?;
    lower_alone(rewrite, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::basic;
    use crate::testkit;

    #[test]
    fn qsharing_matches_basic_on_every_paper_query() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        for query in [
            testkit::q0(),
            testkit::q1(),
            testkit::basic_example_query(),
            testkit::q2_product(),
            testkit::count_query(),
            testkit::sum_query(),
        ] {
            let a = basic::evaluate(&query, &mappings, &catalog).unwrap();
            let b = evaluate(&query, &mappings, &catalog).unwrap();
            assert!(
                a.answer.approx_eq(&b.answer, 1e-9),
                "answers differ for {}:\nbasic: {}\nq-sharing: {}",
                query.name(),
                a.answer,
                b.answer
            );
        }
    }

    #[test]
    fn qsharing_uses_representative_mappings_only() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        // q1 partitions the 5 mappings into 3 groups (Section IV's example).
        let eval = evaluate(&testkit::q1(), &mappings, &catalog).unwrap();
        assert_eq!(eval.metrics.representative_mappings, 3);
        let basic_eval = basic::evaluate(&testkit::q1(), &mappings, &catalog).unwrap();
        assert!(
            eval.metrics.exec.source_queries < basic_eval.metrics.exec.source_queries,
            "q-sharing should run fewer source queries"
        );
    }

    #[test]
    fn probabilities_of_representatives_sum_to_one() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let eval = evaluate(&testkit::q0(), &mappings, &catalog).unwrap();
        // Answers plus empty mass account for the whole distribution on q0 (every mapping maps
        // phone and addr, so nothing is empty).
        assert!(eval.answer.empty_probability() < 1e-9);
        assert!(
            (eval
                .answer
                .probability_of(&urm_storage::Tuple::new(vec![urm_storage::Value::from(
                    "aaa"
                )]))
                - 0.5)
                .abs()
                < 1e-9
        );
    }
}
