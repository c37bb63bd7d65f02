//! The `q-sharing` algorithm (Section IV, Algorithm 1).
//!
//! Instead of reformulating the query through every mapping and then deduplicating the results
//! (e-basic), q-sharing first partitions the mapping set with the partition tree: two mappings
//! land in the same partition exactly when they translate every query attribute identically,
//! hence produce the same source query.  Only one *representative* mapping per partition is then
//! reformulated and executed, carrying the partition's total probability.
//!
//! Execution goes through the bound physical path: every representative's plan is bound and
//! merged into one pin-everything [`EpochDag`], so representatives that still overlap structurally
//! (shared scans, shared selection prefixes — sharing *below* query granularity, which the
//! partition tree cannot see) execute each distinct bound operator once.

use crate::answer::{aggregate, Cluster};
use crate::metrics::{EvalMetrics, Evaluation};
use crate::partition::{partition_mappings, representatives};
use crate::query::TargetQuery;
use crate::reformulate::{reformulate, Reformulated};
use crate::CoreResult;
use std::time::Instant;
use urm_engine::{optimize::optimize, EpochDag, Executor};
use urm_matching::MappingSet;
use urm_storage::Catalog;

/// Evaluates the query with query-level sharing.
pub fn evaluate(
    query: &TargetQuery,
    mappings: &MappingSet,
    catalog: &Catalog,
) -> CoreResult<Evaluation> {
    let total_start = Instant::now();
    let mut metrics = EvalMetrics::new("q-sharing");

    // Step 1-2: partition the mappings and pick representatives (Algorithm 1).
    let partition_start = Instant::now();
    let partitions = partition_mappings(query, mappings)?;
    let reps = representatives(&partitions, mappings);
    metrics.rewrite_time += partition_start.elapsed();
    metrics.representative_mappings = reps.len();

    // Step 3: reformulate and execute one source query per representative, all lowered onto
    // one merged shared-operator DAG.
    let mut exec = Executor::new(catalog);
    let mut dag = EpochDag::pinning_all();
    let mut distinct = std::collections::HashSet::new();
    // Per representative with a source query: its result, probability and extraction.
    let mut results = Vec::with_capacity(reps.len());
    let mut empty_probability = 0.0;
    for rep in reps {
        let (mapping, probability) = (rep.mapping, rep.probability);
        let rewrite_start = Instant::now();
        let reformulated = reformulate(query, mapping, catalog)?;
        metrics.rewrite_time += rewrite_start.elapsed();

        match reformulated {
            Reformulated::Empty => empty_probability += probability.max(0.0),
            Reformulated::Query(sq) => {
                let plan_start = Instant::now();
                let plan = optimize(&sq.plan, catalog)?;
                metrics.plan_time += plan_start.elapsed();

                let result = dag.resolve(&exec.bind(&plan)?, &mut exec)?;
                exec.stats_mut().record_source_query();
                results.push((result, probability, sq.extraction.clone()));
                distinct.insert(sq);
            }
        }
    }

    let agg_start = Instant::now();
    let clusters: Vec<Cluster<'_>> = results
        .iter()
        .map(|(result, probability, extraction)| Cluster::single(*probability, extraction, result))
        .collect();
    let (answer, _) = aggregate(&clusters, empty_probability);
    metrics.aggregation_time = agg_start.elapsed();

    metrics.exec = exec.into_stats();
    metrics.distinct_source_queries = distinct.len();
    metrics.shared_plan_hits = dag.result_hits();
    metrics.shared_plan_misses = dag.nodes_executed();
    metrics.total_time = total_start.elapsed();
    Ok(Evaluation { answer, metrics })
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
