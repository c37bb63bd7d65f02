//! The `e-MQO` algorithm: distinct source queries evaluated through a shared global plan built
//! by a multi-query optimiser (Section III-B.3).

use crate::algorithms::batch::{lower_alone, Rewrite};
use crate::algorithms::ebasic::clustered_reformulations;
use crate::metrics::Evaluation;
use crate::query::TargetQuery;
use crate::CoreResult;
use std::time::Instant;
use urm_engine::optimize::optimize;
use urm_matching::MappingSet;
use urm_mqo::GlobalPlan;
use urm_storage::Catalog;

/// Like `e-basic`, but the distinct source queries are handed to the MQO substrate which builds
/// a single global plan sharing common sub-expressions.  The global plan executes the minimal
/// number of distinct operators, but constructing it is expensive — with many mappings the plan
/// search dominates and e-MQO loses to e-basic end-to-end, exactly as in Figures 10(b)/(c).
pub fn evaluate(
    query: &TargetQuery,
    mappings: &MappingSet,
    catalog: &Catalog,
) -> CoreResult<Evaluation> {
    // Rewrite through every mapping and deduplicate (same as e-basic).
    let mut rewrite = Rewrite::timed("e-MQO", || {
        clustered_reformulations(query, mappings, catalog)
    })?;

    // The global-plan search over the whole optimised source queries is what e-MQO pays for.
    let plan_start = Instant::now();
    let optimized: Vec<_> = (rewrite.clustering.clusters.iter())
        .map(|cluster| optimize(&cluster.query.plan, catalog))
        .collect::<Result<_, _>>()?;
    GlobalPlan::build(&optimized, catalog)?;
    rewrite.metrics.plan_time = plan_start.elapsed();

    // The sharing it finds is realised by lowering every cluster onto one epoch, where each
    // distinct operator runs exactly once.
    lower_alone(rewrite, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{basic, ebasic};
    use crate::testkit;

    #[test]
    fn emqo_matches_basic_on_every_paper_query() {
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
                "answers differ for {}",
                query.name()
            );
        }
    }

    #[test]
    fn emqo_executes_no_more_operators_than_ebasic() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let query = testkit::q2_product();
        let e = ebasic::evaluate(&query, &mappings, &catalog).unwrap();
        let m = evaluate(&query, &mappings, &catalog).unwrap();
        assert!(
            m.metrics.exec.operators_executed <= e.metrics.exec.operators_executed,
            "e-MQO executed {} operators, e-basic {}",
            m.metrics.exec.operators_executed,
            e.metrics.exec.operators_executed
        );
    }
}
