//! The `e-MQO` algorithm: distinct source queries evaluated through a shared global plan built
//! by a multi-query optimiser (Section III-B.3).

use crate::algorithms::ebasic::clustered_reformulations;
use crate::answer::{aggregate, Cluster};
use crate::metrics::{EvalMetrics, Evaluation};
use crate::query::TargetQuery;
use crate::reformulate::Clustering;
use crate::CoreResult;
use std::time::Instant;
use urm_engine::{optimize::optimize, EpochDag, Executor};
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
    let total_start = Instant::now();
    let mut metrics = EvalMetrics::new("e-MQO");
    metrics.representative_mappings = mappings.len();

    // Phase 1: rewrite through every mapping and deduplicate (same as e-basic).
    let rewrite_start = Instant::now();
    let Clustering {
        clusters: ordered,
        empty_probability,
        ..
    } = clustered_reformulations(query, mappings, catalog)?;
    metrics.rewrite_time = rewrite_start.elapsed();
    metrics.distinct_source_queries = ordered.len();

    // Phase 2: build the shared global plan (the expensive MQO search).
    let plan_start = Instant::now();
    let optimized: Vec<_> = ordered
        .iter()
        .map(|cluster| optimize(&cluster.query.plan, catalog))
        .collect::<Result<_, _>>()?;
    // The search is what e-MQO pays for; the sharing it finds is realised by the DAG below.
    GlobalPlan::build(&optimized, catalog)?;
    metrics.plan_time = plan_start.elapsed();

    // Phase 3: lower the global plan onto one throwaway epoch DAG and execute it; each distinct
    // operator runs exactly once.  Every plan is keyed by its own cluster's fingerprint, so the
    // sharing is `add_plan`'s node dedup, which the DAG reports as reuse.
    let mut exec = Executor::new(catalog);
    let mut epoch = EpochDag::new();
    for (cluster, plan) in ordered.iter().zip(&optimized) {
        epoch.submit_with(cluster.fingerprint, || exec.bind(plan))?;
    }
    let run = epoch.execute_pending(&mut exec, 1)?;
    metrics.shared_plan_hits = run.report.operators_deduped;
    metrics.shared_plan_misses = run.report.nodes_executed;

    let agg_start = Instant::now();
    let clusters: Vec<Cluster<'_>> = ordered
        .iter()
        .zip(&run.root_results)
        .map(|(cluster, result)| {
            Cluster::single(cluster.probability, &cluster.query.extraction, result)
        })
        .collect();
    let (answer, _) = aggregate(&clusters, empty_probability);
    metrics.aggregation_time = agg_start.elapsed();

    metrics.exec = exec.into_stats();
    metrics.total_time = total_start.elapsed();
    Ok(Evaluation { answer, metrics })
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
