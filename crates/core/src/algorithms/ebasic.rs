//! The `e-basic` algorithm: deduplicate identical source queries before executing them
//! (Section III-B.2).

use crate::algorithms::batch::{lower_alone, Rewrite};
use crate::answer::ProbabilisticAnswer;
use crate::metrics::Evaluation;
use crate::query::TargetQuery;
use crate::reformulate::{reformulate, Clustering, Clusters, Reformulated};
use crate::CoreResult;
use std::time::Instant;
use urm_matching::MappingSet;
use urm_storage::Catalog;

/// e-basic's rewrite phase, literally: reformulate `query` through *every* mapping, then cluster
/// the identical source queries with their summed probabilities.
///
/// This is the cost the paper's q-sharing removes, kept for the two baselines that are defined
/// by it (e-basic and e-MQO) and as the reference the partition-first rewrite of every other
/// path is compared against ([`crate::reformulate::partitioned_reformulations`],
/// `tests/prop_partition.rs`).  Nothing else may call it.
pub fn clustered_reformulations(
    query: &TargetQuery,
    mappings: &MappingSet,
    catalog: &Catalog,
) -> CoreResult<Clustering> {
    let mut clusters = Clusters::default();
    let mut empty_probability = 0.0;
    for mapping in mappings.iter() {
        match reformulate(query, mapping, catalog)? {
            Reformulated::Empty => empty_probability += mapping.probability(),
            Reformulated::Query(sq) => {
                let slot = clusters.slot(sq);
                clusters.add(slot, mapping.probability());
            }
        }
    }
    Ok(Clustering {
        clusters: clusters.into_ordered(),
        empty_probability,
        partitions: mappings.len(),
    })
}

/// Reformulates the query through every mapping (like `basic`), but clusters identical source
/// queries and executes each distinct one once with the summed probability.  Each cluster is
/// lowered onto a throwaway epoch of its own, so nothing is shared across clusters: e-basic
/// stays the baseline the sharing algorithms are measured against.
pub fn evaluate(
    query: &TargetQuery,
    mappings: &MappingSet,
    catalog: &Catalog,
) -> CoreResult<Evaluation> {
    // Phase 1 (rewriting): a source query is still produced for every mapping — this is the
    // cost e-basic does NOT save, which is why q-sharing beats it.
    let Rewrite {
        clustering,
        mut metrics,
        started,
    } = Rewrite::timed("e-basic", || {
        clustered_reformulations(query, mappings, catalog)
    })?;

    // Phase 2 (evaluation): run each distinct source query once, and add its answers to the
    // others' in cluster order.
    let mut answer = ProbabilisticAnswer::new();
    for cluster in clustering.clusters {
        // The cluster alone: its own rewrite, lowered onto its own epoch.
        let one = Clustering {
            clusters: vec![cluster],
            empty_probability: 0.0,
            partitions: 1,
        };
        let eval = lower_alone(Rewrite::timed("e-basic", || Ok(one))?, catalog)?;
        let agg_start = Instant::now();
        answer.merge(&eval.answer);
        metrics.aggregation_time += eval.metrics.aggregation_time + agg_start.elapsed();
        metrics.plan_time += eval.metrics.plan_time;
        metrics.exec += &eval.metrics.exec;
        metrics.shared_plan_hits += eval.metrics.shared_plan_hits;
        metrics.shared_plan_misses += eval.metrics.shared_plan_misses;
    }
    answer.add_empty(clustering.empty_probability);
    metrics.total_time = started.elapsed();
    Ok(Evaluation { answer, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::basic;
    use crate::testkit;

    #[test]
    fn ebasic_matches_basic_on_every_paper_query() {
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
                "answers differ for {}:\nbasic: {}\ne-basic: {}",
                query.name(),
                a.answer,
                b.answer
            );
        }
    }

    #[test]
    fn ebasic_executes_fewer_source_queries_than_basic() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let query = testkit::q0();
        let b = basic::evaluate(&query, &mappings, &catalog).unwrap();
        let e = evaluate(&query, &mappings, &catalog).unwrap();
        assert_eq!(b.metrics.exec.source_queries, 5);
        // q0 has 3 distinct translations (ophone/oaddr, ophone/haddr, hphone/haddr).
        assert_eq!(e.metrics.distinct_source_queries, 3);
        assert_eq!(e.metrics.exec.source_queries, 3);
        assert!(e.metrics.exec.operators_executed < b.metrics.exec.operators_executed);
    }

    #[test]
    fn q1_has_two_runnable_groups_plus_an_empty_one() {
        // q1's partitions are {m1,m2}, {m3,m4}, {m5}; m5 does not map pname so it is empty.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let e = evaluate(&testkit::q1(), &mappings, &catalog).unwrap();
        assert_eq!(e.metrics.distinct_source_queries, 2);
        assert!((e.answer.empty_probability() - 0.1).abs() < 1e-9);
    }
}
