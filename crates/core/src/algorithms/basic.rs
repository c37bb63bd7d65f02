//! The `basic` algorithm: one source query per possible mapping (Section III-B.1).

use crate::answer::{aggregate, Cluster};
use crate::metrics::{EvalMetrics, Evaluation};
use crate::query::TargetQuery;
use crate::reformulate::{reformulate, Clusters, Reformulated};
use crate::CoreResult;
use std::time::Instant;
use urm_engine::{optimize::optimize, Executor};
use urm_matching::MappingSet;
use urm_storage::Catalog;

/// Evaluates the query by reformulating and executing it once for every mapping in `mappings`.
pub fn evaluate(
    query: &TargetQuery,
    mappings: &MappingSet,
    catalog: &Catalog,
) -> CoreResult<Evaluation> {
    let total_start = Instant::now();
    let mut metrics = EvalMetrics::new("basic");
    metrics.representative_mappings = mappings.len();
    let mut exec = Executor::new(catalog);
    // Counts the distinct source queries; nothing is shared between the mappings' runs.
    let mut distinct = Clusters::default();
    // Per mapping with a source query: its result, probability and cluster slot.
    let mut results = Vec::with_capacity(mappings.len());
    let mut empty_probability = 0.0;

    for mapping in mappings.iter() {
        let rewrite_start = Instant::now();
        let reformulated = reformulate(query, mapping, catalog)?;
        metrics.rewrite_time += rewrite_start.elapsed();

        match reformulated {
            Reformulated::Empty => empty_probability += mapping.probability().max(0.0),
            Reformulated::Query(sq) => {
                let slot = distinct.slot(sq);
                let plan_start = Instant::now();
                let plan = optimize(&distinct.query(slot).plan, catalog)?;
                metrics.plan_time += plan_start.elapsed();

                results.push((exec.run(&plan)?, mapping.probability(), slot));
            }
        }
    }

    // Every mapping is a cluster of its own, in mapping order.
    let agg_start = Instant::now();
    let clusters: Vec<Cluster<'_>> = results
        .iter()
        .map(|(result, probability, slot)| {
            Cluster::single(*probability, &distinct.query(*slot).extraction, result)
        })
        .collect();
    let (answer, _) = aggregate(&clusters, empty_probability);
    metrics.aggregation_time = agg_start.elapsed();

    metrics.exec = exec.into_stats();
    metrics.distinct_source_queries = distinct.len();
    metrics.total_time = total_start.elapsed();
    Ok(Evaluation { answer, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use urm_storage::{Tuple, Value};

    fn tuple(s: &str) -> Tuple {
        Tuple::new(vec![Value::from(s)])
    }

    #[test]
    fn basic_reproduces_the_papers_running_example() {
        // π_phone σ_addr='aaa' Person → (123, 0.5), (456, 0.8), (789, 0.2).
        let catalog = testkit::figure2_catalog();
        let query = testkit::basic_example_query();
        let mappings = testkit::figure3_mappings();
        let eval = evaluate(&query, &mappings, &catalog).unwrap();
        assert_eq!(eval.answer.len(), 3);
        assert!((eval.answer.probability_of(&tuple("123")) - 0.5).abs() < 1e-9);
        assert!((eval.answer.probability_of(&tuple("456")) - 0.8).abs() < 1e-9);
        assert!((eval.answer.probability_of(&tuple("789")) - 0.2).abs() < 1e-9);
        // basic runs one source query per mapping.
        assert_eq!(eval.metrics.exec.source_queries, 5);
        assert_eq!(eval.metrics.representative_mappings, 5);
    }

    #[test]
    fn basic_reproduces_q0_from_the_introduction() {
        // q0 = π_addr σ_phone='123' Person → (aaa, 0.5), (hk, 0.5).
        let catalog = testkit::figure2_catalog();
        let eval = evaluate(&testkit::q0(), &testkit::figure3_mappings(), &catalog).unwrap();
        assert_eq!(eval.answer.len(), 2);
        assert!((eval.answer.probability_of(&tuple("aaa")) - 0.5).abs() < 1e-9);
        assert!((eval.answer.probability_of(&tuple("hk")) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn count_queries_return_counts_per_mapping_group() {
        let catalog = testkit::figure2_catalog();
        let eval = evaluate(
            &testkit::count_query(),
            &testkit::figure3_mappings(),
            &catalog,
        )
        .unwrap();
        // σ_addr='aaa': m1,m2 (oaddr) → 2 rows; m3,m4,m5 (haddr) → 1 row.
        let two = Tuple::new(vec![Value::from(2i64)]);
        let one = Tuple::new(vec![Value::from(1i64)]);
        assert!((eval.answer.probability_of(&two) - 0.5).abs() < 1e-9);
        assert!((eval.answer.probability_of(&one) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sum_queries_aggregate_prices() {
        let catalog = testkit::figure2_catalog();
        let eval = evaluate(
            &testkit::sum_query(),
            &testkit::figure3_mappings(),
            &catalog,
        )
        .unwrap();
        // Every mapping with phone→ophone selects Alice; the product with C_Order yields both
        // orders so SUM(amount) = 111.5.  m4 (phone→hphone) selects Bob, same product, 111.5.
        // m5 maps Order.price to C_Order.total which does not exist … but C_Order.amount is the
        // only numeric column mapped, m5 maps price→total (unknown) so m5 is Empty.
        let sum = Tuple::new(vec![Value::from(111.5)]);
        assert!(eval.answer.probability_of(&sum) > 0.8);
    }

    #[test]
    fn metrics_record_rewrite_and_execution_work() {
        let catalog = testkit::figure2_catalog();
        let eval = evaluate(&testkit::q0(), &testkit::figure3_mappings(), &catalog).unwrap();
        assert!(eval.metrics.exec.operators_executed > 0);
        assert!(eval.metrics.exec.scans > 0);
        assert!(eval.metrics.distinct_source_queries <= 5);
        assert!(eval.metrics.distinct_source_queries >= 2);
    }
}
