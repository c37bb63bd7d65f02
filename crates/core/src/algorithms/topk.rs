//! Probabilistic top-k queries (Section VII, Algorithm 4).
//!
//! A top-k query returns the `k` answer tuples with the highest probabilities without computing
//! exact probabilities for every tuple.  The algorithm walks the same u-trace as o-sharing but
//! maintains, for every candidate tuple, a lower and an upper bound on its probability, plus two
//! global bounds: `LB`, the lower bound of the current k-th best candidate, and `UB`, the
//! probability mass of the e-units not yet visited.  As soon as every non-top candidate's upper
//! bound falls below `LB` and `UB ≤ LB`, the traversal stops.
//!
//! The u-trace is o-sharing's own ([`crate::algorithms::osharing`]): an e-unit holds a logical
//! plan, a step probes that plan's factors for emptiness, and a leaf is its representative's
//! reformulated source query — so the candidates a leaf adds are exactly the answers every other
//! algorithm reads for those mappings.

use crate::algorithms::osharing::{LeafSink, UTraceRunner};
use crate::metrics::EvalMetrics;
use crate::partition::{partition_mappings, representatives};
use crate::query::TargetQuery;
use crate::reformulate::{extract_answers, Extraction};
use crate::strategy::Strategy;
use crate::{CoreError, CoreResult};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use urm_matching::MappingSet;
use urm_storage::{Catalog, Relation, Tuple};

/// One candidate answer of a top-k query, with its probability bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKEntry {
    /// The answer tuple.
    pub tuple: Tuple,
    /// Lower bound on its probability (the probability mass already confirmed).
    pub lower_bound: f64,
    /// Upper bound on its probability.
    pub upper_bound: f64,
}

/// Result of a probabilistic top-k evaluation.
#[derive(Debug, Clone)]
pub struct TopKEvaluation {
    /// The top-k entries, ordered by descending lower bound.
    pub entries: Vec<TopKEntry>,
    /// Work and time accounting.
    pub metrics: EvalMetrics,
    /// Whether the traversal stopped before visiting every e-unit.
    pub stopped_early: bool,
}

/// The heap + bound bookkeeping of Algorithm 4 (`decide_result`).
struct TopKSink {
    k: usize,
    /// Every candidate's lower bound: the mass of the visited e-units that produced it.  Its
    /// upper bound is that plus the mass not yet visited, [`ub_global`](TopKSink::ub_global).
    candidates: HashMap<Tuple, f64>,
    /// Maximum probability any *new* tuple could still reach (mass of unvisited e-units).
    ub_global: f64,
    /// Lower bound of the k-th best candidate.
    lb_global: f64,
    decided: bool,
}

impl TopKSink {
    fn new(k: usize) -> Self {
        TopKSink {
            k,
            candidates: HashMap::new(),
            ub_global: 1.0,
            lb_global: 0.0,
            decided: false,
        }
    }

    /// The mass of the e-units not yet visited; what float subtraction leaves of a fully
    /// visited trace (within the decision rule's 1e-12) is none.
    fn unvisited(&self) -> f64 {
        if self.ub_global > 1e-12 {
            self.ub_global
        } else {
            0.0
        }
    }

    /// The candidates by descending lower bound, with their live bounds.
    fn ranked(&self) -> Vec<(Tuple, f64, f64)> {
        let mut v: Vec<(Tuple, f64, f64)> = self
            .candidates
            .iter()
            .map(|(t, lb)| (t.clone(), *lb, *lb + self.unvisited()))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    fn update_bounds_and_check(&mut self) -> bool {
        let ranked = self.ranked();
        // While fewer than k candidates exist, any new tuple could still enter the top-k, so LB
        // must stay at 0 (otherwise genuine answers could be rejected at insertion time).
        self.lb_global = if ranked.len() < self.k {
            0.0
        } else {
            ranked[self.k - 1].1
        };
        // Condition 1: every candidate ranked below k cannot overtake the k-th best.
        let losers_decided = ranked
            .iter()
            .skip(self.k)
            .all(|(_, _, ub)| *ub <= self.lb_global + 1e-12);
        // Condition 2: no unseen tuple can overtake it either.
        let unseen_decided = self.ub_global <= self.lb_global + 1e-12;
        // We also need at least one candidate before declaring victory (k-th best of an empty
        // heap is meaningless).
        self.decided = !ranked.is_empty() && losers_decided && unseen_decided;
        self.decided
    }
}

impl LeafSink for TopKSink {
    fn on_answers(
        &mut self,
        result: Arc<Relation>,
        extraction: Extraction,
        probability: f64,
    ) -> bool {
        for tuple in extract_answers(&result, &extraction).distinct_tuples() {
            if let Some(lower_bound) = self.candidates.get_mut(&tuple) {
                *lower_bound += probability;
            } else if self.ub_global > self.lb_global {
                // A new candidate: it has `probability` for sure, and could at most also gain
                // every not-yet-visited e-unit's mass.
                self.candidates.insert(tuple, probability);
            }
        }
        self.ub_global -= probability;
        self.update_bounds_and_check()
    }

    fn on_empty(&mut self, probability: f64) -> bool {
        self.ub_global -= probability;
        self.update_bounds_and_check()
    }
}

/// Evaluates a probabilistic top-k query.
///
/// The returned entries are the tuples whose probabilities rank highest; their `lower_bound`
/// values are guaranteed to be correct lower bounds (and equal the exact probabilities whenever
/// the traversal had to visit every e-unit).
pub fn top_k(
    query: &TargetQuery,
    mappings: &MappingSet,
    catalog: &Catalog,
    k: usize,
    strategy: Strategy,
) -> CoreResult<TopKEvaluation> {
    if k == 0 {
        return Err(CoreError::InvalidK);
    }
    let total_start = Instant::now();
    let mut metrics = EvalMetrics::new("top-k");

    let rewrite_start = Instant::now();
    let partitions = partition_mappings(query, mappings)?;
    let reps = representatives(&partitions, mappings);
    metrics.rewrite_time += rewrite_start.elapsed();
    metrics.representative_mappings = reps.len();

    let sink = TopKSink::new(k);
    let mut runner = UTraceRunner::new(query, catalog, reps, strategy, sink);
    runner.run()?;
    let sink = runner.finish(&mut metrics);
    metrics.total_time = total_start.elapsed();

    let entries = sink
        .ranked()
        .into_iter()
        .take(k)
        .map(|(tuple, lower_bound, upper_bound)| TopKEntry {
            tuple,
            lower_bound,
            upper_bound,
        })
        .collect();
    Ok(TopKEvaluation {
        entries,
        metrics,
        stopped_early: sink.decided,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::basic;
    use crate::testkit;
    use urm_storage::Value;

    fn tuple(s: &str) -> Tuple {
        Tuple::new(vec![Value::from(s)])
    }

    #[test]
    fn top_1_returns_the_most_probable_answer() {
        // π_phone σ_addr='aaa' Person: 456 has probability 0.8 and is the unique top-1.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let result = top_k(
            &testkit::basic_example_query(),
            &mappings,
            &catalog,
            1,
            Strategy::Sef,
        )
        .unwrap();
        assert_eq!(result.entries.len(), 1);
        assert_eq!(result.entries[0].tuple, tuple("456"));
        assert!(result.entries[0].lower_bound <= 0.8 + 1e-9);
        assert!(result.entries[0].upper_bound >= result.entries[0].lower_bound);
    }

    #[test]
    fn top_k_agrees_with_exact_evaluation_for_every_k() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let query = testkit::basic_example_query();
        let exact = basic::evaluate(&query, &mappings, &catalog).unwrap();
        let exact_sorted = exact.answer.sorted();
        for k in 1..=3 {
            let result = top_k(&query, &mappings, &catalog, k, Strategy::Sef).unwrap();
            assert_eq!(result.entries.len(), k.min(exact_sorted.len()));
            // The returned tuples are exactly the k most probable ones (no ties here).
            let expected: Vec<&Tuple> = exact_sorted.iter().take(k).map(|(t, _)| t).collect();
            for entry in &result.entries {
                assert!(
                    expected.contains(&&entry.tuple),
                    "unexpected {:?}",
                    entry.tuple
                );
                // Lower bounds never exceed the exact probability.
                let exact_p = exact.answer.probability_of(&entry.tuple);
                assert!(entry.lower_bound <= exact_p + 1e-9);
                assert!(entry.upper_bound + 1e-9 >= exact_p);
            }
        }
    }

    #[test]
    fn bounds_are_ordered() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let result = top_k(&testkit::q0(), &mappings, &catalog, 2, Strategy::Sef).unwrap();
        for e in &result.entries {
            assert!(e.lower_bound <= e.upper_bound + 1e-9);
            assert!(e.lower_bound >= 0.0 && e.upper_bound <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn k_zero_is_rejected() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        assert!(matches!(
            top_k(&testkit::q0(), &mappings, &catalog, 0, Strategy::Sef),
            Err(CoreError::InvalidK)
        ));
    }

    #[test]
    fn large_k_returns_all_answers_without_early_stop_confusion() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let query = testkit::basic_example_query();
        let result = top_k(&query, &mappings, &catalog, 10, Strategy::Sef).unwrap();
        // Only 3 distinct answers exist.
        assert_eq!(result.entries.len(), 3);
        let exact = basic::evaluate(&query, &mappings, &catalog).unwrap();
        for e in &result.entries {
            let p = exact.answer.probability_of(&e.tuple);
            assert!(
                (e.lower_bound - p).abs() < 1e-9,
                "lb should be exact when the whole trace is visited"
            );
        }
    }

    #[test]
    fn a_full_traversal_reports_exact_bounds() {
        // k = 10 of 3 answers is decided only once every e-unit is visited: nothing is left
        // unvisited, so each upper bound is its lower bound — and that is the exact mass.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let query = testkit::basic_example_query();
        let result = top_k(&query, &mappings, &catalog, 10, Strategy::Sef).unwrap();
        assert_eq!(result.entries.len(), 3);
        let exact = basic::evaluate(&query, &mappings, &catalog).unwrap();
        for e in &result.entries {
            assert_eq!(e.upper_bound, e.lower_bound, "{:?}", e.tuple);
            assert!((e.lower_bound - exact.answer.probability_of(&e.tuple)).abs() < 1e-9);
        }
    }

    #[test]
    fn works_with_aggregate_queries() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let result = top_k(
            &testkit::count_query(),
            &mappings,
            &catalog,
            1,
            Strategy::Sef,
        )
        .unwrap();
        assert_eq!(result.entries.len(), 1);
        // Counts 1 and 2 both have probability 0.5; the top-1 is one of them.
        let v = result.entries[0].tuple.get(0).unwrap().as_i64().unwrap();
        assert!(v == 1 || v == 2);

        // A COUNT reading no attribute covers no source relation, so no answer has any mass.
        let nothing = TargetQuery::builder("count-nothing")
            .relation("Person")
            .count()
            .build()
            .unwrap();
        let exact = basic::evaluate(&nothing, &mappings, &catalog).unwrap();
        assert!(exact.answer.is_empty());
        let result = top_k(&nothing, &mappings, &catalog, 1, Strategy::Sef).unwrap();
        assert!(result.entries.is_empty(), "{:?}", result.entries);
    }
}
