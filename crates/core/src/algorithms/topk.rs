//! Probabilistic top-k queries (Section VII, Algorithm 4).
//!
//! A top-k query returns the `k` answer tuples with the highest probabilities without computing
//! exact probabilities for every tuple.  It walks the same u-trace as o-sharing
//! ([`crate::algorithms::osharing`]): an e-unit holds a logical plan, a step probes that plan's
//! factors for emptiness, and a leaf is its representative's reformulated source query.  Each
//! leaf's answers go into one [`ProbabilisticAnswer`] through
//! [`add_distinct`](ProbabilisticAnswer::add_distinct), as pool-id rows — the answer o-sharing
//! builds, grown leaf by leaf.  An entry's probability so far is its *lower bound*; the mass
//! `U` of the e-units not yet visited is what any answer, seen or not, can still gain, so its
//! upper bound is the lower bound plus `U`.
//!
//! The traversal stops by Fagin, Lotem & Naor's threshold rule (PODS 2001): with `lb_i` the
//! `i`-th largest lower bound (0 past the last answer), the top k are decided once
//! `lb_(k+1) + U ≤ lb_k` — no answer outside them can overtake the k-th — and `U ≤ lb_k` — nor
//! can an unseen one.  The test reads two order statistics of the answer's probabilities, found
//! by selection; and the result is the answer's own [`top_k`](ProbabilisticAnswer::top_k), in
//! the order every algorithm and the wire share.

use crate::algorithms::osharing::{LeafSink, UTraceRunner};
use crate::answer::ProbabilisticAnswer;
use crate::metrics::EvalMetrics;
use crate::partition::{partition_mappings, representatives};
use crate::query::TargetQuery;
use crate::reformulate::{extract_answers, Extraction};
use crate::strategy::Strategy;
use crate::{CoreError, CoreResult};
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

/// Algorithm 4's `decide_result`: the answer so far and the mass not yet visited.
struct TopKSink {
    k: usize,
    /// Every answer met so far; an entry's probability is its lower bound.
    answer: ProbabilisticAnswer,
    /// The probability mass of the e-units not yet visited.
    remaining: f64,
}

impl TopKSink {
    /// The mass of the e-units not yet visited; what float subtraction leaves of a fully
    /// visited trace (within the decision rule's 1e-12) is none.
    fn unvisited(&self) -> f64 {
        if self.remaining > 1e-12 {
            self.remaining
        } else {
            0.0
        }
    }

    /// Marks `probability` more mass visited, and says whether the top k are decided: the
    /// threshold rule of the [module docs](self).  Since `lb_(k+1) ≥ 0`, its first condition
    /// implies the second.
    fn visit(&mut self, probability: f64) -> bool {
        self.remaining -= probability;
        let mut lower: Vec<f64> = self.answer.probabilities().collect();
        let mut next = 0.0;
        if lower.len() > self.k {
            let (_, at_k, _) = lower.select_nth_unstable_by(self.k, |a, b| b.total_cmp(a));
            next = *at_k;
            lower.truncate(self.k);
        }
        let kth = if lower.len() == self.k {
            lower.into_iter().fold(f64::INFINITY, f64::min)
        } else {
            0.0
        };
        next + self.unvisited() <= kth + 1e-12
    }
}

impl LeafSink for TopKSink {
    fn on_answers(
        &mut self,
        result: Arc<Relation>,
        extraction: Extraction,
        probability: f64,
    ) -> bool {
        let rows = extract_answers(&result, &extraction);
        self.answer.add_distinct(rows, probability);
        self.visit(probability)
    }

    fn on_empty(&mut self, probability: f64) -> bool {
        self.visit(probability)
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

    let sink = TopKSink {
        k,
        answer: ProbabilisticAnswer::new(),
        remaining: reps.iter().map(|rep| rep.probability).sum(),
    };
    let mut runner = UTraceRunner::new(query, catalog, mappings, reps, strategy, sink);
    runner.run()?;
    let sink = runner.finish(&mut metrics);
    metrics.total_time = total_start.elapsed();

    let unvisited = sink.unvisited();
    let entries = sink
        .answer
        .top_k(k)
        .into_iter()
        .map(|(tuple, lower_bound)| TopKEntry {
            tuple,
            lower_bound,
            upper_bound: lower_bound + unvisited,
        })
        .collect();
    Ok(TopKEvaluation {
        entries,
        metrics,
        stopped_early: unvisited > 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{basic, osharing};
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
    fn only_an_unvisited_e_unit_is_an_early_stop() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let query = testkit::basic_example_query();
        let exact = osharing::evaluate(&query, &mappings, &catalog, Strategy::Sef).unwrap();
        let every_leaf = exact.metrics.source_operators();
        // k = 3 of 3 answers is decided at the last leaf: the whole trace was visited.
        let full = top_k(&query, &mappings, &catalog, 3, Strategy::Sef).unwrap();
        assert_eq!(full.metrics.source_operators(), every_leaf);
        assert!(!full.stopped_early);
        // The top-1 is decided with e-units left: fewer source operators than o-sharing's.
        let early = top_k(&query, &mappings, &catalog, 1, Strategy::Sef).unwrap();
        assert!(early.stopped_early);
        assert!(early.metrics.source_operators() < every_leaf, "{early:?}");
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
