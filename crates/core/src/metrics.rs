//! Evaluation metrics reported by every algorithm.

use crate::answer::ProbabilisticAnswer;
use serde::{Deserialize, Serialize};
use std::time::Duration;
use urm_engine::ExecStats;

/// Work and time accounting for one probabilistic-query evaluation.
///
/// The paper reports wall-clock query time (`t_q`), its breakdown into query evaluation and
/// answer aggregation (Figure 10(a)), and the number of operators executed (Table IV); all of
/// those are derivable from this struct.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EvalMetrics {
    /// Name of the algorithm that produced the metrics (`basic`, `e-basic`, …).
    pub algorithm: &'static str,
    /// Time spent reformulating target queries / operators into source form.
    #[serde(skip)]
    pub rewrite_time: Duration,
    /// Time spent building shared/global plans (e-MQO) or optimising plans before execution.
    #[serde(skip)]
    pub plan_time: Duration,
    /// Time spent aggregating answer tuples (summing probabilities of duplicates).
    #[serde(skip)]
    pub aggregation_time: Duration,
    /// Executor statistics (operators executed, tuples moved, execution time).
    pub exec: ExecStats,
    /// Number of distinct source queries that were executed.
    pub distinct_source_queries: usize,
    /// Number of mappings the query was rewritten through: one representative per mapping
    /// partition (q-sharing, o-sharing, top-k and batch evaluation), or every mapping
    /// (basic, e-basic, e-MQO).
    pub representative_mappings: usize,
    /// Number of e-units created (o-sharing and top-k only).
    pub eunits: usize,
    /// Target operators executed by the u-trace, one per operator per mapping partition — the
    /// unit of the paper's Table IV (o-sharing and top-k only; 0 for whole-query algorithms).
    pub target_operators: u64,
    /// Sub-plan cache hits observed while evaluating this query (every algorithm but basic).
    pub shared_plan_hits: u64,
    /// Sub-plan cache misses observed while evaluating this query (every algorithm but basic).
    pub shared_plan_misses: u64,
    /// Total wall-clock time of the evaluation.
    #[serde(skip)]
    pub total_time: Duration,
}

impl EvalMetrics {
    /// Creates zeroed metrics for an algorithm.
    #[must_use]
    pub fn new(algorithm: &'static str) -> Self {
        EvalMetrics {
            algorithm,
            ..EvalMetrics::default()
        }
    }

    /// Number of source operators executed, scans included.
    #[must_use]
    pub fn source_operators(&self) -> u64 {
        self.exec.source_operators()
    }

    /// Time spent evaluating source queries (the "evaluation" slice of Figure 10(a)).
    #[must_use]
    pub fn evaluation_time(&self) -> Duration {
        self.exec.exec_time
    }
}

/// The result of evaluating a probabilistic query: the answer plus metrics.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The probabilistic answer.
    pub answer: ProbabilisticAnswer,
    /// Work and time accounting.
    pub metrics: EvalMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_operators_counts_scans_and_operators() {
        let mut m = EvalMetrics::new("basic");
        m.exec.record_scan(10);
        m.exec.record_operator(10, 5);
        m.exec.record_operator(5, 5);
        assert_eq!(m.source_operators(), 3);
        assert_eq!(m.algorithm, "basic");
    }

    #[test]
    fn evaluation_time_mirrors_exec_time() {
        let mut m = EvalMetrics::new("x");
        m.exec.exec_time = Duration::from_millis(250);
        assert_eq!(m.evaluation_time(), Duration::from_millis(250));
    }
}
