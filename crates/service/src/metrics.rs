//! Service-level work accounting.
//!
//! A batch's work is the engine's one account of it — an [`ExecStats`] and a [`RunReport`] —
//! kept whole in its [`BatchReport`] and merged into the service's [`ServiceMetrics`].  The
//! executor counters are named once, by [`ExecStats::fields`], which [`ServiceMetrics::fields`]
//! splices into the list behind `/metrics` and `/metrics.json`.

use std::ops::Deref;
use std::time::Duration;
use urm_engine::{ExecStats, RunReport};
use urm_obs::MetricKind;
// The percentile machinery (nearest-rank `percentile`, `LatencySummary`) lives in `urm-obs`
// now — one implementation shared by the service, the CLI, the benches and the server.  The
// re-export keeps `urm_service::{percentile, LatencySummary}` working unchanged.
pub use urm_obs::{percentile, LatencySummary};

/// A snapshot of the service-wide counters.  The executor's counters live in
/// [`exec`](ServiceMetrics::exec) and also read as the snapshot's own (`metrics.bytes_spilled`,
/// as the e2e benchmark's cold-iteration check reads it).
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Queries submitted (including ones answered from the cache).
    pub queries_submitted: u64,
    /// Queries answered straight from the answer cache at submit time.
    pub answer_cache_hits: u64,
    /// Queries that missed the answer cache at submit time.
    pub answer_cache_misses: u64,
    /// Answers evicted from the answer cache.
    pub answer_cache_evictions: u64,
    /// Duplicate submissions answered by another query of the same batch.
    pub batch_deduped: u64,
    /// Batches executed.
    pub batches: u64,
    /// Queries evaluated (after caching and deduplication).
    pub queries_evaluated: u64,
    /// Source-query submissions answered without new plan work across all batches: operator
    /// insertions the batch DAGs deduplicated onto an existing node plus plans answered by an
    /// epoch's bind cache ([`RunReport::plan_hits`]).  Also exposed as
    /// `dag_operators_deduped`, the DAG's name for it.
    pub plan_cache_hits: u64,
    /// Distinct bound operators materialised (one DAG node each) across all batches.
    pub plan_cache_misses: u64,
    /// Distinct DAG nodes executed across all batches (each exactly once within its batch).
    pub dag_nodes_executed: u64,
    /// Highest number of DAG nodes observed in flight at once in any batch.
    pub dag_peak_parallelism: u64,
    /// Source-query submissions answered by an epoch DAG's bind cache — plan optimisation,
    /// binding and DAG merging skipped (cross-batch reuse within an epoch).
    pub epoch_bind_hits: u64,
    /// DAG nodes answered by a still-materialised result of an earlier batch of the same epoch
    /// — node executions skipped, whole subgraphs pruned.
    pub epoch_results_reused: u64,
    /// The executor's counters, merged across all batches.
    pub exec: ExecStats,
    /// Batches that ran over their epoch's shards: every evaluated batch, an unsharded epoch's
    /// over its one shard (a batch whose evaluation failed does not count).
    pub shard_batches: u64,
    /// Per-shard root submissions of all batches (a root scattered to all N shards counts N,
    /// a root routed to one shard counts 1; over one shard, every distinct root counts 1).
    pub shard_fanouts: u64,
    /// Total wall-clock time batches spent gathering: aggregating each query's answer from
    /// its factors' per-shard results.
    pub shard_merge_time: Duration,
    /// p50/p95/p99 over the *per-shard* bind + execution times of all batches (each shard of
    /// each batch contributes one sample; over one shard, the batch's bind and execution).
    pub shard_latency: LatencySummary,
    /// Total wall-clock time spent executing batches.
    pub batch_time: Duration,
}

impl ServiceMetrics {
    /// Fraction of submissions answered from the answer cache (0 when nothing was submitted).
    #[must_use]
    pub fn answer_hit_rate(&self) -> f64 {
        let total = self.answer_cache_hits + self.answer_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.answer_cache_hits as f64 / total as f64
        }
    }

    /// Fraction of sub-plan lookups shared across the batches (0 when nothing executed).
    #[must_use]
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }

    /// Fraction of needed DAG nodes answered by a previous batch of the same epoch instead of
    /// executing (0 when nothing executed).
    #[must_use]
    pub fn epoch_reuse_rate(&self) -> f64 {
        let total = self.epoch_results_reused + self.dag_nodes_executed;
        if total == 0 {
            0.0
        } else {
            self.epoch_results_reused as f64 / total as f64
        }
    }

    /// Executor throughput in tuples (read + produced) per second of batch wall-clock time
    /// (0 before any batch ran).
    #[must_use]
    pub fn rows_per_second(&self) -> f64 {
        let secs = self.batch_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.exec.tuples_read + self.exec.tuples_output) as f64 / secs
        }
    }

    /// Every field of the snapshot as `(name, kind, value)` triples — the **single** canonical
    /// enumeration that drives the Prometheus exposition (`GET /metrics`), the JSON snapshot
    /// (`GET /metrics.json`) and the coverage integration test, so the three surfaces cannot
    /// drift apart.  The executor counters are [`ExecStats::fields`]; durations are normalised
    /// to integer-nanosecond `*_ns` fields; derived rates come last, as gauges.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, MetricKind, f64)> {
        use MetricKind::{Counter, Gauge};
        let mut fields = vec![
            ("queries_submitted", Counter, self.queries_submitted as f64),
            ("answer_cache_hits", Counter, self.answer_cache_hits as f64),
            (
                "answer_cache_misses",
                Counter,
                self.answer_cache_misses as f64,
            ),
            (
                "answer_cache_evictions",
                Counter,
                self.answer_cache_evictions as f64,
            ),
            ("batch_deduped", Counter, self.batch_deduped as f64),
            ("batches", Counter, self.batches as f64),
            ("queries_evaluated", Counter, self.queries_evaluated as f64),
            ("plan_cache_hits", Counter, self.plan_cache_hits as f64),
            ("plan_cache_misses", Counter, self.plan_cache_misses as f64),
            (
                "dag_nodes_executed",
                Counter,
                self.dag_nodes_executed as f64,
            ),
            (
                "dag_operators_deduped",
                Counter,
                self.plan_cache_hits as f64,
            ),
            (
                "dag_peak_parallelism",
                Gauge,
                self.dag_peak_parallelism as f64,
            ),
            ("epoch_bind_hits", Counter, self.epoch_bind_hits as f64),
            (
                "epoch_results_reused",
                Counter,
                self.epoch_results_reused as f64,
            ),
        ];
        fields.extend(self.exec.fields());
        fields.extend([
            ("shard_batches", Counter, self.shard_batches as f64),
            ("shard_fanouts", Counter, self.shard_fanouts as f64),
            (
                "shard_merge_time_ns",
                Counter,
                self.shard_merge_time.as_nanos() as f64,
            ),
            (
                "shard_latency_p50_ns",
                Gauge,
                self.shard_latency.p50.as_nanos() as f64,
            ),
            (
                "shard_latency_p95_ns",
                Gauge,
                self.shard_latency.p95.as_nanos() as f64,
            ),
            (
                "shard_latency_p99_ns",
                Gauge,
                self.shard_latency.p99.as_nanos() as f64,
            ),
            ("batch_time_ns", Counter, self.batch_time.as_nanos() as f64),
            ("answer_hit_rate", Gauge, self.answer_hit_rate()),
            ("plan_hit_rate", Gauge, self.plan_hit_rate()),
            ("epoch_reuse_rate", Gauge, self.epoch_reuse_rate()),
            ("rows_per_second", Gauge, self.rows_per_second()),
        ]);
        fields
    }

    /// Folds one batch's accounting into the service totals (peak parallelism is the highest
    /// any batch reached).
    pub(crate) fn absorb(&mut self, report: &BatchReport) {
        self.batches += 1;
        self.queries_evaluated += report.evaluated as u64;
        self.plan_cache_hits += report.run.plan_hits();
        self.plan_cache_misses += report.run.nodes_added;
        self.dag_nodes_executed += report.run.nodes_executed;
        self.dag_peak_parallelism = self
            .dag_peak_parallelism
            .max(report.run.peak_parallelism as u64);
        self.epoch_bind_hits += report.run.bind_hits;
        self.epoch_results_reused += report.run.results_reused;
        self.exec.merge(&report.exec);
        self.shard_batches += u64::from(report.shards > 0);
        self.shard_fanouts += report.shard_fanouts;
        self.shard_merge_time += report.shard_merge_time;
        self.batch_time += report.latency;
    }
}

impl Deref for ServiceMetrics {
    type Target = ExecStats;

    fn deref(&self) -> &ExecStats {
        &self.exec
    }
}

/// Per-batch accounting, retained (bounded) for inspection by clients such as `urm-cli`.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Monotonic batch id (1-based).
    pub id: u64,
    /// The epoch the batch ran against.
    pub epoch: u64,
    /// Submissions in the batch.
    pub queries: usize,
    /// Distinct queries actually evaluated (after in-batch dedup and cache re-checks).
    pub evaluated: usize,
    /// Submissions answered from the answer cache while the batch was being assembled.
    pub served_from_cache: usize,
    /// The batch's executor counters (zeros for a batch whose evaluation failed).
    pub exec: ExecStats,
    /// The batch's bind stage and DAG runs.  `run.workers` is the sum of the threads its
    /// shards' DAGs ran on, at least one per shard: at most `ServiceConfig::dag_workers` over
    /// one shard.
    pub run: RunReport,
    /// Shards the batch ran over: the epoch's shard count, 1 for an unsharded epoch, even
    /// when every root was routed to one shard (0 for a batch whose evaluation failed).
    pub shards: usize,
    /// Per-shard root submissions of this batch (over one shard: its distinct roots).
    pub shard_fanouts: u64,
    /// Wall-clock time this batch spent gathering its answers from the shards' results.
    pub shard_merge_time: Duration,
    /// p50/p95/p99 over this batch's per-shard bind + execution times (over one shard, all
    /// three are that shard's).
    pub shard_latency: LatencySummary,
    /// Wall-clock latency of the batch.
    pub latency: Duration,
    /// p50/p95/p99 over the *per-query* wall-clock latencies of the batch's evaluated queries
    /// (submission to aggregation, recorded batch-side).  Zeros when the batch evaluated
    /// nothing (everything answered from the cache).
    pub latency_percentiles: LatencySummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates_handle_zero_totals() {
        let m = ServiceMetrics::default();
        assert_eq!(m.answer_hit_rate(), 0.0);
        assert_eq!(m.plan_hit_rate(), 0.0);
    }

    #[test]
    fn zero_duration_windows_report_zero_throughput() {
        // A sub-millisecond smoke run can legitimately observe `batch_time == 0` (and tuples
        // processed > 0): the division must degrade to 0.0, never inf/NaN in a JSON report.
        let m = ServiceMetrics {
            exec: ExecStats {
                tuples_read: 1000,
                tuples_output: 500,
                ..ExecStats::default()
            },
            batch_time: Duration::ZERO,
            ..ServiceMetrics::default()
        };
        assert_eq!(m.rows_per_second(), 0.0);
        let m = ServiceMetrics {
            batch_time: Duration::from_secs(2),
            ..m
        };
        assert_eq!(m.rows_per_second(), 750.0);
    }

    #[test]
    fn fields_enumerate_every_surface_key_once() {
        // The canonical enumeration backs /metrics, /metrics.json and the coverage test:
        // names must be unique, and the duration fields must surface as integer *_ns values.
        let m = ServiceMetrics {
            batches: 3,
            batch_time: Duration::from_micros(1500),
            shard_merge_time: Duration::from_nanos(42),
            ..ServiceMetrics::default()
        };
        let fields = m.fields();
        let mut names: Vec<&str> = fields.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fields.len(), "duplicate field name");
        let get = |name: &str| {
            fields
                .iter()
                .find(|(n, _, _)| *n == name)
                .unwrap_or_else(|| panic!("missing field {name}"))
        };
        assert_eq!(get("batches").2, 3.0);
        assert_eq!(get("batch_time_ns").2, 1_500_000.0);
        assert_eq!(get("shard_merge_time_ns").2, 42.0);
        assert!(matches!(get("queries_submitted").1, MetricKind::Counter));
        assert!(matches!(get("answer_hit_rate").1, MetricKind::Gauge));
        assert!(
            !fields.iter().any(|(n, _, _)| n.ends_with("_ms")),
            "durations must be normalised to _ns"
        );
    }

    #[test]
    fn hit_rates_divide() {
        let m = ServiceMetrics {
            answer_cache_hits: 3,
            answer_cache_misses: 1,
            plan_cache_hits: 1,
            plan_cache_misses: 3,
            epoch_results_reused: 6,
            dag_nodes_executed: 2,
            ..ServiceMetrics::default()
        };
        assert!((m.answer_hit_rate() - 0.75).abs() < 1e-12);
        assert!((m.plan_hit_rate() - 0.25).abs() < 1e-12);
        assert!((m.epoch_reuse_rate() - 0.75).abs() < 1e-12);
    }
}
