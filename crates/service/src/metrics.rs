//! Service-level work accounting.

use std::time::Duration;
// The percentile machinery (nearest-rank `percentile`, `LatencySummary`) lives in `urm-obs`
// now — one implementation shared by the service, the CLI, the benches and the server.  The
// re-export keeps `urm_service::{percentile, LatencySummary}` working unchanged.
use urm_obs::MetricKind;
pub use urm_obs::{percentile, LatencySummary};

/// A snapshot of the service-wide counters.
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
    /// Bound-operator insertions the batch DAGs answered with an existing node (cross-query
    /// sub-plan sharing) across all batches.
    pub plan_cache_hits: u64,
    /// Distinct bound operators materialised (one DAG node each) across all batches.
    pub plan_cache_misses: u64,
    /// Distinct DAG nodes executed across all batches (each exactly once within its batch).
    pub dag_nodes_executed: u64,
    /// Operator insertions deduplicated by the batch DAGs (same counter as `plan_cache_hits`,
    /// kept under the DAG's name for dashboards that track node-dedup explicitly).
    pub dag_operators_deduped: u64,
    /// Highest number of DAG nodes observed in flight at once in any batch.
    pub dag_peak_parallelism: u64,
    /// Source-query submissions answered by an epoch DAG's bind cache — plan optimisation,
    /// binding and DAG merging skipped (cross-batch reuse within an epoch).
    pub epoch_bind_hits: u64,
    /// DAG nodes answered by a still-materialised result of an earlier batch of the same epoch
    /// — node executions skipped, whole subgraphs pruned.
    pub epoch_results_reused: u64,
    /// Source operators executed across all batches.
    pub source_operators: u64,
    /// Tuples read by operators across all batches.
    pub tuples_read: u64,
    /// Tuples produced by operators across all batches.
    pub tuples_output: u64,
    /// Rows handed to operators as shared views instead of copies (the physical executor's
    /// clone-elimination counter, summed across all batches).
    pub rows_shared: u64,
    /// Bytes of materialised relations written to spill segments under the epochs' memory
    /// budgets (0 when [`ServiceConfig::memory_budget`](crate::ServiceConfig) is off).
    pub bytes_spilled: u64,
    /// Spilled relations transparently reloaded from their segments.
    pub spill_reloads: u64,
    /// Partitions produced by grace hash joins (joins whose build side exceeded the budget).
    pub grace_partitions: u64,
    /// Rows produced by the vectorized columnar kernels.
    pub columnar_rows: u64,
    /// Row-codec-equivalent bytes of the relations written to spill segments — the size the
    /// segments *would* have under the uncompressed row codec (0 without a memory budget).
    pub segment_bytes_raw: u64,
    /// Actual encoded bytes of the spill segments written (per-column dictionary / delta /
    /// run-length encodings); compare against `segment_bytes_raw` for the compression ratio.
    pub segment_bytes_encoded: u64,
    /// Batches executed through the scatter-gather shard path (0 with
    /// [`ServiceConfig::shards`](crate::ServiceConfig) = 1).
    pub shard_batches: u64,
    /// Per-shard root submissions fanned out by sharded batches (a root scattered to all N
    /// shards counts N; a singleton root routed to one shard counts 1).
    pub shard_fanouts: u64,
    /// Total wall-clock time sharded batches spent gathering and merging per-shard answers
    /// back into the canonical order.
    pub shard_merge_time: Duration,
    /// p50/p95/p99 over the *per-shard* execution times of all sharded batches (each shard of
    /// each batch contributes one sample; zeros when unsharded).
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
            (self.tuples_read + self.tuples_output) as f64 / secs
        }
    }

    /// Every field of the snapshot as `(name, kind, value)` triples — the **single** canonical
    /// enumeration that drives the Prometheus exposition (`GET /metrics`), the JSON snapshot
    /// (`GET /metrics.json`) and the coverage integration test, so the three surfaces cannot
    /// drift apart.  Durations are normalised to integer-nanosecond `*_ns` fields; derived
    /// rates come last, as gauges.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, MetricKind, f64)> {
        use MetricKind::{Counter, Gauge};
        vec![
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
                self.dag_operators_deduped as f64,
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
            ("source_operators", Counter, self.source_operators as f64),
            ("tuples_read", Counter, self.tuples_read as f64),
            ("tuples_output", Counter, self.tuples_output as f64),
            ("rows_shared", Counter, self.rows_shared as f64),
            ("bytes_spilled", Counter, self.bytes_spilled as f64),
            ("spill_reloads", Counter, self.spill_reloads as f64),
            ("grace_partitions", Counter, self.grace_partitions as f64),
            ("columnar_rows", Counter, self.columnar_rows as f64),
            ("segment_bytes_raw", Counter, self.segment_bytes_raw as f64),
            (
                "segment_bytes_encoded",
                Counter,
                self.segment_bytes_encoded as f64,
            ),
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
        ]
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
    /// Operator insertions the batch DAG answered with an existing node (sub-plan sharing).
    pub plan_hits: u64,
    /// Distinct bound operators of the batch DAG (each executed exactly once).
    pub plan_misses: u64,
    /// Distinct DAG nodes executed by this batch (for a cold batch this equals `plan_misses`;
    /// a warm batch on a hot epoch can execute none at all).
    pub dag_nodes: usize,
    /// Source-query submissions this batch answered from the epoch's bind cache.
    pub epoch_bind_hits: u64,
    /// DAG nodes this batch answered from a previous batch's still-materialised results.
    pub epoch_results_reused: u64,
    /// Maximum number of DAG nodes in flight at once while this batch executed.
    pub peak_parallelism: usize,
    /// Threads the batch DAG ran on (at most `ServiceConfig::dag_workers`, and no more than
    /// it had nodes to execute).
    pub dag_workers: usize,
    /// Source operators executed by this batch.
    pub source_operators: u64,
    /// Bytes this batch spilled to disk segments (0 without a memory budget).
    pub bytes_spilled: u64,
    /// Spilled relations this batch reloaded from disk.
    pub spill_reloads: u64,
    /// Grace-hash-join partitions this batch produced.
    pub grace_partitions: u64,
    /// Rows this batch's vectorized columnar kernels produced.
    pub columnar_rows: u64,
    /// Row-codec-equivalent bytes of the relations this batch spilled.
    pub segment_bytes_raw: u64,
    /// Actual encoded bytes of the spill segments this batch wrote.
    pub segment_bytes_encoded: u64,
    /// Shards the batch was fanned out to (0 = the single-node path; sharded batches report
    /// the epoch's shard count even when every root was routed to one shard).
    pub shards: usize,
    /// Per-shard root submissions this batch fanned out (0 on the single-node path).
    pub shard_fanouts: u64,
    /// Wall-clock time this batch spent merging per-shard answers (zero unsharded).
    pub shard_merge_time: Duration,
    /// p50/p95/p99 over this batch's per-shard execution times (zeros unsharded).
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
            tuples_read: 1000,
            tuples_output: 500,
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
