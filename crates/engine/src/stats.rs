//! Execution statistics: the one account of the engine's work.
//!
//! The paper evaluates its algorithms by wall-clock time and by the *number of source query
//! operators executed* (Table IV).  Every operator the executor runs increments the counters of
//! [`ExecStats`]; every DAG run reports what its merge, its caches and its scheduler did in a
//! [`RunReport`].  A batch's work is one of each, carried unchanged from the executor to the
//! service's totals and `/metrics` — each counter is declared here and nowhere else.

use serde::{Deserialize, Serialize};
use std::ops::AddAssign;
use std::time::Duration;
use urm_obs::MetricKind;

/// Counters describing the work performed by one or more plan executions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Number of operator nodes executed (selections, projections, products, joins, aggregates).
    pub operators_executed: u64,
    /// Number of base-relation scans performed.
    pub scans: u64,
    /// Total number of tuples read from operator inputs.
    pub tuples_read: u64,
    /// Total number of tuples produced by operators.
    pub tuples_output: u64,
    /// Number of complete source queries executed.
    pub source_queries: u64,
    /// Number of rows handed to downstream operators as *shared views* (scans and `Values`
    /// leaves) rather than copies — the clone-elimination metric of the physical-plan layer.
    /// Before the zero-copy refactor every one of these rows was materialised into a private
    /// buffer.
    pub rows_shared: u64,
    /// Bytes of materialised relations written to spill segments under a memory budget
    /// (copied in from the owning [`BufferPool`](urm_storage::BufferPool) by the layer that
    /// runs the batch, so parallel workers sharing one pool never double-count).
    pub bytes_spilled: u64,
    /// Spilled relations read back from their segments on access.
    pub spill_reloads: u64,
    /// Partitions produced by grace hash joins — joins whose build side exceeded half the
    /// memory budget and were built and probed one hash partition at a time.
    pub grace_partitions: u64,
    /// Rows produced by the operator kernels (every operator's output; scans and `Values`
    /// leaves hand out existing rows and count under [`rows_shared`](Self::rows_shared)).
    pub columnar_rows: u64,
    /// Row-codec-equivalent bytes of the relations written to spill segments — what the
    /// segments *would* have cost under the legacy row codec (copied in from the owning
    /// [`BufferPool`](urm_storage::BufferPool), like [`bytes_spilled`](Self::bytes_spilled)).
    pub segment_bytes_raw: u64,
    /// Actual encoded bytes of the columnar spill segments written.  The ratio of this to
    /// [`segment_bytes_raw`](Self::segment_bytes_raw) is the spill compression factor.
    pub segment_bytes_encoded: u64,
    /// Wall-clock time spent inside the executor.
    #[serde(skip)]
    pub exec_time: Duration,
}

impl ExecStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        ExecStats::default()
    }

    /// Records the execution of one operator that read `read` tuples and produced `output`.
    pub fn record_operator(&mut self, read: u64, output: u64) {
        self.operators_executed += 1;
        self.tuples_read += read;
        self.tuples_output += output;
    }

    /// Records a base-relation scan.
    pub fn record_scan(&mut self, output: u64) {
        self.scans += 1;
        self.tuples_output += output;
    }

    /// Records the completion of a full source query.
    pub fn record_source_query(&mut self) {
        self.source_queries += 1;
    }

    /// Source operators executed, scans included (the paper's Table IV metric).
    #[must_use]
    pub fn source_operators(&self) -> u64 {
        self.operators_executed + self.scans
    }

    /// The executor counters under their exposition names, as `(name, kind, value)` — the one
    /// list every surface reads (`/metrics`, `/metrics.json`, the benchmark's layer pass), so a
    /// counter added to this struct and to this list reaches all of them.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, MetricKind, f64)> {
        [
            ("source_operators", self.source_operators()),
            ("tuples_read", self.tuples_read),
            ("tuples_output", self.tuples_output),
            ("rows_shared", self.rows_shared),
            ("bytes_spilled", self.bytes_spilled),
            ("spill_reloads", self.spill_reloads),
            ("grace_partitions", self.grace_partitions),
            ("columnar_rows", self.columnar_rows),
            ("segment_bytes_raw", self.segment_bytes_raw),
            ("segment_bytes_encoded", self.segment_bytes_encoded),
        ]
        .into_iter()
        .map(|(name, value)| (name, MetricKind::Counter, value as f64))
        .collect()
    }

    /// Merges another set of statistics into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.operators_executed += other.operators_executed;
        self.scans += other.scans;
        self.tuples_read += other.tuples_read;
        self.tuples_output += other.tuples_output;
        self.source_queries += other.source_queries;
        self.rows_shared += other.rows_shared;
        self.bytes_spilled += other.bytes_spilled;
        self.spill_reloads += other.spill_reloads;
        self.grace_partitions += other.grace_partitions;
        self.columnar_rows += other.columnar_rows;
        self.segment_bytes_raw += other.segment_bytes_raw;
        self.segment_bytes_encoded += other.segment_bytes_encoded;
        self.exec_time += other.exec_time;
    }

    /// Folds a buffer pool's counter *delta* (after minus before a run) into these statistics.
    /// Called once per batch by whichever layer owns the pool, never per worker.
    ///
    /// Deltas saturate at zero component-wise: snapshots that raced a concurrent batch on the
    /// shared pool must never wrap a counter into a huge bogus total — `/metrics` sums these
    /// verbatim, so an exact-or-under delta beats a wrapped one.
    pub fn absorb_spill_delta(
        &mut self,
        before: &urm_storage::SpillStats,
        after: &urm_storage::SpillStats,
    ) {
        self.bytes_spilled += after.bytes_spilled.saturating_sub(before.bytes_spilled);
        self.spill_reloads += after.spill_reloads.saturating_sub(before.spill_reloads);
        self.segment_bytes_raw += after
            .segment_bytes_raw
            .saturating_sub(before.segment_bytes_raw);
        self.segment_bytes_encoded += after
            .segment_bytes_encoded
            .saturating_sub(before.segment_bytes_encoded);
    }
}

impl AddAssign<&ExecStats> for ExecStats {
    fn add_assign(&mut self, rhs: &ExecStats) {
        self.merge(rhs);
    }
}

/// What a DAG run did besides executing operators: its bind stage (bind cache, DAG merge),
/// its result cache and its scheduler.  [`DagScheduler`](crate::DagScheduler) fills in the
/// run, [`EpochDag::prepare_pending`](crate::EpochDag::prepare_pending) the bind stage of the
/// batch it closes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// DAG nodes actually executed (each exactly once).
    pub nodes_executed: u64,
    /// DAG nodes answered by a live cached result instead of executing (the whole subgraph
    /// below each of them was pruned too).
    pub results_reused: u64,
    /// Submissions answered by the epoch's bind cache — optimise, bind and merge skipped.
    pub bind_hits: u64,
    /// Submissions that were optimised, bound and merged into the DAG.
    pub bind_misses: u64,
    /// Operator insertions the DAG merge deduplicated onto an existing node.
    pub operators_deduped: u64,
    /// Distinct operator nodes the DAG merge added (a cold batch executes exactly these).
    pub nodes_added: u64,
    /// Maximum nodes in flight at once (1 for a one-thread run that executed any).
    pub peak_parallelism: usize,
    /// Threads the run executed on: the calling thread plus the helpers it spawned,
    /// `min(workers, nodes_executed)` and at least 1.
    pub workers: usize,
}

impl RunReport {
    /// Submissions answered without new plan work: operator insertions deduplicated onto an
    /// existing DAG node plus whole plans answered by the bind cache.
    #[must_use]
    pub fn plan_hits(&self) -> u64 {
        self.operators_deduped + self.bind_hits
    }

    /// Adds another report to this one, field by field.  Merged runs are taken to have run
    /// side by side, so their peaks and their threads add up too.
    pub fn merge(&mut self, other: &RunReport) {
        self.nodes_executed += other.nodes_executed;
        self.results_reused += other.results_reused;
        self.bind_hits += other.bind_hits;
        self.bind_misses += other.bind_misses;
        self.operators_deduped += other.operators_deduped;
        self.nodes_added += other.nodes_added;
        self.peak_parallelism += other.peak_parallelism;
        self.workers += other.workers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_operator_accumulates() {
        let mut s = ExecStats::new();
        s.record_operator(10, 4);
        s.record_operator(4, 4);
        assert_eq!(s.operators_executed, 2);
        assert_eq!(s.tuples_read, 14);
        assert_eq!(s.tuples_output, 8);
    }

    #[test]
    fn record_scan_counts_scans_separately() {
        let mut s = ExecStats::new();
        s.record_scan(100);
        assert_eq!(s.scans, 1);
        assert_eq!(s.operators_executed, 0);
        assert_eq!(s.tuples_output, 100);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = ExecStats::new();
        a.record_operator(5, 5);
        a.record_source_query();
        let mut b = ExecStats::new();
        b.record_operator(3, 1);
        b.record_scan(7);
        b.exec_time = Duration::from_millis(12);
        a += &b;
        assert_eq!(a.operators_executed, 2);
        assert_eq!(a.scans, 1);
        assert_eq!(a.tuples_read, 8);
        assert_eq!(a.tuples_output, 13);
        assert_eq!(a.source_queries, 1);
        assert_eq!(a.exec_time, Duration::from_millis(12));
    }

    #[test]
    fn run_reports_merge_as_runs_side_by_side() {
        let part = RunReport {
            nodes_executed: 3,
            bind_hits: 1,
            operators_deduped: 2,
            peak_parallelism: 1,
            workers: 1,
            ..RunReport::default()
        };
        let mut batch = part.clone();
        batch.merge(&part);
        assert_eq!(batch.nodes_executed, 6);
        assert_eq!(batch.plan_hits(), 6);
        assert_eq!((batch.peak_parallelism, batch.workers), (2, 2));
    }
}
