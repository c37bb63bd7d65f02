//! Service tuning knobs.

use urm_storage::ShardScheme;

/// Configuration of a [`QueryService`](crate::QueryService).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of worker threads executing batches (at least 1).
    pub workers: usize,
    /// Maximum queries per batch; a pending epoch queue is dispatched as soon as it reaches
    /// this size (or when [`flush`](crate::QueryService::flush) is called).
    pub batch_max: usize,
    /// Worker threads of the intra-batch DAG scheduler: each batch is merged into one
    /// shared-operator DAG whose independent ready nodes run on up to this many threads — the
    /// batch's own plus scoped helpers (1 = the batch's own thread alone).
    pub dag_workers: usize,
    /// Capacity of the service-wide answer cache (entries, LRU-evicted); 0 disables it.
    pub answer_cache_capacity: usize,
    /// Number of shards each epoch's catalog is partitioned into (1 = unsharded, the classic
    /// single-node path; the two are byte-identical).
    ///
    /// With `shards > 1`, every registered epoch carries a scatter-gather runtime
    /// ([`ShardSet`](urm_core::ShardSet)): source relations are deterministically partitioned
    /// by key so shard *i* holds slice *i* of every table (plus a full replica for the
    /// non-sliced side of joins), and each batch is fanned out to all shards in parallel —
    /// per-shard answers are merged back into the canonical probability-descending order.
    /// Shard work is reported in [`ServiceMetrics::shard_fanouts`](crate::ServiceMetrics) /
    /// [`shard_merge_time`](crate::ServiceMetrics) (`urm-cli --shards N`).
    pub shards: usize,
    /// How source relations are split across shards ([`Hash`](ShardScheme::Hash) on the key
    /// attribute, or contiguous [`Range`](ShardScheme::Range) chunks).  Ignored with
    /// [`shards`](ServiceConfig::shards) = 1.  Answers are byte-identical under either scheme.
    pub shard_scheme: ShardScheme,
    /// Trace-sampling rate for batches: 0 = off (the default — a disabled tracer is a no-op
    /// on every hot path), N ≥ 1 = every Nth batch records a full span tree (`batch` →
    /// `rewrite`/`optimize_bind`/`execute`/`aggregate` → per-DAG-node `node` spans, plus spill
    /// and shard spans).  Finished traces land in the service's bounded recent-traces ring
    /// ([`finished_traces`](crate::QueryService::finished_traces)); the HTTP layer also
    /// force-traces any request carrying an `X-Trace-Id` header regardless of this knob
    /// (`urm-server --trace-sample N`, `urm-cli --trace out.json`).
    pub trace_sample: usize,
    /// Byte budget for materialised relations, per epoch (`None` = unbudgeted, all in memory).
    ///
    /// With a budget, each epoch owns a spill [`BufferPool`](urm_storage::BufferPool): pinned
    /// node results are spill-backed (paged out to disk segments under pressure, reloaded
    /// transparently), and hash joins whose build side exceeds *half* the budget take the
    /// grace (partitioned) path — so workloads bigger than RAM complete instead of OOMing,
    /// with byte-identical answers.  Spill work is counted by the executor
    /// ([`ExecStats`](urm_engine::ExecStats)) and reported with the rest of its counters.
    pub memory_budget: Option<usize>,
}

/// A conservative default for the intra-batch scheduler: half the hardware threads (the other
/// half is left to the batch worker pool, which runs several batches concurrently), capped at 4
/// and degrading to sequential (1) on a single-core host — where parallel scheduling measurably
/// loses to the topological walk.  Hosts with many cores and few concurrent batches should
/// raise this explicitly.
fn default_dag_workers() -> usize {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    (threads / 2).clamp(1, 4)
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            batch_max: 64,
            dag_workers: default_dag_workers(),
            answer_cache_capacity: 1024,
            shards: 1,
            shard_scheme: ShardScheme::Hash,
            trace_sample: 0,
            memory_budget: None,
        }
    }
}

impl ServiceConfig {
    /// A config suited to tests: single worker, tiny caches, two DAG workers.
    #[must_use]
    pub fn tiny() -> Self {
        ServiceConfig {
            workers: 1,
            batch_max: 8,
            dag_workers: 2,
            answer_cache_capacity: 32,
            ..ServiceConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive() {
        let c = ServiceConfig::default();
        assert!(c.workers >= 1);
        assert!(c.batch_max >= 1);
        assert!((1..=4).contains(&c.dag_workers));
        assert!(c.answer_cache_capacity >= 1);
        assert_eq!(c.shards, 1, "sharding must be opt-in");
        assert_eq!(c.shard_scheme, ShardScheme::Hash);
    }
}
