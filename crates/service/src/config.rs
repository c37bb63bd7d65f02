//! Service tuning knobs.

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
    /// Unused: every epoch runs its batches on one epoch DAG.  The field stays only because
    /// the end-to-end benchmark's report prints it; the next benchmark change (ROADMAP item
    /// 2) drops it from the report, and then the field.
    pub shards: usize,
    /// Trace-sampling rate for batches: 0 = off (the default — a disabled tracer is a no-op
    /// on every hot path), N ≥ 1 = every Nth batch records a full span tree (`batch` →
    /// `rewrite`/`optimize_bind`/`bind`/`execute`/`aggregate` → per-DAG-node `node` spans, plus
    /// spill spans).  Finished traces land in the service's bounded recent-traces ring
    /// ([`finished_traces`](crate::QueryService::finished_traces)); the HTTP layer also
    /// force-traces any request carrying an `X-Trace-Id` header regardless of this knob
    /// (`urm-server --trace-sample N`, `urm-cli --trace out.json`).
    pub trace_sample: usize,
    /// Byte budget for materialised relations, per epoch (`None` = unbudgeted, all in
    /// memory).
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
    }
}
