//! The per-epoch persistent DAG: cross-batch operator reuse as a cache layer.
//!
//! Bound-plan fingerprints are identity-safe for the whole life of an epoch (they hash the
//! *identities* of the captured base relations, and an epoch's catalog is immutable).  This module
//! keeps one [`OperatorDag`] alive per (catalog, mapping set) epoch and layers two caches over
//! it — the only place in the workspace that holds a DAG together with its results:
//!
//! ```text
//!              logical plan ──(logical fingerprint)──► bind cache ──► Arc<PhysicalPlan>, NodeId
//!   batch 1:   miss → optimize + bind + add_plan            batch 2+: pointer lookup, no rebind
//!
//!              NodeId ──DagScheduler::execute_roots──► results
//!   batch 1:   every frontier node executes                 batch 2+: live results answer nodes,
//!              and is published (weakly + pinned)           pruning whole subgraphs
//! ```
//!
//! * **Bind cache** — logical-plan fingerprint → (bound plan, DAG node).  A warm batch skips
//!   plan optimisation, binding *and* DAG merging for every source query the epoch has seen
//!   before; submitting it is one hash lookup.
//! * **Weak result cache** — bound fingerprint → [`Weak`]`<Relation>`.  Node results are
//!   remembered as long as *someone* still holds them; the cache itself never forces an
//!   epoch's whole history to stay resident.
//! * **Pinning** — what keeps warm batches warm: a size-budgeted LRU of strong references.
//!   Recently touched results stay pinned until their cumulative estimated bytes exceed the
//!   epoch's one pin budget ([`EpochDag::with_pin_budget`]; [`EpochDag::new`] takes
//!   [`DEFAULT_PIN_BUDGET_BYTES`], [`EpochDag::pinning_all`] has no bound — the u-trace
//!   front-end whose lifetime is one evaluation), then the least recently used are evicted, so
//!   alternating batch working sets stay warm as long as both fit.  Under a memory budget
//!   ([`EpochDag::with_memory_budget`]) pins are *spill-backed*: a completed node's result is
//!   paged out to a disk segment once its last consumer finishes — instead of only dropped —
//!   and streams back in transparently when a later batch needs it.
//!
//! ## The bind/execute pipeline
//!
//! The epoch's state is split into two independently lockable stages so a serving layer can
//! overlap **batch N+1's rewrite/optimize/bind with batch N's execution**:
//!
//! * the *bind stage* — the growing [`OperatorDag`], the bind cache and the pending roots —
//!   lives in [`EpochDag`] itself, behind whatever lock the caller wraps it in;
//! * the *execute stage* — pinned/weak results, the pin budget and the result counters —
//!   lives behind an internal mutex shared by every [`PreparedBatch`].
//!
//! [`EpochDag::prepare_pending`] closes the bind stage of a batch: it snapshots the pending
//! roots' subgraph ([`OperatorDag::subgraph`] — `Arc` handles and copied fingerprints, no
//! re-hashing) into a self-contained [`PreparedBatch`].  The caller can then release its bind
//! lock and call [`PreparedBatch::execute`].  [`EpochDag::execute_pending`] composes the two
//! for single-threaded callers — answers are byte-identical either way.
//!
//! Every run of an epoch — a prepared batch with or without a memory budget, and each
//! [`EpochDag::resolve`] step — is one [`DagScheduler::execute_roots`] call against one
//! result-cache adapter.  The adapter takes the result lock only to look a node up and to
//! commit the run; no operator ever runs under it, so executions of pipelined batches overlap.
//!
//! The epoch DAG is dropped with its epoch, which is what makes the identity-based
//! fingerprints safe: no cache entry can outlive the relations its key points to.

use crate::dag::{DagResultCache, DagRun, DagScheduler, NodeId, OperatorDag};
use crate::executor::Executor;
use crate::optimize::{fingerprint, optimize};
use crate::physical::PhysicalPlan;
use crate::{EngineResult, ExecStats, Plan, RunReport};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};
use urm_storage::{BufferPool, RecencyIndex, Relation, SpillableRelation};

/// Default pin budget when no explicit budget is configured (64 MiB): generous enough that
/// alternating A/B/A/B batch workloads stay warm, bounded enough that a long-lived epoch
/// cannot pin its whole history.
pub const DEFAULT_PIN_BUDGET_BYTES: usize = 64 << 20;

/// One pinned result: resident, or a spill-pool handle that pages back in on demand.
#[derive(Debug)]
enum PinnedData {
    Mem(Arc<Relation>),
    Spilled(SpillableRelation),
}

#[derive(Debug)]
struct PinnedResult {
    data: PinnedData,
    /// Estimated in-memory footprint (the pin budget's accounting unit).
    bytes: usize,
    /// Recency stamp for LRU eviction.
    last_used: u64,
}

/// A persistent per-epoch [`OperatorDag`] with bind and result caching (see the module docs).
#[derive(Debug)]
pub struct EpochDag {
    dag: OperatorDag,
    /// Logical-plan fingerprint → (bound root, its DAG node): the rebind-skipping cache.
    bind_cache: HashMap<u64, (Arc<PhysicalPlan>, NodeId)>,
    /// The execute-stage state, shared with every in-flight [`PreparedBatch`].  Internally
    /// locked so binding the next batch never waits on the current batch's execution.
    results: Arc<Mutex<EpochResults>>,
    /// The spill pool, when this epoch runs under a memory budget: pinned results become
    /// spill-backed handles (a completed node's result is *spilled* once its last consumer
    /// finishes, instead of only dropped) and executors created for this epoch route oversized
    /// hash joins through the grace path.
    pool: Option<BufferPool>,
    /// Roots submitted since the last [`prepare_pending`](EpochDag::prepare_pending) (or
    /// [`execute_pending`](EpochDag::execute_pending), which composes it).
    pending: Vec<NodeId>,
    bind_hits: u64,
    bind_misses: u64,
    /// The bind stage of the batch being assembled: its bind-cache hits and misses, and what
    /// its DAG merges deduplicated and added.  Handed over by `prepare_pending`.
    bound: RunReport,
}

impl Default for EpochDag {
    fn default() -> Self {
        EpochDag::new()
    }
}

/// The execute stage of an epoch: result caches, pin budget and result counters.  Lives behind
/// the [`EpochDag`]'s internal mutex, independent of the caller's bind lock; a run reaches it
/// only through its [`EpochCache`].
#[derive(Debug, Default)]
struct EpochResults {
    /// Bound fingerprint → weakly held result: live results answer future batches.
    weak_results: HashMap<u64, Weak<Relation>>,
    /// Strongly held results (the pin budget decides which, and for how long).
    pinned: HashMap<u64, PinnedResult>,
    /// Sum of the estimated bytes of everything in `pinned`.
    pinned_bytes: usize,
    /// O(log n) LRU victim selection under the pin budget; stale stamps are validated
    /// against `PinnedResult::last_used` when popped (see [`RecencyIndex`]).
    pin_recency: RecencyIndex<u64>,
    /// Estimated bytes the pin set may hold; the least recently used pins go past it.
    pin_budget: usize,
    /// The epoch's spill pool (a shared handle of [`EpochDag::pool`]), so pinning can spill.
    /// Every operation on it happens under the result lock, which is what makes each locked
    /// section's spill-counter delta exact.
    pool: Option<BufferPool>,
    result_hits: u64,
    nodes_executed: u64,
    batches: u64,
}

/// The outcome of one batch on the epoch DAG: root results in submission order plus accounting.
#[derive(Debug)]
pub struct EpochRun {
    /// One result per submitted root, in submission order; duplicate roots alias one `Arc`.
    pub root_results: Vec<Arc<Relation>>,
    /// Work accounting: the run's and, for a prepared batch, its bind stage's.
    pub report: RunReport,
}

/// The closed bind stage of one batch: a self-contained snapshot of the pending roots'
/// subgraph, ready to execute without borrowing the [`EpochDag`].
///
/// Produced by [`EpochDag::prepare_pending`].  The snapshot shares bound plans by `Arc` and
/// carries fingerprints verbatim ([`OperatorDag::subgraph`]), so preparing a warm batch costs
/// a pointer walk.  A serving layer holds its bind lock only across `prepare_pending`,
/// letting batch N+1 rewrite and bind while batch N executes; [`execute`](PreparedBatch::execute)
/// touches the epoch's internal result lock only to look nodes up and to commit, so the
/// executions themselves overlap too.
#[derive(Debug)]
pub struct PreparedBatch {
    subdag: OperatorDag,
    roots: Vec<NodeId>,
    results: Arc<Mutex<EpochResults>>,
    pool: Option<BufferPool>,
    /// The batch's bind stage, as [`EpochDag::prepare_pending`] closed it.
    bound: RunReport,
}

impl PreparedBatch {
    /// Whether the batch has no roots (an empty flush).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Number of submitted roots (one result each, in submission order).
    #[must_use]
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// The epoch's spill pool, when it runs under a memory budget — the execute stage's
    /// executor should be built from this so grace joins share the epoch's budget.
    #[must_use]
    pub fn pool(&self) -> Option<&BufferPool> {
        self.pool.as_ref()
    }

    /// Executes the prepared batch: only the nodes the roots need and no live cached result
    /// answers are run (on `workers` threads when > 1), results come back in submission order,
    /// and this batch's working set moves to the front of the pin set.  The bind stage is
    /// untouched.
    ///
    /// The operator work runs **outside** the epoch's result lock, with or without a memory
    /// budget (see [`EpochCache`]), so executions of pipelined batches overlap on multi-core
    /// hosts.  Two overlapping batches that both miss the same node each compute it
    /// (deterministically, so answers stay byte-identical); the commit folds both copies onto
    /// one cache entry.
    pub fn execute(self, exec: &mut Executor<'_>, workers: usize) -> EngineResult<EpochRun> {
        let mut run = run_on(&self.results, &self.subdag, &self.roots, exec, workers)?;
        run.report.merge(&self.bound);
        Ok(EpochRun {
            root_results: run.root_results,
            report: run.report,
        })
    }
}

/// Runs `roots` of `dag` on `workers` threads against an epoch's results and commits the run,
/// failed or not (what a failed run did compute is valid, and its spill counters are owed):
/// the one way every batch and every [`EpochDag::resolve`] step executes.
fn run_on(
    results: &Mutex<EpochResults>,
    dag: &OperatorDag,
    roots: &[NodeId],
    exec: &mut Executor<'_>,
    workers: usize,
) -> EngineResult<DagRun> {
    let mut cache = EpochCache {
        results,
        touched: HashMap::new(),
        fresh: Vec::new(),
        hits: 0,
        spill: ExecStats::default(),
    };
    let run = DagScheduler::with_workers(workers).execute_roots(dag, roots, exec, &mut cache);
    cache.commit(exec.stats_mut());
    run
}

/// The [`DagResultCache`] adapter of one run over an epoch's results.  It takes the epoch's
/// result lock in exactly two places, and no operator runs under it:
///
/// 1. [`lookup`](DagResultCache::lookup) — a pinned result (a spilled pin reloads from its
///    segment), else a live weak one;
/// 2. [`commit`](EpochCache::commit) — counters, weak entries for the fresh results, pins
///    and the pin trim.
///
/// Fresh results collect here, off the lock, as the scheduler's workers publish them.  Every
/// operation on an epoch's spill pool happens inside one of these two sections, and each folds
/// the pool-counter delta it caused into the run's [`ExecStats`] — so the counters stay
/// exactly attributed even when runs overlap.
struct EpochCache<'a> {
    results: &'a Mutex<EpochResults>,
    /// Everything this run used — hits and fresh results — to pin at commit.
    touched: HashMap<u64, Arc<Relation>>,
    /// Fingerprints of the results this run computed, for the weak cache.
    fresh: Vec<u64>,
    hits: u64,
    /// The spill-counter deltas of this run's lookups, folded into the executor at commit.
    spill: ExecStats,
}

impl EpochCache<'_> {
    /// Folds the run into the epoch (the second locked section): counters, weak entries for
    /// the fresh results, pins refreshed or admitted (spill-backed under a budget) and the pin
    /// trim; the spill-counter deltas of the whole run land in `stats`.
    fn commit(self, stats: &mut ExecStats) {
        let mut results = self.results.lock().expect("epoch result lock poisoned");
        results.result_hits += self.hits;
        results.nodes_executed += self.fresh.len() as u64;
        results.batches += 1;
        for fingerprint in &self.fresh {
            let fresh = Arc::downgrade(&self.touched[fingerprint]);
            results.weak_results.insert(*fingerprint, fresh);
        }
        let pool = results.pool.clone();
        with_spill_delta(pool.as_ref(), stats, || results.pin_touched(self.touched));
        results.trim_pins();
        // Drop dead weak entries so the map tracks live results, not the epoch's history.
        results.weak_results.retain(|_, w| w.strong_count() > 0);
        stats.merge(&self.spill);
    }
}

impl DagResultCache for EpochCache<'_> {
    fn lookup(&mut self, fingerprint: u64) -> Option<Arc<Relation>> {
        let hit = self
            .results
            .lock()
            .expect("epoch result lock poisoned")
            .lookup(fingerprint, &mut self.spill)?;
        self.hits += 1;
        self.touched.insert(fingerprint, Arc::clone(&hit));
        Some(hit)
    }

    fn publish(&mut self, fingerprint: u64, result: &Arc<Relation>) {
        self.fresh.push(fingerprint);
        self.touched.insert(fingerprint, Arc::clone(result));
    }
}

/// Runs `f`, adding the spill-pool counter delta it causes to `stats` (just `f` without a pool).
fn with_spill_delta<R>(
    pool: Option<&BufferPool>,
    stats: &mut ExecStats,
    f: impl FnOnce() -> R,
) -> R {
    let Some(pool) = pool else { return f() };
    let before = pool.stats();
    let out = f();
    stats.absorb_spill_delta(&before, &pool.stats());
    out
}

impl EpochDag {
    /// An empty epoch DAG pinning up to [`DEFAULT_PIN_BUDGET_BYTES`] of results.
    #[must_use]
    pub fn new() -> Self {
        EpochDag::with_pin_budget(DEFAULT_PIN_BUDGET_BYTES)
    }

    /// The general constructor behind the public ones.
    fn with_parts(pin_budget: usize, pool: Option<BufferPool>) -> Self {
        EpochDag {
            dag: OperatorDag::new(),
            bind_cache: HashMap::new(),
            results: Arc::new(Mutex::new(EpochResults {
                pin_budget,
                pool: pool.clone(),
                ..EpochResults::default()
            })),
            pool,
            pending: Vec::new(),
            bind_hits: 0,
            bind_misses: 0,
            bound: RunReport::default(),
        }
    }

    /// An empty epoch DAG that pins every result for its whole lifetime — for short-lived
    /// users like the o-sharing u-trace, where the "epoch" is one evaluation.
    #[must_use]
    pub fn pinning_all() -> Self {
        EpochDag::with_pin_budget(usize::MAX)
    }

    /// An epoch DAG with no spill pool whose pins stay resident up to `bytes`: alternating
    /// batch working sets keep each other warm as long as both fit.
    #[must_use]
    pub fn with_pin_budget(bytes: usize) -> Self {
        EpochDag::with_parts(bytes, None)
    }

    /// An epoch DAG for running under a memory budget of `bytes`: a [`BufferPool`] with that
    /// budget backs every pinned result (results spill to disk segments under pressure and
    /// page back in on access), and executors created via this epoch's pool route oversized
    /// hash joins through the grace path.  The pin budget over the spill-backed history is
    /// `max(4 × bytes, DEFAULT_PIN_BUDGET_BYTES)` — disk is cheaper than RAM, so the warm
    /// history may exceed the resident budget.
    #[must_use]
    pub fn with_memory_budget(bytes: usize) -> Self {
        EpochDag::with_parts(
            bytes.saturating_mul(4).max(DEFAULT_PIN_BUDGET_BYTES),
            Some(BufferPool::with_budget(bytes)),
        )
    }

    /// The epoch's spill pool, when it runs under a memory budget.  The batch layer builds its
    /// executors from this, so grace joins and pinned-result spilling share one budget.
    #[must_use]
    pub fn pool(&self) -> Option<&BufferPool> {
        self.pool.as_ref()
    }

    /// Submits a logical plan as a root of the current batch: optimised, bound and merged into
    /// the DAG on first sight, answered by the bind cache (a hash lookup, zero allocation on
    /// the plan path) ever after.
    pub fn submit(&mut self, plan: &Plan, exec: &Executor<'_>) -> EngineResult<NodeId> {
        let key = fingerprint(plan);
        self.submit_with(key, || {
            let optimized = optimize(plan, exec.catalog())?;
            exec.bind(&optimized)
        })
    }

    /// Like [`submit`](EpochDag::submit) with the caller supplying the logical fingerprint and
    /// the binder — for callers that time or customise the optimise/bind step.  `key` must
    /// identify the logical plan within this epoch (two different plans must not share a key;
    /// the same plan should, or it forfeits its rebind skip).
    pub fn submit_with(
        &mut self,
        key: u64,
        bind: impl FnOnce() -> EngineResult<Arc<PhysicalPlan>>,
    ) -> EngineResult<NodeId> {
        let node = match self.bind_cache.get(&key) {
            Some(&(_, node)) => {
                self.bind_hits += 1;
                self.bound.bind_hits += 1;
                node
            }
            None => {
                self.bind_misses += 1;
                self.bound.bind_misses += 1;
                let physical = bind()?;
                let (reused, nodes) = (self.dag.operators_reused(), self.dag.node_count());
                let node = self.dag.add_plan(&physical);
                self.bound.operators_deduped += self.dag.operators_reused() - reused;
                self.bound.nodes_added += (self.dag.node_count() - nodes) as u64;
                self.bind_cache.insert(key, (physical, node));
                node
            }
        };
        self.pending.push(node);
        Ok(node)
    }

    /// Abandons the current batch: drops every root submitted since the last
    /// [`prepare_pending`](EpochDag::prepare_pending) and resets the batch's bind-stage
    /// accounting.  Callers **must** invoke this when batch assembly fails partway (a later
    /// query failed to reformulate or bind), or the stale roots would silently prepend
    /// themselves to the next batch's results.  Returns how many roots were dropped.
    pub fn abort_pending(&mut self) -> usize {
        let dropped = self.pending.len();
        self.pending.clear();
        self.bound = RunReport::default();
        dropped
    }

    /// Closes the bind stage of the current batch: takes the roots submitted since the last
    /// call, snapshots their subgraph and the batch's bind-stage accounting into a
    /// self-contained [`PreparedBatch`], and leaves the epoch ready to bind the *next* batch
    /// immediately.  See the module docs for the pipeline this enables.
    pub fn prepare_pending(&mut self) -> PreparedBatch {
        let pending = std::mem::take(&mut self.pending);
        let (subdag, roots) = self.dag.subgraph(&pending);
        PreparedBatch {
            subdag,
            roots,
            results: Arc::clone(&self.results),
            pool: self.pool.clone(),
            bound: std::mem::take(&mut self.bound),
        }
    }

    /// Executes the batch submitted since the last call: only the nodes the batch's roots need
    /// and no live cached result answers are run (on `workers` threads when > 1), results come
    /// back in submission order, and the batch's working set is pinned.
    ///
    /// This is [`prepare_pending`](EpochDag::prepare_pending) followed by
    /// [`PreparedBatch::execute`] — the single-lock convenience path.  Pipelining callers
    /// split the two so the next batch binds while this one executes.
    pub fn execute_pending(
        &mut self,
        exec: &mut Executor<'_>,
        workers: usize,
    ) -> EngineResult<EpochRun> {
        self.prepare_pending().execute(exec, workers)
    }

    /// Resolves one bound plan immediately (the incremental front-end of the u-trace's probes
    /// and leaves): the plan is merged into the DAG and run as a batch of one root on the calling
    /// thread — only the nodes without a live cached result execute, and the results are pinned
    /// like any batch's.
    pub fn resolve(
        &mut self,
        physical: &Arc<PhysicalPlan>,
        exec: &mut Executor<'_>,
    ) -> EngineResult<Arc<Relation>> {
        let root = self.dag.add_plan(physical);
        let run = run_on(&self.results, &self.dag, &[root], exec, 1)?;
        Ok(run
            .root_results
            .into_iter()
            .next()
            .expect("one root, one result"))
    }

    /// The underlying shared-operator DAG (metrics, inspection).
    #[must_use]
    pub fn dag(&self) -> &OperatorDag {
        &self.dag
    }

    /// Distinct operator nodes merged into the epoch DAG so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.dag.node_count()
    }

    /// Submissions answered by the bind cache over the epoch's lifetime.
    #[must_use]
    pub fn bind_hits(&self) -> u64 {
        self.bind_hits
    }

    /// Submissions that were optimised, bound and merged over the epoch's lifetime.
    #[must_use]
    pub fn bind_misses(&self) -> u64 {
        self.bind_misses
    }

    /// Node executions skipped because a live cached result answered the node.
    #[must_use]
    pub fn result_hits(&self) -> u64 {
        self.results.lock().unwrap().result_hits
    }

    /// Node executions actually performed over the epoch's lifetime.
    #[must_use]
    pub fn nodes_executed(&self) -> u64 {
        self.results.lock().unwrap().nodes_executed
    }

    /// Runs executed: batches (via [`execute_pending`](EpochDag::execute_pending), or prepared
    /// and executed through the pipeline) and [`resolve`](EpochDag::resolve) steps.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.results.lock().unwrap().batches
    }

    /// Results currently pinned (resident or spill-backed).
    #[must_use]
    pub fn pinned_results(&self) -> usize {
        self.results.lock().unwrap().pinned.len()
    }

    /// Estimated bytes of everything currently pinned (what the pin budget bounds;
    /// spill-backed pins count their in-memory estimate even while paged out).
    #[must_use]
    pub fn pinned_bytes(&self) -> usize {
        self.results.lock().unwrap().pinned_bytes
    }
}

impl EpochResults {
    /// Answers one node (the first locked section of a run): from the pin set, refreshing its
    /// recency — a spilled pin reloads from its segment, the pool-counter delta going to
    /// `spill` — else from a live weak entry.  A pin whose segment cannot be read any more is
    /// dropped, and the node simply recomputes.
    fn lookup(&mut self, fingerprint: u64, spill: &mut ExecStats) -> Option<Arc<Relation>> {
        if let Some(entry) = self.pinned.get_mut(&fingerprint) {
            self.pin_recency.touch(fingerprint, &mut entry.last_used);
            let loaded = match &entry.data {
                PinnedData::Mem(rel) => Some(Arc::clone(rel)),
                // `load` fails only when this pin's own segment is unreadable (pool-rebalancing
                // errors are swallowed inside the pool), so dropping the pin below is correct.
                PinnedData::Spilled(handle) => {
                    with_spill_delta(self.pool.as_ref(), spill, || handle.load().ok())
                }
            };
            if loaded.is_some() {
                return loaded;
            }
            let entry = self.pinned.remove(&fingerprint).expect("entry looked up");
            self.pin_recency.forget(entry.last_used);
            self.pinned_bytes -= entry.bytes;
        }
        self.weak_results.get(&fingerprint).and_then(Weak::upgrade)
    }

    /// Upserts every touched result into the pin set (spill-backed when a pool is attached),
    /// refreshing recency.
    fn pin_touched(&mut self, touched: HashMap<u64, Arc<Relation>>) {
        for (fp, rel) in touched {
            if let Some(entry) = self.pinned.get_mut(&fp) {
                // Fingerprint-identical results have identical content (operators are pure
                // functions of immutable inputs), so the existing pin stays; only recency moves.
                self.pin_recency.touch(fp, &mut entry.last_used);
                continue;
            }
            // A resident pin weighs what it holds (a late-materialized result: its index
            // vectors); a spill-backed one what the pool accounts it at (its rows).
            let (data, bytes) = match &self.pool {
                Some(pool) => match pool.admit_shared(rel) {
                    Ok(handle) => {
                        let bytes = handle.estimated_bytes();
                        (PinnedData::Spilled(handle), bytes)
                    }
                    // An I/O failure while spilling degrades to "not pinned" (recomputed on
                    // next use) rather than failing the batch that already produced answers.
                    Err(_) => continue,
                },
                None => {
                    let bytes = rel.estimated_bytes().max(1);
                    (PinnedData::Mem(rel), bytes)
                }
            };
            let stamp = self.pin_recency.insert_fresh(fp);
            self.pinned.insert(
                fp,
                PinnedResult {
                    data,
                    bytes,
                    last_used: stamp,
                },
            );
            self.pinned_bytes += bytes;
        }
    }

    /// Evicts least-recently-used pins while the pin set exceeds its byte budget.
    fn trim_pins(&mut self) {
        while self.pinned_bytes > self.pin_budget {
            // Pop oldest-first, discarding stale stamps, until a live victim surfaces.
            let pinned = &self.pinned;
            let victim = self
                .pin_recency
                .pop_oldest(|fp, stamp| pinned.get(fp).is_some_and(|e| e.last_used == stamp));
            let Some(fp) = victim else { break };
            let entry = self.pinned.remove(&fp).expect("victim pinned");
            self.pinned_bytes -= entry.bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompareOp, Predicate};
    use urm_storage::{Attribute, Catalog, DataType, Schema, Tuple, Value};

    fn catalog() -> Catalog {
        let schema = Schema::new(
            "R",
            vec![
                Attribute::new("a", DataType::Int),
                Attribute::new("b", DataType::Text),
            ],
        );
        let rows = (0..30)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(i as i64),
                    Value::from(if i % 3 == 0 { "x" } else { "y" }),
                ])
            })
            .collect();
        let mut cat = Catalog::new();
        cat.insert(Relation::new(schema, rows).unwrap());
        cat
    }

    fn queries() -> Vec<Plan> {
        let base = Plan::scan("R").select(Predicate::eq("R.b", Value::from("x")));
        vec![
            base.clone().project(vec!["R.a".into()]),
            base.clone().project(vec!["R.b".into()]),
            Plan::scan("R").select(Predicate::compare("R.a", CompareOp::Gt, Value::from(10i64))),
        ]
    }

    fn run_batch(epoch: &mut EpochDag, exec: &mut Executor<'_>, workers: usize) -> EpochRun {
        for q in queries() {
            epoch.submit(&q, exec).unwrap();
        }
        epoch.execute_pending(exec, workers).unwrap()
    }

    #[test]
    fn warm_batch_skips_rebinding_and_re_execution_entirely() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        let mut epoch = EpochDag::new();

        let cold = run_batch(&mut epoch, &mut exec, 1);
        assert_eq!(cold.report.bind_hits, 0);
        assert_eq!(cold.report.bind_misses, 3);
        assert!(cold.report.nodes_executed > 0);
        assert_eq!(cold.report.results_reused, 0);
        let work_after_cold = exec.stats().operators_executed + exec.stats().scans;

        let warm = run_batch(&mut epoch, &mut exec, 1);
        assert_eq!(warm.report.bind_hits, 3, "warm batch must skip rebinding");
        assert_eq!(warm.report.bind_misses, 0);
        assert_eq!(
            warm.report.nodes_executed, 0,
            "warm batch must not execute a single node"
        );
        assert_eq!(warm.report.results_reused, 3, "all roots answered by cache");
        assert_eq!(
            exec.stats().operators_executed + exec.stats().scans,
            work_after_cold,
            "warm batch charged executor work"
        );

        // Warm results are the cold batch's allocations, shared by pointer.
        for (a, b) in cold.root_results.iter().zip(&warm.root_results) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert_eq!(epoch.batches(), 2);
    }

    #[test]
    fn warm_results_match_rebuild_every_batch_for_any_worker_count() {
        let cat = catalog();
        for workers in [1usize, 2, 4] {
            let mut exec = Executor::new(&cat);
            let mut epoch = EpochDag::new();
            let cold = run_batch(&mut epoch, &mut exec, workers);
            let warm = run_batch(&mut epoch, &mut exec, workers);
            // The rebuild-every-batch baseline: a throwaway epoch per batch.
            let mut fresh = EpochDag::new();
            let rebuilt = run_batch(&mut fresh, &mut exec, workers);
            for ((a, b), c) in cold
                .root_results
                .iter()
                .zip(&warm.root_results)
                .zip(&rebuilt.root_results)
            {
                assert_eq!(a.rows(), b.rows());
                assert_eq!(a.rows(), c.rows());
                assert_eq!(a.schema(), c.schema());
            }
        }
    }

    #[test]
    fn pipelined_prepare_lets_the_next_batch_bind_before_execution() {
        // The two-stage pipeline: batch 2 is rewritten/bound (and its subgraph snapshotted)
        // while batch 1 has not executed yet — then both execute, in order, with answers and
        // accounting identical to the serialised path.
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        let mut epoch = EpochDag::new();

        for q in queries() {
            epoch.submit(&q, &exec).unwrap();
        }
        let first = epoch.prepare_pending();
        assert_eq!(first.root_count(), 3);
        assert_eq!(first.bound.bind_misses, 3);

        // Bind stage of batch 2 proceeds although batch 1 never executed: the bind cache
        // answers every submission.
        for q in queries() {
            epoch.submit(&q, &exec).unwrap();
        }
        let second = epoch.prepare_pending();
        assert_eq!(second.bound.bind_hits, 3, "bind cache must answer batch 2");
        assert_eq!(second.bound.bind_misses, 0);

        let run1 = first.execute(&mut exec, 2).unwrap();
        assert!(run1.report.nodes_executed > 0);
        let run2 = second.execute(&mut exec, 2).unwrap();
        assert_eq!(
            run2.report.nodes_executed, 0,
            "batch 2 must be answered by batch 1's pinned results"
        );
        assert_eq!(run2.report.results_reused, 3);
        for (a, b) in run1.root_results.iter().zip(&run2.root_results) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert_eq!(epoch.batches(), 2);
    }

    #[test]
    fn prepared_batches_execute_on_other_threads() {
        // A PreparedBatch is self-contained: it can leave the bind lock's critical section and
        // execute on a different thread, as the serving layer's pipeline does.
        let cat = catalog();
        let exec = Executor::new(&cat);
        let mut epoch = EpochDag::new();
        for q in queries() {
            epoch.submit(&q, &exec).unwrap();
        }
        let prepared = epoch.prepare_pending();
        let run = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut exec = Executor::new(&cat);
                    prepared.execute(&mut exec, 2)
                })
                .join()
                .expect("executor thread panicked")
        })
        .unwrap();
        assert_eq!(run.root_results.len(), 3);
        assert_eq!(run.root_results[0].len(), 10);
        // The results the off-thread execution pinned answer this thread's next batch.
        let mut exec = Executor::new(&cat);
        let warm = run_batch(&mut epoch, &mut exec, 1);
        assert_eq!(warm.report.nodes_executed, 0);
    }

    #[test]
    fn concurrent_executions_of_an_epoch_stay_byte_identical() {
        // Two batches prepared back-to-back execute at the same time on two threads — on a
        // pool-free epoch and on one whose memory budget spills every pin.  Neither holds the
        // result lock across its operator work, both commit, answers match the
        // rebuild-every-batch baseline row for row, each run's spill counters are exactly its
        // share of the pool's totals, and the epoch ends up warm.
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        let baseline = run_batch(&mut EpochDag::new(), &mut exec, 1);
        let execute = |batch: PreparedBatch| {
            let mut exec = match batch.pool().cloned() {
                Some(pool) => Executor::with_pool(&cat, pool),
                None => Executor::new(&cat),
            };
            let run = batch.execute(&mut exec, 2);
            (run, exec.into_stats())
        };
        for mut epoch in [EpochDag::new(), EpochDag::with_memory_budget(0)] {
            for q in queries() {
                epoch.submit(&q, &exec).unwrap();
            }
            let first = epoch.prepare_pending();
            for q in queries() {
                epoch.submit(&q, &exec).unwrap();
            }
            let second = epoch.prepare_pending();

            let ((run1, stats1), (run2, stats2)) = std::thread::scope(|scope| {
                let a = scope.spawn(move || execute(first));
                let b = scope.spawn(move || execute(second));
                (a.join().expect("batch 1"), b.join().expect("batch 2"))
            });
            let (run1, run2) = (run1.unwrap(), run2.unwrap());
            for run in [&run1, &run2] {
                assert_eq!(run.root_results.len(), baseline.root_results.len());
                for (got, want) in run.root_results.iter().zip(&baseline.root_results) {
                    assert_eq!(got.schema(), want.schema());
                    assert_eq!(got.rows(), want.rows());
                }
            }
            if let Some(pool) = epoch.pool() {
                let total = pool.stats();
                assert!(total.bytes_spilled > 0, "budget 0 must spill every pin");
                let sum = |f: fn(&ExecStats) -> u64| f(&stats1) + f(&stats2);
                assert_eq!(sum(|s| s.bytes_spilled), total.bytes_spilled);
                assert_eq!(sum(|s| s.spill_reloads), total.spill_reloads);
                assert_eq!(sum(|s| s.segment_bytes_raw), total.segment_bytes_raw);
                assert_eq!(
                    sum(|s| s.segment_bytes_encoded),
                    total.segment_bytes_encoded
                );
            }
            assert_eq!(epoch.batches(), 2);
            // Both commits landed: a third batch is answered without executing a node.
            let warm = run_batch(&mut epoch, &mut exec, 1);
            assert_eq!(warm.report.nodes_executed, 0);
            assert_eq!(warm.report.results_reused, 3);
        }
    }

    #[test]
    fn live_external_results_answer_even_rotated_nodes() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        // One byte of budget: at most one pin survives a batch.
        let mut epoch = EpochDag::with_pin_budget(1);

        // Hold the cold batch's results alive externally across an unrelated batch.
        let cold = run_batch(&mut epoch, &mut exec, 1);
        epoch
            .submit(
                &Plan::scan("R").select(Predicate::eq("R.b", Value::from("y"))),
                &exec,
            )
            .unwrap();
        epoch.execute_pending(&mut exec, 1).unwrap();

        // Although the pins were evicted, the weak cache upgrades the externally held Arcs.
        let warm = run_batch(&mut epoch, &mut exec, 1);
        assert_eq!(warm.report.nodes_executed, 0);
        for (a, b) in cold.root_results.iter().zip(&warm.root_results) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn pinning_all_never_recomputes() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        let mut epoch = EpochDag::pinning_all();
        run_batch(&mut epoch, &mut exec, 1);
        let first_pins = epoch.pinned_results();
        epoch
            .submit(
                &Plan::scan("R").select(Predicate::eq("R.b", Value::from("y"))),
                &exec,
            )
            .unwrap();
        epoch.execute_pending(&mut exec, 1).unwrap();
        assert!(epoch.pinned_results() > first_pins, "pins must accumulate");
        let warm = run_batch(&mut epoch, &mut exec, 1);
        assert_eq!(warm.report.nodes_executed, 0);
    }

    #[test]
    fn abort_pending_discards_the_half_assembled_batch() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        let mut epoch = EpochDag::new();
        run_batch(&mut epoch, &mut exec, 1);

        // A batch that fails partway leaves stale roots pending; aborting must drop them so
        // the next batch's results stay aligned with its own submissions.
        epoch
            .submit(
                &Plan::scan("R").select(Predicate::eq("R.b", Value::from("y"))),
                &exec,
            )
            .unwrap();
        assert_eq!(epoch.abort_pending(), 1);

        let next = run_batch(&mut epoch, &mut exec, 1);
        assert_eq!(
            next.root_results.len(),
            queries().len(),
            "stale roots leaked into the next batch"
        );
        // Results line up with the submissions, not with the aborted leftover.
        assert_eq!(next.root_results[0].schema().arity(), 1);
        // The aborted batch's bind-counter deltas were resynchronised too.
        assert_eq!(next.report.bind_misses, 0);
    }

    #[test]
    fn spilled_pins_answer_warm_batches_from_disk() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        // Memory budget 0: every pinned result is paged out to a segment immediately.
        let mut epoch = EpochDag::with_memory_budget(0);
        let pool = epoch.pool().unwrap().clone();

        let cold = run_batch(&mut epoch, &mut exec, 1);
        assert!(cold.report.nodes_executed > 0);
        assert!(
            pool.stats().segments_written > 0,
            "budget 0 must spill every pin"
        );
        let reloads_after_cold = pool.stats().spill_reloads;
        let cold_rows: Vec<_> = cold
            .root_results
            .iter()
            .map(|r| r.rows().to_vec())
            .collect();
        drop(cold);

        // With every external Arc dropped, the warm batch can only be answered from disk.
        let warm = run_batch(&mut epoch, &mut exec, 1);
        assert_eq!(
            warm.report.nodes_executed, 0,
            "warm batch must be answered from spilled pins, not recomputed"
        );
        assert!(
            pool.stats().spill_reloads > reloads_after_cold,
            "warm batch never touched the segments"
        );
        for (want, got) in cold_rows.iter().zip(&warm.root_results) {
            assert_eq!(want, &got.rows().to_vec(), "reload changed the rows");
        }
    }

    #[test]
    fn byte_budget_pins_keep_alternating_batches_warm() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        // A generous in-memory byte budget: both working sets fit.
        let mut epoch = EpochDag::with_pin_budget(1 << 20);

        let batch_a = || queries();
        let batch_b = || vec![Plan::scan("R").select(Predicate::eq("R.b", Value::from("y")))];
        for plan in batch_a() {
            epoch.submit(&plan, &exec).unwrap();
        }
        epoch.execute_pending(&mut exec, 1).unwrap();
        for plan in batch_b() {
            epoch.submit(&plan, &exec).unwrap();
        }
        epoch.execute_pending(&mut exec, 1).unwrap();
        assert!(epoch.pinned_bytes() > 0);

        // A again, then B again: both working sets fit the budget, so both stay warm.
        for plan in batch_a() {
            epoch.submit(&plan, &exec).unwrap();
        }
        let third = epoch.execute_pending(&mut exec, 1).unwrap();
        assert_eq!(third.report.nodes_executed, 0, "batch A went cold");
        for plan in batch_b() {
            epoch.submit(&plan, &exec).unwrap();
        }
        let fourth = epoch.execute_pending(&mut exec, 1).unwrap();
        assert_eq!(fourth.report.nodes_executed, 0, "batch B went cold");
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_pins() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        // A budget of one byte: after every batch at most one (the most recent) pin survives…
        let mut epoch = EpochDag::with_pin_budget(1);
        run_batch(&mut epoch, &mut exec, 1);
        assert!(epoch.pinned_results() <= 1);
        assert!(epoch.pinned_bytes() <= epoch.pinned_results());
        // …so a repeat batch has to re-execute most nodes, and answers stay correct.
        let warm = run_batch(&mut epoch, &mut exec, 1);
        assert!(warm.report.nodes_executed > 0);
        assert_eq!(warm.root_results.len(), queries().len());
        assert_eq!(warm.report.bind_hits, 3, "bind cache is unaffected by pins");
    }
}
