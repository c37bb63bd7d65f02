//! The shared-operator DAG runtime: sharing as a first-class graph edge.
//!
//! Every sharing mechanism of the paper — e-MQO's global plans (§III-B.3), q-sharing's
//! representative queries (§IV) and o-sharing's e-units (§V–VI) — bottoms out in the same
//! observation: two queries (or two mapping partitions) that need the *same bound operator over
//! the same inputs* should execute it once and share the result.  Here the observation is
//! the data structure:
//!
//! ```text
//!   bound plans  ──add_plan()──►  OperatorDag  ──DagScheduler──►  root results
//!   (PhysicalPlan trees)          nodes deduplicated              every needed node
//!                                 by fingerprint;                 executed exactly once;
//!                                 edges carry Arc<Relation>       fan-out is an Arc clone;
//!                                 (late-materialized views)       roots included
//! ```
//!
//! * [`OperatorDag`] — the IR.  Nodes are bound physical operators, deduplicated by
//!   [`PhysicalPlan::fingerprint`]; an operator shared by `n` consumers is one node with `n`
//!   incoming edges.  Because children are inserted before parents, the node vector is a
//!   topological order by construction.
//! * [`DagScheduler`] — executes what a set of roots needs, bottom-up, in one worker loop:
//!   take the most expensive *ready* node, run it, release its consumers.  One worker runs the
//!   loop on the calling thread; more add scoped helper threads (each with its own
//!   [`Executor`] over the shared catalog) to the same loop, merging statistics afterwards —
//!   never more threads than nodes to run or than CPUs the process may use ([`run_threads`]).
//!   Every needed node executes **exactly once** and hands its result to all consumers as a
//!   shared `Arc<Relation>` — results are byte-identical for any worker count because every
//!   operator is a pure function of its children's batches.  What flows along an interior edge
//!   is a late-materialized view (index vectors over base columns, see [`Relation::view`]),
//!   and a root is handed back the same way: whoever reads its rows builds them, and answer
//!   extraction reads its column codes instead.
//!
//! A DAG holds no results.  The one holder is [`EpochDag`](crate::EpochDag): its result cache
//! plugs in as a [`DagResultCache`], consulted before the scheduler descends into a subgraph — a
//! hit prunes the entire subtree below it — and handed every fresh result.  A batch (served,
//! or a per-query algorithm's) and a u-trace step all run this one way.

use crate::executor::Executor;
use crate::physical::PhysicalPlan;
use crate::{EngineError, EngineResult, RunReport};
use std::collections::{BinaryHeap, HashMap};
use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use urm_storage::Relation;

/// Identifier of a node in an [`OperatorDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// The node's position in the DAG's topological node order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One deduplicated operator of the DAG.
#[derive(Debug)]
struct DagNode {
    /// The bound sub-plan rooted at this operator, *shared* with the caller's bound tree —
    /// inserting a node is an `Arc` clone, never a subtree deep-copy.  Execution only inspects
    /// the top-level variant (children arrive as materialised batches), but keeping the full
    /// subtree makes nodes self-describing (schema, display, re-fingerprinting).
    plan: Arc<PhysicalPlan>,
    /// Child node indices, in [`PhysicalPlan::children`] order (duplicates allowed: an operator
    /// may consume the same shared node twice).
    children: Vec<usize>,
    /// Consumer node indices (one entry per incoming edge, duplicates allowed).
    consumers: Vec<usize>,
    /// The node's sharing key.
    fingerprint: u64,
    /// Estimated output rows (bind-time, from the captured relations' sizes).
    est_rows: u64,
    /// Estimated work to execute the node (input rows consumed + output rows produced); the
    /// scheduler's ready queue is a max-heap over this.
    cost: u64,
}

/// A shared-operator DAG over bound physical plans.
///
/// Insert whole plans with [`add_plan`](OperatorDag::add_plan); every sub-plan is deduplicated
/// against everything inserted so far, so the DAG of a query batch contains each distinct bound
/// operator once, with fan-out edges to every consumer.  See the [module docs](self) for the
/// execution model and the sharing guarantees.
#[derive(Debug, Default)]
pub struct OperatorDag {
    nodes: Vec<DagNode>,
    index: HashMap<u64, usize>,
    offered: u64,
    reused: u64,
}

impl OperatorDag {
    /// Creates an empty DAG.
    #[must_use]
    pub fn new() -> Self {
        OperatorDag::default()
    }

    /// Merges a bound plan into the DAG, returning the node its root deduplicated onto.  The
    /// same node may be asked for many times — duplicate queries in a batch share one execution
    /// and one result.
    ///
    /// Children are inserted before parents, so node indices are a topological order.  The
    /// plan's nodes are taken over by `Arc` handle — zero subtree clones on this path; the DAG
    /// node's stored plan (and each of its inputs) is pointer-identical to the caller's bound
    /// tree.
    pub fn add_plan(&mut self, plan: &Arc<PhysicalPlan>) -> NodeId {
        let children: Vec<usize> = plan.children_shared().map(|c| self.add_plan(c).0).collect();
        self.offered += 1;
        let fingerprint = plan.fingerprint();
        if let Some(&existing) = self.index.get(&fingerprint) {
            self.reused += 1;
            return NodeId(existing);
        }
        let id = self.nodes.len();
        for &child in &children {
            self.nodes[child].consumers.push(id);
        }
        let child_rows: Vec<u64> = children.iter().map(|&c| self.nodes[c].est_rows).collect();
        let est_rows = plan.estimate_from(&child_rows);
        let cost = child_rows.iter().sum::<u64>() + est_rows;
        self.nodes.push(DagNode {
            plan: Arc::clone(plan),
            children,
            consumers: Vec::new(),
            fingerprint,
            est_rows,
            cost,
        });
        self.index.insert(fingerprint, id);
        NodeId(id)
    }

    /// Number of distinct operator nodes (scans and `Values` leaves included).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total sub-plan insertions offered (including ones answered by an existing node).
    #[must_use]
    pub fn operators_offered(&self) -> u64 {
        self.offered
    }

    /// Insertions that deduplicated onto an existing node — the sharing the DAG realises.
    #[must_use]
    pub fn operators_reused(&self) -> u64 {
        self.reused
    }

    /// The sharing key of a node.
    #[must_use]
    pub fn fingerprint_of(&self, id: NodeId) -> u64 {
        self.nodes[id.0].fingerprint
    }

    /// Number of incoming edges (consumers) of a node — its fan-out degree.
    #[must_use]
    pub fn consumer_count(&self, id: NodeId) -> usize {
        self.nodes[id.0].consumers.len()
    }

    /// The shared handle of the bound plan rooted at a node — pointer-identical to the tree the
    /// node was inserted from (the zero-clone invariant of [`add_plan`](OperatorDag::add_plan)).
    #[must_use]
    pub fn plan_shared(&self, id: NodeId) -> &Arc<PhysicalPlan> {
        &self.nodes[id.0].plan
    }

    /// The bind-time cost estimate of a node (input rows consumed + estimated output rows).
    /// The scheduler starts expensive ready nodes — joins over big buffers — first.
    #[must_use]
    pub fn cost_of(&self, id: NodeId) -> u64 {
        self.nodes[id.0].cost
    }

    /// Copies the subgraph reachable from `roots` into a standalone DAG, returning it together
    /// with the roots' node ids in the copy (in `roots` order; duplicates map to one node).
    ///
    /// The copy shares every bound plan by `Arc` handle and **carries fingerprints and cost
    /// estimates over verbatim** — no plan is re-hashed, so snapshotting a warm batch's
    /// frontier is a pointer walk, not O(subtree) hashing.  Consumer edges are recomputed
    /// locally: a node's consumers in the copy are exactly its consumers *within* the
    /// subgraph, which is what a scheduler's retention accounting wants.  This is the
    /// bind/execute pipeline's hand-off: the copy can execute on another thread while the
    /// original DAG keeps growing under its own lock.
    #[must_use]
    pub fn subgraph(&self, roots: &[NodeId]) -> (OperatorDag, Vec<NodeId>) {
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = roots.iter().map(|r| r.0).collect();
        while let Some(node) = stack.pop() {
            if reachable[node] {
                continue;
            }
            reachable[node] = true;
            stack.extend(self.nodes[node].children.iter().copied());
        }
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut sub = OperatorDag::new();
        // Ascending node order is topological by construction, and the copy preserves it.
        for (i, node) in self.nodes.iter().enumerate() {
            if !reachable[i] {
                continue;
            }
            let id = sub.nodes.len();
            remap[i] = id;
            let children: Vec<usize> = node.children.iter().map(|&c| remap[c]).collect();
            for &child in &children {
                sub.nodes[child].consumers.push(id);
            }
            sub.nodes.push(DagNode {
                plan: Arc::clone(&node.plan),
                children,
                consumers: Vec::new(),
                fingerprint: node.fingerprint,
                est_rows: node.est_rows,
                cost: node.cost,
            });
            sub.index.insert(node.fingerprint, id);
        }
        let roots = roots.iter().map(|r| NodeId(remap[r.0])).collect();
        (sub, roots)
    }

    /// Executes one node through a worker's executor under a per-node trace span.
    fn run_node(
        &self,
        node: usize,
        exec: &mut Executor<'_>,
        children: &[Arc<Relation>],
    ) -> EngineResult<Arc<Relation>> {
        let n = &self.nodes[node];
        // Per-node trace span (inert when tracing is off).  `shared_by` is the node's consumer
        // count — the explicit MQO cost attribution: a span with `shared_by: 3` was executed
        // once on behalf of three downstream operators/queries.
        // `op` and `rows_in`/`rows` say what the node was and did, so a slow node can be named
        // from the trace alone.
        let mut span = exec.tracer().span("node");
        span.tag("node", node as u64);
        span.label("op", n.plan.op_name());
        span.tag("shared_by", n.consumers.len().max(1) as u64);
        span.tag("rows_in", children.iter().map(|c| c.len() as u64).sum());
        let out = exec.execute_node(&n.plan, children)?;
        span.tag("rows", out.len() as u64);
        Ok(out)
    }
}

/// An external result store plugged into [`DagScheduler::execute_roots`] (the per-epoch DAG's
/// result cache): `lookup` answers a node by fingerprint before the run starts (pruning its
/// whole subgraph), `publish` receives every freshly computed result exactly once, from
/// whichever worker computed it.
pub trait DagResultCache: Send {
    /// Returns the stored result for a fingerprint, if any.
    fn lookup(&mut self, fingerprint: u64) -> Option<Arc<Relation>>;
    /// Stores a freshly computed result.
    fn publish(&mut self, fingerprint: u64, result: &Arc<Relation>);
}

/// The outcome of executing a DAG: one result per requested root, plus accounting.
#[derive(Debug)]
pub struct DagRun {
    /// Root results, in the order the roots were requested, as their nodes produced them: a
    /// late-materialized root builds rows only if someone reads them.  Duplicate roots alias
    /// one `Arc`.
    pub root_results: Vec<Arc<Relation>>,
    /// Work accounting: the run's part (nodes executed and reused, parallelism, threads).
    pub report: RunReport,
}

/// How many threads a run uses: the `configured` workers, but no more than the `needed` nodes
/// and no more than the `cpus` the process may use — a helper beyond those only waits for a
/// CPU another thread holds, and its spawn and join cost tens of microseconds per run.
#[must_use]
pub fn run_threads(configured: usize, needed: usize, cpus: usize) -> usize {
    configured.min(needed).min(cpus).max(1)
}

/// The CPUs this process may use (its affinity mask and CPU quota, as
/// [`std::thread::available_parallelism`] reads them), read once per process: the read opens
/// cgroup files.
#[must_use]
pub fn usable_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Executes [`OperatorDag`]s in one ready-queue worker loop, on the calling thread and up to
/// `workers − 1` scoped helpers ([`run_threads`]).
#[derive(Debug, Clone, Copy)]
pub struct DagScheduler {
    workers: usize,
}

impl DagScheduler {
    /// A scheduler running independent ready nodes on up to `workers` threads (1 = the calling
    /// thread alone).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        DagScheduler {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes only what the given roots need, answering nodes from an external result cache.
    ///
    /// `cache.lookup` is consulted once per distinct node reachable from `roots`, before any
    /// node runs; a hit prunes the node's whole subgraph.  Every freshly computed result is
    /// handed to `cache.publish` exactly once.  Nodes of the DAG that no root reaches are not
    /// touched at all — a persistent DAG can therefore hold an epoch's whole operator history
    /// while each run pays only for its own frontier.  Root results come back in `roots`
    /// order; duplicate roots alias one `Arc`.
    ///
    /// Statistics (operators, scans, tuples, time) are charged to `exec`: the calling thread
    /// runs the worker loop with it, each helper thread accumulates into a private
    /// [`Executor`] over the same catalog (and spill pool), and the helpers' totals are merged
    /// into `exec` when the run completes, so counter totals do not depend on the worker count.
    pub fn execute_roots(
        &self,
        dag: &OperatorDag,
        roots: &[NodeId],
        exec: &mut Executor<'_>,
        cache: &mut dyn DagResultCache,
    ) -> EngineResult<DagRun> {
        let roots: Vec<usize> = roots.iter().map(|r| r.0).collect();
        let (needed, seeds) = plan_nodes(dag, &roots, cache);
        let results_reused = seeds.len() as u64;
        let needed_count = needed.iter().filter(|&&n| n).count();
        let threads = run_threads(self.workers, needed_count, usable_cpus());
        let shared = SchedState::new(dag, &roots, needed, seeds, cache);
        let catalog = exec.catalog();
        // Helpers inherit the driving executor's spill pool (one shared budget, not one per
        // worker), so budgeted grace joins behave identically on any thread.
        let pool = exec.pool().cloned();
        let tracer = exec.tracer().clone();
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads)
                .map(|_| {
                    let (shared, pool, tracer) = (&shared, pool.clone(), tracer.clone());
                    scope.spawn(move || {
                        let mut helper = match pool {
                            Some(pool) => Executor::with_pool(catalog, pool),
                            None => Executor::new(catalog),
                        }
                        .with_tracer(tracer);
                        shared.run_worker(dag, &mut helper);
                        helper.into_stats()
                    })
                })
                .collect();
            shared.run_worker(dag, exec);
            for helper in helpers {
                let stats = helper.join().expect("DAG worker panicked");
                exec.stats_mut().merge(&stats);
            }
        });
        let state = shared.state.into_inner().unwrap();
        if let Some(err) = state.error {
            return Err(err);
        }
        let root_results = roots
            .iter()
            .map(|&r| Arc::clone(state.results[r].as_ref().expect("root result retained")))
            .collect();
        Ok(DagRun {
            root_results,
            report: RunReport {
                nodes_executed: needed_count as u64,
                results_reused,
                workers: threads,
                peak_parallelism: state.peak_parallel,
                ..RunReport::default()
            },
        })
    }
}

/// Walks the DAG from `roots`, consulting the cache once per distinct node: a hit seeds the
/// node's result and prunes its subgraph, a miss marks the node (and its frontier below) as
/// needing execution.
fn plan_nodes(
    dag: &OperatorDag,
    roots: &[usize],
    cache: &mut dyn DagResultCache,
) -> (Vec<bool>, Vec<(usize, Arc<Relation>)>) {
    let mut needed = vec![false; dag.nodes.len()];
    let mut visited = vec![false; dag.nodes.len()];
    let mut seeds = Vec::new();
    let mut stack: Vec<usize> = roots.to_vec();
    while let Some(node) = stack.pop() {
        if visited[node] {
            continue;
        }
        visited[node] = true;
        if let Some(hit) = cache.lookup(dag.nodes[node].fingerprint) {
            seeds.push((node, hit));
            continue;
        }
        needed[node] = true;
        stack.extend(dag.nodes[node].children.iter().copied());
    }
    (needed, seeds)
}

/// A ready node in the scheduler's queue, ordered by bind-time cost estimate.
///
/// The queue is a max-heap: the most expensive ready node (a hash join over big captured row
/// buffers rather than a cheap selection) is started first, which shortens the critical path
/// whenever workers outnumber heavy nodes.  Ties break towards the smaller node index — the
/// older, deeper node — keeping pop order deterministic.
#[derive(Debug, PartialEq, Eq)]
struct ReadyNode {
    cost: u64,
    node: usize,
}

impl Ord for ReadyNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cost
            .cmp(&other.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for ReadyNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Shared scheduling state of one run.
struct SchedState<'c> {
    state: Mutex<SchedInner<'c>>,
    ready_cv: Condvar,
    /// Which nodes this run executes (immutable; seeded or unreachable nodes are skipped).
    needed: Vec<bool>,
}

struct SchedInner<'c> {
    /// Nodes whose children are all resolved, awaiting a worker — max-heap by cost estimate,
    /// so expensive joins start before cheap selections.
    ready: BinaryHeap<ReadyNode>,
    /// Per-node results (`None` until executed, and again once no longer needed).
    results: Vec<Option<Arc<Relation>>>,
    /// Unresolved-child count per node (counts duplicate edges; seeded children are resolved).
    pending: Vec<usize>,
    /// Remaining uses of each node's result (consumer edges + root registrations); a result is
    /// dropped when this drains, bounding peak memory to the live frontier.
    retain: Vec<usize>,
    /// Nodes not yet finished.
    remaining: usize,
    /// Nodes currently executing on some worker.
    in_flight: usize,
    /// Maximum `in_flight` observed.
    peak_parallel: usize,
    /// First error raised by any worker (fails the whole run).
    error: Option<EngineError>,
    /// Where every fresh result is published, by the worker that computed it.
    cache: &'c mut dyn DagResultCache,
}

impl<'c> SchedState<'c> {
    fn new(
        dag: &OperatorDag,
        roots: &[usize],
        needed: Vec<bool>,
        seeds: Vec<(usize, Arc<Relation>)>,
        cache: &'c mut dyn DagResultCache,
    ) -> Self {
        let mut pending = vec![0usize; dag.nodes.len()];
        // How many times each node's result is still needed: once per consuming edge of an
        // executing node plus once per root registration.  A result is dropped as soon as this
        // drains, bounding peak memory to the *live* frontier instead of every intermediate.
        let mut retain = vec![0usize; dag.nodes.len()];
        let mut ready = BinaryHeap::new();
        for (i, node) in dag.nodes.iter().enumerate() {
            if !needed[i] {
                continue;
            }
            for &c in &node.children {
                retain[c] += 1;
                pending[i] += usize::from(needed[c]);
            }
            if pending[i] == 0 {
                ready.push(ReadyNode {
                    cost: node.cost,
                    node: i,
                });
            }
        }
        for &r in roots {
            retain[r] += 1;
        }
        let mut results: Vec<Option<Arc<Relation>>> = vec![None; dag.nodes.len()];
        for (i, seed) in seeds {
            results[i] = Some(seed);
        }
        SchedState {
            state: Mutex::new(SchedInner {
                ready,
                results,
                pending,
                retain,
                remaining: needed.iter().filter(|&&n| n).count(),
                in_flight: 0,
                peak_parallel: 0,
                error: None,
                cache,
            }),
            ready_cv: Condvar::new(),
            needed,
        }
    }

    /// The worker loop: every thread of a run — the calling one included — executes ready
    /// nodes here until the run completes or fails.
    fn run_worker(&self, dag: &OperatorDag, exec: &mut Executor<'_>) {
        let mut guard = self.state.lock().unwrap();
        loop {
            if guard.error.is_some() || guard.remaining == 0 {
                return;
            }
            let Some(ReadyNode { node, .. }) = guard.ready.pop() else {
                if guard.in_flight == 0 {
                    // Unreachable for a well-formed DAG; bail rather than deadlock.
                    return;
                }
                guard = self.ready_cv.wait(guard).unwrap();
                continue;
            };
            guard.in_flight += 1;
            guard.peak_parallel = guard.peak_parallel.max(guard.in_flight);
            let children: Vec<Arc<Relation>> = dag.nodes[node]
                .children
                .iter()
                .map(|&c| Arc::clone(guard.results[c].as_ref().expect("child resolved")))
                .collect();
            drop(guard);

            let outcome = dag.run_node(node, exec, &children);

            guard = self.state.lock().unwrap();
            guard.in_flight -= 1;
            match outcome {
                Ok(result) => {
                    guard.cache.publish(dag.nodes[node].fingerprint, &result);
                    if guard.retain[node] > 0 {
                        guard.results[node] = Some(result);
                    }
                    guard.remaining -= 1;
                    // This node is done with its inputs: release each child edge, dropping a
                    // child's result once its last use drains (roots keep one registration
                    // alive for the caller).
                    for &c in &dag.nodes[node].children {
                        guard.retain[c] -= 1;
                        if guard.retain[c] == 0 {
                            guard.results[c] = None;
                        }
                    }
                    let mut woke = 0usize;
                    for &consumer in &dag.nodes[node].consumers {
                        if !self.needed[consumer] {
                            continue;
                        }
                        guard.pending[consumer] -= 1;
                        if guard.pending[consumer] == 0 {
                            guard.ready.push(ReadyNode {
                                cost: dag.nodes[consumer].cost,
                                node: consumer,
                            });
                            woke += 1;
                        }
                    }
                    // Wake peers only when there is genuinely something for them: newly ready
                    // nodes beyond the one this worker will take itself, or run completion.
                    if guard.remaining == 0 || woke > 1 {
                        self.ready_cv.notify_all();
                    } else if woke == 1 && guard.ready.len() > 1 {
                        self.ready_cv.notify_one();
                    }
                }
                Err(err) => {
                    if guard.error.is_none() {
                        guard.error = Some(err);
                    }
                    self.ready_cv.notify_all();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Plan, Predicate};
    use urm_storage::{Attribute, Catalog, DataType, Schema, Tuple, Value};

    fn catalog() -> Catalog {
        let schema = Schema::new(
            "R",
            vec![
                Attribute::new("a", DataType::Int),
                Attribute::new("b", DataType::Text),
            ],
        );
        let rows = (0..20)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(i as i64),
                    Value::from(if i % 2 == 0 { "x" } else { "y" }),
                ])
            })
            .collect();
        let mut cat = Catalog::new();
        cat.insert(urm_storage::Relation::new(schema, rows).unwrap());
        cat
    }

    fn queries() -> Vec<Plan> {
        let base = Plan::scan("R").select(Predicate::eq("R.b", Value::from("x")));
        vec![
            base.clone().project(vec!["R.a".into()]),
            base.clone().project(vec!["R.b".into()]),
            base.clone().project(vec!["R.a".into()]), // duplicate of the first
            Plan::scan("R").select(Predicate::eq("R.b", Value::from("y"))),
        ]
    }

    /// A result store outside any epoch: answers what was published to it.
    #[derive(Default)]
    struct Memo(HashMap<u64, Arc<Relation>>);

    impl DagResultCache for Memo {
        fn lookup(&mut self, fingerprint: u64) -> Option<Arc<Relation>> {
            self.0.get(&fingerprint).cloned()
        }
        fn publish(&mut self, fingerprint: u64, result: &Arc<Relation>) {
            self.0.insert(fingerprint, Arc::clone(result));
        }
    }

    fn build_dag(exec: &Executor<'_>) -> (OperatorDag, Vec<NodeId>) {
        let mut dag = OperatorDag::new();
        let roots = queries()
            .iter()
            .map(|q| dag.add_plan(&exec.bind(q).unwrap()))
            .collect();
        (dag, roots)
    }

    /// Runs `roots` from scratch: an empty memo answers nothing, so every node they reach
    /// executes.
    fn run(
        dag: &OperatorDag,
        roots: &[NodeId],
        exec: &mut Executor<'_>,
        workers: usize,
    ) -> EngineResult<DagRun> {
        DagScheduler::with_workers(workers).execute_roots(dag, roots, exec, &mut Memo::default())
    }

    #[test]
    fn merged_dag_deduplicates_shared_operators() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let (dag, roots) = build_dag(&exec);
        // Distinct nodes: scan, select-x, project-a, project-b, select-y = 5.
        assert_eq!(dag.node_count(), 5);
        assert_eq!(roots.len(), 4);
        assert!(dag.operators_reused() > 0);
        assert_eq!(
            dag.operators_offered(),
            dag.node_count() as u64 + dag.operators_reused()
        );
    }

    #[test]
    fn every_distinct_node_executes_exactly_once() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        let (dag, roots) = build_dag(&exec);
        let run = run(&dag, &roots, &mut exec, 1).unwrap();
        assert_eq!(run.report.nodes_executed, dag.node_count() as u64);
        // The executor's own counters agree: one scan + one execution per operator node.
        assert_eq!(
            exec.stats().scans + exec.stats().operators_executed,
            dag.node_count() as u64
        );
        assert_eq!(exec.stats().scans, 1);
        // Duplicate roots share one result allocation.
        assert!(Arc::ptr_eq(&run.root_results[0], &run.root_results[2]));
    }

    #[test]
    fn parallel_execution_is_byte_identical_to_sequential() {
        let cat = catalog();
        let mut seq_exec = Executor::new(&cat);
        let (dag, roots) = build_dag(&seq_exec);
        let seq = run(&dag, &roots, &mut seq_exec, 1).unwrap();
        for workers in [2, 4, 8] {
            let mut par_exec = Executor::new(&cat);
            let (dag, roots) = build_dag(&par_exec);
            let par = run(&dag, &roots, &mut par_exec, workers).unwrap();
            assert_eq!(par.root_results.len(), seq.root_results.len());
            for (a, b) in par.root_results.iter().zip(&seq.root_results) {
                assert_eq!(a.rows(), b.rows());
                assert_eq!(a.schema(), b.schema());
            }
            // Work counters are mode-independent.
            assert_eq!(par_exec.stats().scans, seq_exec.stats().scans);
            assert_eq!(
                par_exec.stats().operators_executed,
                seq_exec.stats().operators_executed
            );
            // No more threads than nodes to run (eight workers over five nodes use five), nor
            // than CPUs.
            assert_eq!(
                par.report.workers,
                run_threads(workers, dag.node_count(), usable_cpus())
            );
            assert!(par.report.peak_parallelism >= 1);
        }
    }

    #[test]
    fn report_counts_the_threads_a_run_used() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        let mut dag = OperatorDag::new();
        let scan = dag.add_plan(&exec.bind(&Plan::scan("R")).unwrap());
        let one = run(&dag, &[scan], &mut exec, 4).unwrap();
        assert_eq!(one.report.nodes_executed, 1);
        assert_eq!(
            one.report.workers, 1,
            "a one-node run stays on the calling thread"
        );

        let (dag, roots) = build_dag(&exec);
        let wide = run(&dag, &roots, &mut exec, 4).unwrap();
        assert_eq!(wide.report.nodes_executed, 5);
        assert_eq!(
            wide.report.workers,
            4.min(usable_cpus()),
            "min(4, needed, CPUs) with five nodes needed"
        );
        let narrow = run(&dag, &roots[..1], &mut exec, 4).unwrap();
        assert_eq!(narrow.report.nodes_executed, 3);
        assert_eq!(
            narrow.report.workers,
            3.min(usable_cpus()),
            "min(4, needed, CPUs) with three nodes needed"
        );
    }

    #[test]
    fn a_run_uses_no_more_threads_than_workers_nodes_or_cpus() {
        // (configured, needed, CPUs) → threads.
        for (configured, needed, cpus, threads) in [
            (4, 5, 8, 4),
            (4, 3, 8, 3),
            (2, 12, 1, 1),
            (4, 12, 2, 2),
            (8, 0, 4, 1),
            (1, 9, 16, 1),
            (0, 9, 16, 1),
        ] {
            assert_eq!(
                run_threads(configured, needed, cpus),
                threads,
                "({configured}, {needed}, {cpus})"
            );
        }
        assert!(usable_cpus() >= 1);
        assert_eq!(usable_cpus(), usable_cpus(), "read once");
    }

    #[test]
    fn parallel_execution_surfaces_errors() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        // SUM over a text column fails at execution time (not at bind time).
        let plan = Plan::scan("R").aggregate(crate::AggFunc::Sum("R.b".into()));
        let mut dag = OperatorDag::new();
        let mut roots = vec![dag.add_plan(&exec.bind(&plan).unwrap())];
        // Pad with healthy work so the scheduler genuinely runs multi-node.
        for q in queries() {
            roots.push(dag.add_plan(&exec.bind(&q).unwrap()));
        }
        let err = run(&dag, &roots, &mut exec, 4);
        assert!(matches!(err, Err(EngineError::InvalidAggregate { .. })));
    }

    #[test]
    fn empty_dag_executes_to_nothing() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        let dag = OperatorDag::new();
        let run = run(&dag, &[], &mut exec, 4).unwrap();
        assert!(run.root_results.is_empty());
        assert_eq!(run.report.nodes_executed, 0);
        assert_eq!(run.report.peak_parallelism, 0);
    }

    #[test]
    fn dag_construction_never_deep_clones_a_subtree() {
        // The zero-clone invariant of the Arc'd plan refactor: every DAG node stores the bound
        // plan by pointer, so a node's input IS the bound plan's child, not a copy.
        let cat = catalog();
        let exec = Executor::new(&cat);
        let physical = exec
            .bind(
                &Plan::scan("R")
                    .select(Predicate::eq("R.b", Value::from("x")))
                    .hash_join(Plan::scan_as("R", "S"), vec![("R.a".into(), "S.a".into())])
                    .project(vec!["R.a".into()]),
            )
            .unwrap();
        let mut dag = OperatorDag::new();
        let root = dag.add_plan(&physical);
        assert!(
            Arc::ptr_eq(dag.plan_shared(root), &physical),
            "root node must hold the bound tree itself"
        );
        // Walk the whole tree: re-adding any subtree dedups onto its node, and that node's
        // stored plan must be pointer-identical to the bound plan's child handle.
        fn check(dag: &mut OperatorDag, plan: &Arc<crate::PhysicalPlan>) {
            for child in plan.children_shared() {
                let node = dag.add_plan(child);
                assert!(
                    Arc::ptr_eq(dag.plan_shared(node), child),
                    "DAG node input is not the bound plan's child"
                );
                check(dag, child);
            }
        }
        check(&mut dag, &physical);
    }

    #[test]
    fn cost_estimates_rank_joins_above_selections() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let mut dag = OperatorDag::new();
        let select = dag.add_plan(
            &exec
                .bind(&Plan::scan("R").select(Predicate::eq("R.b", Value::from("x"))))
                .unwrap(),
        );
        let join = dag.add_plan(
            &exec
                .bind(
                    &Plan::scan("R")
                        .hash_join(Plan::scan_as("R", "S"), vec![("R.a".into(), "S.a".into())]),
                )
                .unwrap(),
        );
        let product = dag.add_plan(
            &exec
                .bind(&Plan::scan("R").product(Plan::scan_as("R", "P")))
                .unwrap(),
        );
        assert!(
            dag.cost_of(join) > dag.cost_of(select),
            "a join over the same buffers must cost more than a selection"
        );
        assert!(
            dag.cost_of(product) > dag.cost_of(join),
            "a product must out-cost the equi-join"
        );
    }

    #[test]
    fn execute_roots_prunes_cached_subgraphs_and_skips_unrelated_nodes() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        let mut dag = OperatorDag::new();
        let base = Plan::scan("R").select(Predicate::eq("R.b", Value::from("x")));
        let wanted = dag.add_plan(
            &exec
                .bind(&base.clone().project(vec!["R.a".into()]))
                .unwrap(),
        );
        // An unrelated plan merged into the same DAG must not execute.
        dag.add_plan(
            &exec
                .bind(&Plan::scan("R").select(Predicate::eq("R.b", Value::from("y"))))
                .unwrap(),
        );

        let mut memo = Memo::default();
        for workers in [1usize, 3] {
            let cold = DagScheduler::with_workers(workers)
                .execute_roots(&dag, &[wanted], &mut exec, &mut memo)
                .unwrap();
            assert_eq!(cold.root_results.len(), 1);
            assert_eq!(cold.root_results[0].len(), 10);
            if workers == 1 {
                // First run: only the root's own 3 nodes execute, never the unrelated select.
                assert_eq!(cold.report.nodes_executed, 3);
                assert_eq!(exec.stats().scans + exec.stats().operators_executed, 3);
            } else {
                // Second run: the primed memo answers the root outright.
                assert_eq!(cold.report.nodes_executed, 0);
                assert_eq!(cold.report.results_reused, 1);
                assert_eq!(exec.stats().scans + exec.stats().operators_executed, 3);
            }
        }
    }

    #[test]
    fn subgraph_snapshot_executes_like_the_original() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        let mut dag = OperatorDag::new();
        let base = Plan::scan("R").select(Predicate::eq("R.b", Value::from("x")));
        let a = dag.add_plan(
            &exec
                .bind(&base.clone().project(vec!["R.a".into()]))
                .unwrap(),
        );
        let b = dag.add_plan(
            &exec
                .bind(&base.clone().project(vec!["R.b".into()]))
                .unwrap(),
        );
        // An unrelated plan that the snapshot must not carry along.
        dag.add_plan(
            &exec
                .bind(&Plan::scan("R").select(Predicate::eq("R.b", Value::from("y"))))
                .unwrap(),
        );

        let (sub, roots) = dag.subgraph(&[a, b, a]);
        // scan, select-x, project-a, project-b — the unrelated select-y is excluded.
        assert_eq!(sub.node_count(), 4);
        assert_eq!(roots.len(), 3);
        assert_eq!(roots[0], roots[2], "duplicate roots map to one node");
        for (orig, copy) in [(a, roots[0]), (b, roots[1])] {
            assert_eq!(sub.fingerprint_of(copy), dag.fingerprint_of(orig));
            assert_eq!(sub.cost_of(copy), dag.cost_of(orig));
            assert!(
                Arc::ptr_eq(sub.plan_shared(copy), dag.plan_shared(orig)),
                "snapshot must share the bound plan by handle"
            );
        }

        for workers in [1usize, 3] {
            let run = run(&sub, &roots, &mut exec, workers).unwrap();
            assert_eq!(run.report.nodes_executed, 4);
            assert_eq!(run.root_results.len(), 3);
            assert_eq!(run.root_results[0].len(), 10);
            assert!(Arc::ptr_eq(&run.root_results[0], &run.root_results[2]));
        }
    }

    #[test]
    fn fan_out_degree_is_tracked() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let mut dag = OperatorDag::new();
        let base = Plan::scan("R").select(Predicate::eq("R.b", Value::from("x")));
        let select = dag.add_plan(&exec.bind(&base).unwrap());
        dag.add_plan(
            &exec
                .bind(&base.clone().project(vec!["R.a".into()]))
                .unwrap(),
        );
        dag.add_plan(
            &exec
                .bind(&base.clone().project(vec!["R.b".into()]))
                .unwrap(),
        );
        assert_eq!(dag.consumer_count(select), 2);
    }

    #[test]
    fn incremental_executor_shares_across_submissions() {
        let cat = catalog();
        let mut exec = Executor::new(&cat);
        let mut epoch = crate::EpochDag::pinning_all();
        let plan = Plan::scan("R")
            .select(Predicate::eq("R.b", Value::from("x")))
            .project(vec!["R.a".into()]);
        let a = epoch
            .resolve(&exec.bind(&plan).unwrap(), &mut exec)
            .unwrap();
        let b = epoch
            .resolve(&exec.bind(&plan).unwrap(), &mut exec)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(exec.stats().scans, 1);
        assert!(epoch.result_hits() > 0);
        assert_eq!(epoch.nodes_executed(), epoch.node_count() as u64);
    }
}
