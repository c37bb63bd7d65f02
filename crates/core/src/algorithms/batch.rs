//! Batch evaluation: many probabilistic queries over one mapping set, run over a set of shards.
//!
//! The paper evaluates sharing *within* one probabilistic query (its `h` reformulations).  A
//! serving layer gets a second amortisation axis: independent queries submitted together
//! against the same (catalog, mapping set) epoch overlap heavily — they scan the same source
//! relations and, with ambiguous matchings, often reformulate onto identical source sub-plans.
//! A batch therefore merges the distinct source queries of *every* query into one
//! shared-operator DAG per shard: each distinct bound operator (deduplicated by bound-plan
//! fingerprint) is one node, shared sub-plans are fan-out edges, and every node executes
//! **exactly once** — on the calling thread, joined by helper threads when
//! [`BatchOptions::workers`] ≥ 2 (results are byte-identical either way).
//!
//! A batch always runs over a [`ShardSet`]: N shard runtimes, each with its own catalog view and
//! its own persistent [`EpochDag`].  An unsharded epoch is a set of one shard, whose catalog is
//! the epoch's own; [`evaluate_batch`] runs over a throwaway one.  [`evaluate_batch_sharded`],
//! the one coordinator, takes each query through three steps:
//!
//! 1. **Rewrite**, one representative per mapping *partition*
//!    ([`partitioned_reformulations`]): the clusters — distinct source queries with their
//!    summed mapping probabilities — their order and probabilities are bit for bit those of
//!    e-basic's rewrite-every-mapping phase.
//! 2. **Split**, once per set: the optimised form of a tuple-producing source query is a
//!    product of distinct factors `δπ(C1) × … × δπ(Ck)`, under a projection when the product's
//!    columns need reordering (see `urm_engine::optimize`).  Each factor becomes a DAG root of
//!    its own, under its own fingerprint, so the product and its projection are never bound,
//!    executed or pinned, and the source queries that share a factor share its root.  An
//!    aggregate is one factor.  The set remembers each cluster's factors, so a warm batch
//!    neither optimises nor splits again.
//! 3. **Route**: over N > 1 shards one scan leaf of a tuple-producing source query — the one
//!    over the largest base relation — reads the shard's slice of that relation instead
//!    (`{name}::slice`, see [`urm_storage::shard`]).  The factor holding it goes to **every**
//!    shard; any other factor, and every aggregate, goes to shard `key % N`, which runs it
//!    against its full replicas.  A set of one shard slices nothing.
//!
//! Rewrite, split and route hold no shard lock.  Each shard then binds its submissions under its
//! DAG's lock (a bind-cache lookup for a factor it has bound before), closes them into a
//! [`PreparedBatch`] and releases the lock, so the next batch binds while this one executes.
//! The shards execute side by side — shard 0 on the calling thread, the others on scoped
//! threads — and a node whose result is still materialised from an earlier batch is answered
//! without executing.  The gather hands each query's clusters, in cluster order, to the one
//! aggregation every algorithm uses ([`aggregate`]), a scattered factor as the union of its
//! per-shard slices: each derivation of it consumes one row of the sliced scan, so the union of
//! the slices' result sets is the whole factor.  Answers are e-basic's to the bit at every shard
//! count, warm or cold, with or without a memory budget (property-tested).

use crate::answer::{aggregate, Cluster};
use crate::metrics::{EvalMetrics, Evaluation};
use crate::query::TargetQuery;
use crate::reformulate::{partitioned_reformulations, Clustering, Extraction, SourceQuery};
use crate::CoreResult;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use urm_engine::optimize::{fingerprint, optimize};
use urm_engine::{
    EpochDag, ExecStats, Executor, Plan, PreparedBatch, RunReport, DEFAULT_PIN_BUDGET_BYTES,
};
use urm_matching::MappingSet;
use urm_obs::Tracer;
use urm_storage::shard::{partition, ShardScheme};
use urm_storage::{Catalog, Name, Relation};

pub use urm_storage::shard::slice_relation_name;

/// Tuning knobs of one batch evaluation.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads for the DAG schedulers, split evenly across the shards (at least one
    /// each; 1 = the calling thread alone over one shard).
    pub workers: usize,
    /// Trace spans recorder (disabled by default — a disabled tracer costs nothing on the
    /// hot path).  Every stage of the batch records under it: per-query `rewrite` and
    /// `optimize_bind`, per-shard `bind`, `execute` (with a `node` span per executed DAG node
    /// and spill I/O) and `aggregate`.
    pub tracer: Tracer,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            workers: 1,
            tracer: Tracer::disabled(),
        }
    }
}

impl BatchOptions {
    /// One-worker execution (the scheduler's worker loop runs on the calling thread alone).
    #[must_use]
    pub fn sequential() -> Self {
        BatchOptions::default()
    }

    /// Parallel execution on up to `workers` threads (clamped to at least 1).
    #[must_use]
    pub fn parallel(workers: usize) -> Self {
        BatchOptions {
            workers: workers.max(1),
            ..BatchOptions::default()
        }
    }

    /// Builder-style tracer attachment (disabled tracers are free — pass one unconditionally).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }
}

/// The outcome of one batch evaluation.
#[derive(Debug)]
pub struct BatchEvaluation {
    /// One evaluation per input query, in input order.  Per-query `metrics.exec` is empty —
    /// shared DAG nodes belong to several queries at once, so executor work is accounted
    /// batch-wide in [`exec`](BatchEvaluation::exec) instead.
    pub evaluations: Vec<Evaluation>,
    /// Batch-wide executor statistics (operators, scans, tuples, spill, time), summed over
    /// the shards.
    pub exec: ExecStats,
    /// The batch's bind stage and DAG runs, merged over the shards: bind-cache hits, DAG-merge
    /// dedup, nodes executed and answered by an earlier batch's results, parallelism and the
    /// threads the shards ran on (the shards ran side by side, so these add up).
    pub run: RunReport,
    /// How the batch was spread over its shard set.
    pub shards: ShardStats,
}

impl BatchEvaluation {
    /// Total source operators executed across the batch (the paper's Table IV metric).
    #[must_use]
    pub fn source_operators(&self) -> u64 {
        self.exec.source_operators()
    }
}

/// How one batch was spread over its shard set.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Number of shards the batch ran over (1 for an unsharded epoch).
    pub shards: usize,
    /// Per-shard root submissions: a scattered root counts once per shard, any other once —
    /// over one shard, the batch's distinct roots.
    pub fanouts: u64,
    /// Distinct factor roots run on every shard, those holding a sliced scan (0 over one
    /// shard, which slices nothing).
    pub scatter_roots: u64,
    /// Distinct factor roots run on one shard: the others, and aggregates.
    pub singleton_roots: u64,
    /// Per shard, the wall clock of its bind and its execution; index = shard index.
    pub shard_times: Vec<Duration>,
    /// Time spent gathering: aggregating each query's answer from its factors' results.
    pub merge_time: Duration,
}

/// One shard's runtime: its catalog view and its persistent epoch DAG.
#[derive(Debug)]
struct Shard {
    catalog: Catalog,
    /// The shard's bind lock: a batch holds it only while it binds its submissions.
    dag: Mutex<EpochDag>,
}

/// The shard runtimes an epoch's batches run over (see the module docs).
#[derive(Debug)]
pub struct ShardSet {
    shards: Vec<Shard>,
    scheme: ShardScheme,
    /// Source-query fingerprint → the optimised factors it splits into, routed.
    factors: Mutex<HashMap<u64, Arc<[Factor]>>>,
}

/// One factor of an optimised source query, as the shards run it.
#[derive(Debug)]
struct Factor {
    /// The factor's fingerprint: its key in every shard's bind cache.
    key: u64,
    /// The optimised factor plan.
    plan: Plan,
    /// Whether the factor holds the sliced scan (it runs on every shard).
    scatter: bool,
}

impl ShardSet {
    /// Builds `shards` runtimes (at least one) over `catalog`.
    ///
    /// Every shard catalog is a clone of `catalog`, which shares its row buffers by `Arc`, so
    /// no row is copied.  Over more than one shard each also registers its slice of every
    /// relation ([`slice_relation_name`]), cut by `scheme`; a set of one shard adds nothing, and
    /// its catalog is the epoch's own.  `memory_budget` (bytes, **per shard**) puts each
    /// shard's DAG under its own spill pool; without one, each shard's pinned results stay
    /// resident up to [`DEFAULT_PIN_BUDGET_BYTES`].
    #[must_use]
    pub fn new(
        catalog: &Catalog,
        shards: usize,
        scheme: ShardScheme,
        memory_budget: Option<usize>,
    ) -> ShardSet {
        let shards = shards.max(1);
        let mut catalogs: Vec<Catalog> = (0..shards).map(|_| catalog.clone()).collect();
        if shards > 1 {
            for (name, relation) in catalog.iter() {
                let slice_name = slice_relation_name(name);
                for (view, slice) in catalogs.iter_mut().zip(partition(relation, shards, scheme)) {
                    view.insert(slice.renamed(slice_name.clone()));
                }
            }
        }
        ShardSet {
            shards: catalogs
                .into_iter()
                .map(|catalog| Shard {
                    catalog,
                    dag: Mutex::new(match memory_budget {
                        Some(bytes) => EpochDag::with_memory_budget(bytes),
                        None => EpochDag::with_pin_budget(DEFAULT_PIN_BUDGET_BYTES),
                    }),
                })
                .collect(),
            scheme,
            factors: Mutex::new(HashMap::new()),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the set holds no shards (never true: construction clamps to ≥ 1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The partitioning scheme the shard catalogs were cut with.
    #[must_use]
    pub fn scheme(&self) -> ShardScheme {
        self.scheme
    }

    /// Shard `index`'s catalog view.
    #[cfg(test)]
    pub(crate) fn catalog(&self, index: usize) -> &Catalog {
        &self.shards[index].catalog
    }

    /// Shard `index`'s epoch DAG, locked: its bind and result counters and its pinned results.
    ///
    /// # Panics
    /// Panics when `index` is not below [`len`](ShardSet::len).
    pub fn dag(&self, index: usize) -> MutexGuard<'_, EpochDag> {
        self.shards[index].dag.lock().unwrap()
    }

    /// The bind-cache keys of the factors the source query with fingerprint `key` was split
    /// into, once a batch over this set has split it.
    #[must_use]
    pub fn factor_keys(&self, key: u64) -> Option<Vec<u64>> {
        let factors = self.factors.lock().unwrap();
        Some(factors.get(&key)?.iter().map(|factor| factor.key).collect())
    }

    /// The routed factors of the source query `sq`, whose fingerprint is `key`: split on first
    /// sight, remembered after.  `catalog` is the coordinator's (it sizes the slice candidates).
    fn factors_of(
        &self,
        key: u64,
        sq: &SourceQuery,
        catalog: &Catalog,
    ) -> CoreResult<Arc<[Factor]>> {
        if let Some(known) = self.factors.lock().unwrap().get(&key) {
            return Ok(Arc::clone(known));
        }
        let factors: Arc<[Factor]> = self.split(sq, catalog)?.into();
        let mut known = self.factors.lock().unwrap();
        Ok(Arc::clone(known.entry(key).or_insert(factors)))
    }

    /// The optimised factors of `sq` as the shards run them.  A tuple-producing source query is
    /// split into the factors of its product, after — over more than one shard — one scan leaf
    /// is redirected to its slice ([`designate_slice_leaf`]); an aggregate runs whole.
    /// Optimised against shard 0's catalog: the plan is the same on every shard.
    fn split(&self, sq: &SourceQuery, catalog: &Catalog) -> CoreResult<Vec<Factor>> {
        let tuples = matches!(sq.extraction, Extraction::Columns(_));
        let sliced = if tuples && self.len() > 1 {
            designate_slice_leaf(&sq.plan, catalog).map(|(leaf, base)| {
                let slice = slice_relation_name(&base);
                (redirect_scan(&sq.plan, leaf, &mut 0, &slice), slice)
            })
        } else {
            None
        };
        let plan = sliced.as_ref().map_or(&sq.plan, |(plan, _)| plan);
        let optimized = optimize(plan, &self.shards[0].catalog)?;
        let factors = if tuples {
            product_factors(optimized)
        } else {
            vec![optimized]
        };
        Ok(factors
            .into_iter()
            .map(|plan| Factor {
                key: fingerprint(&plan),
                scatter: sliced
                    .as_ref()
                    .is_some_and(|(_, slice)| scans(&plan, slice)),
                plan,
            })
            .collect())
    }
}

/// The factors whose product `plan` is: the product chain under the reordering projection
/// `optimize` may put above it, or `plan` itself when it is not a product.  Only for a plan
/// whose answers are read by column name ([`Extraction::Columns`]), which no reordering moves.
fn product_factors(plan: Plan) -> Vec<Plan> {
    fn flatten(plan: Plan, factors: &mut Vec<Plan>) {
        match plan {
            Plan::Product { left, right } => {
                flatten(*left, factors);
                flatten(*right, factors);
            }
            factor => factors.push(factor),
        }
    }
    let product = match plan {
        Plan::Project { input, .. } if matches!(*input, Plan::Product { .. }) => *input,
        plan => plan,
    };
    let mut factors = Vec::new();
    flatten(product, &mut factors);
    factors
}

/// The relations a plan's scan leaves read, in depth-first, left-to-right order.
fn scan_leaves(plan: &Plan, out: &mut Vec<Name>) {
    if let Plan::Scan { relation, .. } = plan {
        out.push(relation.clone());
    }
    for child in plan.children() {
        scan_leaves(child, out);
    }
}

/// Whether `plan` scans `relation`.
fn scans(plan: &Plan, relation: &str) -> bool {
    match plan {
        Plan::Scan {
            relation: scanned, ..
        } => **scanned == *relation,
        plan => plan
            .children()
            .into_iter()
            .any(|child| scans(child, relation)),
    }
}

/// Rebuilds `plan` with its `target`-th scan leaf (traversal order) redirected to `slice`.
fn redirect_scan(plan: &Plan, target: usize, seen: &mut usize, slice: &str) -> Plan {
    match plan {
        Plan::Scan { relation, alias } => {
            let here = *seen;
            *seen += 1;
            if here == target {
                Plan::scan_as(slice, alias.clone())
            } else {
                Plan::scan_as(relation.clone(), alias.clone())
            }
        }
        Plan::Values(rel) => Plan::Values(rel.clone()),
        Plan::Select { predicate, input } => Plan::Select {
            predicate: predicate.clone(),
            input: Box::new(redirect_scan(input, target, seen, slice)),
        },
        Plan::Project { columns, input } => Plan::Project {
            columns: columns.clone(),
            input: Box::new(redirect_scan(input, target, seen, slice)),
        },
        Plan::Product { left, right } => Plan::Product {
            left: Box::new(redirect_scan(left, target, seen, slice)),
            right: Box::new(redirect_scan(right, target, seen, slice)),
        },
        Plan::HashJoin { left, right, on } => Plan::HashJoin {
            left: Box::new(redirect_scan(left, target, seen, slice)),
            right: Box::new(redirect_scan(right, target, seen, slice)),
            on: on.clone(),
        },
        Plan::Aggregate { func, input } => Plan::Aggregate {
            func: func.clone(),
            input: Box::new(redirect_scan(input, target, seen, slice)),
        },
        Plan::Distinct { input } => redirect_scan(input, target, seen, slice).distinct(),
    }
}

/// Picks the scan leaf to slice: the one over the largest base relation (coordinator row
/// counts; ties broken by traversal order, so the choice — and with it the rewritten plan —
/// is identical on every shard and across runs).  `None` when the plan scans nothing.
fn designate_slice_leaf(plan: &Plan, catalog: &Catalog) -> Option<(usize, Name)> {
    let mut leaves = Vec::new();
    scan_leaves(plan, &mut leaves);
    let mut best: Option<(usize, usize)> = None;
    for (index, relation) in leaves.iter().enumerate() {
        let Some(rows) = catalog.get(relation).map(|rel| rel.len()) else {
            continue;
        };
        if best.is_none_or(|(_, top)| rows > top) {
            best = Some((index, rows));
        }
    }
    best.map(|(index, _)| (index, leaves.swap_remove(index)))
}

/// A query between routing and the gather.
struct PendingQuery {
    /// Per cluster, in cluster order: its probability, its extraction rule and the range of
    /// the batch's routes holding its factors.
    clusters: Vec<(f64, Extraction, Range<usize>)>,
    empty_probability: f64,
    metrics: EvalMetrics,
    started: Instant,
}

/// Where a factor's result is found among the shards' root results.
enum Route {
    /// On every shard; `slots[s]` is the factor's root on shard `s`.
    Scatter(Vec<usize>),
    /// On one shard.
    Single { shard: usize, slot: usize },
}

/// One shard's submissions in a batch: each distinct factor once, in routing order.
#[derive(Default)]
struct Submissions {
    /// (cluster in the batch, factor within it, query) of each root, the query being the first
    /// that asked for it.
    roots: Vec<(usize, usize, usize)>,
    /// Factor key → its root.
    slots: HashMap<u64, usize>,
}

impl Submissions {
    /// The root of the factor known as `key`, added for `root` unless this batch already sent
    /// the shard that factor; and whether it was added.
    fn slot(&mut self, key: u64, root: (usize, usize, usize)) -> (usize, bool) {
        let next = self.roots.len();
        let slot = *self.slots.entry(key).or_insert(next);
        if slot == next {
            self.roots.push(root);
        }
        (slot, slot == next)
    }
}

/// One shard's executed batch, gathered by the coordinator.
struct ShardRun {
    results: Vec<Arc<Relation>>,
    exec: ExecStats,
    run: RunReport,
    elapsed: Duration,
}

/// Executes one shard's prepared batch on the calling thread (joined by its DAG helpers).
fn run_shard(
    shard: &Shard,
    prepared: PreparedBatch,
    options: &BatchOptions,
    workers: usize,
) -> CoreResult<ShardRun> {
    let start = Instant::now();
    // A memory-budgeted shard carries a spill pool: the executor shares it, so grace hash
    // joins and spilled-pin reloads draw on one budget, and the pool traces its writes and
    // reloads under this batch's trace while the batch runs.  The pool-counter deltas the batch
    // causes are folded into `ExecStats` inside the engine, under the shard's result lock.
    let mut exec = match prepared.pool().cloned() {
        Some(pool) => Executor::with_pool(&shard.catalog, pool),
        None => Executor::new(&shard.catalog),
    }
    .with_tracer(options.tracer.clone());
    if let Some(pool) = exec.pool() {
        pool.set_tracer(options.tracer.clone());
    }
    let run = prepared.execute(&mut exec, workers);
    if let Some(pool) = exec.pool() {
        pool.set_tracer(Tracer::disabled());
    }
    let run = run?;
    Ok(ShardRun {
        results: run.root_results,
        exec: exec.into_stats(),
        run: run.report,
        elapsed: start.elapsed(),
    })
}

/// Evaluates every query of a batch against one mapping set and catalog through one merged
/// shared-operator DAG, over a throwaway [`ShardSet`] of one shard (see the module docs).
/// A caller that keeps a set per epoch calls [`evaluate_batch_sharded`] instead and gets
/// cross-batch bind and result reuse.
pub fn evaluate_batch(
    queries: &[TargetQuery],
    mappings: &MappingSet,
    catalog: &Catalog,
    options: &BatchOptions,
) -> CoreResult<BatchEvaluation> {
    let set = ShardSet::new(catalog, 1, ShardScheme::Hash, None);
    evaluate_batch_sharded(queries, mappings, catalog, options, &set)
}

/// Evaluates a batch over `set`: rewrite, split and route every query, bind each shard's
/// submissions under its lock, execute the shards side by side, gather the answers (module
/// docs).
///
/// `catalog` must be the one the set was built from, and the set must be used with it alone:
/// rewriting and slice choice read it, and bound fingerprints are identity-based, so a set must
/// not outlive or migrate between catalogs.  `options.workers` is split across the shards —
/// each shard's DAG scheduler gets `max(1, workers / shards)` threads — and the batch's
/// [`RunReport::workers`] is the sum of the threads its shards ran on.
pub fn evaluate_batch_sharded(
    queries: &[TargetQuery],
    mappings: &MappingSet,
    catalog: &Catalog,
    options: &BatchOptions,
    set: &ShardSet,
) -> CoreResult<BatchEvaluation> {
    let tracer = &options.tracer;
    let shard_count = set.len();

    // Rewrite, split and route every query, with no shard lock held.
    let mut pending: Vec<PendingQuery> = Vec::with_capacity(queries.len());
    let mut routes: Vec<Route> = Vec::new();
    let mut cluster_factors: Vec<Arc<[Factor]>> = Vec::new();
    let mut submissions: Vec<Submissions> =
        (0..shard_count).map(|_| Submissions::default()).collect();
    let (mut scatter_roots, mut singleton_roots) = (0u64, 0u64);
    for (qi, query) in queries.iter().enumerate() {
        let started = Instant::now();
        let mut metrics = EvalMetrics::new("batch");

        let rewrite_start = Instant::now();
        let Clustering {
            clusters: ordered,
            empty_probability,
            partitions,
        } = {
            let mut span = tracer.span("rewrite");
            span.tag("query", qi as u64);
            let out = partitioned_reformulations(query, mappings, catalog)?;
            // reformulations ≤ partitions ≤ mappings: distinct source queries, rewrites made,
            // rewrites e-basic would have made.
            span.tag("mappings", mappings.len() as u64);
            span.tag("partitions", out.partitions as u64);
            span.tag("reformulations", out.clusters.len() as u64);
            out
        };
        metrics.rewrite_time = rewrite_start.elapsed();
        metrics.representative_mappings = partitions;
        metrics.distinct_source_queries = ordered.len();

        let plan_start = Instant::now();
        let mut span = tracer.span("optimize_bind");
        span.tag("query", qi as u64);
        span.tag("source_queries", ordered.len() as u64);
        let mut query_clusters = Vec::with_capacity(ordered.len());
        for cluster in ordered {
            let factors = set.factors_of(cluster.fingerprint, &cluster.query, catalog)?;
            let first = routes.len();
            for (at, factor) in factors.iter().enumerate() {
                let root = (cluster_factors.len(), at, qi);
                // A factor this batch already sent a shard is that root again.
                let mut submit = |shard: usize| {
                    let (slot, added) = submissions[shard].slot(factor.key, root);
                    metrics.shared_plan_hits += u64::from(!added);
                    (slot, added)
                };
                routes.push(if factor.scatter {
                    let slots: Vec<(usize, bool)> = (0..shard_count).map(&mut submit).collect();
                    scatter_roots += u64::from(slots[0].1);
                    Route::Scatter(slots.into_iter().map(|(slot, _)| slot).collect())
                } else {
                    let shard = (factor.key % shard_count as u64) as usize;
                    let (slot, added) = submit(shard);
                    singleton_roots += u64::from(added);
                    Route::Single { shard, slot }
                });
            }
            cluster_factors.push(factors);
            let (probability, extraction) = (cluster.probability, cluster.query.extraction);
            query_clusters.push((probability, extraction, first..routes.len()));
        }
        drop(span);
        metrics.plan_time = plan_start.elapsed();

        pending.push(PendingQuery {
            clusters: query_clusters,
            empty_probability,
            metrics,
            started,
        });
    }

    // Bind: each shard, under its lock, binds its roots — a bind-cache lookup for a factor it
    // has bound before — and closes them into a prepared batch.  A root's bind work and its
    // DAG sharing count towards the query that first asked for it.
    let mut prepared = Vec::with_capacity(shard_count);
    let mut bind_times = Vec::with_capacity(shard_count);
    for (index, (shard, subs)) in set.shards.iter().zip(&submissions).enumerate() {
        let start = Instant::now();
        let mut span = tracer.span("bind");
        span.tag("shard", index as u64);
        span.tag("roots", subs.roots.len() as u64);
        let binder = Executor::new(&shard.catalog);
        let mut dag = shard.dag.lock().unwrap();
        for &(cluster, at, query) in &subs.roots {
            let factor = &cluster_factors[cluster][at];
            let submitted = Instant::now();
            let before = (
                dag.bind_hits(),
                dag.dag().operators_reused(),
                dag.node_count(),
            );
            if let Err(err) = dag.submit_with(factor.key, || binder.bind(&factor.plan)) {
                // A half-bound batch must not prepend its roots to the shard's next batch.
                dag.abort_pending();
                return Err(err.into());
            }
            let metrics = &mut pending[query].metrics;
            metrics.shared_plan_hits +=
                (dag.bind_hits() - before.0) + (dag.dag().operators_reused() - before.1);
            metrics.shared_plan_misses += (dag.node_count() - before.2) as u64;
            metrics.plan_time += submitted.elapsed();
        }
        prepared.push(dag.prepare_pending());
        drop(dag);
        bind_times.push(start.elapsed());
    }

    // Execute: every distinct operator not answered by a live cached result runs exactly once
    // per shard that needs it.  The helper threads (and every shard's DAG workers) start with
    // empty span stacks, so anchor them under the execute span.
    let workers = (options.workers / shard_count).max(1);
    let runs: Vec<CoreResult<ShardRun>> = {
        let mut span = tracer.span("execute");
        span.tag("shards", shard_count as u64);
        span.tag("scatter_roots", scatter_roots);
        span.tag("singleton_roots", singleton_roots);
        tracer.set_anchor(span.id());
        let runs = std::thread::scope(|scope| {
            let mut shards = set.shards.iter().zip(prepared);
            let (first, first_batch) = shards.next().expect("a shard set has a shard");
            let helpers: Vec<_> = shards
                .map(|(shard, batch)| {
                    scope.spawn(move || run_shard(shard, batch, options, workers))
                })
                .collect();
            let mut runs = vec![run_shard(first, first_batch, options, workers)];
            runs.extend(helpers.into_iter().map(|helper| helper.join().unwrap()));
            runs
        });
        tracer.clear_anchor();
        runs
    };
    let runs: Vec<ShardRun> = runs.into_iter().collect::<CoreResult<_>>()?;

    // Gather: each query's answer from its clusters' factors, in cluster order, a scattered
    // factor as the union of its per-shard slices.
    let gather_start = Instant::now();
    let mut agg_span = tracer.span("aggregate");
    let factor = |route: &Route| match route {
        Route::Scatter(slots) => (runs.iter().zip(slots))
            .map(|(run, &slot)| &*run.results[slot])
            .collect(),
        Route::Single { shard, slot } => vec![&*runs[*shard].results[*slot]],
    };
    let mut evaluations = Vec::with_capacity(pending.len());
    let (mut factor_rows, mut rows, mut answers) = (0, 0, 0);
    for mut query in pending {
        let agg_start = Instant::now();
        let clusters: Vec<Cluster<'_>> = (query.clusters.iter())
            .map(|(probability, extraction, routed)| Cluster {
                probability: *probability,
                extraction,
                factors: routes[routed.clone()].iter().map(factor).collect(),
            })
            .collect();
        let (answer, work) = aggregate(&clusters, query.empty_probability);
        factor_rows += work.factor_rows;
        rows += work.rows;
        answers += answer.len();
        query.metrics.aggregation_time = agg_start.elapsed();
        // Wall-clock spans submission to aggregation; the execution slice in the middle is
        // indivisible across queries (shared nodes), so executor time is reported batch-wide.
        query.metrics.total_time = query.started.elapsed();
        evaluations.push(Evaluation {
            answer,
            metrics: query.metrics,
        });
    }
    // What the step read against what it kept: factor rows in, answer rows enumerated from
    // them, answer entries out.
    agg_span.tag("factor_rows", factor_rows as u64);
    agg_span.tag("rows", rows as u64);
    agg_span.tag("answers", answers as u64);
    drop(agg_span);
    let merge_time = gather_start.elapsed();

    // The shards ran side by side: their work, peaks and threads add up.
    let (mut exec, mut run) = (ExecStats::new(), RunReport::default());
    for shard in &runs {
        exec.merge(&shard.exec);
        run.merge(&shard.run);
    }
    for _ in &cluster_factors {
        exec.record_source_query();
    }
    Ok(BatchEvaluation {
        evaluations,
        exec,
        run,
        shards: ShardStats {
            shards: shard_count,
            fanouts: submissions.iter().map(|subs| subs.roots.len() as u64).sum(),
            scatter_roots,
            singleton_roots,
            shard_times: (bind_times.iter().zip(&runs))
                .map(|(bind, shard)| *bind + shard.elapsed)
                .collect(),
            merge_time,
        },
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::algorithms::{basic, ebasic, Algorithm};
    use crate::strategy::Strategy;
    use crate::testkit;
    use crate::ProbabilisticAnswer;

    pub(crate) fn paper_queries() -> Vec<TargetQuery> {
        vec![
            testkit::q0(),
            testkit::q1(),
            testkit::basic_example_query(),
            testkit::q2_product(),
            testkit::count_query(),
            testkit::sum_query(),
        ]
    }

    pub(crate) fn assert_bit_identical(
        a: &ProbabilisticAnswer,
        b: &ProbabilisticAnswer,
        context: &str,
    ) {
        let (sa, sb) = (a.sorted(), b.sorted());
        assert_eq!(sa.len(), sb.len(), "{context}: answer cardinality");
        for ((t1, p1), (t2, p2)) in sa.iter().zip(&sb) {
            assert_eq!(t1, t2, "{context}: tuples");
            assert_eq!(p1.to_bits(), p2.to_bits(), "{context}: probabilities");
        }
        assert_eq!(
            a.empty_probability().to_bits(),
            b.empty_probability().to_bits(),
            "{context}: empty probability"
        );
    }

    /// A fresh unbudgeted set of `shards` over Figure 2's catalog.
    pub(crate) fn set(catalog: &Catalog, shards: usize) -> ShardSet {
        ShardSet::new(catalog, shards, ShardScheme::Hash, None)
    }

    /// Runs the paper queries on a fresh set of `shards` and checks every answer against
    /// e-basic's to the bit and against basic and o-sharing(SEF).
    pub(crate) fn assert_matches_sequential(
        shards: usize,
        scheme: ShardScheme,
        workers: usize,
    ) -> BatchEvaluation {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let set = ShardSet::new(&catalog, shards, scheme, None);
        let options = BatchOptions::parallel(workers);
        let batch = evaluate_batch_sharded(&queries, &mappings, &catalog, &options, &set).unwrap();
        assert_eq!(batch.evaluations.len(), queries.len());
        for (query, eval) in queries.iter().zip(&batch.evaluations) {
            let context = format!("{} × {shards} {scheme} shards × {workers}", query.name());
            let exact = ebasic::evaluate(query, &mappings, &catalog).unwrap();
            assert_bit_identical(&eval.answer, &exact.answer, &context);
            let reference = basic::evaluate(query, &mappings, &catalog).unwrap();
            assert!(reference.answer.approx_eq(&eval.answer, 1e-9), "{context}");
            let sef = crate::evaluate(
                query,
                &mappings,
                &catalog,
                Algorithm::OSharing(Strategy::Sef),
            )
            .unwrap();
            assert!(sef.answer.approx_eq(&eval.answer, 1e-9), "{context}");
        }
        batch
    }

    #[test]
    fn batch_matches_sequential_on_every_paper_query() {
        // One shard, one and several workers; `sharded::tests` runs the same table at 2–4.
        for workers in [1, 4] {
            assert_matches_sequential(1, ShardScheme::Hash, workers);
        }
    }

    #[test]
    fn batch_rewrites_one_representative_per_partition() {
        // q1 splits Figure 3's five mappings into {m1,m2}, {m3,m4}, {m5} (Section IV): three
        // rewrites, two of them runnable, where e-basic makes five for the same clusters.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let query = testkit::q1();
        let batch = evaluate_batch(
            std::slice::from_ref(&query),
            &mappings,
            &catalog,
            &BatchOptions::sequential(),
        )
        .unwrap();
        let eval = &batch.evaluations[0];
        assert_eq!(mappings.len(), 5);
        assert_eq!(eval.metrics.representative_mappings, 3);
        assert_eq!(eval.metrics.distinct_source_queries, 2);

        let reference = ebasic::evaluate(&query, &mappings, &catalog).unwrap();
        assert_eq!(reference.metrics.representative_mappings, 5);
        assert_eq!(reference.metrics.distinct_source_queries, 2);
        assert_bit_identical(&eval.answer, &reference.answer, "q1");
        assert!(eval.answer.empty_probability() > 0.0, "m5 leaves q1 empty");
    }

    #[test]
    fn parallel_batch_is_byte_identical_to_sequential() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let sequential =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        for workers in [2, 4] {
            let parallel = evaluate_batch(
                &queries,
                &mappings,
                &catalog,
                &BatchOptions::parallel(workers),
            )
            .unwrap();
            for (a, b) in sequential.evaluations.iter().zip(&parallel.evaluations) {
                assert_bit_identical(&a.answer, &b.answer, &format!("{workers} workers"));
            }
            // Work totals are mode-independent; only the wall-clock layout differs.
            assert_eq!(parallel.source_operators(), sequential.source_operators());
            assert_eq!(parallel.run.nodes_executed, sequential.run.nodes_executed);
            assert_eq!(parallel.run.workers, workers);
        }
    }

    #[test]
    fn each_distinct_operator_executes_exactly_once() {
        // The node-dedup invariant: executed operators == distinct DAG nodes, with genuine
        // sharing across the batch (reused > 0 because queries repeat and overlap).
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = vec![testkit::q0(), testkit::q1(), testkit::q0(), testkit::q0()];
        let batch =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        assert_eq!(
            batch.exec.operators_executed + batch.exec.scans,
            batch.run.nodes_executed,
            "every distinct bound operator must execute exactly once"
        );
        assert_eq!(batch.run.nodes_added, batch.run.nodes_executed);
        assert!(batch.run.plan_hits() > 0, "no cross-query operator sharing");
    }

    #[test]
    fn batch_shares_subplans_across_queries() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        // q0 and q1 both select on Customer through overlapping correspondences.
        let queries = vec![testkit::q0(), testkit::q1(), testkit::q0()];
        let batch =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        assert!(batch.run.plan_hits() > 0, "no cross-query sub-plan sharing");
        // The duplicated q0 contributes *no* new node to the merged DAG.
        let repeat = &batch.evaluations[2].metrics;
        assert_eq!(repeat.shared_plan_misses, 0);
        assert!(repeat.shared_plan_hits > 0);
    }

    #[test]
    fn batch_is_deterministic_across_runs() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let a = evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        let b = evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::parallel(3)).unwrap();
        for (x, y) in a.evaluations.iter().zip(&b.evaluations) {
            assert_eq!(x.answer.sorted(), y.answer.sorted());
            // Entries sit in insertion order, so what walks them unsorted repeats too: the
            // float sum to its last bit, and the `Debug` form.
            assert_eq!(
                x.answer.total_mass().to_bits(),
                y.answer.total_mass().to_bits()
            );
            assert_eq!(format!("{:?}", x.answer), format!("{:?}", y.answer));
        }
        assert!(a.evaluations.iter().any(|e| e.answer.len() > 1));
    }

    /// Runs the paper queries twice on one set of `shards`: the warm batch binds nothing anew
    /// and executes no node, and both batches answer as the rebuild-every-batch path does.
    pub(crate) fn assert_warm_batch_reuses_results(shards: usize) {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let rebuilt =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        let set = set(&catalog, shards);
        let options = BatchOptions::parallel(shards);
        let cold = evaluate_batch_sharded(&queries, &mappings, &catalog, &options, &set).unwrap();
        assert_eq!(cold.run.bind_hits, 0);
        assert_eq!(cold.run.results_reused, 0);
        assert!(cold.run.nodes_executed > 0);

        let warm = evaluate_batch_sharded(&queries, &mappings, &catalog, &options, &set).unwrap();
        assert!(warm.run.bind_hits > 0, "warm batch must skip rebinding");
        assert_eq!(
            warm.run.nodes_executed, 0,
            "warm batch must execute no DAG node"
        );
        assert!(warm.run.results_reused > 0);
        assert_eq!(warm.run.nodes_added, 0, "warm batch adds no DAG nodes");
        assert_eq!(
            warm.exec.operators_executed + warm.exec.scans,
            0,
            "warm batch charged executor work"
        );

        // Answers are bit-identical to the cold batch and to the rebuild-every-batch path.
        for ((a, b), c) in (cold.evaluations.iter())
            .zip(&warm.evaluations)
            .zip(&rebuilt.evaluations)
        {
            assert_bit_identical(&a.answer, &c.answer, &format!("cold × {shards}"));
            assert_bit_identical(&b.answer, &c.answer, &format!("warm × {shards}"));
        }
    }

    #[test]
    fn warm_epoch_batch_skips_rebinding_and_execution_with_identical_answers() {
        assert_warm_batch_reuses_results(1);
    }

    #[test]
    fn overlapping_warm_batch_reuses_the_shared_frontier() {
        // The second batch shares q0/q1 with the first but adds a new query: only the new
        // query's frontier executes.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let set = set(&catalog, 1);
        let options = BatchOptions::sequential();
        let first = [testkit::q0(), testkit::q1()];
        evaluate_batch_sharded(&first, &mappings, &catalog, &options, &set).unwrap();
        let queries = [testkit::q0(), testkit::q1(), testkit::q2_product()];
        let second = evaluate_batch_sharded(&queries, &mappings, &catalog, &options, &set).unwrap();
        assert!(second.run.bind_hits > 0);
        assert!(second.run.results_reused > 0);
        assert!(
            second.run.nodes_executed > 0,
            "the new query still has to run"
        );
        // The repeated queries' answers agree with the sequential reference.
        for (query, eval) in queries.iter().zip(&second.evaluations) {
            let reference = basic::evaluate(query, &mappings, &catalog).unwrap();
            assert!(
                reference.answer.approx_eq(&eval.answer, 1e-9),
                "warm epoch batch disagrees with basic on {}",
                query.name()
            );
        }
    }

    /// Runs the paper queries twice on a set of `shards` with a budget of 0 per shard: every
    /// pinned result spills and reloads, and no answer changes by a bit.
    pub(crate) fn assert_budget_zero_matches_unconstrained(shards: usize) {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let unconstrained =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        let set = ShardSet::new(&catalog, shards, ShardScheme::Hash, Some(0));
        let options = BatchOptions::sequential();
        let cold = evaluate_batch_sharded(&queries, &mappings, &catalog, &options, &set).unwrap();
        assert!(cold.exec.bytes_spilled > 0, "budget 0 must spill pins");
        let warm = evaluate_batch_sharded(&queries, &mappings, &catalog, &options, &set).unwrap();
        assert_eq!(
            warm.run.nodes_executed, 0,
            "warm batch re-executed under budget"
        );
        assert!(
            warm.exec.spill_reloads > 0,
            "warm batch must reload spilled pins"
        );
        for ((a, b), c) in (unconstrained.evaluations.iter())
            .zip(&cold.evaluations)
            .zip(&warm.evaluations)
        {
            assert_bit_identical(&b.answer, &a.answer, &format!("cold × {shards}"));
            assert_bit_identical(&c.answer, &a.answer, &format!("warm × {shards}"));
        }
    }

    #[test]
    fn memory_budgeted_epoch_matches_unconstrained_and_counts_spills() {
        assert_budget_zero_matches_unconstrained(1);
    }

    #[test]
    fn pipelined_prepare_execute_matches_the_serialised_path() {
        // The serving layer's pipeline shape: batches of one set run concurrently, so one binds
        // under a shard's lock while another executes — each answer must be the serialised
        // batches' to the bit.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let serial =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        for shards in [1, 2] {
            let set = set(&catalog, shards);
            let batches: Vec<BatchEvaluation> = std::thread::scope(|scope| {
                let runs: Vec<_> = (0..4)
                    .map(|i| {
                        let (queries, mappings, catalog, set) =
                            (&queries, &mappings, &catalog, &set);
                        scope.spawn(move || {
                            let options = BatchOptions::parallel(1 + i % 2);
                            evaluate_batch_sharded(queries, mappings, catalog, &options, set)
                        })
                    })
                    .collect();
                runs.into_iter()
                    .map(|run| run.join().unwrap().unwrap())
                    .collect()
            });
            for batch in &batches {
                for (a, b) in batch.evaluations.iter().zip(&serial.evaluations) {
                    assert_bit_identical(&a.answer, &b.answer, &format!("{shards} shards"));
                }
            }
            // Together the four batches bound every root once and hit the bind cache after.
            let misses: u64 = batches.iter().map(|b| b.run.bind_misses).sum();
            let hits: u64 = batches.iter().map(|b| b.run.bind_hits).sum();
            assert_eq!(misses + hits, 4 * batches[0].shards.fanouts);
            assert_eq!(misses, batches[0].shards.fanouts);
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let batch = evaluate_batch(&[], &mappings, &catalog, &BatchOptions::parallel(4)).unwrap();
        assert!(batch.evaluations.is_empty());
        assert_eq!(batch.run.plan_hits() + batch.run.nodes_added, 0);
        assert_eq!(batch.source_operators(), 0);
        assert_eq!(batch.run.nodes_executed, 0);
        assert_eq!(batch.shards.fanouts, 0);
    }

    #[test]
    fn a_set_of_one_shard_routes_every_root_once() {
        // One shard slices nothing: every root is a singleton, dispatched once.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let options = BatchOptions::sequential();
        let one = evaluate_batch(&paper_queries(), &mappings, &catalog, &options).unwrap();
        assert_eq!(one.shards.shards, 1);
        assert_eq!(one.shards.scatter_roots, 0);
        assert!(one.shards.singleton_roots > 0);
        assert_eq!(one.shards.fanouts, one.shards.singleton_roots);
        assert_eq!(one.shards.shard_times.len(), 1);
    }

    #[test]
    fn a_set_of_one_shard_runs_on_the_epoch_catalog() {
        // No slice, and no row copied: every relation of the shard is the epoch's own.
        let catalog = testkit::figure2_catalog();
        let set = set(&catalog, 1);
        let shard = &set.shards[0].catalog;
        assert_eq!(shard.len(), catalog.len());
        for (name, relation) in shard.iter() {
            assert!(!name.ends_with("::slice"), "{name}");
            assert!(Arc::ptr_eq(relation, &catalog.get(name).unwrap()), "{name}");
        }
    }
}
