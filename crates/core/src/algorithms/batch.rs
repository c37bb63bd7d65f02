//! Batch evaluation, and the lowering every algorithm but `basic` runs its source queries by.
//!
//! The paper evaluates sharing *within* one probabilistic query (its `h` reformulations).  A
//! serving layer gets a second amortisation axis: independent queries submitted together
//! against the same (catalog, mapping set) epoch overlap heavily — they scan the same source
//! relations and, with ambiguous matchings, often reformulate onto identical source sub-plans.
//! A batch therefore merges the distinct source queries of *every* query into one
//! shared-operator DAG: each distinct bound operator (deduplicated by bound-plan fingerprint)
//! is one node, shared sub-plans are fan-out edges, and every node executes **exactly once** —
//! on the calling thread, joined by helper threads when [`BatchOptions::workers`] ≥ 2 (results
//! are byte-identical either way).
//!
//! A batch always runs over a [`BatchEpoch`]: the epoch's persistent [`EpochDag`] and the
//! factors its source queries split into.  [`evaluate_batch`] runs over a throwaway one.
//! [`evaluate_batch_on`], the one coordinator, **rewrites** each query, one representative per
//! mapping *partition* ([`partitioned_reformulations`]): the clusters — distinct source queries
//! with their summed mapping probabilities — their order and probabilities are bit for bit
//! those of e-basic's rewrite-every-mapping phase.  It hands the rewrites to the *lowering*,
//! which takes their clusters through three steps:
//!
//! 1. **Split**, once per epoch: the optimised form of a tuple-producing source query is a
//!    product of distinct factors `δπ(C1) × … × δπ(Ck)`, under a projection when the product's
//!    columns need reordering (see `urm_engine::optimize`).  Each factor
//!    ([`product_factors`]) becomes a DAG root of its own, under its own fingerprint, so the
//!    product and its projection are never bound, executed or pinned, and the source queries
//!    that share a factor share its root.  An aggregate is one factor.  The epoch remembers
//!    each cluster's factors, so a warm batch neither optimises nor splits again.
//! 2. **Bind**, under the DAG's lock: each distinct factor once (a bind-cache lookup for a
//!    factor bound before), closed into a [`PreparedBatch`].  The lock is released before
//!    execution, so the next batch binds while this one executes.
//! 3. **Execute and aggregate**: a node whose result is still materialised from an earlier
//!    batch is answered without executing; each query's clusters, in cluster order, then go to
//!    [`aggregate`] as the factors whose product they are.
//!
//! Splitting holds no lock.  Answers are e-basic's to the bit, warm or cold, with or without a
//! memory budget (property-tested).
//!
//! **One lowering.**  Every algorithm but `basic` runs its source queries this way: each is a
//! policy over which clusters it lowers and onto which epoch ([`crate::algorithms`]).

use crate::answer::{aggregate, Cluster};
use crate::metrics::{EvalMetrics, Evaluation};
use crate::query::TargetQuery;
use crate::reformulate::{partitioned_reformulations, Clustering, Extraction, SourceQuery};
use crate::CoreResult;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use urm_engine::optimize::{fingerprint, optimize, product_factors};
use urm_engine::{
    EpochDag, ExecStats, Executor, Plan, PreparedBatch, RunReport, DEFAULT_PIN_BUDGET_BYTES,
};
use urm_matching::MappingSet;
use urm_obs::Tracer;
use urm_storage::Catalog;

/// Tuning knobs of one batch evaluation.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads for the DAG scheduler (1 = the calling thread alone).
    pub workers: usize,
    /// Trace spans recorder (disabled by default — a disabled tracer costs nothing on the
    /// hot path).  Every stage of the batch records under it: per-query `rewrite` and
    /// `optimize_bind`, then `bind`, `execute` (with a `node` span per executed DAG node and
    /// spill I/O) and `aggregate`.
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
    /// Batch-wide executor statistics (operators, scans, tuples, spill, time).
    pub exec: ExecStats,
    /// The batch's bind stage and DAG run: bind-cache hits, DAG-merge dedup, nodes executed
    /// and answered by an earlier batch's results, parallelism and the threads it ran on.
    pub run: RunReport,
}

impl BatchEvaluation {
    /// Total source operators executed across the batch (the paper's Table IV metric).
    #[must_use]
    pub fn source_operators(&self) -> u64 {
        self.exec.source_operators()
    }
}

/// The state every batch of one epoch shares (see the module docs).
#[derive(Debug)]
pub struct BatchEpoch {
    /// The epoch's DAG behind its bind lock: a batch holds it only while it binds its roots.
    dag: Mutex<EpochDag>,
    /// Source-query fingerprint → the optimised factors it splits into.
    factors: Mutex<HashMap<u64, Arc<[Factor]>>>,
}

/// One factor of an optimised source query: a DAG root.
#[derive(Debug)]
struct Factor {
    /// The factor's fingerprint: its key in the bind cache.
    key: u64,
    /// The optimised factor plan.
    plan: Plan,
}

impl BatchEpoch {
    /// An epoch with an empty DAG.  `memory_budget` (bytes, per epoch) puts the DAG under a
    /// spill pool; without one, its pinned results stay resident up to
    /// [`DEFAULT_PIN_BUDGET_BYTES`].
    #[must_use]
    pub fn new(memory_budget: Option<usize>) -> BatchEpoch {
        BatchEpoch {
            dag: Mutex::new(match memory_budget {
                Some(bytes) => EpochDag::with_memory_budget(bytes),
                None => EpochDag::with_pin_budget(DEFAULT_PIN_BUDGET_BYTES),
            }),
            factors: Mutex::new(HashMap::new()),
        }
    }

    /// The epoch DAG, locked: its bind and result counters and its pinned results.
    pub fn dag(&self) -> MutexGuard<'_, EpochDag> {
        self.dag.lock().unwrap()
    }

    /// The bind-cache keys of the factors the source query with fingerprint `key` was split
    /// into, once a batch over this epoch has split it.
    #[must_use]
    pub fn factor_keys(&self, key: u64) -> Option<Vec<u64>> {
        let factors = self.factors.lock().unwrap();
        Some(factors.get(&key)?.iter().map(|factor| factor.key).collect())
    }

    /// The factors of the source query `sq`, whose fingerprint is `key`: split on first sight
    /// ([`factor_plans`]), remembered after.
    fn factors_of(
        &self,
        key: u64,
        sq: &SourceQuery,
        catalog: &Catalog,
    ) -> CoreResult<Arc<[Factor]>> {
        if let Some(known) = self.factors.lock().unwrap().get(&key) {
            return Ok(Arc::clone(known));
        }
        let factors: Arc<[Factor]> = (factor_plans(sq, catalog)?.into_iter())
            .map(|plan| Factor {
                key: fingerprint(&plan),
                plan,
            })
            .collect();
        let mut known = self.factors.lock().unwrap();
        Ok(Arc::clone(known.entry(key).or_insert(factors)))
    }
}

/// The DAG roots the source query `sq` is lowered to: the factors of its optimised product
/// when its answers are read by column name ([`Extraction::Columns`]), which no reordering
/// moves; its optimised plan whole when it is an aggregate.
pub(crate) fn factor_plans(sq: &SourceQuery, catalog: &Catalog) -> CoreResult<Vec<Plan>> {
    let optimized = optimize(&sq.plan, catalog)?;
    Ok(match sq.extraction {
        Extraction::Columns(_) => product_factors(optimized),
        Extraction::Raw => vec![optimized],
    })
}

/// One query on its way through the lowering: its clusters, the metrics it has so far, and
/// when its evaluation began.
pub(crate) struct Rewrite {
    pub(crate) clustering: Clustering,
    pub(crate) metrics: EvalMetrics,
    pub(crate) started: Instant,
}

impl Rewrite {
    /// Runs `rewrite` as the timed rewrite phase of an evaluation by `algorithm`.
    pub(crate) fn timed(
        algorithm: &'static str,
        rewrite: impl FnOnce() -> CoreResult<Clustering>,
    ) -> CoreResult<Rewrite> {
        let started = Instant::now();
        let clustering = rewrite()?;
        let mut metrics = EvalMetrics::new(algorithm);
        metrics.rewrite_time = started.elapsed();
        metrics.representative_mappings = clustering.partitions;
        metrics.distinct_source_queries = clustering.clusters.len();
        Ok(Rewrite {
            clustering,
            metrics,
            started,
        })
    }
}

/// A batch's DAG roots: each distinct factor once, in submission order.
#[derive(Default)]
struct Submissions {
    /// (cluster in the batch, factor within it, query) of each root, the query being the first
    /// that asked for it.
    roots: Vec<(usize, usize, usize)>,
    /// Factor key → its root.
    slots: HashMap<u64, usize>,
}

impl Submissions {
    /// The root of the factor known as `key`, added for `root` unless this batch already
    /// submitted that factor; and whether it was added.
    fn slot(&mut self, key: u64, root: (usize, usize, usize)) -> (usize, bool) {
        let next = self.roots.len();
        let slot = *self.slots.entry(key).or_insert(next);
        if slot == next {
            self.roots.push(root);
        }
        (slot, slot == next)
    }
}

/// Evaluates every query of a batch against one mapping set and catalog through one merged
/// shared-operator DAG, over a throwaway [`BatchEpoch`] (see the module docs).  A caller that
/// keeps one per epoch calls [`evaluate_batch_on`] instead and gets cross-batch bind and
/// result reuse.
pub fn evaluate_batch(
    queries: &[TargetQuery],
    mappings: &MappingSet,
    catalog: &Catalog,
    options: &BatchOptions,
) -> CoreResult<BatchEvaluation> {
    evaluate_batch_on(queries, mappings, catalog, options, &BatchEpoch::new(None))
}

/// Evaluates a batch over `epoch`: rewrite every query, then lower the rewrites — split, bind
/// under the DAG's lock, execute on the calling thread with `options.workers` DAG workers,
/// aggregate (module docs).
///
/// `epoch` must be used with `catalog` alone: rewriting, optimisation and execution read it,
/// and bound fingerprints are identity-based, so an epoch must not outlive or migrate between
/// catalogs.
pub fn evaluate_batch_on(
    queries: &[TargetQuery],
    mappings: &MappingSet,
    catalog: &Catalog,
    options: &BatchOptions,
    epoch: &BatchEpoch,
) -> CoreResult<BatchEvaluation> {
    let tracer = &options.tracer;
    let rewrites = (queries.iter().enumerate())
        .map(|(qi, query)| {
            Rewrite::timed("batch", || {
                let mut span = tracer.span("rewrite");
                span.tag("query", qi as u64);
                let out = partitioned_reformulations(query, mappings, catalog)?;
                // reformulations ≤ partitions ≤ mappings: distinct source queries, rewrites
                // made, rewrites e-basic would have made.
                span.tag("mappings", mappings.len() as u64);
                span.tag("partitions", out.partitions as u64);
                span.tag("reformulations", out.clusters.len() as u64);
                Ok(out)
            })
        })
        .collect::<CoreResult<Vec<_>>>()?;
    lower(rewrites, catalog, options, epoch)
}

/// Lowers one query onto a throwaway epoch, on the calling thread, untraced: the evaluation of
/// a per-query algorithm, charged with the run's executor work.
pub(crate) fn lower_alone(rewrite: Rewrite, catalog: &Catalog) -> CoreResult<Evaluation> {
    let epoch = BatchEpoch::new(None);
    let mut run = lower(vec![rewrite], catalog, &BatchOptions::sequential(), &epoch)?;
    let mut evaluation = run.evaluations.pop().expect("one query, one evaluation");
    evaluation.metrics.exec = run.exec;
    Ok(evaluation)
}

/// The lowering (module docs): splits every rewrite's clusters into factor roots on `epoch`,
/// binds the roots under the DAG's lock, executes them with `options.workers` DAG workers and
/// aggregates each query's answer from its clusters' factors.
fn lower(
    rewrites: Vec<Rewrite>,
    catalog: &Catalog,
    options: &BatchOptions,
    epoch: &BatchEpoch,
) -> CoreResult<BatchEvaluation> {
    let tracer = &options.tracer;

    // Split every query, with no lock held.  Per query, per cluster: the range of the batch's
    // factor slots holding the cluster's factors.
    let mut pending: Vec<(Rewrite, Vec<Range<usize>>)> = Vec::with_capacity(rewrites.len());
    let mut slots: Vec<usize> = Vec::new();
    let mut cluster_factors: Vec<Arc<[Factor]>> = Vec::new();
    let mut submissions = Submissions::default();
    for (qi, mut rewrite) in rewrites.into_iter().enumerate() {
        let plan_start = Instant::now();
        let clusters = &rewrite.clustering.clusters;
        let mut span = tracer.span("optimize_bind");
        span.tag("query", qi as u64);
        span.tag("source_queries", clusters.len() as u64);
        let mut ranges = Vec::with_capacity(clusters.len());
        for cluster in clusters {
            let factors = epoch.factors_of(cluster.fingerprint, &cluster.query, catalog)?;
            let first = slots.len();
            for (at, factor) in factors.iter().enumerate() {
                // A factor this batch already submitted is that root again.
                let (slot, added) = submissions.slot(factor.key, (cluster_factors.len(), at, qi));
                rewrite.metrics.shared_plan_hits += u64::from(!added);
                slots.push(slot);
            }
            cluster_factors.push(factors);
            ranges.push(first..slots.len());
        }
        drop(span);
        rewrite.metrics.plan_time += plan_start.elapsed();
        pending.push((rewrite, ranges));
    }

    // Bind, under the DAG's lock, every root — a bind-cache lookup for a factor bound before —
    // and close them into a prepared batch.  A root's bind work and its DAG sharing count
    // towards the query that first asked for it.
    let prepared: PreparedBatch = {
        let mut span = tracer.span("bind");
        span.tag("roots", submissions.roots.len() as u64);
        let binder = Executor::new(catalog);
        let mut dag = epoch.dag();
        for &(cluster, at, query) in &submissions.roots {
            let factor = &cluster_factors[cluster][at];
            let submitted = Instant::now();
            let before = (
                dag.bind_hits(),
                dag.dag().operators_reused(),
                dag.node_count(),
            );
            if let Err(err) = dag.submit_with(factor.key, || binder.bind(&factor.plan)) {
                // A half-bound batch must not prepend its roots to the epoch's next batch.
                dag.abort_pending();
                return Err(err.into());
            }
            let metrics = &mut pending[query].0.metrics;
            metrics.shared_plan_hits +=
                (dag.bind_hits() - before.0) + (dag.dag().operators_reused() - before.1);
            metrics.shared_plan_misses += (dag.node_count() - before.2) as u64;
            metrics.plan_time += submitted.elapsed();
        }
        dag.prepare_pending()
    };

    // Execute: every distinct operator not answered by a live cached result runs exactly once.
    // A memory-budgeted epoch carries a spill pool: the executor shares it, so grace hash joins
    // and spilled-pin reloads draw on one budget, and the pool traces its writes and reloads
    // under this batch's trace while the batch runs.  The pool-counter deltas the batch causes
    // are folded into `ExecStats` inside the engine, under the epoch's result lock.  The DAG
    // workers start with empty span stacks, so anchor them under the execute span.
    let mut exec = match prepared.pool().cloned() {
        Some(pool) => Executor::with_pool(catalog, pool),
        None => Executor::new(catalog),
    }
    .with_tracer(tracer.clone());
    let run = {
        let span = tracer.span("execute");
        tracer.set_anchor(span.id());
        if let Some(pool) = exec.pool() {
            pool.set_tracer(tracer.clone());
        }
        let run = prepared.execute(&mut exec, options.workers);
        if let Some(pool) = exec.pool() {
            pool.set_tracer(Tracer::disabled());
        }
        tracer.clear_anchor();
        run?
    };
    let results = run.root_results;

    // Aggregate each query's answer from its clusters' factors, in cluster order.
    let mut agg_span = tracer.span("aggregate");
    let mut evaluations = Vec::with_capacity(pending.len());
    let (mut factor_rows, mut rows, mut answers) = (0, 0, 0);
    for (query, ranges) in pending {
        let (clustering, mut metrics) = (query.clustering, query.metrics);
        let agg_start = Instant::now();
        let clusters: Vec<Cluster<'_>> = (clustering.clusters.iter().zip(ranges))
            .map(|(cluster, factors)| Cluster {
                probability: cluster.probability,
                extraction: &cluster.query.extraction,
                factors: slots[factors].iter().map(|&slot| &*results[slot]).collect(),
            })
            .collect();
        let (answer, work) = aggregate(&clusters, clustering.empty_probability);
        factor_rows += work.factor_rows;
        rows += work.rows;
        answers += answer.len();
        metrics.aggregation_time = agg_start.elapsed();
        // Wall-clock spans submission to aggregation; the execution slice in the middle is
        // indivisible across queries (shared nodes), so executor time is reported batch-wide.
        metrics.total_time = query.started.elapsed();
        evaluations.push(Evaluation { answer, metrics });
    }
    // What the step read against what it kept: factor rows in, answer rows enumerated from
    // them, answer entries out.
    agg_span.tag("factor_rows", factor_rows as u64);
    agg_span.tag("rows", rows as u64);
    agg_span.tag("answers", answers as u64);
    drop(agg_span);

    let mut exec = exec.into_stats();
    for _ in &cluster_factors {
        exec.record_source_query();
    }
    Ok(BatchEvaluation {
        evaluations,
        exec,
        run: run.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{basic, ebasic, Algorithm};
    use crate::strategy::Strategy;
    use crate::testkit;
    use crate::ProbabilisticAnswer;

    fn paper_queries() -> Vec<TargetQuery> {
        vec![
            testkit::q0(),
            testkit::q1(),
            testkit::basic_example_query(),
            testkit::q2_product(),
            testkit::count_query(),
            testkit::sum_query(),
        ]
    }

    fn assert_bit_identical(a: &ProbabilisticAnswer, b: &ProbabilisticAnswer, context: &str) {
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

    #[test]
    fn batch_matches_sequential_on_every_paper_query() {
        // Every answer against e-basic's to the bit and against basic and o-sharing(SEF), on
        // one and several workers.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        for workers in [1, 4] {
            let options = BatchOptions::parallel(workers);
            let batch = evaluate_batch(&queries, &mappings, &catalog, &options).unwrap();
            assert_eq!(batch.evaluations.len(), queries.len());
            for (query, eval) in queries.iter().zip(&batch.evaluations) {
                let context = format!("{} × {workers}", query.name());
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
            assert_eq!(
                parallel.run.workers,
                workers.min(urm_engine::dag::usable_cpus())
            );
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

    #[test]
    fn warm_epoch_batch_skips_rebinding_and_execution_with_identical_answers() {
        // Twice on one epoch: the warm batch binds nothing anew and executes no node, and both
        // batches answer as the rebuild-every-batch path does.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let rebuilt =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        let epoch = BatchEpoch::new(None);
        let options = BatchOptions::sequential();
        let cold = evaluate_batch_on(&queries, &mappings, &catalog, &options, &epoch).unwrap();
        assert_eq!(cold.run.bind_hits, 0);
        assert_eq!(cold.run.results_reused, 0);
        assert!(cold.run.nodes_executed > 0);

        let warm = evaluate_batch_on(&queries, &mappings, &catalog, &options, &epoch).unwrap();
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
            assert_bit_identical(&a.answer, &c.answer, "cold");
            assert_bit_identical(&b.answer, &c.answer, "warm");
        }
    }

    #[test]
    fn overlapping_warm_batch_reuses_the_shared_frontier() {
        // The second batch shares q0/q1 with the first but adds a new query: only the new
        // query's frontier executes.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let epoch = BatchEpoch::new(None);
        let options = BatchOptions::sequential();
        let first = [testkit::q0(), testkit::q1()];
        evaluate_batch_on(&first, &mappings, &catalog, &options, &epoch).unwrap();
        let queries = [testkit::q0(), testkit::q1(), testkit::q2_product()];
        let second = evaluate_batch_on(&queries, &mappings, &catalog, &options, &epoch).unwrap();
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

    #[test]
    fn memory_budgeted_epoch_matches_unconstrained_and_counts_spills() {
        // Twice on an epoch with a budget of 0: every pinned result spills and reloads, and no
        // answer changes by a bit.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let unconstrained =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        let epoch = BatchEpoch::new(Some(0));
        let options = BatchOptions::sequential();
        let cold = evaluate_batch_on(&queries, &mappings, &catalog, &options, &epoch).unwrap();
        assert!(cold.exec.bytes_spilled > 0, "budget 0 must spill pins");
        let warm = evaluate_batch_on(&queries, &mappings, &catalog, &options, &epoch).unwrap();
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
            assert_bit_identical(&b.answer, &a.answer, "cold");
            assert_bit_identical(&c.answer, &a.answer, "warm");
        }
    }

    #[test]
    fn pipelined_prepare_execute_matches_the_serialised_path() {
        // The serving layer's pipeline shape: batches of one epoch run concurrently, so one
        // binds under the DAG's lock while another executes — each answer must be the
        // serialised batches' to the bit.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let serial =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        let epoch = BatchEpoch::new(None);
        let batches: Vec<BatchEvaluation> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..4)
                .map(|i| {
                    let (queries, mappings, catalog, epoch) =
                        (&queries, &mappings, &catalog, &epoch);
                    scope.spawn(move || {
                        let options = BatchOptions::parallel(1 + i % 2);
                        evaluate_batch_on(queries, mappings, catalog, &options, epoch)
                    })
                })
                .collect();
            runs.into_iter()
                .map(|run| run.join().unwrap().unwrap())
                .collect()
        });
        for batch in &batches {
            for (a, b) in batch.evaluations.iter().zip(&serial.evaluations) {
                assert_bit_identical(&a.answer, &b.answer, "pipelined");
            }
        }
        // Together the four batches bound every root once and hit the bind cache after.
        let roots = serial.run.bind_misses;
        let misses: u64 = batches.iter().map(|b| b.run.bind_misses).sum();
        let hits: u64 = batches.iter().map(|b| b.run.bind_hits).sum();
        assert_eq!(misses + hits, 4 * roots);
        assert_eq!(misses, roots);
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
        assert_eq!(batch.run.bind_misses, 0);
    }
}
