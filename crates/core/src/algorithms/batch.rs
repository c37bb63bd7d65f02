//! Batch evaluation: many probabilistic queries over one mapping set, lowered onto a single
//! merged shared-operator DAG.
//!
//! The paper evaluates sharing *within* one probabilistic query (its `h` reformulations).  A
//! serving layer gets a second amortisation axis: independent queries submitted concurrently
//! against the same (catalog, mapping set) epoch overlap heavily — they scan the same source
//! relations and, with ambiguous matchings, frequently reformulate onto identical source
//! sub-plans.  [`evaluate_batch`] therefore binds the distinct source queries of *every* query
//! in the batch and merges them into one [`OperatorDag`]: each distinct bound operator
//! (deduplicated by bound-plan fingerprint) becomes one node, shared sub-plans become fan-out
//! edges, and the [`DagScheduler`] executes every node **exactly once** — on the calling
//! thread, joined by helper threads when [`BatchOptions::workers`] ≥ 2 (independent operators
//! of different queries run concurrently; results are byte-identical either way).
//!
//! A query's distinct source queries come from the partition-first rewrite
//! ([`partitioned_reformulations`]): one `reformulate` per mapping *partition*, not per mapping
//! — the clusters, their order and their probabilities are bit for bit those of e-basic's
//! rewrite-every-mapping phase.
//!
//! **A product is submitted as its factors.**  The optimised form of a tuple-producing source
//! query is a product of distinct factors `δπ(C1) × … × δπ(Ck)`, under a projection when the
//! product's columns need reordering (see `urm_engine::optimize`).  The batch submits each
//! factor as a DAG root of its own, under its own fingerprint (the epoch remembers the split,
//! [`EpochDag::record_split`]), so the product and its projection are never bound, executed or
//! pinned, and the source queries of a batch that share a factor share its root.  The answer
//! is built from the factors by the one aggregation every algorithm uses
//! ([`aggregate`](crate::answer::aggregate)): answer columns resolve by name in the factors'
//! schemas, clusters whose factors hold equal rows are enumerated once, and each answer's
//! probability is the sum of the clusters producing it in cluster order — so batch answers are
//! e-basic's to the bit, and agree with every sequential algorithm (the service integration
//! tests verify this).
//!
//! Batches run on an [`EpochDag`]: [`evaluate_batch`] builds a throwaway one (tests and the
//! sequential comparisons), while the serving layer keeps one epoch DAG alive per registered
//! epoch and calls [`prepare_batch_epoch`] under its bind lock, then
//! [`execute_prepared_batch`] outside it ([`evaluate_batch_epoch`] composes the two), so a hot
//! epoch's later batches skip re-optimising, rebinding and re-executing every source query the
//! epoch has seen whose result is still materialised — byte-identical answers either way
//! (property-tested).

use crate::answer::{aggregate, Cluster};
use crate::metrics::{EvalMetrics, Evaluation};
use crate::query::TargetQuery;
use crate::reformulate::{partitioned_reformulations, Clustering, Extraction};
use crate::CoreResult;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use urm_engine::optimize::{fingerprint, optimize};
use urm_engine::{
    EngineResult, EpochDag, ExecStats, Executor, PhysicalPlan, Plan, PreparedBatch, RunReport,
};
use urm_matching::MappingSet;
use urm_obs::Tracer;
use urm_storage::{BufferPool, Catalog};

/// Tuning knobs of one batch evaluation.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads for the DAG scheduler (1 = the calling thread alone).
    pub workers: usize,
    /// Trace spans recorder (disabled by default — a disabled tracer costs nothing on the
    /// hot path).  Execution-side spans (`execute`, per-DAG-node `node`, spill I/O) hang off
    /// this; the bind side takes it as [`prepare_batch_epoch`]'s own argument.
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
    /// and answered by an earlier batch's results, parallelism and threads.
    pub run: RunReport,
}

impl BatchEvaluation {
    /// Total source operators executed across the batch (the paper's Table IV metric).
    #[must_use]
    pub fn source_operators(&self) -> u64 {
        self.exec.source_operators()
    }
}

/// Per-query bookkeeping between the DAG-build and aggregation phases.
#[derive(Debug)]
struct PendingQuery {
    /// One per distinct reformulation, in cluster order.
    clusters: Vec<PendingCluster>,
    empty_probability: f64,
    metrics: EvalMetrics,
    started: Instant,
}

/// One distinct reformulation of a pending query: its probability, extraction rule, and the
/// DAG roots of its factors.
#[derive(Debug)]
struct PendingCluster {
    probability: f64,
    extraction: Extraction,
    /// Indices into the batch's root results, one per factor.
    roots: Vec<usize>,
}

/// The roots a batch has submitted, by key: a plan several source queries of the batch share
/// — a factor, most often — is one root, submitted once.
#[derive(Default)]
struct BatchRoots {
    by_key: HashMap<u64, usize>,
    /// Submissions answered by a root the batch already had.
    reused: u64,
}

impl BatchRoots {
    /// The root index of the plan known as `key`, submitted to `epoch` with `bind` if this
    /// batch has not submitted it yet.
    fn submit(
        &mut self,
        epoch: &mut EpochDag,
        key: u64,
        bind: impl FnOnce() -> EngineResult<Arc<PhysicalPlan>>,
    ) -> CoreResult<usize> {
        if let Some(&root) = self.by_key.get(&key) {
            self.reused += 1;
            return Ok(root);
        }
        epoch.submit_with(key, bind)?;
        let root = self.by_key.len();
        self.by_key.insert(key, root);
        Ok(root)
    }
}

/// The factors whose product `plan` is: the product chain under the reordering projection
/// `optimize` may put above it, or `plan` itself when it is not a product.  Only for a plan
/// whose answers are read by column name ([`Extraction::Columns`]), which no reordering moves.
pub(crate) fn product_factors(plan: Plan) -> Vec<Plan> {
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

/// Phase 1 of a batch: rewrite every query — one representative per mapping partition — and
/// submit the distinct source queries to the epoch DAG, a tuple-producing one as the factors
/// of its optimised product.  A source query this epoch has split before is a bind-cache
/// lookup per factor; a new one is optimised, split, and each factor not bound before is bound
/// and merged (sharing across queries is structural).
fn submit_batch(
    queries: &[TargetQuery],
    mappings: &MappingSet,
    catalog: &Catalog,
    epoch: &mut EpochDag,
    exec: &Executor<'_>,
    tracer: &Tracer,
) -> CoreResult<Vec<PendingQuery>> {
    let mut pending: Vec<PendingQuery> = Vec::with_capacity(queries.len());
    let mut roots = BatchRoots::default();
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

        let reused_before = epoch.dag().operators_reused();
        let nodes_before = epoch.dag().node_count();
        let bind_hits_before = epoch.bind_hits();
        let reused_roots_before = roots.reused;
        let mut clusters = Vec::with_capacity(ordered.len());
        let plan_start = Instant::now();
        {
            let mut span = tracer.span("optimize_bind");
            span.tag("query", qi as u64);
            span.tag("source_queries", ordered.len() as u64);
            for cluster in ordered {
                let sq = cluster.query;
                let optimized = || optimize(&sq.plan, catalog);
                let roots = if let Extraction::Raw = sq.extraction {
                    let bind = || exec.bind(&optimized()?);
                    vec![roots.submit(epoch, cluster.fingerprint, bind)?]
                } else {
                    // A split this epoch recorded names factors it has bound; a new one is
                    // recorded once its factors are.
                    let (keys, factors) = match epoch.split(cluster.fingerprint) {
                        Some(keys) => (keys.to_vec(), None),
                        None => {
                            let factors = product_factors(optimized()?);
                            (factors.iter().map(fingerprint).collect(), Some(factors))
                        }
                    };
                    let mut factor_roots = Vec::with_capacity(keys.len());
                    for (at, &key) in keys.iter().enumerate() {
                        let bind = || match &factors {
                            Some(factors) => exec.bind(&factors[at]),
                            None => exec.bind(&product_factors(optimized()?)[at]),
                        };
                        factor_roots.push(roots.submit(epoch, key, bind)?);
                    }
                    if factors.is_some() {
                        epoch.record_split(cluster.fingerprint, &keys);
                    }
                    factor_roots
                };
                clusters.push(PendingCluster {
                    probability: cluster.probability,
                    extraction: sq.extraction,
                    roots,
                });
            }
        }
        metrics.plan_time = plan_start.elapsed();
        metrics.shared_plan_hits = (epoch.dag().operators_reused() - reused_before)
            + (epoch.bind_hits() - bind_hits_before)
            + (roots.reused - reused_roots_before);
        metrics.shared_plan_misses = (epoch.dag().node_count() - nodes_before) as u64;

        pending.push(PendingQuery {
            clusters,
            empty_probability,
            metrics,
            started,
        });
    }
    Ok(pending)
}

/// Evaluates every query of a batch against the same mapping set and catalog through one merged
/// shared-operator DAG (see the module docs).
///
/// The epoch DAG is built fresh per call and dropped with it.  A caller that keeps one
/// [`EpochDag`] per epoch calls [`evaluate_batch_epoch`] instead and gets cross-batch
/// bind/result reuse for free.
pub fn evaluate_batch(
    queries: &[TargetQuery],
    mappings: &MappingSet,
    catalog: &Catalog,
    options: &BatchOptions,
) -> CoreResult<BatchEvaluation> {
    let mut epoch = EpochDag::new();
    evaluate_batch_epoch(queries, mappings, catalog, options, &mut epoch)
}

/// Like [`evaluate_batch`], on a caller-owned per-epoch DAG.
///
/// The epoch DAG must have been created for (and only ever used with) this `catalog` — bound
/// fingerprints are identity-based, so an epoch DAG must not outlive or migrate between
/// catalogs.  Everything this epoch has bound before is submitted as a hash lookup, and every
/// node whose result is still materialised (pinned from the previous batch, or alive in any
/// consumer's hands) is answered without executing — see
/// [`EpochDag`] for the pinning policy.
///
/// This is [`prepare_batch_epoch`] followed by [`execute_prepared_batch`], for callers that
/// own the epoch outright.  The serving layer splits the two: it holds its epoch lock only
/// across `prepare_batch_epoch` (rewrite + optimise + bind), so the next batch's bind stage
/// overlaps this batch's execution.
pub fn evaluate_batch_epoch(
    queries: &[TargetQuery],
    mappings: &MappingSet,
    catalog: &Catalog,
    options: &BatchOptions,
    epoch: &mut EpochDag,
) -> CoreResult<BatchEvaluation> {
    let prepared = prepare_batch_epoch(queries, mappings, catalog, epoch, &options.tracer)?;
    execute_prepared_batch(prepared, catalog, options)
}

/// The closed bind stage of one batch: every query rewritten through one representative per
/// mapping partition, every distinct source query optimised, bound and merged into the epoch DAG, and the batch's
/// subgraph snapshotted out of the epoch ([`EpochDag::prepare_pending`]).
///
/// Self-contained: executing it no longer needs the [`EpochDag`] (it reaches the epoch's
/// results through their own internal lock instead), which is what lets a serving layer bind
/// batch N+1 while batch N executes.
#[derive(Debug)]
pub struct PreparedBatchEvaluation {
    pending: Vec<PendingQuery>,
    prepared: PreparedBatch,
}

impl PreparedBatchEvaluation {
    /// Number of queries in the batch (one [`Evaluation`] each, in input order).
    #[must_use]
    pub fn query_count(&self) -> usize {
        self.pending.len()
    }

    /// The epoch's spill pool, when it runs under a memory budget — the executor that runs
    /// this batch is built from it, so grace joins share the epoch's budget.
    #[must_use]
    pub fn pool(&self) -> Option<&BufferPool> {
        self.prepared.pool()
    }
}

/// Phase 1+: rewrite, optimise, bind and snapshot one batch on the caller's epoch DAG (the
/// bind stage of [`evaluate_batch_epoch`]).  The caller's epoch lock is only needed for the
/// duration of this call; the returned [`PreparedBatchEvaluation`] executes without it via
/// [`execute_prepared_batch`].  Per-query `rewrite` and `optimize_bind` spans are recorded on
/// `tracer` (free when the tracer is disabled).
pub fn prepare_batch_epoch(
    queries: &[TargetQuery],
    mappings: &MappingSet,
    catalog: &Catalog,
    epoch: &mut EpochDag,
    tracer: &Tracer,
) -> CoreResult<PreparedBatchEvaluation> {
    // Binding needs only the catalog; the spill pool matters to execution, so the bind-stage
    // executor is deliberately pool-free (and cheap to construct).
    let exec = Executor::new(catalog);

    // Rewrite and submit.  On any failure the half-assembled batch must be aborted, or its
    // stale roots would prepend themselves to the epoch's *next* batch and misalign every one
    // of that batch's answers.
    let pending = match submit_batch(queries, mappings, catalog, epoch, &exec, tracer) {
        Ok(pending) => pending,
        Err(err) => {
            epoch.abort_pending();
            return Err(err);
        }
    };
    Ok(PreparedBatchEvaluation {
        pending,
        prepared: epoch.prepare_pending(),
    })
}

/// Phases 2–3: execute a prepared batch and aggregate per-query probabilistic answers (the
/// execute stage of [`evaluate_batch_epoch`]).  `catalog` must be the one the batch was
/// prepared against.  Executions of one epoch overlap — the epoch's internal result lock is
/// taken only to look nodes up and to commit — and the epoch itself is free to bind the next
/// batch concurrently.
pub fn execute_prepared_batch(
    batch: PreparedBatchEvaluation,
    catalog: &Catalog,
    options: &BatchOptions,
) -> CoreResult<BatchEvaluation> {
    let PreparedBatchEvaluation { pending, prepared } = batch;
    // A memory-budgeted epoch carries a spill pool: the batch executor shares it, so grace
    // hash joins and spilled-pin reloads draw on one budget.  The pool-counter deltas this
    // batch causes are folded into `ExecStats` inside the engine, each under the epoch's
    // result lock, so deltas of overlapping batches never interleave.
    let mut exec = match prepared.pool().cloned() {
        Some(pool) => Executor::with_pool(catalog, pool),
        None => Executor::new(catalog),
    }
    .with_tracer(options.tracer.clone());
    // A shared spill pool traces its writes/reloads under the same trace while this batch
    // executes (cleared below — the pool outlives the batch, the trace does not).
    if let Some(pool) = exec.pool() {
        pool.set_tracer(options.tracer.clone());
    }

    // Execute only what this batch needs — every distinct operator not answered by a live
    // cached result runs exactly once, fanning its result out to all consumers, in parallel
    // when asked to.
    let run = {
        let span = options.tracer.span("execute");
        // DAG worker threads start with empty span stacks; anchor them to the execute span.
        options.tracer.set_anchor(span.id());
        let run = prepared.execute(&mut exec, options.workers);
        options.tracer.clear_anchor();
        run
    };
    if let Some(pool) = exec.pool() {
        pool.set_tracer(Tracer::disabled());
    }
    let run = run?;
    for _ in pending.iter().flat_map(|query| &query.clusters) {
        exec.stats_mut().record_source_query();
    }

    // Per-query probabilistic aggregation, from each cluster's factors.
    let mut evaluations = Vec::with_capacity(pending.len());
    let mut agg_span = options.tracer.span("aggregate");
    let (mut factor_rows, mut rows, mut answers) = (0, 0, 0);
    for mut query in pending {
        let agg_start = Instant::now();
        let clusters: Vec<Cluster<'_>> = query
            .clusters
            .iter()
            .map(|cluster| Cluster {
                probability: cluster.probability,
                extraction: &cluster.extraction,
                factors: (cluster.roots.iter())
                    .map(|&root| vec![&*run.root_results[root]])
                    .collect(),
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

    Ok(BatchEvaluation {
        evaluations,
        exec: exec.into_stats(),
        run: run.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{basic, ebasic, Algorithm};
    use crate::strategy::Strategy;
    use crate::testkit;

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

    #[test]
    fn batch_matches_sequential_on_every_paper_query() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let batch =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        assert_eq!(batch.evaluations.len(), queries.len());
        for (query, eval) in queries.iter().zip(&batch.evaluations) {
            let reference = basic::evaluate(query, &mappings, &catalog).unwrap();
            assert!(
                reference.answer.approx_eq(&eval.answer, 1e-9),
                "batch disagrees with basic on {}",
                query.name()
            );
            let sef = crate::evaluate(
                query,
                &mappings,
                &catalog,
                Algorithm::OSharing(Strategy::Sef),
            )
            .unwrap();
            assert!(
                sef.answer.approx_eq(&eval.answer, 1e-9),
                "batch disagrees with o-sharing(SEF) on {}",
                query.name()
            );
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
        let (got, want) = (eval.answer.sorted(), reference.answer.sorted());
        assert_eq!(got.len(), want.len());
        for ((t1, p1), (t2, p2)) in got.iter().zip(&want) {
            assert_eq!(t1, t2);
            assert_eq!(p1.to_bits(), p2.to_bits());
        }
        assert_eq!(
            eval.answer.empty_probability().to_bits(),
            reference.answer.empty_probability().to_bits()
        );
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
                let sa = a.answer.sorted();
                let sb = b.answer.sorted();
                assert_eq!(sa.len(), sb.len());
                for ((t1, p1), (t2, p2)) in sa.iter().zip(&sb) {
                    assert_eq!(t1, t2);
                    assert_eq!(p1.to_bits(), p2.to_bits());
                }
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

    #[test]
    fn warm_epoch_batch_skips_rebinding_and_execution_with_identical_answers() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let mut epoch = EpochDag::new();

        let cold = evaluate_batch_epoch(
            &queries,
            &mappings,
            &catalog,
            &BatchOptions::sequential(),
            &mut epoch,
        )
        .unwrap();
        assert_eq!(cold.run.bind_hits, 0);
        assert_eq!(cold.run.results_reused, 0);
        assert!(cold.run.nodes_executed > 0);

        let warm = evaluate_batch_epoch(
            &queries,
            &mappings,
            &catalog,
            &BatchOptions::sequential(),
            &mut epoch,
        )
        .unwrap();
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
        let rebuilt =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        for ((a, b), c) in cold
            .evaluations
            .iter()
            .zip(&warm.evaluations)
            .zip(&rebuilt.evaluations)
        {
            let (sa, sb, sc) = (a.answer.sorted(), b.answer.sorted(), c.answer.sorted());
            assert_eq!(sa.len(), sb.len());
            for (((t1, p1), (t2, p2)), (t3, p3)) in sa.iter().zip(&sb).zip(&sc) {
                assert_eq!(t1, t2);
                assert_eq!(p1.to_bits(), p2.to_bits());
                assert_eq!(t1, t3);
                assert_eq!(p1.to_bits(), p3.to_bits());
            }
        }
    }

    #[test]
    fn overlapping_warm_batch_reuses_the_shared_frontier() {
        // The second batch shares q0/q1 with the first but adds a new query: only the new
        // query's frontier executes.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let mut epoch = EpochDag::new();
        evaluate_batch_epoch(
            &[testkit::q0(), testkit::q1()],
            &mappings,
            &catalog,
            &BatchOptions::sequential(),
            &mut epoch,
        )
        .unwrap();
        let second = evaluate_batch_epoch(
            &[testkit::q0(), testkit::q1(), testkit::q2_product()],
            &mappings,
            &catalog,
            &BatchOptions::sequential(),
            &mut epoch,
        )
        .unwrap();
        assert!(second.run.bind_hits > 0);
        assert!(second.run.results_reused > 0);
        assert!(
            second.run.nodes_executed > 0,
            "the new query still has to run"
        );
        // The repeated queries' answers agree with the sequential reference.
        for (query, eval) in [testkit::q0(), testkit::q1(), testkit::q2_product()]
            .iter()
            .zip(&second.evaluations)
        {
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
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let unconstrained =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();

        // Budget 0: every pinned result spills; answers must not change by a bit.
        let mut epoch = EpochDag::with_memory_budget(0);
        let cold = evaluate_batch_epoch(
            &queries,
            &mappings,
            &catalog,
            &BatchOptions::sequential(),
            &mut epoch,
        )
        .unwrap();
        assert!(cold.exec.bytes_spilled > 0, "budget 0 must spill pins");
        let warm = evaluate_batch_epoch(
            &queries,
            &mappings,
            &catalog,
            &BatchOptions::sequential(),
            &mut epoch,
        )
        .unwrap();
        assert_eq!(
            warm.run.nodes_executed, 0,
            "warm batch re-executed under budget"
        );
        assert!(
            warm.exec.spill_reloads > 0,
            "warm batch must reload spilled pins"
        );
        for ((a, b), c) in unconstrained
            .evaluations
            .iter()
            .zip(&cold.evaluations)
            .zip(&warm.evaluations)
        {
            let (sa, sb, sc) = (a.answer.sorted(), b.answer.sorted(), c.answer.sorted());
            assert_eq!(sa.len(), sb.len());
            for (((t1, p1), (t2, p2)), (t3, p3)) in sa.iter().zip(&sb).zip(&sc) {
                assert_eq!(t1, t2);
                assert_eq!(p1.to_bits(), p2.to_bits());
                assert_eq!(t1, t3);
                assert_eq!(p1.to_bits(), p3.to_bits());
            }
        }
    }

    #[test]
    fn pipelined_prepare_execute_matches_the_serialised_path() {
        // The serving layer's pipeline shape: batch 2 is prepared (rewritten + bound) before
        // batch 1 executes, both then execute in order — answers and accounting must match
        // the serialised evaluate_batch_epoch path bit for bit.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();

        let mut serial = EpochDag::new();
        let serial_cold = evaluate_batch_epoch(
            &queries,
            &mappings,
            &catalog,
            &BatchOptions::sequential(),
            &mut serial,
        )
        .unwrap();
        let serial_warm = evaluate_batch_epoch(
            &queries,
            &mappings,
            &catalog,
            &BatchOptions::sequential(),
            &mut serial,
        )
        .unwrap();

        let mut epoch = EpochDag::new();
        let untraced = Tracer::disabled();
        let first =
            prepare_batch_epoch(&queries, &mappings, &catalog, &mut epoch, &untraced).unwrap();
        assert_eq!(first.query_count(), queries.len());
        // Batch 2 binds entirely from the bind cache although batch 1 has not executed.
        let second =
            prepare_batch_epoch(&queries, &mappings, &catalog, &mut epoch, &untraced).unwrap();
        let cold = execute_prepared_batch(first, &catalog, &BatchOptions::sequential()).unwrap();
        let warm = execute_prepared_batch(second, &catalog, &BatchOptions::parallel(2)).unwrap();

        assert_eq!(cold.run.nodes_executed, serial_cold.run.nodes_executed);
        assert_eq!(cold.run.plan_hits(), serial_cold.run.plan_hits());
        assert_eq!(cold.run.nodes_added, serial_cold.run.nodes_added);
        assert!(warm.run.bind_hits > 0, "batch 2 must bind from the cache");
        assert_eq!(
            warm.run.nodes_executed, 0,
            "batch 2 must reuse batch 1's results"
        );
        assert_eq!(warm.run.results_reused, serial_warm.run.results_reused);
        for ((a, b), (c, d)) in cold
            .evaluations
            .iter()
            .zip(&warm.evaluations)
            .zip(serial_cold.evaluations.iter().zip(&serial_warm.evaluations))
        {
            let (sa, sb) = (a.answer.sorted(), b.answer.sorted());
            assert_eq!(sa, c.answer.sorted());
            assert_eq!(sb, d.answer.sorted());
            for ((t1, p1), (t2, p2)) in sa.iter().zip(&sb) {
                assert_eq!(t1, t2);
                assert_eq!(p1.to_bits(), p2.to_bits());
            }
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
    }
}
