//! Scatter-gather sharded batch evaluation: one batch fanned out over N shard runtimes.
//!
//! The paper's sharing machinery deduplicates work *within* one catalog; this module adds the
//! scatter-gather dimension on top.  A [`ShardSet`] holds N shard runtimes, each owning a
//! private [`EpochDag`] over a *shard catalog*: an `Arc`-shared replica of every base relation
//! (a catalog clone — zero copy) **plus** shard `i`'s slice of every base relation under a
//! `{name}::slice` alias (see [`urm_storage::shard`]).  [`evaluate_batch_sharded`] then routes
//! each distinct reformulation root one of two ways:
//!
//! * **Scatter** (tuple-producing roots, [`Extraction::Columns`]): exactly one scan leaf — the
//!   largest base relation in the plan, deterministically chosen — is redirected to the shared
//!   slice name, and the rewritten plan (identical on every shard, so fingerprints and the
//!   per-shard bind caches line up) is submitted to **all** shards.  Each derivation of the
//!   original plan consumes exactly one row of the sliced scan, so the union of the per-shard
//!   result *sets* is the single-node result set (a tuple-producing plan is `Distinct`-rooted;
//!   a tuple two shards both derive counts once in the gather phase).  The optimizer orders a
//!   slice scan by its base relation's cardinality, so the plan has one shape on every shard.
//! * **Singleton** (aggregate roots, [`Extraction::Raw`]): a COUNT/SUM result cannot be merged
//!   from partial relations, so the *unmodified* plan runs on one shard (picked by plan
//!   fingerprint) against that shard's full replicas — exactly the single-node execution.
//!
//! Shards bind and execute **in parallel** (one scoped thread each, every shard running its
//! own prepared batch through its own executor and spill pool).  The gather phase feeds each
//! root's reassembled tuple set through the *same* probability aggregation as
//! [`batch`](crate::algorithms::batch) — roots in the same clustered order, one
//! [`aggregate`] call per root — so sharded answers are **byte-identical** to the single-node
//! service in canonical [`ProbabilisticAnswer::sorted`] order (property-tested for shard
//! counts 1–4, with and without per-shard memory budgets).

use crate::algorithms::batch::{BatchEvaluation, BatchOptions};
use crate::answer::ProbabilisticAnswer;
use crate::metrics::{EvalMetrics, Evaluation};
use crate::query::TargetQuery;
use crate::reformulate::{aggregate, partitioned_reformulations, Clustering, Extraction};
use crate::CoreResult;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use urm_engine::optimize::{fingerprint, optimize};
use urm_engine::{EpochDag, ExecStats, Executor, Plan, RunReport, DEFAULT_PIN_BUDGET_BYTES};
use urm_matching::MappingSet;
use urm_storage::shard::{partition, ShardScheme};
use urm_storage::Catalog;

pub use urm_storage::shard::slice_relation_name;

/// One shard's runtime: its catalog view (replicas + slices) and its private epoch DAG.
#[derive(Debug)]
struct ShardRuntime {
    catalog: Catalog,
    dag: Mutex<EpochDag>,
}

/// N shard runtimes cut from one coordinator catalog, ready for scatter-gather batches.
#[derive(Debug)]
pub struct ShardSet {
    shards: Vec<ShardRuntime>,
    scheme: ShardScheme,
}

impl ShardSet {
    /// Builds `shards` runtimes over `catalog`.
    ///
    /// Every shard catalog shares the coordinator's base row buffers (catalog clones are
    /// `Arc`-shared) and adds its own slice of each relation; `memory_budget` (bytes,
    /// **per shard**) puts each shard's epoch DAG under its own spill pool, mirroring the
    /// unsharded service's `--memory-budget`.
    #[must_use]
    pub fn new(
        catalog: &Catalog,
        shards: usize,
        scheme: ShardScheme,
        memory_budget: Option<usize>,
    ) -> ShardSet {
        let shards = shards.max(1);
        let mut catalogs: Vec<Catalog> = (0..shards).map(|_| catalog.clone()).collect();
        for (name, relation) in catalog.iter() {
            let slice_name = slice_relation_name(name);
            for (view, slice) in catalogs.iter_mut().zip(partition(relation, shards, scheme)) {
                view.insert(slice.renamed(slice_name.clone()));
            }
        }
        ShardSet {
            shards: catalogs
                .into_iter()
                .map(|catalog| ShardRuntime {
                    catalog,
                    dag: Mutex::new(match memory_budget {
                        Some(bytes) => EpochDag::with_memory_budget(bytes),
                        None => EpochDag::with_pin_budget(DEFAULT_PIN_BUDGET_BYTES),
                    }),
                })
                .collect(),
            scheme,
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
}

/// Scatter-gather accounting of one sharded batch.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Number of shards the batch ran over.
    pub shards: usize,
    /// Per-shard work dispatches: scatter roots count once per shard, singletons once.
    pub fanouts: u64,
    /// Roots fanned out to every shard (tuple-producing plans with a sliced scan).
    pub scatter_roots: u64,
    /// Roots routed whole to a single shard (aggregates).
    pub singleton_roots: u64,
    /// Per-shard wall clock (bind + execute), index = shard index.
    pub shard_times: Vec<Duration>,
    /// Time spent reassembling per-shard results into per-query answers.
    pub merge_time: Duration,
}

/// A [`BatchEvaluation`] produced by the scatter-gather path, plus its shard accounting.
#[derive(Debug)]
pub struct ShardedBatchEvaluation {
    /// The batch outcome with work counters aggregated across all shards.
    pub batch: BatchEvaluation,
    /// Scatter/gather accounting.
    pub shards: ShardStats,
}

/// How one reformulation root reaches the shards.
enum RootRoute {
    /// Submitted to every shard; `indices[s]` is the root's slot in shard `s`'s results.
    Scatter { indices: Vec<usize> },
    /// Submitted unmodified to one shard.
    Single { shard: usize, index: usize },
}

/// Scan leaves of a plan in deterministic (depth-first, left-to-right) traversal order.
fn scan_leaves(plan: &Plan, out: &mut Vec<(String, String)>) {
    if let Plan::Scan { relation, alias } = plan {
        out.push((relation.clone(), alias.clone()));
    }
    for child in plan.children() {
        scan_leaves(child, out);
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
fn designate_slice_leaf(plan: &Plan, catalog: &Catalog) -> Option<(usize, String)> {
    let mut leaves = Vec::new();
    scan_leaves(plan, &mut leaves);
    let mut best: Option<(usize, String, usize)> = None;
    for (index, (relation, _)) in leaves.iter().enumerate() {
        let Some(rel) = catalog.get(relation) else {
            continue;
        };
        let rows = rel.len();
        if best.as_ref().is_none_or(|(_, _, top)| rows > *top) {
            best = Some((index, relation.clone(), rows));
        }
    }
    best.map(|(index, relation, _)| (index, relation))
}

/// One shard's execution outcome, gathered by the coordinator.
struct ShardOutcome {
    results: Vec<std::sync::Arc<urm_storage::Relation>>,
    exec: ExecStats,
    run: RunReport,
    elapsed: Duration,
}

/// Binds and executes one shard's submissions on its own DAG, entirely on the calling thread.
fn run_shard(
    shard: &ShardRuntime,
    index: usize,
    submissions: &[(u64, Plan)],
    options: &BatchOptions,
    workers: usize,
) -> CoreResult<ShardOutcome> {
    let start = Instant::now();
    // Covers the shard's whole bind + execute slice; runs on the scatter thread, so it parents
    // to the coordinator's `scatter` span via the anchor.
    let mut shard_span = options.tracer.span("shard_execute");
    shard_span.tag("shard", index as u64);
    shard_span.tag("submissions", submissions.len() as u64);
    let mut dag = shard.dag.lock().unwrap();
    let bind_exec = Executor::new(&shard.catalog);
    for (key, plan) in submissions {
        let submitted = dag.submit_with(*key, || {
            let optimized = optimize(plan, &shard.catalog)?;
            bind_exec.bind(&optimized)
        });
        if let Err(err) = submitted {
            dag.abort_pending();
            return Err(err.into());
        }
    }
    let prepared = dag.prepare_pending();
    drop(dag);

    let mut exec = match prepared.pool().cloned() {
        Some(pool) => Executor::with_pool(&shard.catalog, pool),
        None => Executor::new(&shard.catalog),
    }
    .with_tracer(options.tracer.clone());
    let run = prepared.execute(&mut exec, workers)?;
    for _ in 0..run.root_results.len() {
        exec.stats_mut().record_source_query();
    }
    Ok(ShardOutcome {
        results: run.root_results,
        exec: exec.into_stats(),
        run: run.report,
        elapsed: start.elapsed(),
    })
}

/// Per-query bookkeeping between routing and gather.
struct PendingQuery {
    /// (route index, probability, extraction) per distinct reformulation, clustered order.
    roots: Vec<(usize, f64, Extraction)>,
    empty_probability: f64,
    metrics: EvalMetrics,
    started: Instant,
}

/// Evaluates a batch over a [`ShardSet`]: reformulate once on the coordinator, scatter the
/// roots, bind + execute every shard in parallel, gather byte-identical answers (module docs).
///
/// `catalog` must be the coordinator catalog the set was built from (reformulation and slice
/// designation read it; shards read their own views).  `options.workers` is split across the
/// shards — each shard's DAG scheduler gets `max(1, workers / shards)` threads, so a batch
/// over more shards than workers still runs one thread per shard.  The batch's
/// [`RunReport::workers`] is the sum of the threads its shards ran on.
pub fn evaluate_batch_sharded(
    queries: &[TargetQuery],
    mappings: &MappingSet,
    catalog: &Catalog,
    options: &BatchOptions,
    set: &ShardSet,
) -> CoreResult<ShardedBatchEvaluation> {
    let shard_count = set.len();
    let per_shard_workers = (options.workers / shard_count.max(1)).max(1);

    // Coordinator phase: reformulate every query, route every root, build the per-shard
    // submission lists.  No shard locks are held yet.
    let mut pending: Vec<PendingQuery> = Vec::with_capacity(queries.len());
    let mut routes: Vec<RootRoute> = Vec::new();
    let mut submissions: Vec<Vec<(u64, Plan)>> = vec![Vec::new(); shard_count];
    let (mut scatter_roots, mut singleton_roots) = (0u64, 0u64);
    for query in queries {
        let started = Instant::now();
        let mut metrics = EvalMetrics::new("sharded-batch");

        let rewrite_start = Instant::now();
        let Clustering {
            clusters: ordered,
            empty_probability,
            partitions,
        } = partitioned_reformulations(query, mappings, catalog)?;
        metrics.rewrite_time = rewrite_start.elapsed();
        metrics.representative_mappings = partitions;
        metrics.distinct_source_queries = ordered.len();

        let plan_start = Instant::now();
        let mut roots = Vec::with_capacity(ordered.len());
        for cluster in ordered {
            let (sq, probability) = (cluster.query, cluster.probability);
            let scatterable = matches!(sq.extraction, Extraction::Columns(_));
            let route = match designate_slice_leaf(&sq.plan, catalog) {
                Some((leaf, base)) if scatterable => {
                    let slice = slice_relation_name(&base);
                    let rewritten = redirect_scan(&sq.plan, leaf, &mut 0, &slice);
                    let key = fingerprint(&rewritten);
                    let indices = submissions
                        .iter_mut()
                        .map(|subs| {
                            subs.push((key, rewritten.clone()));
                            subs.len() - 1
                        })
                        .collect();
                    scatter_roots += 1;
                    RootRoute::Scatter { indices }
                }
                _ => {
                    // Aggregates (and scanless plans) run whole on one shard's full replicas.
                    let key = cluster.fingerprint;
                    let shard = (key % shard_count as u64) as usize;
                    submissions[shard].push((key, sq.plan));
                    singleton_roots += 1;
                    RootRoute::Single {
                        shard,
                        index: submissions[shard].len() - 1,
                    }
                }
            };
            roots.push((routes.len(), probability, sq.extraction));
            routes.push(route);
        }
        metrics.plan_time = plan_start.elapsed();

        pending.push(PendingQuery {
            roots,
            empty_probability,
            metrics,
            started,
        });
    }

    // Scatter phase: every shard binds and executes its submissions concurrently.  The shard
    // threads (and their DAG workers) start with empty span stacks, so anchor them under one
    // `scatter` span for the fan-out's duration.
    let mut scatter_span = options.tracer.span("scatter");
    scatter_span.tag("shards", shard_count as u64);
    scatter_span.tag("scatter_roots", scatter_roots);
    scatter_span.tag("singleton_roots", singleton_roots);
    options.tracer.set_anchor(scatter_span.id());
    let outcomes: Vec<CoreResult<ShardOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = set
            .shards
            .iter()
            .enumerate()
            .zip(&submissions)
            .map(|((index, shard), subs)| {
                scope.spawn(move || run_shard(shard, index, subs, options, per_shard_workers))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    options.tracer.clear_anchor();
    drop(scatter_span);
    let mut shards_done = Vec::with_capacity(shard_count);
    for outcome in outcomes {
        shards_done.push(outcome?);
    }

    // Gather phase: reassemble each root's tuple set and aggregate exactly as the unsharded
    // batch does — same clustered root order, one `aggregate` per root, empty mass last —
    // so the per-tuple probability sums accumulate in the same order, bit for bit.
    let merge_start = Instant::now();
    let gather_span = options.tracer.span("gather");
    let mut evaluations = Vec::with_capacity(pending.len());
    for mut query in pending {
        let agg_start = Instant::now();
        let mut answer = ProbabilisticAnswer::new();
        for (route, probability, extraction) in &query.roots {
            match &routes[*route] {
                RootRoute::Scatter { indices } => {
                    // Each shard's slice is de-duplicated on its own; the slices' distinct
                    // tuples are all that is concatenated.
                    let slices = shards_done
                        .iter()
                        .zip(indices)
                        .map(|(shard, index)| &*shard.results[*index]);
                    aggregate(&mut answer, slices, extraction, *probability);
                }
                RootRoute::Single { shard, index } => {
                    let result = &*shards_done[*shard].results[*index];
                    aggregate(&mut answer, [result], extraction, *probability);
                }
            }
        }
        if query.empty_probability > 0.0 {
            answer.add_empty(query.empty_probability);
        }
        query.metrics.aggregation_time = agg_start.elapsed();
        query.metrics.total_time = query.started.elapsed();
        evaluations.push(Evaluation {
            answer,
            metrics: query.metrics,
        });
    }
    drop(gather_span);
    let merge_time = merge_start.elapsed();

    // The shards ran side by side: their work, peaks and threads add up.
    let (mut exec, mut run) = (ExecStats::new(), RunReport::default());
    for shard in &shards_done {
        exec.merge(&shard.exec);
        run.merge(&shard.run);
    }
    let batch = BatchEvaluation {
        evaluations,
        exec,
        run,
    };
    Ok(ShardedBatchEvaluation {
        batch,
        shards: ShardStats {
            shards: shard_count,
            fanouts: scatter_roots * shard_count as u64 + singleton_roots,
            scatter_roots,
            singleton_roots,
            shard_times: shards_done.iter().map(|s| s.elapsed).collect(),
            merge_time,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::batch::evaluate_batch;
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

    fn assert_bit_identical(a: &ProbabilisticAnswer, b: &ProbabilisticAnswer, context: &str) {
        let (sa, sb) = (a.sorted(), b.sorted());
        assert_eq!(sa.len(), sb.len(), "{context}: answer cardinality");
        for ((t1, p1), (t2, p2)) in sa.iter().zip(&sb) {
            assert_eq!(t1, t2, "{context}: tuples");
            assert_eq!(p1.to_bits(), p2.to_bits(), "{context}: probabilities");
        }
    }

    #[test]
    fn sharded_answers_are_byte_identical_to_unsharded() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let single =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        for shards in 1..=4 {
            for scheme in [ShardScheme::Hash, ShardScheme::Range] {
                let set = ShardSet::new(&catalog, shards, scheme, None);
                let sharded = evaluate_batch_sharded(
                    &queries,
                    &mappings,
                    &catalog,
                    &BatchOptions::parallel(4),
                    &set,
                )
                .unwrap();
                assert_eq!(sharded.batch.evaluations.len(), queries.len());
                for ((query, a), b) in queries
                    .iter()
                    .zip(&single.evaluations)
                    .zip(&sharded.batch.evaluations)
                {
                    assert_bit_identical(
                        &a.answer,
                        &b.answer,
                        &format!("{} × {shards} {scheme} shards", query.name()),
                    );
                }
            }
        }
    }

    #[test]
    fn warm_sharded_batches_stay_identical_and_reuse_results() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let single =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        let set = ShardSet::new(&catalog, 3, ShardScheme::Hash, None);
        let options = BatchOptions::parallel(3);
        let cold = evaluate_batch_sharded(&queries, &mappings, &catalog, &options, &set).unwrap();
        let warm = evaluate_batch_sharded(&queries, &mappings, &catalog, &options, &set).unwrap();
        assert!(warm.batch.run.bind_hits > 0, "warm batch must hit caches");
        assert!(warm.batch.run.results_reused > 0);
        for (a, b) in cold
            .batch
            .evaluations
            .iter()
            .zip(&single.evaluations)
            .map(|(x, y)| (&x.answer, &y.answer))
        {
            assert_bit_identical(a, b, "cold");
        }
        for (a, b) in warm
            .batch
            .evaluations
            .iter()
            .zip(&single.evaluations)
            .map(|(x, y)| (&x.answer, &y.answer))
        {
            assert_bit_identical(a, b, "warm");
        }
    }

    #[test]
    fn memory_budgeted_shards_stay_identical() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let queries = paper_queries();
        let single =
            evaluate_batch(&queries, &mappings, &catalog, &BatchOptions::sequential()).unwrap();
        let set = ShardSet::new(&catalog, 2, ShardScheme::Hash, Some(0));
        for round in 0..2 {
            let sharded = evaluate_batch_sharded(
                &queries,
                &mappings,
                &catalog,
                &BatchOptions::sequential(),
                &set,
            )
            .unwrap();
            for (a, b) in sharded
                .batch
                .evaluations
                .iter()
                .zip(&single.evaluations)
                .map(|(x, y)| (&x.answer, &y.answer))
            {
                assert_bit_identical(a, b, &format!("budgeted round {round}"));
            }
        }
    }

    #[test]
    fn routing_classifies_aggregates_as_singletons() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let set = ShardSet::new(&catalog, 4, ShardScheme::Hash, None);
        let tuples = evaluate_batch_sharded(
            &[testkit::q0()],
            &mappings,
            &catalog,
            &BatchOptions::sequential(),
            &set,
        )
        .unwrap();
        assert!(tuples.shards.scatter_roots > 0);
        assert_eq!(tuples.shards.singleton_roots, 0);
        assert_eq!(
            tuples.shards.fanouts,
            tuples.shards.scatter_roots * 4,
            "every scatter root must reach every shard"
        );
        let aggregates = evaluate_batch_sharded(
            &[testkit::count_query()],
            &mappings,
            &catalog,
            &BatchOptions::sequential(),
            &set,
        )
        .unwrap();
        assert!(aggregates.shards.singleton_roots > 0);
        assert_eq!(aggregates.shards.scatter_roots, 0);
        assert_eq!(aggregates.shards.shard_times.len(), 4);
    }

    #[test]
    fn slice_names_cannot_collide_with_bases() {
        assert_eq!(slice_relation_name("Orders"), "Orders::slice");
        let catalog = testkit::figure2_catalog();
        let set = ShardSet::new(&catalog, 2, ShardScheme::Range, None);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.scheme(), ShardScheme::Range);
        for shard in &set.shards {
            // Each shard sees every base (full replica) and every slice.
            assert_eq!(shard.catalog.len(), catalog.len() * 2);
        }
    }
}
