//! Spill micro-benchmark: in-memory vs. byte-budget-constrained execution of an oversized
//! join-heavy batch.
//!
//! The batch joins the whole `LineItem` relation repeatedly (a join-heavy family of
//! differently filtered joins plus unfiltered `Orders ⋈ LineItem` fan-outs), so the bytes
//! it materialises are a multiple of the source instance — while the configured budget is a
//! *fraction* of it (`database_bytes / budget_divisor`, default 4, i.e. the workload is ≥ 4×
//! the budget).  Three measured modes:
//!
//! * **in-memory** — a fresh unbudgeted [`EpochDag`] per iteration;
//! * **budget-constrained** — a fresh [`EpochDag::with_memory_budget`] per iteration: hash
//!   joins over the full `LineItem` build side are built and probed one hash partition at a
//!   time, and pinned results page out to segments;
//! * **budget-warm** — repeat batches on one persistent budgeted epoch: warm answers stream
//!   back in from spilled pins (segment reads instead of node executions).
//!
//! The run *asserts* that constrained answers are row-for-row identical to in-memory ones and
//! that the pool's resident bytes never exceeded the budget; the emitted rows
//! (`BENCH_spill.json`) carry the spill counters CI gates on (`bytes_spilled > 0`, the grace
//! path taken, budget compliance within one page).

use crate::experiments::{ExperimentRow, RowKind};
use std::sync::Arc;
use std::time::{Duration, Instant};
use urm_core::CoreResult;
use urm_datagen::source::generate_source;
use urm_engine::{CompareOp, EpochDag, Executor, Plan, Predicate};
use urm_storage::{Catalog, Relation, Value};

/// Configuration of one spill micro-benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct SpillBenchConfig {
    /// Source-instance scale factor (`Orders` gets `2 × scale` rows, `LineItem` `4 × scale`).
    pub scale: usize,
    /// Number of join-heavy queries in the batch (plus `queries / 2` unfiltered joins).
    pub queries: usize,
    /// Timed iterations per mode.
    pub iters: usize,
    /// Data-generation seed.
    pub seed: u64,
    /// The memory budget is `database_bytes / budget_divisor` (≥ 2; default 4, so the
    /// source instance alone is 4× the budget).
    pub budget_divisor: usize,
    /// DAG-scheduler workers per batch.
    pub workers: usize,
}

impl Default for SpillBenchConfig {
    fn default() -> Self {
        SpillBenchConfig {
            scale: 600,
            queries: 10,
            iters: 3,
            seed: 42,
            budget_divisor: 4,
            workers: 1,
        }
    }
}

/// The join-heavy batch: every query shares the `Orders`/`LineItem` scans and contributes one
/// independent (differently filtered) hash join — maximal fan-out, independent heavy nodes.
/// The per-query `clerk` predicate makes each join node distinct (the generated `Orders` data
/// spreads clerks over `clerk0`–`clerk49`), so a batch of `n` queries has `n` independent
/// joins to schedule while the two scans stay shared.
fn joinheavy_batch(queries: usize) -> Vec<Plan> {
    (0..queries)
        .map(|i| {
            Plan::scan("Orders")
                .select(Predicate::compare(
                    "Orders.clerk",
                    CompareOp::Ne,
                    Value::from(format!("clerk{}", i % 50)),
                ))
                .hash_join(
                    Plan::scan("LineItem"),
                    vec![("Orders.orderNum".into(), "LineItem.itemOrderNum".into())],
                )
                .select(Predicate::compare(
                    "LineItem.quantity",
                    CompareOp::Gt,
                    Value::from((i % 7) as i64),
                ))
                .project(vec!["Orders.clerk".into(), "LineItem.extendedPrice".into()])
        })
        .collect()
}

/// The oversized batch: the join-heavy plans plus unfiltered `Orders ⋈ LineItem` fan-outs
/// whose build side is the *whole* `LineItem` relation — guaranteed bigger than any
/// fractional budget, so the grace path must engage.
fn oversized_batch(queries: usize) -> Vec<Plan> {
    let mut plans = joinheavy_batch(queries);
    for i in 0..(queries / 2).max(1) {
        let alias = format!("LI{i}");
        plans.push(Plan::scan("Orders").hash_join(
            Plan::scan_as("LineItem", alias.clone()),
            vec![(
                "Orders.orderNum".into(),
                format!("{alias}.itemOrderNum").into(),
            )],
        ));
    }
    plans
}

struct Measurement {
    total: Duration,
    answers: Vec<usize>,
    rows: Vec<Vec<urm_storage::Tuple>>,
}

impl Measurement {
    fn row(&self, series: &str) -> ExperimentRow {
        ExperimentRow {
            experiment: "spill".into(),
            series: series.into(),
            x: "oversized".into(),
            kind: RowKind::Timing,
            time: self.total,
            source_operators: 0,
            answers: self.answers.iter().sum(),
            extra: None,
        }
    }
}

fn capture(results: &[Arc<Relation>]) -> Measurement {
    Measurement {
        total: Duration::ZERO,
        answers: results.iter().map(|r| r.len()).collect(),
        rows: results.iter().map(|r| r.rows().to_vec()).collect(),
    }
}

fn run_batch(
    epoch: &mut EpochDag,
    catalog: &Catalog,
    batch: &[Plan],
    workers: usize,
) -> Vec<Arc<Relation>> {
    let mut exec = match epoch.pool() {
        Some(pool) => Executor::with_pool(catalog, pool.clone()),
        None => Executor::new(catalog),
    };
    for plan in batch {
        epoch.submit(plan, &exec).expect("plan submits");
    }
    epoch
        .execute_pending(&mut exec, workers)
        .expect("batch runs")
        .root_results
}

fn counter_row(series: &str, name: &str, value: f64) -> ExperimentRow {
    ExperimentRow::counter("spill", series, "oversized", name, value)
}

/// Runs the micro-benchmark, returning `BENCH_spill.json`-ready rows.
///
/// # Panics
/// Panics (failing the CI step) when budget-constrained answers diverge from in-memory ones,
/// or when the pool's resident bytes ever exceeded the budget.
pub fn run(config: &SpillBenchConfig) -> CoreResult<Vec<ExperimentRow>> {
    let catalog = generate_source(config.scale, config.seed);
    let batch = oversized_batch(config.queries.max(1));
    let iters = config.iters.max(1);
    let workers = config.workers.max(1);
    let database_bytes = catalog.estimated_bytes();
    let budget = database_bytes / config.budget_divisor.max(2);

    // Correctness first: budget-constrained execution must be byte-identical to in-memory.
    let baseline = {
        let mut epoch = EpochDag::new();
        capture(&run_batch(&mut epoch, &catalog, &batch, workers))
    };
    {
        let mut epoch = EpochDag::with_memory_budget(budget);
        let constrained = capture(&run_batch(&mut epoch, &catalog, &batch, workers));
        assert_eq!(
            baseline.answers, constrained.answers,
            "budget-constrained run changed answer sizes"
        );
        for (want, got) in baseline.rows.iter().zip(&constrained.rows) {
            assert_eq!(want, got, "budget-constrained run changed answer rows");
        }
    }

    // Timed: in-memory vs. budget-constrained cold batches.
    let mut in_memory = Measurement {
        total: Duration::ZERO,
        answers: Vec::new(),
        rows: Vec::new(),
    };
    let start = Instant::now();
    for _ in 0..iters {
        let mut epoch = EpochDag::new();
        in_memory.answers = run_batch(&mut epoch, &catalog, &batch, workers)
            .iter()
            .map(|r| r.len())
            .collect();
    }
    in_memory.total = start.elapsed();

    let mut constrained = Measurement {
        total: Duration::ZERO,
        answers: Vec::new(),
        rows: Vec::new(),
    };
    let (mut bytes_spilled, mut spill_reloads, mut grace_partitions) = (0u64, 0u64, 0u64);
    let (mut seg_raw, mut seg_encoded) = (0u64, 0u64);
    let mut peak_cached = 0usize;
    let start = Instant::now();
    for _ in 0..iters {
        let mut epoch = EpochDag::with_memory_budget(budget);
        let pool = epoch.pool().unwrap().clone();
        let mut exec = Executor::with_pool(&catalog, pool.clone());
        for plan in &batch {
            epoch.submit(plan, &exec).expect("plan submits");
        }
        let run = epoch
            .execute_pending(&mut exec, workers)
            .expect("batch runs");
        constrained.answers = run.root_results.iter().map(|r| r.len()).collect();
        drop(run);
        let stats = pool.stats();
        bytes_spilled += stats.bytes_spilled;
        spill_reloads += stats.spill_reloads;
        grace_partitions += exec.stats().grace_partitions;
        seg_raw += stats.segment_bytes_raw;
        seg_encoded += stats.segment_bytes_encoded;
        peak_cached = peak_cached.max(stats.peak_cached_bytes);
    }
    constrained.total = start.elapsed();
    assert!(
        peak_cached <= budget,
        "pool kept {peak_cached} bytes resident over the {budget}-byte budget"
    );

    // Timed: warm repeats on one persistent budgeted epoch (spilled-pin reloads).
    let mut warm = Measurement {
        total: Duration::ZERO,
        answers: Vec::new(),
        rows: Vec::new(),
    };
    let mut epoch = EpochDag::with_memory_budget(budget);
    let pool = epoch.pool().unwrap().clone();
    run_batch(&mut epoch, &catalog, &batch, workers); // untimed cold batch
    let reloads_before_warm = pool.stats().spill_reloads;
    let start = Instant::now();
    for _ in 0..iters {
        warm.answers = run_batch(&mut epoch, &catalog, &batch, workers)
            .iter()
            .map(|r| r.len())
            .collect();
    }
    warm.total = start.elapsed();
    let warm_reloads = pool.stats().spill_reloads - reloads_before_warm;
    assert_eq!(
        warm.answers, in_memory.answers,
        "warm budgeted repeats diverged"
    );

    Ok(vec![
        in_memory.row("in-memory"),
        constrained.row("budget-constrained"),
        warm.row("budget-warm"),
        counter_row("sizing", "database-bytes", database_bytes as f64),
        counter_row("sizing", "budget-bytes", budget as f64),
        counter_row("spill-counters", "bytes-spilled", bytes_spilled as f64),
        counter_row("spill-counters", "spill-reloads", spill_reloads as f64),
        counter_row(
            "spill-counters",
            "grace-partitions",
            grace_partitions as f64,
        ),
        counter_row("spill-counters", "warm-reloads", warm_reloads as f64),
        counter_row("spill-counters", "segment-bytes-raw", seg_raw as f64),
        counter_row(
            "spill-counters",
            "segment-bytes-encoded",
            seg_encoded as f64,
        ),
        counter_row(
            "budget-compliance",
            "peak-cached-minus-budget",
            peak_cached as f64 - budget as f64,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_bench_gates_hold_at_toy_scale() {
        let rows = run(&SpillBenchConfig {
            scale: 40,
            queries: 4,
            iters: 2,
            seed: 7,
            budget_divisor: 4,
            workers: 1,
        })
        .unwrap();
        assert_eq!(rows.len(), 12);
        let extra = |series: &str, name: &str| -> f64 {
            let row = rows
                .iter()
                .find(|r| r.series == series && r.extra.as_ref().is_some_and(|(n, _)| n == name))
                .unwrap_or_else(|| panic!("missing {series}/{name}"));
            assert_eq!(row.kind, RowKind::Counter, "{series}/{name}");
            row.extra.as_ref().unwrap().1
        };
        // The acceptance gates, at toy scale: data ≥ 4× budget, real spilling, the grace
        // path taken, and the pool never over budget (run() itself asserts row equality).
        assert!(extra("sizing", "database-bytes") >= 4.0 * extra("sizing", "budget-bytes"));
        assert!(extra("spill-counters", "bytes-spilled") > 0.0);
        assert!(extra("spill-counters", "grace-partitions") >= 2.0);
        assert!(extra("budget-compliance", "peak-cached-minus-budget") <= 0.0);
        // Warm repeats answer from spilled pins without re-executing.
        assert!(extra("spill-counters", "warm-reloads") > 0.0);
        // The columnar segment codec actually compresses what it spills.
        let raw = extra("spill-counters", "segment-bytes-raw");
        let encoded = extra("spill-counters", "segment-bytes-encoded");
        assert!(raw > 0.0 && encoded > 0.0);
        assert!(encoded < raw, "encoded {encoded} should beat raw {raw}");
    }
}
