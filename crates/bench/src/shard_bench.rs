//! Scatter-gather shard micro-benchmark: one batch over 1 vs. 2 vs. 4 partitioned shard
//! runtimes.
//!
//! The benchmark replays the two service workload shapes that stress the scatter path — the
//! join-heavy batch (`join:N` fan-outs plus the multi-join Table III queries) and the skewed
//! batch (`skew:N` Zipf self-joins) — against one generated Excel scenario.  Each timed series
//! rebuilds a fresh [`ShardSet`] per iteration (cold partition + bind + execute, the
//! registration-to-answer path a new epoch pays) and gives the run `shards` scheduler workers,
//! so every shard executes on exactly one thread: the measured speedup is pure scatter-gather
//! parallelism, not intra-shard scheduling.
//!
//! * **byte identity first**: before any timing, every query of every workload is answered by
//!   sequential e-basic — an evaluation that shares no code with the batch coordinator — and
//!   every shard count × partition scheme (hash and range) must reproduce those answers bit for
//!   bit in canonical sorted order; a single diverging row panics, failing the CI step.
//! * the emitted rows (`BENCH_shard.json`) carry the per-shard-count timings plus `fanouts`,
//!   `merge-time-ms`, `speedup-2`/`speedup-4` and `hardware-threads`; CI gates
//!   `speedup-4 ≥ 1.3` on runners with ≥ 4 hardware threads (printed as `n/a` elsewhere).

use crate::experiments::{ExperimentRow, RowKind};
use std::time::{Duration, Instant};
use urm_core::{
    evaluate, evaluate_batch, evaluate_batch_sharded, Algorithm, BatchOptions, CoreResult,
    ProbabilisticAnswer, ShardSet, TargetQuery,
};
use urm_datagen::replay::{join_heavy_workload, skewed_workload};
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_storage::ShardScheme;

/// The shard counts every workload is identity-checked and timed at.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Configuration of one shard micro-benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct ShardBenchConfig {
    /// Scenario scale factor (as `urm-cli --scale`).
    pub scale: usize,
    /// Possible mappings per scenario (as `urm-cli --mappings`).
    pub mappings: usize,
    /// Requests per workload batch.
    pub queries: usize,
    /// Timed iterations per shard count.
    pub iters: usize,
    /// Data-generation seed.
    pub seed: u64,
}

impl Default for ShardBenchConfig {
    fn default() -> Self {
        ShardBenchConfig {
            scale: 60,
            mappings: 30,
            queries: 12,
            iters: 3,
            seed: 42,
        }
    }
}

fn assert_bit_identical(a: &ProbabilisticAnswer, b: &ProbabilisticAnswer, context: &str) {
    let (sa, sb) = (a.sorted(), b.sorted());
    assert_eq!(sa.len(), sb.len(), "{context}: answer cardinality");
    for ((t1, p1), (t2, p2)) in sa.iter().zip(&sb) {
        assert_eq!(t1, t2, "{context}: tuples");
        assert_eq!(p1.to_bits(), p2.to_bits(), "{context}: probabilities");
    }
}

fn timing_row(series: &str, workload: &str, total: Duration, answers: usize) -> ExperimentRow {
    ExperimentRow {
        experiment: "shard".into(),
        series: series.into(),
        x: workload.into(),
        kind: RowKind::Timing,
        time: total,
        source_operators: 0,
        answers,
        extra: None,
    }
}

fn counter_row(series: &str, workload: &str, name: &str, value: f64) -> ExperimentRow {
    ExperimentRow::counter("shard", series, workload, name, value)
}

/// Runs the micro-benchmark, returning `BENCH_shard.json`-ready rows.
///
/// # Panics
/// Panics (failing the CI step) when a batch answer — any workload, shard count or partition
/// scheme — diverges from sequential e-basic's by a single row or probability bit, or when a
/// timed sharded batch dispatched no work to its shards.
pub fn run(config: &ShardBenchConfig) -> CoreResult<Vec<ExperimentRow>> {
    let scenario = Scenario::generate(&ScenarioConfig {
        target: TargetSchemaKind::Excel,
        scale: config.scale.max(1),
        mappings: config.mappings.max(1),
        seed: config.seed,
    })?;
    let catalog = &scenario.catalog;
    let mappings = &scenario.mappings;
    let iters = config.iters.max(1);
    let requests = config.queries.max(1);
    let workloads = [
        ("joinheavy", join_heavy_workload(requests)),
        ("skewed", skewed_workload(requests)),
    ];

    let mut rows = Vec::new();
    let mut identity_rounds = 0u64;
    for (workload, entries) in &workloads {
        let queries: Vec<TargetQuery> = entries.iter().map(|e| e.query.clone()).collect();

        // Correctness first: sequential e-basic is the reference; every shard count and both
        // partition schemes must reproduce it bit for bit before any timing happens.
        let reference = (queries.iter())
            .map(|query| Ok(evaluate(query, mappings, catalog, Algorithm::EBasic)?.answer))
            .collect::<CoreResult<Vec<ProbabilisticAnswer>>>()?;
        for shards in SHARD_COUNTS {
            for scheme in [ShardScheme::Hash, ShardScheme::Range] {
                let set = ShardSet::new(catalog, shards, scheme, None);
                let sharded = evaluate_batch_sharded(
                    &queries,
                    mappings,
                    catalog,
                    &BatchOptions::parallel(shards),
                    &set,
                )?;
                for ((query, a), b) in queries.iter().zip(&reference).zip(&sharded.evaluations) {
                    assert_bit_identical(
                        a,
                        &b.answer,
                        &format!("{workload}: {} × {shards} {scheme} shards", query.name()),
                    );
                }
                identity_rounds += 1;
            }
        }
        let answers: usize = reference.iter().map(ProbabilisticAnswer::len).sum();

        // Timed: the unsharded batch, then each shard count cold — a fresh hash-cut ShardSet
        // per iteration, one scheduler worker per shard.
        let start = Instant::now();
        for _ in 0..iters {
            evaluate_batch(&queries, mappings, catalog, &BatchOptions::sequential())?;
        }
        rows.push(timing_row("single", workload, start.elapsed(), answers));

        let mut times = Vec::with_capacity(SHARD_COUNTS.len());
        let (mut fanouts, mut merge_time) = (0u64, Duration::ZERO);
        for shards in SHARD_COUNTS {
            let start = Instant::now();
            for _ in 0..iters {
                let set = ShardSet::new(catalog, shards, ShardScheme::Hash, None);
                let sharded = evaluate_batch_sharded(
                    &queries,
                    mappings,
                    catalog,
                    &BatchOptions::parallel(shards),
                    &set,
                )?;
                assert!(
                    sharded.shards.fanouts > 0,
                    "{workload}: sharded batch dispatched no work at {shards} shards"
                );
                if shards == SHARD_COUNTS[SHARD_COUNTS.len() - 1] {
                    fanouts += sharded.shards.fanouts;
                    merge_time += sharded.shards.merge_time;
                }
            }
            let elapsed = start.elapsed();
            rows.push(timing_row(
                &format!("shards-{shards}"),
                workload,
                elapsed,
                answers,
            ));
            times.push(elapsed);
        }
        let speedup = |i: usize| times[0].as_secs_f64() / times[i].as_secs_f64().max(f64::EPSILON);
        rows.push(counter_row(workload, workload, "fanouts", fanouts as f64));
        rows.push(counter_row(
            workload,
            workload,
            "merge-time-ms",
            merge_time.as_secs_f64() * 1e3,
        ));
        rows.push(counter_row(workload, workload, "speedup-2", speedup(1)));
        rows.push(counter_row(workload, workload, "speedup-4", speedup(2)));
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    rows.push(counter_row(
        "identity",
        "all",
        "rounds-verified",
        identity_rounds as f64,
    ));
    rows.push(counter_row(
        "env",
        "all",
        "hardware-threads",
        threads as f64,
    ));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bench_gates_hold_at_toy_scale() {
        let rows = run(&ShardBenchConfig {
            scale: 8,
            mappings: 6,
            queries: 6,
            iters: 1,
            seed: 7,
        })
        .unwrap();
        // 2 workloads × (4 timing rows + 4 counters) + identity + env.
        assert_eq!(rows.len(), 18);
        let extra = |series: &str, name: &str| -> f64 {
            let row = rows
                .iter()
                .find(|r| r.series == series && r.extra.as_ref().is_some_and(|(n, _)| n == name))
                .unwrap_or_else(|| panic!("missing {series}/{name}"));
            assert_eq!(row.kind, RowKind::Counter, "{series}/{name}");
            row.extra.as_ref().unwrap().1
        };
        // run() itself bit-compares every batch answer against sequential e-basic; here
        // we check the emitted counters carry that evidence (speedup ratios are
        // host-dependent and gated in CI instead).
        let expected_rounds = (2 * SHARD_COUNTS.len() * 2) as f64;
        assert_eq!(extra("identity", "rounds-verified"), expected_rounds);
        assert!(extra("env", "hardware-threads") >= 1.0);
        for workload in ["joinheavy", "skewed"] {
            assert!(extra(workload, "fanouts") > 0.0, "{workload} fanouts");
            assert!(extra(workload, "merge-time-ms") >= 0.0);
            assert!(extra(workload, "speedup-2") > 0.0);
            assert!(extra(workload, "speedup-4") > 0.0);
            let timing = |series: &str| {
                rows.iter()
                    .find(|r| r.series == series && r.x == workload && r.kind == RowKind::Timing)
                    .unwrap_or_else(|| panic!("missing {workload}/{series} timing"))
            };
            let baseline = timing("single").answers;
            assert!(baseline > 0, "{workload} must produce answers");
            for shards in SHARD_COUNTS {
                assert_eq!(
                    timing(&format!("shards-{shards}")).answers,
                    baseline,
                    "{workload} shards-{shards} answers diverged"
                );
            }
        }
    }
}
