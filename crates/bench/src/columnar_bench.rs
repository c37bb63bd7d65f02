//! Columnar micro-benchmark: vectorized column-at-a-time execution vs. the row path.
//!
//! Three workloads over a generated source instance — selection-heavy, join-heavy and
//! aggregate-heavy — are executed by the same [`Executor`] twice: once with the columnar
//! kernels on (the default) and once forced onto the row path
//! ([`Executor::with_columnar`]`(false)`).  The run *asserts* that the two modes produce
//! row-for-row identical answers before any timing is reported, so the speedup numbers can
//! never come from a divergent fast path.
//!
//! A fourth phase replays the oversized budgeted batch of
//! [`spill_bench`](crate::spill_bench) and reports the spill segment codec's compression:
//! `segment-bytes-raw` (what the segments would cost under the uncompressed row codec) vs.
//! `segment-bytes-encoded` (the per-column dictionary / delta / run-length encodings actually
//! written).
//!
//! The `columnar_bench` binary writes the rows to `BENCH_columnar.json`; CI gates on the
//! select-heavy speedup and on the compression ratio.

use crate::experiments::{ExperimentRow, RowKind};
use crate::spill_bench::oversized_batch;
use std::sync::Arc;
use std::time::{Duration, Instant};
use urm_core::CoreResult;
use urm_datagen::source::generate_source;
use urm_engine::{AggFunc, CompareOp, EpochDag, Executor, Plan, Predicate};
use urm_storage::{Catalog, Relation, Value};

/// Configuration of one columnar micro-benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct ColumnarBenchConfig {
    /// Source-instance scale factor (`Orders` gets `2 × scale` rows, `LineItem` `4 × scale`).
    pub scale: usize,
    /// Timed iterations per (workload, mode) pair.
    pub iters: usize,
    /// Data-generation seed.
    pub seed: u64,
    /// The spill phase's memory budget is `database_bytes / budget_divisor` (≥ 2).
    pub budget_divisor: usize,
}

impl Default for ColumnarBenchConfig {
    fn default() -> Self {
        ColumnarBenchConfig {
            scale: 300,
            iters: 200,
            seed: 42,
            budget_divisor: 4,
        }
    }
}

/// The named plans of the micro-benchmark, in report order.
fn workloads() -> Vec<(&'static str, Plan)> {
    // Selection-heavy: four predicates over the wide Orders relation, each moderately
    // selective so every filter stage still scans real row counts, with a near-zero combined
    // selectivity — the typed compare kernels scan raw column vectors while the row path
    // pays predicate dispatch and survivor-tuple clones per stage, and the (shared)
    // materialisation cost of the few surviving rows stays negligible on both sides.
    let select_heavy = Plan::scan("Orders")
        .select(Predicate::eq("Orders.orderStatus", Value::from("OPEN")))
        .select(Predicate::compare(
            "Orders.orderPriority",
            CompareOp::Le,
            Value::from(2i64),
        ))
        .select(Predicate::compare(
            "Orders.totalPrice",
            CompareOp::Gt,
            Value::from(5000.0),
        ))
        .select(Predicate::eq("Orders.clerk", Value::from("clerk7")))
        .project(vec!["Orders.clerk".into(), "Orders.totalPrice".into()]);

    // Join-heavy: a selective probe side against the whole LineItem build side — the
    // columnar join hashes raw key columns instead of tuple-borrowed values.
    let join_heavy = Plan::scan("Orders")
        .select(Predicate::compare(
            "Orders.orderPriority",
            CompareOp::Le,
            Value::from(2i64),
        ))
        .hash_join(
            Plan::scan("LineItem"),
            vec![("Orders.orderNum".into(), "LineItem.itemOrderNum".into())],
        )
        .project(vec!["Orders.clerk".into(), "LineItem.extendedPrice".into()]);

    // Aggregate-heavy: SUM over a large filtered scan folds one float column directly.
    let aggregate_heavy = Plan::scan("LineItem")
        .select(Predicate::compare(
            "LineItem.quantity",
            CompareOp::Gt,
            Value::from(5i64),
        ))
        .aggregate(AggFunc::Sum("LineItem.extendedPrice".into()));

    vec![
        ("select-heavy", select_heavy),
        ("join-heavy", join_heavy),
        ("aggregate-heavy", aggregate_heavy),
    ]
}

/// Outcome of one (workload, mode) measurement.
struct Measurement {
    total: Duration,
    rows_processed: u64,
    source_operators: u64,
    columnar_rows: u64,
    result: Arc<Relation>,
}

impl Measurement {
    fn rows_per_second(&self) -> f64 {
        let secs = self.total.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.rows_processed as f64 / secs
        }
    }

    fn row(&self, series: &str, x: &str) -> ExperimentRow {
        ExperimentRow {
            experiment: "columnar".into(),
            series: series.into(),
            x: x.into(),
            kind: RowKind::Timing,
            time: self.total,
            source_operators: self.source_operators,
            answers: self.result.len(),
            extra: Some(("rows-per-sec".into(), self.rows_per_second())),
        }
    }
}

fn measure(catalog: &Catalog, plan: &Plan, iters: usize, columnar: bool) -> Measurement {
    let mut exec = Executor::new(catalog).with_columnar(columnar);
    exec.run(plan).expect("benchmark plan must execute"); // warm-up (and cache conversion)
    let mut exec = Executor::new(catalog).with_columnar(columnar);
    let physical = exec.bind(plan).expect("benchmark plan must bind");
    let start = Instant::now();
    let mut result = None;
    for _ in 0..iters {
        let out = exec
            .execute(&physical)
            .expect("benchmark plan must execute");
        // Both modes are timed up to rows: a vectorized result builds them only when read.
        std::hint::black_box(out.rows().len());
        result = Some(out);
    }
    let total = start.elapsed();
    let stats = exec.stats();
    Measurement {
        total,
        rows_processed: stats.tuples_read + stats.tuples_output,
        source_operators: stats.operators_executed,
        columnar_rows: stats.columnar_rows,
        result: result.expect("at least one iteration"),
    }
}

fn counter(series: &str, x: &str, name: &str, value: f64) -> ExperimentRow {
    ExperimentRow::counter("columnar", series, x, name, value)
}

/// Runs the micro-benchmark, returning `BENCH_columnar.json`-ready rows.
///
/// # Panics
/// Panics (failing the CI step) when the columnar and row modes disagree on any workload's
/// answer — schemas, values *and row order* must be identical — or when the spill phase's
/// encoded segments fail to undercut the raw row-codec bytes.
pub fn run(config: &ColumnarBenchConfig) -> CoreResult<Vec<ExperimentRow>> {
    let catalog = generate_source(config.scale, config.seed);
    let iters = config.iters.max(1);
    let mut rows = Vec::new();

    for (name, plan) in workloads() {
        let row_mode = measure(&catalog, &plan, iters, false);
        let col_mode = measure(&catalog, &plan, iters, true);
        assert_eq!(
            row_mode.result.schema(),
            col_mode.result.schema(),
            "modes disagree on schema for workload '{name}'"
        );
        assert_eq!(
            row_mode.result.rows(),
            col_mode.result.rows(),
            "modes disagree on rows for workload '{name}'"
        );
        assert_eq!(
            row_mode.columnar_rows, 0,
            "row mode must not touch the vectorized kernels ('{name}')"
        );
        assert!(
            col_mode.columnar_rows > 0,
            "columnar mode never hit the vectorized kernels ('{name}')"
        );

        rows.push(row_mode.row("row", name));
        rows.push(col_mode.row("columnar", name));
        let speedup = if col_mode.total.as_secs_f64() == 0.0 {
            f64::INFINITY
        } else {
            row_mode.total.as_secs_f64() / col_mode.total.as_secs_f64()
        };
        rows.push(counter("speedup", name, "speedup", speedup));
        rows.push(counter(
            "columnar-rows",
            name,
            "columnar-rows",
            col_mode.columnar_rows as f64,
        ));
    }

    // Spill phase: the oversized budgeted batch, for the segment codec's compression numbers.
    let database_bytes = catalog.estimated_bytes();
    let budget = database_bytes / config.budget_divisor.max(2);
    let batch = oversized_batch(4);
    let mut epoch = EpochDag::with_memory_budget(budget);
    let pool = epoch.pool().expect("budgeted epoch has a pool").clone();
    let mut exec = Executor::with_pool(&catalog, pool.clone());
    for plan in &batch {
        epoch.submit(plan, &exec).expect("plan submits");
    }
    epoch.execute_pending(&mut exec, 1).expect("batch runs");
    let stats = pool.stats();
    assert!(
        stats.segment_bytes_raw > 0 && stats.segment_bytes_encoded > 0,
        "the budgeted batch must spill segments (raw {}, encoded {})",
        stats.segment_bytes_raw,
        stats.segment_bytes_encoded,
    );
    assert!(
        stats.segment_bytes_encoded < stats.segment_bytes_raw,
        "encoded segments ({}) must undercut raw row-codec bytes ({})",
        stats.segment_bytes_encoded,
        stats.segment_bytes_raw,
    );
    rows.push(counter(
        "spill-compression",
        "oversized",
        "segment-bytes-raw",
        stats.segment_bytes_raw as f64,
    ));
    rows.push(counter(
        "spill-compression",
        "oversized",
        "segment-bytes-encoded",
        stats.segment_bytes_encoded as f64,
    ));
    rows.push(counter(
        "spill-compression",
        "oversized",
        "encoded-over-raw",
        stats.segment_bytes_encoded as f64 / stats.segment_bytes_raw as f64,
    ));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_agree_and_compression_holds_at_toy_scale() {
        // run() itself asserts byte-identity per workload and that encoded < raw; the test
        // checks the report shape and that the counters carry sensible values.
        let rows = run(&ColumnarBenchConfig {
            scale: 20,
            iters: 2,
            seed: 7,
            budget_divisor: 4,
        })
        .unwrap();
        // 3 workloads × (row, columnar, speedup, columnar-rows) + 3 compression counters.
        assert_eq!(rows.len(), 15);
        for x in ["select-heavy", "join-heavy", "aggregate-heavy"] {
            let of = |series: &str| {
                rows.iter()
                    .find(|r| r.series == series && r.x == x)
                    .unwrap_or_else(|| panic!("missing {series}/{x}"))
            };
            assert!(of("row").time > Duration::ZERO);
            assert!(of("columnar").time > Duration::ZERO);
            assert_eq!(of("speedup").kind, RowKind::Counter);
            assert!(of("speedup").extra.as_ref().unwrap().1 > 0.0);
            assert!(of("columnar-rows").extra.as_ref().unwrap().1 > 0.0);
        }
        let compression = |name: &str| {
            rows.iter()
                .find(|r| {
                    r.series == "spill-compression"
                        && r.extra.as_ref().is_some_and(|(n, _)| n == name)
                })
                .unwrap_or_else(|| panic!("missing {name}"))
                .extra
                .as_ref()
                .unwrap()
                .1
        };
        let ratio = compression("encoded-over-raw");
        assert!(ratio > 0.0 && ratio < 1.0, "ratio {ratio}");
    }
}
