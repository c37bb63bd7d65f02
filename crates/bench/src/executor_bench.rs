//! Executor micro-benchmark: the bound physical path vs. the retained row-at-a-time reference.
//!
//! Three workloads over a generated source instance (the same generator the paper experiments
//! use) — a selection pipeline, a wide projection, and a join-heavy plan — are executed by
//! both engines for a fixed number of iterations.  The report carries rows/sec per engine, the
//! physical path's clone-elimination counter, and the speedup factor, and is written to
//! `BENCH_executor.json` by the `executor_bench` binary so the perf trajectory of the executor
//! is tracked from PR to PR.

use crate::experiments::{ExperimentRow, RowKind};
use std::time::{Duration, Instant};
use urm_core::CoreResult;
use urm_datagen::source::generate_source;
use urm_engine::{CompareOp, Executor, Plan, Predicate, ReferenceExecutor};
use urm_storage::{Catalog, Value};

/// Configuration of one micro-benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorBenchConfig {
    /// Source-instance scale factor (`Orders` gets `2 × scale` rows, `LineItem` `4 × scale`).
    pub scale: usize,
    /// Timed iterations per (workload, engine) pair.
    pub iters: usize,
    /// Data-generation seed.
    pub seed: u64,
}

impl Default for ExecutorBenchConfig {
    fn default() -> Self {
        ExecutorBenchConfig {
            scale: 300,
            iters: 200,
            seed: 42,
        }
    }
}

/// The named plans of the micro-benchmark, in report order.
fn workloads() -> Vec<(&'static str, Plan)> {
    // Selection pipeline: two predicates over the wide Orders relation.
    let select = Plan::scan("Orders")
        .select(Predicate::eq("Orders.orderStatus", Value::from("OPEN")))
        .select(Predicate::compare(
            "Orders.orderPriority",
            CompareOp::Le,
            Value::from(3i64),
        ))
        .project(vec!["Orders.clerk".into(), "Orders.totalPrice".into()]);

    // Projection: narrow a wide relation (name resolution cost without selectivity).
    let project = Plan::scan("Customer").project(vec![
        "Customer.custName".into(),
        "Customer.telephone".into(),
        "Customer.custNation".into(),
    ]);

    // Join-heavy: a selective probe side against a large build side, a residual selection and
    // a projection — the shape reformulated product queries (Q3/Q4) execute as.  The build
    // side is where the pre-refactor executor paid per row (a key-value clone plus a composite
    // key allocation per build tuple); the bound path hashes borrowed keys.
    let join_heavy = Plan::scan("Orders")
        .select(Predicate::eq("Orders.clerk", Value::from("clerk7")))
        .hash_join(
            Plan::scan("LineItem"),
            vec![("Orders.orderNum".into(), "LineItem.itemOrderNum".into())],
        )
        .select(Predicate::compare(
            "LineItem.quantity",
            CompareOp::Gt,
            Value::from(10i64),
        ))
        .project(vec!["Orders.clerk".into(), "LineItem.extendedPrice".into()]);

    vec![
        ("select", select),
        ("project", project),
        ("join-heavy", join_heavy),
    ]
}

/// Outcome of one (workload, engine) measurement.
struct Measurement {
    total: Duration,
    rows_processed: u64,
    source_operators: u64,
    answers: usize,
    rows_shared: u64,
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
            experiment: "executor".into(),
            series: series.into(),
            x: x.into(),
            kind: RowKind::Timing,
            time: self.total,
            source_operators: self.source_operators,
            answers: self.answers,
            extra: Some(("rows-per-sec".into(), self.rows_per_second())),
        }
    }
}

fn measure_reference(catalog: &Catalog, plan: &Plan, iters: usize) -> Measurement {
    let mut exec = ReferenceExecutor::new(catalog);
    exec.run(plan).expect("benchmark plan must execute"); // warm-up
    let mut exec = ReferenceExecutor::new(catalog);
    let start = Instant::now();
    let mut answers = 0;
    for _ in 0..iters {
        answers = exec.run(plan).expect("benchmark plan must execute").len();
    }
    let total = start.elapsed();
    let stats = exec.stats();
    Measurement {
        total,
        rows_processed: stats.tuples_read + stats.tuples_output,
        source_operators: stats.operators_executed,
        answers,
        rows_shared: stats.rows_shared,
    }
}

fn measure_physical(catalog: &Catalog, plan: &Plan, iters: usize) -> Measurement {
    let mut exec = Executor::new(catalog);
    exec.run(plan).expect("benchmark plan must execute"); // warm-up
    let mut exec = Executor::new(catalog);
    // The production paths bind once and execute many times (cached sub-plans, repeated
    // reformulations); the benchmark measures the same bind-once shape.
    let physical = exec.bind(plan).expect("benchmark plan must bind");
    let start = Instant::now();
    let mut answers = 0;
    for _ in 0..iters {
        // The reference hands back rows, so this side builds its (late-materialized) rows too.
        answers = exec
            .execute(&physical)
            .expect("benchmark plan must execute")
            .rows()
            .len();
    }
    let total = start.elapsed();
    let stats = exec.stats();
    Measurement {
        total,
        rows_processed: stats.tuples_read + stats.tuples_output,
        source_operators: stats.operators_executed,
        answers,
        rows_shared: stats.rows_shared,
    }
}

/// Runs the micro-benchmark, returning `BENCH_executor.json`-ready rows.
///
/// Per workload: one row per engine (with rows/sec), one `speedup` row (physical over
/// reference) and one `rows-shared` row (the physical path's clone-elimination counter).
pub fn run(config: &ExecutorBenchConfig) -> CoreResult<Vec<ExperimentRow>> {
    let catalog = generate_source(config.scale, config.seed);
    let iters = config.iters.max(1);
    let mut rows = Vec::new();
    for (name, plan) in workloads() {
        let reference = measure_reference(&catalog, &plan, iters);
        let physical = measure_physical(&catalog, &plan, iters);
        assert_eq!(
            reference.answers, physical.answers,
            "engines disagree on workload '{name}'"
        );

        rows.push(reference.row("reference", name));
        rows.push(physical.row("physical", name));

        let speedup = if physical.total.as_secs_f64() == 0.0 {
            f64::INFINITY
        } else {
            reference.total.as_secs_f64() / physical.total.as_secs_f64()
        };
        rows.push(ExperimentRow {
            experiment: "executor".into(),
            series: "speedup".into(),
            x: name.into(),
            kind: RowKind::Timing,
            time: Duration::ZERO,
            source_operators: 0,
            answers: 0,
            extra: Some(("speedup".into(), speedup)),
        });
        rows.push(ExperimentRow {
            experiment: "executor".into(),
            series: "rows-shared".into(),
            x: name.into(),
            kind: RowKind::Timing,
            time: Duration::ZERO,
            source_operators: 0,
            answers: 0,
            extra: Some(("rows-shared".into(), physical.rows_shared as f64)),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_produces_rows_for_every_workload_and_engines_agree() {
        let rows = run(&ExecutorBenchConfig {
            scale: 10,
            iters: 2,
            seed: 7,
        })
        .unwrap();
        // 3 workloads × (reference, physical, speedup, rows-shared).
        assert_eq!(rows.len(), 12);
        for x in ["select", "project", "join-heavy"] {
            let of = |series: &str| {
                rows.iter()
                    .find(|r| r.series == series && r.x == x)
                    .unwrap_or_else(|| panic!("missing {series}/{x}"))
            };
            // run() itself asserts answer equality; here we check the report shape.
            assert!(of("reference").time > Duration::ZERO);
            assert!(of("physical").time > Duration::ZERO);
            assert!(of("speedup").extra.as_ref().unwrap().1 > 0.0);
            assert!(of("rows-shared").extra.as_ref().unwrap().1 > 0.0);
        }
    }
}
