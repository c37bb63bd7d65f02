//! Runs the spill micro-benchmark (in-memory vs. byte-budget-constrained execution of an
//! oversized join-heavy batch) and writes `BENCH_spill.json`.
//!
//! JSON goes to `BENCH_spill.json` by default (`--json -` disables it).  The run itself
//! asserts that budget-constrained answers are byte-identical to in-memory ones and that the
//! pool stayed under its budget — a violated gate panics, failing the CI step.

use urm_bench::cli::{self, Kind};
use urm_bench::report;
use urm_bench::spill_bench::{run, SpillBenchConfig};

const USAGE: &str = "\
usage: spill_bench [--scale N] [--queries N] [--iters N] [--budget-divisor N] [--workers N]
                   [--json PATH]

  --budget-divisor N  the memory budget is 1/N of the generated database
  --json PATH         where the report goes (default BENCH_spill.json; '-' writes none)";

fn main() {
    let args = cli::parse_or_exit(
        USAGE,
        &[
            ("--scale", Kind::Number),
            ("--queries", Kind::Number),
            ("--iters", Kind::Number),
            ("--budget-divisor", Kind::Number),
            ("--workers", Kind::Number),
            ("--json", Kind::Text),
        ],
    );
    let mut config = SpillBenchConfig::default();
    if let Some(v) = args.number("--scale") {
        config.scale = v;
    }
    if let Some(v) = args.number("--queries") {
        config.queries = v;
    }
    if let Some(v) = args.number("--iters") {
        config.iters = v;
    }
    if let Some(v) = args.number("--budget-divisor") {
        config.budget_divisor = v;
    }
    if let Some(v) = args.number("--workers") {
        config.workers = v;
    }
    let json_path = args.text("--json").unwrap_or("BENCH_spill.json");

    eprintln!(
        "spill micro-benchmark (scale={}, queries={}, iters={}, budget=1/{} of data, \
         workers={}, seed={}) …",
        config.scale,
        config.queries,
        config.iters,
        config.budget_divisor,
        config.workers,
        config.seed
    );
    let rows = run(&config).expect("micro-benchmark failed");
    println!("{}", report::render_table("spill", &rows));
    for row in &rows {
        if let Some((name, value)) = &row.extra {
            println!("{} {name}: {value:.0}", row.series);
        }
    }
    if json_path != "-" {
        std::fs::write(json_path, report::render_json(&rows))
            .unwrap_or_else(|err| panic!("cannot write {json_path}: {err}"));
        eprintln!("wrote {json_path}");
    }
}
