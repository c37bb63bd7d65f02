//! Runs the observability-overhead micro-benchmark (tracing off / A-A / sampled 1-in-16 on
//! the join-heavy batch) and writes `BENCH_obs.json`.
//!
//! JSON goes to `BENCH_obs.json` by default (`--json -` disables it).  The run asserts that
//! the sampled series actually recorded traces with non-empty span trees; the overhead gates
//! (`ratio-off ≤ 1.03`, `ratio-sampled ≤ 1.10`) live in CI.

use urm_bench::cli::{self, Kind};
use urm_bench::obs_bench::{run, ObsBenchConfig};
use urm_bench::report;

const USAGE: &str = "\
usage: obs_bench [--scale N] [--mappings N] [--queries N] [--rounds N] [--json PATH]

  --json PATH  where the report goes (default BENCH_obs.json; '-' writes none)";

fn main() {
    let args = cli::parse_or_exit(
        USAGE,
        &[
            ("--scale", Kind::Number),
            ("--mappings", Kind::Number),
            ("--queries", Kind::Number),
            ("--rounds", Kind::Number),
            ("--json", Kind::Text),
        ],
    );
    let mut config = ObsBenchConfig::default();
    if let Some(v) = args.number("--scale") {
        config.scale = v;
    }
    if let Some(v) = args.number("--mappings") {
        config.mappings = v;
    }
    if let Some(v) = args.number("--queries") {
        config.queries = v;
    }
    if let Some(v) = args.number("--rounds") {
        config.rounds = v;
    }
    let json_path = args.text("--json").unwrap_or("BENCH_obs.json");

    eprintln!(
        "observability-overhead micro-benchmark (scale={}, mappings={}, queries={}, rounds={}, seed={}) …",
        config.scale, config.mappings, config.queries, config.rounds, config.seed
    );
    let rows = run(&config).expect("micro-benchmark failed");
    println!("{}", report::render_table("obs", &rows));
    for row in &rows {
        if let Some((name, value)) = &row.extra {
            println!("{} {name}: {value:.3}", row.series);
        }
    }
    if json_path != "-" {
        std::fs::write(json_path, report::render_json(&rows))
            .unwrap_or_else(|err| panic!("cannot write {json_path}: {err}"));
        eprintln!("wrote {json_path}");
    }
}
