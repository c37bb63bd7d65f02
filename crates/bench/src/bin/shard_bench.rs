//! Runs the scatter-gather shard micro-benchmark (1 vs. 2 vs. 4 partitioned shard runtimes on
//! the join-heavy and skewed workloads) and writes `BENCH_shard.json`.
//!
//! JSON goes to `BENCH_shard.json` by default (`--json -` disables it).  The run itself
//! asserts that every sharded answer — each shard count, hash and range partitioning — is
//! byte-identical to the unsharded batch *before* any timing; a violated gate panics, failing
//! the CI step.  The timing gate (4-shard speedup ≥ 1.3× over 1 shard) lives in CI,
//! conditional on multi-core hardware.

use urm_bench::cli::{self, Kind};
use urm_bench::report;
use urm_bench::shard_bench::{run, ShardBenchConfig};

const USAGE: &str = "\
usage: shard_bench [--scale N] [--mappings N] [--queries N] [--iters N] [--json PATH]

  --json PATH  where the report goes (default BENCH_shard.json; '-' writes none)";

fn main() {
    let args = cli::parse_or_exit(
        USAGE,
        &[
            ("--scale", Kind::Number),
            ("--mappings", Kind::Number),
            ("--queries", Kind::Number),
            ("--iters", Kind::Number),
            ("--json", Kind::Text),
        ],
    );
    let mut config = ShardBenchConfig::default();
    if let Some(v) = args.number("--scale") {
        config.scale = v;
    }
    if let Some(v) = args.number("--mappings") {
        config.mappings = v;
    }
    if let Some(v) = args.number("--queries") {
        config.queries = v;
    }
    if let Some(v) = args.number("--iters") {
        config.iters = v;
    }
    let json_path = args.text("--json").unwrap_or("BENCH_shard.json");

    eprintln!(
        "shard micro-benchmark (scale={}, mappings={}, queries={}, iters={}, seed={}) …",
        config.scale, config.mappings, config.queries, config.iters, config.seed
    );
    let rows = run(&config).expect("micro-benchmark failed");
    println!("{}", report::render_table("shard", &rows));
    for row in &rows {
        if let Some((name, value)) = &row.extra {
            println!("{} {name}: {value:.2}", row.series);
        }
    }
    if json_path != "-" {
        std::fs::write(json_path, report::render_json(&rows))
            .unwrap_or_else(|err| panic!("cannot write {json_path}: {err}"));
        eprintln!("wrote {json_path}");
    }
}
