//! Runs the open-loop HTTP latency harness (Poisson arrivals against a real `urm-server` on
//! loopback, byte-identity check against an in-process replay) and writes `BENCH_http.json`.
//!
//! `--attach ADDR` drives an already-running server (started with the same
//! `--scale/--mappings/--seed`) instead of an in-process one; `--no-verify` skips the
//! byte-identity check (needed when the attached server serves a different scenario).  JSON
//! goes to `BENCH_http.json` by default (`--json -` disables it).

use urm_bench::cli::{self, Kind};
use urm_bench::http_bench::{run, HttpBenchConfig};
use urm_bench::report;

const USAGE: &str = "\
usage: http_bench [--scale N] [--mappings H] [--seed S] [--requests N] [--rate R] [--clients C]
                  [--workers W] [--attach ADDR] [--no-verify] [--json PATH]

  --rate R       mean arrivals per second of the open loop
  --attach ADDR  drive a running server (same --scale/--mappings/--seed) instead of an
                 in-process one
  --no-verify    skip the byte-identity check (the attached server serves another scenario)
  --json PATH    where the report goes (default BENCH_http.json; '-' writes none)";

fn main() {
    let args = cli::parse_or_exit(
        USAGE,
        &[
            ("--scale", Kind::Number),
            ("--mappings", Kind::Number),
            ("--seed", Kind::Number),
            ("--requests", Kind::Number),
            ("--rate", Kind::Number),
            ("--clients", Kind::Number),
            ("--workers", Kind::Number),
            ("--attach", Kind::Text),
            ("--no-verify", Kind::Switch),
            ("--json", Kind::Text),
        ],
    );
    let mut config = HttpBenchConfig::default();
    if let Some(v) = args.number("--scale") {
        config.scale = v;
    }
    if let Some(v) = args.number("--mappings") {
        config.mappings = v;
    }
    if let Some(v) = args.number("--seed") {
        config.seed = v as u64;
    }
    if let Some(v) = args.number("--requests") {
        config.requests = v;
    }
    if let Some(v) = args.number("--rate") {
        config.rate = v as f64;
    }
    if let Some(v) = args.number("--clients") {
        config.clients = v;
    }
    if let Some(v) = args.number("--workers") {
        config.workers = v;
    }
    if let Some(addr) = args.text("--attach") {
        config.attach = Some(addr.to_string());
    }
    if args.switch("--no-verify") {
        config.verify = false;
    }
    let json_path = args.text("--json").unwrap_or("BENCH_http.json");

    eprintln!(
        "http open-loop harness (scale={}, mappings={}, requests={}/phase, rate={}/s, \
         clients={}, workers={}, verify={}) …",
        config.scale,
        config.mappings,
        config.requests,
        config.rate,
        config.clients,
        config.workers,
        config.verify,
    );
    let rows = run(&config).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(1);
    });
    println!("{}", report::render_table("http", &rows));
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
