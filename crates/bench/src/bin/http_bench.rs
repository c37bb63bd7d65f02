//! Runs the open-loop HTTP latency harness (Poisson arrivals against a real `urm-server` on
//! loopback, byte-identity check against an in-process replay) and writes `BENCH_http.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p urm-bench --bin http_bench \
//!     [--scale N] [--mappings H] [--seed S] [--requests N] [--rate R] [--clients C]
//!     [--workers W] [--attach ADDR] [--no-verify] [--json PATH]
//! ```
//!
//! `--attach ADDR` drives an already-running server (started with the same
//! `--scale/--mappings/--seed`) instead of an in-process one; `--no-verify` skips the
//! byte-identity check (needed when the attached server serves a different scenario).  JSON
//! goes to `BENCH_http.json` by default (`--json -` disables it).

use std::env;
use urm_bench::http_bench::{run, HttpBenchConfig};
use urm_bench::report;

fn main() {
    let args: Vec<String> = env::args().collect();
    let mut config = HttpBenchConfig::default();
    let value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|pos| args.get(pos + 1))
            .cloned()
    };
    let parse = |flag: &str| -> Option<usize> { value(flag).and_then(|s| s.parse().ok()) };
    if let Some(v) = parse("--scale") {
        config.scale = v;
    }
    if let Some(v) = parse("--mappings") {
        config.mappings = v;
    }
    if let Some(v) = parse("--seed") {
        config.seed = v as u64;
    }
    if let Some(v) = parse("--requests") {
        config.requests = v;
    }
    if let Some(v) = parse("--rate") {
        config.rate = v as f64;
    }
    if let Some(v) = parse("--clients") {
        config.clients = v;
    }
    if let Some(v) = parse("--workers") {
        config.workers = v;
    }
    if let Some(addr) = value("--attach") {
        config.attach = Some(addr);
    }
    if args.iter().any(|a| a == "--no-verify") {
        config.verify = false;
    }
    let json_path = match args.iter().position(|a| a == "--json") {
        Some(pos) => match args.get(pos + 1) {
            Some(path) if !path.starts_with("--") => path.clone(),
            _ => {
                eprintln!("error: --json needs a path argument (use '--json -' to disable)");
                std::process::exit(1);
            }
        },
        None => "BENCH_http.json".to_string(),
    };

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
        std::fs::write(&json_path, report::render_json(&rows))
            .unwrap_or_else(|err| panic!("cannot write {json_path}: {err}"));
        eprintln!("wrote {json_path}");
    }
}
