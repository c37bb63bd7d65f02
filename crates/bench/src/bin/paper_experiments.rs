//! Regenerates every table and figure of the paper's evaluation section (plus the serving-layer
//! experiment), prints them as text tables, and writes a machine-readable JSON copy.
//!
//! JSON goes to `BENCH_paper.json` by default (`--json -` disables it).

use urm_bench::cli::{self, Kind};
use urm_bench::experiments::{Harness, HarnessConfig};
use urm_bench::report;

const USAGE: &str = "\
usage: paper_experiments [--tiny] [--scale N] [--mappings H] [--json PATH]

  --tiny        the smoke-test configuration (seconds instead of minutes)
  --scale N     source instance scale
  --mappings H  possible mappings per scenario
  --json PATH   where the JSON copy goes (default BENCH_paper.json; '-' writes none)";

fn main() {
    let args = cli::parse_or_exit(
        USAGE,
        &[
            ("--tiny", Kind::Switch),
            ("--scale", Kind::Number),
            ("--mappings", Kind::Number),
            ("--json", Kind::Text),
        ],
    );
    let mut config = if args.switch("--tiny") {
        HarnessConfig::tiny()
    } else {
        HarnessConfig::default()
    };
    if let Some(v) = args.number("--scale") {
        config.scale = v;
    }
    if let Some(v) = args.number("--mappings") {
        config.mappings = v;
    }
    let json_path = args.text("--json").unwrap_or("BENCH_paper.json");

    eprintln!(
        "generating scenarios (scale={}, mappings={}, seed={}) …",
        config.scale, config.mappings, config.seed
    );
    let harness = Harness::new(config).expect("scenario generation failed");
    eprintln!("running experiments …");
    let rows = harness.run_all().expect("experiment run failed");
    println!("{}", report::render_all(&rows));
    if json_path != "-" {
        std::fs::write(json_path, report::render_json(&rows))
            .unwrap_or_else(|err| panic!("cannot write {json_path}: {err}"));
        eprintln!("wrote {json_path}");
    }
    eprintln!("done: {} data points", rows.len());
}
