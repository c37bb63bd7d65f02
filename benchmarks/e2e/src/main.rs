//! `e2e` — the HTTP-to-kernel benchmark of the URM workspace.  See `README.md` beside this
//! crate for the workloads, the metric glossary and how to run it; `run.sh` is the entry point.

mod bench;
mod drive;
mod layers;
mod metrics;
mod procfs;
mod report;
mod stats;
mod workload;
mod world;

use std::path::Path;
use std::time::Duration;
use workload::Size;

/// Everything the benchmark writes (trace files, per-run details, spill segments) goes here,
/// relative to the checkout root `run.sh` changes into.
const OUT_DIR: &str = "benchmarks/e2e/out";
const BENCHMARK_JSON: &str = "BENCHMARK.json";
/// `--quick`: a smoke run of every workload, not a measurement.
const QUICK_SECONDS: f64 = 0.5;

const USAGE: &str = "usage:
  e2e --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
  e2e [--seed N] [--seconds S] [--quick]                 every workload, untraced then traced
  e2e --compare A.json[,A2.json…] B.json[,B2.json…]      B against A under BENCHMARK.json's bounds";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    size: Size,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        size: Size::Full,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &String| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let seconds: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {seconds}"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--quick" => parsed.size = Size::Smoke,
            "--compare" => parsed.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// The run length `BENCHMARK.json` fixes, used when `--seconds` is not given.
fn default_seconds() -> Result<f64, String> {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    urm_server::Json::parse(&text)?
        .get("run_seconds")
        .and_then(urm_server::Json::as_f64)
        .ok_or_else(|| format!("{BENCHMARK_JSON}: no run_seconds"))
}

/// One run of one workload: prints every metric by name and unit, then the result line.
fn run_one(args: &Args, name: &str, out_dir: &Path) -> Result<bool, String> {
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })?;
    let run_for = Duration::from_secs_f64(match args.seconds {
        Some(seconds) => seconds,
        None => default_seconds()?,
    });
    let (out, metrics) = if args.trace {
        let (out, metrics, spans) =
            layers::per_layer(workload, args.seed, run_for, args.size, out_dir)?;
        let path = out_dir.join(format!("{}.trace.json", workload.name));
        std::fs::write(&path, stats::spans_json(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        (out, metrics)
    } else {
        bench::end_to_end(workload, args.seed, run_for, args.size)?
    };
    for failure in &out.failures {
        println!("failed: {failure}");
    }
    let complete = metrics
        .complete()
        .map_err(|missing| format!("metrics never set: {missing:?}"))?;
    println!(
        "{} seed {} ({})",
        workload.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for (def, reported) in &complete {
        println!(
            "  {:<32} {:>14.4} {:<10} n={}",
            def.name, reported.value, def.unit, reported.samples
        );
    }
    let correct = out.failed == 0;
    let path = report::detail_path(out_dir, workload, args.trace);
    let detail = report::detail_json(correct, out.attempted, out.failed, &complete);
    std::fs::write(&path, detail).map_err(|e| format!("{}: {e}", path.display()))?;
    // A completed run exits 0 whatever it found: the result line carries `correct`.
    println!(
        "{}",
        metrics::result_line(correct, out.attempted, out.failed, &complete)
    );
    Ok(true)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let read = |paths: &String| -> Result<Vec<String>, String> {
            paths
                .split(',')
                .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
                .collect()
        };
        let benchmark = std::fs::read_to_string(BENCHMARK_JSON)
            .map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
        return report::compare(&benchmark, &read(a)?, &read(b)?);
    }
    // Spill pools (and anything else using the system temp directory) stay inside the checkout.
    let out_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(OUT_DIR);
    let tmp = out_dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    if let Some(name) = &args.workload {
        let result = run_one(args, name, &out_dir);
        // A budgeted run leaves one pool's segments behind (README, Findings).
        let _ = std::fs::remove_dir_all(&tmp);
        return result;
    }
    let seconds = match (args.size, args.seconds) {
        (Size::Smoke, _) => QUICK_SECONDS,
        (Size::Full, Some(seconds)) => seconds,
        (Size::Full, None) => default_seconds()?,
    };
    let out_path = out_dir.join("BENCH_e2e.json");
    let doc = report::run_all(args.seed, seconds, args.size, &out_dir)?;
    std::fs::write(&out_path, &doc).map_err(|e| format!("{}: {e}", out_path.display()))?;
    eprintln!("wrote {}", out_path.display());
    Ok(!doc.contains("\"correct\":false"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok(true) => {}
        Ok(false) => std::process::exit(2),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_contract() {
        let a = args(&[
            "--workload",
            "front_hits",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("front_hits"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(20.0), true));
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert_eq!(args(&["--quick"]).unwrap().size, Size::Smoke);
        let c = args(&["--compare", "a.json", "b.json"]).unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }

    /// The whole pipeline at smoke scale: every workload runs untraced and traced, answers
    /// check out against the oracle, and every declared metric is reported.
    #[test]
    fn every_workload_reports_every_declared_metric() {
        // Spill segments stay under the package's `out/`, as in a real run.
        let spill_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/tmp");
        std::fs::create_dir_all(&spill_dir).unwrap();
        std::env::set_var("TMPDIR", &spill_dir);
        let run_for = Duration::from_millis(300);
        for w in &workload::WORKLOADS {
            let (out, m) = bench::end_to_end(w, 5, run_for, Size::Smoke).unwrap();
            assert!(
                out.attempted > 0 && out.failed == 0,
                "{}: {:?}",
                w.name,
                out.failures
            );
            let reported = m.complete().unwrap();
            assert_eq!(reported.len(), metrics::END_TO_END.len());
            assert!(
                reported.iter().all(|(_, r)| r.value > 0.0),
                "{}: {reported:?}",
                w.name
            );

            let (out, m, spans) =
                layers::per_layer(w, 5, run_for, Size::Smoke, &spill_dir).unwrap();
            assert!(
                out.attempted > 0 && out.failed == 0,
                "{}: {:?}",
                w.name,
                out.failures
            );
            let reported = m.complete().unwrap();
            assert_eq!(reported.len(), metrics::PER_LAYER.len());
            assert!(
                reported.iter().all(|(_, r)| r.value.is_finite()),
                "{}",
                w.name
            );
            assert!(
                spans.iter().any(|s| s.name == "service.submit_wait"),
                "{}",
                w.name
            );
            let coverage = reported
                .iter()
                .find(|(d, _)| d.name == "trace.coverage_share")
                .unwrap();
            assert!(coverage.1.value > 0.0, "{}", w.name);
        }
    }
}
