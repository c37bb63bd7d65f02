//! The full report (`run.sh` without `--workload`): every workload in a process of its own,
//! untraced then traced, gathered into one JSON document with the run's metadata — and
//! `--compare`, which checks two such documents against the bounds in `BENCHMARK.json`.

use crate::metrics::{json_number, MetricDef, Reported};
use crate::procfs;
use crate::stats::{median, quartiles};
use crate::workload::{admission_config, Size, Workload, CLIENTS, MAPPINGS, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use urm_server::Json;

/// Where a single run leaves its detail document for the gathering parent.
pub fn detail_path(out_dir: &Path, workload: &Workload, trace: bool) -> PathBuf {
    let section = if trace { "per_layer" } else { "end_to_end" };
    out_dir.join(format!("{}.{section}.json", workload.name))
}

/// The detail document of one run: the result line's content plus per-metric sample counts.
pub fn detail_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, Reported)],
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (def, r)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"better\":\"{}\",\"samples\":{}}}",
            if i > 0 { "," } else { "" },
            def.name,
            json_number(r.value),
            def.unit,
            def.better,
            r.samples
        );
    }
    out.push_str("}}");
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn quoted(text: &str) -> String {
    Json::Str(text.to_string()).to_string()
}

/// Hardware threads, commit, seed, scale, h, the service and admission configuration, the
/// compiler, and the run length — everything needed to judge whether two reports compare.
fn meta_json(seed: u64, seconds: f64, size: Size) -> String {
    // The machine's hardware threads, not the one this process is confined to.
    let threads = std::fs::read_to_string("/sys/devices/system/cpu/online")
        .map_or("unknown".into(), |s| s.trim().to_string());
    let admission = admission_config();
    let mut service = String::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        let c = w.service_config();
        let _ = write!(
            service,
            "{}{}:{{\"workers\":{},\"dag_workers\":{},\"batch_max\":{},\
             \"answer_cache_capacity\":{},\"memory_budget\":{},\"shards\":{},\"trace_sample\":{}}}",
            if i > 0 { "," } else { "" },
            quoted(w.name),
            c.workers,
            c.dag_workers,
            c.batch_max,
            c.answer_cache_capacity,
            c.memory_budget
                .map_or("null".to_string(), |b| b.to_string()),
            c.shards,
            c.trace_sample,
        );
    }
    format!(
        "{{\"cpus_online\":{},\"cpus_allowed\":{},\"commit\":{},\"rustc\":{},\"seed\":{seed},\
         \"scale\":{},\"mappings\":{MAPPINGS},\"clients\":{CLIENTS},\"load\":\"closed-loop\",\
         \"run_seconds\":{},\"service\":{{{service}}},\"admission\":{{\"queue_capacity\":{},\
         \"burst\":{},\"refill_per_sec\":{},\"max_body_bytes\":{},\"read_timeout_s\":{},\
         \"write_timeout_s\":{}}}}}",
        quoted(&threads),
        quoted(&procfs::cpus_allowed()),
        quoted(&command_line("git", &["rev-parse", "HEAD"])),
        quoted(&command_line("rustc", &["--version"])),
        size.scale(),
        json_number(seconds),
        admission.queue_capacity,
        json_number(admission.burst),
        json_number(admission.refill_per_sec),
        admission.max_body_bytes,
        admission.read_timeout.as_secs(),
        admission.write_timeout.as_secs(),
    )
}

/// Runs this executable once for one workload and trace mode; returns its detail document.
fn run_child(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    trace: bool,
    out_dir: &Path,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if size == Size::Smoke {
        command.arg("--quick");
    }
    let status = command
        .status()
        .map_err(|e| format!("{}: {e}", workload.name))?;
    if !status.success() {
        return Err(format!(
            "{} (trace {}): {status}",
            workload.name,
            u8::from(trace)
        ));
    }
    let detail = detail_path(out_dir, workload, trace);
    std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))
}

/// Every workload, untraced then traced, each in its own process (so `peak_rss_mb` is the
/// workload's own), gathered into one document.
pub fn run_all(seed: u64, seconds: f64, size: Size, out_dir: &Path) -> Result<String, String> {
    if procfs::cpus_allowed().parse::<u32>().is_err() {
        eprintln!(
            "warning: not confined to one hardware thread (allowed: {}); run through run.sh",
            procfs::cpus_allowed()
        );
    }
    let mut doc = format!(
        "{{\"benchmark\":\"e2e\",\"claim\":null,\"meta\":{},\"workloads\":{{",
        meta_json(seed, seconds, size)
    );
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let untraced = run_child(workload, seed, seconds, size, false, out_dir)?;
        let traced = run_child(workload, seed, seconds, size, true, out_dir)?;
        let _ = write!(
            doc,
            "{}\n{}:{{\"why\":{},\"end_to_end\":{untraced},\"per_layer\":{traced}}}",
            if i > 0 { "," } else { "" },
            quoted(workload.name),
            quoted(workload.why),
        );
    }
    doc.push_str("\n}}\n");
    Ok(doc)
}

/// One bounded metric of `BENCHMARK.json`.
struct Bound {
    name: String,
    better_lower: bool,
    bound: f64,
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                better_lower: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// What one gathered report says about one workload.
#[derive(Debug, Default)]
struct WorkloadResult {
    /// The end-to-end section's metrics.
    metrics: BTreeMap<String, f64>,
    /// Operations of both sections (the untraced and the traced run).
    attempted: u64,
    failed: u64,
}

fn workload_results(report: &Json) -> Result<BTreeMap<String, WorkloadResult>, String> {
    let Some(Json::Obj(workloads)) = report.get("workloads") else {
        return Err("report without workloads".into());
    };
    let mut results = BTreeMap::new();
    for (workload, sections) in workloads {
        let mut result = WorkloadResult::default();
        for section in ["end_to_end", "per_layer"] {
            let run = sections
                .get(section)
                .ok_or_else(|| format!("{workload}: no {section} section"))?;
            let count = |key: &str| run.get(key).and_then(Json::as_f64).map(|n| n as u64);
            let (Some(attempted), Some(failed)) = (count("attempted"), count("failed")) else {
                return Err(format!("{workload}: {section} without attempted/failed"));
            };
            // A run that calls itself incorrect has failed, whatever it counted.
            let incorrect = run.get("correct") != Some(&Json::Bool(true));
            result.attempted += attempted;
            result.failed += failed.max(u64::from(incorrect));
        }
        let Some(Json::Obj(metrics)) = sections.get("end_to_end").and_then(|e| e.get("metrics"))
        else {
            return Err(format!("{workload}: no end_to_end metrics"));
        };
        result.metrics = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        results.insert(workload.clone(), result);
    }
    Ok(results)
}

/// How one metric × workload moved from result set A to result set B.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound (the relative change).
    Regressed(f64),
    /// A side did not report it, or A's own runs spread wider than the bound (the spread).
    Unresolved(Option<f64>),
}

/// Fewest runs on side A for which its spread is judged (quartiles of fewer mean little).
const SPREAD_RUNS: usize = 4;

/// B's median against A's: worse by more than `bound` of A's median is a regression — unless
/// A's own runs (given at least [`SPREAD_RUNS`]) spread wider than the bound, quartile to
/// quartile as a share of their median, in which case nothing can be said.
pub fn verdict(a: &[f64], b: &[f64], better_lower: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if a.is_empty() || b.is_empty() || ma == 0.0 {
        return Verdict::Unresolved(None);
    }
    if a.len() >= SPREAD_RUNS {
        let (q1, _, q3) = quartiles(a);
        let spread = (q3 - q1) / ma;
        if spread > bound {
            return Verdict::Unresolved(Some(spread));
        }
    }
    let worse = if better_lower {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    if worse > bound {
        Verdict::Regressed(worse)
    } else {
        Verdict::Ok
    }
}

/// `failed_share` has no bound to spare: any increase from A to B is a regression, however
/// the timings compare.  Each side is (failed, attempted) over all its runs.
fn failures_verdict(a: (u64, u64), b: (u64, u64)) -> Verdict {
    if a.1 == 0 || b.1 == 0 {
        return Verdict::Unresolved(None);
    }
    let (share_a, share_b) = (a.0 as f64 / a.1 as f64, b.0 as f64 / b.1 as f64);
    if share_b > share_a {
        Verdict::Regressed(share_b - share_a)
    } else {
        Verdict::Ok
    }
}

/// Compares two result sets (each one or more gathered reports of one commit); prints one line
/// per metric × workload, and one for the failed operations of each workload, and returns
/// whether every line is `ok`.
pub fn compare(benchmark: &str, a: &[String], b: &[String]) -> Result<bool, String> {
    let bounds = bounds(&Json::parse(benchmark)?)?;
    let parse = |side: &[String]| {
        side.iter()
            .map(|text| workload_results(&Json::parse(text)?))
            .collect::<Result<Vec<_>, String>>()
    };
    let (a, b) = (parse(a)?, parse(b)?);
    let mut all_ok = true;
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let runs_a: Vec<&WorkloadResult> = a.iter().filter_map(|r| r.get(workload)).collect();
        let runs_b: Vec<&WorkloadResult> = b.iter().filter_map(|r| r.get(workload)).collect();
        for bound in &bounds {
            let values = |runs: &[&WorkloadResult]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&runs_a), values(&runs_b));
            let verdict = verdict(&va, &vb, bound.better_lower, bound.bound);
            all_ok &= verdict == Verdict::Ok;
            let percent = |x: f64| format!("{:.1}% > {:.0}%", x * 100.0, bound.bound * 100.0);
            let word = match verdict {
                Verdict::Ok => "ok".to_string(),
                Verdict::Regressed(by) => format!("regressed ({})", percent(by)),
                Verdict::Unresolved(Some(spread)) => {
                    format!("unresolved (spread {})", percent(spread))
                }
                Verdict::Unresolved(None) => "unresolved (not reported)".to_string(),
            };
            println!(
                "{workload:<12} {:<18} {:>12.4} -> {:>12.4}  {word}",
                bound.name,
                median(&va),
                median(&vb)
            );
        }
        let failures = |runs: &[&WorkloadResult]| {
            runs.iter()
                .fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted))
        };
        let (fa, fb) = (failures(&runs_a), failures(&runs_b));
        let verdict = failures_verdict(fa, fb);
        all_ok &= verdict == Verdict::Ok;
        let word = match verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed(_) => "regressed (any increase fails)",
            Verdict::Unresolved(_) => "unresolved (not reported)",
        };
        println!(
            "{workload:<12} {:<18} {:>5} of {:<6} -> {:>5} of {:<6} {word}",
            "failed_share", fa.0, fa.1, fb.0, fb.1
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert_eq!(verdict(&[100.0], &[109.0], true, 0.10), Verdict::Ok);
        assert!(matches!(
            verdict(&[100.0], &[111.0], true, 0.10),
            Verdict::Regressed(_)
        ));
        assert_eq!(verdict(&[100.0], &[50.0], true, 0.10), Verdict::Ok);
        assert_eq!(verdict(&[100.0], &[91.0], false, 0.10), Verdict::Ok);
        assert!(matches!(
            verdict(&[100.0], &[89.0], false, 0.10),
            Verdict::Regressed(_)
        ));
        assert_eq!(verdict(&[], &[1.0], true, 0.10), Verdict::Unresolved(None));
        assert_eq!(
            verdict(&[0.0], &[1.0], true, 0.10),
            Verdict::Unresolved(None)
        );
        // Medians decide: 101 against 100 is fine however bad B's worst run was …
        assert_eq!(
            verdict(&[99.0, 100.0, 101.0], &[90.0, 101.0, 300.0], true, 0.10),
            Verdict::Ok
        );
        // … but when A's own runs spread wider than the bound, nothing is resolved.
        let noisy = [80.0, 95.0, 100.0, 105.0, 130.0];
        assert!(matches!(
            verdict(&noisy, &[100.0], true, 0.10),
            Verdict::Unresolved(Some(_))
        ));
        assert_eq!(verdict(&noisy, &[100.0], true, 0.50), Verdict::Ok);
    }

    #[test]
    fn any_increase_in_failures_is_a_regression() {
        assert_eq!(failures_verdict((0, 1000), (0, 900)), Verdict::Ok);
        assert_eq!(failures_verdict((2, 1000), (1, 1000)), Verdict::Ok);
        assert!(matches!(
            failures_verdict((0, 1000), (1, 100_000)),
            Verdict::Regressed(_)
        ));
        assert_eq!(failures_verdict((0, 0), (0, 10)), Verdict::Unresolved(None));
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .unwrap()
    }

    fn declared(list: &Json) -> Vec<(String, String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_code_reports() {
        let doc = benchmark_json();
        let of = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect()
        };
        assert_eq!(declared(doc.get("end_to_end").unwrap()), of(END_TO_END));
        assert_eq!(declared(doc.get("per_layer").unwrap()), of(PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        // Listed are the workloads that repeat within the bounds on the reference host (README,
        // Workloads): each is one of ours, under the same reason.
        assert!(workloads.len() >= 2);
        for listed in &workloads {
            assert!(ours.contains(listed), "{listed:?}");
        }
        assert_eq!(
            doc.get("paths").map(Json::to_string).as_deref(),
            Some("[\"benchmarks/e2e\"]")
        );
        for bound in bounds(&doc).unwrap() {
            assert!(bound.bound > 0.0 && bound.bound <= 0.25, "{}", bound.name);
        }
    }

    #[test]
    fn reports_round_trip_through_compare() {
        let reported = Reported {
            value: 100.0,
            samples: 5,
        };
        let defs: Vec<(MetricDef, Reported)> = END_TO_END.iter().map(|d| (*d, reported)).collect();
        let detail = detail_json(true, 10, 0, &defs);
        assert!(detail.contains("\"samples\":5") && detail.contains("\"better\":\"higher\""));
        let report = |end_to_end: &str, per_layer: &str| {
            let per_workload: Vec<String> = WORKLOADS
                .iter()
                .map(|w| {
                    format!(
                        "\"{}\":{{\"end_to_end\":{end_to_end},\"per_layer\":{per_layer}}}",
                        w.name
                    )
                })
                .collect();
            format!("{{\"workloads\":{{{}}}}}", per_workload.join(","))
        };
        let clean = [report(&detail, &detail)];
        let results = workload_results(&Json::parse(&clean[0]).unwrap()).unwrap();
        let cold = &results["cold_batch"];
        assert_eq!(cold.metrics["throughput_qps"], 100.0);
        assert_eq!((cold.failed, cold.attempted), (0, 20));
        let benchmark = benchmark_json().to_string();
        assert_eq!(compare(&benchmark, &clean, &clean), Ok(true));
        // The same timings, but B's traced run mismatched three answers.
        let failing = [report(&detail, &detail_json(false, 10, 3, &defs))];
        assert_eq!(compare(&benchmark, &clean, &failing), Ok(false));
        assert_eq!(compare(&benchmark, &failing, &clean), Ok(true));
        assert!(Json::parse(&meta_json(1, 2.5, Size::Smoke)).is_ok());
    }
}
