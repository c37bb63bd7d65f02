//! `urm-cli` — replay a query workload through the `urm-service` batch server, or through any
//! of the paper's five sequential algorithms.
//!
//! Loads (or synthesises) a workload, generates one `datagen` scenario per target schema the
//! workload touches, and replays the workload one or more times.  Under the default
//! `--algorithm service` the queries go through the batch server (per-epoch batching, batch
//! DAG with parallel scheduling, answer cache) and per-batch metrics are printed: latency,
//! distinct DAG nodes, dedup and cache hit rates.  Under `--algorithm basic|e-basic|e-mqo|
//! q-sharing|o-sharing` every query is evaluated sequentially with that algorithm, printing
//! the same metrics table for apples-to-apples comparison.
//!
//! ```text
//! cargo run --release -p urm-service --bin urm-cli -- --queries 50 --replays 2 --verify
//! cargo run --release -p urm-service --bin urm-cli -- --workload workloads/joinheavy.txt \
//!     --algorithm q-sharing
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use urm_core::{evaluate, Algorithm, Strategy};
use urm_datagen::replay::{parse_workload, synthetic_workload, WorkloadEntry};
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_service::{EpochId, QueryService, ServiceConfig, Ticket};

/// What executes the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The concurrent batch service (DAG scheduler, answer cache).
    Service,
    /// One of the paper's sequential algorithms.
    Sequential(Algorithm),
}

fn parse_mode(name: &str) -> Result<Mode, String> {
    match name.to_ascii_lowercase().as_str() {
        "service" => Ok(Mode::Service),
        "basic" => Ok(Mode::Sequential(Algorithm::Basic)),
        "e-basic" | "ebasic" => Ok(Mode::Sequential(Algorithm::EBasic)),
        "e-mqo" | "emqo" => Ok(Mode::Sequential(Algorithm::EMqo)),
        "q-sharing" | "qsharing" => Ok(Mode::Sequential(Algorithm::QSharing)),
        "o-sharing" | "osharing" | "o-sharing-sef" => {
            Ok(Mode::Sequential(Algorithm::OSharing(Strategy::Sef)))
        }
        other => Err(format!(
            "unknown algorithm '{other}' (expected service, basic, e-basic, e-mqo, q-sharing or \
             o-sharing)"
        )),
    }
}

struct Args {
    workload: Option<String>,
    algorithm: Mode,
    queries: usize,
    replays: usize,
    scale: usize,
    mappings: usize,
    seed: u64,
    workers: usize,
    dag_workers: usize,
    batch_size: usize,
    answer_cache: usize,
    memory_budget: Option<usize>,
    trace: Option<String>,
    verify: bool,
}

impl Default for Args {
    fn default() -> Self {
        let defaults = ServiceConfig::default();
        Args {
            workload: None,
            algorithm: Mode::Service,
            queries: 50,
            replays: 2,
            scale: 20,
            mappings: 30,
            seed: 42,
            workers: 4,
            dag_workers: defaults.dag_workers,
            batch_size: 64,
            answer_cache: 1024,
            memory_budget: defaults.memory_budget,
            trace: None,
            verify: false,
        }
    }
}

const USAGE: &str = "\
urm-cli — replay a query workload through the urm-service batch server or a sequential algorithm

USAGE:
  urm-cli [OPTIONS]

OPTIONS:
  --workload FILE     replay the workload file (Q1..Q10, sel:N, prod:N, join:N; 'Q4 x10' repeats)
  --algorithm A       service (default), basic, e-basic, e-mqo, q-sharing or o-sharing
  --queries N         synthesise an N-query workload instead (default 50)
  --replays R         how many times to replay the workload (default 2)
  --scale N           scenario scale factor (default 20)
  --mappings H        possible mappings per scenario (default 30)
  --seed S            data-generation seed (default 42)
  --workers W         service worker threads (default 4)
  --dag-workers D     intra-batch DAG scheduler threads (default: half the host threads, 1–4;
                      a run never uses more than the CPUs the process may use)
  --batch-size B      max queries per batch (default 64)
  --answer-cache N    service answer cache capacity (default 1024; 0 disables it)
  --memory-budget B   byte budget for materialised relations, per epoch (default:
                      unbudgeted); under a budget, pinned results spill to
                      disk segments and oversized hash joins take the grace (partitioned)
                      path — answers are byte-identical
  --trace FILE        trace every batch and write the merged span trees to FILE as Chrome
                      trace-event JSON (load in chrome://tracing or Perfetto); service mode
                      only.  The service keeps a bounded ring of recent traces, so very long
                      runs keep the newest ones
  --verify            check every answer against an independent sequential algorithm
                      (o-sharing(SEF); basic when --algorithm is o-sharing itself)
  --help              print this help
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--algorithm" => args.algorithm = parse_mode(&value("--algorithm")?)?,
            "--queries" => args.queries = parse_num(&value("--queries")?)?,
            "--replays" => args.replays = parse_num(&value("--replays")?)?,
            "--scale" => args.scale = parse_num(&value("--scale")?)?,
            "--mappings" => args.mappings = parse_num(&value("--mappings")?)?,
            "--seed" => args.seed = parse_num(&value("--seed")?)? as u64,
            "--workers" => args.workers = parse_num(&value("--workers")?)?,
            "--dag-workers" => args.dag_workers = parse_num(&value("--dag-workers")?)?,
            "--batch-size" => args.batch_size = parse_num(&value("--batch-size")?)?,
            "--answer-cache" => args.answer_cache = parse_num(&value("--answer-cache")?)?,
            "--memory-budget" => args.memory_budget = Some(parse_num(&value("--memory-budget")?)?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--verify" => args.verify = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("invalid number '{s}'"))
}

/// Verifies responses against memoised references computed with an *independent* algorithm.
struct Verifier {
    reference_algorithm: Algorithm,
    references: BTreeMap<String, urm_core::ProbabilisticAnswer>,
    failures: usize,
}

impl Verifier {
    /// A verifier whose reference algorithm is guaranteed to be a different code path from the
    /// one under test: o-sharing(SEF) by default (fastest sequential algorithm), falling back
    /// to `basic` when the evaluated mode *is* o-sharing — self-verification would be vacuous.
    fn for_mode(mode: Mode) -> Self {
        let reference_algorithm = match mode {
            Mode::Sequential(Algorithm::OSharing(_)) => Algorithm::Basic,
            _ => Algorithm::OSharing(Strategy::Sef),
        };
        Verifier {
            reference_algorithm,
            references: BTreeMap::new(),
            failures: 0,
        }
    }

    fn check(
        &mut self,
        replay: usize,
        entry: &WorkloadEntry,
        scenario: &Scenario,
        answer: &urm_core::ProbabilisticAnswer,
    ) {
        // Memoise references per distinct query: sequential evaluation is the very cost the
        // faster paths amortise, so don't pay it once per duplicate per replay.
        let key = format!("{}::{}", entry.target, entry.query);
        let reference = self.references.entry(key).or_insert_with(|| {
            evaluate(
                &entry.query,
                &scenario.mappings,
                &scenario.catalog,
                self.reference_algorithm,
            )
            .expect("sequential evaluation")
            .answer
        });
        if !reference.approx_eq(answer, 1e-9) {
            self.failures += 1;
            eprintln!(
                "VERIFY FAIL (replay {replay}): {} disagrees with sequential {}",
                entry.label,
                self.reference_algorithm.name()
            );
        }
    }

    fn report(&self) {
        println!(
            "  verify: {}",
            if self.failures == 0 {
                format!(
                    "all answers match sequential {}",
                    self.reference_algorithm.name()
                )
            } else {
                "FAILURES".to_string()
            }
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    // Load or synthesise the workload.
    let workload: Vec<WorkloadEntry> = match &args.workload {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("error: cannot read workload '{path}': {err}");
                    return ExitCode::FAILURE;
                }
            };
            match parse_workload(&text) {
                Ok(entries) => entries,
                Err(err) => {
                    eprintln!("error: bad workload '{path}': {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => synthetic_workload(args.queries, None),
    };
    if workload.is_empty() {
        eprintln!("error: workload is empty");
        return ExitCode::FAILURE;
    }

    // One scenario per target schema the workload touches, over one source instance.
    let targets: Vec<TargetSchemaKind> = TargetSchemaKind::all()
        .into_iter()
        .filter(|&kind| workload.iter().any(|e| e.target == kind))
        .collect();
    let names: Vec<String> = targets.iter().map(ToString::to_string).collect();
    eprintln!(
        "generating scenarios: targets={} scale={} mappings={} seed={} …",
        names.join(","),
        args.scale,
        args.mappings,
        args.seed
    );
    let config = ScenarioConfig {
        scale: args.scale,
        mappings: args.mappings,
        seed: args.seed,
        ..ScenarioConfig::default()
    };
    let scenarios: BTreeMap<String, Scenario> =
        match Scenario::generate_per_target(&config, &targets) {
            Ok(scenarios) => names.into_iter().zip(scenarios).collect(),
            Err(err) => {
                eprintln!("error: scenario generation failed: {err}");
                return ExitCode::FAILURE;
            }
        };

    match args.algorithm {
        Mode::Service => run_service(&args, &workload, &scenarios),
        Mode::Sequential(algorithm) => run_algorithm(&args, algorithm, &workload, &scenarios),
    }
}

fn run_service(
    args: &Args,
    workload: &[WorkloadEntry],
    scenarios: &BTreeMap<String, Scenario>,
) -> ExitCode {
    let service = QueryService::new(ServiceConfig {
        workers: args.workers,
        batch_max: args.batch_size,
        dag_workers: args.dag_workers,
        answer_cache_capacity: args.answer_cache,
        // --trace FILE traces every batch (sample rate 1); otherwise tracing stays off.
        trace_sample: usize::from(args.trace.is_some()),
        memory_budget: args.memory_budget,
        ..ServiceConfig::default()
    });
    let epochs: BTreeMap<String, EpochId> = scenarios
        .iter()
        .map(|(name, scenario)| {
            let epoch = service.register_epoch(scenario.catalog.clone(), scenario.mappings.clone());
            (name.clone(), epoch)
        })
        .collect();

    println!(
        "workload: {} queries over {} epoch(s); algorithm=service replays={} batch-size={} \
         workers={} dag-workers={} memory-budget={}",
        workload.len(),
        epochs.len(),
        args.replays,
        args.batch_size,
        args.workers,
        args.dag_workers,
        args.memory_budget
            .map_or_else(|| "off".to_string(), |b| format!("{b}B")),
    );

    let mut verifier = Verifier::for_mode(Mode::Service);
    let mut reported_batches = 0usize;
    for replay in 1..=args.replays.max(1) {
        let before = service.metrics();
        let start = Instant::now();

        let tickets: Vec<(usize, Ticket)> = workload
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let epoch = epochs[&entry.target.to_string()];
                let ticket = service
                    .submit(epoch, entry.query.clone())
                    .expect("registered epoch");
                (i, ticket)
            })
            .collect();
        service.flush();
        let responses: Vec<_> = tickets
            .into_iter()
            .map(|(i, t)| (i, t.wait().expect("service answered")))
            .collect();
        let elapsed = start.elapsed();
        let after = service.metrics();

        println!(
            "\n== replay {replay} ({:.1} ms) ==",
            elapsed.as_secs_f64() * 1000.0
        );
        let mut replay_latencies: Vec<Duration> = Vec::new();
        for report in service.reports().iter().skip(reported_batches) {
            reported_batches += 1;
            let p = report.latency_percentiles;
            println!(
                "  batch#{:<3} epoch#{:<2} queries={:<3} evaluated={:<3} cache-served={:<3} \
                 dag-nodes={:<4} deduped={:<4} epoch-reuse={:<4} bind-hits={:<4} peak-par={} \
                 ops={} latency={:.1}ms p50={:.1}ms p95={:.1}ms p99={:.1}ms",
                report.id,
                report.epoch,
                report.queries,
                report.evaluated,
                report.served_from_cache,
                report.run.nodes_executed,
                report.run.plan_hits(),
                report.run.results_reused,
                report.run.bind_hits,
                report.run.peak_parallelism,
                report.exec.source_operators(),
                report.latency.as_secs_f64() * 1000.0,
                p.p50.as_secs_f64() * 1000.0,
                p.p95.as_secs_f64() * 1000.0,
                p.p99.as_secs_f64() * 1000.0,
            );
        }
        // Per-replay per-query percentiles over the evaluated queries (answer-cache hits
        // record no evaluation time), directly comparable to http_bench's per-phase numbers.
        replay_latencies.extend(
            responses
                .iter()
                .map(|(_, r)| r.metrics.total_time)
                .filter(|t| !t.is_zero()),
        );
        let replay_summary = urm_service::LatencySummary::from_samples(replay_latencies);
        println!(
            "  per-query latency: p50={:.2}ms p95={:.2}ms p99={:.2}ms",
            replay_summary.p50.as_secs_f64() * 1000.0,
            replay_summary.p95.as_secs_f64() * 1000.0,
            replay_summary.p99.as_secs_f64() * 1000.0,
        );
        println!(
            "  answer-cache hits: {} | evaluated: {} | shared DAG nodes reused: {} | operators: {}",
            after.answer_cache_hits - before.answer_cache_hits,
            after.queries_evaluated - before.queries_evaluated,
            after.plan_cache_hits - before.plan_cache_hits,
            after.exec.source_operators() - before.exec.source_operators(),
        );

        if args.verify {
            for (i, response) in &responses {
                let entry = &workload[*i];
                let scenario = &scenarios[&entry.target.to_string()];
                verifier.check(replay, entry, scenario, &response.answer);
            }
            verifier.report();
        }
    }

    let metrics = service.metrics();
    println!(
        "\ntotals: submitted={} evaluated={} batches={} deduped={} \
         answer-cache hit rate={:.0}% dag-dedup rate={:.0}% operators={}",
        metrics.queries_submitted,
        metrics.queries_evaluated,
        metrics.batches,
        metrics.batch_deduped,
        metrics.answer_hit_rate() * 100.0,
        metrics.plan_hit_rate() * 100.0,
        metrics.exec.source_operators(),
    );
    println!(
        "dag: {} distinct nodes executed, {} operator insertions deduplicated, peak parallelism {}",
        metrics.dag_nodes_executed, metrics.plan_cache_hits, metrics.dag_peak_parallelism,
    );
    println!(
        "epoch-dag: {} node executions skipped ({:.0}% reuse rate), {} rebinds skipped",
        metrics.epoch_results_reused,
        metrics.epoch_reuse_rate() * 100.0,
        metrics.epoch_bind_hits,
    );
    println!(
        "executor: {:.0} rows/sec, {} rows served zero-copy (shared views)",
        metrics.rows_per_second(),
        metrics.exec.rows_shared,
    );
    println!(
        "columnar: {} rows produced by vectorized kernels",
        metrics.exec.columnar_rows,
    );
    match args.memory_budget {
        Some(budget) => println!(
            "spill: budget={budget} bytes, {} bytes spilled ({} raw → {} encoded segment bytes), \
             {} reloads, {} grace partitions",
            metrics.exec.bytes_spilled,
            metrics.exec.segment_bytes_raw,
            metrics.exec.segment_bytes_encoded,
            metrics.exec.spill_reloads,
            metrics.exec.grace_partitions,
        ),
        None => println!("spill: n/a (no --memory-budget)"),
    }
    if let Some(path) = &args.trace {
        let traces = service.finished_traces();
        let spans: usize = traces.iter().map(|t| t.spans().len()).sum();
        match std::fs::write(path, urm_service::merge_chrome_json(&traces)) {
            Ok(()) => println!(
                "trace: {} trace(s), {spans} spans written to {path} (chrome://tracing)",
                traces.len()
            ),
            Err(err) => {
                eprintln!("error: cannot write trace '{path}': {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    service.shutdown();

    if verifier.failures > 0 {
        eprintln!("error: {} verification failure(s)", verifier.failures);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_algorithm(
    args: &Args,
    algorithm: Algorithm,
    workload: &[WorkloadEntry],
    scenarios: &BTreeMap<String, Scenario>,
) -> ExitCode {
    if args.memory_budget.is_some() {
        eprintln!(
            "warning: --memory-budget applies to --algorithm service only; the sequential \
             algorithms run unbudgeted"
        );
    }
    println!(
        "workload: {} queries over {} scenario(s); algorithm={} replays={}",
        workload.len(),
        scenarios.len(),
        algorithm.name(),
        args.replays,
    );

    let mut verifier = Verifier::for_mode(Mode::Sequential(algorithm));
    let mut total_ops = 0u64;
    let mut total_evaluated = 0u64;
    let mut total_exec = Duration::ZERO;
    let mut total_tuples = 0u64;
    let mut total_shared_hits = 0u64;
    for replay in 1..=args.replays.max(1) {
        let start = Instant::now();
        let mut replay_ops = 0u64;
        let mut replay_hits = 0u64;
        for entry in workload {
            let scenario = &scenarios[&entry.target.to_string()];
            let eval = match evaluate(
                &entry.query,
                &scenario.mappings,
                &scenario.catalog,
                algorithm,
            ) {
                Ok(eval) => eval,
                Err(err) => {
                    eprintln!(
                        "error: {} failed on {}: {err}",
                        algorithm.name(),
                        entry.label
                    );
                    return ExitCode::FAILURE;
                }
            };
            replay_ops += eval.metrics.source_operators();
            replay_hits += eval.metrics.shared_plan_hits;
            total_exec += eval.metrics.evaluation_time();
            total_tuples += eval.metrics.exec.tuples_read + eval.metrics.exec.tuples_output;
            if args.verify {
                verifier.check(replay, entry, scenario, &eval.answer);
            }
        }
        let elapsed = start.elapsed();
        total_ops += replay_ops;
        total_shared_hits += replay_hits;
        total_evaluated += workload.len() as u64;

        println!(
            "\n== replay {replay} ({:.1} ms) ==",
            elapsed.as_secs_f64() * 1000.0
        );
        println!(
            "  evaluated: {} | shared DAG nodes reused: {replay_hits} | operators: {replay_ops}",
            workload.len(),
        );
        if args.verify {
            verifier.report();
        }
    }

    println!(
        "\ntotals: submitted={} evaluated={} batches=0 deduped=0 \
         answer-cache hit rate=0% dag-dedup rate={:.0}% operators={}",
        total_evaluated,
        total_evaluated,
        if total_shared_hits + total_ops == 0 {
            0.0
        } else {
            total_shared_hits as f64 / (total_shared_hits + total_ops) as f64 * 100.0
        },
        total_ops,
    );
    println!("epoch-dag: n/a (sequential algorithms evaluate query by query)");
    println!(
        "executor: {:.0} rows/sec, sequential {} evaluation",
        if total_exec.as_secs_f64() == 0.0 {
            0.0
        } else {
            total_tuples as f64 / total_exec.as_secs_f64()
        },
        algorithm.name(),
    );

    if verifier.failures > 0 {
        eprintln!("error: {} verification failure(s)", verifier.failures);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
