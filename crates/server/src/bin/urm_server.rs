//! `urm-server` — serve URM probabilistic queries over HTTP.
//!
//! Generates one `urm-datagen` scenario per requested target schema, registers each as a
//! service epoch and serves them until the process is killed (CI drives a clean stop by
//! closing its clients and sending SIGTERM; the drain logic lives in the library and is
//! exercised by the tests and `http_bench`, which own their server handle).
//!
//! ```text
//! cargo run --release -p urm-server --bin urm-server -- --addr 127.0.0.1:7171 --scale 20
//! curl -s http://127.0.0.1:7171/healthz
//! curl -s -X POST http://127.0.0.1:7171/query -d '{"spec": "Q4"}'
//! curl -s -X POST http://127.0.0.1:7171/batch -d '{"specs": ["Q1", "join:3"]}'
//! curl -s http://127.0.0.1:7171/metrics        # Prometheus text exposition
//! curl -s http://127.0.0.1:7171/metrics.json   # JSON snapshot
//! curl -s http://127.0.0.1:7171/debug/traces   # recent traces (X-Trace-Id / --trace-sample)
//! ```

use std::process::ExitCode;
use std::time::Duration;
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_server::{AdmissionConfig, AdmissionController, UrmServer};
use urm_service::{QueryService, ServiceConfig};

struct Args {
    addr: String,
    targets: Vec<TargetSchemaKind>,
    scale: usize,
    mappings: usize,
    seed: u64,
    workers: usize,
    dag_workers: usize,
    batch_size: usize,
    trace_sample: usize,
    memory_budget: Option<usize>,
    queue_capacity: usize,
    burst: f64,
    refill_per_sec: f64,
    max_body_bytes: usize,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
}

impl Default for Args {
    fn default() -> Self {
        let service = ServiceConfig::default();
        let admission = AdmissionConfig::default();
        Args {
            addr: "127.0.0.1:7171".into(),
            targets: vec![TargetSchemaKind::Excel],
            scale: 20,
            mappings: 30,
            seed: 42,
            workers: 4,
            dag_workers: service.dag_workers,
            batch_size: 64,
            trace_sample: service.trace_sample,
            memory_budget: service.memory_budget,
            queue_capacity: admission.queue_capacity,
            burst: admission.burst,
            refill_per_sec: admission.refill_per_sec,
            max_body_bytes: admission.max_body_bytes,
            read_timeout_ms: admission.read_timeout.as_millis() as u64,
            write_timeout_ms: admission.write_timeout.as_millis() as u64,
        }
    }
}

const USAGE: &str = "\
urm-server — serve URM probabilistic queries over HTTP

USAGE:
  urm-server [OPTIONS]

OPTIONS:
  --addr A:P          listen address (default 127.0.0.1:7171; port 0 picks a free port)
  --targets LIST      comma-separated target schemas to serve: excel,noris,paragon
                      (default excel; each gets its own mappings and epoch over
                      one generated source instance)
  --scale N           scenario scale factor (default 20)
  --mappings H        possible mappings per scenario (default 30)
  --seed S            data-generation seed (default 42)
  --workers W         service worker threads (default 4)
  --dag-workers D     intra-batch DAG scheduler threads (default: half the host threads, 1–4;
                      a run never uses more than the CPUs the process may use)
  --batch-size B      max queries per service batch (default 64)
  --memory-budget B   per-epoch byte budget for materialised relations (default: unbudgeted)
  --trace-sample N    trace every Nth batch (default 0 = off; requests carrying an
                      X-Trace-Id header are always traced — see GET /debug/traces)
  --queue-capacity N  max admitted-but-unanswered *cost units*, service-wide (default 8192;
                      each query is charged its estimated evaluation cost, at least 1)
  --burst N           per-client token-bucket capacity (default 256)
  --refill N          per-client token refill rate, queries/sec (default 512)
  --max-body N        max request-body bytes (default 1048576)
  --read-timeout MS   socket read timeout in ms — the slow-loris bound (default 10000)
  --write-timeout MS  socket write timeout in ms (default 10000)
  --help              print this help
";

fn parse_targets(list: &str) -> Result<Vec<TargetSchemaKind>, String> {
    list.split(',')
        .map(|name| match name.trim().to_ascii_lowercase().as_str() {
            "excel" => Ok(TargetSchemaKind::Excel),
            "noris" => Ok(TargetSchemaKind::Noris),
            "paragon" => Ok(TargetSchemaKind::Paragon),
            other => Err(format!("unknown target schema '{other}'")),
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--targets" => args.targets = parse_targets(&value("--targets")?)?,
            "--scale" => args.scale = parse_num(&value("--scale")?)?,
            "--mappings" => args.mappings = parse_num(&value("--mappings")?)?,
            "--seed" => args.seed = parse_num(&value("--seed")?)? as u64,
            "--workers" => args.workers = parse_num(&value("--workers")?)?,
            "--dag-workers" => args.dag_workers = parse_num(&value("--dag-workers")?)?,
            "--batch-size" => args.batch_size = parse_num(&value("--batch-size")?)?,
            "--memory-budget" => args.memory_budget = Some(parse_num(&value("--memory-budget")?)?),
            "--trace-sample" => args.trace_sample = parse_num(&value("--trace-sample")?)?,
            "--queue-capacity" => args.queue_capacity = parse_num(&value("--queue-capacity")?)?,
            "--burst" => args.burst = parse_num(&value("--burst")?)? as f64,
            "--refill" => args.refill_per_sec = parse_num(&value("--refill")?)? as f64,
            "--max-body" => args.max_body_bytes = parse_num(&value("--max-body")?)?,
            "--read-timeout" => args.read_timeout_ms = parse_num(&value("--read-timeout")?)? as u64,
            "--write-timeout" => {
                args.write_timeout_ms = parse_num(&value("--write-timeout")?)? as u64;
            }
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let service = QueryService::new(ServiceConfig {
        workers: args.workers,
        batch_max: args.batch_size,
        dag_workers: args.dag_workers,
        trace_sample: args.trace_sample,
        memory_budget: args.memory_budget,
        ..ServiceConfig::default()
    });
    let targets: Vec<String> = args.targets.iter().map(ToString::to_string).collect();
    eprintln!(
        "generating scenarios: targets={} scale={} mappings={} seed={} …",
        targets.join(","),
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
    let scenarios = match Scenario::generate_per_target(&config, &args.targets) {
        Ok(scenarios) => scenarios,
        Err(err) => {
            eprintln!("error: scenario generation failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    let epochs = scenarios
        .into_iter()
        .map(|s| {
            let epoch = service.register_epoch(s.catalog, s.mappings);
            (s.config.target, epoch)
        })
        .collect();

    let admission = AdmissionController::new(AdmissionConfig {
        queue_capacity: args.queue_capacity,
        burst: args.burst,
        refill_per_sec: args.refill_per_sec,
        max_body_bytes: args.max_body_bytes,
        read_timeout: Duration::from_millis(args.read_timeout_ms),
        write_timeout: Duration::from_millis(args.write_timeout_ms),
        retry_after_secs: 1,
    });
    let server = match UrmServer::start(&args.addr, service, epochs, admission) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("error: cannot bind {}: {err}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    // The line CI greps for; also how scripts discover the port when --addr ends in :0.
    println!("urm-server listening on http://{}", server.addr());

    // Serve until killed.  (Library users — tests, http_bench — call `shutdown()` for the
    // draining stop; a standalone binary has no portable signal handling without deps, so the
    // accept thread simply runs until the process exits.)
    loop {
        std::thread::park();
    }
}
