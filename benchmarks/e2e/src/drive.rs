//! The load: closed-loop callers over loopback HTTP, every reply checked byte for byte.

use crate::procfs::{self, ProcDelta};
use crate::workload::{request_order, Workload};
use crate::world::{answer_slice, batch_answers, ms, start_server, World};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use urm_server::{HttpClient, Json};
use urm_service::ServiceMetrics;

/// Generous: a reply that takes this long is a failed operation, not a slow one.
const HTTP_TIMEOUT: Duration = Duration::from_secs(60);
/// At most this many failures are described; the rest are only counted.
const FAILURES_KEPT: usize = 8;

pub fn connect(addr: SocketAddr) -> Result<HttpClient, String> {
    HttpClient::connect(addr, HTTP_TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))
}

pub fn query_body(spec: &str) -> String {
    format!("{{\"spec\":\"{spec}\"}}")
}

pub fn batch_request_body(specs: &[&str]) -> String {
    let quoted: Vec<String> = specs.iter().map(|s| format!("\"{s}\"")).collect();
    format!("{{\"specs\":[{}]}}", quoted.join(","))
}

/// How long one window of a `Queries` run is.  A run is cut into windows (a `ColdBatch` run
/// into its iterations) and `throughput_qps` is the median over them: the host's speed moves
/// by tens of percent for seconds at a time, and a stall then costs a few windows, not the
/// run's number.
pub const WINDOW: Duration = Duration::from_secs(1);

/// What a set of operations amounted to.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Send → last byte, per request (`Queries`) or per batch (`ColdBatch`), in ms.
    pub latencies_ms: Vec<f64>,
    /// Specs sent.
    pub attempted: u64,
    /// Specs not answered 200 with the expected bytes (non-200, mismatch, refused, I/O error).
    pub failed: u64,
    /// 429 responses among the failures.
    pub rejected: u64,
    pub bytes_out: u64,
    /// Specs answered correctly per second in each whole [`WINDOW`] of a `Queries` run (from
    /// the last reply before the window to the last reply in it), or in each cold iteration.
    pub window_qps: Vec<f64>,
    pub proc: ProcDelta,
    pub failures: Vec<String>,
    /// Peak resident set of each measured stretch (the high-water mark is reset at its start):
    /// the whole run of a `Queries` workload, each iteration of a `ColdBatch` one.
    pub peak_rss_mb: Vec<f64>,
}

impl Outcome {
    pub fn answered(&self) -> u64 {
        self.attempted - self.failed
    }

    fn fail(&mut self, specs: u64, what: String) {
        self.failed += specs;
        if self.failures.len() < FAILURES_KEPT {
            self.failures.push(what);
        }
    }
}

/// One `POST /query`, timed and checked against the spec's expected answer bytes; returns
/// when the reply ended and whether it was the expected one.
fn one_query(
    client: &mut HttpClient,
    spec: &str,
    body: &str,
    expected: &str,
    out: &mut Outcome,
) -> Result<(Instant, bool), String> {
    out.attempted += 1;
    let sent = Instant::now();
    let response = client
        .request("POST", "/query", Some(body))
        .map_err(|e| format!("'{spec}': {e}"))?;
    let ended = Instant::now();
    out.latencies_ms.push(ms(ended - sent));
    out.bytes_out += response.body.len() as u64;
    let ok = response.status == 200 && answer_slice(&response.body) == Some(expected);
    if response.status != 200 {
        out.rejected += u64::from(response.status == 429);
        out.fail(
            1,
            format!("'{spec}': HTTP {}: {}", response.status, response.body),
        );
    } else if !ok {
        out.fail(
            1,
            format!("'{spec}': answer differs from the verified bytes"),
        );
    }
    Ok((ended, ok))
}

/// One closed-loop caller cycles `POST /query` over the workload's specs for `run_for` (it
/// finishes the request it has in flight).  `expected[i]` is the answer of `specs[i]`.
pub fn drive_queries(
    addr: SocketAddr,
    workload: &Workload,
    seed: u64,
    expected: &[String],
    run_for: Duration,
) -> Result<Outcome, String> {
    let bodies: Vec<String> = workload.specs.iter().map(|s| query_body(s)).collect();
    let order = request_order(workload, seed);
    let mut connection = connect(addr)?;
    let mut out = Outcome::default();
    procfs::reset_peak_rss();
    let before = procfs::snapshot();
    let started = Instant::now();
    // The window being filled (the `windows`-th): when the one before it ended, and the specs
    // answered since.  The reply that crosses a window's end closes it and is counted in it.
    let (mut window_from, mut window_answered, mut windows) = (started, 0u64, 1u32);
    for &i in order.iter().cycle() {
        if started.elapsed() >= run_for {
            break;
        }
        let (spec, body) = (workload.specs[i], &bodies[i]);
        let (ended, ok) = one_query(&mut connection, spec, body, &expected[i], &mut out)?;
        window_answered += u64::from(ok);
        if ended >= started + WINDOW * windows {
            let wall = (ended - window_from).as_secs_f64();
            out.window_qps.push(window_answered as f64 / wall);
            (window_from, window_answered) = (ended, 0);
            windows = ((ended - started).as_secs_f64() / WINDOW.as_secs_f64()) as u32 + 1;
        }
    }
    if out.window_qps.is_empty() {
        // A run shorter than one window (`--quick`, the self-test) is one window.
        out.window_qps
            .push(window_answered as f64 / started.elapsed().as_secs_f64());
    }
    out.proc = procfs::snapshot().since(&before);
    out.peak_rss_mb = vec![procfs::peak_rss_mb()];
    Ok(out)
}

/// One cold iteration's result: its timed batch plus the fresh server's final counters.
pub struct ColdIteration {
    pub latency: Duration,
    /// Peak resident set while the batch was answered (high-water mark reset before it).
    pub peak_rss_mb: f64,
    pub proc: ProcDelta,
    pub body: String,
    pub status: u16,
    pub metrics: ServiceMetrics,
    pub register: Duration,
}

/// Outside the timer: cold catalogs, a new service and server, a connection.  Inside: one
/// `POST /batch` to the last byte.  Then the server is shut down.
pub fn cold_iteration(
    world: &World,
    workload: &Workload,
    request_body: &str,
) -> Result<ColdIteration, String> {
    let (server, register) = start_server(world, workload, |t| world.cold_catalog(t))?;
    let mut client = connect(server.addr())?;
    procfs::reset_peak_rss();
    let before = procfs::snapshot();
    let sent = Instant::now();
    let response = client
        .request("POST", "/batch", Some(request_body))
        .map_err(|e| format!("POST /batch: {e}"))?;
    let latency = sent.elapsed();
    let proc = procfs::snapshot().since(&before);
    let peak_rss_mb = procfs::peak_rss_mb();
    let metrics = server.metrics();
    drop(client);
    server.shutdown();
    Ok(ColdIteration {
        latency,
        peak_rss_mb,
        proc,
        body: response.body,
        status: response.status,
        metrics,
        register,
    })
}

/// The counters every cold iteration must repeat exactly; a difference means some cache
/// survived from one iteration into the next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdCounters {
    pub dag_nodes_executed: u64,
    pub queries_evaluated: u64,
    pub batches: u64,
}

impl ColdCounters {
    pub fn of(metrics: &ServiceMetrics) -> Self {
        ColdCounters {
            dag_nodes_executed: metrics.dag_nodes_executed,
            queries_evaluated: metrics.queries_evaluated,
            batches: metrics.batches,
        }
    }
}

/// The cold-iteration guard: nothing may have been answered from an earlier iteration.
pub fn check_cold(
    workload: &Workload,
    metrics: &ServiceMetrics,
    first: &ColdCounters,
) -> Result<(), String> {
    let leak = |what: String| {
        Err(format!(
            "{}: iterations are not cold: {what}",
            workload.name
        ))
    };
    if metrics.epoch_bind_hits != 0 || metrics.answer_cache_hits != 0 {
        return leak(format!(
            "epoch_bind_hits {} answer_cache_hits {}",
            metrics.epoch_bind_hits, metrics.answer_cache_hits
        ));
    }
    let now = ColdCounters::of(metrics);
    if now != *first {
        return leak(format!("{now:?}, first iteration {first:?}"));
    }
    if workload.memory_budget.is_some() && metrics.bytes_spilled == 0 {
        return leak("nothing spilled under the memory budget".into());
    }
    Ok(())
}

/// The labels of the answers in which a batch reply departs from the verified one.
fn differing_specs(workload: &Workload, body: &str, expected_body: &str) -> String {
    match (batch_answers(body), batch_answers(expected_body)) {
        (Ok(got), Ok(expected)) if got.len() == expected.len() => {
            let labels: Vec<String> = got
                .iter()
                .zip(&expected)
                .filter(|(g, e)| g != e)
                .filter_map(|(_, e)| {
                    Json::parse(e)
                        .ok()?
                        .get("label")?
                        .as_str()
                        .map(String::from)
                })
                .collect();
            format!("answers of {}", labels.join(", "))
        }
        _ => format!("the {} answers", workload.specs.len()),
    }
}

/// Repeats [`cold_iteration`] until `run_for` of wall time has passed (at least once), checking
/// each reply against `expected_body` and each iteration's counters against `first`.
pub fn drive_cold(
    world: &World,
    workload: &Workload,
    request_body: &str,
    expected_body: &str,
    first: &ColdCounters,
    run_for: Duration,
    mut each: impl FnMut(&ColdIteration),
) -> Result<Outcome, String> {
    let specs = workload.specs.len() as u64;
    let mut out = Outcome::default();
    let started = Instant::now();
    while out.attempted == 0 || started.elapsed() < run_for {
        let iteration = cold_iteration(world, workload, request_body)?;
        check_cold(workload, &iteration.metrics, first)?;
        out.attempted += specs;
        out.latencies_ms.push(ms(iteration.latency));
        out.bytes_out += iteration.body.len() as u64;
        out.proc.add(&iteration.proc);
        out.peak_rss_mb.push(iteration.peak_rss_mb);
        let ok = iteration.status == 200 && iteration.body == expected_body;
        let answered = if ok { specs } else { 0 };
        out.window_qps
            .push(answered as f64 / iteration.latency.as_secs_f64());
        if iteration.status != 200 {
            out.rejected += u64::from(iteration.status == 429) * specs;
            out.fail(
                specs,
                format!("batch: HTTP {}: {}", iteration.status, iteration.body),
            );
        } else if !ok {
            let differing = differing_specs(workload, &iteration.body, expected_body);
            out.fail(
                specs,
                format!("batch: {differing} differ from the verified bytes"),
            );
        }
        each(&iteration);
    }
    Ok(out)
}
