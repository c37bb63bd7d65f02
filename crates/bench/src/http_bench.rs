//! The open-loop HTTP latency harness: drives a real `urm-server` over loopback with Poisson
//! arrivals and reports per-phase tail latencies.
//!
//! Two experiments, all rows written to `BENCH_http.json` by the `http_bench` binary:
//!
//! * **Open-loop phases** — a precomputed [`urm_datagen::openloop`] schedule (cold phase, then
//!   a warm phase at double rate) is replayed against the server by one thread per simulated
//!   client, each sending `POST /query` at the scheduled instants *regardless of how previous
//!   requests are doing* (open-loop: a stalling server keeps receiving load, so queueing shows
//!   up in the tail).  Per phase: throughput and p50/p95/p99 latency, measured
//!   request-to-last-byte.
//! * **Byte identity** — every HTTP answer must render byte-identically to the same query
//!   answered by an in-process [`QueryService`] on an identically generated scenario, using
//!   the shared [`urm_server::wire::answer_json`] rendering.  The HTTP front door may not
//!   change a single answer byte.

use crate::experiments::{ExperimentRow, RowKind};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use urm_datagen::openloop::{schedule, Arrival, OpenLoopConfig, PhaseSpec};
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_server::wire::answer_json;
use urm_server::{AdmissionConfig, AdmissionController, HttpClient, Json, UrmServer};
use urm_service::{LatencySummary, QueryService, ServiceConfig};

/// Configuration of one harness run.
#[derive(Debug, Clone)]
pub struct HttpBenchConfig {
    /// Scenario scale for the open-loop phases.
    pub scale: usize,
    /// Possible mappings for the open-loop scenario.
    pub mappings: usize,
    /// Data-generation and schedule seed.
    pub seed: u64,
    /// Requests per open-loop phase.
    pub requests: usize,
    /// Cold-phase Poisson rate (requests/sec); the warm phase runs at double this.
    pub rate: f64,
    /// Simulated clients (each gets its own keep-alive connection and token bucket).
    pub clients: usize,
    /// Service worker threads of the in-process server.
    pub workers: usize,
    /// Drive an already-running server at this address instead of starting one in-process.
    /// The external server must serve an identically generated Excel scenario (same
    /// `--scale/--mappings/--seed`) or the byte-identity check will rightly fail.
    pub attach: Option<String>,
    /// Check HTTP answers byte-for-byte against an in-process replay.
    pub verify: bool,
}

impl Default for HttpBenchConfig {
    fn default() -> Self {
        HttpBenchConfig {
            scale: 20,
            mappings: 8,
            seed: 42,
            requests: 50,
            rate: 50.0,
            clients: 4,
            workers: 2,
            attach: None,
            verify: true,
        }
    }
}

fn scenario_config(config: &HttpBenchConfig) -> ScenarioConfig {
    ScenarioConfig {
        target: TargetSchemaKind::Excel,
        scale: config.scale,
        mappings: config.mappings,
        seed: config.seed,
    }
}

/// One completed open-loop request.
struct Sample {
    phase: usize,
    /// When the request was actually sent, relative to run start.
    sent: Duration,
    /// Request-to-last-byte latency.
    latency: Duration,
    label: String,
    /// The `"answer"` object of the response, rendered canonically.
    answer: String,
}

/// Replays the schedule against `addr`, one thread per client, open-loop.
fn drive(
    addr: SocketAddr,
    arrivals: &[Arrival],
    clients: usize,
    timeout: Duration,
) -> Result<Vec<Sample>, String> {
    let start = Instant::now();
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let mine: Vec<&Arrival> = arrivals.iter().filter(|a| a.client == client).collect();
                scope.spawn(move || -> Result<Vec<Sample>, String> {
                    let mut connection: Option<HttpClient> = None;
                    let mut samples = Vec::with_capacity(mine.len());
                    for arrival in mine {
                        // Open-loop: sleep until the scheduled instant, then send no matter
                        // what.  If we are already late (server pushback), send immediately —
                        // the delay surfaces as tail latency, which is the point.
                        let target = start + arrival.at;
                        let now = Instant::now();
                        if target > now {
                            std::thread::sleep(target - now);
                        }
                        let client_conn = match connection.as_mut() {
                            Some(c) => c,
                            None => connection.insert(
                                HttpClient::connect(addr, timeout)
                                    .map_err(|e| format!("client {client}: connect: {e}"))?,
                            ),
                        };
                        let body = format!("{{\"spec\":\"{}\"}}", arrival.entry.label);
                        let sent = start.elapsed();
                        let sent_at = Instant::now();
                        let response = match client_conn.request("POST", "/query", Some(&body)) {
                            Ok(response) => response,
                            Err(err) => {
                                // One reconnect per arrival: a keep-alive connection the
                                // server closed (e.g. timeout) is not a measurement failure.
                                connection = None;
                                let fresh =
                                    connection.insert(HttpClient::connect(addr, timeout).map_err(
                                        |e| format!("client {client}: reconnect after {err}: {e}"),
                                    )?);
                                fresh
                                    .request("POST", "/query", Some(&body))
                                    .map_err(|e| format!("client {client}: retry: {e}"))?
                            }
                        };
                        let latency = sent_at.elapsed();
                        if response.status != 200 {
                            return Err(format!(
                                "client {client}: '{}' answered {}: {}",
                                arrival.entry.label, response.status, response.body
                            ));
                        }
                        let doc = Json::parse(&response.body)
                            .map_err(|e| format!("client {client}: bad response JSON: {e}"))?;
                        let answer = doc
                            .get("answer")
                            .ok_or_else(|| format!("client {client}: response without answer"))?
                            .to_string();
                        samples.push(Sample {
                            phase: arrival.phase,
                            sent,
                            latency,
                            label: arrival.entry.label.clone(),
                            answer,
                        });
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    for result in results {
        samples.extend(result?);
    }
    Ok(samples)
}

/// Answers every distinct label in-process (a fresh service on an identically generated
/// scenario) and renders it with the same [`answer_json`] the server uses.
fn expected_answers(
    config: &HttpBenchConfig,
    arrivals: &[Arrival],
) -> Result<HashMap<String, String>, String> {
    let scenario = Scenario::generate(&scenario_config(config)).map_err(|e| e.to_string())?;
    let service = QueryService::new(ServiceConfig::default());
    let epoch = service.register_epoch(scenario.catalog, scenario.mappings);
    let mut expected = HashMap::new();
    for arrival in arrivals {
        if expected.contains_key(&arrival.entry.label) {
            continue;
        }
        let ticket = service
            .submit(epoch, arrival.entry.query.clone())
            .map_err(|e| e.to_string())?;
        service.flush();
        let response = ticket.wait().map_err(|e| e.to_string())?;
        expected.insert(
            arrival.entry.label.clone(),
            answer_json(&arrival.entry.label, &response.answer).to_string(),
        );
    }
    service.shutdown();
    Ok(expected)
}

fn phase_rows(phases: &[PhaseSpec], samples: &[Sample], rows: &mut Vec<ExperimentRow>) {
    for (index, phase) in phases.iter().enumerate() {
        let of_phase: Vec<&Sample> = samples.iter().filter(|s| s.phase == index).collect();
        if of_phase.is_empty() {
            continue;
        }
        let first_sent = of_phase.iter().map(|s| s.sent).min().unwrap();
        let last_done = of_phase.iter().map(|s| s.sent + s.latency).max().unwrap();
        let span = last_done.saturating_sub(first_sent);
        let latencies = LatencySummary::from_samples(of_phase.iter().map(|s| s.latency).collect());
        let throughput = if span.is_zero() {
            0.0
        } else {
            of_phase.len() as f64 / span.as_secs_f64()
        };
        rows.push(ExperimentRow {
            experiment: "http".into(),
            series: phase.name.clone(),
            x: "span".into(),
            kind: RowKind::Timing,
            time: span,
            source_operators: 0,
            answers: of_phase.len(),
            extra: None,
        });
        let ms = |d: Duration| d.as_secs_f64() * 1000.0;
        for (x, name, value) in [
            ("p50", "p50_ms", ms(latencies.p50)),
            ("p95", "p95_ms", ms(latencies.p95)),
            ("p99", "p99_ms", ms(latencies.p99)),
            ("throughput", "requests_per_sec", throughput),
            ("offered", "offered_per_sec", phase.rate_per_sec),
        ] {
            rows.push(ExperimentRow {
                experiment: "http".into(),
                series: phase.name.clone(),
                x: x.into(),
                kind: RowKind::Timing,
                time: Duration::ZERO,
                source_operators: 0,
                answers: 0,
                extra: Some((name.into(), value)),
            });
        }
    }
}

/// Runs the harness: open-loop phases (+ byte-identity check).
/// Returns `BENCH_http.json`-ready rows.
pub fn run(config: &HttpBenchConfig) -> Result<Vec<ExperimentRow>, String> {
    let mut openloop = OpenLoopConfig::excel_default(config.requests.max(1), config.rate);
    openloop.clients = config.clients.max(1);
    openloop.seed = config.seed;
    let arrivals = schedule(&openloop).map_err(|e| e.to_string())?;

    // An in-process server unless attached to an external one.
    let server = match &config.attach {
        Some(_) => None,
        None => {
            let scenario =
                Scenario::generate(&scenario_config(config)).map_err(|e| e.to_string())?;
            let service = QueryService::new(ServiceConfig {
                workers: config.workers.max(1),
                ..ServiceConfig::default()
            });
            let epoch = service.register_epoch(scenario.catalog, scenario.mappings);
            Some(
                UrmServer::start(
                    "127.0.0.1:0",
                    service,
                    vec![(TargetSchemaKind::Excel, epoch)],
                    AdmissionController::new(AdmissionConfig::default()),
                )
                .map_err(|e| format!("server start: {e}"))?,
            )
        }
    };
    let addr: SocketAddr = match (&server, &config.attach) {
        (Some(server), _) => server.addr(),
        (None, Some(attach)) => attach
            .parse()
            .map_err(|e| format!("bad --attach address '{attach}': {e}"))?,
        (None, None) => unreachable!(),
    };

    let samples = drive(
        addr,
        &arrivals,
        config.clients.max(1),
        Duration::from_secs(60),
    )?;
    let mut rows = Vec::new();
    phase_rows(&openloop.phases, &samples, &mut rows);

    if config.verify {
        let expected = expected_answers(config, &arrivals)?;
        let mut mismatches = 0usize;
        for sample in &samples {
            let want = expected
                .get(&sample.label)
                .ok_or_else(|| format!("no expected answer for '{}'", sample.label))?;
            if &sample.answer != want {
                mismatches += 1;
                if mismatches == 1 {
                    eprintln!(
                        "byte-identity mismatch for '{}':\n  http:       {}\n  in-process: {}",
                        sample.label, sample.answer, want
                    );
                }
            }
        }
        if mismatches > 0 {
            return Err(format!(
                "{mismatches}/{} HTTP answers differ from the in-process replay",
                samples.len()
            ));
        }
        rows.push(ExperimentRow {
            experiment: "http".into(),
            series: "identity".into(),
            x: "verified".into(),
            kind: RowKind::Timing,
            time: Duration::ZERO,
            source_operators: 0,
            answers: samples.len(),
            extra: Some(("verified_answers".into(), samples.len() as f64)),
        });
    }
    if let Some(server) = server {
        server.shutdown();
    }

    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_bench_smoke() {
        let rows = run(&HttpBenchConfig {
            scale: 4,
            mappings: 4,
            seed: 7,
            requests: 8,
            rate: 400.0,
            clients: 2,
            workers: 2,
            attach: None,
            verify: true,
        })
        .unwrap();
        let find = |series: &str, x: &str| {
            rows.iter()
                .find(|r| r.series == series && r.x == x)
                .unwrap_or_else(|| panic!("missing row {series}/{x}"))
        };
        // Both phases completed all their requests …
        assert_eq!(find("cold", "span").answers, 8);
        assert_eq!(find("warm", "span").answers, 8);
        assert!(find("cold", "p99").extra.as_ref().unwrap().1 >= 0.0);
        assert!(find("warm", "throughput").extra.as_ref().unwrap().1 > 0.0);
        // … and every answer was byte-identical to the in-process replay.
        assert_eq!(find("identity", "verified").extra.as_ref().unwrap().1, 16.0);
    }
}
