//! Set-up (scenarios, oracle, first server start, warm-up) and the untraced timed run that all
//! end-to-end metrics come from.

use crate::drive::{
    batch_request_body, check_cold, cold_iteration, connect, drive_cold, drive_queries, query_body,
    ColdCounters, ColdIteration, Outcome,
};
use crate::metrics::{Metrics, END_TO_END};
use crate::stats::{median, percentile, samples_beyond, sorted};
use crate::workload::{Shape, Size, SplitMix, Workload};
use crate::world::{answer_slice, batch_answers, ms, start_server, Oracle, World};
use std::time::{Duration, Instant};
use urm_server::UrmServer;

/// Passes over the spec list before a `Queries` run is timed; the first is the one checked
/// against the oracle.
const WARMUP_ROUNDS: usize = 3;
/// Cold iterations before a `ColdBatch` run is timed: one checked against the oracle, one to
/// show that a second iteration repeats its bytes and counters.  (Every timed iteration is as
/// cold as these; they only let the process's heap reach its working size.)
const WARMUP_ITERATIONS: usize = 2;

/// How long each part of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub scenario_ms: f64,
    pub oracle_ms: f64,
    pub register_ms: f64,
    pub total_s: f64,
}

/// A workload set up and warmed, ready for the timed run.
pub struct Ready {
    pub world: World,
    /// The long-lived server of a `Queries` workload.
    pub server: Option<UrmServer>,
    /// The verified answer bytes of `workload.specs[i]`.
    pub expected: Vec<String>,
    /// `ColdBatch`: the specs in this seed's order, the request that asks for them, the
    /// verified reply, and the counters every iteration must repeat.
    pub batch_specs: Vec<&'static str>,
    pub request_body: String,
    pub expected_body: String,
    pub cold_counters: Option<ColdCounters>,
    pub times: SetupTimes,
}

pub fn setup(workload: &'static Workload, seed: u64, size: Size) -> Result<Ready, String> {
    let started = Instant::now();
    let world = World::generate(seed, workload.targets, size.scale())?;
    let scenario_ms = ms(started.elapsed());
    let oracle_started = Instant::now();
    let oracle = Oracle::compute(&world, workload.specs)?;
    let oracle_ms = ms(oracle_started.elapsed());

    let mut ready = Ready {
        world,
        server: None,
        expected: Vec::new(),
        batch_specs: workload.specs.to_vec(),
        request_body: String::new(),
        expected_body: String::new(),
        cold_counters: None,
        times: SetupTimes::default(),
    };
    let register = match workload.shape {
        Shape::Queries => warm_queries(workload, &oracle, &mut ready)?,
        Shape::ColdBatch => warm_cold(workload, seed, &oracle, &mut ready)?,
    };
    ready.times = SetupTimes {
        scenario_ms,
        oracle_ms,
        register_ms: ms(register),
        total_s: started.elapsed().as_secs_f64(),
    };
    Ok(ready)
}

/// Starts the long-lived server and asks for every spec `WARMUP_ROUNDS` times: the first reply
/// is checked against the oracle and becomes the expected bytes, the others must equal it.
fn warm_queries(
    workload: &Workload,
    oracle: &Oracle,
    ready: &mut Ready,
) -> Result<Duration, String> {
    let world = &ready.world;
    let (server, register) = start_server(world, workload, |t| world.scenario(t).catalog.clone())?;
    let mut client = connect(server.addr())?;
    for round in 0..WARMUP_ROUNDS {
        for (i, spec) in workload.specs.iter().enumerate() {
            let response = client
                .request("POST", "/query", Some(&query_body(spec)))
                .map_err(|e| format!("warm-up '{spec}': {e}"))?;
            let answer = answer_slice(&response.body)
                .filter(|_| response.status == 200)
                .ok_or_else(|| {
                    format!(
                        "warm-up '{spec}': HTTP {}: {}",
                        response.status, response.body
                    )
                })?;
            if round == 0 {
                oracle.check(spec, answer)?;
                ready.expected.push(answer.to_string());
            } else if answer != ready.expected[i] {
                return Err(format!("warm-up '{spec}': answer changed between requests"));
            }
        }
    }
    ready.server = Some(server);
    Ok(register)
}

/// Runs `WARMUP_ITERATIONS` cold iterations: the first reply is checked against the oracle answer
/// by answer and becomes the expected body, the others must equal it and repeat its counters.
fn warm_cold(
    workload: &Workload,
    seed: u64,
    oracle: &Oracle,
    ready: &mut Ready,
) -> Result<Duration, String> {
    SplitMix(seed).shuffle(&mut ready.batch_specs);
    ready.request_body = batch_request_body(&ready.batch_specs);
    let mut register = Duration::ZERO;
    for round in 0..WARMUP_ITERATIONS {
        let iteration = cold_iteration(&ready.world, workload, &ready.request_body)?;
        if iteration.status != 200 {
            return Err(format!(
                "warm-up batch: HTTP {}: {}",
                iteration.status, iteration.body
            ));
        }
        if round == 0 {
            let answers = batch_answers(&iteration.body)?;
            if answers.len() != ready.batch_specs.len() {
                return Err(format!("warm-up batch: {} answers", answers.len()));
            }
            for (spec, answer) in ready.batch_specs.iter().zip(&answers) {
                oracle.check(spec, answer)?;
            }
            ready.expected = workload
                .specs
                .iter()
                .map(|s| {
                    let at = ready
                        .batch_specs
                        .iter()
                        .position(|b| b == s)
                        .expect("same specs");
                    answers[at].clone()
                })
                .collect();
            ready.expected_body = iteration.body;
            ready.cold_counters = Some(ColdCounters::of(&iteration.metrics));
            register = iteration.register;
        } else if iteration.body != ready.expected_body {
            return Err("warm-up batch: answers changed between iterations".into());
        }
        let first = ready.cold_counters.as_ref().expect("set in round 0");
        check_cold(workload, &iteration.metrics, first)?;
    }
    Ok(register)
}

/// The untraced timed run: `seconds` of the workload's load against the warmed set-up.
pub fn timed_run(
    workload: &Workload,
    seed: u64,
    ready: &Ready,
    run_for: Duration,
    each_cold: impl FnMut(&ColdIteration),
) -> Result<Outcome, String> {
    match workload.shape {
        Shape::Queries => {
            let server = ready
                .server
                .as_ref()
                .expect("Queries set-up starts a server");
            drive_queries(server.addr(), workload, seed, &ready.expected, run_for)
        }
        Shape::ColdBatch => drive_cold(
            &ready.world,
            workload,
            &ready.request_body,
            &ready.expected_body,
            ready
                .cold_counters
                .as_ref()
                .expect("ColdBatch set-up runs an iteration"),
            run_for,
            each_cold,
        ),
    }
}

/// `latency_p50_ms` and `latency_tail_ms` of an outcome, with the tail's samples-beyond count.
pub fn latency_summary(workload: &Workload, out: &Outcome) -> (f64, f64, usize) {
    let latencies = sorted(out.latencies_ms.clone());
    (
        percentile(&latencies, 50.0),
        percentile(&latencies, workload.tail_percentile),
        samples_beyond(latencies.len(), workload.tail_percentile),
    )
}

/// `--trace 0`: sets up several times (reporting the median), runs the load on the last set-up
/// and reports every end-to-end metric.  `throughput_qps` is the median over the run's windows
/// (`drive::WINDOW`) or cold iterations.
pub fn end_to_end(
    workload: &'static Workload,
    seed: u64,
    run_for: Duration,
    size: Size,
) -> Result<(Outcome, Metrics), String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..size.setup_reps(workload) {
        drop(ready.take()); // shut the previous server down before the next set-up is timed
        let next = setup(workload, seed, size)?;
        setup_s.push(next.times.total_s);
        ready = Some(next);
    }
    let ready = ready.expect("at least one set-up");
    let out = timed_run(workload, seed, &ready, run_for, |_| {})?;
    drop(ready);

    let mut m = Metrics::new(END_TO_END);
    m.set(
        "throughput_qps",
        median(&out.window_qps),
        out.window_qps.len(),
    );
    m.set("setup_s", median(&setup_s), setup_s.len());
    Ok((out, m))
}
