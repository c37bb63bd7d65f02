//! Open-loop workload schedules: Poisson arrivals, client mixes, warm/cold phases.
//!
//! A *closed-loop* client (send, wait, send again) hides server slowdowns: when the server
//! stalls, the client stops offering load, and measured latency stays flattering.  The latency
//! harness therefore drives the HTTP front door **open-loop**: arrival times are drawn from a
//! Poisson process *ahead of time* and requests are sent at those instants no matter how the
//! previous ones are doing — exactly how independent external clients behave.
//!
//! A schedule is fully precomputed and deterministic ([`schedule`] is a pure function of its
//! seeded config): the same config replayed twice — or replayed over HTTP and in-process —
//! issues the *same* requests at the *same* offsets from the same simulated clients, which is
//! what makes the byte-identity check of `http_bench` meaningful.
//!
//! Phases model warm/cold behaviour: a typical run is a **cold** phase (first touch of every
//! query — cache misses, bind misses) followed by a **warm** phase at a higher rate (caches
//! hot).  Each phase has its own Poisson rate; arrival offsets accumulate across phases.

use crate::replay::{parse_spec, WorkloadEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use urm_core::CoreResult;

/// One phase of an open-loop run: `requests` Poisson arrivals at `rate_per_sec`.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    /// Phase name, carried through to the reported rows (e.g. `"cold"`, `"warm"`).
    pub name: String,
    /// Poisson arrival rate λ, in requests per second.
    pub rate_per_sec: f64,
    /// Number of arrivals in this phase.
    pub requests: usize,
}

impl PhaseSpec {
    /// A named phase.
    #[must_use]
    pub fn new(name: &str, rate_per_sec: f64, requests: usize) -> PhaseSpec {
        PhaseSpec {
            name: name.into(),
            rate_per_sec,
            requests,
        }
    }
}

/// Configuration of an open-loop schedule.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Number of simulated clients; each arrival is assigned one uniformly.  Clients matter to
    /// the server's per-client admission (token buckets) and to connection reuse.
    pub clients: usize,
    /// The query mix, as workload specs (`Q1`, `sel:2`, …).  Arrivals draw uniformly from this
    /// list, so a spec listed twice is sent twice as often — weights are expressed by
    /// repetition, like ` xN` lines in workload files.
    pub mix: Vec<String>,
    /// The phases, in order.  Arrival offsets accumulate across phases.
    pub phases: Vec<PhaseSpec>,
    /// Seed for the arrival process and the client/spec draws.
    pub seed: u64,
}

impl OpenLoopConfig {
    /// The harness default: the five Excel queries of Table III plus the sweep families, four
    /// clients, a cold first-touch phase then a faster warm phase.
    #[must_use]
    pub fn excel_default(requests_per_phase: usize, rate_per_sec: f64) -> OpenLoopConfig {
        OpenLoopConfig {
            clients: 4,
            mix: [
                "Q1", "Q2", "Q3", "Q4", "Q5", "sel:2", "sel:4", "join:2", "prod:2",
            ]
            .map(String::from)
            .to_vec(),
            phases: vec![
                PhaseSpec::new("cold", rate_per_sec, requests_per_phase),
                PhaseSpec::new("warm", rate_per_sec * 2.0, requests_per_phase),
            ],
            seed: 42,
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Index into [`OpenLoopConfig::phases`].
    pub phase: usize,
    /// When to send, as an offset from the start of the run (cumulative across phases).
    pub at: Duration,
    /// Which simulated client sends it (`0..clients`).
    pub client: usize,
    /// The parsed query (label, target schema and target query).
    pub entry: WorkloadEntry,
}

/// Precomputes the full arrival schedule: for each phase, `requests` arrivals with
/// exponentially distributed inter-arrival gaps (`−ln(U)/λ`, the Poisson process), each
/// carrying a uniformly drawn client and a uniformly drawn spec from the mix.
///
/// Deterministic in the config; the only error source is an unparsable spec in the mix.
pub fn schedule(config: &OpenLoopConfig) -> CoreResult<Vec<Arrival>> {
    let parsed: Vec<WorkloadEntry> = config
        .mix
        .iter()
        .map(|spec| parse_spec(spec))
        .collect::<CoreResult<_>>()?;
    let clients = config.clients.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut arrivals = Vec::new();
    let mut now = 0.0f64;
    for (phase, spec) in config.phases.iter().enumerate() {
        let rate = spec.rate_per_sec.max(f64::MIN_POSITIVE);
        for _ in 0..spec.requests {
            // U is in [0, 1); flip to (0, 1] so ln() is finite.
            let u: f64 = 1.0 - rng.gen_range(0.0..1.0);
            now += -u.ln() / rate;
            arrivals.push(Arrival {
                phase,
                at: Duration::from_secs_f64(now),
                client: rng.gen_range(0..clients),
                entry: parsed[rng.gen_range(0..parsed.len())].clone(),
            });
        }
    }
    Ok(arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TargetSchemaKind;

    fn config() -> OpenLoopConfig {
        OpenLoopConfig {
            clients: 3,
            mix: vec!["Q1".into(), "Q2".into(), "join:2".into()],
            phases: vec![
                PhaseSpec::new("cold", 100.0, 40),
                PhaseSpec::new("warm", 200.0, 40),
            ],
            seed: 9,
        }
    }

    #[test]
    fn schedules_are_deterministic_and_monotonic() {
        let a = schedule(&config()).unwrap();
        let b = schedule(&config()).unwrap();
        assert_eq!(a.len(), 80);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.client, y.client);
            assert_eq!(x.entry.label, y.entry.label);
        }
        for pair in a.windows(2) {
            assert!(pair[0].at <= pair[1].at, "arrivals out of order");
            assert!(pair[0].phase <= pair[1].phase);
        }
        assert!(a.iter().all(|arr| arr.client < 3));
        assert!(a
            .iter()
            .all(|arr| arr.entry.target == TargetSchemaKind::Excel));
    }

    #[test]
    fn rates_shape_the_gaps() {
        // 40 arrivals at λ=100/s average 10ms apart: the cold phase should span roughly
        // 400ms, and the warm phase (double rate) roughly half that.  Generous bounds — this
        // checks the rate parameter is wired through, not the quality of the RNG.
        let arrivals = schedule(&config()).unwrap();
        let cold_span = arrivals[39].at - arrivals[0].at;
        let warm_span = arrivals[79].at - arrivals[40].at;
        assert!(
            cold_span > Duration::from_millis(100),
            "cold span {cold_span:?}"
        );
        assert!(
            cold_span < Duration::from_millis(1600),
            "cold span {cold_span:?}"
        );
        assert!(
            warm_span < cold_span,
            "higher rate must pack arrivals tighter"
        );
    }

    #[test]
    fn bad_specs_are_rejected() {
        let mut bad = config();
        bad.mix.push("Q99".into());
        assert!(schedule(&bad).is_err());
    }

    #[test]
    fn default_mix_parses() {
        let arrivals = schedule(&OpenLoopConfig::excel_default(10, 50.0)).unwrap();
        assert_eq!(arrivals.len(), 20);
    }
}
