//! Admission control in front of the [`QueryService`](urm_service::QueryService).
//!
//! The service itself accepts every submission and queues it; a public front door cannot — a
//! burst of clients would build an unbounded pending queue and every response would arrive
//! late.  This module bounds the damage with two independent gates, both answered with
//! **429 + `Retry-After`** when closed:
//!
//! * a **bounded in-flight budget**: at most `queue_capacity` *cost units* may be admitted and
//!   not yet answered, service-wide.  Each request is charged its estimated evaluation cost —
//!   the serving epoch's observed operators-per-query once it has history, a static plan-shape
//!   estimate before that — so ten admitted join-heavy queries reserve far more of the queue
//!   than ten cached point lookups, and back-pressure arrives when the *work* is saturated,
//!   not the request count.  Admission takes a [`Permit`] (RAII: dropping it releases the
//!   units), so a slow batch propagates back-pressure to new arrivals instead of growing a
//!   queue;
//! * a **per-client token bucket**: each client address gets `burst` tokens refilled at
//!   `refill_per_sec`; one token per query.  A greedy client throttles itself, not its
//!   neighbours.
//!
//! Socket hygiene (body-size cap, read/write timeouts) lives in the same config because the
//! accept loop applies all of it at connection setup.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The admission knobs (see the module docs; all enforced by [`AdmissionController`] or the
/// connection handler).
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum *cost units* admitted and not yet answered, service-wide (`0` rejects
    /// everything — useful for drain tests).  A request costs the sum of its queries' cost
    /// estimates (each at least 1), so the capacity still upper-bounds the admitted query
    /// count while expensive queries consume proportionally more of it.
    pub queue_capacity: usize,
    /// Token-bucket capacity per client address (the permissible burst).
    pub burst: f64,
    /// Token-bucket refill rate per client address, in tokens (queries) per second.
    pub refill_per_sec: f64,
    /// Maximum accepted request-body size in bytes; larger uploads get 413 before the body is
    /// read.
    pub max_body_bytes: usize,
    /// Socket read timeout: a connection that dribbles its request slower than this (the
    /// slow-loris shape) is answered 408 and closed.
    pub read_timeout: Duration,
    /// Socket write timeout: a client that stops reading its response is disconnected.
    pub write_timeout: Duration,
    /// The `Retry-After` value (seconds) sent with 429 responses.
    pub retry_after_secs: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 8192,
            burst: 256.0,
            refill_per_sec: 512.0,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            retry_after_secs: 1,
        }
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The service-wide in-flight budget is exhausted.
    QueueFull,
    /// The client's token bucket is empty.
    ClientThrottled,
}

struct Bucket {
    tokens: f64,
    refilled: Instant,
}

struct State {
    /// Cost units admitted and not yet released.
    in_flight: u64,
    buckets: HashMap<IpAddr, Bucket>,
}

/// The shared admission state; cheap to clone (one `Arc`).
#[derive(Clone)]
pub struct AdmissionController {
    config: AdmissionConfig,
    state: Arc<Mutex<State>>,
}

impl AdmissionController {
    /// A controller enforcing `config`.
    #[must_use]
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            state: Arc::new(Mutex::new(State {
                in_flight: 0,
                buckets: HashMap::new(),
            })),
        }
    }

    /// The configuration being enforced.
    #[must_use]
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Tries to admit `queries` queries of estimated evaluation cost `cost` from `client`:
    /// both gates must pass, atomically — a request rejected by the token bucket consumes no
    /// queue units and vice versa.
    ///
    /// The in-flight gate charges `max(cost, queries)` units (every query costs at least one
    /// unit, so capacity still bounds the raw query count); the per-client token bucket stays
    /// per-*query* — fairness between clients is about request volume, not how expensive the
    /// service estimates their queries to be.
    pub fn admit(&self, client: IpAddr, queries: usize, cost: u64) -> Result<Permit, Rejected> {
        let units = cost.max(queries as u64);
        let mut state = self.state.lock().unwrap();
        if state.in_flight + units > self.config.queue_capacity as u64 {
            return Err(Rejected::QueueFull);
        }
        let now = Instant::now();
        let bucket = state.buckets.entry(client).or_insert(Bucket {
            tokens: self.config.burst,
            refilled: now,
        });
        let elapsed = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens =
            (bucket.tokens + elapsed * self.config.refill_per_sec).min(self.config.burst);
        bucket.refilled = now;
        if bucket.tokens < queries as f64 {
            return Err(Rejected::ClientThrottled);
        }
        bucket.tokens -= queries as f64;
        state.in_flight += units;
        Ok(Permit {
            state: Arc::clone(&self.state),
            units,
        })
    }

    /// Cost units currently admitted and unanswered.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.state.lock().unwrap().in_flight
    }
}

/// Exponential-decay weight of the newest cost observation.
const COST_ALPHA: f64 = 0.5;

/// Distinct query specs the cost model tracks; further specs fall back to the static
/// estimate (an unbounded client vocabulary must not grow server memory without bound).
const COST_MODEL_CAPACITY: usize = 4096;

/// Per-spec observed-latency cost model: the admission layer's adaptive arm.
///
/// The in-flight queue is denominated in *cost units* (the static plan-shape estimate:
/// `1 + predicates + relations²`).  Static estimates mis-rank real workloads — a three-way
/// join over tiny slices is charged more than a scan that dominates wall-clock.  This model
/// learns per *query spec* (keyed by the query's canonical rendering) an EWMA of observed
/// evaluation latency, plus one global EWMA of nanoseconds-per-static-unit to convert
/// latencies back into queue units.  [`estimate`](CostModel::estimate) then charges a spec
/// what it has actually been costing, and specs never observed (or beyond the capacity cap)
/// fall back to the static estimate.
#[derive(Default)]
pub struct CostModel {
    inner: Mutex<CostState>,
}

#[derive(Default)]
struct CostState {
    /// Spec key → decayed observed latency (ns).
    specs: HashMap<String, f64>,
    /// Decayed nanoseconds per static cost unit across all observations (0 = no history).
    ns_per_unit: f64,
}

impl CostModel {
    /// An empty model (every estimate falls back to the caller's static estimate).
    #[must_use]
    pub fn new() -> Self {
        CostModel::default()
    }

    /// Folds one observed evaluation of `key`: its wall-clock `latency` and the static
    /// plan-shape `static_cost` the fallback would have charged.  Zero latencies (answer-cache
    /// hits record no evaluation time) should be skipped by the caller — they would teach the
    /// model that evaluation is free.
    pub fn observe(&self, key: &str, latency: Duration, static_cost: u64) {
        let nanos = latency.as_nanos() as f64;
        let mut state = self.inner.lock().unwrap();
        let per_unit = nanos / static_cost.max(1) as f64;
        state.ns_per_unit = if state.ns_per_unit == 0.0 {
            per_unit
        } else {
            (1.0 - COST_ALPHA) * state.ns_per_unit + COST_ALPHA * per_unit
        };
        let room = state.specs.len() < COST_MODEL_CAPACITY;
        match state.specs.entry(key.to_string()) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                let observed = entry.get_mut();
                *observed = (1.0 - COST_ALPHA) * *observed + COST_ALPHA * nanos;
            }
            std::collections::hash_map::Entry::Vacant(entry) if room => {
                entry.insert(nanos);
            }
            std::collections::hash_map::Entry::Vacant(_) => {}
        }
    }

    /// The spec's estimated cost in queue units — its decayed observed latency divided by the
    /// global ns-per-unit rate (always at least 1) — or `None` while the spec (or the rate)
    /// has no history, in which case the caller charges its static estimate.
    #[must_use]
    pub fn estimate(&self, key: &str) -> Option<u64> {
        let state = self.inner.lock().unwrap();
        if state.ns_per_unit == 0.0 {
            return None;
        }
        let observed = *state.specs.get(key)?;
        Some((observed / state.ns_per_unit).round().max(1.0) as u64)
    }

    /// Distinct query specs with observed history.
    #[must_use]
    pub fn observed_specs(&self) -> usize {
        self.inner.lock().unwrap().specs.len()
    }
}

/// An admitted batch's claim on the in-flight budget; dropping it releases the units.
pub struct Permit {
    state: Arc<Mutex<State>>,
    units: u64,
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit")
            .field("units", &self.units)
            .finish()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.state.lock().unwrap().in_flight -= self.units;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(n: u8) -> IpAddr {
        IpAddr::from([127, 0, 0, n])
    }

    fn config(queue: usize, burst: f64, refill: f64) -> AdmissionConfig {
        AdmissionConfig {
            queue_capacity: queue,
            burst,
            refill_per_sec: refill,
            ..AdmissionConfig::default()
        }
    }

    #[test]
    fn queue_capacity_bounds_in_flight_and_permits_release() {
        let ctl = AdmissionController::new(config(3, 100.0, 0.0));
        let a = ctl.admit(client(1), 2, 2).unwrap();
        assert_eq!(ctl.in_flight(), 2);
        assert_eq!(ctl.admit(client(2), 2, 2).unwrap_err(), Rejected::QueueFull);
        let b = ctl.admit(client(2), 1, 1).unwrap();
        assert_eq!(ctl.in_flight(), 3);
        drop(a);
        assert_eq!(ctl.in_flight(), 1);
        let c = ctl.admit(client(2), 2, 2).unwrap();
        drop((b, c));
        assert_eq!(ctl.in_flight(), 0);
    }

    #[test]
    fn cost_units_weight_the_queue_not_the_query_count() {
        // Capacity 10 units: one 8-unit query crowds out a second expensive one, while cheap
        // queries still fit — the queue gates on estimated work, not request count.
        let ctl = AdmissionController::new(config(10, 100.0, 0.0));
        let expensive = ctl.admit(client(1), 1, 8).unwrap();
        assert_eq!(ctl.in_flight(), 8);
        assert_eq!(ctl.admit(client(2), 1, 8).unwrap_err(), Rejected::QueueFull);
        let cheap = ctl.admit(client(2), 2, 2).unwrap();
        assert_eq!(ctl.in_flight(), 10);
        drop(expensive);
        // Releasing the expensive permit returns its 8 units, not 1.
        assert_eq!(ctl.in_flight(), 2);
        drop(cheap);
        assert_eq!(ctl.in_flight(), 0);
        // A query always costs at least one unit, even if the estimate says zero.
        let floor = ctl.admit(client(3), 3, 0).unwrap();
        assert_eq!(ctl.in_flight(), 3);
        drop(floor);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let ctl = AdmissionController::new(config(0, 100.0, 100.0));
        assert_eq!(ctl.admit(client(1), 1, 1).unwrap_err(), Rejected::QueueFull);
    }

    #[test]
    fn token_buckets_are_per_client() {
        // No refill: client 1's burst of 2 runs dry; client 2 is unaffected.  The bucket
        // charges per query — an expensive cost estimate must not starve a client's tokens.
        let ctl = AdmissionController::new(config(100, 2.0, 0.0));
        let _a = ctl.admit(client(1), 1, 9).unwrap();
        let _b = ctl.admit(client(1), 1, 9).unwrap();
        assert_eq!(
            ctl.admit(client(1), 1, 1).unwrap_err(),
            Rejected::ClientThrottled
        );
        let _c = ctl.admit(client(2), 2, 2).unwrap();
        // A throttled request consumed no queue units.
        assert_eq!(ctl.in_flight(), 20);
    }

    #[test]
    fn cost_model_learns_per_spec_latency_and_stays_cold_for_unknown_specs() {
        let model = CostModel::new();
        assert_eq!(model.estimate("q"), None, "no history yet");
        // 1000 ns at static cost 10 → 100 ns/unit: the spec is charged its static 10 units.
        model.observe("q", Duration::from_nanos(1000), 10);
        assert_eq!(model.estimate("q"), Some(10));
        assert_eq!(model.estimate("other"), None, "unknown specs stay static");
        assert_eq!(model.observed_specs(), 1);
        // The EWMA tracks drift without forgetting: both the spec latency and the global rate
        // halve towards the new observation.
        model.observe("q", Duration::from_nanos(3000), 10);
        assert_eq!(model.estimate("q"), Some(10));
        // A spec observed far slower than its plan shape suggests is charged far more.
        model.observe("heavy", Duration::from_nanos(20_000), 10);
        assert!(model.estimate("heavy").unwrap() > model.estimate("q").unwrap());
    }

    #[test]
    fn buckets_refill_over_time() {
        let ctl = AdmissionController::new(config(100, 1.0, 1000.0));
        let _a = ctl.admit(client(1), 1, 1).unwrap();
        // 1000 tokens/sec: a few milliseconds refill the single-token bucket.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match ctl.admit(client(1), 1, 1) {
                Ok(_) => break,
                Err(Rejected::ClientThrottled) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(other) => panic!("unexpected rejection: {other:?}"),
            }
        }
    }
}
