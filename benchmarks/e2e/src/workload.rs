//! The four named workloads and the fixed configuration every report records.

use urm_datagen::scenario::TargetSchemaKind::{self, Excel, Noris, Paragon};
use urm_server::AdmissionConfig;
use urm_service::ServiceConfig;

/// How big a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Every measurement.
    Full,
    /// `--quick` and the self-test, which only check that everything runs.
    Smoke,
}

impl Size {
    /// Source-instance scale.  Do not raise the measurement's: Q4's cost is super-quadratic in
    /// it.
    pub fn scale(self) -> usize {
        match self {
            Size::Full => 20,
            Size::Smoke => 8,
        }
    }

    /// Set-ups per `--trace 0` run; `setup_s` is their median.
    pub fn setup_reps(self, workload: &Workload) -> usize {
        match self {
            Size::Full => workload.setup_reps,
            Size::Smoke => 1,
        }
    }

    /// Fewest iterations of a `ColdBatch` layer pass: each takes three cold evaluations of the
    /// batch, so the share of `--seconds` the pass gets yields too few for a median to mean
    /// anything.
    pub fn cold_pass_iterations(self) -> u64 {
        match self {
            Size::Full => 10,
            Size::Smoke => 2,
        }
    }
}

/// Possible mappings `h`.
pub const MAPPINGS: usize = 30;
/// Closed-loop callers of a `Queries` workload: one, over one keep-alive connection, waiting
/// for each reply.  With the whole process on one hardware thread (`run.sh`), caller and
/// server alternate and nothing waits for the scheduler (README, Load).
pub const CLIENTS: usize = 1;
/// Service batch workers and DAG scheduler workers.
pub const WORKERS: usize = 2;

/// How a workload drives the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A long-lived server; the caller cycles `POST /query` over the specs.
    Queries,
    /// Per iteration a fresh server (built outside the timer) answers one `POST /batch` of the
    /// specs (timed to the last byte) and is shut down.
    ColdBatch,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; repeated in `BENCHMARK.json`).
    pub why: &'static str,
    pub shape: Shape,
    pub targets: &'static [TargetSchemaKind],
    pub specs: &'static [&'static str],
    pub answer_cache_capacity: usize,
    pub memory_budget: Option<usize>,
    /// The percentile `latency_tail_ms` reports: the highest that keeps ten samples beyond it
    /// at the sample counts a run of `run_seconds` reaches on a two-thread host.
    pub tail_percentile: f64,
    /// Set-ups per measuring run: as many as fit in about eight seconds, at least three.
    pub setup_reps: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "front_hits",
        why: "answer-cache hits only: urm-server and the cache do all the work, so engine \
              changes must not move it and render/HTTP/admission changes must",
        shape: Shape::Queries,
        targets: &[Excel, Noris, Paragon],
        specs: &[
            "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "sel:2", "sel:3",
            "join:2", "join:3", "skew:2",
        ],
        answer_cache_capacity: 1024,
        memory_budget: None,
        tail_percentile: 99.0,
        setup_reps: 4,
    },
    Workload {
        name: "light_reuse",
        why: "answer cache of one entry: every request is rewritten through 30 mappings and \
              resolved from pinned results, so urm-service and urm-core overhead dominates",
        shape: Shape::Queries,
        targets: &[Excel, Noris, Paragon],
        specs: &[
            "Q1", "Q2", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "sel:1", "sel:2", "sel:3", "skew:1",
        ],
        answer_cache_capacity: 1,
        memory_budget: None,
        tail_percentile: 99.0,
        setup_reps: 9,
    },
    Workload {
        name: "cold_batch",
        why: "the paper's experiment and a newly published matching: rewrite, optimize, bind, \
              DAG build and join execution all cold, so urm-engine does most of the work",
        shape: Shape::ColdBatch,
        targets: &[Excel, Noris, Paragon],
        specs: &[
            "Q1", "Q1", "Q2", "Q3", "Q4", "Q4", "Q5", "Q6", "Q6", "Q7", "Q8", "Q9", "Q10", "sel:3",
            "join:2",
        ],
        answer_cache_capacity: 1024,
        memory_budget: None,
        tail_percentile: 75.0,
        setup_reps: 3,
    },
    Workload {
        name: "spill_batch",
        why: "working set far above a 4 KiB budget: the same engine code runs through \
              urm-storage's buffer pool, segment codec and grace partitions",
        shape: Shape::ColdBatch,
        targets: &[Excel],
        specs: &["scale:2", "Q4", "scale:3", "Q3"],
        answer_cache_capacity: 1024,
        memory_budget: Some(4_096),
        tail_percentile: 75.0,
        setup_reps: 3,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// No A/B toggle is named, so the benchmark survives their removal.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            workers: WORKERS,
            dag_workers: WORKERS,
            answer_cache_capacity: self.answer_cache_capacity,
            memory_budget: self.memory_budget,
            ..ServiceConfig::default()
        }
    }
}

/// Admission sized so neither gate ever closes: any 429 is a failed operation.
pub fn admission_config() -> AdmissionConfig {
    AdmissionConfig {
        queue_capacity: 1 << 40,
        burst: 1e12,
        refill_per_sec: 1e12,
        ..AdmissionConfig::default()
    }
}

/// A splitmix64 stream: the only randomness in the benchmark, seeded from `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The order in which the caller cycles the workload's specs (indices into `specs`).
pub fn request_order(workload: &Workload, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..workload.specs.len()).collect();
    SplitMix(seed).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_are_seeded_permutations() {
        let w = find("light_reuse").unwrap();
        let a = request_order(w, 7);
        assert_eq!(a, request_order(w, 7));
        assert_ne!(a, request_order(w, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..w.specs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn every_spec_parses_and_targets_a_served_schema() {
        for w in &WORKLOADS {
            for spec in w.specs {
                let entry = urm_server::parse_query_spec(spec).unwrap();
                assert!(w.targets.contains(&entry.target), "{} in {}", spec, w.name);
            }
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}
