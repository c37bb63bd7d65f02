//! # urm-service
//!
//! A concurrent batch query-serving subsystem for the URM workspace.
//!
//! The paper's central claim is that evaluating *many* probabilistic queries over an uncertain
//! matching is cheap when computation is shared — yet one-shot
//! [`evaluate`](urm_core::evaluate) calls never amortise that sharing across independent
//! callers.  This crate adds the serving layer that does:
//!
//! * [`QueryService`] accepts [`TargetQuery`](urm_core::TargetQuery) submissions from many
//!   concurrent clients and groups them into **batches** per registered *epoch* — an immutable
//!   (catalog, mapping set) pair identified by an [`EpochId`];
//! * each batch is lowered onto its epoch's **one merged shared-operator DAG**
//!   ([`urm_engine::dag`](urm_engine::dag)): the bound plans of every query in the batch are
//!   deduplicated by fingerprint, every distinct operator executes exactly once, and the
//!   [`DagScheduler`](urm_engine::DagScheduler)'s one worker loop runs independent ready nodes
//!   on up to [`ServiceConfig::dag_workers`] threads — the batch's own and scoped helpers
//!   (intra-batch parallelism) — with or without a memory budget;
//! * batches run on a fixed **worker pool**, so independent batches (and epochs) evaluate in
//!   parallel while each batch stays deterministic;
//! * a bounded **answer cache** keyed by epoch + the query itself (a
//!   [`QueryKey`](urm_core::QueryKey): hashed once, compared exactly, nothing rendered) lets
//!   repeated queries skip evaluation entirely — a hit is one probe at submit time, and its
//!   [`Ticket`] already holds the response; within a batch, duplicate submissions are
//!   deduplicated by the same key before evaluation;
//! * every batch of an epoch runs through one coordinator over one per-epoch state
//!   ([`BatchEpoch`](urm_core::BatchEpoch): the persistent DAG and the factors each source
//!   query splits into), so a warm batch neither re-binds nor re-executes what an earlier one
//!   left materialised.
//!
//! Answers are identical to sequential evaluation (the integration tests compare against
//! `Algorithm::OSharing(Strategy::Sef)` tuple-for-tuple); only the work accounting differs.
//!
//! ```
//! use urm_core::testkit;
//! use urm_service::{QueryService, ServiceConfig};
//!
//! let service = QueryService::new(ServiceConfig::default());
//! let epoch = service.register_epoch(testkit::figure2_catalog(), testkit::figure3_mappings());
//!
//! let responses = service
//!     .execute_all(epoch, vec![testkit::q0(), testkit::q1(), testkit::q0()])
//!     .unwrap();
//! assert_eq!(responses.len(), 3);
//! // The duplicate q0 was answered without re-evaluation.
//! assert_eq!(responses[0].answer.sorted(), responses[2].answer.sorted());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod answer_cache;
pub mod config;
pub mod metrics;
pub mod service;

pub use answer_cache::AnswerCache;
pub use config::ServiceConfig;
pub use metrics::{percentile, BatchReport, LatencySummary, ServiceMetrics};
pub use service::{
    EpochId, QueryResponse, QueryService, ServedFrom, ServiceError, ServiceResult, Ticket,
};
// Observability primitives, re-exported so the server/CLI/bench layers need no direct
// `urm-obs` edge for the common cases (tracing a request, scraping histograms).
pub use urm_obs::{
    merge_chrome_json, HistSnapshot, Histogram, MetricKind, PromWriter, TraceReport, Tracer,
};
