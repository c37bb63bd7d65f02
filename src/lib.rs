//! # urm — Uncertain Relational Matching
//!
//! Umbrella crate of the URM workspace: a from-scratch Rust reproduction of
//! *Evaluating Probabilistic Queries over Uncertain Matching* (Cheng, Gong, Cheung, Cheng —
//! ICDE 2012).
//!
//! It re-exports the workspace crates so that examples, integration tests and downstream users
//! can depend on a single crate:
//!
//! * [`storage`] — in-memory relational storage (the source instance `D`);
//! * [`engine`] — relational-algebra plans and the executor;
//! * [`matching`] — correspondences, possible mappings, Murty top-h enumeration;
//! * [`datagen`] — synthetic schemas, data and the paper's workload (Table III);
//! * [`mqo`] — the multi-query-optimization baseline used by e-MQO;
//! * [`core`] — the paper's algorithms: basic, e-basic, e-MQO, q-sharing, o-sharing
//!   (Random/SNF/SEF), probabilistic top-k, and batch evaluation;
//! * [`service`] — the concurrent batch query-serving subsystem (epochs, batching, worker
//!   pool, answer cache) and the `urm-cli` workload-replay binary.
//!
//! See the [`core`] crate documentation for a worked example, and the `examples/` directory for
//! runnable programs.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use urm_core as core;
pub use urm_datagen as datagen;
pub use urm_engine as engine;
pub use urm_matching as matching;
pub use urm_mqo as mqo;
pub use urm_service as service;
pub use urm_storage as storage;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use urm_core::prelude::*;
    pub use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
    pub use urm_datagen::workload::{self, QueryId};
    pub use urm_service::{QueryService, ServiceConfig};
}
