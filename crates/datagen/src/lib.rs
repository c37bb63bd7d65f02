//! # urm-datagen
//!
//! Synthetic schemas, data, similarity scores and the paper's workload for the URM
//! reproduction of *Evaluating Probabilistic Queries over Uncertain Matching* (ICDE 2012).
//!
//! The paper's experiments use a 100 MB TPC-H instance as the source database, three
//! purchase-order target schemas exported from COMA++ (Excel, Noris and Paragon, with 48, 66
//! and 69 attributes), COMA++ similarity scores, 100–500 possible mappings produced by a
//! bipartite matcher, and ten target queries (Table III).  None of those artefacts ship with
//! the paper, so this crate rebuilds equivalents:
//!
//! * [`source`] — a TPC-H-flavoured purchase-order **source schema** (8 relations, 46
//!   attributes) and a seeded, scale-parameterised data generator that plants the constant
//!   values the workload queries select on;
//! * [`targets`] — the **Excel / Noris / Paragon** target schemas with the paper's attribute
//!   counts;
//! * [`similarity`] — a deterministic attribute-name similarity scorer (token + trigram, with a
//!   synonym table) standing in for COMA++;
//! * [`scenario`] — glue that generates a complete experiment scenario (catalog + top-h mapping
//!   set) from a small config;
//! * [`workload`] — the ten queries of Table III plus the selection-count and product-count
//!   sweeps of Figures 11(d)/(e);
//! * [`replay`] — replayable workload files (and synthetic workloads) for the serving layer;
//! * [`openloop`] — precomputed Poisson arrival schedules (client mixes, warm/cold phases)
//!   for the open-loop HTTP latency harness.
//!
//! ```
//! use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
//! use urm_datagen::workload;
//!
//! let scenario = Scenario::generate(&ScenarioConfig {
//!     target: TargetSchemaKind::Excel,
//!     scale: 30,
//!     mappings: 8,
//!     seed: 7,
//! })
//! .unwrap();
//! assert_eq!(scenario.mappings.len(), 8);
//! let q1 = workload::query(workload::QueryId::Q1);
//! assert_eq!(q1.name(), "Q1");
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod openloop;
pub mod replay;
pub mod scenario;
pub mod similarity;
pub mod source;
pub mod targets;
pub mod workload;

pub use openloop::{schedule, Arrival, OpenLoopConfig, PhaseSpec};
pub use replay::{parse_workload, synthetic_workload, WorkloadEntry};
pub use scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
