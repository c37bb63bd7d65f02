//! # urm-bench
//!
//! The experiment harness that regenerates every table and figure of the paper's evaluation
//! (Section VIII).  The functions here are shared between the `paper-experiments` binary (which
//! prints the tables/series) and the Criterion benchmarks (which measure the same code paths).
//!
//! Every experiment is expressed as "run these algorithms on this scenario and report rows";
//! absolute numbers depend on the host and on the (scaled-down) synthetic data, but the
//! *relationships* the paper reports — who wins, by roughly what factor, and where the
//! crossovers are — are what these experiments reproduce.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod http_bench;
pub mod obs_bench;
pub mod report;
pub mod shard_bench;
pub mod spill_bench;

pub use experiments::{ExperimentRow, Harness, HarnessConfig, RowKind};
pub use http_bench::HttpBenchConfig;
pub use obs_bench::ObsBenchConfig;
pub use report::{render_json, render_table};
pub use shard_bench::ShardBenchConfig;
pub use spill_bench::SpillBenchConfig;
