//! # urm-obs
//!
//! The dependency-free observability layer of the URM workspace: every crate above
//! `urm-storage` reports through the three primitives here, and nothing here depends on any
//! other workspace crate (it sits below `urm-storage` in the stack).
//!
//! * [`trace`] — structured trace spans: a cheaply cloneable [`Tracer`] records nested,
//!   cross-thread spans (batch → rewrite/plan → per-DAG-node execute, spill I/O, grace
//!   partitioning, bind/execute/aggregate, admission) and exports them as Chrome
//!   trace-event JSON or JSONL.  A disabled tracer is a no-op: no allocation, no lock, no
//!   clock read on the hot path — `obs_bench` holds the overhead to that.
//! * [`hist`] — HDR-style log-bucketed [`Histogram`]s (fixed bucket array, lock-free atomic
//!   increments, ≤ 12.5% relative error) for per-stage and per-endpoint latency, merged
//!   across workers via [`HistSnapshot::merge`]; plus the exact sort-based
//!   [`LatencySummary`]/[`percentile`] pair for bounded sample sets.
//! * [`prom`] — Prometheus text-exposition rendering ([`PromWriter`]): counters, gauges and
//!   histogram `_bucket`/`_sum`/`_count` series for `GET /metrics`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod hist;
pub mod prom;
pub mod trace;

pub use hist::{percentile, HistSnapshot, Histogram, LatencySummary};
pub use prom::{MetricKind, PromWriter};
pub use trace::{merge_chrome_json, SpanGuard, SpanRecord, TraceReport, Tracer};
