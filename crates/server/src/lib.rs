//! # urm-server
//!
//! The HTTP front door of the URM workspace: a dependency-free HTTP/1.1 server (plain
//! `std::net::TcpListener`, thread per connection — no hyper, no tokio, keeping the
//! workspace's no-registry constraint) in front of the [`urm_service::QueryService`] batch
//! server.
//!
//! Endpoints:
//!
//! * `POST /query` — `{"spec": "Q4"}`: one workload-spec query (`Q1`–`Q10`, `sel:N`, `prod:N`,
//!   `join:N`, `scale:N`), answered fixed-length, in one write, with the canonical answer
//!   rendering plus how it was served — or with a 5xx if the query failed;
//! * `POST /batch` — `{"specs": ["Q1", "join:3", …]}`: many queries in one request, submitted
//!   as one service batch per target schema and **streamed** back with chunked transfer
//!   encoding, one chunk per answer as the batches resolve;
//! * `GET /metrics` (Prometheus text) and `GET /metrics.json` — the
//!   [`ServiceMetrics`](urm_service::ServiceMetrics) snapshot (including spill and epoch-reuse
//!   counters);
//! * `GET /healthz` — liveness plus the served epochs.
//!
//! An answer's bytes are built by one renderer ([`wire::write_answer`]), once per answer — the
//! rendering is memoized inside the shared [`ProbabilisticAnswer`](urm_core::ProbabilisticAnswer)
//! the answer cache hands out — and sent from there: a response (or a chunk) is one vectored
//! write of the connection's own head and framing around the memo ([`http::ResponseWriter`]).
//!
//! In front of the service sits an [`admission`] layer: a bounded in-flight budget and
//! per-client token buckets, both answering **429 + `Retry-After`** when closed, plus a body
//! size cap and read/write socket timeouts (slow-loris connections get 408).  Shutdown drains:
//! the listener closes first, in-flight requests finish, pending batches flush.
//!
//! The binary (`urm-server`) generates a [`urm_datagen`] scenario, registers it as an epoch
//! and serves it; the open-loop latency harness (`http_bench` in `urm-bench`) drives the same
//! server over loopback and asserts the HTTP answers are byte-identical to an in-process
//! replay.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod client;
pub mod http;
pub mod json;
pub mod server;
pub mod wire;

pub use admission::{AdmissionConfig, AdmissionController, Permit, Rejected};
pub use client::{request_once, HttpClient, HttpResponse};
pub use json::Json;
pub use server::{UrmServer, DRAIN_GRACE};
pub use wire::{answer_json, parse_query_spec};
