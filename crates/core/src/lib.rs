//! # urm-core
//!
//! Probabilistic query evaluation over **uncertain schema matching** — a from-scratch Rust
//! implementation of the algorithms of R. Cheng, J. Gong, D. W. Cheung and J. Cheng,
//! *Evaluating Probabilistic Queries over Uncertain Matching*, ICDE 2012.
//!
//! ## The problem
//!
//! A schema matcher produces an *uncertain* matching between a source schema (with data) and a
//! target schema (queried by the user): a set of possible mappings `m_1 … m_h`, each a set of
//! attribute correspondences with a probability of being the correct one.  A probabilistic
//! query issued on the target schema returns every tuple that some mapping produces, weighted
//! by the total probability of the mappings that produce it.
//!
//! ## What this crate provides
//!
//! * a normalized [`TargetQuery`] model (selections, joins/products, projection, COUNT/SUM);
//! * [`reformulate`](reformulate::reformulate) — translation of a target query into a source
//!   query through one mapping, following the rules of Section VI-B;
//! * the three baseline evaluation strategies — [`basic`](algorithms::basic),
//!   [`e-basic`](algorithms::ebasic) and [`e-MQO`](algorithms::emqo);
//! * the paper's contributions — [`q-sharing`](algorithms::qsharing) (partition tree,
//!   Section IV), [`o-sharing`](algorithms::osharing) (e-units / u-trace with the Random, SNF
//!   and SEF operator-selection strategies, Sections V–VI) and the probabilistic
//!   [`top-k`](algorithms::topk) algorithm (Section VII);
//! * [`testkit`] — the paper's worked examples (Figures 1–3, queries q0/q1/q2) as reusable
//!   fixtures.
//!
//! ## Quick start
//!
//! ```
//! use urm_core::prelude::*;
//!
//! // The paper's running example: Figure 2's Customer data, Figure 3's five mappings.
//! let catalog = urm_core::testkit::figure2_catalog();
//! let mappings = urm_core::testkit::figure3_mappings();
//!
//! // q0 : π_addr σ_phone='123' Person
//! let q0 = TargetQuery::builder("q0")
//!     .relation("Person")
//!     .filter_eq("Person.phone", "123")
//!     .returning(["Person.addr"])
//!     .build()
//!     .unwrap();
//!
//! let eval = evaluate(&q0, &mappings, &catalog, Algorithm::OSharing(Strategy::Sef)).unwrap();
//! assert_eq!(eval.answer.len(), 2); // {(aaa, 0.5), (hk, 0.5)}
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod algorithms;
pub mod answer;
pub mod error;
pub mod eunit;
pub mod metrics;
pub mod partition;
pub mod query;
pub mod reformulate;
pub mod strategy;
pub mod testkit;

pub use algorithms::batch::{
    evaluate_batch, evaluate_batch_sharded, slice_relation_name, BatchEvaluation, BatchOptions,
    ShardSet, ShardStats,
};
pub use algorithms::{evaluate, topk::top_k, topk::TopKEvaluation, Algorithm};
pub use answer::{AnswerRows, ProbabilisticAnswer};
pub use error::{CoreError, CoreResult};
pub use metrics::{EvalMetrics, Evaluation};
pub use query::{QueryKey, QueryOutput, TargetOp, TargetPredicate, TargetQuery};
pub use strategy::Strategy;
pub use urm_engine::{EpochDag, DEFAULT_PIN_BUDGET_BYTES};

/// Convenience re-exports for downstream code and examples.
pub mod prelude {
    pub use crate::algorithms::{evaluate, topk::top_k, Algorithm};
    pub use crate::answer::ProbabilisticAnswer;
    pub use crate::metrics::Evaluation;
    pub use crate::query::{QueryOutput, TargetQuery};
    pub use crate::strategy::Strategy;
    pub use urm_engine::CompareOp;
    pub use urm_matching::{Mapping, MappingSet};
    pub use urm_storage::{Catalog, Tuple, Value};
}
