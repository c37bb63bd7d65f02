//! # urm-mqo
//!
//! A multi-query-optimization (MQO) substrate used as the paper's **e-MQO** baseline
//! (Section III-B.3).
//!
//! e-MQO takes the set of *distinct* source queries produced by the possible mappings and,
//! instead of evaluating them independently, builds a single **global plan** in which common
//! sub-expressions are evaluated once and shared.  The paper implements this with the approach
//! of Zhou et al. [12]; the defining characteristics it relies on are:
//!
//! 1. the global plan executes the *minimum* number of distinct operators (Table IV uses this
//!    as the yardstick for how close SNF/SEF get to optimal), and
//! 2. constructing the global plan is expensive — e-MQO spends so long searching for sharing
//!    opportunities that it loses to plain e-basic end-to-end (Figures 10(b) and 10(c)).
//!
//! This crate reproduces both characteristics with a transparent design: every sub-plan of every
//! query is fingerprinted, and [`GlobalPlan::build`] performs the (intentionally thorough,
//! quadratic-in-candidates) covering analysis over all pairs of queries that a cost-based MQO
//! search performs, which is what makes plan construction slow for hundreds of source queries.
//! Execution is the engine's one way to run a DAG: e-MQO submits the same queries to a
//! throwaway `urm_engine::EpochDag`, whose node dedup executes each distinct sub-expression
//! exactly once.
//!
//! [`LruCache`] is the bounded map behind the serving layer's answer cache.
//!
//! ```
//! use urm_engine::{Plan, Predicate};
//! use urm_mqo::GlobalPlan;
//! use urm_storage::{Attribute, Catalog, DataType, Relation, Schema, Tuple, Value};
//!
//! let schema = Schema::new("R", vec![Attribute::new("a", DataType::Int)]);
//! let rel = Relation::new(schema, vec![Tuple::new(vec![Value::from(1i64)])]).unwrap();
//! let mut catalog = Catalog::new();
//! catalog.insert(rel);
//!
//! let q1 = Plan::scan("R").select(Predicate::eq("R.a", Value::from(1i64)));
//! let q2 = Plan::scan("R").select(Predicate::eq("R.a", Value::from(1i64)));
//! let global = GlobalPlan::build(&[q1, q2], &catalog).unwrap();
//! assert_eq!(global.distinct_operator_count(), 1); // the one selection is shared by both queries
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod global;
pub mod lru;

pub use global::GlobalPlan;
pub use lru::LruCache;
