//! # urm-engine
//!
//! Relational-algebra plan trees and an in-memory executor for the URM reproduction of
//! *Evaluating Probabilistic Queries over Uncertain Matching* (ICDE 2012).
//!
//! The paper's algorithms (basic, e-basic, e-MQO, q-sharing, o-sharing, top-k) all bottom out in
//! running *source queries* — selections, projections, Cartesian products / equi-joins and
//! COUNT/SUM aggregates — against the source instance `D`.  This crate provides:
//!
//! * [`Plan`] — an algebraic plan tree whose nodes are exactly the operator classes of the
//!   paper's query model (Section III-A / VI-B), with structural equality and hashing so that
//!   identical source queries can be detected (e-basic) and common sub-expressions shared
//!   (e-MQO, o-sharing);
//! * [`Predicate`] / [`AggFunc`] — the predicate and aggregate language of Table III;
//! * [`physical`] — the bound physical-plan layer: [`physical::bind`] compiles a logical plan
//!   against a catalog (columns → positions, predicates → [`physical::BoundPredicate`], base
//!   relations captured) into a [`PhysicalPlan`];
//! * [`Executor`] — binds and evaluates physical operators batch-at-a-time over shared
//!   (`Arc`-backed) [`Relation`](urm_storage::Relation)s, with zero-copy scans and `Values`
//!   leaves;
//! * [`vectorized`] — the operator kernels over typed [`Column`](urm_storage::Column)
//!   vectors driven by selection vectors: how the executor evaluates every operator,
//!   byte-identical to the [`reference`] evaluator;
//! * [`dag`] — the shared-operator DAG runtime: bound plans are merged into an
//!   [`OperatorDag`] (nodes deduplicated by bound-plan fingerprint), which a [`DagScheduler`]
//!   executes with every distinct operator running exactly once — sequentially or on parallel
//!   worker threads, expensive ready nodes first.  All of the paper's sharing mechanisms lower
//!   onto it;
//! * [`epoch`] — the per-epoch persistent DAG: one [`EpochDag`] per (catalog, mapping set)
//!   epoch caches bindings by logical fingerprint and node results weakly, so a hot epoch's
//!   later batches skip rebinding and re-executing everything still materialised;
//! * [`reference`] — the retained row-at-a-time evaluator, the oracle of the property tests;
//! * [`ExecStats`] and [`RunReport`] — the one account of the work: counters for executed
//!   operators and produced tuples (the metric reported in the paper's Table IV), and what
//!   each DAG run's merge, caches and scheduler did;
//! * [`optimize`] — the one rewrite every reformulated query goes through: a canonical
//!   join-graph normal form (selections on their leaves, joins along equality edges,
//!   products last and, under a `Distinct` root, de-duplicated factor by factor), plus the
//!   plan fingerprinting the sharing layers key on.
//!
//! ```
//! use urm_engine::{CompareOp, Executor, Plan, Predicate};
//! use urm_storage::{Attribute, Catalog, DataType, Relation, Schema, Tuple, Value};
//!
//! let schema = Schema::new(
//!     "Customer",
//!     vec![
//!         Attribute::new("cname", DataType::Text),
//!         Attribute::new("oaddr", DataType::Text),
//!     ],
//! );
//! let rel = Relation::new(
//!     schema,
//!     vec![
//!         Tuple::new(vec![Value::from("Alice"), Value::from("aaa")]),
//!         Tuple::new(vec![Value::from("Bob"), Value::from("bbb")]),
//!     ],
//! )
//! .unwrap();
//! let mut catalog = Catalog::new();
//! catalog.insert(rel);
//!
//! // π_{cname} σ_{oaddr = 'aaa'} Customer
//! let plan = Plan::scan("Customer")
//!     .select(Predicate::compare("Customer.oaddr", CompareOp::Eq, Value::from("aaa")))
//!     .project(vec!["Customer.cname".into()]);
//!
//! let mut exec = Executor::new(&catalog);
//! let result = exec.run(&plan).unwrap();
//! assert_eq!(result.len(), 1);
//! assert_eq!(result.rows()[0].get(0), Some(&Value::from("Alice")));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dag;
pub mod epoch;
pub mod error;
pub mod executor;
pub mod expr;
pub mod optimize;
pub mod physical;
pub mod plan;
pub mod reference;
pub mod stats;
pub mod vectorized;

pub use dag::{DagResultCache, DagRun, DagScheduler, NodeId, OperatorDag};
pub use epoch::{EpochDag, EpochRun, PreparedBatch, DEFAULT_PIN_BUDGET_BYTES};
pub use error::{EngineError, EngineResult};
pub use executor::Executor;
pub use expr::{AggFunc, CompareOp, Predicate};
pub use physical::{BoundAggregate, BoundPredicate, PhysicalPlan};
pub use plan::Plan;
pub use reference::ReferenceExecutor;
pub use stats::{ExecStats, RunReport};
