//! # urm-matching
//!
//! The schema-matching substrate of the URM reproduction of *Evaluating Probabilistic Queries
//! over Uncertain Matching* (ICDE 2012).
//!
//! The paper assumes the output of a schema matcher (COMA++): a set of attribute
//! **correspondences** with similarity scores between a source schema `S` and a target schema
//! `T`, turned into `h` **possible mappings** by a bipartite matching algorithm ([9], [10]),
//! each mapping carrying a probability obtained by normalising its total similarity score.
//!
//! This crate rebuilds that pipeline from scratch:
//!
//! * [`SchemaDef`] — a lightweight description of a schema's relations and attributes;
//! * [`Correspondence`] / [`SimilarityMatrix`] — scored attribute pairs;
//! * [`murty`] — enumeration of the `h` highest-scoring one-to-one partial mappings: Murty's
//!   k-best partition over a sparse successive-shortest-path solver on exact integer weights,
//!   ranked by total score descending, ties by sorted pair list ascending;
//! * [`Mapping`] / [`MappingSet`] — possible mappings with normalised probabilities, plus the
//!   **o-ratio** overlap statistic of Section VIII-B.1.
//!
//! ```
//! use urm_matching::{MappingSet, SchemaDef, SimilarityMatrix};
//!
//! let source = SchemaDef::new("S").with_relation("Customer", ["cname", "ophone", "hphone"]);
//! let target = SchemaDef::new("T").with_relation("Person", ["pname", "phone"]);
//! let mut sim = SimilarityMatrix::new(&source, &target);
//! sim.set(("Customer", "cname"), ("Person", "pname"), 0.85);
//! sim.set(("Customer", "ophone"), ("Person", "phone"), 0.85);
//! sim.set(("Customer", "hphone"), ("Person", "phone"), 0.83);
//!
//! let mappings = MappingSet::top_h(&sim, 2).unwrap();
//! assert_eq!(mappings.len(), 2);
//! let total: f64 = mappings.iter().map(|m| m.probability()).sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod correspondence;
pub mod error;
pub mod mapping;
pub mod mapping_set;
pub mod murty;
pub mod oratio;
pub mod schema_def;
pub mod similarity;

pub use correspondence::Correspondence;
pub use error::{MatchingError, MatchingResult};
pub use mapping::Mapping;
pub use mapping_set::MappingSet;
pub use schema_def::SchemaDef;
pub use similarity::SimilarityMatrix;
