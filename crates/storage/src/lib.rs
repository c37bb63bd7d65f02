//! # urm-storage
//!
//! In-memory relational storage substrate used by the URM (Uncertain Relational Matching)
//! reproduction of *Evaluating Probabilistic Queries over Uncertain Matching* (ICDE 2012).
//!
//! The paper evaluates probabilistic queries by reformulating a target query into source
//! queries and running them on a concrete *source instance* `D`.  This crate provides that
//! source instance: typed [`Value`]s, [`Tuple`]s, relation [`Schema`]s, materialised
//! [`Relation`]s and a [`Catalog`] mapping relation names to relations.
//!
//! The storage layer is deliberately simple (memory-first) — the paper's algorithms are about
//! *how many* source operators and queries are executed, not about disk layout — but the types
//! are designed so the query engine built on top ([`urm-engine`](https://docs.rs/urm-engine))
//! can count and share work exactly the way the paper describes.  Relations are built as rows;
//! the [`Catalog`] converts each one it is given, once, into typed columns ([`column`]) and
//! keeps only those, and operators exchange [`ColumnView`]s ([`view`]) — row-index vectors over
//! those shared columns — which a [`Relation`] carries in place of rows, building tuples only
//! when something reads them.  For workloads bigger than RAM, the [`spill`] module
//! adds a byte-budgeted [`BufferPool`] that pages materialised relations to disk segments and
//! reloads them transparently.
//!
//! ## Quick example
//!
//! ```
//! use urm_storage::{Attribute, Catalog, DataType, Relation, Schema, Tuple, Value};
//!
//! // The `Customer` relation of Figure 2 in the paper.
//! let schema = Schema::new(
//!     "Customer",
//!     vec![
//!         Attribute::new("cid", DataType::Int),
//!         Attribute::new("cname", DataType::Text),
//!         Attribute::new("ophone", DataType::Text),
//!         Attribute::new("hphone", DataType::Text),
//!         Attribute::new("oaddr", DataType::Text),
//!         Attribute::new("haddr", DataType::Text),
//!     ],
//! );
//! let mut rel = Relation::empty(schema);
//! rel.push(Tuple::new(vec![
//!     Value::from(1i64),
//!     Value::from("Alice"),
//!     Value::from("123"),
//!     Value::from("789"),
//!     Value::from("aaa"),
//!     Value::from("hk"),
//! ]))
//! .unwrap();
//!
//! let mut catalog = Catalog::new();
//! catalog.insert(rel);
//! assert!(catalog.get("Customer").is_some());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod catalog;
pub mod codec;
pub mod column;
pub mod dictionary;
pub mod error;
pub mod hash_index;
pub mod recency;
pub mod relation;
pub mod schema;
pub mod spill;
pub mod tuple;
pub mod types;
pub mod value;
pub mod view;

pub use catalog::Catalog;
pub use column::{Column, ColumnarRelation, NullBitmap};
pub use dictionary::{Dictionary, DEFAULT_DICT_LIMIT};
pub use error::{StorageError, StorageResult};
pub use hash_index::HashIndex;
pub use recency::RecencyIndex;
pub use relation::Relation;
pub use schema::{AttrRef, Attribute, Name, Schema};
pub use spill::{BufferPool, SpillStats, SpillableRelation, DEFAULT_PAGE_BYTES};
pub use tuple::Tuple;
pub use types::DataType;
pub use value::{hash_keys, text_hash, value_hash, Value};
pub use view::{ColumnRef, ColumnView};
