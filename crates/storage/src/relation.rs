//! Materialised relations (schema + rows).

use crate::{ColumnView, Name, Schema, StorageError, StorageResult, Tuple, Value};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A materialised relation: a schema plus a bag (multiset) of tuples.
///
/// Relations are bags, not sets: the paper's query semantics removes duplicates only during the
/// final probabilistic aggregation step (or not at all, if the caller asks for bag semantics),
/// so the storage layer never deduplicates.
///
/// The storage is `Arc`-backed: cloning a relation, renaming it (aliased scans) or handing it to
/// another operator shares it instead of copying it.  Mutation ([`push`](Relation::push)) is
/// copy-on-write — a relation whose rows are shared copies them once before appending — so
/// sharing is invisible to code that builds relations row by row.
/// [`storage_id`](Relation::storage_id) exposes that identity: bound-plan fingerprints key
/// leaves by it, and the zero-copy tests of the engine and cache layers compare it.
///
/// A relation can also be *late-materialized* ([`from_view`](Relation::from_view)): it holds a
/// [`ColumnView`] — index vectors over shared columns — and builds its row buffer the first
/// time something asks for rows ([`rows`](Relation::rows), [`iter`](Relation::iter),
/// equality, …), at most once.  Every base relation of a [`Catalog`](crate::Catalog) is held
/// this way, as the whole view of its columns, and so is every vectorized operator's output.
/// Operators that understand views read [`view`](Relation::view) instead and never trigger
/// that.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relation {
    schema: Schema,
    rows: RowStore,
}

/// Where a relation's rows live.
#[derive(Debug, Clone)]
enum RowStore {
    /// A materialised row buffer.
    Rows(Arc<Vec<Tuple>>),
    /// A columnar view whose row buffer is built on first use (shared by every clone).
    Lazy(Arc<LazyRows>),
}

#[derive(Debug)]
struct LazyRows {
    view: ColumnView,
    rows: OnceLock<Arc<Vec<Tuple>>>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    #[must_use]
    pub fn empty(schema: Schema) -> Self {
        Relation::from_validated(schema, Vec::new())
    }

    /// Creates a relation from a schema and pre-built rows.
    ///
    /// Row arity is validated; value types are checked against the schema.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> StorageResult<Self> {
        let mut rel = Relation::from_validated(schema, Vec::with_capacity(rows.len()));
        for row in rows {
            rel.push(row)?;
        }
        Ok(rel)
    }

    /// Creates a relation without validating rows (used by the engine for derived results whose
    /// tuples are constructed from already-validated inputs).
    #[must_use]
    pub fn from_validated(schema: Schema, rows: Vec<Tuple>) -> Self {
        Relation::from_shared(schema, Arc::new(rows))
    }

    /// Creates a relation over an already-shared row buffer without copying it.
    ///
    /// This is the zero-copy constructor of the engine's physical plan layer: scans and cached
    /// sub-plan results wrap the same `Arc<Vec<Tuple>>` under different schemas (aliased scans)
    /// instead of materialising per-operator copies.  Rows are not validated against the schema.
    #[must_use]
    pub fn from_shared(schema: Schema, rows: Arc<Vec<Tuple>>) -> Self {
        Relation {
            schema,
            rows: RowStore::Rows(rows),
        }
    }

    /// Creates a late-materialized relation over a columnar view: no tuple exists until
    /// something reads rows.  The view's arity must match the schema's.
    #[must_use]
    pub fn from_view(schema: Schema, view: ColumnView) -> Self {
        debug_assert_eq!(schema.arity(), view.arity());
        Relation {
            schema,
            rows: RowStore::Lazy(Arc::new(LazyRows {
                view,
                rows: OnceLock::new(),
            })),
        }
    }

    /// The columnar view behind a late-materialized relation (`None` for row relations).
    #[must_use]
    pub fn view(&self) -> Option<&ColumnView> {
        match &self.rows {
            RowStore::Rows(_) => None,
            RowStore::Lazy(lazy) => Some(&lazy.view),
        }
    }

    /// The row buffer, built from the view on first use.
    fn buffer(&self) -> &Arc<Vec<Tuple>> {
        match &self.rows {
            RowStore::Rows(rows) => rows,
            RowStore::Lazy(lazy) => lazy.rows.get_or_init(|| lazy.view.materialize()),
        }
    }

    /// Mutable access to the row buffer (copy-on-write); a late-materialized relation becomes
    /// a row relation first.
    fn buffer_mut(&mut self) -> &mut Vec<Tuple> {
        if let RowStore::Lazy(_) = self.rows {
            let rows = self.shared_rows();
            self.rows = RowStore::Rows(rows);
        }
        match &mut self.rows {
            RowStore::Rows(rows) => Arc::make_mut(rows),
            RowStore::Lazy(_) => unreachable!("converted above"),
        }
    }

    /// The shared row buffer (a pointer bump, never a copy).
    #[must_use]
    pub fn shared_rows(&self) -> Arc<Vec<Tuple>> {
        Arc::clone(self.buffer())
    }

    /// The identity of the relation's backing storage: equal exactly for relations sharing
    /// one row buffer or one view (clones, renames).  Bound-plan fingerprints key leaves by
    /// this, so fingerprinting a late-materialized relation never builds its rows.
    #[must_use]
    pub fn storage_id(&self) -> usize {
        match &self.rows {
            RowStore::Rows(rows) => Arc::as_ptr(rows) as *const () as usize,
            RowStore::Lazy(lazy) => Arc::as_ptr(lazy) as *const () as usize,
        }
    }

    /// The relation's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.rows {
            RowStore::Rows(rows) => rows.len(),
            RowStore::Lazy(lazy) => lazy.view.len(),
        }
    }

    /// Whether the relation has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows as a slice (building them first if the relation is late-materialized).
    #[must_use]
    pub fn rows(&self) -> &[Tuple] {
        self.buffer()
    }

    /// Consumes the relation, returning its rows (copied only if the buffer is shared).
    #[must_use]
    pub fn into_rows(self) -> Vec<Tuple> {
        let rows = self.shared_rows();
        drop(self);
        Arc::try_unwrap(rows).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Appends a tuple after validating arity and types.
    pub fn push(&mut self, tuple: Tuple) -> StorageResult<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.name().to_string(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        for (attr, value) in self.schema.attributes().iter().zip(tuple.iter()) {
            if !attr.data_type.accepts(value.data_type()) {
                return Err(StorageError::TypeMismatch {
                    relation: self.schema.name().to_string(),
                    attribute: attr.name.to_string(),
                    expected: attr.data_type,
                    actual: value.data_type(),
                });
            }
        }
        self.buffer_mut().push(tuple);
        Ok(())
    }

    /// Appends a tuple without validation (engine-internal fast path).
    pub fn push_unchecked(&mut self, tuple: Tuple) {
        self.buffer_mut().push(tuple);
    }

    /// Iterates over the rows.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.buffer().iter()
    }

    /// Returns the column of values for an attribute.
    pub fn column(&self, attr: &str) -> StorageResult<Vec<Value>> {
        let pos = self.schema.require(attr)?;
        Ok(self
            .iter()
            .map(|t| t.get(pos).cloned().unwrap_or(Value::Null))
            .collect())
    }

    /// Returns a relation with the same storage but a renamed schema (aliased scan).
    #[must_use]
    pub fn renamed(&self, name: impl Into<Name>) -> Relation {
        self.with_schema(self.schema.renamed(name))
    }

    /// The same storage under another schema of the same arity (a scan's qualified schema):
    /// nothing is copied, and no row is built.
    #[must_use]
    pub fn with_schema(&self, schema: Schema) -> Relation {
        debug_assert_eq!(schema.arity(), self.schema.arity());
        Relation {
            schema,
            rows: self.rows.clone(),
        }
    }

    /// An estimate of the in-memory footprint in bytes, used by the experiment harness to
    /// report database sizes comparable to the paper's "database size (MB)" axis and by the
    /// pin and spill budgets.  A late-materialized relation is priced at what it actually
    /// holds: the columns of a whole base, or else its view's index vectors, plus its rows
    /// once they have been built.
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        match &self.rows {
            RowStore::Rows(rows) => row_bytes(rows),
            RowStore::Lazy(lazy) => {
                let view = &lazy.view;
                view.as_base()
                    .map_or_else(|| view.estimated_bytes(), |b| b.estimated_bytes())
                    + lazy.rows.get().map_or(0, |rows| row_bytes(rows))
            }
        }
    }
}

fn row_bytes(rows: &[Tuple]) -> usize {
    let mut total = 0usize;
    for row in rows {
        for v in row.iter() {
            total += match v {
                Value::Null => 1,
                Value::Int(_) => 8,
                Value::Float(_) => 8,
                Value::Bool(_) => 1,
                Value::Text(s) => s.len() + 8,
            };
        }
    }
    total
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows() == other.rows()
    }
}

// `Value` has a total equality (floats via `total_cmp`), so relation equality is a true
// equivalence and relations can be hashed — query plans embedding materialised relations rely
// on this for sub-expression fingerprinting.
impl Eq for Relation {}

impl std::hash::Hash for Relation {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.schema.hash(state);
        self.rows().hash(state);
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for row in self.iter() {
            writeln!(f, "  {row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, DataType};

    fn schema() -> Schema {
        Schema::new(
            "Customer",
            vec![
                Attribute::new("cid", DataType::Int),
                Attribute::new("cname", DataType::Text),
            ],
        )
    }

    #[test]
    fn push_validates_arity() {
        let mut rel = Relation::empty(schema());
        let err = rel.push(Tuple::new(vec![Value::from(1i64)])).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
    }

    #[test]
    fn push_validates_types() {
        let mut rel = Relation::empty(schema());
        let err = rel
            .push(Tuple::new(vec![Value::from("oops"), Value::from("x")]))
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn push_accepts_null_anywhere() {
        let mut rel = Relation::empty(schema());
        rel.push(Tuple::new(vec![Value::Null, Value::Null]))
            .unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn column_extraction() {
        let rel = Relation::new(
            schema(),
            vec![
                Tuple::new(vec![Value::from(1i64), Value::from("Alice")]),
                Tuple::new(vec![Value::from(2i64), Value::from("Bob")]),
            ],
        )
        .unwrap();
        let names = rel.column("cname").unwrap();
        assert_eq!(names, vec![Value::from("Alice"), Value::from("Bob")]);
        assert!(rel.column("ghost").is_err());
    }

    #[test]
    fn renamed_preserves_rows() {
        let rel = Relation::new(
            schema(),
            vec![Tuple::new(vec![Value::from(1i64), Value::from("Alice")])],
        )
        .unwrap();
        let aliased = rel.renamed("Customer1");
        assert_eq!(aliased.schema().name(), "Customer1");
        assert_eq!(aliased.len(), 1);
    }

    #[test]
    fn estimated_bytes_grows_with_rows() {
        let mut rel = Relation::empty(schema());
        let empty_size = rel.estimated_bytes();
        rel.push(Tuple::new(vec![Value::from(1i64), Value::from("Alice")]))
            .unwrap();
        assert!(rel.estimated_bytes() > empty_size);
    }

    #[test]
    fn clone_and_rename_share_the_row_buffer() {
        let rel = Relation::new(
            schema(),
            vec![Tuple::new(vec![Value::from(1i64), Value::from("Alice")])],
        )
        .unwrap();
        let cloned = rel.clone();
        assert_eq!(rel.storage_id(), cloned.storage_id());
        let aliased = rel.renamed("C1");
        assert_eq!(rel.storage_id(), aliased.storage_id());
        let shared = Relation::from_shared(rel.schema().clone(), rel.shared_rows());
        assert_eq!(rel.storage_id(), shared.storage_id());
    }

    #[test]
    fn push_on_a_shared_buffer_is_copy_on_write() {
        let mut rel = Relation::new(
            schema(),
            vec![Tuple::new(vec![Value::from(1i64), Value::from("Alice")])],
        )
        .unwrap();
        let view = rel.clone();
        rel.push(Tuple::new(vec![Value::from(2i64), Value::from("Bob")]))
            .unwrap();
        // The writer got a private buffer; the shared view is untouched.
        assert_ne!(rel.storage_id(), view.storage_id());
        assert_eq!(rel.len(), 2);
        assert_eq!(view.len(), 1);
    }

    #[test]
    fn into_rows_copies_only_when_shared() {
        let rel = Relation::new(
            schema(),
            vec![Tuple::new(vec![Value::from(1i64), Value::from("Alice")])],
        )
        .unwrap();
        let view = rel.clone();
        let rows = rel.into_rows(); // shared with `view` → copied
        assert_eq!(rows.len(), 1);
        let rows = view.into_rows(); // sole owner → moved out
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn relations_are_bags() {
        let mut rel = Relation::empty(schema());
        let row = Tuple::new(vec![Value::from(1i64), Value::from("Alice")]);
        rel.push(row.clone()).unwrap();
        rel.push(row).unwrap();
        assert_eq!(rel.len(), 2);
    }
}
