//! The catalog: the source instance `D`, a named collection of relations.

use crate::{ColumnView, ColumnarRelation, Relation, Schema, StorageError, StorageResult};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

/// A named collection of relations — the paper's *source instance* `D`.
///
/// Relations are held behind [`Arc`] so the many source queries generated from a mapping set can
/// scan the same base data without copying it.  They are held *columnar at rest*: inserting a
/// row relation converts it once into a [`ColumnarRelation`] and keeps only that, as the whole
/// [`ColumnView`] of its columns ([`Relation::from_view`]), so a scan reads the columns as they
/// lie.  Rows of a base relation are built only for whoever asks for them
/// ([`Relation::rows`]), and are then held beside the columns.
///
/// Beside them sit the *qualified scan schemas* ([`Catalog::scan_schema`]): a plan's scan of
/// `relation AS alias` carries the base schema with every attribute renamed `alias.attr`, and
/// schema inference, optimisation and binding each ask for it, per plan, for the same handful
/// of (relation, alias) pairs.  Each is built once and handed out as a clone (three `Arc`
/// bumps).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: BTreeMap<String, Arc<Relation>>,
    scan_schemas: Arc<Mutex<HashMap<String, ScanSchemas>>>,
}

/// The qualified schemas built for one relation name, valid for the base schema they were built
/// from: the cache is shared by catalog clones and survives [`Catalog::insert`], so an entry
/// whose base is no longer the relation's schema is rebuilt, never served.
#[derive(Debug)]
struct ScanSchemas {
    base: Schema,
    by_alias: HashMap<String, Schema>,
}

impl Catalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a relation under its schema name, replacing any existing relation of that name.
    pub fn insert(&mut self, relation: Relation) {
        self.relations
            .insert(relation.schema().name().to_string(), at_rest(relation));
    }

    /// Registers a relation, failing if one with the same name already exists.
    pub fn try_insert(&mut self, relation: Relation) -> StorageResult<()> {
        let name = relation.schema().name().to_string();
        if self.relations.contains_key(&name) {
            return Err(StorageError::DuplicateRelation(name));
        }
        self.relations.insert(name, at_rest(relation));
        Ok(())
    }

    /// Looks up a relation by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<Relation>> {
        self.relations.get(name).cloned()
    }

    /// Looks up a relation, returning an error naming the missing relation.
    pub fn require(&self, name: &str) -> StorageResult<Arc<Relation>> {
        self.get(name)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Returns the schema of a relation.
    #[must_use]
    pub fn schema(&self, name: &str) -> Option<Schema> {
        self.relations.get(name).map(|r| r.schema().clone())
    }

    /// The schema of `relation` scanned as `alias` ([`Schema::qualified`]), built on first use
    /// and memoised per (relation, alias).
    pub fn scan_schema(&self, relation: &str, alias: &str) -> StorageResult<Schema> {
        let base = self
            .relations
            .get(relation)
            .ok_or_else(|| StorageError::UnknownRelation(relation.to_string()))?
            .schema();
        let mut cache = self
            .scan_schemas
            .lock()
            .expect("the scan-schema cache lock is never held across a panic");
        if !cache
            .get(relation)
            .is_some_and(|entry| entry.base.shares_attributes(base))
        {
            let fresh = ScanSchemas {
                base: base.clone(),
                by_alias: HashMap::new(),
            };
            cache.insert(relation.to_string(), fresh);
        }
        let entry = cache.get_mut(relation).expect("present or just inserted");
        if let Some(found) = entry.by_alias.get(alias) {
            return Ok(found.clone());
        }
        let qualified = base.qualified(alias);
        entry.by_alias.insert(alias.to_string(), qualified.clone());
        Ok(qualified)
    }

    /// Finds the relation (if any) that declares the given attribute.
    ///
    /// Used by operator reformulation (Section VI-B) to locate the source relation(s) covering a
    /// set of mapped source attributes.  Attribute names in the generated schemas are globally
    /// unique, mirroring the paper's schemas, so the first hit is the only hit.
    #[must_use]
    pub fn relation_of_attribute(&self, attr: &str) -> Option<&str> {
        self.relations
            .values()
            .find(|r| r.schema().contains(attr))
            .map(|r| r.schema().name())
    }

    /// Iterates over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Relation>)> {
        self.relations.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Relation names in sorted order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Number of relations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total number of tuples across all relations.
    #[must_use]
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Estimated total size in bytes of what the relations hold: their columns, and rows
    /// where something built them (see [`Relation::estimated_bytes`]).
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        self.relations.values().map(|r| r.estimated_bytes()).sum()
    }
}

/// A relation as the catalog holds it: a relation that already has a view is kept as it is (a
/// relation taken from another catalog is not converted again); a row relation is converted to
/// columns, and its rows are dropped.
fn at_rest(relation: Relation) -> Arc<Relation> {
    if relation.view().is_some() {
        return Arc::new(relation);
    }
    let columns = ColumnarRelation::from_relation(&relation);
    let view = ColumnView::from_base(Arc::new(columns));
    let schema = relation.schema().clone();
    Arc::new(Relation::from_view(schema, view))
}

impl fmt::Display for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "catalog: {} relations, {} tuples, ~{} bytes",
            self.len(),
            self.total_tuples(),
            self.estimated_bytes()
        )?;
        for (name, rel) in self.iter() {
            writeln!(f, "  {} — {} rows", name, rel.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, DataType, Tuple, Value};

    fn rel(name: &str, attr: &str, n: usize) -> Relation {
        let schema = Schema::new(name, vec![Attribute::new(attr, DataType::Int)]);
        let rows = (0..n)
            .map(|i| Tuple::new(vec![Value::from(i as i64)]))
            .collect();
        Relation::new(schema, rows).unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let mut cat = Catalog::new();
        cat.insert(rel("Customer", "cid", 3));
        cat.insert(rel("Order", "oid", 2));
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.get("Customer").unwrap().len(), 3);
        assert!(cat.get("Missing").is_none());
        assert!(cat.require("Missing").is_err());
        assert_eq!(cat.total_tuples(), 5);
    }

    #[test]
    fn try_insert_rejects_duplicates() {
        let mut cat = Catalog::new();
        cat.try_insert(rel("Customer", "cid", 1)).unwrap();
        let err = cat.try_insert(rel("Customer", "cid", 1)).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateRelation(_)));
    }

    #[test]
    fn relation_of_attribute_finds_owner() {
        let mut cat = Catalog::new();
        cat.insert(rel("Customer", "cid", 1));
        cat.insert(rel("Order", "oid", 1));
        assert_eq!(cat.relation_of_attribute("oid"), Some("Order"));
        assert_eq!(cat.relation_of_attribute("cid"), Some("Customer"));
        assert_eq!(cat.relation_of_attribute("ghost"), None);
    }

    #[test]
    fn names_are_sorted() {
        let mut cat = Catalog::new();
        cat.insert(rel("Zeta", "z", 0));
        cat.insert(rel("Alpha", "a", 0));
        let names: Vec<_> = cat.relation_names().collect();
        assert_eq!(names, vec!["Alpha", "Zeta"]);
    }

    #[test]
    fn relations_are_held_as_columns_and_converted_once() {
        let mut cat = Catalog::new();
        cat.insert(rel("Customer", "cid", 5));
        let base = cat.get("Customer").unwrap();
        let columns = base.view().and_then(ColumnView::as_base).unwrap();
        assert_eq!((columns.len(), columns.arity()), (5, 1));
        assert_eq!(
            cat.estimated_bytes(),
            5 * 8,
            "five integers and nothing else"
        );
        // Inserted into another catalog, the relation keeps its storage.
        let mut other = Catalog::new();
        other.insert(base.as_ref().clone());
        let again = other.get("Customer").unwrap();
        assert_eq!(again.storage_id(), base.storage_id());
        // Rows are built only on request, and then counted beside the columns.
        assert_eq!(base.rows()[4], Tuple::new(vec![Value::from(4i64)]));
        assert!(cat.estimated_bytes() > columns.estimated_bytes());
    }

    #[test]
    fn scan_schemas_are_built_once_per_relation_and_alias() {
        let mut cat = Catalog::new();
        cat.insert(rel("Customer", "cid", 5));
        let base = cat.get("Customer").unwrap();
        let a = cat.scan_schema("Customer", "PO__Customer").unwrap();
        assert_eq!(a, base.schema().qualified("PO__Customer"));
        assert_eq!(a.name(), "PO__Customer");
        assert_eq!(a.position("PO__Customer.cid"), Some(0));
        // The same pair again — from a clone too — is the same schema, not a rebuilt one.
        assert!(a.shares_attributes(&cat.scan_schema("Customer", "PO__Customer").unwrap()));
        assert!(a.shares_attributes(&cat.clone().scan_schema("Customer", "PO__Customer").unwrap()));
        let other = cat.scan_schema("Customer", "Customer").unwrap();
        assert_eq!(other.position("Customer.cid"), Some(0));
        assert!(cat.scan_schema("Ghost", "G").is_err());
        // A replaced relation is never answered from the schema it replaced.
        cat.insert(rel("Customer", "custkey", 1));
        let replaced = cat.scan_schema("Customer", "PO__Customer").unwrap();
        assert_eq!(replaced.position("PO__Customer.custkey"), Some(0));
        assert_eq!(replaced.position("PO__Customer.cid"), None);
    }

    #[test]
    fn display_mentions_counts() {
        let mut cat = Catalog::new();
        cat.insert(rel("Customer", "cid", 4));
        let s = cat.to_string();
        assert!(s.contains("Customer"));
        assert!(s.contains("4 rows"));
    }
}
