//! The catalog: the source instance `D`, a named collection of relations.

use crate::{ColumnarRelation, Relation, Schema, StorageError, StorageResult};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

/// A named collection of materialised relations — the paper's *source instance* `D`.
///
/// Relations are held behind [`Arc`] so the many source queries generated from a mapping set can
/// scan the same base data without copying it.
///
/// The catalog also memoises [`ColumnarRelation`] conversions, keyed by *row-buffer identity*:
/// the same buffer scanned under different aliases shares one conversion, catalog clones (the
/// per-worker executors of the DAG scheduler) share the cache, and an entry pins its source
/// buffer alive — so a cache key can never be a dangling pointer reused by another allocation.
///
/// Beside it sit the *qualified scan schemas* ([`Catalog::scan_schema`]): a plan's scan of
/// `relation AS alias` carries the base schema with every attribute renamed `alias.attr`, and
/// schema inference, optimisation and binding each ask for it, per plan, for the same handful
/// of (relation, alias) pairs.  Each is built once and handed out as a clone (three `Arc`
/// bumps).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: BTreeMap<String, Arc<Relation>>,
    columnar: Arc<Mutex<HashMap<usize, Arc<ColumnarRelation>>>>,
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
            .insert(relation.schema().name().to_string(), Arc::new(relation));
    }

    /// Registers a relation, failing if one with the same name already exists.
    pub fn try_insert(&mut self, relation: Relation) -> StorageResult<()> {
        let name = relation.schema().name().to_string();
        if self.relations.contains_key(&name) {
            return Err(StorageError::DuplicateRelation(name));
        }
        self.relations.insert(name, Arc::new(relation));
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

    /// Estimated total size in bytes (see [`Relation::estimated_bytes`]).
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        self.relations.values().map(|r| r.estimated_bytes()).sum()
    }

    fn buffer_key(rel: &Relation) -> usize {
        Arc::as_ptr(&rel.shared_rows()) as *const () as usize
    }

    /// The memoised columnar conversion of a relation's row buffer, converting on first use.
    ///
    /// Conversions are shared across aliases of the same buffer and across catalog clones.
    /// The executor calls this at scan time.
    #[must_use]
    pub fn columnar_view(&self, rel: &Relation) -> Arc<ColumnarRelation> {
        let key = Catalog::buffer_key(rel);
        let mut cache = self.columnar.lock().unwrap();
        if let Some(found) = cache.get(&key) {
            // An entry pins its source buffer, so a matching key is almost certainly the same
            // allocation — but verify identity anyway: the map survives relations it indexed.
            if found.matches_buffer(rel) {
                return Arc::clone(found);
            }
        }
        let converted = Arc::new(ColumnarRelation::from_relation(rel));
        cache.insert(key, Arc::clone(&converted));
        converted
    }

    /// The memoised columnar conversion of a relation's row buffer, if one exists (no
    /// conversion is performed).  Used by per-node execution paths that only want the
    /// columnar kernels for buffers a scan already converted.
    #[must_use]
    pub fn cached_columnar(&self, rel: &Relation) -> Option<Arc<ColumnarRelation>> {
        let cache = self.columnar.lock().unwrap();
        cache
            .get(&Catalog::buffer_key(rel))
            .filter(|c| c.matches_buffer(rel))
            .map(Arc::clone)
    }
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
    fn columnar_views_are_memoised_by_buffer_identity() {
        let mut cat = Catalog::new();
        cat.insert(rel("Customer", "cid", 5));
        let base = cat.get("Customer").unwrap();
        let a = cat.columnar_view(&base);
        // Aliased scan of the same buffer: same conversion.
        let b = cat.columnar_view(&base.renamed("C1"));
        assert!(Arc::ptr_eq(&a, &b));
        // Catalog clones share the cache.
        let clone = cat.clone();
        assert!(Arc::ptr_eq(&a, &clone.columnar_view(&base)));
        assert!(clone.cached_columnar(&base).is_some());
        // A different buffer with equal contents is a different conversion.
        let other = rel("Customer", "cid", 5);
        assert!(cat.cached_columnar(&other).is_none());
        let c = cat.columnar_view(&other);
        assert!(!Arc::ptr_eq(&a, &c));
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
