//! Relation schemas and attribute references.

use crate::{DataType, StorageError, StorageResult};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A column or relation name: immutable and shared.  Cloning a schema, or a plan or predicate
/// that names columns, bumps reference counts and copies no string; a `Name` hashes, compares
/// and orders exactly as the `str` it holds (and as the `String` it replaced).
pub type Name = Arc<str>;

/// A single attribute (column) declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name, unique within its relation.
    pub name: Name,
    /// Declared data type.
    pub data_type: DataType,
}

impl Attribute {
    /// Creates a new attribute.
    pub fn new(name: impl Into<Name>, data_type: DataType) -> Self {
        Attribute {
            name: name.into(),
            data_type,
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.name, self.data_type)
    }
}

/// A fully-qualified attribute reference: `alias.attribute`.
///
/// Schema-matching correspondences relate attributes of *relations*, but queries may mention the
/// same relation several times (the paper's Q3/Q4 self-join `Item1 × Item2`), so references are
/// qualified by an alias.  When the alias equals the relation name the reference is unaliased.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AttrRef {
    /// Relation alias (defaults to the relation name).
    pub alias: String,
    /// Attribute name within that relation.
    pub attr: String,
}

impl AttrRef {
    /// Creates a new qualified attribute reference.
    pub fn new(alias: impl Into<String>, attr: impl Into<String>) -> Self {
        AttrRef {
            alias: alias.into(),
            attr: attr.into(),
        }
    }

    /// Parses a reference of the form `"alias.attr"`; a bare name becomes an empty alias.
    #[must_use]
    pub fn parse(s: &str) -> Self {
        match s.split_once('.') {
            Some((alias, attr)) => AttrRef::new(alias, attr),
            None => AttrRef::new("", s),
        }
    }

    /// Returns the `alias.attr` rendering used as column names of derived relations.
    #[must_use]
    pub fn qualified(&self) -> String {
        if self.alias.is_empty() {
            self.attr.clone()
        } else {
            format!("{}.{}", self.alias, self.attr)
        }
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.qualified())
    }
}

/// The schema of a relation: a name plus an ordered list of attributes.
///
/// Schemas are immutable once built and shared via [`Arc`] between the catalog, materialised
/// relations and query plans.  A schema derived from others — a product, a join, a projection
/// — shares their attributes' names and takes its (left) input's name, so building one copies
/// no string.  Positions are found by scanning the attribute list: relations here have at most
/// a few dozen attributes, and a scan over them costs less than building a hash index for
/// every derived schema (a bound plan builds one schema per operator).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Schema {
    name: Name,
    attributes: Arc<[Attribute]>,
}

impl Schema {
    /// Builds a schema from a relation name and attribute list.
    ///
    /// # Panics
    /// Panics if two attributes share a name; use [`Schema::try_new`] for a fallible variant.
    pub fn new(name: impl Into<Name>, attributes: Vec<Attribute>) -> Self {
        Self::try_new(name, attributes).expect("duplicate attribute in schema")
    }

    /// Fallible constructor that rejects duplicate attribute names.
    pub fn try_new(name: impl Into<Name>, attributes: Vec<Attribute>) -> StorageResult<Self> {
        Self::build(name.into(), attributes.into())
    }

    fn build(name: Name, attributes: Arc<[Attribute]>) -> StorageResult<Self> {
        for (i, attr) in attributes.iter().enumerate() {
            if attributes[..i].iter().any(|a| a.name == attr.name) {
                return Err(StorageError::DuplicateAttribute {
                    relation: name.to_string(),
                    attribute: attr.name.to_string(),
                });
            }
        }
        Ok(Schema { name, attributes })
    }

    /// The relation name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns a copy of this schema under a different relation name (used for aliased scans).
    #[must_use]
    pub fn renamed(&self, name: impl Into<Name>) -> Self {
        Schema {
            name: name.into(),
            attributes: Arc::clone(&self.attributes),
        }
    }

    /// The schema of this relation scanned as `alias`: renamed to the alias, every attribute
    /// renamed `alias.attr`.
    #[must_use]
    pub fn qualified(&self, alias: &str) -> Self {
        let attrs = self
            .attributes
            .iter()
            .map(|a| Attribute::new(format!("{alias}.{}", a.name), a.data_type))
            .collect();
        Schema::new(alias, attrs)
    }

    /// Whether the two schemas share one attribute list (clones or renamings of one schema),
    /// as opposed to merely equal ones.
    #[must_use]
    pub fn shares_attributes(&self, other: &Schema) -> bool {
        Arc::ptr_eq(&self.attributes, &other.attributes)
    }

    /// The ordered attribute list.
    #[must_use]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of attributes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of an attribute by name.
    #[must_use]
    pub fn position(&self, attr: &str) -> Option<usize> {
        self.attributes.iter().position(|a| *a.name == *attr)
    }

    /// Position of an attribute, as an error-carrying lookup.
    pub fn require(&self, attr: &str) -> StorageResult<usize> {
        self.position(attr)
            .ok_or_else(|| StorageError::UnknownAttribute {
                relation: self.name.to_string(),
                attribute: attr.to_string(),
            })
    }

    /// Whether the schema declares the given attribute.
    #[must_use]
    pub fn contains(&self, attr: &str) -> bool {
        self.position(attr).is_some()
    }

    /// Attribute names in declaration order.
    pub fn attribute_names(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(|a| &*a.name)
    }

    /// The schema of a projection onto the attributes at `positions`, in that order, under
    /// this schema's name.
    ///
    /// # Panics
    /// Panics if a position is out of range or listed twice.
    #[must_use]
    pub fn projected(&self, positions: &[usize]) -> Schema {
        let attrs = positions.iter().map(|&p| self.attributes[p].clone());
        Schema::build(Arc::clone(&self.name), attrs.collect()).expect("duplicate projected column")
    }

    /// The schema of the concatenation of two schemas (Cartesian product / join output), under
    /// this schema's name.
    ///
    /// An attribute of `other` whose plain name this schema already has is qualified with
    /// `other`'s relation name.
    #[must_use]
    pub fn product(&self, other: &Schema) -> Schema {
        let right = other.attributes.iter().map(|a| {
            if self.contains(&a.name) {
                Attribute::new(format!("{}.{}", other.name, a.name), a.data_type)
            } else {
                a.clone()
            }
        });
        let attrs = self.attributes.iter().cloned().chain(right).collect();
        Schema::build(Arc::clone(&self.name), attrs).expect("duplicate attribute in product")
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customer() -> Schema {
        Schema::new(
            "Customer",
            vec![
                Attribute::new("cid", DataType::Int),
                Attribute::new("cname", DataType::Text),
                Attribute::new("ophone", DataType::Text),
            ],
        )
    }

    #[test]
    fn positions_follow_declaration_order() {
        let s = customer();
        assert_eq!(s.position("cid"), Some(0));
        assert_eq!(s.position("cname"), Some(1));
        assert_eq!(s.position("ophone"), Some(2));
        assert_eq!(s.position("nope"), None);
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn require_reports_relation_and_attribute() {
        let s = customer();
        let err = s.require("ghost").unwrap_err();
        match err {
            StorageError::UnknownAttribute {
                relation,
                attribute,
            } => {
                assert_eq!(relation, "Customer");
                assert_eq!(attribute, "ghost");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn duplicate_attributes_are_rejected() {
        let res = Schema::try_new(
            "R",
            vec![
                Attribute::new("a", DataType::Int),
                Attribute::new("a", DataType::Text),
            ],
        );
        assert!(matches!(res, Err(StorageError::DuplicateAttribute { .. })));
    }

    #[test]
    fn renamed_keeps_attributes() {
        let s = customer().renamed("Customer1");
        assert_eq!(s.name(), "Customer1");
        assert_eq!(s.arity(), 3);
        assert_eq!(s.position("cname"), Some(1));
    }

    #[test]
    fn product_qualifies_colliding_names() {
        let a = Schema::new(
            "A",
            vec![
                Attribute::new("id", DataType::Int),
                Attribute::new("x", DataType::Text),
            ],
        );
        let b = Schema::new(
            "B",
            vec![
                Attribute::new("id", DataType::Int),
                Attribute::new("y", DataType::Text),
            ],
        );
        let p = a.product(&b);
        let names: Vec<_> = p.attribute_names().collect();
        assert_eq!(names, vec!["id", "x", "B.id", "y"]);
        assert_eq!(p.name(), "A");
        assert!(Arc::ptr_eq(
            &p.attributes()[1].name,
            &a.attributes()[1].name
        ));
        let projected = p.projected(&[3, 0]);
        assert_eq!(projected.attribute_names().collect::<Vec<_>>(), ["y", "id"]);
        assert!(Arc::ptr_eq(
            &projected.attributes()[0].name,
            &b.attributes()[1].name
        ));
    }

    #[test]
    fn attr_ref_parse_and_display() {
        let r = AttrRef::parse("PO.orderNum");
        assert_eq!(r.alias, "PO");
        assert_eq!(r.attr, "orderNum");
        assert_eq!(r.to_string(), "PO.orderNum");
        let bare = AttrRef::parse("price");
        assert_eq!(bare.alias, "");
        assert_eq!(bare.qualified(), "price");
    }

    #[test]
    fn schema_equality_ignores_index_internals() {
        let a = customer();
        let b = customer();
        assert_eq!(a, b);
        let c = a.renamed("Other");
        assert_ne!(a, c);
    }
}
