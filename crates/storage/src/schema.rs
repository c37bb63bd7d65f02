//! Relation schemas and attribute references.

use crate::{DataType, StorageError, StorageResult};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A single attribute (column) declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name, unique within its relation.
    pub name: String,
    /// Declared data type.
    pub data_type: DataType,
}

impl Attribute {
    /// Creates a new attribute.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
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
/// relations and query plans; attribute positions are resolved through an internal index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Schema {
    name: Arc<str>,
    attributes: Arc<[Attribute]>,
    /// Attribute name → position; shared like the attribute list, so cloning a schema (every
    /// operator output carries one) allocates nothing per attribute.
    #[serde(skip)]
    index: Arc<HashMap<String, usize>>,
}

impl Schema {
    /// Builds a schema from a relation name and attribute list.
    ///
    /// # Panics
    /// Panics if two attributes share a name; use [`Schema::try_new`] for a fallible variant.
    pub fn new(name: impl Into<String>, attributes: Vec<Attribute>) -> Self {
        Self::try_new(name, attributes).expect("duplicate attribute in schema")
    }

    /// Fallible constructor that rejects duplicate attribute names.
    pub fn try_new(name: impl Into<String>, attributes: Vec<Attribute>) -> StorageResult<Self> {
        let name = name.into();
        let mut index = HashMap::with_capacity(attributes.len());
        for (i, attr) in attributes.iter().enumerate() {
            if index.insert(attr.name.clone(), i).is_some() {
                return Err(StorageError::DuplicateAttribute {
                    relation: name,
                    attribute: attr.name.clone(),
                });
            }
        }
        Ok(Schema {
            name: name.into(),
            attributes: attributes.into(),
            index: Arc::new(index),
        })
    }

    /// The relation name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns a copy of this schema under a different relation name (used for aliased scans).
    #[must_use]
    pub fn renamed(&self, name: impl Into<String>) -> Self {
        Schema {
            name: name.into().into(),
            attributes: Arc::clone(&self.attributes),
            index: Arc::clone(&self.index),
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
        self.index.get(attr).copied()
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
        self.index.contains_key(attr)
    }

    /// Attribute names in declaration order.
    pub fn attribute_names(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(|a| a.name.as_str())
    }

    /// Builds the schema of the concatenation of two schemas (Cartesian product / join output).
    ///
    /// Output attribute names are qualified with the source relation name when the plain name
    /// would collide.
    #[must_use]
    pub fn product(&self, other: &Schema, name: impl Into<String>) -> Schema {
        let mut attrs = Vec::with_capacity(self.arity() + other.arity());
        for a in self.attributes.iter() {
            attrs.push(a.clone());
        }
        for a in other.attributes.iter() {
            if self.contains(&a.name) {
                attrs.push(Attribute::new(
                    format!("{}.{}", other.name, a.name),
                    a.data_type,
                ));
            } else {
                attrs.push(a.clone());
            }
        }
        Schema::new(name, attrs)
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.attributes == other.attributes
    }
}

impl Eq for Schema {}

impl std::hash::Hash for Schema {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.attributes.hash(state);
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
        let p = a.product(&b, "AxB");
        let names: Vec<_> = p.attribute_names().collect();
        assert_eq!(names, vec!["id", "x", "B.id", "y"]);
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
