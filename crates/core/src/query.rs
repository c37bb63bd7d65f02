//! The normalized target-query model.
//!
//! The paper's query model (Section III-A, Table III) consists of selections, projections,
//! Cartesian products and COUNT/SUM aggregates over target relations.  Queries are held here in
//! a normalized form — a set of aliased target relations, a conjunction of predicates, and an
//! output specification — which is exactly the shape the partition tree (q-sharing) and the
//! operator-at-a-time evaluation (o-sharing) reason about.  Lowering to executable
//! [`urm_engine::Plan`]s happens during reformulation.

use crate::{CoreError, CoreResult};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;
use urm_engine::CompareOp;
use urm_storage::{hash_keys, AttrRef, Value};

/// Binding of an alias to a target relation (`PO1 → PurchaseOrder`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RelationBinding {
    /// Alias used by attribute references in the query.
    pub alias: String,
    /// Target relation name the alias stands for.
    pub relation: String,
}

/// A predicate of the target query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TargetPredicate {
    /// `alias.attr op constant`.
    Compare {
        /// Target attribute (alias-qualified).
        attr: AttrRef,
        /// Comparison operator.
        op: CompareOp,
        /// Constant operand.
        value: Value,
    },
    /// `left = right` between two target attributes (a join condition).
    AttrEq {
        /// Left target attribute.
        left: AttrRef,
        /// Right target attribute.
        right: AttrRef,
    },
}

impl TargetPredicate {
    /// The target attributes referenced by this predicate.
    #[must_use]
    pub fn attributes(&self) -> Vec<&AttrRef> {
        match self {
            TargetPredicate::Compare { attr, .. } => vec![attr],
            TargetPredicate::AttrEq { left, right } => vec![left, right],
        }
    }

    /// The aliases referenced by this predicate.
    #[must_use]
    pub fn aliases(&self) -> Vec<&str> {
        self.attributes().iter().map(|a| a.alias.as_str()).collect()
    }
}

impl fmt::Display for TargetPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetPredicate::Compare { attr, op, value } => write!(f, "{attr} {op} {value}"),
            TargetPredicate::AttrEq { left, right } => write!(f, "{left} = {right}"),
        }
    }
}

/// What the query returns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryOutput {
    /// The listed target attributes of every qualifying tuple (an explicit projection; the
    /// normalized model requires `SELECT *` queries to spell out the attributes of interest).
    Tuples(Vec<AttrRef>),
    /// `COUNT(*)` over the qualifying tuples.
    Count,
    /// `SUM(attr)` over the qualifying tuples.
    Sum(AttrRef),
}

impl QueryOutput {
    /// Target attributes referenced by the output clause.
    #[must_use]
    pub fn attributes(&self) -> Vec<&AttrRef> {
        match self {
            QueryOutput::Tuples(attrs) => attrs.iter().collect(),
            QueryOutput::Count => Vec::new(),
            QueryOutput::Sum(attr) => vec![attr],
        }
    }

    /// Whether the output is an aggregate.
    #[must_use]
    pub fn is_aggregate(&self) -> bool {
        matches!(self, QueryOutput::Count | QueryOutput::Sum(_))
    }
}

/// A single target-query operator, as enumerated by o-sharing's `next()` function.
///
/// The normalized query corresponds to the operator tree
/// `output( σ_preds ( alias_1 × alias_2 × … ) )`; this enum names each of those operators so
/// that the selection strategies (Random / SNF / SEF) can choose among them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TargetOp {
    /// The `i`-th predicate of the query.
    Predicate(usize),
    /// The Cartesian product that merges the components containing the two aliases.
    Product {
        /// An alias inside the left component.
        left_alias: String,
        /// An alias inside the right component.
        right_alias: String,
    },
    /// The output operator (projection or aggregate).
    Output,
}

impl fmt::Display for TargetOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetOp::Predicate(i) => write!(f, "σ#{i}"),
            TargetOp::Product {
                left_alias,
                right_alias,
            } => write!(f, "{left_alias} × {right_alias}"),
            TargetOp::Output => write!(f, "output"),
        }
    }
}

/// A normalized target query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetQuery {
    name: String,
    relations: Vec<RelationBinding>,
    predicates: Vec<TargetPredicate>,
    output: QueryOutput,
}

impl TargetQuery {
    /// Starts building a query with the given name (e.g. `"Q4"`).
    #[must_use]
    pub fn builder(name: impl Into<String>) -> TargetQueryBuilder {
        TargetQueryBuilder {
            name: name.into(),
            relations: Vec::new(),
            predicates: Vec::new(),
            output: None,
        }
    }

    /// The query's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The aliased target relations.
    #[must_use]
    pub fn relations(&self) -> &[RelationBinding] {
        &self.relations
    }

    /// The conjunctive predicates.
    #[must_use]
    pub fn predicates(&self) -> &[TargetPredicate] {
        &self.predicates
    }

    /// The output clause.
    #[must_use]
    pub fn output(&self) -> &QueryOutput {
        &self.output
    }

    /// Resolves an alias to its target relation name.
    #[must_use]
    pub fn relation_of(&self, alias: &str) -> Option<&str> {
        self.relations
            .iter()
            .find(|b| b.alias == alias)
            .map(|b| b.relation.as_str())
    }

    /// Converts an alias-qualified attribute reference into a schema-level one
    /// (`Item1.price → Item.price`), which is the level at which mapping correspondences live.
    pub fn schema_attr(&self, attr: &AttrRef) -> CoreResult<AttrRef> {
        let relation = self.relation_of(&attr.alias).ok_or_else(|| {
            CoreError::InvalidQuery(format!("attribute {attr} references unbound alias"))
        })?;
        Ok(AttrRef::new(relation, attr.attr.clone()))
    }

    /// All distinct target attributes the query mentions (predicates first, then output), in a
    /// deterministic order.  These are the `l` attributes of the paper's partition tree.
    #[must_use]
    pub fn attributes_used(&self) -> Vec<AttrRef> {
        let mut seen = Vec::new();
        let mut push = |a: &AttrRef| {
            if !seen.contains(a) {
                seen.push(a.clone());
            }
        };
        for p in &self.predicates {
            for a in p.attributes() {
                push(a);
            }
        }
        for a in self.output.attributes() {
            push(a);
        }
        seen
    }

    /// The attributes of a particular alias that the query references.
    #[must_use]
    pub fn attributes_of_alias(&self, alias: &str) -> Vec<AttrRef> {
        self.attributes_used()
            .into_iter()
            .filter(|a| a.alias == alias)
            .collect()
    }

    /// The full list of target operators (predicates, the products that connect the aliases,
    /// and the output operator).  The number of operators is the `l` of the paper's analysis.
    #[must_use]
    pub fn operators(&self) -> Vec<TargetOp> {
        let mut ops: Vec<TargetOp> = (0..self.predicates.len())
            .map(TargetOp::Predicate)
            .collect();
        // One product per additional relation, linking it to the first alias by default; the
        // o-sharing state machine re-derives the actual component pairs dynamically.
        for binding in self.relations.iter().skip(1) {
            ops.push(TargetOp::Product {
                left_alias: self.relations[0].alias.clone(),
                right_alias: binding.alias.clone(),
            });
        }
        ops.push(TargetOp::Output);
        ops
    }

    /// Number of target operators.
    #[must_use]
    pub fn operator_count(&self) -> usize {
        self.predicates.len() + self.relations.len().saturating_sub(1) + 1
    }

    /// Number of selection (and join) predicates.
    #[must_use]
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Number of Cartesian products implied by the relation list.
    #[must_use]
    pub fn product_count(&self) -> usize {
        self.relations.len().saturating_sub(1)
    }

    fn validate(&self) -> CoreResult<()> {
        if self.relations.is_empty() {
            return Err(CoreError::InvalidQuery("query binds no relations".into()));
        }
        let mut aliases = std::collections::BTreeSet::new();
        for b in &self.relations {
            if !aliases.insert(b.alias.clone()) {
                return Err(CoreError::InvalidQuery(format!(
                    "alias '{}' bound more than once",
                    b.alias
                )));
            }
        }
        for p in &self.predicates {
            for a in p.attributes() {
                if self.relation_of(&a.alias).is_none() {
                    return Err(CoreError::InvalidQuery(format!(
                        "predicate references unbound alias '{}'",
                        a.alias
                    )));
                }
            }
        }
        match &self.output {
            QueryOutput::Tuples(attrs) if attrs.is_empty() => {
                return Err(CoreError::InvalidQuery(
                    "tuple output must list at least one attribute".into(),
                ));
            }
            QueryOutput::Tuples(attrs) => {
                for a in attrs {
                    if self.relation_of(&a.alias).is_none() {
                        return Err(CoreError::InvalidQuery(format!(
                            "output references unbound alias '{}'",
                            a.alias
                        )));
                    }
                }
            }
            QueryOutput::Sum(a) => {
                if self.relation_of(&a.alias).is_none() {
                    return Err(CoreError::InvalidQuery(format!(
                        "SUM references unbound alias '{}'",
                        a.alias
                    )));
                }
            }
            QueryOutput::Count => {}
        }
        Ok(())
    }
}

impl fmt::Display for TargetQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.name)?;
        match &self.output {
            QueryOutput::Tuples(attrs) => {
                let cols: Vec<String> = attrs.iter().map(|a| a.qualified()).collect();
                write!(f, "π[{}] ", cols.join(", "))?;
            }
            QueryOutput::Count => write!(f, "COUNT ")?,
            QueryOutput::Sum(a) => write!(f, "SUM({a}) ")?,
        }
        for p in &self.predicates {
            write!(f, "σ[{p}] ")?;
        }
        let rels: Vec<String> = self
            .relations
            .iter()
            .map(|b| {
                if b.alias == b.relation {
                    b.relation.clone()
                } else {
                    format!("{} AS {}", b.relation, b.alias)
                }
            })
            .collect();
        write!(f, "({})", rels.join(" × "))
    }
}

/// A query as an exact map key: the query behind an `Arc` (a clone is a pointer bump) and a
/// structural hash computed once, without allocating, under [`urm_storage::hash_keys`] — the
/// constants are a client's to choose and must not steer collisions.
///
/// Two keys are equal exactly when the two queries' `Debug` renderings are: name, bindings,
/// predicates in order and output, each constant by variant and payload, floats by bit pattern
/// — so `Int(1)`, `Float(1.0)` and `Text("1")` are three keys.  That is **not** the derived
/// `TargetQuery: PartialEq`, which compares constants as a join does (`Int(1) == Float(1.0)`)
/// and would serve one query the other's answer.  Finer than `Debug` in one place: NaNs of
/// different sign or payload all print `NaN` and stay apart here, as in `Value::eq`.
#[derive(Debug, Clone)]
pub struct QueryKey {
    query: Arc<TargetQuery>,
    hash: u64,
}

/// A predicate with its constant told apart by variant and bits: `Eq` and `Hash` of this are
/// the key's, so the two cannot disagree.
fn exact(p: &TargetPredicate) -> (&AttrRef, Option<CompareOp>, Option<&AttrRef>, u8, u64, &str) {
    match p {
        TargetPredicate::AttrEq { left, right } => (left, None, Some(right), 0, 0, ""),
        TargetPredicate::Compare { attr, op, value } => {
            let (variant, bits, text) = match value {
                Value::Null => (0, 0, ""),
                Value::Bool(b) => (1, u64::from(*b), ""),
                Value::Int(i) => (2, i.cast_unsigned(), ""),
                Value::Float(x) => (3, x.to_bits(), ""),
                Value::Text(s) => (4, 0, &**s),
            };
            (attr, Some(*op), None, variant, bits, text)
        }
    }
}

impl QueryKey {
    /// Takes the query over and hashes it.
    #[must_use]
    pub fn new(query: TargetQuery) -> Self {
        let mut hasher = hash_keys().build_hasher();
        (&query.name, &query.relations, &query.output).hash(&mut hasher);
        query
            .predicates
            .iter()
            .for_each(|p| exact(p).hash(&mut hasher));
        let (hash, query) = (hasher.finish(), Arc::new(query));
        QueryKey { query, hash }
    }

    /// The query this is the key of.
    #[must_use]
    pub fn query(&self) -> &TargetQuery {
        &self.query
    }
}

impl PartialEq for QueryKey {
    /// Clones of one key share their query, and compare by pointer: a caller that keys its
    /// queries once probes without walking them.
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.query, &other.query) {
            return true;
        }
        let (a, b) = (&*self.query, &*other.query);
        self.hash == other.hash
            && (&a.name, &a.relations, &a.output) == (&b.name, &b.relations, &b.output)
            && a.predicates
                .iter()
                .map(exact)
                .eq(b.predicates.iter().map(exact))
    }
}

impl Eq for QueryKey {}

impl Hash for QueryKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Builder for [`TargetQuery`].
#[derive(Debug, Clone)]
pub struct TargetQueryBuilder {
    name: String,
    relations: Vec<RelationBinding>,
    predicates: Vec<TargetPredicate>,
    output: Option<QueryOutput>,
}

impl TargetQueryBuilder {
    /// Binds a target relation under its own name.
    #[must_use]
    pub fn relation(self, relation: impl Into<String>) -> Self {
        let relation = relation.into();
        self.relation_as(relation.clone(), relation)
    }

    /// Binds a target relation under an explicit alias.
    #[must_use]
    pub fn relation_as(mut self, relation: impl Into<String>, alias: impl Into<String>) -> Self {
        self.relations.push(RelationBinding {
            alias: alias.into(),
            relation: relation.into(),
        });
        self
    }

    /// Adds an equality selection `alias.attr = value`.
    #[must_use]
    pub fn filter_eq(self, attr: &str, value: impl Into<Value>) -> Self {
        self.filter(attr, CompareOp::Eq, value)
    }

    /// Adds a comparison selection `alias.attr op value`.
    #[must_use]
    pub fn filter(mut self, attr: &str, op: CompareOp, value: impl Into<Value>) -> Self {
        self.predicates.push(TargetPredicate::Compare {
            attr: AttrRef::parse(attr),
            op,
            value: value.into(),
        });
        self
    }

    /// Adds a join predicate `left = right`.
    #[must_use]
    pub fn join(mut self, left: &str, right: &str) -> Self {
        self.predicates.push(TargetPredicate::AttrEq {
            left: AttrRef::parse(left),
            right: AttrRef::parse(right),
        });
        self
    }

    /// Sets the output to a projection of target attributes (given as `alias.attr` strings).
    #[must_use]
    pub fn returning<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.output = Some(QueryOutput::Tuples(
            attrs
                .into_iter()
                .map(|s| AttrRef::parse(s.as_ref()))
                .collect(),
        ));
        self
    }

    /// Sets the output to `COUNT(*)`.
    #[must_use]
    pub fn count(mut self) -> Self {
        self.output = Some(QueryOutput::Count);
        self
    }

    /// Sets the output to `SUM(alias.attr)`.
    #[must_use]
    pub fn sum(mut self, attr: &str) -> Self {
        self.output = Some(QueryOutput::Sum(AttrRef::parse(attr)));
        self
    }

    /// Finishes and validates the query.
    pub fn build(self) -> CoreResult<TargetQuery> {
        let output = self
            .output
            .ok_or_else(|| CoreError::InvalidQuery("query has no output clause".into()))?;
        let q = TargetQuery {
            name: self.name,
            relations: self.relations,
            predicates: self.predicates,
            output,
        };
        q.validate()?;
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `q0 : π_addr σ_phone='123' Person` from the paper's introduction.
    fn q0() -> TargetQuery {
        TargetQuery::builder("q0")
            .relation("Person")
            .filter_eq("Person.phone", "123")
            .returning(["Person.addr"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_constructs_q0() {
        let q = q0();
        assert_eq!(q.name(), "q0");
        assert_eq!(q.relations().len(), 1);
        assert_eq!(q.predicate_count(), 1);
        assert_eq!(q.product_count(), 0);
        assert_eq!(q.operator_count(), 2);
        assert!(!q.output().is_aggregate());
    }

    #[test]
    fn attributes_used_in_order_and_deduplicated() {
        let q = TargetQuery::builder("q")
            .relation("PO")
            .relation("Item")
            .filter_eq("PO.telephone", "335-1736")
            .join("PO.orderNum", "Item.orderNum")
            .returning(["Item.itemNum", "PO.telephone"])
            .build()
            .unwrap();
        let attrs = q.attributes_used();
        assert_eq!(
            attrs,
            vec![
                AttrRef::new("PO", "telephone"),
                AttrRef::new("PO", "orderNum"),
                AttrRef::new("Item", "orderNum"),
                AttrRef::new("Item", "itemNum"),
            ]
        );
        assert_eq!(q.attributes_of_alias("Item").len(), 2);
    }

    #[test]
    fn schema_attr_resolves_aliases() {
        let q = TargetQuery::builder("q")
            .relation_as("Item", "Item1")
            .relation_as("Item", "Item2")
            .join("Item1.orderNum", "Item2.orderNum")
            .returning(["Item1.itemNum"])
            .build()
            .unwrap();
        let schema_level = q.schema_attr(&AttrRef::new("Item1", "orderNum")).unwrap();
        assert_eq!(schema_level, AttrRef::new("Item", "orderNum"));
        assert!(q.schema_attr(&AttrRef::new("Ghost", "x")).is_err());
    }

    #[test]
    fn operators_enumerate_predicates_products_and_output() {
        let q = TargetQuery::builder("q")
            .relation("PO")
            .relation("Item")
            .filter_eq("PO.priority", 2i64)
            .filter_eq("Item.quantity", 10i64)
            .returning(["PO.orderNum"])
            .build()
            .unwrap();
        let ops = q.operators();
        assert_eq!(ops.len(), 4); // 2 predicates + 1 product + output
        assert!(ops.contains(&TargetOp::Predicate(0)));
        assert!(ops.contains(&TargetOp::Output));
        assert!(matches!(ops[2], TargetOp::Product { .. }));
    }

    #[test]
    fn validation_rejects_bad_queries() {
        // No relations.
        assert!(matches!(
            TargetQuery::builder("bad").returning(["R.a"]).build(),
            Err(CoreError::InvalidQuery(_))
        ));
        // Duplicate alias.
        assert!(TargetQuery::builder("bad")
            .relation("PO")
            .relation("PO")
            .returning(["PO.a"])
            .build()
            .is_err());
        // Unbound alias in predicate.
        assert!(TargetQuery::builder("bad")
            .relation("PO")
            .filter_eq("Item.quantity", 1i64)
            .returning(["PO.a"])
            .build()
            .is_err());
        // Missing output.
        assert!(TargetQuery::builder("bad").relation("PO").build().is_err());
        // Empty projection list.
        assert!(TargetQuery::builder("bad")
            .relation("PO")
            .returning(Vec::<String>::new())
            .build()
            .is_err());
        // Unbound alias in SUM.
        assert!(TargetQuery::builder("bad")
            .relation("PO")
            .sum("Item.price")
            .build()
            .is_err());
    }

    #[test]
    fn aggregates_are_flagged() {
        let q = TargetQuery::builder("q5")
            .relation("PO")
            .filter_eq("PO.telephone", "335-1736")
            .count()
            .build()
            .unwrap();
        assert!(q.output().is_aggregate());
        assert_eq!(q.output().attributes().len(), 0);

        let q9 = TargetQuery::builder("q9")
            .relation("PO")
            .relation("Item")
            .sum("Item.price")
            .build()
            .unwrap();
        assert_eq!(q9.output().attributes().len(), 1);
    }

    #[test]
    fn display_is_informative() {
        let q = q0();
        let s = q.to_string();
        assert!(s.contains("q0"));
        assert!(s.contains("Person.addr"));
        assert!(s.contains("Person.phone = 123"));
    }
}
