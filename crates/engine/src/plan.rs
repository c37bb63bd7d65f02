//! Relational algebra plan trees.

use crate::{AggFunc, EngineError, EngineResult, Predicate};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use urm_storage::{Attribute, Catalog, DataType, Name, Relation, Schema};

/// A relational algebra plan over the source instance.
///
/// Plans are ordinary immutable trees with structural equality and hashing: two mappings that
/// reformulate a target query into the *same* source query produce equal `Plan` values, which is
/// precisely the sharing opportunity exploited by e-basic and q-sharing, and plan sub-trees are
/// the unit of sharing for e-MQO and o-sharing.
///
/// All column names in predicates, projections and aggregates are *qualified* (`alias.attr`):
/// [`Plan::Scan`] renames every attribute of the base relation to `alias.attr`, so products never
/// produce ambiguous columns, even for the self-joins of the paper's Q3/Q4.  Every name is a
/// shared [`Name`]: cloning a plan copies its nodes, never a string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Plan {
    /// Scan of a base relation under an alias.
    Scan {
        /// Catalog relation name.
        relation: Name,
        /// Alias used to qualify the output columns (defaults to the relation name).
        alias: Name,
    },
    /// An already-materialised relation.
    Values(Arc<Relation>),
    /// Selection.
    Select {
        /// Predicate applied to each input row.
        predicate: Predicate,
        /// Input plan.
        input: Box<Plan>,
    },
    /// Projection onto a list of qualified columns.  An empty list keeps the row count and
    /// no column: under a [`Plan::Distinct`] that is the *existence* of an input row.
    Project {
        /// Output columns in order.
        columns: Vec<Name>,
        /// Input plan.
        input: Box<Plan>,
    },
    /// Cartesian product.
    Product {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Hash equi-join on pairs of columns (used after the product→join rewrite).
    HashJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Pairs of (left column, right column) that must be equal.
        on: Vec<(Name, Name)>,
    },
    /// Aggregation producing a single-row relation.
    Aggregate {
        /// Aggregate function.
        func: AggFunc,
        /// Input plan.
        input: Box<Plan>,
    },
    /// Duplicate elimination over every input column (`δ`): the first occurrence of each
    /// distinct row, in input order.  The root of every tuple-producing source query — the
    /// paper's answers are sets (Algorithm 4, "remove duplicate tuples") — and what lets the
    /// optimizer de-duplicate the factors of a product before multiplying them.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
}

impl Plan {
    /// Scans a base relation using its own name as the alias.
    pub fn scan(relation: impl Into<Name>) -> Plan {
        let relation = relation.into();
        Plan::Scan {
            alias: relation.clone(),
            relation,
        }
    }

    /// Scans a base relation under an explicit alias (self-joins).
    pub fn scan_as(relation: impl Into<Name>, alias: impl Into<Name>) -> Plan {
        Plan::Scan {
            relation: relation.into(),
            alias: alias.into(),
        }
    }

    /// Wraps an already-materialised relation.
    #[must_use]
    pub fn values(relation: Relation) -> Plan {
        Plan::Values(Arc::new(relation))
    }

    /// Wraps a shared materialised relation without copying it.
    #[must_use]
    pub fn values_shared(relation: Arc<Relation>) -> Plan {
        Plan::Values(relation)
    }

    /// Applies a selection on top of this plan.
    #[must_use]
    pub fn select(self, predicate: Predicate) -> Plan {
        Plan::Select {
            predicate,
            input: Box::new(self),
        }
    }

    /// Applies a projection on top of this plan.
    #[must_use]
    pub fn project(self, columns: Vec<Name>) -> Plan {
        Plan::Project {
            columns,
            input: Box::new(self),
        }
    }

    /// Builds the Cartesian product of this plan with another.
    #[must_use]
    pub fn product(self, other: Plan) -> Plan {
        Plan::Product {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Builds a hash equi-join of this plan with another.
    #[must_use]
    pub fn hash_join(self, other: Plan, on: Vec<(Name, Name)>) -> Plan {
        Plan::HashJoin {
            left: Box::new(self),
            right: Box::new(other),
            on,
        }
    }

    /// Applies an aggregate on top of this plan.
    #[must_use]
    pub fn aggregate(self, func: AggFunc) -> Plan {
        Plan::Aggregate {
            func,
            input: Box::new(self),
        }
    }

    /// Removes duplicate rows from this plan's output.
    #[must_use]
    pub fn distinct(self) -> Plan {
        Plan::Distinct {
            input: Box::new(self),
        }
    }

    /// The structural fingerprint of this plan (see [`crate::optimize::fingerprint`]).
    ///
    /// Identical plans — including plans built independently by different queries — share a
    /// fingerprint, which is what the shared sub-plan cache, the batch evaluator and the
    /// service-layer answer cache key on.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        crate::optimize::fingerprint(self)
    }

    /// Number of operator nodes in the plan (scans and values leaves included).
    #[must_use]
    pub fn node_count(&self) -> usize {
        1 + match self {
            Plan::Scan { .. } | Plan::Values(_) => 0,
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input } => input.node_count(),
            Plan::Product { left, right } | Plan::HashJoin { left, right, .. } => {
                left.node_count() + right.node_count()
            }
        }
    }

    /// Number of *operator* nodes (excluding leaves), the unit counted in the paper's Table IV.
    #[must_use]
    pub fn operator_count(&self) -> usize {
        match self {
            Plan::Scan { .. } | Plan::Values(_) => 0,
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input } => 1 + input.operator_count(),
            Plan::Product { left, right } | Plan::HashJoin { left, right, .. } => {
                1 + left.operator_count() + right.operator_count()
            }
        }
    }

    /// Direct children of this node.
    #[must_use]
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } | Plan::Values(_) => Vec::new(),
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input } => vec![input],
            Plan::Product { left, right } | Plan::HashJoin { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Iterates over every sub-plan (pre-order), including `self`.
    #[must_use]
    pub fn subplans(&self) -> Vec<&Plan> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(p) = stack.pop() {
            out.push(p);
            stack.extend(p.children());
        }
        out
    }

    /// Names of the base relations scanned by the plan.
    #[must_use]
    pub fn scanned_relations(&self) -> Vec<&str> {
        self.subplans()
            .into_iter()
            .filter_map(|p| match p {
                Plan::Scan { relation, .. } => Some(&**relation),
                _ => None,
            })
            .collect()
    }

    /// Infers the output schema of the plan against a catalog.
    ///
    /// The schema of a [`Plan::Scan`] is the base relation's schema with every attribute renamed
    /// to `alias.attr` and the relation renamed to the alias ([`Catalog::scan_schema`], built
    /// once per (relation, alias) however many plans scan it).  Every other schema shares its
    /// input's names ([`Schema::projected`], [`Schema::product`]).
    pub fn output_schema(&self, catalog: &Catalog) -> EngineResult<Schema> {
        match self {
            Plan::Scan { relation, alias } => Ok(catalog.scan_schema(relation, alias)?),
            Plan::Values(rel) => Ok(rel.schema().clone()),
            Plan::Select { input, .. } | Plan::Distinct { input } => input.output_schema(catalog),
            Plan::Project { columns, input } => {
                let input_schema = input.output_schema(catalog)?;
                let positions = positions(&input_schema, columns)?;
                Ok(input_schema.projected(&positions))
            }
            Plan::Product { left, right } | Plan::HashJoin { left, right, .. } => {
                let ls = left.output_schema(catalog)?;
                Ok(ls.product(&right.output_schema(catalog)?))
            }
            Plan::Aggregate { func, input } => {
                let input_schema = input.output_schema(catalog)?;
                aggregate_schema(func, &input_schema)
            }
        }
    }
}

/// The position of `column` in `schema`; a column the schema lacks is an error.
pub(crate) fn position(schema: &Schema, column: &str) -> EngineResult<usize> {
    schema
        .position(column)
        .ok_or_else(|| EngineError::UnknownColumn {
            column: column.to_string(),
            schema: schema.to_string(),
        })
}

/// The positions of `columns` in `schema`, in order.
pub(crate) fn positions(schema: &Schema, columns: &[Name]) -> EngineResult<Vec<usize>> {
    columns.iter().map(|c| position(schema, c)).collect()
}

/// The one-attribute schema of `func` over `input`, under the input's name; a SUM over a column
/// the input lacks is an error.
pub(crate) fn aggregate_schema(func: &AggFunc, input: &Schema) -> EngineResult<Schema> {
    let attr = match func {
        AggFunc::Count => Attribute::new("count", DataType::Int),
        AggFunc::Sum(c) => {
            position(input, c)?;
            Attribute::new(format!("sum({c})"), DataType::Float)
        }
    };
    Ok(Schema::new(input.name(), vec![attr]))
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(plan: &Plan, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match plan {
                Plan::Scan { relation, alias } => {
                    if relation == alias {
                        writeln!(f, "{pad}Scan {relation}")
                    } else {
                        writeln!(f, "{pad}Scan {relation} AS {alias}")
                    }
                }
                Plan::Values(rel) => {
                    writeln!(
                        f,
                        "{pad}Values [{} rows of {}]",
                        rel.len(),
                        rel.schema().name()
                    )
                }
                Plan::Select { predicate, input } => {
                    writeln!(f, "{pad}Select {predicate}")?;
                    go(input, f, indent + 1)
                }
                Plan::Project { columns, input } => {
                    writeln!(f, "{pad}Project {}", columns.join(", "))?;
                    go(input, f, indent + 1)
                }
                Plan::Product { left, right } => {
                    writeln!(f, "{pad}Product")?;
                    go(left, f, indent + 1)?;
                    go(right, f, indent + 1)
                }
                Plan::HashJoin { left, right, on } => {
                    let conds: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                    writeln!(f, "{pad}HashJoin on {}", conds.join(" AND "))?;
                    go(left, f, indent + 1)?;
                    go(right, f, indent + 1)
                }
                Plan::Aggregate { func, input } => {
                    writeln!(f, "{pad}Aggregate {func}")?;
                    go(input, f, indent + 1)
                }
                Plan::Distinct { input } => {
                    writeln!(f, "{pad}Distinct")?;
                    go(input, f, indent + 1)
                }
            }
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompareOp;
    use urm_storage::{Tuple, Value};

    fn test_catalog() -> Catalog {
        let customer = Relation::new(
            Schema::new(
                "Customer",
                vec![
                    Attribute::new("cid", DataType::Int),
                    Attribute::new("cname", DataType::Text),
                    Attribute::new("oaddr", DataType::Text),
                ],
            ),
            vec![Tuple::new(vec![
                Value::from(1i64),
                Value::from("Alice"),
                Value::from("aaa"),
            ])],
        )
        .unwrap();
        let order = Relation::new(
            Schema::new(
                "C_Order",
                vec![
                    Attribute::new("oid", DataType::Int),
                    Attribute::new("cid", DataType::Int),
                    Attribute::new("amount", DataType::Float),
                ],
            ),
            vec![],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.insert(customer);
        cat.insert(order);
        cat
    }

    #[test]
    fn scan_schema_is_qualified() {
        let cat = test_catalog();
        let schema = Plan::scan("Customer").output_schema(&cat).unwrap();
        let names: Vec<_> = schema.attribute_names().collect();
        assert_eq!(
            names,
            vec!["Customer.cid", "Customer.cname", "Customer.oaddr"]
        );
        assert_eq!(schema.name(), "Customer");
    }

    #[test]
    fn aliased_scan_uses_alias() {
        let cat = test_catalog();
        let schema = Plan::scan_as("Customer", "C1").output_schema(&cat).unwrap();
        assert!(schema.contains("C1.cname"));
        assert_eq!(schema.name(), "C1");
    }

    #[test]
    fn product_schema_concatenates() {
        let cat = test_catalog();
        let plan = Plan::scan("Customer").product(Plan::scan("C_Order"));
        let schema = plan.output_schema(&cat).unwrap();
        assert_eq!(schema.arity(), 6);
        assert!(schema.contains("Customer.cname"));
        assert!(schema.contains("C_Order.amount"));
    }

    #[test]
    fn self_join_with_aliases_has_unique_columns() {
        let cat = test_catalog();
        let plan = Plan::scan_as("Customer", "A").product(Plan::scan_as("Customer", "B"));
        let schema = plan.output_schema(&cat).unwrap();
        assert!(schema.contains("A.cname"));
        assert!(schema.contains("B.cname"));
        assert_eq!(schema.arity(), 6);
    }

    #[test]
    fn projection_schema_and_errors() {
        let cat = test_catalog();
        let ok = Plan::scan("Customer").project(vec!["Customer.cname".into()]);
        assert_eq!(ok.output_schema(&cat).unwrap().arity(), 1);
        let bad = Plan::scan("Customer").project(vec!["Customer.ghost".into()]);
        assert!(matches!(
            bad.output_schema(&cat),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn aggregate_schema() {
        let cat = test_catalog();
        let count = Plan::scan("Customer").aggregate(AggFunc::Count);
        let schema = count.output_schema(&cat).unwrap();
        assert_eq!(schema.arity(), 1);
        assert_eq!(schema.attributes()[0].data_type, DataType::Int);

        let sum = Plan::scan("C_Order").aggregate(AggFunc::Sum("C_Order.amount".into()));
        assert_eq!(
            sum.output_schema(&cat).unwrap().attributes()[0].data_type,
            DataType::Float
        );

        let bad = Plan::scan("Customer").aggregate(AggFunc::Sum("nope".into()));
        assert!(bad.output_schema(&cat).is_err());
    }

    #[test]
    fn unknown_relation_is_reported() {
        let cat = test_catalog();
        assert!(Plan::scan("Ghost").output_schema(&cat).is_err());
    }

    #[test]
    fn node_and_operator_counts() {
        let plan = Plan::scan("Customer")
            .select(Predicate::compare(
                "Customer.oaddr",
                CompareOp::Eq,
                Value::from("aaa"),
            ))
            .product(Plan::scan("C_Order"))
            .project(vec!["Customer.cname".into()]);
        assert_eq!(plan.node_count(), 5);
        assert_eq!(plan.operator_count(), 3);
        assert_eq!(plan.scanned_relations().len(), 2);
    }

    #[test]
    fn identical_plans_are_equal_and_hash_equal() {
        use std::collections::HashSet;
        let make = || {
            Plan::scan("Customer")
                .select(Predicate::eq("Customer.oaddr", Value::from("aaa")))
                .project(vec!["Customer.cname".into()])
        };
        let mut set = HashSet::new();
        set.insert(make());
        set.insert(make());
        assert_eq!(set.len(), 1);
        set.insert(Plan::scan("Customer"));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_renders_tree() {
        let plan = Plan::scan("Customer")
            .select(Predicate::eq("Customer.oaddr", Value::from("aaa")))
            .project(vec!["Customer.cname".into()])
            .distinct();
        let s = plan.to_string();
        assert!(s.starts_with("Distinct\n  Project"), "{s}");
        assert!(s.contains("Select"));
        assert!(s.contains("Scan Customer"));
    }
}
