//! Predicates, comparison operators and aggregate functions.
//!
//! This is exactly the operator vocabulary the paper's query model needs (Section III-A and the
//! workload of Table III): conjunctions of attribute/constant comparisons, attribute/attribute
//! equality (join conditions), and COUNT / SUM aggregates.

use serde::{Deserialize, Serialize};
use std::fmt;
use urm_storage::{Name, Tuple, Value};

/// Comparison operators for attribute/constant predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CompareOp {
    /// Equality (`=`), the only operator the paper's workload uses, but the rest of the family
    /// is provided for the extension experiments.
    Eq,
    /// Inequality (`<>`).
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CompareOp {
    /// Evaluates the comparison between two values.
    #[must_use]
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CompareOp::Eq => left == right,
            CompareOp::Ne => left != right,
            CompareOp::Lt => left.cmp(right) == Less,
            CompareOp::Le => matches!(left.cmp(right), Less | Equal),
            CompareOp::Gt => left.cmp(right) == Greater,
            CompareOp::Ge => matches!(left.cmp(right), Greater | Equal),
        }
    }

    /// SQL-ish symbol for display.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A boolean predicate over the (qualified) columns of a plan's output schema.
///
/// Predicates are totally ordered (variant, then fields) so the optimizer can list a
/// conjunction's parts in one canonical order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Predicate {
    /// `column op constant` — e.g. `σ_{telephone = '335-1736'}`.
    Compare {
        /// Qualified column name (`alias.attr`).
        column: Name,
        /// Comparison operator.
        op: CompareOp,
        /// Constant to compare against.
        value: Value,
    },
    /// `left = right` between two columns — the join conditions of Q3/Q4.
    ColumnEq {
        /// Left qualified column.
        left: Name,
        /// Right qualified column.
        right: Name,
    },
    /// Conjunction of predicates.
    And(Vec<Predicate>),
}

impl Predicate {
    /// Convenience constructor for a `column op constant` predicate.
    pub fn compare(column: impl Into<Name>, op: CompareOp, value: Value) -> Self {
        Predicate::Compare {
            column: column.into(),
            op,
            value,
        }
    }

    /// Convenience constructor for an equality predicate (`column = constant`).
    pub fn eq(column: impl Into<Name>, value: Value) -> Self {
        Predicate::compare(column, CompareOp::Eq, value)
    }

    /// Convenience constructor for a column equality (join) predicate.
    pub fn column_eq(left: impl Into<Name>, right: impl Into<Name>) -> Self {
        Predicate::ColumnEq {
            left: left.into(),
            right: right.into(),
        }
    }

    /// All columns referenced by the predicate.
    #[must_use]
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::Compare { column, .. } => out.push(column),
            Predicate::ColumnEq { left, right } => {
                out.push(left);
                out.push(right);
            }
            Predicate::And(parts) => {
                for p in parts {
                    p.collect_columns(out);
                }
            }
        }
    }

    /// Evaluates the predicate against a tuple, given a resolver from column name to position.
    ///
    /// Missing columns evaluate to `false` (a reformulated predicate over an attribute a partial
    /// mapping did not cover can never be satisfied).
    pub fn eval(&self, tuple: &Tuple, resolve: &impl Fn(&str) -> Option<usize>) -> bool {
        match self {
            Predicate::Compare { column, op, value } => match resolve(column) {
                Some(pos) => tuple
                    .get(pos)
                    .map(|v| !v.is_null() && op.eval(v, value))
                    .unwrap_or(false),
                None => false,
            },
            Predicate::ColumnEq { left, right } => match (resolve(left), resolve(right)) {
                (Some(l), Some(r)) => match (tuple.get(l), tuple.get(r)) {
                    (Some(a), Some(b)) => !a.is_null() && !b.is_null() && a == b,
                    _ => false,
                },
                _ => false,
            },
            Predicate::And(parts) => parts.iter().all(|p| p.eval(tuple, resolve)),
        }
    }

    /// The atomic predicates of nested conjunctions, in order.
    #[must_use]
    pub fn flatten(&self) -> Vec<&Predicate> {
        match self {
            Predicate::And(parts) => parts.iter().flat_map(Predicate::flatten).collect(),
            atom => vec![atom],
        }
    }

    /// Builds a conjunction from a list of predicates, simplifying the singleton case.
    #[must_use]
    pub fn conjunction(mut parts: Vec<Predicate>) -> Predicate {
        if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Predicate::And(parts)
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Compare { column, op, value } => write!(f, "{column} {op} {value}"),
            Predicate::ColumnEq { left, right } => write!(f, "{left} = {right}"),
            Predicate::And(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
        }
    }
}

/// Aggregate functions of the paper's query model (COUNT and SUM).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// `COUNT(*)` over the input relation.
    Count,
    /// `SUM(column)` over the input relation.
    Sum(Name),
}

impl AggFunc {
    /// Name of the function for display and error messages.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum(_) => "SUM",
        }
    }

    /// The column the aggregate reads, if any.
    #[must_use]
    pub fn column(&self) -> Option<&str> {
        match self {
            AggFunc::Count => None,
            AggFunc::Sum(c) => Some(c),
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::Count => f.write_str("COUNT(*)"),
            AggFunc::Sum(c) => write!(f, "SUM({c})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolver(names: &'static [&'static str]) -> impl Fn(&str) -> Option<usize> {
        move |c: &str| names.iter().position(|n| *n == c)
    }

    #[test]
    fn compare_ops_follow_value_order() {
        let two = Value::from(2i64);
        let three = Value::from(3i64);
        assert!(CompareOp::Lt.eval(&two, &three));
        assert!(CompareOp::Le.eval(&two, &two));
        assert!(CompareOp::Gt.eval(&three, &two));
        assert!(CompareOp::Ge.eval(&three, &three));
        assert!(CompareOp::Ne.eval(&two, &three));
        assert!(CompareOp::Eq.eval(&two, &two));
    }

    #[test]
    fn predicate_eval_compare() {
        let t = Tuple::new(vec![Value::from("aaa"), Value::from(5i64)]);
        let r = resolver(&["addr", "qty"]);
        assert!(Predicate::eq("addr", Value::from("aaa")).eval(&t, &r));
        assert!(!Predicate::eq("addr", Value::from("bbb")).eval(&t, &r));
        assert!(Predicate::compare("qty", CompareOp::Gt, Value::from(4i64)).eval(&t, &r));
    }

    #[test]
    fn predicate_missing_column_is_false() {
        let t = Tuple::new(vec![Value::from("aaa")]);
        let r = resolver(&["addr"]);
        assert!(!Predicate::eq("ghost", Value::from("aaa")).eval(&t, &r));
        assert!(!Predicate::column_eq("addr", "ghost").eval(&t, &r));
    }

    #[test]
    fn predicate_nulls_never_match() {
        let t = Tuple::new(vec![Value::Null, Value::Null]);
        let r = resolver(&["a", "b"]);
        assert!(!Predicate::eq("a", Value::Null).eval(&t, &r));
        assert!(!Predicate::column_eq("a", "b").eval(&t, &r));
    }

    #[test]
    fn column_eq_matches_equal_values() {
        let t = Tuple::new(vec![
            Value::from(7i64),
            Value::from(7i64),
            Value::from(8i64),
        ]);
        let r = resolver(&["x", "y", "z"]);
        assert!(Predicate::column_eq("x", "y").eval(&t, &r));
        assert!(!Predicate::column_eq("x", "z").eval(&t, &r));
    }

    #[test]
    fn and_requires_all_parts() {
        let t = Tuple::new(vec![Value::from("aaa"), Value::from(5i64)]);
        let r = resolver(&["addr", "qty"]);
        let p = Predicate::And(vec![
            Predicate::eq("addr", Value::from("aaa")),
            Predicate::eq("qty", Value::from(5i64)),
        ]);
        assert!(p.eval(&t, &r));
        let p2 = Predicate::And(vec![
            Predicate::eq("addr", Value::from("aaa")),
            Predicate::eq("qty", Value::from(6i64)),
        ]);
        assert!(!p2.eval(&t, &r));
    }

    #[test]
    fn flatten_and_conjunction_roundtrip() {
        let p = Predicate::And(vec![
            Predicate::eq("a", Value::from(1i64)),
            Predicate::And(vec![
                Predicate::eq("b", Value::from(2i64)),
                Predicate::column_eq("c", "d"),
            ]),
        ]);
        let flat = p.flatten();
        assert_eq!(flat.len(), 3);
        let rebuilt = Predicate::conjunction(flat.into_iter().cloned().collect());
        assert!(matches!(rebuilt, Predicate::And(ref v) if v.len() == 3));
        let single = Predicate::conjunction(vec![Predicate::eq("x", Value::from(0i64))]);
        assert!(matches!(single, Predicate::Compare { .. }));
    }

    #[test]
    fn columns_lists_every_reference() {
        let p = Predicate::And(vec![
            Predicate::eq("a", Value::from(1i64)),
            Predicate::column_eq("b", "c"),
        ]);
        assert_eq!(p.columns(), vec!["a", "b", "c"]);
    }

    #[test]
    fn display_is_readable() {
        let p = Predicate::And(vec![
            Predicate::eq("PO.telephone", Value::from("335-1736")),
            Predicate::column_eq("PO.orderNum", "Item.orderNum"),
        ]);
        let s = p.to_string();
        assert!(s.contains("PO.telephone = 335-1736"));
        assert!(s.contains(" AND "));
        assert_eq!(AggFunc::Count.to_string(), "COUNT(*)");
        assert_eq!(
            AggFunc::Sum("Item.price".into()).to_string(),
            "SUM(Item.price)"
        );
    }

    #[test]
    fn aggregate_metadata() {
        assert_eq!(AggFunc::Count.column(), None);
        assert_eq!(AggFunc::Sum("x".into()).column(), Some("x"));
        assert_eq!(AggFunc::Count.name(), "COUNT");
        assert_eq!(AggFunc::Sum("x".into()).name(), "SUM");
    }
}
