//! Tuples (rows) of relations.

use crate::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// An immutable row of values.
///
/// Tuples are shared (`Arc`) because the same source tuple typically flows into the results of
/// many source queries (one per mapping partition); copying a tuple is a pointer bump.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple from a vector of values.
    #[must_use]
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// The empty tuple (arity 0); used as the null tuple `θ` of empty query answers.
    #[must_use]
    pub fn empty() -> Self {
        Tuple {
            values: Arc::from(Vec::new()),
        }
    }

    /// Number of values in the tuple.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Whether this is the empty (null) tuple.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at position `i`, if any.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// All values as a slice.
    #[must_use]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Builds a new tuple keeping only the values at `positions`, in that order.
    #[must_use]
    pub fn project(&self, positions: &[usize]) -> Tuple {
        positions
            .iter()
            .map(|&i| self.values.get(i).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// Concatenates two tuples (Cartesian product of rows).
    #[must_use]
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.iter().chain(other.iter()).cloned().collect()
    }

    /// Iterates over the values.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values.iter()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Collects straight into the shared slice: an iterator that knows its exact length (a map
/// over a slice or a range, a chain of two) is written into the one allocation the tuple
/// keeps, with no `Vec` in between.
impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::from(v)).collect()
    }

    #[test]
    fn arity_and_access() {
        let tup = t(&[1, 2, 3]);
        assert_eq!(tup.arity(), 3);
        assert_eq!(tup.get(0), Some(&Value::from(1i64)));
        assert_eq!(tup.get(3), None);
        assert!(!tup.is_empty());
        assert!(Tuple::empty().is_empty());
    }

    #[test]
    fn projection_reorders_and_pads() {
        let tup = t(&[10, 20, 30]);
        let p = tup.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::from(30i64), Value::from(10i64)]);
        // Out-of-range positions become NULL rather than panicking: reformulated projections may
        // reference attributes a partial mapping did not cover.
        let q = tup.project(&[5]);
        assert_eq!(q.values(), &[Value::Null]);
    }

    #[test]
    fn concat_joins_rows() {
        let a = t(&[1, 2]);
        let b = t(&[3]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.get(2), Some(&Value::from(3i64)));
    }

    #[test]
    fn collected_tuples_are_the_tuples_built_from_vectors() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |t: &Tuple| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        let values = vec![
            Value::from("b"),
            Value::Null,
            Value::from(2i64),
            Value::from(0.5),
        ];
        let built = Tuple::new(values.clone());
        // Exact-size (a slice map), unsized (a filter) and empty iterators alike.
        let exact: Tuple = values.iter().cloned().collect();
        let filtered: Tuple = values.iter().filter(|_| true).cloned().collect();
        for collected in [&exact, &filtered] {
            assert_eq!(collected.arity(), 4);
            assert_eq!(collected.values(), values.as_slice(), "order");
            assert_eq!(collected, &built);
            assert_eq!(hash(collected), hash(&built));
            assert_eq!(collected.cmp(&built), std::cmp::Ordering::Equal);
        }
        assert!(exact < Tuple::new(vec![Value::from("c")]));
        assert_eq!(std::iter::empty().collect::<Tuple>(), Tuple::empty());
        // `project` and `concat` collect the same way.
        let projected = vec![values[2].clone(), Value::Null, values[0].clone()];
        assert_eq!(built.project(&[2, 9, 0]), Tuple::new(projected));
        assert_eq!(built.concat(&built).arity(), 8);
        assert_eq!(built.concat(&Tuple::empty()), built);
    }

    #[test]
    fn equality_and_hash_are_structural() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(t(&[1, 2]));
        set.insert(t(&[1, 2]));
        set.insert(t(&[2, 1]));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_formats_row() {
        let tup = Tuple::new(vec![Value::from("aaa"), Value::from(5i64)]);
        assert_eq!(tup.to_string(), "(aaa, 5)");
    }

    #[test]
    fn clone_is_cheap_and_shares_storage() {
        let tup = t(&[1, 2, 3]);
        let other = tup.clone();
        assert_eq!(tup, other);
        assert!(Arc::ptr_eq(&tup.values, &other.values));
    }
}
