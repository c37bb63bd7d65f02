//! Typed scalar values.

use crate::DataType;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A scalar value stored in a tuple.
///
/// Answer tuples of a probabilistic query must be *aggregated by equality* — the probability of
/// an answer is the sum of the probabilities of every mapping that produces it — so `Value`
/// implements full `Eq`, `Ord` and `Hash`.  Floats are compared and hashed through a total
/// order (`f64::total_cmp`) with all NaNs treated as identical; this makes probabilistic
/// aggregation deterministic even for SUM results.
///
/// Strings are reference-counted (`Arc<str>`): source relations are repeatedly filtered,
/// projected and multiplied while evaluating the many source queries a mapping set induces, and
/// cloning tuples must stay cheap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Absent value (used for partial correspondences and empty aggregates).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Returns the [`DataType`] of this value.
    #[must_use]
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Text(_) => DataType::Text,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// Returns true for [`Value::Null`].
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Creates a text value.
    #[must_use]
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(Arc::from(s.as_ref()))
    }

    /// Interprets the value as a float for arithmetic (SUM aggregates).
    ///
    /// Integers widen to floats; every other variant yields `None`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Interprets the value as an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Interprets the value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Interprets the value as a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric rank of the variant, used to order values of different types deterministically.
    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            // Cross-type numeric equality: an int column joined with a float column must still
            // match (the synthetic TPC-H generator stores prices as floats, quantities as ints).
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64).total_cmp(b) == Ordering::Equal
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Ints and floats that compare equal must hash equally, so both hash through the
            // float bit pattern of their numeric value.
            Value::Int(i) => {
                state.write_u8(2);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                state.write_u8(2);
                if f.is_nan() {
                    f64::NAN.to_bits().hash(state);
                } else {
                    f.to_bits().hash(state);
                }
            }
            // As `text_hash` spells it.
            Value::Text(s) => {
                state.write_u8(4);
                s.hash(state);
            }
        }
    }
}

/// The keys every [`value_hash`] of this process is computed under.  Values are data — what a
/// source relation holds is not the program's to choose — so the hash stays keyed, like a
/// `HashMap`'s; one key set for the process, so that a hash computed for one column, relation
/// or answer can be compared with one computed for another.  A query's constants are a client's
/// to choose, so `urm-core`'s `QueryKey` hashes under these keys too.
#[must_use]
pub fn hash_keys() -> &'static RandomState {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new)
}

/// The keyed hash of one value: [`Value`]'s own `Hash` (so an `Int` and a `Float` that compare
/// equal hash equal) under the process-wide keys.  It depends on the value alone — not on the
/// column, dictionary or relation the value was read from — and differs between processes.
#[must_use]
pub fn value_hash(value: &Value) -> u64 {
    hash_keys().hash_one(value)
}

/// [`value_hash`] of `Value::Text(s)`, hashed from the borrowed string.
#[must_use]
pub fn text_hash(s: &str) -> u64 {
    let mut state = hash_keys().build_hasher();
    state.write_u8(4);
    s.hash(&mut state);
    state.finish()
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn data_types_are_reported() {
        assert_eq!(Value::from(1i64).data_type(), DataType::Int);
        assert_eq!(Value::from(1.5).data_type(), DataType::Float);
        assert_eq!(Value::from("x").data_type(), DataType::Text);
        assert_eq!(Value::from(true).data_type(), DataType::Bool);
        assert_eq!(Value::Null.data_type(), DataType::Null);
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(Value::from("abc"), Value::from("abc"));
        assert_ne!(Value::from("abc"), Value::from("abd"));
        assert_eq!(Value::from(3i64), Value::from(3i64));
        assert_ne!(Value::from(3i64), Value::from(4i64));
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::from(3i64), Value::from(3.0));
        assert_ne!(Value::from(3i64), Value::from(3.5));
        assert_eq!(hash_of(&Value::from(3i64)), hash_of(&Value::from(3.0)));
    }

    #[test]
    fn nan_is_self_equal() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn equal_values_hash_equal() {
        let pairs = [
            (Value::from("hello"), Value::from("hello")),
            (Value::from(42i64), Value::from(42i64)),
            (Value::from(1.25), Value::from(1.25)),
            (Value::Null, Value::Null),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn value_hash_follows_value_equality() {
        assert_eq!(
            value_hash(&Value::from(3i64)),
            value_hash(&Value::from(3.0))
        );
        assert_eq!(
            value_hash(&Value::Float(f64::NAN)),
            value_hash(&Value::Float(-f64::NAN))
        );
        assert_ne!(value_hash(&Value::Null), value_hash(&Value::from(0i64)));
        assert_ne!(
            value_hash(&Value::from("1")),
            value_hash(&Value::from(1i64))
        );
        for s in ["", "a", "ab\u{e9}"] {
            assert_eq!(text_hash(s), value_hash(&Value::from(s)));
        }
    }

    #[test]
    fn ordering_is_total_and_antisymmetric() {
        let values = vec![
            Value::Null,
            Value::from(false),
            Value::from(true),
            Value::from(-7i64),
            Value::from(2i64),
            Value::from(2.5),
            Value::from("a"),
            Value::from("b"),
        ];
        for a in &values {
            for b in &values {
                match a.cmp(b) {
                    Ordering::Less => assert_eq!(b.cmp(a), Ordering::Greater),
                    Ordering::Greater => assert_eq!(b.cmp(a), Ordering::Less),
                    Ordering::Equal => assert_eq!(b.cmp(a), Ordering::Equal),
                }
            }
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::from(7i64).as_i64(), Some(7));
        assert_eq!(Value::from(7i64).as_f64(), Some(7.0));
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::from("s").as_i64(), None);
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::from(12i64).to_string(), "12");
        assert_eq!(Value::from("aaa").to_string(), "aaa");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
