//! Per-column string dictionaries for the columnar layout.
//!
//! Text columns in a [`ColumnarRelation`](crate::ColumnarRelation) are stored as `u32` codes
//! against a per-column [`Dictionary`].  Source relations repeat a small set of strings many
//! times (generated names, phone numbers, city codes), so dictionary codes turn string
//! comparisons into integer comparisons and shrink spilled segments.  A column whose distinct
//! string count exceeds the builder's limit falls back to a plain (`Mixed`) value column
//! instead of growing an unbounded dictionary.
//!
//! Codes are per column: two columns holding the same string give it different codes, so a
//! code says nothing about equality *across* columns — and the answers of a probabilistic
//! query are exactly that, rows read from the different source columns two mappings send one
//! target attribute to.  What is comparable across columns is the string's
//! [`value_hash`](crate::value_hash), a function of the bytes alone; a dictionary computes it
//! once per entry, the first time anything asks ([`Dictionary::value_hashes`]), so an answer
//! interns an entry into its own value pool without hashing a byte, and converting a relation
//! never pays for it.

use crate::{value_hash, Value};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Default bound on distinct strings per column dictionary; columns with more distinct values
/// fall back to plain value storage.  Generous for the generated workloads (hundreds of
/// distinct strings) while bounding worst-case dictionary memory.
pub const DEFAULT_DICT_LIMIT: usize = 1 << 16;

/// An order-of-first-appearance string dictionary: code `i` is the `i`-th distinct string
/// interned.  Codes are dense (`0..len`).
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
    /// `value_hash` of every entry, by code; filled on first use, dropped when an entry is
    /// added.
    hashes: OnceLock<Box<[u64]>>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    #[must_use]
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Rebuilds a dictionary from its dense code table (decoded spill segments).
    ///
    /// Entry `i` becomes code `i`; duplicate entries keep the first code, which preserves
    /// lookups even for degenerate tables.
    #[must_use]
    pub fn from_values(values: Vec<Arc<str>>) -> Self {
        let mut index = HashMap::with_capacity(values.len());
        for (i, s) in values.iter().enumerate() {
            index.entry(Arc::clone(s)).or_insert(i as u32);
        }
        Dictionary {
            values,
            index,
            hashes: OnceLock::new(),
        }
    }

    /// Interns a string, returning its code — or `None` when the string is new and the
    /// dictionary already holds `limit` distinct entries (the caller falls back to a plain
    /// column).
    pub fn intern_within(&mut self, s: &Arc<str>, limit: usize) -> Option<u32> {
        if let Some(&code) = self.index.get(s) {
            return Some(code);
        }
        if self.values.len() >= limit {
            return None;
        }
        let code = self.values.len() as u32;
        self.values.push(Arc::clone(s));
        self.index.insert(Arc::clone(s), code);
        self.hashes.take();
        Some(code)
    }

    /// The string for a code, if in range.
    #[must_use]
    pub fn get(&self, code: u32) -> Option<&Arc<str>> {
        self.values.get(code as usize)
    }

    /// Looks up the code of a string already interned.
    #[must_use]
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Number of distinct entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The dense code table (entry `i` is code `i`).
    #[must_use]
    pub fn entries(&self) -> &[Arc<str>] {
        &self.values
    }

    /// [`value_hash`](crate::value_hash) of every entry as a `Value::Text`, by code: computed
    /// on the first call, a slice borrow on every later one.
    #[must_use]
    pub fn value_hashes(&self) -> &[u64] {
        let hash = |s: &Arc<str>| value_hash(&Value::Text(Arc::clone(s)));
        self.hashes
            .get_or_init(|| self.values.iter().map(hash).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn interning_is_dense_and_idempotent() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern_within(&arc("a"), 16), Some(0));
        assert_eq!(d.intern_within(&arc("b"), 16), Some(1));
        assert_eq!(d.intern_within(&arc("a"), 16), Some(0));
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(1).map(|s| &**s), Some("b"));
        assert_eq!(d.code_of("b"), Some(1));
        assert_eq!(d.code_of("zzz"), None);
    }

    #[test]
    fn limit_rejects_new_entries_but_not_existing_ones() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern_within(&arc("a"), 1), Some(0));
        assert_eq!(d.intern_within(&arc("b"), 1), None);
        // Existing entries still intern under a full dictionary.
        assert_eq!(d.intern_within(&arc("a"), 1), Some(0));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn value_hashes_are_the_entries_value_hashes_and_follow_interning() {
        let mut d = Dictionary::new();
        d.intern_within(&arc("a"), 16).unwrap();
        d.intern_within(&arc("b"), 16).unwrap();
        let of = |s: &str| value_hash(&Value::from(s));
        assert_eq!(d.value_hashes(), [of("a"), of("b")]);
        // Another dictionary gives "b" another code and the same hash.
        let mut other = Dictionary::new();
        other.intern_within(&arc("b"), 16).unwrap();
        assert_eq!(other.value_hashes(), [of("b")]);
        // Re-interning keeps the table; a new entry extends it.
        d.intern_within(&arc("a"), 16).unwrap();
        assert_eq!(d.value_hashes().len(), 2);
        d.intern_within(&arc("c"), 16).unwrap();
        assert_eq!(d.value_hashes(), [of("a"), of("b"), of("c")]);
        assert_eq!(d.clone().value_hashes(), d.value_hashes());
    }

    #[test]
    fn from_values_round_trips() {
        let mut d = Dictionary::new();
        for s in ["x", "y", "z"] {
            d.intern_within(&arc(s), 16).unwrap();
        }
        let rebuilt = Dictionary::from_values(d.entries().to_vec());
        assert_eq!(rebuilt.len(), 3);
        assert_eq!(rebuilt.code_of("y"), Some(1));
        assert_eq!(rebuilt.get(2).map(|s| &**s), Some("z"));
    }
}
