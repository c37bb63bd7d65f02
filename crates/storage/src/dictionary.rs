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
//! [`value_hash`](crate::value_hash), a function of the bytes alone.  A dictionary finds its
//! entries by that very hash ([`text_hash`]) through a [`HashIndex`]: a string is hashed once
//! per lookup, not once more when it is new, and each entry keeps the hash it was interned
//! under beside it ([`Dictionary::value_hashes`]), so an answer interns an entry into its own
//! value pool without hashing a byte.

use crate::{text_hash, HashIndex};
use std::sync::Arc;

/// Default bound on distinct strings per column dictionary; columns with more distinct values
/// fall back to plain value storage.  Generous for the generated workloads (hundreds of
/// distinct strings) while bounding worst-case dictionary memory.
pub const DEFAULT_DICT_LIMIT: usize = 1 << 16;

/// An order-of-first-appearance string dictionary: code `i` is the `i`-th distinct string
/// interned.  Codes are dense (`0..len`).
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Arc<str>>,
    /// The [`text_hash`] of every entry, by code.
    hashes: Vec<u64>,
    /// Finds an entry's code by its hash.
    index: HashIndex,
}

impl Dictionary {
    /// Creates an empty dictionary.
    #[must_use]
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// An empty dictionary with room for `capacity` entries: filling it to that allocates
    /// nothing more.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut index = HashIndex::default();
        index.reserve(0, capacity, |_| {
            unreachable!("an empty index re-reads no hash")
        });
        Dictionary {
            values: Vec::with_capacity(capacity),
            hashes: Vec::with_capacity(capacity),
            index,
        }
    }

    /// Rebuilds a dictionary from its dense code table (decoded spill segments).
    ///
    /// Entry `i` becomes code `i`; duplicate entries keep the first code, which preserves
    /// lookups even for degenerate tables.
    #[must_use]
    pub fn from_values(values: Vec<Arc<str>>) -> Self {
        let hashes: Vec<u64> = values.iter().map(|s| text_hash(s)).collect();
        let mut index = HashIndex::default();
        // Entries are placed in code order, so a repeat sits behind the first in its chain.
        index.reserve(values.len(), 0, |code| hashes[code]);
        Dictionary {
            values,
            hashes,
            index,
        }
    }

    /// Interns a string, returning its code — or `None` when the string is new and the
    /// dictionary already holds `limit` distinct entries (the caller falls back to a plain
    /// column).  The string is hashed once, and its `Arc` cloned only if it is new.
    pub fn intern_within(&mut self, s: &Arc<str>, limit: usize) -> Option<u32> {
        let hash = text_hash(s);
        let mut slot = match self.probe(hash, s) {
            Ok(code) => return Some(code as u32),
            Err(slot) => slot,
        };
        let len = self.values.len();
        if len >= limit {
            return None;
        }
        let hashes = &self.hashes;
        if self.index.reserve(len, 1, |code| hashes[code]) {
            slot = self.probe(hash, s).expect_err("a new string");
        }
        let code = self.index.occupy(slot, len);
        self.values.push(Arc::clone(s));
        self.hashes.push(hash);
        Some(code)
    }

    /// `Ok(code)` of `s`, or `Err(slot)`: the free slot that ends its chain.
    fn probe(&self, hash: u64, s: &str) -> Result<usize, usize> {
        let (values, hashes) = (&self.values, &self.hashes);
        let is_match = |code: usize| hashes[code] == hash && *values[code] == *s;
        self.index.probe(hash, is_match)
    }

    /// Gives back the room reserved for entries that never came.
    pub fn shrink_to_fit(&mut self) {
        self.values.shrink_to_fit();
        self.hashes.shrink_to_fit();
        let hashes = &self.hashes;
        self.index.shrink_to_fit(hashes.len(), |code| hashes[code]);
    }

    /// The string for a code, if in range.
    #[must_use]
    pub fn get(&self, code: u32) -> Option<&Arc<str>> {
        self.values.get(code as usize)
    }

    /// Looks up the code of a string already interned.
    #[must_use]
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.probe(text_hash(s), s).ok().map(|code| code as u32)
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

    /// [`value_hash`](crate::value_hash) of every entry as a `Value::Text`, by code.
    #[must_use]
    pub fn value_hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Bytes the dictionary holds on the heap: its strings, their hashes and its index.
    #[must_use]
    pub(crate) fn estimated_bytes(&self) -> usize {
        let strings: usize = self.values.iter().map(|s| text_bytes(s)).sum();
        size_of_val(self.values.as_slice())
            + strings
            + size_of_val(self.hashes.as_slice())
            + self.index.estimated_bytes()
    }
}

/// Heap bytes of one `Arc<str>`: the two reference counts and the string.
pub(crate) fn text_bytes(s: &str) -> usize {
    2 * size_of::<usize>() + s.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{value_hash, Value};

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
    fn growing_past_the_reserved_room_keeps_every_code() {
        for mut d in [Dictionary::new(), Dictionary::with_capacity(3)] {
            let strings: Vec<Arc<str>> = (0..100).map(|i| arc(&format!("s{i}"))).collect();
            for (code, s) in strings.iter().enumerate() {
                assert_eq!(d.intern_within(s, 1000), Some(code as u32));
            }
            for (code, s) in strings.iter().enumerate() {
                assert_eq!(d.intern_within(s, 0), Some(code as u32));
                assert_eq!(d.code_of(s), Some(code as u32));
            }
            assert_eq!(d.len(), 100);
        }
    }

    #[test]
    fn a_column_of_few_strings_keeps_a_dictionary_of_few_entries() {
        use crate::Column;
        let strings: Vec<Value> = (0..10).map(|i| Value::from(format!("s{i}"))).collect();
        let cells = (0..DEFAULT_DICT_LIMIT).map(|row| &strings[row % 10]);
        let Column::Text { codes, dict, .. } = Column::from_cells(cells, DEFAULT_DICT_LIMIT) else {
            panic!("a text column");
        };
        assert_eq!((codes.len(), codes[13]), (DEFAULT_DICT_LIMIT, 3));
        // Room for a code per row was reserved while the column was read, and given back.
        assert_eq!(dict.len(), 10);
        assert!(dict.values.capacity() <= 10 && dict.hashes.capacity() <= 10);
        assert_eq!(
            dict.index.capacity(),
            16,
            "the smallest index over ten entries"
        );
        assert_eq!(dict.code_of("s7"), Some(7));
    }

    #[test]
    fn from_values_keeps_the_first_code_of_a_repeated_entry() {
        let d = Dictionary::from_values(vec![arc("a"), arc("b"), arc("a")]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.code_of("a"), Some(0));
        assert_eq!(d.get(2).map(|s| &**s), Some("a"));
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
