//! A small bounded map with least-recently-used eviction.
//!
//! The map behind the service layer's answer cache.  Recency is tracked with a monotonic
//! clock stamp per entry plus an ordered stamp → key index, so lookup refresh and eviction
//! are both `O(log n)` and no operation deep-copies a key: the key is allocated once per
//! entry and shared (`Arc`) between the slot table and the recency index.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;
use urm_storage::RecencyIndex;

#[derive(Debug)]
struct Slot<V> {
    value: V,
    last_used: u64,
}

/// A `HashMap` of at most `capacity` entries that evicts the least-recently-used one on
/// overflow.  [`get`](LruCache::get) counts as a use.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    slots: HashMap<Arc<K>, Slot<V>>,
    /// The shared LRU machinery ([`RecencyIndex`], also behind the spill pool and the epoch
    /// pin LRU); the key is `Arc`-shared with the slot table, so no operation deep-copies it.
    recency: RecencyIndex<Arc<K>>,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (at least 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            slots: HashMap::new(),
            recency: RecencyIndex::new(),
            evictions: 0,
        }
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of entries evicted so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `key` is resident (does not refresh recency).
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.slots.contains_key(key)
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = self.slots.get_mut(key)?;
        // The index recovers the shared key from the old stamp itself (every resident slot
        // is indexed, so this is never the stale-stamp no-op).
        self.recency.refresh(&mut slot.last_used);
        Some(&slot.value)
    }

    /// Inserts `key → value` as the most recent entry, evicting the least-recently-used entry
    /// when that would exceed the capacity.  Returns the evicted key, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if let Some(slot) = self.slots.get_mut(&key) {
            // Overwrite in place: nothing is added, so nothing is evicted.
            slot.value = value;
            self.recency.refresh(&mut slot.last_used);
            return None;
        }
        let shared = Arc::new(key);
        let last_used = self.recency.insert_fresh(Arc::clone(&shared));
        self.slots.insert(shared, Slot { value, last_used });
        if self.slots.len() <= self.capacity {
            return None;
        }
        // Oldest stamp = least-recently-used; every indexed stamp is current here because the
        // cache evicts stamps eagerly.
        let victim = self.recency.pop_oldest(|_, _| true)?;
        self.slots.remove(&victim).expect("slot for recency entry");
        self.evictions += 1;
        // Both owners (slot table + recency index) are gone, so this is a move, not a copy.
        Some(Arc::try_unwrap(victim).unwrap_or_else(|shared| (*shared).clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::with_capacity(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(cache.get(&"a"), Some(&1));
        let evicted = cache.insert("c", 3);
        assert_eq!(evicted, Some("b"));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&"a") && cache.contains(&"c"));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn overwriting_does_not_evict() {
        let mut cache = LruCache::with_capacity(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.insert("a", 10), None);
        assert_eq!(cache.get(&"a"), Some(&10));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn overwriting_refreshes_recency() {
        let mut cache = LruCache::with_capacity(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        // Overwriting "a" makes "b" the LRU entry.
        cache.insert("a", 10);
        assert_eq!(cache.insert("c", 3), Some("b"));
        assert!(cache.contains(&"a") && cache.contains(&"c"));
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut cache = LruCache::with_capacity(0);
        cache.insert(1, 1);
        cache.insert(2, 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&2));
    }

    #[test]
    fn interleaved_gets_and_inserts_evict_in_recency_order() {
        let mut cache = LruCache::with_capacity(3);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(&1)); // order now b, a
        cache.insert("c", 3); // order b, a, c
        assert_eq!(cache.get(&"b"), Some(&2)); // order a, c, b
        assert_eq!(cache.insert("d", 4), Some("a"), "a was least recent");
        assert_eq!(cache.get(&"c"), Some(&3)); // order b, d, c
        assert_eq!(cache.insert("e", 5), Some("b"));
        assert_eq!(cache.insert("f", 6), Some("d"));
        assert!(cache.contains(&"c") && cache.contains(&"e") && cache.contains(&"f"));
        assert_eq!(cache.evictions(), 3);
        // A miss on an evicted key does not disturb the recency of residents.
        assert_eq!(cache.get(&"a"), None);
        assert_eq!(cache.insert("g", 7), Some("c"));
    }

    #[test]
    fn capacity_zero_clamps_to_one_and_still_counts() {
        let mut cache = LruCache::with_capacity(0);
        assert_eq!(cache.get(&"a"), None);
        cache.insert("a", 1);
        assert_eq!(cache.get(&"a"), Some(&1));
        // Every further insert evicts the sole resident.
        assert_eq!(cache.insert("b", 2), Some("a"));
        assert_eq!(cache.insert("c", 3), Some("b"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 2);
        // Overwriting the sole resident is still not an eviction.
        assert_eq!(cache.insert("c", 30), None);
        assert_eq!(cache.get(&"c"), Some(&30));
    }

    #[test]
    fn eviction_order_follows_access_pattern_under_churn() {
        let mut cache = LruCache::with_capacity(3);
        for i in 0..3 {
            cache.insert(i, i);
        }
        // Access order now 0, 1, 2 → touch 0 and 1, leaving 2 as LRU.
        cache.get(&0);
        cache.get(&1);
        assert_eq!(cache.insert(3, 3), Some(2));
        assert_eq!(cache.insert(4, 4), Some(0));
        assert_eq!(cache.len(), 3);
        assert!(cache.contains(&1) && cache.contains(&3) && cache.contains(&4));
        assert_eq!(cache.evictions(), 2);
    }
}
