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
    /// The entry's eviction weight: 1 for count-capacity caches, a byte estimate for
    /// byte-budgeted ones (see [`LruCache::with_byte_budget`]).
    weight: usize,
}

/// A bounded `HashMap` that evicts the least-recently-used entry on overflow.
///
/// Two bounding modes: a count capacity (at most `capacity` entries) and a *weight* budget
/// ([`with_byte_budget`](LruCache::with_byte_budget)) where each entry carries a caller-supplied
/// weight — the byte accounting the spill-aware caches use.  A capacity of `None` with no
/// budget means unbounded. [`get`](LruCache::get) counts as a use.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: Option<usize>,
    /// Maximum total entry weight (`None` = no weight bound).
    weight_budget: Option<usize>,
    /// Sum of resident entry weights.
    total_weight: usize,
    slots: HashMap<Arc<K>, Slot<V>>,
    /// The shared LRU machinery ([`RecencyIndex`], also behind the spill pool and the epoch
    /// pin LRU); the key is `Arc`-shared with the slot table, so no operation deep-copies it.
    recency: RecencyIndex<Arc<K>>,
    evictions: u64,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An unbounded cache (never evicts).
    #[must_use]
    pub fn unbounded() -> Self {
        LruCache {
            capacity: None,
            weight_budget: None,
            total_weight: 0,
            slots: HashMap::new(),
            recency: RecencyIndex::new(),
            evictions: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// A cache holding at most `capacity` entries (at least 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        LruCache {
            capacity: Some(capacity.max(1)),
            weight_budget: None,
            total_weight: 0,
            slots: HashMap::new(),
            recency: RecencyIndex::new(),
            evictions: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// A cache bounded by total entry *weight* instead of entry count: insert with
    /// [`insert_weighted`](LruCache::insert_weighted) (typically a byte estimate) and the
    /// least-recently-used entries are evicted until the total weight fits `budget` again.
    /// The spill-aware shared-plan cache sizes its materialised sub-plans this way.
    #[must_use]
    pub fn with_byte_budget(budget: usize) -> Self {
        LruCache {
            weight_budget: Some(budget),
            ..LruCache::unbounded()
        }
    }

    /// The configured capacity (`None` when unbounded).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The configured weight budget (`None` when the cache is count-bounded or unbounded).
    #[must_use]
    pub fn weight_budget(&self) -> Option<usize> {
        self.weight_budget
    }

    /// Sum of the weights of every resident entry (entry count for plain `insert`).
    #[must_use]
    pub fn total_weight(&self) -> usize {
        self.total_weight
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

    /// Number of [`get`](LruCache::get) calls answered by a resident entry.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of [`get`](LruCache::get) calls that found nothing.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of lookups answered by the cache (0 before any lookup).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Whether `key` is resident (does not refresh recency).
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.slots.contains_key(key)
    }

    /// Looks up `key`, refreshing its recency on a hit.  Hits and misses are counted
    /// ([`hits`](LruCache::hits) / [`misses`](LruCache::misses)); [`contains`](LruCache::contains)
    /// counts nothing.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = match self.slots.get_mut(key) {
            None => {
                self.misses += 1;
                return None;
            }
            Some(slot) => {
                self.hits += 1;
                slot
            }
        };
        // The index recovers the shared key from the old stamp itself (every resident slot
        // is indexed, so this is never the stale-stamp no-op).
        self.recency.refresh(&mut slot.last_used);
        Some(&slot.value)
    }

    /// Inserts `key → value` as the most recent entry (weight 1), evicting the
    /// least-recently-used entry when that would exceed the capacity.  Returns the first
    /// evicted key, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        self.insert_weighted(key, value, 1).into_iter().next()
    }

    /// Inserts `key → value` as the most recent entry carrying `weight`, evicting
    /// least-recently-used entries while the count capacity or the weight budget is exceeded.
    /// Returns every evicted key (a heavy insert into a byte-budgeted cache can displace
    /// several light entries; an entry heavier than the whole budget is admitted and then
    /// immediately evicted itself — the cache never rejects, it recomputes).
    pub fn insert_weighted(&mut self, key: K, value: V, weight: usize) -> Vec<K> {
        if let Some(slot) = self.slots.get_mut(&key) {
            // Overwrite in place: refresh recency and weight, then rebalance.
            self.total_weight = self.total_weight - slot.weight + weight;
            slot.value = value;
            slot.weight = weight;
            self.recency.refresh(&mut slot.last_used);
            return self.evict_to_bounds();
        }

        let shared = Arc::new(key);
        let last_used = self.recency.insert_fresh(Arc::clone(&shared));
        self.slots.insert(
            shared,
            Slot {
                value,
                last_used,
                weight,
            },
        );
        self.total_weight += weight;
        self.evict_to_bounds()
    }

    /// Evicts oldest-first until both the count capacity and the weight budget hold.
    fn evict_to_bounds(&mut self) -> Vec<K> {
        let mut evicted = Vec::new();
        loop {
            let over_capacity = matches!(self.capacity, Some(cap) if self.slots.len() > cap);
            let over_weight =
                matches!(self.weight_budget, Some(budget) if self.total_weight > budget);
            if !over_capacity && !over_weight {
                return evicted;
            }
            // Oldest stamp = least-recently-used; every indexed stamp is current here because
            // the cache evicts stamps eagerly.  (With a weight budget the newest entry can
            // itself be the last one standing and still overweight; it is evicted like any
            // other, leaving the cache empty.)
            let Some(victim) = self.recency.pop_oldest(|_, _| true) else {
                return evicted;
            };
            let slot = self.slots.remove(&victim).expect("slot for recency entry");
            self.total_weight -= slot.weight;
            self.evictions += 1;
            // Both owners (slot table + recency index) are gone, so this is a move, not a copy.
            evicted.push(Arc::try_unwrap(victim).unwrap_or_else(|shared| (*shared).clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
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
    fn unbounded_never_evicts() {
        let mut cache = LruCache::unbounded();
        for i in 0..1000 {
            assert_eq!(cache.insert(i, i), None);
        }
        assert_eq!(cache.len(), 1000);
        assert_eq!(cache.capacity(), None);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut cache = LruCache::with_capacity(0);
        assert_eq!(cache.capacity(), Some(1));
        cache.insert(1, 1);
        cache.insert(2, 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&2));
    }

    #[test]
    fn hit_rate_accounting_tracks_gets_only() {
        let mut cache = LruCache::with_capacity(2);
        assert_eq!(cache.hit_rate(), 0.0, "no lookups yet");
        cache.insert("a", 1);
        // contains() is a probe, not a use: it must not move the needle.
        assert!(cache.contains(&"a"));
        assert_eq!((cache.hits(), cache.misses()), (0, 0));

        assert_eq!(cache.get(&"a"), Some(&1)); // hit
        assert_eq!(cache.get(&"b"), None); // miss
        assert_eq!(cache.get(&"a"), Some(&1)); // hit
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        assert!((cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);

        // An evicted key counts as a miss like any other absent key.
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(&1)); // hit; "b" is now least recent
        cache.insert("c", 3); // evicts "b"
        assert_eq!(cache.get(&"b"), None);
        assert_eq!((cache.hits(), cache.misses()), (3, 2));
        assert_eq!(cache.hit_rate(), 0.6);
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
        assert_eq!(cache.capacity(), Some(1), "capacity 0 is clamped to 1");
        assert_eq!(cache.get(&"a"), None);
        cache.insert("a", 1);
        assert_eq!(cache.get(&"a"), Some(&1));
        // Every further insert evicts the sole resident.
        assert_eq!(cache.insert("b", 2), Some("a"));
        assert_eq!(cache.insert("c", 3), Some("b"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Overwriting the sole resident is still not an eviction.
        assert_eq!(cache.insert("c", 30), None);
        assert_eq!(cache.get(&"c"), Some(&30));
    }

    #[test]
    fn weight_budget_evicts_by_bytes_not_count() {
        let mut cache = LruCache::with_byte_budget(100);
        assert_eq!(cache.weight_budget(), Some(100));
        assert_eq!(cache.capacity(), None);
        assert!(cache.insert_weighted("a", 1, 40).is_empty());
        assert!(cache.insert_weighted("b", 2, 40).is_empty());
        assert_eq!(cache.total_weight(), 80);
        // 40 more bytes exceed the budget: the LRU entry goes, however many entries reside.
        assert_eq!(cache.insert_weighted("c", 3, 40), vec!["a"]);
        assert_eq!(cache.total_weight(), 80);
        // A heavy insert displaces *several* light entries at once.
        assert_eq!(cache.insert_weighted("d", 4, 90), vec!["b", "c"]);
        assert_eq!(cache.total_weight(), 90);
        assert_eq!(cache.evictions(), 3);
    }

    #[test]
    fn entry_heavier_than_the_budget_is_evicted_immediately() {
        let mut cache = LruCache::with_byte_budget(10);
        let evicted = cache.insert_weighted("huge", 1, 1000);
        assert_eq!(evicted, vec!["huge"]);
        assert!(cache.is_empty());
        assert_eq!(cache.total_weight(), 0);
        // The cache still works for entries that do fit.
        assert!(cache.insert_weighted("small", 2, 5).is_empty());
        assert_eq!(cache.get(&"small"), Some(&2));
    }

    #[test]
    fn weighted_overwrite_rebalances_weight() {
        let mut cache = LruCache::with_byte_budget(100);
        cache.insert_weighted("a", 1, 30);
        cache.insert_weighted("b", 2, 30);
        // Growing `a` past the budget evicts `b` (the LRU entry), not `a` itself.
        assert_eq!(cache.insert_weighted("a", 10, 90), vec!["b"]);
        assert_eq!(cache.get(&"a"), Some(&10));
        assert_eq!(cache.total_weight(), 90);
    }

    #[test]
    fn weighted_gets_refresh_recency_like_plain_ones() {
        let mut cache = LruCache::with_byte_budget(100);
        cache.insert_weighted("a", 1, 40);
        cache.insert_weighted("b", 2, 40);
        assert_eq!(cache.get(&"a"), Some(&1)); // b is now least recent
        assert_eq!(cache.insert_weighted("c", 3, 40), vec!["b"]);
        assert!(cache.contains(&"a") && cache.contains(&"c"));
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
