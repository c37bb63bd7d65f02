//! The bounded answer cache: completed probabilistic answers keyed by the query itself.

use crate::service::EpochId;
use std::hash::Hash;
use std::sync::Arc;
use urm_core::{ProbabilisticAnswer, QueryKey};
use urm_mqo::LruCache;

/// A cached answer plus the batch that produced it.
#[derive(Debug, Clone)]
pub struct CachedAnswer {
    /// The complete probabilistic answer (shared, so a cache hit is a pointer bump rather
    /// than a deep copy made while holding the cache lock).
    pub answer: Arc<ProbabilisticAnswer>,
    /// The batch in which the answer was evaluated.
    pub batch: u64,
}

/// A bounded LRU cache of completed answers, keyed by `(epoch, query)`.
///
/// The service's key is a [`QueryKey`]: the query with a hash computed once, compared field by
/// field when the hashes agree — exact (value type tags are never erased, an answer is never
/// served on hash equality alone) and nothing is rendered to probe.  Any other exact key type
/// will do (`String`: a canonical rendering).  Epochs are immutable — a
/// registered (catalog, mapping set) pair never changes, and new data or mapping versions get a
/// fresh [`EpochId`] — so a cached answer can never go stale: it is correct for as long as its
/// epoch is addressable.
#[derive(Debug)]
pub struct AnswerCache<K = QueryKey> {
    entries: LruCache<(u64, K), CachedAnswer>,
    /// Capacity 0: nothing is ever stored, so every lookup misses (and counts as one).
    disabled: bool,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone> AnswerCache<K> {
    /// A cache holding at most `capacity` answers; a capacity of 0 disables caching — every
    /// query is evaluated (or batch-deduplicated), none is served from here.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        AnswerCache {
            entries: LruCache::with_capacity(capacity),
            disabled: capacity == 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the answer for query `key` under `epoch`, counting a hit or miss.
    pub fn lookup(&mut self, epoch: EpochId, key: &K) -> Option<CachedAnswer> {
        let found = self.recheck(epoch, key);
        self.misses += u64::from(found.is_none());
        found
    }

    /// Like [`lookup`](AnswerCache::lookup) but does not count a miss — used for the batch-time
    /// re-check of submissions that already recorded their miss at submit time (a hit is still
    /// counted: the query really was served from the cache).
    pub fn recheck(&mut self, epoch: EpochId, key: &K) -> Option<CachedAnswer> {
        let found = self.entries.get(&(epoch.raw(), key.clone())).cloned();
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Inserts a freshly evaluated answer (a no-op on a disabled cache).
    pub fn insert(&mut self, epoch: EpochId, key: K, answer: CachedAnswer) {
        if !self.disabled {
            self.entries.insert((epoch.raw(), key), answer);
        }
    }

    /// Number of lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that missed.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of cached answers evicted to stay within capacity.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.entries.evictions()
    }

    /// Number of resident answers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urm_storage::{Tuple, Value};

    fn answer(p: f64) -> CachedAnswer {
        let mut a = ProbabilisticAnswer::new();
        a.add(Tuple::new(vec![Value::from("x")]), p);
        CachedAnswer {
            answer: Arc::new(a),
            batch: 1,
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut cache = AnswerCache::with_capacity(4);
        let epoch = EpochId::from_raw(1);
        assert!(cache.lookup(epoch, &"q0").is_none());
        cache.insert(epoch, "q0", answer(0.5));
        let hit = cache.lookup(epoch, &"q0").unwrap();
        assert!((hit.answer.max_probability() - 0.5).abs() < 1e-12);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn recheck_counts_hits_but_not_misses() {
        let mut cache = AnswerCache::with_capacity(4);
        let epoch = EpochId::from_raw(1);
        assert!(cache.recheck(epoch, &"q0").is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.insert(epoch, "q0", answer(0.5));
        assert!(cache.recheck(epoch, &"q0").is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn epochs_do_not_collide() {
        let mut cache = AnswerCache::with_capacity(4);
        cache.insert(EpochId::from_raw(1), "q0", answer(0.5));
        assert!(cache.lookup(EpochId::from_raw(2), &"q0").is_none());
    }

    #[test]
    fn distinct_queries_never_collide() {
        let mut cache = AnswerCache::with_capacity(4);
        let epoch = EpochId::from_raw(1);
        cache.insert(epoch, "q0: π[a] (R)", answer(0.5));
        assert!(cache.lookup(epoch, &"q1: π[b] (R)").is_none());
        assert!(cache.lookup(epoch, &"q0: π[a] (R)").is_some());
    }

    #[test]
    fn capacity_zero_disables_the_cache() {
        let mut cache = AnswerCache::with_capacity(0);
        let epoch = EpochId::from_raw(1);
        cache.insert(epoch, "q0", answer(0.5));
        assert!(cache.is_empty(), "a disabled cache stores nothing");
        assert!(cache.lookup(epoch, &"q0").is_none());
        assert!(cache.recheck(epoch, &"q0").is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn capacity_bounds_resident_answers() {
        let mut cache = AnswerCache::with_capacity(2);
        let epoch = EpochId::from_raw(1);
        for i in 0..5 {
            cache.insert(epoch, format!("q{i}"), answer(0.1));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 3);
    }
}
