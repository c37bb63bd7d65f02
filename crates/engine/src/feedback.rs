//! Observed-cardinality feedback: the adaptive-execution loop's memory.
//!
//! Bind-time cost estimates ([`PhysicalPlan::estimate_from`](crate::PhysicalPlan::estimate_from))
//! are computed from captured row-buffer sizes with coarse selectivity rules — good enough to
//! rank a join above a selection, badly wrong on skewed data (a selective filter estimated at
//! half its input, a join whose small side is guessed large).  The per-epoch DAG executes the
//! *same* bound nodes batch after batch, so the fix is nearly free: record what each node
//! actually produced and feed it back.
//!
//! ```text
//!   execute node ──record(fingerprint, rows, bytes, nanos)──►  CardinalityStore (on the epoch)
//!   next batch   ──apply_feedback(store)──────────────────►  snapshot costs + join hints
//! ```
//!
//! A [`CardinalityStore`] lives on the [`EpochDag`](crate::EpochDag) and survives bind-cache
//! hits (the fingerprint is the bound node's sharing key, which is stable for the epoch's
//! lifetime).  Each batch's snapshot subgraph consults it before execution:
//!
//! * scheduler priorities — observed output rows replace the static estimate in every node's
//!   cost, so the parallel scheduler's max-heap starts the *actually* expensive nodes first;
//! * build-side choice — a hash join whose observed left side is smaller than its right gets a
//!   [`JoinHint`] flipping the build side (answers stay byte-identical: the flipped join
//!   restores canonical probe order before returning); a join that actually *runs* flipped is
//!   counted where it runs, in [`ExecStats::reordered_joins`](crate::ExecStats);
//! * grace sizing — the observed build-side bytes feed the grace join's partition fan-out and
//!   the pool's admission reservation in place of the static `budget/4` heuristic.
//!
//! Observations decay exponentially (EWMA, α = ½), so an epoch whose data characteristics
//! drift between batches converges onto the recent truth instead of averaging over history.
//! An empty store is the static schedule: a cold epoch's first batch has no hints and costs
//! every node at its bind-time estimate.

use std::collections::HashMap;
use std::sync::Mutex;

/// Exponential-decay weight of the newest observation (older history keeps `1 - ALPHA`).
const ALPHA: f64 = 0.5;

/// One node's exponentially-decayed execution history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observed {
    /// Decayed observed output rows.
    pub rows: f64,
    /// Decayed observed output bytes (estimated in-memory footprint of the result).
    pub bytes: f64,
    /// Decayed observed execution wall-clock nanoseconds.
    pub nanos: f64,
    /// Number of executions folded in (undecayed — a recency-independent confidence signal).
    pub samples: u64,
}

impl Observed {
    /// The decayed observed row count, rounded to the cost model's integer domain.
    #[must_use]
    pub fn rows_estimate(&self) -> u64 {
        self.rows.round().max(0.0) as u64
    }

    /// The decayed observed byte count, rounded.
    #[must_use]
    pub fn bytes_estimate(&self) -> u64 {
        self.bytes.round().max(0.0) as u64
    }
}

/// Fingerprint → [`Observed`]: the epoch's memory of what its nodes actually produced.
///
/// Keys are bound-plan fingerprints ([`PhysicalPlan::fingerprint`](crate::PhysicalPlan)), the
/// same identity the bind cache and result caches use, so an observation recorded by one batch
/// is found by every later batch that re-binds (or bind-cache-hits) the same node.  Internally
/// mutexed: parallel scheduler workers record concurrently.
#[derive(Debug, Default)]
pub struct CardinalityStore {
    inner: Mutex<HashMap<u64, Observed>>,
}

impl CardinalityStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        CardinalityStore::default()
    }

    /// Folds one execution of the node identified by `fingerprint` into its decayed history.
    pub fn record(&self, fingerprint: u64, rows: u64, bytes: u64, nanos: u64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.get_mut(&fingerprint) {
            Some(obs) => {
                obs.rows = (1.0 - ALPHA) * obs.rows + ALPHA * rows as f64;
                obs.bytes = (1.0 - ALPHA) * obs.bytes + ALPHA * bytes as f64;
                obs.nanos = (1.0 - ALPHA) * obs.nanos + ALPHA * nanos as f64;
                obs.samples += 1;
            }
            None => {
                inner.insert(
                    fingerprint,
                    Observed {
                        rows: rows as f64,
                        bytes: bytes as f64,
                        nanos: nanos as f64,
                        samples: 1,
                    },
                );
            }
        }
    }

    /// The decayed history of a node, if it has ever executed under recording.
    #[must_use]
    pub fn get(&self, fingerprint: u64) -> Option<Observed> {
        self.inner.lock().unwrap().get(&fingerprint).copied()
    }

    /// Number of distinct nodes observed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether nothing has been observed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }

    /// The full store contents, in fingerprint order (deterministic for carry-over folding).
    ///
    /// Used by the service layer to persist an epoch's observations past its retirement: the
    /// snapshot taken at `drop_epoch` seeds the [`CardinalityStore`] of the next epoch built
    /// over the same catalog, so cold-after-retirement batches reorder joins immediately.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(u64, Observed)> {
        let inner = self.inner.lock().unwrap();
        let mut entries: Vec<_> = inner.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_by_key(|(k, _)| *k);
        entries
    }

    /// Seeds the store with carried-over observations, folding duplicates through the same
    /// EWMA as [`record`](CardinalityStore::record) (a fingerprint already observed in this
    /// store decays towards the absorbed history's estimate).
    pub fn absorb(&self, entries: &[(u64, Observed)]) {
        let mut inner = self.inner.lock().unwrap();
        for (fingerprint, obs) in entries {
            match inner.get_mut(fingerprint) {
                Some(current) => {
                    current.rows = (1.0 - ALPHA) * current.rows + ALPHA * obs.rows;
                    current.bytes = (1.0 - ALPHA) * current.bytes + ALPHA * obs.bytes;
                    current.nanos = (1.0 - ALPHA) * current.nanos + ALPHA * obs.nanos;
                    current.samples += obs.samples;
                }
                None => {
                    inner.insert(*fingerprint, *obs);
                }
            }
        }
    }
}

/// A per-node execution hint computed from observed cardinalities (today: hash joins only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinHint {
    /// Build the hash table on the *left* (probe) side instead of the canonical right side —
    /// chosen when the observed left side is smaller.  The executor restores canonical output
    /// order, so flipping never changes the answer.
    pub build_left: bool,
    /// Observed (decayed) bytes of whichever side the hint builds on, when that side has been
    /// observed — sizes the grace join's partition fan-out and pool reservation in place of
    /// the static heuristic.
    pub build_bytes: Option<u64>,
}

/// What [`OperatorDag::apply_feedback`](crate::OperatorDag::apply_feedback) changed on a
/// batch's snapshot: the adaptive loop's visible accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedbackSummary {
    /// Nodes whose scheduling cost was replaced by an observed cardinality.
    pub observed_nodes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_is_taken_verbatim() {
        let store = CardinalityStore::new();
        store.record(7, 100, 4000, 9000);
        let obs = store.get(7).unwrap();
        assert_eq!(obs.rows_estimate(), 100);
        assert_eq!(obs.bytes_estimate(), 4000);
        assert_eq!(obs.samples, 1);
        assert!(store.get(8).is_none());
    }

    #[test]
    fn observations_decay_towards_the_recent() {
        let store = CardinalityStore::new();
        store.record(7, 100, 0, 0);
        store.record(7, 0, 0, 0);
        let obs = store.get(7).unwrap();
        assert_eq!(obs.rows_estimate(), 50, "α=½ halves the stale estimate");
        store.record(7, 0, 0, 0);
        assert_eq!(store.get(7).unwrap().rows_estimate(), 25);
        assert_eq!(store.get(7).unwrap().samples, 3);
    }

    #[test]
    fn snapshot_and_absorb_round_trip() {
        let store = CardinalityStore::new();
        store.record(2, 20, 200, 2000);
        store.record(1, 10, 100, 1000);
        let snap = store.snapshot();
        assert_eq!(snap.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![1, 2]);
        let fresh = CardinalityStore::new();
        fresh.absorb(&snap);
        assert_eq!(fresh.get(1), store.get(1));
        assert_eq!(fresh.get(2), store.get(2));
        // Absorbing into a store that already saw the node folds via the EWMA.
        let warm = CardinalityStore::new();
        warm.record(1, 30, 0, 0);
        warm.absorb(&snap);
        assert_eq!(warm.get(1).unwrap().rows_estimate(), 20);
        assert_eq!(warm.get(1).unwrap().samples, 2);
    }

    #[test]
    fn stores_are_independent_per_fingerprint() {
        let store = CardinalityStore::new();
        store.record(1, 10, 0, 0);
        store.record(2, 20, 0, 0);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1).unwrap().rows_estimate(), 10);
        assert_eq!(store.get(2).unwrap().rows_estimate(), 20);
    }
}
