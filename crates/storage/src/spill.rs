//! Spill-to-disk paged storage: a byte-budgeted [`BufferPool`] over materialised relations.
//!
//! Every layer above this crate so far assumed the whole working set fits in RAM: scans,
//! intermediate operator results and pinned epoch results were all `Arc<Relation>`s that lived
//! until their last consumer dropped them.  This module is the larger-than-memory unlock: a
//! [`BufferPool`] tracks materialised relations under a configurable **byte budget**, writes
//! the least-recently-used ones to per-relation segment files (via the
//! [`codec`](crate::codec)'s columnar segment encoding — dictionary/delta/RLE per column,
//! value by value for mixed columns) when the budget overflows, and reloads
//! them transparently on the next access.  Callers hold a [`SpillableRelation`] handle wherever they
//! previously held an always-resident `Arc<Relation>`:
//!
//! ```text
//!   pool.admit(rel)  ──►  SpillableRelation  ──load()──►  Arc<Relation>
//!   cached in RAM          cheap clonable handle           resident: Arc clone
//!   while under budget     (drop deletes the segment)      spilled:  segment read + decode
//! ```
//!
//! ## Budget semantics
//!
//! * The pool's **cached bytes** — the relations the pool itself keeps resident — never exceed
//!   the budget after any pool operation returns (barring an I/O failure while rebalancing,
//!   which leaves the budget transiently exceeded and is retried on the next operation):
//!   admitting or reloading past the budget spills least-recently-used entries (segment write
//!   on first spill only; segments are immutable because relations are) until the pool is back
//!   under it.  This is the invariant
//!   the spill benchmark gates on (`peak_cached_bytes ≤ budget`, with
//!   [`DEFAULT_PAGE_BYTES`] of slack allowed in reports for accounting granularity).
//! * Bytes held by *callers* (the `Arc<Relation>`s returned by [`SpillableRelation::load`])
//!   are the working set of whatever operator is running; the pool tracks them weakly and
//!   reports them as `live_bytes`, and a reload of a relation some caller still holds is
//!   answered by upgrading the weak reference — no disk read.
//! * A budget of `0` spills everything (every `load` of a cold entry is a segment read); an
//!   unbounded pool ([`BufferPool::unbounded`]) never writes a segment at all — the never-spill
//!   fast path is the pre-spill behaviour, byte for byte.
//!
//! Segment files live in a per-pool temporary directory, deleted when the pool (and every
//! handle into it) is dropped; dropping an individual handle deletes its segment eagerly.

use crate::codec;
use crate::recency::RecencyIndex;
use crate::{Relation, Schema, StorageError, StorageResult};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use urm_obs::Tracer;

/// Accounting granularity the spill reports allow for: gates on the pool's budget compare
/// against `budget + DEFAULT_PAGE_BYTES` so byte-estimate rounding never flakes a CI run.
pub const DEFAULT_PAGE_BYTES: usize = 64 * 1024;

/// Monotonic source of unique spill-directory suffixes (several pools per process).
static POOL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A snapshot of a pool's spill counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Total bytes written to segment files (actual encoded size, counted once per segment —
    /// segments are immutable, so re-spilling a reloaded relation rewrites nothing).
    pub bytes_spilled: u64,
    /// Segment reads that brought a spilled relation back into memory.
    pub spill_reloads: u64,
    /// Segment files written so far.
    pub segments_written: u64,
    /// Bytes the written segments would have taken value by value
    /// ([`codec::encoded_rows_len`]: the "raw" size the columnar compression is measured
    /// against).
    pub segment_bytes_raw: u64,
    /// Actual encoded bytes of the written segments (same total as `bytes_spilled`; kept as
    /// its own counter so raw/encoded always pair up in reports).
    pub segment_bytes_encoded: u64,
    /// Relations currently tracked by the pool.
    pub relations_tracked: usize,
    /// Bytes of relations the pool itself currently keeps resident (never exceeds the budget).
    pub cached_bytes: usize,
    /// Maximum `cached_bytes` ever observed at the end of a pool operation.
    pub peak_cached_bytes: usize,
    /// Bytes of tracked relations currently alive anywhere (pool-cached or caller-held).
    pub live_bytes: usize,
    /// Maximum `live_bytes` ever observed at the end of a pool operation.
    pub peak_live_bytes: usize,
}

/// One tracked relation.
#[derive(Debug)]
struct Entry {
    /// Schema kept resident so a spilled relation can be decoded without touching disk twice.
    schema: Schema,
    /// Estimated in-memory footprint (the budget accounting unit, never 0).
    bytes: usize,
    /// The pool's own strong reference — present while the entry is resident under the budget.
    cached: Option<Arc<Relation>>,
    /// Tracks caller-held copies: lets a reload skip the disk when someone still has the rows.
    live: Weak<Relation>,
    /// The entry's segment file, written at most once (relations are immutable).
    segment: Option<PathBuf>,
    /// Whether a segment write for this entry is in flight *outside* the lock (see
    /// [`trim_to_budget`]).  A spilling entry stays cached and loadable, and is never picked
    /// as a victim again until the write resolves.
    spilling: bool,
    /// Recency stamp for LRU victim selection.
    last_used: u64,
}

#[derive(Debug)]
struct PoolInner {
    budget: Option<usize>,
    dir: PathBuf,
    dir_created: bool,
    entries: HashMap<u64, Entry>,
    /// O(log n) LRU victim selection over entry ids; stale stamps are validated against
    /// `Entry::last_used` when popped (see [`RecencyIndex`]).
    recency: RecencyIndex<u64>,
    next_id: u64,
    cached_bytes: usize,
    /// Bytes of entries whose segment write is currently in flight outside the lock.  Trim
    /// planning targets `cached_bytes - pending_spill_bytes`, so concurrent trimmers never
    /// over-spill for relief that is already on its way.
    pending_spill_bytes: usize,
    bytes_spilled: u64,
    spill_reloads: u64,
    segments_written: u64,
    segment_bytes_raw: u64,
    segment_bytes_encoded: u64,
    peak_cached_bytes: usize,
    peak_live_bytes: usize,
    /// Test hook: number of upcoming cold segment reads to fail with an injected I/O error.
    fail_loads: u64,
    /// The tracer spill I/O reports to ([`BufferPool::set_tracer`]); disabled by default, so
    /// the spans in [`trim_to_budget`] and [`SpillableRelation::load`] are free when tracing is off.
    tracer: Tracer,
}

impl PoolInner {
    /// Refreshes an entry's recency stamp (and index slot).  Every pool operation that uses an
    /// entry goes through here, so the recency index stays O(log n) per touch.
    fn touch(&mut self, id: u64) {
        let entry = self.entries.get_mut(&id).expect("touched entry exists");
        self.recency.touch(id, &mut entry.last_used);
    }

    /// Updates the cached-bytes peak gauge; called whenever a trim settles.  Bytes whose
    /// segment write is in flight are excluded — they are logically already spilled, the disk
    /// just hasn't caught up — so the `peak_cached_bytes ≤ budget` invariant the spill
    /// benchmark gates on survives concurrent trimmers.  (The live-bytes gauge is sampled in
    /// [`BufferPool::stats`] instead — keeping it exact per operation would cost a full entry
    /// scan under the pool lock.)
    fn note_peaks(&mut self) {
        self.peak_cached_bytes = self
            .peak_cached_bytes
            .max(self.cached_bytes.saturating_sub(self.pending_spill_bytes));
    }

    fn live_bytes(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.live.strong_count() > 0)
            .map(|e| e.bytes)
            .sum()
    }

    /// The lock-held half of a trim step: picks the next least-recently-used victim and either
    /// releases it on the spot (its immutable segment is already on disk — pure bookkeeping) or
    /// plans a first-time segment write for [`trim_to_budget`] to perform *outside* the lock.
    /// Returns `None` when the pool fits its budget (noting the peak gauge, as every completed
    /// pool operation does).
    fn plan_spill(&mut self) -> Option<SpillJob> {
        let Some(budget) = self.budget else {
            self.note_peaks();
            return None;
        };
        while self.cached_bytes.saturating_sub(self.pending_spill_bytes) > budget {
            // Pop oldest-first; stale stamps (removed entries, already-spilled entries, stamps
            // superseded by a later touch, or entries mid-write) are discarded until a cached
            // victim surfaces.
            let entries = &self.entries;
            let victim = self.recency.pop_oldest(|id, stamp| {
                entries
                    .get(id)
                    .is_some_and(|e| e.last_used == stamp && e.cached.is_some() && !e.spilling)
            });
            let Some(id) = victim else { break };
            let entry = self.entries.get_mut(&id).expect("spill victim exists");
            if entry.segment.is_some() {
                // Re-spill of a reloaded entry: segments are immutable, so dropping the rows
                // is the whole spill — no I/O, stay under the lock and keep trimming.
                entry.cached = None;
                self.cached_bytes -= entry.bytes;
                continue;
            }
            entry.spilling = true;
            self.pending_spill_bytes += entry.bytes;
            return Some(SpillJob {
                id,
                rel: Arc::clone(entry.cached.as_ref().expect("spill victim is cached")),
                path: self.dir.join(format!("seg-{id}.urm")),
                stamp: entry.last_used,
                create_dir: (!self.dir_created).then(|| self.dir.clone()),
            });
        }
        self.note_peaks();
        None
    }

    /// The lock-held epilogue of one planned segment write: releases the victim's rows on
    /// success, or puts it back where future trims can find it on failure.  The entry may have
    /// been dropped while the write ran (its handle died) — then the freshly written segment is
    /// an orphan and is deleted.
    fn finish_spill(
        &mut self,
        job: SpillJob,
        dir_ok: bool,
        written: StorageResult<SegmentSizes>,
    ) -> StorageResult<()> {
        if dir_ok {
            self.dir_created = true;
        }
        let Some(entry) = self.entries.get_mut(&job.id) else {
            if written.is_ok() {
                let _ = std::fs::remove_file(&job.path);
            }
            // The dying handle already released the pending/cached accounting.
            return written.map(|_| ());
        };
        entry.spilling = false;
        self.pending_spill_bytes -= entry.bytes;
        match written {
            Ok(sizes) => {
                entry.segment = Some(job.path);
                entry.cached = None;
                self.cached_bytes -= entry.bytes;
                self.bytes_spilled += sizes.encoded as u64;
                self.segments_written += 1;
                self.segment_bytes_raw += sizes.raw as u64;
                self.segment_bytes_encoded += sizes.encoded as u64;
                Ok(())
            }
            Err(err) => {
                // The victim is still cached (a failed write releases nothing); restore its
                // stamp so future trims can still find it — unless a concurrent load already
                // re-indexed it under a newer one.
                if entry.last_used == job.stamp {
                    self.recency.restore(job.id, job.stamp);
                }
                Err(err)
            }
        }
    }
}

/// Byte sizes of one written segment: the actual encoded length and the "raw" length
/// [`codec::encoded_rows_len`] defines (for compression accounting).
struct SegmentSizes {
    encoded: usize,
    raw: usize,
}

/// One planned first-time segment write, carried out of the pool lock's critical section.
struct SpillJob {
    id: u64,
    /// The victim's rows, cloned out under the lock (the entry itself stays cached and
    /// loadable while the write runs).
    rel: Arc<Relation>,
    path: PathBuf,
    /// The victim's recency stamp at planning time (for restore-on-failure).
    stamp: u64,
    /// The spill directory, when it has not been created yet.
    create_dir: Option<PathBuf>,
}

/// Spills least-recently-used cached entries until `cached_bytes` fits the budget, with every
/// segment write — the encode and the disk I/O, by far the expensive part of a spill —
/// performed **outside** the pool lock.  Parallel DAG workers sharing one pool therefore never
/// serialise on a spilling peer: while one worker's victim streams out to disk, the others
/// admit, load and trim freely (reads were already outside the lock; see
/// [`SpillableRelation::load`]).
///
/// A failed write (full disk, unreachable directory) leaves its victim resident and loadable —
/// the error surfaces to the caller, never as data loss.
fn trim_to_budget(pool: &Mutex<PoolInner>) -> StorageResult<()> {
    loop {
        let (job, tracer) = {
            let mut inner = pool.lock().unwrap();
            match inner.plan_spill() {
                Some(job) => {
                    let tracer = inner.tracer.clone();
                    (job, tracer)
                }
                None => return Ok(()),
            }
        };
        let mut span = tracer.span("spill_write");
        span.tag("bytes", job.rel.estimated_bytes() as u64);
        span.tag("rows", job.rel.len() as u64);
        let mut dir_ok = false;
        let written = (|| {
            if let Some(dir) = &job.create_dir {
                std::fs::create_dir_all(dir).map_err(io_err)?;
            }
            dir_ok = true;
            let encoded = codec::encode_segment(&job.rel);
            std::fs::write(&job.path, &*encoded).map_err(io_err)?;
            Ok(SegmentSizes {
                encoded: encoded.len(),
                raw: codec::encoded_rows_len(&job.rel),
            })
        })();
        drop(span);
        pool.lock().unwrap().finish_spill(job, dir_ok, written)?;
    }
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        if self.dir_created {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

/// A byte-budgeted buffer pool over materialised relations (see the [module docs](self)).
///
/// Cloning the pool is cheap (one shared state); clones and [`SpillableRelation`] handles may
/// be used from any thread.
#[derive(Debug, Clone)]
pub struct BufferPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl BufferPool {
    /// A pool with no budget: relations stay resident forever and no segment is ever written.
    #[must_use]
    pub fn unbounded() -> Self {
        BufferPool::build(None, None)
    }

    /// A pool keeping at most `budget` bytes of relations resident; `0` spills everything.
    #[must_use]
    pub fn with_budget(budget: usize) -> Self {
        BufferPool::build(Some(budget), None)
    }

    /// Like [`with_budget`](BufferPool::with_budget) with an explicit spill directory (which
    /// must be private to this pool: it is deleted when the pool is dropped).
    #[must_use]
    pub fn with_budget_in(budget: usize, dir: PathBuf) -> Self {
        BufferPool::build(Some(budget), Some(dir))
    }

    fn build(budget: Option<usize>, dir: Option<PathBuf>) -> Self {
        let dir = dir.unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "urm-spill-{}-{}",
                std::process::id(),
                POOL_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        BufferPool {
            inner: Arc::new(Mutex::new(PoolInner {
                budget,
                dir,
                dir_created: false,
                entries: HashMap::new(),
                recency: RecencyIndex::new(),
                next_id: 0,
                cached_bytes: 0,
                pending_spill_bytes: 0,
                bytes_spilled: 0,
                spill_reloads: 0,
                segments_written: 0,
                segment_bytes_raw: 0,
                segment_bytes_encoded: 0,
                peak_cached_bytes: 0,
                peak_live_bytes: 0,
                fail_loads: 0,
                tracer: Tracer::disabled(),
            })),
        }
    }

    /// The configured byte budget (`None` when unbounded).
    #[must_use]
    pub fn budget(&self) -> Option<usize> {
        self.inner.lock().unwrap().budget
    }

    /// Test hook: fails the next `n` *cold* segment reads with an injected I/O error
    /// (resident and caller-held fast paths are unaffected).  Lets tests exercise
    /// segment-read failure recovery without corrupting real files.
    #[doc(hidden)]
    pub fn fail_next_loads(&self, n: u64) {
        self.inner.lock().unwrap().fail_loads = n;
    }

    /// Starts tracking a relation, spilling older entries if the budget now overflows.
    pub fn admit(&self, relation: Relation) -> StorageResult<SpillableRelation> {
        self.admit_shared(Arc::new(relation))
    }

    /// Like [`admit`](BufferPool::admit) for an already-shared relation (no row copy).
    ///
    /// A budgeted pool pages *rows*: a late-materialized relation builds its rows here (outside
    /// the pool lock) into a buffer of the pool's own — never into the row cache the relation
    /// shares with its clones, such as a base relation's with every scan of it — and is
    /// tracked, weighed and spilled as those rows.  This is where a result "leaves memory".
    /// An unbounded pool never spills and keeps the view as it is.
    pub fn admit_shared(&self, relation: Arc<Relation>) -> StorageResult<SpillableRelation> {
        let relation = match relation.view() {
            Some(view) if self.budget().is_some() => Arc::new(Relation::from_shared(
                relation.schema().clone(),
                view.materialize(),
            )),
            _ => relation,
        };
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_id;
        inner.next_id += 1;
        let stamp = inner.recency.insert_fresh(id);
        let schema = relation.schema().clone();
        let len = relation.len();
        let bytes = relation.estimated_bytes().max(1);
        inner.entries.insert(
            id,
            Entry {
                schema: schema.clone(),
                bytes,
                live: Arc::downgrade(&relation),
                cached: Some(relation),
                segment: None,
                spilling: false,
                last_used: stamp,
            },
        );
        inner.cached_bytes += bytes;
        drop(inner);
        if let Err(err) = trim_to_budget(&self.inner) {
            // Nothing was lost (a failed spill leaves its victim resident), but without a
            // handle the fresh entry would leak — unwind it before surfacing the error.
            let mut inner = self.inner.lock().unwrap();
            if let Some(entry) = inner.entries.remove(&id) {
                inner.recency.forget(entry.last_used);
                if entry.spilling {
                    inner.pending_spill_bytes -= entry.bytes;
                }
                if entry.cached.is_some() {
                    inner.cached_bytes -= entry.bytes;
                }
                if let Some(path) = entry.segment {
                    let _ = std::fs::remove_file(path);
                }
            }
            return Err(err);
        }
        Ok(SpillableRelation {
            inner: Arc::new(HandleInner {
                pool: Arc::clone(&self.inner),
                id,
                schema,
                len,
                bytes,
            }),
        })
    }

    /// A snapshot of the pool's counters.
    ///
    /// `live_bytes` (and its peak) are sampled here rather than maintained per operation —
    /// a caller dropping its last `Arc` is invisible to the pool until the next snapshot.
    #[must_use]
    pub fn stats(&self) -> SpillStats {
        let mut inner = self.inner.lock().unwrap();
        let live_bytes = inner.live_bytes();
        inner.peak_live_bytes = inner.peak_live_bytes.max(live_bytes);
        SpillStats {
            bytes_spilled: inner.bytes_spilled,
            spill_reloads: inner.spill_reloads,
            segments_written: inner.segments_written,
            segment_bytes_raw: inner.segment_bytes_raw,
            segment_bytes_encoded: inner.segment_bytes_encoded,
            relations_tracked: inner.entries.len(),
            cached_bytes: inner.cached_bytes,
            peak_cached_bytes: inner.peak_cached_bytes,
            live_bytes,
            peak_live_bytes: inner.peak_live_bytes,
        }
    }

    /// Bytes of relations the pool currently keeps resident.
    #[must_use]
    pub fn cached_bytes(&self) -> usize {
        self.inner.lock().unwrap().cached_bytes
    }

    /// The pool's spill directory (only exists on disk once something spilled).
    #[must_use]
    pub fn spill_dir(&self) -> PathBuf {
        self.inner.lock().unwrap().dir.clone()
    }

    /// Points the pool's spill I/O spans (`spill_write`, `spill_reload`) at `tracer`.  Every
    /// clone of the pool and every live [`SpillableRelation`] handle shares the slot, so the
    /// executor can set it for one traced batch and [clear](Tracer::disabled) it after.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner.lock().unwrap().tracer = tracer;
    }
}

/// What keeps a [`SpillableRelation`]'s bookkeeping alive; dropping the last clone of a handle
/// removes the entry and deletes its segment file.
#[derive(Debug)]
struct HandleInner {
    pool: Arc<Mutex<PoolInner>>,
    id: u64,
    schema: Schema,
    len: usize,
    bytes: usize,
}

impl Drop for HandleInner {
    fn drop(&mut self) {
        if let Ok(mut inner) = self.pool.lock() {
            if let Some(entry) = inner.entries.remove(&self.id) {
                inner.recency.forget(entry.last_used);
                if entry.spilling {
                    // A segment write for this entry is in flight; release its reservation
                    // here — `finish_spill` will find the entry gone and delete the orphan.
                    inner.pending_spill_bytes -= entry.bytes;
                }
                if entry.cached.is_some() {
                    inner.cached_bytes -= entry.bytes;
                }
                if let Some(path) = entry.segment {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }
}

/// A handle to a pool-tracked relation: holdable wherever an always-resident `Arc<Relation>`
/// used to live, loadable back into memory on demand.  Cloning shares the handle; the last
/// clone dropped releases the entry (memory and segment file).
#[derive(Debug, Clone)]
pub struct SpillableRelation {
    inner: Arc<HandleInner>,
}

impl SpillableRelation {
    /// The relation's schema (always resident; spilling only pages out rows).
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the relation has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// The estimated in-memory footprint the pool accounts this relation at.
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        self.inner.bytes
    }

    /// Whether the pool currently keeps this relation resident.
    #[must_use]
    pub fn is_cached(&self) -> bool {
        let inner = self.inner.pool.lock().unwrap();
        inner
            .entries
            .get(&self.inner.id)
            .is_some_and(|e| e.cached.is_some())
    }

    /// Materialises the relation: an `Arc` clone while resident (pool-cached or still held by
    /// another caller), a segment read + decode after a spill.  Loading refreshes the entry's
    /// LRU recency and may spill *other* entries to admit this one back under the budget.
    pub fn load(&self) -> StorageResult<Arc<Relation>> {
        // Resident fast paths under the lock; the segment read + decode of a cold reload runs
        // *outside* it, so parallel workers sharing one pool never serialise on each other's
        // disk I/O.
        let (path, schema, tracer) = {
            let mut inner = self.inner.pool.lock().unwrap();
            inner.touch(self.inner.id);
            let entry = inner
                .entries
                .get_mut(&self.inner.id)
                .expect("pool entry outlives its handles");
            if let Some(rel) = &entry.cached {
                return Ok(Arc::clone(rel));
            }
            if let Some(rel) = entry.live.upgrade() {
                // Some caller still holds the rows: hand those out instead of re-reading disk.
                return Ok(rel);
            }
            let path = entry
                .segment
                .clone()
                .expect("uncached pool entry has a segment");
            let schema = entry.schema.clone();
            if inner.fail_loads > 0 {
                inner.fail_loads -= 1;
                return Err(StorageError::Io("injected segment read failure".into()));
            }
            let tracer = inner.tracer.clone();
            (path, schema, tracer)
        };
        let mut span = tracer.span("spill_reload");
        span.tag("bytes", self.inner.bytes as u64);
        span.tag("rows", self.inner.len as u64);
        let raw = std::fs::read(&path).map_err(io_err)?;
        let rel = Arc::new(codec::decode_segment(schema, raw.into())?);
        drop(span);

        let mut inner = self.inner.pool.lock().unwrap();
        let entry = inner
            .entries
            .get_mut(&self.inner.id)
            .expect("pool entry outlives its handles");
        // A concurrent loader may have raced us here; prefer its allocation so equal loads
        // alias one Arc (and our read becomes the redundant one — count only the winner's).
        if let Some(existing) = &entry.cached {
            return Ok(Arc::clone(existing));
        }
        if let Some(existing) = entry.live.upgrade() {
            return Ok(existing);
        }
        entry.cached = Some(Arc::clone(&rel));
        entry.live = Arc::downgrade(&rel);
        let bytes = entry.bytes;
        inner.cached_bytes += bytes;
        inner.spill_reloads += 1;
        drop(inner);
        // A failed trim is a *rebalancing* error — some other victim could not be written out
        // — not a failure of this load: the requested rows are in hand.  Swallow it; the
        // budget is transiently exceeded and the next pool operation retries the trim.  (This
        // also means an `Err` from `load` always refers to THIS relation's segment, which the
        // epoch layer relies on when it drops a pin whose load failed.)
        let _ = trim_to_budget(&self.inner.pool);
        Ok(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, DataType, Tuple, Value};

    fn relation(name: &str, rows: usize, tag: i64) -> Relation {
        let schema = Schema::new(
            name,
            vec![
                Attribute::new("id", DataType::Int),
                Attribute::new("label", DataType::Text),
            ],
        );
        let rows = (0..rows)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(tag * 1000 + i as i64),
                    Value::from(format!("row-{tag}-{i}")),
                ])
            })
            .collect();
        Relation::new(schema, rows).unwrap()
    }

    #[test]
    fn unbounded_pool_never_writes_a_segment() {
        let pool = BufferPool::unbounded();
        let handles: Vec<_> = (0..8)
            .map(|i| pool.admit(relation("R", 50, i)).unwrap())
            .collect();
        for h in &handles {
            assert!(h.is_cached());
            assert_eq!(h.load().unwrap().len(), 50);
        }
        let stats = pool.stats();
        assert_eq!(stats.segments_written, 0);
        assert_eq!(stats.bytes_spilled, 0);
        assert_eq!(stats.spill_reloads, 0);
        assert!(!pool.spill_dir().exists(), "no spill dir should be created");
    }

    #[test]
    fn budget_zero_spills_everything_and_reloads_byte_identically() {
        let pool = BufferPool::with_budget(0);
        let original = relation("R", 40, 7);
        let handle = pool.admit(original.clone()).unwrap();
        assert!(!handle.is_cached(), "budget 0 must spill immediately");
        assert_eq!(pool.cached_bytes(), 0);
        let stats = pool.stats();
        assert_eq!(stats.segments_written, 1);
        assert!(stats.bytes_spilled > 0);

        let loaded = handle.load().unwrap();
        assert_eq!(loaded.schema(), original.schema());
        assert_eq!(loaded.rows(), original.rows());
        assert_eq!(pool.stats().spill_reloads, 1);
        // The pool's own copy was trimmed straight back out, but the caller's Arc stays valid.
        assert_eq!(pool.cached_bytes(), 0);
        assert_eq!(loaded.len(), 40);
    }

    #[test]
    fn injected_load_failures_surface_and_then_clear() {
        let pool = BufferPool::with_budget(0);
        let handle = pool.admit(relation("R", 30, 5)).unwrap();
        pool.fail_next_loads(1);
        assert!(handle.load().is_err(), "injected cold-read failure");
        // The injection is consumed: the same segment reads back fine afterwards.
        assert_eq!(handle.load().unwrap().len(), 30);
    }

    #[test]
    fn cached_bytes_never_exceed_the_budget() {
        let one = relation("R", 60, 0).estimated_bytes();
        let budget = one * 2 + one / 2; // room for two relations, not three
        let pool = BufferPool::with_budget(budget);
        let handles: Vec<_> = (0..6)
            .map(|i| pool.admit(relation("R", 60, i)).unwrap())
            .collect();
        assert!(pool.stats().peak_cached_bytes <= budget);
        // Reload everything; the invariant must survive reload-triggered eviction too.
        for h in &handles {
            let rel = h.load().unwrap();
            assert_eq!(rel.len(), 60);
            assert!(pool.cached_bytes() <= budget);
        }
        let stats = pool.stats();
        assert!(stats.peak_cached_bytes <= budget);
        assert!(stats.bytes_spilled > 0);
        assert!(stats.spill_reloads > 0);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let one = relation("R", 30, 0).estimated_bytes();
        let pool = BufferPool::with_budget(one * 2);
        let a = pool.admit(relation("R", 30, 1)).unwrap();
        let b = pool.admit(relation("R", 30, 2)).unwrap();
        // Touch `a`, then admit a third: `b` must be the victim.
        let _keepalive = a.load().unwrap();
        let c = pool.admit(relation("R", 30, 3)).unwrap();
        assert!(a.is_cached());
        assert!(!b.is_cached(), "least-recently-used entry must spill");
        assert!(c.is_cached());
    }

    #[test]
    fn live_callers_answer_reloads_without_disk_reads() {
        let pool = BufferPool::with_budget(0);
        let handle = pool.admit(relation("R", 20, 1)).unwrap();
        let held = handle.load().unwrap(); // one reload from disk
        assert_eq!(pool.stats().spill_reloads, 1);
        let again = handle.load().unwrap(); // answered by the live weak reference
        assert!(Arc::ptr_eq(&held, &again));
        assert_eq!(pool.stats().spill_reloads, 1, "no second disk read");
        drop(held);
        drop(again);
        let cold = handle.load().unwrap(); // everyone dropped it: back to disk
        assert_eq!(cold.len(), 20);
        assert_eq!(pool.stats().spill_reloads, 2);
    }

    #[test]
    fn dropping_a_handle_deletes_its_segment() {
        let pool = BufferPool::with_budget(0);
        let handle = pool.admit(relation("R", 25, 1)).unwrap();
        let dir = pool.spill_dir();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        drop(handle);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        assert_eq!(pool.stats().relations_tracked, 0);
    }

    #[test]
    fn dropping_the_pool_removes_the_spill_dir() {
        let dir;
        {
            let pool = BufferPool::with_budget(0);
            let _handle = pool.admit(relation("R", 10, 1)).unwrap();
            dir = pool.spill_dir();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "spill dir must be cleaned up");
    }

    #[test]
    fn clones_share_one_entry() {
        let pool = BufferPool::with_budget(0);
        let handle = pool.admit(relation("R", 10, 1)).unwrap();
        let clone = handle.clone();
        assert_eq!(pool.stats().relations_tracked, 1);
        drop(handle);
        assert_eq!(pool.stats().relations_tracked, 1, "clone keeps it alive");
        assert_eq!(clone.load().unwrap().len(), 10);
        drop(clone);
        assert_eq!(pool.stats().relations_tracked, 0);
    }

    #[test]
    fn handles_work_across_threads() {
        let pool = BufferPool::with_budget(0);
        let handles: Vec<_> = (0..4)
            .map(|i| pool.admit(relation("R", 30, i)).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for (i, handle) in handles.iter().enumerate() {
                scope.spawn(move || {
                    let rel = handle.load().unwrap();
                    assert_eq!(rel.len(), 30);
                    assert_eq!(
                        rel.rows()[0].get(0),
                        Some(&Value::from(i as i64 * 1000)),
                        "thread loaded someone else's rows"
                    );
                });
            }
        });
        assert!(pool.stats().spill_reloads >= 4);
    }

    #[test]
    fn failed_segment_writes_lose_no_data() {
        // A spill dir that can never be created: its parent is a regular file.
        let blocker =
            std::env::temp_dir().join(format!("urm-spill-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let pool = BufferPool::with_budget_in(0, blocker.join("sub"));

        // Admission fails (nothing can spill), unwinds the fresh entry, loses nothing.
        let err = pool.admit(relation("R", 10, 1)).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert_eq!(pool.stats().relations_tracked, 0);
        assert_eq!(pool.cached_bytes(), 0);

        // An existing resident entry survives a failed trim triggered by a later admit:
        // the unbudgeted admit works, then shrinking... simulate via a second pool whose
        // first admit fits (budget big enough) and whose second forces a failing spill.
        let one = relation("R", 10, 2).estimated_bytes();
        let pool = BufferPool::with_budget_in(one, blocker.join("sub2"));
        let first = pool.admit(relation("R", 10, 2)).unwrap(); // fits, no spill needed
        let err = pool.admit(relation("R", 10, 3)).unwrap_err(); // must spill `first`, cannot
        assert!(matches!(err, StorageError::Io(_)));
        // `first` is still resident and loadable — a failed write never drops rows.
        assert!(first.is_cached());
        assert_eq!(first.load().unwrap().len(), 10);
        std::fs::remove_file(&blocker).unwrap();
    }

    /// The segment write of a spill must run *outside* the pool lock, so parallel DAG workers
    /// sharing one pool never serialise on a spilling peer.  Deterministic setup, no timing: a
    /// FIFO planted where the first spill segment will be written blocks the writer thread
    /// until this thread opens the read side — while it is blocked, every lock-requiring pool
    /// operation below would deadlock (the test would hang) if the write still held the lock.
    #[test]
    #[cfg(unix)]
    fn spill_writes_do_not_hold_the_pool_lock() {
        let dir = std::env::temp_dir().join(format!("urm-spill-fifo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The first admitted relation gets id 0, hence segment path `seg-0.urm`.
        let fifo = dir.join("seg-0.urm");
        let ok = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if !ok {
            let _ = std::fs::remove_dir_all(&dir);
            eprintln!("skipping: mkfifo unavailable");
            return;
        }

        let pool = BufferPool::with_budget_in(0, dir.clone());
        let writer = {
            let pool = pool.clone();
            std::thread::spawn(move || pool.admit(relation("R", 20, 1)))
        };
        // Wait (bounded) until the writer has planned its spill and is blocked in the write.
        for _ in 0..2000 {
            if pool.inner.lock().unwrap().pending_spill_bytes > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(
            pool.inner.lock().unwrap().pending_spill_bytes > 0,
            "writer never reached its segment write"
        );

        // The writer is parked inside `std::fs::write` on the FIFO.  These all need the pool
        // lock — including a *second complete spill* (id 1 goes to a real `seg-1.urm`; the
        // in-flight entry 0 is excluded from victim selection by its `spilling` flag).
        let stats = pool.stats();
        assert_eq!(stats.segments_written, 0, "first write still in flight");
        let second = pool.admit(relation("R", 20, 2)).unwrap();
        assert!(!second.is_cached(), "second spill completed independently");
        assert_eq!(pool.stats().segments_written, 1);

        // Rendezvous: drain the FIFO so the blocked write completes, then let it finish.
        use std::io::Read as _;
        let mut buf = Vec::new();
        std::fs::File::open(&fifo)
            .unwrap()
            .read_to_end(&mut buf)
            .unwrap();
        let first = writer.join().unwrap().unwrap();
        assert!(!first.is_cached());
        let stats = pool.stats();
        assert_eq!(stats.segments_written, 2);
        assert_eq!(stats.cached_bytes, 0);
        assert_eq!(pool.inner.lock().unwrap().pending_spill_bytes, 0);
        // `seg-0.urm` is the FIFO, not a regular segment; reloading entry 0 would block on it,
        // so only exercise the real segment before the pool cleans the directory up.
        assert_eq!(second.load().unwrap().len(), 20);
        drop((first, second, pool));
        assert!(!dir.exists(), "pool drop removes the spill dir");
    }

    #[test]
    fn segments_are_columnar_compressed_and_counted() {
        let pool = BufferPool::with_budget(0);
        // Repetitive shape: sequential ints, 4 distinct labels — compresses well.
        let schema = Schema::new(
            "C",
            vec![
                Attribute::new("id", DataType::Int),
                Attribute::new("label", DataType::Text),
            ],
        );
        let rows = (0..500)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(i as i64),
                    Value::from(format!("label-{}", i % 4)),
                ])
            })
            .collect();
        let original = Relation::new(schema, rows).unwrap();
        let handle = pool.admit(original.clone()).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.segments_written, 1);
        assert_eq!(stats.segment_bytes_encoded, stats.bytes_spilled);
        assert!(
            stats.segment_bytes_encoded * 5 < stats.segment_bytes_raw * 3,
            "encoded {} vs raw {} (need <= 0.6x)",
            stats.segment_bytes_encoded,
            stats.segment_bytes_raw
        );
        // Reload stays byte-identical through the columnar segment codec.
        let loaded = handle.load().unwrap();
        assert_eq!(loaded.rows(), original.rows());
        assert_eq!(loaded.schema(), original.schema());
    }

    #[test]
    fn stats_track_peaks_and_live_bytes() {
        let one = relation("R", 50, 0).estimated_bytes();
        let pool = BufferPool::with_budget(one);
        let a = pool.admit(relation("R", 50, 1)).unwrap();
        let b = pool.admit(relation("R", 50, 2)).unwrap();
        let (ra, rb) = (a.load().unwrap(), b.load().unwrap());
        let stats = pool.stats();
        assert!(stats.cached_bytes <= one);
        assert_eq!(stats.live_bytes, a.estimated_bytes() + b.estimated_bytes());
        assert!(stats.peak_live_bytes >= stats.live_bytes);
        drop((ra, rb));
        assert!(
            pool.stats().live_bytes <= one,
            "only the cached entry lives"
        );
    }
}
