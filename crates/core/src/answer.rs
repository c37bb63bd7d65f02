//! Probabilistic query answers: code rows over a value pool, built from the factors of each
//! source query.
//!
//! The `aggregate` step (Section III-B; Algorithm 4's "remove duplicate tuples") gives each
//! answer tuple the summed probability of the source queries that return it.  A tuple-producing
//! source query's result is a product of distinct factors `δπ(C1) × … × δπ(Ck)` (see
//! `urm_engine::optimize`), and a target query's answers draw on few distinct values, which sit
//! dictionary-encoded in those factors.  So [`aggregate`] **never multiplies a product out
//! before it counts it**, and a [`ProbabilisticAnswer`] keeps codes until its last consumer:
//!
//! * The answer owns a *value pool*: every distinct [`Value`] it holds, once, found by
//!   [`value_hash`] and [`Value`]'s own equality (so `Int 1` and `Float 1.0` are one pool
//!   value, spelled the way the answer first read it).  An answer is a row of `u32` pool ids.
//! * A factor is read into pool ids a column at a time, once however many source queries
//!   share it: a text column interns each *dictionary entry* it meets once — with the hash
//!   word its dictionary caches — and every later cell of that entry is a table lookup by
//!   code; other cells intern by value.  Dictionary codes mean nothing across columns, pool
//!   ids do: two mappings reading one target attribute from different source columns meet in
//!   the pool.
//! * Source queries whose factors hold the same rows under one column layout produce equal
//!   answers: they fold into one group, whose product is enumerated once.  A row is probed —
//!   a hash of a few integers and an integer comparison — only when another group can also
//!   produce it, and each entry's probability is the sum over the source queries that produce
//!   it, in their order.  Entries are kept group by group, in enumeration order.
//! * [`AnswerRows`] is one result seen as answer rows, borrowed and unbuilt, for a caller that
//!   holds one result at a time: [`ProbabilisticAnswer::add_distinct`] adds it to an existing
//!   answer, probing every row, and appends the rows no earlier call added.  It is the
//!   incremental form top-k grows its answer with, one u-trace leaf at a time
//!   ([`crate::algorithms::topk`]).
//! * The index the probes and lookups use is built on the first lookup, so an answer that is
//!   only ranked and rendered — a served one — never builds it.
//! * Ordering **ranks once and sorts integers**: the pool's values are ranked by [`Value`]'s
//!   order, and entries sort on one integer key — the probability's bits in
//!   [`f64::total_cmp`]'s order, above the row's ranks packed in as few bits as the pool
//!   needs — the order of `(probability, Tuple)` pairs, without comparing a float or a value
//!   twice.  Rows are compared cell by cell only where their keys tie: a row that fits 64
//!   bits of ranks lies whole in its key, and a longer one is compared past it.  The wire
//!   renderer ([`sorted_rows`](ProbabilisticAnswer::sorted_rows) over
//!   [`values`](ProbabilisticAnswer::values)) escapes each pool value once and writes rows of
//!   fragments.
//! * [`Tuple`]s are built only for a caller that asks for them
//!   ([`iter`](ProbabilisticAnswer::iter), [`sorted`](ProbabilisticAnswer::sorted),
//!   [`top_k`](ProbabilisticAnswer::top_k), `Debug`): the oracle, the CLI, tests.  A served
//!   request builds none between the DAG root and the socket, and
//!   [`tuples_materialized`] says so.

use crate::reformulate::Extraction;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use urm_storage::{value_hash, Column, ColumnRef, ColumnView, HashIndex, Relation, Tuple, Value};

/// How many [`Tuple`]s this process has built out of [`ProbabilisticAnswer`]s — for `iter`,
/// `sorted`, `top_k`, `Debug` and the like.  Accumulating, merging, comparing and rendering an
/// answer must not move it.
#[must_use]
pub fn tuples_materialized() -> u64 {
    TUPLES_MATERIALIZED.load(Relaxed)
}

static TUPLES_MATERIALIZED: AtomicU64 = AtomicU64::new(0);

/// The rows of one source-query result as answer tuples — resolved, borrowed, not built.
///
/// Made by [`extract_answers`](crate::reformulate::extract_answers) (or from a slice of
/// tuples, read whole), consumed by [`ProbabilisticAnswer::add_distinct`].  It is the result's
/// *bag* of rows: nothing here decides which are distinct.
pub struct AnswerRows<'r> {
    /// Answer cell `i` reads the result's column at `positions[i]`; `None` is an output
    /// attribute the mapping does not cover, a NULL in every row.
    positions: Vec<Option<usize>>,
    cells: Cells<'r>,
}

/// Where the cells of an [`AnswerRows`] lie.
enum Cells<'r> {
    /// In the base columns of a late-materialized result: `columns[i]` backs answer cell `i`.
    View {
        view: &'r ColumnView,
        columns: Vec<Option<ColumnRef<'r>>>,
    },
    /// In the rows of a result that has them (`Values` buffers, budgeted pools, aggregates).
    Rows(&'r [Tuple]),
}

static NULL: Value = Value::Null;

impl<'r> AnswerRows<'r> {
    /// The rows of `result` read through `positions`.
    pub(crate) fn new(result: &'r Relation, mut positions: Vec<Option<usize>>) -> Self {
        let cells = match result.view() {
            Some(view) => {
                // A position past the view's columns reads NULL, as it does from a row.
                for position in &mut positions {
                    *position = position.filter(|&pos| pos < view.arity());
                }
                let columns = positions
                    .iter()
                    .map(|p| p.and_then(|pos| view.column(pos)))
                    .collect();
                Cells::View { view, columns }
            }
            None => Cells::Rows(result.rows()),
        };
        AnswerRows { positions, cells }
    }

    /// Number of rows (not of distinct ones).
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.cells {
            Cells::View { view, .. } => view.len(),
            Cells::Rows(rows) => rows.len(),
        }
    }

    /// Whether there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every row's answer cells as ids of `pool`, written row after row into `ids`
    /// (`len × arity` of them) — interned, not built.  The result is read a column at a time,
    /// so `pool` meets the values in that order.
    fn intern_into(&self, pool: &mut Pool, ids: &mut Vec<u32>) {
        let arity = self.positions.len();
        ids.clear();
        ids.resize(self.len() * arity, 0);
        for at in 0..arity {
            let cells = ids.iter_mut().skip(at).step_by(arity);
            match &self.cells {
                Cells::View { columns, .. } => match &columns[at] {
                    Some(column) => intern_column(column, pool, cells),
                    None => {
                        let null = pool.intern(&NULL);
                        cells.for_each(|cell| *cell = null);
                    }
                },
                Cells::Rows(rows) => {
                    let position = self.positions[at];
                    for (cell, row) in cells.zip(*rows) {
                        *cell = pool.intern(position.and_then(|p| row.get(p)).unwrap_or(&NULL));
                    }
                }
            }
        }
    }
}

/// Writes the pool id of each of `column`'s cells, in row order, into `cells`.
fn intern_column<'a>(
    column: &ColumnRef<'_>,
    pool: &mut Pool,
    cells: impl Iterator<Item = &'a mut u32>,
) {
    let slots = cells
        .enumerate()
        .map(|(row, cell)| (column.slot(row), cell));
    match column.column {
        Column::Text { codes, dict, nulls } => {
            // Dictionary code → pool id, filled as codes are met.  It holds for this column
            // and this call only: another column's codes spell other strings.
            let mut ids = vec![FREE; dict.len()];
            let hashes = dict.value_hashes();
            for (slot, cell) in slots {
                *cell = if nulls.as_ref().is_some_and(|n| n.is_null(slot)) {
                    pool.intern(&NULL)
                } else {
                    let code = codes[slot] as usize;
                    if ids[code] == FREE {
                        let entry = Value::Text(dict.entries()[code].clone());
                        ids[code] = pool.intern_hashed(hashes[code], &entry);
                    }
                    ids[code]
                };
            }
        }
        Column::Mixed(values) => slots.for_each(|(slot, cell)| *cell = pool.intern(&values[slot])),
        // Numbers, booleans and their NULLs are rebuilt for free.
        typed => slots.for_each(|(slot, cell)| *cell = pool.intern(&typed.value_at(slot))),
    }
}

/// Tuples of one arity as answer rows, each read whole.
impl<'r> From<&'r [Tuple]> for AnswerRows<'r> {
    fn from(rows: &'r [Tuple]) -> Self {
        let arity = rows.first().map_or(0, Tuple::arity);
        debug_assert!(rows.iter().all(|row| row.arity() == arity));
        AnswerRows {
            positions: (0..arity).map(Some).collect(),
            cells: Cells::Rows(rows),
        }
    }
}

/// A pool id no value holds: a code table's mark for a code not met yet.
const FREE: u32 = u32::MAX;

/// The distinct values of one answer.  A value's id is its position; it is found by its
/// (masked) [`value_hash`] and `Value`'s own equality, and keeps the spelling it came with.
#[derive(Clone)]
struct Pool {
    values: Vec<Value>,
    hashes: Vec<u64>,
    index: HashIndex,
    /// ANDed onto every hash: all ones, or zero to force every probe into one chain
    /// ([`ProbabilisticAnswer::with_colliding_hashes`]).
    hash_mask: u64,
}

impl Pool {
    /// The id of `value`, interning it if it is new.
    fn intern(&mut self, value: &Value) -> u32 {
        self.intern_hashed(value_hash(value), value)
    }

    /// [`intern`](Pool::intern) for a caller that has `value_hash(value)` at hand.
    fn intern_hashed(&mut self, hash: u64, value: &Value) -> u32 {
        let hash = hash & self.hash_mask;
        let (values, hashes) = (&mut self.values, &mut self.hashes);
        self.index.reserve(values.len(), 1, |id| hashes[id]);
        match self
            .index
            .probe(hash, |id| hashes[id] == hash && values[id] == *value)
        {
            Ok(id) => id as u32,
            Err(slot) => {
                let id = self.index.occupy(slot, values.len());
                values.push(value.clone());
                hashes.push(hash);
                id
            }
        }
    }

    /// The id of `value`, if the pool holds it.
    fn find(&self, value: &Value) -> Option<u32> {
        let hash = value_hash(value) & self.hash_mask;
        let is_match = |id: usize| self.hashes[id] == hash && self.values[id] == *value;
        self.index.probe(hash, is_match).ok().map(|id| id as u32)
    }

    /// Every value's rank in [`Value`]'s order, by id; values that compare equal share one.
    fn ranks(&self) -> Vec<u32> {
        let mut ordered: Vec<usize> = (0..self.values.len()).collect();
        ordered.sort_unstable_by(|&a, &b| self.values[a].cmp(&self.values[b]));
        let mut ranks = vec![0; ordered.len()];
        let mut rank = 0;
        for (at, &id) in ordered.iter().enumerate() {
            if at > 0 && self.values[ordered[at - 1]] < self.values[id] {
                rank += 1;
            }
            ranks[id] = rank;
        }
        ranks
    }
}

/// The answer of a probabilistic query: a set of `(tuple, probability)` pairs, where duplicate
/// tuples produced under different mappings have had their probabilities summed
/// (Section III-B, the `aggregate` step) — held as rows of ids over the answer's own value
/// pool (see the [module docs](self)).
///
/// Entries are kept in the order their tuples were first added ([`aggregate`] adds them group
/// by group, in enumeration order), and nothing observable depends on a hash:
/// [`iter`](ProbabilisticAnswer::iter), [`total_mass`](ProbabilisticAnswer::total_mass) (a
/// float sum, so order matters to its last bit), `Debug`, serialization and
/// [`merge`](ProbabilisticAnswer::merge) are deterministic for a given evaluation.
#[derive(Serialize, Deserialize)]
pub struct ProbabilisticAnswer {
    entries: Vec<Entry>,
    /// Every entry's row of pool ids, one after the other.
    ids: Vec<u32>,
    pool: Pool,
    /// From row hash to entry: derived from `entries` on the first lookup (an answer
    /// [`aggregate`] built is rendered without one), and — like the hashes — only meaningful
    /// in the process that built it.
    #[serde(skip)]
    index: OnceLock<RowIndex>,
    /// What every row hash starts from: keyed per process, because which values share a row
    /// is data.
    #[serde(skip)]
    row_seed: u64,
    /// Number of [`add_distinct`](ProbabilisticAnswer::add_distinct) calls so far: the stamp
    /// the current call leaves on every answer it has already counted.
    distinct_calls: u64,
    /// Probability mass of mappings whose source query returned no tuples (the paper's null
    /// tuple `θ`).  Kept for diagnostics; not part of the reported answers.
    empty_probability: f64,
    /// The entries' tuples, built when first asked for; and the rendering
    /// [`rendered_with`](ProbabilisticAnswer::rendered_with) memoized.  Derived state, filled
    /// at most once per content (every `&mut` method clears both), so they are left out of
    /// `Clone` and serialization.
    #[serde(skip)]
    tuples: OnceLock<Box<[Tuple]>>,
    #[serde(skip)]
    rendered: OnceLock<Box<str>>,
}

/// One answer: where its row of pool ids lies in `ids`, its probability mass, and the last
/// `add_distinct` call that added to it.
#[derive(Clone, Serialize, Deserialize)]
struct Entry {
    start: u32,
    arity: u32,
    probability: f64,
    stamp: u64,
}

/// The row of pool ids `entry` holds in `ids`.
fn row_of<'a>(ids: &'a [u32], entry: &Entry) -> &'a [u32] {
    &ids[entry.start as usize..][..entry.arity as usize]
}

/// The (masked) hash of a row of pool ids, from `seed`.
fn hash_row(seed: u64, mask: u64, row: &[u32]) -> u64 {
    let mix = |hash: u64, &id: &u32| {
        (hash.rotate_left(5) ^ u64::from(id)).wrapping_mul(0x517c_c1b7_2722_0a95)
    };
    let hash = row.iter().fold(seed, mix);
    // The index reads the low bits; the multiplications pushed the entropy up.
    (hash ^ (hash >> 32)) & mask
}

/// The index of an answer's rows: the hash table, and every entry's (masked) row hash.
#[derive(Clone, Default)]
struct RowIndex {
    slots: HashIndex,
    hashes: Vec<u64>,
}

/// An entry's place in the wire order as one integer — its probability's position in `f64`'s
/// total order, reversed, above its row's value ranks, packed in as few bits as the pool
/// needs (the whole row when it fits 64 bits, else its first cells) — and the entry.  Only
/// rows that tie on all of it are compared cell by cell: no float is compared.
struct SortKey {
    key: u128,
    entry: u32,
}

/// `value`'s bits as an unsigned integer in the order of [`f64::total_cmp`].
fn total_order_bits(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl Default for ProbabilisticAnswer {
    fn default() -> Self {
        ProbabilisticAnswer {
            entries: Vec::new(),
            ids: Vec::new(),
            pool: Pool {
                values: Vec::new(),
                hashes: Vec::new(),
                index: HashIndex::default(),
                hash_mask: u64::MAX,
            },
            index: OnceLock::new(),
            row_seed: value_hash(&NULL),
            distinct_calls: 0,
            empty_probability: 0.0,
            tuples: OnceLock::new(),
            rendered: OnceLock::new(),
        }
    }
}

impl Clone for ProbabilisticAnswer {
    fn clone(&self) -> Self {
        ProbabilisticAnswer {
            entries: self.entries.clone(),
            ids: self.ids.clone(),
            pool: self.pool.clone(),
            index: self.index.clone(),
            row_seed: self.row_seed,
            distinct_calls: self.distinct_calls,
            empty_probability: self.empty_probability,
            tuples: OnceLock::new(),
            rendered: OnceLock::new(),
        }
    }
}

impl fmt::Debug for ProbabilisticAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// An entry as it reads: its tuple, not where its ids lie or what they hash to (the
        /// hash is keyed per process — leaving it out keeps `Debug` repeatable).
        struct Shown<'a>(&'a Tuple, &'a Entry);
        impl fmt::Debug for Shown<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct("Entry")
                    .field("tuple", self.0)
                    .field("probability", &self.1.probability)
                    .field("stamp", &self.1.stamp)
                    .finish()
            }
        }
        let entries = self.tuples().iter().zip(&self.entries);
        let entries: Vec<Shown<'_>> = entries.map(|(t, e)| Shown(t, e)).collect();
        f.debug_struct("ProbabilisticAnswer")
            .field("entries", &entries)
            .field("distinct_calls", &self.distinct_calls)
            .field("empty_probability", &self.empty_probability)
            .finish()
    }
}

impl ProbabilisticAnswer {
    /// Creates an empty answer.
    #[must_use]
    pub fn new() -> Self {
        ProbabilisticAnswer::default()
    }

    /// An empty answer in which every value and every row hashes alike, so every probe walks
    /// one chain and only the comparisons tell values and answers apart.  For tests of those
    /// comparisons.
    #[doc(hidden)]
    #[must_use]
    pub fn with_colliding_hashes() -> Self {
        let mut answer = ProbabilisticAnswer::default();
        answer.pool.hash_mask = 0;
        answer
    }

    /// Forgets what was derived from the content that is about to change.
    fn touch(&mut self) {
        self.tuples.take();
        self.rendered.take();
    }

    /// The row of pool ids `entry` holds.
    fn row(&self, entry: &Entry) -> &[u32] {
        row_of(&self.ids, entry)
    }

    /// The (masked) hash of a row of pool ids.
    fn row_hash(&self, row: &[u32]) -> u64 {
        hash_row(self.row_seed, self.pool.hash_mask, row)
    }

    /// The row index, built on first use.
    fn index(&self) -> &RowIndex {
        self.index.get_or_init(|| {
            let hashes: Vec<u64> = self
                .entries
                .iter()
                .map(|entry| self.row_hash(self.row(entry)))
                .collect();
            let mut slots = HashIndex::default();
            slots.reserve(0, hashes.len(), |_| 0);
            for (entry, &hash) in hashes.iter().enumerate() {
                // Rows are distinct: every probe ends at a free slot.
                if let Err(slot) = slots.probe(hash, |_| false) {
                    slots.occupy(slot, entry);
                }
            }
            RowIndex { slots, hashes }
        })
    }

    /// Where `row` is among the entries — `Ok(entry)` — or the free index slot it goes to.
    fn probe(&self, hash: u64, row: &[u32]) -> Result<usize, usize> {
        let index = self.index();
        let is_match =
            |entry: usize| index.hashes[entry] == hash && self.row(&self.entries[entry]) == row;
        index.slots.probe(hash, is_match)
    }

    /// [`probe`](ProbabilisticAnswer::probe) with room made for the entry a miss will push;
    /// returns the row's hash too.
    fn probe_to_add(&mut self, row: &[u32]) -> (u64, Result<usize, usize>) {
        self.index();
        let RowIndex { slots, hashes } = self.index.get_mut().expect("built above");
        slots.reserve(self.entries.len(), 1, |entry| hashes[entry]);
        let hash = hash_row(self.row_seed, self.pool.hash_mask, row);
        let (entries, ids) = (&self.entries, &self.ids);
        let is_match = |entry: usize| hashes[entry] == hash && row_of(ids, &entries[entry]) == row;
        (hash, slots.probe(hash, is_match))
    }

    /// Appends an entry for `row`, whose probe ended at the free `slot`.
    fn push(&mut self, slot: usize, hash: u64, row: &[u32], probability: f64, stamp: u64) {
        let index = self.index.get_mut().expect("a probe built the index");
        index.slots.occupy(slot, self.entries.len());
        index.hashes.push(hash);
        self.push_row(row, probability, stamp);
    }

    /// Makes room for `rows` more entries of `arity` cells where the allocator grants it;
    /// where it does not, the answer grows as rows come.
    fn reserve_rows(&mut self, rows: usize, arity: usize) {
        let _ = self.entries.try_reserve(rows);
        if let Some(cells) = rows.checked_mul(arity) {
            let _ = self.ids.try_reserve(cells);
        }
    }

    /// Appends an entry for `row` and its ids, leaving the index to whoever keeps it.
    fn push_row(&mut self, row: &[u32], probability: f64, stamp: u64) {
        let end = u32::try_from(self.ids.len() + row.len()).expect("fewer than 2^32 answer cells");
        let arity = row.len() as u32; // no more than `end`
        self.entries.push(Entry {
            start: end - arity,
            arity,
            probability,
            stamp,
        });
        self.ids.extend_from_slice(row);
    }

    /// The entry holding `row`, if any.
    fn entry_of(&self, row: &[u32]) -> Option<&Entry> {
        let found = self.probe(self.row_hash(row), row).ok()?;
        Some(&self.entries[found])
    }

    /// Adds `probability` to the entry holding `row`, or appends one — outside any
    /// `add_distinct` call, so under no call's stamp.
    fn add_row(&mut self, row: &[u32], probability: f64) {
        match self.probe_to_add(row) {
            (_, Ok(entry)) => self.entries[entry].probability += probability,
            (hash, Err(slot)) => self.push(slot, hash, row, probability, 0),
        }
    }

    /// Adds `probability` mass to a tuple (summing with any existing mass).
    pub fn add(&mut self, tuple: Tuple, probability: f64) {
        if probability <= 0.0 {
            return;
        }
        self.touch();
        let row: Vec<u32> = tuple.iter().map(|v| self.pool.intern(v)).collect();
        self.add_row(&row, probability);
    }

    /// Adds every tuple of an iterator with the same probability.
    pub fn add_all<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I, probability: f64) {
        for t in tuples {
            self.add(t, probability);
        }
    }

    /// Adds the *distinct* answer tuples of one source-query result with the same probability,
    /// and returns how many answers it added: the rows no earlier call had produced.
    ///
    /// Within a single mapping a tuple is either in the answer or not — producing it twice does
    /// not make it more likely — so duplicates inside one result contribute the mapping's
    /// probability only once (this mirrors the "remove duplicate tuples" step of the paper's
    /// Algorithm 4).  One probe per row: an answer this call has already counted carries the
    /// call's stamp.  The evaluation algorithms build their answers with [`aggregate`]
    /// instead; this is the incremental form, which top-k calls once per u-trace leaf.
    pub fn add_distinct(&mut self, rows: AnswerRows<'_>, probability: f64) -> usize {
        if probability <= 0.0 {
            return 0;
        }
        self.touch();
        self.distinct_calls += 1;
        let stamp = self.distinct_calls;
        let before = self.entries.len();
        let mut ids = Vec::new();
        rows.intern_into(&mut self.pool, &mut ids);
        let arity = rows.positions.len();
        for row in 0..rows.len() {
            let row = &ids[row * arity..][..arity];
            match self.probe_to_add(row) {
                (_, Ok(entry)) => {
                    let seen = &mut self.entries[entry];
                    if seen.stamp != stamp {
                        seen.probability += probability;
                        seen.stamp = stamp;
                    }
                }
                (hash, Err(slot)) => self.push(slot, hash, row, probability, stamp),
            }
        }
        self.entries.len() - before
    }

    /// Records that a mapping group with total probability `probability` produced no tuples.
    pub fn add_empty(&mut self, probability: f64) {
        self.touch();
        self.empty_probability += probability.max(0.0);
    }

    /// Merges another answer into this one, in the other's insertion order.
    pub fn merge(&mut self, other: &ProbabilisticAnswer) {
        self.touch();
        let pool = &mut self.pool;
        let ours: Vec<u32> = other.pool.values.iter().map(|v| pool.intern(v)).collect();
        let mut row = Vec::new();
        for entry in &other.entries {
            row.clear();
            row.extend(other.row(entry).iter().map(|&id| ours[id as usize]));
            self.add_row(&row, entry.probability);
        }
        self.empty_probability += other.empty_probability;
    }

    /// The probability of a specific tuple (0 if absent).
    #[must_use]
    pub fn probability_of(&self, tuple: &Tuple) -> f64 {
        let row: Option<Vec<u32>> = tuple.iter().map(|v| self.pool.find(v)).collect();
        let entry = row.and_then(|row| self.entry_of(&row));
        entry.map_or(0.0, |e| e.probability)
    }

    /// Probability mass that produced no answer tuples.
    #[must_use]
    pub fn empty_probability(&self) -> f64 {
        self.empty_probability
    }

    /// Number of distinct answer tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no answer tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `k` first entries of the wire order — descending probability, ties broken by tuple
    /// order, so the result is deterministic — by position.  The one order
    /// [`sorted`](ProbabilisticAnswer::sorted), [`top_k`](ProbabilisticAnswer::top_k) and the
    /// wire renderer share: the pool's values are ranked once, then integers are sorted; and
    /// only the `k` best are sorted at all.
    fn best(&self, k: usize) -> Vec<usize> {
        let ranks = self.pool.ranks();
        let rank_row = |entry: u32| {
            let row = self.row(&self.entries[entry as usize]);
            row.iter().map(|&id| ranks[id as usize])
        };
        // A cell's rank plus one, so that a missing cell (0) sorts before any rank: a row that
        // is a prefix of another comes first, as it does among tuples.  `width` bits hold one;
        // a key holds the first `cells` cells of a row.
        let most = ranks.iter().max().map_or(0, |&rank| u64::from(rank) + 1);
        let width = (u64::BITS - most.leading_zeros()).max(1);
        let cells = (u64::BITS / width) as usize;
        let mut keys: Vec<SortKey> = (0u32..)
            .zip(&self.entries)
            .map(|(entry, stored)| {
                let packed = rank_row(entry)
                    .take(cells)
                    .fold(0u128, |key, rank| key << width | (u128::from(rank) + 1));
                let missing = cells.saturating_sub(stored.arity as usize) as u32;
                let probability = !total_order_bits(stored.probability);
                SortKey {
                    key: u128::from(probability) << 64 | packed << (width * missing),
                    entry,
                }
            })
            .collect();
        // Keys tie only on rows that rank alike as far as the key reaches: rows longer than a
        // key are compared past it.  Rows are distinct, so the order is total and unstable
        // sorting is exact.
        let order = |a: &SortKey, b: &SortKey| -> Ordering {
            a.key
                .cmp(&b.key)
                .then_with(|| rank_row(a.entry).cmp(rank_row(b.entry)))
                .then(a.entry.cmp(&b.entry))
        };
        if 0 < k && k < keys.len() {
            keys.select_nth_unstable_by(k - 1, order);
        }
        keys.truncate(k);
        keys.sort_unstable_by(order);
        keys.into_iter().map(|key| key.entry as usize).collect()
    }

    /// The values the answer's rows are made of; a row's ids index this slice.
    #[must_use]
    pub fn values(&self) -> &[Value] {
        &self.pool.values
    }

    /// The answers in wire order (descending probability, ties broken by tuple order) as rows
    /// of ids into [`values`](ProbabilisticAnswer::values) — nothing built.
    #[must_use]
    pub fn sorted_rows(&self) -> Vec<(&[u32], f64)> {
        let entries = self.best(usize::MAX).into_iter();
        let entries = entries.map(|entry| &self.entries[entry]);
        entries.map(|e| (self.row(e), e.probability)).collect()
    }

    /// Builds the tuple of the entry at `entry`.
    fn tuple_at(&self, entry: usize) -> Tuple {
        TUPLES_MATERIALIZED.fetch_add(1, Relaxed);
        let row = self.row(&self.entries[entry]);
        row.iter()
            .map(|&id| self.pool.values[id as usize].clone())
            .collect()
    }

    /// Every entry's tuple, in insertion order: built on the first call after construction or
    /// mutation, borrowed on every later one.
    fn tuples(&self) -> &[Tuple] {
        self.tuples
            .get_or_init(|| (0..self.entries.len()).map(|e| self.tuple_at(e)).collect())
    }

    /// [`sorted`](ProbabilisticAnswer::sorted), borrowed.
    #[must_use]
    pub fn sorted_refs(&self) -> Vec<(&Tuple, f64)> {
        let tuples = self.tuples();
        let entries = self.best(usize::MAX).into_iter();
        entries
            .map(|e| (&tuples[e], self.entries[e].probability))
            .collect()
    }

    /// The answers by descending probability (ties broken by tuple order).
    #[must_use]
    pub fn sorted(&self) -> Vec<(Tuple, f64)> {
        self.top_k(usize::MAX)
    }

    /// The `k` most probable answers (exact semantics a top-k query must reproduce): `k`
    /// entries selected and sorted, `k` tuples built.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<(Tuple, f64)> {
        let entries = self.best(k).into_iter();
        entries
            .map(|e| (self.tuple_at(e), self.entries[e].probability))
            .collect()
    }

    /// The answer's rendering, memoized: `render` runs on the first call after construction or
    /// mutation, and every later call — from any holder of a shared `Arc` of this answer —
    /// returns the same string.  One slot: every caller must pass the same pure function of
    /// the answer's content (`urm-server`'s wire renderer is the one user).
    pub fn rendered_with(&self, render: impl FnOnce(&ProbabilisticAnswer) -> String) -> &str {
        self.rendered.get_or_init(|| render(self).into_boxed_str())
    }

    /// Iterates over `(tuple, probability)` pairs in the order the tuples were first added.
    /// The tuples are built on the first call (see the [module docs](self)).
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, f64)> {
        self.tuples().iter().zip(self.probabilities())
    }

    /// Every answer's probability, in insertion order.
    pub(crate) fn probabilities(&self) -> impl Iterator<Item = f64> + '_ {
        self.entries.iter().map(|e| e.probability)
    }

    /// The maximum probability of any answer tuple.
    #[must_use]
    pub fn max_probability(&self) -> f64 {
        self.probabilities().fold(0.0, f64::max)
    }

    /// Total probability mass assigned to answers (can exceed 1: a single mapping may produce
    /// many tuples, each inheriting the full mapping probability), summed in insertion order.
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.probabilities().sum()
    }

    /// Checks equality with another answer up to a probability tolerance; used by the tests
    /// that verify all evaluation algorithms agree.
    #[must_use]
    pub fn approx_eq(&self, other: &ProbabilisticAnswer, tolerance: f64) -> bool {
        if self.entries.len() != other.entries.len() {
            return false;
        }
        // Our pool ids as the other's, where it holds the value at all.
        let theirs: Vec<Option<u32>> = self.values().iter().map(|v| other.pool.find(v)).collect();
        self.entries.iter().all(|entry| {
            let row = self.row(entry).iter().map(|&id| theirs[id as usize]);
            let row: Option<Vec<u32>> = row.collect();
            let found = row.and_then(|row| other.entry_of(&row));
            found.is_some_and(|q| (entry.probability - q.probability).abs() <= tolerance)
        })
    }
}

/// One distinct source query of a target query, as [`aggregate`] reads it: the summed
/// probability of its mappings, how its answer tuples are read, and its result given as the
/// factors whose product it is.
pub struct Cluster<'r> {
    /// The summed probability of the mappings that reformulate onto this source query.
    pub probability: f64,
    /// How answer tuples are read: each [`Extraction::Columns`] name resolves in the schema of
    /// the factor that holds it, and [`Extraction::Raw`] reads every column of every factor.
    pub extraction: &'r Extraction,
    /// The results whose product is the source query's result.  A factor that supplies no
    /// answer column is an existence guard: the cluster produces nothing if it is empty.
    pub factors: Vec<&'r Relation>,
}

impl<'r> Cluster<'r> {
    /// A cluster whose result is one relation.
    #[must_use]
    pub fn single(probability: f64, extraction: &'r Extraction, result: &'r Relation) -> Self {
        Cluster {
            probability,
            extraction,
            factors: vec![result],
        }
    }
}

/// What one [`aggregate`] call read and enumerated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregateWork {
    /// Factor rows interned: the rows of every distinct factor result, once.
    pub factor_rows: usize,
    /// Answer rows enumerated from the folded groups' products; the answer's entries are the
    /// distinct ones among them.
    pub rows: usize,
}

/// The `aggregate` step (Section III-B) for one target query: every distinct answer tuple gains
/// the probability of each cluster that produces it, summed in cluster order — to the bit the
/// sum of adding the clusters' distinct tuples one cluster after the other.  Every algorithm
/// builds its answers here, so they cannot drift apart.
///
/// A cluster's result is never multiplied out before it is needed:
///
/// * Each factor's answer cells are interned once per factor row (a factor several clusters
///   share, once for all of them), and its rows of pool ids are matched to a table of distinct
///   rows: an earlier factor's with the same rows, or a table of its own.
/// * Clusters with one column layout whose factors hold the same rows, in the same order,
///   produce equal answers, so they fold into one *group*, whose product is enumerated once by
///   nested loops; factors are put in one order first, so a product listed in another order
///   folds too.
/// * A row is probed against the others only when another group can also produce it — when,
///   at every answer column, its value is one another group has there too.  The others are
///   appended unprobed; the answer's row index is built on its first lookup.
/// * Each entry carries the set of groups that produced it.  Its probability is the sum over
///   the set's clusters in cluster order, computed once per distinct set.
///
/// Entries are kept group by group, in enumeration order.  `empty_probability` is the mass
/// of the mappings the query cannot be reformulated through.
#[must_use]
pub fn aggregate(
    clusters: &[Cluster<'_>],
    empty_probability: f64,
) -> (ProbabilisticAnswer, AggregateWork) {
    aggregate_into(ProbabilisticAnswer::new(), clusters, empty_probability)
}

/// [`aggregate`] into an answer whose values and rows all hash alike
/// ([`ProbabilisticAnswer::with_colliding_hashes`]), so every probe walks one chain and only
/// the comparisons tell rows apart.  For tests of those comparisons.
#[doc(hidden)]
#[must_use]
pub fn aggregate_with_colliding_hashes(
    clusters: &[Cluster<'_>],
    empty_probability: f64,
) -> (ProbabilisticAnswer, AggregateWork) {
    let answer = ProbabilisticAnswer::with_colliding_hashes();
    aggregate_into(answer, clusters, empty_probability)
}

/// [`aggregate`] into the empty `answer`.
fn aggregate_into(
    mut answer: ProbabilisticAnswer,
    clusters: &[Cluster<'_>],
    empty_probability: f64,
) -> (ProbabilisticAnswer, AggregateWork) {
    let mut work = AggregateWork::default();
    let (seed, mask) = (answer.row_seed, answer.pool.hash_mask);
    let hash = |row: &[u32]| hash_row(seed, mask, row);
    // Every factor result met, and one table per class of factors with the same rows.
    let mut interned: Vec<InternedFactor<'_>> = Vec::new();
    let mut tables: Vec<FactorRows> = Vec::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut scratch = Vec::new();
    let mut null = None;
    for (at, cluster) in clusters.iter().enumerate() {
        // An empty factor makes the product empty.
        if cluster.probability <= 0.0 || cluster.factors.is_empty() {
            continue;
        }
        if cluster.factors.iter().any(|factor| factor.is_empty()) {
            continue;
        }
        let (mut layout, used) = resolve_layout(cluster);
        if layout.contains(&Slot::Null) {
            null.get_or_insert_with(|| answer.pool.intern(&NULL));
        }
        let mut classes = Vec::with_capacity(used.len());
        for (&factor, used) in cluster.factors.iter().zip(used) {
            if let Some(known) = interned.iter().find(|f| f.is(factor, &used)) {
                classes.push(known.class);
                continue;
            }
            let width = used.len();
            let rows = intern_rows(factor, &used, &mut answer.pool, &mut scratch);
            work.factor_rows += rows;
            let class = match class_of(&tables, width, rows, &scratch) {
                Some(class) => class,
                None => {
                    // Not a known table as it comes (it may repeat a row): made distinct, it
                    // may be.
                    let table = FactorRows::distinct(width, rows, &scratch, hash);
                    match class_of(&tables, width, table.len, &table.ids) {
                        Some(class) => class,
                        None => {
                            tables.push(table);
                            tables.len() - 1
                        }
                    }
                }
            };
            interned.push(InternedFactor {
                factor,
                used,
                class,
            });
            classes.push(class);
        }
        // The factors in class order, so that one product listed in another order folds too.
        let mut order: Vec<usize> = (0..classes.len()).collect();
        order.sort_by_key(|&f| classes[f]);
        let mut rank = vec![0; order.len()];
        for (r, &f) in order.iter().enumerate() {
            rank[f] = r;
        }
        for slot in &mut layout {
            if let Slot::Cell { factor, .. } = slot {
                *factor = rank[*factor];
            }
        }
        classes.sort_unstable();
        match groups
            .iter_mut()
            .find(|g| g.layout == layout && g.classes == classes)
        {
            Some(group) => group.clusters.push(at),
            None => groups.push(Group {
                layout,
                classes,
                clusters: vec![at],
            }),
        }
    }

    let null = null.unwrap_or(FREE);
    let cover = Cover::of(&groups, &tables, null, answer.pool.values.len());
    let mut sets = GroupSets::new(groups.len());
    // Per entry, the set of groups that produced it.
    let mut produced_by: Vec<u32> = Vec::new();
    // The entries another group may produce again, and an index over them alone.
    let (mut shared, mut shared_entries, mut shared_hashes) =
        (HashIndex::default(), Vec::<u32>::new(), Vec::<u64>::new());
    let mut row = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        let factors: Vec<&FactorRows> = group.classes.iter().map(|&c| &tables[c]).collect();
        // The product's first row, and the `(cell, column)`s each factor fills in it.
        let mut fills: Vec<Vec<(usize, usize)>> = vec![Vec::new(); factors.len()];
        row.clear();
        for (cell, slot) in group.layout.iter().enumerate() {
            row.push(match *slot {
                Slot::Null => null,
                Slot::Cell { factor, column } => {
                    fills[factor].push((cell, column));
                    factors[factor].cell(0, column)
                }
            });
        }
        // The first group's rows are all new entries (its factors' rows are distinct, and no
        // entry came before them): room for every one, where the allocator grants it.  A later
        // group may meet its rows again, so its entries grow as they come.
        let product = factors.iter().try_fold(1usize, |n, f| n.checked_mul(f.len));
        if let (0, Some(product)) = (g, product) {
            let _ = produced_by.try_reserve(product);
            answer.reserve_rows(product, row.len());
        }
        let mut at = vec![0usize; factors.len()];
        'product: loop {
            work.rows += 1;
            if cover.is_exclusive(&row) {
                produced_by.push(g as u32);
                answer.push_row(&row, 0.0, 0);
            } else {
                let hash = hash(&row);
                shared.reserve(shared_entries.len(), 1, |i| shared_hashes[i]);
                let (entries, ids) = (&answer.entries, &answer.ids);
                let is_match = |i: usize| {
                    let entry = &entries[shared_entries[i] as usize];
                    shared_hashes[i] == hash && row_of(ids, entry) == row.as_slice()
                };
                match shared.probe(hash, is_match) {
                    Ok(i) => {
                        let entry = shared_entries[i] as usize;
                        produced_by[entry] = sets.with(produced_by[entry], g);
                    }
                    Err(slot) => {
                        shared.occupy(slot, shared_entries.len());
                        shared_entries.push(answer.entries.len() as u32);
                        shared_hashes.push(hash);
                        produced_by.push(g as u32);
                        answer.push_row(&row, 0.0, 0);
                    }
                }
            }
            // The next row of the product: the last factor turns fastest, and only the cells
            // of the factors that moved are read again.
            let mut f = factors.len();
            loop {
                if f == 0 {
                    break 'product;
                }
                f -= 1;
                at[f] += 1;
                if at[f] < factors[f].len {
                    break;
                }
                at[f] = 0;
            }
            for moved in f..factors.len() {
                for &(cell, column) in &fills[moved] {
                    row[cell] = factors[moved].cell(at[moved], column);
                }
            }
        }
    }

    let probabilities = sets.probabilities(&groups, clusters);
    for (entry, set) in answer.entries.iter_mut().zip(produced_by) {
        entry.probability = probabilities[set as usize];
    }
    if empty_probability > 0.0 {
        answer.add_empty(empty_probability);
    }
    (answer, work)
}

/// Where an answer cell comes from: NULL (an output attribute the mapping does not cover), or
/// column `column` of the columns the cluster reads from its factor `factor`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Null,
    Cell { factor: usize, column: usize },
}

/// A cluster's answer layout, and for each of its factors the schema positions it reads.
fn resolve_layout(cluster: &Cluster<'_>) -> (Vec<Slot>, Vec<Vec<usize>>) {
    let schemas: Vec<_> = cluster.factors.iter().map(|f| f.schema()).collect();
    let mut used: Vec<Vec<usize>> = vec![Vec::new(); schemas.len()];
    let mut cell = |factor: usize, position: usize| {
        let known = used[factor].iter().position(|&p| p == position);
        let column = known.unwrap_or_else(|| {
            used[factor].push(position);
            used[factor].len() - 1
        });
        Slot::Cell { factor, column }
    };
    let layout = match cluster.extraction {
        Extraction::Raw => schemas
            .iter()
            .enumerate()
            .flat_map(|(factor, schema)| (0..schema.arity()).map(move |p| (factor, p)))
            .map(|(factor, position)| cell(factor, position))
            .collect(),
        Extraction::Columns(columns) => columns
            .iter()
            .map(|column| {
                // `None` is an output attribute the mapping does not cover: legitimately NULL.
                // A *named* column is one the source query projected, so a factor has it.
                let Some(name) = column else {
                    return Slot::Null;
                };
                let found = schemas
                    .iter()
                    .enumerate()
                    .find_map(|(factor, schema)| Some((factor, schema.position(name)?)));
                debug_assert!(
                    found.is_some(),
                    "extraction column {name} is in no factor's schema"
                );
                found.map_or(Slot::Null, |(factor, position)| cell(factor, position))
            })
            .collect(),
    };
    (layout, used)
}

/// Interns the `used` columns of `factor` into `ids`, row after row, and returns the number of
/// rows.
fn intern_rows(factor: &Relation, used: &[usize], pool: &mut Pool, ids: &mut Vec<u32>) -> usize {
    let cells = AnswerRows::new(factor, used.iter().copied().map(Some).collect());
    cells.intern_into(pool, ids);
    cells.len()
}

/// The table whose rows are the `rows` rows of `width` ids in `ids`, in their order.
fn class_of(tables: &[FactorRows], width: usize, rows: usize, ids: &[u32]) -> Option<usize> {
    let rows = if width == 0 { rows.min(1) } else { rows };
    (tables.iter()).position(|table| (table.width, table.len) == (width, rows) && table.ids == ids)
}

/// The distinct rows of a class of factors over the columns their clusters read, as rows of
/// pool ids in order of first occurrence.
struct FactorRows {
    width: usize,
    len: usize,
    ids: Vec<u32>,
}

impl FactorRows {
    /// The distinct rows among the `rows` rows of `width` ids in `ids`.
    fn distinct(width: usize, rows: usize, ids: &[u32], hash: impl Fn(&[u32]) -> u64) -> Self {
        if width == 0 {
            // An existence guard: one empty row if it has a row.
            let len = rows.min(1);
            return FactorRows {
                width,
                len,
                ids: Vec::new(),
            };
        }
        let (mut index, mut hashes, mut distinct) = (HashIndex::default(), Vec::new(), Vec::new());
        index.reserve(0, rows, |_| 0);
        for row in ids.chunks_exact(width) {
            let hash = hash(row);
            let is_match =
                |at: usize| hashes[at] == hash && distinct[at * width..][..width] == *row;
            if let Err(slot) = index.probe(hash, is_match) {
                index.occupy(slot, hashes.len());
                hashes.push(hash);
                distinct.extend_from_slice(row);
            }
        }
        FactorRows {
            width,
            len: hashes.len(),
            ids: distinct,
        }
    }

    /// The pool id at column `column` of row `row`.
    fn cell(&self, row: usize, column: usize) -> u32 {
        self.ids[row * self.width + column]
    }

    /// Every row, in order of first occurrence.
    fn rows(&self) -> impl Iterator<Item = &[u32]> {
        // A width-0 factor's rows are empty slices, `len` of them.
        (0..self.len).map(|row| &self.ids[row * self.width..][..self.width])
    }
}

/// A factor result met by one [`aggregate`] call: which result and columns it is, and its
/// class — the table holding its rows.
struct InternedFactor<'r> {
    factor: &'r Relation,
    used: Vec<usize>,
    class: usize,
}

impl InternedFactor<'_> {
    /// Whether this is `factor` read at `used`.
    fn is(&self, factor: &Relation, used: &[usize]) -> bool {
        std::ptr::eq(self.factor, factor) && self.used == used
    }
}

/// Clusters that produce the same answers: one column layout over factors of the same
/// classes, in class order.  Entries are added group by group; within a group, in the order of
/// its tables' rows, so a one-factor cluster adds its answers in the order its result holds
/// them.
struct Group {
    layout: Vec<Slot>,
    classes: Vec<usize>,
    /// The member clusters, ascending.
    clusters: Vec<usize>,
}

/// For each answer column and pool id, how many groups can produce the id there: a row with
/// a value only its own group has at some column cannot come from another group.
struct Cover {
    pool_len: usize,
    /// `None` when there is one group: every row is its own.
    counts: Option<Vec<u32>>,
}

impl Cover {
    fn of(groups: &[Group], tables: &[FactorRows], null: u32, pool_len: usize) -> Cover {
        if groups.len() < 2 {
            return Cover {
                pool_len,
                counts: None,
            };
        }
        let arity = groups.iter().map(|g| g.layout.len()).max().unwrap_or(0);
        let mut counts = vec![0u32; arity * pool_len];
        // The last group (plus one) that counted each cell, so a group counts a value once.
        let mut counted_by = vec![0u32; arity * pool_len];
        for (g, group) in (1u32..).zip(groups) {
            let mut count = |column: usize, id: u32| {
                let at = column * pool_len + id as usize;
                if counted_by[at] != g {
                    counted_by[at] = g;
                    counts[at] += 1;
                }
            };
            for (column, slot) in group.layout.iter().enumerate() {
                match *slot {
                    Slot::Null => count(column, null),
                    Slot::Cell { factor, column: at } => {
                        let rows = &tables[group.classes[factor]];
                        rows.rows().for_each(|row| count(column, row[at]));
                    }
                }
            }
        }
        Cover {
            pool_len,
            counts: Some(counts),
        }
    }

    /// Whether no other group can produce `row`: at some column, its value is one only its
    /// own group has there.
    fn is_exclusive(&self, row: &[u32]) -> bool {
        let Some(counts) = &self.counts else {
            return true;
        };
        let count = |(column, &id): (usize, &u32)| counts[column * self.pool_len + id as usize];
        row.iter().enumerate().any(|cell| count(cell) == 1)
    }
}

/// Sets of groups, interned as a trie: set `g < groups` is `{g}`, and every later set is an
/// earlier one plus a group above all of its members (groups are enumerated in order).
struct GroupSets {
    groups: usize,
    /// Per set past the singletons: the set it extends and the group it adds.
    extends: Vec<(u32, u32)>,
    children: HashMap<(u32, u32), u32>,
    /// The last step taken: the rows of a group mostly extend one set.
    last: Option<((u32, u32), u32)>,
}

impl GroupSets {
    fn new(groups: usize) -> Self {
        GroupSets {
            groups,
            extends: Vec::new(),
            children: HashMap::new(),
            last: None,
        }
    }

    /// The set `set ∪ {group}`, where `group` is above every member of `set`.
    fn with(&mut self, set: u32, group: usize) -> u32 {
        let step = (set, group as u32);
        match self.last {
            Some((last, to)) if last == step => to,
            _ => {
                let next = (self.groups + self.extends.len()) as u32;
                let extends = &mut self.extends;
                let to = *self.children.entry(step).or_insert_with(|| {
                    extends.push(step);
                    next
                });
                self.last = Some((step, to));
                to
            }
        }
    }

    /// Every set's probability: the sum of its clusters' probabilities in cluster order.
    fn probabilities(&self, groups: &[Group], clusters: &[Cluster<'_>]) -> Vec<f64> {
        let sum = |members: &[usize]| {
            let mut members = members.iter().map(|&c| clusters[c].probability);
            let first = members.next().unwrap_or(0.0);
            members.fold(first, |sum, p| sum + p)
        };
        let mut probabilities: Vec<f64> = groups.iter().map(|g| sum(&g.clusters)).collect();
        for set in 0..self.extends.len() {
            let mut members = Vec::new();
            let mut at = (self.groups + set) as u32;
            while at as usize >= self.groups {
                let (parent, group) = self.extends[at as usize - self.groups];
                members.extend_from_slice(&groups[group as usize].clusters);
                at = parent;
            }
            members.extend_from_slice(&groups[at as usize].clusters);
            members.sort_unstable();
            probabilities.push(sum(&members));
        }
        probabilities
    }
}

impl fmt::Display for ProbabilisticAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} answer tuple(s):", self.len())?;
        for (t, p) in self.sorted_refs() {
            writeln!(f, "  {t}  (p = {p:.4})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urm_storage::{Name, Value};

    fn t(s: &str) -> Tuple {
        Tuple::new(vec![Value::from(s)])
    }

    fn rows(tuples: &[Tuple]) -> AnswerRows<'_> {
        tuples.into()
    }

    #[test]
    fn duplicates_accumulate_probability() {
        // The paper's basic example: (123, 0.5), (456, 0.8), (789, 0.2).
        let mut ans = ProbabilisticAnswer::new();
        // m1 (0.3): 123, 456 — m2 (0.2): 123, 456 — m3 (0.2): 456 — m4 (0.2): 789 — m5 (0.1): 456
        ans.add_all([t("123"), t("456")], 0.3);
        ans.add_all([t("123"), t("456")], 0.2);
        ans.add(t("456"), 0.2);
        ans.add(t("789"), 0.2);
        ans.add(t("456"), 0.1);
        assert_eq!(ans.len(), 3);
        assert!((ans.probability_of(&t("123")) - 0.5).abs() < 1e-9);
        assert!((ans.probability_of(&t("456")) - 0.8).abs() < 1e-9);
        assert!((ans.probability_of(&t("789")) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn add_distinct_counts_each_calls_mass_once_per_call() {
        let mut ans = ProbabilisticAnswer::new();
        let added = ans.add_distinct(rows(&[t("a"), t("b"), t("a"), t("a")]), 0.3);
        assert_eq!(added, 2, "an answer is added on a miss only");
        assert_eq!(ans.add_distinct(rows(&[t("b"), t("c"), t("b")]), 0.2), 1);
        assert_eq!(ans.add_distinct(rows(&[t("a"), t("a")]), 0.0), 0);
        assert_eq!(ans.len(), 3);
        assert_eq!(ans.probability_of(&t("a")), 0.3);
        assert_eq!(ans.probability_of(&t("b")), 0.3 + 0.2);
        assert_eq!(ans.probability_of(&t("c")), 0.2);
        // Plain `add` is outside any call: the next call still counts the tuple once.
        ans.add(t("c"), 0.1);
        ans.add_distinct(rows(&[t("c"), t("c")]), 0.4);
        assert_eq!(ans.probability_of(&t("c")), 0.2 + 0.1 + 0.4);
        // Insertion order, whatever the hashes were.
        let order: Vec<&Tuple> = ans.iter().map(|(t, _)| t).collect();
        assert_eq!(order, [&t("a"), &t("b"), &t("c")]);
    }

    #[test]
    fn values_are_pooled_by_value_equality_across_cells_and_calls() {
        let pair = |a: Value, b: Value| Tuple::new(vec![a, b]);
        for mut ans in [
            ProbabilisticAnswer::new(),
            ProbabilisticAnswer::with_colliding_hashes(),
        ] {
            ans.add(pair(Value::from(1i64), Value::from("x")), 0.25);
            // `Float 1.0` is the `Int 1` the pool holds; "1" and NULL are neither.
            ans.add_distinct(
                rows(&[
                    pair(Value::Float(1.0), Value::from("x")),
                    pair(Value::from("x"), Value::Float(1.0)),
                    pair(Value::from("1"), Value::Null),
                ]),
                0.5,
            );
            assert_eq!(ans.len(), 3);
            assert_eq!(
                ans.values().len(),
                4,
                "1, x, \"1\", NULL: {:?}",
                ans.values()
            );
            assert_eq!(
                ans.probability_of(&pair(Value::from(1i64), Value::from("x"))),
                0.75
            );
            // A value keeps the spelling the answer first read it with.
            let second = ans.iter().nth(1).unwrap().0.clone();
            assert!(matches!(second.values()[1], Value::Int(1)));
            // Signed zeros and differently signed NaNs are different values, as in `Value`.
            for f in [0.0, -0.0, f64::NAN, -f64::NAN] {
                ans.add(pair(Value::Float(f), Value::Null), 0.5);
            }
            assert_eq!(ans.len(), 7);
            let absent = pair(Value::from("y"), Value::from("x"));
            assert_eq!(ans.probability_of(&absent), 0.0);
            assert_eq!(ans.probability_of(&Tuple::new(vec![Value::from("x")])), 0.0);
        }
    }

    #[test]
    fn sorted_and_top_k_follow_probability() {
        let mut ans = ProbabilisticAnswer::new();
        ans.add(t("a"), 0.2);
        ans.add(t("b"), 0.5);
        ans.add(t("c"), 0.3);
        let sorted = ans.sorted();
        assert_eq!(sorted[0].0, t("b"));
        assert_eq!(sorted[2].0, t("a"));
        let top2 = ans.top_k(2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[1].0, t("c"));
        assert_eq!(ans.max_probability(), 0.5);
    }

    #[test]
    fn top_k_is_a_prefix_of_sorted() {
        let mut ans = ProbabilisticAnswer::new();
        for (s, p) in [("d", 0.2), ("b", 0.5), ("a", 0.5), ("c", 0.2), ("e", 0.9)] {
            ans.add(t(s), p);
        }
        let sorted = ans.sorted();
        let order: Vec<&Tuple> = sorted.iter().map(|(t, _)| t).collect();
        assert_eq!(order, [&t("e"), &t("a"), &t("b"), &t("c"), &t("d")]);
        for k in [0, 1, 2, 3, 5, 6, usize::MAX] {
            let mut prefix = sorted.clone();
            prefix.truncate(k);
            assert_eq!(ans.top_k(k), prefix, "k = {k}");
        }
    }

    /// Holds every ranked view of `ans` to the oracle order — descending probability, then
    /// ascending tuple — and returns the number of distinct rows.
    fn assert_wire_order(ans: &ProbabilisticAnswer) -> usize {
        let mut want: Vec<(Tuple, f64)> = ans.iter().map(|(t, p)| (t.clone(), p)).collect();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let len = want.len();
        assert_eq!(ans.sorted(), want);
        let refs: Vec<(Tuple, f64)> = ans
            .sorted_refs()
            .into_iter()
            .map(|(t, p)| (t.clone(), p))
            .collect();
        assert_eq!(refs, want);
        let rows: Vec<(Tuple, f64)> = ans
            .sorted_rows()
            .into_iter()
            .map(|(row, p)| {
                (
                    row.iter()
                        .map(|&id| ans.values()[id as usize].clone())
                        .collect(),
                    p,
                )
            })
            .collect();
        assert_eq!(rows, want);
        for k in [0, 1, len / 2, len, len + 1] {
            assert_eq!(ans.top_k(k), want[..k.min(len)], "k = {k}");
        }
        len
    }

    #[test]
    fn the_order_is_that_of_probability_then_tuple_pairs() {
        // Ties on probability at every arity, rows that are prefixes of other rows, values of
        // every variant (ranked across variants), `Int`/`Float` twins, rows that tie on their
        // first two cells.  Eleven values rank in four bits, so every row lies whole in its
        // sort key.
        let values = [
            Value::Null,
            Value::from(true),
            Value::from(-2i64),
            Value::Float(-0.0),
            Value::Float(0.5),
            Value::from(7i64),
            Value::Float(7.0),
            Value::Float(f64::NAN),
            Value::from(""),
            Value::from("a"),
            Value::from("b"),
        ];
        let mut ans = ProbabilisticAnswer::new();
        let mut pick = 0usize;
        for n in 0..120usize {
            let arity = n % 4;
            let cells = (0..arity).map(|cell| {
                pick = pick.wrapping_mul(31).wrapping_add(7 + cell + n);
                // Long rows share their first two cells.
                values[if arity == 3 && cell < 2 {
                    cell
                } else {
                    pick % values.len()
                }]
                .clone()
            });
            ans.add(cells.collect(), [0.5, 0.25, 0.25, 1.0][n % 4]);
        }
        let len = assert_wire_order(&ans);
        assert!(len > 40, "{len} distinct rows");
    }

    #[test]
    fn rows_longer_than_a_sort_key_are_compared_past_it() {
        // Twenty values rank in five bits, so a 64-bit key holds twelve cells of a row and
        // these rows, up to twenty cells long, do not fit: rows that tie on probability and on
        // their first fourteen cells are told apart by the comparison past the key.  Shorter
        // rows are prefixes of longer ones.
        let values: Vec<Value> = (0..20i64)
            .map(|v| {
                if v % 2 == 0 {
                    Value::from(v)
                } else {
                    Value::from(format!("v{v}"))
                }
            })
            .collect();
        let mut ans = ProbabilisticAnswer::new();
        let mut pick = 0usize;
        for n in 0..90usize {
            let arity = [20, 13, 17, 20, 12][n % 5];
            let cells = (0..arity).map(|cell| {
                pick = pick.wrapping_mul(31).wrapping_add(7 + cell + n);
                let at = if cell < 14 {
                    (n % 3 + cell) % 20
                } else {
                    pick % 20
                };
                values[at].clone()
            });
            ans.add(cells.collect(), [0.5, 0.25][n % 2]);
        }
        let len = assert_wire_order(&ans);
        assert!(len > 30, "{len} distinct rows");
    }

    #[test]
    fn rendering_is_memoized_until_the_answer_changes() {
        let render = |a: &ProbabilisticAnswer| format!("{} / {}", a.len(), a.empty_probability());
        let never = |_: &ProbabilisticAnswer| unreachable!("already rendered");
        let mut ans = ProbabilisticAnswer::new();
        ans.add(t("a"), 0.5);
        assert_eq!(ans.rendered_with(render), "1 / 0");
        assert_eq!(ans.rendered_with(never), "1 / 0");
        // A clone is a new answer about to diverge: it starts unrendered.
        assert_eq!(ans.clone().rendered_with(|_| "fresh".into()), "fresh");
        assert!(!format!("{ans:?}").contains("1 / 0"));

        ans.add(t("b"), 0.25);
        assert_eq!(ans.rendered_with(render), "2 / 0");
        ans.add_distinct(rows(&[t("c"), t("c")]), 0.25);
        assert_eq!(ans.rendered_with(render), "3 / 0");
        ans.add_empty(0.5);
        assert_eq!(ans.rendered_with(render), "3 / 0.5");
        let mut other = ProbabilisticAnswer::new();
        other.add(t("d"), 0.1);
        ans.merge(&other);
        assert_eq!(ans.rendered_with(render), "4 / 0.5");
        assert_eq!(ans.rendered_with(never), "4 / 0.5");
    }

    #[test]
    fn built_tuples_follow_the_answer_as_it_changes() {
        let mut ans = ProbabilisticAnswer::new();
        ans.add(t("a"), 0.5);
        let first: Vec<Tuple> = ans.iter().map(|(t, _)| t.clone()).collect();
        assert_eq!(first, [t("a")]);
        // The same tuples on every call, until a `&mut` method changes the content.
        assert!(std::ptr::eq(
            ans.iter().next().unwrap().0,
            ans.tuples().as_ptr()
        ));
        ans.add_distinct(rows(&[t("b")]), 0.25);
        let mut other = ProbabilisticAnswer::new();
        other.add(t("c"), 0.25);
        other.add(t("a"), 0.25);
        ans.merge(&other);
        let then: Vec<(Tuple, f64)> = ans.iter().map(|(t, p)| (t.clone(), p)).collect();
        assert_eq!(then, [(t("a"), 0.75), (t("b"), 0.25), (t("c"), 0.25)]);
        let shown = format!("{:?}", ans.clone());
        assert_eq!(shown, format!("{ans:?}"));
        assert!(shown.contains(
            "Entry { tuple: Tuple { values: [Text(\"b\")] }, probability: 0.25, stamp: 1 }"
        ));
    }

    #[test]
    fn zero_probability_additions_are_ignored() {
        let mut ans = ProbabilisticAnswer::new();
        ans.add(t("a"), 0.0);
        ans.add(t("b"), -0.1);
        assert!(ans.is_empty());
    }

    #[test]
    fn merge_combines_answers_and_empty_mass() {
        let mut a = ProbabilisticAnswer::new();
        a.add(t("x"), 0.4);
        a.add_empty(0.1);
        let mut b = ProbabilisticAnswer::new();
        b.add(t("x"), 0.2);
        b.add(t("y"), 0.3);
        b.add_empty(0.2);
        a.merge(&b);
        assert!((a.probability_of(&t("x")) - 0.6).abs() < 1e-9);
        assert!((a.probability_of(&t("y")) - 0.3).abs() < 1e-9);
        assert!((a.empty_probability() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let mut a = ProbabilisticAnswer::new();
        a.add(t("x"), 0.5);
        let mut b = ProbabilisticAnswer::new();
        b.add(t("x"), 0.5 + 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        let mut c = ProbabilisticAnswer::new();
        c.add(t("x"), 0.7);
        assert!(!a.approx_eq(&c, 1e-9));
        let mut d = ProbabilisticAnswer::new();
        d.add(t("y"), 0.5);
        assert!(!a.approx_eq(&d, 1e-9));
    }

    #[test]
    fn ties_are_broken_deterministically() {
        let mut ans = ProbabilisticAnswer::new();
        ans.add(t("b"), 0.5);
        ans.add(t("a"), 0.5);
        let sorted = ans.sorted();
        assert_eq!(sorted[0].0, t("a"));
    }

    /// A pool of one- and two-column factor relations over a few values: some empty, some
    /// with equal rows under other names, so that clusters fold, overlap and guard.
    fn factor_pool() -> Vec<Relation> {
        use urm_storage::{Attribute, DataType, Schema};
        let value = |v: usize| {
            if v.is_multiple_of(3) {
                Value::from(v as i64)
            } else {
                Value::from(format!("v{v}"))
            }
        };
        let mut pool = Vec::new();
        let mut pick = 7usize;
        for at in 0..12 {
            let width = 1 + at % 2;
            let rows: Vec<Tuple> = if at % 5 == 4 {
                Vec::new()
            } else {
                (0..1 + at % 4)
                    .map(|row| {
                        (0..width)
                            .map(|_| {
                                pick = pick.wrapping_mul(31).wrapping_add(row + 3);
                                value(pick % 5)
                            })
                            .collect()
                    })
                    .collect()
            };
            for copy in 0..2 {
                // Each factor twice, under two names: equal rows, different relations.
                let name = format!("F{at}x{copy}");
                let attrs = (0..width)
                    .map(|c| Attribute::new(format!("{name}.c{c}"), DataType::Text))
                    .collect();
                pool.push(Relation::from_validated(
                    Schema::new(name, attrs),
                    rows.clone(),
                ));
            }
        }
        pool
    }

    #[test]
    fn aggregating_factors_is_adding_each_product_distinctly() {
        let pool = factor_pool();
        let mut pick = 11usize;
        let mut next = |n: usize| {
            pick = pick
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (pick >> 33) % n
        };
        // 80 clusters of one to three distinct factors, read through 1–4 answer columns: a
        // name of some factor (repeats allowed), or NULL; a factor nobody reads is a guard.
        let mut specs = Vec::new();
        for _ in 0..80 {
            let mut factors: Vec<usize> = Vec::new();
            while factors.len() < 1 + next(3) {
                let f = next(pool.len());
                // Two copies of one factor share their column names: take one of them.
                if !factors.iter().any(|&g| g / 2 == f / 2) {
                    factors.push(f);
                }
            }
            let names: Vec<Name> = factors
                .iter()
                .flat_map(|&f| pool[f].schema().attributes().iter().map(|a| a.name.clone()))
                .collect();
            let columns: Vec<Option<Name>> = (0..1 + next(4))
                .map(|_| (next(5) > 0).then(|| names[next(names.len())].clone()))
                .collect();
            let probability = [0.5, 0.25, 0.125, 0.1, 0.3][next(5)];
            specs.push((factors, Extraction::Columns(columns), probability));
        }
        let clusters: Vec<Cluster<'_>> = specs
            .iter()
            .map(|(factors, extraction, probability)| Cluster {
                probability: *probability,
                extraction,
                factors: factors.iter().map(|&f| &pool[f]).collect(),
            })
            .collect();
        let (got, work) = aggregate(&clusters, 0.25);

        // The reference multiplies each cluster out and adds its distinct tuples.
        let mut want = ProbabilisticAnswer::new();
        for (factors, extraction, probability) in &specs {
            let mut products: Vec<Vec<&Tuple>> = vec![Vec::new()];
            for &f in factors {
                products = products
                    .iter()
                    .flat_map(|prefix| {
                        pool[f].rows().iter().map(move |row| {
                            let mut next = prefix.clone();
                            next.push(row);
                            next
                        })
                    })
                    .collect();
            }
            let Extraction::Columns(columns) = extraction else {
                unreachable!()
            };
            let cell = |combo: &[&Tuple], name: &Name| {
                factors.iter().zip(combo).find_map(|(&f, row)| {
                    let at = pool[f].schema().position(name)?;
                    Some(row.values()[at].clone())
                })
            };
            let tuples: Vec<Tuple> = products
                .iter()
                .map(|combo| {
                    columns
                        .iter()
                        .map(|c| {
                            c.as_ref()
                                .and_then(|name| cell(combo, name))
                                .unwrap_or(Value::Null)
                        })
                        .collect()
                })
                .collect();
            want.add_distinct(rows(&tuples), *probability);
        }
        want.add_empty(0.25);

        assert!(
            work.rows >= got.len() && got.len() > 40,
            "{work:?}, {} answers",
            got.len()
        );
        let (sorted, expected) = (got.sorted(), want.sorted());
        assert_eq!(sorted.len(), expected.len());
        for ((t, p), (u, q)) in sorted.iter().zip(&expected) {
            assert_eq!(t, u);
            assert_eq!(p.to_bits(), q.to_bits(), "{t}");
        }
        assert_eq!(got.empty_probability(), 0.25);
        // Lookups build the index an aggregated answer is born without.
        assert!(got.approx_eq(&want, 0.0) && want.approx_eq(&got, 0.0));
        let (colliding, _) = aggregate_with_colliding_hashes(&clusters, 0.25);
        assert_eq!(format!("{colliding:?}"), format!("{got:?}"));
    }

    #[test]
    fn only_rows_sure_to_be_new_are_reserved_for() {
        use urm_storage::{Attribute, DataType, Schema};
        // Two factors of the same thirty values, read as (a, b) by one cluster and as (b, a)
        // by another: the second group meets all 900 rows of the first again.
        let factor = |name: &str| {
            let attrs = vec![Attribute::new(format!("{name}.c"), DataType::Int)];
            let rows = (0..30i64)
                .map(|v| Tuple::new(vec![Value::from(v)]))
                .collect();
            Relation::from_validated(Schema::new(name, attrs), rows)
        };
        let (a, b) = (factor("A"), factor("B"));
        let name = |r: &Relation| Some(r.schema().attributes()[0].name.clone());
        let ab = Extraction::Columns(vec![name(&a), name(&b)]);
        let ba = Extraction::Columns(vec![name(&b), name(&a)]);
        let clusters: Vec<Cluster<'_>> = [(&ab, 0.75), (&ba, 0.25)]
            .into_iter()
            .map(|(extraction, probability)| Cluster {
                probability,
                extraction,
                factors: vec![&a, &b],
            })
            .collect();
        let (got, work) = aggregate(&clusters, 0.0);
        assert_eq!((work.rows, got.len()), (1800, 900));
        assert!(got.iter().all(|(_, p)| p == 1.0));
        let room = (got.entries.capacity(), got.ids.capacity());
        assert!(room.0 < 2 * 900 && room.1 < 2 * 1800, "{room:?}");
    }

    #[test]
    fn display_lists_answers() {
        let mut ans = ProbabilisticAnswer::new();
        ans.add(t("aaa"), 0.5);
        assert!(ans.to_string().contains("aaa"));
        assert!(ans.to_string().contains("0.5"));
    }
}
