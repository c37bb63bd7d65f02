//! Probabilistic query answers, and the probe that accumulates them.
//!
//! The `aggregate` step (Section III-B; Algorithm 4's "remove duplicate tuples") needs a tuple
//! once per *distinct answer of the target query* — not once per row of every source query's
//! result, most of which repeat an answer an earlier source query already produced.  So a
//! [`ProbabilisticAnswer`] accumulates by **probing first and building a tuple only on a
//! miss**:
//!
//! * [`AnswerRows`] is a source-query result seen as answer rows, borrowed and unbuilt: the
//!   output columns over the result's late-materialized view, or positions over its rows.
//! * Every row is hashed where its cells lie ([`ColumnView::row_hashes`]: one looked-up word
//!   per text cell — its dictionary caches [`value_hash`](urm_storage::value_hash) per entry —
//!   one computed word per other cell).  The hash is a function of the *values*, so it is
//!   comparable across the different source columns two mappings read one target attribute
//!   from, which dictionary codes are not; and it is keyed per process, because what a source
//!   relation holds is data.
//! * The answer keeps its entries in first-insertion order plus an index from row hash to
//!   entry.  A hit is compared cell by cell against the stored tuple (a text cell by
//!   allocation, then bytes; anything else by [`Value`] equality) and
//!   gains the call's probability unless it carries the call's stamp already — that stamp is
//!   the *only* de-duplication on the aggregate path, whether the result was a set or a bag.
//!   A miss builds the tuple, once.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;
use urm_storage::{row_hash, ColumnRef, ColumnView, Relation, Tuple, Value};

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

/// The cells of `row` at `positions`, borrowed; anything the row does not hold is NULL.
fn projected<'a>(
    row: &'a Tuple,
    positions: &'a [Option<usize>],
) -> impl Iterator<Item = &'a Value> + 'a {
    static NULL: Value = Value::Null;
    positions
        .iter()
        .map(move |p| p.and_then(|i| row.get(i)).unwrap_or(&NULL))
}

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

    /// The *distinct* answer tuples, built, in order of first occurrence — for a caller that
    /// counts each tuple of a result once without accumulating into a
    /// [`ProbabilisticAnswer`] (the top-k bounds).  A view decides distinctness on its column
    /// codes ([`ColumnView::distinct_rows`]) and builds a tuple per distinct row only; rows
    /// are hashed by the projected values where they lie.
    #[must_use]
    pub fn distinct_tuples(&self) -> Vec<Tuple> {
        match &self.cells {
            Cells::View { view, .. } => {
                let covered: Vec<usize> = self.positions.iter().flatten().copied().collect();
                let distinct = view.distinct_rows(&covered).into_iter();
                distinct.map(|row| self.tuple(row as usize)).collect()
            }
            Cells::Rows(rows) => {
                let mut seen = HashSet::new();
                let positions = &self.positions;
                (0..rows.len())
                    .filter(|&row| {
                        seen.insert(ProjectedRow {
                            row: &rows[row],
                            positions,
                        })
                    })
                    .map(|row| self.tuple(row))
                    .collect()
            }
        }
    }

    /// [`row_hash`] of every row's answer cells, without building them.
    fn hashes(&self) -> Vec<u64> {
        match &self.cells {
            Cells::View { view, .. } => view.row_hashes(&self.positions),
            Cells::Rows(rows) => rows
                .iter()
                .map(|row| row_hash(projected(row, &self.positions)))
                .collect(),
        }
    }

    /// Whether `row`'s answer cells equal `stored`'s values.
    fn matches(&self, row: usize, stored: &Tuple) -> bool {
        if stored.arity() != self.positions.len() {
            return false;
        }
        match &self.cells {
            Cells::View { columns, .. } => {
                columns
                    .iter()
                    .zip(stored.iter())
                    .all(|(column, value)| match column {
                        Some(c) => c.column.value_eq(c.slot(row), value),
                        None => value.is_null(),
                    })
            }
            Cells::Rows(rows) => projected(&rows[row], &self.positions).eq(stored.iter()),
        }
    }

    /// Builds `row`'s answer tuple.
    fn tuple(&self, row: usize) -> Tuple {
        match &self.cells {
            Cells::View { columns, .. } => columns
                .iter()
                .map(|c| c.map_or(Value::Null, |c| c.column.value_at(c.slot(row))))
                .collect(),
            Cells::Rows(rows) => projected(&rows[row], &self.positions).cloned().collect(),
        }
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

/// A row seen through a position list: equal and hashed by the projected values, borrowed.
struct ProjectedRow<'a> {
    row: &'a Tuple,
    positions: &'a [Option<usize>],
}

impl PartialEq for ProjectedRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        projected(self.row, self.positions).eq(projected(other.row, other.positions))
    }
}

impl Eq for ProjectedRow<'_> {}

impl Hash for ProjectedRow<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        projected(self.row, self.positions).for_each(|v| v.hash(state));
    }
}

/// The answer of a probabilistic query: a set of `(tuple, probability)` pairs, where duplicate
/// tuples produced under different mappings have had their probabilities summed
/// (Section III-B, the `aggregate` step).
///
/// Entries are kept in the order their tuples were first added, and nothing observable depends
/// on a hash: [`iter`](ProbabilisticAnswer::iter), [`total_mass`](ProbabilisticAnswer::total_mass)
/// (a float sum, so order matters to its last bit), `Debug`, serialization and
/// [`merge`](ProbabilisticAnswer::merge) are deterministic for a given evaluation.
#[derive(Serialize, Deserialize)]
pub struct ProbabilisticAnswer {
    entries: Vec<Entry>,
    /// From row hash to entry: derived from `entries`, and — like the hashes — only meaningful
    /// in the process that built it.
    #[serde(skip)]
    index: Vec<u32>,
    /// ANDed onto every row hash: all ones, or zero to force every row into one chain
    /// ([`with_colliding_hashes`](ProbabilisticAnswer::with_colliding_hashes)).
    #[serde(skip)]
    hash_mask: u64,
    /// Number of [`add_distinct`](ProbabilisticAnswer::add_distinct) calls so far: the stamp
    /// the current call leaves on every tuple it has already counted.
    distinct_calls: u64,
    /// Probability mass of mappings whose source query returned no tuples (the paper's null
    /// tuple `θ`).  Kept for diagnostics; not part of the reported answers.
    empty_probability: f64,
    /// The rendering [`rendered_with`](ProbabilisticAnswer::rendered_with) memoized: derived
    /// state, filled at most once per content (every `&mut` method clears it), so it is left
    /// out of `Clone`, `Debug` and serialization.
    #[serde(skip)]
    rendered: OnceLock<Box<str>>,
}

/// One answer: its tuple, its probability mass, the last `add_distinct` call that added to it,
/// and the tuple's (masked) [`row_hash`].
#[derive(Clone, Serialize, Deserialize)]
struct Entry {
    tuple: Tuple,
    probability: f64,
    stamp: u64,
    #[serde(skip)]
    hash: u64,
}

impl fmt::Debug for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The hash is keyed per process: leaving it out keeps `Debug` repeatable.
        f.debug_struct("Entry")
            .field("tuple", &self.tuple)
            .field("probability", &self.probability)
            .field("stamp", &self.stamp)
            .finish()
    }
}

/// An index slot no entry occupies.
const FREE: u32 = u32::MAX;

impl Default for ProbabilisticAnswer {
    fn default() -> Self {
        ProbabilisticAnswer {
            entries: Vec::new(),
            index: Vec::new(),
            hash_mask: u64::MAX,
            distinct_calls: 0,
            empty_probability: 0.0,
            rendered: OnceLock::new(),
        }
    }
}

impl Clone for ProbabilisticAnswer {
    fn clone(&self) -> Self {
        ProbabilisticAnswer {
            entries: self.entries.clone(),
            index: self.index.clone(),
            hash_mask: self.hash_mask,
            distinct_calls: self.distinct_calls,
            empty_probability: self.empty_probability,
            rendered: OnceLock::new(),
        }
    }
}

impl fmt::Debug for ProbabilisticAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbabilisticAnswer")
            .field("entries", &self.entries)
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

    /// An empty answer in which every row hashes alike, so every probe walks one chain and
    /// only the cell-by-cell comparison tells answers apart.  For tests of that comparison.
    #[doc(hidden)]
    #[must_use]
    pub fn with_colliding_hashes() -> Self {
        ProbabilisticAnswer {
            hash_mask: 0,
            ..ProbabilisticAnswer::default()
        }
    }

    /// Where a row with this (masked) hash is, or goes: `Ok(entry)` for the entry `is_match`
    /// accepts, `Err(slot)` for the free index slot that ends its chain.  The index must have
    /// a free slot ([`reserve_one`](ProbabilisticAnswer::reserve_one)).
    fn probe(&self, hash: u64, is_match: impl Fn(&Tuple) -> bool) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.index[slot] {
                FREE => return Err(slot),
                entry => {
                    let stored = &self.entries[entry as usize];
                    if stored.hash == hash && is_match(&stored.tuple) {
                        return Ok(entry as usize);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Keeps the index at most half full with one more entry in it.
    fn reserve_one(&mut self) {
        if (self.entries.len() + 1) * 2 <= self.index.len() {
            return;
        }
        let mask = (self.index.len() * 2).max(16) - 1;
        self.index.clear();
        self.index.resize(mask + 1, FREE);
        for (entry, stored) in self.entries.iter().enumerate() {
            let mut slot = stored.hash as usize & mask;
            while self.index[slot] != FREE {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = entry as u32; // `push` let no entry past `u32`
        }
    }

    /// Appends an entry whose probe ended at the free `slot`.
    fn push(&mut self, slot: usize, entry: Entry) {
        let at = u32::try_from(self.entries.len())
            .ok()
            .filter(|&at| at != FREE);
        self.index[slot] = at.expect("fewer than 2^32 - 1 answers");
        self.entries.push(entry);
    }

    /// The entry holding `tuple`, if any.
    fn entry_of(&self, tuple: &Tuple) -> Option<&Entry> {
        if self.entries.is_empty() {
            return None;
        }
        let hash = row_hash(tuple.iter()) & self.hash_mask;
        let found = self.probe(hash, |stored| stored == tuple).ok()?;
        Some(&self.entries[found])
    }

    /// Adds `probability` mass to a tuple (summing with any existing mass).
    pub fn add(&mut self, tuple: Tuple, probability: f64) {
        if probability <= 0.0 {
            return;
        }
        self.rendered.take();
        let hash = row_hash(tuple.iter()) & self.hash_mask;
        self.reserve_one();
        match self.probe(hash, |stored| *stored == tuple) {
            Ok(entry) => self.entries[entry].probability += probability,
            // Outside any `add_distinct` call: no call's stamp.
            Err(slot) => self.push(
                slot,
                Entry {
                    tuple,
                    probability,
                    stamp: 0,
                    hash,
                },
            ),
        }
    }

    /// Adds every tuple of an iterator with the same probability.
    pub fn add_all<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I, probability: f64) {
        for t in tuples {
            self.add(t, probability);
        }
    }

    /// Adds the *distinct* answer tuples of one source-query result with the same probability,
    /// and returns how many tuples it had to build: the rows no earlier call had produced.
    ///
    /// Within a single mapping a tuple is either in the answer or not — producing it twice does
    /// not make it more likely — so duplicates inside one result contribute the mapping's
    /// probability only once (this mirrors the "remove duplicate tuples" step of the paper's
    /// Algorithm 4).  One probe per row: a tuple this call has already counted carries the
    /// call's stamp.
    pub fn add_distinct(&mut self, rows: AnswerRows<'_>, probability: f64) -> usize {
        self.add_distinct_slices([rows], probability)
    }

    /// [`add_distinct`](ProbabilisticAnswer::add_distinct) for a result that comes in several
    /// slices (one per shard): one call, one stamp, so a tuple several slices produce still
    /// counts once.
    pub(crate) fn add_distinct_slices<'r>(
        &mut self,
        slices: impl IntoIterator<Item = AnswerRows<'r>>,
        probability: f64,
    ) -> usize {
        if probability <= 0.0 {
            return 0;
        }
        self.rendered.take();
        self.distinct_calls += 1;
        let stamp = self.distinct_calls;
        let before = self.entries.len();
        for rows in slices {
            for (row, hash) in rows.hashes().into_iter().enumerate() {
                let hash = hash & self.hash_mask;
                self.reserve_one();
                match self.probe(hash, |stored| rows.matches(row, stored)) {
                    Ok(entry) => {
                        let seen = &mut self.entries[entry];
                        if seen.stamp != stamp {
                            seen.probability += probability;
                            seen.stamp = stamp;
                        }
                    }
                    Err(slot) => {
                        let tuple = rows.tuple(row);
                        self.push(
                            slot,
                            Entry {
                                tuple,
                                probability,
                                stamp,
                                hash,
                            },
                        );
                    }
                }
            }
        }
        self.entries.len() - before
    }

    /// Records that a mapping group with total probability `probability` produced no tuples.
    pub fn add_empty(&mut self, probability: f64) {
        self.rendered.take();
        self.empty_probability += probability.max(0.0);
    }

    /// Merges another answer into this one, in the other's insertion order.
    pub fn merge(&mut self, other: &ProbabilisticAnswer) {
        for (t, p) in other.iter() {
            self.add(t.clone(), p);
        }
        self.rendered.take();
        self.empty_probability += other.empty_probability;
    }

    /// The probability of a specific tuple (0 if absent).
    #[must_use]
    pub fn probability_of(&self, tuple: &Tuple) -> f64 {
        self.entry_of(tuple).map_or(0.0, |e| e.probability)
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

    /// The answers by descending probability (ties broken by tuple order, so the result is
    /// deterministic), borrowed: the one sort [`sorted`](ProbabilisticAnswer::sorted),
    /// [`top_k`](ProbabilisticAnswer::top_k) and the wire renderer share.
    #[must_use]
    pub fn sorted_refs(&self) -> Vec<(&Tuple, f64)> {
        let mut v: Vec<(&Tuple, f64)> = self.iter().collect();
        // Tuples are distinct keys, so the order is total and an unstable sort is exact.
        v.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v
    }

    /// [`sorted_refs`](ProbabilisticAnswer::sorted_refs), owned.
    #[must_use]
    pub fn sorted(&self) -> Vec<(Tuple, f64)> {
        self.top_k(usize::MAX)
    }

    /// The `k` most probable answers (exact semantics a top-k query must reproduce).
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<(Tuple, f64)> {
        let sorted = self.sorted_refs().into_iter().take(k);
        sorted.map(|(t, p)| (t.clone(), p)).collect()
    }

    /// The answer's rendering, memoized: `render` runs on the first call after construction or
    /// mutation, and every later call — from any holder of a shared `Arc` of this answer —
    /// returns the same string.  One slot: every caller must pass the same pure function of
    /// the answer's content (`urm-server`'s wire renderer is the one user).
    pub fn rendered_with(&self, render: impl FnOnce(&ProbabilisticAnswer) -> String) -> &str {
        self.rendered.get_or_init(|| render(self).into_boxed_str())
    }

    /// Iterates over `(tuple, probability)` pairs in the order the tuples were first added.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, f64)> {
        self.entries.iter().map(|e| (&e.tuple, e.probability))
    }

    /// The maximum probability of any answer tuple.
    #[must_use]
    pub fn max_probability(&self) -> f64 {
        self.iter().map(|(_, p)| p).fold(0.0, f64::max)
    }

    /// Total probability mass assigned to answers (can exceed 1: a single mapping may produce
    /// many tuples, each inheriting the full mapping probability), summed in insertion order.
    #[must_use]
    pub fn total_mass(&self) -> f64 {
        self.iter().map(|(_, p)| p).sum()
    }

    /// Checks equality with another answer up to a probability tolerance; used by the tests
    /// that verify all evaluation algorithms agree.
    #[must_use]
    pub fn approx_eq(&self, other: &ProbabilisticAnswer, tolerance: f64) -> bool {
        if self.entries.len() != other.entries.len() {
            return false;
        }
        self.iter().all(|(t, p)| {
            other
                .entry_of(t)
                .is_some_and(|q| (p - q.probability).abs() <= tolerance)
        })
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
    use urm_storage::Value;

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
        let built = ans.add_distinct(rows(&[t("a"), t("b"), t("a"), t("a")]), 0.3);
        assert_eq!(built, 2, "a tuple is built on a miss only");
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

    #[test]
    fn display_lists_answers() {
        let mut ans = ProbabilisticAnswer::new();
        ans.add(t("aaa"), 0.5);
        assert!(ans.to_string().contains("aaa"));
        assert!(ans.to_string().contains("0.5"));
    }
}
