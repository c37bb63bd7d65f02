//! Probabilistic query answers.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;
use urm_storage::Tuple;

/// The answer of a probabilistic query: a set of `(tuple, probability)` pairs, where duplicate
/// tuples produced under different mappings have had their probabilities summed
/// (Section III-B, the `aggregate` step).
#[derive(Default, Serialize, Deserialize)]
pub struct ProbabilisticAnswer {
    entries: HashMap<Tuple, Mass>,
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

impl Clone for ProbabilisticAnswer {
    fn clone(&self) -> Self {
        ProbabilisticAnswer {
            entries: self.entries.clone(),
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

/// A tuple's probability mass, and the last `add_distinct` call that added to it.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Mass {
    probability: f64,
    stamp: u64,
}

impl ProbabilisticAnswer {
    /// Creates an empty answer.
    #[must_use]
    pub fn new() -> Self {
        ProbabilisticAnswer::default()
    }

    /// Adds `probability` mass to a tuple (summing with any existing mass).
    pub fn add(&mut self, tuple: Tuple, probability: f64) {
        if probability <= 0.0 {
            return;
        }
        self.rendered.take();
        self.entries.entry(tuple).or_default().probability += probability;
    }

    /// Adds every tuple of an iterator with the same probability.
    pub fn add_all<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I, probability: f64) {
        for t in tuples {
            self.add(t, probability);
        }
    }

    /// Adds the *distinct* tuples of one source-query result with the same probability.
    ///
    /// Within a single mapping a tuple is either in the answer or not — producing it twice does
    /// not make it more likely — so duplicates inside one result contribute the mapping's
    /// probability only once (this mirrors the "remove duplicate tuples" step of the paper's
    /// Algorithm 4).  One hash probe per tuple: a tuple this call has already counted carries
    /// the call's stamp.
    pub fn add_distinct<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I, probability: f64) {
        if probability <= 0.0 {
            return;
        }
        self.rendered.take();
        self.distinct_calls += 1;
        let stamp = self.distinct_calls;
        for tuple in tuples {
            match self.entries.entry(tuple) {
                Entry::Occupied(mut seen) => {
                    let mass = seen.get_mut();
                    if mass.stamp != stamp {
                        mass.probability += probability;
                        mass.stamp = stamp;
                    }
                }
                Entry::Vacant(new) => {
                    new.insert(Mass { probability, stamp });
                }
            }
        }
    }

    /// Records that a mapping group with total probability `probability` produced no tuples.
    pub fn add_empty(&mut self, probability: f64) {
        self.rendered.take();
        self.empty_probability += probability.max(0.0);
    }

    /// Merges another answer into this one.
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
        self.entries.get(tuple).map_or(0.0, |m| m.probability)
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

    /// Iterates over `(tuple, probability)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, f64)> {
        self.entries.iter().map(|(t, m)| (t, m.probability))
    }

    /// The maximum probability of any answer tuple.
    #[must_use]
    pub fn max_probability(&self) -> f64 {
        self.iter().map(|(_, p)| p).fold(0.0, f64::max)
    }

    /// Total probability mass assigned to answers (can exceed 1: a single mapping may produce
    /// many tuples, each inheriting the full mapping probability).
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
                .entries
                .get(t)
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
        ans.add_distinct([t("a"), t("b"), t("a"), t("a")], 0.3);
        ans.add_distinct([t("b"), t("c"), t("b")], 0.2);
        ans.add_distinct([t("a"), t("a")], 0.0);
        assert_eq!(ans.len(), 3);
        assert_eq!(ans.probability_of(&t("a")), 0.3);
        assert_eq!(ans.probability_of(&t("b")), 0.3 + 0.2);
        assert_eq!(ans.probability_of(&t("c")), 0.2);
        // Plain `add` is outside any call: the next call still counts the tuple once.
        ans.add(t("c"), 0.1);
        ans.add_distinct([t("c"), t("c")], 0.4);
        assert_eq!(ans.probability_of(&t("c")), 0.2 + 0.1 + 0.4);
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
        ans.add_distinct([t("c"), t("c")], 0.25);
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
