//! Probabilistic query answers.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use urm_storage::Tuple;

/// The answer of a probabilistic query: a set of `(tuple, probability)` pairs, where duplicate
/// tuples produced under different mappings have had their probabilities summed
/// (Section III-B, the `aggregate` step).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProbabilisticAnswer {
    entries: HashMap<Tuple, Mass>,
    /// Number of [`add_distinct`](ProbabilisticAnswer::add_distinct) calls so far: the stamp
    /// the current call leaves on every tuple it has already counted.
    distinct_calls: u64,
    /// Probability mass of mappings whose source query returned no tuples (the paper's null
    /// tuple `θ`).  Kept for diagnostics; not part of the reported answers.
    empty_probability: f64,
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
        self.empty_probability += probability.max(0.0);
    }

    /// Merges another answer into this one.
    pub fn merge(&mut self, other: &ProbabilisticAnswer) {
        for (t, p) in other.iter() {
            self.add(t.clone(), p);
        }
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

    /// The answers sorted by descending probability (ties broken by tuple order, so the result
    /// is deterministic).
    #[must_use]
    pub fn sorted(&self) -> Vec<(Tuple, f64)> {
        let mut v: Vec<(Tuple, f64)> = self.iter().map(|(t, p)| (t.clone(), p)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// The `k` most probable answers (exact semantics a top-k query must reproduce).
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<(Tuple, f64)> {
        let mut v = self.sorted();
        v.truncate(k);
        v
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
        for (t, p) in self.sorted() {
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
