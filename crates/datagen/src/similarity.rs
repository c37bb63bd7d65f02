//! A deterministic attribute-name similarity scorer standing in for COMA++.
//!
//! COMA++ combines several name- and structure-based matchers plus a synonym dictionary to
//! score attribute pairs.  The scorer here reproduces the behaviour that matters for the paper:
//! a dense-enough set of scored correspondences in which each target attribute typically has a
//! handful of plausible source candidates with close scores (phones, addresses, prices, order
//! numbers), so that the top-h bipartite mappings overlap heavily yet differ on exactly those
//! ambiguous attributes.
//!
//! The score of a pair of attribute names is a weighted mix of token overlap (after camel-case
//! splitting and synonym normalisation) and character-trigram overlap.

use std::collections::BTreeSet;
use urm_matching::{MatchingResult, SchemaDef, SimilarityMatrix};

/// Splits a `camelCase`/`snake_case` identifier into lower-case tokens.
#[must_use]
pub fn tokenize(name: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in name.chars() {
        if ch == '_' || ch == '-' || ch == ' ' || ch == '.' {
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        } else if ch.is_uppercase() && !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
            current.push(ch.to_ascii_lowercase());
        } else {
            current.push(ch.to_ascii_lowercase());
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Maps a token to its canonical concept (a tiny synonym dictionary, as COMA++ uses).
#[must_use]
pub fn canonical(token: &str) -> &str {
    match token {
        "telephone" | "phone" | "tel" | "mobile" | "fax" => "phone",
        "address" | "addr" | "street" | "city" => "address",
        "price" | "amount" | "cost" => "price",
        "num" | "number" | "no" | "id" | "ref" => "num",
        "item" | "part" | "product" => "item",
        "order" | "po" | "purchase" => "order",
        "customer" | "cust" | "client" => "customer",
        "supplier" | "supp" | "vendor" => "supplier",
        "name" | "title" => "name",
        "deliver" | "ship" | "delivery" => "deliver",
        "invoice" | "bill" => "bill",
        "nation" | "country" => "nation",
        "qty" | "quantity" => "quantity",
        "status" | "state" => "status",
        "priority" | "urgency" => "priority",
        other => other,
    }
}

fn token_set(name: &str) -> BTreeSet<String> {
    tokenize(name)
        .iter()
        .map(|t| canonical(t).to_string())
        .collect()
}

fn trigrams(name: &str) -> BTreeSet<String> {
    let lower: Vec<char> = name.to_ascii_lowercase().chars().collect();
    if lower.len() < 3 {
        return std::iter::once(lower.iter().collect::<String>()).collect();
    }
    lower.windows(3).map(|w| w.iter().collect()).collect()
}

fn jaccard<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    inter / union
}

fn dice<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count() as f64;
    2.0 * inter / (a.len() + b.len()) as f64
}

/// An attribute name prepared once for scoring against many others.
struct PreparedName<'a> {
    name: &'a str,
    tokens: BTreeSet<String>,
    trigrams: BTreeSet<String>,
}

impl<'a> PreparedName<'a> {
    fn new(name: &'a str) -> Self {
        PreparedName {
            name,
            tokens: token_set(name),
            trigrams: trigrams(name),
        }
    }

    /// Similarity to another prepared name, in `[0, 1]`.
    fn similarity(&self, other: &PreparedName<'_>) -> f64 {
        if self.name.eq_ignore_ascii_case(other.name) {
            return 1.0;
        }
        let token_score = jaccard(&self.tokens, &other.tokens);
        let trigram_score = dice(&self.trigrams, &other.trigrams);
        0.65 * token_score + 0.35 * trigram_score
    }
}

/// Similarity between two attribute names, in `[0, 1]`.
#[must_use]
pub fn name_similarity(source: &str, target: &str) -> f64 {
    PreparedName::new(source).similarity(&PreparedName::new(target))
}

/// Default minimum similarity for a correspondence to be reported (the matcher's cut-off).
pub const DEFAULT_THRESHOLD: f64 = 0.30;

/// Builds the full similarity matrix between a source and a target schema, keeping only pairs
/// scoring at least `threshold`.  Each attribute name is prepared once, not once per pair.
pub fn score_schemas(
    source: &SchemaDef,
    target: &SchemaDef,
    threshold: f64,
) -> MatchingResult<SimilarityMatrix> {
    let mut sim = SimilarityMatrix::new(source, target);
    let targets = target.all_attributes();
    let prepared: Vec<PreparedName> = targets.iter().map(|t| PreparedName::new(&t.attr)).collect();
    for s in source.all_attributes() {
        let s_name = PreparedName::new(&s.attr);
        for (t, t_name) in targets.iter().zip(&prepared) {
            let score = s_name.similarity(t_name);
            if score >= threshold {
                sim.try_set(&s, t, score)?;
            }
        }
    }
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{source::source_schema_def, targets};
    use urm_matching::MappingSet;
    use urm_storage::AttrRef;

    #[test]
    fn tokenizer_splits_camel_case_and_separators() {
        assert_eq!(tokenize("billToAddress"), vec!["bill", "to", "address"]);
        assert_eq!(tokenize("order_num"), vec!["order", "num"]);
        assert_eq!(tokenize("telephone"), vec!["telephone"]);
    }

    #[test]
    fn identical_names_score_one() {
        assert_eq!(name_similarity("telephone", "telephone"), 1.0);
        assert_eq!(name_similarity("OrderNum", "ordernum"), 1.0);
    }

    #[test]
    fn synonym_families_create_ambiguity() {
        // The target attribute `telephone` must have several plausible source candidates with
        // the exact name ranked first.
        let exact = name_similarity("telephone", "telephone");
        let home = name_similarity("homePhone", "telephone");
        let supp = name_similarity("suppPhone", "telephone");
        let unrelated = name_similarity("brand", "telephone");
        assert!(exact > home && home > 0.3, "home={home}");
        assert!(supp > 0.3, "supp={supp}");
        assert!(unrelated < 0.3, "unrelated={unrelated}");
    }

    #[test]
    fn price_and_order_number_families() {
        assert!(name_similarity("unitPrice", "price") > 0.3);
        assert!(name_similarity("retailPrice", "price") > 0.3);
        assert!(name_similarity("orderNum", "orderNum") == 1.0);
        assert!(name_similarity("itemOrderNum", "orderNum") > 0.3);
        assert!(name_similarity("shipOrderNum", "orderNum") > 0.3);
    }

    #[test]
    fn scoring_tpch_vs_excel_produces_a_rich_matrix() {
        let sim =
            score_schemas(&source_schema_def(), &targets::excel(), DEFAULT_THRESHOLD).unwrap();
        // COMA++ reported 34 correspondences for Excel; our scorer should find a comparable
        // (same order of magnitude) number of scored pairs, with ambiguity on the workload
        // attributes.
        assert!(sim.positive_entries() >= 30, "{}", sim.positive_entries());
        let telephone = AttrRef::new("PO", "telephone");
        let candidates: usize = sim
            .source_attrs()
            .iter()
            .filter(|s| sim.get(s, &telephone).unwrap() > 0.0)
            .count();
        assert!(
            candidates >= 2,
            "telephone needs ambiguity, got {candidates}"
        );
    }

    fn shipped_similarities() -> Vec<(&'static str, SimilarityMatrix)> {
        [
            ("Excel", targets::excel()),
            ("Noris", targets::noris()),
            ("Paragon", targets::paragon()),
        ]
        .into_iter()
        .map(|(name, target)| {
            let sim = score_schemas(&source_schema_def(), &target, DEFAULT_THRESHOLD).unwrap();
            (name, sim)
        })
        .collect()
    }

    #[test]
    fn score_schemas_equals_name_similarity_bit_for_bit() {
        let source = source_schema_def();
        for target in [targets::excel(), targets::noris(), targets::paragon()] {
            let sim = score_schemas(&source, &target, 0.0).unwrap();
            for s in sim.source_attrs() {
                for t in sim.target_attrs() {
                    let cell = sim.get(s, t).unwrap();
                    let pair = name_similarity(&s.attr, &t.attr);
                    assert_eq!(cell.to_bits(), pair.to_bits(), "{s} ↔ {t}");
                }
            }
        }
    }

    #[test]
    fn top_h_ranking_never_increases_on_the_shipped_schemas() {
        for (name, sim) in shipped_similarities() {
            for h in [30, 60] {
                let set = MappingSet::top_h(&sim, h).unwrap();
                assert_eq!(set.len(), h);
                for w in set.mappings().windows(2) {
                    assert!(w[0].score() >= w[1].score(), "{name}, h = {h}: {w:?}");
                    assert!(w[0].probability() >= w[1].probability(), "{name}, h = {h}");
                }
            }
        }
    }

    #[test]
    fn top_h_is_prefix_stable_on_the_shipped_schemas() {
        for (name, sim) in shipped_similarities() {
            let short = MappingSet::top_h(&sim, 30).unwrap();
            let long = MappingSet::top_h(&sim, 60).unwrap();
            for (a, b) in short.iter().zip(long.iter()) {
                assert_eq!(a.id(), b.id(), "{name}");
                assert_eq!(
                    a.correspondences(),
                    b.correspondences(),
                    "{name}, m{}",
                    a.id()
                );
                assert_eq!(
                    a.score().to_bits(),
                    b.score().to_bits(),
                    "{name}, m{}",
                    a.id()
                );
            }
        }
    }

    #[test]
    fn thresholds_filter_low_scores() {
        let strict = score_schemas(&source_schema_def(), &targets::excel(), 0.9).unwrap();
        let loose = score_schemas(&source_schema_def(), &targets::excel(), 0.3).unwrap();
        assert!(strict.positive_entries() < loose.positive_entries());
    }
}
