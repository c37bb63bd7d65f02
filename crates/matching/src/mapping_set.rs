//! Sets of possible mappings with normalised probabilities.

use crate::murty::k_best_assignments;
use crate::{Correspondence, Mapping, MatchingError, MatchingResult, SimilarityMatrix};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use urm_storage::AttrRef;

/// The uncertain matching `M = {m_1, …, m_h}`: mutually exclusive possible mappings whose
/// probabilities sum to one.
///
/// Beside the mappings the set keeps the paper's partition input as integers: it numbers the
/// target attributes its mappings cover (sorted) and the distinct source attributes they use
/// (from 1, in order of first appearance), and holds an `h × targets` matrix whose cell
/// `(i, j)` is the id of the source attribute mapping `i` assigns to target attribute `j` — 0
/// where `m_i` leaves it unmatched.  Two mappings translate a set of target attributes alike
/// exactly when their rows agree at those columns, so partitioning
/// ([`source_row`](MappingSet::source_row)) compares `u16`s, not attribute names.  Every
/// constructor builds the matrix, and no method mutates the mappings, so it always describes
/// them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingSet {
    mappings: Vec<Mapping>,
    /// The target attributes some mapping covers, sorted: the matrix's columns.
    targets: Vec<AttrRef>,
    /// The source attributes some mapping uses, in order of first appearance: id `i + 1` is
    /// `sources[i]`.
    sources: Vec<AttrRef>,
    /// The matrix, row by row: `targets.len()` source ids per mapping.
    source_ids: Vec<u16>,
}

impl MappingSet {
    /// Wraps a list of mappings, normalising their probabilities so they sum to one.
    ///
    /// Mirrors the paper's probability model: `Pr(m_i)` is `m_i`'s similarity score divided by
    /// the total score of the `h` retained mappings.  If every probability is zero the mappings
    /// are weighted by score instead; if scores are also all zero a uniform distribution is
    /// used.
    ///
    /// # Panics
    ///
    /// If the mappings use more than `u16::MAX` distinct source attributes (the matrix's ids
    /// are `u16`s); [`top_h`](MappingSet::top_h) and
    /// [`from_explicit`](MappingSet::from_explicit) return
    /// [`MatchingError::TooManySourceAttributes`] instead.
    #[must_use]
    pub fn new(mappings: Vec<Mapping>) -> Self {
        MappingSet::normalised(mappings).expect("at most u16::MAX distinct source attributes")
    }

    /// [`new`](MappingSet::new), or the error of a set too wide for the matrix.
    fn normalised(mut mappings: Vec<Mapping>) -> MatchingResult<Self> {
        let prob_sum: f64 = mappings.iter().map(Mapping::probability).sum();
        if prob_sum > 0.0 {
            for m in &mut mappings {
                let p = m.probability() / prob_sum;
                m.set_probability(p);
            }
        } else {
            let score_sum: f64 = mappings.iter().map(Mapping::score).sum();
            let n = mappings.len().max(1) as f64;
            for m in &mut mappings {
                let p = if score_sum > 0.0 {
                    m.score() / score_sum
                } else {
                    1.0 / n
                };
                m.set_probability(p);
            }
        }
        MappingSet::indexed(mappings)
    }

    /// Builds a mapping set directly from explicit `(mapping, probability)` data without
    /// renormalising — used by tests that replay the paper's worked examples verbatim.
    /// Returns an error if the probabilities do not sum to 1 (within 1e-6).
    pub fn from_explicit(mappings: Vec<Mapping>) -> MatchingResult<Self> {
        let sum: f64 = mappings.iter().map(Mapping::probability).sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(MatchingError::InvalidDistribution { sum });
        }
        MappingSet::indexed(mappings)
    }

    /// Wraps `mappings` as they are, numbering their attributes and filling the source-id
    /// matrix — or fails if they use more than `u16::MAX` distinct source attributes.
    fn indexed(mappings: Vec<Mapping>) -> MatchingResult<Self> {
        let mut targets: Vec<&AttrRef> = Vec::new();
        let mut columns: HashMap<&AttrRef, usize> = HashMap::new();
        let mut sources: Vec<&AttrRef> = Vec::new();
        let mut ids: HashMap<&AttrRef, u16> = HashMap::new();
        // Per pair in mapping order: its column in order of first appearance, and its id.
        let mut cells: Vec<(usize, u16)> = Vec::new();
        for (target, source) in mappings.iter().flat_map(Mapping::pairs) {
            let column = *columns.entry(target).or_insert_with(|| {
                targets.push(target);
                targets.len() - 1
            });
            let id = match ids.entry(source) {
                Entry::Occupied(known) => *known.get(),
                Entry::Vacant(new) => {
                    sources.push(source);
                    let id = u16::try_from(sources.len()).map_err(|_| {
                        MatchingError::TooManySourceAttributes {
                            limit: usize::from(u16::MAX),
                        }
                    })?;
                    *new.insert(id)
                }
            };
            cells.push((column, id));
        }
        // Columns in target order.
        let mut order: Vec<usize> = (0..targets.len()).collect();
        order.sort_unstable_by_key(|&column| targets[column]);
        let mut sorted_column = vec![0; order.len()];
        for (at, &column) in order.iter().enumerate() {
            sorted_column[column] = at;
        }
        let width = targets.len();
        let mut source_ids = vec![0u16; mappings.len() * width];
        let mut cells = cells.into_iter();
        for (index, mapping) in mappings.iter().enumerate() {
            for (column, id) in cells.by_ref().take(mapping.len()) {
                source_ids[index * width + sorted_column[column]] = id;
            }
        }
        let targets = order
            .iter()
            .map(|&column| targets[column].clone())
            .collect();
        let sources = sources.into_iter().cloned().collect();
        Ok(MappingSet {
            mappings,
            targets,
            sources,
            source_ids,
        })
    }

    /// Generates the `h` highest-scoring possible mappings from a similarity matrix, with
    /// probabilities normalised over the retained mappings (Section II / [9]).
    pub fn top_h(sim: &SimilarityMatrix, h: usize) -> MatchingResult<Self> {
        if h == 0 {
            return Err(MatchingError::InvalidMappingCount {
                requested: 0,
                reason: "h must be positive".into(),
            });
        }
        if sim.positive_entries() == 0 {
            return Err(MatchingError::EmptySimilarity);
        }
        let (rows, cols) = sim.dims();
        let weights: Vec<Vec<f64>> = (0..rows)
            .map(|r| (0..cols).map(|c| sim.score_at(r, c)).collect())
            .collect();
        let ranked = k_best_assignments(&weights, h);
        if ranked.is_empty() {
            return Err(MatchingError::EmptySimilarity);
        }
        let mappings: Vec<Mapping> = ranked
            .into_iter()
            .enumerate()
            .map(|(i, ranked)| {
                let correspondences: Vec<Correspondence> = ranked
                    .pairs
                    .iter()
                    .map(|&(r, c)| {
                        Correspondence::new(
                            sim.source_attrs()[r].clone(),
                            sim.target_attrs()[c].clone(),
                            sim.score_at(r, c),
                        )
                    })
                    .collect();
                // Probability proportional to score; `MappingSet::new` normalises.
                Mapping::new(i + 1, correspondences, ranked.total_weight)
            })
            .collect();
        MappingSet::normalised(mappings)
    }

    /// Number of mappings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// The mappings in rank order.
    #[must_use]
    pub fn mappings(&self) -> &[Mapping] {
        &self.mappings
    }

    /// Iterates over the mappings.
    pub fn iter(&self) -> impl Iterator<Item = &Mapping> {
        self.mappings.iter()
    }

    /// The mapping with a given id.
    #[must_use]
    pub fn by_id(&self, id: usize) -> Option<&Mapping> {
        self.mappings.iter().find(|m| m.id() == id)
    }

    /// Sum of probabilities (should always be 1 up to rounding).
    #[must_use]
    pub fn probability_sum(&self) -> f64 {
        self.mappings.iter().map(Mapping::probability).sum()
    }

    /// Validates the invariants of the data model: probabilities form a distribution and every
    /// mapping is one-to-one.
    pub fn validate(&self) -> MatchingResult<()> {
        let sum = self.probability_sum();
        if self.is_empty() || (sum - 1.0).abs() > 1e-6 {
            return Err(MatchingError::InvalidDistribution { sum });
        }
        for m in &self.mappings {
            if !m.is_one_to_one() {
                return Err(MatchingError::NotOneToOne {
                    attribute: m
                        .correspondences()
                        .first()
                        .map(|c| c.source.qualified())
                        .unwrap_or_default(),
                });
            }
        }
        Ok(())
    }

    /// The o-ratio of the whole set: the average pairwise o-ratio (Section VIII-B.1).
    #[must_use]
    pub fn o_ratio(&self) -> f64 {
        crate::oratio::average_o_ratio(&self.mappings)
    }

    /// Keeps only the first `n` mappings (by rank) and renormalises; used by the experiment
    /// sweeps over the number of mappings.
    #[must_use]
    pub fn truncated(&self, n: usize) -> MappingSet {
        MappingSet::new(self.mappings.iter().take(n).cloned().collect())
    }

    /// All target attributes covered by at least one mapping, sorted: the columns of the
    /// source-id matrix.
    #[must_use]
    pub fn covered_target_attributes(&self) -> &[AttrRef] {
        &self.targets
    }

    /// The source attributes the mappings use, in order of first appearance (mapping by
    /// mapping, each by target attribute): source id `i + 1` names `source_attributes()[i]`.
    #[must_use]
    pub fn source_attributes(&self) -> &[AttrRef] {
        &self.sources
    }

    /// The matrix column of a target attribute, or `None` when no mapping covers it.
    #[must_use]
    pub fn target_column(&self, target: &AttrRef) -> Option<usize> {
        self.targets.binary_search(target).ok()
    }

    /// Mapping `index`'s row of the source-id matrix: per covered target attribute, in
    /// [`covered_target_attributes`](MappingSet::covered_target_attributes) order, the id of
    /// the source attribute the mapping assigns to it, or 0 if it leaves it unmatched.
    ///
    /// # Panics
    ///
    /// If `index` is not a mapping's position.
    #[must_use]
    pub fn source_row(&self, index: usize) -> &[u16] {
        assert!(
            index < self.mappings.len(),
            "mapping {index} of {}",
            self.mappings.len()
        );
        let width = self.targets.len();
        &self.source_ids[index * width..][..width]
    }
}

impl fmt::Display for MappingSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} possible mappings (o-ratio {:.2})",
            self.len(),
            self.o_ratio()
        )?;
        for m in &self.mappings {
            writeln!(f, "  {m}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemaDef;

    fn paper_similarity() -> SimilarityMatrix {
        // The Customer ↔ Person part of Figure 1.
        let source = SchemaDef::new("S").with_relation(
            "Customer",
            ["cname", "ophone", "hphone", "mobile", "oaddr", "haddr"],
        );
        let target = SchemaDef::new("T").with_relation("Person", ["pname", "phone", "addr"]);
        let mut sim = SimilarityMatrix::new(&source, &target);
        sim.set(("Customer", "cname"), ("Person", "pname"), 0.85);
        sim.set(("Customer", "ophone"), ("Person", "phone"), 0.85);
        sim.set(("Customer", "hphone"), ("Person", "phone"), 0.83);
        sim.set(("Customer", "mobile"), ("Person", "phone"), 0.65);
        sim.set(("Customer", "oaddr"), ("Person", "addr"), 0.81);
        sim.set(("Customer", "haddr"), ("Person", "addr"), 0.75);
        sim
    }

    #[test]
    fn top_h_produces_h_distinct_normalised_mappings() {
        let sim = paper_similarity();
        let set = MappingSet::top_h(&sim, 5).unwrap();
        assert_eq!(set.len(), 5);
        set.validate().unwrap();
        assert!((set.probability_sum() - 1.0).abs() < 1e-9);
        // Mappings are ranked by score: the first one uses the best correspondences.
        let best = &set.mappings()[0];
        assert!(best.contains_pair(
            &AttrRef::new("Customer", "cname"),
            &AttrRef::new("Person", "pname")
        ));
        assert!(best.contains_pair(
            &AttrRef::new("Customer", "ophone"),
            &AttrRef::new("Person", "phone")
        ));
        // Scores are non-increasing with rank.
        for w in set.mappings().windows(2) {
            assert!(w[0].score() >= w[1].score());
        }
    }

    #[test]
    fn a_degenerate_matrix_of_equal_scores_cannot_hang() {
        // 10! matchings tie at the top weight; the boundary tie bound stops the enumeration.
        let attrs: Vec<String> = (0..10).map(|i| format!("a{i}")).collect();
        let source = SchemaDef::new("S").with_relation("R", attrs.clone());
        let target = SchemaDef::new("T").with_relation("Q", attrs.clone());
        let mut sim = SimilarityMatrix::new(&source, &target);
        for s in &attrs {
            for t in &attrs {
                sim.set(("R", s.as_str()), ("Q", t.as_str()), 0.5);
            }
        }
        let started = std::time::Instant::now();
        let set = MappingSet::top_h(&sim, 30).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(set.len(), 30);
        assert!(set.iter().all(|m| m.correspondences().len() == 10));
        assert!(elapsed.as_millis() < 100, "took {elapsed:?}");
    }

    #[test]
    fn top_h_mappings_overlap_heavily() {
        // The phenomenon the paper exploits: possible mappings share most correspondences.
        let sim = paper_similarity();
        let set = MappingSet::top_h(&sim, 5).unwrap();
        assert!(set.o_ratio() > 0.3, "o-ratio was {}", set.o_ratio());
    }

    #[test]
    fn probabilities_follow_scores() {
        let sim = paper_similarity();
        let set = MappingSet::top_h(&sim, 3).unwrap();
        let m = set.mappings();
        assert!(m[0].probability() >= m[1].probability());
        assert!(m[1].probability() >= m[2].probability());
    }

    #[test]
    fn zero_h_and_empty_similarity_are_errors() {
        let sim = paper_similarity();
        assert!(matches!(
            MappingSet::top_h(&sim, 0),
            Err(MatchingError::InvalidMappingCount { .. })
        ));
        let source = SchemaDef::new("S").with_relation("R", ["a"]);
        let target = SchemaDef::new("T").with_relation("Q", ["b"]);
        let empty = SimilarityMatrix::new(&source, &target);
        assert!(matches!(
            MappingSet::top_h(&empty, 3),
            Err(MatchingError::EmptySimilarity)
        ));
    }

    #[test]
    fn from_explicit_validates_distribution() {
        use crate::mapping::Mapping;
        let m1 = Mapping::new(
            1,
            vec![Correspondence::from_parts(("C", "a"), ("T", "x"), 0.9)],
            0.6,
        );
        let m2 = Mapping::new(
            2,
            vec![Correspondence::from_parts(("C", "b"), ("T", "x"), 0.8)],
            0.4,
        );
        let ok = MappingSet::from_explicit(vec![m1.clone(), m2.clone()]).unwrap();
        ok.validate().unwrap();
        let bad = MappingSet::from_explicit(vec![m1, {
            let mut m = m2;
            m.set_probability(0.1);
            m
        }]);
        assert!(matches!(
            bad,
            Err(MatchingError::InvalidDistribution { .. })
        ));
    }

    #[test]
    fn more_source_attributes_than_ids_is_an_error() {
        use crate::mapping::Mapping;
        // 2^16 one-pair mappings of probability 2^-16: source `i` of mapping `i`, except that
        // with `repeat` the last mapping reuses the first source.
        let set = |repeat: bool| {
            let mappings = (0..=usize::from(u16::MAX)).map(|i| {
                let source = if repeat && i == usize::from(u16::MAX) {
                    0
                } else {
                    i
                };
                let source = format!("s{source}");
                let pair = Correspondence::from_parts(("C", source.as_str()), ("T", "x"), 0.5);
                Mapping::new(i + 1, vec![pair], 1.0 / 65_536.0)
            });
            MappingSet::from_explicit(mappings.collect())
        };
        let widest = set(true).unwrap();
        assert_eq!(widest.source_attributes().len(), usize::from(u16::MAX));
        assert_eq!(widest.source_row(usize::from(u16::MAX)), [1]);
        assert!(matches!(
            set(false),
            Err(MatchingError::TooManySourceAttributes { limit: 65_535 })
        ));
    }

    #[test]
    fn truncated_renormalises() {
        let sim = paper_similarity();
        let set = MappingSet::top_h(&sim, 5).unwrap();
        let short = set.truncated(2);
        assert_eq!(short.len(), 2);
        assert!((short.probability_sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn covered_target_attributes_union() {
        let sim = paper_similarity();
        let set = MappingSet::top_h(&sim, 5).unwrap();
        let covered = set.covered_target_attributes();
        assert!(covered.contains(&AttrRef::new("Person", "phone")));
        assert!(covered.contains(&AttrRef::new("Person", "addr")));
    }

    #[test]
    fn the_matrix_numbers_targets_and_sources_and_holds_each_assignment() {
        let set = MappingSet::top_h(&paper_similarity(), 5).unwrap();
        let targets: Vec<String> = set
            .covered_target_attributes()
            .iter()
            .map(AttrRef::qualified)
            .collect();
        assert_eq!(targets, ["Person.addr", "Person.phone", "Person.pname"]);
        let sources = set.source_attributes();
        let first = set.mappings()[0].pairs().map(|(_, source)| source);
        assert!(first.eq(&sources[..set.mappings()[0].len()]));
        assert_eq!(set.target_column(&AttrRef::new("Person", "phone")), Some(1));
        assert_eq!(set.target_column(&AttrRef::new("Person", "gender")), None);
        for (index, mapping) in set.iter().enumerate() {
            let row = set.source_row(index);
            assert_eq!(row.len(), 3);
            for (target, &id) in set.covered_target_attributes().iter().zip(row) {
                let source = (id > 0).then(|| &sources[usize::from(id) - 1]);
                assert_eq!(source, mapping.source_for(target));
            }
        }
    }

    #[test]
    fn display_mentions_count() {
        let sim = paper_similarity();
        let set = MappingSet::top_h(&sim, 2).unwrap();
        assert!(set.to_string().contains("2 possible mappings"));
    }
}
