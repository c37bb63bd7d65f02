//! Possible mappings.

use crate::murty::{score_units, UNITS_PER_SCORE};
use crate::Correspondence;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use urm_storage::AttrRef;

/// One possible mapping `m_i`: a one-to-one, partial set of correspondences between source and
/// target attributes, plus its similarity score and (normalised) probability of being correct.
///
/// Internally the mapping is indexed by *target* attribute, because query reformulation always
/// asks "which source attribute does this target attribute correspond to under `m_i`?".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    id: usize,
    /// target attribute → (source attribute, correspondence score)
    by_target: BTreeMap<AttrRef, (AttrRef, f64)>,
    score: f64,
    probability: f64,
}

impl Mapping {
    /// Builds a mapping from correspondences.  The caller is responsible for the one-to-one
    /// property; [`Mapping::is_one_to_one`] can verify it.
    #[must_use]
    pub fn new(id: usize, correspondences: Vec<Correspondence>, probability: f64) -> Self {
        let mut by_target = BTreeMap::new();
        let mut units = 0;
        for c in correspondences {
            units += score_units(c.score);
            by_target.insert(c.target, (c.source, c.score));
        }
        Mapping {
            id,
            by_target,
            score: units as f64 / UNITS_PER_SCORE,
            probability,
        }
    }

    /// The mapping's identifier (its rank in the top-h enumeration).
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The mapping's total similarity score, summed exactly in the integer units of
    /// [`crate::murty`] so that it does not depend on the order of the correspondences.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.score
    }

    /// The probability `Pr(m_i)` that this mapping is the correct one.
    #[must_use]
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Overrides the probability (used by the normalisation step of [`crate::MappingSet`]).
    pub fn set_probability(&mut self, p: f64) {
        self.probability = p;
    }

    /// Number of correspondences in the mapping.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_target.len()
    }

    /// Whether the mapping has no correspondences.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_target.is_empty()
    }

    /// The source attribute matched to a target attribute, if any (partial mappings may leave
    /// target attributes unmatched).
    #[must_use]
    pub fn source_for(&self, target: &AttrRef) -> Option<&AttrRef> {
        self.by_target.get(target).map(|(s, _)| s)
    }

    /// Whether this mapping contains the given `(source, target)` correspondence.
    #[must_use]
    pub fn contains_pair(&self, source: &AttrRef, target: &AttrRef) -> bool {
        self.by_target
            .get(target)
            .map(|(s, _)| s == source)
            .unwrap_or(false)
    }

    /// The correspondences of this mapping, sorted by target attribute.
    #[must_use]
    pub fn correspondences(&self) -> Vec<Correspondence> {
        self.by_target
            .iter()
            .map(|(t, (s, score))| Correspondence::new(s.clone(), t.clone(), *score))
            .collect()
    }

    /// The set of `(source, target)` pairs, used for o-ratio and set comparisons.
    #[must_use]
    pub fn pair_set(&self) -> BTreeSet<(AttrRef, AttrRef)> {
        self.by_target
            .iter()
            .map(|(t, (s, _))| (s.clone(), t.clone()))
            .collect()
    }

    /// The `(target, source)` attribute pairs of this mapping, sorted by target attribute.
    pub fn pairs(&self) -> impl Iterator<Item = (&AttrRef, &AttrRef)> {
        self.by_target.iter().map(|(t, (s, _))| (t, s))
    }

    /// Verifies the one-to-one property: no source attribute is matched to two target
    /// attributes (the map structure already guarantees uniqueness per target).
    #[must_use]
    pub fn is_one_to_one(&self) -> bool {
        let mut sources = BTreeSet::new();
        self.by_target
            .values()
            .all(|(s, _)| sources.insert(s.clone()))
    }

    /// The o-ratio (Jaccard overlap of correspondence pairs) between two mappings, as defined in
    /// Section VIII-B.1: `|m_i ∩ m_j| / |m_i ∪ m_j|`.
    #[must_use]
    pub fn o_ratio(&self, other: &Mapping) -> f64 {
        let a = self.pair_set();
        let b = other.pair_set();
        let union = a.union(&b).count();
        if union == 0 {
            return 1.0;
        }
        let inter = a.intersection(&b).count();
        inter as f64 / union as f64
    }

    /// Restricts the mapping to the correspondences whose target attribute is in `targets`.
    ///
    /// q-sharing partitions mappings by how they translate *the attributes used in the query*;
    /// this helper builds that projection.
    #[must_use]
    pub fn restricted_to(&self, targets: &[AttrRef]) -> Vec<(AttrRef, AttrRef)> {
        targets
            .iter()
            .filter_map(|t| self.by_target.get(t).map(|(s, _)| (t.clone(), s.clone())))
            .collect()
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{} (Pr={:.3}):", self.id, self.probability)?;
        for (t, (s, _)) in &self.by_target {
            write!(f, " ({}, {})", s, t)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mappings of Figure 3 in the paper (restricted to the phone/addr/name attributes).
    pub(crate) fn figure3_mapping(id: usize, prob: f64, pairs: &[(&str, &str)]) -> Mapping {
        let correspondences = pairs
            .iter()
            .map(|(s, t)| {
                Correspondence::new(
                    AttrRef::new("Customer", s.to_string()),
                    AttrRef::new("Person", t.to_string()),
                    0.8,
                )
            })
            .collect();
        Mapping::new(id, correspondences, prob)
    }

    #[test]
    fn source_for_resolves_correspondences() {
        let m1 = figure3_mapping(
            1,
            0.3,
            &[("cname", "pname"), ("ophone", "phone"), ("oaddr", "addr")],
        );
        assert_eq!(
            m1.source_for(&AttrRef::new("Person", "phone")),
            Some(&AttrRef::new("Customer", "ophone"))
        );
        assert_eq!(m1.source_for(&AttrRef::new("Person", "gender")), None);
        assert!(m1.contains_pair(
            &AttrRef::new("Customer", "oaddr"),
            &AttrRef::new("Person", "addr")
        ));
        assert!(!m1.contains_pair(
            &AttrRef::new("Customer", "haddr"),
            &AttrRef::new("Person", "addr")
        ));
        assert_eq!(m1.len(), 3);
        assert!(m1.is_one_to_one());
    }

    #[test]
    fn o_ratio_matches_hand_computation() {
        // m1 and m3 of Figure 3 share (cname,pname) and (ophone,phone) out of 4 distinct pairs.
        let m1 = figure3_mapping(
            1,
            0.3,
            &[("cname", "pname"), ("ophone", "phone"), ("oaddr", "addr")],
        );
        let m3 = figure3_mapping(
            3,
            0.2,
            &[("cname", "pname"), ("ophone", "phone"), ("haddr", "addr")],
        );
        assert!((m1.o_ratio(&m3) - 2.0 / 4.0).abs() < 1e-9);
        // o-ratio is symmetric and 1 on identical mappings.
        assert_eq!(m1.o_ratio(&m3), m3.o_ratio(&m1));
        assert_eq!(m1.o_ratio(&m1), 1.0);
    }

    #[test]
    fn o_ratio_of_disjoint_mappings_is_zero() {
        let a = figure3_mapping(1, 0.5, &[("cname", "pname")]);
        let b = figure3_mapping(2, 0.5, &[("ophone", "phone")]);
        assert_eq!(a.o_ratio(&b), 0.0);
    }

    #[test]
    fn restricted_to_keeps_only_query_attributes() {
        let m = figure3_mapping(
            1,
            0.3,
            &[("cname", "pname"), ("ophone", "phone"), ("oaddr", "addr")],
        );
        let restriction = m.restricted_to(&[
            AttrRef::new("Person", "phone"),
            AttrRef::new("Person", "gender"),
        ]);
        assert_eq!(restriction.len(), 1);
        assert_eq!(restriction[0].1, AttrRef::new("Customer", "ophone"));
    }

    #[test]
    fn non_one_to_one_is_detected() {
        let m = Mapping::new(
            1,
            vec![
                Correspondence::from_parts(("C", "x"), ("T", "a"), 0.5),
                Correspondence::from_parts(("C", "x"), ("T", "b"), 0.5),
            ],
            1.0,
        );
        assert!(!m.is_one_to_one());
    }

    #[test]
    fn display_contains_pairs_and_probability() {
        let m = figure3_mapping(2, 0.2, &[("cname", "pname")]);
        let s = m.to_string();
        assert!(s.contains("m2"));
        assert!(s.contains("0.200"));
        assert!(s.contains("Customer.cname"));
    }

    #[test]
    fn score_is_sum_of_correspondence_scores() {
        let m = figure3_mapping(1, 0.3, &[("cname", "pname"), ("ophone", "phone")]);
        assert!((m.score() - 1.6).abs() < 1e-9);
    }
}
