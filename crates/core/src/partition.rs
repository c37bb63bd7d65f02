//! Partitioning a mapping set by how it translates a query (Section IV-A, Algorithm 3).
//!
//! A query's source query depends only on the source attributes a mapping assigns to the target
//! attributes the query mentions.  Two mappings belong to the same partition exactly when they
//! map every one of those attributes to the same source attribute (or both leave it unmapped),
//! so one *representative* per partition is all that has to be reformulated.  This is the first
//! step of every rewrite but the paper's baselines: the service's batch path
//! ([`crate::reformulate::partitioned_reformulations`]), q-sharing, o-sharing (once for the
//! whole query, then once per candidate operator of every e-unit) and top-k.
//!
//! The paper's partition tree branches level by level on the source attribute assigned to the
//! `k`-th query attribute; a root-to-leaf path is therefore a mapping's *signature* — the
//! vector of those assignments — and each leaf bucket one partition.  The partitioner here keys
//! a hash map by the signature directly, which is the tree with its interior nodes collapsed.
//! Signatures borrow from the mappings (`Option<&AttrRef>`); no [`Mapping`] is cloned.

use crate::query::TargetQuery;
use crate::CoreResult;
use std::collections::HashMap;
use urm_matching::{Mapping, MappingSet};
use urm_storage::AttrRef;

/// One partition of a mapping list: the mappings (at least one) that agree on every
/// partitioning attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingPartition {
    /// Indices into the mapping list this partition was built from, ascending.
    pub mapping_indices: Vec<usize>,
    /// Total weight of the partition's mappings, summed in index order.
    pub probability: f64,
}

/// Partitions weighted mappings by how they translate the given query attributes
/// (alias-qualified; the signature is built from the schema-level correspondences).
///
/// Partitions come in order of their first mapping, and each partition's indices (positions in
/// `mappings`) ascend — so everything derived from the result is deterministic, and a weight
/// summed over a partition is summed in mapping order.
pub fn partition_by_attrs<'m>(
    query: &TargetQuery,
    attrs: &[AttrRef],
    mappings: impl IntoIterator<Item = (&'m Mapping, f64)>,
) -> CoreResult<Vec<MappingPartition>> {
    let schema_attrs: Vec<AttrRef> = attrs
        .iter()
        .map(|a| query.schema_attr(a))
        .collect::<CoreResult<_>>()?;
    let mut partitions: Vec<MappingPartition> = Vec::new();
    let mut by_signature: HashMap<Vec<Option<&'m AttrRef>>, usize> = HashMap::new();
    let mut signature: Vec<Option<&'m AttrRef>> = Vec::with_capacity(schema_attrs.len());
    for (index, (mapping, weight)) in mappings.into_iter().enumerate() {
        signature.clear();
        signature.extend(schema_attrs.iter().map(|a| mapping.source_for(a)));
        let slot = match by_signature.get(signature.as_slice()) {
            Some(&slot) => slot,
            None => {
                by_signature.insert(signature.clone(), partitions.len());
                partitions.push(MappingPartition {
                    mapping_indices: Vec::new(),
                    probability: 0.0,
                });
                partitions.len() - 1
            }
        };
        partitions[slot].mapping_indices.push(index);
        partitions[slot].probability += weight;
    }
    Ok(partitions)
}

/// Partitions a whole [`MappingSet`] on every attribute used by the query — the `partition`
/// call of Algorithms 1, 2 and 4.
pub fn partition_mappings(
    query: &TargetQuery,
    mappings: &MappingSet,
) -> CoreResult<Vec<MappingPartition>> {
    partition_by_attrs(
        query,
        &query.attributes_used(),
        mappings.iter().map(|m| (m, m.probability())),
    )
}

/// Selects one representative mapping per partition (its first), carrying the partition's
/// total probability — the `represent` routine of Algorithm 1.
#[must_use]
pub fn representatives<'m>(
    partitions: &[MappingPartition],
    mappings: &'m MappingSet,
) -> Vec<(&'m Mapping, f64)> {
    partitions
        .iter()
        .map(|p| (&mappings.mappings()[p.mapping_indices[0]], p.probability))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    #[test]
    fn q1_partitions_match_the_paper() {
        // Section IV: q1 partitions Figure 3's mappings into {m1,m2}, {m3,m4}, {m5}.
        let query = testkit::q1();
        let mappings = testkit::figure3_mappings();
        let partitions = partition_mappings(&query, &mappings).unwrap();
        let groups: Vec<&[usize]> = partitions
            .iter()
            .map(|p| p.mapping_indices.as_slice())
            .collect();
        // In order of each partition's first mapping, indices ascending.
        assert_eq!(groups, [&[0, 1][..], &[2, 3], &[4]]);
        // Probabilities 0.5, 0.4, 0.1 — each the in-order sum of its mappings', to the bit.
        for p in &partitions {
            let summed = p
                .mapping_indices
                .iter()
                .fold(0.0, |sum, &i| sum + mappings.mappings()[i].probability());
            assert_eq!(p.probability.to_bits(), summed.to_bits());
        }
        assert!((partitions[0].probability - 0.5).abs() < 1e-9);
        assert!((partitions[1].probability - 0.4).abs() < 1e-9);
        assert!((partitions[2].probability - 0.1).abs() < 1e-9);
    }

    #[test]
    fn q0_partitions_by_phone_and_addr() {
        // q0 uses phone and addr; signatures: (ophone,oaddr) ×2, (ophone,haddr) ×2, (hphone,haddr).
        let query = testkit::q0();
        let mappings = testkit::figure3_mappings();
        let partitions = partition_mappings(&query, &mappings).unwrap();
        assert_eq!(partitions.len(), 3);
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = partitions.iter().map(|p| p.mapping_indices.len()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes, vec![1, 2, 2]);
    }

    #[test]
    fn representatives_carry_group_probability() {
        let query = testkit::q1();
        let mappings = testkit::figure3_mappings();
        let partitions = partition_mappings(&query, &mappings).unwrap();
        let reps = representatives(&partitions, &mappings);
        assert_eq!(reps.len(), 3);
        let total: f64 = reps.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // A representative is its partition's first mapping, borrowed from the set.
        for ((rep, _), partition) in reps.iter().zip(&partitions) {
            let first = &mappings.mappings()[partition.mapping_indices[0]];
            assert!(std::ptr::eq(*rep, first));
        }
    }

    #[test]
    fn no_attributes_means_one_partition() {
        // A query that mentions no attribute cannot tell any two mappings apart.
        let query = testkit::q1();
        let mappings = testkit::figure3_mappings();
        let weighted = mappings.iter().map(|m| (m, m.probability()));
        let partitions = partition_by_attrs(&query, &[], weighted).unwrap();
        assert_eq!(partitions.len(), 1);
        assert_eq!(partitions[0].mapping_indices, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_attribute_partitioning() {
        let query = testkit::basic_example_query();
        let mappings = testkit::figure3_mappings();
        // Partition only on Person.phone: m1,m2,m3,m5 map it to ophone; m4 to hphone.
        let attrs = vec![AttrRef::new("Person", "phone")];
        let weighted = mappings.iter().map(|m| (m, m.probability()));
        let partitions = partition_by_attrs(&query, &attrs, weighted).unwrap();
        assert_eq!(partitions.len(), 2);
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = partitions.iter().map(|p| p.mapping_indices.len()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes, vec![1, 4]);
    }

    #[test]
    fn partition_probabilities_sum_to_one() {
        for query in [testkit::q0(), testkit::q1(), testkit::q2_product()] {
            let mappings = testkit::figure3_mappings();
            let partitions = partition_mappings(&query, &mappings).unwrap();
            let total: f64 = partitions.iter().map(|p| p.probability).sum();
            assert!((total - 1.0).abs() < 1e-9, "query {}", query.name());
        }
    }
}
