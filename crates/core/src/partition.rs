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
//! vector of those assignments — and each leaf bucket one partition.  [`MappingSet`] holds
//! every signature already, as integers: its `h × targets` matrix of source ids (0 for
//! unmatched).  The partitioner resolves the query's attributes to matrix columns once, reads
//! each mapping's ids at those columns, and sorts the mappings by them — the tree's leaves in
//! order — stably, so each partition keeps its mappings in order.  No attribute name is
//! compared or hashed per mapping, and no [`Mapping`] is cloned.

use crate::query::TargetQuery;
use crate::CoreResult;
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

/// Partitions some of a set's mappings by how they translate the given query attributes
/// (alias-qualified; the set's matrix is indexed by the schema-level attributes).
///
/// `members` lists the mappings to partition as `(position in mappings, weight)`; a
/// partition's indices are positions in `members`.  Partitions come in order of their first
/// member, and each partition's indices ascend — so everything derived from the result is
/// deterministic, and a weight summed over a partition is summed in member order.
pub fn partition_on_attrs(
    query: &TargetQuery,
    attrs: &[AttrRef],
    mappings: &MappingSet,
    members: impl IntoIterator<Item = (usize, f64)>,
) -> CoreResult<Vec<MappingPartition>> {
    // An attribute no mapping covers is unmatched under all of them: it tells none apart.
    let mut columns = Vec::with_capacity(attrs.len());
    for attr in attrs {
        if let Some(column) = mappings.target_column(&query.schema_attr(attr)?) {
            columns.push(column);
        }
    }
    let width = columns.len();
    let (mut weights, mut signatures) = (Vec::new(), Vec::new());
    for (index, weight) in members {
        let row = mappings.source_row(index);
        signatures.extend(columns.iter().map(|&column| row[column]));
        weights.push(weight);
    }
    let signature = |member: usize| &signatures[member * width..][..width];
    let mut order: Vec<usize> = (0..weights.len()).collect();
    // Stable: equal signatures keep member order.
    order.sort_by(|&a, &b| signature(a).cmp(signature(b)));
    let mut partitions: Vec<MappingPartition> = Vec::new();
    for (at, &member) in order.iter().enumerate() {
        if at == 0 || signature(order[at - 1]) != signature(member) {
            partitions.push(MappingPartition {
                mapping_indices: Vec::new(),
                probability: 0.0,
            });
        }
        let partition = partitions.last_mut().expect("pushed above");
        partition.mapping_indices.push(member);
        partition.probability += weights[member];
    }
    partitions.sort_unstable_by_key(|p| p.mapping_indices[0]);
    Ok(partitions)
}

/// Partitions a whole [`MappingSet`] on every attribute used by the query — the `partition`
/// call of Algorithms 1, 2 and 4.
pub fn partition_mappings(
    query: &TargetQuery,
    mappings: &MappingSet,
) -> CoreResult<Vec<MappingPartition>> {
    let members = mappings.iter().map(Mapping::probability).enumerate();
    partition_on_attrs(query, &query.attributes_used(), mappings, members)
}

/// A partition's representative mapping (its first), borrowed from the set, with its position
/// there and the partition's total probability.
#[derive(Debug, Clone, Copy)]
pub struct Representative<'m> {
    /// The mapping's position in its [`MappingSet`]: its row of the source-id matrix.
    pub index: usize,
    /// The mapping.
    pub mapping: &'m Mapping,
    /// The partition's total probability.
    pub probability: f64,
}

/// Selects one representative mapping per partition of the whole set (its first), carrying
/// the partition's total probability — the `represent` routine of Algorithm 1.
#[must_use]
pub fn representatives<'m>(
    partitions: &[MappingPartition],
    mappings: &'m MappingSet,
) -> Vec<Representative<'m>> {
    partitions
        .iter()
        .map(|p| Representative {
            index: p.mapping_indices[0],
            mapping: &mappings.mappings()[p.mapping_indices[0]],
            probability: p.probability,
        })
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
        let total: f64 = reps.iter().map(|rep| rep.probability).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // A representative is its partition's first mapping, borrowed from the set.
        for (rep, partition) in reps.iter().zip(&partitions) {
            assert_eq!(rep.index, partition.mapping_indices[0]);
            assert!(std::ptr::eq(rep.mapping, &mappings.mappings()[rep.index]));
        }
    }

    #[test]
    fn no_attributes_means_one_partition() {
        // A query that mentions no attribute cannot tell any two mappings apart.
        let query = testkit::q1();
        let mappings = testkit::figure3_mappings();
        let weighted = mappings.iter().map(|m| m.probability()).enumerate();
        let partitions = partition_on_attrs(&query, &[], &mappings, weighted).unwrap();
        assert_eq!(partitions.len(), 1);
        assert_eq!(partitions[0].mapping_indices, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_attribute_partitioning() {
        let query = testkit::basic_example_query();
        let mappings = testkit::figure3_mappings();
        // Partition only on Person.phone: m1,m2,m3,m5 map it to ophone; m4 to hphone.
        let attrs = vec![AttrRef::new("Person", "phone")];
        let weighted = mappings.iter().map(|m| m.probability()).enumerate();
        let partitions = partition_on_attrs(&query, &attrs, &mappings, weighted).unwrap();
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
