//! The partition-first rewrite every service request takes
//! (`reformulate::partitioned_reformulations`: one `reformulate` per mapping partition) against
//! the rewrite it replaced there, which e-basic and e-MQO keep
//! (`ebasic::clustered_reformulations`: one per mapping, plans clustered afterwards).
//!
//! They must agree **to the bit** — same source queries in the same order, every cluster's
//! probability and the empty mass with identical bits — because the order and the float sums
//! decide the bytes of an answer, and the end-to-end benchmark re-derives those bytes with its
//! own rewrite-every-mapping code and compares.  A float sum depends on its order, so the
//! mapping sets here are the generated ones *shuffled and re-weighted per seed*: were a mass
//! summed partition by partition instead of in mapping order, irregular weights would show it.
//!
//! The partitioner itself reads the mapping set's matrix of source ids.  It is checked against
//! the grouping it replaced — mappings keyed by their signature of source *attributes*, looked
//! up one by one — on random mapping sets: the same partitions in the same order, the same
//! indices, probabilities with the same bits.

use std::collections::HashMap;
use urm::core::algorithms::ebasic::clustered_reformulations;
use urm::core::partition::{partition_mappings, partition_on_attrs, MappingPartition};
use urm::core::reformulate::{partitioned_reformulations, Clustering};
use urm::datagen::replay::parse_spec;
use urm::matching::{Correspondence, Mapping};
use urm::prelude::*;
use urm::storage::AttrRef;

const SEEDS: [u64; 4] = [1, 7, 42, 20_260_926];
const SIZES: [usize; 3] = [1, 8, 30];
const TARGETS: [TargetSchemaKind; 3] = [
    TargetSchemaKind::Excel,
    TargetSchemaKind::Noris,
    TargetSchemaKind::Paragon,
];

/// Every replay spec the service accepts that the benchmark or the paper workload sends.
fn specs() -> Vec<String> {
    let mut specs: Vec<String> = (1..=10).map(|n| format!("Q{n}")).collect();
    for (family, max) in [("sel", 5), ("prod", 3), ("join", 4), ("skew", 3)] {
        specs.extend((1..=max).map(|n| format!("{family}:{n}")));
    }
    specs
}

fn scenario(target: TargetSchemaKind, mappings: usize) -> Scenario {
    // Rewriting reads the catalog's schemas only; the smallest instance will do.
    Scenario::generate(&ScenarioConfig {
        target,
        scale: 1,
        mappings,
        seed: 42,
    })
    .expect("scenario generation")
}

/// splitmix64: the test's own generator, so a failing seed replays anywhere.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The set's mappings in a seed-chosen order with seed-chosen weights (normalised by
/// `MappingSet::new`), so partitions interleave and no two masses are round numbers.
fn shuffled(mappings: &MappingSet, seed: u64) -> MappingSet {
    let mut state = seed;
    let mut list: Vec<Mapping> = mappings.mappings().to_vec();
    for i in (1..list.len()).rev() {
        list.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
    }
    for mapping in &mut list {
        mapping.set_probability(1.0 + (next(&mut state) % 10_000) as f64 / 97.0);
    }
    MappingSet::new(list)
}

/// `mapping` without its correspondence for `target`.
fn without(mapping: &Mapping, target: &AttrRef) -> Mapping {
    let kept = mapping
        .correspondences()
        .into_iter()
        .filter(|c| &c.target != target)
        .collect();
    Mapping::new(mapping.id(), kept, mapping.probability())
}

/// Both rewrites of `query`, asserted equal to the bit; returns the partition-first one.
fn assert_same_rewrite(
    query: &TargetQuery,
    mappings: &MappingSet,
    catalog: &Catalog,
    context: &str,
) -> Clustering {
    let fast = partitioned_reformulations(query, mappings, catalog).unwrap();
    let slow = clustered_reformulations(query, mappings, catalog).unwrap();
    assert_eq!(slow.partitions, mappings.len(), "{context}");
    assert!(fast.clusters.len() <= fast.partitions, "{context}");
    assert!(fast.partitions <= mappings.len(), "{context}");
    assert_eq!(fast.clusters.len(), slow.clusters.len(), "{context}");
    for (position, (a, b)) in fast.clusters.iter().zip(&slow.clusters).enumerate() {
        assert_eq!(a.query, b.query, "{context}: cluster {position}");
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{context}: cluster {position}"
        );
        assert_eq!(
            a.probability.to_bits(),
            b.probability.to_bits(),
            "{context}: cluster {position}: {} vs {}",
            a.probability,
            b.probability
        );
    }
    assert_eq!(
        fast.empty_probability.to_bits(),
        slow.empty_probability.to_bits(),
        "{context}: empty mass {} vs {}",
        fast.empty_probability,
        slow.empty_probability
    );
    fast
}

#[test]
fn partition_first_equals_rewrite_every_mapping_to_the_bit() {
    let (mut compared, mut saved, mut multi_cluster) = (0usize, 0usize, 0usize);
    for target in TARGETS {
        let queries: Vec<(String, TargetQuery)> = specs()
            .into_iter()
            .map(|spec| (parse_spec(&spec).expect("spec parses"), spec))
            .filter(|(entry, _)| entry.target == target)
            .map(|(entry, spec)| (spec, entry.query))
            .collect();
        assert!(!queries.is_empty());
        for h in SIZES {
            let scenario = scenario(target, h);
            for seed in SEEDS {
                let mappings = shuffled(&scenario.mappings, seed);
                for (spec, query) in &queries {
                    let context = format!("{target:?} h={h} seed={seed} {spec}");
                    let rewrite =
                        assert_same_rewrite(query, &mappings, &scenario.catalog, &context);
                    compared += 1;
                    saved += mappings.len() - rewrite.partitions;
                    multi_cluster += usize::from(rewrite.clusters.len() > 1);
                }
            }
        }
    }
    assert_eq!(compared, SEEDS.len() * SIZES.len() * specs().len());
    // The comparison must have had something to get wrong: sets whose mappings disagree on a
    // query, and partitions larger than one mapping.
    assert!(
        multi_cluster > 0,
        "no query had two distinct source queries"
    );
    assert!(saved > 0, "no partition held more than one mapping");
}

#[test]
fn a_query_that_mentions_no_attribute_is_one_partition() {
    // COUNT(*) with no predicate: no correspondence matters, every mapping is in one
    // partition, and no mapping can reformulate it (nothing says which relation to count).
    let scenario = scenario(TargetSchemaKind::Excel, 8);
    let query = TargetQuery::builder("count-all")
        .relation("PO")
        .count()
        .build()
        .unwrap();
    assert!(query.attributes_used().is_empty());
    let mappings = shuffled(&scenario.mappings, 3);
    let rewrite = assert_same_rewrite(&query, &mappings, &scenario.catalog, "count-all");
    assert_eq!(rewrite.partitions, 1);
    assert!(rewrite.clusters.is_empty());
    assert!((rewrite.empty_probability - 1.0).abs() < 1e-9);
}

#[test]
fn all_mass_is_empty_when_no_mapping_covers_a_predicate_attribute() {
    let scenario = scenario(TargetSchemaKind::Excel, 30);
    for spec in ["Q1", "Q4", "sel:3", "join:2"] {
        let query = parse_spec(spec).unwrap().query;
        let predicate_attr = query.predicates()[0].attributes()[0];
        let uncovered = query.schema_attr(predicate_attr).unwrap();
        let stripped: Vec<Mapping> = shuffled(&scenario.mappings, 11)
            .iter()
            .map(|m| without(m, &uncovered))
            .collect();
        let mappings = MappingSet::new(stripped);
        let rewrite = assert_same_rewrite(&query, &mappings, &scenario.catalog, spec);
        assert!(rewrite.clusters.is_empty(), "{spec}");
        assert!(rewrite.empty_probability > 0.999, "{spec}");
        // The mappings still differ on the other attributes: several partitions, all empty.
        assert!(
            rewrite.partitions >= 1 && rewrite.partitions <= 30,
            "{spec}"
        );
    }
}

#[test]
fn duplicated_mappings_share_a_partition() {
    let scenario = scenario(TargetSchemaKind::Excel, 8);
    // Every mapping three times over, copies apart from each other, each with its own weight.
    let mut list: Vec<Mapping> = Vec::new();
    for round in 0..3 {
        for mapping in scenario.mappings.iter() {
            let mut copy = mapping.clone();
            copy.set_probability(mapping.probability() * (1.0 + round as f64 / 7.0));
            list.push(copy);
        }
    }
    let tripled = MappingSet::new(list);
    for spec in specs() {
        let entry = parse_spec(&spec).unwrap();
        if entry.target != TargetSchemaKind::Excel {
            continue;
        }
        let once = partitioned_reformulations(&entry.query, &scenario.mappings, &scenario.catalog)
            .unwrap();
        let thrice = assert_same_rewrite(&entry.query, &tripled, &scenario.catalog, &spec);
        assert_eq!(thrice.partitions, once.partitions, "{spec}");
        assert_eq!(thrice.clusters.len(), once.clusters.len(), "{spec}");
    }
}

/// The reference partitioner: each mapping's signature is the vector of source attributes it
/// assigns to the (schema-level) `attrs`, and a hash map keyed by signatures opens partitions
/// in order of first appearance.
fn signature_partitions<'m>(
    query: &TargetQuery,
    attrs: &[AttrRef],
    members: impl IntoIterator<Item = (&'m Mapping, f64)>,
) -> Vec<MappingPartition> {
    let schema_attrs: Vec<AttrRef> = attrs
        .iter()
        .map(|a| query.schema_attr(a).unwrap())
        .collect();
    let mut partitions: Vec<MappingPartition> = Vec::new();
    let mut by_signature: HashMap<Vec<Option<&AttrRef>>, usize> = HashMap::new();
    for (index, (mapping, weight)) in members.into_iter().enumerate() {
        let signature = schema_attrs.iter().map(|a| mapping.source_for(a)).collect();
        let slot = *by_signature.entry(signature).or_insert_with(|| {
            partitions.push(MappingPartition {
                mapping_indices: Vec::new(),
                probability: 0.0,
            });
            partitions.len() - 1
        });
        partitions[slot].mapping_indices.push(index);
        partitions[slot].probability += weight;
    }
    partitions
}

fn assert_same_partitions(got: &[MappingPartition], want: &[MappingPartition], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}");
    for (at, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            a.mapping_indices, b.mapping_indices,
            "{context}: partition {at}"
        );
        assert_eq!(
            a.probability.to_bits(),
            b.probability.to_bits(),
            "{context}: partition {at}: {} vs {}",
            a.probability,
            b.probability
        );
    }
}

/// Target attributes: `T.t0..t7` and `U.u0..u3`, plus `T.gone`, which no mapping covers.
fn target_attr(state: &mut u64) -> String {
    match next(state) % 13 {
        12 => "gone".to_string(),
        n if n < 8 => format!("t{n}"),
        n => format!("u{}", n - 8),
    }
}

/// A random mapping set of `h` partial mappings over few source attributes, so that mappings
/// collide on some attributes and not on others; some mappings are copies of earlier ones.
fn random_mappings(state: &mut u64, h: usize) -> Vec<Mapping> {
    let mut list: Vec<Mapping> = Vec::with_capacity(h);
    for id in 1..=h {
        if !list.is_empty() && next(state).is_multiple_of(5) {
            let mut copy = list[(next(state) % list.len() as u64) as usize].clone();
            copy.set_probability(1.0 + (next(state) % 1000) as f64 / 37.0);
            list.push(copy);
            continue;
        }
        let targets = (0..8).map(|n| ("T", format!("t{n}")));
        let mut correspondences = Vec::new();
        for (relation, attr) in targets.chain((0..4).map(|n| ("U", format!("u{n}")))) {
            if !next(state).is_multiple_of(3) {
                let source = format!("s{}", next(state) % 6);
                let pair = (("S", source.as_str()), (relation, attr.as_str()));
                correspondences.push(Correspondence::from_parts(pair.0, pair.1, 0.5));
            }
        }
        let weight = 1.0 + (next(state) % 1000) as f64 / 37.0;
        list.push(Mapping::new(id, correspondences, weight));
    }
    list
}

/// A random query over `T` (once, or as the self-join `T1`, `T2`) and maybe `U`: a COUNT with
/// no attribute at all, or predicates and outputs over random attributes.
fn random_query(state: &mut u64) -> TargetQuery {
    let shape = next(state) % 4;
    if shape == 0 {
        return TargetQuery::builder("count-all")
            .relation("T")
            .count()
            .build()
            .unwrap();
    }
    let aliases: &[(&str, &str)] = match shape {
        1 => &[("T", "T")],
        2 => &[("T", "T1"), ("T", "T2")],
        _ => &[("T", "T"), ("U", "U")],
    };
    let mut builder = TargetQuery::builder("random");
    for (relation, alias) in aliases {
        builder = builder.relation_as(*relation, *alias);
    }
    let attr = |state: &mut u64| loop {
        let (relation, alias) = aliases[(next(state) % aliases.len() as u64) as usize];
        let name = target_attr(state);
        if (relation == "U") == name.starts_with('u') {
            return format!("{alias}.{name}");
        }
    };
    for _ in 0..next(state) % 3 {
        builder = builder.filter_eq(&attr(state), "x");
    }
    let outputs: Vec<String> = (0..1 + next(state) % 3).map(|_| attr(state)).collect();
    builder.returning(outputs).build().unwrap()
}

#[test]
fn the_matrix_partitions_as_source_attribute_signatures_do() {
    let mut state = 20_261_018;
    let (mut sets, mut multi, mut empty) = (0, 0, 0);
    for round in 0..300 {
        let h = 1 + (next(&mut state) % 100) as usize;
        let mappings = MappingSet::new(random_mappings(&mut state, h));
        for _ in 0..4 {
            let query = random_query(&mut state);
            let context = format!("round {round} h={h} {query:?}");
            let attrs = query.attributes_used();
            empty += usize::from(attrs.is_empty());
            // The whole set, as every rewrite partitions it.
            let got = partition_mappings(&query, &mappings).unwrap();
            let members = mappings.iter().map(|m| (m, m.probability()));
            let want = signature_partitions(&query, &attrs, members);
            assert_same_partitions(&got, &want, &context);
            multi += usize::from(got.len() > 1);
            // A subset of the set under its own weights on some of the attributes, as an
            // o-sharing e-unit partitions its representatives.
            let mut subset: Vec<(usize, f64)> = Vec::new();
            for i in 0..h {
                if next(&mut state).is_multiple_of(2) {
                    subset.push((i, (next(&mut state) % 1000) as f64 / 991.0));
                }
            }
            let mut some: Vec<AttrRef> = attrs.clone();
            some.retain(|_| next(&mut state).is_multiple_of(2));
            let got = partition_on_attrs(&query, &some, &mappings, subset.iter().copied()).unwrap();
            let members = subset.iter().map(|&(i, w)| (&mappings.mappings()[i], w));
            let want = signature_partitions(&query, &some, members);
            assert_same_partitions(&got, &want, &format!("{context} subset"));
        }
        sets += 1;
    }
    assert_eq!(sets, 300);
    assert!(multi > 100, "{multi} queries split their mappings");
    assert!(empty > 0, "no query without attributes");
}

#[test]
fn every_constructor_builds_the_matrix_of_its_mappings() {
    let mut state = 7;
    for h in [1, 2, 17, 100] {
        let list = random_mappings(&mut state, h);
        let set = MappingSet::new(list.clone());
        // The matrix says what each mapping assigns, and 0 where it assigns nothing.
        for (index, mapping) in set.iter().enumerate() {
            for (column, target) in set.covered_target_attributes().iter().enumerate() {
                let id = set.source_row(index)[column];
                let source = (id > 0).then(|| &set.source_attributes()[usize::from(id) - 1]);
                assert_eq!(
                    source,
                    mapping.source_for(target),
                    "h={h} m{index} {target}"
                );
            }
        }
        let same = |other: &MappingSet, context: &str| {
            assert_eq!(
                other.covered_target_attributes(),
                set.covered_target_attributes(),
                "{context}"
            );
            assert_eq!(
                other.source_attributes(),
                set.source_attributes(),
                "{context}"
            );
            for index in 0..other.len() {
                assert_eq!(
                    other.source_row(index),
                    set.source_row(index),
                    "{context} m{index}"
                );
            }
        };
        let explicit = MappingSet::from_explicit(set.mappings().to_vec()).unwrap();
        same(&explicit, "from_explicit");
        // A truncated set numbers what its own mappings use, as `new` does from them.
        for n in [1, h / 2 + 1, h] {
            let truncated = set.truncated(n);
            let built = MappingSet::new(list[..n].to_vec());
            assert_eq!(
                truncated.covered_target_attributes(),
                built.covered_target_attributes()
            );
            assert_eq!(truncated.source_attributes(), built.source_attributes());
            for index in 0..n {
                assert_eq!(
                    truncated.source_row(index),
                    built.source_row(index),
                    "truncated {n}"
                );
            }
        }
    }
}
