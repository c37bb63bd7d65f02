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

use urm::core::algorithms::ebasic::clustered_reformulations;
use urm::core::reformulate::{partitioned_reformulations, Clustering};
use urm::datagen::replay::parse_spec;
use urm::matching::Mapping;
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
