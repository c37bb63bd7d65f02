//! Property-based integration tests: for randomly generated mapping sets and queries over the
//! paper's worked-example schema, all evaluation algorithms agree, probabilities stay in range,
//! and top-k is consistent with the exact answer.

use proptest::prelude::Strategy;
use proptest::prelude::*;
use urm::core::testkit;
use urm::core::Strategy as SelectionStrategy;
use urm::matching::{Correspondence, Mapping, MappingSet};
use urm::prelude::*;
use urm::storage::AttrRef;

/// Candidate source attributes for each target attribute of the `Person`/`Order` target schema
/// (mirrors the ambiguity of Figure 1).
const CANDIDATES: &[(&str, &[(&str, &str)])] = &[
    ("pname", &[("Customer", "cname")]),
    (
        "phone",
        &[
            ("Customer", "ophone"),
            ("Customer", "hphone"),
            ("Customer", "mobile"),
        ],
    ),
    ("addr", &[("Customer", "oaddr"), ("Customer", "haddr")]),
    ("nation", &[("Nation", "name"), ("Customer", "nid")]),
    ("price", &[("C_Order", "amount")]),
];

fn arb_mapping(id: usize) -> impl Strategy<Value = Mapping> {
    // For each target attribute choose one of its candidates or leave it unmapped.
    let choices: Vec<_> = CANDIDATES
        .iter()
        .map(|(_, cands)| 0..=cands.len())
        .collect();
    (choices, 1u32..100u32).prop_map(move |(picks, weight)| {
        let mut correspondences = Vec::new();
        for ((target, cands), pick) in CANDIDATES.iter().zip(picks) {
            if pick < cands.len() {
                let (rel, attr) = cands[pick];
                correspondences.push(Correspondence::new(
                    AttrRef::new(rel, attr),
                    AttrRef::new("Person", *target).clone(),
                    0.5,
                ));
            }
        }
        // `price` actually belongs to the Order target relation; fix up the target side.
        let correspondences = correspondences
            .into_iter()
            .map(|c| {
                if c.target.attr == "price" {
                    Correspondence::new(c.source, AttrRef::new("Order", "price"), c.score)
                } else {
                    c
                }
            })
            .collect();
        Mapping::new(id, correspondences, f64::from(weight))
    })
}

fn arb_mapping_set() -> impl Strategy<Value = MappingSet> {
    prop::collection::vec(any::<u8>(), 2..6).prop_flat_map(|seeds| {
        let mappings: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, _)| arb_mapping(i + 1))
            .collect();
        mappings.prop_map(MappingSet::new)
    })
}

fn arb_query() -> impl Strategy<Value = TargetQuery> {
    let phone_values = prop_oneof![Just("123"), Just("456"), Just("789"), Just("555")];
    let addr_values = prop_oneof![Just("aaa"), Just("bbb"), Just("hk")];
    (phone_values, addr_values, 0usize..3).prop_map(|(phone, addr, shape)| match shape {
        0 => TargetQuery::builder("prop-q0")
            .relation("Person")
            .filter_eq("Person.phone", phone)
            .returning(["Person.addr"])
            .build()
            .unwrap(),
        1 => TargetQuery::builder("prop-q1")
            .relation("Person")
            .filter_eq("Person.addr", addr)
            .returning(["Person.phone", "Person.pname"])
            .build()
            .unwrap(),
        _ => TargetQuery::builder("prop-q2")
            .relation("Person")
            .relation("Order")
            .filter_eq("Person.phone", phone)
            .filter_eq("Person.addr", addr)
            .returning(["Person.addr", "Order.price"])
            .build()
            .unwrap(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_algorithms_agree_on_random_inputs(mappings in arb_mapping_set(), query in arb_query()) {
        let catalog = testkit::figure2_catalog();
        prop_assert!((mappings.probability_sum() - 1.0).abs() < 1e-9);
        let reference = evaluate(&query, &mappings, &catalog, Algorithm::Basic).unwrap();
        for algorithm in [
            Algorithm::EBasic,
            Algorithm::EMqo,
            Algorithm::QSharing,
            Algorithm::OSharing(SelectionStrategy::Sef),
            Algorithm::OSharing(SelectionStrategy::Snf),
            Algorithm::OSharing(SelectionStrategy::Random { seed: 3 }),
        ] {
            let eval = evaluate(&query, &mappings, &catalog, algorithm).unwrap();
            prop_assert!(
                reference.answer.approx_eq(&eval.answer, 1e-9),
                "{} disagrees with basic on {query}",
                algorithm.name()
            );
        }
    }

    #[test]
    fn batch_dag_agrees_with_basic_for_any_worker_count(mappings in arb_mapping_set(), query in arb_query()) {
        // The merged batch DAG (the serving layer's execution path) must agree with the
        // sequential algorithms on random inputs, sequentially and with parallel scheduling,
        // and execute each distinct bound operator exactly once.
        let catalog = testkit::figure2_catalog();
        let reference = evaluate(&query, &mappings, &catalog, Algorithm::Basic).unwrap();
        let queries = vec![query.clone(), query.clone()];
        for workers in [1usize, 3] {
            let batch = urm::core::evaluate_batch(
                &queries,
                &mappings,
                &catalog,
                &urm::core::BatchOptions::parallel(workers),
            )
            .unwrap();
            for eval in &batch.evaluations {
                prop_assert!(
                    reference.answer.approx_eq(&eval.answer, 1e-9),
                    "batch (workers={workers}) disagrees with basic on {query}"
                );
            }
            prop_assert_eq!(
                batch.exec.operators_executed + batch.exec.scans,
                batch.run.nodes_executed,
                "a distinct bound operator executed more than once"
            );
        }
    }

    #[test]
    fn epoch_batches_agree_with_rebuild_for_any_worker_count(mappings in arb_mapping_set(), query in arb_query()) {
        // The per-epoch persistent DAG must answer cold, overlapping and fully warm batches
        // byte-identically to the rebuild-every-batch path, whatever the worker count.
        let catalog = testkit::figure2_catalog();
        for workers in [1usize, 3] {
            let set = urm::core::ShardSet::new(&catalog, 1, urm::storage::ShardScheme::Hash, None);
            let batches = [
                vec![query.clone()],
                vec![query.clone(), query.clone()], // warm repeat with an in-batch duplicate
            ];
            for batch in &batches {
                let options = urm::core::BatchOptions::parallel(workers);
                let warm = urm::core::evaluate_batch_sharded(
                    batch, &mappings, &catalog, &options, &set,
                ).unwrap();
                let rebuilt = urm::core::evaluate_batch(batch, &mappings, &catalog, &options).unwrap();
                for (a, b) in warm.evaluations.iter().zip(&rebuilt.evaluations) {
                    let (sa, sb) = (a.answer.sorted(), b.answer.sorted());
                    prop_assert_eq!(sa.len(), sb.len(), "answer sizes diverge (workers={})", workers);
                    for ((t1, p1), (t2, p2)) in sa.iter().zip(&sb) {
                        prop_assert_eq!(t1, t2);
                        prop_assert_eq!(p1.to_bits(), p2.to_bits(), "probabilities not byte-identical");
                    }
                }
            }
            // If the query produced any source queries at all, the second batch was warm:
            // every submission was answered by the bind cache.  (A query may reformulate to
            // nothing when no mapping covers its attributes.)
            let epoch = set.dag(0);
            if epoch.bind_misses() > 0 {
                prop_assert!(epoch.bind_hits() > 0);
            }
        }
    }

    #[test]
    fn probabilities_are_bounded(mappings in arb_mapping_set(), query in arb_query()) {
        let catalog = testkit::figure2_catalog();
        let eval = evaluate(&query, &mappings, &catalog, Algorithm::QSharing).unwrap();
        for (_, p) in eval.answer.iter() {
            prop_assert!(p > 0.0 && p <= 1.0 + 1e-9, "probability {p} out of range");
        }
        prop_assert!(eval.answer.empty_probability() <= 1.0 + 1e-9);
    }

    #[test]
    fn partition_probabilities_form_a_distribution(mappings in arb_mapping_set(), query in arb_query()) {
        let partitions = urm::core::partition::partition_mappings(&query, &mappings).unwrap();
        let total: f64 = partitions.iter().map(|p| p.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Partitions are disjoint and cover every mapping.
        let mut covered: Vec<usize> = partitions.iter().flat_map(|p| p.mapping_indices.clone()).collect();
        covered.sort_unstable();
        let expected: Vec<usize> = (0..mappings.len()).collect();
        prop_assert_eq!(covered, expected);
    }
}

proptest! {
    // A top-k that stops too early is wrong only on the few inputs where a late leaf overtakes
    // an early one: more cases than the block above, at a fraction of a second.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn top_k_is_a_prefix_of_the_exact_ranking(mappings in arb_mapping_set(), query in arb_query()) {
        let catalog = testkit::figure2_catalog();
        let exact = evaluate(&query, &mappings, &catalog, Algorithm::Basic).unwrap();
        for k in [1, 2, 5] {
            let result = top_k(&query, &mappings, &catalog, k, SelectionStrategy::Sef).unwrap();
            prop_assert!(result.entries.len() <= k);
            for entry in &result.entries {
                let p = exact.answer.probability_of(&entry.tuple);
                prop_assert!(p > 0.0, "top-k returned a tuple the exact answer does not contain");
                prop_assert!(entry.lower_bound <= p + 1e-9);
                prop_assert!(entry.upper_bound + 1e-9 >= p);
            }
            // A prefix: no answer left out is more probable than one returned.
            let returned: Vec<&Tuple> = result.entries.iter().map(|e| &e.tuple).collect();
            let least = returned
                .iter()
                .map(|t| exact.answer.probability_of(t))
                .fold(f64::INFINITY, f64::min);
            for (tuple, p) in exact.answer.iter() {
                if !returned.contains(&tuple) {
                    prop_assert!(p <= least + 1e-9, "k = {k}: {tuple} ({p}) outranks one returned ({least})");
                }
            }
        }
    }
}
