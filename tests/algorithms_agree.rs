//! Cross-crate integration tests: on generated scenarios (synthetic source instance + derived
//! mapping sets), every evaluation algorithm must return the same probabilistic answer for
//! every workload query, and the sharing algorithms must not do more work than the baselines.

use urm::prelude::*;

fn scenario(target: TargetSchemaKind) -> Scenario {
    Scenario::generate(&ScenarioConfig {
        target,
        scale: 25,
        mappings: 12,
        seed: 11,
    })
    .expect("scenario generation")
}

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Basic,
        Algorithm::EBasic,
        Algorithm::EMqo,
        Algorithm::QSharing,
        Algorithm::OSharing(Strategy::Sef),
        Algorithm::OSharing(Strategy::Snf),
        Algorithm::OSharing(Strategy::Random { seed: 5 }),
    ]
}

#[test]
fn all_algorithms_agree_on_the_full_workload() {
    for target in TargetSchemaKind::all() {
        let scenario = scenario(target);
        for (id, query) in workload::queries_for(target) {
            let reference = evaluate(
                &query,
                &scenario.mappings,
                &scenario.catalog,
                Algorithm::Basic,
            )
            .unwrap();
            for algorithm in algorithms() {
                let eval =
                    evaluate(&query, &scenario.mappings, &scenario.catalog, algorithm).unwrap();
                assert!(
                    reference.answer.approx_eq(&eval.answer, 1e-9),
                    "{} disagrees with basic on Q{} ({target})\nbasic:    {}\n{}: {}",
                    algorithm.name(),
                    id.number(),
                    reference.answer,
                    algorithm.name(),
                    eval.answer
                );
            }
        }
    }
}

#[test]
fn sharing_reduces_source_queries_on_the_default_query() {
    let scenario = scenario(TargetSchemaKind::Excel);
    let q4 = workload::query(QueryId::Q4);
    let basic = evaluate(&q4, &scenario.mappings, &scenario.catalog, Algorithm::Basic).unwrap();
    let ebasic = evaluate(
        &q4,
        &scenario.mappings,
        &scenario.catalog,
        Algorithm::EBasic,
    )
    .unwrap();
    let qsharing = evaluate(
        &q4,
        &scenario.mappings,
        &scenario.catalog,
        Algorithm::QSharing,
    )
    .unwrap();
    // basic runs one source query per mapping; the others deduplicate.
    assert_eq!(
        basic.metrics.exec.source_queries,
        scenario.mappings.len() as u64
    );
    assert!(ebasic.metrics.exec.source_queries <= basic.metrics.exec.source_queries);
    assert!(qsharing.metrics.exec.source_queries <= ebasic.metrics.exec.source_queries);
    assert!(qsharing.metrics.representative_mappings <= scenario.mappings.len());
}

#[test]
fn strategy_quality_ordering_holds_on_generated_data() {
    // Table IV's qualitative result, in the paper's unit: SNF and SEF execute far fewer target
    // operators than Random.
    let scenario = scenario(TargetSchemaKind::Excel);
    let q4 = workload::query(QueryId::Q4);
    let ops = |strategy| {
        evaluate(
            &q4,
            &scenario.mappings,
            &scenario.catalog,
            Algorithm::OSharing(strategy),
        )
        .unwrap()
        .metrics
        .target_operators
    };
    let random = ops(Strategy::Random { seed: 17 });
    let snf = ops(Strategy::Snf);
    let sef = ops(Strategy::Sef);
    assert!(sef <= random, "SEF {sef} vs Random {random}");
    assert!(snf <= random, "SNF {snf} vs Random {random}");
}

#[test]
fn osharing_and_top_k_do_query_sharing_work_on_join_heavy_queries() {
    // The specs whose e-unit products once grew to millions of rows: o-sharing and top-k agree
    // with basic, and o-sharing emits at most half again as many rows as q-sharing.
    let scenario = Scenario::generate(&ScenarioConfig {
        target: TargetSchemaKind::Excel,
        scale: 20,
        mappings: 30,
        seed: 42,
    })
    .unwrap();
    let (mappings, catalog) = (&scenario.mappings, &scenario.catalog);
    for spec in ["Q1", "Q3", "Q4", "join:2", "join:3"] {
        let query = urm::datagen::replay::parse_spec(spec).unwrap().query;
        let reference = evaluate(&query, mappings, catalog, Algorithm::Basic).unwrap();
        let qsharing = evaluate(&query, mappings, catalog, Algorithm::QSharing).unwrap();
        for strategy in [Strategy::Sef, Strategy::Snf, Strategy::Random { seed: 5 }] {
            let eval = evaluate(&query, mappings, catalog, Algorithm::OSharing(strategy)).unwrap();
            assert!(
                reference.answer.approx_eq(&eval.answer, 1e-9),
                "o-sharing({strategy}) disagrees with basic on {spec}"
            );
            let (o, q) = (
                eval.metrics.exec.tuples_output,
                qsharing.metrics.exec.tuples_output,
            );
            assert!(
                2 * o <= 3 * q,
                "o-sharing({strategy}) emitted {o} rows on {spec}, q-sharing {q}"
            );
        }
        let exact = reference.answer.sorted();
        for k in [1usize, 5] {
            let topk = top_k(&query, mappings, catalog, k, Strategy::Sef).unwrap();
            assert!(topk.entries.len() <= k);
            for entry in &topk.entries {
                let p = reference.answer.probability_of(&entry.tuple);
                assert!(entry.lower_bound <= p + 1e-9, "{spec}: {entry:?} above {p}");
                assert!(entry.upper_bound + 1e-9 >= p, "{spec}: {entry:?} below {p}");
            }
            if !topk.stopped_early {
                assert_eq!(topk.entries.len(), k.min(exact.len()), "{spec}, k = {k}");
            }
            if let (1, Some(best)) = (k, topk.entries.first()) {
                let got = reference.answer.probability_of(&best.tuple);
                assert!(
                    (exact[0].1 - got).abs() < 1e-9,
                    "{spec}: top-1 is not an argmax"
                );
            }
        }
    }
}

#[test]
fn top_k_matches_exact_top_k_on_generated_data() {
    let scenario = scenario(TargetSchemaKind::Paragon);
    let q10 = workload::query(QueryId::Q10);
    let exact = evaluate(
        &q10,
        &scenario.mappings,
        &scenario.catalog,
        Algorithm::OSharing(Strategy::Sef),
    )
    .unwrap();
    let exact_sorted = exact.answer.sorted();
    for k in [1usize, 2, 5] {
        let topk = top_k(
            &q10,
            &scenario.mappings,
            &scenario.catalog,
            k,
            Strategy::Sef,
        )
        .unwrap();
        assert!(topk.entries.len() <= k);
        // Every returned entry's lower bound must not exceed its exact probability, and the
        // top-1 tuple must be an argmax of the exact distribution.
        for entry in &topk.entries {
            let p = exact.answer.probability_of(&entry.tuple);
            assert!(entry.lower_bound <= p + 1e-9);
            assert!(entry.upper_bound + 1e-9 >= p);
        }
        if k == 1 && !exact_sorted.is_empty() {
            let best_p = exact_sorted[0].1;
            let got_p = exact.answer.probability_of(&topk.entries[0].tuple);
            assert!((best_p - got_p).abs() < 1e-9, "top-1 is not an argmax");
        }
    }
}

#[test]
fn mapping_sets_generated_from_scenarios_are_valid() {
    for target in TargetSchemaKind::all() {
        let s = scenario(target);
        s.mappings.validate().unwrap();
        assert!(s.mappings.o_ratio() > 0.3, "{target}: overlap too low");
        // Sweeping the mapping count keeps the distribution valid.
        for h in [2usize, 5, 9] {
            let truncated = s.with_mappings(h);
            truncated.mappings.validate().unwrap();
        }
    }
}
