//! The work the engine does on the benchmark's cold batch, pinned by count.
//!
//! Representation changes (how a plan names its columns, how the optimizer and binder build
//! their state) must not change *what runs*: which operators execute, how many rows they read
//! and write, how many source queries there are.  These counters are exact and host
//! independent, so they are pinned to the values recorded before such a change — for one batch
//! over the `cold_batch` spec list, and for four sequential algorithms per query.  The
//! fingerprint of one reformulated plan is pinned too: it keys every cluster, DAG node and
//! answer-cache entry, and hashes the plan's names byte for byte.
//!
//! A change that means to do less work re-records the rows it changes, and says so: the batch
//! rows fell when a batch began submitting each product as its factors (Excel's operators,
//! tuples read and tuples output went from 127 / 8 964 / 28 754 to 86 / 4 757 / 3 989), and
//! the e-basic, q-sharing and o-sharing cells fell when those algorithms began lowering their
//! source queries that way too (q-sharing's Q3: 33 / 4 092 / 10 971 to 24 / 1 242 / 1 226).

mod cold_batch;

use cold_batch::{scenario, SPECS, TARGETS};
use urm::core::algorithms::batch::{evaluate_batch, BatchOptions};
use urm::core::reformulate::{reformulate, Reformulated};
use urm::core::{evaluate, top_k, Algorithm, Strategy};
use urm::datagen::replay::parse_spec;
use urm::datagen::scenario::TargetSchemaKind;
use urm::engine::optimize::{fingerprint, optimize};
use urm::engine::ExecStats;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Basic,
    Algorithm::EBasic,
    Algorithm::QSharing,
    Algorithm::OSharing(Strategy::Sef),
];

/// `[operators_executed, tuples_read, tuples_output, source_queries]`.
type Counters = [u64; 4];

/// One `evaluate_batch` per target schema over its share of [`SPECS`].
const BATCH: [(TargetSchemaKind, Counters); 3] = [
    (TargetSchemaKind::Excel, [86, 4_757, 3_989, 29]),
    (TargetSchemaKind::Noris, [24, 644, 610, 6]),
    (TargetSchemaKind::Paragon, [20, 1_273, 1_201, 5]),
];

/// Per distinct spec, one row per algorithm of [`ALGORITHMS`].
const PER_QUERY: [(&str, [Counters; 4]); 12] = [
    (
        "Q1",
        [
            [402, 7_394, 8_082, 30],
            [31, 654, 750, 3],
            [15, 394, 477, 3],
            [15, 394, 477, 0],
        ],
    ),
    (
        "Q2",
        [
            [210, 6_640, 6_640, 30],
            [15, 560, 680, 3],
            [9, 400, 520, 3],
            [2, 160, 81, 0],
        ],
    ),
    (
        "Q3",
        [
            [410, 36_630, 89_462, 30],
            [44, 1_888, 2_199, 4],
            [24, 1_242, 1_226, 4],
            [24, 1_242, 1_226, 0],
        ],
    ),
    (
        "Q4",
        [
            [312, 20_422, 73_254, 30],
            [36, 2_306, 2_613, 4],
            [25, 1_738, 1_681, 4],
            [30, 2_338, 2_161, 0],
        ],
    ),
    (
        "Q5",
        [
            [180, 5_670, 5_700, 30],
            [6, 189, 190, 1],
            [6, 189, 190, 1],
            [6, 189, 190, 0],
        ],
    ),
    (
        "Q6",
        [
            [408, 8_326, 9_078, 30],
            [20, 436, 489, 2],
            [13, 314, 357, 2],
            [13, 314, 357, 0],
        ],
    ),
    (
        "Q7",
        [
            [244, 9_898, 12_298, 30],
            [13, 490, 653, 2],
            [11, 330, 373, 2],
            [12, 370, 380, 0],
        ],
    ),
    (
        "Q8",
        [
            [274, 5_930, 5_930, 30],
            [14, 340, 382, 2],
            [10, 250, 291, 2],
            [3, 120, 90, 0],
        ],
    ),
    (
        "Q9",
        [
            [196, 17_990, 18_020, 30],
            [13, 1_150, 1_152, 2],
            [8, 981, 947, 2],
            [8, 981, 947, 0],
        ],
    ),
    (
        "Q10",
        [
            [60, 1_260, 1_290, 30],
            [2, 42, 43, 1],
            [2, 42, 43, 1],
            [2, 42, 43, 0],
        ],
    ),
    (
        "sel:3",
        [
            [300, 6_670, 7_870, 30],
            [24, 554, 680, 3],
            [12, 398, 520, 3],
            [13, 418, 523, 0],
        ],
    ),
    (
        "join:2",
        [
            [306, 19_410, 72_850, 30],
            [34, 2_064, 2_448, 4],
            [21, 1_666, 1_727, 4],
            [21, 1_666, 1_727, 0],
        ],
    ),
];

/// Q4 through the Excel scenario's most probable mapping: the literal plan's fingerprint and
/// its optimised plan's.
const Q4_FINGERPRINTS: (u64, u64) = (11_267_600_350_684_887_057, 10_831_925_740_302_936_421);

fn counters(stats: &ExecStats) -> Counters {
    [
        stats.operators_executed,
        stats.tuples_read,
        stats.tuples_output,
        stats.source_queries,
    ]
}

#[test]
fn the_cold_batch_does_the_same_work() {
    let mut batch = Vec::new();
    let mut per_query = Vec::new();
    for target in TARGETS {
        let scenario = scenario(target);
        let entries: Vec<_> = SPECS
            .iter()
            .map(|spec| parse_spec(spec).unwrap())
            .filter(|entry| entry.target == target)
            .collect();
        let queries: Vec<_> = entries.iter().map(|entry| entry.query.clone()).collect();
        let run = evaluate_batch(
            &queries,
            &scenario.mappings,
            &scenario.catalog,
            &BatchOptions::sequential(),
        )
        .unwrap();
        batch.push((target, counters(&run.exec)));

        for (spec, _) in PER_QUERY {
            let Some(entry) = entries.iter().find(|entry| entry.label == spec) else {
                continue;
            };
            let rows = ALGORITHMS.map(|algorithm| {
                let evaluation = evaluate(
                    &entry.query,
                    &scenario.mappings,
                    &scenario.catalog,
                    algorithm,
                )
                .unwrap();
                counters(&evaluation.metrics.exec)
            });
            per_query.push((spec, rows));
        }
    }
    per_query.sort_by_key(|(spec, _)| PER_QUERY.iter().position(|(s, _)| s == spec));
    assert_eq!(batch, BATCH, "one batch per target schema");
    assert_eq!(
        per_query, PER_QUERY,
        "basic, e-basic, q-sharing, o-sharing(SEF)"
    );
}

#[test]
fn a_reformulated_plan_keeps_its_fingerprint() {
    let scenario = scenario(TargetSchemaKind::Excel);
    let query = parse_spec("Q4").unwrap().query;
    let top = &scenario.mappings.mappings()[0];
    let Reformulated::Query(sq) = reformulate(&query, top, &scenario.catalog).unwrap() else {
        panic!("Q4 reformulates through the top mapping");
    };
    let optimised = optimize(&sq.plan, &scenario.catalog).unwrap();
    assert_eq!(
        (fingerprint(&sq.plan), fingerprint(&optimised)),
        Q4_FINGERPRINTS,
        "\n{}\n{optimised}",
        sq.plan
    );
}

#[test]
fn a_full_top_k_traversal_is_o_sharings_answer_to_the_bit() {
    // k past the answer's size is decided only at the last leaf, so every e-unit is visited:
    // top-k's leaves, merged one by one, sum as o-sharing's one aggregation does, on no more
    // rows.
    for spec in ["Q3", "join:2"] {
        let entry = parse_spec(spec).unwrap();
        let scenario = scenario(entry.target);
        let (query, mappings, catalog) = (&entry.query, &scenario.mappings, &scenario.catalog);
        let exact = evaluate(query, mappings, catalog, Algorithm::OSharing(Strategy::Sef)).unwrap();
        let size = exact.answer.len();
        let topk = top_k(query, mappings, catalog, size + 1, Strategy::Sef).unwrap();
        assert!(size > 1 && !topk.stopped_early, "{spec}");
        let bounds = (topk.entries.into_iter()).map(|e| (e.tuple, e.lower_bound.to_bits()));
        let exact_bits = (exact.answer.top_k(size).into_iter()).map(|(t, p)| (t, p.to_bits()));
        assert!(bounds.eq(exact_bits), "{spec}");
        let output = [&topk.metrics, &exact.metrics].map(|m| m.exec.tuples_output);
        assert!(output[0] <= output[1], "{spec}: {output:?}");
    }
}
