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
//! tuples read and tuples output went from 127 / 8 964 / 28 754 to 86 / 4 757 / 3 989).

mod cold_batch;

use cold_batch::{scenario, SPECS, TARGETS};
use urm::core::algorithms::batch::{evaluate_batch, BatchOptions};
use urm::core::reformulate::{reformulate, Reformulated};
use urm::core::{evaluate, Algorithm, Strategy};
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
            [42, 843, 931, 3],
            [24, 579, 656, 3],
            [24, 579, 656, 0],
        ],
    ),
    (
        "Q2",
        [
            [210, 6_640, 6_640, 30],
            [21, 680, 680, 3],
            [15, 520, 520, 3],
            [2, 160, 81, 0],
        ],
    ),
    (
        "Q3",
        [
            [410, 36_630, 89_462, 30],
            [55, 4_742, 11_946, 4],
            [33, 4_092, 10_971, 4],
            [33, 4_092, 10_971, 0],
        ],
    ),
    (
        "Q4",
        [
            [312, 20_422, 73_254, 30],
            [42, 2_729, 9_933, 4],
            [31, 2_161, 9_001, 4],
            [36, 2_761, 9_481, 0],
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
            [27, 540, 588, 2],
            [20, 418, 456, 2],
            [20, 418, 456, 0],
        ],
    ),
    (
        "Q7",
        [
            [244, 9_898, 12_298, 30],
            [16, 654, 814, 2],
            [14, 494, 534, 2],
            [15, 534, 541, 0],
        ],
    ),
    (
        "Q8",
        [
            [274, 5_930, 5_930, 30],
            [18, 382, 382, 2],
            [14, 292, 291, 2],
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
            [30, 683, 803, 3],
            [16, 523, 641, 3],
            [17, 543, 644, 0],
        ],
    ),
    (
        "join:2",
        [
            [306, 19_410, 72_850, 30],
            [41, 2_568, 9_848, 4],
            [28, 2_170, 9_127, 4],
            [28, 2_170, 9_127, 0],
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
