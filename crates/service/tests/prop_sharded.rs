//! Property tests: the scatter-gather sharded service is invisible in answers.
//!
//! For randomly generated (scenario, batch, shard count, partition scheme, per-shard memory
//! budget) tuples, a sharded and a single-node [`QueryService`] answer the same
//! batch over the same epoch — and every answer must match **byte for byte**: same tuples in
//! canonical sorted order, same probabilities to the last bit.  Shard counts 1–4 are drawn
//! (1 exercises the degenerate single-shard runtime), both hash and range cuts, with and
//! without a per-shard spill budget.

use proptest::prelude::*;
use proptest::TestRng;
use urm_core::TargetQuery;
use urm_datagen::replay::parse_spec;
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_service::{QueryService, ServiceConfig};
use urm_storage::ShardScheme;

/// The Excel-target workload specs random batches are drawn from: every Table III Excel query
/// plus the sweep families — selections, products, join fan-outs and the Zipf-skewed
/// self-joins (aggregate-producing queries ride along inside Q2/Q5, exercising the singleton
/// route next to the scatter route).
const SPEC_POOL: &[&str] = &[
    "Q1", "Q2", "Q3", "Q4", "Q5", "sel:1", "sel:2", "sel:3", "prod:2", "join:2", "join:3",
    "skew:1", "skew:2",
];

fn random_batch(rng: &mut TestRng) -> Vec<TargetQuery> {
    (0..1 + rng.index(5))
        .map(|_| {
            parse_spec(SPEC_POOL[rng.index(SPEC_POOL.len())])
                .expect("pool specs are well-formed")
                .query
        })
        .collect()
}

/// A sharded batch reports the threads its shards' DAGs ran on, not the configured DAG
/// workers: four shards at two DAG workers run one thread each.
#[test]
fn sharded_batches_report_the_threads_their_shards_used() {
    let scenario = Scenario::generate(&ScenarioConfig {
        target: TargetSchemaKind::Excel,
        scale: 4,
        mappings: 6,
        seed: 7,
    })
    .expect("scenario generates");
    let service = QueryService::new(ServiceConfig {
        shards: 4,
        dag_workers: 2,
        ..ServiceConfig::tiny()
    });
    let epoch = service.register_epoch(scenario.catalog, scenario.mappings);
    let queries = ["Q1", "join:2"].map(|spec| parse_spec(spec).unwrap().query);
    service.execute_all(epoch, queries.to_vec()).unwrap();
    let reports = service.reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].shards, 4);
    assert!(reports[0].run.nodes_executed > 0, "the batch is cold");
    assert_eq!(reports[0].run.workers, 4, "one DAG thread per shard");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded answers ≡ single-node answers, bit for bit, over random scenarios and batches.
    #[test]
    fn sharded_service_is_byte_identical_to_single_node(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let scenario = Scenario::generate(&ScenarioConfig {
            target: TargetSchemaKind::Excel,
            scale: 4 + rng.index(6),
            mappings: 4 + rng.index(8),
            seed: seed ^ 0x9e37_79b9,
        })
        .expect("scenario generates");
        let shards = 1 + rng.index(4);
        let scheme = [ShardScheme::Hash, ShardScheme::Range][rng.index(2)];
        // One case in four runs every shard under a zero-byte spill budget — everything a
        // shard materialises pages through its own spill pool, and the merge must not care.
        let memory_budget = if rng.index(4) == 0 { Some(0) } else { None };
        let queries = random_batch(&mut rng);

        let config = ServiceConfig {
            workers: 1 + rng.index(2),
            dag_workers: 1 + rng.index(2),
            memory_budget,
            ..ServiceConfig::tiny()
        };
        let single = QueryService::new(config.clone());
        let sharded = QueryService::new(ServiceConfig { shards, shard_scheme: scheme, ..config });
        let single_epoch =
            single.register_epoch(scenario.catalog.clone(), scenario.mappings.clone());
        let sharded_epoch =
            sharded.register_epoch(scenario.catalog.clone(), scenario.mappings.clone());

        let expected = single.execute_all(single_epoch, queries.clone()).unwrap();
        let responses = sharded.execute_all(sharded_epoch, queries.clone()).unwrap();
        prop_assert_eq!(expected.len(), responses.len());
        for ((query, a), b) in queries.iter().zip(&expected).zip(&responses) {
            let (sa, sb) = (a.answer.sorted(), b.answer.sorted());
            prop_assert_eq!(
                sa.len(),
                sb.len(),
                "{} × {} {} shards (budget {:?}): answer cardinality",
                query.name(), shards, scheme, memory_budget
            );
            for ((t1, p1), (t2, p2)) in sa.iter().zip(&sb) {
                prop_assert_eq!(
                    t1, t2,
                    "{} × {} {} shards (budget {:?}): tuples",
                    query.name(), shards, scheme, memory_budget
                );
                prop_assert_eq!(
                    p1.to_bits(), p2.to_bits(),
                    "{} × {} {} shards (budget {:?}): probabilities ({} vs {})",
                    query.name(), shards, scheme, memory_budget, p1, p2
                );
            }
        }
        if shards > 1 {
            let metrics = sharded.metrics();
            prop_assert!(metrics.shard_batches >= 1, "no batch took the sharded path");
            prop_assert!(metrics.shard_fanouts > 0, "no roots were fanned out");
        }
    }
}
