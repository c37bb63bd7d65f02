//! Property test: an answer built from the factors of its source queries is the answer of the
//! multiplied-out source queries, to the bit.
//!
//! The batch submits a tuple-producing source query as the factors of its product and builds
//! its answer from them ([`urm::core::answer::aggregate`]): it folds clusters whose factors
//! hold equal rows, probes only the rows two groups can both produce, and sums each answer's
//! probability over the set of clusters that produce it.  The reference here shares none of
//! that: each cluster's *un-factored* optimised plan runs through `Executor::run` — the product
//! multiplied out — and each distinct tuple's probability is summed over the clusters in
//! cluster order, in a `HashMap`.  The two must agree in `sorted()` order, tuple for tuple and
//! probability bit for probability bit, and render to the same `answer_json` bytes.
//!
//! Covered: random scenarios and mapping sets (h from 2 to 100, so `basic`'s one cluster per
//! mapping passes more than 64 clusters); the batch, and a cold then a warm batch over one
//! persistent epoch; existence guards (a relation reached only by predicates), answer columns a mapping
//! leaves NULL, answer columns repeated; clusters with equal factors folded among others that
//! produce some of the same answers.

use proptest::prelude::*;
use proptest::TestRng;
use std::collections::{HashMap, HashSet};
use urm::core::reformulate::{
    extract_answers, partitioned_reformulations, reformulate, Extraction, Reformulated, SourceQuery,
};
use urm::core::{
    evaluate, evaluate_batch, evaluate_batch_on, Algorithm, BatchEpoch, BatchOptions,
    ProbabilisticAnswer,
};
use urm::datagen::replay::parse_spec;
use urm::datagen::source::planted;
use urm::engine::optimize::optimize;
use urm::engine::Executor;
use urm::prelude::*;
use urm_server::answer_json;

/// Each schema's specs, and for Excel three queries of its own: an existence guard (`PO` is
/// reached only by a predicate), repeated answer columns, and answer columns most mappings
/// leave NULL.
fn queries(target: TargetSchemaKind) -> Vec<TargetQuery> {
    let specs: &[&str] = match target {
        TargetSchemaKind::Excel => &["Q1", "Q2", "Q3", "Q4", "Q5", "sel:3", "prod:2", "join:2"],
        TargetSchemaKind::Noris => &["Q6", "Q7"],
        TargetSchemaKind::Paragon => &["Q8", "Q9", "Q10"],
    };
    let mut queries: Vec<TargetQuery> = specs
        .iter()
        .map(|spec| parse_spec(spec).expect("spec parses").query)
        .collect();
    if target == TargetSchemaKind::Excel {
        let guard = TargetQuery::builder("guard")
            .relation("PO")
            .relation("Item")
            .filter_eq("PO.telephone", planted::TELEPHONE)
            .returning(["Item.itemNum", "Item.quantity"])
            .build();
        let repeated = TargetQuery::builder("repeated")
            .relation("PO")
            .relation("Item")
            .filter_eq("Item.quantity", 10i64)
            .returning([
                "Item.itemNum",
                "PO.orderNum",
                "Item.itemNum",
                "PO.telephone",
            ])
            .build();
        // Attributes few mappings cover: most clusters read some of them as NULL.
        let sparse = TargetQuery::builder("sparse")
            .relation("PO")
            .filter_eq("PO.telephone", planted::TELEPHONE)
            .returning([
                "PO.orderNum",
                "PO.customerRef",
                "PO.projectCode",
                "PO.region",
            ])
            .build();
        queries.extend([guard.unwrap(), repeated.unwrap(), sparse.unwrap()]);
    }
    queries
}

/// The reference answer of source queries taken in order, each with its probability: every
/// un-factored optimised plan run whole, a tuple built from each of its rows, and its distinct
/// tuples' probabilities summed per tuple.
/// Returned sorted — descending probability, then tuple — and as an answer of the incremental
/// `add_distinct`, for its rendering.
fn reference(
    clusters: &[(SourceQuery, f64)],
    empty_probability: f64,
    catalog: &Catalog,
) -> (Vec<(Tuple, f64)>, ProbabilisticAnswer) {
    let mut mass: HashMap<Tuple, f64> = HashMap::new();
    let mut answer = ProbabilisticAnswer::new();
    for (sq, probability) in clusters {
        let plan = optimize(&sq.plan, catalog).expect("optimises");
        let result = Executor::new(catalog).run(&plan).expect("runs");
        let schema = result.schema();
        let positions: Vec<Option<usize>> = match &sq.extraction {
            Extraction::Raw => (0..schema.arity()).map(Some).collect(),
            Extraction::Columns(columns) => columns
                .iter()
                .map(|c| {
                    c.as_ref()
                        .map(|n| schema.position(n).expect("in the result"))
                })
                .collect(),
        };
        let mut seen = HashSet::new();
        for row in result.rows() {
            let tuple: Tuple = positions
                .iter()
                .map(|p| p.map_or(Value::Null, |i| row.values()[i].clone()))
                .collect();
            if seen.insert(tuple.clone()) {
                *mass.entry(tuple).or_insert(0.0) += probability;
            }
        }
        answer.add_distinct(extract_answers(&result, &sq.extraction), *probability);
    }
    if empty_probability > 0.0 {
        answer.add_empty(empty_probability);
    }
    let mut sorted: Vec<(Tuple, f64)> = mass.into_iter().collect();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    (sorted, answer)
}

/// `got` is the reference: the same tuples in the same order with the same probability bits,
/// and the same rendered bytes.
fn assert_reference(
    got: &ProbabilisticAnswer,
    want: &(Vec<(Tuple, f64)>, ProbabilisticAnswer),
    context: &str,
) {
    let sorted = got.sorted();
    assert_eq!(sorted.len(), want.0.len(), "{context}: cardinality");
    for ((t, p), (u, q)) in sorted.iter().zip(&want.0) {
        assert_eq!(t, u, "{context}: tuples");
        assert_eq!(p.to_bits(), q.to_bits(), "{context}: {t} has {p}, not {q}");
    }
    assert_eq!(
        answer_json(context, got).to_string(),
        answer_json(context, &want.1).to_string(),
        "{context}: rendered bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn an_answer_from_factors_is_the_answer_of_the_multiplied_out_roots(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let target = [
            TargetSchemaKind::Excel,
            TargetSchemaKind::Noris,
            TargetSchemaKind::Paragon,
        ][rng.index(3)];
        // Every other case at h = 100: `basic` aggregates one cluster per mapping.
        let h = if rng.index(2) == 0 { 100 } else { 2 + rng.index(40) };
        let scenario = Scenario::generate(&ScenarioConfig {
            target,
            scale: 2 + rng.index(8),
            mappings: h,
            seed: rng.next_u64(),
        })
        .expect("scenario generation");
        let (mappings, catalog) = (&scenario.mappings, &scenario.catalog);
        let queries = queries(target);

        let batch = evaluate_batch(&queries, mappings, catalog, &BatchOptions::sequential())
            .expect("batch evaluates");
        // The service's path: one epoch state, a cold batch and then a warm one over it.
        let epoch = BatchEpoch::new(None);
        let options = BatchOptions::parallel(2);
        let on_epoch: Vec<_> = ["cold", "warm"]
            .into_iter()
            .map(|label| {
                let run = evaluate_batch_on(&queries, mappings, catalog, &options, &epoch);
                (label, run.expect("epoch batch evaluates"))
            })
            .collect();
        for (at, query) in queries.iter().enumerate() {
            let clustering = partitioned_reformulations(query, mappings, catalog).unwrap();
            let clusters: Vec<(SourceQuery, f64)> = clustering
                .clusters
                .into_iter()
                .map(|cluster| (cluster.query, cluster.probability))
                .collect();
            let want = reference(&clusters, clustering.empty_probability, catalog);
            let name = query.name();
            assert_reference(&batch.evaluations[at].answer, &want, &format!("{name} batch"));
            for (label, run) in &on_epoch {
                let got = &run.evaluations[at].answer;
                assert_reference(got, &want, &format!("{name} {label} batch"));
            }

            // `basic`: one cluster per mapping, in mapping order.
            let (mut per_mapping, mut empty) = (Vec::new(), 0.0);
            for mapping in mappings.iter() {
                match reformulate(query, mapping, catalog).unwrap() {
                    Reformulated::Query(sq) => per_mapping.push((sq, mapping.probability())),
                    Reformulated::Empty => empty += mapping.probability(),
                }
            }
            let want = reference(&per_mapping, empty, catalog);
            let basic = evaluate(query, mappings, catalog, Algorithm::Basic).expect("basic");
            assert_reference(&basic.answer, &want, &format!("{name} basic, h = {h}"));
        }
    }
}
