//! The finding behind the join-graph normal form, held as a regression test: Section VI-B
//! reformulation multiplies in source relations no predicate reaches, and those used to reach
//! the roots as duplicates (178 609 root rows for 21 897 distinct ones on the benchmark's cold
//! batch).  With
//! the products factored under set semantics, a tuple-producing root carries exactly its
//! answers, and the batch's operators produce a fraction of the rows they did.

use urm::core::reformulate::{reformulate, Extraction, Reformulated};
use urm::core::{evaluate_batch, BatchOptions};
use urm::datagen::replay::parse_spec;
use urm::engine::optimize::optimize;
use urm::engine::{Executor, Plan};
use urm::prelude::*;

/// The Excel queries of the benchmark's `cold_batch` with a multi-relation reformulation.
const SPECS: &[&str] = &["Q1", "Q3", "Q4", "sel:3", "join:2"];

/// The benchmark's own size: scale 20, h = 30, seed 42.
fn excel() -> Scenario {
    Scenario::generate(&ScenarioConfig {
        target: TargetSchemaKind::Excel,
        scale: 20,
        mappings: 30,
        seed: 42,
    })
    .expect("scenario generation")
}

fn queries() -> Vec<TargetQuery> {
    SPECS
        .iter()
        .map(|spec| parse_spec(spec).expect("benchmark spec parses").query)
        .collect()
}

#[test]
fn no_duplicate_survives_to_a_root() {
    let scenario = excel();
    let (mappings, catalog) = (&scenario.mappings, &scenario.catalog);
    let (mut roots, mut factored) = (0usize, 0usize);
    for query in queries() {
        for mapping in mappings.iter() {
            let Reformulated::Query(sq) = reformulate(&query, mapping, catalog).unwrap() else {
                continue;
            };
            assert!(matches!(sq.extraction, Extraction::Columns(_)));
            assert!(
                matches!(sq.plan, Plan::Distinct { .. }),
                "a tuple-producing source query is a set:\n{}",
                sq.plan
            );
            let plan = optimize(&sq.plan, catalog).unwrap();
            let root = Executor::new(catalog).run(&plan).unwrap();
            let view = root
                .view()
                .expect("a tuple-producing root is late-materialized");
            let every_column: Vec<usize> = (0..view.arity()).collect();
            assert_eq!(
                root.len(),
                view.distinct_rows(&every_column).len(),
                "{}: duplicate rows reached the root of\n{plan}",
                query.name()
            );
            roots += 1;
            factored += usize::from(matches!(plan, Plan::Product { .. } | Plan::Project { .. }));
        }
    }
    assert!(roots >= 100, "{roots} source queries: the scenario changed");
    assert!(
        factored > 0,
        "no source query had a relation no predicate reaches: nothing was tested"
    );
}

#[test]
fn the_batch_produces_a_fraction_of_the_rows_it_did() {
    let scenario = excel();
    let batch = evaluate_batch(
        &queries(),
        &scenario.mappings,
        &scenario.catalog,
        &BatchOptions::sequential(),
    )
    .unwrap();
    let answers: usize = batch.evaluations.iter().map(|e| e.answer.len()).sum();
    assert!(answers > 0);
    // Under the left-deep rewrite this batch's operators produced 517 978 rows, and 28 593
    // under the normal form with its products executed; with each product submitted as its
    // factors they produce 3 828.  The bound leaves room for a change of estimate, not for a
    // product.
    let produced = batch.exec.tuples_output;
    assert!(
        produced <= 4_000,
        "{produced} rows produced for {answers} answers"
    );
}
