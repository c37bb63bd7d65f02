//! The benchmark's `cold_batch` spec list runs (almost) entirely through the vectorized,
//! late-materializing kernels: of every row the batch's operators produce, at least nine in
//! ten come out of a columnar kernel — the rest are the base rows the scans hand out.

use urm::core::{evaluate_batch, BatchOptions};
use urm::datagen::replay::parse_spec;
use urm::prelude::*;

/// `benchmarks/e2e/src/workload.rs`, workload `cold_batch`.
const COLD_BATCH_SPECS: &[&str] = &[
    "Q1", "Q1", "Q2", "Q3", "Q4", "Q4", "Q5", "Q6", "Q6", "Q7", "Q8", "Q9", "Q10", "sel:3",
    "join:2",
];

#[test]
fn cold_batch_specs_run_columnar() {
    let entries: Vec<_> = COLD_BATCH_SPECS
        .iter()
        .map(|spec| parse_spec(spec).expect("benchmark spec parses"))
        .collect();
    let (mut columnar, mut output) = (0u64, 0u64);
    for target in [
        TargetSchemaKind::Excel,
        TargetSchemaKind::Noris,
        TargetSchemaKind::Paragon,
    ] {
        let queries: Vec<_> = entries
            .iter()
            .filter(|e| e.target == target)
            .map(|e| e.query.clone())
            .collect();
        if queries.is_empty() {
            continue;
        }
        let scenario = Scenario::generate(&ScenarioConfig {
            target,
            scale: 8,
            mappings: 12,
            seed: 42,
        })
        .expect("scenario generation");
        for options in [BatchOptions::sequential(), BatchOptions::parallel(2)] {
            let batch = evaluate_batch(&queries, &scenario.mappings, &scenario.catalog, &options)
                .expect("batch evaluates");
            assert!(batch.exec.tuples_output > 0);
            columnar += batch.exec.columnar_rows;
            output += batch.exec.tuples_output;
        }
    }
    let share = columnar as f64 / output as f64;
    assert!(
        share >= 0.9,
        "only {share:.3} of the batch's {output} output rows came from columnar kernels"
    );
}
