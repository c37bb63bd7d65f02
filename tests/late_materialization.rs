//! The benchmark's `cold_batch` spec list runs entirely through the vectorized,
//! late-materializing kernels: every row the batch's operators produce comes out of a columnar
//! kernel or is a base row a scan hands out — and its answers are aggregated off the roots'
//! views, without building the roots' rows — or a tuple at all: an answer is rows of ids over
//! its own value pool until somebody asks it for tuples.

use urm::core::answer::tuples_materialized;
use urm::core::reformulate::{reformulate, Extraction, Reformulated};
use urm::core::{evaluate_batch, evaluate_batch_on, BatchEpoch, BatchOptions};
use urm::datagen::replay::parse_spec;
use urm::engine::Executor;
use urm::prelude::*;
use urm::service::Tracer;

/// `benchmarks/e2e/src/workload.rs`, workload `cold_batch`.
const COLD_BATCH_SPECS: &[&str] = &[
    "Q1", "Q1", "Q2", "Q3", "Q4", "Q4", "Q5", "Q6", "Q6", "Q7", "Q8", "Q9", "Q10", "sel:3",
    "join:2",
];

/// The spec list's queries per target schema, each with a generated scenario to run them on.
fn cold_batch() -> Vec<(Vec<TargetQuery>, Scenario)> {
    let entries: Vec<_> = COLD_BATCH_SPECS
        .iter()
        .map(|spec| parse_spec(spec).expect("benchmark spec parses"))
        .collect();
    let mut batches = Vec::new();
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
        batches.push((queries, scenario));
    }
    batches
}

#[test]
fn cold_batch_specs_run_columnar() {
    let (mut columnar, mut shared, mut output) = (0u64, 0u64, 0u64);
    for (queries, scenario) in cold_batch() {
        for options in [BatchOptions::sequential(), BatchOptions::parallel(2)] {
            let batch = evaluate_batch(&queries, &scenario.mappings, &scenario.catalog, &options)
                .expect("batch evaluates");
            assert!(batch.exec.tuples_output > 0);
            columnar += batch.exec.columnar_rows;
            shared += batch.exec.rows_shared;
            output += batch.exec.tuples_output;
        }
    }
    assert!(
        columnar > 0 && columnar + shared == output,
        "of the batch's {output} output rows, {columnar} came from columnar kernels and \
         {shared} from scans"
    );
}

/// After a cold batch, no tuple-producing root — each a factor of a source query's product —
/// has built its row buffer: each still weighs what its view's index vectors weigh.  The
/// answers aggregated off those views are o-sharing(SEF)'s, to the last bit; the `aggregate`
/// span says the step added one entry per answer, off fewer factor rows than answers; and the
/// batch built no tuple doing so.  (The
/// counter is process-wide: the other test of this file evaluates batches too, and like this
/// one asks no answer for its tuples while a batch is being evaluated.)
#[test]
fn cold_batch_answers_come_off_unbuilt_roots() {
    let (mut roots, mut root_rows, mut answers) = (0usize, 0usize, 0usize);
    let (mut factor_rows, mut rows_probed, mut answers_added) = (0u64, 0u64, 0u64);
    for (queries, scenario) in cold_batch() {
        let (mappings, catalog) = (&scenario.mappings, &scenario.catalog);
        let set = BatchEpoch::new(None);
        let tracer = Tracer::enabled("cold-batch");
        let options = BatchOptions::parallel(2).with_tracer(tracer.clone());
        let built = tuples_materialized();
        let batch = evaluate_batch_on(&queries, mappings, catalog, &options, &set)
            .expect("batch evaluates");
        assert_eq!(tuples_materialized(), built, "the batch built tuples");
        let trace = tracer.finish().expect("an enabled tracer reports");
        let aggregate = trace.spans().iter().find(|s| s.name == "aggregate");
        let tag = |key: &str| {
            let tags = &aggregate.expect("the batch traced its aggregate step").tags;
            let found = tags.iter().find(|(k, _)| *k == key);
            found
                .unwrap_or_else(|| panic!("aggregate span without '{key}'"))
                .1
        };
        rows_probed += tag("rows");
        factor_rows += tag("factor_rows");
        answers_added += tag("answers");
        for (query, evaluation) in queries.iter().zip(&batch.evaluations) {
            let oracle = evaluate(query, mappings, catalog, Algorithm::OSharing(Strategy::Sef))
                .expect("o-sharing evaluates");
            let (got, want) = (evaluation.answer.sorted(), oracle.answer.sorted());
            assert_eq!(got.len(), want.len(), "{}: cardinality", query.name());
            for ((t, p), (u, q)) in got.iter().zip(&want) {
                assert_eq!(t.to_string(), u.to_string(), "{}: tuples", query.name());
                assert_eq!(p.to_bits(), q.to_bits(), "{}: {p} vs {q}", query.name());
            }
            answers += got.len();
        }

        // The batch's roots again, now answered by the epoch's pinned results: the very
        // relations the batch aggregated.
        let mut exec = Executor::new(catalog);
        let mut epoch = set.dag();
        let mut tuple_roots = Vec::new();
        for query in &queries {
            for mapping in mappings.iter() {
                let Reformulated::Query(sq) = reformulate(query, mapping, catalog).unwrap() else {
                    continue;
                };
                // A tuple-producing source query was submitted as its factors.
                let tuples = matches!(sq.extraction, Extraction::Columns(_));
                let factors = set.factor_keys(sq.plan.fingerprint()).expect("split");
                for factor in factors {
                    epoch
                        .submit_with(factor, || unreachable!("already bound"))
                        .expect("already bound");
                    tuple_roots.push(tuples);
                }
            }
        }
        let run = epoch.execute_pending(&mut exec, 1).expect("warm run");
        assert_eq!(run.report.nodes_executed, 0, "the roots are pinned");
        for (root, _) in run.root_results.iter().zip(tuple_roots).filter(|(_, t)| *t) {
            let view = root.view().expect("tuple-producing roots are views");
            assert_eq!(
                root.estimated_bytes(),
                view.estimated_bytes(),
                "a {}-row root built its rows",
                root.len()
            );
            roots += 1;
            root_rows += root.len();
        }
    }
    assert!(roots > 0 && answers > 0 && root_rows > 0);
    // An entry exists once per answer, not once per row of every source query's product.
    assert_eq!(
        answers_added, answers as u64,
        "{answers_added} entries added for {answers} answers off {rows_probed} enumerated rows"
    );
    assert!(rows_probed >= answers_added);
    // No product was multiplied out: the step read fewer factor rows than it built answers.
    assert!(
        factor_rows < answers_added,
        "{factor_rows} factor rows read for {answers_added} answers"
    );
}
