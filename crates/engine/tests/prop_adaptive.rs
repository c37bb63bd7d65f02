//! Property tests: the adaptive feedback loop is invisible in answers.
//!
//! For randomly generated (catalog, join-heavy plan batch, worker count) triples, run the same
//! batch for several rounds on one epoch, re-executing each round (a 1-byte pin budget keeps
//! nothing warm except the epoch's `CardinalityStore`):
//!
//! * every round returns, for every plan, exactly the rows of the row-at-a-time
//!   [`ReferenceExecutor`] — same schema, same rows, same row order — no matter what the
//!   feedback reordered or re-prioritised;
//! * the *cold* round is the static schedule (`observed_nodes` and `reordered_joins` are 0:
//!   an empty store reproduces the optimizer's estimates exactly), so the fed-back rounds are
//!   held to the static answer too;
//! * a deterministic unit case holds the loop to its point: a hash join whose build side the
//!   static plan mis-sizes flips to the smaller observed side after one batch of history,
//!   without changing a byte of the answer.

use proptest::prelude::*;
use proptest::TestRng;
use urm_engine::optimize::fingerprint;
use urm_engine::{CompareOp, EpochDag, EpochRun, Executor, Plan, Predicate, ReferenceExecutor};
use urm_storage::{Attribute, Catalog, DataType, Relation, Schema, Tuple, Value};

/// A tiny value domain so joins and selections actually hit; nulls included so null-key
/// handling is exercised on the flipped build path.
fn random_value(rng: &mut TestRng, dt: DataType) -> Value {
    if rng.index(8) == 0 {
        return Value::Null;
    }
    match dt {
        DataType::Int => Value::from(rng.index(4) as i64),
        DataType::Float => Value::from([0.0, 1.5, 2.5][rng.index(3)]),
        DataType::Text => Value::from(["a", "b", "c"][rng.index(3)]),
        DataType::Bool => Value::from(rng.index(2) == 0),
        _ => Value::Null,
    }
}

/// Random relations with *asymmetric* row counts (0–25) so observed build/probe sides
/// genuinely differ and build-side flips trigger.
fn random_catalog(rng: &mut TestRng) -> Catalog {
    let mut cat = Catalog::new();
    let types = [DataType::Int, DataType::Text, DataType::Float];
    for r in 0..2 + rng.index(2) {
        let arity = 1 + rng.index(3);
        let attrs: Vec<Attribute> = (0..arity)
            .map(|i| Attribute::new(format!("c{i}"), types[rng.index(types.len())]))
            .collect();
        let schema = Schema::new(format!("R{r}"), attrs.clone());
        let rows = (0..rng.index(26))
            .map(|_| {
                Tuple::new(
                    attrs
                        .iter()
                        .map(|a| random_value(rng, a.data_type))
                        .collect(),
                )
            })
            .collect();
        cat.insert(Relation::new(schema, rows).unwrap());
    }
    cat
}

fn random_column(rng: &mut TestRng, schema: &Schema) -> String {
    let names: Vec<&str> = schema.attribute_names().collect();
    names[rng.index(names.len())].to_string()
}

/// A join-heavy plan: two uniquely aliased scans (optionally pre-filtered, so join inputs can
/// be intermediates that miss the columnar leaf fast path and exercise the flipped row join)
/// joined on random columns, with an optional selection on top.
fn random_join_plan(rng: &mut TestRng, catalog: &Catalog, alias_seq: &mut usize) -> Plan {
    let names: Vec<String> = catalog.relation_names().map(String::from).collect();
    let mut scan = |rng: &mut TestRng| {
        *alias_seq += 1;
        let plan = Plan::scan_as(
            names[rng.index(names.len())].clone(),
            format!("J{alias_seq}"),
        );
        if rng.index(2) == 0 {
            let schema = plan.output_schema(catalog).expect("scan schema");
            let column = random_column(rng, &schema);
            let dt = schema
                .position(&column)
                .map(|p| schema.attributes()[p].data_type)
                .unwrap_or(DataType::Int);
            let op = [CompareOp::Eq, CompareOp::Ne, CompareOp::Gt][rng.index(3)];
            return plan.select(Predicate::compare(column, op, random_value(rng, dt)));
        }
        plan
    };
    let left = scan(rng);
    let right = scan(rng);
    let ls = left.output_schema(catalog).expect("input schema");
    let rs = right.output_schema(catalog).expect("input schema");
    let mut on = vec![(random_column(rng, &ls), random_column(rng, &rs))];
    if rng.index(3) == 0 {
        // Multi-key joins take the composite-key path of both build orders.
        on.push((random_column(rng, &ls), random_column(rng, &rs)));
    }
    let mut plan = left.hash_join(right, on);
    if rng.index(2) == 0 {
        let schema = plan.output_schema(catalog).expect("join schema");
        let column = random_column(rng, &schema);
        let dt = schema
            .position(&column)
            .map(|p| schema.attributes()[p].data_type)
            .unwrap_or(DataType::Int);
        let op = [CompareOp::Eq, CompareOp::Ne, CompareOp::Gt][rng.index(3)];
        plan = plan.select(Predicate::compare(column, op, random_value(rng, dt)));
    }
    plan
}

fn random_batch(rng: &mut TestRng, catalog: &Catalog) -> Vec<(Plan, Relation)> {
    let mut alias_seq = 0usize;
    let mut batch = Vec::new();
    for _ in 0..1 + rng.index(3) {
        let plan = random_join_plan(rng, catalog, &mut alias_seq);
        if let Ok(expected) = ReferenceExecutor::new(catalog).run(&plan) {
            batch.push((plan, expected));
        }
    }
    batch
}

/// Submits the whole batch and executes the pending snapshot on `workers` threads.
fn run_round(
    epoch: &mut EpochDag,
    exec: &mut Executor<'_>,
    batch: &[(Plan, Relation)],
    workers: usize,
) -> EpochRun {
    for (plan, _) in batch {
        epoch
            .submit_with(fingerprint(plan), || exec.bind(plan))
            .expect("reference-accepted plan binds");
    }
    epoch
        .execute_pending(exec, workers)
        .expect("batch executes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every round — the cold one on static estimates, the fed-back ones after it — is
    /// byte-identical to the reference evaluator, for every plan, on 1–3 scheduler workers.
    #[test]
    fn adaptive_execution_is_byte_identical_to_static_and_reference(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = random_catalog(&mut rng);
        let batch = random_batch(&mut rng, &catalog);
        if batch.is_empty() {
            return;
        }
        let workers = 1 + rng.index(3);

        // A 1-byte pin budget: warm rounds re-execute (nothing worth pinning survives) while
        // the epoch-owned CardinalityStore persists — the shape the feedback loop feeds on.
        let mut adaptive_epoch = EpochDag::with_pin_budget(1);
        let mut adaptive_exec = Executor::new(&catalog);
        for round in 0..3 {
            let a = run_round(&mut adaptive_epoch, &mut adaptive_exec, &batch, workers);
            if round == 0 {
                // Cold ≡ static: an empty store must reproduce the estimates.
                prop_assert_eq!(a.report.observed_nodes, 0, "cold round had observations");
                prop_assert_eq!(a.report.reordered_joins, 0, "cold round flipped a join");
            } else if a.report.nodes_executed > 0 {
                // Everything executed in round 0, so every re-executed node is observed.
                prop_assert!(a.report.observed_nodes > 0, "warm round ignored the store");
            }
            for ((plan, expected), got_a) in batch.iter().zip(&a.root_results) {
                let want_cols: Vec<&str> = expected.schema().attribute_names().collect();
                let got_cols: Vec<&str> = got_a.schema().attribute_names().collect();
                prop_assert_eq!(want_cols, got_cols, "round {round} schemas diverge:\n{plan}");
                prop_assert_eq!(
                    expected.rows(),
                    got_a.rows(),
                    "round {round} diverged from reference:\n{plan}"
                );
            }
        }
        prop_assert!(
            !adaptive_epoch.cardinalities().is_empty(),
            "three executed rounds recorded nothing"
        );
    }
}

/// A join whose probe (left) side is tiny and whose build (right) side is big, with its
/// reference answer.  The canonical join builds on the right — the wrong side here.
fn mis_sized_join() -> (Catalog, Vec<(Plan, Relation)>) {
    let mut cat = Catalog::new();
    let small = Schema::new("S", vec![Attribute::new("k", DataType::Int)]);
    let small_rows = (0..3)
        .map(|i| Tuple::new(vec![Value::from(i as i64 % 2)]))
        .collect();
    cat.insert(Relation::new(small, small_rows).unwrap());
    let big = Schema::new(
        "B",
        vec![
            Attribute::new("k", DataType::Int),
            Attribute::new("v", DataType::Int),
        ],
    );
    let big_rows = (0..200)
        .map(|i| Tuple::new(vec![Value::from(i as i64 % 2), Value::from(i as i64)]))
        .collect();
    cat.insert(Relation::new(big, big_rows).unwrap());

    // Selections under the join make both of its inputs intermediates (index-vector views),
    // the shape every join of a reformulated query has.
    let plan = Plan::scan("S")
        .select(Predicate::compare("S.k", CompareOp::Ge, Value::from(0i64)))
        .hash_join(
            Plan::scan("B").select(Predicate::compare("B.v", CompareOp::Ge, Value::from(0i64))),
            vec![("S.k".into(), "B.k".into())],
        );
    let reference = ReferenceExecutor::new(&cat).run(&plan).unwrap();
    assert!(reference.len() >= 200, "the join must have real fan-out");
    (cat, vec![(plan, reference)])
}

/// The loop's point, deterministically: one observed batch is enough for the feedback pass to
/// flip the mis-sized build side, and the flipped join runs — byte-identically.
#[test]
fn mis_estimated_build_side_flips_after_one_observed_batch() {
    let (cat, batch) = mis_sized_join();
    let mut exec = Executor::new(&cat);
    let mut epoch = EpochDag::with_pin_budget(1);

    let cold = run_round(&mut epoch, &mut exec, &batch, 1);
    assert_eq!(
        cold.report.reordered_joins, 0,
        "cold batch had no history to flip on"
    );
    assert_eq!(cold.report.observed_nodes, 0);
    let cold_rows = cold.root_results[0].rows().to_vec();
    assert_eq!(cold_rows, batch[0].1.rows());
    drop(cold);

    let warm = run_round(&mut epoch, &mut exec, &batch, 1);
    assert!(warm.report.nodes_executed > 0, "warm batch must re-execute");
    assert!(
        warm.report.observed_nodes > 0,
        "warm batch ignored the store"
    );
    assert_eq!(
        warm.report.reordered_joins, 1,
        "one observed batch did not flip the mis-sized build side"
    );
    assert_eq!(exec.stats().reordered_joins, 1);
    assert_eq!(
        warm.root_results[0].rows().to_vec(),
        cold_rows,
        "the flipped build side changed the answer bytes"
    );
}

/// `reordered_joins` counts joins that *ran* flipped, not joins a snapshot merely hinted: a
/// batch answered entirely from pinned results still consults the store (its join is hinted)
/// but executes nothing, so it must report no flip.
#[test]
fn fully_warm_batch_reports_no_reordered_joins() {
    let (cat, batch) = mis_sized_join();
    for workers in [1, 2] {
        let mut exec = Executor::new(&cat);
        let mut epoch = EpochDag::new(); // last-batch pinning: a repeat is answered from pins
        run_round(&mut epoch, &mut exec, &batch, workers);
        let warm = run_round(&mut epoch, &mut exec, &batch, workers);
        assert_eq!(warm.report.nodes_executed, 0, "every node must be pinned");
        assert!(
            warm.report.observed_nodes > 0,
            "the snapshot still consults the store"
        );
        assert_eq!(
            warm.report.reordered_joins, 0,
            "a join that never executed cannot have run flipped"
        );
        assert_eq!(warm.root_results[0].rows(), batch[0].1.rows());
    }
}
