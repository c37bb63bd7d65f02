//! Property tests: shared-operator DAG execution is byte-identical to the row-at-a-time
//! [`ReferenceExecutor`].
//!
//! For every randomly generated (catalog, plan batch) — random schemas, random data, random
//! operator trees with deliberately overlapping sub-plans — the merged batch DAG must return,
//! for every root, exactly the relation the reference evaluator computes for that plan alone:
//! same schema, same rows, same row order.  Sequential and parallel scheduling must agree with
//! each other *and* with the reference, and every distinct bound operator must execute exactly
//! once no matter how many roots share it.
//!
//! The late-materialization suite at the bottom drives what flows *between* the nodes: generated
//! product → join → select → project chains whose every interior result is an index-vector
//! view over base columns (two views over one relation for self-joins, null keys, all-null and
//! variant-mixed columns, empty selections), held to the same identity — rows, row order,
//! schema and operator accounting — across tree evaluation, sequential and parallel DAG
//! scheduling, and cold, re-executing and warm epoch batches.

use proptest::prelude::*;
use proptest::TestRng;
use std::collections::HashMap;
use std::sync::Arc;
use urm_engine::optimize::fingerprint;
use urm_engine::{
    AggFunc, CompareOp, DagResultCache, DagRun, DagScheduler, EngineResult, EpochDag, ExecStats,
    Executor, OperatorDag, Plan, Predicate, ReferenceExecutor,
};
use urm_storage::{Attribute, Catalog, Column, DataType, Name, Relation, Schema, Tuple, Value};

/// A result store outside any epoch: answers what was published to it.
#[derive(Default)]
struct Memo(HashMap<u64, Arc<Relation>>);

impl DagResultCache for Memo {
    fn lookup(&mut self, fingerprint: u64) -> Option<Arc<Relation>> {
        self.0.get(&fingerprint).cloned()
    }
    fn publish(&mut self, fingerprint: u64, result: &Arc<Relation>) {
        self.0.insert(fingerprint, Arc::clone(result));
    }
}

/// Binds `plans` into one merged DAG and runs every one of them from scratch (an empty memo
/// answers nothing) on `workers` threads.
fn run_merged<'p>(
    plans: impl IntoIterator<Item = &'p Plan>,
    exec: &mut Executor<'_>,
    workers: usize,
) -> EngineResult<(OperatorDag, DagRun)> {
    let mut dag = OperatorDag::new();
    let mut roots = Vec::new();
    for plan in plans {
        roots.push(dag.add_plan(&exec.bind(plan)?));
    }
    let run = DagScheduler::with_workers(workers).execute_roots(
        &dag,
        &roots,
        exec,
        &mut Memo::default(),
    )?;
    Ok((dag, run))
}

/// The value domain is deliberately tiny so selections and joins actually hit.
fn random_value(rng: &mut TestRng, dt: DataType) -> Value {
    if rng.index(10) == 0 {
        return Value::Null;
    }
    match dt {
        DataType::Int => Value::from(rng.index(5) as i64),
        DataType::Float => Value::from([0.0, 1.5, 2.5][rng.index(3)]),
        DataType::Text => Value::from(["a", "b", "c"][rng.index(3)]),
        DataType::Bool => Value::from(rng.index(2) == 0),
        _ => Value::Null,
    }
}

fn random_type(rng: &mut TestRng) -> DataType {
    [
        DataType::Int,
        DataType::Float,
        DataType::Text,
        DataType::Bool,
    ][rng.index(4)]
}

fn random_catalog(rng: &mut TestRng) -> Catalog {
    let mut cat = Catalog::new();
    let nrels = 2 + rng.index(2);
    for r in 0..nrels {
        let arity = 1 + rng.index(4);
        let attrs: Vec<Attribute> = (0..arity)
            .map(|i| Attribute::new(format!("c{i}"), random_type(rng)))
            .collect();
        let schema = Schema::new(format!("R{r}"), attrs.clone());
        let nrows = rng.index(9);
        let rows = (0..nrows)
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

fn random_column(rng: &mut TestRng, schema: Option<&Schema>) -> Name {
    if let Some(schema) = schema {
        if schema.arity() > 0 {
            let names: Vec<&str> = schema.attribute_names().collect();
            return names[rng.index(names.len())].into();
        }
    }
    "ghost.column".into()
}

fn random_predicate(rng: &mut TestRng, schema: Option<&Schema>) -> Predicate {
    if rng.index(3) == 0 {
        Predicate::column_eq(random_column(rng, schema), random_column(rng, schema))
    } else {
        let column = random_column(rng, schema);
        let dt = schema
            .and_then(|s| s.position(&column))
            .map(|p| schema.unwrap().attributes()[p].data_type)
            .unwrap_or(DataType::Int);
        let op = [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ][rng.index(6)];
        Predicate::compare(column, op, random_value(rng, dt))
    }
}

/// A random plan built *bottom-up from a shared pool of sub-plans*: later plans pick earlier
/// sub-plans as building blocks, which is what gives the merged DAG genuine cross-root sharing.
/// Every scan is uniquely aliased so products never collide on attribute names; products of
/// pooled sub-plans are additionally guarded against overlapping schemas.
fn random_plan(
    rng: &mut TestRng,
    catalog: &Catalog,
    pool: &mut Vec<Plan>,
    alias_seq: &mut usize,
    depth: usize,
) -> Plan {
    let names: Vec<String> = catalog.relation_names().map(String::from).collect();
    let fresh_scan = |rng: &mut TestRng, alias_seq: &mut usize| {
        *alias_seq += 1;
        Plan::scan_as(
            names[rng.index(names.len())].clone(),
            format!("A{alias_seq}"),
        )
    };
    let mut plan = if !pool.is_empty() && rng.index(2) == 0 {
        pool[rng.index(pool.len())].clone()
    } else {
        fresh_scan(rng, alias_seq)
    };
    for _ in 0..depth {
        let schema = plan.output_schema(catalog).ok();
        plan = match rng.index(4) {
            0 => plan.select(random_predicate(rng, schema.as_ref())),
            1 => {
                let Some(schema) = schema.as_ref().filter(|s| s.arity() > 0) else {
                    continue;
                };
                let mut columns: Vec<Name> = Vec::new();
                for _ in 0..1 + rng.index(2) {
                    let c = random_column(rng, Some(schema));
                    if !columns.contains(&c) {
                        columns.push(c);
                    }
                }
                plan.project(columns)
            }
            2 => {
                let other = if !pool.is_empty() && rng.index(2) == 0 {
                    pool[rng.index(pool.len())].clone()
                } else {
                    fresh_scan(rng, alias_seq)
                };
                // A product of overlapping schemas (e.g. a pooled sub-plan multiplied with
                // itself) would panic on duplicate attribute names; skip those pairings.
                let overlaps = match (&schema, other.output_schema(catalog).ok()) {
                    (Some(ls), Some(rs)) => {
                        let left: std::collections::HashSet<&str> = ls.attribute_names().collect();
                        rs.attribute_names().any(|n| left.contains(n))
                    }
                    _ => true,
                };
                if overlaps {
                    plan.select(random_predicate(rng, schema.as_ref()))
                } else {
                    plan.product(other)
                }
            }
            _ => {
                if rng.index(2) == 0 {
                    plan.aggregate(AggFunc::Count)
                } else {
                    plan.select(random_predicate(rng, schema.as_ref()))
                }
            }
        };
        pool.push(plan.clone());
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Merged-DAG execution (sequential and parallel) returns, per root, byte-identical
    /// results to the reference evaluator running each plan independently.
    #[test]
    fn dag_execution_matches_reference(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = random_catalog(&mut rng);
        let mut pool: Vec<Plan> = Vec::new();
        let mut alias_seq = 0usize;
        let nplans = 2 + rng.index(4);
        // Keep only plans the reference evaluator accepts; the merged DAG fails the whole
        // batch on any failing node, so error plans are covered by their own test below.
        let mut batch: Vec<(Plan, Relation)> = Vec::new();
        for _ in 0..nplans {
            let depth = 1 + rng.index(3);
            let plan = random_plan(&mut rng, &catalog, &mut pool, &mut alias_seq, depth);
            if let Ok(expected) = ReferenceExecutor::new(&catalog).run(&plan) {
                batch.push((plan, expected));
            }
        }
        // Duplicate one plan so the DAG always has at least one fully shared root.
        if let Some((plan, expected)) = batch.first().cloned() {
            batch.push((plan, expected));
        }
        if batch.is_empty() {
            return;
        }

        for workers in [1usize, 3] {
            let mut exec = Executor::new(&catalog);
            let (dag, run) = run_merged(batch.iter().map(|(plan, _)| plan), &mut exec, workers)
                .expect("reference-accepted batch binds and executes");
            prop_assert_eq!(run.root_results.len(), batch.len());
            for ((plan, expected), got) in batch.iter().zip(&run.root_results) {
                let want_cols: Vec<&str> = expected.schema().attribute_names().collect();
                let got_cols: Vec<&str> = got.schema().attribute_names().collect();
                prop_assert_eq!(want_cols, got_cols, "schemas diverge for plan:\n{}", plan);
                prop_assert_eq!(expected.rows(), got.rows(), "rows diverge for plan:\n{}", plan);
            }
            // Exactly-once: the executor ran one operator (or scan) per distinct DAG node.
            prop_assert_eq!(
                exec.stats().operators_executed + exec.stats().scans,
                dag.node_count() as u64
            );
            // The duplicated root never added nodes.
            prop_assert!(dag.operators_reused() > 0);
        }
    }

    /// Per-epoch persistent DAG: cold and warm batches on one [`EpochDag`] return, for every
    /// root and any worker count, exactly the rows of the rebuild-every-batch path and of the
    /// reference evaluator — and the warm repeat neither rebinds nor executes anything.
    #[test]
    fn epoch_warm_batches_match_rebuild_every_batch(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = random_catalog(&mut rng);
        let mut pool: Vec<Plan> = Vec::new();
        let mut alias_seq = 0usize;
        let nplans = 2 + rng.index(4);
        let mut batch: Vec<(Plan, Relation)> = Vec::new();
        for _ in 0..nplans {
            let depth = 1 + rng.index(3);
            let plan = random_plan(&mut rng, &catalog, &mut pool, &mut alias_seq, depth);
            if let Ok(expected) = ReferenceExecutor::new(&catalog).run(&plan) {
                batch.push((plan, expected));
            }
        }
        if batch.is_empty() {
            return;
        }

        for workers in [1usize, 3] {
            let mut exec = Executor::new(&catalog);
            let mut epoch = EpochDag::new();
            for round in 0..3 {
                for (plan, _) in &batch {
                    // Bind the raw plan (no optimiser pass) so expectations stay row-exact.
                    epoch
                        .submit_with(fingerprint(plan), || exec.bind(plan))
                        .expect("reference-accepted plan binds");
                }
                let run = epoch.execute_pending(&mut exec, workers).expect("batch executes");
                prop_assert_eq!(run.root_results.len(), batch.len());
                for ((plan, expected), got) in batch.iter().zip(&run.root_results) {
                    prop_assert_eq!(
                        expected.rows(),
                        got.rows(),
                        "round {} (workers={}) diverges for plan:\n{}",
                        round,
                        workers,
                        plan
                    );
                }
                if round > 0 {
                    prop_assert_eq!(run.report.bind_misses, 0, "warm round rebound a plan");
                    prop_assert_eq!(run.report.nodes_executed, 0, "warm round executed a node");
                    // Duplicate plans in the batch dedup onto one root node, so the reuse
                    // count is per distinct root.
                    prop_assert!(run.report.results_reused >= 1);
                    prop_assert!(run.report.results_reused <= batch.len() as u64);
                }
            }

            // The rebuild-every-batch path over the same plans agrees bit-for-bit.
            let mut rebuild_exec = Executor::new(&catalog);
            let (_, rebuilt) =
                run_merged(batch.iter().map(|(plan, _)| plan), &mut rebuild_exec, workers)
                    .expect("rebuild batch executes");
            for ((plan, expected), got) in batch.iter().zip(&rebuilt.root_results) {
                prop_assert_eq!(expected.rows(), got.rows(), "rebuild diverges for plan:\n{}", plan);
            }
        }
    }

    /// Plans the reference evaluator rejects are rejected by the DAG path too (at bind or at
    /// execution), never silently mis-evaluated.
    #[test]
    fn dag_execution_rejects_what_the_reference_rejects(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = random_catalog(&mut rng);
        let mut pool: Vec<Plan> = Vec::new();
        let mut alias_seq = 0usize;
        let depth = 1 + rng.index(3);
        let plan = random_plan(&mut rng, &catalog, &mut pool, &mut alias_seq, depth);
        let reference = ReferenceExecutor::new(&catalog).run(&plan);
        if reference.is_ok() {
            return;
        }
        let mut exec = Executor::new(&catalog);
        let outcome = run_merged([&plan], &mut exec, 1);
        prop_assert!(outcome.is_err(), "DAG accepted a plan the reference rejects:\n{}", plan);
    }
}

// ---------------------------------------------------------------------------
// Late materialization: chains of operators over index-vector views
// ---------------------------------------------------------------------------

/// Three or four relations shaped to stress the views: a nullable Int key `k` (null keys never
/// join), a small-domain Text column, a `Float` column holding both ints and floats (the
/// converter cannot type it: `Column::Mixed`, the same fallback a dictionary overflow takes),
/// and an all-null column.
fn chain_catalog(rng: &mut TestRng) -> Catalog {
    let mut cat = Catalog::new();
    for r in 0..3 + rng.index(2) {
        let schema = Schema::new(
            format!("R{r}"),
            vec![
                Attribute::new("k", DataType::Int),
                Attribute::new("t", DataType::Text),
                Attribute::new("m", DataType::Float),
                Attribute::new("dead", DataType::Text),
            ],
        );
        let rows = (0..rng.index(11))
            .map(|i| {
                let mixed = match rng.index(3) {
                    0 => Value::from(rng.index(3) as i64),
                    1 => Value::from([0.0, 1.0, 2.5][rng.index(3)]),
                    _ => Value::Null,
                };
                Tuple::new(vec![
                    random_value(rng, DataType::Int),
                    Value::from(["a", "b", "c"][(i + rng.index(2)) % 3]),
                    mixed,
                    Value::Null,
                ])
            })
            .collect();
        cat.insert(Relation::new(schema, rows).unwrap());
    }
    cat
}

/// A predicate over `schema` — now and then one nothing can satisfy (an empty selection).
fn chain_predicate(rng: &mut TestRng, schema: &Schema) -> Predicate {
    if rng.index(6) == 0 {
        let column = random_column(rng, Some(schema));
        return Predicate::compare(column, CompareOp::Gt, Value::from(1_000i64));
    }
    random_predicate(rng, Some(schema))
}

/// One batch of chains sharing a join prefix: `(σ? A1) × (σ? A2) ⋈ A3 [⋈ A4]`, with `A1` and
/// `A2` scanning the *same* relation, then per root a selection and a projection.
fn chain_batch(rng: &mut TestRng, catalog: &Catalog) -> Vec<Plan> {
    let names: Vec<String> = catalog.relation_names().map(String::from).collect();
    let twice = names[rng.index(names.len())].clone();
    let mut alias = 0usize;
    let mut leaf = |rng: &mut TestRng, relation: String| {
        alias += 1;
        let scan = Plan::scan_as(relation, format!("A{alias}"));
        if rng.index(2) == 0 {
            let schema = scan.output_schema(catalog).unwrap();
            scan.select(chain_predicate(rng, &schema))
        } else {
            scan
        }
    };
    let mut base = leaf(rng, twice.clone()).product(leaf(rng, twice));
    for _ in 0..1 + rng.index(2) {
        let relation = names[rng.index(names.len())].clone();
        let right = leaf(rng, relation);
        let (ls, rs) = (
            base.output_schema(catalog).unwrap(),
            right.output_schema(catalog).unwrap(),
        );
        let on = (0..1 + rng.index(2))
            .map(|_| (random_column(rng, Some(&ls)), random_column(rng, Some(&rs))))
            .collect();
        base = base.hash_join(right, on);
    }
    let schema = base.output_schema(catalog).unwrap();
    (0..2 + rng.index(2))
        .map(|_| {
            let mut columns: Vec<Name> = Vec::new();
            for _ in 0..1 + rng.index(3) {
                let c = random_column(rng, Some(&schema));
                if !columns.contains(&c) {
                    columns.push(c);
                }
            }
            base.clone()
                .select(chain_predicate(rng, &schema))
                .project(columns)
        })
        .collect()
}

/// The operator accounting every evaluation mode must agree on (the paper's Table IV metric).
fn accounting(stats: &ExecStats) -> [u64; 4] {
    [
        stats.operators_executed,
        stats.scans,
        stats.tuples_read,
        stats.tuples_output,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Tree evaluation ≡ sequential DAG ≡ parallel DAG ≡ cold / re-executed / warm epoch batches
    /// ≡ the reference evaluator, over chains whose interior results are all views.
    #[test]
    fn late_materialized_chains_match_reference(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = chain_catalog(&mut rng);
        let plans = chain_batch(&mut rng, &catalog);

        // The oracle, plan by plan — and tree evaluation against it, accounting included.
        let mut expected: Vec<Relation> = Vec::new();
        let mut reference_total = [0u64; 4];
        for plan in &plans {
            let mut reference = ReferenceExecutor::new(&catalog);
            let want = reference.run(plan).expect("generated chains are valid");
            let mut exec = Executor::new(&catalog);
            let got = exec.run(plan).expect("tree evaluation");
            prop_assert_eq!(want.schema(), got.schema(), "schema diverges:\n{}", plan);
            prop_assert_eq!(want.rows(), got.rows(), "tree rows diverge:\n{}", plan);
            prop_assert_eq!(
                accounting(reference.stats()),
                accounting(exec.stats()),
                "tree accounting diverges:\n{}", plan
            );
            // Every operator above the scans ran through the vectorized kernels.
            prop_assert_eq!(
                exec.stats().columnar_rows + exec.stats().rows_shared,
                exec.stats().tuples_output
            );
            for (i, v) in accounting(reference.stats()).iter().enumerate() {
                reference_total[i] += v;
            }
            expected.push(want);
        }

        // One merged DAG, sequential and parallel: same rows, same accounting as each other.
        let mut dag_accounting = Vec::new();
        for workers in [1usize, 3] {
            let mut exec = Executor::new(&catalog);
            let (dag, run) = run_merged(&plans, &mut exec, workers).expect("batch executes");
            for ((plan, want), got) in plans.iter().zip(&expected).zip(&run.root_results) {
                prop_assert_eq!(want.schema(), got.schema());
                prop_assert_eq!(want.rows(), got.rows(), "DAG rows diverge:\n{}", plan);
            }
            prop_assert_eq!(
                exec.stats().operators_executed + exec.stats().scans,
                dag.node_count() as u64
            );
            dag_accounting.push((accounting(exec.stats()), exec.stats().columnar_rows));
        }
        prop_assert_eq!(&dag_accounting[0], &dag_accounting[1], "sequential ≠ parallel");
        // Sharing only ever removes work relative to evaluating each plan alone.
        prop_assert!(dag_accounting[0].0[0] <= reference_total[0]);

        // Epochs: a 1-byte pin budget re-executes every round; the default budget answers
        // the repeat from the cold batch's results.
        for workers in [1usize, 3] {
            let mut exec = Executor::new(&catalog);
            let mut evicting = EpochDag::with_pin_budget(1);
            let mut pinned = EpochDag::new();
            let mut cold_roots: Vec<Arc<Relation>> = Vec::new();
            for round in 0..3 {
                for epoch in [&mut evicting, &mut pinned] {
                    for plan in &plans {
                        epoch
                            .submit_with(fingerprint(plan), || exec.bind(plan))
                            .expect("plan binds");
                    }
                }
                let rerun = evicting.execute_pending(&mut exec, workers).expect("evicting round");
                let warm = pinned.execute_pending(&mut exec, workers).expect("pinned round");
                for ((plan, want), (a, w)) in plans
                    .iter()
                    .zip(&expected)
                    .zip(rerun.root_results.iter().zip(&warm.root_results))
                {
                    prop_assert_eq!(want.schema(), a.schema());
                    prop_assert_eq!(want.rows(), a.rows(), "round {} evicting:\n{}", round, plan);
                    prop_assert_eq!(want.rows(), w.rows(), "round {} pinned:\n{}", round, plan);
                }
                if round == 0 {
                    cold_roots = warm.root_results;
                } else {
                    prop_assert_eq!(warm.report.nodes_executed, 0, "warm round executed");
                    for (cold, again) in cold_roots.iter().zip(&warm.root_results) {
                        prop_assert!(Arc::ptr_eq(cold, again), "warm root is not the cold one");
                    }
                }
            }
        }
    }
}

/// The columnar edge cases the chains lean on, pinned deterministically: the `Float` column
/// of mixed ints and floats really converts to `Column::Mixed`, a column past the dictionary
/// limit does too, and joins keyed on either (and on an all-null column) agree with the
/// reference through a self-join of views.
#[test]
fn mixed_overflowed_and_all_null_columns_join_through_views() {
    let mut rng = TestRng::seed_from_u64(7);
    let mut catalog = chain_catalog(&mut rng);
    // More distinct strings than the default dictionary holds: `Mixed` by overflow.
    let wide = Schema::new(
        "Wide",
        vec![
            Attribute::new("s", DataType::Text),
            Attribute::new("k", DataType::Int),
        ],
    );
    let distinct = urm_storage::DEFAULT_DICT_LIMIT + 8;
    let rows = (0..distinct)
        .map(|i| {
            Tuple::new(vec![
                Value::from(format!("s{i}")),
                Value::from((i % 5) as i64),
            ])
        })
        .collect();
    catalog.insert(Relation::new(wide, rows).unwrap());
    let short = Schema::new("Short", vec![Attribute::new("s", DataType::Text)]);
    let rows = [3usize, 70_000, 3, 1 << 20]
        .iter()
        .map(|i| Tuple::new(vec![Value::from(format!("s{i}"))]))
        .collect();
    catalog.insert(Relation::new(short, rows).unwrap());

    let kinds = |name: &str| -> Vec<bool> {
        let base = catalog.get(name).unwrap();
        let view = base.view().unwrap();
        (0..view.arity())
            .map(|pos| matches!(view.column(pos).unwrap().column, Column::Mixed(_)))
            .collect()
    };
    assert_eq!(
        kinds("Wide"),
        vec![true, false],
        "overflow must fall back to Mixed"
    );
    let populated = catalog
        .iter()
        .find(|(name, rel)| name.starts_with('R') && rel.len() >= 4)
        .map(|(name, _)| name.to_string())
        .expect("seed 7 generates a populated relation");
    assert!(
        kinds(&populated)[2],
        "ints and floats under one Float column are Mixed"
    );

    let keep = |alias: &str| {
        Plan::scan_as(populated.clone(), alias).select(Predicate::compare(
            format!("{alias}.t"),
            CompareOp::Ne,
            Value::from("zz"),
        ))
    };
    let plans = [
        // Self-join of two filtered views on the variant-mixed column, then on the all-null one.
        keep("X").hash_join(keep("Y"), vec![("X.m".into(), "Y.m".into())]),
        keep("X").hash_join(keep("Y"), vec![("X.dead".into(), "Y.dead".into())]),
        // Overflowed text keys against a typed dictionary column.
        Plan::scan("Short")
            .hash_join(
                Plan::scan("Wide"),
                vec![("Short.s".into(), "Wide.s".into())],
            )
            .select(Predicate::compare(
                "Wide.k",
                CompareOp::Le,
                Value::from(3i64),
            ))
            .project(vec!["Wide.k".into(), "Short.s".into()]),
    ];
    for plan in &plans {
        let want = ReferenceExecutor::new(&catalog).run(plan).unwrap();
        let mut exec = Executor::new(&catalog);
        let got = exec.run(plan).unwrap();
        assert_eq!(want.rows(), got.rows(), "diverges: {plan}");
        assert!(exec.stats().columnar_rows > 0 || got.is_empty());
    }
}
