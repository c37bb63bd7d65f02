//! Property tests: the operator kernels are observationally identical to the row-at-a-time
//! reference evaluator, whatever form their inputs arrive in.
//!
//! For every randomly generated (catalog, plan) pair — random schemas, random data, random
//! operator trees including deliberately invalid column references — the plan over scans
//! (the columns the catalog converted at insert), the same plan over row buffers the catalog
//! never converted ([`off_catalog`]: converted where each operator consumes them, as after a spill
//! reload) and the reference must either fail alike or produce byte-identical relations
//! (schema, rows *and* row order) with identical operator accounting.  A second property holds
//! the partitioned join to the one-pass join at every fan-out.  Deterministic tests pin the
//! edge cases: all-null columns, empty selections, dictionary overflow (Mixed fallback),
//! aggregate outputs and reloaded pins as operator inputs, grace hash joins under a budget
//! whose pins spill, and what an interior join result of a wide multi-way join actually
//! holds (index vectors, not cells).

use proptest::prelude::*;
use proptest::TestRng;
use std::sync::Arc;
use urm_engine::reference::off_catalog;
use urm_engine::{
    vectorized, AggFunc, CompareOp, DagResultCache, DagScheduler, EpochDag, Executor, OperatorDag,
    Plan, Predicate, ReferenceExecutor,
};
use urm_storage::{
    Attribute, Catalog, Column, ColumnView, ColumnarRelation, DataType, Name, Relation, Schema,
    Tuple, Value,
};

/// The value domain is deliberately tiny so selections and joins actually hit; the null rate
/// is higher than `prop_physical`'s so small relations regularly produce all-null columns.
fn random_value(rng: &mut TestRng, dt: DataType) -> Value {
    if rng.index(4) == 0 {
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

/// A column name from the plan's output schema — or, rarely, a bogus one.
fn random_column(rng: &mut TestRng, schema: Option<&Schema>) -> Name {
    if let Some(schema) = schema {
        if schema.arity() > 0 && rng.index(8) != 0 {
            let names: Vec<&str> = schema.attribute_names().collect();
            return names[rng.index(names.len())].into();
        }
    }
    "ghost.column".into()
}

fn random_plan(rng: &mut TestRng, catalog: &Catalog, depth: usize, alias_seq: &mut usize) -> Plan {
    let names: Vec<String> = catalog.relation_names().map(String::from).collect();
    if depth == 0 || rng.index(4) == 0 {
        return match rng.index(4) {
            0 => {
                *alias_seq += 1;
                Plan::scan_as(
                    names[rng.index(names.len())].clone(),
                    format!("A{alias_seq}"),
                )
            }
            1 => {
                *alias_seq += 1;
                let n = *alias_seq;
                let arity = 1 + rng.index(2);
                let attrs: Vec<Attribute> = (0..arity)
                    .map(|i| Attribute::new(format!("V{n}.c{i}"), random_type(rng)))
                    .collect();
                let schema = Schema::new(format!("V{n}"), attrs.clone());
                let rows = (0..rng.index(4))
                    .map(|_| {
                        Tuple::new(
                            attrs
                                .iter()
                                .map(|a| random_value(rng, a.data_type))
                                .collect(),
                        )
                    })
                    .collect();
                Plan::values(Relation::new(schema, rows).unwrap())
            }
            _ => Plan::scan(names[rng.index(names.len())].clone()),
        };
    }
    match rng.index(6) {
        0 => {
            let input = random_plan(rng, catalog, depth - 1, alias_seq);
            let schema = input.output_schema(catalog).ok();
            let pred = random_predicate(rng, schema.as_ref(), 0);
            input.select(pred)
        }
        1 => {
            let input = random_plan(rng, catalog, depth - 1, alias_seq);
            let schema = input.output_schema(catalog).ok();
            let mut columns: Vec<Name> = Vec::new();
            for _ in 0..rng.index(3) + usize::from(rng.index(10) != 0) {
                let c = random_column(rng, schema.as_ref());
                if !columns.contains(&c) {
                    columns.push(c);
                }
            }
            input.project(columns)
        }
        2 => {
            let left = random_plan(rng, catalog, depth - 1, alias_seq);
            let right = random_plan(rng, catalog, depth - 1, alias_seq);
            left.product(right)
        }
        3 => {
            let left = random_plan(rng, catalog, depth - 1, alias_seq);
            let right = random_plan(rng, catalog, depth - 1, alias_seq);
            let ls = left.output_schema(catalog).ok();
            let rs = right.output_schema(catalog).ok();
            let mut on = Vec::new();
            for _ in 0..rng.index(3) {
                let a = random_column(rng, ls.as_ref());
                let b = random_column(rng, rs.as_ref());
                if rng.index(2) == 0 {
                    on.push((a, b));
                } else {
                    on.push((b, a));
                }
            }
            left.hash_join(right, on)
        }
        _ => {
            let input = random_plan(rng, catalog, depth - 1, alias_seq);
            let schema = input.output_schema(catalog).ok();
            let func = if rng.index(2) == 0 {
                AggFunc::Count
            } else {
                AggFunc::Sum(random_column(rng, schema.as_ref()))
            };
            input.aggregate(func)
        }
    }
}

fn random_predicate(rng: &mut TestRng, schema: Option<&Schema>, depth: usize) -> Predicate {
    if depth < 2 && rng.index(4) == 0 {
        let parts = (0..1 + rng.index(3))
            .map(|_| random_predicate(rng, schema, depth + 1))
            .collect();
        return Predicate::And(parts);
    }
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

/// Asserts two successful results agree on schema, rows and row order.
fn assert_same_relation(want: &Relation, got: &Relation, plan: &Plan, label: &str) {
    let want_cols: Vec<&str> = want.schema().attribute_names().collect();
    let got_cols: Vec<&str> = got.schema().attribute_names().collect();
    assert_eq!(
        want_cols, got_cols,
        "{label} schemas diverge for plan:\n{plan}"
    );
    assert_eq!(
        want.rows(),
        got.rows(),
        "{label} rows diverge for plan:\n{plan}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Kernels over scans ≡ kernels over unconverted buffers ≡ reference, including the
    /// operator accounting (the paper's Table IV metric) — so the kernels can never silently
    /// change what a query reports having done.
    #[test]
    fn columnar_mode_is_byte_identical_to_row_mode_and_reference(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = random_catalog(&mut rng);
        let mut alias_seq = 0usize;
        let depth = 1 + rng.index(3);
        let plan = random_plan(&mut rng, &catalog, depth, &mut alias_seq);

        // The row side runs the same plan over leaves the catalog never converted; its
        // accounting is held to the reference's over those same leaves (a `Values` leaf is not
        // a scan).
        let row_plan = off_catalog(&plan, &catalog);
        let mut reference = ReferenceExecutor::new(&catalog);
        let mut row_reference = ReferenceExecutor::new(&catalog);
        let mut columnar = Executor::new(&catalog);
        let mut row_mode = Executor::new(&catalog);

        let expected = reference.run(&plan);
        let col = columnar.run(&plan);
        let row = row_mode.run(&row_plan);

        match (&expected, &col, &row) {
            (Ok(want), Ok(got_col), Ok(got_row)) => {
                assert_same_relation(want, got_col, &plan, "columnar");
                assert_same_relation(want, got_row, &plan, "row-mode");
                row_reference.run(&row_plan).expect("the reference ran the plan over scans");
                for (want, stats, label) in [
                    (reference.stats(), columnar.stats(), "columnar"),
                    (row_reference.stats(), row_mode.stats(), "row"),
                ] {
                    prop_assert_eq!(
                        want.operators_executed,
                        stats.operators_executed,
                        "{} operator count diverges for plan:\n{}", label, &plan
                    );
                    prop_assert_eq!(want.scans, stats.scans);
                    prop_assert_eq!(want.tuples_read, stats.tuples_read);
                    prop_assert_eq!(want.tuples_output, stats.tuples_output);
                }
            }
            (Err(_), Err(_), Err(_)) => {
                // All three reject the plan (error classes may differ — see prop_physical).
            }
            _ => prop_assert!(
                false,
                "outcome diverges for plan:\n{}\nreference: {:?}\ncolumnar: {:?}\nrow: {:?}",
                plan,
                expected.as_ref().map(|r| r.len()),
                col.as_ref().map(|r| r.len()),
                row.as_ref().map(|r| r.len())
            ),
        }
    }

    /// Dictionary overflow: a text column with more distinct strings than the dictionary
    /// limit converts to the generic `Mixed` fallback — and the vectorized kernels over it
    /// still agree with a filter over the rows, row for row.
    #[test]
    fn dictionary_overflow_falls_back_without_changing_answers(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let nrows = 4 + rng.index(12);
        let schema = Schema::new(
            "T",
            vec![
                Attribute::new("s", DataType::Text),
                Attribute::new("k", DataType::Int),
            ],
        );
        let rows: Vec<Tuple> = (0..nrows)
            .map(|i| {
                let s = if rng.index(6) == 0 {
                    Value::Null
                } else {
                    // More distinct strings than the forced dictionary limit below.
                    Value::from(format!("s{}", rng.index(8)))
                };
                Tuple::new(vec![s, Value::from((i % 3) as i64)])
            })
            .collect();
        let rel = Arc::new(Relation::new(schema.clone(), rows).unwrap());

        // Limit 2 guarantees overflow whenever ≥ 3 distinct strings appear.
        let conv = ColumnarRelation::from_relation_with_limit(&rel, 2);
        let distinct: std::collections::BTreeSet<&Tuple> = rel.rows().iter().collect();
        let _ = distinct; // silence when the assertion below is vacuous at tiny sizes
        let view = ColumnView::from_base(Arc::new(conv));

        // Filter on the (possibly Mixed) text column, then materialise.
        let predicate = urm_engine::physical::BoundPredicate::Compare {
            pos: 0,
            op: CompareOp::Ge,
            value: Value::from("s3"),
        };
        let filtered = vectorized::filter(&view, &predicate).materialize();
        let expected: Vec<&Tuple> = rel
            .rows()
            .iter()
            .filter(|t| {
                t.get(0).is_some_and(|v| !v.is_null() && CompareOp::Ge.eval(v, &Value::from("s3")))
            })
            .collect();
        prop_assert_eq!(
            expected.len(),
            filtered.len(),
            "overflowed filter changed the survivor count"
        );
        for (want, got) in expected.iter().zip(filtered.iter()) {
            prop_assert_eq!(*want, got, "overflowed filter changed rows");
        }
    }

    /// The partitioned join is the one-pass join at every fan-out: same pairs (each side
    /// carries a unique id), same order — over NULL keys, `Int` against `Float` keys,
    /// composite keys, text keys under two dictionaries, `Mixed` columns, repeated probe keys,
    /// empty sides and inputs that are already selections.
    #[test]
    fn grace_join_equals_the_one_pass_join_at_every_fan_out(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let composite = rng.index(3) == 0;
        let key_types: Vec<(usize, usize)> = (0..1 + usize::from(composite))
            .map(|_| (rng.index(4), rng.index(4)))
            .collect();
        let left = join_side(&mut rng, &key_types.iter().map(|t| t.0).collect::<Vec<_>>());
        let right = join_side(&mut rng, &key_types.iter().map(|t| t.1).collect::<Vec<_>>());
        let keys: Vec<usize> = (1..=key_types.len()).collect();
        let expected = vectorized::hash_join(&left, &right, &keys, &keys).materialize();
        for partitions in 2..=64 {
            let got = vectorized::grace_hash_join(&left, &right, &keys, &keys, partitions);
            prop_assert_eq!(
                &expected, &got.materialize(),
                "{} partitions, key kinds {:?}", partitions, &key_types
            );
        }
    }
}

/// One input of the grace-join property: a unique id, then one key column per entry of
/// `kinds` (0 `Int`, 1 `Float`, 2 `Text`, 3 a mix of variants — a `Mixed` column) over tiny
/// domains so keys repeat, one cell in five NULL; converted on its own (its own
/// dictionaries), sometimes empty, sometimes seen through a selection.
fn join_side(rng: &mut TestRng, kinds: &[usize]) -> ColumnView {
    let key = |rng: &mut TestRng, kind: usize| -> Value {
        if rng.index(5) == 0 {
            return Value::Null;
        }
        match kind {
            0 => Value::from(rng.index(4) as i64),
            1 => Value::from([0.0, 1.0, 2.0, 2.5][rng.index(4)]),
            2 => Value::from(["0", "1", "x"][rng.index(3)]),
            _ => [Value::from(1i64), Value::from(1.0), Value::from("1")][rng.index(3)].clone(),
        }
    };
    let nrows = if rng.index(8) == 0 { 0 } else { rng.index(14) };
    let rows: Vec<Tuple> = (0..nrows)
        .map(|id| {
            let mut values = vec![Value::from(id as i64)];
            values.extend(kinds.iter().map(|&kind| key(rng, kind)));
            Tuple::new(values)
        })
        .collect();
    let attrs = (0..=kinds.len())
        .map(|i| Attribute::new(format!("c{i}"), DataType::Null))
        .collect();
    let rel = Relation::from_validated(Schema::new("J", attrs), rows);
    let view = ColumnView::from_base(Arc::new(ColumnarRelation::from_relation(&rel)));
    if rng.index(2) == 0 {
        return view;
    }
    let picks = (0..nrows as u32).filter(|_| rng.index(3) != 0).collect();
    view.select_rows(picks)
}

/// Operator inputs that arrive as rows the catalog never converted — `Values` leaves, an
/// aggregate's one-row output, a pin reloaded from a spill segment — are converted where
/// they are consumed: value for value the reference's answer, with its operator accounting.
#[test]
fn inputs_converted_where_consumed_match_the_reference() {
    let catalog = edge_catalog();
    let join = Plan::scan("N")
        .hash_join(Plan::scan("M"), vec![("N.k".into(), "M.k".into())])
        .project(vec!["M.v".into(), "N.k".into()])
        .distinct();
    let count_times_rows = Plan::scan("M")
        .aggregate(AggFunc::Count)
        .product(Plan::scan("N").select(Predicate::eq("N.k", Value::from(1i64))));
    let sum_of_sum = Plan::scan("M")
        .aggregate(AggFunc::Sum("M.v".into()))
        .aggregate(AggFunc::Sum("sum(M.v)".into()));

    // A pin as the epoch holds it under a budget: admitted, spilled, read back from its
    // segment — plain rows that neither carry a view nor are known to the catalog.
    let pool = urm_storage::BufferPool::with_budget(0);
    let pinned = Executor::new(&catalog).run(&join).unwrap();
    let reloaded = pool.admit(pinned).unwrap().load().unwrap();
    assert_eq!(pool.stats().spill_reloads, 1);
    assert!(reloaded.view().is_none());
    let over_reload = Plan::values_shared(reloaded)
        .select(Predicate::compare("M.v", CompareOp::Ge, Value::from(0.5)))
        .hash_join(Plan::scan("M"), vec![("N.k".into(), "M.k".into())])
        .aggregate(AggFunc::Sum("M.v".into()));

    for plan in [
        off_catalog(&join, &catalog),
        off_catalog(&count_times_rows, &catalog),
        count_times_rows,
        sum_of_sum,
        over_reload,
    ] {
        let mut reference = ReferenceExecutor::new(&catalog);
        let mut exec = Executor::new(&catalog);
        let want = reference.run(&plan).unwrap();
        let got = exec.run(&plan).unwrap();
        assert_same_relation(&want, &got, &plan, "converted inputs");
        let (want, got) = (reference.stats(), exec.stats());
        assert_eq!(want.operators_executed, got.operators_executed, "{plan}");
        assert_eq!(want.scans, got.scans, "{plan}");
        assert_eq!(want.tuples_read, got.tuples_read, "{plan}");
        assert_eq!(want.tuples_output, got.tuples_output, "{plan}");
    }
}

/// A catalog whose relations force the columnar edge cases deterministically.
fn edge_catalog() -> Catalog {
    let mut cat = Catalog::new();
    // An entirely-null Int column, an entirely-null Text column, and a live key.
    let schema = Schema::new(
        "N",
        vec![
            Attribute::new("dead_int", DataType::Int),
            Attribute::new("dead_text", DataType::Text),
            Attribute::new("k", DataType::Int),
        ],
    );
    let rows = (0..6)
        .map(|i| Tuple::new(vec![Value::Null, Value::Null, Value::from(i % 3)]))
        .collect();
    cat.insert(Relation::new(schema, rows).unwrap());

    let schema = Schema::new(
        "M",
        vec![
            Attribute::new("k", DataType::Int),
            Attribute::new("v", DataType::Float),
        ],
    );
    let rows = (0..5)
        .map(|i| Tuple::new(vec![Value::from(i % 3), Value::from(i as f64 / 2.0)]))
        .collect();
    cat.insert(Relation::new(schema, rows).unwrap());
    cat
}

/// Runs a plan over scans, over unconverted buffers and against the reference, asserting
/// byte-identity.
fn assert_modes_agree(catalog: &Catalog, plan: &Plan) {
    let expected = ReferenceExecutor::new(catalog).run(plan);
    let col = Executor::new(catalog).run(plan);
    let row = Executor::new(catalog).run(&off_catalog(plan, catalog));
    match (expected, col, row) {
        (Ok(want), Ok(got_col), Ok(got_row)) => {
            assert_eq!(want.rows(), got_col.rows(), "columnar diverges: {plan}");
            assert_eq!(want.rows(), got_row.rows(), "row mode diverges: {plan}");
        }
        (Err(_), Err(_), Err(_)) => {}
        other => panic!("outcome diverges for {plan}: {other:?}"),
    }
}

#[test]
fn all_null_columns_select_join_and_aggregate_identically() {
    let catalog = edge_catalog();
    // Predicates over all-null columns match nothing in either mode.
    assert_modes_agree(
        &catalog,
        &Plan::scan("N").select(Predicate::compare(
            "N.dead_int",
            CompareOp::Le,
            Value::from(3i64),
        )),
    );
    // Joins keyed on an all-null column produce no rows; nulls never match keys.
    assert_modes_agree(
        &catalog,
        &Plan::scan("N").hash_join(Plan::scan("M"), vec![("N.dead_int".into(), "M.k".into())]),
    );
    // SUM over an all-null numeric column folds nothing (0.0); over an all-null text column
    // the classifier stores Int-under-full-mask, so it folds nothing too — both modes agree.
    assert_modes_agree(
        &catalog,
        &Plan::scan("N").aggregate(AggFunc::Sum("N.dead_int".into())),
    );
    assert_modes_agree(
        &catalog,
        &Plan::scan("N").aggregate(AggFunc::Sum("N.dead_text".into())),
    );
}

#[test]
fn empty_selections_propagate_identically() {
    let catalog = edge_catalog();
    let none = Predicate::compare("N.k", CompareOp::Gt, Value::from(100i64));
    // Nothing survives the filter; downstream join, aggregate and projection must agree on
    // the empty output (schema intact, zero rows) in both modes.
    assert_modes_agree(&catalog, &Plan::scan("N").select(none.clone()));
    assert_modes_agree(
        &catalog,
        &Plan::scan("N")
            .select(none.clone())
            .hash_join(Plan::scan("M"), vec![("N.k".into(), "M.k".into())])
            .project(vec!["M.v".into()]),
    );
    assert_modes_agree(
        &catalog,
        &Plan::scan("N").select(none).aggregate(AggFunc::Count),
    );
}

#[test]
fn dictionary_overflow_produces_mixed_columns() {
    let schema = Schema::new("T", vec![Attribute::new("s", DataType::Text)]);
    let rows: Vec<Tuple> = (0..8)
        .map(|i| Tuple::new(vec![Value::from(format!("s{i}"))]))
        .collect();
    let rel = Arc::new(Relation::new(schema, rows).unwrap());
    let conv = ColumnarRelation::from_relation_with_limit(&rel, 4);
    assert!(
        matches!(conv.columns()[0].as_ref(), Column::Mixed(_)),
        "8 distinct strings over a 4-entry dictionary limit must fall back to Mixed"
    );
    // The fallback still reconstructs every value exactly.
    for (i, tuple) in rel.rows().iter().enumerate() {
        assert_eq!(conv.columns()[0].value_at(i), tuple.get(0).unwrap().clone());
    }
}

/// A grace hash join under a zero-byte budget — every pin the epoch admits spills, the join
/// itself partitions index vectors and writes nothing — must stay byte-identical, cold and
/// warm (the warm batch answers from the reloaded pins).
#[test]
fn grace_join_over_spilled_columnar_build_side_is_byte_identical() {
    let mut cat = Catalog::new();
    let schema = Schema::new(
        "Probe",
        vec![
            Attribute::new("k", DataType::Int),
            Attribute::new("tag", DataType::Text),
        ],
    );
    let rows = (0..40)
        .map(|i| {
            Tuple::new(vec![
                Value::from(i % 16),
                Value::from(format!("p{}", i % 4)),
            ])
        })
        .collect();
    cat.insert(Relation::new(schema, rows).unwrap());
    let schema = Schema::new(
        "Build",
        vec![
            Attribute::new("k", DataType::Int),
            Attribute::new("payload", DataType::Text),
        ],
    );
    let rows = (0..120)
        .map(|i| {
            Tuple::new(vec![
                Value::from(i % 16),
                Value::from(format!("payload-{}", i % 10)),
            ])
        })
        .collect();
    cat.insert(Relation::new(schema, rows).unwrap());

    let plan = Plan::scan("Probe")
        .select(Predicate::compare(
            "Probe.k",
            CompareOp::Lt,
            Value::from(12i64),
        ))
        .hash_join(
            Plan::scan("Build"),
            vec![("Probe.k".into(), "Build.k".into())],
        );
    let expected = ReferenceExecutor::new(&cat).run(&plan).unwrap();

    // Budget 0: every admitted pin spills, and any non-empty build side exceeds budget/2 —
    // the grace path is forced.
    let mut epoch = EpochDag::with_memory_budget(0);
    let pool = epoch.pool().unwrap().clone();
    let mut exec = Executor::with_pool(&cat, pool.clone());
    let run_once = |epoch: &mut EpochDag, exec: &mut Executor<'_>| {
        epoch.submit(&plan, exec).expect("plan submits");
        epoch
            .execute_pending(exec, 1)
            .expect("budgeted batch runs")
            .root_results
            .remove(0)
    };
    let cold = run_once(&mut epoch, &mut exec);
    assert_eq!(expected.rows(), cold.rows(), "cold grace join diverged");
    assert!(
        exec.stats().grace_partitions >= 2,
        "budget 0 must force the grace path (got {} partitions)",
        exec.stats().grace_partitions
    );
    assert!(
        exec.stats().columnar_rows > 0,
        "the pre-join selection should still run through the columnar kernels"
    );
    assert!(
        pool.stats().segments_written > 0,
        "budget 0 must write spill segments"
    );

    drop(cold); // warm answers must come back through the spilled pins
    let warm = run_once(&mut epoch, &mut exec);
    assert_eq!(expected.rows(), warm.rows(), "warm spilled reload diverged");
    assert!(
        pool.stats().spill_reloads > 0,
        "the warm batch should reload from segments"
    );
}

/// The shape of the paper's Q4 after reformulation: wide, text-heavy relations, each scanned
/// under two aliases, joined four ways, with a two-column projection on top.  Every interior
/// result must hold one `u32` index vector per contributing input — never the ~40 cells per
/// row a tuple-at-a-time join would build — and tuples must exist only for the projected root.
#[test]
fn interior_four_way_join_holds_index_vectors_not_cells() {
    let wide = |name: &str, rows: usize, key_mod: usize| {
        let mut attrs = vec![
            Attribute::new("id", DataType::Int),
            Attribute::new("ref", DataType::Int),
        ];
        attrs.extend((0..9).map(|i| Attribute::new(format!("c{i}"), DataType::Text)));
        let tuples = (0..rows)
            .map(|r| {
                let mut values = vec![Value::from(r as i64), Value::from((r % key_mod) as i64)];
                values.extend((0..9).map(|i| Value::from(format!("{name}-{i}-{}", r % 7))));
                Tuple::new(values)
            })
            .collect();
        Relation::new(Schema::new(name, attrs), tuples).unwrap()
    };
    let mut cat = Catalog::new();
    cat.insert(wide("PO", 40, 8));
    cat.insert(wide("Item", 160, 40));

    let plan = Plan::scan_as("PO", "p1")
        .hash_join(
            Plan::scan_as("Item", "i1"),
            vec![("p1.id".into(), "i1.ref".into())],
        )
        .hash_join(
            Plan::scan_as("PO", "p2"),
            vec![("p1.ref".into(), "p2.ref".into())],
        )
        .hash_join(
            Plan::scan_as("Item", "i2"),
            vec![("p2.id".into(), "i2.ref".into())],
        )
        .project(vec!["p1.c3".into(), "i2.c5".into()]);
    let expected = ReferenceExecutor::new(&cat).run(&plan).unwrap();
    assert!(expected.len() > 2_000, "the join must have real fan-out");

    /// Answers nothing, keeps every node's result.
    struct Capture(std::collections::HashMap<u64, Arc<Relation>>);
    impl DagResultCache for Capture {
        fn lookup(&mut self, _fingerprint: u64) -> Option<Arc<Relation>> {
            None
        }
        fn publish(&mut self, fingerprint: u64, result: &Arc<Relation>) {
            self.0.insert(fingerprint, Arc::clone(result));
        }
    }
    let mut exec = Executor::new(&cat);
    let physical = exec.bind(&plan).unwrap();
    let mut dag = OperatorDag::new();
    let root = dag.add_plan(&physical);
    let mut capture = Capture(std::collections::HashMap::new());
    let run = DagScheduler::with_workers(1)
        .execute_roots(&dag, &[root], &mut exec, &mut capture)
        .unwrap();

    let join = physical.children().next().expect("the projection's input");
    let interior = &capture.0[&join.fingerprint()];
    let view = interior.view().expect("an interior join result is a view");
    assert_eq!(interior.schema().arity(), 44);
    assert_eq!(
        view.group_count(),
        4,
        "one index vector per contributing input"
    );
    assert_eq!(interior.len(), expected.len());
    let held = interior.estimated_bytes();
    assert!(
        held <= interior.len() * 4 * 4 + 44 * 8,
        "a 4-input view of {} rows holds {held} bytes",
        interior.len()
    );
    // What the same result weighs as 44-column tuples.
    let as_rows = Relation::from_shared(interior.schema().clone(), interior.shared_rows());
    assert!(as_rows.estimated_bytes() > 20 * held);

    // The root is real rows, narrow, and exactly the reference's.
    let answer = &run.root_results[0];
    assert_eq!(answer.schema().arity(), 2);
    assert_eq!(answer.rows(), expected.rows());
    assert_eq!(
        exec.stats().columnar_rows + exec.stats().rows_shared,
        exec.stats().tuples_output,
        "every operator above the scans ran vectorized"
    );
}
