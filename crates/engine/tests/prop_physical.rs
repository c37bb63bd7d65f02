//! Property tests: the bound physical executor is observationally identical to the retained
//! row-at-a-time reference evaluator.
//!
//! For every randomly generated (catalog, plan) pair — random schemas, random data, random
//! operator trees including deliberately invalid column references — both executors must
//! either fail with the same error class, or produce byte-identical relations (schema,
//! rows *and* row order) with identical operator accounting.

use proptest::prelude::*;
use proptest::TestRng;
use urm_engine::{AggFunc, CompareOp, Executor, Plan, Predicate, ReferenceExecutor};
use urm_storage::{Attribute, Catalog, DataType, Name, Relation, Schema, Tuple, Value};

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
        // Leaf: a (possibly aliased) scan, or a literal Values relation.
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
    match rng.index(7) {
        0 => {
            let input = random_plan(rng, catalog, depth - 1, alias_seq);
            let schema = input.output_schema(catalog).ok();
            let pred = random_predicate(rng, schema.as_ref(), 0);
            input.select(pred)
        }
        6 => random_plan(rng, catalog, depth - 1, alias_seq).distinct(),
        1 => {
            let input = random_plan(rng, catalog, depth - 1, alias_seq);
            let schema = input.output_schema(catalog).ok();
            let mut columns: Vec<Name> = Vec::new();
            for _ in 0..rng.index(3) + usize::from(rng.index(10) != 0) {
                let c = random_column(rng, schema.as_ref());
                // Duplicate projection columns would panic at schema construction (in both
                // executors alike); the engine's callers never produce them.
                if !columns.contains(&c) {
                    columns.push(c);
                }
            }
            input.project(columns) // occasionally empty: the row count alone
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
                // Sometimes swapped, sometimes bogus — key resolution must agree too.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn physical_executor_matches_reference(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = random_catalog(&mut rng);
        let mut alias_seq = 0usize;
        let depth = 1 + rng.index(3);
        let plan = random_plan(&mut rng, &catalog, depth, &mut alias_seq);

        let mut reference = ReferenceExecutor::new(&catalog);
        let mut physical = Executor::new(&catalog);
        let expected = reference.run(&plan);
        let actual = physical.run(&plan);

        match (&expected, &actual) {
            (Ok(want), Ok(got)) => {
                let want_cols: Vec<&str> = want.schema().attribute_names().collect();
                let got_cols: Vec<&str> = got.schema().attribute_names().collect();
                prop_assert_eq!(want_cols, got_cols, "schemas diverge for plan:\n{}", plan);
                prop_assert_eq!(
                    want.rows(),
                    got.rows(),
                    "rows diverge for plan:\n{}",
                    plan
                );
                // Operator accounting must agree too (the paper's Table IV metric).
                prop_assert_eq!(
                    reference.stats().operators_executed,
                    physical.stats().operators_executed
                );
                prop_assert_eq!(reference.stats().scans, physical.stats().scans);
                prop_assert_eq!(reference.stats().tuples_read, physical.stats().tuples_read);
                prop_assert_eq!(
                    reference.stats().tuples_output,
                    physical.stats().tuples_output
                );
            }
            (Err(_), Err(_)) => {
                // Both reject the plan.  The error *classes* may differ when a plan contains
                // both a static error (unknown column) and a runtime error (SUM over text):
                // binding reports every static error up front, while the lazy reference
                // evaluator trips over whichever runtime error it reaches first.
            }
            _ => prop_assert!(
                false,
                "outcome diverges for plan:\n{}\nreference: {:?}\nphysical: {:?}",
                plan,
                expected.as_ref().map(|r| r.len()),
                actual.as_ref().map(|r| r.len())
            ),
        }
    }

    #[test]
    fn physical_executor_scans_are_always_views(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = random_catalog(&mut rng);
        let names: Vec<String> = catalog.relation_names().map(String::from).collect();
        let name = names[rng.index(names.len())].clone();
        let mut exec = Executor::new(&catalog);
        let out = exec.run(&Plan::scan(name.clone())).unwrap();
        prop_assert_eq!(out.storage_id(), catalog.get(&name).unwrap().storage_id());
    }
}
