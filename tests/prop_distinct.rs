//! Property tests: answer extraction de-duplicates on column codes exactly as it does on values.
//!
//! For generated roots — joins, products and selections over relations with null keys, an
//! all-null column, a variant-mixed column, signed zeros and two NaNs — the distinct answer
//! tuples [`extract_answers`] reads off a late-materialized result (column codes, a tuple per
//! distinct row) must be, tuple for tuple and in the same order, what it reads off the same
//! result as rows (`columnar: false`), and what the old semantics gives on the
//! [`ReferenceExecutor`]'s rows: build a tuple per row, keep the first of each in a `HashSet`.
//! Extractions repeat columns, leave columns uncovered (`None`) and read whole rows (`Raw`).

use proptest::prelude::*;
use proptest::TestRng;
use std::collections::HashSet;
use urm::core::reformulate::{aggregate, extract_answers, Extraction};
use urm::core::ProbabilisticAnswer;
use urm::engine::{CompareOp, Executor, Plan, Predicate, ReferenceExecutor};
use urm::storage::{
    Attribute, Catalog, Column, DataType, Relation, Schema, Tuple, Value, DEFAULT_DICT_LIMIT,
};

const COLUMNS: [&str; 6] = ["k", "t", "f", "m", "dead", "b"];

/// Two or three relations over tiny domains, so most rows repeat: a nullable Int key, a
/// dictionary Text column, a Float column of `-0.0`/`0.0`/±NaN, a column mixing ints and
/// floats (`Column::Mixed`), an all-null column and a nullable Bool.  Now and then one is empty.
fn catalog(rng: &mut TestRng) -> Catalog {
    let mut cat = Catalog::new();
    for r in 0..2 + rng.index(2) {
        let types = [
            DataType::Int,
            DataType::Text,
            DataType::Float,
            DataType::Float,
            DataType::Text,
            DataType::Bool,
        ];
        let attrs = COLUMNS
            .iter()
            .zip(types)
            .map(|(name, dt)| Attribute::new(*name, dt))
            .collect();
        let rows = (0..rng.index(9))
            .map(|_| {
                let nullable = |rng: &mut TestRng, v: Value| {
                    if rng.index(4) == 0 {
                        Value::Null
                    } else {
                        v
                    }
                };
                let k = Value::from(rng.index(3) as i64);
                let f = Value::Float([-0.0, 0.0, f64::NAN, -f64::NAN][rng.index(4)]);
                let m = match rng.index(3) {
                    0 => Value::from(rng.index(2) as i64),
                    1 => Value::Float([0.0, 1.0][rng.index(2)]),
                    _ => Value::Null,
                };
                let b = Value::from(rng.index(2) == 0);
                Tuple::new(vec![
                    nullable(rng, k),
                    Value::from(["a", "b"][rng.index(2)]),
                    nullable(rng, f),
                    m,
                    Value::Null,
                    nullable(rng, b),
                ])
            })
            .collect();
        cat.insert(Relation::new(Schema::new(format!("R{r}"), attrs), rows).unwrap());
    }
    cat
}

/// A product or join of two aliased scans (a self-join when the names coincide), sometimes
/// under a selection, projected onto a few of its columns — plus those columns' names.
fn root(rng: &mut TestRng, catalog: &Catalog) -> (Plan, Vec<String>) {
    let names: Vec<&str> = catalog.iter().map(|(name, _)| name).collect();
    let scan = |rng: &mut TestRng, alias: &str| Plan::scan_as(names[rng.index(names.len())], alias);
    let (left, right) = (scan(rng, "A"), scan(rng, "B"));
    let mut plan = match rng.index(3) {
        0 => left.product(right),
        1 => left.hash_join(right, vec![("A.k".into(), "B.k".into())]),
        _ => left.hash_join(right, vec![("A.t".into(), "B.t".into())]),
    };
    match rng.index(4) {
        0 => plan = plan.select(Predicate::compare("A.k", CompareOp::Le, Value::from(1i64))),
        // Nothing satisfies this one: an empty root.
        1 if rng.index(3) == 0 => {
            plan = plan.select(Predicate::compare("B.k", CompareOp::Gt, Value::from(9i64)));
        }
        _ => {}
    }
    let mut projected: Vec<String> = Vec::new();
    for _ in 0..1 + rng.index(4) {
        let column = format!("{}.{}", ["A", "B"][rng.index(2)], COLUMNS[rng.index(6)]);
        if !projected.contains(&column) {
            projected.push(column);
        }
    }
    (plan.project(projected.clone()), projected)
}

/// `Raw`, or up to five of the root's columns in any order, repeats and uncovered ones included.
fn extraction(rng: &mut TestRng, projected: &[String]) -> Extraction {
    if rng.index(5) == 0 {
        return Extraction::Raw;
    }
    Extraction::Columns(
        (0..1 + rng.index(5))
            .map(|_| (rng.index(4) > 0).then(|| projected[rng.index(projected.len())].clone()))
            .collect(),
    )
}

/// What `extract_answers` + `add_distinct` did before they looked at codes: a tuple per row,
/// a `HashSet` of clones deciding which are new.
fn tuple_per_row(result: &Relation, extraction: &Extraction) -> Vec<Tuple> {
    let tuples: Vec<Tuple> = match extraction {
        Extraction::Raw => result.rows().to_vec(),
        Extraction::Columns(columns) => {
            let positions: Vec<Option<usize>> = columns
                .iter()
                .map(|c| c.as_ref().map(|n| result.schema().position(n).unwrap()))
                .collect();
            result
                .iter()
                .map(|row| {
                    positions
                        .iter()
                        .map(|p| p.map_or(Value::Null, |i| row.get(i).cloned().unwrap()))
                        .collect()
                })
                .collect()
        }
    };
    let mut seen = HashSet::new();
    tuples
        .into_iter()
        .filter(|t| seen.insert(t.clone()))
        .collect()
}

/// The tuples byte for byte: `Value` equality calls `Int(1)` and `Float(1.0)` equal and prints
/// every NaN alike, so compare variants and float bit patterns instead.
fn bytes(tuples: &[Tuple]) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("Float({:#018x})", f.to_bits()),
        other => format!("{other:?}"),
    };
    tuples
        .iter()
        .map(|t| t.iter().map(cell).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn distinct_on_codes_is_distinct_on_values(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = catalog(&mut rng);
        let mut by_codes = ProbabilisticAnswer::new();
        let mut by_tuples = ProbabilisticAnswer::new();
        for _ in 0..3 {
            let (plan, projected) = root(&mut rng, &catalog);
            let extraction = extraction(&mut rng, &projected);
            let probability = [0.5, 0.3, 0.2][rng.index(3)];

            let reference = ReferenceExecutor::new(&catalog).run(&plan).expect("valid root");
            let want = tuple_per_row(&reference, &extraction);

            let view = Executor::new(&catalog).run(&plan).expect("columnar run");
            prop_assert!(view.view().is_some(), "not late-materialized:\n{}", plan);
            let got = extract_answers(&view, &extraction);
            prop_assert_eq!(bytes(&got), bytes(&want), "codes diverge on {:?}:\n{}", extraction, plan);
            prop_assert_eq!(
                view.estimated_bytes(),
                view.view().unwrap().estimated_bytes(),
                "extraction built the root's rows:\n{}", plan
            );
            // Extraction left the cached relation the bag it was.
            prop_assert_eq!(view.rows(), reference.rows());

            let rows = Executor::new(&catalog).with_columnar(false).run(&plan).expect("row run");
            prop_assert!(rows.view().is_none());
            let got = extract_answers(&rows, &extraction);
            prop_assert_eq!(bytes(&got), bytes(&want), "rows diverge on {:?}:\n{}", extraction, plan);

            // The helper every algorithm aggregates through, against add-once-per-tuple.
            aggregate(&mut by_codes, [&view, &rows], &extraction, probability);
            for tuple in want {
                by_tuples.add(tuple, probability);
            }
        }
        let (got, want) = (by_codes.sorted(), by_tuples.sorted());
        prop_assert_eq!(got.len(), want.len());
        for ((t, p), (u, q)) in got.iter().zip(&want) {
            prop_assert_eq!(bytes(std::slice::from_ref(t)), bytes(std::slice::from_ref(u)));
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }
}

/// A text column with more distinct strings than a dictionary holds stays `Column::Mixed`;
/// its rows are de-duplicated by value, and still one tuple per distinct row.
#[test]
fn overflowed_dictionaries_deduplicate_by_value() {
    let mut catalog = Catalog::new();
    let distinct = DEFAULT_DICT_LIMIT + 8;
    let wide = Schema::new("Wide", vec![Attribute::new("s", DataType::Text)]);
    let rows = (0..distinct + 100)
        .map(|i| Tuple::new(vec![Value::from(format!("s{}", i % distinct))]))
        .collect();
    catalog.insert(Relation::new(wide, rows).unwrap());
    let pair = Schema::new("Pair", vec![Attribute::new("p", DataType::Int)]);
    let rows = [1i64, 1].map(|p| Tuple::new(vec![Value::from(p)])).into();
    catalog.insert(Relation::new(pair, rows).unwrap());
    let converted = catalog.columnar_view(&catalog.get("Wide").unwrap());
    assert!(matches!(&**converted.column(0).unwrap(), Column::Mixed(_)));

    let plan = Plan::scan("Wide")
        .product(Plan::scan("Pair"))
        .project(vec!["Wide.s".to_string(), "Pair.p".to_string()]);
    let extraction = Extraction::Columns(vec![Some("Pair.p".into()), Some("Wide.s".into())]);
    let reference = ReferenceExecutor::new(&catalog).run(&plan).unwrap();
    let want = tuple_per_row(&reference, &extraction);
    assert_eq!(want.len(), distinct);
    let view = Executor::new(&catalog).run(&plan).unwrap();
    assert_eq!(view.len(), 2 * (distinct + 100));
    assert_eq!(bytes(&extract_answers(&view, &extraction)), bytes(&want));
    assert_eq!(
        view.estimated_bytes(),
        view.view().unwrap().estimated_bytes()
    );
}
