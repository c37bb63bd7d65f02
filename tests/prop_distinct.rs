//! Property tests: answers accumulated as id rows over a value pool are the answers of "a
//! tuple per row into a `HashMap`".
//!
//! [`aggregate`] never builds the rows of a source-query result: it interns their cells into
//! the answer's own pool of distinct values — a text column one *dictionary entry* at a time,
//! through a per-factor table from code to pool id — and compares rows of pool ids.  Its equality surface is therefore wider than one result: a row read
//! from one mapping's source columns must find the answer an earlier mapping added from
//! *other* columns — another relation's dictionary holding the same strings under other codes,
//! a `Float` or `Mixed` column holding the `1.0` an `Int` column holds as `1`, an all-null
//! column against an output attribute the mapping does not cover.  The oracle here is the
//! path the probe replaced, kept in this file: build a tuple per row of the
//! [`ReferenceExecutor`]'s result, de-duplicate a source query's tuples in a `HashSet`, and sum
//! probabilities per tuple in a `HashMap` — compared tuple byte for tuple byte, probability bit
//! for probability bit, in insertion order, for late-materialized results, row results and both
//! mixed in one answer, and once more with every value hash and row hash forced equal.  (One
//! difference is by design: the map kept the first spelling of a *tuple*, the pool keeps the
//! first spelling of a *value* — `Int(1)` stays `Int(1)` in every later tuple that brings
//! `Float(1.0)` — so the oracle spells its tuples through the values in the order an answer
//! reads them, column by column.)
//!
//! Generated roots are joins, products and selections over relations with null keys, an
//! all-null column, a variant-mixed column, signed zeros and two NaNs; extractions repeat
//! columns, leave columns uncovered (`None`) and read whole rows (`Raw`).  The second property
//! holds [`ProbabilisticAnswer::add_distinct`] — how top-k adds each u-trace leaf's result —
//! to the same oracle within one result.

use proptest::prelude::*;
use proptest::TestRng;
use std::collections::{HashMap, HashSet};
use urm::core::answer::{aggregate, aggregate_with_colliding_hashes, Cluster};
use urm::core::reformulate::{extract_answers, Extraction};
use urm::core::ProbabilisticAnswer;
use urm::engine::reference::off_catalog;
use urm::engine::{CompareOp, Executor, Plan, Predicate, ReferenceExecutor};
use urm::storage::{
    Attribute, Catalog, Column, DataType, Name, Relation, Schema, Tuple, Value, DEFAULT_DICT_LIMIT,
};

const COLUMNS: [&str; 6] = ["k", "t", "f", "m", "dead", "b"];

/// Two or three relations over tiny domains, so most rows repeat: a nullable Int key, a
/// dictionary Text column (each relation interns `a` and `b` in the order its rows happen to
/// hold them, so one string has different codes in different relations), a Float column of
/// `-0.0`/`0.0`/`1.0`/±NaN, a column mixing ints and floats (`Column::Mixed`), an all-null
/// column and a nullable Bool.  Now and then one is empty.
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
                let f = Value::Float([-0.0, 0.0, 1.0, f64::NAN, -f64::NAN][rng.index(5)]);
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
fn root(rng: &mut TestRng, catalog: &Catalog) -> (Plan, Vec<Name>) {
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
    let mut projected: Vec<Name> = Vec::new();
    for _ in 0..1 + rng.index(4) {
        let column: Name = format!("{}.{}", ["A", "B"][rng.index(2)], COLUMNS[rng.index(6)]).into();
        if !projected.contains(&column) {
            projected.push(column);
        }
    }
    (plan.project(projected.clone()), projected)
}

/// `Raw`, or `arity` of the root's columns in any order, repeats and uncovered ones included.
fn extraction(rng: &mut TestRng, projected: &[Name], arity: usize) -> Extraction {
    if rng.index(6) == 0 {
        return Extraction::Raw;
    }
    Extraction::Columns(
        (0..arity)
            .map(|_| (rng.index(4) > 0).then(|| projected[rng.index(projected.len())].clone()))
            .collect(),
    )
}

/// A tuple per row of `result`, as `extraction` reads it.
fn tuple_per_row(result: &Relation, extraction: &Extraction) -> Vec<Tuple> {
    match extraction {
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
    }
}

/// The first of each distinct tuple, in order: a `HashSet` of clones deciding which are new.
fn first_occurrences(tuples: Vec<Tuple>) -> Vec<Tuple> {
    let mut seen = HashSet::new();
    tuples
        .into_iter()
        .filter(|t| seen.insert(t.clone()))
        .collect()
}

/// The accumulator the probe replaced: probabilities summed per tuple in a `HashMap`, with the
/// order of first insertion beside it — and every distinct value in the spelling it was first
/// read with (`Int(1)` stays `Int(1)` when `Float(1.0)` finds it).
#[derive(Default)]
struct TuplePerRow {
    mass: HashMap<Tuple, f64>,
    order: Vec<Tuple>,
    spellings: Vec<Value>,
}

impl TuplePerRow {
    /// One source query whose result is `tuples`: every distinct tuple among them gains
    /// `probability` once.
    fn add_distinct(&mut self, tuples: Vec<Tuple>, probability: f64) {
        for column in 0..tuples.first().map_or(0, Tuple::arity) {
            for value in tuples.iter().map(|row| &row.values()[column]) {
                if !self.spellings.contains(value) {
                    self.spellings.push(value.clone());
                }
            }
        }
        for tuple in first_occurrences(tuples) {
            if !self.mass.contains_key(&tuple) {
                self.order.push(tuple.clone());
            }
            *self.mass.entry(tuple).or_insert(0.0) += probability;
        }
    }

    /// `tuple`, each value spelled as it was first read.
    fn spelled(&self, tuple: &Tuple) -> Tuple {
        let first = |v: &Value| self.spellings.iter().find(|s| *s == v).unwrap().clone();
        tuple.iter().map(first).collect()
    }
}

/// The result as a plain row relation — what a root reloaded from a spill segment is — so the
/// probe's tuple-reading side stays exercised beside its column-reading side.
fn as_rows(result: Relation) -> Relation {
    Relation::from_shared(result.schema().clone(), result.shared_rows())
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

/// `got` is `want`: the same tuples in the same order, byte for byte, with the same
/// probability bits.
fn assert_same_answer(got: &ProbabilisticAnswer, want: &TuplePerRow) {
    let got_tuples: Vec<Tuple> = got.iter().map(|(t, _)| t.clone()).collect();
    let want_tuples: Vec<Tuple> = want.order.iter().map(|t| want.spelled(t)).collect();
    assert_eq!(bytes(&got_tuples), bytes(&want_tuples));
    for (tuple, probability) in got.iter() {
        assert_eq!(probability.to_bits(), want.mass[tuple].to_bits(), "{tuple}");
        assert_eq!(got.probability_of(tuple).to_bits(), probability.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn probing_is_a_tuple_per_row_into_a_map(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = catalog(&mut rng);
        let mut oracle = TuplePerRow::default();
        // One arity per answer, so that what one source query reads from `A.k` another reads
        // from `B.m`, `A.f` or nowhere — and finds, or does not find, by value.
        let arity = 1 + rng.index(3);
        let (mut results, mut sources) = (Vec::new(), Vec::new());
        for _ in 0..4 {
            let (plan, projected) = root(&mut rng, &catalog);
            let extraction = extraction(&mut rng, &projected, arity);
            let probability = [0.5, 0.3, 0.2][rng.index(3)];

            let reference = ReferenceExecutor::new(&catalog).run(&plan).expect("valid root");
            let view = Executor::new(&catalog).run(&plan).expect("columnar run");
            prop_assert!(view.view().is_some(), "not late-materialized:\n{}", plan);
            let rows = as_rows(Executor::new(&catalog).run(&off_catalog(&plan, &catalog)).expect("row run"));
            // The result off its view or off its rows, once or twice over: a tuple a source
            // query meets again counts once.
            let twice: Vec<u32> = (0..view.len() as u32).chain(0..view.len() as u32).collect();
            let view_twice = Relation::from_view(
                view.schema().clone(),
                view.view().unwrap().select_rows(twice),
            );
            let rows_twice =
                Relation::from_validated(rows.schema().clone(), [rows.rows(); 2].concat());
            let pick = rng.index(4);
            let copies = 1 + pick / 2;
            let tuples = tuple_per_row(&reference, &extraction);
            oracle.add_distinct(vec![tuples; copies].concat(), probability);
            sources.push((pick, extraction, probability, plan, copies * reference.len()));
            results.push([view, rows, view_twice, rows_twice]);
        }
        let clusters: Vec<Cluster<'_>> = sources
            .iter()
            .zip(&results)
            .map(|((pick, extraction, probability, ..), results)| {
                Cluster::single(*probability, extraction, &results[*pick])
            })
            .collect();
        let (probed, work) = aggregate(&clusters, 0.0);
        let (one_chain, _) = aggregate_with_colliding_hashes(&clusters, 0.0);
        let read: usize = sources.iter().map(|(.., len)| len).sum();
        prop_assert_eq!(work.factor_rows, read);
        prop_assert!(probed.len() <= work.rows);
        for ((.., plan, _), [view, ..]) in sources.iter().zip(&results) {
            prop_assert_eq!(
                view.estimated_bytes(),
                view.view().unwrap().estimated_bytes(),
                "aggregating built the root's rows:\n{}", plan
            );
        }
        assert_same_answer(&probed, &oracle);
        assert_same_answer(&one_chain, &oracle);
        prop_assert!(probed.approx_eq(&one_chain, 0.0) && one_chain.approx_eq(&probed, 0.0));
        prop_assert_eq!(format!("{probed:?}"), format!("{one_chain:?}"));
    }

    #[test]
    fn distinct_on_codes_is_distinct_on_values(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = catalog(&mut rng);
        for _ in 0..3 {
            let (plan, projected) = root(&mut rng, &catalog);
            let arity = 1 + rng.index(5);
            let extraction = extraction(&mut rng, &projected, arity);

            let reference = ReferenceExecutor::new(&catalog).run(&plan).expect("valid root");
            let mut want = TuplePerRow::default();
            want.add_distinct(tuple_per_row(&reference, &extraction), 0.5);
            let distinct = |result: &Relation| {
                let mut answer = ProbabilisticAnswer::new();
                let added = answer.add_distinct(extract_answers(result, &extraction), 0.5);
                assert_eq!(added, answer.len());
                answer
            };

            let view = Executor::new(&catalog).run(&plan).expect("columnar run");
            prop_assert!(view.view().is_some(), "not late-materialized:\n{}", plan);
            assert_same_answer(&distinct(&view), &want);
            prop_assert_eq!(
                view.estimated_bytes(),
                view.view().unwrap().estimated_bytes(),
                "extraction built the root's rows:\n{}", plan
            );
            // Extraction left the cached relation the bag it was.
            prop_assert_eq!(view.rows(), reference.rows());

            let rows = as_rows(Executor::new(&catalog).run(&off_catalog(&plan, &catalog)).expect("row run"));
            assert_same_answer(&distinct(&rows), &want);
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
    let wide = catalog.get("Wide").unwrap();
    let column = wide.view().unwrap().column(0).unwrap().column;
    assert!(matches!(column, Column::Mixed(_)));

    let plan = Plan::scan("Wide")
        .product(Plan::scan("Pair"))
        .project(vec!["Wide.s".into(), "Pair.p".into()]);
    let extraction = Extraction::Columns(vec![Some("Pair.p".into()), Some("Wide.s".into())]);
    let reference = ReferenceExecutor::new(&catalog).run(&plan).unwrap();
    let want = first_occurrences(tuple_per_row(&reference, &extraction));
    assert_eq!(want.len(), distinct);
    let view = Executor::new(&catalog).run(&plan).unwrap();
    assert_eq!(view.len(), 2 * (distinct + 100));
    let mut added = ProbabilisticAnswer::new();
    added.add_distinct(extract_answers(&view, &extraction), 1.0);
    let got: Vec<Tuple> = added.iter().map(|(t, _)| t.clone()).collect();
    assert_eq!(bytes(&got), bytes(&want));
    // The aggregation finds the same answers, interning the values by their own hashes.
    let (probed, work) = aggregate(&[Cluster::single(1.0, &extraction, &view)], 0.0);
    assert_eq!((work.factor_rows, probed.len()), (view.len(), distinct));
    let got: Vec<Tuple> = probed.iter().map(|(t, _)| t.clone()).collect();
    assert_eq!(bytes(&got), bytes(&want));
    assert_eq!(
        view.estimated_bytes(),
        view.view().unwrap().estimated_bytes()
    );
}
