//! Property: a [`QueryKey`] is exactly as fine as the query's `Debug` rendering — the key the
//! service used before, and the definition of "the same query" — and equal keys hash equal.
//!
//! Pairs are drawn from pools small enough that near-misses are common: the same aliases and
//! attributes, constants that differ in type only (`Int(1)`, `Float(1.0)`, `Text("1")`,
//! `Bool(true)`), `0.0` against `-0.0`, NaN against itself, the same predicates in another
//! order, `Tuples`/`Count`/`Sum` outputs.  Half of the pairs are independent draws, half are
//! one query and a small mutation of it.  (NaNs of another sign or payload are left out: they
//! print as `NaN` too, and there the key is knowingly finer — see [`QueryKey`].)

use std::hash::{BuildHasher, RandomState};
use urm_core::prelude::CompareOp;
use urm_core::{QueryKey, TargetQuery};
use urm_storage::Value;

const CASES: usize = 1024;

/// SplitMix64: `urm-core` has no dev-dependency to draw from, and adding one is a lock edit.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// What a query is built from; `build` turns it into a validated [`TargetQuery`].
#[derive(Clone)]
struct Recipe {
    name: &'static str,
    /// `(relation, alias)`, aliases distinct.
    relations: Vec<(&'static str, &'static str)>,
    predicates: Vec<Predicate>,
    output: Output,
}

#[derive(Clone)]
enum Predicate {
    Compare(String, CompareOp, Value),
    Join(String, String),
}

#[derive(Clone)]
enum Output {
    Tuples(Vec<String>),
    Count,
    Sum(String),
}

fn constant(rng: &mut Rng) -> Value {
    let n = rng.below(3) as i64;
    match rng.below(8) {
        0 => Value::Null,
        1 => Value::Bool(n == 1),
        2 => Value::Int(n),
        3 => Value::Float(n as f64),
        4 => Value::Float(0.0),
        5 => Value::Float(-0.0),
        6 => Value::Float(f64::NAN),
        _ => Value::from(n.to_string()),
    }
}

fn attr(rng: &mut Rng, relations: &[(&str, &str)]) -> String {
    let (_, alias) = relations[rng.below(relations.len())];
    format!("{alias}.{}", ["a", "b"][rng.below(2)])
}

fn predicate(rng: &mut Rng, relations: &[(&str, &str)]) -> Predicate {
    if rng.below(4) == 0 {
        return Predicate::Join(attr(rng, relations), attr(rng, relations));
    }
    let op = [CompareOp::Eq, CompareOp::Ne, CompareOp::Lt][rng.below(3)];
    Predicate::Compare(attr(rng, relations), op, constant(rng))
}

fn output(rng: &mut Rng, relations: &[(&str, &str)]) -> Output {
    match rng.below(4) {
        0 => Output::Count,
        1 => Output::Sum(attr(rng, relations)),
        _ => Output::Tuples((0..=rng.below(2)).map(|_| attr(rng, relations)).collect()),
    }
}

fn recipe(rng: &mut Rng) -> Recipe {
    let aliases = [["PO", "I1", "I2"], ["I1", "PO", "I2"]][rng.below(2)];
    let relations: Vec<_> = (0..=rng.below(3))
        .map(|i| (["PO", "Item"][rng.below(2)], aliases[i]))
        .collect();
    Recipe {
        name: ["q", "Q1"][rng.below(2)],
        predicates: (0..rng.below(4))
            .map(|_| predicate(rng, &relations))
            .collect(),
        output: output(rng, &relations),
        relations,
    }
}

/// The recipe again, as it is or with one thing changed.
fn mutated(rng: &mut Rng, recipe: &Recipe) -> Recipe {
    let mut next = recipe.clone();
    let n = next.predicates.len();
    match rng.below(5) {
        0 => {}
        1 if n > 1 => next.predicates.swap(rng.below(n), rng.below(n)),
        2 if n > 0 => next.predicates[rng.below(n)] = predicate(rng, &recipe.relations),
        3 => next.output = output(rng, &recipe.relations),
        // Every constant keeps its number and changes its type.
        _ => {
            for predicate in &mut next.predicates {
                if let Predicate::Compare(_, _, value) = predicate {
                    *value = match (&*value, rng.below(2)) {
                        (Value::Int(n), 0) => Value::Float(*n as f64),
                        (Value::Int(n), _) => Value::from(n.to_string()),
                        (Value::Float(x), _) if !x.is_nan() => Value::Int(*x as i64),
                        _ => value.clone(),
                    };
                }
            }
        }
    }
    next
}

fn build(recipe: &Recipe) -> TargetQuery {
    let mut builder = TargetQuery::builder(recipe.name);
    for (relation, alias) in &recipe.relations {
        builder = builder.relation_as(*relation, *alias);
    }
    for predicate in &recipe.predicates {
        builder = match predicate {
            Predicate::Compare(attr, op, value) => builder.filter(attr, *op, value.clone()),
            Predicate::Join(left, right) => builder.join(left, right),
        };
    }
    match &recipe.output {
        Output::Tuples(attrs) => builder.returning(attrs),
        Output::Count => builder.count(),
        Output::Sum(attr) => builder.sum(attr),
    }
    .build()
    .expect("the recipe binds every alias it mentions")
}

#[test]
fn keys_are_equal_exactly_when_the_debug_renderings_are() {
    let mut rng = Rng(0x5eed);
    let hasher = RandomState::new();
    let (mut equal, mut unequal, mut conflated_by_the_derived_eq) = (0, 0, 0);
    for case in 0..CASES {
        let first = recipe(&mut rng);
        let second = if case % 2 == 0 {
            recipe(&mut rng)
        } else {
            mutated(&mut rng, &first)
        };
        let (a, b) = (build(&first), build(&second));
        let same_rendering = format!("{a:?}") == format!("{b:?}");
        conflated_by_the_derived_eq += usize::from(a == b && !same_rendering);
        let (ka, kb) = (QueryKey::new(a.clone()), QueryKey::new(b.clone()));
        assert_eq!(ka == kb, same_rendering, "{a:?}\n{b:?}");
        assert_eq!(kb == ka, same_rendering, "{a:?}\n{b:?}");
        if same_rendering {
            assert_eq!(hasher.hash_one(&ka), hasher.hash_one(&kb), "{a:?}");
            equal += 1;
        } else {
            unequal += 1;
        }
        // A key made again from the same query, and a clone, are the key.
        assert!(ka == QueryKey::new(a) && ka == ka.clone());
    }
    // The pools do produce both outcomes, and the near-miss the key exists for.
    assert!(equal >= CASES / 16, "{equal} equal pairs");
    assert!(unequal >= CASES / 4, "{unequal} unequal pairs");
    assert!(
        conflated_by_the_derived_eq >= 8,
        "{conflated_by_the_derived_eq} pairs only `Value`'s `==` calls equal"
    );
}
