//! Property tests of the join-graph normal form (`urm_engine::optimize`).
//!
//! Every algorithm, the batch path and the e2e oracle run their plans through `optimize`, so a
//! wrong rewrite would be wrong everywhere at once and no comparison between them would see
//! it.  These tests compare against the one evaluator that never sees an optimised plan: the
//! row-at-a-time [`ReferenceExecutor`] on the *literal* plan.
//!
//! * **Equivalence.**  For random `π/δ/σ/×/⋈/agg` plans over small random catalogs —
//!   self-joins under fresh aliases, empty relations, leaves no predicate reaches, NULL join
//!   keys, selections buried inside the product tree, conjuncts over columns that do not exist
//!   or are out of their selection's scope — `Executor::run(optimize(p))` equals the reference
//!   on `p`: as a set without duplicates under a `Distinct` root, as a bag with the same
//!   columns in the same order otherwise (so COUNT and SUM are equal to the bit; the float
//!   domain is dyadic, so a sum does not depend on the order of its addends).  The predicate
//!   vocabulary has no cross-leaf conjunct other than an equality; the conjuncts that cannot
//!   become join edges are the unsatisfiable ones.
//! * **Canonicality.**  Two literal plans over the same leaves and conjuncts — scans in
//!   another order, another tree shape, conjuncts applied in another order and at other
//!   depths, `a = b` written `b = a`, equalities given as `HashJoin` conditions — optimise to
//!   the identical plan, hence the identical fingerprint.

use proptest::prelude::*;
use proptest::TestRng;
use std::collections::HashSet;
use urm_engine::optimize::{fingerprint, optimize};
use urm_engine::{AggFunc, CompareOp, Executor, Plan, Predicate, ReferenceExecutor};
use urm_storage::{Attribute, Catalog, DataType, Name, Relation, Schema, Tuple, Value};

const TYPES: [DataType; 3] = [DataType::Int, DataType::Float, DataType::Text];

/// Tiny domains, so selections and joins hit; every float is a multiple of ½.
fn random_value(rng: &mut TestRng, dt: DataType) -> Value {
    if rng.index(8) == 0 {
        return Value::Null;
    }
    match dt {
        DataType::Int => Value::from(rng.index(4) as i64),
        DataType::Float => Value::from([0.0, 0.5, 1.5, 2.0][rng.index(4)]),
        _ => Value::from(["a", "b", "c"][rng.index(3)]),
    }
}

/// Two to four relations of one to three columns and zero to seven rows.
fn random_catalog(rng: &mut TestRng) -> Catalog {
    let mut catalog = Catalog::new();
    for r in 0..2 + rng.index(3) {
        let attrs: Vec<Attribute> = (0..1 + rng.index(3))
            .map(|i| Attribute::new(format!("c{i}"), TYPES[rng.index(3)]))
            .collect();
        let rows = (0..rng.index(8))
            .map(|_| {
                Tuple::new(
                    attrs
                        .iter()
                        .map(|a| random_value(rng, a.data_type))
                        .collect(),
                )
            })
            .collect();
        let schema = Schema::new(format!("R{r}"), attrs);
        catalog.insert(Relation::new(schema, rows).unwrap());
    }
    catalog
}

fn shuffle<T>(rng: &mut TestRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// A leaf of a block: a scan under a fresh alias, or a nested `δ π` block over such scans.
#[derive(Clone)]
struct Leaf {
    plan: Plan,
    columns: Vec<(Name, DataType)>,
}

fn scan_leaf(rng: &mut TestRng, catalog: &Catalog, aliases: &mut usize) -> Leaf {
    let names: Vec<&str> = catalog.relation_names().collect();
    let relation = names[rng.index(names.len())];
    *aliases += 1;
    let alias = format!("A{aliases}");
    let columns = catalog
        .get(relation)
        .unwrap()
        .schema()
        .attributes()
        .iter()
        .map(|a| (format!("{alias}.{}", a.name).into(), a.data_type))
        .collect();
    Leaf {
        plan: Plan::scan_as(relation, alias),
        columns,
    }
}

/// What a block computes, independent of how its literal plan spells it.
struct Block {
    leaves: Vec<Leaf>,
    conjuncts: Vec<Predicate>,
}

impl Block {
    fn columns(&self) -> Vec<(Name, DataType)> {
        self.leaves.iter().flat_map(|l| l.columns.clone()).collect()
    }
}

fn random_conjunct(rng: &mut TestRng, columns: &[(Name, DataType)]) -> Predicate {
    let (column, dt) = columns[rng.index(columns.len())].clone();
    if rng.index(2) == 0 {
        // Often a cross-leaf equality (a join edge), sometimes one inside a leaf.
        Predicate::column_eq(column, columns[rng.index(columns.len())].0.clone())
    } else {
        let op = [CompareOp::Eq, CompareOp::Ne, CompareOp::Lt, CompareOp::Ge][rng.index(4)];
        Predicate::compare(column, op, random_value(rng, dt))
    }
}

fn random_block(rng: &mut TestRng, catalog: &Catalog, aliases: &mut usize, nest: bool) -> Block {
    let leaves: Vec<Leaf> = (0..1 + rng.index(4))
        .map(|_| {
            if nest && rng.index(6) == 0 {
                let inner = random_block(rng, catalog, aliases, false);
                let columns = random_columns(rng, &inner.columns(), true);
                Leaf {
                    plan: literal(rng, &inner).project(names(&columns)).distinct(),
                    columns,
                }
            } else {
                scan_leaf(rng, catalog, aliases)
            }
        })
        .collect();
    let columns: Vec<_> = leaves.iter().flat_map(|l| l.columns.clone()).collect();
    let conjuncts = match columns.len() {
        0 => Vec::new(),
        _ => (0..rng.index(5))
            .map(|_| random_conjunct(rng, &columns))
            .collect(),
    };
    Block { leaves, conjuncts }
}

/// A random sub-list of `columns`, each at most once, in random order.
fn random_columns(
    rng: &mut TestRng,
    columns: &[(Name, DataType)],
    may_be_empty: bool,
) -> Vec<(Name, DataType)> {
    let mut picked = columns.to_vec();
    shuffle(rng, &mut picked);
    let least = usize::from(!may_be_empty || rng.index(5) != 0).min(picked.len());
    picked.truncate(least.max(rng.index(picked.len().min(3) + 1)));
    picked
}

fn names(columns: &[(Name, DataType)]) -> Vec<Name> {
    columns.iter().map(|(name, _)| name.clone()).collect()
}

/// One literal spelling of a block: leaves in random order under a random product tree, every
/// conjunct applied somewhere at or above the smallest subtree providing its columns — as a
/// selection, or, for an equality across a product, possibly as a `HashJoin` condition.
fn literal(rng: &mut TestRng, block: &Block) -> Plan {
    let mut leaves: Vec<&Leaf> = block.leaves.iter().collect();
    shuffle(rng, &mut leaves);
    let mut pending = block.conjuncts.clone();
    shuffle(rng, &mut pending);
    let plan = literal_tree(rng, &leaves, &mut pending, true);
    assert!(pending.is_empty(), "every conjunct is applied by the root");
    plan
}

fn provides(leaves: &[&Leaf], column: &str) -> bool {
    leaves
        .iter()
        .any(|l| l.columns.iter().any(|(name, _)| **name == *column))
}

fn flipped(rng: &mut TestRng, predicate: Predicate) -> Predicate {
    match predicate {
        Predicate::ColumnEq { left, right } if rng.index(2) == 0 => {
            Predicate::column_eq(right, left)
        }
        other => other,
    }
}

fn literal_tree(
    rng: &mut TestRng,
    leaves: &[&Leaf],
    pending: &mut Vec<Predicate>,
    root: bool,
) -> Plan {
    let mut plan = if let [leaf] = leaves {
        leaf.plan.clone()
    } else {
        let (left, right) = leaves.split_at(1 + rng.index(leaves.len() - 1));
        let left_plan = literal_tree(rng, left, pending, false);
        let right_plan = literal_tree(rng, right, pending, false);
        // Equalities across this product may ride along as join conditions.
        let across = |a: &str, b: &str| {
            (provides(left, a) && provides(right, b)) || (provides(left, b) && provides(right, a))
        };
        let mut on = Vec::new();
        for conjunct in std::mem::take(pending) {
            match flipped(rng, conjunct) {
                Predicate::ColumnEq { left: a, right: b }
                    if across(&a, &b) && rng.index(2) == 0 =>
                {
                    on.push((a, b));
                }
                other => pending.push(other),
            }
        }
        if on.is_empty() {
            left_plan.product(right_plan)
        } else {
            left_plan.hash_join(right_plan, on)
        }
    };
    let mut here = Vec::new();
    pending.retain(|conjunct| {
        let in_scope = conjunct.columns().iter().all(|c| provides(leaves, c));
        let apply = in_scope && (root || rng.index(2) == 0);
        if apply {
            here.push(conjunct.clone());
        }
        !apply
    });
    while !here.is_empty() {
        // One selection per conjunct, or several conjuncts in one conjunction.
        let take = 1 + rng.index(here.len());
        let parts: Vec<Predicate> = here.drain(..take).map(|p| flipped(rng, p)).collect();
        plan = plan.select(if parts.len() == 1 && rng.index(2) == 0 {
            parts.into_iter().next().unwrap()
        } else {
            Predicate::And(parts)
        });
    }
    plan
}

/// What sits on top of a block.
#[derive(Clone)]
enum Head {
    None,
    Project(Vec<Name>),
    SetOf(Vec<Name>),
    Distinct,
    Count,
    Sum(Name),
}

fn random_head(rng: &mut TestRng, columns: &[(Name, DataType)]) -> Head {
    let numeric: Vec<&Name> = columns
        .iter()
        .filter(|(_, dt)| *dt != DataType::Text)
        .map(|(name, _)| name)
        .collect();
    match rng.index(10) {
        0 => Head::None,
        1 => Head::Distinct,
        2 => Head::Count,
        3 if !numeric.is_empty() => Head::Sum(numeric[rng.index(numeric.len())].clone()),
        4 => Head::Project(names(&random_columns(rng, columns, false))),
        _ => Head::SetOf(names(&random_columns(rng, columns, true))),
    }
}

fn with_head(plan: Plan, head: &Head) -> Plan {
    match head {
        Head::None => plan,
        Head::Project(columns) => plan.project(columns.clone()),
        Head::SetOf(columns) => plan.project(columns.clone()).distinct(),
        Head::Distinct => plan.distinct(),
        Head::Count => plan.aggregate(AggFunc::Count),
        Head::Sum(column) => plan.aggregate(AggFunc::Sum(column.clone())),
    }
}

/// Buries a conjunct that can never hold — over a column that does not exist, or one that
/// exists only outside the selection's scope — in the literal plan.
fn poisoned(rng: &mut TestRng, plan: Plan, columns: &[(Name, DataType)]) -> Plan {
    let stranger = match (rng.index(2), columns.first()) {
        (0, Some((name, _))) => name.clone(),
        _ => "ghost.column".into(),
    };
    let never = |plan: Plan, rng: &mut TestRng| {
        plan.select(if rng.index(2) == 0 {
            Predicate::compare(stranger.clone(), CompareOp::Ge, Value::from(0i64))
        } else {
            Predicate::column_eq(stranger.clone(), "ghost.other")
        })
    };
    match plan {
        Plan::Product { left, right } if rng.index(2) == 0 => {
            // `stranger` may well exist — in the left input, which this selection cannot see.
            left.product(never(*right, rng))
        }
        other => never(other, rng),
    }
}

fn sorted(rows: &[Tuple]) -> Vec<Tuple> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}

fn check_equivalent(plan: &Plan, catalog: &Catalog) {
    let expected = ReferenceExecutor::new(catalog).run(plan);
    let optimized = optimize(plan, catalog);
    let actual = optimized
        .clone()
        .and_then(|optimized| Executor::new(catalog).run(&optimized));
    let (want, got, optimized) = match (&expected, &actual, &optimized) {
        (Ok(want), Ok(got), Ok(optimized)) => (want, got, optimized),
        (Err(_), Err(_), _) => return,
        _ => panic!(
            "outcome diverges for\n{plan}reference: {:?}\noptimised: {:?}",
            expected.as_ref().map(Relation::len),
            actual.as_ref().map(Relation::len)
        ),
    };
    let want_columns: Vec<&str> = want.schema().attribute_names().collect();
    let got_columns: Vec<&str> = got.schema().attribute_names().collect();
    prop_assert_eq!(
        want_columns,
        got_columns,
        "columns of\n{}as\n{}",
        plan,
        optimized
    );
    if matches!(plan, Plan::Distinct { .. }) {
        let want: HashSet<&Tuple> = want.iter().collect();
        let rows: HashSet<&Tuple> = got.iter().collect();
        prop_assert_eq!(got.len(), rows.len(), "duplicates from\n{}", optimized);
        prop_assert_eq!(want, rows, "set of\n{}as\n{}", plan, optimized);
    } else {
        prop_assert_eq!(
            sorted(want.rows()),
            sorted(got.rows()),
            "bag of\n{}as\n{}",
            plan,
            optimized
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn optimised_plans_answer_like_the_reference_on_the_literal_plan(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = random_catalog(&mut rng);
        let block = random_block(&mut rng, &catalog, &mut 0, true);
        let head = random_head(&mut rng, &block.columns());
        let body = literal(&mut rng, &block);
        check_equivalent(&with_head(body.clone(), &head), &catalog);
        let poisoned = poisoned(&mut rng, body, &block.columns());
        check_equivalent(&with_head(poisoned, &head), &catalog);
    }

    #[test]
    fn the_normal_form_depends_on_the_block_not_on_its_spelling(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = random_catalog(&mut rng);
        let block = random_block(&mut rng, &catalog, &mut 0, true);
        // A head that names its columns: without one a plan's column order is its leaf order.
        let head = match random_head(&mut rng, &block.columns()) {
            Head::None | Head::Distinct => Head::Count,
            head => head,
        };
        let one = with_head(literal(&mut rng, &block), &head);
        let other = with_head(literal(&mut rng, &block), &head);
        match (optimize(&one, &catalog), optimize(&other, &catalog)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a, &b, "\n{}and\n{}became\n{}and\n{}", one, other, a, b);
                prop_assert_eq!(fingerprint(&a), fingerprint(&b));
            }
            (a, b) => prop_assert!(a.is_err() && b.is_err(), "\n{}and\n{}", one, other),
        }
    }
}
