//! The optimizer: one canonical join-graph normal form for reformulated source queries.
//!
//! Reformulation (Section VI-B of the paper) produces plans of the shape
//! `δ π (σ … σ (R1 × R2 × …))` (or an aggregate in place of `δ π`): a target relation becomes
//! the *product* of the source relations covering its attributes, **with no predicate between
//! them**.  Executing that literally materialises the full Cartesian product before filtering;
//! even after selections are pushed down and equalities fused into joins, the relations no
//! equality reaches remain pure multipliers of the row count.  They cannot be ordered away —
//! the products are inherent to the reformulation — but under the paper's *set* semantics
//! (Algorithm 4, "remove duplicate tuples") they factor:
//!
//! ```text
//!   δ π_A (C1 × … × Ck)  =  δ π_A1 (C1) × … × δ π_Ak (Ck)        Ai = A ∩ columns(Ci)
//! ```
//!
//! [`optimize`] therefore rewrites every `[head] σ* (leaf × … × leaf)` block into one normal
//! form:
//!
//! 1. **Flatten** the block into leaves (scans, `Values`, and any other sub-plan, itself
//!    optimised) and conjuncts (`HashJoin` conditions included).
//! 2. **Push** each conjunct whose columns one leaf provides onto that leaf, as one selection
//!    over the sorted conjunction.
//! 3. Build the **join graph** — leaves are nodes, cross-leaf equalities are edges — and split
//!    it into **connected components**.
//! 4. Inside a component join **along edges only**: start from the leaf with the smallest
//!    estimate and repeatedly hash-join the smallest leaf an edge connects, ties by leaf
//!    fingerprint.
//! 5. **Multiply components last**, smallest first.  Under a `δ π_A` head each component is
//!    first reduced to `δ π_Ai (Ci)`; a component with no output column becomes an
//!    *existence factor* `δ π_∅ (Ci)` of at most one row; a projection above the product puts
//!    its columns in `A`'s order when the factors' order differs.  Under an aggregate, a bag
//!    projection or no head the components are multiplied as they are.  A `δ π_A` product is
//!    a plan anyone can run, but only the unshared `basic` reference runs it: every other
//!    algorithm submits the factors under the reordering projection ([`product_factors`]) as
//!    roots of their own and counts the answers from them (`urm_core::answer::aggregate`), so
//!    the product is never built.
//!
//! Components stay bag-semantic and output-agnostic inside, so one component node is shared
//! by every mapping, query and output list (COUNT/SUM included) that contains it.
//!
//! **Canonical.**  Every choice above is a function of the *set* of leaves and conjuncts and
//! of the catalog's base cardinalities — nothing observed at run time enters.  So a plan's
//! optimised form (and fingerprint) does not depend on the order a mapping listed its
//! relations or a query its predicates in, and is stable for the lifetime of a catalog.  Which
//! side of a join the hash table is built on is not part of the plan: that stays the
//! executor's decision.
//!
//! Column names must be unique across the leaves of a block — which [`Plan`]'s
//! alias-qualified naming guarantees for every plan reformulation builds.  A name is a shared
//! [`Name`]: a leaf's columns are read off its schema (a scan's is the catalog's memoised one),
//! a column is mapped to its leaf by scanning the leaves' schemas, and the rewritten plan holds
//! the input plan's names — the optimizer allocates per plan node and column list, and copies
//! no string.
//!
//! The same rewritten plan is used for every algorithm and the batch path, so relative
//! comparisons between them are unaffected.  o-sharing's partial plans are probed
//! through [`factors`], the components of step 3 before step 5 multiplies them.

use crate::{CompareOp, EngineError, EngineResult, Plan, Predicate};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use urm_storage::{Catalog, Name, Schema};

/// A structural fingerprint of a plan, used to detect identical source queries (e-basic) and
/// common sub-expressions (the MQO baseline).
///
/// It covers the whole tree — operators, relation names, aliases, predicates with their
/// constants, column lists, the rows of a `Values` leaf — and nothing else: no cardinality,
/// no catalog identity, nothing measured.
#[must_use]
pub fn fingerprint(plan: &Plan) -> u64 {
    let mut hasher = DefaultHasher::new();
    plan.hash(&mut hasher);
    hasher.finish()
}

/// Rewrites a plan into the canonical join-graph normal form (see the [module docs](self)).
///
/// The result is equivalent to `plan`: the same set of rows under a [`Plan::Distinct`] root,
/// the same bag (and the same output columns, in the same order) otherwise.
pub fn optimize(plan: &Plan, catalog: &Catalog) -> EngineResult<Plan> {
    match plan {
        Plan::Scan { .. } | Plan::Values(_) => Ok(plan.clone()),
        Plan::Distinct { input } => match input.as_ref() {
            Plan::Project { columns, input } => {
                let block = Block::of(input, catalog)?;
                let wanted = block.columns_by_component(columns)?;
                let factors = block
                    .components
                    .into_iter()
                    .zip(wanted)
                    .map(|(component, columns)| Component {
                        rows: if columns.is_empty() {
                            1
                        } else {
                            component.rows
                        },
                        plan: component.plan.project(columns.clone()).distinct(),
                        columns,
                    })
                    .collect();
                Ok(multiply(factors, Some(columns)))
            }
            other => Ok(optimize(other, catalog)?.distinct()),
        },
        // These heads name the columns they read: the product's column order is free.
        Plan::Project { columns, input } => {
            let block = Block::of(input, catalog)?;
            Ok(multiply(block.components, None).project(columns.clone()))
        }
        Plan::Aggregate { func, input } => {
            let block = Block::of(input, catalog)?;
            Ok(multiply(block.components, None).aggregate(func.clone()))
        }
        Plan::Select { .. } | Plan::Product { .. } | Plan::HashJoin { .. } => {
            let block = Block::of(plan, catalog)?;
            let columns = block.columns();
            Ok(multiply(block.components, Some(&columns)))
        }
    }
}

/// The factors of a `σ* (leaf × … × leaf)` block: its join-graph components, each joined along
/// its edges, exactly as [`optimize`] builds them before multiplying.  The block is empty if and
/// only if one of them is, so emptiness can be learned without building the product, and a
/// factor resolved on a DAG is the node any optimised plan with the same component reuses.
pub fn factors(plan: &Plan, catalog: &Catalog) -> EngineResult<Vec<Plan>> {
    let block = Block::of(plan, catalog)?;
    Ok(block.components.into_iter().map(|c| c.plan).collect())
}

/// The factors whose product the optimised `plan` is: the product chain under the reordering
/// projection [`optimize`] may put above it, or `plan` itself when it is not a product.  Each
/// factor is a DAG root of its own, so the product is never built.  Only for a plan whose
/// consumer reads its columns by name, which no reordering moves.
#[must_use]
pub fn product_factors(plan: Plan) -> Vec<Plan> {
    fn flatten(plan: Plan, factors: &mut Vec<Plan>) {
        match plan {
            Plan::Product { left, right } => {
                flatten(*left, factors);
                flatten(*right, factors);
            }
            factor => factors.push(factor),
        }
    }
    let product = match plan {
        Plan::Project { input, .. } if matches!(*input, Plan::Product { .. }) => *input,
        plan => plan,
    };
    let mut factors = Vec::new();
    flatten(product, &mut factors);
    factors
}

/// The product of `factors`, smallest estimate first (ties by fingerprint) — followed, when the
/// caller needs exactly `columns`, by a projection onto them unless the product already lists
/// its columns that way.
fn multiply(mut factors: Vec<Component>, columns: Option<&[Name]>) -> Plan {
    factors.sort_by_cached_key(|factor| (factor.rows, fingerprint(&factor.plan)));
    let reorder = columns.filter(|columns| {
        !factors
            .iter()
            .flat_map(|factor| &factor.columns)
            .eq(columns.iter())
    });
    let product = factors
        .into_iter()
        .map(|factor| factor.plan)
        .reduce(Plan::product)
        .expect("a block has at least one leaf");
    match reorder {
        Some(columns) => product.project(columns.to_vec()),
        None => product,
    }
}

/// A connected component of a block's join graph (or, once reduced, a factor of its product).
struct Component {
    plan: Plan,
    /// Estimated output rows.
    rows: u64,
    /// Output columns, in order.
    columns: Vec<Name>,
}

/// One conjunct of a block and the leaves below the selection (or join) it came from: only
/// those can provide its columns.
struct Conjunct {
    predicate: Predicate,
    scope: Range<usize>,
}

/// A cross-leaf equality: `leaves[a].a_column = leaves[b].b_column`.
struct Edge {
    a: usize,
    a_column: Name,
    b: usize,
    b_column: Name,
}

impl Edge {
    /// The edge's columns as `(column of a joined leaf, column of leaf)` when it connects `leaf`
    /// to one of the leaves in `joined`.
    fn joining(&self, leaf: usize, joined: &[usize]) -> Option<(&Name, &Name)> {
        if self.b == leaf && joined.contains(&self.a) {
            Some((&self.a_column, &self.b_column))
        } else if self.a == leaf && joined.contains(&self.b) {
            Some((&self.b_column, &self.a_column))
        } else {
            None
        }
    }
}

/// A flattened `σ* (leaf × … × leaf)` block in normal form: its connected components, each
/// joined along its edges, and the schemas of its leaves in the order the un-optimised plan
/// lists them.
struct Block {
    components: Vec<Component>,
    schemas: Vec<Schema>,
}

impl Block {
    fn of(body: &Plan, catalog: &Catalog) -> EngineResult<Block> {
        let mut plans = Vec::new();
        let mut conjuncts = Vec::new();
        flatten(body, catalog, &mut plans, &mut conjuncts)?;
        // A scan's schema is the catalog's memoised one: reading a leaf's columns copies none.
        let schemas = plans
            .iter()
            .map(|leaf| leaf.output_schema(catalog))
            .collect::<EngineResult<Vec<Schema>>>()?;

        // Single-leaf conjuncts go onto their leaf, cross-leaf equalities become edges.  A
        // conjunct naming a column nothing in its scope provides can never hold (missing
        // predicate columns bind to `Never`): it goes onto a leaf that lacks the column.
        let mut pushed: Vec<Vec<Predicate>> = vec![Vec::new(); plans.len()];
        let mut edges = Vec::new();
        for Conjunct { predicate, scope } in conjuncts {
            let provider = |column: &str| {
                schemas
                    .iter()
                    .position(|schema| schema.contains(column))
                    .filter(|leaf| scope.contains(leaf))
            };
            // The leaf providing the (first) column, and the other column's: `None` when a
            // column has no provider.  `flatten` leaves no conjunction among the conjuncts.
            let providers = match &predicate {
                Predicate::Compare { column, .. } => provider(column).map(|leaf| (leaf, None)),
                Predicate::ColumnEq { left, right } => provider(left)
                    .zip(provider(right))
                    .map(|(a, b)| (a, Some(b))),
                Predicate::And(_) => None,
            };
            match (providers, predicate) {
                (Some((a, Some(b))), Predicate::ColumnEq { left, right }) if a != b => {
                    edges.push(Edge {
                        a,
                        a_column: left,
                        b,
                        b_column: right,
                    });
                }
                (Some((leaf, _)), predicate) => pushed[leaf].push(predicate),
                (None, predicate) => pushed[scope.start].push(predicate),
            }
        }

        let mut leaves: Vec<Leaf> = plans
            .into_iter()
            .zip(pushed)
            .map(|(plan, mut conjuncts)| {
                let plan = if conjuncts.is_empty() {
                    plan
                } else {
                    conjuncts.sort();
                    conjuncts.dedup();
                    plan.select(Predicate::conjunction(conjuncts))
                };
                Leaf {
                    rows: estimated_rows(&plan, catalog),
                    fingerprint: fingerprint(&plan),
                    plan: Some(plan),
                }
            })
            .collect();

        // Connected components of the join graph, each labelled by its smallest leaf index.
        let mut component_of: Vec<usize> = (0..leaves.len()).collect();
        loop {
            let mut changed = false;
            for edge in &edges {
                let low = component_of[edge.a].min(component_of[edge.b]);
                changed |= component_of[edge.a] != low || component_of[edge.b] != low;
                component_of[edge.a] = low;
                component_of[edge.b] = low;
            }
            if !changed {
                break;
            }
        }
        let components = (0..leaves.len())
            .filter(|&label| component_of[label] == label)
            .map(|label| {
                let members = (label..component_of.len())
                    .filter(|&leaf| component_of[leaf] == label)
                    .collect();
                join_component(members, &mut leaves, &schemas, &edges)
            })
            .collect();
        Ok(Block {
            components,
            schemas,
        })
    }

    /// The block's output columns in the order the un-optimised plan produces them.
    fn columns(&self) -> Vec<Name> {
        self.schemas
            .iter()
            .flat_map(|schema| schema.attributes().iter().map(|a| Name::clone(&a.name)))
            .collect()
    }

    /// Splits an output column list by the component providing each column (each column once,
    /// in list order); a column no leaf provides is the error binding would report.
    fn columns_by_component(&self, columns: &[Name]) -> EngineResult<Vec<Vec<Name>>> {
        let mut wanted: Vec<Vec<Name>> = vec![Vec::new(); self.components.len()];
        for column in columns {
            let component = self
                .components
                .iter()
                .position(|component| component.columns.contains(column))
                .ok_or_else(|| EngineError::UnknownColumn {
                    column: column.to_string(),
                    schema: self.columns().join(", "),
                })?;
            if !wanted[component].contains(column) {
                wanted[component].push(Name::clone(column));
            }
        }
        Ok(wanted)
    }
}

/// A leaf of a block with its pushed-down selection and the two keys it is ordered by.  Its
/// plan moves into the one component that joins it.
struct Leaf {
    plan: Option<Plan>,
    rows: u64,
    fingerprint: u64,
}

impl Leaf {
    fn take_plan(&mut self) -> Plan {
        self.plan
            .take()
            .expect("a leaf is joined into one component, once")
    }
}

/// Collects the leaves and conjuncts of the `σ* (… × …)` block rooted at `plan`.  Anything that
/// is not a selection, product or join is a leaf, optimised on its own.
fn flatten(
    plan: &Plan,
    catalog: &Catalog,
    leaves: &mut Vec<Plan>,
    conjuncts: &mut Vec<Conjunct>,
) -> EngineResult<()> {
    let first = leaves.len();
    match plan {
        Plan::Select { predicate, input } => {
            flatten(input, catalog, leaves, conjuncts)?;
            conjuncts.extend(predicate.flatten().into_iter().map(|p| Conjunct {
                predicate: normalized(p.clone()),
                scope: first..leaves.len(),
            }));
        }
        Plan::Product { left, right } => {
            flatten(left, catalog, leaves, conjuncts)?;
            flatten(right, catalog, leaves, conjuncts)?;
        }
        Plan::HashJoin { left, right, on } => {
            flatten(left, catalog, leaves, conjuncts)?;
            flatten(right, catalog, leaves, conjuncts)?;
            conjuncts.extend(on.iter().map(|(l, r)| Conjunct {
                predicate: normalized(Predicate::column_eq(Name::clone(l), Name::clone(r))),
                scope: first..leaves.len(),
            }));
        }
        leaf => leaves.push(optimize(leaf, catalog)?),
    }
    Ok(())
}

/// `a = b` and `b = a` are one conjunct: the smaller column name goes left.
fn normalized(predicate: Predicate) -> Predicate {
    match predicate {
        Predicate::ColumnEq { left, right } if right < left => Predicate::ColumnEq {
            left: right,
            right: left,
        },
        other => other,
    }
}

/// Joins the leaves of one connected component along its edges: smallest leaf first, then
/// always the smallest leaf an edge connects to what is already joined.
fn join_component(
    mut members: Vec<usize>,
    leaves: &mut [Leaf],
    schemas: &[Schema],
    edges: &[Edge],
) -> Component {
    members.sort_by_key(|&leaf| (leaves[leaf].rows, leaves[leaf].fingerprint));
    let first = members.remove(0);
    let mut joined = vec![first];
    let mut plan = leaves[first].take_plan();
    let mut rows = leaves[first].rows;
    while !members.is_empty() {
        let position = members
            .iter()
            .position(|&leaf| edges.iter().any(|e| e.joining(leaf, &joined).is_some()))
            .expect("a component is connected");
        let next = members.remove(position);
        let mut on: Vec<(Name, Name)> = edges
            .iter()
            .filter_map(|e| e.joining(next, &joined))
            .map(|(joined, next)| (Name::clone(joined), Name::clone(next)))
            .collect();
        on.sort();
        on.dedup();
        plan = plan.hash_join(leaves[next].take_plan(), on);
        rows = rows.max(leaves[next].rows);
        joined.push(next);
    }
    let columns = joined
        .iter()
        .flat_map(|&leaf| schemas[leaf].attributes())
        .map(|a| Name::clone(&a.name))
        .collect();
    Component {
        plan,
        rows,
        columns,
    }
}

/// A coarse, deterministic row estimate from the catalog's base cardinalities, used only to
/// order leaves and components.
fn estimated_rows(plan: &Plan, catalog: &Catalog) -> u64 {
    match plan {
        Plan::Scan { relation, .. } => catalog.get(relation).map_or(0, |base| base.len() as u64),
        Plan::Values(rel) => rel.len() as u64,
        Plan::Select { predicate, input } => {
            (estimated_rows(input, catalog) / reduction(predicate)).max(1)
        }
        Plan::Project { input, .. } | Plan::Distinct { input } => estimated_rows(input, catalog),
        Plan::Product { left, right } => {
            estimated_rows(left, catalog).saturating_mul(estimated_rows(right, catalog))
        }
        // The common shape is a foreign-key join: output on the order of the larger side.
        Plan::HashJoin { left, right, .. } => {
            estimated_rows(left, catalog).max(estimated_rows(right, catalog))
        }
        Plan::Aggregate { .. } => 1,
    }
}

/// The factor a selection is assumed to divide its input's rows by: 10 per equality, 3 per other
/// comparison.
fn reduction(predicate: &Predicate) -> u64 {
    match predicate {
        Predicate::Compare {
            op: CompareOp::Eq, ..
        }
        | Predicate::ColumnEq { .. } => 10,
        Predicate::Compare { .. } => 3,
        Predicate::And(parts) => parts
            .iter()
            .fold(1, |all, part| all.saturating_mul(reduction(part))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggFunc, CompareOp, Executor};
    use urm_storage::{Attribute, DataType, Relation, Schema, Tuple, Value};

    fn relation(name: &str, attrs: &[&str], rows: usize, distinct: usize) -> Relation {
        Relation::new(
            Schema::new(
                name,
                attrs
                    .iter()
                    .map(|a| Attribute::new(*a, DataType::Int))
                    .collect(),
            ),
            (0..rows)
                .map(|i| {
                    Tuple::new(
                        (0..attrs.len())
                            .map(|c| Value::from(((i + c) % distinct) as i64))
                            .collect(),
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    /// Customer (20 rows) and Orders (30) join on `cid`; Item (40) and Note (5) are reached by
    /// no equality.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.insert(relation("Customer", &["cid", "city"], 20, 20));
        cat.insert(relation("Orders", &["oid", "cid", "total"], 30, 10));
        cat.insert(relation("Item", &["iid", "kind"], 40, 4));
        cat.insert(relation("Note", &["nid"], 5, 5));
        cat
    }

    fn join_query() -> Plan {
        Plan::scan("Customer")
            .product(Plan::scan("Orders"))
            .select(Predicate::column_eq("Customer.cid", "Orders.cid"))
            .select(Predicate::eq("Customer.city", Value::from(3i64)))
            .project(vec!["Orders.total".into()])
    }

    fn rows_of(plan: &Plan, cat: &Catalog) -> Vec<Tuple> {
        let mut rows = Executor::new(cat).run(plan).unwrap().rows().to_vec();
        rows.sort();
        rows
    }

    #[test]
    fn fingerprint_is_deterministic_and_discriminating() {
        assert_eq!(fingerprint(&join_query()), fingerprint(&join_query()));
        assert_ne!(
            fingerprint(&join_query()),
            fingerprint(&Plan::scan("Customer"))
        );
    }

    #[test]
    fn equalities_become_joins_and_selections_reach_their_leaf() {
        let cat = catalog();
        let opt = optimize(&join_query(), &cat).unwrap();
        // The filtered Customer leaf is the smaller one, so it starts the join.
        let expected = Plan::scan("Customer")
            .select(Predicate::eq("Customer.city", Value::from(3i64)))
            .hash_join(
                Plan::scan("Orders"),
                vec![("Customer.cid".into(), "Orders.cid".into())],
            )
            .project(vec!["Orders.total".into()]);
        assert_eq!(opt, expected, "\n{opt}");
        assert_eq!(rows_of(&opt, &cat), rows_of(&join_query(), &cat));
        assert!(!rows_of(&opt, &cat).is_empty());
    }

    #[test]
    fn a_set_root_factors_its_components_before_the_product() {
        let cat = catalog();
        // Item multiplies the output, Note only has to exist.
        let plan = Plan::scan("Note")
            .product(Plan::scan("Item"))
            .product(Plan::scan("Customer"))
            .product(Plan::scan("Orders"))
            .select(Predicate::column_eq("Orders.cid", "Customer.cid"))
            .select(Predicate::compare(
                "Item.iid",
                CompareOp::Lt,
                Value::from(2i64),
            ))
            .project(vec!["Item.kind".into(), "Orders.total".into()])
            .distinct();
        let opt = optimize(&plan, &cat).unwrap();
        let exists = Plan::scan("Note").project(vec![]).distinct();
        let kinds = Plan::scan("Item")
            .select(Predicate::compare(
                "Item.iid",
                CompareOp::Lt,
                Value::from(2i64),
            ))
            .project(vec!["Item.kind".into()])
            .distinct();
        let totals = Plan::scan("Customer")
            .hash_join(
                Plan::scan("Orders"),
                vec![("Customer.cid".into(), "Orders.cid".into())],
            )
            .project(vec!["Orders.total".into()])
            .distinct();
        assert_eq!(opt, exists.product(kinds).product(totals), "\n{opt}");

        let mut exec = Executor::new(&cat);
        let out = exec.run(&opt).unwrap();
        let literal = rows_of(&plan, &cat);
        assert_eq!(out.len(), literal.len(), "no duplicate reaches the root");
        let mut rows = out.rows().to_vec();
        rows.sort();
        assert_eq!(rows, literal);
        // 40 × 5 × 30 joined rows never exist: the widest intermediate is the join itself.
        assert!(exec.stats().tuples_output < 400, "{:?}", exec.stats());

        // An empty existence factor empties the answer.
        let none = Plan::scan("Note")
            .select(Predicate::eq("Note.nid", Value::from(99i64)))
            .product(Plan::scan("Item"))
            .project(vec!["Item.kind".into()])
            .distinct();
        assert!(rows_of(&optimize(&none, &cat).unwrap(), &cat).is_empty());
    }

    #[test]
    fn bag_roots_keep_every_duplicate_and_the_column_order() {
        let cat = catalog();
        let body = Plan::scan("Orders")
            .product(Plan::scan("Note"))
            .product(Plan::scan("Customer"))
            .select(Predicate::column_eq("Customer.cid", "Orders.cid"));
        let opt = optimize(&body, &cat).unwrap();
        // Components are multiplied smallest first, then put back in the original order.
        let Plan::Project { columns, input } = &opt else {
            panic!("expected a reordering projection:\n{opt}");
        };
        assert!(matches!(input.as_ref(), Plan::Product { left, .. }
            if **left == Plan::scan("Note")));
        assert_eq!(&*columns[0], "Orders.oid");
        assert_eq!(rows_of(&opt, &cat), rows_of(&body, &cat));

        for func in [AggFunc::Count, AggFunc::Sum("Orders.total".into())] {
            let plan = body.clone().aggregate(func);
            let opt = optimize(&plan, &cat).unwrap();
            assert!(opt
                .subplans()
                .iter()
                .all(|p| !matches!(p, Plan::Distinct { .. })));
            assert_eq!(rows_of(&opt, &cat), rows_of(&plan, &cat));
        }
    }

    #[test]
    fn factors_are_the_components_the_optimised_plan_multiplies() {
        let cat = catalog();
        let body = Plan::scan("Note")
            .product(Plan::scan("Customer"))
            .product(Plan::scan("Orders"))
            .select(Predicate::column_eq("Orders.cid", "Customer.cid"));
        let factors = factors(&body, &cat).unwrap();
        assert_eq!(factors.len(), 2, "Note, and Customer joined with Orders");
        let optimised = optimize(&body.aggregate(AggFunc::Count), &cat).unwrap();
        for factor in &factors {
            assert!(optimised.subplans().contains(&factor), "{factor}");
        }
    }

    #[test]
    fn the_normal_form_ignores_scan_and_conjunct_order() {
        let cat = catalog();
        let conjuncts = [
            Predicate::column_eq("Orders.cid", "Customer.cid"),
            Predicate::eq("Customer.city", Value::from(3i64)),
            Predicate::compare("Orders.total", CompareOp::Ge, Value::from(0i64)),
        ];
        let build = |scans: [&str; 3], order: [usize; 3], flip: bool| {
            let mut plan = scans
                .into_iter()
                .map(Plan::scan)
                .reduce(Plan::product)
                .unwrap();
            for i in order {
                plan = plan.select(match (&conjuncts[i], flip) {
                    (Predicate::ColumnEq { left, right }, true) => {
                        Predicate::column_eq(right.clone(), left.clone())
                    }
                    (conjunct, _) => conjunct.clone(),
                });
            }
            plan.project(vec!["Orders.oid".into(), "Item.kind".into()])
                .distinct()
        };
        let reference = optimize(
            &build(["Customer", "Orders", "Item"], [0, 1, 2], false),
            &cat,
        );
        let reference = reference.unwrap();
        for (scans, order, flip) in [
            (["Item", "Orders", "Customer"], [2, 1, 0], true),
            (["Orders", "Item", "Customer"], [1, 2, 0], false),
        ] {
            let permuted = optimize(&build(scans, order, flip), &cat).unwrap();
            assert_eq!(permuted, reference);
            assert_eq!(fingerprint(&permuted), fingerprint(&reference));
        }
    }

    #[test]
    fn unsatisfiable_and_out_of_scope_conjuncts_stay_unsatisfiable() {
        let cat = catalog();
        let ghost = Plan::scan("Customer")
            .product(Plan::scan("Note"))
            .select(Predicate::column_eq("Customer.cid", "Ghost.cid"));
        assert!(rows_of(&optimize(&ghost, &cat).unwrap(), &cat).is_empty());
        // The selection sits below the product: `Note.nid` is not in its scope.
        let scoped = Plan::scan("Customer")
            .select(Predicate::compare(
                "Note.nid",
                CompareOp::Ge,
                Value::from(0i64),
            ))
            .product(Plan::scan("Note"));
        assert!(rows_of(&scoped, &cat).is_empty());
        assert!(rows_of(&optimize(&scoped, &cat).unwrap(), &cat).is_empty());
    }

    #[test]
    fn nested_blocks_are_optimised_as_leaves() {
        let cat = catalog();
        let inner = Plan::scan("Customer")
            .product(Plan::scan("Note"))
            .project(vec!["Customer.cid".into()])
            .distinct();
        let plan = inner
            .product(Plan::scan("Orders"))
            .select(Predicate::column_eq("Customer.cid", "Orders.cid"))
            .aggregate(AggFunc::Count);
        let opt = optimize(&plan, &cat).unwrap();
        assert!(
            opt.to_string().contains("Project \n"),
            "the inner block's Note is an existence factor:\n{opt}"
        );
        assert_eq!(rows_of(&opt, &cat), rows_of(&plan, &cat));
    }

    #[test]
    fn unknown_output_columns_are_reported() {
        let cat = catalog();
        let plan = Plan::scan("Customer")
            .project(vec!["Customer.ghost".into()])
            .distinct();
        assert!(matches!(
            optimize(&plan, &cat),
            Err(EngineError::UnknownColumn { .. })
        ));
        assert_eq!(
            optimize(&Plan::scan("Customer"), &cat).unwrap(),
            Plan::scan("Customer")
        );
    }
}
