//! The bound physical-plan layer: logical [`Plan`]s compiled against a catalog.
//!
//! The logical [`Plan`] tree names columns by shared [`Name`] (`alias.attr`) and names base
//! relations by catalog key.  Executing it directly means re-resolving every column name per
//! operator — and, before this layer existed, per *row* — and deep-copying every `Values` leaf.
//! Binding runs that resolution exactly once:
//!
//! ```text
//!   logical Plan  ──bind()──►  PhysicalPlan  ──execute──►  batches (Arc<Relation>)
//!   columns by name            columns by index            shared, never cloned
//!   relations by name          base storage captured       one columnar view per operator
//! ```
//!
//! * every column reference becomes a positional index into the input batch;
//! * every predicate is compiled to a [`BoundPredicate`] evaluated without name lookups;
//! * every scan captures the base relation's shared storage (the columns the catalog
//!   converted it to), so executing a scan or a `Values` leaf hands out existing data, not a
//!   copy;
//! * every node carries its output [`Schema`], computed once from its inputs' schemas and
//!   sharing their attribute names: binding allocates per node, never per column name.
//!
//! The executor then evaluates physical operators batch-at-a-time: each operator consumes its
//! children's output batches and produces one output batch — index vectors over the inputs'
//! base columns, never tuples.  Binding errors (unknown relation, unknown projection column,
//! unresolvable join key) surface before any operator runs.
//!
//! [`PhysicalPlan::fingerprint`] identifies bound sub-plans for the shared-operator DAG: two
//! queries that reformulate onto the same source sub-plan over the same base relations share one
//! fingerprint, which is what makes cross-query sub-plan reuse zero-copy end-to-end.

use crate::plan::{aggregate_schema, position, positions};
use crate::{AggFunc, CompareOp, EngineError, EngineResult, Plan, Predicate};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use urm_storage::{Catalog, Name, Relation, Schema, Value};

/// A predicate with every column reference resolved to a positional index.
///
/// Compiled once at bind time; evaluated column-at-a-time, with no name lookups, by
/// [`vectorized::filter`](crate::vectorized::filter).  A reference to a column the input schema
/// does not provide compiles to [`BoundPredicate::Never`]: a reformulated predicate over an
/// attribute a partial mapping did not cover can never be satisfied, matching the by-name
/// evaluation semantics of [`Predicate::eval`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BoundPredicate {
    /// `input[pos] op constant`.
    Compare {
        /// Position of the column in the input batch.
        pos: usize,
        /// Comparison operator.
        op: CompareOp,
        /// Constant to compare against.
        value: Value,
    },
    /// `input[left] = input[right]`.
    ColumnEq {
        /// Position of the left column.
        left: usize,
        /// Position of the right column.
        right: usize,
    },
    /// Conjunction of bound predicates (empty conjunction is `true`).
    And(Vec<BoundPredicate>),
    /// A predicate that referenced a missing column: satisfied by no row.
    Never,
}

/// An aggregate with its input column resolved to a position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BoundAggregate {
    /// `COUNT(*)`.
    Count,
    /// `SUM(input[pos])`; the original column name is retained for error messages.
    Sum {
        /// Position of the summed column.
        pos: usize,
        /// Qualified name of the summed column (diagnostics only).
        column: Name,
    },
}

/// A bound, executable plan: columns positional, predicates compiled, schemas precomputed, base
/// relations captured.  Built by [`bind`]; evaluated by
/// [`Executor`](crate::Executor) batch-at-a-time.
///
/// Children are `Arc`-shared: handing a bound subtree to the shared-operator DAG or the
/// per-epoch DAG is a pointer bump, never a deep clone — the same zero-copy discipline
/// [`Relation`] rows follow.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Scan of a base relation: its captured storage under the alias-qualified schema, built
    /// once at bind time so execution is a pure `Arc` clone.
    Scan {
        /// Catalog relation name (fingerprinting / display).
        relation: Name,
        /// Scan alias (fingerprinting / display).
        alias: Name,
        /// The base relation under the qualified schema, sharing the catalog relation's
        /// storage.
        view: Arc<Relation>,
    },
    /// An already-materialised relation, handed out as a shared view.
    Values {
        /// The shared relation.
        rel: Arc<Relation>,
    },
    /// Filter by a compiled predicate.
    Select {
        /// Compiled predicate.
        predicate: BoundPredicate,
        /// Input operator (shared).
        input: Arc<PhysicalPlan>,
        /// Output schema (same attributes as the input).
        schema: Schema,
    },
    /// Keep the columns at `positions`, in that order (none: the row count alone).
    Project {
        /// Input positions of the output columns.
        positions: Vec<usize>,
        /// Input operator (shared).
        input: Arc<PhysicalPlan>,
        /// Output schema.
        schema: Schema,
    },
    /// Cartesian product.
    Product {
        /// Left input (shared).
        left: Arc<PhysicalPlan>,
        /// Right input (shared).
        right: Arc<PhysicalPlan>,
        /// Output schema (left ++ right).
        schema: Schema,
    },
    /// Hash equi-join on positional key pairs (`left_keys[i] = right_keys[i]`).
    HashJoin {
        /// Left input (shared).
        left: Arc<PhysicalPlan>,
        /// Right input (shared).
        right: Arc<PhysicalPlan>,
        /// Key positions in the left batch.
        left_keys: Vec<usize>,
        /// Key positions in the right batch.
        right_keys: Vec<usize>,
        /// Output schema (left ++ right).
        schema: Schema,
    },
    /// Aggregation producing a single-row batch.
    Aggregate {
        /// Bound aggregate function.
        func: BoundAggregate,
        /// Input operator (shared).
        input: Arc<PhysicalPlan>,
        /// Output schema (one attribute).
        schema: Schema,
    },
    /// Duplicate elimination over every input column; the output schema is the input's.
    Distinct {
        /// Input operator (shared).
        input: Arc<PhysicalPlan>,
    },
}

impl PhysicalPlan {
    /// The operator's output schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        match self {
            PhysicalPlan::Select { schema, .. }
            | PhysicalPlan::Project { schema, .. }
            | PhysicalPlan::Product { schema, .. }
            | PhysicalPlan::HashJoin { schema, .. }
            | PhysicalPlan::Aggregate { schema, .. } => schema,
            PhysicalPlan::Scan { view, .. } => view.schema(),
            PhysicalPlan::Values { rel } => rel.schema(),
            PhysicalPlan::Distinct { input } => input.schema(),
        }
    }

    /// The operator's kind, as the `op` label of its `node` trace span.
    #[must_use]
    pub fn op_name(&self) -> &'static str {
        match self {
            PhysicalPlan::Scan { .. } => "scan",
            PhysicalPlan::Values { .. } => "values",
            PhysicalPlan::Select { .. } => "select",
            PhysicalPlan::Project { .. } => "project",
            PhysicalPlan::Product { .. } => "product",
            PhysicalPlan::HashJoin { .. } => "join",
            PhysicalPlan::Aggregate { .. } => "aggregate",
            PhysicalPlan::Distinct { .. } => "distinct",
        }
    }

    /// Direct children of this node, in evaluation order (allocation-free).
    pub fn children(&self) -> impl Iterator<Item = &PhysicalPlan> {
        self.children_shared().map(Arc::as_ref)
    }

    /// Direct children as their shared handles, in evaluation order.
    ///
    /// This is what the shared-operator DAG consumes: storing a child is `Arc::clone`, so a
    /// DAG node's input *is* the bound plan's child (pointer-identical), never a copy.
    pub fn children_shared(&self) -> impl Iterator<Item = &Arc<PhysicalPlan>> {
        let (a, b): (Option<&Arc<PhysicalPlan>>, Option<&Arc<PhysicalPlan>>) = match self {
            PhysicalPlan::Scan { .. } | PhysicalPlan::Values { .. } => (None, None),
            PhysicalPlan::Select { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Distinct { input } => (Some(input), None),
            PhysicalPlan::Product { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. } => (Some(left), Some(right)),
        };
        a.into_iter().chain(b)
    }

    /// The number of rows this operator is estimated to produce, given its children's
    /// estimates — from the relations captured at bind time (leaves are exact; operators use
    /// coarse selectivity rules).  This is the cost signal the parallel DAG scheduler orders
    /// its ready queue by; the DAG supplies the child estimates so each node's estimate is
    /// computed exactly once even when subtrees are shared.
    #[must_use]
    pub fn estimate_from(&self, child_rows: &[u64]) -> u64 {
        match self {
            PhysicalPlan::Scan { view, .. } => view.len() as u64,
            PhysicalPlan::Values { rel } => rel.len() as u64,
            // Equality-style filters are selective; keep a floor of 1 so chains of selections
            // never decay to "free".
            PhysicalPlan::Select { .. } => (child_rows[0] / 2).max(1),
            PhysicalPlan::Project { .. } | PhysicalPlan::Distinct { .. } => child_rows[0],
            PhysicalPlan::Product { .. } => child_rows[0].saturating_mul(child_rows[1]).max(1),
            // The common shape is a foreign-key join: output on the order of the larger side.
            PhysicalPlan::HashJoin { .. } => child_rows[0].max(child_rows[1]).max(1),
            PhysicalPlan::Aggregate { .. } => 1,
        }
    }

    /// A structural fingerprint of the *bound* plan, the sharing key of the
    /// [`OperatorDag`](crate::OperatorDag) and of the per-epoch result cache.
    ///
    /// Leaves hash by identity, not content: a scan hashes its relation name, alias and the
    /// identity of the captured storage ([`Relation::storage_id`]), and a `Values` leaf
    /// hashes its schema plus the identity of its storage — the row buffer, or the view of a
    /// late-materialized relation, whose rows fingerprinting therefore never builds.
    /// Identity hashing makes fingerprints O(plan size) instead of O(data size) and ties
    /// every fingerprint to a concrete catalog snapshot — two epochs' scans of a same-named
    /// relation no longer collide.  The trade-off is that a cache
    /// keyed on these fingerprints must not outlive the relations its plans were bound against
    /// (the result cache is dropped with its epoch, which guarantees exactly that).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.hash_structure(&mut hasher);
        hasher.finish()
    }

    fn hash_structure(&self, h: &mut DefaultHasher) {
        match self {
            PhysicalPlan::Scan {
                relation,
                alias,
                view,
            } => {
                0u8.hash(h);
                relation.hash(h);
                alias.hash(h);
                view.storage_id().hash(h);
            }
            PhysicalPlan::Values { rel } => {
                1u8.hash(h);
                rel.schema().hash(h);
                rel.storage_id().hash(h);
            }
            PhysicalPlan::Select {
                predicate, input, ..
            } => {
                2u8.hash(h);
                predicate.hash(h);
                input.hash_structure(h);
            }
            PhysicalPlan::Project {
                positions, input, ..
            } => {
                3u8.hash(h);
                positions.hash(h);
                input.hash_structure(h);
            }
            PhysicalPlan::Product { left, right, .. } => {
                4u8.hash(h);
                left.hash_structure(h);
                right.hash_structure(h);
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                ..
            } => {
                5u8.hash(h);
                left_keys.hash(h);
                right_keys.hash(h);
                left.hash_structure(h);
                right.hash_structure(h);
            }
            PhysicalPlan::Aggregate { func, input, .. } => {
                6u8.hash(h);
                func.hash(h);
                input.hash_structure(h);
            }
            PhysicalPlan::Distinct { input } => {
                7u8.hash(h);
                input.hash_structure(h);
            }
        }
    }

    /// Number of operator nodes (leaves excluded), mirroring
    /// [`Plan::operator_count`](crate::Plan::operator_count).
    #[must_use]
    pub fn operator_count(&self) -> usize {
        let own = match self {
            PhysicalPlan::Scan { .. } | PhysicalPlan::Values { .. } => 0,
            _ => 1,
        };
        own + self.children().map(|c| c.operator_count()).sum::<usize>()
    }
}

/// Compiles a predicate against the schema of its input batch.
fn bind_predicate(predicate: &Predicate, schema: &Schema) -> BoundPredicate {
    match predicate {
        Predicate::Compare { column, op, value } => match schema.position(column) {
            Some(pos) => BoundPredicate::Compare {
                pos,
                op: *op,
                value: value.clone(),
            },
            None => BoundPredicate::Never,
        },
        Predicate::ColumnEq { left, right } => {
            match (schema.position(left), schema.position(right)) {
                (Some(left), Some(right)) => BoundPredicate::ColumnEq { left, right },
                _ => BoundPredicate::Never,
            }
        }
        Predicate::And(parts) => {
            let bound: Vec<BoundPredicate> =
                parts.iter().map(|p| bind_predicate(p, schema)).collect();
            if bound.iter().any(|p| matches!(p, BoundPredicate::Never)) {
                BoundPredicate::Never
            } else {
                BoundPredicate::And(bound)
            }
        }
    }
}

/// Binds a logical plan against a catalog: resolves relations to their storage, columns to
/// positions, predicates to [`BoundPredicate`]s, and precomputes every output schema.
///
/// Every node of the returned tree is behind an `Arc` (see [`PhysicalPlan`]), so downstream
/// layers — the shared-operator DAG, the per-epoch DAG — take over
/// subtrees by pointer, never by deep clone.
///
/// Errors that the row-at-a-time evaluator reported lazily (unknown relation, unknown
/// projection column, unresolvable join key) are reported here, before any operator executes.
/// Missing *predicate* columns are not errors — they compile to [`BoundPredicate::Never`],
/// preserving reformulation semantics.
pub fn bind(plan: &Plan, catalog: &Catalog) -> EngineResult<Arc<PhysicalPlan>> {
    match plan {
        Plan::Scan { relation, alias } => {
            let base = catalog.require(relation)?;
            // The base's own storage under the qualified schema, built once; every execution
            // of this scan is then a pure `Arc` clone of it.
            let view = Arc::new(base.with_schema(catalog.scan_schema(relation, alias)?));
            Ok(Arc::new(PhysicalPlan::Scan {
                relation: relation.clone(),
                alias: alias.clone(),
                view,
            }))
        }
        Plan::Values(rel) => Ok(Arc::new(PhysicalPlan::Values {
            rel: Arc::clone(rel),
        })),
        Plan::Select { predicate, input } => {
            let input = bind(input, catalog)?;
            let predicate = bind_predicate(predicate, input.schema());
            Ok(Arc::new(PhysicalPlan::Select {
                predicate,
                schema: input.schema().clone(),
                input,
            }))
        }
        Plan::Project { columns, input } => {
            let input = bind(input, catalog)?;
            let positions = positions(input.schema(), columns)?;
            Ok(Arc::new(PhysicalPlan::Project {
                schema: input.schema().projected(&positions),
                positions,
                input,
            }))
        }
        Plan::Product { left, right } => {
            let left = bind(left, catalog)?;
            let right = bind(right, catalog)?;
            Ok(product_node(left, right))
        }
        Plan::HashJoin { left, right, on } => {
            let left = bind(left, catalog)?;
            let right = bind(right, catalog)?;
            if on.is_empty() {
                // Mirrors the by-name evaluator: a join with no conditions *is* the product.
                return Ok(product_node(left, right));
            }
            let ls = left.schema();
            let rs = right.schema();
            let mut left_keys = Vec::with_capacity(on.len());
            let mut right_keys = Vec::with_capacity(on.len());
            for (l, r) in on {
                // Join columns may arrive in either order; resolve each against the side that
                // has it.
                let (lpos, rpos) = ls
                    .position(l)
                    .zip(rs.position(r))
                    .or_else(|| ls.position(r).zip(rs.position(l)))
                    .ok_or_else(|| EngineError::UnknownColumn {
                        column: format!("{l} / {r}"),
                        schema: format!("{ls} ⋈ {rs}"),
                    })?;
                left_keys.push(lpos);
                right_keys.push(rpos);
            }
            Ok(Arc::new(PhysicalPlan::HashJoin {
                schema: ls.product(rs),
                left,
                right,
                left_keys,
                right_keys,
            }))
        }
        Plan::Distinct { input } => Ok(Arc::new(PhysicalPlan::Distinct {
            input: bind(input, catalog)?,
        })),
        Plan::Aggregate { func, input } => {
            let input = bind(input, catalog)?;
            let schema = aggregate_schema(func, input.schema())?;
            let func = match func {
                AggFunc::Count => BoundAggregate::Count,
                AggFunc::Sum(column) => BoundAggregate::Sum {
                    pos: position(input.schema(), column)?,
                    column: Name::clone(column),
                },
            };
            Ok(Arc::new(PhysicalPlan::Aggregate {
                func,
                schema,
                input,
            }))
        }
    }
}

/// Builds a product node over two bound inputs (shared by `Product` and key-less `HashJoin`).
fn product_node(left: Arc<PhysicalPlan>, right: Arc<PhysicalPlan>) -> Arc<PhysicalPlan> {
    let schema = left.schema().product(right.schema());
    Arc::new(PhysicalPlan::Product {
        left,
        right,
        schema,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use urm_storage::{Attribute, DataType, Tuple};

    fn catalog() -> Catalog {
        let schema = Schema::new(
            "R",
            vec![
                Attribute::new("a", DataType::Int),
                Attribute::new("b", DataType::Text),
            ],
        );
        let rows = (0..4)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(i as i64),
                    Value::from(if i % 2 == 0 { "x" } else { "y" }),
                ])
            })
            .collect();
        let mut cat = Catalog::new();
        cat.insert(Relation::new(schema, rows).unwrap());
        cat
    }

    #[test]
    fn bind_resolves_columns_to_positions() {
        let cat = catalog();
        let plan = Plan::scan("R")
            .select(Predicate::eq("R.b", Value::from("x")))
            .project(vec!["R.a".into()]);
        let phys = bind(&plan, &cat).unwrap();
        let PhysicalPlan::Project {
            positions, input, ..
        } = phys.as_ref()
        else {
            panic!("expected projection on top");
        };
        assert_eq!(positions, &vec![0]);
        let PhysicalPlan::Select { predicate, .. } = input.as_ref() else {
            panic!("expected selection below");
        };
        assert_eq!(
            predicate,
            &BoundPredicate::Compare {
                pos: 1,
                op: CompareOp::Eq,
                value: Value::from("x"),
            }
        );
    }

    #[test]
    fn bind_captures_the_base_row_buffer() {
        let cat = catalog();
        let phys = bind(&Plan::scan("R"), &cat).unwrap();
        let PhysicalPlan::Scan { view, .. } = phys.as_ref() else {
            panic!("expected a scan");
        };
        assert_eq!(view.storage_id(), cat.get("R").unwrap().storage_id());
    }

    #[test]
    fn missing_predicate_column_binds_to_never() {
        let cat = catalog();
        let plan = Plan::scan("R").select(Predicate::eq("R.ghost", Value::from(1i64)));
        let phys = bind(&plan, &cat).unwrap();
        let PhysicalPlan::Select { predicate, .. } = phys.as_ref() else {
            panic!("expected selection");
        };
        assert_eq!(predicate, &BoundPredicate::Never);

        let conj = Plan::scan("R").select(Predicate::And(vec![
            Predicate::eq("R.a", Value::from(1i64)),
            Predicate::column_eq("R.a", "R.ghost"),
        ]));
        let phys = bind(&conj, &cat).unwrap();
        let PhysicalPlan::Select { predicate, .. } = phys.as_ref() else {
            panic!("expected selection");
        };
        assert_eq!(predicate, &BoundPredicate::Never);
    }

    #[test]
    fn missing_projection_column_is_a_bind_error() {
        let cat = catalog();
        let plan = Plan::scan("R").project(vec!["R.ghost".into()]);
        assert!(matches!(
            bind(&plan, &cat),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn keyless_join_binds_to_a_product() {
        let cat = catalog();
        let plan = Plan::scan("R").hash_join(Plan::scan_as("R", "S"), vec![]);
        let phys = bind(&plan, &cat).unwrap();
        assert!(matches!(phys.as_ref(), PhysicalPlan::Product { .. }));
        assert_eq!(
            phys.schema().name(),
            "R",
            "a product takes its left input's name"
        );
    }

    #[test]
    fn join_keys_resolve_in_either_order() {
        let cat = catalog();
        let forward =
            Plan::scan("R").hash_join(Plan::scan_as("R", "S"), vec![("R.a".into(), "S.a".into())]);
        let swapped =
            Plan::scan("R").hash_join(Plan::scan_as("R", "S"), vec![("S.a".into(), "R.a".into())]);
        for plan in [forward, swapped] {
            let phys = bind(&plan, &cat).unwrap();
            let PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                ..
            } = phys.as_ref()
            else {
                panic!("expected a hash join");
            };
            assert_eq!(left_keys, &vec![0]);
            assert_eq!(right_keys, &vec![0]);
        }
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let cat = catalog();
        let make = || {
            bind(
                &Plan::scan("R")
                    .select(Predicate::eq("R.b", Value::from("x")))
                    .project(vec!["R.a".into()]),
                &cat,
            )
            .unwrap()
        };
        assert_eq!(make().fingerprint(), make().fingerprint());
        let scan = bind(&Plan::scan("R"), &cat).unwrap();
        assert_ne!(make().fingerprint(), scan.fingerprint());
        // An aliased scan of the same buffer is a different bound plan.
        let aliased = bind(&Plan::scan_as("R", "S"), &cat).unwrap();
        assert_ne!(scan.fingerprint(), aliased.fingerprint());
    }

    #[test]
    fn values_fingerprints_are_identity_based() {
        let rel = Relation::new(
            Schema::new("V", vec![Attribute::new("v", DataType::Int)]),
            vec![Tuple::new(vec![Value::from(1i64)])],
        )
        .unwrap();
        let shared = Arc::new(rel.clone());
        let cat = Catalog::new();
        let a = bind(&Plan::values_shared(Arc::clone(&shared)), &cat).unwrap();
        let b = bind(&Plan::values_shared(Arc::clone(&shared)), &cat).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // An equal-content relation in a *different* buffer is a different bound leaf.
        let other = bind(
            &Plan::values(rel.into_rows().into_iter().fold(
                Relation::empty(Schema::new("V", vec![Attribute::new("v", DataType::Int)])),
                |mut r, t| {
                    r.push_unchecked(t);
                    r
                },
            )),
            &cat,
        )
        .unwrap();
        assert_ne!(a.fingerprint(), other.fingerprint());
    }

    #[test]
    fn operator_count_matches_logical() {
        let cat = catalog();
        let plan = Plan::scan("R")
            .select(Predicate::eq("R.b", Value::from("x")))
            .product(Plan::scan_as("R", "S"))
            .project(vec!["R.a".into()]);
        let phys = bind(&plan, &cat).unwrap();
        assert_eq!(phys.operator_count(), plan.operator_count());
    }
}
