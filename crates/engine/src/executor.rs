//! The plan executor: binds logical plans and evaluates physical operators batch-at-a-time.
//!
//! [`Executor::run`] is a thin wrapper over the two-phase pipeline — [`bind`] the logical plan
//! into a [`PhysicalPlan`] (columns positional, predicates compiled, base relations
//! captured), then evaluate the physical operators bottom-up.  Every operator consumes its
//! children's output batches and produces one output batch behind an `Arc`, so:
//!
//! * scans and `Values` leaves hand out the storage they were bound to (zero copies): a scan,
//!   the base relation's columns the catalog converted when it was inserted;
//! * cached sub-plan results flow into downstream operators without re-materialisation;
//! * every operator reads its inputs as [`ColumnView`]s, runs as a [`vectorized`] kernel and
//!   emits a *late-materialized* relation — index vectors over the shared base columns — so
//!   no operator builds a tuple; rows are built once, by whoever reads a result's rows (a
//!   plan or DAG root, a result admitted to a byte-budgeted pool);
//! * an input that arrives as rows — an ad-hoc `Values` buffer, an aggregate's one-row
//!   output, a pin reloaded from a spill segment — is converted to columns where it is
//!   consumed.
//!
//! Two things matter for fidelity to the paper:
//!
//! * every executed operator is counted (the paper's Table IV metric), with accounting
//!   identical to the retained row-at-a-time [`reference`](crate::reference) evaluator, and
//! * equi-joins use a hash table so that even strategies that evaluate products early (the
//!   Random strategy of Section VI-A) remain feasible on the benchmark instances.

use crate::physical::{bind, BoundAggregate, PhysicalPlan};
use crate::{vectorized, EngineError, EngineResult, ExecStats, Plan};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;
use urm_obs::Tracer;
use urm_storage::{
    BufferPool, Catalog, ColumnView, ColumnarRelation, Relation, Schema, Tuple, Value,
};

/// Executes [`Plan`]s against a [`Catalog`], accumulating [`ExecStats`].
pub struct Executor<'a> {
    catalog: &'a Catalog,
    stats: ExecStats,
    /// The spill pool of a byte-budgeted execution: its budget is what a hash join's build
    /// side is sized against (see [`Executor::with_pool`]).  `None` (the default) joins
    /// everything in one pass.
    pool: Option<BufferPool>,
    /// The trace-span recorder of the current batch (disabled by default: spans are free).
    /// The DAG scheduler reads it in `run_node` for per-node spans, and a partitioned join
    /// opens a `grace_join` span around its passes.
    tracer: Tracer,
}

impl<'a> Executor<'a> {
    /// Creates an executor over the given source instance.
    #[must_use]
    pub fn new(catalog: &'a Catalog) -> Self {
        Executor {
            catalog,
            stats: ExecStats::new(),
            pool: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Creates an executor whose hash joins respect `pool`'s byte budget: a build side bigger
    /// than half the budget is joined one hash partition at a time
    /// ([`vectorized::grace_hash_join`]), so only one partition's hash table is alive at once.
    /// Results are byte-identical to the one-pass join, row order included.  The pool itself
    /// is only handed on ([`Executor::pool`]) to whoever admits results to it.
    #[must_use]
    pub fn with_pool(catalog: &'a Catalog, pool: BufferPool) -> Self {
        Executor {
            catalog,
            stats: ExecStats::new(),
            pool: Some(pool),
            tracer: Tracer::disabled(),
        }
    }

    /// Builder-style tracer attachment (see [`Executor::set_tracer`]).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Points this executor's spans (per-DAG-node execution, grace joins) at `tracer`.
    /// Disabled tracers (the default) make every span a no-op.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The executor's tracer (disabled unless a traced batch attached one).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The spill pool, when this executor runs under a memory budget.
    #[must_use]
    pub fn pool(&self) -> Option<&BufferPool> {
        self.pool.as_ref()
    }

    /// The catalog this executor runs against.
    #[must_use]
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// Binds a logical plan against this executor's catalog (see [`bind`]).
    ///
    /// The returned plan is a shared handle: merging it (or any subtree of it) into a DAG or a
    /// cache is a pointer bump.
    pub fn bind(&self, plan: &Plan) -> EngineResult<Arc<PhysicalPlan>> {
        bind(plan, self.catalog)
    }

    /// Runs a logical plan to completion — [`bind`](Executor::bind) +
    /// [`execute`](Executor::execute) — and counts a completed source query.  The result may
    /// be late-materialized (see [`Relation::view`]): its rows are built if and when they are
    /// read.
    pub fn run(&mut self, plan: &Plan) -> EngineResult<Relation> {
        let start = Instant::now();
        let result = self
            .bind(plan)
            .and_then(|physical| self.eval_tree(&physical));
        self.stats.exec_time += start.elapsed();
        if result.is_ok() {
            self.stats.record_source_query();
        }
        result.map(unshare)
    }

    /// Evaluates an already-bound physical plan (does not count a completed source query).
    pub fn execute(&mut self, plan: &PhysicalPlan) -> EngineResult<Arc<Relation>> {
        let start = Instant::now();
        let result = self.eval_tree(plan);
        self.stats.exec_time += start.elapsed();
        result
    }

    /// Evaluates a *single* physical operator over already-materialised child results, in the
    /// order [`PhysicalPlan::children`] lists them.
    ///
    /// This is the entry point of the DAG runtime: it resolves each child through its result
    /// cache and hands the shared batches here, so a cache hit flows into its parent operator
    /// without any copy.  `children` must match the node's child count.  The result may be
    /// late-materialized (see [`Relation::view`]): its rows are built if and when read.
    pub fn execute_node(
        &mut self,
        node: &PhysicalPlan,
        children: &[Arc<Relation>],
    ) -> EngineResult<Arc<Relation>> {
        let start = Instant::now();
        let result = self.eval_node(node, children);
        self.stats.exec_time += start.elapsed();
        result
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Mutable access to the statistics, for callers that drive execution operator by operator
    /// (the DAG runtime) yet still want completed source queries accounted for.
    pub fn stats_mut(&mut self) -> &mut ExecStats {
        &mut self.stats
    }

    /// Consumes the executor, returning its statistics.
    #[must_use]
    pub fn into_stats(self) -> ExecStats {
        self.stats
    }

    /// Bottom-up evaluation of a physical tree.
    fn eval_tree(&mut self, plan: &PhysicalPlan) -> EngineResult<Arc<Relation>> {
        let mut children = Vec::with_capacity(2);
        for child in plan.children() {
            children.push(self.eval_tree(child)?);
        }
        self.eval_node(plan, &children)
    }

    /// The columnar form of an operator input: the view of a base relation or a
    /// late-materialized intermediate, else — for a row relation (an ad-hoc `Values` buffer,
    /// an aggregate's output, a pin reloaded from a spill segment) — a conversion made here,
    /// for this consumer.
    fn input_view<'r>(&self, rel: &'r Relation) -> Cow<'r, ColumnView> {
        match rel.view() {
            Some(view) => Cow::Borrowed(view),
            None => Cow::Owned(ColumnView::from_base(Arc::new(
                ColumnarRelation::from_relation(rel),
            ))),
        }
    }

    /// Accounts for and wraps the output of an operator that read `read` rows.
    fn emit(&mut self, schema: &Schema, read: usize, out: ColumnView) -> Arc<Relation> {
        self.stats.record_operator(read as u64, out.len() as u64);
        self.stats.columnar_rows += out.len() as u64;
        Arc::new(Relation::from_view(schema.clone(), out))
    }

    /// Evaluates one physical operator over its children's batches.
    fn eval_node(
        &mut self,
        plan: &PhysicalPlan,
        children: &[Arc<Relation>],
    ) -> EngineResult<Arc<Relation>> {
        match plan {
            PhysicalPlan::Scan { view, .. } => {
                self.stats.record_scan(view.len() as u64);
                self.stats.rows_shared += view.len() as u64;
                Ok(Arc::clone(view))
            }
            PhysicalPlan::Values { rel } => {
                self.stats.rows_shared += rel.len() as u64;
                Ok(Arc::clone(rel))
            }
            PhysicalPlan::Select {
                predicate, schema, ..
            } => {
                let input = child(children, 0);
                let out = vectorized::filter(&self.input_view(input), predicate);
                Ok(self.emit(schema, input.len(), out))
            }
            PhysicalPlan::Project {
                positions, schema, ..
            } => {
                let input = child(children, 0);
                let out = self.input_view(input).project(positions);
                Ok(self.emit(schema, input.len(), out))
            }
            PhysicalPlan::Product { schema, .. } => {
                let (l, r) = (child(children, 0), child(children, 1));
                let out = vectorized::product(&self.input_view(l), &self.input_view(r));
                Ok(self.emit(schema, l.len() + r.len(), out))
            }
            PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                schema,
                ..
            } => {
                let (l, r) = (child(children, 0), child(children, 1));
                let (lv, rv) = (self.input_view(l), self.input_view(r));
                let out = match self.grace_partition_count(r) {
                    Some(partitions) => {
                        let mut span = self.tracer.span("grace_join");
                        span.tag("partitions", partitions as u64);
                        span.tag("build_rows", r.len() as u64);
                        span.tag("probe_rows", l.len() as u64);
                        self.stats.grace_partitions += partitions as u64;
                        vectorized::grace_hash_join(&lv, &rv, left_keys, right_keys, partitions)
                    }
                    None => vectorized::hash_join(&lv, &rv, left_keys, right_keys),
                };
                Ok(self.emit(schema, l.len() + r.len(), out))
            }
            PhysicalPlan::Distinct { .. } => {
                let input = child(children, 0);
                let view = self.input_view(input);
                let every_column: Vec<usize> = (0..view.arity()).collect();
                let kept = view.distinct_rows(&every_column);
                let out = if kept.len() == view.len() {
                    view.into_owned()
                } else {
                    view.select_rows(kept)
                };
                Ok(self.emit(plan.schema(), input.len(), out))
            }
            PhysicalPlan::Aggregate { func, schema, .. } => {
                let input = child(children, 0);
                let value = match func {
                    BoundAggregate::Count => Value::from(input.len() as i64),
                    BoundAggregate::Sum { pos, column } => {
                        let sum = vectorized::sum(&self.input_view(input), *pos);
                        Value::from(sum.ok_or_else(|| EngineError::InvalidAggregate {
                            func: "SUM",
                            column: column.to_string(),
                        })?)
                    }
                };
                self.stats.record_operator(input.len() as u64, 1);
                self.stats.columnar_rows += 1;
                Ok(Arc::new(Relation::from_validated(
                    schema.clone(),
                    vec![Tuple::new(vec![value])],
                )))
            }
        }
    }

    /// Decides whether a hash join is partitioned: only under a budgeted pool, and only when
    /// the build (right) side exceeds half the budget — the one-pass join needs the build
    /// side *and* its whole hash table resident at once.  Returns the partition fan-out,
    /// sized so each build partition targets a quarter of the budget.
    fn grace_partition_count(&self, build: &Relation) -> Option<usize> {
        let budget = self.pool.as_ref()?.budget()?;
        let build_bytes = build.estimated_bytes();
        if build_bytes <= budget / 2 {
            return None;
        }
        let target = (budget / 4).max(1);
        Some(build_bytes.div_ceil(target).clamp(2, 64))
    }
}

/// Fetches a child batch, panicking on a caller bug (wrong arity) rather than misevaluating.
fn child(children: &[Arc<Relation>], i: usize) -> &Relation {
    children
        .get(i)
        .expect("physical operator invoked with too few child batches")
}

/// Unwraps a shared result, copying only the schema handle when the batch is still referenced
/// elsewhere (the row buffer itself is shared either way).
fn unshare(rel: Arc<Relation>) -> Relation {
    Arc::try_unwrap(rel).unwrap_or_else(|shared| (*shared).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::off_catalog;
    use crate::{AggFunc, CompareOp, Predicate};
    use urm_storage::{Attribute, DataType, Schema};

    /// The Customer relation of Figure 2 in the paper.
    fn figure2_catalog() -> Catalog {
        let schema = Schema::new(
            "Customer",
            vec![
                Attribute::new("cid", DataType::Int),
                Attribute::new("cname", DataType::Text),
                Attribute::new("ophone", DataType::Text),
                Attribute::new("hphone", DataType::Text),
                Attribute::new("oaddr", DataType::Text),
                Attribute::new("haddr", DataType::Text),
            ],
        );
        let rows = vec![
            Tuple::new(vec![
                Value::from(1i64),
                Value::from("Alice"),
                Value::from("123"),
                Value::from("789"),
                Value::from("aaa"),
                Value::from("hk"),
            ]),
            Tuple::new(vec![
                Value::from(2i64),
                Value::from("Bob"),
                Value::from("456"),
                Value::from("123"),
                Value::from("bbb"),
                Value::from("hk"),
            ]),
            Tuple::new(vec![
                Value::from(3i64),
                Value::from("Cindy"),
                Value::from("456"),
                Value::from("789"),
                Value::from("aaa"),
                Value::from("aaa"),
            ]),
        ];
        let customer = Relation::new(schema, rows).unwrap();

        let order_schema = Schema::new(
            "C_Order",
            vec![
                Attribute::new("oid", DataType::Int),
                Attribute::new("cid", DataType::Int),
                Attribute::new("amount", DataType::Float),
            ],
        );
        let orders = Relation::new(
            order_schema,
            vec![
                Tuple::new(vec![
                    Value::from(10i64),
                    Value::from(1i64),
                    Value::from(99.5),
                ]),
                Tuple::new(vec![
                    Value::from(11i64),
                    Value::from(3i64),
                    Value::from(12.0),
                ]),
            ],
        )
        .unwrap();

        let mut cat = Catalog::new();
        cat.insert(customer);
        cat.insert(orders);
        cat
    }

    #[test]
    fn select_on_figure2_matches_paper_example() {
        // π_{ophone} σ_{oaddr='aaa'} Customer  →  {123, 456} (the paper's m1 reformulation).
        let cat = figure2_catalog();
        let plan = Plan::scan("Customer")
            .select(Predicate::eq("Customer.oaddr", Value::from("aaa")))
            .project(vec!["Customer.ophone".into()]);
        let mut exec = Executor::new(&cat);
        let out = exec.run(&plan).unwrap();
        let phones: Vec<_> = out
            .iter()
            .map(|t| t.get(0).unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(phones, vec!["123", "456"]);
        assert_eq!(exec.stats().source_queries, 1);
        assert_eq!(exec.stats().operators_executed, 2);
        assert_eq!(exec.stats().scans, 1);
    }

    #[test]
    fn select_with_haddr_matches_other_mapping() {
        // π_{ophone} σ_{haddr='aaa'} Customer  →  {456} (the paper's m3 reformulation).
        let cat = figure2_catalog();
        let plan = Plan::scan("Customer")
            .select(Predicate::eq("Customer.haddr", Value::from("aaa")))
            .project(vec!["Customer.ophone".into()]);
        let out = Executor::new(&cat).run(&plan).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0].get(0), Some(&Value::from("456")));
    }

    #[test]
    fn comparison_operators_work_end_to_end() {
        let cat = figure2_catalog();
        let plan = Plan::scan("C_Order").select(Predicate::compare(
            "C_Order.amount",
            CompareOp::Gt,
            Value::from(50.0),
        ));
        let out = Executor::new(&cat).run(&plan).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn product_produces_all_pairs() {
        let cat = figure2_catalog();
        let plan = Plan::scan("Customer").product(Plan::scan("C_Order"));
        let out = Executor::new(&cat).run(&plan).unwrap();
        assert_eq!(out.len(), 3 * 2);
        assert_eq!(out.schema().arity(), 6 + 3);
    }

    #[test]
    fn hash_join_matches_product_plus_selection() {
        let cat = figure2_catalog();
        let join = Plan::scan("Customer").hash_join(
            Plan::scan("C_Order"),
            vec![("Customer.cid".into(), "C_Order.cid".into())],
        );
        let product = Plan::scan("Customer")
            .product(Plan::scan("C_Order"))
            .select(Predicate::column_eq("Customer.cid", "C_Order.cid"));
        let a = Executor::new(&cat).run(&join).unwrap();
        let b = Executor::new(&cat).run(&product).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 2);
        use std::collections::HashSet;
        let rows_a: HashSet<_> = a.rows().iter().cloned().collect();
        let rows_b: HashSet<_> = b.rows().iter().cloned().collect();
        assert_eq!(rows_a, rows_b);
    }

    #[test]
    fn hash_join_with_swapped_columns() {
        let cat = figure2_catalog();
        let join = Plan::scan("Customer").hash_join(
            Plan::scan("C_Order"),
            vec![("C_Order.cid".into(), "Customer.cid".into())],
        );
        let out = Executor::new(&cat).run(&join).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn hash_join_with_no_conditions_is_a_product() {
        let cat = figure2_catalog();
        let join = Plan::scan("Customer").hash_join(Plan::scan("C_Order"), vec![]);
        let out = Executor::new(&cat).run(&join).unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn multi_key_hash_join_requires_all_keys_equal() {
        let cat = figure2_catalog();
        // Join Customer to itself on (cid, cname): only identical rows pair up.
        let join = Plan::scan("Customer").hash_join(
            Plan::scan_as("Customer", "C2"),
            vec![
                ("Customer.cid".into(), "C2.cid".into()),
                ("Customer.cname".into(), "C2.cname".into()),
            ],
        );
        let out = Executor::new(&cat).run(&join).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn count_and_sum_aggregates() {
        let cat = figure2_catalog();
        let count = Plan::scan("Customer").aggregate(AggFunc::Count);
        let out = Executor::new(&cat).run(&count).unwrap();
        assert_eq!(out.rows()[0].get(0), Some(&Value::from(3i64)));

        let sum = Plan::scan("C_Order").aggregate(AggFunc::Sum("C_Order.amount".into()));
        let out = Executor::new(&cat).run(&sum).unwrap();
        assert_eq!(out.rows()[0].get(0), Some(&Value::from(111.5)));
    }

    #[test]
    fn sum_over_text_column_is_an_error() {
        let cat = figure2_catalog();
        let plan = Plan::scan("Customer").aggregate(AggFunc::Sum("Customer.cname".into()));
        let err = Executor::new(&cat).run(&plan).unwrap_err();
        assert!(matches!(err, EngineError::InvalidAggregate { .. }));
    }

    #[test]
    fn values_plan_returns_the_relation() {
        let cat = figure2_catalog();
        let base = cat.get("Customer").unwrap();
        let plan = Plan::values(base.as_ref().clone());
        let out = Executor::new(&cat).run(&plan).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn projection_of_unknown_column_fails() {
        let cat = figure2_catalog();
        let plan = Plan::scan("Customer").project(vec!["Customer.ghost".into()]);
        assert!(matches!(
            Executor::new(&cat).run(&plan),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn empty_projection_keeps_the_row_count_and_distinct_makes_it_existence() {
        let cat = figure2_catalog();
        let counted = Plan::scan("Customer").project(vec![]);
        let nobody = Plan::scan("Customer")
            .select(Predicate::eq("Customer.oaddr", Value::from("nowhere")))
            .project(vec![]);
        // Over scans, then over `Values` buffers that are converted where they are consumed.
        for off in [false, true] {
            let leaves = |plan: &Plan| match off {
                true => off_catalog(plan, &cat),
                false => plan.clone(),
            };
            let (counted, nobody) = (leaves(&counted), leaves(&nobody));
            let mut exec = Executor::new(&cat);
            let out = exec.run(&counted).unwrap();
            assert_eq!((out.len(), out.schema().arity()), (3, 0));
            assert_eq!(out.rows(), vec![Tuple::new(vec![]); 3]);
            assert_eq!(exec.run(&counted.clone().distinct()).unwrap().len(), 1);
            assert_eq!(exec.run(&nobody.clone().distinct()).unwrap().len(), 0);
            // One existing row is the identity of the product, none annihilates it.
            let orders = leaves(&Plan::scan("C_Order"));
            let some = counted.clone().distinct().product(orders.clone());
            assert_eq!(
                exec.run(&some).unwrap().rows(),
                exec.run(&orders).unwrap().rows()
            );
            assert!(exec
                .run(&nobody.clone().distinct().product(orders))
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn distinct_keeps_first_occurrences_in_input_order() {
        let cat = figure2_catalog();
        // Alice and Cindy share an office address and Bob and Alice a home address.
        let plan = Plan::scan("Customer")
            .project(vec!["Customer.oaddr".into()])
            .distinct();
        let expected = crate::ReferenceExecutor::new(&cat).run(&plan).unwrap();
        assert_eq!(expected.len(), 2);
        for plan in [plan.clone(), off_catalog(&plan, &cat)] {
            let out = Executor::new(&cat).run(&plan).unwrap();
            assert_eq!(out.rows(), expected.rows());
            assert_eq!(out.schema(), expected.schema());
        }
    }

    #[test]
    fn stats_accumulate_across_runs() {
        let cat = figure2_catalog();
        let mut exec = Executor::new(&cat);
        exec.run(&Plan::scan("Customer")).unwrap();
        exec.run(&Plan::scan("C_Order")).unwrap();
        assert_eq!(exec.stats().source_queries, 2);
        assert_eq!(exec.stats().scans, 2);
    }

    #[test]
    fn aggregate_over_empty_input_returns_zero() {
        let cat = figure2_catalog();
        let plan = Plan::scan("Customer")
            .select(Predicate::eq("Customer.oaddr", Value::from("nowhere")))
            .aggregate(AggFunc::Count);
        let out = Executor::new(&cat).run(&plan).unwrap();
        assert_eq!(out.rows()[0].get(0), Some(&Value::from(0i64)));
    }

    #[test]
    fn scans_share_the_base_row_buffer() {
        let cat = figure2_catalog();
        let mut exec = Executor::new(&cat);
        let out = exec.run(&Plan::scan("Customer")).unwrap();
        assert_eq!(
            out.storage_id(),
            cat.get("Customer").unwrap().storage_id(),
            "scan output must share the base relation's storage, not copy it"
        );
        assert_eq!(exec.stats().rows_shared, 3);
    }

    #[test]
    fn values_plans_share_without_copying() {
        let cat = figure2_catalog();
        let base = cat.get("Customer").unwrap();
        let mut exec = Executor::new(&cat);
        let leaf = exec.bind(&Plan::values_shared(Arc::clone(&base))).unwrap();
        let out = exec.execute(&leaf).unwrap();
        assert!(
            Arc::ptr_eq(&out, &base),
            "a Values leaf must return the shared relation itself"
        );
    }

    #[test]
    fn bound_execution_matches_run() {
        let cat = figure2_catalog();
        let plan = Plan::scan("Customer")
            .select(Predicate::eq("Customer.oaddr", Value::from("aaa")))
            .project(vec!["Customer.ophone".into()]);
        let mut exec = Executor::new(&cat);
        let physical = exec.bind(&plan).unwrap();
        let via_physical = exec.execute(&physical).unwrap();
        let via_run = Executor::new(&cat).run(&plan).unwrap();
        assert_eq!(via_physical.rows(), via_run.rows());
        assert_eq!(via_physical.schema(), via_run.schema());
        // `execute` does not count a completed source query.
        assert_eq!(exec.stats().source_queries, 0);
        assert_eq!(exec.stats().operators_executed, 2);
    }

    /// A catalog big enough that tiny budgets force the grace path, with duplicate and null
    /// join keys so order preservation is genuinely exercised.
    fn join_catalog() -> Catalog {
        let left = Schema::new(
            "L",
            vec![
                Attribute::new("lid", DataType::Int),
                Attribute::new("lkey", DataType::Int),
                Attribute::new("ltag", DataType::Text),
            ],
        );
        let lrows = (0..120)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(i as i64),
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::from((i % 17) as i64)
                    },
                    Value::from(format!("l{i}")),
                ])
            })
            .collect();
        let right = Schema::new(
            "R",
            vec![
                Attribute::new("rid", DataType::Int),
                Attribute::new("rkey", DataType::Int),
            ],
        );
        let rrows = (0..90)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(1000 + i as i64),
                    if i % 13 == 0 {
                        Value::Null
                    } else {
                        Value::from((i % 17) as i64)
                    },
                ])
            })
            .collect();
        let mut cat = Catalog::new();
        cat.insert(Relation::new(left, lrows).unwrap());
        cat.insert(Relation::new(right, rrows).unwrap());
        cat
    }

    #[test]
    fn grace_hash_join_is_byte_identical_to_in_memory() {
        let cat = join_catalog();
        let plan =
            Plan::scan("L").hash_join(Plan::scan("R"), vec![("L.lkey".into(), "R.rkey".into())]);
        let reference = Executor::new(&cat).run(&plan).unwrap();
        assert!(reference.len() > 100, "join must produce real fan-out");

        for budget in [0usize, 64, 512] {
            let pool = urm_storage::BufferPool::with_budget(budget);
            let mut exec = Executor::with_pool(&cat, pool.clone());
            let out = exec.run(&plan).unwrap();
            assert_eq!(out.schema(), reference.schema());
            assert_eq!(out.rows(), reference.rows(), "budget {budget} changed rows");
            assert!(
                exec.stats().grace_partitions >= 2,
                "budget {budget} did not take the grace path"
            );
            assert_eq!(
                pool.stats().segments_written,
                0,
                "index vectors are not staged"
            );
        }
    }

    #[test]
    fn grace_multi_key_join_matches_in_memory() {
        let cat = join_catalog();
        // Self-join on (lkey, ltag): multi-key path, duplicates included.
        let plan = Plan::scan("L").hash_join(
            Plan::scan_as("L", "L2"),
            vec![
                ("L.lkey".into(), "L2.lkey".into()),
                ("L.ltag".into(), "L2.ltag".into()),
            ],
        );
        let reference = Executor::new(&cat).run(&plan).unwrap();
        let mut exec = Executor::with_pool(&cat, urm_storage::BufferPool::with_budget(0));
        let out = exec.run(&plan).unwrap();
        assert_eq!(out.rows(), reference.rows());
        assert!(exec.stats().grace_partitions >= 2);
    }

    #[test]
    fn unbounded_pool_never_takes_the_grace_path() {
        let cat = join_catalog();
        let plan =
            Plan::scan("L").hash_join(Plan::scan("R"), vec![("L.lkey".into(), "R.rkey".into())]);
        let pool = urm_storage::BufferPool::unbounded();
        let mut exec = Executor::with_pool(&cat, pool.clone());
        let reference = Executor::new(&cat).run(&plan).unwrap();
        assert_eq!(exec.run(&plan).unwrap().rows(), reference.rows());
        assert_eq!(exec.stats().grace_partitions, 0);
        assert_eq!(pool.stats().segments_written, 0, "never-spill fast path");
    }

    #[test]
    fn grace_join_handles_empty_sides() {
        let cat = join_catalog();
        let plan = Plan::scan("L")
            .select(Predicate::eq("L.ltag", Value::from("nope")))
            .hash_join(Plan::scan("R"), vec![("L.lkey".into(), "R.rkey".into())]);
        let mut exec = Executor::with_pool(&cat, urm_storage::BufferPool::with_budget(0));
        let out = exec.run(&plan).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn operator_results_are_views_until_rows_are_read() {
        let cat = join_catalog();
        let plan = Plan::scan("L")
            .hash_join(Plan::scan("R"), vec![("L.lkey".into(), "R.rkey".into())])
            .project(vec!["R.rid".into(), "L.ltag".into()]);
        let mut exec = Executor::new(&cat);
        let physical = exec.bind(&plan).unwrap();
        let join = physical.children().next().unwrap();
        let inputs: Vec<_> = join.children().map(|c| exec.execute(c).unwrap()).collect();
        let joined = exec.execute_node(join, &inputs).unwrap();
        let view = joined.view().expect("a join over scans emits a view");
        assert_eq!(view.group_count(), 2);
        // Two index vectors of four bytes per row, whatever the five columns hold.
        assert!(joined.estimated_bytes() <= joined.len() * 2 * 4 + 64);

        let projected = exec.execute_node(&physical, &[joined]).unwrap();
        assert_eq!(projected.view().unwrap().arity(), 2);
        let expected = crate::ReferenceExecutor::new(&cat).run(&plan).unwrap();
        assert_eq!(projected.rows(), expected.rows());
        assert_eq!(exec.run(&plan).unwrap().rows(), expected.rows());
    }

    #[test]
    fn execute_node_runs_one_operator_over_given_batches() {
        let cat = figure2_catalog();
        let mut exec = Executor::new(&cat);
        let plan =
            Plan::scan("Customer").select(Predicate::eq("Customer.oaddr", Value::from("aaa")));
        let physical = exec.bind(&plan).unwrap();
        let scan_out = exec.execute(physical.children().next().unwrap()).unwrap();
        let out = exec.execute_node(&physical, &[scan_out]).unwrap();
        assert_eq!(out.len(), 2);
    }
}
