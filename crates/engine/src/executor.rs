//! The plan executor: binds logical plans and evaluates physical operators batch-at-a-time.
//!
//! [`Executor::run`] is a thin wrapper over the two-phase pipeline — [`bind`] the logical plan
//! into a [`PhysicalPlan`] (columns positional, predicates compiled, base row buffers
//! captured), then evaluate the physical operators bottom-up.  Every operator consumes its
//! children's output batches and produces one output batch behind an `Arc`, so:
//!
//! * scans and `Values` leaves hand out shared views of existing row buffers (zero copies);
//! * cached sub-plan results flow into downstream operators without re-materialisation;
//! * operators over converted inputs run as [`vectorized`] kernels and emit
//!   *late-materialized* relations — index vectors over the shared base columns
//!   ([`ColumnView`]) — so no operator builds a tuple; rows are built once, by whoever reads
//!   a result's rows, or where a result has to leave memory under a byte budget (the inputs
//!   of a grace join, a result admitted to the spill pool);
//! * the row operators remain for inputs that have no columnar form (ad-hoc `Values`
//!   buffers, aggregate outputs, results reloaded from spill segments).
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
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;
use urm_obs::Tracer;
use urm_storage::{
    Attribute, BufferPool, Catalog, ColumnView, DataType, Relation, Schema, Tuple, Value,
};

/// Executes [`Plan`]s against a [`Catalog`], accumulating [`ExecStats`].
pub struct Executor<'a> {
    catalog: &'a Catalog,
    stats: ExecStats,
    /// The spill pool of a byte-budgeted execution: hash joins whose build side exceeds the
    /// pool's budget fall back to the grace (partitioned) join, staging partitions through the
    /// pool.  `None` (the default) keeps the pre-spill all-in-memory behaviour byte for byte.
    pool: Option<BufferPool>,
    /// The trace-span recorder of the current batch (disabled by default: spans are free).
    /// The DAG scheduler reads it in `run_node` for per-node spans, and the grace join opens
    /// a `grace_join` span around its partition/stage/probe passes.
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
    /// than half the budget takes the grace (partitioned) path, spilling its partitions
    /// through the pool and joining them pair by pair.  Results are byte-identical to the
    /// in-memory path, row order included.
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

    /// The columnar form of an operator input, when it has one: the view of a
    /// late-materialized intermediate, or the catalog's memoised
    /// conversion of a row buffer a scan converted.  Anything else (ad-hoc `Values` buffers,
    /// aggregate outputs, results reloaded from spill segments) stays on the row operators.
    fn columnar_input<'r>(&self, rel: &'r Relation) -> Option<Cow<'r, ColumnView>> {
        match rel.view() {
            Some(view) => Some(Cow::Borrowed(view)),
            None => self
                .catalog
                .cached_columnar(rel)
                .map(|base| Cow::Owned(ColumnView::from_base(base))),
        }
    }

    /// Accounts for and wraps the output of a vectorized operator that read `read` rows.
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
                // The scan hands out the base rows themselves; converting here (once per
                // buffer, memoised by the catalog) is what lets the operators over it find
                // its columnar form.
                let _ = self.catalog.columnar_view(view);
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
                if let Some(view) = self.columnar_input(&input) {
                    let out = vectorized::filter(&view, predicate);
                    return Ok(self.emit(schema, input.len(), out));
                }
                let rows: Vec<Tuple> = input
                    .iter()
                    .filter(|t| predicate.matches(t))
                    .cloned()
                    .collect();
                self.stats
                    .record_operator(input.len() as u64, rows.len() as u64);
                Ok(Arc::new(Relation::from_validated(schema.clone(), rows)))
            }
            PhysicalPlan::Project {
                positions, schema, ..
            } => {
                let input = child(children, 0);
                if let Some(view) = self.columnar_input(&input) {
                    return Ok(self.emit(schema, input.len(), view.project(positions)));
                }
                let rows: Vec<Tuple> = input.iter().map(|t| t.project(positions)).collect();
                self.stats
                    .record_operator(input.len() as u64, rows.len() as u64);
                Ok(Arc::new(Relation::from_validated(schema.clone(), rows)))
            }
            PhysicalPlan::Product { schema, .. } => {
                let l = child(children, 0);
                let r = child(children, 1);
                if let (Some(lv), Some(rv)) = (self.columnar_input(&l), self.columnar_input(&r)) {
                    let out = vectorized::product(&lv, &rv);
                    return Ok(self.emit(schema, l.len() + r.len(), out));
                }
                let mut rows = Vec::with_capacity(l.len().saturating_mul(r.len()));
                for lt in l.iter() {
                    for rt in r.iter() {
                        rows.push(lt.concat(rt));
                    }
                }
                self.stats
                    .record_operator((l.len() + r.len()) as u64, rows.len() as u64);
                Ok(Arc::new(Relation::from_validated(schema.clone(), rows)))
            }
            PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                schema,
                ..
            } => {
                let l = child(children, 0);
                let r = child(children, 1);
                let grace = self.grace_partition_count(&r);
                if grace.is_none() {
                    if let (Some(lv), Some(rv)) = (self.columnar_input(&l), self.columnar_input(&r))
                    {
                        let out = vectorized::hash_join(&lv, &rv, left_keys, right_keys);
                        return Ok(self.emit(schema, l.len() + r.len(), out));
                    }
                }
                let rows = match grace {
                    Some(partitions) => {
                        self.grace_hash_join_rows(&l, &r, left_keys, right_keys, partitions)?
                    }
                    None => hash_join_rows(&l, &r, left_keys, right_keys),
                };
                self.stats
                    .record_operator((l.len() + r.len()) as u64, rows.len() as u64);
                Ok(Arc::new(Relation::from_validated(schema.clone(), rows)))
            }
            PhysicalPlan::Distinct { .. } => {
                let input = child(children, 0);
                if let Some(view) = self.columnar_input(&input) {
                    let every_column: Vec<usize> = (0..view.arity()).collect();
                    let kept = view.distinct_rows(&every_column);
                    let out = if kept.len() == view.len() {
                        view.into_owned()
                    } else {
                        view.select_rows(kept)
                    };
                    return Ok(self.emit(plan.schema(), input.len(), out));
                }
                let mut seen = HashSet::new();
                let rows: Vec<Tuple> = input
                    .iter()
                    .filter(|row| seen.insert(*row))
                    .cloned()
                    .collect();
                self.stats
                    .record_operator(input.len() as u64, rows.len() as u64);
                Ok(Arc::new(Relation::from_validated(
                    plan.schema().clone(),
                    rows,
                )))
            }
            PhysicalPlan::Aggregate { func, schema, .. } => {
                let input = child(children, 0);
                let view = self.columnar_input(&input);
                let value = match func {
                    BoundAggregate::Count => Value::from(input.len() as i64),
                    BoundAggregate::Sum { pos, column } => {
                        let sum = match &view {
                            Some(view) => vectorized::sum(view, *pos),
                            None => sum_rows(&input, *pos),
                        };
                        Value::from(sum.ok_or_else(|| EngineError::InvalidAggregate {
                            func: "SUM",
                            column: column.clone(),
                        })?)
                    }
                };
                self.stats.record_operator(input.len() as u64, 1);
                self.stats.columnar_rows += u64::from(view.is_some());
                Ok(Arc::new(Relation::from_validated(
                    schema.clone(),
                    vec![Tuple::new(vec![value])],
                )))
            }
        }
    }
}

/// SUM over column `pos` of a row relation, in row order; nulls and missing cells are
/// skipped, a non-numeric value yields `None`.
fn sum_rows(input: &Relation, pos: usize) -> Option<f64> {
    let mut sum = 0.0f64;
    for v in input.iter().filter_map(|t| t.get(pos)) {
        if !v.is_null() {
            sum += v.as_f64()?;
        }
    }
    Some(sum)
}

impl Executor<'_> {
    /// Decides whether a hash join must take the grace (partitioned) path: only under a
    /// budgeted pool, and only when the build (right) side exceeds half the budget — the
    /// in-memory join needs the build rows *and* their hash table resident at once.  Returns
    /// the partition fan-out, sized so each build partition targets a quarter of the budget.
    fn grace_partition_count(&self, build: &Relation) -> Option<usize> {
        let budget = self.pool.as_ref()?.budget()?;
        let build_bytes = build.estimated_bytes();
        if build_bytes <= budget / 2 {
            return None;
        }
        let target = (budget / 4).max(1);
        Some(build_bytes.div_ceil(target).clamp(2, 64))
    }

    /// The grace hash join: both sides are hash-partitioned on the join key into spill-pool
    /// relations (so the pool can page them out under budget pressure), then each partition
    /// pair is loaded and joined one at a time.  Probe rows carry their original index in an
    /// extra column, and the concatenated per-partition outputs are stably re-sorted on it —
    /// a key's rows all land in one partition, so this reproduces the in-memory join's output
    /// *exactly*, row order included (the property tests hold it to that).
    fn grace_hash_join_rows(
        &mut self,
        left: &Relation,
        right: &Relation,
        left_keys: &[usize],
        right_keys: &[usize],
        partitions: usize,
    ) -> EngineResult<Vec<Tuple>> {
        let pool = self.pool.clone().expect("grace join runs under a pool");
        let mut grace_span = self.tracer.span("grace_join");
        grace_span.tag("partitions", partitions as u64);
        grace_span.tag("build_rows", right.len() as u64);
        grace_span.tag("probe_rows", left.len() as u64);
        self.stats.grace_partitions += partitions as u64;
        // Admission sizing: reserve room for one build partition up front, so staging evicts
        // unrelated pool entries in one planned sweep instead of a cascade of per-admit
        // evictions.  Best effort: a failed reservation write surfaces on the staging admit
        // that actually needs the room.
        let _ = pool.reserve(right.estimated_bytes().div_ceil(partitions.max(1)));

        // One pass per side computes, per partition, the list of row indices it owns (rows
        // with a null key component can never match and are dropped here, exactly as the
        // in-memory build loop does).  The partitions are then *staged one at a time* from
        // those index lists: materialise partition p, admit it (the pool may page it straight
        // out), drop the local buffer, move to p+1.  Peak transient memory is one partition
        // plus the 4-bytes-per-row index lists, not a full deep copy of the side — the inputs
        // themselves are already materialised `Arc`s owned by the scheduler, which is the
        // floor this path cannot go below.  Empty partitions never touch the pool (no segment
        // I/O) and empty *pairs* skip the join outright.
        let partition_rows = |rel: &Relation, keys: &[usize]| -> Vec<Vec<u32>> {
            let mut ids: Vec<Vec<u32>> = vec![Vec::new(); partitions];
            for (idx, row) in rel.iter().enumerate() {
                if let Some(p) = key_partition(row, keys, partitions) {
                    ids[p].push(idx as u32);
                }
            }
            ids
        };
        // Materialises one partition's rows straight from the (still-resident) input; used to
        // stage partitions into the pool *and* to rebuild a partition whose staged segment
        // later fails to read back.
        let materialize_partition =
            |schema: &Schema, rel: &Relation, indices: &[u32], tag: bool| -> Relation {
                let all_rows = rel.rows();
                let rows: Vec<Tuple> = indices
                    .iter()
                    .map(|&idx| {
                        let row = &all_rows[idx as usize];
                        if tag {
                            row.concat(&Tuple::new(vec![Value::from(i64::from(idx))]))
                        } else {
                            row.clone()
                        }
                    })
                    .collect();
                Relation::from_validated(schema.clone(), rows)
            };
        let stage = |schema: &Schema,
                     rel: &Relation,
                     ids: &[Vec<u32>],
                     tag: bool|
         -> EngineResult<Vec<Option<urm_storage::SpillableRelation>>> {
            let mut handles = Vec::with_capacity(partitions);
            for indices in ids {
                if indices.is_empty() {
                    handles.push(None);
                    continue;
                }
                handles.push(Some(
                    pool.admit(materialize_partition(schema, rel, indices, tag))?,
                ));
            }
            Ok(handles)
        };

        // Build (right) side, then the probe (left) side — probe rows additionally carry their
        // original row index as a tag column so the final merge can restore probe order.  The
        // per-partition index lists are kept for the lifetime of the join: they are the
        // recovery path when a staged segment fails to read back.
        let right_ids = partition_rows(right, right_keys);
        let right_handles = stage(right.schema(), right, &right_ids, false)?;
        let left_arity = left.schema().arity();
        let mut tagged_attrs = left.schema().attributes().to_vec();
        tagged_attrs.push(Attribute::new(GRACE_INDEX_COLUMN, DataType::Int));
        let tagged_schema = Schema::new(format!("grace({})", left.schema().name()), tagged_attrs);
        let left_ids = partition_rows(left, left_keys);
        let left_handles = stage(&tagged_schema, left, &left_ids, true)?;

        // Join partition pairs one at a time; only the current pair needs to be resident.
        // A failed segment read (torn file, reaped tmpdir) is retried by re-materialising the
        // partition from its index list over the still-resident input — never by re-admitting
        // it through the pool, so the retry adds nothing to the spill counters and
        // `absorb_spill_delta`'s totals stay exact.
        // Output tuples strip the tag column back out: positions 0..left_arity then the right
        // side after the tag.
        let keep: Vec<usize> = (0..left_arity)
            .chain(left_arity + 1..left_arity + 1 + right.schema().arity())
            .collect();
        let mut out: Vec<(usize, Tuple)> = Vec::new();
        for (p, (lh, rh)) in left_handles.iter().zip(&right_handles).enumerate() {
            let (Some(lh), Some(rh)) = (lh, rh) else {
                continue; // one side empty: the pair can produce nothing
            };
            let lp = match lh.load() {
                Ok(rel) => rel,
                Err(_) => Arc::new(materialize_partition(
                    &tagged_schema,
                    left,
                    &left_ids[p],
                    true,
                )),
            };
            let rp = match rh.load() {
                Ok(rel) => rel,
                Err(_) => Arc::new(materialize_partition(
                    right.schema(),
                    right,
                    &right_ids[p],
                    false,
                )),
            };
            for row in hash_join_rows(&lp, &rp, left_keys, right_keys) {
                let idx = row
                    .get(left_arity)
                    .and_then(Value::as_i64)
                    .expect("grace tag column is an index") as usize;
                out.push((idx, row.project(&keep)));
            }
        }
        // Stable: within one probe index all matches come from a single partition, already in
        // build order, so this restores the in-memory output order exactly.
        out.sort_by_key(|(idx, _)| *idx);
        Ok(out.into_iter().map(|(_, row)| row).collect())
    }
}

/// Name of the probe-order tag column the grace join appends while partitioning (qualified
/// engine columns are `alias.attr`, so this can never collide with a real attribute).
const GRACE_INDEX_COLUMN: &str = "⟨grace-idx⟩";

/// The partition a row's join key hashes to, or `None` when a key component is null (null keys
/// never match, as in SQL — the row can be dropped before it ever reaches a partition).
/// Equal keys hash equally on both sides, so a key's matches always meet in one partition.
fn key_partition(row: &Tuple, keys: &[usize], partitions: usize) -> Option<usize> {
    let mut hasher = DefaultHasher::new();
    for &k in keys {
        match row.get(k) {
            Some(v) if !v.is_null() => v.hash(&mut hasher),
            _ => return None,
        }
    }
    Some((hasher.finish() % partitions as u64) as usize)
}

/// Fetches a child batch, panicking on a caller bug (wrong arity) rather than misevaluating.
fn child(children: &[Arc<Relation>], i: usize) -> Arc<Relation> {
    Arc::clone(
        children
            .get(i)
            .expect("physical operator invoked with too few child batches"),
    )
}

/// Unwraps a shared result, copying only the schema handle when the batch is still referenced
/// elsewhere (the row buffer itself is shared either way).
fn unshare(rel: Arc<Relation>) -> Relation {
    Arc::try_unwrap(rel).unwrap_or_else(|shared| (*shared).clone())
}

/// Probe-side hash join over positional keys.
///
/// Keys are *borrowed* from the input tuples — no per-row key cloning — and the single-key
/// case (the overwhelmingly common one in the paper's workload) skips the composite-key
/// allocation entirely.  Null keys never match, as in SQL.
fn hash_join_rows(
    left: &Relation,
    right: &Relation,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Vec<Tuple> {
    let mut rows = Vec::new();
    if left_keys.len() == 1 {
        let (lk, rk) = (left_keys[0], right_keys[0]);
        let mut table: HashMap<&Value, Vec<&Tuple>> = HashMap::with_capacity(right.len());
        for t in right.iter() {
            match t.get(rk) {
                Some(v) if !v.is_null() => table.entry(v).or_default().push(t),
                _ => {}
            }
        }
        for l in left.iter() {
            let Some(v) = l.get(lk) else { continue };
            if v.is_null() {
                continue;
            }
            if let Some(matches) = table.get(v) {
                for r in matches {
                    rows.push(l.concat(r));
                }
            }
        }
    } else {
        let mut table: HashMap<Vec<&Value>, Vec<&Tuple>> = HashMap::with_capacity(right.len());
        'right: for t in right.iter() {
            let mut key = Vec::with_capacity(right_keys.len());
            for &i in right_keys {
                match t.get(i) {
                    Some(v) if !v.is_null() => key.push(v),
                    _ => continue 'right,
                }
            }
            table.entry(key).or_default().push(t);
        }
        'left: for l in left.iter() {
            let mut key = Vec::with_capacity(left_keys.len());
            for &i in left_keys {
                match l.get(i) {
                    Some(v) if !v.is_null() => key.push(v),
                    _ => continue 'left,
                }
            }
            if let Some(matches) = table.get(&key) {
                for r in matches {
                    rows.push(l.concat(r));
                }
            }
        }
    }
    rows
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
        // On columns (scans), then on rows (the same plans over buffers with no columnar form).
        for on_rows in [false, true] {
            let leaves = |plan: &Plan| match on_rows {
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
        for (plan, columnar) in [(plan.clone(), true), (off_catalog(&plan, &cat), false)] {
            let out = Executor::new(&cat).run(&plan).unwrap();
            assert_eq!(out.view().is_some(), columnar);
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
        assert!(
            out.shares_rows_with(&cat.get("Customer").unwrap()),
            "scan output must be a view of the base relation, not a copy"
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
            assert!(pool.stats().bytes_spilled > 0 || budget >= 512);
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
    fn grace_retry_after_failed_segment_reads_is_exact() {
        let cat = join_catalog();
        let plan =
            Plan::scan("L").hash_join(Plan::scan("R"), vec![("L.lkey".into(), "R.rkey".into())]);
        let reference = Executor::new(&cat).run(&plan).unwrap();

        // Clean grace run: the spill-accounting baseline.
        let clean_pool = urm_storage::BufferPool::with_budget(0);
        let mut clean = Executor::with_pool(&cat, clean_pool.clone());
        assert_eq!(clean.run(&plan).unwrap().rows(), reference.rows());
        let baseline = clean_pool.stats();
        assert!(baseline.segments_written > 0);

        // Same join with the first cold segment reads failing: the retry re-materialises the
        // partitions from the still-resident inputs instead of re-admitting them through the
        // pool, so the answer stays byte-identical and nothing is spilled (or counted) twice.
        let pool = urm_storage::BufferPool::with_budget(0);
        let mut exec = Executor::with_pool(&cat, pool.clone());
        pool.fail_next_loads(3);
        let out = exec.run(&plan).unwrap();
        assert_eq!(out.rows(), reference.rows());
        let stats = pool.stats();
        assert_eq!(
            stats.bytes_spilled, baseline.bytes_spilled,
            "a read retry must not re-spill"
        );
        assert_eq!(stats.segments_written, baseline.segments_written);
        assert_eq!(
            exec.stats().grace_partitions,
            clean.stats().grace_partitions
        );
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
