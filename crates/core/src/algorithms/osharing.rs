//! The `o-sharing` algorithm (Sections V and VI, Algorithm 2) and the u-trace runner it shares
//! with the probabilistic top-k algorithm.
//!
//! o-sharing interleaves query rewriting and execution.  Starting from one e-unit containing
//! all representative mappings, it repeatedly: picks the next target operator with the
//! configured strategy (Random / SNF / SEF), partitions the e-unit's mappings by the
//! correspondences that operator needs, reformulates and executes the operator once per
//! partition, and recurses into the resulting child e-units.  Mappings that agree on an
//! operator's correspondences therefore share a single execution of that operator, even when
//! they disagree elsewhere — the sharing q-sharing cannot provide.

use crate::answer::ProbabilisticAnswer;
use crate::eunit::{Component, EUnit};
use crate::metrics::{EvalMetrics, Evaluation};
use crate::partition::{partition_by_attrs, partition_mappings, representatives};
use crate::query::{QueryOutput, TargetOp, TargetPredicate, TargetQuery};
use crate::reformulate::{aggregate, scan_alias, source_column_for, Extraction};
use crate::strategy::{select_operator, Strategy};
use crate::{CoreError, CoreResult};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use urm_engine::{AggFunc, EpochDag, Executor, Plan, Predicate};
use urm_matching::{Mapping, MappingSet};
use urm_storage::{AttrRef, Catalog, Relation, Schema, Tuple};

/// Receives the answers produced at the leaves of the u-trace.
///
/// The exact evaluation accumulates every leaf; the top-k algorithm maintains probability
/// bounds and can ask the traversal to stop early by returning `true`.
pub(crate) trait LeafSink {
    /// Called with the result of a completed e-unit, how its answer tuples are read out of it,
    /// and the total probability of its mappings.  Returns `true` to stop the traversal.
    fn on_answers(&mut self, result: &Relation, extraction: &Extraction, probability: f64) -> bool;
    /// Called when an e-unit can produce no answer tuples (empty intermediate result or an
    /// unmapped attribute).  Returns `true` to stop the traversal.
    fn on_empty(&mut self, probability: f64) -> bool;
}

/// A [`LeafSink`] that simply aggregates every answer (exact evaluation).
pub(crate) struct ExactSink {
    pub answer: ProbabilisticAnswer,
}

impl LeafSink for ExactSink {
    fn on_answers(&mut self, result: &Relation, extraction: &Extraction, probability: f64) -> bool {
        aggregate(&mut self.answer, [result], extraction, probability);
        false
    }
    fn on_empty(&mut self, probability: f64) -> bool {
        self.answer.add_empty(probability);
        false
    }
}

/// Outcome of executing one operator for one mapping partition.
enum ChildOutcome {
    Child(EUnit),
    Answers(Arc<Relation>, Extraction),
    Empty,
}

/// Drives the u-trace: the shared machinery of Algorithm 2 (`run_qt`) and Algorithm 4
/// (`run_qt_topk`).
pub(crate) struct UTraceRunner<'a, S: LeafSink> {
    query: &'a TargetQuery,
    /// The representative mappings, borrowed from the mapping set, each with its partition's
    /// probability.
    reps: Vec<(&'a Mapping, f64)>,
    strategy: Strategy,
    rng: u64,
    exec: Executor<'a>,
    /// The merged per-step DAG: every operator any e-unit executes is merged into one growing
    /// shared-operator DAG, so sibling e-units (and partitions that agree on an operator's
    /// correspondences) share a single execution of identical bound operators — scans
    /// included — no matter which order the strategy visits them in.
    dag: EpochDag,
    pub sink: S,
    pub eunits: usize,
    pub rewrite_time: Duration,
}

impl<'a, S: LeafSink> UTraceRunner<'a, S> {
    pub(crate) fn new(
        query: &'a TargetQuery,
        catalog: &'a Catalog,
        reps: Vec<(&'a Mapping, f64)>,
        strategy: Strategy,
        sink: S,
    ) -> Self {
        let rng = match strategy {
            Strategy::Random { seed } => seed.max(1),
            _ => 0x9e37_79b9_7f4a_7c15,
        };
        UTraceRunner {
            query,
            reps,
            strategy,
            rng,
            exec: Executor::new(catalog),
            dag: EpochDag::pinning_all(),
            sink,
            eunits: 0,
            rewrite_time: Duration::ZERO,
        }
    }

    /// Operator requests answered by an already-executed DAG node (cross-e-unit sharing).
    pub(crate) fn shared_hits(&self) -> u64 {
        self.dag.result_hits()
    }

    /// Distinct operator nodes the u-trace executed (each exactly once).
    pub(crate) fn distinct_nodes(&self) -> u64 {
        self.dag.nodes_executed()
    }

    /// Number of representative mappings driving the u-trace.
    pub(crate) fn representative_count(&self) -> usize {
        self.reps.len()
    }

    /// Runs the whole u-trace starting from the initial e-unit.
    pub(crate) fn run(&mut self) -> CoreResult<()> {
        let indices: Vec<usize> = (0..self.reps.len()).collect();
        let probability: f64 = self.reps.iter().map(|(_, p)| *p).sum();
        let root = EUnit::initial(self.query, indices, probability);
        self.run_qt(root)?;
        Ok(())
    }

    /// Consumes the runner, returning the executor statistics.
    pub(crate) fn into_parts(self) -> (S, urm_engine::ExecStats, usize, Duration) {
        (
            self.sink,
            self.exec.into_stats(),
            self.eunits,
            self.rewrite_time,
        )
    }

    /// The recursive evaluation of an e-unit.  Returns `true` if the sink asked to stop.
    fn run_qt(&mut self, u: EUnit) -> CoreResult<bool> {
        self.eunits += 1;

        // Case 2: an empty intermediate relation can never contribute answer tuples; for
        // aggregates we must keep going (COUNT over an empty input is still the answer 0).
        if u.has_empty_component() && !self.query.output().is_aggregate() {
            return Ok(self.sink.on_empty(u.probability));
        }

        let valid = u.valid_operators(self.query);
        if valid.is_empty() {
            // The query is fully executed; answers were emitted when the output operator ran.
            return Ok(false);
        }

        // Operator selection (Section VI-A): partition the e-unit's mappings with respect to
        // each candidate operator and let the strategy choose.
        let rewrite_start = Instant::now();
        let mut candidates = Vec::with_capacity(valid.len());
        for op in &valid {
            let attrs = u.used_attributes(self.query, op);
            let weighted = u.mapping_indices.iter().map(|&i| self.reps[i]);
            candidates.push(partition_by_attrs(self.query, &attrs, weighted)?);
        }
        let sizes: Vec<Vec<usize>> = candidates
            .iter()
            .map(|parts| parts.iter().map(|p| p.mapping_indices.len()).collect())
            .collect();
        let choice = select_operator(self.strategy, &mut self.rng, &sizes);
        self.rewrite_time += rewrite_start.elapsed();

        let op = valid[choice].clone();
        let mut parts = candidates.swap_remove(choice);
        // Visit high-probability partitions first: harmless for the exact evaluation, crucial
        // for top-k early termination (the paper's Table II walks u2 before u6/u7).
        parts.sort_by(|a, b| b.probability.total_cmp(&a.probability));

        for part in parts {
            let indices: Vec<usize> = part
                .mapping_indices
                .iter()
                .map(|&local| u.mapping_indices[local])
                .collect();
            let probability = part.probability;
            let mapping = self.reps[indices[0]].0;
            match self.execute_op(&u, &op, mapping, indices, probability)? {
                ChildOutcome::Child(child) => {
                    if self.run_qt(child)? {
                        return Ok(true);
                    }
                }
                ChildOutcome::Answers(result, extraction) => {
                    if self.sink.on_answers(&result, &extraction, probability) {
                        return Ok(true);
                    }
                }
                ChildOutcome::Empty => {
                    if self.sink.on_empty(probability) {
                        return Ok(true);
                    }
                }
            }
        }
        Ok(false)
    }

    /// Reformulates and executes one target operator for one mapping partition
    /// (`reformulate_op` + `run_qs` + `create_qtree` of Algorithm 2).
    fn execute_op(
        &mut self,
        u: &EUnit,
        op: &TargetOp,
        mapping: &Mapping,
        indices: Vec<usize>,
        probability: f64,
    ) -> CoreResult<ChildOutcome> {
        match op {
            TargetOp::Predicate(i) => self.execute_predicate(u, *i, mapping, indices, probability),
            TargetOp::Product {
                left_alias,
                right_alias,
            } => self.execute_product(u, left_alias, right_alias, mapping, indices, probability),
            TargetOp::Output => self.execute_output(u, mapping),
        }
    }

    fn execute_predicate(
        &mut self,
        u: &EUnit,
        index: usize,
        mapping: &Mapping,
        indices: Vec<usize>,
        probability: f64,
    ) -> CoreResult<ChildOutcome> {
        let predicate = &self.query.predicates()[index];
        let (attrs, engine_pred, anchor_alias) = match predicate {
            TargetPredicate::Compare { attr, op, value } => {
                let Some(col) = source_column_for(self.query, mapping, attr)? else {
                    return Ok(ChildOutcome::Empty);
                };
                (
                    vec![attr.clone()],
                    Predicate::compare(col, *op, value.clone()),
                    attr.alias.clone(),
                )
            }
            TargetPredicate::AttrEq { left, right } => {
                let (Some(lcol), Some(rcol)) = (
                    source_column_for(self.query, mapping, left)?,
                    source_column_for(self.query, mapping, right)?,
                ) else {
                    return Ok(ChildOutcome::Empty);
                };
                (
                    vec![left.clone(), right.clone()],
                    Predicate::column_eq(lcol, rcol),
                    left.alias.clone(),
                )
            }
        };
        let ci = u
            .component_of(&anchor_alias)
            .ok_or_else(|| CoreError::InvalidQuery(format!("unbound alias '{anchor_alias}'")))?;
        let (data, scans) = ensure_columns(
            self.query,
            mapping,
            &u.components[ci],
            &attrs,
            &mut self.dag,
            &mut self.exec,
        )?;
        let data = data.expect("predicate attributes are mapped, so at least one scan exists");
        // The DAG keeps the filtered batch behind an `Arc`, so feeding it into the child e-unit
        // (and every operator that later consumes it) is a pointer bump — and a sibling e-unit
        // that needs the *same* selection over the same batch reuses this node outright.
        let filtered = run_shared(
            &mut self.dag,
            &Plan::values_shared(data).select(engine_pred),
            &mut self.exec,
        )?;

        let mut child = u.clone();
        child.mapping_indices = indices;
        child.probability = probability;
        child.components[ci].data = Some(filtered);
        child.components[ci].scans = scans;
        child.mark_predicate(index);
        Ok(ChildOutcome::Child(child))
    }

    fn execute_product(
        &mut self,
        u: &EUnit,
        left_alias: &str,
        right_alias: &str,
        mapping: &Mapping,
        indices: Vec<usize>,
        probability: f64,
    ) -> CoreResult<ChildOutcome> {
        let li = u
            .component_of(left_alias)
            .ok_or_else(|| CoreError::InvalidQuery(format!("unbound alias '{left_alias}'")))?;
        let ri = u
            .component_of(right_alias)
            .ok_or_else(|| CoreError::InvalidQuery(format!("unbound alias '{right_alias}'")))?;

        // Pending join predicates that connect the two components are folded into the product
        // (the paper's `reorder_op` rearrangement): the product is then executed as a hash
        // equi-join, which keeps every operator ordering feasible even for self-join queries.
        let join_preds = u.spanning_join_predicates(self.query, left_alias, right_alias);
        let mut on: Vec<(String, String)> = Vec::with_capacity(join_preds.len());
        for &pi in &join_preds {
            if let TargetPredicate::AttrEq { left, right } = &self.query.predicates()[pi] {
                let (Some(lcol), Some(rcol)) = (
                    source_column_for(self.query, mapping, left)?,
                    source_column_for(self.query, mapping, right)?,
                ) else {
                    return Ok(ChildOutcome::Empty);
                };
                on.push((lcol, rcol));
            }
        }

        // Each side must expose the join columns that live in it: materialise unmaterialised
        // sides and extend already-materialised ones with the covering relations of the join
        // attributes (reformulation Case 2).
        let side_attrs = |component_index: usize| -> Vec<AttrRef> {
            let comp = &u.components[component_index];
            let mut attrs: Vec<AttrRef> = if comp.data.is_none() {
                comp.aliases
                    .iter()
                    .flat_map(|a| self.query.attributes_of_alias(a))
                    .collect()
            } else {
                Vec::new()
            };
            for &pi in &join_preds {
                if let TargetPredicate::AttrEq { left, right } = &self.query.predicates()[pi] {
                    for a in [left, right] {
                        if comp.aliases.contains(&a.alias) && !attrs.contains(a) {
                            attrs.push(a.clone());
                        }
                    }
                }
            }
            attrs
        };
        let (ldata, lscans) = {
            let attrs = side_attrs(li);
            let (data, scans) = ensure_columns(
                self.query,
                mapping,
                &u.components[li],
                &attrs,
                &mut self.dag,
                &mut self.exec,
            )?;
            (data.unwrap_or_else(|| Arc::new(unit_relation())), scans)
        };
        let (rdata, rscans) = {
            let attrs = side_attrs(ri);
            let (data, scans) = ensure_columns(
                self.query,
                mapping,
                &u.components[ri],
                &attrs,
                &mut self.dag,
                &mut self.exec,
            )?;
            (data.unwrap_or_else(|| Arc::new(unit_relation())), scans)
        };
        let left_plan = Plan::values_shared(ldata);
        let right_plan = Plan::values_shared(rdata);
        let join_plan = if on.is_empty() {
            left_plan.product(right_plan)
        } else {
            left_plan.hash_join(right_plan, on)
        };
        let joined = run_shared(&mut self.dag, &join_plan, &mut self.exec)?;

        let mut child = u.clone();
        child.mapping_indices = indices;
        child.probability = probability;
        child.components[li].scans = lscans;
        child.components[ri].scans = rscans;
        child.merge_components(li, ri, joined);
        for pi in join_preds {
            child.mark_predicate(pi);
        }
        Ok(ChildOutcome::Child(child))
    }

    fn execute_output(&mut self, u: &EUnit, mapping: &Mapping) -> CoreResult<ChildOutcome> {
        let component = &u.components[0];
        match self.query.output() {
            QueryOutput::Count => {
                let (data, _) = materialize_component(
                    self.query,
                    mapping,
                    component,
                    &mut self.dag,
                    &mut self.exec,
                )?;
                let agg = run_shared(
                    &mut self.dag,
                    &Plan::values_shared(data).aggregate(AggFunc::Count),
                    &mut self.exec,
                )?;
                Ok(ChildOutcome::Answers(agg, Extraction::Raw))
            }
            QueryOutput::Sum(attr) => {
                let Some(col) = source_column_for(self.query, mapping, attr)? else {
                    return Ok(ChildOutcome::Empty);
                };
                let (data, _) = ensure_columns(
                    self.query,
                    mapping,
                    component,
                    std::slice::from_ref(attr),
                    &mut self.dag,
                    &mut self.exec,
                )?;
                let data = data.expect("SUM attribute is mapped");
                let agg = run_shared(
                    &mut self.dag,
                    &Plan::values_shared(data).aggregate(AggFunc::Sum(col)),
                    &mut self.exec,
                )?;
                Ok(ChildOutcome::Answers(agg, Extraction::Raw))
            }
            QueryOutput::Tuples(attrs) => {
                let mut cols: Vec<Option<String>> = Vec::with_capacity(attrs.len());
                for attr in attrs {
                    cols.push(source_column_for(self.query, mapping, attr)?);
                }
                let mapped: Vec<AttrRef> = attrs
                    .iter()
                    .zip(&cols)
                    .filter_map(|(a, c)| c.as_ref().map(|_| a.clone()))
                    .collect();
                if mapped.is_empty() {
                    return Ok(ChildOutcome::Empty);
                }
                let (data, _) = ensure_columns(
                    self.query,
                    mapping,
                    component,
                    &mapped,
                    &mut self.dag,
                    &mut self.exec,
                )?;
                let data = data.expect("at least one output attribute is mapped");
                let mut project: Vec<String> = Vec::new();
                for c in cols.iter().flatten() {
                    if !project.contains(c) {
                        project.push(c.clone());
                    }
                }
                let projected = run_shared(
                    &mut self.dag,
                    &Plan::values_shared(data).project(project),
                    &mut self.exec,
                )?;
                Ok(ChildOutcome::Answers(projected, Extraction::Columns(cols)))
            }
        }
    }
}

/// A zero-column, single-row relation: the identity element of the Cartesian product, used when
/// a component has no mapped attributes to materialise.
fn unit_relation() -> Relation {
    Relation::from_validated(Schema::new("unit", Vec::new()), vec![Tuple::empty()])
}

/// The scans folded into a component so far: (scan alias, source relation) pairs.
type ScanSet = BTreeSet<(String, String)>;

/// Binds `plan` and resolves it on the u-trace's DAG: operators an earlier step executed are
/// answered with their stored results, the rest run once and are kept.
fn run_shared(
    dag: &mut EpochDag,
    plan: &Plan,
    exec: &mut Executor<'_>,
) -> CoreResult<Arc<Relation>> {
    let physical = exec.bind(plan)?;
    Ok(dag.resolve(&physical, exec)?)
}

/// Ensures the component's materialised data contains the source columns for the given target
/// attributes (reformulation Cases 2/3 of Section VI-B): any covering source relation not yet
/// folded into the component is scanned and multiplied in.
fn ensure_columns(
    query: &TargetQuery,
    mapping: &Mapping,
    component: &Component,
    attrs: &[AttrRef],
    dag: &mut EpochDag,
    exec: &mut Executor<'_>,
) -> CoreResult<(Option<Arc<Relation>>, ScanSet)> {
    let mut scans = component.scans.clone();
    let mut data = component.data.clone();
    for attr in attrs {
        let schema_attr = query.schema_attr(attr)?;
        let Some(src) = mapping.source_for(&schema_attr) else {
            continue;
        };
        let pair = (scan_alias(&attr.alias, &src.alias), src.alias.clone());
        if scans.contains(&pair) {
            continue;
        }
        // The scan is a zero-copy view of the base relation, and a DAG node: every e-unit of
        // the whole u-trace that pulls in the same (alias, relation) shares one scan execution.
        let scanned = run_shared(dag, &Plan::scan_as(pair.1.clone(), pair.0.clone()), exec)?;
        data = Some(match data {
            None => scanned,
            Some(existing) => run_shared(
                dag,
                &Plan::values_shared(existing).product(Plan::values_shared(scanned)),
                exec,
            )?,
        });
        scans.insert(pair);
    }
    Ok((data, scans))
}

/// Materialises a component if it has no data yet, folding in the covering relations of every
/// query attribute of its aliases (the operator that pulls a fresh target relation into the
/// execution, e.g. the `Order` side of the paper's Figure 5 product).
fn materialize_component(
    query: &TargetQuery,
    mapping: &Mapping,
    component: &Component,
    dag: &mut EpochDag,
    exec: &mut Executor<'_>,
) -> CoreResult<(Arc<Relation>, ScanSet)> {
    if let Some(data) = &component.data {
        return Ok((Arc::clone(data), component.scans.clone()));
    }
    let attrs: Vec<AttrRef> = component
        .aliases
        .iter()
        .flat_map(|a| query.attributes_of_alias(a))
        .collect();
    let (data, scans) = ensure_columns(query, mapping, component, &attrs, dag, exec)?;
    Ok((data.unwrap_or_else(|| Arc::new(unit_relation())), scans))
}

/// Evaluates the query with operator-level sharing using the given strategy.
pub fn evaluate(
    query: &TargetQuery,
    mappings: &MappingSet,
    catalog: &Catalog,
    strategy: Strategy,
) -> CoreResult<Evaluation> {
    let total_start = Instant::now();
    let mut metrics = EvalMetrics::new(match strategy {
        Strategy::Random { .. } => "o-sharing(Random)",
        Strategy::Snf => "o-sharing(SNF)",
        Strategy::Sef => "o-sharing(SEF)",
    });

    // Steps 1-2 of Algorithm 2: representative mappings.
    let rewrite_start = Instant::now();
    let partitions = partition_mappings(query, mappings)?;
    let reps = representatives(&partitions, mappings);
    metrics.rewrite_time += rewrite_start.elapsed();
    metrics.representative_mappings = reps.len();

    let sink = ExactSink {
        answer: ProbabilisticAnswer::new(),
    };
    let mut runner = UTraceRunner::new(query, catalog, reps, strategy, sink);
    runner.run()?;
    metrics.distinct_source_queries = runner.representative_count();
    metrics.shared_plan_hits = runner.shared_hits();
    metrics.shared_plan_misses = runner.distinct_nodes();
    let (sink, exec_stats, eunits, rewrite_time) = runner.into_parts();

    metrics.exec = exec_stats;
    metrics.eunits = eunits;
    metrics.rewrite_time += rewrite_time;
    metrics.total_time = total_start.elapsed();
    Ok(Evaluation {
        answer: sink.answer,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{basic, qsharing};
    use crate::testkit;
    use urm_storage::Value;

    fn all_strategies() -> Vec<Strategy> {
        vec![Strategy::Sef, Strategy::Snf, Strategy::Random { seed: 7 }]
    }

    #[test]
    fn osharing_matches_basic_on_every_paper_query_and_strategy() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        for query in [
            testkit::q0(),
            testkit::q1(),
            testkit::basic_example_query(),
            testkit::q2_product(),
            testkit::count_query(),
            testkit::sum_query(),
        ] {
            let reference = basic::evaluate(&query, &mappings, &catalog).unwrap();
            for strategy in all_strategies() {
                let eval = evaluate(&query, &mappings, &catalog, strategy).unwrap();
                assert!(
                    reference.answer.approx_eq(&eval.answer, 1e-9),
                    "answers differ for {} with {strategy}:\nbasic: {}\no-sharing: {}",
                    query.name(),
                    reference.answer,
                    eval.answer
                );
            }
        }
    }

    #[test]
    fn osharing_reproduces_q0() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let eval = evaluate(&testkit::q0(), &mappings, &catalog, Strategy::Sef).unwrap();
        let aaa = Tuple::new(vec![Value::from("aaa")]);
        let hk = Tuple::new(vec![Value::from("hk")]);
        assert!((eval.answer.probability_of(&aaa) - 0.5).abs() < 1e-9);
        assert!((eval.answer.probability_of(&hk) - 0.5).abs() < 1e-9);
        assert!(eval.metrics.eunits > 1);
    }

    #[test]
    fn osharing_executes_fewer_operators_than_unshared_evaluation() {
        // Historically this compared o-sharing against q-sharing, which had *no* sharing below
        // query granularity.  Since every algorithm now lowers onto the shared-operator DAG,
        // q-sharing dedups bound sub-plans across representatives too, so the meaningful
        // baseline for the Table IV comparison is e-basic (distinct queries, no sub-plan
        // sharing); o-sharing must still execute fewer source operators than it.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let query = testkit::q2_product();
        let e = crate::algorithms::ebasic::evaluate(&query, &mappings, &catalog).unwrap();
        let o = evaluate(&query, &mappings, &catalog, Strategy::Sef).unwrap();
        assert!(
            o.metrics.source_operators() <= e.metrics.source_operators(),
            "o-sharing executed {} source operators, e-basic {}",
            o.metrics.source_operators(),
            e.metrics.source_operators()
        );
        // And q-sharing's DAG lowering genuinely shares below query granularity now.
        let q = qsharing::evaluate(&query, &mappings, &catalog).unwrap();
        assert!(
            q.metrics.shared_plan_hits > 0,
            "q-sharing found no shared bound sub-plans across representatives"
        );
        assert_eq!(
            q.metrics.source_operators(),
            q.metrics.shared_plan_misses,
            "each distinct bound operator of the q-sharing DAG executes exactly once"
        );
    }

    #[test]
    fn sef_does_not_execute_more_operators_than_random() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let query = testkit::q2_product();
        let sef = evaluate(&query, &mappings, &catalog, Strategy::Sef).unwrap();
        let random = evaluate(&query, &mappings, &catalog, Strategy::Random { seed: 3 }).unwrap();
        assert!(sef.metrics.source_operators() <= random.metrics.source_operators());
    }

    #[test]
    fn osharing_scans_are_shared_views_not_copies() {
        // Every row a scan or a shared `Values` leaf hands to the u-trace is accounted as a
        // shared view; a regression that reintroduces per-operator relation copies would show
        // up as `rows_shared` falling behind the scan output.
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let eval = evaluate(&testkit::q2_product(), &mappings, &catalog, Strategy::Sef).unwrap();
        assert!(
            eval.metrics.exec.rows_shared > 0,
            "o-sharing must execute through the zero-copy physical path"
        );
        assert!(eval.metrics.exec.scans > 0);
    }

    #[test]
    fn eunit_count_grows_with_partitions() {
        let catalog = testkit::figure2_catalog();
        let mappings = testkit::figure3_mappings();
        let eval = evaluate(&testkit::q0(), &mappings, &catalog, Strategy::Sef).unwrap();
        // q0 has 3 representative mappings; the u-trace has at least root + leaves.
        assert!(eval.metrics.eunits >= 3);
        assert_eq!(eval.metrics.representative_mappings, 3);
    }
}
