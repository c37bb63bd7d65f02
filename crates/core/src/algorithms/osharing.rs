//! The `o-sharing` algorithm (Sections V and VI, Algorithm 2) and the u-trace runner it shares
//! with the probabilistic top-k algorithm.
//!
//! o-sharing interleaves query rewriting and execution.  Starting from one e-unit containing
//! all representative mappings, it repeatedly: picks the next target operator with the
//! configured strategy (Random / SNF / SEF), partitions the e-unit's mappings by the
//! correspondences that operator needs, reformulates the operator once per partition, and
//! recurses into the resulting child e-units.  Mappings that agree on an operator's
//! correspondences therefore share a single step, even when they disagree elsewhere — the
//! sharing q-sharing cannot provide.
//!
//! An e-unit's state is a *logical* plan per component ([`crate::eunit`]): a step only extends
//! it — a predicate wraps a `σ`, covering an attribute multiplies in the scan `reformulate`'s
//! covering rule names, a product multiplies two components under their spanning join
//! predicates.  A step is then a *probe*: each factor of the plan's join-graph normal form
//! ([`urm_engine::optimize::factors`]) is resolved on the u-trace's DAG, and an empty factor
//! prunes the e-unit (the paper's Case 2, for queries that return tuples; an aggregate over
//! nothing still has an answer).  A leaf — the output operator for one partition — is the
//! reformulated source query of its representative, optimised and resolved on the same DAG:
//! the leaf's mappings agree on every attribute the query uses, so that query is the leaf's
//! answer, and it is the very node q-sharing runs.  The factors the steps probed are the ones
//! its optimised plan reuses.

use crate::answer::{aggregate, Cluster, ProbabilisticAnswer};
use crate::eunit::EUnit;
use crate::metrics::{EvalMetrics, Evaluation};
use crate::partition::{partition_mappings, partition_on_attrs, representatives, Representative};
use crate::query::{TargetOp, TargetPredicate, TargetQuery};
use crate::reformulate::{covering_scan, reformulate, source_column_for, Extraction, Reformulated};
use crate::strategy::{select_operator, Strategy};
use crate::{CoreError, CoreResult};
use std::sync::Arc;
use std::time::{Duration, Instant};
use urm_engine::optimize::{factors, optimize};
use urm_engine::{EpochDag, Executor, Plan, Predicate};
use urm_matching::{Mapping, MappingSet};
use urm_storage::{AttrRef, Catalog, Relation};

/// Receives the answers produced at the leaves of the u-trace.
///
/// The exact evaluation accumulates every leaf; the top-k algorithm maintains probability
/// bounds and can ask the traversal to stop early by returning `true`.
pub(crate) trait LeafSink {
    /// Called with the result of a completed e-unit, how its answer tuples are read out of it,
    /// and the total probability of its mappings.  Returns `true` to stop the traversal.
    fn on_answers(
        &mut self,
        result: Arc<Relation>,
        extraction: Extraction,
        probability: f64,
    ) -> bool;
    /// Called when an e-unit can produce no answer tuples (empty intermediate result or an
    /// unmapped attribute).  Returns `true` to stop the traversal.
    fn on_empty(&mut self, probability: f64) -> bool;
}

/// A [`LeafSink`] that keeps every leaf and aggregates them all at the end (exact evaluation).
#[derive(Default)]
pub(crate) struct ExactSink {
    /// Each leaf's result, extraction and probability, in traversal order.
    leaves: Vec<(Arc<Relation>, Extraction, f64)>,
    empty_probability: f64,
}

impl ExactSink {
    /// The answer: every leaf a one-factor cluster, in traversal order.
    fn answer(&self) -> ProbabilisticAnswer {
        let clusters: Vec<Cluster<'_>> = self
            .leaves
            .iter()
            .map(|(result, extraction, probability)| {
                Cluster::single(*probability, extraction, result)
            })
            .collect();
        aggregate(&clusters, self.empty_probability).0
    }
}

impl LeafSink for ExactSink {
    fn on_answers(
        &mut self,
        result: Arc<Relation>,
        extraction: Extraction,
        probability: f64,
    ) -> bool {
        self.leaves.push((result, extraction, probability));
        false
    }
    fn on_empty(&mut self, probability: f64) -> bool {
        self.empty_probability += probability.max(0.0);
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
    /// The mapping set, whose source-id matrix every e-unit's partition reads.
    mappings: &'a MappingSet,
    /// The representative mappings, borrowed from the mapping set, each with its partition's
    /// probability.
    reps: Vec<Representative<'a>>,
    strategy: Strategy,
    rng: u64,
    exec: Executor<'a>,
    /// The merged per-step DAG: every factor a step probes and every leaf's source query is
    /// merged into one growing shared-operator DAG, so sibling e-units (and partitions that
    /// agree on an operator's correspondences) share a single execution of identical bound
    /// operators — scans included — no matter which order the strategy visits them in.
    dag: EpochDag,
    sink: S,
    eunits: usize,
    /// Operator steps taken: one per operator per mapping partition.
    target_operators: u64,
    rewrite_time: Duration,
}

impl<'a, S: LeafSink> UTraceRunner<'a, S> {
    pub(crate) fn new(
        query: &'a TargetQuery,
        catalog: &'a Catalog,
        mappings: &'a MappingSet,
        reps: Vec<Representative<'a>>,
        strategy: Strategy,
        sink: S,
    ) -> Self {
        let rng = match strategy {
            Strategy::Random { seed } => seed.max(1),
            _ => 0x9e37_79b9_7f4a_7c15,
        };
        UTraceRunner {
            query,
            mappings,
            reps,
            strategy,
            rng,
            exec: Executor::new(catalog),
            dag: EpochDag::pinning_all(),
            sink,
            eunits: 0,
            target_operators: 0,
            rewrite_time: Duration::ZERO,
        }
    }

    /// Number of representative mappings driving the u-trace.
    pub(crate) fn representative_count(&self) -> usize {
        self.reps.len()
    }

    /// Runs the whole u-trace starting from the initial e-unit.
    pub(crate) fn run(&mut self) -> CoreResult<()> {
        let indices: Vec<usize> = (0..self.reps.len()).collect();
        let probability: f64 = self.reps.iter().map(|rep| rep.probability).sum();
        let root = EUnit::initial(self.query, indices, probability);
        self.run_qt(root)?;
        Ok(())
    }

    /// Consumes the runner, recording its work in `metrics` and returning the sink.
    pub(crate) fn finish(self, metrics: &mut EvalMetrics) -> S {
        metrics.shared_plan_hits = self.dag.result_hits();
        metrics.shared_plan_misses = self.dag.nodes_executed();
        metrics.exec = self.exec.into_stats();
        metrics.eunits = self.eunits;
        metrics.target_operators = self.target_operators;
        metrics.rewrite_time += self.rewrite_time;
        self.sink
    }

    /// The recursive evaluation of an e-unit.  Returns `true` if the sink asked to stop.
    fn run_qt(&mut self, u: EUnit) -> CoreResult<bool> {
        self.eunits += 1;

        let valid = u.valid_operators(self.query);
        if valid.is_empty() {
            // The query is fully executed; answers were emitted when the output operator ran.
            return Ok(false);
        }

        // Operator selection (Section VI-A): partition the e-unit's mappings with respect to
        // each candidate operator and let the strategy choose.
        let rewrite_start = Instant::now();
        let mut used = Vec::with_capacity(valid.len());
        let mut candidates = Vec::with_capacity(valid.len());
        for op in &valid {
            let attrs = u.used_attributes(self.query, op);
            let reps = u.mapping_indices.iter().map(|&i| &self.reps[i]);
            let members = reps.map(|rep| (rep.index, rep.probability));
            let partitions = partition_on_attrs(self.query, &attrs, self.mappings, members)?;
            candidates.push(partitions);
            used.push(attrs);
        }
        let sizes: Vec<Vec<usize>> = candidates
            .iter()
            .map(|parts| parts.iter().map(|p| p.mapping_indices.len()).collect())
            .collect();
        let choice = select_operator(self.strategy, &mut self.rng, &sizes);
        self.rewrite_time += rewrite_start.elapsed();

        let op = &valid[choice];
        let attrs = &used[choice];
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
            let mapping = self.reps[indices[0]].mapping;
            self.target_operators += 1;
            let stop = match self.execute_op(&u, op, attrs, mapping)? {
                ChildOutcome::Child(mut child) => {
                    child.mapping_indices = indices;
                    child.probability = probability;
                    self.run_qt(child)?
                }
                ChildOutcome::Answers(result, extraction) => {
                    self.sink.on_answers(result, extraction, probability)
                }
                ChildOutcome::Empty => self.sink.on_empty(probability),
            };
            if stop {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Reformulates one target operator for one mapping partition and probes the result
    /// (`reformulate_op` + `run_qs` + `create_qtree` of Algorithm 2).  `attrs` are the
    /// attributes the partition agrees on: each mapped one's covering scan joins its component.
    fn execute_op(
        &mut self,
        u: &EUnit,
        op: &TargetOp,
        attrs: &[AttrRef],
        mapping: &Mapping,
    ) -> CoreResult<ChildOutcome> {
        let catalog = self.exec.catalog();
        if *op == TargetOp::Output {
            return Ok(match reformulate(self.query, mapping, catalog)? {
                Reformulated::Empty => ChildOutcome::Empty,
                Reformulated::Query(sq) => {
                    let result = self.resolve(&optimize(&sq.plan, catalog)?)?;
                    ChildOutcome::Answers(result, sq.extraction)
                }
            });
        }

        let mut child = u.clone();
        for attr in attrs {
            let Some(src) = mapping.source_for(&self.query.schema_attr(attr)?) else {
                continue;
            };
            let (alias, relation) = covering_scan(&attr.alias, src, catalog)?;
            let ci = component_of(&child, &attr.alias)?;
            child.components[ci].cover(relation, alias);
        }
        let ci = match op {
            TargetOp::Predicate(index) => {
                let Some(predicate) = self.source_predicate(*index, mapping)? else {
                    return Ok(ChildOutcome::Empty);
                };
                let anchor = &self.query.predicates()[*index].attributes()[0].alias;
                let ci = component_of(&child, anchor)?;
                child.components[ci].select(predicate);
                child.mark_predicate(*index);
                ci
            }
            TargetOp::Product {
                left_alias,
                right_alias,
            } => {
                // Pending join predicates that connect the two components are folded into the
                // product (the paper's `reorder_op` rearrangement), which the normal form turns
                // into a join: every operator ordering stays feasible, self-joins included.
                let join_preds = u.spanning_join_predicates(self.query, left_alias, right_alias);
                let li = component_of(&child, left_alias)?;
                let ri = component_of(&child, right_alias)?;
                let ci = child.merge_components(li, ri);
                for index in join_preds {
                    let Some(predicate) = self.source_predicate(index, mapping)? else {
                        return Ok(ChildOutcome::Empty);
                    };
                    child.components[ci].select(predicate);
                    child.mark_predicate(index);
                }
                ci
            }
            TargetOp::Output => unreachable!("the output operator returned above"),
        };

        // Case 2: an empty intermediate relation can never contribute answer tuples; for
        // aggregates we must keep going (COUNT over an empty input is still the answer 0).
        if !self.query.output().is_aggregate() {
            if let Some(plan) = &child.components[ci].plan {
                for factor in factors(plan, catalog)? {
                    if self.resolve(&factor)?.is_empty() {
                        return Ok(ChildOutcome::Empty);
                    }
                }
            }
        }
        Ok(ChildOutcome::Child(child))
    }

    /// The query's `index`-th predicate over the mapping's source columns, or `None` when the
    /// mapping leaves one of its attributes uncovered (the predicate can never hold).
    fn source_predicate(&self, index: usize, mapping: &Mapping) -> CoreResult<Option<Predicate>> {
        let column = |attr| source_column_for(self.query, mapping, attr);
        Ok(match &self.query.predicates()[index] {
            TargetPredicate::Compare { attr, op, value } => {
                column(attr)?.map(|col| Predicate::compare(col, *op, value.clone()))
            }
            TargetPredicate::AttrEq { left, right } => match (column(left)?, column(right)?) {
                (Some(l), Some(r)) => Some(Predicate::column_eq(l, r)),
                _ => None,
            },
        })
    }

    /// Binds `plan` and resolves it on the u-trace's DAG: operators an earlier step executed are
    /// answered with their stored results, the rest run once and are kept.
    fn resolve(&mut self, plan: &Plan) -> CoreResult<Arc<Relation>> {
        let physical = self.exec.bind(plan)?;
        Ok(self.dag.resolve(&physical, &mut self.exec)?)
    }
}

fn component_of(u: &EUnit, alias: &str) -> CoreResult<usize> {
    u.component_of(alias)
        .ok_or_else(|| CoreError::InvalidQuery(format!("unbound alias '{alias}'")))
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

    let sink = ExactSink::default();
    let mut runner = UTraceRunner::new(query, catalog, mappings, reps, strategy, sink);
    runner.run()?;
    metrics.distinct_source_queries = runner.representative_count();
    let sink = runner.finish(&mut metrics);
    let agg_start = Instant::now();
    let answer = sink.answer();
    metrics.aggregation_time = agg_start.elapsed();
    metrics.total_time = total_start.elapsed();
    Ok(Evaluation { answer, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{basic, qsharing};
    use crate::testkit;
    use urm_storage::{Tuple, Value};

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
            // A COUNT reading no attribute covers no source relation: its mass is empty.
            TargetQuery::builder("count-nothing")
                .relation("Person")
                .count()
                .build()
                .unwrap(),
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
