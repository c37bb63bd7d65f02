//! Property tests: execution under a spill pool — any byte budget, including the budget-0
//! spill-everything extreme — is byte-identical to in-memory execution.
//!
//! For randomly generated (catalog, join-heavy plan batch, budget) triples:
//!
//! * a budgeted [`Executor`] (grace hash joins, spill-pool staging) returns, for every plan,
//!   exactly the rows of the row-at-a-time [`ReferenceExecutor`] — same schema, same rows,
//!   same row order;
//! * an [`EpochDag`] under a memory budget (spill-backed pins) answers warm batches with the
//!   same bytes the cold batch produced, without re-executing a node, on one worker or three;
//! * an *unbounded* pool is the never-spill fast path: zero segment files, zero reloads, zero
//!   grace partitions.

use proptest::prelude::*;
use proptest::TestRng;
use std::collections::HashMap;
use std::sync::Arc;
use urm_engine::optimize::fingerprint;
use urm_engine::{
    CompareOp, DagResultCache, DagScheduler, EpochDag, Executor, OperatorDag, Plan, Predicate,
    ReferenceExecutor,
};
use urm_storage::{Attribute, BufferPool, Catalog, DataType, Name, Relation, Schema, Tuple, Value};

/// A result store outside any epoch: answers what was published to it.
#[derive(Default)]
struct Memo(HashMap<u64, Arc<Relation>>);

impl DagResultCache for Memo {
    fn lookup(&mut self, fingerprint: u64) -> Option<Arc<Relation>> {
        self.0.get(&fingerprint).cloned()
    }
    fn publish(&mut self, fingerprint: u64, result: &Arc<Relation>) {
        self.0.insert(fingerprint, Arc::clone(result));
    }
}

/// A tiny value domain so joins and selections actually hit; nulls included so null-key
/// handling is exercised on the grace path.
fn random_value(rng: &mut TestRng, dt: DataType) -> Value {
    if rng.index(8) == 0 {
        return Value::Null;
    }
    match dt {
        DataType::Int => Value::from(rng.index(4) as i64),
        DataType::Float => Value::from([0.0, 1.5, 2.5][rng.index(3)]),
        DataType::Text => Value::from(["a", "b", "c"][rng.index(3)]),
        DataType::Bool => Value::from(rng.index(2) == 0),
        _ => Value::Null,
    }
}

fn random_catalog(rng: &mut TestRng) -> Catalog {
    let mut cat = Catalog::new();
    let types = [DataType::Int, DataType::Text, DataType::Float];
    for r in 0..2 + rng.index(2) {
        let arity = 1 + rng.index(3);
        let attrs: Vec<Attribute> = (0..arity)
            .map(|i| Attribute::new(format!("c{i}"), types[rng.index(types.len())]))
            .collect();
        let schema = Schema::new(format!("R{r}"), attrs.clone());
        let rows = (0..rng.index(14))
            .map(|_| {
                Tuple::new(
                    attrs
                        .iter()
                        .map(|a| random_value(rng, a.data_type))
                        .collect(),
                )
            })
            .collect();
        cat.insert(Relation::new(schema, rows).unwrap());
    }
    cat
}

fn random_column(rng: &mut TestRng, schema: &Schema) -> Name {
    let names: Vec<&str> = schema.attribute_names().collect();
    names[rng.index(names.len())].into()
}

/// A join-heavy plan: two uniquely aliased scans (optionally pre-filtered) joined on random
/// columns, with an optional selection on top — the shape whose build side the grace path
/// partitions.
fn random_join_plan(rng: &mut TestRng, catalog: &Catalog, alias_seq: &mut usize) -> Plan {
    let names: Vec<String> = catalog.relation_names().map(String::from).collect();
    let scan = |rng: &mut TestRng, alias_seq: &mut usize| {
        *alias_seq += 1;
        Plan::scan_as(
            names[rng.index(names.len())].clone(),
            format!("J{alias_seq}"),
        )
    };
    let left = scan(rng, alias_seq);
    let right = scan(rng, alias_seq);
    let ls = left.output_schema(catalog).expect("scan schema");
    let rs = right.output_schema(catalog).expect("scan schema");
    let mut on = vec![(random_column(rng, &ls), random_column(rng, &rs))];
    if rng.index(3) == 0 {
        // Multi-key joins take the composite-key path on both join implementations.
        on.push((random_column(rng, &ls), random_column(rng, &rs)));
    }
    let mut plan = left.hash_join(right, on);
    if rng.index(2) == 0 {
        let schema = plan.output_schema(catalog).expect("join schema");
        let column = random_column(rng, &schema);
        let dt = schema
            .position(&column)
            .map(|p| schema.attributes()[p].data_type)
            .unwrap_or(DataType::Int);
        let op = [CompareOp::Eq, CompareOp::Ne, CompareOp::Gt][rng.index(3)];
        plan = plan.select(Predicate::compare(column, op, random_value(rng, dt)));
    }
    plan
}

fn random_batch(rng: &mut TestRng, catalog: &Catalog) -> Vec<(Plan, Relation)> {
    let mut alias_seq = 0usize;
    let mut batch = Vec::new();
    for _ in 0..1 + rng.index(3) {
        let plan = random_join_plan(rng, catalog, &mut alias_seq);
        if let Ok(expected) = ReferenceExecutor::new(catalog).run(&plan) {
            batch.push((plan, expected));
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Budgeted DAG execution — budget 0 (spill everything), a random small budget, and an
    /// unbounded pool — is byte-identical to the reference evaluator, per plan and per row.
    #[test]
    fn spilled_execution_is_byte_identical_to_in_memory(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = random_catalog(&mut rng);
        let batch = random_batch(&mut rng, &catalog);
        if batch.is_empty() {
            return;
        }
        let budgets = [Some(0usize), Some(1 + rng.index(4096)), None];
        for budget in budgets {
            let pool = match budget {
                Some(bytes) => BufferPool::with_budget(bytes),
                None => BufferPool::unbounded(),
            };
            let mut exec = Executor::with_pool(&catalog, pool.clone());
            let mut dag = OperatorDag::new();
            let roots: Vec<_> = batch
                .iter()
                .map(|(plan, _)| dag.add_plan(&exec.bind(plan).expect("reference-accepted plan binds")))
                .collect();
            let run = DagScheduler::with_workers(1)
                .execute_roots(&dag, &roots, &mut exec, &mut Memo::default())
                .expect("budgeted batch executes");
            for ((plan, expected), got) in batch.iter().zip(&run.root_results) {
                let want_cols: Vec<&str> = expected.schema().attribute_names().collect();
                let got_cols: Vec<&str> = got.schema().attribute_names().collect();
                prop_assert_eq!(want_cols, got_cols, "schemas diverge for plan:\n{}", plan);
                prop_assert_eq!(
                    expected.rows(),
                    got.rows(),
                    "budget {:?} changed rows for plan:\n{}",
                    budget,
                    plan
                );
            }
            let stats = pool.stats();
            if budget.is_none() {
                // The never-spill fast path: no segment is ever written.
                prop_assert_eq!(stats.segments_written, 0);
                prop_assert_eq!(stats.spill_reloads, 0);
                prop_assert_eq!(exec.stats().grace_partitions, 0);
            } else if budget == Some(0) {
                // Budget 0 keeps nothing resident: whatever was staged went to segments.
                prop_assert_eq!(stats.cached_bytes, 0);
            }
        }
    }

    /// An epoch under a memory budget answers warm batches from spill-backed pins with the
    /// cold batch's exact bytes, executing nothing — on one worker or three.
    #[test]
    fn budgeted_epoch_warm_batches_are_byte_identical(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let catalog = random_catalog(&mut rng);
        let batch = random_batch(&mut rng, &catalog);
        if batch.is_empty() {
            return;
        }
        let budget = rng.index(2048);
        for workers in [1usize, 3] {
            let mut exec = Executor::new(&catalog);
            let mut epoch = EpochDag::with_memory_budget(budget);
            let mut run_once = |epoch: &mut EpochDag| {
                for (plan, _) in &batch {
                    epoch
                        .submit_with(fingerprint(plan), || exec.bind(plan))
                        .expect("plan binds");
                }
                epoch.execute_pending(&mut exec, workers).expect("batch executes")
            };
            let cold = run_once(&mut epoch);
            let cold_rows: Vec<Vec<Tuple>> = cold
                .root_results
                .iter()
                .map(|r| r.rows().to_vec())
                .collect();
            for ((_, expected), got) in batch.iter().zip(&cold.root_results) {
                prop_assert_eq!(expected.rows(), got.rows());
            }
            drop(cold); // drop every external Arc so warm answers must come through the pin set

            let warm = run_once(&mut epoch);
            prop_assert_eq!(warm.report.nodes_executed, 0, "warm batch re-executed");
            for (want, got) in cold_rows.iter().zip(&warm.root_results) {
                prop_assert_eq!(want, &got.rows().to_vec(), "warm reload changed rows");
            }
        }
    }
}
