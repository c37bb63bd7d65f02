//! What planning a cold query, and converting its catalog, allocates.
//!
//! A plan names its columns and relations by shared names: cloning a plan, predicate or schema
//! bumps reference counts and copies no string, and the optimizer and binder allocate per plan
//! node, not per column.  These budgets catch a change that goes back to copying names.
//! Converting a base relation to columns reads its cells in place and sizes each dictionary
//! once, so it allocates per column, not per cell or per distinct string.
//!
//! The counter is thread-local, so tests running in parallel never see each other's
//! allocations.

mod cold_batch;

use cold_batch::{scenario, SPECS, TARGETS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use urm::core::reformulate::{partitioned_reformulations, reformulate, Reformulated, SourceQuery};
use urm::core::{evaluate, Algorithm};
use urm::datagen::replay::parse_spec;
use urm::datagen::scenario::{Scenario, TargetSchemaKind};
use urm::engine::optimize::optimize;
use urm::engine::{Executor, Plan};
use urm::storage::{Attribute, ColumnarRelation, DataType, Schema};

/// The system allocator, counting the allocations each thread asks of it.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is passed to `System` unchanged, which upholds `GlobalAlloc`'s contract;
// the counter is a statistic beside it, and a `const` thread-local never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made while running it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Optimise-and-bind allocations allowed per distinct source query of the cold batch.
const PLAN_BUDGET: usize = 110;

/// Allocations allowed for one `basic` pass over the cold batch's distinct specs: reformulating,
/// optimising, binding, executing and aggregating once per mapping, 360 times in all.
const BASIC_BUDGET: usize = 119_000;

#[test]
fn optimising_and_binding_the_cold_batch_allocates_per_node_not_per_column() {
    let (mut allocations, mut source_queries) = (0, 0);
    for target in TARGETS {
        // A fresh catalog: nothing about its scans is memoised yet, as in a new epoch.
        let Scenario {
            catalog, mappings, ..
        } = scenario(target);
        // The batch's distinct source queries, each once, as an epoch binds them.
        let mut seen = HashSet::new();
        let plans: Vec<Plan> = SPECS
            .iter()
            .map(|spec| parse_spec(spec).unwrap())
            .filter(|entry| entry.target == target)
            .flat_map(|entry| {
                partitioned_reformulations(&entry.query, &mappings, &catalog)
                    .unwrap()
                    .clusters
            })
            .filter(|cluster| seen.insert(cluster.fingerprint))
            .map(|cluster| cluster.query.plan)
            .collect();
        let binder = Executor::new(&catalog);
        let (bound, count) = counted(|| {
            plans
                .iter()
                .map(|plan| binder.bind(&optimize(plan, &catalog)?))
                .collect::<Result<Vec<_>, _>>()
        });
        bound.unwrap();
        allocations += count;
        source_queries += plans.len();
    }
    assert_eq!(
        source_queries, 31,
        "the cold batch's distinct source queries"
    );
    let per_query = allocations / source_queries;
    assert!(
        per_query <= PLAN_BUDGET,
        "{allocations} allocations for {source_queries} source queries: {per_query} each"
    );
}

#[test]
fn a_basic_pass_over_the_cold_batch_stays_within_its_budget() {
    let (mut allocations, mut specs) = (0, Vec::new());
    for target in TARGETS {
        let Scenario {
            catalog, mappings, ..
        } = scenario(target);
        for spec in SPECS {
            let entry = parse_spec(spec).unwrap();
            if entry.target != target || specs.contains(&spec) {
                continue;
            }
            specs.push(spec);
            let (evaluation, count) =
                counted(|| evaluate(&entry.query, &mappings, &catalog, Algorithm::Basic));
            evaluation.unwrap();
            allocations += count;
        }
    }
    assert_eq!(specs.len(), 12, "the cold batch's distinct specs");
    assert!(
        allocations <= BASIC_BUDGET,
        "{allocations} allocations for one basic pass"
    );
}

/// Allocations allowed per column for converting a base relation of the cold batch to columns.
///
/// Converting every relation of the three fresh catalogs (24 relations, 138 columns, 111 of
/// them text) takes 888 allocations: a text dictionary is sized for every row at once, then
/// shrunk to its distinct strings (a shrunk vector or index is one allocation more).  When
/// each column's cells were first copied into a vector of values and each dictionary grew from
/// empty, it took 1 422; growing from empty without the copy takes 1 617.
const CONVERT_BUDGET_PER_COLUMN: usize = 7;

#[test]
fn converting_the_cold_batch_catalogs_allocates_per_column() {
    let (mut allocations, mut columns) = (0, 0);
    for target in TARGETS {
        let Scenario { catalog, .. } = scenario(target);
        for (_, relation) in catalog.iter() {
            let (converted, count) = counted(|| ColumnarRelation::from_relation(relation));
            assert_eq!(converted.len(), relation.len());
            allocations += count;
            columns += converted.arity();
        }
    }
    assert_eq!(columns, 138, "the columns of the cold batch's catalogs");
    assert!(
        allocations <= CONVERT_BUDGET_PER_COLUMN * columns,
        "{allocations} allocations for {columns} columns"
    );
}

#[test]
fn cloning_a_plan_or_multiplying_schemas_copies_no_name() {
    let Scenario {
        catalog, mappings, ..
    } = scenario(TargetSchemaKind::Excel);
    let query = parse_spec("Q4").unwrap().query;
    let Reformulated::Query(SourceQuery { plan, .. }) =
        reformulate(&query, &mappings.mappings()[0], &catalog).unwrap()
    else {
        panic!("Q4 reformulates through the top mapping");
    };
    // A plan clone allocates its boxes and vectors: one per node, one per column list.
    let nodes = plan.node_count();
    let lists = plan
        .subplans()
        .iter()
        .filter(|p| matches!(p, Plan::Project { .. } | Plan::HashJoin { .. }))
        .count();
    let (copy, count) = counted(|| plan.clone());
    assert_eq!(copy, plan);
    assert!(
        count <= nodes + lists,
        "{count} allocations for {nodes} nodes"
    );

    let wide = |name: &str| {
        let attrs = (0..8)
            .map(|i| Attribute::new(format!("{name}.attribute_{i}"), DataType::Int))
            .collect();
        Schema::new(name, attrs)
    };
    let (left, right) = (wide("Left"), wide("Right"));
    let (product, count) = counted(|| left.product(&right));
    assert_eq!(product.arity(), 16);
    assert!(count <= 2, "{count} allocations for a 16-attribute product");
}
