//! What planning a cold query, and building its catalog, allocates — and what a catalog holds.
//!
//! A plan names its columns and relations by shared names: cloning a plan, predicate or schema
//! bumps reference counts and copies no string, and the optimizer and binder allocate per plan
//! node, not per column.  These budgets catch a change that goes back to copying names.
//! Inserting a row relation into a catalog converts it to columns, reading its cells in place
//! and sizing each dictionary once, so it allocates per column, not per cell or per distinct
//! string; the catalog then holds the columns alone, and says so in its byte estimate.
//!
//! The counters are thread-local, so tests running in parallel never see each other's
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
use urm::storage::{Attribute, Catalog, ColumnView, DataType, Relation, Schema, Value};

/// The system allocator, counting the allocations each thread asks of it and the bytes they
/// hold until freed.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

// SAFETY: every call is passed to `System` unchanged, which upholds `GlobalAlloc`'s contract;
// the counters are statistics beside it, and a `const` thread-local never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + layout.size() as isize));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() - layout.size() as isize));
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

/// `f`'s result and the bytes this thread allocated while running it and had not freed when
/// it returned.
fn live_bytes<R>(f: impl FnOnce() -> R) -> (R, isize) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = f();
    (out, LIVE_BYTES.with(Cell::get) - before)
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

/// Allocations allowed per column for inserting a row relation of the cold batch into a
/// catalog, which converts it to columns.
///
/// Inserting every relation of the three catalogs as rows (24 relations, 138 columns, 111 of
/// them text) takes 924 allocations: a text dictionary is sized for every row at once, then
/// shrunk to its distinct strings (a shrunk vector or index is one allocation more), and the
/// relation, its view and its catalog entry take six more per relation.  Converting alone took
/// 888 when each dictionary sat behind an `Arc` of its own; when each column's cells were
/// first copied into a vector of values and each dictionary grew from empty, it took 1 422.
const CONVERT_BUDGET_PER_COLUMN: usize = 7;

#[test]
fn converting_the_cold_batch_catalogs_allocates_per_column() {
    let (mut allocations, mut columns) = (0, 0);
    for target in TARGETS {
        let Scenario { catalog, .. } = scenario(target);
        let mut rebuilt = Catalog::new();
        for (_, relation) in catalog.iter() {
            let rows =
                Relation::from_validated(relation.schema().clone(), relation.rows().to_vec());
            let ((), count) = counted(|| rebuilt.insert(rows));
            let converted = rebuilt.get(relation.schema().name()).unwrap();
            assert_eq!(converted.len(), relation.len());
            assert!(converted.view().and_then(ColumnView::as_base).is_some());
            allocations += count;
            columns += converted.schema().arity();
        }
    }
    assert_eq!(columns, 138, "the columns of the cold batch's catalogs");
    assert!(
        allocations <= CONVERT_BUDGET_PER_COLUMN * columns,
        "{allocations} allocations for {columns} columns"
    );
}

/// A catalog of wide relations — two thirds of their columns text over a few strings each —
/// holds its columns and nothing else: the bytes it keeps allocated are within 1.2× of what
/// its columns weigh (with each row also held as `Value`s, it would be several times that),
/// and its own byte estimate is within 10 % of them.
#[test]
fn a_catalog_holds_one_copy_of_its_data_and_says_how_big_it_is() {
    let kind = |c: usize| [DataType::Int, DataType::Text, DataType::Text][c % 3];
    let cell = |i: usize, c: usize| match kind(c) {
        DataType::Int => Value::from((i * c) as i64),
        _ => Value::text(format!("value {} of column {c}", (i + c) % 10)),
    };
    let (catalog, live) = live_bytes(|| {
        let mut catalog = Catalog::new();
        for r in 0..8 {
            let attrs = (0..12).map(|c| Attribute::new(format!("r{r}_c{c}"), kind(c)));
            let schema = Schema::new(format!("Wide{r}"), attrs.collect());
            let rows = (0..4_096).map(|i| (0..12).map(|c| cell(i, c)).collect());
            catalog.insert(Relation::new(schema, rows.collect()).unwrap());
        }
        catalog
    });
    let live = live as usize;
    let base = |relation: &Relation| relation.view().and_then(ColumnView::as_base).cloned();
    let columns: usize = (catalog.iter())
        .map(|(_, relation)| base(relation).expect("held as columns").estimated_bytes())
        .sum();
    assert_eq!(catalog.estimated_bytes(), columns);
    assert!(
        live * 10 <= columns * 12,
        "{live} bytes held for {columns} of columns"
    );
    assert!(
        columns.abs_diff(live) * 10 <= live,
        "{columns} bytes estimated, {live} held"
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
