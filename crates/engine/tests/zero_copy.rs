//! Regression tests proving that the per-epoch DAG hands out *views*, never copies.
//!
//! The paper's whole contribution is sharing work across the reformulated queries of an
//! uncertain mapping; these tests pin down that the execution layer does not silently undo
//! that sharing by re-materialising cached results.  Every assertion is on pointer identity
//! (`Arc::ptr_eq` / row-buffer identity), not on value equality.

use std::sync::Arc;
use urm_engine::{EngineResult, EpochDag, Executor, Plan, Predicate};
use urm_storage::{Attribute, Catalog, DataType, Relation, Schema, Tuple, Value};

fn catalog() -> Catalog {
    let customer = Relation::new(
        Schema::new(
            "Customer",
            vec![
                Attribute::new("cid", DataType::Int),
                Attribute::new("city", DataType::Text),
            ],
        ),
        (0..40)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(i as i64),
                    Value::from(if i % 2 == 0 { "hk" } else { "sz" }),
                ])
            })
            .collect(),
    )
    .unwrap();
    let orders = Relation::new(
        Schema::new(
            "Orders",
            vec![
                Attribute::new("oid", DataType::Int),
                Attribute::new("ocid", DataType::Int),
            ],
        ),
        (0..60)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(1000 + i as i64),
                    Value::from((i % 40) as i64),
                ])
            })
            .collect(),
    )
    .unwrap();
    let mut cat = Catalog::new();
    cat.insert(customer);
    cat.insert(orders);
    cat
}

/// Binds `plan` and resolves it on the epoch, as the o-sharing u-trace does at every step.
fn resolve(
    epoch: &mut EpochDag,
    plan: &Plan,
    exec: &mut Executor<'_>,
) -> EngineResult<Arc<Relation>> {
    let physical = exec.bind(plan)?;
    epoch.resolve(&physical, exec)
}

#[test]
fn cache_hits_are_pointer_identical_and_copy_nothing() {
    let cat = catalog();
    let mut epoch = EpochDag::pinning_all();
    let mut exec = Executor::new(&cat);

    let plan = Plan::scan("Customer")
        .select(Predicate::eq("Customer.city", Value::from("hk")))
        .hash_join(
            Plan::scan("Orders"),
            vec![("Customer.cid".into(), "Orders.ocid".into())],
        )
        .project(vec!["Orders.oid".into()]);

    let first = resolve(&mut epoch, &plan, &mut exec).unwrap();
    let scans_after_first = exec.stats().scans;
    let ops_after_first = exec.stats().operators_executed;

    let second = resolve(&mut epoch, &plan, &mut exec).unwrap();
    // The hit is the stored allocation itself — not an equal copy.
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(first.storage_id(), second.storage_id());
    // And it cost zero additional executor work.
    assert_eq!(exec.stats().scans, scans_after_first);
    assert_eq!(exec.stats().operators_executed, ops_after_first);
}

#[test]
fn cached_scans_are_views_of_the_base_relation() {
    let cat = catalog();
    let mut epoch = EpochDag::pinning_all();
    let mut exec = Executor::new(&cat);

    let scan_result = resolve(&mut epoch, &Plan::scan("Customer"), &mut exec).unwrap();
    assert_eq!(
        scan_result.storage_id(),
        cat.get("Customer").unwrap().storage_id(),
        "a cached scan must share the base relation's storage"
    );

    // A second query whose prefix is the scan reuses the very same view.
    let sel = Plan::scan("Customer").select(Predicate::eq("Customer.city", Value::from("hk")));
    resolve(&mut epoch, &sel, &mut exec).unwrap();
    assert_eq!(exec.stats().scans, 1, "the scan must not re-execute");
    assert!(epoch.result_hits() >= 1);
}

#[test]
fn shared_values_leaves_flow_through_without_materialising() {
    // o-sharing feeds intermediate results forward as shared `Values` leaves; a plan over such
    // a leaf must consume the buffer by reference.
    let cat = catalog();
    let mut epoch = EpochDag::pinning_all();
    let mut exec = Executor::new(&cat);

    let intermediate = resolve(
        &mut epoch,
        &Plan::scan("Customer").select(Predicate::eq("Customer.city", Value::from("hk"))),
        &mut exec,
    )
    .unwrap();

    // Resolving the bare leaf returns the shared relation itself.
    let leaf = Plan::values_shared(Arc::clone(&intermediate));
    let out = resolve(&mut epoch, &leaf, &mut exec).unwrap();
    assert!(Arc::ptr_eq(&out, &intermediate));

    // An operator over the leaf sees the same buffer as its input (rows_shared accounts it).
    let shared_before = exec.stats().rows_shared;
    let filtered = resolve(
        &mut epoch,
        &Plan::values_shared(Arc::clone(&intermediate))
            .select(Predicate::eq("Customer.city", Value::from("hk"))),
        &mut exec,
    )
    .unwrap();
    assert_eq!(filtered.len(), intermediate.len());
    assert!(
        exec.stats().rows_shared >= shared_before,
        "Values leaves are accounted as shared views"
    );
}

#[test]
fn full_osharing_style_run_performs_zero_relation_deep_copies() {
    // Drive a whole batch of overlapping queries (the o-sharing execution shape: shared scan
    // prefixes, selections, a join, projections) through one epoch and prove the clone
    // elimination end-to-end: every scanned row is accounted as shared, and repeated queries
    // return pointer-identical answers.
    let cat = catalog();
    let mut epoch = EpochDag::pinning_all();
    let mut exec = Executor::new(&cat);

    let base = Plan::scan("Customer").select(Predicate::eq("Customer.city", Value::from("hk")));
    let queries = vec![
        base.clone().project(vec!["Customer.cid".into()]),
        base.clone().project(vec!["Customer.city".into()]),
        base.clone().hash_join(
            Plan::scan("Orders"),
            vec![("Customer.cid".into(), "Orders.ocid".into())],
        ),
        base.clone().project(vec!["Customer.cid".into()]), // exact repeat of the first
    ];

    let mut results = Vec::new();
    for q in &queries {
        results.push(resolve(&mut epoch, q, &mut exec).unwrap());
    }

    // The repeat is the same allocation as the first answer.
    assert!(Arc::ptr_eq(&results[0], &results[3]));
    // Both base relations were scanned exactly once across the whole run…
    assert_eq!(exec.stats().scans, 2);
    // …and every scanned row was handed out as a shared view, never copied.
    let base_rows = (cat.get("Customer").unwrap().len() + cat.get("Orders").unwrap().len()) as u64;
    assert_eq!(exec.stats().rows_shared, base_rows);
}
