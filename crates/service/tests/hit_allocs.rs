//! What an answer-cache hit allocates.  A hit is one probe: it builds no rendering of the query
//! (whose length would show up here — `sel:2` renders in 352 bytes, `join:3` in 808), no
//! channel (whose first block alone is larger than the bound below) and no batch.
//!
//! One test in this file, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use urm_core::TargetQuery;
use urm_datagen::replay::parse_spec;
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_service::{EpochId, QueryService, ServedFrom, ServiceConfig, Ticket};

/// The system allocator, counting the bytes asked of it.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is passed to `System` unchanged, which upholds `GlobalAlloc`'s contract;
// the counter is a statistic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HITS: usize = 1_000;

/// Mean bytes allocated by one `submit → wait` hit for `query`, over [`HITS`] of them.
fn bytes_per_hit(service: &QueryService, epoch: EpochId, query: &TargetQuery) -> f64 {
    let queries = vec![query.clone(); HITS];
    let before = ALLOCATED.load(Ordering::Relaxed);
    for query in queries {
        let response = service.submit(epoch, query).and_then(Ticket::wait).unwrap();
        assert_eq!(response.served_from, ServedFrom::AnswerCache);
    }
    (ALLOCATED.load(Ordering::Relaxed) - before) as f64 / HITS as f64
}

#[test]
fn a_hit_allocates_little_and_the_same_whatever_the_query_renders_to() {
    let scenario = Scenario::generate(&ScenarioConfig {
        target: TargetSchemaKind::Excel,
        scale: 4,
        mappings: 6,
        seed: 7,
    })
    .expect("scenario generation");
    let service = QueryService::new(ServiceConfig::default());
    let epoch = service.register_epoch(scenario.catalog, scenario.mappings);
    let small = parse_spec("sel:2").unwrap().query;
    let large = parse_spec("join:3").unwrap().query;
    assert_eq!(format!("{small:?}").len(), 352);
    assert_eq!(format!("{large:?}").len(), 808);
    service
        .execute_all(epoch, vec![small.clone(), large.clone()])
        .unwrap();
    let batches = service.metrics().batches;

    let (small, large) = (
        bytes_per_hit(&service, epoch, &small),
        bytes_per_hit(&service, epoch, &large),
    );
    // The LRU's recency index may split a B-tree node now and then: hence "less than 16".
    assert!(
        (small - large).abs() < 16.0,
        "sel:2 {small}, join:3 {large}"
    );
    assert!(small < 512.0 && large < 512.0, "{small} and {large} bytes");
    assert_eq!(
        service.metrics().batches,
        batches,
        "a hit dispatches nothing"
    );
}
