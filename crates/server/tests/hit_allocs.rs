//! What one `/query` answer-cache hit allocates through the server: reading the request,
//! resolving its spec, admitting it, submitting it and writing the response.
//!
//! The allocator counts every allocation of the process.  The client below writes a request
//! that is built once and reads the response into a buffer sized once, so after warm-up it
//! allocates nothing itself, and the server's accept thread and the service's workers are
//! blocked while the hit is served: what is counted is the connection thread's work.  One
//! test in this file, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_server::{AdmissionConfig, AdmissionController, UrmServer};
use urm_service::{QueryService, ServiceConfig};

/// The system allocator, counting the allocations asked of it.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is passed to `System` unchanged, which upholds `GlobalAlloc`'s contract;
// the counter is a statistic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Allocations allowed for one hit.  A server that read each request into new buffers and
/// built the spec's query anew made 46 per hit of this request: the request line, the method,
/// the path, two per header, the body, the JSON tree, the query and its key.  One that reads
/// into the connection's buffers and submits the key it built at start makes 6: the body's
/// JSON tree (an object, its key and its string) and three short vectors of specs and tickets.
const HIT_BUDGET: usize = 10;

const HITS: usize = 200;

/// Sends `request` and reads the whole response into `response`, which is cleared first and
/// grows only if a response is longer than any before it.  Returns the status.
fn round_trip(stream: &mut TcpStream, request: &[u8], response: &mut Vec<u8>) -> u16 {
    stream.write_all(request).unwrap();
    response.clear();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "the server closed the connection");
        response.extend_from_slice(&chunk[..n]);
        let Some(head_end) = response.windows(4).position(|w| w == b"\r\n\r\n") else {
            continue;
        };
        let head = std::str::from_utf8(&response[..head_end]).unwrap();
        let length: usize = head
            .lines()
            .find_map(|line| line.strip_prefix("content-length: "))
            .expect("a fixed-length response")
            .parse()
            .unwrap();
        if response.len() >= head_end + 4 + length {
            assert_eq!(response.len(), head_end + 4 + length, "one response");
            return head[9..12].parse().unwrap();
        }
    }
}

#[test]
fn a_query_hit_through_the_server_allocates_under_its_budget() {
    let scenario = Scenario::generate(&ScenarioConfig {
        target: TargetSchemaKind::Excel,
        scale: 4,
        mappings: 6,
        seed: 7,
    })
    .expect("scenario generation");
    let service = QueryService::new(ServiceConfig::default());
    let epoch = service.register_epoch(scenario.catalog, scenario.mappings);
    let server = UrmServer::start(
        "127.0.0.1:0",
        service,
        vec![(TargetSchemaKind::Excel, epoch)],
        AdmissionController::new(AdmissionConfig::default()),
    )
    .expect("server start");
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.set_nodelay(true).unwrap();

    // The request the benchmark client sends, for a spec with a small answer.
    let body = "{\"spec\":\"Q1\"}";
    let request = format!(
        "POST /query HTTP/1.1\r\nhost: urm\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut response = Vec::with_capacity(64 * 1024);
    // Warm-up: the first request evaluates Q1, the rest are hits that size every buffer.
    for _ in 0..20 {
        assert_eq!(
            round_trip(&mut stream, request.as_bytes(), &mut response),
            200
        );
    }
    let text = String::from_utf8_lossy(&response);
    assert!(text.contains("\"served_from\":\"answer-cache\""), "{text}");
    assert!(text.len() < 4096, "a small answer: {} bytes", text.len());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..HITS {
        round_trip(&mut stream, request.as_bytes(), &mut response);
    }
    let per_hit = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / HITS as f64;
    let text = String::from_utf8_lossy(&response);
    assert!(text.contains("\"served_from\":\"answer-cache\""), "{text}");
    assert!(
        per_hit <= HIT_BUDGET as f64,
        "{per_hit} allocations per hit, budget {HIT_BUDGET}"
    );
    drop(stream);
    server.shutdown();
}
