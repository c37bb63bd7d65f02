//! End-to-end HTTP tests: a real server on a loopback port, real sockets, hostile inputs.
//!
//! Covers the front-door contract: happy paths for every endpoint, malformed request lines,
//! oversized bodies, truncated JSON, slow-loris partial headers hitting the read timeout,
//! concurrent clients receiving byte-identical answers, admission rejections (queue full and
//! per-client throttle), failed queries as 5xx, HTTP/1.0 and `connection: close` peers, and the
//! draining shutdown; and bodies built to cost the JSON reader more than they weigh.

use std::time::Duration;
use urm_core::prelude::MappingSet;
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_server::{AdmissionConfig, AdmissionController, HttpClient, Json, UrmServer};
use urm_service::{QueryService, ServiceConfig};
use urm_storage::Catalog;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

fn scenario() -> Scenario {
    Scenario::generate(&ScenarioConfig {
        target: TargetSchemaKind::Excel,
        scale: 4,
        mappings: 6,
        seed: 7,
    })
    .expect("scenario generation")
}

/// A small Excel scenario served on an OS-assigned loopback port.
fn start_server(admission: AdmissionConfig) -> UrmServer {
    let scenario = scenario();
    serve(scenario.catalog, scenario.mappings, admission)
}

/// A server whose one epoch cannot evaluate anything: the scenario's mappings over an empty
/// catalog, so every source query names a relation that is not there.
fn start_broken_server() -> UrmServer {
    let mappings = scenario().mappings;
    serve(Catalog::new(), mappings, AdmissionConfig::default())
}

fn serve(catalog: Catalog, mappings: MappingSet, admission: AdmissionConfig) -> UrmServer {
    let service = QueryService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let epoch = service.register_epoch(catalog, mappings);
    UrmServer::start(
        "127.0.0.1:0",
        service,
        vec![(TargetSchemaKind::Excel, epoch)],
        AdmissionController::new(admission),
    )
    .expect("server start")
}

fn connect(server: &UrmServer) -> HttpClient {
    HttpClient::connect(server.addr(), CLIENT_TIMEOUT).expect("connect")
}

#[test]
fn healthz_metrics_query_and_batch_round_trip() {
    let server = start_server(AdmissionConfig::default());
    let mut client = connect(&server);

    let health = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    let doc = Json::parse(&health.body).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(doc.get("epochs").and_then(Json::as_arr).unwrap().len(), 1);
    assert!(
        doc.get("shards").is_none(),
        "an epoch runs on one DAG: no shard count"
    );

    // One query, on the same keep-alive connection.
    let one = client
        .request("POST", "/query", Some("{\"spec\": \"Q1\"}"))
        .unwrap();
    assert_eq!(one.status, 200);
    // One answer, so one fixed-length response: no chunk framing.
    let length = one.body.len().to_string();
    assert_eq!(one.header("content-length"), Some(length.as_str()));
    assert_eq!(one.header("transfer-encoding"), None);
    let doc = Json::parse(&one.body).unwrap();
    let answer = doc.get("answer").expect("answer object");
    assert_eq!(answer.get("label").and_then(Json::as_str), Some("Q1"));
    assert!(answer
        .get("empty_probability")
        .and_then(Json::as_f64)
        .is_some());
    assert_eq!(
        doc.get("served_from").and_then(Json::as_str),
        Some("evaluated")
    );

    // A batch; its chunked body reassembles into one JSON document.
    let batch = client
        .request(
            "POST",
            "/batch",
            Some("{\"specs\": [\"Q1\", \"Q2\", \"join:2\"]}"),
        )
        .unwrap();
    assert_eq!(batch.status, 200);
    assert_eq!(batch.header("transfer-encoding"), Some("chunked"));
    let doc = Json::parse(&batch.body).unwrap();
    let answers = doc.get("answers").and_then(Json::as_arr).unwrap();
    assert_eq!(answers.len(), 3);
    assert_eq!(answers[0].get("label").and_then(Json::as_str), Some("Q1"));

    // The same query again is an answer-cache hit, with the identical answer rendering.
    let two = client
        .request("POST", "/query", Some("{\"spec\": \"Q1\"}"))
        .unwrap();
    let redoc = Json::parse(&two.body).unwrap();
    assert_eq!(
        redoc.get("served_from").and_then(Json::as_str),
        Some("answer-cache")
    );
    assert_eq!(
        redoc.get("answer").unwrap().to_string(),
        doc.get("answers").and_then(Json::as_arr).unwrap()[0].to_string()
    );

    // The JSON snapshot moved to /metrics.json (GET /metrics is Prometheus text now).
    let metrics = client.request("GET", "/metrics.json", None).unwrap();
    assert_eq!(metrics.status, 200);
    let doc = Json::parse(&metrics.body).unwrap();
    assert!(doc.get("queries_submitted").and_then(Json::as_f64).unwrap() >= 5.0);
    assert!(doc.get("answer_cache_hits").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(doc.get("in_flight_units").and_then(Json::as_f64), Some(0.0));
    // Durations are normalised *_ns fields; the legacy millisecond duplicates are gone.
    let Json::Obj(entries) = &doc else {
        panic!("/metrics.json is not an object")
    };
    assert!(!entries.iter().any(|(key, _)| key.ends_with("_ms")));
    assert!(doc.get("batch_time_ns").and_then(Json::as_f64).is_some());
    server.shutdown();
}

#[test]
fn unknown_paths_methods_and_unserved_targets_are_refused() {
    let server = start_server(AdmissionConfig::default());
    let mut client = connect(&server);
    assert_eq!(client.request("GET", "/nope", None).unwrap().status, 404);
    assert_eq!(
        client.request("DELETE", "/query", None).unwrap().status,
        405
    );
    // Q6 targets the Noris schema, which this server does not serve.
    let refused = client
        .request("POST", "/query", Some("{\"spec\": \"Q6\"}"))
        .unwrap();
    assert_eq!(refused.status, 400);
    assert!(refused.body.contains("not served"));
    server.shutdown();
}

#[test]
fn malformed_request_lines_get_400() {
    let server = start_server(AdmissionConfig::default());
    for raw in [
        "GARBAGE\r\n\r\n",
        "GET nopath HTTP/1.1\r\n\r\n",
        "GET /healthz SMTP/1.0\r\n\r\n",
        "POST /query HTTP/1.1\r\nno-colon-header\r\n\r\n",
        "POST /query HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
    ] {
        let mut client = connect(&server);
        let response = client.send_raw(raw.as_bytes()).expect(raw);
        assert_eq!(response.status, 400, "request: {raw:?}");
    }
    server.shutdown();
}

#[test]
fn oversized_bodies_get_413_before_the_body_is_read() {
    let server = start_server(AdmissionConfig {
        max_body_bytes: 64,
        ..AdmissionConfig::default()
    });
    let mut client = connect(&server);
    // Only the head is sent: the 413 must arrive without the server waiting for the body.
    let response = client
        .send_raw(b"POST /query HTTP/1.1\r\ncontent-length: 100000\r\n\r\n")
        .unwrap();
    assert_eq!(response.status, 413);
    assert!(response.body.contains("100000"));
    server.shutdown();
}

#[test]
fn truncated_and_invalid_json_bodies_get_400() {
    let server = start_server(AdmissionConfig::default());
    for body in [
        "{\"spec\": \"Q1\"",   // truncated
        "{\"spec\": 42}",      // wrong type
        "{\"nope\": \"Q1\"}",  // wrong key
        "{\"spec\": \"Q99\"}", // unknown spec
        "not json at all",     // not JSON
        "\u{fffd}",            // valid UTF-8, still not JSON
    ] {
        let mut client = connect(&server);
        let response = client.request("POST", "/query", Some(body)).unwrap();
        assert_eq!(response.status, 400, "body: {body:?}");
    }
    // Batch-shaped errors.
    let mut client = connect(&server);
    let response = client
        .request("POST", "/batch", Some("{\"specs\": []}"))
        .unwrap();
    assert_eq!(response.status, 400);
    server.shutdown();
}

/// Two bodies that cost the reader nothing it was not sent: ten thousand unclosed arrays are
/// refused at the 65th, and a megabyte of one string is read in one pass and quoted back in
/// 64 bytes.  The process is there afterwards, with nothing in flight.
#[test]
fn deeply_nested_and_megabyte_bodies_get_400_and_the_server_keeps_serving() {
    let server = start_server(AdmissionConfig::default());
    let expected = connect(&server)
        .request("POST", "/query", Some("{\"spec\": \"Q1\"}"))
        .unwrap();
    assert_eq!(expected.status, 200);

    let nested = connect(&server)
        .request("POST", "/query", Some(&"[".repeat(10_000)))
        .unwrap();
    assert_eq!(nested.status, 400);
    assert!(nested.body.contains("nesting deeper than 64"), "{nested:?}");

    let spec = "a".repeat(AdmissionConfig::default().max_body_bytes - 16);
    let started = std::time::Instant::now();
    let megabyte = connect(&server)
        .request("POST", "/query", Some(&format!("{{\"spec\": \"{spec}\"}}")))
        .unwrap();
    assert_eq!(megabyte.status, 400);
    assert!(megabyte.body.len() < 200, "{} bytes", megabyte.body.len());
    assert!(megabyte.body.contains(&format!("'{}…'", &spec[..64])));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "a 1 MiB body held its connection for {:?}",
        started.elapsed()
    );

    // A new connection is served the same answer as before, from the cache.
    let mut client = connect(&server);
    let again = client
        .request("POST", "/query", Some("{\"spec\": \"Q1\"}"))
        .unwrap();
    assert_eq!(again.status, 200);
    let answer = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("answer")
            .unwrap()
            .to_string()
    };
    assert_eq!(answer(&again.body), answer(&expected.body));
    let health = client.request("GET", "/healthz", None).unwrap();
    let doc = Json::parse(&health.body).unwrap();
    assert_eq!(doc.get("in_flight_units").and_then(Json::as_f64), Some(0.0));
    drop(client);
    server.shutdown();
}

#[test]
fn a_failed_query_is_a_5xx_and_releases_its_permit() {
    let server = start_broken_server();
    let mut client = connect(&server);
    let failed = client
        .request("POST", "/query", Some("{\"spec\": \"Q1\"}"))
        .unwrap();
    assert_eq!(failed.status, 500, "body: {}", failed.body);
    let doc = Json::parse(&failed.body).unwrap();
    assert!(doc.get("error").and_then(Json::as_str).is_some());
    assert!(doc.get("answer").is_none());

    // A batch still answers 200: each failed query is an error object in its answer's place.
    let batch = client
        .request("POST", "/batch", Some("{\"specs\": [\"Q1\", \"Q2\"]}"))
        .unwrap();
    assert_eq!(batch.status, 200);
    let doc = Json::parse(&batch.body).unwrap();
    let answers = doc.get("answers").and_then(Json::as_arr).unwrap();
    assert_eq!(answers.len(), 2);
    assert!(answers.iter().all(|a| a.get("error").is_some()));

    // Both requests gave their admission units back; the connection is still usable.
    let health = client.request("GET", "/healthz", None).unwrap();
    let doc = Json::parse(&health.body).unwrap();
    assert_eq!(doc.get("in_flight_units").and_then(Json::as_f64), Some(0.0));
    drop(client); // or the drain waits out this idle connection's read timeout
    server.shutdown();
}

fn raw_post(path: &str, version: &str, extra_header: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} {version}\r\nhost: urm\r\n{extra_header}content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[test]
fn http10_peers_get_fixed_length_replies_and_a_closed_connection() {
    let server = start_server(AdmissionConfig::default());
    let specs = "{\"specs\": [\"Q1\", \"Q2\", \"join:2\"]}";
    let chunked = connect(&server)
        .request("POST", "/batch", Some(specs))
        .unwrap();
    assert_eq!(chunked.header("transfer-encoding"), Some("chunked"));

    // The same batch from a 1.0 peer: gathered, framed by content-length, same bytes.
    let mut client = connect(&server);
    let gathered = client
        .send_raw(&raw_post("/batch", "HTTP/1.0", "", specs))
        .unwrap();
    assert_eq!(gathered.status, 200);
    assert_eq!(gathered.header("transfer-encoding"), None);
    let length = gathered.body.len().to_string();
    assert_eq!(gathered.header("content-length"), Some(length.as_str()));
    assert_eq!(gathered.header("connection"), Some("close"));
    assert_eq!(gathered.body, chunked.body);
    // ... and the server hung up: the connection takes no second request.
    assert!(client.request("GET", "/healthz", None).is_err());
    server.shutdown();
}

#[test]
fn connection_close_is_honoured_on_every_endpoint() {
    let server = start_server(AdmissionConfig::default());
    for (path, body) in [
        ("/query", "{\"spec\": \"Q1\"}"),
        ("/batch", "{\"specs\": [\"Q1\"]}"),
        ("/nope", ""),
    ] {
        let mut client = connect(&server);
        let response = client
            .send_raw(&raw_post(path, "HTTP/1.1", "Connection: Close\r\n", body))
            .unwrap();
        assert_eq!(response.header("connection"), Some("close"), "{path}");
        // A 1.1 peer can frame chunks, so `/batch` still streams — then the server hangs up.
        let streamed = response.header("transfer-encoding") == Some("chunked");
        assert_eq!(streamed, path == "/batch", "{path}");
        assert!(client.request("GET", "/healthz", None).is_err(), "{path}");
    }
    // Without the header the connection stays open and says nothing about closing.
    let mut client = connect(&server);
    let kept = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(kept.header("connection"), None);
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    drop(client);
    server.shutdown();
}

#[test]
fn slow_loris_partial_headers_hit_the_read_timeout() {
    let server = start_server(AdmissionConfig {
        read_timeout: Duration::from_millis(200),
        ..AdmissionConfig::default()
    });
    let mut client = connect(&server);
    // Send half a request head and stall; the server must give up on us, not hang.
    let started = std::time::Instant::now();
    let response = client
        .send_raw(b"POST /query HTTP/1.1\r\ncontent-le")
        .unwrap();
    assert_eq!(response.status, 408);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "server held a slow-loris connection for {:?}",
        started.elapsed()
    );
    server.shutdown();
}

#[test]
fn concurrent_clients_get_byte_identical_answers() {
    let server = start_server(AdmissionConfig::default());
    let body = "{\"specs\": [\"Q1\", \"Q2\", \"Q3\", \"sel:2\", \"join:2\"]}";

    // Sequential baseline first, on its own connection.
    let baseline = connect(&server)
        .request("POST", "/batch", Some(body))
        .unwrap();
    assert_eq!(baseline.status, 200);

    // Eight concurrent clients replaying the same batch must all get the same bytes —
    // regardless of batching, dedup, answer-cache state or scheduling.
    let addr = server.addr();
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr, CLIENT_TIMEOUT).unwrap();
                    let response = client.request("POST", "/batch", Some(body)).unwrap();
                    assert_eq!(response.status, 200);
                    response.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for got in &bodies {
        assert_eq!(got, &baseline.body);
    }
    server.shutdown();
}

#[test]
fn full_admission_queue_gets_429_with_retry_after() {
    let server = start_server(AdmissionConfig {
        queue_capacity: 0,
        retry_after_secs: 3,
        ..AdmissionConfig::default()
    });
    let mut client = connect(&server);
    let response = client
        .request("POST", "/query", Some("{\"spec\": \"Q1\"}"))
        .unwrap();
    assert_eq!(response.status, 429);
    assert_eq!(response.header("retry-after"), Some("3"));
    assert!(response.body.contains("queue full"));
    server.shutdown();
}

#[test]
fn dry_token_bucket_gets_429_and_refills() {
    let server = start_server(AdmissionConfig {
        burst: 1.0,
        refill_per_sec: 50.0,
        ..AdmissionConfig::default()
    });
    let mut client = connect(&server);
    let first = client
        .request("POST", "/query", Some("{\"spec\": \"Q1\"}"))
        .unwrap();
    assert_eq!(first.status, 200);
    // The bucket is dry (or nearly): a burst of requests must hit 429 at least once.
    let mut throttled = false;
    for _ in 0..20 {
        let response = client
            .request("POST", "/query", Some("{\"spec\": \"Q1\"}"))
            .unwrap();
        match response.status {
            429 => {
                assert_eq!(response.header("retry-after"), Some("1"));
                throttled = true;
                break;
            }
            200 => continue,
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(
        throttled,
        "a 1-token bucket never throttled 20 rapid queries"
    );
    // And the refill lets the same client back in.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let response = client
            .request("POST", "/query", Some("{\"spec\": \"Q1\"}"))
            .unwrap();
        if response.status == 200 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "bucket never refilled"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown();
}

#[test]
fn shutdown_drains_and_closes_the_listener() {
    let server = start_server(AdmissionConfig::default());
    let addr = server.addr();
    let mut client = connect(&server);
    let response = client
        .request("POST", "/query", Some("{\"spec\": \"Q1\"}"))
        .unwrap();
    assert_eq!(response.status, 200);
    server.shutdown();
    // The listener is gone: new connections are refused outright or die on first use.
    let refused = match HttpClient::connect(addr, Duration::from_millis(500)) {
        Err(_) => true,
        Ok(mut client) => client.request("GET", "/healthz", None).is_err(),
    };
    assert!(refused, "listener still serving after shutdown");
}
