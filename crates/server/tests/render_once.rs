//! An answer is rendered in full once, however often it is served — and never built: between
//! the DAG roots and the socket it is rows of value ids, ranked and rendered from per-value
//! fragments.
//!
//! [`full_renders`] counts misses of the per-answer render memo and [`tuples_materialized`]
//! the `Tuple`s built out of answers, both process-wide, so this file holds a single test:
//! nothing else in its process renders, or asks an answer for its tuples.

use std::time::Duration;
use urm_core::answer::tuples_materialized;
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_server::wire::full_renders;
use urm_server::{AdmissionConfig, AdmissionController, HttpClient, Json, UrmServer};
use urm_service::{QueryService, ServiceConfig};

#[test]
fn repeats_of_an_answer_are_served_from_its_first_rendering() {
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
    let mut client = HttpClient::connect(server.addr(), Duration::from_secs(20)).unwrap();
    let mut post = |path: &str, body: &str| {
        let response = client.request("POST", path, Some(body)).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        Json::parse(&response.body).unwrap()
    };
    let (before, built) = (full_renders(), tuples_materialized());

    // evaluated → answer-cache → answer-cache: one rendering, three identical answers.
    let mut answers = Vec::new();
    for served_from in ["evaluated", "answer-cache", "answer-cache"] {
        let doc = post("/query", "{\"spec\": \"Q1\"}");
        assert_eq!(
            doc.get("served_from").and_then(Json::as_str),
            Some(served_from)
        );
        answers.push(doc.get("answer").unwrap().to_string());
    }
    assert_eq!(full_renders() - before, 1);
    assert!(answers.iter().all(|a| a == &answers[0]));
    assert!(answers[0].contains("\"tuples\":[["), "{}", answers[0]);

    // A batch repeating a spec that is new to the server: evaluated once, its in-batch
    // duplicate aliases the same answer, so one more rendering for the two chunks.
    let doc = post("/batch", "{\"specs\": [\"Q2\", \"Q2\"]}");
    let pair = doc.get("answers").and_then(Json::as_arr).unwrap();
    assert_eq!(pair[0], pair[1]);
    assert_eq!(full_renders() - before, 2);

    // And a batch of answers rendered before renders nothing.
    let doc = post("/batch", "{\"specs\": [\"Q1\", \"Q1\"]}");
    let pair = doc.get("answers").and_then(Json::as_arr).unwrap();
    assert_eq!(pair[0].to_string(), answers[0]);
    assert_eq!(pair[1].to_string(), answers[0]);
    assert_eq!(full_renders() - before, 2);

    // Cold queries, a cold batch and their cache hits: answers aggregated, ranked and
    // rendered, not one tuple built.
    assert_eq!(tuples_materialized(), built);

    drop(client);
    server.shutdown();
}
