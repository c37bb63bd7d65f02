//! A memory-budgeted server must take its spill directory with it.
//!
//! Lives in its own test binary: spill directories are named after the process id, so no other
//! test's pool can be mistaken for (or hide) a leak.

use std::time::Duration;
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_server::{AdmissionConfig, AdmissionController, HttpClient, UrmServer};
use urm_service::{QueryService, ServiceConfig};

fn spill_dirs() -> Vec<String> {
    let prefix = format!("urm-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir is listable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

#[test]
fn shutdown_of_a_budgeted_server_removes_its_spill_directory() {
    let scenario = Scenario::generate(&ScenarioConfig {
        target: TargetSchemaKind::Excel,
        scale: 4,
        mappings: 6,
        seed: 7,
    })
    .expect("scenario generation");
    let service = QueryService::new(ServiceConfig {
        workers: 2,
        memory_budget: Some(4096),
        ..ServiceConfig::default()
    });
    let epoch = service.register_epoch(scenario.catalog, scenario.mappings);
    let server = UrmServer::start(
        "127.0.0.1:0",
        service,
        vec![(TargetSchemaKind::Excel, epoch)],
        AdmissionController::new(AdmissionConfig::default()),
    )
    .expect("server start");

    let mut client = HttpClient::connect(server.addr(), Duration::from_secs(20)).expect("connect");
    let batch = client
        .request(
            "POST",
            "/batch",
            Some("{\"specs\": [\"Q3\", \"Q4\", \"join:2\"]}"),
        )
        .expect("batch request");
    assert_eq!(batch.status, 200);
    assert!(
        !spill_dirs().is_empty(),
        "a 4 KiB budget must have spilled something while serving"
    );
    drop(client);

    server.shutdown();
    assert_eq!(
        spill_dirs(),
        Vec::<String>::new(),
        "spill directories survived shutdown"
    );
}
