//! The end-to-end benchmark's `cold_batch` workload, in-process: its spec list and the
//! scenario each target schema is generated as (seed 42, scale 20, h = 30).

use urm::datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};

/// The `cold_batch` workload's specs, in its order (duplicates included).
pub const SPECS: [&str; 15] = [
    "Q1", "Q1", "Q2", "Q3", "Q4", "Q4", "Q5", "Q6", "Q6", "Q7", "Q8", "Q9", "Q10", "sel:3",
    "join:2",
];

/// The target schemas the specs address.
pub const TARGETS: [TargetSchemaKind; 3] = [
    TargetSchemaKind::Excel,
    TargetSchemaKind::Noris,
    TargetSchemaKind::Paragon,
];

/// A freshly generated scenario: nothing about its catalog's scans is memoised yet.
pub fn scenario(target: TargetSchemaKind) -> Scenario {
    Scenario::generate(&ScenarioConfig {
        target,
        scale: 20,
        mappings: 30,
        seed: 42,
    })
    .expect("scenario generation")
}
