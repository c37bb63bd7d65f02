//! End-to-end experiment scenarios: source instance + target schema + possible mappings.

use crate::similarity::{score_schemas, DEFAULT_THRESHOLD};
use crate::source::{generate_source, source_schema_def};
use crate::targets;
use serde::{Deserialize, Serialize};
use urm_core::CoreResult;
use urm_matching::{MappingSet, SchemaDef};
use urm_storage::Catalog;

/// Which of the paper's three target schemas to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TargetSchemaKind {
    /// The Excel purchase-order schema (48 attributes) — the paper's default.
    Excel,
    /// The Noris schema (66 attributes).
    Noris,
    /// The Paragon schema (69 attributes).
    Paragon,
}

impl TargetSchemaKind {
    /// The schema definition for this kind.
    #[must_use]
    pub fn schema(self) -> SchemaDef {
        match self {
            TargetSchemaKind::Excel => targets::excel(),
            TargetSchemaKind::Noris => targets::noris(),
            TargetSchemaKind::Paragon => targets::paragon(),
        }
    }

    /// All three kinds.
    #[must_use]
    pub fn all() -> [TargetSchemaKind; 3] {
        [
            TargetSchemaKind::Excel,
            TargetSchemaKind::Noris,
            TargetSchemaKind::Paragon,
        ]
    }
}

impl std::fmt::Display for TargetSchemaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetSchemaKind::Excel => f.write_str("Excel"),
            TargetSchemaKind::Noris => f.write_str("Noris"),
            TargetSchemaKind::Paragon => f.write_str("Paragon"),
        }
    }
}

/// Parameters of a generated scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Target schema to match against.
    pub target: TargetSchemaKind,
    /// Scale factor of the source instance (see [`generate_source`]).
    pub scale: usize,
    /// Number of possible mappings `h` to generate.
    pub mappings: usize,
    /// Seed for the data generator.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            target: TargetSchemaKind::Excel,
            scale: 100,
            mappings: 50,
            seed: 42,
        }
    }
}

/// A complete experiment scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The configuration it was generated from.
    pub config: ScenarioConfig,
    /// The source instance `D`.
    pub catalog: Catalog,
    /// The matcher-facing source schema description.
    pub source_def: SchemaDef,
    /// The target schema description.
    pub target_def: SchemaDef,
    /// The `h` possible mappings with normalised probabilities.
    pub mappings: MappingSet,
}

impl Scenario {
    /// Generates a scenario: source data, similarity scores and the top-h mapping set.
    pub fn generate(config: &ScenarioConfig) -> CoreResult<Self> {
        Scenario::over(generate_source(config.scale, config.seed), config)
    }

    /// One scenario per target schema over **one** source instance: the data of `(scale,
    /// seed)` is generated and converted to columns once, and each scenario holds a clone of
    /// its catalog, which shares every relation.  Scenario `i` is what [`Scenario::generate`]
    /// gives for `config` with `targets[i]` as its target (`config.target` is not read).
    pub fn generate_per_target(
        config: &ScenarioConfig,
        targets: &[TargetSchemaKind],
    ) -> CoreResult<Vec<Self>> {
        let catalog = generate_source(config.scale, config.seed);
        targets
            .iter()
            .map(|&target| Scenario::over(catalog.clone(), &ScenarioConfig { target, ..*config }))
            .collect()
    }

    /// The scenario of `config` over a source instance already generated from it.
    fn over(catalog: Catalog, config: &ScenarioConfig) -> CoreResult<Self> {
        let source_def = source_schema_def();
        let target_def = config.target.schema();
        let sim = score_schemas(&source_def, &target_def, DEFAULT_THRESHOLD)?;
        let mappings = MappingSet::top_h(&sim, config.mappings.max(1))?;
        Ok(Scenario {
            config: *config,
            catalog,
            source_def,
            target_def,
            mappings,
        })
    }

    /// A copy of the scenario restricted to the first `h` mappings (renormalised); used by the
    /// "number of mappings" sweeps without regenerating data.
    #[must_use]
    pub fn with_mappings(&self, h: usize) -> Scenario {
        Scenario {
            config: ScenarioConfig {
                mappings: h,
                ..self.config
            },
            catalog: self.catalog.clone(),
            source_def: self.source_def.clone(),
            target_def: self.target_def.clone(),
            mappings: self.mappings.truncated(h.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(target: TargetSchemaKind, h: usize) -> Scenario {
        Scenario::generate(&ScenarioConfig {
            target,
            scale: 20,
            mappings: h,
            seed: 3,
        })
        .unwrap()
    }

    #[test]
    fn generates_requested_number_of_mappings() {
        let s = small(TargetSchemaKind::Excel, 10);
        assert_eq!(s.mappings.len(), 10);
        s.mappings.validate().unwrap();
        assert_eq!(s.catalog.len(), 8);
    }

    #[test]
    fn mappings_overlap_like_the_paper_reports() {
        // Figure 9(a): o-ratio between 68% and 79% on the real schemas.  Our synthetic matcher
        // should land in the same ballpark (well above 0.5).
        let s = small(TargetSchemaKind::Excel, 20);
        let o = s.mappings.o_ratio();
        assert!(o > 0.5, "o-ratio {o}");
    }

    #[test]
    fn all_three_target_schemas_work() {
        for kind in TargetSchemaKind::all() {
            let s = small(kind, 5);
            assert_eq!(s.target_def.name(), kind.to_string());
            assert_eq!(s.mappings.len(), 5);
        }
    }

    #[test]
    fn with_mappings_truncates_and_renormalises() {
        let s = small(TargetSchemaKind::Excel, 12);
        let t = s.with_mappings(4);
        assert_eq!(t.mappings.len(), 4);
        assert!((t.mappings.probability_sum() - 1.0).abs() < 1e-9);
        // Catalog shared unchanged.
        assert_eq!(t.catalog.total_tuples(), s.catalog.total_tuples());
    }

    #[test]
    fn scenarios_per_target_share_one_source_instance() {
        let config = ScenarioConfig {
            target: TargetSchemaKind::Noris,
            scale: 6,
            mappings: 4,
            seed: 3,
        };
        let targets = TargetSchemaKind::all();
        let shared = Scenario::generate_per_target(&config, &targets).unwrap();
        assert_eq!(shared.len(), 3);
        for (scenario, target) in shared.iter().zip(targets) {
            let alone = Scenario::generate(&ScenarioConfig { target, ..config }).unwrap();
            assert_eq!(scenario.config, alone.config);
            assert_eq!(scenario.mappings, alone.mappings);
            assert_eq!(scenario.catalog.len(), alone.catalog.len());
            for (name, relation) in scenario.catalog.iter() {
                let first = shared[0].catalog.get(name).unwrap();
                assert_eq!(relation.storage_id(), first.storage_id(), "{name}");
                let own = alone.catalog.get(name).unwrap();
                assert_ne!(relation.storage_id(), own.storage_id(), "{name}");
                assert_eq!(relation.rows(), own.rows(), "{name}");
            }
        }
    }

    #[test]
    fn default_config_is_reasonable() {
        let c = ScenarioConfig::default();
        assert_eq!(c.target, TargetSchemaKind::Excel);
        assert!(c.scale > 0 && c.mappings > 0);
    }
}
