//! The generated inputs of a run: scenarios from the seed, the oracle's answers, and servers
//! started over them.

use crate::workload::{admission_config, Workload, MAPPINGS};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use urm_core::{evaluate, Algorithm};
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_server::{parse_query_spec, AdmissionController, Json, UrmServer};
use urm_service::QueryService;
use urm_storage::Catalog;

/// Probabilities from two evaluation paths sum the same mappings in different orders.
const PROBABILITY_TOLERANCE: f64 = 1e-9;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One scenario per served target schema, all generated from the run's seed.
pub struct World {
    pub scenarios: Vec<Scenario>,
}

impl World {
    pub fn generate(
        seed: u64,
        targets: &[TargetSchemaKind],
        scale: usize,
    ) -> Result<World, String> {
        let scenarios = targets
            .iter()
            .map(|&target| {
                Scenario::generate(&ScenarioConfig {
                    target,
                    scale,
                    mappings: MAPPINGS,
                    seed,
                })
                .map_err(|e| format!("scenario {target}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(World { scenarios })
    }

    pub fn scenario(&self, target: TargetSchemaKind) -> &Scenario {
        self.scenarios
            .iter()
            .find(|s| s.config.target == target)
            .expect("workload specs only address served schemas")
    }

    /// The scenario's relations in a new catalog.  `Catalog::clone` shares the columnar-view
    /// cache, so a clone would hand a "cold" server already-converted relations.
    pub fn cold_catalog(&self, target: TargetSchemaKind) -> Catalog {
        let mut catalog = Catalog::new();
        for (_, relation) in self.scenario(target).catalog.iter() {
            catalog.insert(relation.as_ref().clone());
        }
        catalog
    }
}

/// A new service with one epoch per scenario (over `catalog_of(target)`), behind a server on a
/// free loopback port.  Returns the time `register_epoch` took.
pub fn start_server(
    world: &World,
    workload: &Workload,
    catalog_of: impl Fn(TargetSchemaKind) -> Catalog,
) -> Result<(UrmServer, Duration), String> {
    let service = QueryService::new(workload.service_config());
    let mut register = Duration::ZERO;
    let mut epochs = Vec::new();
    for scenario in &world.scenarios {
        let target = scenario.config.target;
        let catalog = catalog_of(target);
        let started = Instant::now();
        epochs.push((
            target,
            service.register_epoch(catalog, scenario.mappings.clone()),
        ));
        register += started.elapsed();
    }
    let admission = AdmissionController::new(admission_config());
    let server = UrmServer::start("127.0.0.1:0", service, epochs, admission)
        .map_err(|e| format!("server start: {e}"))?;
    Ok((server, register))
}

/// The reference answer of one spec: tuple rendering → probability, plus the empty mass.
struct OracleAnswer {
    tuples: HashMap<String, f64>,
    empty_probability: f64,
}

/// Reference answers from `Algorithm::Basic` — one source query per mapping on a plain
/// executor, the paper's definition of the answer and the one path that shares nothing with
/// the service's batch DAG.  (o-sharing(SEF) takes 1.5–6 s on Q3 and 29 s on join:3 at this
/// scale, and set-up runs several times per run; see README, Findings.)
pub struct Oracle {
    answers: HashMap<String, OracleAnswer>,
}

impl Oracle {
    pub fn compute(world: &World, specs: &[&str]) -> Result<Oracle, String> {
        let mut answers = HashMap::new();
        for spec in specs {
            if answers.contains_key(*spec) {
                continue;
            }
            let entry = parse_query_spec(spec)?;
            let scenario = world.scenario(entry.target);
            let evaluation = evaluate(
                &entry.query,
                &scenario.mappings,
                &scenario.catalog,
                Algorithm::Basic,
            )
            .map_err(|e| format!("oracle {spec}: {e}"))?;
            let mut tuples = HashMap::new();
            for (tuple, p) in evaluation.answer.iter() {
                *tuples.entry(tuple.to_string()).or_insert(0.0) += p;
            }
            answers.insert(
                (*spec).to_string(),
                OracleAnswer {
                    tuples,
                    empty_probability: evaluation.answer.empty_probability(),
                },
            );
        }
        Ok(Oracle { answers })
    }

    /// Checks one rendered answer (`wire::answer_json` form) against the reference: same
    /// label, same tuple set, every probability within [`PROBABILITY_TOLERANCE`].
    pub fn check(&self, spec: &str, answer_json: &str) -> Result<(), String> {
        let expected = self
            .answers
            .get(spec)
            .ok_or_else(|| format!("no oracle answer for '{spec}'"))?;
        let doc = Json::parse(answer_json).map_err(|e| format!("'{spec}': bad JSON: {e}"))?;
        if doc.get("label").and_then(Json::as_str) != Some(spec) {
            return Err(format!("'{spec}': answer carries another label"));
        }
        let close = |a: f64, b: f64| (a - b).abs() <= PROBABILITY_TOLERANCE;
        let empty = doc.get("empty_probability").and_then(Json::as_f64);
        if !empty.is_some_and(|p| close(p, expected.empty_probability)) {
            return Err(format!(
                "'{spec}': empty probability {empty:?}, oracle {}",
                expected.empty_probability
            ));
        }
        let tuples = doc
            .get("tuples")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("'{spec}': answer without tuples"))?;
        let mut served: HashMap<&str, f64> = HashMap::new();
        for pair in tuples {
            let pair = pair.as_arr().unwrap_or(&[]);
            match (
                pair.first().and_then(Json::as_str),
                pair.get(1).and_then(Json::as_f64),
            ) {
                (Some(tuple), Some(p)) => *served.entry(tuple).or_insert(0.0) += p,
                _ => return Err(format!("'{spec}': malformed tuple entry")),
            }
        }
        if served.len() != expected.tuples.len() {
            return Err(format!(
                "'{spec}': {} tuples served, oracle has {}",
                served.len(),
                expected.tuples.len()
            ));
        }
        for (tuple, p) in &served {
            match expected.tuples.get(*tuple) {
                Some(q) if close(*p, *q) => {}
                Some(q) => return Err(format!("'{spec}': {tuple} served {p}, oracle {q}")),
                None => return Err(format!("'{spec}': {tuple} is not in the oracle answer")),
            }
        }
        Ok(())
    }
}

/// The `"answer"` object of a `/query` response body
/// (`{"answer":{…},"served_from":"…","batch":N}`), without parsing the document.
pub fn answer_slice(body: &str) -> Option<&str> {
    let rest = body.strip_prefix("{\"answer\":")?;
    Some(&rest[..rest.rfind(",\"served_from\":\"")?])
}

/// The rendered answers of a `/batch` response body, in order.
pub fn batch_answers(body: &str) -> Result<Vec<String>, String> {
    let doc = Json::parse(body).map_err(|e| format!("bad batch JSON: {e}"))?;
    Ok(doc
        .get("answers")
        .and_then(Json::as_arr)
        .ok_or("batch response without answers")?
        .iter()
        .map(Json::to_string)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(tuples: &[(&str, f64)], empty_probability: f64) -> Oracle {
        let answer = OracleAnswer {
            tuples: tuples.iter().map(|(t, p)| (t.to_string(), *p)).collect(),
            empty_probability,
        };
        Oracle {
            answers: HashMap::from([("Q1".to_string(), answer)]),
        }
    }

    #[test]
    fn oracle_accepts_reordered_ties_and_rounding_but_not_wrong_answers() {
        let o = oracle(&[("(a)", 0.5), ("(b)", 0.25)], 0.25);
        let ok = r#"{"label":"Q1","tuples":[["(b)",0.25000000000001],["(a)",0.5]],"empty_probability":0.25}"#;
        assert_eq!(o.check("Q1", ok), Ok(()));
        let wrong_p = ok.replace("0.5]", "0.51]");
        assert!(o.check("Q1", &wrong_p).unwrap_err().contains("(a)"));
        let missing = r#"{"label":"Q1","tuples":[["(a)",0.5]],"empty_probability":0.25}"#;
        assert!(o
            .check("Q1", missing)
            .unwrap_err()
            .contains("1 tuples served"));
        let extra = ok.replace("(b)", "(c)");
        assert!(o
            .check("Q1", &extra)
            .unwrap_err()
            .contains("not in the oracle"));
        assert!(o.check("Q1", &ok.replace("Q1", "Q2")).is_err());
        assert!(o.check("Q9", ok).is_err());
    }

    #[test]
    fn slices_and_rebuilds_response_bodies() {
        let body = r#"{"answer":{"label":"Q1","tuples":[]},"served_from":"evaluated","batch":3}"#;
        assert_eq!(answer_slice(body), Some(r#"{"label":"Q1","tuples":[]}"#));
        assert_eq!(answer_slice("{\"error\":\"x\"}"), None);
        let batch = r#"{"answers":[{"label":"Q1"},{"label":"Q2"}]}"#;
        assert_eq!(
            batch_answers(batch).unwrap(),
            vec![
                r#"{"label":"Q1"}"#.to_string(),
                r#"{"label":"Q2"}"#.to_string()
            ]
        );
    }
}
