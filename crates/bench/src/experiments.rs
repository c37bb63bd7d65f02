//! Experiment definitions, one per table/figure of the paper's evaluation.

use std::time::Duration;
use urm_core::CoreResult;
use urm_core::{evaluate, top_k, Algorithm, Evaluation, Strategy, TargetQuery};
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_datagen::workload::{self, QueryId};

/// How a row's payload is interpreted (and rendered by [`crate::report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowKind {
    /// A timed measurement: `time`, `source_operators` and `answers` are meaningful (and an
    /// optional `extra` metric may ride along, e.g. a rows-per-sec derived from the timing).
    #[default]
    Timing,
    /// A named counter (sizing, compression ratio, cache rate, …): the payload is `extra`
    /// (name, value) — the timing fields are unused and **not** emitted in the JSON report,
    /// so counter rows no longer masquerade as `time_ms: 0.000` measurements.
    Counter,
}

/// One measured data point: a row of a figure's series or of a table.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Experiment identifier (`fig10b`, `table4`, …).
    pub experiment: String,
    /// The series / algorithm the point belongs to.
    pub series: String,
    /// The x-axis value (query id, database scale, number of mappings, k, …).
    pub x: String,
    /// Whether this row is a timed measurement or a named counter.
    pub kind: RowKind,
    /// Total evaluation time.
    pub time: Duration,
    /// Number of source operators executed.
    pub source_operators: u64,
    /// Number of distinct answer tuples produced.
    pub answers: usize,
    /// Extra metric (breakdown part, o-ratio, representative mappings…), if any; for
    /// [`RowKind::Counter`] rows this *is* the payload.
    pub extra: Option<(String, f64)>,
}

impl ExperimentRow {
    fn new(experiment: &str, series: &str, x: impl ToString) -> Self {
        ExperimentRow {
            experiment: experiment.to_string(),
            series: series.to_string(),
            x: x.to_string(),
            kind: RowKind::Timing,
            time: Duration::ZERO,
            source_operators: 0,
            answers: 0,
            extra: None,
        }
    }

    /// A timed row of one evaluation: its total time, source operators and answers.
    fn timed(experiment: &str, series: &str, x: impl ToString, eval: &Evaluation) -> Self {
        let mut row = ExperimentRow::new(experiment, series, x);
        row.time = eval.metrics.total_time;
        row.source_operators = eval.metrics.source_operators();
        row.answers = eval.answer.len();
        row
    }

    /// A first-class counter row: one named scalar, no timing fields.  Rendered as
    /// `name=value` in the text tables and as `"kind":"counter"` objects (name + value,
    /// no `time_ms` filler) in the JSON reports.
    #[must_use]
    pub fn counter(
        experiment: &str,
        series: &str,
        x: impl ToString,
        name: &str,
        value: f64,
    ) -> Self {
        let mut row = ExperimentRow::new(experiment, series, x);
        row.kind = RowKind::Counter;
        row.extra = Some((name.to_string(), value));
        row
    }
}

/// Scale knobs for a full harness run.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Source-instance scale factor used by most experiments.
    pub scale: usize,
    /// Default number of possible mappings `h`.
    pub mappings: usize,
    /// Seed for data generation.
    pub seed: u64,
    /// Scale sweep used for the "database size" experiments.
    pub scale_sweep: [usize; 5],
    /// Mapping-count sweep used for the "number of mappings" experiments.
    pub mapping_sweep: [usize; 5],
    /// k values for the top-k experiment.
    pub k_sweep: [usize; 5],
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 60,
            mappings: 40,
            seed: 42,
            scale_sweep: [20, 40, 60, 80, 100],
            mapping_sweep: [10, 20, 30, 40, 50],
            k_sweep: [1, 5, 10, 15, 20],
        }
    }
}

impl HarnessConfig {
    /// A very small configuration for smoke tests and CI.
    #[must_use]
    pub fn tiny() -> Self {
        HarnessConfig {
            scale: 15,
            mappings: 8,
            seed: 7,
            scale_sweep: [5, 10, 15, 20, 25],
            mapping_sweep: [2, 4, 6, 8, 10],
            k_sweep: [1, 2, 3, 4, 5],
        }
    }
}

/// The experiment harness: generated scenarios for the three target schemas plus the knobs.
pub struct Harness {
    config: HarnessConfig,
    excel: Scenario,
    noris: Scenario,
    paragon: Scenario,
}

impl Harness {
    /// Generates the scenarios for all three target schemas, over one source instance.
    pub fn new(config: HarnessConfig) -> CoreResult<Self> {
        let scenario = ScenarioConfig {
            target: TargetSchemaKind::Excel,
            scale: config.scale,
            mappings: config.mappings,
            seed: config.seed,
        };
        let targets = TargetSchemaKind::all();
        let [excel, noris, paragon] = Scenario::generate_per_target(&scenario, &targets)?
            .try_into()
            .expect("one scenario per target");
        Ok(Harness {
            config,
            excel,
            noris,
            paragon,
        })
    }

    /// The harness configuration.
    #[must_use]
    pub fn config(&self) -> &HarnessConfig {
        &self.config
    }

    /// The scenario for a target schema.
    #[must_use]
    pub fn scenario(&self, target: TargetSchemaKind) -> &Scenario {
        match target {
            TargetSchemaKind::Excel => &self.excel,
            TargetSchemaKind::Noris => &self.noris,
            TargetSchemaKind::Paragon => &self.paragon,
        }
    }

    fn run_algorithm(
        &self,
        experiment: &str,
        series: &str,
        x: impl ToString,
        query: &TargetQuery,
        scenario: &Scenario,
        algorithm: Algorithm,
    ) -> CoreResult<ExperimentRow> {
        let eval = evaluate(query, &scenario.mappings, &scenario.catalog, algorithm)?;
        Ok(ExperimentRow::timed(experiment, series, x, &eval))
    }

    /// An o-sharing strategy's row on the Excel scenario, carrying the paper's Table IV unit —
    /// the target operators the u-trace executed — beside the source operators.
    fn run_strategy(
        &self,
        experiment: &str,
        series: &str,
        x: impl ToString,
        query: &TargetQuery,
        strategy: Strategy,
    ) -> CoreResult<ExperimentRow> {
        let (mappings, catalog) = (&self.excel.mappings, &self.excel.catalog);
        let eval = evaluate(query, mappings, catalog, Algorithm::OSharing(strategy))?;
        let mut row = ExperimentRow::timed(experiment, series, x, &eval);
        let target_operators = eval.metrics.target_operators as f64;
        row.extra = Some(("target_operators".to_string(), target_operators));
        Ok(row)
    }

    /// Figure 9(a): o-ratio of the mapping set as the number of mappings grows.
    pub fn fig9_oratio(&self) -> CoreResult<Vec<ExperimentRow>> {
        let mut rows = Vec::new();
        for &h in &self.config.mapping_sweep {
            let scenario = self.excel.with_mappings(h);
            rows.push(ExperimentRow::counter(
                "fig9",
                "o-ratio",
                h,
                "o-ratio",
                scenario.mappings.o_ratio(),
            ));
        }
        Ok(rows)
    }

    /// Figure 10(a): breakdown of `basic` into evaluation and aggregation time for Q1–Q10.
    pub fn fig10a_breakdown(&self) -> CoreResult<Vec<ExperimentRow>> {
        let mut rows = Vec::new();
        for (id, query) in workload::all_queries() {
            let scenario = self.scenario(id.target());
            let eval = evaluate(
                &query,
                &scenario.mappings,
                &scenario.catalog,
                Algorithm::Basic,
            )?;
            let mut row = ExperimentRow::new("fig10a", "evaluation", format!("Q{}", id.number()));
            row.time = eval.metrics.evaluation_time();
            row.source_operators = eval.metrics.source_operators();
            row.answers = eval.answer.len();
            rows.push(row);
            let mut row = ExperimentRow::new("fig10a", "aggregation", format!("Q{}", id.number()));
            row.time = eval.metrics.aggregation_time;
            rows.push(row);
        }
        Ok(rows)
    }

    /// Figures 10(b)/(c): basic vs e-basic vs e-MQO over database size and number of mappings.
    pub fn fig10bc_simple_solutions(&self) -> CoreResult<Vec<ExperimentRow>> {
        let query = workload::query(QueryId::Q4);
        let algorithms = [Algorithm::Basic, Algorithm::EBasic, Algorithm::EMqo];
        let mut rows = Vec::new();
        // 10(b): database size sweep at the default mapping count.
        for &scale in &self.config.scale_sweep {
            let scenario = Scenario::generate(&ScenarioConfig {
                target: TargetSchemaKind::Excel,
                scale,
                mappings: self.config.mappings,
                seed: self.config.seed,
            })?;
            for algorithm in algorithms {
                rows.push(self.run_algorithm(
                    "fig10b",
                    algorithm.name(),
                    scale,
                    &query,
                    &scenario,
                    algorithm,
                )?);
            }
        }
        // 10(c): mapping-count sweep at the default scale.
        for &h in &self.config.mapping_sweep {
            let scenario = self.excel.with_mappings(h);
            for algorithm in algorithms {
                rows.push(self.run_algorithm(
                    "fig10c",
                    algorithm.name(),
                    h,
                    &query,
                    &scenario,
                    algorithm,
                )?);
            }
        }
        Ok(rows)
    }

    /// Figure 11(a): e-basic vs q-sharing vs o-sharing on all ten queries.
    pub fn fig11a_queries(&self) -> CoreResult<Vec<ExperimentRow>> {
        let algorithms = [
            Algorithm::EBasic,
            Algorithm::QSharing,
            Algorithm::OSharing(Strategy::Sef),
        ];
        let mut rows = Vec::new();
        for (id, query) in workload::all_queries() {
            let scenario = self.scenario(id.target());
            for algorithm in algorithms {
                rows.push(self.run_algorithm(
                    "fig11a",
                    algorithm.name(),
                    format!("Q{}", id.number()),
                    &query,
                    scenario,
                    algorithm,
                )?);
            }
        }
        Ok(rows)
    }

    /// Figures 11(b)/(c): e-basic vs q-sharing vs o-sharing over database size and mappings.
    pub fn fig11bc_sharing(&self) -> CoreResult<Vec<ExperimentRow>> {
        let query = workload::query(QueryId::Q4);
        let algorithms = [
            Algorithm::EBasic,
            Algorithm::QSharing,
            Algorithm::OSharing(Strategy::Sef),
        ];
        let mut rows = Vec::new();
        for &scale in &self.config.scale_sweep {
            let scenario = Scenario::generate(&ScenarioConfig {
                target: TargetSchemaKind::Excel,
                scale,
                mappings: self.config.mappings,
                seed: self.config.seed,
            })?;
            for algorithm in algorithms {
                rows.push(self.run_algorithm(
                    "fig11b",
                    algorithm.name(),
                    scale,
                    &query,
                    &scenario,
                    algorithm,
                )?);
            }
        }
        for &h in &self.config.mapping_sweep {
            let scenario = self.excel.with_mappings(h);
            for algorithm in algorithms {
                rows.push(self.run_algorithm(
                    "fig11c",
                    algorithm.name(),
                    h,
                    &query,
                    &scenario,
                    algorithm,
                )?);
            }
        }
        Ok(rows)
    }

    /// Figures 11(d)/(e): effect of the number of selection / Cartesian product operators.
    pub fn fig11de_query_size(&self) -> CoreResult<Vec<ExperimentRow>> {
        let algorithms = [
            Algorithm::EBasic,
            Algorithm::QSharing,
            Algorithm::OSharing(Strategy::Sef),
        ];
        let mut rows = Vec::new();
        for n in 1..=5usize {
            let query = workload::selection_sweep(n)?;
            for algorithm in algorithms {
                rows.push(self.run_algorithm(
                    "fig11d",
                    algorithm.name(),
                    n,
                    &query,
                    &self.excel,
                    algorithm,
                )?);
            }
        }
        for n in 1..=3usize {
            let query = workload::product_sweep(n)?;
            for algorithm in algorithms {
                rows.push(self.run_algorithm(
                    "fig11e",
                    algorithm.name(),
                    n,
                    &query,
                    &self.excel,
                    algorithm,
                )?);
            }
        }
        Ok(rows)
    }

    /// Figure 11(f) and Table IV: operator-selection strategies (Random / SNF / SEF), each with
    /// the target operators it executed (the paper's unit, in `extra`) beside its source
    /// operators, with e-MQO's source operator count as the yardstick.
    pub fn fig11f_table4_strategies(&self) -> CoreResult<Vec<ExperimentRow>> {
        let mut rows = Vec::new();
        let strategies = [
            ("Random", Strategy::Random { seed: 11 }),
            ("SNF", Strategy::Snf),
            ("SEF", Strategy::Sef),
        ];
        for (id, query) in workload::queries_for(TargetSchemaKind::Excel) {
            for (name, strategy) in strategies {
                let x = format!("Q{}", id.number());
                rows.push(self.run_strategy("fig11f", name, x, &query, strategy)?);
            }
        }
        // Table IV: Q4 only, including e-MQO for the operator-count comparison.
        let q4 = workload::query(QueryId::Q4);
        for (name, strategy) in strategies {
            rows.push(self.run_strategy("table4", name, "Q4", &q4, strategy)?);
        }
        rows.push(self.run_algorithm(
            "table4",
            "e-MQO",
            "Q4",
            &q4,
            &self.excel,
            Algorithm::EMqo,
        )?);
        Ok(rows)
    }

    /// Figures 12(a)–(c): top-k vs o-sharing for Q4, Q7 and Q10.
    pub fn fig12_topk(&self) -> CoreResult<Vec<ExperimentRow>> {
        let mut rows = Vec::new();
        for (figure, id) in [
            ("fig12a", QueryId::Q4),
            ("fig12b", QueryId::Q7),
            ("fig12c", QueryId::Q10),
        ] {
            let query = workload::query(id);
            let scenario = self.scenario(id.target());
            // The o-sharing baseline (compute every probability, then sort).
            let baseline = evaluate(
                &query,
                &scenario.mappings,
                &scenario.catalog,
                Algorithm::OSharing(Strategy::Sef),
            )?;
            for &k in &self.config.k_sweep {
                let mut row = ExperimentRow::new(figure, "o-sharing", k);
                row.time = baseline.metrics.total_time;
                row.source_operators = baseline.metrics.source_operators();
                row.answers = baseline.answer.len();
                rows.push(row);

                let topk = top_k(
                    &query,
                    &scenario.mappings,
                    &scenario.catalog,
                    k,
                    Strategy::Sef,
                )?;
                let mut row = ExperimentRow::new(figure, "top-k", k);
                row.time = topk.metrics.total_time;
                row.source_operators = topk.metrics.source_operators();
                row.answers = topk.entries.len();
                rows.push(row);
            }
        }
        Ok(rows)
    }

    /// The serving-layer experiment (not in the paper): replay a synthetic Excel workload of
    /// growing size three ways — sequentially with `e-basic`, sequentially with
    /// `o-sharing(SEF)`, and through `urm-service` as one batch with a batch-wide sub-plan
    /// cache and answer-cache dedup.  The batched service wins because cross-query sharing and
    /// duplicate elimination amortise work no per-query algorithm can.
    pub fn service_batching(&self) -> CoreResult<Vec<ExperimentRow>> {
        use std::time::Instant;
        use urm_datagen::replay::synthetic_workload;
        use urm_service::{QueryService, ServiceConfig};

        let scenario = &self.excel;
        let mut rows = Vec::new();
        for n in [10usize, 30, 50] {
            let workload = synthetic_workload(n, Some(TargetSchemaKind::Excel));

            for (series, algorithm) in [
                ("sequential e-basic", Algorithm::EBasic),
                (
                    "sequential o-sharing(SEF)",
                    Algorithm::OSharing(Strategy::Sef),
                ),
            ] {
                let mut row = ExperimentRow::new("service", series, n);
                let start = Instant::now();
                for entry in &workload {
                    let eval = evaluate(
                        &entry.query,
                        &scenario.mappings,
                        &scenario.catalog,
                        algorithm,
                    )?;
                    row.source_operators += eval.metrics.source_operators();
                    row.answers += eval.answer.len();
                }
                row.time = start.elapsed();
                rows.push(row);
            }

            let service = QueryService::new(ServiceConfig {
                workers: 1,
                batch_max: n.max(1),
                ..ServiceConfig::default()
            });
            let epoch = service.register_epoch(scenario.catalog.clone(), scenario.mappings.clone());
            let mut row = ExperimentRow::new("service", "batched service", n);
            let start = Instant::now();
            let responses = service
                .execute_all(epoch, workload.iter().map(|e| e.query.clone()).collect())
                .map_err(|e| urm_core::CoreError::InvalidQuery(e.to_string()))?;
            row.time = start.elapsed();
            let metrics = service.metrics();
            row.source_operators = metrics.exec.source_operators();
            row.answers = responses.iter().map(|r| r.answer.len()).sum();
            rows.push(row);

            rows.push(ExperimentRow::counter(
                "service",
                "plan-hit-rate",
                n,
                "plan-hit-rate",
                metrics.plan_hit_rate(),
            ));
        }
        Ok(rows)
    }

    /// Runs every experiment, returning all rows.
    pub fn run_all(&self) -> CoreResult<Vec<ExperimentRow>> {
        let mut rows = Vec::new();
        rows.extend(self.fig9_oratio()?);
        rows.extend(self.fig10a_breakdown()?);
        rows.extend(self.fig10bc_simple_solutions()?);
        rows.extend(self.fig11a_queries()?);
        rows.extend(self.fig11bc_sharing()?);
        rows.extend(self.fig11de_query_size()?);
        rows.extend(self.fig11f_table4_strategies()?);
        rows.extend(self.fig12_topk()?);
        rows.extend(self.service_batching()?);
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_harness() -> Harness {
        Harness::new(HarnessConfig::tiny()).unwrap()
    }

    #[test]
    fn fig9_reports_high_overlap() {
        let h = tiny_harness();
        let rows = h.fig9_oratio().unwrap();
        assert_eq!(rows.len(), 5);
        for row in rows {
            let (_, oratio) = row.extra.unwrap();
            assert!(oratio > 0.4, "o-ratio {oratio}");
        }
    }

    #[test]
    fn fig11a_runs_all_queries_and_algorithms() {
        let h = tiny_harness();
        let rows = h.fig11a_queries().unwrap();
        assert_eq!(rows.len(), 30);
        // All three algorithms produce the same number of answers per query.
        for chunk in rows.chunks(3) {
            assert_eq!(chunk[0].answers, chunk[1].answers, "query {}", chunk[0].x);
            assert_eq!(chunk[1].answers, chunk[2].answers, "query {}", chunk[0].x);
        }
    }

    #[test]
    fn table4_sef_uses_no_more_operators_than_random() {
        let h = tiny_harness();
        let rows = h.fig11f_table4_strategies().unwrap();
        let ops = |series: &str| {
            rows.iter()
                .find(|r| r.experiment == "table4" && r.series == series)
                .unwrap()
                .source_operators
        };
        assert!(ops("SEF") <= ops("Random"));
        assert!(ops("SNF") <= ops("Random"));
    }

    #[test]
    fn fig12_topk_answers_are_bounded_by_k() {
        let h = tiny_harness();
        let rows = h.fig12_topk().unwrap();
        for row in rows.iter().filter(|r| r.series == "top-k") {
            let k: usize = row.x.parse().unwrap();
            assert!(row.answers <= k);
        }
    }
}
