//! The one place every metric is declared: name, unit and direction.  `BENCHMARK.json` at the
//! repository root repeats these lists (the self-test keeps the two in step), and a run can
//! only report names that are declared here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees; reported by `--trace 0` runs, bounded in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] =
    &[higher("throughput_qps", "queries/s"), lower("setup_s", "s")];

/// Single-layer metrics, named by crate; reported by `--trace 1` runs, unbounded.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end candidates that cannot be bounded on every workload (README, Demoted).
    lower("latency_p50_ms", "ms"),
    lower("latency_tail_ms", "ms"),
    lower("cpu_ms_per_query", "ms"),
    lower("peak_rss_mb", "MB"),
    lower("setup_peak_rss_mb", "MB"),
    lower("failed_share", "ratio"),
    // urm-server
    lower("server.http_floor_us", "us"),
    lower("server.parse_us", "us"),
    lower("server.admit_us", "us"),
    lower("server.render_us", "us"),
    higher("server.render_mb_s", "MB/s"),
    lower("server.bytes_out_per_query", "B"),
    lower("server.rejected_share", "ratio"),
    lower("server.io_self_us", "us"),
    // urm-service
    lower("service.submit_wait_us", "us"),
    lower("service.dispatch_self_us", "us"),
    lower("service.cache_lookup_us", "us"),
    higher("service.answer_hit_share", "ratio"),
    higher("service.queries_per_batch", "count"),
    higher("service.batch_dedup_share", "ratio"),
    lower("service.epoch_register_ms", "ms"),
    // urm-core
    lower("core.rewrite_ms", "ms"),
    lower("core.source_queries_per_query", "count"),
    lower("core.prepare_ms", "ms"),
    lower("core.execute_ms", "ms"),
    lower("core.aggregate_ms", "ms"),
    lower("core.algo_basic_ms", "ms"),
    lower("core.algo_ebasic_ms", "ms"),
    lower("core.algo_emqo_ms", "ms"),
    lower("core.algo_qsharing_ms", "ms"),
    lower("core.algo_osharing_ms", "ms"),
    // urm-engine
    lower("engine.optimize_ms", "ms"),
    lower("engine.bind_ms", "ms"),
    lower("engine.dag_merge_ms", "ms"),
    lower("engine.execute_ms", "ms"),
    lower("engine.dag_nodes_per_query", "count"),
    higher("engine.dedup_share", "ratio"),
    higher("engine.bind_hit_share", "ratio"),
    higher("engine.result_hit_share", "ratio"),
    lower("engine.rows_read_per_query", "count"),
    lower("engine.rows_out_per_query", "count"),
    higher("engine.columnar_row_share", "ratio"),
    higher("engine.reordered_joins", "count"),
    higher("engine.peak_parallelism", "count"),
    higher("engine.kernel_select_mrows_s", "Mrows/s"),
    higher("engine.kernel_join_mrows_s", "Mrows/s"),
    higher("engine.kernel_agg_mrows_s", "Mrows/s"),
    // urm-storage
    lower("storage.columnar_convert_ms", "ms"),
    higher("storage.segment_encode_mb_s", "MB/s"),
    higher("storage.segment_decode_mb_s", "MB/s"),
    lower("storage.segment_ratio", "ratio"),
    lower("storage.spill_write_amp", "ratio"),
    lower("storage.spill_reloads_per_query", "count"),
    lower("storage.grace_partitions", "count"),
    lower("storage.pool_admit_us", "us"),
    lower("storage.pool_reload_us", "us"),
    // urm-datagen / urm-matching / the oracle
    lower("datagen.scenario_ms", "ms"),
    lower("datagen.catalog_bytes", "B"),
    lower("matching.top_h_ms", "ms"),
    lower("verify.oracle_ms", "ms"),
    // the process
    lower("proc.sys_share", "ratio"),
    lower("proc.minor_faults_per_query", "count"),
    lower("proc.ctx_switches_per_query", "count"),
    // the layer pass itself
    higher("trace.coverage_share", "ratio"),
];

/// One reported value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reported {
    pub value: f64,
    pub samples: usize,
}

/// The values one run reports, checked against the declared set.
#[derive(Debug)]
pub struct Metrics {
    declared: &'static [MetricDef],
    values: BTreeMap<&'static str, Reported>,
}

impl Metrics {
    pub fn new(declared: &'static [MetricDef]) -> Self {
        Metrics {
            declared,
            values: BTreeMap::new(),
        }
    }

    /// Records `value` (from `samples` samples) under a declared name.
    ///
    /// # Panics
    /// On a name that is not declared for this run: a typo would otherwise drop the metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            self.declared.iter().any(|d| d.name == name),
            "metric '{name}' is not declared in metrics.rs"
        );
        self.values.insert(name, Reported { value, samples });
    }

    /// Every declared metric in declaration order, or the names that were never set.
    pub fn complete(&self) -> Result<Vec<(MetricDef, Reported)>, Vec<&'static str>> {
        let missing: Vec<&'static str> = self
            .declared
            .iter()
            .filter(|d| !self.values.contains_key(d.name))
            .map(|d| d.name)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok(self
            .declared
            .iter()
            .map(|d| (*d, self.values[d.name]))
            .collect())
    }
}

/// A finite JSON number with all its digits (non-finite values render as 0).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, Reported)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{"
    );
    for (i, (def, reported)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            def.name,
            json_number(reported.value),
            def.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for def in &all {
            assert!(!def.name.is_empty() && def.name.len() <= 64, "{}", def.name);
            assert!(
                def.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                def.name
            );
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(!def.unit.is_empty() && def.unit.len() <= 16, "{}", def.unit);
            assert!(
                def.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                def.unit
            );
            assert!(def.better == "lower" || def.better == "higher");
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn incomplete_runs_name_what_is_missing() {
        let mut m = Metrics::new(END_TO_END);
        m.set("throughput_qps", 10.5, 3);
        let missing = m.complete().unwrap_err();
        assert!(missing.contains(&"setup_s") && !missing.contains(&"throughput_qps"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        Metrics::new(END_TO_END).set("server.parse_us", 1.0, 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let defs = [(
            END_TO_END[0],
            Reported {
                value: 1.25,
                samples: 9,
            },
        )];
        let line = result_line(true, 7, 0, &defs);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"throughput_qps\": {\"value\": 1.25, \"unit\": \"queries/s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0");
    }
}
