//! Percentiles, medians and span self-time arithmetic — the only statistics the benchmark
//! reports, kept in one place so the self-test can check them on synthetic input.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0–100); 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` among `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize).min(n)
}

/// Sorts `values` ascending and returns them (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (p50) of unsorted values; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// First quartile, median and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method) — what the driver judges run-to-run spread by.
///
/// # Panics
/// With fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let (len, m) = (data.len(), data.len() + 1);
    assert!(len >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// One bench-owned span: a timed call into one layer on behalf of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, optionally suffixed `/<target schema>` when a request fans out per schema.
    pub name: String,
    /// The request (or batch iteration) this span belongs to.
    pub request: u64,
    /// Index of the parent span in the same trace; `None` for the request's root span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span is accounted to: its name without the per-schema suffix.
    pub fn layer(&self) -> &str {
        self.name.split('/').next().unwrap_or(&self.name)
    }

    /// The target schema of a per-schema span (`<layer>/<schema>`).
    pub fn schema(&self) -> Option<&str> {
        self.name.split_once('/').map(|(_, schema)| schema)
    }
}

/// Self time of every span: its duration minus the part of its interval that its direct
/// children cover (children are clipped to the parent and overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// The layer whose spans fan a request out per target schema (`service.batch/<schema>`).  They
/// run side by side on the service's workers, so the longest one is the request's blocking step.
const FAN_OUT_LAYER: &str = "service.batch";

/// Whether each span is on its request's critical path.  Of the per-schema spans
/// (`<layer>/<schema>`) only those of the schema whose [`FAN_OUT_LAYER`] span is the request's
/// longest are: the others ran beside them, so counting them too would exceed the request.
fn on_critical_path(spans: &[Span]) -> Vec<bool> {
    let mut longest: BTreeMap<u64, (u64, &str)> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.layer() == FAN_OUT_LAYER) {
        let Some(schema) = span.schema() else {
            continue;
        };
        let entry = longest.entry(span.request).or_insert((0, schema));
        if span.duration_ns() >= entry.0 {
            *entry = (span.duration_ns(), schema);
        }
    }
    spans
        .iter()
        .map(|span| {
            span.schema()
                .is_none_or(|schema| longest.get(&span.request).map(|l| l.1) == Some(schema))
        })
        .collect()
}

/// The share of a request's wall time the layer spans account for: per request, Σ self times
/// of its non-root spans on the critical path ÷ its root's duration; the median over requests
/// (one stalled replay would outweigh every other request in a ratio of sums).  Above 1 when
/// the steps, replayed one after another, took longer than the real request they explain.
pub fn coverage_share(spans: &[Span]) -> f64 {
    let selfs = self_times_ns(spans);
    let on_path = on_critical_path(spans);
    let mut per_request: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for ((span, self_ns), on_path) in spans.iter().zip(&selfs).zip(&on_path) {
        let (wall, attributed) = per_request.entry(span.request).or_default();
        if span.parent.is_none() {
            *wall += span.duration_ns();
        } else if *on_path {
            *attributed += self_ns;
        }
    }
    let shares: Vec<f64> = per_request
        .values()
        .filter(|(wall, _)| *wall > 0)
        .map(|(wall, attributed)| *attributed as f64 / *wall as f64)
        .collect();
    median(&shares)
}

/// Per-request totals, in ns, of `values[i]` over the spans of one layer that are on the
/// request's critical path.
fn per_request_totals(spans: &[Span], values: &[u64], layer: &str) -> Vec<f64> {
    let on_path = on_critical_path(spans);
    let mut by_request: BTreeMap<u64, u64> = BTreeMap::new();
    for ((span, value), on_path) in spans.iter().zip(values).zip(&on_path) {
        if span.layer() == layer && *on_path {
            *by_request.entry(span.request).or_default() += value;
        }
    }
    by_request.into_values().map(|ns| ns as f64).collect()
}

/// Per-request totals of one layer's span durations, in ns.
pub fn layer_totals_ns(spans: &[Span], layer: &str) -> Vec<f64> {
    let durations: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    per_request_totals(spans, &durations, layer)
}

/// Per-request totals of one layer's span self times, in ns.
pub fn layer_self_totals_ns(spans: &[Span], layer: &str) -> Vec<f64> {
    per_request_totals(spans, &self_times_ns(spans), layer)
}

/// The trace file: one JSON object per span, in recording order.
pub fn spans_json(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("{\"spans\":[\n");
    for (i, (span, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\
             \"end_ns\":{},\"self_ns\":{self_ns}}}",
            if i > 0 { ",\n" } else { "" },
            span.name,
            span.request,
            span.start_ns,
            span.end_ns,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(samples_beyond(39, 75.0), 9);
        assert_eq!(samples_beyond(5, 100.0), 0);
    }

    #[test]
    fn self_time_subtracts_clipped_overlapping_children() {
        let spans = vec![
            span("http.request", None, 0, 100),
            span("service.submit_wait", Some(0), 10, 70),
            span("server.render", Some(0), 60, 120), // overlaps its sibling, overflows the root
            span("core.prepare", Some(1), 10, 30),
            span("core.execute", Some(1), 30, 50),
        ];
        // Root: children cover [10,70) ∪ [60,100) = 90 → self 10.
        // submit_wait: 60 − (20 + 20) = 20.  render: no children → its full 60.
        assert_eq!(self_times_ns(&spans), vec![10, 20, 60, 20, 20]);
        // (20 + 60 + 20 + 20) / 100
        assert!((coverage_share(&spans) - 1.2).abs() < 1e-12);
        // The median of the requests' shares: a second request covered by a quarter …
        let mut more = spans.clone();
        for (name, parent, end_ns) in [("http.request", None, 40), ("server.render", Some(5), 10)] {
            more.push(Span {
                request: 1,
                ..span(name, parent, 0, end_ns)
            });
        }
        assert!((coverage_share(&more) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn layer_totals_follow_each_requests_critical_schema() {
        let mut spans = vec![
            span("http.request", None, 0, 100),
            span("service.batch/Excel", Some(0), 0, 60),
            span("service.batch/Noris", Some(0), 0, 25),
            span("core.prepare/Excel", Some(1), 0, 30),
            span("core.prepare/Noris", Some(2), 0, 10),
            span("server.render", Some(0), 60, 70),
        ];
        // A second request, whose slower schema is the other one.
        for (name, parent, end_ns) in [
            ("http.request", None, 50),
            ("service.batch/Excel", Some(6), 5),
            ("service.batch/Noris", Some(6), 40),
            ("core.prepare/Excel", Some(7), 5),
            ("core.prepare/Noris", Some(8), 20),
        ] {
            spans.push(Span {
                request: 1,
                ..span(name, parent, 0, end_ns)
            });
        }
        assert_eq!(layer_totals_ns(&spans, "core.prepare"), vec![30.0, 20.0]);
        assert_eq!(layer_totals_ns(&spans, "service.batch"), vec![60.0, 40.0]);
        // Spans without a schema always count.
        assert_eq!(layer_totals_ns(&spans, "server.render"), vec![10.0]);
        assert!(layer_totals_ns(&spans, "core.execute").is_empty());
        // A root keeps what its children leave uncovered: 100 − ([0,60) ∪ [60,70)).
        assert_eq!(
            layer_self_totals_ns(&spans, "http.request"),
            vec![30.0, 10.0]
        );
        // Coverage counts the critical schema only: (60 + 10) / 100 and 40 / 50; the lower median.
        assert!((coverage_share(&spans) - 0.7).abs() < 1e-12);
        assert!(spans_json(&spans).contains("\"name\":\"core.prepare/Noris\""));
    }
}
