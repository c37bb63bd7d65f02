//! End-to-end observability tests: metric-surface coverage, Prometheus exposition
//! well-formedness, X-Trace-Id propagation and the span tree of a traced request.
//!
//! The coverage test is driven by [`ServiceMetrics::fields`] — the same canonical enumeration
//! the server renders from — so adding a metric without surfacing it on *both* `GET /metrics`
//! and `GET /metrics.json` fails here.

use std::time::Duration;
use urm_datagen::scenario::{Scenario, ScenarioConfig, TargetSchemaKind};
use urm_server::{AdmissionConfig, AdmissionController, HttpClient, Json, UrmServer};
use urm_service::{QueryService, ServiceConfig, ServiceMetrics};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

fn start_server() -> UrmServer {
    let scenario = Scenario::generate(&ScenarioConfig {
        target: TargetSchemaKind::Excel,
        scale: 4,
        mappings: 6,
        seed: 7,
    })
    .expect("scenario generation");
    let service = QueryService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let epoch = service.register_epoch(scenario.catalog, scenario.mappings);
    UrmServer::start(
        "127.0.0.1:0",
        service,
        vec![(TargetSchemaKind::Excel, epoch)],
        AdmissionController::new(AdmissionConfig::default()),
    )
    .expect("server start")
}

fn connect(server: &UrmServer) -> HttpClient {
    HttpClient::connect(server.addr(), CLIENT_TIMEOUT).expect("connect")
}

/// A tiny Prometheus text-exposition parser: `# TYPE` declarations plus `name{labels} value`
/// samples, enough to verify the contract a real scraper relies on.
struct Exposition {
    /// `(metric name, declared type)` in order of appearance.
    types: Vec<(String, String)>,
    /// `(series including labels, value)` in order of appearance.
    samples: Vec<(String, f64)>,
}

fn parse_exposition(body: &str) -> Exposition {
    let mut types = Vec::new();
    let mut samples = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("TYPE name").to_string();
            let kind = parts.next().expect("TYPE kind").to_string();
            types.push((name, kind));
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("non-numeric sample value in line {line:?}");
        });
        samples.push((series.to_string(), value));
    }
    Exposition { types, samples }
}

impl Exposition {
    fn value(&self, series: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|(s, _)| s == series)
            .map(|(_, v)| *v)
    }

    /// The `(le, cumulative)` bucket series of one labelled histogram, in exposition order
    /// (`+Inf` excluded — it is checked against `_count` separately).
    fn buckets(&self, family: &str, label: &str, value: &str) -> Vec<(u64, u64)> {
        let prefix = format!("{family}_bucket{{{label}=\"{value}\",le=\"");
        self.samples
            .iter()
            .filter_map(|(series, count)| {
                let le = series.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                if le == "+Inf" {
                    return None;
                }
                Some((le.parse().expect("numeric le"), *count as u64))
            })
            .collect()
    }
}

/// Asserts one labelled histogram series is a well-formed Prometheus histogram: ascending
/// `le` bounds, monotone cumulative counts, and `+Inf` / `_count` / `_sum` all consistent.
fn assert_histogram(exp: &Exposition, family: &str, label: &str, value: &str) {
    let buckets = exp.buckets(family, label, value);
    for window in buckets.windows(2) {
        assert!(window[0].0 < window[1].0, "le bounds must ascend");
        assert!(
            window[0].1 <= window[1].1,
            "cumulative bucket counts must be monotone"
        );
    }
    let count = exp
        .value(&format!("{family}_count{{{label}=\"{value}\"}}"))
        .expect("_count sample") as u64;
    let inf = exp
        .value(&format!(
            "{family}_bucket{{{label}=\"{value}\",le=\"+Inf\"}}"
        ))
        .expect("+Inf bucket") as u64;
    assert_eq!(inf, count, "+Inf bucket must equal _count");
    assert!(
        count == 0 || !buckets.is_empty(),
        "{family}{{{label}={value}}} recorded samples but exposes no finite bucket"
    );
    if let Some(last) = buckets.last() {
        assert!(last.1 <= count, "last finite bucket exceeds _count");
    }
    let sum = exp
        .value(&format!("{family}_sum{{{label}=\"{value}\"}}"))
        .expect("_sum sample");
    assert!(sum >= 0.0);
    if count == 0 {
        assert_eq!(sum, 0.0, "empty histogram must have zero _sum");
    }
}

#[test]
fn every_service_metric_reaches_both_surfaces() {
    let server = start_server();
    let mut client = connect(&server);
    // Put some work through so counters are non-trivial.
    let response = client
        .request("POST", "/batch", Some("{\"specs\": [\"Q1\", \"join:2\"]}"))
        .unwrap();
    assert_eq!(response.status, 200);

    let fields = ServiceMetrics::default().fields();

    // JSON surface: every canonical field name is a key.
    let json = client.request("GET", "/metrics.json", None).unwrap();
    assert_eq!(json.status, 200);
    let doc = Json::parse(&json.body).unwrap();
    for (name, _, _) in &fields {
        assert!(
            doc.get(name).and_then(Json::as_f64).is_some(),
            "/metrics.json is missing {name}"
        );
    }

    // Prometheus surface: every field is a `urm_<name>` sample with a matching TYPE line.
    let prom = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(prom.status, 200);
    assert!(prom
        .header("content-type")
        .is_some_and(|t| t.starts_with("text/plain")));
    let exp = parse_exposition(&prom.body);
    for (name, _, _) in &fields {
        let prom_name = format!("urm_{name}");
        assert!(
            exp.value(&prom_name).is_some(),
            "/metrics is missing {prom_name}"
        );
        assert!(
            exp.types.iter().any(|(n, _)| *n == prom_name),
            "{prom_name} has no # TYPE declaration"
        );
    }
    // The two surfaces must agree that work happened.
    assert!(exp.value("urm_batches").unwrap() >= 1.0);
    assert!(doc.get("batches").and_then(Json::as_f64).unwrap() >= 1.0);

    // Histogram families: every stage and endpoint series is well-formed, and the exercised
    // ones are non-empty.
    for stage in ["rewrite", "plan", "execute", "aggregate", "query", "batch"] {
        assert_histogram(&exp, "urm_stage_duration_ns", "stage", stage);
    }
    for endpoint in ["query", "batch"] {
        assert_histogram(&exp, "urm_http_request_duration_ns", "endpoint", endpoint);
    }
    assert!(
        exp.value("urm_stage_duration_ns_count{stage=\"batch\"}")
            .unwrap()
            >= 1.0,
        "the served batch must have recorded a batch-stage latency"
    );
    assert!(
        exp.value("urm_http_request_duration_ns_count{endpoint=\"batch\"}")
            .unwrap()
            >= 1.0,
        "the served request must have recorded an endpoint latency"
    );
    server.shutdown();
}

#[test]
fn traced_requests_echo_their_id_and_record_a_well_formed_span_tree() {
    let server = start_server();
    let mut client = connect(&server);

    // A fresh (uncached) query carrying a trace id: the response echoes the id back.
    let traced = client
        .request_with_headers(
            "POST",
            "/query",
            &[("x-trace-id", "test-trace-1")],
            Some("{\"spec\": \"join:2\"}"),
        )
        .unwrap();
    assert_eq!(traced.status, 200);
    assert_eq!(traced.header("x-trace-id"), Some("test-trace-1"));

    // The whole DAG of that batch executed under the trace: compare span coverage against
    // the service counter (this was the only batch, so the totals are the batch's own).
    let metrics = client.request("GET", "/metrics.json", None).unwrap();
    let nodes_executed = Json::parse(&metrics.body)
        .unwrap()
        .get("dag_nodes_executed")
        .and_then(Json::as_f64)
        .unwrap() as usize;

    let debug = client.request("GET", "/debug/traces", None).unwrap();
    assert_eq!(debug.status, 200);
    let doc = Json::parse(&debug.body).unwrap();
    let traces = doc.get("traces").and_then(Json::as_arr).unwrap();
    let trace = traces
        .iter()
        .find(|t| t.get("id").and_then(Json::as_str) == Some("test-trace-1"))
        .expect("the traced request must appear in /debug/traces");
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    assert!(!spans.is_empty());

    let field = |span: &Json, name: &str| span.get(name).and_then(Json::as_f64).unwrap() as u64;
    let name = |span: &Json| span.get("name").and_then(Json::as_str).unwrap().to_string();
    let ids: Vec<u64> = spans.iter().map(|s| field(s, "span")).collect();
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "span ids must be unique");

    // Every parent is either the root (0) or another span of the same trace.
    for span in spans {
        let parent = field(span, "parent");
        assert!(
            parent == 0 || ids.contains(&parent),
            "span {} has unknown parent {parent}",
            field(span, "span")
        );
    }

    // The stage spans hang off the batch span and do not overlap (they are sequential).
    let batch = spans
        .iter()
        .find(|s| name(s) == "batch")
        .expect("batch root span");
    let batch_id = field(batch, "span");
    assert_eq!(field(batch, "parent"), 0);
    let mut stages: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| {
            matches!(
                name(s).as_str(),
                "rewrite" | "optimize_bind" | "execute" | "aggregate"
            )
        })
        .map(|s| {
            assert_eq!(
                field(s, "parent"),
                batch_id,
                "stage span {} must parent to the batch span",
                name(s)
            );
            (field(s, "start_ns"), field(s, "dur_ns"))
        })
        .collect();
    assert!(stages.len() >= 4, "expected all four stage spans");
    stages.sort_unstable();
    for window in stages.windows(2) {
        assert!(
            window[0].0 + window[0].1 <= window[1].0,
            "sibling stage spans must not overlap"
        );
    }

    // Every executed DAG node produced exactly one `node` span, each tagged and parented
    // into the tree (their ancestors reach the batch span through `execute`).
    let node_spans: Vec<&Json> = spans.iter().filter(|s| name(s) == "node").collect();
    assert_eq!(
        node_spans.len(),
        nodes_executed,
        "every executed DAG node must be covered by a span"
    );
    let mut ops = std::collections::HashSet::new();
    for span in &node_spans {
        let tags = span.get("tags").expect("node span tags");
        assert!(tags.get("node").and_then(Json::as_f64).is_some());
        assert!(tags.get("shared_by").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(field(span, "parent") != 0, "node spans must not be roots");
        // What the node was, and what it read and wrote: a slow node is nameable from here.
        let op = tags.get("op").and_then(Json::as_str).expect("node op");
        let rows_in = tags.get("rows_in").and_then(Json::as_f64).expect("rows in");
        assert!(tags.get("rows").and_then(Json::as_f64).is_some());
        assert!(
            op != "scan" || rows_in == 0.0,
            "a leaf reads no operator's rows"
        );
        ops.insert(op);
    }
    assert!(ops.contains("scan") && ops.contains("distinct"), "{ops:?}");
    // What answer assembly cost is nameable too: root rows read, answer tuples built.
    let aggregate = spans.iter().find(|s| name(s) == "aggregate").unwrap();
    let tags = aggregate.get("tags").expect("aggregate span tags");
    let rows = tags
        .get("rows")
        .and_then(Json::as_f64)
        .expect("rows probed");
    let answers = tags
        .get("answers")
        .and_then(Json::as_f64)
        .expect("tuples built");
    assert!(
        answers >= 1.0 && rows >= answers,
        "{rows} rows, {answers} answers"
    );
    // The admission wait was traced too.
    assert!(spans.iter().any(|s| name(s) == "admission"));
    server.shutdown();
}
