//! The traced run: a shortened untraced run for the counter-derived shares, then the
//! single-threaded *layer pass* — each request of a fixed prefix of the stream is replayed as a
//! staircase of bench-owned spans, every span one timed call into one layer's public API —
//! then fixed-size probes of single functions.  No span is added inside `crates/*`, and every
//! span is recorded after the call it times has returned, so tracing costs the timed calls
//! nothing.

use crate::bench::{latency_summary, setup, timed_run, Ready};
use crate::drive::{cold_iteration, connect, query_body, Outcome};
use crate::metrics::{Metrics, PER_LAYER};
use crate::procfs;
use crate::stats::{coverage_share, layer_self_totals_ns, layer_totals_ns, median, Span};
use crate::workload::{admission_config, request_order, Shape, Size, Workload, WORKERS};
use crate::world::{ms, start_server, us, World};
use std::collections::{BTreeMap, HashMap};
use std::net::{IpAddr, Ipv4Addr};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use urm_core::reformulate::{extract_answers, reformulate, Reformulated, SourceQuery};
use urm_core::{
    evaluate, Algorithm, ProbabilisticAnswer, Strategy, TargetQuery, DEFAULT_PIN_BUDGET_BYTES,
};
use urm_datagen::replay::WorkloadEntry;
use urm_datagen::scenario::TargetSchemaKind;
use urm_datagen::similarity::{score_schemas, DEFAULT_THRESHOLD};
use urm_engine::optimize::{fingerprint, optimize};
use urm_engine::{AggFunc, CompareOp, EpochDag, Executor, Plan, Predicate};
use urm_matching::MappingSet;
use urm_server::{answer_json, parse_query_spec, AdmissionController, Json};
use urm_service::answer_cache::CachedAnswer;
use urm_service::{AnswerCache, EpochId, MetricKind, QueryService, ServedFrom, ServiceMetrics};
use urm_storage::codec::{decode_segment, encode_segment, encoded_rows_len};
use urm_storage::{BufferPool, Catalog, ColumnarRelation, Value};

/// Share of `--seconds` the shortened untraced run gets; the layer pass runs until
/// [`LAYER_PASS_UNTIL`] of it has gone (longer where [`Size::cold_pass_iterations`] asks for
/// it), the probes take what they take (about two seconds).
const UNTRACED_SHARE: f64 = 0.35;
const LAYER_PASS_UNTIL: f64 = 0.80;
/// Repetitions of the fixed-size probes.
const FLOOR_REQUESTS: usize = 300;
const KERNEL_RUNS: usize = 500;
const CODEC_RUNS: usize = 50;
const POOL_RUNS: usize = 50;
const CACHE_LOOKUPS: usize = 2_000;
/// The paper's reference algorithms are summed over these queries (Q3 is left out:
/// o-sharing(SEF) alone takes 1.5–6 s on it at this scale).
const ALGO_QUERIES: [&str; 4] = ["Q1", "Q2", "Q4", "Q5"];

/// Service counters as a name → value map, so deltas and sums need no per-field code.
#[derive(Debug, Clone, Default)]
struct Counters(BTreeMap<&'static str, (MetricKind, f64)>);

impl Counters {
    fn of(metrics: &ServiceMetrics) -> Self {
        Counters(
            metrics
                .fields()
                .into_iter()
                .map(|(name, kind, value)| (name, (kind, value)))
                .collect(),
        )
    }

    /// What was counted since `earlier` (gauges keep their current value).
    fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(name, &(kind, now))| {
                    let then = earlier.0.get(name).map_or(0.0, |e| e.1);
                    let value = if kind == MetricKind::Counter {
                        now - then
                    } else {
                        now
                    };
                    (*name, (kind, value))
                })
                .collect(),
        )
    }

    /// Adds another server's counters (gauges keep the larger value).
    fn absorb(&mut self, other: &Counters) {
        for (name, &(kind, value)) in &other.0 {
            let mine = self.0.entry(name).or_insert((kind, 0.0));
            mine.1 = if kind == MetricKind::Counter {
                mine.1 + value
            } else {
                mine.1.max(value)
            };
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.1)
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// A span tree under construction: durations are measured, positions are laid out afterwards.
struct Node {
    name: String,
    duration: Duration,
    /// Children start together (per-schema batches on parallel workers) instead of in sequence.
    parallel: bool,
    children: Vec<Node>,
}

impl Node {
    fn leaf(name: impl Into<String>, duration: Duration) -> Node {
        Node {
            name: name.into(),
            duration,
            parallel: false,
            children: Vec::new(),
        }
    }

    fn with(mut self, children: Vec<Node>) -> Node {
        self.children = children;
        self
    }

    /// Appends this tree to `spans`: each node at `start_ns`, its children from its own start.
    fn flatten(&self, request: u64, parent: Option<usize>, start_ns: u64, spans: &mut Vec<Span>) {
        let index = spans.len();
        spans.push(Span {
            name: self.name.clone(),
            request,
            parent,
            start_ns,
            end_ns: start_ns + self.duration.as_nanos() as u64,
        });
        let mut cursor = start_ns;
        for child in &self.children {
            child.flatten(request, Some(index), cursor, spans);
            if !self.parallel {
                cursor += child.duration.as_nanos() as u64;
            }
        }
    }
}

/// `reformulate` through every mapping, identical source queries clustered with their summed
/// probabilities and ordered as the batch path orders them (descending probability, plan
/// fingerprint as tie-break), plus the probability mass of mappings with no reformulation.
fn rewrite(
    query: &TargetQuery,
    mappings: &MappingSet,
    catalog: &Catalog,
) -> Result<(Vec<(SourceQuery, f64)>, f64), String> {
    let mut groups: HashMap<SourceQuery, f64> = HashMap::new();
    let mut empty_probability = 0.0;
    for mapping in mappings.iter() {
        match reformulate(query, mapping, catalog).map_err(|e| e.to_string())? {
            Reformulated::Empty => empty_probability += mapping.probability(),
            Reformulated::Query(sq) => *groups.entry(sq).or_insert(0.0) += mapping.probability(),
        }
    }
    let mut ordered: Vec<(SourceQuery, f64)> = groups.into_iter().collect();
    ordered.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then_with(|| a.0.plan.fingerprint().cmp(&b.0.plan.fingerprint()))
    });
    Ok((ordered, empty_probability))
}

/// The innermost steps of the staircase for one schema's queries: the public calls
/// `prepare_batch_epoch` and `execute_prepared_batch` make, in their order, each timed on its
/// own inside a timer around its stage — so a stage's parts never exceed it.  (The two
/// functions' parts cannot be timed from outside them; what they add to these calls shows in
/// `service.submit_wait`, which runs the functions themselves.)
struct BatchStep {
    /// The bind stage, as `prepare_batch_epoch`: rewrite, then optimise, bind and merge.
    prepare: Duration,
    rewrite: Duration,
    optimize: Duration,
    bind: Duration,
    dag_merge: Duration,
    /// The execute stage, as `execute_prepared_batch`: executor, execution, aggregation.
    execute: Duration,
    engine_execute: Duration,
    aggregate: Duration,
    source_queries: usize,
    answers: Vec<ProbabilisticAnswer>,
}

fn batch_step(
    queries: &[TargetQuery],
    mappings: &MappingSet,
    catalog: &Catalog,
    dag: &mut EpochDag,
) -> Result<BatchStep, String> {
    let prepare_started = Instant::now();
    let rewritten: Vec<_> = queries
        .iter()
        .map(|q| rewrite(q, mappings, catalog))
        .collect::<Result<_, _>>()?;
    let rewrite_time = prepare_started.elapsed();

    // What the epoch has bound before is a hash lookup, the rest is optimised and bound inside
    // the closure; the remainder of the stage is DAG merging and the snapshot.
    let binder = Executor::new(catalog);
    let (mut optimize_time, mut bind_time) = (Duration::ZERO, Duration::ZERO);
    for (sq, _) in rewritten.iter().flat_map(|(ordered, _)| ordered) {
        dag.submit_with(fingerprint(&sq.plan), || {
            let t = Instant::now();
            let plan = optimize(&sq.plan, catalog)?;
            optimize_time += t.elapsed();
            let t = Instant::now();
            let bound = binder.bind(&plan);
            bind_time += t.elapsed();
            bound
        })
        .map_err(|e| e.to_string())?;
    }
    let prepared = dag.prepare_pending();
    let prepare = prepare_started.elapsed();
    let dag_merge = prepare.saturating_sub(rewrite_time + optimize_time + bind_time);

    let execute_started = Instant::now();
    let mut exec = match prepared.pool().cloned() {
        Some(pool) => Executor::with_pool(catalog, pool),
        None => Executor::new(catalog),
    };
    let started = Instant::now();
    let run = prepared
        .execute(&mut exec, WORKERS)
        .map_err(|e| e.to_string())?;
    let engine_execute = started.elapsed();

    let started = Instant::now();
    let mut roots = run.root_results.iter();
    let answers = rewritten
        .iter()
        .map(|(ordered, empty_probability)| {
            let mut answer = ProbabilisticAnswer::new();
            for ((sq, probability), result) in ordered.iter().zip(&mut roots) {
                answer.add_distinct(extract_answers(result, &sq.extraction), *probability);
            }
            if *empty_probability > 0.0 {
                answer.add_empty(*empty_probability);
            }
            answer
        })
        .collect();
    Ok(BatchStep {
        prepare,
        rewrite: rewrite_time,
        optimize: optimize_time,
        bind: bind_time,
        dag_merge,
        aggregate: started.elapsed(),
        execute: execute_started.elapsed(),
        engine_execute,
        source_queries: rewritten.iter().map(|(ordered, _)| ordered.len()).sum(),
        answers,
    })
}

/// An epoch DAG configured as `QueryService::register_epoch` configures one.
fn new_dag(workload: &Workload) -> EpochDag {
    match workload.memory_budget {
        Some(budget) => EpochDag::with_memory_budget(budget),
        None => EpochDag::with_pin_budget(DEFAULT_PIN_BUDGET_BYTES),
    }
}

/// Bench-owned copies of what the server holds for each target schema, one per staircase
/// step so no step warms the next: a service with its epochs, and an epoch DAG of its own.
struct Replica {
    service: QueryService,
    per_target: Vec<TargetState>,
}

struct TargetState {
    target: TargetSchemaKind,
    catalog: Catalog,
    mappings: MappingSet,
    epoch: EpochId,
    dag: EpochDag,
}

impl Replica {
    fn new(world: &World, workload: &Workload, cold: bool) -> Replica {
        let service = QueryService::new(workload.service_config());
        let catalog_of = |target| {
            if cold {
                world.cold_catalog(target)
            } else {
                world.scenario(target).catalog.clone()
            }
        };
        let per_target = world
            .scenarios
            .iter()
            .map(|scenario| {
                let target = scenario.config.target;
                TargetState {
                    target,
                    // One catalog per step: each step of a cold iteration converts its own.
                    catalog: catalog_of(target),
                    mappings: scenario.mappings.clone(),
                    epoch: service.register_epoch(catalog_of(target), scenario.mappings.clone()),
                    dag: new_dag(workload),
                }
            })
            .collect();
        Replica {
            service,
            per_target,
        }
    }
}

/// The request's specs grouped by target schema (first-seen order), duplicates removed as the
/// service's in-batch dedup removes them.
fn group_by_target(entries: &[WorkloadEntry]) -> Vec<(TargetSchemaKind, Vec<&WorkloadEntry>)> {
    let mut groups: Vec<(TargetSchemaKind, Vec<&WorkloadEntry>)> = Vec::new();
    for entry in entries {
        let at = match groups.iter().position(|(t, _)| *t == entry.target) {
            Some(at) => at,
            None => {
                groups.push((entry.target, Vec::new()));
                groups.len() - 1
            }
        };
        if !groups[at].1.iter().any(|seen| seen.label == entry.label) {
            groups[at].1.push(entry);
        }
    }
    groups
}

/// One request replayed step by step.  `http` is the real round trip measured beforehand.
struct Staircase<'a> {
    workload: &'a Workload,
    ready: &'a Ready,
    admission: AdmissionController,
    source_queries: usize,
    queries_rewritten: usize,
    rendered_bytes: u64,
}

impl Staircase<'_> {
    /// Replays the request `body` (asking for `specs`) and returns its span tree.
    fn replay(
        &mut self,
        http: Duration,
        body: &str,
        specs: &[&str],
        replica: &mut Replica,
    ) -> Result<Node, String> {
        let batch = self.workload.shape == Shape::ColdBatch;

        // server.parse — the body to workload entries, as `serve_queries` does it.
        let started = Instant::now();
        let doc = Json::parse(body)?;
        let entries = if batch {
            doc.get("specs")
                .and_then(Json::as_arr)
                .ok_or("batch body without specs")?
                .iter()
                .map(|s| parse_query_spec(s.as_str().unwrap_or_default()))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            vec![parse_query_spec(
                doc.get("spec").and_then(Json::as_str).ok_or("no spec")?,
            )?]
        };
        let parse = Node::leaf("server.parse", started.elapsed());

        // server.admit — both gates, and the permit's release.
        let started = Instant::now();
        let permit = self
            .admission
            .admit(
                IpAddr::V4(Ipv4Addr::LOCALHOST),
                entries.len(),
                entries.len() as u64,
            )
            .map_err(|e| format!("admission refused: {e:?}"))?;
        drop(permit);
        let admit = Node::leaf("server.admit", started.elapsed());

        // service.submit_wait — submit, flush, wait, in process.
        let queries: Vec<TargetQuery> = entries.iter().map(|e| e.query.clone()).collect();
        let started = Instant::now();
        let tickets = entries
            .iter()
            .zip(queries)
            .map(|(entry, query)| {
                let state = replica.per_target.iter().find(|s| s.target == entry.target);
                let epoch = state.ok_or("spec targets an unserved schema")?.epoch;
                replica
                    .service
                    .submit(epoch, query)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        replica.service.flush();
        let responses = tickets
            .into_iter()
            .map(|t| t.wait().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut service = Node::leaf("service.submit_wait", started.elapsed());
        service.parallel = true;

        // Everything below the service only happens for queries the answer cache missed.
        let evaluated: Vec<WorkloadEntry> = entries
            .iter()
            .zip(&responses)
            .filter(|(_, r)| r.served_from != ServedFrom::AnswerCache)
            .map(|(entry, _)| entry.clone())
            .collect();
        for (target, group) in group_by_target(&evaluated) {
            let state = replica
                .per_target
                .iter_mut()
                .find(|s| s.target == target)
                .expect("grouped from served targets");
            let labels: Vec<&str> = group.iter().map(|e| e.label.as_str()).collect();
            let group: Vec<TargetQuery> = group.iter().map(|e| e.query.clone()).collect();
            // core.prepare, core.execute and the calls they make.
            let step = batch_step(&group, &state.mappings, &state.catalog, &mut state.dag)?;
            for (label, answer) in labels.iter().zip(&step.answers) {
                let at = self.workload.specs.iter().position(|s| s == label);
                let expected = at.map(|i| self.ready.expected[i].as_str());
                if expected != Some(answer_json(label, answer).to_string().as_str()) {
                    return Err(format!(
                        "layer pass: '{label}' differs from the verified bytes"
                    ));
                }
            }
            self.source_queries += step.source_queries;
            self.queries_rewritten += group.len();
            let named = |layer: &str| format!("{layer}/{target}");
            service.children.push(
                Node::leaf(named("service.batch"), step.prepare + step.execute).with(vec![
                    Node::leaf(named("core.prepare"), step.prepare).with(vec![
                        Node::leaf(named("core.rewrite"), step.rewrite),
                        Node::leaf(named("engine.optimize"), step.optimize),
                        Node::leaf(named("engine.bind"), step.bind),
                        Node::leaf(named("engine.dag_merge"), step.dag_merge),
                    ]),
                    Node::leaf(named("core.execute"), step.execute).with(vec![
                        Node::leaf(named("engine.execute"), step.engine_execute),
                        Node::leaf(named("core.aggregate"), step.aggregate),
                    ]),
                ]),
            );
        }

        // server.render — the response document(s), as `serve_queries` builds them.
        let started = Instant::now();
        for (spec, response) in specs.iter().zip(&responses) {
            let answer = answer_json(spec, &response.answer);
            let rendered = if batch {
                answer.to_string()
            } else {
                Json::obj([
                    ("answer", answer),
                    ("served_from", Json::Str("evaluated".into())),
                    ("batch", Json::Num(response.batch as f64)),
                ])
                .to_string()
            };
            self.rendered_bytes += rendered.len() as u64;
        }
        let render = Node::leaf("server.render", started.elapsed());

        Ok(Node::leaf("http.request", http).with(vec![parse, admit, service, render]))
    }
}

/// p50 over requests of a layer's per-request total, converted by `unit` (0 with no spans).
fn layer_p50(spans: &[Span], layer: &str, unit: fn(Duration) -> f64) -> (f64, usize) {
    let totals = layer_totals_ns(spans, layer);
    (
        unit(Duration::from_nanos(median(&totals) as u64)),
        totals.len(),
    )
}

/// p50 over requests of a layer's per-request self time, in µs.
fn layer_self_p50_us(spans: &[Span], layer: &str) -> (f64, usize) {
    let totals = layer_self_totals_ns(spans, layer);
    (median(&totals) / 1e3, totals.len())
}

/// The layer pass: replays the stream's prefix until `deadline` (at least two passes over the
/// specs, or [`Size::cold_pass_iterations`] cold iterations).
fn layer_pass(
    workload: &Workload,
    seed: u64,
    size: Size,
    ready: &Ready,
    deadline: Instant,
    m: &mut Metrics,
) -> Result<Vec<Span>, String> {
    let mut stairs = Staircase {
        workload,
        ready,
        admission: AdmissionController::new(admission_config()),
        source_queries: 0,
        queries_rewritten: 0,
        rendered_bytes: 0,
    };
    let origin = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let mut bind = (0u64, 0u64);
    let mut request = 0u64;

    match workload.shape {
        Shape::Queries => {
            // The server and the replica are both warm: every spec has been answered once.
            let server = ready
                .server
                .as_ref()
                .expect("Queries set-up starts a server");
            let mut client = connect(server.addr())?;
            let mut replica = Replica::new(&ready.world, workload, false);
            let order = request_order(workload, seed);
            let bodies: Vec<String> = workload.specs.iter().map(|s| query_body(s)).collect();
            for &i in &order {
                let spec = [workload.specs[i]];
                stairs.replay(Duration::ZERO, &bodies[i], &spec, &mut replica)?;
            }
            let warm = (stairs.source_queries, stairs.queries_rewritten);
            let warm_bind: Vec<(u64, u64)> = replica
                .per_target
                .iter()
                .map(|s| (s.dag.bind_hits(), s.dag.bind_misses()))
                .collect();
            stairs.rendered_bytes = 0;
            'pass: loop {
                for &i in &order {
                    if request >= order.len() as u64 * 2 && Instant::now() >= deadline {
                        break 'pass;
                    }
                    let at = Instant::now();
                    let response = client
                        .request("POST", "/query", Some(&bodies[i]))
                        .map_err(|e| format!("layer pass '{}': {e}", workload.specs[i]))?;
                    let http = at.elapsed();
                    if response.status != 200 {
                        return Err(format!("layer pass: HTTP {}", response.status));
                    }
                    let spec = [workload.specs[i]];
                    let tree = stairs.replay(http, &bodies[i], &spec, &mut replica)?;
                    tree.flatten(request, None, (at - origin).as_nanos() as u64, &mut spans);
                    request += 1;
                }
            }
            stairs.source_queries -= warm.0;
            stairs.queries_rewritten -= warm.1;
            for (state, (hits, misses)) in replica.per_target.iter().zip(warm_bind) {
                bind.0 += state.dag.bind_hits() - hits;
                bind.1 += state.dag.bind_misses() - misses;
            }
        }
        Shape::ColdBatch => {
            while request < size.cold_pass_iterations() || Instant::now() < deadline {
                let at = Instant::now();
                let iteration = cold_iteration(&ready.world, workload, &ready.request_body)?;
                if iteration.body != ready.expected_body {
                    return Err("layer pass: batch answers differ from the verified bytes".into());
                }
                let mut replica = Replica::new(&ready.world, workload, true);
                let tree = stairs.replay(
                    iteration.latency,
                    &ready.request_body,
                    &ready.batch_specs,
                    &mut replica,
                )?;
                tree.flatten(request, None, (at - origin).as_nanos() as u64, &mut spans);
                for state in &replica.per_target {
                    bind.0 += state.dag.bind_hits();
                    bind.1 += state.dag.bind_misses();
                }
                request += 1;
            }
        }
    }

    let set_p50 = |m: &mut Metrics, name: &'static str, layer: &str, unit: fn(Duration) -> f64| {
        let (value, samples) = layer_p50(&spans, layer, unit);
        m.set(name, value, samples);
    };
    set_p50(m, "server.parse_us", "server.parse", us);
    set_p50(m, "server.admit_us", "server.admit", us);
    set_p50(m, "server.render_us", "server.render", us);
    set_p50(m, "service.submit_wait_us", "service.submit_wait", us);
    set_p50(m, "core.prepare_ms", "core.prepare", ms);
    set_p50(m, "core.execute_ms", "core.execute", ms);
    set_p50(m, "engine.optimize_ms", "engine.optimize", ms);
    set_p50(m, "engine.bind_ms", "engine.bind", ms);
    set_p50(m, "engine.dag_merge_ms", "engine.dag_merge", ms);
    set_p50(m, "engine.execute_ms", "engine.execute", ms);
    set_p50(m, "core.aggregate_ms", "core.aggregate", ms);
    let render_ns: f64 = layer_totals_ns(&spans, "server.render").iter().sum();
    m.set(
        "server.render_mb_s",
        ratio(stairs.rendered_bytes as f64 / 1e6, render_ns / 1e9),
        spans.iter().filter(|s| s.parent.is_none()).count(),
    );
    // Per query, so over every schema's queries, on the critical path or not.
    let rewrite_ns: f64 = spans
        .iter()
        .filter(|s| s.layer() == "core.rewrite")
        .map(|s| s.duration_ns() as f64)
        .sum();
    m.set(
        "core.rewrite_ms",
        ratio(rewrite_ns / 1e6, stairs.queries_rewritten as f64),
        stairs.queries_rewritten,
    );
    m.set(
        "core.source_queries_per_query",
        ratio(
            stairs.source_queries as f64,
            stairs.queries_rewritten as f64,
        ),
        stairs.queries_rewritten,
    );
    m.set(
        "engine.bind_hit_share",
        ratio(bind.0 as f64, (bind.0 + bind.1) as f64),
        (bind.0 + bind.1) as usize,
    );
    let (dispatch, n) = layer_self_p50_us(&spans, "service.submit_wait");
    m.set("service.dispatch_self_us", dispatch, n);
    let (io, n) = layer_self_p50_us(&spans, "http.request");
    m.set("server.io_self_us", io, n);
    m.set("trace.coverage_share", coverage_share(&spans), n);
    Ok(spans)
}

/// Metrics read off the shortened untraced run and the service counters it moved.
fn counter_metrics(
    workload: &Workload,
    ready: &Ready,
    out: &Outcome,
    c: &Counters,
    m: &mut Metrics,
) {
    let attempted = out.attempted.max(1) as f64;
    let answered = out.answered().max(1) as f64;
    let evaluated = c.get("queries_evaluated");
    let (p50, tail, beyond) = latency_summary(workload, out);
    m.set("latency_p50_ms", p50, out.latencies_ms.len());
    m.set("latency_tail_ms", tail, beyond);
    m.set(
        "cpu_ms_per_query",
        out.proc.cpu_ms() / answered,
        out.answered() as usize,
    );
    let peaks = &out.peak_rss_mb;
    m.set(
        "peak_rss_mb",
        peaks.iter().sum::<f64>() / peaks.len().max(1) as f64,
        peaks.len(),
    );
    m.set(
        "failed_share",
        out.failed as f64 / attempted,
        out.attempted as usize,
    );
    m.set(
        "server.bytes_out_per_query",
        out.bytes_out as f64 / attempted,
        out.attempted as usize,
    );
    m.set(
        "server.rejected_share",
        out.rejected as f64 / attempted,
        out.attempted as usize,
    );
    let lookups = c.get("answer_cache_hits") + c.get("answer_cache_misses");
    m.set(
        "service.answer_hit_share",
        ratio(c.get("answer_cache_hits"), lookups),
        lookups as usize,
    );
    let batches = c.get("batches");
    m.set(
        "service.queries_per_batch",
        ratio(c.get("answer_cache_misses"), batches),
        batches as usize,
    );
    let submitted = c.get("queries_submitted");
    m.set(
        "service.batch_dedup_share",
        ratio(c.get("batch_deduped"), submitted),
        submitted as usize,
    );
    let executed = c.get("dag_nodes_executed");
    m.set(
        "engine.dag_nodes_per_query",
        ratio(executed, evaluated),
        evaluated as usize,
    );
    let merged = c.get("dag_operators_deduped") + c.get("plan_cache_misses");
    m.set(
        "engine.dedup_share",
        ratio(c.get("dag_operators_deduped"), merged),
        merged as usize,
    );
    let reused = c.get("epoch_results_reused");
    m.set(
        "engine.result_hit_share",
        ratio(reused, reused + executed),
        (reused + executed) as usize,
    );
    m.set(
        "engine.rows_read_per_query",
        ratio(c.get("tuples_read"), evaluated),
        evaluated as usize,
    );
    m.set(
        "engine.rows_out_per_query",
        ratio(c.get("tuples_output"), evaluated),
        evaluated as usize,
    );
    let read = c.get("tuples_read");
    m.set(
        "engine.columnar_row_share",
        ratio(c.get("columnar_rows"), read),
        read as usize,
    );
    m.set(
        "engine.reordered_joins",
        c.get("reordered_joins"),
        batches as usize,
    );
    m.set(
        "engine.peak_parallelism",
        c.get("dag_peak_parallelism"),
        batches as usize,
    );
    // One catalog copy is served per server: one in a `Queries` run, one per cold iteration.
    let servers = match workload.shape {
        Shape::Queries => 1.0,
        Shape::ColdBatch => out.latencies_ms.len() as f64,
    };
    let catalog_bytes: usize = ready
        .world
        .scenarios
        .iter()
        .map(|s| s.catalog.estimated_bytes())
        .sum();
    m.set(
        "datagen.catalog_bytes",
        catalog_bytes as f64,
        ready.world.scenarios.len(),
    );
    m.set(
        "storage.spill_write_amp",
        ratio(c.get("bytes_spilled"), servers * catalog_bytes as f64),
        servers as usize,
    );
    m.set(
        "storage.spill_reloads_per_query",
        c.get("spill_reloads") / answered,
        out.answered() as usize,
    );
    m.set(
        "storage.grace_partitions",
        ratio(c.get("grace_partitions"), servers),
        servers as usize,
    );
    let cpu = out.proc.cpu_ms();
    m.set(
        "proc.sys_share",
        ratio(out.proc.sys_ms, cpu),
        (cpu / 10.0) as usize,
    );
    m.set(
        "proc.minor_faults_per_query",
        out.proc.minor_faults as f64 / answered,
        out.answered() as usize,
    );
    m.set(
        "proc.ctx_switches_per_query",
        out.proc.ctx_switches as f64 / answered,
        out.answered() as usize,
    );
}

/// Times `runs` calls of `f`, returning each duration.
fn time_runs<T>(runs: usize, mut f: impl FnMut() -> T) -> Vec<Duration> {
    (0..runs)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed()
        })
        .collect()
}

fn p50(durations: &[Duration], unit: fn(Duration) -> f64) -> f64 {
    median(&durations.iter().map(|d| unit(*d)).collect::<Vec<_>>())
}

/// Fixed-size probes of single public functions, over this workload's own first scenario.
fn probes(
    workload: &Workload,
    ready: &Ready,
    spill_dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let world = &ready.world;
    let scenario = &world.scenarios[0];
    let catalog = &scenario.catalog;

    // urm-server: the keep-alive round-trip floor, on a server of this workload's configuration.
    let (server, _) = start_server(world, workload, |t| world.scenario(t).catalog.clone())?;
    let mut client = connect(server.addr())?;
    let mut floor = Vec::with_capacity(FLOOR_REQUESTS);
    for _ in 0..FLOOR_REQUESTS {
        let started = Instant::now();
        let response = client
            .request("GET", "/healthz", None)
            .map_err(|e| format!("healthz: {e}"))?;
        floor.push(started.elapsed());
        if response.status != 200 {
            return Err(format!("healthz: HTTP {}", response.status));
        }
    }
    drop(client);
    server.shutdown();
    m.set("server.http_floor_us", p50(&floor, us), floor.len());

    // urm-service: an answer-cache hit, keyed as the service keys it.
    let mut cache = AnswerCache::with_capacity(1024);
    let epoch = EpochId::from_raw(1);
    let keys: Vec<String> = workload
        .specs
        .iter()
        .map(|spec| parse_query_spec(spec).map(|e| format!("{:?}", e.query)))
        .collect::<Result<_, _>>()?;
    for key in &keys {
        let answer = Arc::new(ProbabilisticAnswer::new());
        cache.insert(epoch, key.clone(), CachedAnswer { answer, batch: 1 });
    }
    let started = Instant::now();
    for i in 0..CACHE_LOOKUPS {
        std::hint::black_box(cache.lookup(epoch, &keys[i % keys.len()]));
    }
    m.set(
        "service.cache_lookup_us",
        us(started.elapsed()) / CACHE_LOOKUPS as f64,
        CACHE_LOOKUPS,
    );

    // urm-engine: the three kernels over the relations the Excel PO and Item map onto.
    let orders = catalog.require("Orders").map_err(|e| e.to_string())?;
    let items = catalog.require("LineItem").map_err(|e| e.to_string())?;
    let select = Plan::scan("LineItem").select(Predicate::compare(
        "LineItem.quantity",
        CompareOp::Gt,
        Value::from(1i64),
    ));
    let join = Plan::scan("Orders").hash_join(
        Plan::scan("LineItem"),
        vec![("Orders.orderNum".into(), "LineItem.itemOrderNum".into())],
    );
    let aggregate = Plan::scan("LineItem").aggregate(AggFunc::Sum("LineItem.extendedPrice".into()));
    let mut exec = Executor::new(catalog);
    for (name, plan, rows) in [
        ("engine.kernel_select_mrows_s", &select, items.len()),
        (
            "engine.kernel_join_mrows_s",
            &join,
            orders.len() + items.len(),
        ),
        ("engine.kernel_agg_mrows_s", &aggregate, items.len()),
    ] {
        exec.run(plan).map_err(|e| format!("{name}: {e}"))?;
        let runs = time_runs(KERNEL_RUNS, || exec.run(plan));
        let seconds: f64 = runs.iter().map(Duration::as_secs_f64).sum();
        m.set(
            name,
            ratio((rows * KERNEL_RUNS) as f64 / 1e6, seconds),
            KERNEL_RUNS,
        );
    }

    // urm-storage: columnar conversion of the base relations, the segment codec, the pool.
    let convert = time_runs(CODEC_RUNS, || {
        catalog
            .iter()
            .map(|(_, r)| ColumnarRelation::from_relation(r).len())
            .sum::<usize>()
    });
    m.set("storage.columnar_convert_ms", p50(&convert, ms), CODEC_RUNS);
    let raw_bytes = encoded_rows_len(&items) as f64;
    let segment = encode_segment(&items);
    let encode = time_runs(CODEC_RUNS, || encode_segment(&items));
    let decode = time_runs(CODEC_RUNS, || {
        decode_segment(items.schema().clone(), segment.clone())
    });
    let mb_s = |runs: &[Duration]| ratio(raw_bytes / 1e6, p50(runs, |d| d.as_secs_f64()));
    m.set("storage.segment_encode_mb_s", mb_s(&encode), CODEC_RUNS);
    m.set("storage.segment_decode_mb_s", mb_s(&decode), CODEC_RUNS);
    m.set(
        "storage.segment_ratio",
        ratio(segment.len() as f64, raw_bytes),
        1,
    );
    // A zero budget spills on admit, so every load is a segment reload.
    let pool = BufferPool::with_budget_in(0, spill_dir.join("pool-probe"));
    let (mut admits, mut reloads) = (Vec::new(), Vec::new());
    for _ in 0..POOL_RUNS {
        let relation = items.as_ref().clone();
        let started = Instant::now();
        let handle = pool.admit(relation).map_err(|e| e.to_string())?;
        admits.push(started.elapsed());
        let started = Instant::now();
        let loaded = handle.load().map_err(|e| e.to_string())?;
        reloads.push(started.elapsed());
        if loaded.len() != items.len() {
            return Err("pool probe: reloaded relation lost rows".into());
        }
    }
    if pool.stats().spill_reloads < POOL_RUNS as u64 {
        return Err("pool probe: loads were not served from segments".into());
    }
    m.set("storage.pool_admit_us", p50(&admits, us), POOL_RUNS);
    m.set("storage.pool_reload_us", p50(&reloads, us), POOL_RUNS);

    // urm-matching: the top-h mapping set from the similarity matrix.
    let sim = score_schemas(
        &scenario.source_def,
        &scenario.target_def,
        DEFAULT_THRESHOLD,
    )
    .map_err(|e| e.to_string())?;
    let top_h = time_runs(3, || MappingSet::top_h(&sim, scenario.mappings.len()));
    m.set("matching.top_h_ms", p50(&top_h, ms), 3);

    // urm-core: the paper's five algorithms, one evaluation each over the Excel queries.
    for (name, algorithm) in [
        ("core.algo_basic_ms", Algorithm::Basic),
        ("core.algo_ebasic_ms", Algorithm::EBasic),
        ("core.algo_emqo_ms", Algorithm::EMqo),
        ("core.algo_qsharing_ms", Algorithm::QSharing),
        ("core.algo_osharing_ms", Algorithm::OSharing(Strategy::Sef)),
    ] {
        let excel = world.scenario(TargetSchemaKind::Excel);
        let started = Instant::now();
        for spec in ALGO_QUERIES {
            let query = parse_query_spec(spec)?.query;
            evaluate(&query, &excel.mappings, &excel.catalog, algorithm)
                .map_err(|e| format!("{name}: {e}"))?;
        }
        m.set(name, ms(started.elapsed()), ALGO_QUERIES.len());
    }
    Ok(())
}

/// `--trace 1`: one set-up, the shortened untraced run, the layer pass and the probes;
/// reports every per-layer metric and returns the layer pass's spans.
pub fn per_layer(
    workload: &'static Workload,
    seed: u64,
    run_for: Duration,
    size: Size,
    spill_dir: &Path,
) -> Result<(Outcome, Metrics, Vec<Span>), String> {
    let started = Instant::now();
    let ready = setup(workload, seed, size)?;
    let mut m = Metrics::new(PER_LAYER);
    m.set("datagen.scenario_ms", ready.times.scenario_ms, 1);
    m.set("verify.oracle_ms", ready.times.oracle_ms, 1);
    m.set("service.epoch_register_ms", ready.times.register_ms, 1);
    m.set("setup_peak_rss_mb", procfs::peak_rss_mb(), 1);

    let measuring = Instant::now();
    let before = ready.server.as_ref().map(|s| Counters::of(&s.metrics()));
    let mut counters = Counters::default();
    let out = timed_run(
        workload,
        seed,
        &ready,
        run_for.mul_f64(UNTRACED_SHARE),
        |iteration| {
            counters.absorb(&Counters::of(&iteration.metrics));
        },
    )?;
    if let (Some(server), Some(before)) = (&ready.server, &before) {
        counters = Counters::of(&server.metrics()).since(before);
    }
    counter_metrics(workload, &ready, &out, &counters, &mut m);

    let deadline = measuring + run_for.mul_f64(LAYER_PASS_UNTIL);
    let spans = layer_pass(workload, seed, size, &ready, deadline, &mut m)?;
    probes(workload, &ready, spill_dir, &mut m)?;
    eprintln!(
        "{}: traced run took {:.1} s ({} layer-pass requests)",
        workload.name,
        started.elapsed().as_secs_f64(),
        spans.iter().filter(|s| s.parent.is_none()).count()
    );
    Ok((out, m, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trees_flatten_in_sequence_or_in_parallel() {
        let d = Duration::from_nanos;
        let mut service = Node::leaf("service.submit_wait", d(50)).with(vec![
            Node::leaf("service.batch/Excel", d(40)),
            Node::leaf("service.batch/Noris", d(10)),
        ]);
        service.parallel = true;
        let tree = Node::leaf("http.request", d(100))
            .with(vec![Node::leaf("server.parse", d(5)), service]);
        let mut spans = Vec::new();
        tree.flatten(7, None, 1_000, &mut spans);
        let at = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!(
            (at("http.request").start_ns, at("http.request").end_ns),
            (1_000, 1_100)
        );
        assert_eq!(at("service.submit_wait").start_ns, 1_005);
        assert_eq!(at("service.batch/Excel").start_ns, 1_005);
        assert_eq!(at("service.batch/Noris").start_ns, 1_005);
        assert_eq!(at("service.batch/Noris").parent, Some(2));
        assert!(spans.iter().all(|s| s.request == 7));
        // The slower schema sets the service's covered time: self = 50 − 40.
        assert_eq!(crate::stats::self_times_ns(&spans)[2], 10);
    }

    #[test]
    fn counters_subtract_counters_and_keep_gauges() {
        let earlier = ServiceMetrics {
            batches: 2,
            dag_peak_parallelism: 2,
            ..ServiceMetrics::default()
        };
        let mut later = earlier.clone();
        later.batches = 5;
        let delta = Counters::of(&later).since(&Counters::of(&earlier));
        assert_eq!(delta.get("batches"), 3.0);
        assert_eq!(delta.get("dag_peak_parallelism"), 2.0);
        let mut sum = delta.clone();
        sum.absorb(&delta);
        assert_eq!(sum.get("batches"), 6.0);
        assert_eq!(sum.get("dag_peak_parallelism"), 2.0);
        assert_eq!(sum.get("no_such_counter"), 0.0);
    }

    #[test]
    fn requests_group_by_schema_without_duplicates() {
        let q = |spec: &str| parse_query_spec(spec).unwrap();
        let entries = [q("Q1"), q("Q6"), q("Q1"), q("Q2")];
        let groups = group_by_target(&entries);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].0, TargetSchemaKind::Noris);
    }
}
