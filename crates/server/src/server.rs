//! The HTTP front door: accept loop, routing, graceful shutdown.
//!
//! One thread accepts, one thread per connection serves HTTP/1.1 with keep-alive.  Requests
//! pass the [`AdmissionController`] before touching the [`QueryService`]; admitted queries go
//! through the service's normal batch path (and so share its answer cache, epoch DAGs and the
//! two-stage bind/execute pipeline).  Shutdown is **draining**: the listener closes first, then
//! in-flight connections get [`DRAIN_GRACE`] to finish their current request before the server
//! returns — no accepted query is abandoned.
//!
//! The server builds every query of the spec language once, when it starts: each of the 28
//! [`SpecRef`]s with its target schema, its static admission cost and its [`QueryKey`].  A
//! request is read into its connection's reused [`Request`]; its specs are only read
//! ([`resolve_spec`]: a label and a ref), charged from the table, and submitted as clones of the
//! table's keys ([`QueryService::submit_key`]).  An answer-cache hit therefore builds no query
//! and hashes none, and the cache compares the key it holds with the one submitted by pointer.

use crate::admission::{AdmissionController, Rejected};
use crate::http::{Head, HttpError, Part, Request, ResponseWriter};
use crate::json::{write_number, Json};
use crate::wire::{resolve_spec, splice_answer};
use std::borrow::Cow;
use std::io::{BufReader, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use urm_core::QueryKey;
use urm_datagen::replay::SpecRef;
use urm_datagen::scenario::TargetSchemaKind;
use urm_service::{
    EpochId, HistSnapshot, Histogram, MetricKind, PromWriter, QueryResponse, QueryService,
    ServedFrom, ServiceError, ServiceResult, Ticket, Tracer,
};

/// How long [`UrmServer::shutdown`] waits for in-flight connections before giving up on them.
pub const DRAIN_GRACE: Duration = Duration::from_secs(30);

struct Shared {
    service: QueryService,
    /// The epoch serving each target schema (registered by the caller before start).
    epochs: Vec<(TargetSchemaKind, EpochId)>,
    admission: AdmissionController,
    /// Every query of the spec language, built and keyed once, at [`SpecRef::index`].
    specs: Vec<ServedSpec>,
    /// When the server started — `/healthz` reports the uptime.
    started: Instant,
    /// Per-endpoint wall-clock latency histograms (admission to last byte), exposed as the
    /// `urm_http_request_duration_ns` family on `GET /metrics`.
    endpoints: EndpointHistograms,
    stopping: AtomicBool,
    drain: Arc<Drain>,
}

/// The drain barrier: how many connection threads are still open.
///
/// Kept apart from [`Shared`] so a connection thread can let go of the server state — the
/// service, its epochs and their spill pools — *before* it reports itself closed.  Once
/// [`wait`](Drain::wait) has seen zero, the `Arc<Shared>` of the [`UrmServer`] is the last one,
/// so dropping the server tears the service down (joins its workers, removes its spill
/// directories) on the caller's thread, not on a detached thread racing process exit.
#[derive(Default)]
struct Drain {
    open: Mutex<usize>,
    closed: Condvar,
}

impl Drain {
    fn opened(&self) {
        *self.open.lock().expect("drain counter poisoned") += 1;
    }

    fn closed(&self) {
        *self.open.lock().expect("drain counter poisoned") -= 1;
        self.closed.notify_all();
    }

    /// Waits until no connection is open, or `grace` has passed.
    fn wait(&self, grace: Duration) {
        let open = self.open.lock().expect("drain counter poisoned");
        let _ = self
            .closed
            .wait_timeout_while(open, grace, |open| *open > 0)
            .expect("drain counter poisoned");
    }
}

/// Log-bucketed request-latency histograms, one per serving endpoint.  Lock-free to record
/// (atomic bucket increments), so the per-request cost is a clock read and two adds.
#[derive(Default)]
struct EndpointHistograms {
    query: Histogram,
    batch: Histogram,
}

impl EndpointHistograms {
    fn snapshot(&self) -> Vec<(&'static str, HistSnapshot)> {
        vec![
            ("query", self.query.snapshot()),
            ("batch", self.batch.snapshot()),
        ]
    }
}

impl Shared {
    fn new(
        service: QueryService,
        epochs: Vec<(TargetSchemaKind, EpochId)>,
        admission: AdmissionController,
    ) -> Self {
        Shared {
            service,
            epochs,
            admission,
            specs: SpecRef::all().map(ServedSpec::new).collect(),
            started: Instant::now(),
            endpoints: EndpointHistograms::default(),
            stopping: AtomicBool::new(false),
            drain: Arc::default(),
        }
    }

    fn epoch_for(&self, target: TargetSchemaKind) -> Option<EpochId> {
        self.epochs
            .iter()
            .find(|(kind, _)| *kind == target)
            .map(|(_, id)| *id)
    }

    fn served(&self, spec: SpecRef) -> &ServedSpec {
        &self.specs[spec.index()]
    }

    /// What admission charges one query: its serving epoch's observed source operators per
    /// evaluated query once the epoch has history, else the static plan-shape estimate.
    fn query_cost(&self, spec: &ServedSpec) -> u64 {
        self.epoch_for(spec.target)
            .and_then(|epoch| self.service.observed_query_cost(epoch))
            .unwrap_or(spec.static_cost)
    }
}

/// One query of the spec language as the server submits it: built, costed and keyed when the
/// server starts, so a request's spec is read ([`resolve_spec`]) and never built again.
struct ServedSpec {
    target: TargetSchemaKind,
    /// [`static_query_cost`] of the query.
    static_cost: u64,
    /// The query as the answer cache's key; a submission clones it, which bumps a count.
    key: QueryKey,
}

impl ServedSpec {
    fn new(spec: SpecRef) -> Self {
        let query = spec
            .query()
            .expect("every query of the spec language builds");
        ServedSpec {
            target: spec.target(),
            static_cost: static_query_cost(&query),
            key: QueryKey::new(query),
        }
    }
}

/// A running HTTP server; dropping it (or calling [`shutdown`](UrmServer::shutdown)) drains
/// and stops it.
pub struct UrmServer {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl UrmServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving the given epochs.
    ///
    /// `epochs` maps each target schema to the [`EpochId`] the caller registered with
    /// `service` — specs addressing an unlisted schema are answered 400.
    pub fn start(
        addr: &str,
        service: QueryService,
        epochs: Vec<(TargetSchemaKind, EpochId)>,
        admission: AdmissionController,
    ) -> std::io::Result<UrmServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared::new(service, epochs, admission));
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("urm-server-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(UrmServer {
            shared,
            addr: local,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The service metrics (same snapshot `/metrics.json` serves).
    #[must_use]
    pub fn metrics(&self) -> urm_service::ServiceMetrics {
        self.shared.service.metrics()
    }

    /// Stops accepting, drains in-flight connections (bounded by [`DRAIN_GRACE`]), flushes the
    /// service's pending batches and joins its workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept thread is blocked in `accept`; a throwaway connection unblocks it so it
        // can observe `stopping` and exit, closing the listener.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Drain: every connection opened before the listener closed gets to finish its
        // current request (keep-alive waits are cut short by the read timeout).
        self.shared.drain.wait(DRAIN_GRACE);
        self.shared.service.flush();
    }
}

impl Drop for UrmServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(shared);
        let drain = Arc::clone(&shared.drain);
        drain.opened();
        let result = std::thread::Builder::new()
            .name("urm-server-conn".into())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                // Release the server state first, then report closed (see `Drain`).
                drop(conn_shared);
                drain.closed();
            });
        if result.is_err() {
            // Spawn failure: undo the increment or the drain barrier waits forever.
            shared.drain.closed();
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let config = shared.admission.config().clone();
    if stream.set_read_timeout(Some(config.read_timeout)).is_err()
        || stream
            .set_write_timeout(Some(config.write_timeout))
            .is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let client: IpAddr = match stream.peer_addr() {
        Ok(peer) => peer.ip(),
        Err(_) => return,
    };
    // The connection's one response buffer lives here, across its keep-alive requests.
    let mut out = match stream.try_clone() {
        Ok(w) => ResponseWriter::new(w),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // And its one request, whose buffers each keep-alive request is read into.
    let mut request = Request::default();

    // Keep-alive loop: serve requests until the peer hangs up, errors, asks to close, or the
    // server drains.
    loop {
        if let Err(err) = request.read_from(&mut reader, config.max_body_bytes) {
            // Tell the peer and hang up: after a slow-loris timeout (or an idle keep-alive
            // connection during drain), a malformed head or an unread oversized body the
            // framing is unrecoverable.  The write is best-effort — the peer may be gone.
            let (status, msg) = match err {
                HttpError::Malformed(msg) => (400, msg),
                HttpError::BodyTooLarge { declared, limit } => (
                    413,
                    format!("body of {declared} bytes exceeds the {limit}-byte limit"),
                ),
                timeout if timeout.is_timeout() => (408, "read timeout".to_string()),
                HttpError::Closed | HttpError::Io(_) => return,
            };
            out.set_close(true);
            let _ = out.json(status, &[], &error_body(&msg));
            return;
        }
        // An HTTP/1.0 peer, `connection: close`, or a draining server: this response is the
        // connection's last, and says so.
        out.set_close(request.wants_close() || shared.stopping.load(Ordering::SeqCst));
        if respond(&mut out, &request, client, shared).is_err()
            || out.closing()
            || shared.stopping.load(Ordering::SeqCst)
        {
            return; // drained: finish this request, take no more on this connection
        }
    }
}

fn error_body(message: &str) -> String {
    Json::obj([("error", Json::Str(message.to_string()))]).to_string()
}

fn respond<W: Write>(
    out: &mut ResponseWriter<W>,
    request: &Request,
    client: IpAddr,
    shared: &Shared,
) -> std::io::Result<()> {
    match (request.method(), request.path()) {
        ("GET", "/healthz") => out.json(200, &[], &healthz_body(shared)),
        ("GET", "/metrics") => {
            let head = Head {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                extra: &[],
            };
            out.send(head, |body| body.push_str(&prometheus_body(shared)))
        }
        ("GET", "/metrics.json") => out.json(200, &[], &metrics_body(shared)),
        ("GET", "/debug/traces") => out.json(200, &[], &traces_body(shared)),
        ("POST", "/query") => {
            let start = Instant::now();
            let result = serve_queries(out, request, client, shared, false);
            shared.endpoints.query.record_duration(start.elapsed());
            result
        }
        ("POST", "/batch") => {
            let start = Instant::now();
            let result = serve_queries(out, request, client, shared, true);
            shared.endpoints.batch.record_duration(start.elapsed());
            result
        }
        ("GET" | "POST", _) => out.json(404, &[], &error_body("unknown path")),
        _ => out.json(405, &[], &error_body("method not allowed")),
    }
}

fn healthz_body(shared: &Shared) -> String {
    Json::obj([
        ("status", Json::Str("ok".into())),
        (
            "uptime_seconds",
            Json::Num(shared.started.elapsed().as_secs() as f64),
        ),
        ("epoch_count", Json::Num(shared.epochs.len() as f64)),
        (
            "in_flight_units",
            Json::Num(shared.admission.in_flight() as f64),
        ),
        (
            "epochs",
            Json::Arr(
                shared
                    .epochs
                    .iter()
                    .map(|(kind, id)| {
                        Json::obj([
                            ("target", Json::Str(kind.to_string())),
                            ("epoch", Json::Num(id.raw() as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

/// The JSON metrics snapshot (`GET /metrics.json`): every [`ServiceMetrics::fields`] entry
/// under its canonical name — durations as integer `*_ns` — and the server-side gauge the
/// service snapshot does not carry.
fn metrics_body(shared: &Shared) -> String {
    let mut entries: Vec<(&str, Json)> = shared
        .service
        .metrics()
        .fields()
        .into_iter()
        .map(|(name, _, value)| (name, Json::Num(value)))
        .collect();
    entries.push((
        "in_flight_units",
        Json::Num(shared.admission.in_flight() as f64),
    ));
    Json::obj(entries).to_string()
}

/// The Prometheus text exposition (`GET /metrics`): every [`ServiceMetrics::fields`] entry
/// as `urm_<name>`, the server-side gauge, and the stage / endpoint latency histogram
/// families (log-bucketed, nanosecond units).
fn prometheus_body(shared: &Shared) -> String {
    let m = shared.service.metrics();
    let mut w = PromWriter::new();
    for (name, kind, value) in m.fields() {
        w.metric(
            &format!("urm_{name}"),
            kind,
            "URM service metric; see the ServiceMetrics field docs",
            value,
        );
    }
    w.metric(
        "urm_in_flight_units",
        MetricKind::Gauge,
        "Admitted-but-unanswered cost units in the admission queue",
        shared.admission.in_flight() as f64,
    );
    let stages = shared.service.stage_histograms();
    let series: Vec<(&str, &HistSnapshot)> = stages.iter().map(|(n, s)| (*n, s)).collect();
    w.histogram(
        "urm_stage_duration_ns",
        "Per-stage batch latency in nanoseconds (log-bucketed)",
        "stage",
        &series,
    );
    let endpoints = shared.endpoints.snapshot();
    let series: Vec<(&str, &HistSnapshot)> = endpoints.iter().map(|(n, s)| (*n, s)).collect();
    w.histogram(
        "urm_http_request_duration_ns",
        "Per-endpoint HTTP request latency in nanoseconds (log-bucketed)",
        "endpoint",
        &series,
    );
    w.finish()
}

/// The bounded ring of recently finished traces (`GET /debug/traces`), newest last.  Spans
/// carry integer-nanosecond `start_ns`/`dur_ns` and parent span ids (0 = root).
fn traces_body(shared: &Shared) -> String {
    let traces: Vec<String> = shared
        .service
        .finished_traces()
        .iter()
        .map(urm_service::TraceReport::to_json_object)
        .collect();
    format!("{{\"traces\":[{}]}}", traces.join(","))
}

/// The status of a response that carries a [`ServiceError`]: a service that is shutting down is
/// temporarily unavailable, anything else is this server's failure.
fn error_status(err: &ServiceError) -> u16 {
    match err {
        ServiceError::Shutdown => 503,
        ServiceError::UnknownEpoch(_) | ServiceError::Eval(_) => 500,
    }
}

/// `/query` (single spec) and `/batch` (spec list): parse, admit, submit, answer.
/// `batch: false` expects `{"spec": "Q1"}` and, having exactly one answer, waits for it and
/// replies fixed-length in one write — or with the error's 5xx; `batch: true` expects
/// `{"specs": ["Q1", …]}` and streams one chunk per answer as the batches resolve.
fn serve_queries<W: Write>(
    out: &mut ResponseWriter<W>,
    request: &Request,
    client: IpAddr,
    shared: &Shared,
    batch: bool,
) -> std::io::Result<()> {
    let specs = match parse_body_specs(request.body(), batch) {
        Ok(specs) => specs,
        Err(msg) => return out.json(400, &[], &error_body(&msg)),
    };
    if shared.stopping.load(Ordering::SeqCst) {
        return out.json(503, &[], &error_body("server is draining"));
    }

    // An `X-Trace-Id` header force-traces the request (regardless of `--trace-sample`): the
    // batch it lands in records a full span tree under that id, retrievable from
    // `GET /debug/traces`, and the response echoes the id back.
    let trace_id = request.header("x-trace-id").map(str::to_string);
    let tracer = match &trace_id {
        Some(id) => Tracer::enabled(id.clone()),
        None => Tracer::disabled(),
    };

    // Admission: one permit covering the whole request, released when the responses are out
    // (or the request has failed: every return below drops it).  Each query is charged its
    // estimated evaluation cost (`Shared::query_cost`), so the bounded queue meters admitted
    // *work*, not request count.
    let cost: u64 = specs
        .iter()
        .map(|(_, spec)| shared.query_cost(shared.served(*spec)))
        .sum();
    let mut admission_span = tracer.span("admission");
    admission_span.tag("queries", specs.len() as u64);
    admission_span.tag("cost", cost);
    let admitted = shared.admission.admit(client, specs.len(), cost);
    drop(admission_span);
    let _permit = match admitted {
        Ok(permit) => permit,
        Err(rejected) => {
            let retry = shared.admission.config().retry_after_secs;
            let msg = match rejected {
                Rejected::QueueFull => "admission queue full",
                Rejected::ClientThrottled => "client rate limit exceeded",
            };
            return out.json(429, &[("retry-after", retry.to_string())], &error_body(msg));
        }
    };

    // Submit everything, then flush once — if anything missed the answer cache: one service
    // batch per target schema touched.
    let mut tickets: Vec<(Cow<'static, str>, Ticket)> = Vec::with_capacity(specs.len());
    for (label, spec) in specs {
        let served = shared.served(spec);
        let Some(epoch) = shared.epoch_for(served.target) else {
            let msg = format!("target schema '{}' is not served", served.target);
            return out.json(400, &[], &error_body(&msg));
        };
        match shared
            .service
            .submit_key(epoch, served.key.clone(), tracer.clone())
        {
            Ok(ticket) => tickets.push((label, ticket)),
            Err(err) => return out.json(error_status(&err), &[], &error_body(&err.to_string())),
        }
    }
    if !tickets.iter().all(|(_, ticket)| ticket.is_ready()) {
        shared.service.flush();
    }

    let trace_echo: Vec<(&str, String)> = trace_id
        .as_ref()
        .map(|id| ("x-trace-id", id.clone()))
        .into_iter()
        .collect();
    let head = Head::json(200, &trace_echo);
    let last = tickets.pop().expect("a request has at least one spec");
    // A response is held across the write that sends it: its answer's rendering is lent to
    // that write, not copied into it.
    let wait = |(label, ticket): (Cow<'static, str>, Ticket)| (label, ticket.wait());
    if batch {
        // Each ticket's answer is written as its own chunk the moment its batch resolves; a
        // failed one becomes an error object in its place.  An HTTP/1.0 peer cannot frame
        // chunks, so its answers are gathered and sent fixed-length.
        let mut body = out.begin(head, !request.http10());
        let mut first = true;
        for ticket in tickets {
            let (label, result) = wait(ticket);
            body.part(|part| {
                write_batch_element(part, std::mem::take(&mut first), &label, &result)
            })?;
        }
        let (label, result) = wait(last);
        body.end(|part| {
            write_batch_element(part, first, &label, &result);
            part.push_str("]}");
        })
    } else {
        match wait(last) {
            (label, Ok(response)) => {
                out.send(head, |body| write_query_body(body, &label, &response))
            }
            (_, Err(err)) => out.json(
                error_status(&err),
                &trace_echo,
                &error_body(&err.to_string()),
            ),
        }
    }
}

/// One element of the `/batch` document's `{"answers":[…` array, with what precedes it.
fn write_batch_element<'a>(
    part: &mut Part<'_, 'a>,
    first: bool,
    label: &str,
    result: &'a ServiceResult<QueryResponse>,
) {
    part.push_str(if first { "{\"answers\":[" } else { "," });
    match result {
        Ok(response) => splice_answer(part, label, &response.answer),
        Err(err) => part.push_str(&error_body(&err.to_string())),
    }
}

/// The `/query` document: `{"answer":…,"served_from":"…","batch":N}`.
fn write_query_body<'a>(body: &mut Part<'_, 'a>, label: &str, response: &'a QueryResponse) {
    body.push_str("{\"answer\":");
    splice_answer(body, label, &response.answer);
    body.push_str(match response.served_from {
        ServedFrom::Evaluated => ",\"served_from\":\"evaluated\",\"batch\":",
        ServedFrom::AnswerCache => ",\"served_from\":\"answer-cache\",\"batch\":",
        ServedFrom::BatchDedup => ",\"served_from\":\"batch-dedup\",\"batch\":",
    });
    write_number(body, response.batch as f64).expect("writing to a String cannot fail");
    body.push('}');
}

/// Static admission-cost estimate for a query on an epoch with no observed history yet: joins
/// dominate evaluation, so the relation count enters squared; predicates add linear work.  The
/// scale matches [`QueryService::observed_query_cost`] (source operators per query), so warm
/// and cold estimates mix in one queue.
fn static_query_cost(query: &urm_core::TargetQuery) -> u64 {
    let relations = query.relations().len() as u64;
    1 + query.predicates().len() as u64 + relations * relations
}

/// The labels and refs of the specs of a `/query` (`batch: false`) or `/batch` body, or the
/// message of the 400 that refuses it: not UTF-8, not JSON (or nested beyond
/// [`crate::json::MAX_DEPTH`]), not the expected shape, or naming a spec that does not parse.
/// No query is built: the server holds them all.
fn parse_body_specs(body: &[u8], batch: bool) -> Result<Vec<(Cow<'static, str>, SpecRef)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("bad JSON body: {e}"))?;
    let specs: Vec<&str> = if batch {
        doc.get("specs")
            .and_then(Json::as_arr)
            .ok_or("expected {\"specs\": [\"Q1\", ...]}")?
            .iter()
            .map(|s| s.as_str().ok_or("specs must be strings"))
            .collect::<Result<_, _>>()?
    } else {
        vec![doc
            .get("spec")
            .and_then(Json::as_str)
            .ok_or("expected {\"spec\": \"Q1\"}")?]
    };
    if specs.is_empty() {
        return Err("empty spec list".into());
    }
    specs
        .into_iter()
        .map(|s| resolve_spec(s).map_err(|e| bad_spec(s, &e)))
        .collect()
}

/// How many bytes of a rejected spec an error reply quotes.
const MAX_SPEC_ECHO: usize = 64;

/// The 400 message for a spec that does not parse.  A request body may be a megabyte of
/// spec, and the reply must not be: at most [`MAX_SPEC_ECHO`] bytes of it are quoted back, and
/// `why` — which quotes the whole spec again — is given only for a spec quoted in full.
fn bad_spec(spec: &str, why: &str) -> String {
    let cut = spec.floor_char_boundary(MAX_SPEC_ECHO);
    if cut == spec.len() {
        format!("bad spec '{spec}': {why}")
    } else {
        format!("bad spec '{}…'", &spec[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::tests::CountingWrite;
    use crate::wire::{answer_json, parse_query_spec};
    use crate::AdmissionConfig;
    use std::net::Ipv4Addr;
    use urm_datagen::scenario::{Scenario, ScenarioConfig};

    /// A server state over one small Excel epoch, as `UrmServer::start` would build it.
    fn excel_server() -> (Shared, EpochId) {
        let scenario = Scenario::generate(&ScenarioConfig {
            target: TargetSchemaKind::Excel,
            scale: 4,
            mappings: 6,
            seed: 7,
        })
        .expect("scenario generation");
        let service = QueryService::new(urm_service::ServiceConfig::default());
        let epoch = service.register_epoch(scenario.catalog, scenario.mappings);
        let shared = Shared::new(
            service,
            vec![(TargetSchemaKind::Excel, epoch)],
            AdmissionController::new(AdmissionConfig::default()),
        );
        (shared, epoch)
    }

    fn post(path: &str, body: &str) -> Request {
        let raw = format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut request = Request::default();
        request.read_from(&mut raw.as_bytes(), 1 << 20).unwrap();
        request
    }

    #[test]
    fn a_rejected_spec_is_quoted_in_full_only_when_short() {
        let message = |body: &str| parse_body_specs(body.as_bytes(), false).unwrap_err();
        assert_eq!(
            message("{\"spec\": \"Q99\"}"),
            "bad spec 'Q99': invalid target query: unknown workload spec 'Q99' \
             (expected Q1–Q10, sel:N, prod:N, join:N, scale:N or skew:N)"
        );
        // 63 ASCII bytes, then two-byte characters: the cut falls back to the boundary at 63.
        let long = format!("{}{}", "a".repeat(63), "é".repeat(500_000));
        assert_eq!(
            message(&format!("{{\"spec\": \"{long}\"}}")),
            format!("bad spec '{}…'", "a".repeat(63))
        );
        let nested = message(&"[".repeat(10_000));
        assert_eq!(nested, "bad JSON body: nesting deeper than 64 at byte 64");
    }

    /// The resolver — [`resolve_spec`], then the server's table — against [`parse_query_spec`]:
    /// the same label, target, static cost and key for every spelling of every query, and the
    /// same 400 for every spec it refuses.
    #[test]
    fn the_resolver_answers_every_spelling_as_parse_query_spec_does() {
        let (shared, _) = excel_server();
        let mut specs: Vec<String> = SpecRef::all().map(|s| s.label().to_string()).collect();
        for prefix in ["sel:", "prod:", "join:", "scale:", "skew:"] {
            // 0 and the counts past each family's range clamp.
            specs.extend((0..=7).map(|n| format!("{prefix}{n}")));
            specs.extend([format!("{prefix}+3"), format!(" {prefix}03 ")]);
        }
        specs.extend(["q4", " Q4 ", "q10", "\tsel:2\n"].map(String::from));
        for spec in &specs {
            let entry = parse_query_spec(spec).unwrap();
            let (label, spec_ref) = resolve_spec(spec).unwrap();
            assert_eq!(label, entry.label, "{spec:?}");
            let served = shared.served(spec_ref);
            assert_eq!(served.target, entry.target, "{spec:?}");
            assert_eq!(served.static_cost, static_query_cost(&entry.query));
            assert_eq!(served.key, QueryKey::new(entry.query), "{spec:?}");
        }
        assert_eq!(resolve_spec(" sel:03 ").unwrap().0, "sel:03");
        assert_eq!(resolve_spec("q4").unwrap().0, "Q4");
        assert!(matches!(resolve_spec("sel:3").unwrap().0, Cow::Borrowed(_)));

        for spec in [
            "Q11", "Q04", "", "sel:x", "sel:-1", "join: 2", "SEL:1", "skew:",
        ] {
            let why = parse_query_spec(spec).unwrap_err();
            assert_eq!(resolve_spec(spec).unwrap_err(), why, "{spec:?}");
            let body = format!("{{\"specs\": [\"Q1\", \"{spec}\"]}}");
            assert_eq!(
                parse_body_specs(body.as_bytes(), true).unwrap_err(),
                format!("bad spec '{spec}': {why}")
            );
        }
    }

    #[test]
    fn admission_charges_the_static_estimate_cold_and_the_observed_cost_warm() {
        let (shared, epoch) = excel_server();
        let served = |spec: &str| shared.served(resolve_spec(spec).unwrap().1);
        let entry = parse_query_spec("join:2").unwrap();
        let static_cost = static_query_cost(&entry.query);
        assert_eq!(shared.service.observed_query_cost(epoch), None);
        assert_eq!(
            shared.query_cost(served("join:2")),
            static_cost,
            "a cold epoch"
        );

        shared
            .service
            .execute_all(epoch, vec![entry.query.clone()])
            .unwrap();
        let observed = shared.service.observed_query_cost(epoch).unwrap();
        assert_ne!(observed, static_cost);
        assert_eq!(
            shared.query_cost(served("join:2")),
            observed,
            "after one batch"
        );
        // A query no served epoch answers has no history to charge.
        let unserved = parse_query_spec("Q6").unwrap();
        assert_eq!(
            shared.query_cost(served("Q6")),
            static_query_cost(&unserved.query)
        );
    }

    /// The server's request path — parse, admit, submit, wait, render, frame — over a sink that
    /// counts writes: a `/query` response is one write, a `/batch` response one per answer.
    #[test]
    fn query_responses_are_one_write_and_batch_responses_one_per_chunk() {
        let (shared, epoch) = excel_server();
        let client = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let mut out = ResponseWriter::new(CountingWrite::default());

        for served_from in ["evaluated", "answer-cache"] {
            let request = post("/query", "{\"spec\": \"Q1\"}");
            respond(&mut out, &request, client, &shared).unwrap();
            let (writes, sent) = CountingWrite::take(&mut out);
            assert_eq!(writes, 1, "{served_from}");
            let (head, body) = sent.split_once("\r\n\r\n").unwrap();
            assert!(head.ends_with(&format!("\r\ncontent-length: {}", body.len())));
            // The hand-assembled envelope is exactly what the `Json` tree would print.
            let response = shared
                .service
                .submit(epoch, parse_query_spec("Q1").unwrap().query)
                .and_then(Ticket::wait)
                .unwrap();
            let tree = Json::obj([
                ("answer", answer_json("Q1", &response.answer)),
                ("served_from", Json::Str(served_from.into())),
                ("batch", Json::Num(response.batch as f64)),
            ]);
            assert_eq!(body, tree.to_string());
            assert_eq!(Json::parse(body).unwrap().to_string(), body);
        }

        let request = post(
            "/batch",
            "{\"specs\": [\"Q1\", \"Q2\", \"Q1\", \"join:2\"]}",
        );
        respond(&mut out, &request, client, &shared).unwrap();
        let (writes, sent) = CountingWrite::take(&mut out);
        assert_eq!(writes, 4);
        assert!(sent.contains("transfer-encoding: chunked\r\n"));
        assert!(sent.ends_with("]}\r\n0\r\n\r\n"));
        assert_eq!(shared.admission.in_flight(), 0);
    }
}
