//! The query service: epochs, batching, the worker pool.

use crate::answer_cache::{AnswerCache, CachedAnswer};
use crate::config::ServiceConfig;
use crate::metrics::{BatchReport, LatencySummary, ServiceMetrics};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;
use urm_core::metrics::EvalMetrics;
use urm_core::{evaluate_batch_on, BatchEpoch, BatchOptions};
use urm_core::{CoreError, ProbabilisticAnswer, QueryKey, TargetQuery};
use urm_matching::MappingSet;
use urm_obs::{HistSnapshot, Histogram, TraceReport, Tracer};
use urm_storage::Catalog;

/// How many [`BatchReport`]s the service retains for inspection.
const RETAINED_REPORTS: usize = 4096;

/// How many finished [`TraceReport`]s the service retains (ring, oldest evicted first).
const RETAINED_TRACES: usize = 32;

/// Identifier of a registered (catalog, mapping set) epoch.
///
/// Epochs are immutable: re-matching or loading new data registers a *new* epoch, which also
/// versions the answer cache — cached answers of old epochs can never be confused with new ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EpochId(u64);

impl EpochId {
    /// The raw id (used as the answer-cache key component).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value (test / tooling use).
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        EpochId(raw)
    }
}

impl fmt::Display for EpochId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch#{}", self.0)
    }
}

/// Errors surfaced by the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The submission referenced an epoch that was never registered.
    UnknownEpoch(EpochId),
    /// Evaluation of the batch containing the query failed.
    Eval(String),
    /// The service shut down before the query was answered.
    Shutdown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownEpoch(id) => write!(f, "unknown {id}"),
            ServiceError::Eval(msg) => write!(f, "evaluation failed: {msg}"),
            ServiceError::Shutdown => f.write_str("service shut down"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CoreError> for ServiceError {
    fn from(err: CoreError) -> Self {
        ServiceError::Eval(err.to_string())
    }
}

/// Result alias for service operations.
pub type ServiceResult<T> = Result<T, ServiceError>;

/// How a response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// Evaluated in a batch.
    Evaluated,
    /// Answered from the service answer cache without evaluation.
    AnswerCache,
    /// Duplicate of another query in the same batch; shared its evaluation.
    BatchDedup,
}

/// The answer to one submitted query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The probabilistic answer (shared: cache hits and in-batch duplicates alias the same
    /// allocation instead of deep-copying it).
    pub answer: Arc<ProbabilisticAnswer>,
    /// Work accounting for the evaluation that produced the answer (zeroed for cache hits).
    pub metrics: EvalMetrics,
    /// How the answer was produced.
    pub served_from: ServedFrom,
    /// The batch that evaluated the answer (for cache hits: the batch that originally did).
    pub batch: u64,
}

/// A claim on a submitted query's response: `Ok`, already in hand (an answer-cache hit at
/// submit time — no channel, no batch), or `Err`, pending on the batch the query joined.
#[derive(Debug)]
pub struct Ticket(Result<QueryResponse, mpsc::Receiver<ServiceResult<QueryResponse>>>);

impl Ticket {
    /// Whether the response is already in hand: [`wait`](Ticket::wait) will not block, and
    /// needs no [`flush`](QueryService::flush) to make progress.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.0.is_ok()
    }

    /// Blocks until the response is available.
    pub fn wait(self) -> ServiceResult<QueryResponse> {
        self.0
            .or_else(|rx| rx.recv().unwrap_or(Err(ServiceError::Shutdown)))
    }
}

struct Epoch {
    catalog: Catalog,
    mappings: MappingSet,
    /// Exponentially-decayed average *source operators per evaluated query* observed on this
    /// epoch (0 = nothing evaluated yet).  The admission layer charges requests against this
    /// instead of a flat per-query unit once the epoch has history.
    observed_cost: AtomicU64,
    /// The state every batch of the epoch runs over: its persistent shared-operator DAG (bind
    /// cache + weak result cache) behind its bind lock — a batch holds it only while it binds,
    /// so another worker binds the epoch's next batch while this one executes — and the
    /// factors each source query splits into.  Dropped with the epoch, which is what keeps
    /// identity-based fingerprints safe.
    state: BatchEpoch,
}

/// A query that missed the answer cache at submit time, waiting for its batch.
struct Submission {
    /// The query, as the exact dedup and cache key ([`QueryKey`]: equal exactly when the two
    /// queries' `Debug` renderings are, so value type tags are never erased).
    key: QueryKey,
    responder: mpsc::Sender<ServiceResult<QueryResponse>>,
    /// Per-request tracer (disabled unless the submission came in with a trace id, e.g. via
    /// the HTTP layer's `X-Trace-Id`).  The batch adopts the first enabled one it finds.
    tracer: Tracer,
}

struct Batch {
    id: u64,
    epoch_id: EpochId,
    epoch: Arc<Epoch>,
    submissions: Vec<Submission>,
}

struct Inner {
    config: ServiceConfig,
    epoch_counter: AtomicU64,
    batch_counter: AtomicU64,
    epochs: RwLock<HashMap<u64, Arc<Epoch>>>,
    pending: Mutex<HashMap<u64, Vec<Submission>>>,
    answer_cache: Mutex<AnswerCache>,
    /// [`ServiceMetrics::queries_submitted`]: atomic, so a hit takes the cache lock and no other.
    queries_submitted: AtomicU64,
    /// The other running counters; the answer-cache fields are filled in at snapshot time.
    metrics: Mutex<ServiceMetrics>,
    reports: Mutex<Vec<BatchReport>>,
    /// Lock-free per-stage latency histograms (log-bucketed, ≤12.5% relative error) — recorded
    /// on every batch regardless of tracing, snapshotted by
    /// [`stage_histograms`](QueryService::stage_histograms) for the Prometheus exposition.
    stages: StageHistograms,
    /// Bounded ring of finished trace reports (newest last), drained read-only by
    /// `GET /debug/traces` and `urm-cli --trace`.
    traces: Mutex<VecDeque<TraceReport>>,
}

/// One log-bucketed histogram per pipeline stage plus the whole-batch and per-query envelopes.
/// All increments are atomic — batches on different workers record concurrently, lock-free.
#[derive(Default)]
struct StageHistograms {
    /// Per-query reformulation (rewrite) time.
    rewrite: Histogram,
    /// Per-query optimise + bind time.
    plan: Histogram,
    /// Batch-wide DAG execution time.
    execute: Histogram,
    /// Per-query probability-aggregation time.
    aggregate: Histogram,
    /// Per-query wall clock, submission to aggregation.
    query: Histogram,
    /// Whole-batch wall clock.
    batch: Histogram,
}

impl StageHistograms {
    fn snapshot(&self) -> Vec<(&'static str, HistSnapshot)> {
        vec![
            ("rewrite", self.rewrite.snapshot()),
            ("plan", self.plan.snapshot()),
            ("execute", self.execute.snapshot()),
            ("aggregate", self.aggregate.snapshot()),
            ("query", self.query.snapshot()),
            ("batch", self.batch.snapshot()),
        ]
    }
}

impl Inner {
    fn respond(
        submission: &Submission,
        answer: Arc<ProbabilisticAnswer>,
        metrics: EvalMetrics,
        served_from: ServedFrom,
        batch: u64,
    ) {
        // A dropped ticket just means the client stopped waiting; nothing to do.
        let _ = submission.responder.send(Ok(QueryResponse {
            answer,
            metrics,
            served_from,
            batch,
        }));
    }

    /// Answers the submissions the batch's answer-cache recheck resolved.
    fn respond_from_cache(cached_hits: Vec<(Submission, CachedAnswer)>) {
        for (submission, found) in cached_hits {
            Inner::respond(
                &submission,
                found.answer,
                EvalMetrics::new("answer-cache"),
                ServedFrom::AnswerCache,
                found.batch,
            );
        }
    }

    /// Appends to the bounded report ring (oldest dropped first).
    fn retain_report(&self, report: BatchReport) {
        let mut reports = self.reports.lock().unwrap();
        reports.push(report);
        if reports.len() > RETAINED_REPORTS {
            let excess = reports.len() - RETAINED_REPORTS;
            reports.drain(..excess);
        }
    }

    /// Executes one batch on a worker thread.
    fn process_batch(&self, batch: Batch) {
        let start = Instant::now();
        let total = batch.submissions.len();

        // Adopt the first request-scoped tracer in the batch (HTTP `X-Trace-Id` propagation);
        // otherwise sample every Nth batch when configured.  A disabled tracer is a no-op on
        // every span site below.
        let tracer = batch
            .submissions
            .iter()
            .map(|s| s.tracer.clone())
            .find(Tracer::is_enabled)
            .unwrap_or_else(|| match self.config.trace_sample as u64 {
                0 => Tracer::disabled(),
                n if batch.id.is_multiple_of(n) => Tracer::enabled(format!("batch-{}", batch.id)),
                _ => Tracer::disabled(),
            });
        let mut batch_span = tracer.span("batch");
        batch_span.tag("batch", batch.id);
        batch_span.tag("epoch", batch.epoch_id.raw());
        batch_span.tag("queries", total as u64);

        // Re-check the answer cache: an earlier batch may have answered a query that missed
        // at submission time.  (`recheck` does not count a second miss for these.)  Responses
        // are deferred until the batch is accounted, like every other response of the batch.
        let mut cached_hits: Vec<(Submission, CachedAnswer)> = Vec::new();
        let mut remaining = Vec::with_capacity(total);
        {
            let mut cache = self.answer_cache.lock().unwrap();
            for submission in batch.submissions {
                match cache.recheck(batch.epoch_id, &submission.key) {
                    Some(found) => cached_hits.push((submission, found)),
                    None => remaining.push(submission),
                }
            }
        }
        let served_from_cache = cached_hits.len();

        // Deduplicate within the batch: identical queries (by key, an exact comparison) share
        // one evaluation, in first-submission order.
        let mut groups: Vec<Vec<Submission>> = Vec::new();
        let mut group_of: HashMap<QueryKey, usize> = HashMap::new();
        for submission in remaining {
            let at = *group_of
                .entry(submission.key.clone())
                .or_insert(groups.len());
            if at == groups.len() {
                groups.push(Vec::new());
            }
            groups[at].push(submission);
        }
        let unique: Vec<TargetQuery> = groups
            .iter()
            .map(|group| group[0].key.query().clone())
            .collect();

        // Merge every distinct query's plans into the epoch's persistent DAG and execute each
        // distinct operator this batch still needs exactly once, on the configured number of
        // scheduler workers.  The DAG's bind lock is held only while the batch binds, so
        // another worker can already bind the epoch's *next* batch while this one executes; the engine's internal result lock is taken only to look nodes up and to
        // commit, never across an operator.
        let options = BatchOptions::parallel(self.config.dag_workers).with_tracer(tracer.clone());
        let epoch = &batch.epoch;
        let (mappings, catalog) = (&epoch.mappings, &epoch.catalog);
        let outcome = evaluate_batch_on(&unique, mappings, catalog, &options, &epoch.state);
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(err) => {
                // The evaluation failed, the batch still ran: it is accounted, what the
                // recheck found in the cache is answered from there, and only the groups
                // that were evaluated get the error.
                let report = BatchReport {
                    id: batch.id,
                    epoch: batch.epoch_id.raw(),
                    queries: total,
                    served_from_cache,
                    latency: start.elapsed(),
                    ..BatchReport::default()
                };
                self.metrics.lock().unwrap().absorb(&report);
                self.retain_report(report);
                Inner::respond_from_cache(cached_hits);
                let err = ServiceError::from(err);
                for submission in groups.iter().flatten() {
                    let _ = submission.responder.send(Err(err.clone()));
                }
                return;
            }
        };

        // Each unique answer is allocated once and shared by the cache entry and every
        // responding ticket.
        let evaluated = outcome.evaluations.len();
        if evaluated > 0 {
            // Fold this batch's per-query operator cost into the epoch's observed average
            // (EWMA, α = ½) — the admission layer's cost unit for future requests.
            let per_query = (outcome.source_operators() / evaluated as u64).max(1);
            let prev = batch.epoch.observed_cost.load(Ordering::Relaxed);
            let next = if prev == 0 {
                per_query
            } else {
                (prev + per_query).div_ceil(2)
            };
            batch.epoch.observed_cost.store(next, Ordering::Relaxed);
        }
        let exec_time = outcome.exec.exec_time;
        let shared: Vec<(EvalMetrics, Arc<ProbabilisticAnswer>)> = outcome
            .evaluations
            .into_iter()
            .map(|evaluation| (evaluation.metrics, Arc::new(evaluation.answer)))
            .collect();

        // Publish answers to the cache.
        {
            let mut cache = self.answer_cache.lock().unwrap();
            for (group, (_, answer)) in groups.iter().zip(&shared) {
                cache.insert(
                    batch.epoch_id,
                    group[0].key.clone(),
                    CachedAnswer {
                        answer: Arc::clone(answer),
                        batch: batch.id,
                    },
                );
            }
        }
        // Account for the batch *before* releasing the tickets, so a client that observed its
        // response always finds the batch reflected in `metrics()` / `reports()`.
        let deduped: u64 = groups
            .iter()
            .map(|submissions| submissions.len().saturating_sub(1) as u64)
            .sum();
        let latency = start.elapsed();
        let latency_percentiles =
            LatencySummary::from_samples(shared.iter().map(|(m, _)| m.total_time).collect());
        let report = BatchReport {
            id: batch.id,
            epoch: batch.epoch_id.raw(),
            queries: total,
            evaluated,
            served_from_cache,
            exec: outcome.exec,
            run: outcome.run,
            latency,
            latency_percentiles,
        };
        {
            let mut metrics = self.metrics.lock().unwrap();
            metrics.batch_deduped += deduped;
            metrics.absorb(&report);
        }
        self.retain_report(report);
        // Stage latencies feed the lock-free histograms on every batch, traced or not.
        for (m, _) in &shared {
            self.stages.rewrite.record_duration(m.rewrite_time);
            self.stages.plan.record_duration(m.plan_time);
            self.stages.aggregate.record_duration(m.aggregation_time);
            self.stages.query.record_duration(m.total_time);
        }
        self.stages.execute.record_duration(exec_time);
        self.stages.batch.record_duration(latency);
        // Close the batch span and bank the finished trace before releasing the tickets, so a
        // client that observed its response can always fetch its trace.
        drop(batch_span);
        if let Some(trace) = tracer.finish() {
            let mut traces = self.traces.lock().unwrap();
            if traces.len() == RETAINED_TRACES {
                traces.pop_front();
            }
            traces.push_back(trace);
        }

        Inner::respond_from_cache(cached_hits);
        for (group, (eval_metrics, answer)) in groups.into_iter().zip(&shared) {
            let mut submissions = group.into_iter();
            let first = submissions.next().expect("non-empty group");
            Inner::respond(
                &first,
                Arc::clone(answer),
                eval_metrics.clone(),
                ServedFrom::Evaluated,
                batch.id,
            );
            for duplicate in submissions {
                Inner::respond(
                    &duplicate,
                    Arc::clone(answer),
                    eval_metrics.clone(),
                    ServedFrom::BatchDedup,
                    batch.id,
                );
            }
        }
    }
}

/// A thread-safe query service: concurrent submissions, per-epoch batching, cross-query
/// sharing, and an answer cache.  See the crate docs for the architecture.
pub struct QueryService {
    inner: Arc<Inner>,
    job_tx: Option<mpsc::Sender<Batch>>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Starts a service with `config.workers` worker threads.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            answer_cache: Mutex::new(AnswerCache::with_capacity(config.answer_cache_capacity)),
            config,
            epoch_counter: AtomicU64::new(1),
            batch_counter: AtomicU64::new(1),
            epochs: RwLock::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            queries_submitted: AtomicU64::new(0),
            metrics: Mutex::new(ServiceMetrics::default()),
            reports: Mutex::new(Vec::new()),
            stages: StageHistograms::default(),
            traces: Mutex::new(VecDeque::new()),
        });
        let (job_tx, job_rx) = mpsc::channel::<Batch>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                let job_rx = Arc::clone(&job_rx);
                std::thread::Builder::new()
                    .name(format!("urm-service-worker-{i}"))
                    .spawn(move || loop {
                        let job = job_rx.lock().unwrap().recv();
                        match job {
                            Ok(batch) => inner.process_batch(batch),
                            Err(_) => break, // channel closed: shutdown
                        }
                    })
                    .expect("spawn service worker")
            })
            .collect();
        QueryService {
            inner,
            job_tx: Some(job_tx),
            workers,
        }
    }

    /// Registers an immutable (catalog, mapping set) pair, returning its epoch id.  The epoch
    /// is born with an empty persistent DAG (see [`BatchEpoch::new`]); its first batch is the
    /// cold one.  Registering copies no row.
    ///
    /// With [`ServiceConfig::memory_budget`] set, the epoch's DAG runs over a spill
    /// [`BufferPool`](urm_storage::BufferPool) of that budget (grace hash joins, spill-backed
    /// pins); without one, pinned results are resident up to the default pin budget, so
    /// alternating batch working sets keep each other warm.
    pub fn register_epoch(&self, catalog: Catalog, mappings: MappingSet) -> EpochId {
        let id = self.inner.epoch_counter.fetch_add(1, Ordering::Relaxed);
        let state = BatchEpoch::new(self.inner.config.memory_budget);
        self.inner.epochs.write().unwrap().insert(
            id,
            Arc::new(Epoch {
                catalog,
                mappings,
                observed_cost: AtomicU64::new(0),
                state,
            }),
        );
        EpochId(id)
    }

    /// Retires an epoch: new submissions against it are rejected and its catalog and mapping
    /// set are dropped once in-flight batches finish.  Returns whether the epoch existed.
    ///
    /// A long-lived service that re-matches periodically should retire superseded epochs, or
    /// every historical catalog stays resident.  Cached answers of the retired epoch remain in
    /// the answer cache until evicted by LRU pressure, but are unreachable (submissions against
    /// the retired id fail before the cache is consulted).
    pub fn drop_epoch(&self, epoch: EpochId) -> bool {
        let removed = self
            .inner
            .epochs
            .write()
            .unwrap()
            .remove(&epoch.raw())
            .is_some();
        // Reject anything still pending against the retired epoch.
        if let Some(submissions) = self.inner.pending.lock().unwrap().remove(&epoch.raw()) {
            for submission in submissions {
                let _ = submission
                    .responder
                    .send(Err(ServiceError::UnknownEpoch(epoch)));
            }
        }
        removed
    }

    /// Submits a query against an epoch.
    ///
    /// Returns immediately with a [`Ticket`]: one that already holds the response when the
    /// answer cache has the query; otherwise the query joins the epoch's pending batch, which
    /// is dispatched when it reaches [`ServiceConfig::batch_max`] or on
    /// [`flush`](QueryService::flush).
    pub fn submit(&self, epoch: EpochId, query: TargetQuery) -> ServiceResult<Ticket> {
        self.submit_traced(epoch, query, Tracer::disabled())
    }

    /// [`submit`](QueryService::submit) with a request-scoped tracer: when `tracer` is
    /// enabled, the batch this query lands in records a full span tree under its trace id
    /// (retrievable from [`finished_traces`](QueryService::finished_traces) once answered).
    ///
    /// A hit costs what a hit is: the epoch check (a retired epoch is refused *before* the
    /// probe, even for an answer the cache still holds), one [`QueryKey`] — a hash of the query
    /// as it stands, nothing rendered — and one probe under the cache lock.  It records no
    /// spans; the channel, the [`Submission`] and the pending-queue lock exist only on a miss.
    pub fn submit_traced(
        &self,
        epoch: EpochId,
        query: TargetQuery,
        tracer: Tracer,
    ) -> ServiceResult<Ticket> {
        let inner = &self.inner;
        if !inner.epochs.read().unwrap().contains_key(&epoch.raw()) {
            return Err(ServiceError::UnknownEpoch(epoch));
        }
        inner.queries_submitted.fetch_add(1, Ordering::Relaxed);

        let key = QueryKey::new(query);
        if let Some(found) = inner.answer_cache.lock().unwrap().lookup(epoch, &key) {
            return Ok(Ticket(Ok(QueryResponse {
                answer: found.answer,
                metrics: EvalMetrics::new("answer-cache"),
                served_from: ServedFrom::AnswerCache,
                batch: found.batch,
            })));
        }

        let (responder, rx) = mpsc::channel();
        let submission = Submission {
            key,
            responder,
            tracer,
        };
        let ready = {
            let mut pending = inner.pending.lock().unwrap();
            // Look the epoch up again under the pending lock: a concurrent `drop_epoch` drains
            // this queue only while holding it, so a submission enqueued after the epoch check
            // above could otherwise be stranded (never dispatched, never rejected).
            let Some(epoch_arc) = inner.epochs.read().unwrap().get(&epoch.raw()).cloned() else {
                return Err(ServiceError::UnknownEpoch(epoch));
            };
            let queue = pending.entry(epoch.raw()).or_default();
            queue.push(submission);
            if queue.len() >= inner.config.batch_max {
                pending.remove(&epoch.raw()).map(|full| (epoch_arc, full))
            } else {
                None
            }
        };
        if let Some((epoch_arc, submissions)) = ready {
            self.dispatch(epoch, epoch_arc, submissions);
        }
        Ok(Ticket(Err(rx)))
    }

    /// Dispatches every pending submission as batches, across all epochs.
    pub fn flush(&self) {
        let drained: Vec<(u64, Vec<Submission>)> =
            self.inner.pending.lock().unwrap().drain().collect();
        for (epoch_raw, submissions) in drained {
            let epoch_arc = self.inner.epochs.read().unwrap().get(&epoch_raw).cloned();
            match epoch_arc {
                Some(epoch_arc) => self.dispatch(EpochId(epoch_raw), epoch_arc, submissions),
                None => {
                    for submission in submissions {
                        let _ = submission
                            .responder
                            .send(Err(ServiceError::UnknownEpoch(EpochId(epoch_raw))));
                    }
                }
            }
        }
    }

    fn dispatch(&self, epoch_id: EpochId, epoch: Arc<Epoch>, submissions: Vec<Submission>) {
        if submissions.is_empty() {
            return;
        }
        let batch = Batch {
            id: self.inner.batch_counter.fetch_add(1, Ordering::Relaxed),
            epoch_id,
            epoch,
            submissions,
        };
        if let Some(tx) = &self.job_tx {
            if let Err(mpsc::SendError(batch)) = tx.send(batch) {
                for submission in batch.submissions {
                    let _ = submission.responder.send(Err(ServiceError::Shutdown));
                }
            }
        }
    }

    /// Submits a whole workload, flushes, and waits for every response (in submission order).
    ///
    /// This is the synchronous convenience path used by `urm-cli` and the benchmarks;
    /// concurrent clients use [`submit`](QueryService::submit) / [`Ticket::wait`] directly.
    pub fn execute_all(
        &self,
        epoch: EpochId,
        queries: Vec<TargetQuery>,
    ) -> ServiceResult<Vec<QueryResponse>> {
        let tickets: Vec<Ticket> = queries
            .into_iter()
            .map(|q| self.submit(epoch, q))
            .collect::<ServiceResult<_>>()?;
        self.flush();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// The epoch's observed average cost in *source operators per evaluated query* (an
    /// exponentially-decayed average over its executed batches), or `None` while the epoch is
    /// cold (or unknown).  Admission layers use this to charge a request what the epoch has
    /// actually been paying per query, falling back to a static plan-shape estimate.
    #[must_use]
    pub fn observed_query_cost(&self, epoch: EpochId) -> Option<u64> {
        let epochs = self.inner.epochs.read().unwrap();
        match epochs
            .get(&epoch.raw())?
            .observed_cost
            .load(Ordering::Relaxed)
        {
            0 => None,
            cost => Some(cost),
        }
    }

    /// The configuration this service was started with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// A snapshot of the service-wide metrics.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        let mut snapshot = self.inner.metrics.lock().unwrap().clone();
        snapshot.queries_submitted = self.inner.queries_submitted.load(Ordering::Relaxed);
        let cache = self.inner.answer_cache.lock().unwrap();
        snapshot.answer_cache_hits = cache.hits();
        snapshot.answer_cache_misses = cache.misses();
        snapshot.answer_cache_evictions = cache.evictions();
        snapshot
    }

    /// The retained per-batch reports (most recent last).
    #[must_use]
    pub fn reports(&self) -> Vec<BatchReport> {
        self.inner.reports.lock().unwrap().clone()
    }

    /// Snapshots of the per-stage latency histograms as `(stage, snapshot)` pairs —
    /// `rewrite`, `plan`, `execute`, `aggregate`, `query` and `batch` (log-bucketed; merge
    /// snapshots across services with [`HistSnapshot::merge`]).
    #[must_use]
    pub fn stage_histograms(&self) -> Vec<(&'static str, HistSnapshot)> {
        self.inner.stages.snapshot()
    }

    /// The retained finished traces (bounded ring, newest last).  Batches record a trace when
    /// a submission carried an enabled [`Tracer`] ([`submit_traced`](QueryService::submit_traced))
    /// or when [`ServiceConfig::trace_sample`] sampled them.
    #[must_use]
    pub fn finished_traces(&self) -> Vec<TraceReport> {
        self.inner.traces.lock().unwrap().iter().cloned().collect()
    }

    /// Flushes pending work, waits for the workers to drain, and stops them.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.flush();
        self.job_tx = None; // closing the channel stops the workers once drained
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urm_core::testkit;
    use urm_storage::Value;

    fn service() -> (QueryService, EpochId) {
        let service = QueryService::new(ServiceConfig::tiny());
        let epoch = service.register_epoch(testkit::figure2_catalog(), testkit::figure3_mappings());
        (service, epoch)
    }

    #[test]
    fn queries_differing_only_in_value_type_are_not_conflated() {
        // `Display` renders Int(123) and Text("123") identically, and `Value`'s `==` calls
        // Int(123) and Float(123.0) equal; the cache/dedup key must do neither, or one query
        // would be served another's answer.
        let (service, epoch) = service();
        let phone_is = |value: Value| {
            TargetQuery::builder("q")
                .relation("Person")
                .filter_eq("Person.phone", value)
                .returning(["Person.addr"])
                .build()
                .unwrap()
        };
        let variants = || {
            vec![
                phone_is(Value::from("123")),
                phone_is(Value::Int(123)),
                phone_is(Value::Float(123.0)),
            ]
        };
        assert_eq!(variants()[1], variants()[2], "the derived `==` conflates");
        let responses = service.execute_all(epoch, variants()).unwrap();
        for response in &responses {
            assert_eq!(
                response.served_from,
                ServedFrom::Evaluated,
                "a typed variant was wrongly deduplicated against another"
            );
        }
        // Figure 2's phone column is Text: the Text predicate matches, the numeric ones cannot.
        assert_eq!(responses[0].answer.len(), 2);
        assert_eq!(responses[1].answer.len(), 0);
        assert_eq!(responses[2].answer.len(), 0);
        // Each is cached under its own entry and served its own answer.
        assert_eq!(service.inner.answer_cache.lock().unwrap().len(), 3);
        let again = service.execute_all(epoch, variants()).unwrap();
        for (hit, evaluated) in again.iter().zip(&responses) {
            assert_eq!(hit.served_from, ServedFrom::AnswerCache);
            assert!(Arc::ptr_eq(&hit.answer, &evaluated.answer));
        }
        assert_eq!(service.metrics().queries_evaluated, 3);
    }

    #[test]
    fn dropped_epochs_reject_submissions_and_fail_pending_ones() {
        let (service, epoch) = service();
        // Warm the path once, then leave one submission pending and retire the epoch.
        service.execute_all(epoch, vec![testkit::q0()]).unwrap();
        let pending = service.submit(epoch, testkit::q1()).unwrap();
        assert!(service.drop_epoch(epoch));
        assert!(!service.drop_epoch(epoch), "second drop is a no-op");
        assert_eq!(
            pending.wait().unwrap_err(),
            ServiceError::UnknownEpoch(epoch)
        );
        // New submissions are rejected outright — even ones the answer cache could serve.
        let err = service.submit(epoch, testkit::q0()).unwrap_err();
        assert_eq!(err, ServiceError::UnknownEpoch(epoch));
    }

    #[test]
    fn unknown_epoch_is_rejected() {
        let (service, _) = service();
        let err = service
            .submit(EpochId::from_raw(999), testkit::q0())
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownEpoch(EpochId::from_raw(999)));
    }

    #[test]
    fn batch_dedup_and_answer_cache_paths() {
        let (service, epoch) = service();
        // First round: q0 twice and q1 — one batch, q0 deduplicated within it.
        let responses = service
            .execute_all(epoch, vec![testkit::q0(), testkit::q0(), testkit::q1()])
            .unwrap();
        assert_eq!(responses[0].served_from, ServedFrom::Evaluated);
        assert_eq!(responses[1].served_from, ServedFrom::BatchDedup);
        assert_eq!(responses[2].served_from, ServedFrom::Evaluated);
        assert_eq!(responses[0].answer.sorted(), responses[1].answer.sorted());

        // Second round: everything is answered from the answer cache at submit time.
        let again = service
            .execute_all(epoch, vec![testkit::q0(), testkit::q1()])
            .unwrap();
        assert!(again
            .iter()
            .all(|r| r.served_from == ServedFrom::AnswerCache));
        assert_eq!(again[0].answer.sorted(), responses[0].answer.sorted());

        let metrics = service.metrics();
        assert_eq!(metrics.queries_submitted, 5);
        assert_eq!(metrics.queries_evaluated, 2);
        assert_eq!(metrics.batch_deduped, 1);
        assert_eq!(metrics.answer_cache_hits, 2);
        assert!(metrics.answer_hit_rate() > 0.0);
    }

    #[test]
    fn answer_cache_capacity_zero_evaluates_every_repeat() {
        let service = QueryService::new(ServiceConfig {
            answer_cache_capacity: 0,
            ..ServiceConfig::tiny()
        });
        let epoch = service.register_epoch(testkit::figure2_catalog(), testkit::figure3_mappings());
        let first = service.execute_all(epoch, vec![testkit::q0()]).unwrap();
        let second = service.execute_all(epoch, vec![testkit::q0()]).unwrap();
        for response in first.iter().chain(&second) {
            assert_eq!(response.served_from, ServedFrom::Evaluated);
        }
        assert_eq!(first[0].answer.sorted(), second[0].answer.sorted());
        let metrics = service.metrics();
        assert_eq!(metrics.queries_evaluated, 2);
        assert_eq!(metrics.answer_cache_hits, 0);
    }

    #[test]
    fn epoch_dag_reuses_across_batches_of_one_epoch() {
        // q0 and q1 are different queries (so the answer cache stays out of the way) whose
        // reformulations overlap on scans/selections: the second batch must answer the shared
        // frontier from the epoch DAG instead of re-executing it.
        let (service, epoch) = service();
        service.execute_all(epoch, vec![testkit::q0()]).unwrap();
        service.execute_all(epoch, vec![testkit::q1()]).unwrap();
        let metrics = service.metrics();
        assert!(
            metrics.epoch_results_reused > 0,
            "second batch re-executed the epoch's materialised operators"
        );
        assert!(metrics.epoch_reuse_rate() > 0.0);
        let reports = service.reports();
        assert_eq!(reports[0].run.results_reused, 0, "first batch is cold");
        assert!(reports[1].run.results_reused > 0);
    }

    #[test]
    fn memory_budget_zero_answers_are_identical_to_unbudgeted() {
        let (service, epoch) = service();
        let queries = vec![testkit::q0(), testkit::q1(), testkit::q2_product()];
        let unbudgeted = service.execute_all(epoch, queries.clone()).unwrap();

        let budgeted_service = QueryService::new(ServiceConfig {
            memory_budget: Some(0),
            ..ServiceConfig::tiny()
        });
        let epoch = budgeted_service
            .register_epoch(testkit::figure2_catalog(), testkit::figure3_mappings());
        // Two rounds with a fresh answer cache miss each time would need distinct queries;
        // instead replay the same round so the second one exercises the spilled-pin path too.
        let first = budgeted_service.execute_all(epoch, queries).unwrap();
        for (a, b) in unbudgeted.iter().zip(&first) {
            assert_eq!(a.answer.sorted(), b.answer.sorted());
        }
        let metrics = budgeted_service.metrics();
        assert!(metrics.exec.bytes_spilled > 0, "budget 0 must spill pins");
        // (The worked-example queries reformulate onto products, so the grace *join* path is
        // exercised by the engine tests and the spill benchmark, not here.)
        let reports = budgeted_service.reports();
        assert!(reports.iter().any(|r| r.exec.bytes_spilled > 0));
    }

    #[test]
    fn failed_batch_still_answers_rechecked_cache_hits_and_is_accounted() {
        // An epoch over an empty catalog: every evaluation fails.  X's answer reaches the cache
        // after X was queued (another batch evaluated it), so the batch's recheck resolves X
        // and only Y is evaluated.
        let service = QueryService::new(ServiceConfig::tiny());
        let epoch = service.register_epoch(Catalog::new(), testkit::figure3_mappings());
        let submission = |query: TargetQuery| {
            let (responder, rx) = mpsc::channel();
            let submission = Submission {
                key: QueryKey::new(query),
                responder,
                tracer: Tracer::disabled(),
            };
            (submission, Ticket(Err(rx)))
        };
        let (x, x_ticket) = submission(testkit::q0());
        let (y, y_ticket) = submission(testkit::q1());
        let cached = Arc::new(ProbabilisticAnswer::new());
        service.inner.answer_cache.lock().unwrap().insert(
            epoch,
            x.key.clone(),
            CachedAnswer {
                answer: Arc::clone(&cached),
                batch: 7,
            },
        );
        let epoch_arc = Arc::clone(&service.inner.epochs.read().unwrap()[&epoch.raw()]);
        service.inner.process_batch(Batch {
            id: 9,
            epoch_id: epoch,
            epoch: epoch_arc,
            submissions: vec![x, y],
        });

        let x_response = x_ticket.wait().expect("a cached answer was in hand");
        assert_eq!(x_response.served_from, ServedFrom::AnswerCache);
        assert_eq!(x_response.batch, 7);
        assert!(Arc::ptr_eq(&x_response.answer, &cached));
        assert!(matches!(y_ticket.wait(), Err(ServiceError::Eval(_))));
        assert_eq!(service.metrics().batches, 1);
        let reports = service.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            (reports[0].id, reports[0].queries, reports[0].evaluated),
            (9, 2, 0)
        );
        assert_eq!(reports[0].served_from_cache, 1);
    }

    #[test]
    fn alternating_batches_stay_warm_under_the_pin_budget() {
        // A, B, A, B: with the byte-budgeted LRU pin policy (the default), the repeats of A
        // and B execute nothing — the ROADMAP's "pin policy tuning" scenario.  The answer
        // cache would mask this, so alternate between two queries whose *epoch work* overlaps
        // but whose cache keys differ per round... simplest: turn the answer cache off by
        // using distinct-but-shared-structure queries is overkill — instead inspect reports
        // after resubmitting the same queries, which the answer cache intercepts *before* the
        // DAG.  So assert on epoch reuse across the A and B batches instead.
        let (service, epoch) = service();
        service.execute_all(epoch, vec![testkit::q0()]).unwrap();
        service.execute_all(epoch, vec![testkit::q1()]).unwrap();
        // q0's working set was NOT rotated out by q1's batch (byte-LRU keeps both), so a
        // third, overlapping query reuses the q0 frontier even two batches later.
        service
            .execute_all(epoch, vec![testkit::q2_product()])
            .unwrap();
        let reports = service.reports();
        assert_eq!(reports.len(), 3);
        assert!(
            reports[2].run.results_reused > 0,
            "older batches' pins were rotated out despite fitting the byte budget"
        );
    }

    #[test]
    fn retirement_leaves_nothing_behind_that_changes_the_next_epoch() {
        // Clones of one catalog share row buffers, so bound fingerprints line up from one
        // registration to the next: anything a retired epoch left behind would show up here.
        let catalog = testkit::figure2_catalog();
        let queries = || vec![testkit::q0(), testkit::q1(), testkit::count_query()];
        let service = QueryService::new(ServiceConfig::tiny());
        let rounds: Vec<_> = (0..3)
            .map(|_| {
                let epoch = service.register_epoch(catalog.clone(), testkit::figure3_mappings());
                let answers: Vec<Vec<(urm_storage::Tuple, u64)>> = service
                    .execute_all(epoch, queries())
                    .unwrap()
                    .iter()
                    .map(|response| {
                        let sorted = response.answer.sorted();
                        sorted.into_iter().map(|(t, p)| (t, p.to_bits())).collect()
                    })
                    .collect();
                let report = service.reports().last().cloned().unwrap();
                assert_eq!(report.epoch, epoch.raw());
                assert!(service.drop_epoch(epoch));
                (
                    answers,
                    report.run.nodes_executed,
                    report.run.results_reused,
                )
            })
            .collect();
        assert_eq!(rounds[1], rounds[0], "round 2");
        assert_eq!(rounds[2], rounds[0], "round 3");
    }

    #[test]
    fn full_batches_dispatch_without_flush() {
        let (service, epoch) = service();
        // tiny() has batch_max = 8: submitting 8 queries dispatches automatically.
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| service.submit(epoch, testkit::q2_product()).unwrap())
            .collect();
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        assert!(service.metrics().batches >= 1);
    }

    #[test]
    fn concurrent_submissions_are_all_answered() {
        let service = Arc::new(QueryService::new(ServiceConfig {
            workers: 4,
            batch_max: 4,
            ..ServiceConfig::default()
        }));
        let epoch = service.register_epoch(testkit::figure2_catalog(), testkit::figure3_mappings());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    let query = if i % 2 == 0 {
                        testkit::q0()
                    } else {
                        testkit::q1()
                    };
                    let tickets: Vec<Ticket> = (0..6)
                        .map(|_| service.submit(epoch, query.clone()).unwrap())
                        .collect();
                    service.flush();
                    tickets
                        .into_iter()
                        .map(|t| t.wait().unwrap().answer)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut q0_answers = Vec::new();
        let mut q1_answers = Vec::new();
        for (i, handle) in handles.into_iter().enumerate() {
            let answers = handle.join().unwrap();
            assert_eq!(answers.len(), 6);
            if i % 2 == 0 {
                q0_answers.extend(answers);
            } else {
                q1_answers.extend(answers);
            }
        }
        // Every client saw the same answer regardless of which batch served it.
        for a in &q0_answers {
            assert_eq!(a.sorted(), q0_answers[0].sorted());
        }
        for a in &q1_answers {
            assert_eq!(a.sorted(), q1_answers[0].sorted());
        }
    }

    #[test]
    fn pipelined_and_serialised_locks_agree_under_concurrency() {
        // Same concurrent workload on four workers (a batch binds under the epoch lock while
        // the previous one still executes) and on one (batches strictly one after another):
        // every client must see the same answer either way.
        let run = |workers: usize| {
            let service = Arc::new(QueryService::new(ServiceConfig {
                workers,
                batch_max: 2,
                ..ServiceConfig::default()
            }));
            let epoch =
                service.register_epoch(testkit::figure2_catalog(), testkit::figure3_mappings());
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let service = Arc::clone(&service);
                    std::thread::spawn(move || {
                        let query = if i % 2 == 0 {
                            testkit::q0()
                        } else {
                            testkit::q1()
                        };
                        let tickets: Vec<Ticket> = (0..4)
                            .map(|_| service.submit(epoch, query.clone()).unwrap())
                            .collect();
                        service.flush();
                        tickets
                            .into_iter()
                            .map(|t| t.wait().unwrap().answer.sorted())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let answers: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (answers, service.metrics())
        };
        let (pipelined, pipelined_metrics) = run(4);
        let (serialised, _) = run(1);
        for (a, b) in pipelined.iter().zip(&serialised) {
            assert_eq!(a, b, "overlapping bind and execute changed an answer");
        }
        assert_eq!(pipelined_metrics.queries_submitted, 16);
    }

    #[test]
    fn batch_reports_carry_latency_percentiles() {
        let (service, epoch) = service();
        service
            .execute_all(
                epoch,
                vec![testkit::q0(), testkit::q1(), testkit::q2_product()],
            )
            .unwrap();
        let reports = service.reports();
        let p = reports[0].latency_percentiles;
        assert!(p.p50 > std::time::Duration::ZERO);
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
        assert!(p.p99 <= reports[0].latency, "a query outlived its batch");
    }

    #[test]
    fn service_totals_are_the_sum_of_the_batch_reports() {
        // A counter the accumulation missed would leave the totals short of the reports' sum.
        let configs = [
            ServiceConfig::tiny(),
            ServiceConfig {
                memory_budget: Some(0),
                ..ServiceConfig::tiny()
            },
        ];
        for config in configs {
            let label = format!("budget {:?}", config.memory_budget);
            let service = QueryService::new(config);
            let epoch =
                service.register_epoch(testkit::figure2_catalog(), testkit::figure3_mappings());
            for batch in [
                vec![testkit::q0(), testkit::q1()],
                vec![testkit::q2_product(), testkit::count_query()],
                vec![testkit::sum_query(), testkit::basic_example_query()],
            ] {
                service.execute_all(epoch, batch).unwrap();
            }
            let (metrics, reports) = (service.metrics(), service.reports());
            assert_eq!(reports.len(), 3, "{label}");
            let mut exec = urm_engine::ExecStats::default();
            let mut run = urm_engine::RunReport::default();
            for report in &reports {
                exec.merge(&report.exec);
                run.merge(&report.run);
            }
            assert!(exec.source_operators() > 0, "{label}");
            assert_eq!(metrics.exec, exec, "{label}");
            assert_eq!(metrics.dag_nodes_executed, run.nodes_executed, "{label}");
            assert_eq!(metrics.epoch_results_reused, run.results_reused, "{label}");
            assert_eq!(metrics.epoch_bind_hits, run.bind_hits, "{label}");
            assert_eq!(metrics.plan_cache_hits, run.plan_hits(), "{label}");
            assert_eq!(metrics.plan_cache_misses, run.nodes_added, "{label}");
        }
    }

    #[test]
    fn batch_reports_account_for_the_work() {
        let (service, epoch) = service();
        service
            .execute_all(epoch, vec![testkit::q0(), testkit::q1(), testkit::q0()])
            .unwrap();
        let reports = service.reports();
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.queries, 3);
        assert_eq!(report.evaluated, 2);
        assert!(report.run.nodes_added > 0);
        assert!(report.exec.source_operators() > 0);
    }
}
