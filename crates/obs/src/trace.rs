//! Structured trace spans: a thread-safe, cheaply cloneable [`Tracer`] recording nested spans
//! across threads, exported as Chrome trace-event JSON (loadable in `chrome://tracing` /
//! Perfetto) and as JSONL.
//!
//! Design constraints, in order:
//!
//! * **Off is free.**  A disabled tracer is `None` inside: [`Tracer::span`] returns an inert
//!   guard without allocating, locking or reading the clock.  Hot paths call it
//!   unconditionally.
//! * **Clone is a pointer bump.**  The tracer is an `Option<Arc<…>>`, so it rides along in
//!   executors, worker threads, buffer pools and batch options without lifetime plumbing.
//! * **Cross-thread parenting is explicit.**  Each thread keeps its own open-span stack
//!   inside the tracer (a span's parent is the innermost open span *of its thread*).  A
//!   scheduler that fans work out to workers first [sets an anchor](Tracer::set_anchor): spans
//!   started on threads with an empty stack parent to the anchor instead of floating free.
//!
//! Spans carry integer tags (`shared_by`, node indices, byte counts) attached via
//! [`SpanGuard::tag`] and name-valued labels (`op`) attached via [`SpanGuard::label`]; keys
//! and label values are `&'static str` so tagging never allocates either.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Process-wide small integer tags for threads (stable for a thread's lifetime, compact in
/// trace output — unlike `ThreadId`, which is opaque).
static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(1);

fn thread_tag() -> u64 {
    thread_local! {
        static TAG: u64 = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within the trace (1-based).
    pub id: u64,
    /// Parent span id; 0 = a root span.
    pub parent: u64,
    /// Stage name (`"batch"`, `"rewrite"`, `"node"`, `"spill_write"`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The recording thread's process-wide tag.
    pub tid: u64,
    /// Integer tags (`("shared_by", 3)`, `("node", 1)`, …).
    pub tags: Vec<(&'static str, u64)>,
    /// Name-valued tags (`("op", "join")`); exported beside the integer ones.
    pub labels: Vec<(&'static str, &'static str)>,
}

struct TraceState {
    spans: Vec<SpanRecord>,
    /// Per-thread stacks of open span ids: the innermost is the parent of the next span
    /// started on that thread.
    stacks: HashMap<u64, Vec<u64>>,
}

struct TraceInner {
    id: String,
    start: Instant,
    next_span: AtomicU64,
    /// Fallback parent for spans started on threads with an empty local stack (worker threads
    /// inside a scheduler fan-out); 0 = none.
    anchor: AtomicU64,
    state: Mutex<TraceState>,
}

/// A handle on one trace — disabled by default, enabled with an id.  Clones share the trace.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TraceInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "Tracer({:?})", inner.id),
            None => f.write_str("Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// The no-op tracer (same as `Tracer::default()`): spans are inert, nothing allocates.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer recording under `id` (the `X-Trace-Id` / batch id).
    #[must_use]
    pub fn enabled(id: impl Into<String>) -> Self {
        Tracer {
            inner: Some(Arc::new(TraceInner {
                id: id.into(),
                start: Instant::now(),
                next_span: AtomicU64::new(1),
                anchor: AtomicU64::new(0),
                state: Mutex::new(TraceState {
                    spans: Vec::new(),
                    stacks: HashMap::new(),
                }),
            })),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id, when enabled.
    #[must_use]
    pub fn id(&self) -> Option<&str> {
        self.inner.as_deref().map(|inner| inner.id.as_str())
    }

    /// Opens a span; it closes (and is recorded) when the guard drops.  On a disabled tracer
    /// this is a no-op: no clock read, no lock, no allocation.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                inner: None,
                id: 0,
                parent: 0,
                name,
                start_ns: 0,
                tid: 0,
                tags: Vec::new(),
                labels: Vec::new(),
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let tid = thread_tag();
        let start_ns = u64::try_from(inner.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let parent = {
            let mut state = inner.state.lock().unwrap();
            let stack = state.stacks.entry(tid).or_default();
            let parent = match stack.last() {
                Some(&top) => top,
                None => inner.anchor.load(Ordering::Relaxed),
            };
            stack.push(id);
            parent
        };
        SpanGuard {
            inner: Some(Arc::clone(inner)),
            id,
            parent,
            name,
            start_ns,
            tid,
            tags: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Sets the fallback parent for spans started on threads with no open span of their own —
    /// call with the scheduler/execute span's [id](SpanGuard::id) before fanning work out to
    /// worker threads, and [clear](Tracer::clear_anchor) after they join.
    pub fn set_anchor(&self, span_id: u64) {
        if let Some(inner) = &self.inner {
            inner.anchor.store(span_id, Ordering::Relaxed);
        }
    }

    /// Clears the cross-thread anchor.
    pub fn clear_anchor(&self) {
        self.set_anchor(0);
    }

    /// Snapshots the recorded spans (sorted by start) as a [`TraceReport`]; `None` when
    /// disabled.  Open spans are not included — finish after the guards have dropped.
    #[must_use]
    pub fn finish(&self) -> Option<TraceReport> {
        let inner = self.inner.as_deref()?;
        let mut spans = inner.state.lock().unwrap().spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Some(TraceReport {
            id: inner.id.clone(),
            spans,
        })
    }
}

/// An open span; records itself when dropped.  Inert (all-zero) on a disabled tracer.
pub struct SpanGuard {
    inner: Option<Arc<TraceInner>>,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    tid: u64,
    tags: Vec<(&'static str, u64)>,
    labels: Vec<(&'static str, &'static str)>,
}

impl SpanGuard {
    /// The span id (0 on a disabled tracer) — what [`Tracer::set_anchor`] takes.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches an integer tag (no-op when disabled — the tag vector only grows on enabled
    /// guards).
    pub fn tag(&mut self, key: &'static str, value: u64) {
        if self.inner.is_some() {
            self.tags.push((key, value));
        }
    }

    /// Attaches a name-valued tag, such as the kind of operator a `node` span ran (no-op when
    /// disabled).  Values are program constants and are exported unescaped.
    pub fn label(&mut self, key: &'static str, value: &'static str) {
        if self.inner.is_some() {
            self.labels.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end_ns = u64::try_from(inner.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            dur_ns: end_ns.saturating_sub(self.start_ns),
            tid: self.tid,
            tags: std::mem::take(&mut self.tags),
            labels: std::mem::take(&mut self.labels),
        };
        let mut state = inner.state.lock().unwrap();
        if let Some(stack) = state.stacks.get_mut(&self.tid) {
            // Guards drop LIFO per thread in practice; tolerate out-of-order drops anyway.
            if let Some(pos) = stack.iter().rposition(|&open| open == self.id) {
                stack.remove(pos);
            }
        }
        state.spans.push(record);
    }
}

/// A finished trace: the id plus every recorded span, exportable as Chrome trace-event JSON
/// or JSONL.
#[derive(Debug, Clone)]
pub struct TraceReport {
    id: String,
    spans: Vec<SpanRecord>,
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Nanoseconds rendered as the microsecond decimal Chrome's `ts`/`dur` fields expect.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

impl TraceReport {
    /// The trace id.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The recorded spans, sorted by start time.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The comma-joined Chrome trace events of this report under process id `pid` (used by
    /// [`merge_chrome_json`] to lay several traces side by side in one timeline).
    #[must_use]
    pub fn chrome_events(&self, pid: u64) -> String {
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(span.name);
            out.push_str("\",\"ph\":\"X\",\"ts\":");
            out.push_str(&micros(span.start_ns));
            out.push_str(",\"dur\":");
            out.push_str(&micros(span.dur_ns));
            out.push_str(&format!(",\"pid\":{pid},\"tid\":{}", span.tid));
            out.push_str(&format!(
                ",\"args\":{{\"trace\":\"{}\",\"span\":{},\"parent\":{}",
                {
                    let mut id = String::new();
                    escape_json(&self.id, &mut id);
                    id
                },
                span.id,
                span.parent
            ));
            for (key, value) in &span.tags {
                out.push_str(&format!(",\"{key}\":{value}"));
            }
            for (key, value) in &span.labels {
                out.push_str(&format!(",\"{key}\":\"{value}\""));
            }
            out.push_str("}}");
        }
        out
    }

    /// The whole trace as one `chrome://tracing`-loadable document.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        format!("{{\"traceEvents\":[{}]}}", self.chrome_events(1))
    }

    /// One JSON object per span, newline-separated.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&self.span_json(span));
            out.push('\n');
        }
        out
    }

    /// The report as one JSON object: `{"id": …, "spans": […]}` (the `/debug/traces` shape).
    #[must_use]
    pub fn to_json_object(&self) -> String {
        let mut out = String::from("{\"id\":\"");
        escape_json(&self.id, &mut out);
        out.push_str("\",\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&self.span_json(span));
        }
        out.push_str("]}");
        out
    }

    fn span_json(&self, span: &SpanRecord) -> String {
        let mut out = format!(
            "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"tid\":{}",
            span.id, span.parent, span.name, span.start_ns, span.dur_ns, span.tid
        );
        out.push_str(",\"tags\":{");
        let tags = span
            .tags
            .iter()
            .map(|(key, value)| format!("\"{key}\":{value}"));
        let labels = span
            .labels
            .iter()
            .map(|(key, value)| format!("\"{key}\":\"{value}\""));
        out.push_str(&tags.chain(labels).collect::<Vec<_>>().join(","));
        out.push_str("}}");
        out
    }
}

/// Merges several reports into one Chrome trace document, one `pid` lane per trace.
#[must_use]
pub fn merge_chrome_json(reports: &[TraceReport]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (i, report) in reports.iter().enumerate() {
        let events = report.chrome_events(i as u64 + 1);
        if events.is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&events);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        assert!(tracer.id().is_none());
        let mut guard = tracer.span("batch");
        guard.tag("ignored", 1);
        assert_eq!(guard.id(), 0);
        drop(guard);
        assert!(tracer.finish().is_none());
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let tracer = Tracer::enabled("t");
        {
            let outer = tracer.span("batch");
            let outer_id = outer.id();
            {
                let mut inner = tracer.span("rewrite");
                inner.tag("queries", 3);
                inner.label("op", "join");
                assert_ne!(inner.id(), outer_id);
            }
            let _sibling = tracer.span("plan");
        }
        let report = tracer.finish().unwrap();
        assert_eq!(report.id(), "t");
        let spans = report.spans();
        assert_eq!(spans.len(), 3);
        let batch = spans.iter().find(|s| s.name == "batch").unwrap();
        let rewrite = spans.iter().find(|s| s.name == "rewrite").unwrap();
        let plan = spans.iter().find(|s| s.name == "plan").unwrap();
        assert_eq!(batch.parent, 0);
        assert_eq!(rewrite.parent, batch.id);
        assert_eq!(plan.parent, batch.id);
        assert_eq!(rewrite.tags, vec![("queries", 3)]);
        assert_eq!(rewrite.labels, vec![("op", "join")]);
        let tagged = "\"tags\":{\"queries\":3,\"op\":\"join\"}";
        assert!(report.to_jsonl().contains(tagged), "{}", report.to_jsonl());
        assert!(report
            .to_chrome_json()
            .contains("\"queries\":3,\"op\":\"join\"}"));
        assert!(batch.dur_ns >= rewrite.dur_ns);
    }

    #[test]
    fn worker_threads_parent_to_the_anchor() {
        let tracer = Tracer::enabled("t");
        let execute = tracer.span("execute");
        tracer.set_anchor(execute.id());
        let execute_id = execute.id();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    let mut node = tracer.span("node");
                    node.tag("shared_by", 2);
                });
            }
        });
        tracer.clear_anchor();
        drop(execute);
        let report = tracer.finish().unwrap();
        let nodes: Vec<_> = report.spans().iter().filter(|s| s.name == "node").collect();
        assert_eq!(nodes.len(), 2);
        for node in nodes {
            assert_eq!(node.parent, execute_id);
        }
    }

    #[test]
    fn chrome_export_is_well_formed() {
        let tracer = Tracer::enabled("q\"uote");
        {
            let _span = tracer.span("batch");
        }
        let report = tracer.finish().unwrap();
        let chrome = report.to_chrome_json();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("q\\\"uote"), "trace id must be escaped");
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        let merged = merge_chrome_json(&[report.clone(), report]);
        assert!(merged.contains("\"pid\":1") && merged.contains("\"pid\":2"));
    }
}
