//! In-memory spans recorded by the benchmark around each call into a
//! library layer.
//!
//! A span holds its layer, name, start, duration and the span that was
//! open on the same thread when it began. Spans stay in memory until
//! the run ends. Recording can be paused so a traced run can alternate
//! traced and untraced operations and measure what tracing costs.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The span open on the same thread when this one began.
    pub parent: Option<u32>,
    /// Library layer called (`sim`, `core`, ...), or `bench` for the
    /// benchmark's own grouping spans.
    pub layer: &'static str,
    /// Call name within the layer.
    pub name: &'static str,
    /// Start, in seconds since the tracer was created.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
}

thread_local! {
    static OPEN: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Span recorder; with tracing off every call is a plain pass-through.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    recording: AtomicBool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            recording: AtomicBool::new(enabled),
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether this run is traced at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses (`false`) or resumes (`true`) recording; no effect on an
    /// untraced run.
    pub fn record(&self, on: bool) {
        self.recording.store(self.enabled && on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded right now.
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::SeqCst)
    }

    /// Runs `f` inside a span `layer.name`.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.recording() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| open.replace(Some(id)));
        let start = Instant::now();
        let out = f();
        let dur_s = start.elapsed().as_secs_f64();
        OPEN.with(|open| open.set(parent));
        let span = Span {
            id,
            parent,
            layer,
            name,
            start_s: start.duration_since(self.origin).as_secs_f64(),
            dur_s,
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking benchmark thread")
            .push(span);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking benchmark thread")
            .clone()
    }

    /// Durations in seconds of the spans named `layer.name`.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_s)
            .collect()
    }
}
