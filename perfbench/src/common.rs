//! What every workload shares: the run context, output checks, the
//! metric records a workload returns, and host facts.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// Everything a workload needs to run.
#[derive(Debug)]
pub struct Ctx {
    /// Root seed; every input is derived from it.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Worker count for every `--jobs`-style setting: one per core.
    pub jobs: usize,
    /// Span recorder (a pass-through when the run is untraced).
    pub tracer: Tracer,
    /// Scratch directory inside the checkout, removed at exit.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// In a traced run, operation `i` is traced when `i` is even, so
    /// traced and untraced operations interleave and their difference
    /// is the tracing overhead. Sets the recorder and returns the flag.
    pub fn trace_op(&self, i: usize) -> bool {
        let on = self.traced() && i.is_multiple_of(2);
        self.tracer.record(on);
        on
    }
}

/// Output checks and the operation count they are judged against.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that failed and checks that did not hold.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one attempted operation or check; records it as failed
    /// unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts an operation that returned an error.
    pub fn error(&mut self, what: impl std::fmt::Display) {
        self.check(false, || what.to_string());
    }
}

/// An end-to-end metric under the name the workload's own documents
/// use (e.g. `predict_p99_ms.heavy`), printed in the human report.
#[derive(Debug, Clone)]
pub struct Named {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Samples behind the value (1 for a total).
    pub samples: usize,
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per set-up; the workload sets up several times.
    pub setup_s: Vec<f64>,
    /// Milliseconds per untraced operation.
    pub op_ms: Vec<f64>,
    /// Milliseconds per traced operation (traced runs only).
    pub op_ms_traced: Vec<f64>,
    /// The workload's bulk throughput, per second.
    pub work_per_s: f64,
    /// The workload's metrics under their own names.
    pub named: Vec<Named>,
    /// Per-layer metrics this workload measured itself.
    pub layers: BTreeMap<&'static str, f64>,
    /// Peak resident memory in MiB when the workload reads it at a
    /// point of its own; otherwise it is read when the workload ends.
    pub rss_mb: Option<f64>,
    /// Output checks.
    pub checks: Checks,
}

impl Measured {
    /// Records an operation's duration in the traced or untraced list.
    pub fn op(&mut self, traced: bool, elapsed: Duration) {
        let ms = elapsed.as_secs_f64() * 1e3;
        if traced {
            self.op_ms_traced.push(ms);
        } else {
            self.op_ms.push(ms);
        }
    }

    /// Adds a metric under its workload name.
    pub fn named(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        better: &'static str,
        samples: usize,
    ) {
        self.named.push(Named {
            name,
            value,
            unit,
            better,
            samples,
        });
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// Runs `f` and returns its result with its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Peak resident memory of this process in MiB (`VmHWM`), or NaN where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The host facts every result carries.
pub fn host_fingerprint() -> String {
    format!(
        "{{\"available_parallelism\":{},\"avx2\":{},\"fma\":{},\"profile\":\"{}\",\"os\":\"{}\",\"arch\":\"{}\",\"thread_scaling_above_nproc\":\"not measured\"}}",
        wlc_exec::default_jobs(),
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "fma"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}
