//! End-to-end and per-layer benchmark of the wlc workspace.
//!
//! Two workloads call the library crates' public functions the way the
//! `wlc` subcommands do:
//!
//! - [`characterize`]: the paper's offline pipeline;
//! - [`capacity`]: long-horizon simulations from light load to past
//!   saturation.
//!
//! Both report the same [`END_TO_END`] metrics, each defined per
//! workload (see `README.md`). A traced run reports the [`PER_LAYER`]
//! metrics instead: those of the layers the workload exercises come
//! from its own calls, and the rest from a short probe that owns the
//! layer: the other workload at a small size, or one of
//!
//! - [`serve_open`]: open-loop single-row and closed-loop batch
//!   prediction against an in-process server;
//! - [`learn_loop`]: supervisor rounds with durable state and rolling
//!   reloads.

pub mod capacity;
pub mod characterize;
pub mod common;
pub mod learn_loop;
pub mod serve_open;
pub mod stats;
pub mod trace;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["characterize", "capacity"];

/// Probes that measure per-layer metrics: the workloads at a small
/// size, and the serving and learning probes.
pub const PROBES: [&str; 4] = ["characterize", "capacity", "serve_open", "learn_loop"];

/// End-to-end metrics: name, unit, better, bound on regression as a
/// share of the parent's median.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
];

/// Per-layer metrics of a traced run: name, unit, better.
pub const PER_LAYER: [(&str, &str, &str); 49] = [
    ("data.design_s", "s", "lower"),
    ("data.csv_roundtrip_s", "s", "lower"),
    ("sim.runs", "count", "higher"),
    ("sim.txns", "count", "higher"),
    ("sim.run_ms_p50", "ms", "lower"),
    ("sim.run_ms_max", "ms", "lower"),
    ("sim.txn_per_busy_s", "1/s", "higher"),
    ("sim.saturated_runs", "count", "lower"),
    ("sim.stream_window_s", "s", "lower"),
    ("exec.collect_efficiency", "ratio", "higher"),
    ("exec.collect_straggler", "ratio", "lower"),
    ("exec.cv_efficiency", "ratio", "higher"),
    ("exec.cv_fold_s_max", "s", "lower"),
    ("exec.cv_fold_s_p50", "s", "lower"),
    ("math.gemm_gflops.l1", "GFLOP/s", "higher"),
    ("math.gemm_gflops.l2", "GFLOP/s", "higher"),
    ("math.gemm_gflops.l3", "GFLOP/s", "higher"),
    ("nn.train_epochs", "count", "lower"),
    ("nn.epochs_per_s", "1/s", "higher"),
    ("nn.forward_rows_per_s", "1/s", "higher"),
    ("core.train_s", "s", "lower"),
    ("core.cv_s", "s", "lower"),
    ("core.surface_points_per_s", "1/s", "higher"),
    ("core.predict_single_us", "us", "lower"),
    ("serve.connect_us_p50", "us", "lower"),
    ("serve.connect_us_p99", "us", "lower"),
    ("serve.ttfb_us_p50", "us", "lower"),
    ("serve.ttfb_us_p99", "us", "lower"),
    ("serve.compute_share", "ratio", "higher"),
    ("serve.batch_compute_share", "ratio", "higher"),
    ("serve.gen_lag_ms_p99", "ms", "lower"),
    ("serve.inflight_max", "count", "lower"),
    ("serve.handled", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.degraded", "count", "lower"),
    ("serve.deadline_missed", "count", "lower"),
    ("learn.round_s_p50", "s", "lower"),
    ("learn.round_s_max", "s", "lower"),
    ("learn.promotions", "count", "higher"),
    ("learn.rollbacks", "count", "lower"),
    ("fault.durable_ops_per_round", "count", "lower"),
    ("fault.write_atomic_ms_p50", "ms", "lower"),
    ("trace.spans", "count", "higher"),
    ("trace.op_ms_p50_traced", "ms", "lower"),
    ("trace.op_ms_p50_untraced", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.probes", "count", "lower"),
    ("trace.layers_from_probes", "count", "lower"),
];

/// The probe that measures a per-layer metric when the workload under
/// test does not exercise that layer.
pub fn owner(metric: &str) -> &'static str {
    const CAPACITY: [&str; 8] = [
        "sim.runs",
        "sim.txns",
        "sim.run_ms_p50",
        "sim.run_ms_max",
        "sim.txn_per_busy_s",
        "sim.saturated_runs",
        "exec.collect_efficiency",
        "exec.collect_straggler",
    ];
    if CAPACITY.contains(&metric) {
        "capacity"
    } else if metric.starts_with("serve.") {
        "serve_open"
    } else if metric.starts_with("learn.")
        || metric.starts_with("fault.")
        || metric == "sim.stream_window_s"
    {
        "learn_loop"
    } else {
        "characterize"
    }
}
