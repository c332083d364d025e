//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics when untraced, the per-layer metrics when traced. The lines
//! before it give the host fingerprint, the workload's metrics under
//! their own names, and any failed check. `--workload all` runs every
//! workload, each in its own process. Exits 1 when an output check
//! fails and 2 on bad usage.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use wlc_perfbench::common::{host_fingerprint, peak_rss_mb, Ctx, Measured};
use wlc_perfbench::stats::{median, Summary};
use wlc_perfbench::trace::Tracer;
use wlc_perfbench::{
    capacity, characterize, learn_loop, owner, serve_open, END_TO_END, PER_LAYER, PROBES, WORKLOADS,
};

const USAGE: &str = "usage: perfbench --workload <characterize|capacity|all> \
[--seed <u64>] [--seconds <f64>] [--trace <0|1>]";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for `{flag}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("`--seconds` must be a non-negative number".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// Runs the probe `name` (one of [`PROBES`]).
fn run_probe(ctx: &Ctx, name: &str) -> Measured {
    match name {
        "characterize" => characterize::run(ctx, characterize::PROBE),
        "capacity" => capacity::run(ctx, capacity::PROBE),
        "serve_open" => serve_open::probe(ctx),
        "learn_loop" => learn_loop::probe(ctx),
        _ => unreachable!("PROBES lists every probe"),
    }
}

/// Fills every per-layer metric the workload did not measure from a
/// traced run of the probe that owns it. Returns the metrics,
/// where each came from, and the probes' checks.
fn layer_metrics(
    ctx: &Ctx,
    workload: &str,
    m: &mut Measured,
) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, String>) {
    let mut layers = m.layers.clone();
    let mut sources: BTreeMap<&'static str, String> =
        layers.keys().map(|&k| (k, workload.to_string())).collect();
    let untraced = median(&m.op_ms);
    let traced = median(&m.op_ms_traced);
    layers.insert("trace.spans", ctx.tracer.spans().len() as f64);
    layers.insert("trace.op_ms_p50_traced", traced);
    layers.insert("trace.op_ms_p50_untraced", untraced);
    layers.insert("trace.overhead_ms", traced - untraced);
    layers.insert("trace.overhead_pct", (traced - untraced) / untraced * 100.0);
    let mut probes = 0usize;
    for probe in PROBES.iter().filter(|&&w| w != workload) {
        let wanted: Vec<&'static str> = PER_LAYER
            .iter()
            .map(|(name, _, _)| *name)
            .filter(|name| !layers.contains_key(name) && owner(name) == *probe)
            .collect();
        if wanted.is_empty() {
            continue;
        }
        probes += 1;
        let probe_ctx = Ctx {
            seed: ctx.seed,
            seconds: 0.0,
            jobs: ctx.jobs,
            tracer: Tracer::new(true),
            work_dir: ctx.work_dir.join(format!("probe-{probe}")),
        };
        let p = run_probe(&probe_ctx, probe);
        let _ = std::fs::remove_dir_all(&probe_ctx.work_dir);
        m.checks.attempted += p.checks.attempted;
        m.checks.failed += p.checks.failed;
        m.checks.failures.extend(
            p.checks
                .failures
                .iter()
                .map(|f| format!("{probe} probe: {f}")),
        );
        for name in wanted {
            if let Some(&v) = p.layers.get(name) {
                layers.insert(name, v);
                sources.insert(name, format!("{probe} probe"));
            }
        }
    }
    layers.insert("trace.probes", probes as f64);
    layers.insert(
        "trace.layers_from_probes",
        sources.values().filter(|s| s.ends_with("probe")).count() as f64,
    );
    (layers, sources)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Writes the main run's spans, one per line, to
/// `.bench_trace/<workload>-seed<n>.tsv`.
fn write_spans(ctx: &Ctx, args: &Args) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".bench_trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let mut out = String::from("id\tparent\tlayer\tname\tstart_s\tdur_s\n");
    for s in ctx.tracer.spans() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        out.push_str(&format!(
            "{}\t{parent}\t{}\t{}\t{:.9}\t{:.9}\n",
            s.id, s.layer, s.name, s.start_s, s.dur_s
        ));
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find its own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        jobs: wlc_exec::default_jobs(),
        tracer: Tracer::new(args.trace),
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            args.workload,
            std::process::id()
        )),
    };
    let mut m = match args.workload.as_str() {
        "characterize" => characterize::run(&ctx, characterize::FULL),
        "capacity" => capacity::run(&ctx, capacity::FULL),
        _ => unreachable!("`parse` accepts only the names in WORKLOADS"),
    };
    let rss = m.rss_mb.unwrap_or_else(peak_rss_mb);

    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{}}}",
        args.workload,
        args.seed,
        json_num(args.seconds),
        args.trace,
        host_fingerprint()
    );
    for n in &m.named {
        println!(
            "metric {} = {:.6} {} ({} is better, n={})",
            n.name, n.value, n.unit, n.better, n.samples
        );
    }
    println!("timing setup_s {}", Summary::of(&m.setup_s).describe());
    println!("timing op_ms {}", Summary::of(&m.op_ms).describe());
    println!(
        "timing op_ms deciles {}",
        (1..10)
            .map(|d| format!(
                "{:.4}",
                wlc_perfbench::stats::quantile(&m.op_ms, d as f64 / 10.0)
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        match write_spans(&ctx, &args) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => m.checks.error(format!("writing spans: {e}")),
        }
        let (layers, sources) = layer_metrics(&ctx, &args.workload, &mut m);
        for (name, unit, _) in PER_LAYER {
            let v = layers.get(name).copied().unwrap_or(f64::NAN);
            let source = sources.get(name).map_or("run", String::as_str);
            println!("layer {name} = {v:.6} {unit} [{source}]");
            metrics.push((name, v, unit));
        }
    } else {
        let values = [median(&m.setup_s), median(&m.op_ms), m.work_per_s, rss];
        for ((name, unit, better, bound), v) in END_TO_END.into_iter().zip(values) {
            println!("e2e {name} = {v:.6} {unit} ({better} is better, bound {bound})");
            metrics.push((name, v, unit));
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let _ = std::fs::remove_dir(".bench_work");

    // A missing value, or an end-to-end value that is zero or not
    // finite, means the workload did not measure what it claims.
    for (name, v, _) in &metrics {
        let usable = if args.trace {
            !v.is_nan()
        } else {
            v.is_finite() && *v > 0.0
        };
        m.checks.check(usable, || {
            format!("metric {name} has no usable value ({v})")
        });
    }
    for failure in &m.checks.failures {
        println!("check failed: {failure}");
    }
    let correct = m.checks.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        m.checks.attempted,
        m.checks.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
