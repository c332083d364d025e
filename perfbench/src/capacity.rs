//! `capacity`: a fixed grid of long-horizon simulations at one worker
//! per core, from light load to past saturation of the web and default
//! pools, under Poisson and bursty arrivals.
//!
//! One operation is one sweep of the whole grid. Every sweep repeats
//! the same seeds, so each repeat also checks that the simulator is
//! deterministic. Peak memory is read after the first sweep: later
//! sweeps only add whatever the allocator keeps from earlier runs,
//! which varies with how the workers' runs happen to interleave.

use std::time::Instant;

use wlc_math::rng::Seed;
use wlc_sim::{ArrivalProcess, Measurement, ServerConfig, SimError, Simulation, TransactionKind};

use crate::common::{peak_rss_mb, timed, Ctx, Measured};
use crate::stats::median;

/// Effective throughput one web/default thread sustains under the
/// default workload (saturation of 8 threads is about 675 txn/s), used
/// to place each grid point at a target utilization.
const TXN_PER_THREAD: f64 = 84.4;

/// Pool sizes `(default, mfg, web)`.
const POOLS: [(u32, u32, u32); 2] = [(8, 16, 8), (16, 16, 16)];

/// Offered load relative to the web/default pools' capacity.
const RHO: [f64; 4] = [0.3, 0.6, 0.9, 1.2];

/// A run counts as saturated when its busiest pool is this busy.
const SATURATED_UTILIZATION: f64 = 0.97;

/// Simulated horizon of one grid point.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Simulated seconds per run.
    pub duration: f64,
    /// Warmup seconds per run.
    pub warmup: f64,
    /// Sweeps to run even when the time is up.
    pub min_ops: usize,
    /// How far the completion rate over the measurement window may
    /// exceed the injection rate over the whole run. Completions in the
    /// window include the backlog the warmup left, and bursty arrivals
    /// put a varying share of the run's bursts into the warmup, so the
    /// window's rate runs a little above the run's; the shorter the
    /// warmup, the more. A double count would double it.
    pub rate_tolerance: f64,
}

/// The measured size. At 270 s the largest run injects about 437k
/// transactions, well clear of 2^19, so the transaction vector's
/// capacity (and with it peak memory) does not flip between seeds.
pub const FULL: Size = Size {
    duration: 270.0,
    warmup: 30.0,
    min_ops: 3,
    // Highest seen over 200 seeds' 16 points: 3.0% (bursty).
    rate_tolerance: 0.05,
};

/// The size used to probe the simulator from another workload's run.
pub const PROBE: Size = Size {
    duration: 20.0,
    warmup: 4.0,
    min_ops: 1,
    // Highest seen over 200 seeds' 16 points: 10.5% (bursty).
    rate_tolerance: 0.2,
};

/// One grid point.
#[derive(Debug, Clone, Copy)]
struct Point {
    config: ServerConfig,
    arrivals: ArrivalProcess,
    poisson: bool,
}

/// The grid, heaviest load first: the pool hands tasks out in index
/// order, so the two largest runs always overlap at the start. That
/// makes the peak memory the same on every sweep, and the longest runs
/// starting first shortens the sweep.
fn grid() -> Result<Vec<Point>, SimError> {
    let mut points = Vec::new();
    for (default, mfg, web) in POOLS.into_iter().rev() {
        for rho in RHO.into_iter().rev() {
            for poisson in [true, false] {
                let config = ServerConfig::builder()
                    .injection_rate(rho * TXN_PER_THREAD * f64::from(web.min(default)))
                    .default_threads(default)
                    .mfg_threads(mfg)
                    .web_threads(web)
                    .build()?;
                let arrivals = if poisson {
                    ArrivalProcess::Poisson
                } else {
                    ArrivalProcess::bursty()
                };
                points.push(Point {
                    config,
                    arrivals,
                    poisson,
                });
            }
        }
    }
    Ok(points)
}

fn completions(m: &Measurement) -> u64 {
    TransactionKind::ALL.iter().map(|&k| m.completions(k)).sum()
}

/// Describes an output no simulation of `point` at `size` may produce.
fn impossible(point: &Point, size: Size, m: &Measurement) -> Option<String> {
    let window = m.window_secs();
    let injection_rate = m.injected() as f64 / size.duration;
    if m.total_throughput() > injection_rate * (1.0 + size.rate_tolerance) {
        return Some(format!(
            "{} completions in the {window} s window ({:.2}/s) exceed the run's injection rate of {injection_rate:.2}/s",
            completions(m),
            m.total_throughput()
        ));
    }
    if m.throughput() > m.total_throughput() {
        return Some(format!(
            "effective throughput {:.2}/s exceeds total throughput {:.2}/s",
            m.throughput(),
            m.total_throughput()
        ));
    }
    // Poisson arrivals over the window: six standard deviations above
    // the configured rate is out of reach.
    let rate = point.config.injection_rate();
    if point.poisson && m.total_throughput() > rate * (1.0 + 6.0 / (rate * window).sqrt()) {
        return Some(format!(
            "throughput {:.2}/s exceeds the configured rate {rate:.2}/s",
            m.total_throughput()
        ));
    }
    None
}

fn bits(ms: &[Measurement]) -> Vec<u64> {
    ms.iter()
        .flat_map(|m| m.indicators())
        .map(f64::to_bits)
        .collect()
}

/// Set-up: a sweep of the grid at the probe horizon, which faults in
/// code and allocator pages. It runs before every sweep, so the median
/// `setup_s` samples the host over the whole run rather than over its
/// first second.
fn set_up(ctx: &Ctx, points: &[Point], root: Seed, m: &mut Measured) {
    let (swept, took) = timed(|| {
        wlc_exec::try_map_indexed(ctx.jobs, points.len(), |i| {
            Simulation::new(points[i].config)
                .seed(root.derive(i as u64).value())
                .duration_secs(PROBE.duration)
                .warmup_secs(PROBE.warmup)
                .arrivals(points[i].arrivals)
                .run()
        })
    });
    m.setup_s.push(took.as_secs_f64());
    if let Err(e) = swept {
        m.checks.error(format!("set-up: {e}"));
    }
}

/// Runs the workload at `size` for `ctx.seconds`.
pub fn run(ctx: &Ctx, size: Size) -> Measured {
    let mut m = Measured::default();
    let root = Seed::new(ctx.seed);
    let points = match grid() {
        Ok(points) => points,
        Err(e) => {
            m.checks.error(format!("grid: {e}"));
            return m;
        }
    };

    let started = Instant::now();
    let mut reference: Option<Vec<u64>> = None;
    let mut rss = f64::NAN;
    let (mut txns, mut sweep_s, mut saturated) = (0u64, 0.0, Vec::new());
    let (mut traced_txns, mut busy_s, mut eff, mut strag) = (0u64, 0.0, vec![], vec![]);
    let mut k = 0usize;
    while k < size.min_ops || started.elapsed().as_secs_f64() < ctx.seconds {
        set_up(ctx, &points, root, &mut m);
        let traced = ctx.trace_op(k);
        let (runs, elapsed) = timed(|| {
            ctx.tracer.span("bench", "sweep", || {
                wlc_exec::map_indexed_timed(ctx.jobs, points.len(), |i| {
                    let p = points[i];
                    let sim = Simulation::new(p.config)
                        .seed(root.derive(i as u64).value())
                        .duration_secs(size.duration)
                        .warmup_secs(size.warmup)
                        .arrivals(p.arrivals);
                    ctx.tracer.span("sim", "run", || sim.run())
                })
            })
        });
        ctx.tracer.record(false);
        let (results, report) = runs;
        let mut ok = Vec::with_capacity(results.len());
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(meas) => {
                    let bad = impossible(&points[i], size, &meas);
                    m.checks.check(bad.is_none(), || {
                        format!("grid point {i}: {}", bad.unwrap_or_default())
                    });
                    ok.push(meas);
                }
                Err(e) => m.checks.error(format!("grid point {i}: {e}")),
            }
        }
        if ok.len() == points.len() {
            m.op(traced, elapsed);
            let injected: u64 = ok.iter().map(Measurement::injected).sum();
            txns += injected;
            sweep_s += elapsed.as_secs_f64();
            saturated.push(
                ok.iter()
                    .filter(|r| {
                        let u = r.utilization();
                        u.web.max(u.default_queue) >= SATURATED_UTILIZATION
                    })
                    .count() as f64,
            );
            let now = bits(&ok);
            match &reference {
                None => {
                    reference = Some(now);
                    rss = peak_rss_mb();
                }
                Some(first) => m.checks.check(first == &now, || {
                    format!("sweep {k} indicators differ from sweep 0 under the same seeds")
                }),
            }
            if traced {
                let tasks: Vec<f64> = report
                    .tasks
                    .iter()
                    .map(|t| t.elapsed.as_secs_f64())
                    .collect();
                let busy: f64 = tasks.iter().sum();
                busy_s += busy;
                traced_txns += injected;
                eff.push(busy / (report.wall.as_secs_f64() * report.jobs as f64));
                strag.push(tasks.iter().copied().fold(0.0, f64::max) / (busy / tasks.len() as f64));
            }
        }
        k += 1;
    }

    m.rss_mb = Some(rss);
    m.work_per_s = txns as f64 / sweep_s;
    m.named(
        "sim_txn_per_s",
        m.work_per_s,
        "1/s",
        "higher",
        m.op_ms.len() + m.op_ms_traced.len(),
    );
    m.named("sim_peak_rss_mb", rss, "MiB", "lower", 1);

    if ctx.traced() {
        let run_ms: Vec<f64> = ctx
            .tracer
            .durations("sim", "run")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let sweeps = (m.op_ms.len() + m.op_ms_traced.len()).max(1);
        m.layer("sim.runs", points.len() as f64);
        m.layer("sim.txns", (txns / sweeps as u64) as f64);
        m.layer("sim.run_ms_p50", median(&run_ms));
        m.layer(
            "sim.run_ms_max",
            run_ms.iter().copied().fold(f64::NAN, f64::max),
        );
        m.layer("sim.txn_per_busy_s", traced_txns as f64 / busy_s);
        m.layer("sim.saturated_runs", median(&saturated));
        m.layer("exec.collect_efficiency", median(&eff));
        m.layer("exec.collect_straggler", median(&strag));
    }
    m
}
