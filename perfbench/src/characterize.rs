//! `characterize`: the paper's offline pipeline as `wlc collect → train
//! → cv → surface` runs it with CLI defaults, timed from the design to
//! the CV report and surfaces.
//!
//! Operation `k` characterizes a fresh Latin-hypercube design drawn
//! from seed `derive(seed, k)`, so a run's median covers several
//! designs rather than one lucky or unlucky draw.

use std::error::Error;
use std::path::Path;
use std::time::Instant;

use wlc_data::design::{latin_hypercube, round_to_integers, ParamRange};
use wlc_data::{Dataset, ValidateMode};
use wlc_exec::RunReport;
use wlc_math::gemm::matmul_into;
use wlc_math::rng::Seed;
use wlc_math::Matrix;
use wlc_model::{
    CrossValidator, ResponseSurface, SurfaceGrid, WorkloadModel, WorkloadModelBuilder,
};
use wlc_nn::{Activation, BandEngine, MlpBuilder, OptimizerKind, Workspace};
use wlc_sim::{run_design_replicated_timed, ServerConfig};

use crate::common::{timed, Ctx, Measured};
use crate::serve_open::{inputs, predict_single_us};
use crate::stats::median;

type Res<T> = Result<T, Box<dyn Error>>;

/// Table 2 of the paper reports about 95% overall CV accuracy.
pub const MIN_CV_ACCURACY_PCT: f64 = 95.0;

/// Base configuration of the swept surfaces (`wlc surface --base`).
const SURFACE_BASE: [f64; 4] = [560.0, 10.0, 16.0, 10.0];

/// Seed of the set-up's warm-up design.
const WARM_UP_SEED: u64 = 0;

/// Grid points per surface axis (`wlc surface --steps`).
const STEPS: usize = 41;

/// Problem size of one pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Configurations in the design.
    pub samples: usize,
    /// Simulated seconds per run (`wlc collect --duration`).
    pub duration: f64,
    /// Warmup seconds per run (`wlc collect --warmup`).
    pub warmup: f64,
    /// Epoch budget for training and for every CV fold.
    pub max_epochs: usize,
    /// Pipelines to run even when the time is up.
    pub min_ops: usize,
    /// Whether every design must meet the paper's CV accuracy; a probe
    /// is too small to.
    pub check_accuracy: bool,
}

/// The measured size: 200 configurations and the CLI defaults,
/// including the 6000-epoch budget, so training stops at the 1e-3
/// threshold (2.9k–5.8k epochs, depending on the design) and a change
/// that converges in fewer epochs shows.
pub const FULL: Size = Size {
    samples: 200,
    duration: 20.0,
    warmup: 4.0,
    max_epochs: 6000,
    min_ops: 3,
    check_accuracy: true,
};

/// The size used to probe these layers from another workload's run.
pub const PROBE: Size = Size {
    samples: 40,
    duration: 8.0,
    warmup: 2.0,
    max_epochs: 400,
    min_ops: 1,
    check_accuracy: false,
};

/// The design `wlc collect` draws: a Latin hypercube over the default
/// parameter ranges, thread counts rounded to integers.
pub fn design(samples: usize, seed: u64) -> Res<Vec<ServerConfig>> {
    let ranges = [
        ParamRange::new(350.0, 620.0)?,
        ParamRange::new(5.0, 20.0)?,
        ParamRange::new(10.0, 24.0)?,
        ParamRange::new(5.0, 20.0)?,
    ];
    let mut points = latin_hypercube(&ranges, samples, Seed::new(seed))?;
    for p in &mut points {
        let rate = p[0];
        round_to_integers(std::slice::from_mut(p));
        p[0] = rate;
    }
    Ok(points
        .iter()
        .map(|p| ServerConfig::from_vector(p))
        .collect::<Result<_, _>>()?)
}

/// `wlc train`/`wlc cv` defaults: [4,16,12,5], Adam, lr 0.02,
/// threshold 1e-3.
fn builder(size: Size) -> WorkloadModelBuilder {
    WorkloadModelBuilder::new()
        .max_epochs(size.max_epochs)
        .learning_rate(0.02)
        .optimizer(OptimizerKind::adam())
        .termination_threshold(1e-3)
}

/// All five indicator surfaces over (default, web) threads, as
/// `wlc surface --indicator i --steps 41` evaluates each.
fn surfaces(model: &WorkloadModel, jobs: usize) -> Res<Vec<SurfaceGrid>> {
    let axis: Vec<f64> = (0..STEPS)
        .map(|i| 4.0 + 16.0 * i as f64 / (STEPS - 1) as f64)
        .collect();
    let mut engine = BandEngine::new(jobs);
    (0..model.output_names().len())
        .map(|output| {
            let surface = ResponseSurface::new(
                SURFACE_BASE.to_vec(),
                1,
                axis.clone(),
                3,
                axis.clone(),
                output,
            )?;
            Ok(surface.evaluate_banded(model, &mut engine)?)
        })
        .collect()
}

/// What one pipeline produced.
struct Pipeline {
    configs: Vec<ServerConfig>,
    design_seed: u64,
    model: WorkloadModel,
    grids: Vec<SurfaceGrid>,
    accuracy_pct: f64,
    epochs: usize,
    collect: RunReport,
    cv: RunReport,
}

fn pipeline(ctx: &Ctx, size: Size, design_seed: u64, csv: &Path) -> Res<Pipeline> {
    let tr = &ctx.tracer;
    let configs = tr.span("data", "design", || design(size.samples, design_seed))?;
    let (dataset, collect) = tr.span("sim", "collect", || {
        run_design_replicated_timed(
            &configs,
            design_seed.wrapping_add(1),
            size.duration,
            size.warmup,
            1,
            ctx.jobs,
        )
    })?;
    let (dataset, _) = tr.span("data", "csv_roundtrip", || -> Res<_> {
        dataset.save_csv(csv)?;
        Ok(Dataset::load_csv_validated(csv, ValidateMode::Strict)?)
    })?;
    let trained = tr.span("core", "train", || {
        builder(size).seed(1).jobs(1).train(&dataset)
    })?;
    let (report, cv) = tr.span("core", "cv", || {
        CrossValidator::new(builder(size))
            .k(5)
            .seed(7)
            .jobs(ctx.jobs)
            .run_timed(&dataset)
    })?;
    let grids = tr.span("core", "surface", || surfaces(&trained.model, ctx.jobs))?;
    Ok(Pipeline {
        configs,
        design_seed,
        model: trained.model,
        grids,
        accuracy_pct: report.overall_accuracy() * 100.0,
        epochs: trained.report.epochs_run,
        collect,
        cv,
    })
}

fn grid_bits(grids: &[SurfaceGrid]) -> Vec<u64> {
    grids
        .iter()
        .flat_map(|g| g.z().as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

/// Busy time over wall time times workers, and slowest over mean task.
fn efficiency(report: &RunReport) -> (f64, f64) {
    let busy = report.busy().as_secs_f64();
    let wall = report.wall.as_secs_f64() * report.jobs as f64;
    let mean = busy / report.tasks.len().max(1) as f64;
    let slowest = report.slowest().map_or(0.0, |t| t.elapsed.as_secs_f64());
    (busy / wall, slowest / mean)
}

/// Set-up: the scratch directory and a warm-up pass (a probe-size
/// collect and a training run of a fixed epoch count) that faults in
/// code and allocator pages. It runs before every operation, so the
/// median `setup_s` samples the host over the whole run rather than
/// over its first second, and on the same warm-up design for every
/// seed, so it does not vary with the seed's draw.
fn set_up(ctx: &Ctx, m: &mut Measured) {
    let (warm, took) = timed(|| -> Res<()> {
        std::fs::create_dir_all(&ctx.work_dir)?;
        let configs = design(PROBE.samples, WARM_UP_SEED)?;
        let (dataset, _) = run_design_replicated_timed(
            &configs,
            WARM_UP_SEED,
            PROBE.duration,
            PROBE.warmup,
            1,
            ctx.jobs,
        )?;
        builder(PROBE)
            .no_termination_threshold()
            .seed(1)
            .train(&dataset)?;
        Ok(())
    });
    m.setup_s.push(took.as_secs_f64());
    if let Err(e) = warm {
        m.checks.error(format!("set-up: {e}"));
    }
}

/// Runs the workload at `size` for `ctx.seconds`.
pub fn run(ctx: &Ctx, size: Size) -> Measured {
    let mut m = Measured::default();
    let root = Seed::new(ctx.seed);
    let started = Instant::now();
    let mut first: Option<Pipeline> = None;
    let mut accuracies = Vec::new();
    let (mut run_ms, mut collect_eff, mut collect_strag) = (vec![], vec![], vec![]);
    let (mut cv_eff, mut fold_s, mut fold_max, mut epochs) = (vec![], vec![], vec![], vec![]);
    let mut configs_done = 0usize;
    let mut k = 0usize;
    while k < size.min_ops || started.elapsed().as_secs_f64() < ctx.seconds {
        set_up(ctx, &mut m);
        let traced = ctx.trace_op(k);
        // The first design's CSV is kept for the --jobs check.
        let csv = ctx.work_dir.join(format!("design-{}.csv", k.min(1)));
        // A traced run gives each design to a traced and an untraced
        // pipeline, so their difference is the tracing overhead alone.
        let design_index = if ctx.traced() { k / 2 } else { k };
        let design_seed = root.derive(design_index as u64).value();
        let (result, elapsed) = timed(|| pipeline(ctx, size, design_seed, &csv));
        ctx.tracer.record(false);
        match result {
            Ok(p) => {
                m.op(traced, elapsed);
                configs_done += p.configs.len();
                let accurate = !size.check_accuracy || p.accuracy_pct >= MIN_CV_ACCURACY_PCT;
                m.checks.check(accurate, || {
                    format!(
                        "design {k}: CV accuracy {:.2}% below the paper's {MIN_CV_ACCURACY_PCT}%",
                        p.accuracy_pct
                    )
                });
                accuracies.push(p.accuracy_pct);
                if traced {
                    let (eff, strag) = efficiency(&p.collect);
                    collect_eff.push(eff);
                    collect_strag.push(strag);
                    run_ms.extend(
                        p.collect
                            .tasks
                            .iter()
                            .map(|t| t.elapsed.as_secs_f64() * 1e3),
                    );
                    let (eff, _) = efficiency(&p.cv);
                    cv_eff.push(eff);
                    let folds: Vec<f64> =
                        p.cv.tasks.iter().map(|t| t.elapsed.as_secs_f64()).collect();
                    fold_s.extend(folds.iter().copied());
                    fold_max.push(folds.iter().copied().fold(0.0, f64::max));
                    epochs.push(p.epochs as f64);
                }
                if first.is_none() {
                    first = Some(p);
                }
            }
            Err(e) => m.checks.error(format!("design {k}: {e}")),
        }
        k += 1;
    }
    if let Some(p) = &first {
        check_jobs_invariance(ctx, size, p, &mut m);
    }

    let all_ms: Vec<f64> = m.op_ms.iter().chain(&m.op_ms_traced).copied().collect();
    let total_s: f64 = all_ms.iter().sum::<f64>() / 1e3;
    m.work_per_s = configs_done as f64 / total_s;
    let n = all_ms.len();
    m.named("characterize_s", median(&all_ms) / 1e3, "s", "lower", n);
    m.named(
        "cv_accuracy_pct",
        median(&accuracies),
        "%",
        "higher",
        accuracies.len(),
    );

    if ctx.traced() {
        let tr = &ctx.tracer;
        let train_s = tr.durations("core", "train");
        let epochs_per_s: Vec<f64> = epochs.iter().zip(&train_s).map(|(e, s)| e / s).collect();
        let points = (STEPS * STEPS * 5) as f64;
        m.layer("data.design_s", median(&tr.durations("data", "design")));
        m.layer(
            "data.csv_roundtrip_s",
            median(&tr.durations("data", "csv_roundtrip")),
        );
        m.layer("sim.runs", size.samples as f64);
        m.layer("sim.run_ms_p50", median(&run_ms));
        m.layer(
            "sim.run_ms_max",
            run_ms.iter().copied().fold(f64::NAN, f64::max),
        );
        m.layer("exec.collect_efficiency", median(&collect_eff));
        m.layer("exec.collect_straggler", median(&collect_strag));
        m.layer("exec.cv_efficiency", median(&cv_eff));
        m.layer("exec.cv_fold_s_p50", median(&fold_s));
        m.layer("exec.cv_fold_s_max", median(&fold_max));
        m.layer("nn.train_epochs", median(&epochs));
        m.layer("nn.epochs_per_s", median(&epochs_per_s));
        m.layer("core.train_s", median(&train_s));
        m.layer("core.cv_s", median(&tr.durations("core", "cv")));
        m.layer(
            "core.surface_points_per_s",
            points / median(&tr.durations("core", "surface")),
        );
        if let Some(p) = &first {
            if let Err(e) = kernels(ctx, size, &p.model, &mut m) {
                m.checks.error(format!("kernel timings: {e}"));
            }
        }
    }
    m
}

/// Median seconds per call of `f`, over batches of calls that each
/// take at least a millisecond.
fn per_call_s(mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut calls = 1usize;
    loop {
        let (r, took) = timed(|| (0..calls).try_for_each(|_| f()));
        r?;
        if took.as_secs_f64() >= 1e-3 {
            break;
        }
        calls *= 2;
    }
    let mut per = Vec::with_capacity(25);
    for _ in 0..25 {
        let (r, took) = timed(|| (0..calls).try_for_each(|_| f()));
        r?;
        per.push(took.as_secs_f64() / calls as f64);
    }
    Ok(median(&per))
}

/// GEMM rate at the three layer shapes of a full-batch training pass
/// over `size.samples` rows (operation counts are `2·m·k·n` from the
/// shapes, not counted), the banded forward pass at 256 rows, and one
/// in-process single-row prediction.
fn kernels(ctx: &Ctx, size: Size, model: &WorkloadModel, m: &mut Measured) -> Res<()> {
    let rows = size.samples;
    for (name, (k, n)) in [
        "math.gemm_gflops.l1",
        "math.gemm_gflops.l2",
        "math.gemm_gflops.l3",
    ]
    .into_iter()
    .zip([(4, 16), (16, 12), (12, 5)])
    {
        let a = Matrix::from_fn(rows, k, |r, c| ((r * 7 + c * 3) % 11) as f64 / 11.0);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c) % 7) as f64 / 7.0 - 0.5);
        let mut out = Matrix::zeros(rows, n);
        let s = per_call_s(|| {
            matmul_into(std::hint::black_box(&a), &b, &mut out)?;
            Ok(())
        })?;
        m.layer(name, (2 * rows * k * n) as f64 / s / 1e9);
    }
    let mlp = MlpBuilder::new(4)
        .hidden(16, Activation::logistic())
        .hidden(12, Activation::logistic())
        .output(5, Activation::identity())
        .seed(ctx.seed)
        .build()?;
    let xs = Matrix::from_fn(256, 4, |r, c| ((r * 13 + c * 5) % 17) as f64 / 17.0 - 0.5);
    let mut ws = Workspace::for_mlp(&mlp);
    let mut engine = BandEngine::new(ctx.jobs);
    let s = per_call_s(|| {
        std::hint::black_box(engine.forward_batch(&mlp, &xs, &mut ws)?);
        Ok(())
    })?;
    m.layer("nn.forward_rows_per_s", 256.0 / s);
    m.layer(
        "core.predict_single_us",
        predict_single_us(model, &inputs(ctx.seed)),
    );
    Ok(())
}

/// The design CSV and every surface must not depend on the worker
/// count: redo the first pipeline's collect and surfaces at one worker
/// and compare bytes and bits.
fn check_jobs_invariance(ctx: &Ctx, size: Size, p: &Pipeline, m: &mut Measured) {
    let csv = ctx.work_dir.join("design-0.csv");
    let serial = run_design_replicated_timed(
        &p.configs,
        p.design_seed.wrapping_add(1),
        size.duration,
        size.warmup,
        1,
        1,
    );
    match (serial, std::fs::read(&csv)) {
        (Ok((ds, _)), Ok(bytes)) => {
            m.checks
                .check(ds.to_csv_string().into_bytes() == bytes, || {
                    format!(
                        "design CSV differs between --jobs 1 and --jobs {}",
                        ctx.jobs
                    )
                })
        }
        (Err(e), _) => m.checks.error(format!("serial collect: {e}")),
        (_, Err(e)) => m.checks.error(format!("reading {}: {e}", csv.display())),
    }
    match surfaces(&p.model, 1) {
        Ok(grids) => m
            .checks
            .check(grid_bits(&grids) == grid_bits(&p.grids), || {
                format!(
                    "surface grid differs between --jobs 1 and --jobs {}",
                    ctx.jobs
                )
            }),
        Err(e) => m.checks.error(format!("serial surfaces: {e}")),
    }
}
