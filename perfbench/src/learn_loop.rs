//! `learn_loop` probe: supervisor rounds under a ramp drift on a
//! real-file state directory: stream, retrain, shadow, promote through
//! a rolling reload of the in-process fleet, with fsync'd durable
//! state. It measures the `learn` and `fault` layers, and
//! `wlc_sim::stream_window`, in traced runs of the gated workloads.
//!
//! An episode starts a fresh state directory (bootstrap plus round 1)
//! and then adds one round at a time, each a separate resuming
//! `Supervisor::run`. Two episodes share a seed, and the second checks
//! that the durable bytes repeat.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use wlc_fault::{FsHandle, Op, SimFs};
use wlc_learn::{LearnConfig, Outcome, Supervisor};
use wlc_sim::{stream_window, DriftProfile, FaultProfile, StreamConfig};

use crate::common::{timed, Ctx, Measured};
use crate::stats::median;

type Res<T> = Result<T, Box<dyn Error>>;

/// The drift every episode runs under.
const DRIFT: &str = "kind=ramp,rate=0.2";

/// Shadow-scoring tolerance against the reference window. The CLI
/// default (0.25) rarely promotes under drift; 2.0, as in the
/// supervisor's own chaos tests, lets the recent holdout decide.
const TOLERANCE: f64 = 2.0;

/// Rounds per episode, the first one the bootstrap's.
const ROUNDS: u64 = 4;

fn config(ctx: &Ctx, seed: u64, dir: &Path, rounds: u64, fs: FsHandle) -> Res<LearnConfig> {
    Ok(LearnConfig {
        state_dir: dir.to_path_buf(),
        seed,
        rounds,
        drift: DRIFT.parse::<DriftProfile>()?,
        tolerance: TOLERANCE,
        jobs: ctx.jobs,
        fs,
        quiet: true,
        ..LearnConfig::default()
    })
}

fn supervise(ctx: &Ctx, seed: u64, dir: &Path, rounds: u64, fs: FsHandle) -> Res<Outcome> {
    Ok(Supervisor::new(config(ctx, seed, dir, rounds, fs)?)?.run()?)
}

/// What an episode leaves behind for the byte check.
struct Episode {
    outcome: Outcome,
    events: Vec<u8>,
    state: Vec<u8>,
    model: Vec<u8>,
}

/// Writes, syncs and renames of one resumed round on a simulated
/// filesystem (an exact count).
fn durable_ops_per_round(ctx: &Ctx) -> Res<f64> {
    let sim = Arc::new(SimFs::new());
    let dir = PathBuf::from("bench-state");
    supervise(ctx, ctx.seed, &dir, 1, Arc::clone(&sim) as FsHandle)?;
    let before = sim.op_log().len();
    supervise(ctx, ctx.seed, &dir, 2, Arc::clone(&sim) as FsHandle)?;
    Ok(sim.op_log()[before..]
        .iter()
        .filter(|r| matches!(r.op, Op::Write { .. } | Op::Sync { .. } | Op::Rename { .. }))
        .count() as f64)
}

/// Runs one episode of [`ROUNDS`] rounds from a fresh state directory.
fn episode(ctx: &Ctx, seed: u64, dir: &Path) -> Res<Episode> {
    let _ = std::fs::remove_dir_all(dir);
    let mut outcome = supervise(ctx, seed, dir, 1, wlc_fault::real_fs())?;
    for round in 2..=ROUNDS {
        outcome = ctx.tracer.span("learn", "round", || {
            supervise(ctx, seed, dir, round, wlc_fault::real_fs())
        })?;
    }
    Ok(Episode {
        outcome,
        events: std::fs::read(dir.join("events.log"))?,
        state: std::fs::read(dir.join("state.txt"))?,
        model: std::fs::read(dir.join("model-g0.model"))?,
    })
}

/// Runs the probe: two same-seed episodes, then the layer timings.
pub fn probe(ctx: &Ctx) -> Measured {
    let mut m = Measured::default();
    let result = (|| -> Res<()> {
        let dirs = [0, 1].map(|e| ctx.work_dir.join(format!("learn-{e}")));
        let first = episode(ctx, ctx.seed, &dirs[0])?;
        let twin = episode(ctx, ctx.seed, &dirs[1])?;
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        m.checks.check(
            first.events == twin.events && first.state == twin.state,
            || "events.log or state.txt differs between two same-seed episodes".to_string(),
        );
        layers(ctx, &first, &mut m)
    })();
    if let Err(err) = result {
        m.checks.error(format!("learn_loop: {err}"));
    }
    m
}

fn layers(ctx: &Ctx, first: &Episode, m: &mut Measured) -> Res<()> {
    let rounds: Vec<f64> = ctx.tracer.durations("learn", "round");
    m.layer("learn.round_s_p50", median(&rounds));
    m.layer(
        "learn.round_s_max",
        rounds.iter().copied().fold(f64::NAN, f64::max),
    );
    m.layer("learn.promotions", first.outcome.promotions as f64);
    m.layer("learn.rollbacks", first.outcome.rollbacks as f64);

    let learn = config(ctx, ctx.seed, &ctx.work_dir, 1, wlc_fault::real_fs())?;
    let stream = StreamConfig {
        base_seed: learn.seed,
        drift: learn.drift,
        faults: FaultProfile::none(),
        duration_secs: learn.duration_secs,
        warmup_secs: learn.warmup_secs,
        max_retries: learn.stream_retries,
        jobs: learn.jobs,
    };
    let mut window_s = Vec::new();
    for i in 0..10u64 {
        let tick = learn.bootstrap_ticks as u64 + i * learn.window as u64;
        let (r, took) = timed(|| stream_window(&stream, tick, learn.window));
        r?;
        window_s.push(took.as_secs_f64());
    }
    m.layer("sim.stream_window_s", median(&window_s));

    m.layer("fault.durable_ops_per_round", durable_ops_per_round(ctx)?);
    let fs = wlc_fault::real_fs();
    let path = ctx.work_dir.join("write-atomic.model");
    let mut write_ms = Vec::new();
    for _ in 0..50 {
        let (r, took) = timed(|| wlc_fault::write_atomic(&*fs, "bench.write", &path, &first.model));
        r?;
        write_ms.push(took.as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_file(&path);
    m.layer("fault.write_atomic_ms_p50", median(&write_ms));
    Ok(())
}
