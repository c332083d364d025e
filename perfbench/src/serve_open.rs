//! `serve_open` probe: an in-process prediction server holding a model
//! trained at set-up, driven by an open-loop generator. It measures the
//! `serve` layer in traced runs of the gated workloads.
//!
//! Single-row `/predict` requests go out on a precomputed Poisson
//! schedule at a light and a heavy rate, then one client runs a closed
//! loop of 256-row `/predict_batch` requests.
//!
//! The generator runs at most one thread, and so one connection in
//! flight, per core. Each request is timed from its scheduled send
//! time, so a stall shows as queueing of the requests behind it rather
//! than as a pause in the load. The client makes one attempt, so a
//! 503, a 504 or a connect error counts as a failure.

use std::error::Error;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use wlc_math::rng::{Seed, Xoshiro256};
use wlc_math::Matrix;
use wlc_model::fallback::FallbackModel;
use wlc_model::{PerformanceModel, PredictScratch, WorkloadModel, WorkloadModelBuilder};
use wlc_nn::OptimizerKind;
use wlc_serve::{ClientConfig, Json, ServeClient, ServeConfig, ServeError, ServeStats, Server};
use wlc_sim::run_design_replicated_timed;

use crate::characterize::design;
use crate::common::{Ctx, Measured};
use crate::stats::{median, supported_quantile, tail};

type Res<T> = Result<T, Box<dyn Error>>;

/// Rows per `/predict_batch` request.
const BATCH_ROWS: usize = 256;

/// Training epochs of the served model.
const SETUP_EPOCHS: usize = 1500;

/// Distinct request inputs (and expected outputs) per run.
const INPUT_POOL: usize = 1024;

/// Configurations simulated to train the served model.
const TRAIN_SAMPLES: usize = 40;

/// The light and heavy open-loop rates, requests/s.
const RATES: [f64; 2] = [200.0, 1000.0];

/// Seconds of the light, heavy and batch phases.
const PHASE_S: [f64; 3] = [0.3, 0.3, 0.4];

/// Sequential fresh-connection requests that time connect and first
/// byte.
const PROBE_REQUESTS: usize = 1000;

/// A running server and the model it serves.
struct Fleet {
    model: WorkloadModel,
    addr: SocketAddr,
    thread: JoinHandle<Result<ServeStats, ServeError>>,
}

impl Fleet {
    fn start(ctx: &Ctx) -> Res<Fleet> {
        let configs = design(TRAIN_SAMPLES, ctx.seed)?;
        let (dataset, _) = run_design_replicated_timed(
            &configs,
            ctx.seed.wrapping_add(1),
            20.0,
            4.0,
            1,
            ctx.jobs,
        )?;
        // A fixed epoch budget keeps the set-up's work the same for
        // every seed; the served topology is the CLI default.
        let model = WorkloadModelBuilder::new()
            .max_epochs(SETUP_EPOCHS)
            .no_termination_threshold()
            .learning_rate(0.02)
            .optimizer(OptimizerKind::adam())
            .seed(1)
            .train(&dataset)?
            .model;
        let bundle = FallbackModel::new(Some(model.clone()), None, vec![], vec![])?;
        // `wlc serve` defaults except one worker per core, and no
        // per-request log line.
        let config = ServeConfig {
            workers: ctx.jobs,
            log: false,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", bundle, config)?;
        let addr = server.local_addr();
        let thread = thread::spawn(move || server.run());
        let client = ServeClient::new(addr.to_string(), ClientConfig::default());
        client.readyz()?;
        Ok(Fleet {
            model,
            addr,
            thread,
        })
    }

    fn stop(self) -> Res<ServeStats> {
        ServeClient::new(self.addr.to_string(), ClientConfig::default()).shutdown()?;
        Ok(self.thread.join().map_err(|_| "server thread panicked")??)
    }
}

fn one_attempt(addr: SocketAddr) -> ServeClient {
    ServeClient::new(
        addr.to_string(),
        ClientConfig {
            max_attempts: 1,
            ..ClientConfig::default()
        },
    )
}

/// Request inputs drawn from the paper's parameter ranges.
pub fn inputs(seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Xoshiro256::from_seed(Seed::new(seed).derive(0x5e7e));
    (0..INPUT_POOL)
        .map(|_| {
            vec![
                rng.next_range(350.0, 620.0),
                rng.next_range(5.0, 20.0).round(),
                rng.next_range(10.0, 24.0).round(),
                rng.next_range(5.0, 20.0).round(),
            ]
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One request of an open-loop phase.
#[derive(Debug, Clone, Copy)]
struct Sent {
    /// Milliseconds from the scheduled send time to the response.
    latency_ms: f64,
    /// Milliseconds the generator sent it late.
    lag_ms: f64,
    ok: bool,
}

/// An open-loop phase's outcome.
#[derive(Debug, Default)]
struct Phase {
    sent: Vec<Sent>,
    failures: Vec<String>,
    inflight_max: usize,
}

/// p99 when the sample supports it, else the highest supported
/// percentile, else the maximum.
fn p99(xs: &[f64]) -> f64 {
    supported_quantile(xs, 0.99)
        .or_else(|| tail(xs).map(|t| t.1))
        .unwrap_or_else(|| xs.iter().copied().fold(f64::NAN, f64::max))
}

/// Sends single-row `/predict` requests on a Poisson schedule of `rate`
/// for `secs`, from one thread per core.
fn open_loop(
    ctx: &Ctx,
    addr: SocketAddr,
    rate: f64,
    secs: f64,
    seed: u64,
    pool: &[Vec<f64>],
    expected: &[Vec<u64>],
) -> Phase {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut schedule = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.next_exponential(rate).expect("rate is positive");
        if t > secs {
            break;
        }
        schedule.push(t);
    }
    let client = one_attempt(addr);
    let next = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let inflight_max = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(schedule.len()));
    let failures = Mutex::new(Vec::new());
    let t0 = Instant::now();
    thread::scope(|s| {
        for _ in 0..ctx.jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&at) = schedule.get(i) else { break };
                let due = t0 + Duration::from_secs_f64(at);
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let lag_ms = due.elapsed().as_secs_f64() * 1e3;
                let now_in_flight = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                inflight_max.fetch_max(now_in_flight, Ordering::SeqCst);
                let row = i % pool.len();
                let reply = client.predict(&pool[row]);
                let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                in_flight.fetch_sub(1, Ordering::SeqCst);
                let ok = match reply {
                    Ok(p) if !p.degraded && bits(&p.outputs) == expected[row] => true,
                    Ok(p) => {
                        failures.lock().expect("failure list").push(format!(
                            "/predict row {row}: degraded={} outputs {:?} differ from the in-process prediction",
                            p.degraded, p.outputs
                        ));
                        false
                    }
                    Err(e) => {
                        failures.lock().expect("failure list").push(format!("/predict: {e}"));
                        false
                    }
                };
                results.lock().expect("result list").push((
                    i,
                    Sent {
                        latency_ms,
                        lag_ms,
                        ok,
                    },
                ));
            });
        }
    });
    let mut sent = results.into_inner().expect("result list");
    sent.sort_by_key(|(i, _)| *i);
    Phase {
        sent: sent.into_iter().map(|(_, s)| s).collect(),
        failures: failures.into_inner().expect("failure list"),
        inflight_max: inflight_max.into_inner(),
    }
}

/// Closed-loop 256-row `/predict_batch` from one client for `secs`;
/// returns each request's milliseconds.
fn batch_loop(
    addr: SocketAddr,
    secs: f64,
    pool: &[Vec<f64>],
    expected: &[Vec<u64>],
    m: &mut Measured,
) -> Vec<f64> {
    let client = one_attempt(addr);
    let starts: Vec<usize> = (0..pool.len()).step_by(BATCH_ROWS).collect();
    let started = Instant::now();
    let mut request_ms = Vec::new();
    let mut j = 0usize;
    while j < 3 || started.elapsed().as_secs_f64() < secs {
        let at = starts[j % starts.len()];
        let batch: Vec<Vec<f64>> = (0..BATCH_ROWS)
            .map(|r| pool[(at + r) % pool.len()].clone())
            .collect();
        let sent = Instant::now();
        let reply = client.predict_batch(&batch);
        request_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        match reply {
            Ok(b) => {
                let same = !b.degraded
                    && b.outputs.len() == BATCH_ROWS
                    && b.outputs
                        .iter()
                        .enumerate()
                        .all(|(r, out)| bits(out) == expected[(at + r) % pool.len()]);
                m.checks.check(same, || {
                    format!("/predict_batch at row {at} differs from the in-process prediction")
                });
            }
            Err(e) => m.checks.error(format!("/predict_batch: {e}")),
        }
        j += 1;
    }
    request_ms
}

/// Connect time and time to first byte of fresh-connection `/predict`
/// requests, in microseconds.
fn raw_probe(
    addr: SocketAddr,
    n: usize,
    pool: &[Vec<f64>],
    m: &mut Measured,
) -> (Vec<f64>, Vec<f64>) {
    let (mut connect_us, mut ttfb_us) = (Vec::new(), Vec::new());
    for i in 0..n {
        let body = Json::obj([("inputs", Json::nums(&pool[i % pool.len()]))]).to_string();
        let result = (|| -> Res<Vec<u8>> {
            let start = Instant::now();
            let mut stream = TcpStream::connect(addr)?;
            connect_us.push(start.elapsed().as_secs_f64() * 1e6);
            wlc_serve::http::configure(&stream)?;
            wlc_serve::http::write_request(&mut stream, "POST", "/predict", &body)?;
            stream.flush()?;
            let written = Instant::now();
            let mut first = [0u8; 1];
            stream.read_exact(&mut first)?;
            ttfb_us.push(written.elapsed().as_secs_f64() * 1e6);
            let mut rest = first.to_vec();
            stream.read_to_end(&mut rest)?;
            Ok(rest)
        })();
        match result {
            Ok(bytes) => m.checks.check(bytes.starts_with(b"HTTP/1.1 200"), || {
                format!(
                    "raw /predict returned {:?}",
                    String::from_utf8_lossy(&bytes[..bytes.len().min(40)])
                )
            }),
            Err(e) => m.checks.error(format!("raw /predict: {e}")),
        }
    }
    (connect_us, ttfb_us)
}

fn stats_of(addr: SocketAddr) -> Res<[f64; 4]> {
    let s = ServeClient::new(addr.to_string(), ClientConfig::default()).stats()?;
    let get = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    Ok([
        get("handled"),
        get("shed"),
        get("degraded"),
        get("deadline_missed"),
    ])
}

/// Median microseconds of one in-process single-row prediction.
pub fn predict_single_us(model: &WorkloadModel, pool: &[Vec<f64>]) -> f64 {
    let mut us = Vec::with_capacity(pool.len() * 4);
    for x in pool.iter().cycle().take(pool.len() * 4) {
        let start = Instant::now();
        std::hint::black_box(
            model
                .predict(std::hint::black_box(x))
                .expect("in-process predict"),
        );
        us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// Runs the probe: set-up, the light and heavy open-loop phases, the
/// batch loop, then the fresh-connection requests.
pub fn probe(ctx: &Ctx) -> Measured {
    let mut m = Measured::default();
    let fleet = match Fleet::start(ctx) {
        Ok(fleet) => fleet,
        Err(e) => {
            m.checks.error(format!("serve_open set-up: {e}"));
            return m;
        }
    };
    if let Err(e) = measure(ctx, &fleet, &mut m) {
        m.checks.error(format!("serve_open: {e}"));
    }
    if let Err(e) = fleet.stop() {
        m.checks.error(format!("server shutdown: {e}"));
    }
    m
}

fn measure(ctx: &Ctx, fleet: &Fleet, m: &mut Measured) -> Res<()> {
    let pool = inputs(ctx.seed);
    let expected: Vec<Vec<u64>> = pool
        .iter()
        .map(|x| fleet.model.predict(x).map(|y| bits(&y)))
        .collect::<Result<_, _>>()?;
    let seed = Seed::new(ctx.seed);
    let before = stats_of(fleet.addr)?;
    let phases: Vec<Phase> = RATES
        .into_iter()
        .enumerate()
        .map(|(i, rate)| {
            let phase_seed = seed.derive(i as u64).value();
            ctx.tracer.span("serve", "open_loop", || {
                open_loop(
                    ctx, fleet.addr, rate, PHASE_S[i], phase_seed, &pool, &expected,
                )
            })
        })
        .collect();
    let batch_ms = ctx.tracer.span("serve", "batch_loop", || {
        batch_loop(fleet.addr, PHASE_S[2], &pool, &expected, m)
    });
    let after = stats_of(fleet.addr)?;
    for phase in &phases {
        m.checks.attempted += phase.sent.len() as u64;
        m.checks.failed += phase.sent.iter().filter(|s| !s.ok).count() as u64;
        m.checks
            .failures
            .extend(phase.failures.iter().take(5).cloned());
    }

    let (connect_us, ttfb_us) = ctx.tracer.span("serve", "fresh_connections", || {
        raw_probe(fleet.addr, PROBE_REQUESTS, &pool, m)
    });
    let single_us = predict_single_us(&fleet.model, &pool);
    let batch_us = {
        let xs = Matrix::from_fn(BATCH_ROWS, 4, |r, c| pool[r % pool.len()][c]);
        let mut scratch = PredictScratch::new();
        let mut us = Vec::new();
        for _ in 0..200 {
            let start = Instant::now();
            std::hint::black_box(fleet.model.predict_batch_with(&xs, &mut scratch)?);
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        median(&us)
    };
    let heavy: Vec<f64> = phases[1].sent.iter().map(|s| s.latency_ms).collect();
    let lags: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.sent.iter().map(|s| s.lag_ms))
        .collect();
    m.layer("serve.connect_us_p50", median(&connect_us));
    m.layer("serve.connect_us_p99", p99(&connect_us));
    m.layer("serve.ttfb_us_p50", median(&ttfb_us));
    m.layer("serve.ttfb_us_p99", p99(&ttfb_us));
    m.layer("serve.compute_share", single_us / (median(&heavy) * 1e3));
    m.layer(
        "serve.batch_compute_share",
        batch_us / (median(&batch_ms) * 1e3),
    );
    m.layer("serve.gen_lag_ms_p99", p99(&lags));
    m.layer(
        "serve.inflight_max",
        phases.iter().map(|p| p.inflight_max).max().unwrap_or(0) as f64,
    );
    for (i, name) in [
        "serve.handled",
        "serve.shed",
        "serve.degraded",
        "serve.deadline_missed",
    ]
    .into_iter()
    .enumerate()
    {
        m.layer(name, after[i] - before[i]);
    }
    Ok(())
}
