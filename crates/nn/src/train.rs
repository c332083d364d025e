use std::path::PathBuf;

use wlc_fault::FsHandle;
use wlc_math::rng::{Seed, Xoshiro256};
use wlc_math::Matrix;

use crate::{
    BandEngine, Checkpoint, DenseLayer, Initializer, Mlp, NnError, OptimizerKind, Workspace,
};

/// Learning-rate factor per recovery attempt: attempt `k` trains at
/// `learning_rate · 0.5^k`.
const RETRY_BACKOFF: f64 = 0.5;

/// Gradient L2 norm above which an update counts as diverged.
const DIVERGENCE_GRAD_NORM: f64 = 1e12;

/// Why training stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopReason {
    /// Ran the configured number of epochs.
    MaxEpochs,
    /// Training loss dropped below the termination threshold — the paper's
    /// deliberate loose fit (§3.3) to keep the model flexible.
    ThresholdReached,
    /// Training diverged (non-finite loss, non-finite parameters or an
    /// exploding gradient) and every recovery attempt was exhausted; the
    /// parameters were rolled back to the last finite epoch. Only reported
    /// when [`TrainConfig::halt_on_divergence`] is set — otherwise
    /// divergence is an [`NnError::Diverged`] error.
    Diverged,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::MaxEpochs => write!(f, "max epochs reached"),
            StopReason::ThresholdReached => write!(f, "termination threshold reached"),
            StopReason::Diverged => {
                write!(f, "diverged (non-finite loss or exploding gradient)")
            }
        }
    }
}

/// Configuration for [`Trainer`].
///
/// The trainer runs the paper's one recipe: gradient descent on
/// mean-squared error (§3.1), full batch unless a mini-batch size is set
/// (mini-batches are reshuffled every epoch), at a constant learning
/// rate. The *termination threshold* implements §3.3's guidance that "it
/// is better to loosely fit the training sample to maintain the
/// flexibility of a model — a threshold value is needed to indicate when
/// to stop training".
///
/// # Robustness
///
/// Divergence (NaN/Inf loss, non-finite parameters, or a gradient whose
/// L2 norm exceeds `1e12`) is always detected. What happens next is
/// configurable:
///
/// - [`TrainConfig::recover`] retries with a freshly re-seeded network
///   (default initializer) and the learning rate halved once more per
///   attempt, up to a bounded number of attempts.
/// - [`TrainConfig::halt_on_divergence`] turns an exhausted divergence
///   into an `Ok` report with [`StopReason::Diverged`] and the parameters
///   rolled back to the last finite epoch, instead of an error.
/// - [`TrainConfig::checkpoint_every`] writes periodic [`Checkpoint`]s so
///   a killed run can continue via [`Trainer::resume_from`].
///
/// # Examples
///
/// ```
/// use wlc_nn::{OptimizerKind, TrainConfig};
///
/// let config = TrainConfig::new()
///     .max_epochs(500)
///     .learning_rate(0.05)
///     .optimizer(OptimizerKind::adam())
///     .termination_threshold(1e-3);
/// assert_eq!(config.max_epochs_value(), 500);
/// ```
#[derive(Debug, Clone)]
pub struct TrainConfig {
    max_epochs: usize,
    batch_size: Option<usize>,
    optimizer: OptimizerKind,
    learning_rate: f64,
    termination_threshold: Option<f64>,
    seed: u64,
    max_retries: usize,
    halt_on_divergence: bool,
    checkpoint_every: Option<usize>,
    checkpoint_path: Option<PathBuf>,
    checkpoint_fs: FsHandle,
    jobs: usize,
}

impl TrainConfig {
    /// Creates a configuration with the paper-like defaults: 1000 epochs of
    /// full-batch SGD at rate 0.01 on mean-squared error.
    pub fn new() -> Self {
        TrainConfig {
            max_epochs: 1000,
            batch_size: None,
            optimizer: OptimizerKind::Sgd,
            learning_rate: 0.01,
            termination_threshold: None,
            seed: 0,
            max_retries: 0,
            halt_on_divergence: false,
            checkpoint_every: None,
            checkpoint_path: None,
            checkpoint_fs: wlc_fault::real_fs(),
            jobs: 1,
        }
    }

    /// Sets the maximum number of epochs.
    pub fn max_epochs(mut self, epochs: usize) -> Self {
        self.max_epochs = epochs;
        self
    }

    /// Sets a mini-batch size (`None`/unset = full batch). Mini-batches
    /// are drawn from a fresh shuffle every epoch.
    pub fn batch_size(mut self, size: usize) -> Self {
        self.batch_size = Some(size);
        self
    }

    /// Sets the optimizer.
    pub fn optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Sets the learning rate (default 0.01), constant over epochs.
    pub fn learning_rate(mut self, rate: f64) -> Self {
        self.learning_rate = rate;
        self
    }

    /// Stops training once the epoch's training loss falls below
    /// `threshold` (the paper's loose-fit stop).
    pub fn termination_threshold(mut self, threshold: f64) -> Self {
        self.termination_threshold = Some(threshold);
        self
    }

    /// Seed for mini-batch shuffling (and for re-deriving recovery seeds).
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for the batched passes (a [`crate::BandEngine`]
    /// team; the calling thread counts as one). Training results are
    /// bitwise identical for any value — the band geometry and fold
    /// order are fixed by the row count, never by the worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Allows up to `retries` recovery attempts after divergence. Each
    /// attempt reinitializes the network from a seed re-derived from
    /// [`TrainConfig::rng_seed`] and halves the learning rate once more
    /// (attempt `k` trains at `0.5^k` times the configured rate).
    pub fn recover(mut self, retries: usize) -> Self {
        self.max_retries = retries;
        self
    }

    /// When every attempt diverges, return an `Ok` report with
    /// [`StopReason::Diverged`] (parameters rolled back to the last finite
    /// epoch) instead of [`NnError::Diverged`]. Lets callers such as
    /// cross-validation quarantine a diverged run rather than abort.
    pub fn halt_on_divergence(mut self, halt: bool) -> Self {
        self.halt_on_divergence = halt;
        self
    }

    /// Writes a [`Checkpoint`] to [`TrainConfig::checkpoint_path`] every
    /// `epochs` completed epochs.
    pub fn checkpoint_every(mut self, epochs: usize) -> Self {
        self.checkpoint_every = Some(epochs);
        self
    }

    /// Destination for periodic checkpoints (required when
    /// [`TrainConfig::checkpoint_every`] is set).
    pub fn checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Filesystem checkpoints are written through (defaults to the real
    /// filesystem). Supplying a [`wlc_fault::SimFs`] makes mid-training
    /// checkpoint writes visible to fault injection and crash sweeps.
    pub fn checkpoint_fs(mut self, fs: FsHandle) -> Self {
        self.checkpoint_fs = fs;
        self
    }

    /// The configured epoch budget.
    pub fn max_epochs_value(&self) -> usize {
        self.max_epochs
    }

    /// The configured worker-thread count.
    pub fn jobs_value(&self) -> usize {
        self.jobs
    }

    fn validate(&self) -> Result<(), NnError> {
        if self.max_epochs == 0 {
            return Err(NnError::InvalidHyperParameter {
                name: "max_epochs",
                reason: "must be at least 1",
            });
        }
        if let Some(b) = self.batch_size {
            if b == 0 {
                return Err(NnError::InvalidHyperParameter {
                    name: "batch_size",
                    reason: "must be at least 1",
                });
            }
        }
        if let Some(t) = self.termination_threshold {
            if !(t.is_finite() && t >= 0.0) {
                return Err(NnError::InvalidHyperParameter {
                    name: "termination_threshold",
                    reason: "must be non-negative and finite",
                });
            }
        }
        if let Some(every) = self.checkpoint_every {
            if every == 0 {
                return Err(NnError::InvalidHyperParameter {
                    name: "checkpoint_every",
                    reason: "must be at least 1",
                });
            }
            if self.checkpoint_path.is_none() {
                return Err(NnError::InvalidHyperParameter {
                    name: "checkpoint_every",
                    reason: "requires a checkpoint path",
                });
            }
        }
        self.optimizer.validate()
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TrainReport {
    /// Number of epochs actually run.
    pub epochs_run: usize,
    /// Training loss after the final epoch.
    pub final_train_loss: f64,
    /// Why training stopped.
    pub stop_reason: StopReason,
    /// Per-epoch training loss.
    pub loss_history: Vec<f64>,
    /// Failed recovery attempts before this result (0 = first try).
    pub recovery_attempts: usize,
    /// Epoch the run resumed from when started via
    /// [`Trainer::resume_from`].
    pub resumed_from_epoch: Option<usize>,
}

/// Trains an [`Mlp`] by mini-batch gradient descent.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer from a configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Borrow of the configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains on `(xs, ys)`.
    ///
    /// # Errors
    ///
    /// - [`NnError::EmptyTrainingSet`] if `xs` has no rows.
    /// - [`NnError::ShapeMismatch`] if widths do not match the network.
    /// - [`NnError::InvalidHyperParameter`] for invalid configuration.
    /// - [`NnError::Diverged`] if training diverges and every recovery
    ///   attempt is exhausted (unless
    ///   [`TrainConfig::halt_on_divergence`] is set).
    /// - [`NnError::Io`] if a configured checkpoint cannot be written.
    pub fn fit(&self, mlp: &mut Mlp, xs: &Matrix, ys: &Matrix) -> Result<TrainReport, NnError> {
        self.fit_impl(mlp, xs, ys, None)
    }

    /// Continues an interrupted run from `checkpoint`. With the same
    /// configuration, data and seed, the resumed run finishes
    /// bit-identically to an uninterrupted one: the checkpoint carries the
    /// optimizer state and loss history, and the shuffle RNG is
    /// fast-forwarded by replaying the completed epochs' permutations.
    ///
    /// # Errors
    ///
    /// As for [`Trainer::fit`], plus [`NnError::ShapeMismatch`] when the
    /// checkpointed network differs from `mlp` in any layer's width or
    /// activation (`mlp` is then left untouched).
    pub fn resume_from(
        &self,
        mlp: &mut Mlp,
        xs: &Matrix,
        ys: &Matrix,
        checkpoint: &Checkpoint,
    ) -> Result<TrainReport, NnError> {
        self.fit_impl(mlp, xs, ys, Some(checkpoint))
    }

    fn fit_impl(
        &self,
        mlp: &mut Mlp,
        xs: &Matrix,
        ys: &Matrix,
        resume: Option<&Checkpoint>,
    ) -> Result<TrainReport, NnError> {
        self.config.validate()?;
        if xs.rows() == 0 {
            return Err(NnError::EmptyTrainingSet);
        }
        if ys.rows() != xs.rows() {
            return Err(NnError::ShapeMismatch {
                expected: xs.rows(),
                actual: ys.rows(),
                what: "target row count",
            });
        }
        if let Some(ck) = resume {
            check_same_network(mlp, &ck.mlp)?;
            *mlp = ck.mlp.clone();
        }

        let start_attempt = resume.map_or(0, |c| c.attempt);
        let final_attempt = self.config.max_retries.max(start_attempt);
        let mut resume_state = resume;
        let mut diverged: Option<TrainReport> = None;
        for attempt in start_attempt..=final_attempt {
            if attempt != start_attempt {
                // Fresh restart: re-derived seed, backed-off learning rate.
                let seed = Seed::new(self.config.seed).derive(attempt as u64).value();
                mlp.reinitialize(Initializer::default(), seed);
                resume_state = None;
            }
            let report = self.run_attempt(mlp, xs, ys, resume_state, attempt)?;
            if report.stop_reason == StopReason::Diverged {
                diverged = Some(report);
            } else {
                return Ok(report);
            }
        }
        // Every attempt diverged; `mlp` holds the last attempt's final
        // finite snapshot.
        let report = match diverged {
            Some(r) => r,
            // Unreachable: the loop above always runs at least once.
            None => return Err(NnError::Diverged { epoch: 0 }),
        };
        if self.config.halt_on_divergence {
            Ok(report)
        } else {
            Err(NnError::Diverged {
                epoch: report.epochs_run.saturating_sub(1),
            })
        }
    }

    /// One training attempt. Divergence is reported as an `Ok` result with
    /// [`StopReason::Diverged`] (parameters rolled back to the last finite
    /// epoch) so the caller can decide between retrying and erroring.
    fn run_attempt(
        &self,
        mlp: &mut Mlp,
        xs: &Matrix,
        ys: &Matrix,
        resume: Option<&Checkpoint>,
        attempt: usize,
    ) -> Result<TrainReport, NnError> {
        let n = xs.rows();
        let batch = self.config.batch_size.unwrap_or(n).min(n);
        let mut rng = Xoshiro256::seed_from(self.config.seed);
        let mut optimizer = self.config.optimizer.into_optimizer();
        let lr = self.config.learning_rate * RETRY_BACKOFF.powi(attempt as i32);
        let mut params = mlp.params_flat();

        // All per-epoch scratch is allocated up front; the epoch loop then
        // runs allocation-free (asserted by `tests/alloc.rs`).
        let mut ws = Workspace::for_mlp(mlp);
        let mut engine = BandEngine::new(self.config.jobs);
        let mut bx = Matrix::zeros(0, xs.cols());
        let mut by = Matrix::zeros(0, ys.cols());

        let mut loss_history = Vec::with_capacity(self.config.max_epochs);
        let mut start_epoch = 0usize;
        let mut indices: Vec<usize> = (0..n).collect();

        if let Some(ck) = resume {
            start_epoch = ck.epoch;
            optimizer.restore_state(ck.opt_velocity.clone(), ck.opt_second.clone(), ck.opt_step);
            loss_history.clone_from(&ck.loss_history);
            // Replay the completed epochs' shuffles so the RNG position and
            // the index permutation match the interrupted run exactly.
            if batch < n {
                for _ in 0..start_epoch {
                    rng.shuffle(&mut indices);
                }
            }
        }

        let mut stop_reason = StopReason::MaxEpochs;
        let mut epochs_run = start_epoch;
        let mut last_finite = params.clone();
        let grad_limit = DIVERGENCE_GRAD_NORM * DIVERGENCE_GRAD_NORM;

        for epoch in start_epoch..self.config.max_epochs {
            epochs_run = epoch + 1;
            if batch < n {
                rng.shuffle(&mut indices);
            }

            let mut exploded = false;
            for chunk in indices.chunks(batch) {
                mlp.set_params_flat(&params)?;
                gather_into(xs, ys, chunk, &mut bx, &mut by);
                engine.batch_gradient(mlp, &bx, &by, &mut ws)?;
                let grads = ws.grad();
                let norm_sq = grads.iter().map(|g| g * g).sum::<f64>();
                if !norm_sq.is_finite() || norm_sq > grad_limit {
                    exploded = true;
                    break;
                }
                optimizer.step(&mut params, grads, lr)?;
            }

            let mut train_loss = f64::NAN;
            let mut diverged = exploded || params.iter().any(|p| !p.is_finite());
            if !diverged {
                mlp.set_params_flat(&params)?;
                train_loss = engine.batch_loss(mlp, xs, ys, &mut ws)?;
                diverged = !train_loss.is_finite();
            }
            if diverged {
                // Roll back to the last finite epoch rather than leaving
                // NaNs in the network.
                params = last_finite;
                stop_reason = StopReason::Diverged;
                break;
            }
            last_finite.clone_from(&params);
            loss_history.push(train_loss);

            if let Some(threshold) = self.config.termination_threshold {
                if train_loss <= threshold {
                    stop_reason = StopReason::ThresholdReached;
                    break;
                }
            }

            if let (Some(every), Some(path)) = (
                self.config.checkpoint_every,
                self.config.checkpoint_path.as_deref(),
            ) {
                if (epoch + 1) % every == 0 {
                    let (velocity, second, steps) = optimizer.state();
                    let ck = Checkpoint {
                        epoch: epoch + 1,
                        attempt,
                        opt_step: steps,
                        opt_velocity: velocity.to_vec(),
                        opt_second: second.to_vec(),
                        loss_history: loss_history.clone(),
                        mlp: mlp.clone(),
                    };
                    ck.save_with(&*self.config.checkpoint_fs, path)?;
                }
            }
        }

        mlp.set_params_flat(&params)?;
        let final_train_loss = engine.batch_loss(mlp, xs, ys, &mut ws)?;
        Ok(TrainReport {
            epochs_run,
            final_train_loss,
            stop_reason,
            loss_history,
            recovery_attempts: attempt,
            resumed_from_epoch: resume.map(|c| c.epoch),
        })
    }
}

/// Checks that a checkpointed network has `mlp`'s shape: the same layer
/// count and, layer by layer, the same widths and activation. Equal
/// parameter counts alone are not enough — `[2,3,1]` and `[2,1,3,1]` both
/// hold 13 parameters.
fn check_same_network(mlp: &Mlp, checkpointed: &Mlp) -> Result<(), NnError> {
    let (want, got) = (mlp.layers(), checkpointed.layers());
    if want.len() != got.len() {
        return Err(NnError::ShapeMismatch {
            expected: want.len(),
            actual: got.len(),
            what: "checkpoint layer count",
        });
    }
    let same = |(a, b): &(&DenseLayer, &DenseLayer)| {
        a.inputs() == b.inputs() && a.outputs() == b.outputs() && a.activation() == b.activation()
    };
    let matching = want.iter().zip(got).take_while(same).count();
    if matching < want.len() {
        return Err(NnError::ShapeMismatch {
            expected: want.len(),
            actual: matching,
            what: "checkpoint layers with matching width and activation",
        });
    }
    Ok(())
}

/// Copies the selected sample rows into reusable minibatch matrices —
/// after the first (largest) chunk this never allocates.
fn gather_into(xs: &Matrix, ys: &Matrix, idx: &[usize], bx: &mut Matrix, by: &mut Matrix) {
    bx.resize_rows(idx.len());
    by.resize_rows(idx.len());
    for (out_r, &r) in idx.iter().enumerate() {
        bx.row_mut(out_r).copy_from_slice(xs.row(r));
        by.row_mut(out_r).copy_from_slice(ys.row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, MlpBuilder};

    fn xor_data() -> (Matrix, Matrix) {
        let xs = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let ys = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]).unwrap();
        (xs, ys)
    }

    fn xor_mlp(seed: u64) -> Mlp {
        MlpBuilder::new(2)
            .hidden(8, Activation::tanh())
            .output(1, Activation::identity())
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn trained_weights_are_bitwise_for_any_jobs() {
        // 960 rows = 15 bands, enough to clear BandEngine::new(jobs)'s
        // dispatch threshold (2*jobs bands) for every jobs value below.
        let rows = 960;
        let xs = Matrix::from_fn(rows, 2, |r, c| {
            let t = (r * 2 + c) as f64 / rows as f64;
            t * 4.0 - 2.0
        });
        let ys = Matrix::from_fn(rows, 1, |r, _| {
            let a = xs.get(r, 0);
            let b = xs.get(r, 1);
            a * a + 0.5 * b
        });
        let train = |jobs: usize| {
            let mut mlp = xor_mlp(11);
            let config = TrainConfig::new()
                .max_epochs(8)
                .learning_rate(0.05)
                .jobs(jobs);
            let report = Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
            (mlp.params_flat(), report.loss_history)
        };
        let (ref_params, ref_history) = train(1);
        for jobs in [2, 4, 7] {
            let (params, history) = train(jobs);
            assert_eq!(params, ref_params, "params diverged at jobs={jobs}");
            assert_eq!(history, ref_history, "history diverged at jobs={jobs}");
        }
    }

    #[test]
    fn learns_xor() {
        // XOR is the canonical non-linearly-separable problem — exactly the
        // kind of non-linearity the paper argues linear models cannot fit.
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(3);
        let config = TrainConfig::new()
            .max_epochs(3000)
            .learning_rate(0.3)
            .optimizer(OptimizerKind::momentum());
        let report = Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
        assert!(
            report.final_train_loss < 0.02,
            "loss {}",
            report.final_train_loss
        );
        for r in 0..4 {
            let pred = mlp.forward(xs.row(r)).unwrap()[0];
            assert!((pred - ys.get(r, 0)).abs() < 0.35, "row {r}: {pred}");
        }
    }

    #[test]
    fn loss_history_trends_down() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(4);
        let config = TrainConfig::new().max_epochs(500).learning_rate(0.2);
        let report = Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
        assert_eq!(report.loss_history.len(), 500);
        let first = report.loss_history[0];
        let last = *report.loss_history.last().unwrap();
        assert!(last < first);
        assert_eq!(report.stop_reason, StopReason::MaxEpochs);
        assert_eq!(report.recovery_attempts, 0);
        assert_eq!(report.resumed_from_epoch, None);
    }

    #[test]
    fn termination_threshold_stops_early() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(5);
        let config = TrainConfig::new()
            .max_epochs(10_000)
            .learning_rate(0.3)
            .optimizer(OptimizerKind::momentum())
            .termination_threshold(0.05);
        let report = Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
        assert_eq!(report.stop_reason, StopReason::ThresholdReached);
        assert!(report.epochs_run < 10_000);
        assert!(report.final_train_loss <= 0.05 + 1e-9);
    }

    #[test]
    fn mini_batch_training_works() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(7);
        let config = TrainConfig::new()
            .max_epochs(2000)
            .learning_rate(0.1)
            .batch_size(2)
            .optimizer(OptimizerKind::momentum())
            .rng_seed(1);
        let report = Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
        assert!(report.final_train_loss < 0.1, "{}", report.final_train_loss);
    }

    #[test]
    fn batched_training_is_bitwise_scalar_training() {
        // The Trainer now runs the GEMM-batched workspace path. Replicate
        // its epoch loop with the per-sample reference gradient
        // (`Mlp::batch_gradient_scalar_with`) and per-row evaluation
        // through `Mlp::forward`, and require byte-identical parameters
        // and loss history.
        let (xs, ys) = xor_data();
        let n = xs.rows();
        for (opt, batch, seed, lr, epochs) in [
            (OptimizerKind::Sgd, 2usize, 11u64, 0.1, 40usize),
            (OptimizerKind::Sgd, 3, 5, 0.2, 25), // ragged last chunk
            (OptimizerKind::adam(), 2, 23, 0.05, 40),
        ] {
            let mut trained = xor_mlp(9);
            let config = TrainConfig::new()
                .max_epochs(epochs)
                .learning_rate(lr)
                .batch_size(batch)
                .optimizer(opt)
                .rng_seed(seed);
            let report = Trainer::new(config).fit(&mut trained, &xs, &ys).unwrap();

            let mut manual = xor_mlp(9);
            let mut ws = Workspace::for_mlp(&manual);
            let mut rng = Xoshiro256::seed_from(seed);
            let mut optimizer = opt.into_optimizer();
            let mut params = manual.params_flat();
            let mut indices: Vec<usize> = (0..n).collect();
            let mut losses = Vec::new();
            for _ in 0..epochs {
                rng.shuffle(&mut indices);
                for chunk in indices.chunks(batch) {
                    manual.set_params_flat(&params).unwrap();
                    let mut bx = Matrix::zeros(chunk.len(), xs.cols());
                    let mut by = Matrix::zeros(chunk.len(), ys.cols());
                    for (out_r, &r) in chunk.iter().enumerate() {
                        bx.row_mut(out_r).copy_from_slice(xs.row(r));
                        by.row_mut(out_r).copy_from_slice(ys.row(r));
                    }
                    manual
                        .batch_gradient_scalar_with(&bx, &by, &mut ws)
                        .unwrap();
                    optimizer.step(&mut params, ws.grad(), lr).unwrap();
                }
                manual.set_params_flat(&params).unwrap();
                let total: f64 = (0..n)
                    .map(|r| {
                        let pred = manual.forward(xs.row(r)).unwrap();
                        crate::loss::mse(&pred, ys.row(r))
                    })
                    .sum();
                losses.push(total / n as f64);
            }

            let trained_bits: Vec<u64> =
                trained.params_flat().iter().map(|p| p.to_bits()).collect();
            let manual_bits: Vec<u64> = params.iter().map(|p| p.to_bits()).collect();
            assert_eq!(trained_bits, manual_bits, "params differ ({opt:?})");
            let hist_bits: Vec<u64> = report.loss_history.iter().map(|l| l.to_bits()).collect();
            let manual_hist: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
            assert_eq!(hist_bits, manual_hist, "loss history differs ({opt:?})");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = xor_data();
        let config = TrainConfig::new()
            .max_epochs(50)
            .learning_rate(0.1)
            .batch_size(2)
            .rng_seed(42);
        let mut a = xor_mlp(8);
        let mut b = xor_mlp(8);
        let ra = Trainer::new(config.clone()).fit(&mut a, &xs, &ys).unwrap();
        let rb = Trainer::new(config).fit(&mut b, &xs, &ys).unwrap();
        assert_eq!(ra.loss_history, rb.loss_history);
        assert_eq!(a.params_flat(), b.params_flat());
    }

    #[test]
    fn divergence_detected() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(9);
        // Huge learning rate on scaled-up targets blows up quickly.
        let big_y = ys.scale(1e6);
        let config = TrainConfig::new().max_epochs(200).learning_rate(1e6);
        let result = Trainer::new(config).fit(&mut mlp, &xs, &big_y);
        assert!(matches!(result, Err(NnError::Diverged { .. })));
        // The network is rolled back to the last finite snapshot, not left
        // full of NaNs.
        assert!(mlp.is_finite());
    }

    #[test]
    fn recovery_retries_after_divergence() {
        let (xs, ys) = xor_data();
        let big_y = ys.scale(1e6);
        let mut mlp = xor_mlp(9);
        // Rate 1e6 diverges; each retry halves it, so enough retries
        // reach a rate that survives (here attempt 23, at 1e6 · 0.5^23 ≈
        // 0.12).
        let config = TrainConfig::new()
            .max_epochs(50)
            .learning_rate(1e6)
            .recover(40);
        let report = Trainer::new(config).fit(&mut mlp, &xs, &big_y).unwrap();
        assert!(report.recovery_attempts >= 1, "{report:?}");
        assert_ne!(report.stop_reason, StopReason::Diverged);
        assert!(mlp.is_finite());
    }

    #[test]
    fn halt_on_divergence_reports_instead_of_error() {
        let (xs, ys) = xor_data();
        let big_y = ys.scale(1e6);
        let mut mlp = xor_mlp(9);
        let config = TrainConfig::new()
            .max_epochs(200)
            .learning_rate(1e6)
            .halt_on_divergence(true);
        let report = Trainer::new(config).fit(&mut mlp, &xs, &big_y).unwrap();
        assert_eq!(report.stop_reason, StopReason::Diverged);
        assert!(mlp.is_finite(), "diverged params must be rolled back");
        assert!(report.final_train_loss.is_finite());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let (xs, ys) = xor_data();
        let dir = wlc_math::testdir::TestDir::new("nn-checkpoint_resume_is_bit_identical");
        let path = dir.join("train.ckpt");

        let base = TrainConfig::new()
            .max_epochs(60)
            .learning_rate(0.1)
            .batch_size(2)
            .optimizer(OptimizerKind::adam())
            .rng_seed(17);

        // Uninterrupted run.
        let mut full = xor_mlp(13);
        let full_report = Trainer::new(base.clone()).fit(&mut full, &xs, &ys).unwrap();

        // "Killed" run: stops at epoch 40, leaving a checkpoint behind.
        let mut partial = xor_mlp(13);
        Trainer::new(
            base.clone()
                .max_epochs(40)
                .checkpoint_every(20)
                .checkpoint_path(&path),
        )
        .fit(&mut partial, &xs, &ys)
        .unwrap();

        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.epochs_completed(), 40);
        let mut resumed = xor_mlp(13);
        let resumed_report = Trainer::new(base)
            .resume_from(&mut resumed, &xs, &ys, &ck)
            .unwrap();

        assert_eq!(resumed_report.resumed_from_epoch, Some(40));
        assert_eq!(resumed.params_flat(), full.params_flat());
        assert_eq!(resumed_report.loss_history, full_report.loss_history);
    }

    #[test]
    fn resume_rejects_mismatched_network() {
        let (xs, ys) = xor_data();
        let dir = wlc_math::testdir::TestDir::new("nn-resume_rejects_mismatched_network");
        let path = dir.join("train.ckpt");
        let net = |hidden: &[usize], activation: Activation| {
            let mut builder = MlpBuilder::new(2);
            for &width in hidden {
                builder = builder.hidden(width, activation);
            }
            builder
                .output(1, Activation::identity())
                .seed(1)
                .build()
                .unwrap()
        };
        let cases = [
            // Different parameter count.
            (net(&[8], Activation::tanh()), net(&[3], Activation::tanh())),
            // [2,3,1] and [2,1,3,1] both hold 13 parameters.
            (
                net(&[3], Activation::tanh()),
                net(&[1, 3], Activation::tanh()),
            ),
            // Same widths, different hidden activation.
            (
                net(&[8], Activation::tanh()),
                net(&[8], Activation::logistic()),
            ),
        ];
        for (mut checkpointed, other) in cases {
            Trainer::new(
                TrainConfig::new()
                    .max_epochs(4)
                    .learning_rate(0.1)
                    .checkpoint_every(2)
                    .checkpoint_path(&path),
            )
            .fit(&mut checkpointed, &xs, &ys)
            .unwrap();
            let ck = Checkpoint::load(&path).unwrap();
            let mut resumed = other.clone();
            let result = Trainer::new(TrainConfig::new()).resume_from(&mut resumed, &xs, &ys, &ck);
            assert!(
                matches!(result, Err(NnError::ShapeMismatch { .. })),
                "{:?} resumed into {:?}: {:?}",
                checkpointed.topology(),
                other.topology(),
                result.map(|report| report.stop_reason)
            );
            // The caller's network is left as it was.
            assert_eq!(resumed, other);
        }
    }

    #[test]
    fn rejects_bad_config() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(10);
        assert!(Trainer::new(TrainConfig::new().max_epochs(0))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
        assert!(Trainer::new(TrainConfig::new().batch_size(0))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
        assert!(Trainer::new(TrainConfig::new().termination_threshold(-1.0))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
    }

    #[test]
    fn robustness_config_validates() {
        let (xs, ys) = xor_data();
        let mut mlp = xor_mlp(10);
        assert!(Trainer::new(TrainConfig::new().checkpoint_every(0))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
        // checkpoint_every without a destination path is rejected.
        assert!(Trainer::new(TrainConfig::new().checkpoint_every(5))
            .fit(&mut mlp, &xs, &ys)
            .is_err());
    }

    #[test]
    fn rejects_empty_and_mismatched_data() {
        let mut mlp = xor_mlp(11);
        let empty = Matrix::zeros(0, 2);
        let empty_y = Matrix::zeros(0, 1);
        assert!(matches!(
            Trainer::new(TrainConfig::new()).fit(&mut mlp, &empty, &empty_y),
            Err(NnError::EmptyTrainingSet)
        ));
        let xs = Matrix::zeros(4, 2);
        let ys = Matrix::zeros(3, 1);
        assert!(Trainer::new(TrainConfig::new())
            .fit(&mut mlp, &xs, &ys)
            .is_err());
    }

    #[test]
    fn batch_loss_perfect_model_is_zero() {
        let (xs, _) = xor_data();
        let mlp = xor_mlp(12);
        let mut ws = Workspace::for_mlp(&mlp);
        let preds = mlp.forward_batch_with(&xs, &mut ws).unwrap().clone();
        let loss = mlp.batch_loss_with(&xs, &preds, &mut ws).unwrap();
        assert!(loss.abs() < 1e-12);
    }

    #[test]
    fn stop_reason_display() {
        assert!(StopReason::MaxEpochs.to_string().contains("epochs"));
        assert!(StopReason::ThresholdReached
            .to_string()
            .contains("threshold"));
        assert!(StopReason::Diverged.to_string().contains("diverged"));
    }
}
