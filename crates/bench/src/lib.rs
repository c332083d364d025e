//! Shared experiment helpers for the per-figure/table reproduction
//! binaries.
//!
//! Every experiment follows the paper's pipeline:
//!
//! 1. design a set of workload configurations ([`paper_design`]),
//! 2. run each through the 3-tier simulator ([`collect_dataset`]),
//! 3. train/validate the MLP workload model ([`paper_model_builder`]),
//! 4. analyze predictions (surfaces, cross validation, tuning).
//!
//! The binaries in `src/bin/` each regenerate one artifact of the paper
//! (see DESIGN.md for the index); EXPERIMENTS.md records their output.

#![forbid(unsafe_code)]

use wlc_data::design::{latin_hypercube, round_to_integers, ParamRange};
use wlc_data::Dataset;
use wlc_math::rng::Seed;
use wlc_model::{ModelError, WorkloadModelBuilder};
use wlc_sim::{run_design, ServerConfig, SimError};

/// The experiment's configuration-space bounds, mirroring the paper's
/// setup: injection rates around the 560 req/s operating point and thread
/// counts 4..20 per queue (the paper sweeps 0..20; below 4 threads the
/// simulated system is hopelessly saturated at these rates, which only
/// wastes simulation time without adding model-relevant variation).
pub const INJECTION_RANGE: (f64, f64) = (350.0, 620.0);
/// Default-queue thread bounds.
pub const DEFAULT_RANGE: (f64, f64) = (5.0, 20.0);
/// Mfg-queue thread bounds.
pub const MFG_RANGE: (f64, f64) = (10.0, 24.0);
/// Web-queue thread bounds.
pub const WEB_RANGE: (f64, f64) = (5.0, 20.0);

/// Simulated seconds per measurement run used by the experiments.
pub const SIM_DURATION_SECS: f64 = 20.0;
/// Warmup seconds discarded before measuring.
pub const SIM_WARMUP_SECS: f64 = 4.0;

/// The fixed operating point of the paper's Figures 4/7/8:
/// `(560, x, 16, y)` — injection 560 req/s, mfg queue 16 threads, with
/// the default and web queues swept.
pub const FIGURE_BASE: [f64; 4] = [560.0, 10.0, 16.0, 10.0];

/// Generates the paper-style experiment design: `n` configurations drawn
/// by Latin-hypercube sampling over the ranges above, thread counts
/// rounded to integers.
///
/// # Errors
///
/// Returns [`ModelError::Data`] for `n == 0`.
pub fn paper_design(n: usize, seed: u64) -> Result<Vec<ServerConfig>, ModelError> {
    let ranges = [
        ParamRange::new(INJECTION_RANGE.0, INJECTION_RANGE.1)?,
        ParamRange::new(DEFAULT_RANGE.0, DEFAULT_RANGE.1)?,
        ParamRange::new(MFG_RANGE.0, MFG_RANGE.1)?,
        ParamRange::new(WEB_RANGE.0, WEB_RANGE.1)?,
    ];
    let mut points = latin_hypercube(&ranges, n, Seed::new(seed))?;
    // Thread counts are integers; keep the injection rate continuous.
    for p in &mut points {
        let rate = p[0];
        round_to_integers(std::slice::from_mut(p));
        p[0] = rate;
    }
    points
        .iter()
        .map(|p| ServerConfig::from_vector(p).map_err(ModelError::from))
        .collect()
}

/// Runs the design through the simulator and assembles the training
/// dataset (paper §2.2's sample collection).
///
/// # Errors
///
/// Propagates simulator failures.
pub fn collect_dataset(configs: &[ServerConfig], seed: u64) -> Result<Dataset, SimError> {
    run_design(configs, seed, SIM_DURATION_SECS, SIM_WARMUP_SECS)
}

/// One-call "design + simulate" used by most binaries.
///
/// # Errors
///
/// Propagates design and simulation failures.
pub fn paper_dataset(n: usize, seed: u64) -> Result<Dataset, ModelError> {
    let configs = paper_design(n, seed)?;
    Ok(collect_dataset(&configs, seed.wrapping_add(1))?)
}

/// The hand-tuned model configuration used across the experiments — the
/// paper's protocol tunes hyper-parameters once on the first trial and
/// reuses them (§4).
pub fn paper_model_builder() -> WorkloadModelBuilder {
    WorkloadModelBuilder::new()
        .no_hidden_layers()
        .hidden_layer(16)
        .hidden_layer(12)
        .max_epochs(6000)
        .learning_rate(0.02)
        .optimizer(wlc_nn::OptimizerKind::adam())
        .termination_threshold(1e-3)
        .seed(1)
}

/// Thread-count levels swept by the figure experiments (both the
/// `default` and `web` axes): 4..20 in steps of 2, matching the paper's
/// 0..20 figure axes (below 4 threads the simulated system completes
/// nothing at 560 req/s, so the surface carries no extra information).
pub fn figure_axis() -> Vec<f64> {
    (2..=10).map(|i| (i * 2) as f64).collect()
}

/// The grid design behind the Figures 4/7/8 model: the full
/// `(default, web)` grid of [`figure_axis`] at mfg = 16 threads, at three
/// injection-rate levels bracketing the paper's 560 req/s operating
/// point.
///
/// # Errors
///
/// Returns [`ModelError::Sim`] if a configuration is rejected.
pub fn figure_design() -> Result<Vec<ServerConfig>, ModelError> {
    let mut configs = Vec::new();
    for &rate in &[520.0, 560.0, 600.0] {
        for &d in &figure_axis() {
            for &w in &figure_axis() {
                configs.push(ServerConfig::from_vector(&[rate, d, 16.0, w])?);
            }
        }
    }
    Ok(configs)
}

/// Collects the figure dataset and trains the surface model — the shared
/// front half of the Figure 4/7/8 binaries.
///
/// # Errors
///
/// Propagates simulation and training failures.
pub fn figure_model(seed: u64) -> Result<(Dataset, wlc_model::WorkloadModel), ModelError> {
    let configs = figure_design()?;
    // Longer runs than the Table 2 dataset: the figure surfaces resolve
    // ~10 % effects, so per-cell measurement noise must stay ~1 %.
    let dataset = run_design(&configs, seed, 40.0, 5.0)?;
    let outcome = paper_model_builder()
        .no_hidden_layers()
        .hidden_layer(24)
        .hidden_layer(16)
        .max_epochs(20000)
        .termination_threshold(2e-4)
        .train(&dataset)?;
    Ok((dataset, outcome.model))
}

/// Builds the paper's `(560, x, 16, y)` response surface through a model
/// for the given output indicator index.
///
/// # Errors
///
/// Propagates surface-evaluation failures.
pub fn figure_surface(
    model: &dyn wlc_model::PerformanceModel,
    output: usize,
) -> Result<wlc_model::SurfaceGrid, ModelError> {
    let surface = wlc_model::ResponseSurface::new(
        FIGURE_BASE.to_vec(),
        1,
        figure_axis(),
        3,
        figure_axis(),
        output,
    )?;
    surface.evaluate(model)
}

/// Runs one full Figure 4/7/8 experiment: simulate the grid design,
/// train the model, evaluate the `(560, x, 16, y)` surface for `output`,
/// print it and classify its shape. Returns the classification.
///
/// # Errors
///
/// Propagates simulation, training and analysis failures.
pub fn run_figure_experiment(
    output: usize,
    title: &str,
) -> Result<wlc_model::classify::ShapeAnalysis, ModelError> {
    use wlc_model::report::ascii_heatmap;

    eprintln!("simulating the figure grid design (243 configurations)...");
    let (dataset, model) = figure_model(42)?;
    let fit = model.evaluate(&dataset)?;
    eprintln!(
        "model trained; training-set overall error {:.1} %",
        fit.overall_error() * 100.0
    );

    let grid = figure_surface(&model, output)?;
    let analysis = wlc_model::classify::classify(&grid);

    println!("{title}");
    println!(
        "surface of `{}` over (default, web) at (560, x, 16, y):",
        dataset.output_names()[output]
    );
    println!("{}", ascii_heatmap(&grid));
    println!("{}", grid.to_tsv());
    let (i_min, j_min, v_min) = grid.min_cell();
    let (i_max, j_max, v_max) = grid.max_cell();
    println!(
        "min {:.4} at (default={}, web={}); max {:.4} at (default={}, web={})",
        v_min,
        grid.axis1_values()[i_min],
        grid.axis2_values()[j_min],
        v_max,
        grid.axis1_values()[i_max],
        grid.axis2_values()[j_max]
    );
    println!("classification: {:?}", analysis.shape);
    println!(
        "  sensitivity default-axis {:.3}, web-axis {:.3}; valley score {:.2}, hill score {:.2}",
        analysis.sensitivity_axis1,
        analysis.sensitivity_axis2,
        analysis.valley_score,
        analysis.hill_score
    );
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_respects_ranges_and_counts() {
        let configs = paper_design(25, 3).unwrap();
        assert_eq!(configs.len(), 25);
        for c in &configs {
            assert!(c.injection_rate() >= INJECTION_RANGE.0);
            assert!(c.injection_rate() <= INJECTION_RANGE.1);
            assert!(
                (DEFAULT_RANGE.0 as u32..=DEFAULT_RANGE.1 as u32).contains(&c.default_threads())
            );
            assert!((MFG_RANGE.0 as u32..=MFG_RANGE.1 as u32).contains(&c.mfg_threads()));
            assert!((WEB_RANGE.0 as u32..=WEB_RANGE.1 as u32).contains(&c.web_threads()));
        }
    }

    #[test]
    fn design_is_deterministic() {
        let a = paper_design(10, 7).unwrap();
        let b = paper_design(10, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn builder_is_configured() {
        let b = paper_model_builder();
        assert_eq!(b.hidden_layers(), &[16, 12]);
    }
}
