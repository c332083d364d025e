//! Quickstart: simulate a handful of workload configurations, train the
//! non-linear workload model on them, and predict an unseen
//! configuration's performance.
//!
//! Run with: `cargo run --release --example quickstart`

use wlc::data::Dataset;
use wlc::model::{PerformanceModel, WorkloadModelBuilder};
use wlc::sim::{run_design, ServerConfig, Simulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Collect training samples: a small grid of configurations, each
    //    measured by the 3-tier discrete-event simulator.
    println!("simulating a 3x3x2 configuration grid (18 runs)...");
    let mut configs = Vec::new();
    for &rate in &[350.0, 450.0, 550.0] {
        for &threads in &[6u32, 10, 14] {
            for &web in &[8u32, 14] {
                configs.push(
                    ServerConfig::builder()
                        .injection_rate(rate)
                        .default_threads(threads)
                        .mfg_threads(16)
                        .web_threads(web)
                        .build()?,
                );
            }
        }
    }
    let dataset: Dataset = run_design(&configs, 7, 8.0, 2.0)?;
    println!("collected {dataset}");

    // 2. Train the paper's model: standardization + MLP + loose fit.
    println!("training the workload model...");
    let outcome = WorkloadModelBuilder::new()
        .max_epochs(3000)
        .learning_rate(0.02)
        .optimizer(wlc::nn::OptimizerKind::adam())
        .seed(1)
        .train(&dataset)?;
    println!(
        "trained in {} epochs ({})",
        outcome.report.epochs_run, outcome.report.stop_reason
    );

    // 3. Predict an unseen configuration and compare with a fresh
    //    simulation of the same point.
    let unseen = ServerConfig::builder()
        .injection_rate(500.0)
        .default_threads(12)
        .mfg_threads(16)
        .web_threads(11)
        .build()?;
    let predicted = outcome.model.predict(&unseen.as_vector())?;
    let actual = Simulation::new(unseen).seed(99).run()?;

    println!("\nunseen configuration {:?}:", unseen.as_vector());
    println!(
        "{:<26} {:>12} {:>12}",
        "indicator", "predicted", "simulated"
    );
    let names = outcome.model.output_names();
    for (i, name) in names.iter().enumerate() {
        let actual_v = actual.indicators()[i];
        println!("{:<26} {:>12.4} {:>12.4}", name, predicted[i], actual_v);
    }
    Ok(())
}
