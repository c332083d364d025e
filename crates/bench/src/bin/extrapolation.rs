//! Reproduces the paper's §5.3 limitation discussion: "neural network
//! models cannot be used for extrapolation — the prediction accuracy of
//! MLPs drops rapidly outside the range of training data", and its
//! pointer to logarithmic network architectures (ref \[23\], Hines '96) as
//! a remedy.
//!
//! Trains the MLP workload model on injection rates 350..500 only, then
//! predicts throughput at rates far beyond the training range, comparing
//! against the simulator's ground truth and a logarithmic network.

use wlc_bench::paper_model_builder;
use wlc_math::Matrix;
use wlc_model::report::format_table;
use wlc_model::PerformanceModel;
use wlc_nn::{Activation, LogarithmicNetwork, MlpBuilder, TrainConfig, Trainer};
use wlc_sim::{run_design, ServerConfig, Simulation};

fn config(rate: f64) -> ServerConfig {
    ServerConfig::builder()
        .injection_rate(rate)
        .default_threads(10)
        .mfg_threads(16)
        .web_threads(10)
        .build()
        .expect("valid config")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Training range: injection 200..420 at a fixed healthy thread
    // configuration (kept clearly below saturation so throughput is a
    // smooth, extrapolatable function of the rate).
    let train_rates: Vec<f64> = (0..12).map(|i| 200.0 + i as f64 * 20.0).collect();
    let train_configs: Vec<ServerConfig> = train_rates.iter().map(|&r| config(r)).collect();
    eprintln!("simulating {} training rates...", train_configs.len());
    let train = run_design(&train_configs, 11, 20.0, 4.0)?;

    eprintln!("training the MLP workload model...");
    let mlp_model = paper_model_builder().train(&train)?.model;

    // A 1-input logarithmic network predicting throughput from rate.
    eprintln!("training the logarithmic network (paper ref [23])...");
    let (xs, ys) = train.to_matrices();
    let rates = Matrix::from_fn(xs.rows(), 1, |r, _| xs.get(r, 0));
    let tput = Matrix::from_fn(ys.rows(), 1, |r, _| ys.get(r, 4));
    let inner = MlpBuilder::new(1)
        .hidden(8, Activation::tanh())
        .output(1, Activation::identity())
        .seed(3)
        .build()?;
    let mut lognet = LogarithmicNetwork::new(inner, true);
    let trainer = Trainer::new(
        TrainConfig::new()
            .max_epochs(6000)
            .learning_rate(0.01)
            .optimizer(wlc_nn::OptimizerKind::adam()),
    );
    lognet.fit(&trainer, &rates, &tput)?;

    // Evaluate inside and far outside the training range.
    let test_rates = [250.0, 350.0, 420.0, 500.0, 560.0, 620.0];
    let mut rows = Vec::new();
    for &rate in &test_rates {
        let truth = Simulation::new(config(rate)).seed(77).run()?.throughput();
        let mlp_pred = mlp_model.predict(&config(rate).as_vector())?[4];
        let log_pred = lognet.predict(&[rate])?[0];
        let tag = if rate <= 420.0 {
            "in-range"
        } else {
            "EXTRAPOLATION"
        };
        rows.push(vec![
            format!("{rate}"),
            tag.to_string(),
            format!("{truth:.0}"),
            format!(
                "{mlp_pred:.0} ({:+.0} %)",
                (mlp_pred - truth) / truth * 100.0
            ),
            format!(
                "{log_pred:.0} ({:+.0} %)",
                (log_pred - truth) / truth * 100.0
            ),
        ]);
    }
    println!("Extrapolation study (paper §5.3): throughput vs injection rate");
    println!("(model trained on rates 200..420 only)");
    println!(
        "{}",
        format_table(
            &[
                "rate".into(),
                "regime".into(),
                "simulated".into(),
                "MLP prediction".into(),
                "log-net prediction".into(),
            ],
            &rows,
        )
    );
    println!("=> the MLP's error grows rapidly outside the training range; the");
    println!("   logarithmic network degrades more gracefully, as the paper's ref [23] suggests.");
    Ok(())
}
