//! Model-guided performance tuning (the paper's §5.3 scoring-function
//! idea): train a model once, then search thousands of *predicted*
//! configurations for the best one instead of running thousands of
//! experiments — and flag the futile tuning knobs.
//!
//! Run with: `cargo run --release --example tuning_advisor`

use wlc::data::design::{latin_hypercube, round_to_integers, ParamRange};
use wlc::math::rng::Seed;
use wlc::model::{ScoringFunction, TuningAdvisor, WorkloadModelBuilder};
use wlc::sim::{run_design, ServerConfig, Simulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train on a space-filling sample of the configuration space.
    println!("collecting 40 training measurements...");
    let ranges = [
        ParamRange::new(400.0, 600.0)?,
        ParamRange::new(5.0, 20.0)?,
        ParamRange::new(10.0, 24.0)?,
        ParamRange::new(5.0, 20.0)?,
    ];
    let mut points = latin_hypercube(&ranges, 40, Seed::new(5))?;
    for p in &mut points {
        let rate = p[0];
        round_to_integers(std::slice::from_mut(p));
        p[0] = rate;
    }
    let configs: Vec<ServerConfig> = points
        .iter()
        .map(|p| ServerConfig::from_vector(p))
        .collect::<Result<_, _>>()?;
    let dataset = run_design(&configs, 21, 10.0, 2.0)?;

    println!("training the workload model...");
    let model = WorkloadModelBuilder::new()
        .max_epochs(4000)
        .learning_rate(0.02)
        .optimizer(wlc::nn::OptimizerKind::adam())
        .seed(2)
        .train(&dataset)?
        .model;

    // Score = predicted throughput, with heavy penalties for violating
    // the per-class response-time constraints.
    let scoring = ScoringFunction::new(vec![0.050, 0.050, 0.040, 0.040], 2000.0)?;
    let advisor = TuningAdvisor::new(&model, scoring);

    // Search the full factorial grid at the 560 req/s operating point.
    let levels: Vec<Vec<f64>> = vec![
        vec![560.0],
        (5..=20).map(f64::from).collect(),
        vec![12.0, 16.0, 20.0],
        (5..=20).map(f64::from).collect(),
    ];
    let rec = advisor.recommend(&levels)?;
    println!(
        "\nsearched {} candidate configurations through the model",
        rec.candidates_evaluated
    );
    println!(
        "recommended (injection, default, mfg, web) = {:?}",
        rec.configuration
    );
    println!(
        "predicted indicators: {:?} (feasible: {})",
        rec.predicted_indicators
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>(),
        rec.feasible
    );

    // Verify the recommendation against the simulator.
    let best = ServerConfig::from_vector(&rec.configuration)?;
    let measured = Simulation::new(best).seed(1234).run()?;
    println!(
        "simulator check at the recommendation: throughput {:.0}/s effective",
        measured.throughput()
    );

    // Futile-knob analysis around the recommendation (paper §5.1).
    let sens = advisor.parameter_sensitivity(
        &rec.configuration,
        &[
            vec![480.0, 520.0, 560.0, 600.0],
            (5..=20).map(f64::from).collect(),
            vec![12.0, 16.0, 20.0],
            (5..=20).map(f64::from).collect(),
        ],
    )?;
    println!("\nparameter sensitivity around the recommendation:");
    for (name, s) in [
        "injection_rate",
        "default_threads",
        "mfg_threads",
        "web_threads",
    ]
    .iter()
    .zip(&sens)
    {
        let verdict = if *s < 0.05 {
            " <- futile tuning knob"
        } else {
            ""
        };
        println!("  {name:<16} {s:>8.4}{verdict}");
    }
    Ok(())
}
