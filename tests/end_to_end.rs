//! End-to-end integration tests spanning every crate: simulate → train →
//! predict → persist → advise, exactly as a downstream user would.

use wlc::data::train_test_split;
use wlc::math::rng::Seed;
use wlc::model::{
    PerformanceModel, ScoringFunction, TuningAdvisor, WorkloadModel, WorkloadModelBuilder,
};
use wlc::nn::OptimizerKind;
use wlc::sim::{run_design, ServerConfig};

/// A small but non-trivial training design: 24 configurations spanning
/// rates and thread counts.
fn small_design() -> Vec<ServerConfig> {
    let mut configs = Vec::new();
    for &rate in &[250.0, 400.0, 550.0] {
        for &d in &[6.0, 10.0, 16.0, 20.0] {
            for &w in &[7.0, 13.0] {
                configs.push(ServerConfig::from_vector(&[rate, d, 16.0, w]).expect("valid config"));
            }
        }
    }
    configs
}

fn quick_builder() -> WorkloadModelBuilder {
    WorkloadModelBuilder::new()
        .max_epochs(1500)
        .learning_rate(0.02)
        .optimizer(OptimizerKind::adam())
        .termination_threshold(2e-3)
        .seed(5)
}

#[test]
fn simulate_train_predict_roundtrip() {
    let dataset = run_design(&small_design(), 11, 6.0, 1.0).expect("simulation succeeds");
    assert_eq!(dataset.len(), 24);
    assert_eq!(dataset.input_width(), 4);
    assert_eq!(dataset.output_width(), 5);

    let (train_idx, test_idx) =
        train_test_split(dataset.len(), 0.25, Seed::new(3)).expect("valid split");
    let train = dataset.subset(&train_idx).expect("valid indices");
    let test = dataset.subset(&test_idx).expect("valid indices");

    let outcome = quick_builder().train(&train).expect("training succeeds");
    let report = outcome.model.evaluate(&test).expect("evaluation succeeds");

    // The model must clearly beat a "predict anything" strawman on
    // held-out data; the release-mode experiments achieve ~5 %, debug
    // tests with a reduced epoch budget should still land well under 60 %.
    assert!(
        report.overall_error() < 0.6,
        "held-out error too high: {}",
        report.overall_error()
    );

    // Predictions have the right shape and are finite.
    let pred = outcome
        .model
        .predict(&[450.0, 12.0, 16.0, 10.0])
        .expect("predict succeeds");
    assert_eq!(pred.len(), 5);
    assert!(pred.iter().all(|v| v.is_finite()));
}

#[test]
fn model_persistence_preserves_predictions() {
    let dataset = run_design(&small_design()[..8], 13, 5.0, 1.0).expect("simulation succeeds");
    let outcome = quick_builder()
        .max_epochs(200)
        .train(&dataset)
        .expect("training succeeds");

    let dir = wlc::math::testdir::TestDir::new("e2e-model_persistence_preserves_predictions");
    let path = dir.join("model.txt");
    outcome.model.save(&path).expect("save succeeds");
    let loaded = WorkloadModel::load(&path).expect("load succeeds");

    let x = [300.0, 8.0, 16.0, 9.0];
    assert_eq!(
        loaded.predict(&x).expect("predict succeeds"),
        outcome.model.predict(&x).expect("predict succeeds"),
    );
    assert_eq!(loaded.output_names(), outcome.model.output_names());
}

#[test]
fn tuning_advisor_recommends_sane_configuration() {
    let dataset = run_design(&small_design(), 17, 6.0, 1.0).expect("simulation succeeds");
    let model = quick_builder()
        .train(&dataset)
        .expect("training succeeds")
        .model;

    let scoring =
        ScoringFunction::new(vec![0.06, 0.06, 0.05, 0.05], 5000.0).expect("valid scoring");
    let advisor = TuningAdvisor::new(&model, scoring);
    let rec = advisor
        .recommend(&[
            vec![550.0],
            vec![6.0, 10.0, 16.0, 20.0],
            vec![16.0],
            vec![7.0, 10.0, 13.0],
        ])
        .expect("search succeeds");

    assert_eq!(rec.candidates_evaluated, 12);
    assert_eq!(rec.configuration.len(), 4);
    assert_eq!(rec.configuration[0], 550.0);
    // The recommendation must be one of the offered candidates.
    assert!([6.0, 10.0, 16.0, 20.0].contains(&rec.configuration[1]));
    assert!([7.0, 10.0, 13.0].contains(&rec.configuration[3]));
    assert!(rec.predicted_indicators.iter().all(|v| v.is_finite()));
}

#[test]
fn dataset_csv_roundtrip_through_facade() {
    let dataset = run_design(&small_design()[..4], 19, 4.0, 1.0).expect("simulation succeeds");
    let csv = dataset.to_csv_string();
    let back = wlc::data::Dataset::from_csv_string(&csv).expect("parse succeeds");
    assert_eq!(back, dataset);
}

#[test]
fn cross_validation_through_facade() {
    let dataset = run_design(&small_design(), 23, 5.0, 1.0).expect("simulation succeeds");
    let report = wlc::model::CrossValidator::new(quick_builder().max_epochs(400))
        .k(4)
        .seed(2)
        .run(&dataset)
        .expect("cv succeeds");
    assert_eq!(report.trials().len(), 4);
    let table = report.to_table();
    assert!(table.contains("Average"));
    assert!(report.overall_error().is_finite());
}
