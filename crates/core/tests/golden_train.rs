//! Golden training bytes: each branch of the training recipe — full-batch
//! momentum stopping at the loose-fit threshold, shuffled minibatch Adam
//! interrupted by a checkpoint and resumed, and divergence recovery at a
//! backed-off learning rate — must reproduce the exact model file and
//! loss history it produced when these constants were recorded. A change
//! that alters any trained bit fails here, however small.
//!
//! Each hash is FNV-1a-64: over `WorkloadModel::to_text()` for the model,
//! and over the little-endian bit patterns of `loss_history` for the
//! losses.

use wlc_data::{Dataset, Sample};
use wlc_math::testdir::TestDir;
use wlc_model::{TrainedModel, WorkloadModelBuilder};
use wlc_nn::{Checkpoint, OptimizerKind, StopReason};

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn model_hash(outcome: &TrainedModel) -> u64 {
    fnv1a64(outcome.model.to_text().into_bytes())
}

fn history_hash(outcome: &TrainedModel) -> u64 {
    fnv1a64(
        outcome
            .report
            .loss_history
            .iter()
            .flat_map(|l| l.to_bits().to_le_bytes()),
    )
}

/// 36 rows, two inputs, two non-linear outputs of different magnitude.
fn dataset() -> Dataset {
    let mut ds =
        Dataset::new(vec!["a".into(), "b".into()], vec!["y0".into(), "y1".into()]).unwrap();
    for i in 0..6 {
        for j in 0..6 {
            let a = 1.0 + i as f64 * 0.5;
            let b = 10.0 + j as f64 * 4.0;
            ds.push(Sample::new(vec![a, b], vec![a * a + 0.1 * b, a * b]))
                .unwrap();
        }
    }
    ds
}

fn builder() -> WorkloadModelBuilder {
    WorkloadModelBuilder::new()
        .no_hidden_layers()
        .hidden_layer(6)
        .hidden_layer(4)
        .seed(11)
}

#[test]
fn full_batch_momentum_stops_at_threshold() {
    let outcome = builder()
        .max_epochs(3000)
        .learning_rate(0.05)
        .termination_threshold(2e-2)
        .train(&dataset())
        .unwrap();
    assert_eq!(outcome.report.stop_reason, StopReason::ThresholdReached);
    assert_eq!(outcome.report.epochs_run, 294);
    assert_eq!(model_hash(&outcome), 0x647a_7ca9_3be6_f4b7);
    assert_eq!(history_hash(&outcome), 0xa029_109c_55a3_9136);
}

#[test]
fn minibatch_adam_checkpoint_resume() {
    let ds = dataset();
    let dir = TestDir::new("core-golden-minibatch_adam_checkpoint_resume");
    let path = dir.join("train.ckpt");
    let base = builder()
        .optimizer(OptimizerKind::adam())
        .learning_rate(0.01)
        .batch_size(10)
        .no_termination_threshold();

    let full = base.clone().max_epochs(90).train(&ds).unwrap();
    base.clone()
        .max_epochs(60)
        .checkpoint(&path, 30)
        .train(&ds)
        .unwrap();
    let ck = Checkpoint::load(&path).unwrap();
    assert_eq!(ck.epochs_completed(), 60);
    let resumed = base.max_epochs(90).train_resuming(&ds, &ck).unwrap();

    assert_eq!(resumed.report.resumed_from_epoch, Some(60));
    assert_eq!(resumed.model, full.model);
    assert_eq!(resumed.report.loss_history, full.report.loss_history);
    assert_eq!(model_hash(&full), 0xb52f_53fe_ee46_bd7e);
    assert_eq!(history_hash(&full), 0xa413_36bc_c6a5_7926);
}

#[test]
fn divergence_recovers_at_backed_off_rate() {
    let outcome = builder()
        .max_epochs(200)
        .learning_rate(200.0)
        .no_termination_threshold()
        .recover(12)
        .train(&dataset())
        .unwrap();
    // Attempts 0-5 diverge; attempt 6 trains at 200 * 0.5^6 = 3.125.
    assert_eq!(outcome.report.recovery_attempts, 6);
    assert_eq!(outcome.report.stop_reason, StopReason::MaxEpochs);
    assert_eq!(model_hash(&outcome), 0xa932_05ca_c855_1162);
    assert_eq!(history_hash(&outcome), 0x9e0f_9087_ad6f_0f86);
}
