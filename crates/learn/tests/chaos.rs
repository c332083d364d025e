//! Chaos coverage for the continuous-learning supervisor: kill it
//! mid-retrain, corrupt its artifacts, force bad promotions — and
//! assert serving never leaves the last validated model while the
//! whole loop stays bit-identical under a fixed seed.

use std::fs;
use std::path::{Path, PathBuf};

use wlc_learn::{LearnConfig, LearnError, Supervisor};
use wlc_sim::DriftProfile;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wlc-learn-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small but full-featured loop: drifting workload, promotions from
/// round 1 (verified by the assertions below), two serving replicas.
fn base_config(dir: &Path) -> LearnConfig {
    LearnConfig {
        state_dir: dir.to_path_buf(),
        seed: 0,
        rounds: 3,
        window: 5,
        buffer_cap: 30,
        holdout: 3,
        bootstrap_ticks: 8,
        drift: "kind=ramp,rate=0.08".parse::<DriftProfile>().unwrap(),
        duration_secs: 2.0,
        warmup_secs: 0.5,
        epochs: 200,
        hidden: vec![8],
        probes: 4,
        tolerance: 2.0,
        replicas: 2,
        workers: 2,
        jobs: 1,
        quiet: true,
        ..LearnConfig::default()
    }
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    fs::read(dir.join(name)).unwrap_or_else(|e| panic!("reading {name}: {e}"))
}

#[test]
fn kill_mid_retrain_then_corrupt_checkpoint_resumes_byte_identically() {
    // Reference: an uninterrupted sequential run.
    let dir_a = temp_dir("ref");
    let outcome_a = Supervisor::new(base_config(&dir_a)).unwrap().run().unwrap();
    assert!(outcome_a.promotions >= 1, "config must exercise promotion");
    assert_eq!(outcome_a.rounds, 3);

    // Chaos: run with more workers, die mid-retrain in round 2 right
    // after the first checkpoint hits disk.
    let dir_b = temp_dir("killed");
    let mut killed = base_config(&dir_b);
    killed.jobs = 4;
    killed.chaos_kill_round = Some(2);
    match Supervisor::new(killed).unwrap().run() {
        Err(LearnError::ChaosKill { round: 2 }) => {}
        other => panic!("expected chaos kill in round 2, got {other:?}"),
    }
    // Nothing from round 2 was committed; the checkpoint survives.
    assert!(String::from_utf8(read(&dir_b, "state.txt"))
        .unwrap()
        .contains("round 1"));
    assert!(dir_b.join("retrain-2.ckpt").exists());

    // Worse: the checkpoint the kill left behind is itself corrupt.
    // The resumed supervisor must discard it and retrain from scratch
    // — which produces the same bytes either way.
    fs::write(
        dir_b.join("retrain-2.ckpt"),
        b"wlc-nn-checkpoint v2\ngarbage\n",
    )
    .unwrap();

    let mut resumed = base_config(&dir_b);
    resumed.jobs = 4;
    let outcome_b = Supervisor::new(resumed).unwrap().run().unwrap();

    // The interrupted-and-resumed parallel run reproduces the
    // uninterrupted sequential run bit for bit.
    assert_eq!(outcome_b.rounds, outcome_a.rounds);
    assert_eq!(outcome_b.generation, outcome_a.generation);
    assert_eq!(outcome_b.live, outcome_a.live);
    assert_eq!(read(&dir_a, "events.log"), read(&dir_b, "events.log"));
    assert_eq!(read(&dir_a, "state.txt"), read(&dir_b, "state.txt"));
    assert_eq!(read(&dir_a, &outcome_a.live), read(&dir_b, &outcome_b.live));
    // Round scratch was cleaned up at commit.
    assert!(!dir_b.join("retrain-2.ckpt").exists());

    fs::remove_dir_all(&dir_a).unwrap();
    fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn corrupt_candidate_is_quarantined_and_serving_never_leaves_last_good() {
    let dir = temp_dir("corrupt");
    let mut config = base_config(&dir);
    config.rounds = 1;
    config.chaos_corrupt_candidate_round = Some(1);
    let outcome = Supervisor::new(config).unwrap().run().unwrap();

    // The fleet's validated reload rejected the torn artifact: no
    // promotion happened, no fleet swap happened, and the supervisor
    // still serves (and trusts) generation 0.
    assert_eq!(outcome.promotions, 0);
    assert_eq!(outcome.rollbacks, 0);
    assert_eq!(outcome.generation, 0);
    assert_eq!(outcome.quarantined, 1);
    assert_eq!(outcome.live, "model-g0.model");

    // The bad candidate moved into quarantine with a diagnosis record.
    assert!(dir.join("quarantine/round-1.model").exists());
    let diagnosis = String::from_utf8(read(&dir, "quarantine/round-1.diagnosis")).unwrap();
    assert!(diagnosis.contains("reason reload_rejected"), "{diagnosis}");
    assert!(!dir.join("model-g1.model").exists());

    let events = String::from_utf8(read(&dir, "events.log")).unwrap();
    assert!(events.contains("event=quarantine round=1 reason=reload_rejected"));
    assert!(!events.contains("event=promote"));

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn forced_bad_promotion_rolls_back_within_the_probation_window() {
    let dir = temp_dir("rollback");
    let mut config = base_config(&dir);
    config.rounds = 1;
    config.force_bad_round = Some(1);
    let outcome = Supervisor::new(config).unwrap().run().unwrap();

    // Round 1 promoted generation 1, every probation probe degraded,
    // the watchdog fired, and the fleet swapped back to last-good
    // (generation 2 = two swaps: promote + rollback).
    assert_eq!(outcome.promotions, 1);
    assert_eq!(outcome.rollbacks, 1);
    assert_eq!(outcome.quarantined, 1);
    assert_eq!(outcome.generation, 2);
    assert_eq!(outcome.live, "model-g0.model");

    let events = String::from_utf8(read(&dir, "events.log")).unwrap();
    assert!(events.contains("event=probation round=1 probes=4 breaches=4 verdict=breach"));
    assert!(events.contains(
        "event=rollback round=1 generation=2 restored=model-g0.model quarantined=model-g1.model"
    ));
    let diagnosis = String::from_utf8(read(&dir, "quarantine/round-1.diagnosis")).unwrap();
    assert!(diagnosis.contains("watchdog breach"), "{diagnosis}");
    assert!(diagnosis.contains("restored model-g0.model"), "{diagnosis}");

    // The quarantined artifact is the candidate that was serving
    // during probation, preserved for offline inspection.
    assert!(dir.join("quarantine/round-1.model").exists());
    assert!(!dir.join("model-g1.model").exists());

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stream_faults_degrade_the_loop_but_serving_stays_validated() {
    let dir = temp_dir("faults");
    let mut config = base_config(&dir);
    config.rounds = 2;
    config.faults = "dropout=0.2,spike=0.1,spike_scale=0.3,truncate=0.2,truncate_frac=0.6"
        .parse()
        .unwrap();
    let outcome = Supervisor::new(config).unwrap().run().unwrap();
    assert_eq!(outcome.rounds, 2);

    // Whatever the faults did to the stream, the live model is always
    // one the fleet validated: it loads, and it matches an artifact
    // the supervisor committed.
    let live = wlc_model::WorkloadModel::load(dir.join(&outcome.live)).unwrap();
    live.validate(None).unwrap();

    // And the same faulty stream replays identically.
    let dir_b = temp_dir("faults-b");
    let mut config_b = base_config(&dir_b);
    config_b.rounds = 2;
    config_b.faults = "dropout=0.2,spike=0.1,spike_scale=0.3,truncate=0.2,truncate_frac=0.6"
        .parse()
        .unwrap();
    config_b.jobs = 3;
    Supervisor::new(config_b).unwrap().run().unwrap();
    assert_eq!(read(&dir, "events.log"), read(&dir_b, "events.log"));

    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&dir_b).unwrap();
}
