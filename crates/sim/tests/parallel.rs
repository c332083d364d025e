//! Determinism of parallel dataset collection: the dataset must be
//! bit-for-bit identical for any worker count, because every run's seed
//! is derived from its design index, never from scheduling order.

use wlc_data::Dataset;
use wlc_sim::{
    run_design, run_design_faulty_jobs, run_design_replicated_timed, stream_window, FaultProfile,
    ServerConfig, StreamConfig, OUTPUT_NAMES,
};

fn design(n: usize) -> Vec<ServerConfig> {
    (0..n)
        .map(|i| {
            ServerConfig::builder()
                .injection_rate(150.0 + 40.0 * (i % 7) as f64)
                .default_threads(5 + (i % 4) as u32)
                .mfg_threads(12)
                .web_threads(5 + (i / 4) as u32 % 8)
                .build()
                .unwrap()
        })
        .collect()
}

#[test]
fn run_design_is_bit_identical_across_job_counts() {
    let configs = design(9);
    let default = run_design(&configs, 42, 2.0, 0.5).unwrap();
    for jobs in [1, 2, 4, 8] {
        let (pinned, _, _) =
            run_design_faulty_jobs(&configs, 42, 2.0, 0.5, FaultProfile::none(), 0, jobs).unwrap();
        assert_eq!(default, pinned, "default jobs vs jobs={jobs}");
    }
}

#[test]
fn run_design_replicated_is_bit_identical_across_job_counts() {
    let configs = design(6);
    let (serial, _) = run_design_replicated_timed(&configs, 7, 2.0, 0.5, 3, 1).unwrap();
    let (parallel, report) = run_design_replicated_timed(&configs, 7, 2.0, 0.5, 3, 4).unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(report.jobs, 4.min(configs.len()));
    assert_eq!(report.tasks.len(), configs.len());
}

#[test]
fn timed_report_covers_every_configuration() {
    let configs = design(5);
    let (ds, _, report) =
        run_design_faulty_jobs(&configs, 1, 2.0, 0.5, FaultProfile::none(), 0, 2).unwrap();
    assert_eq!(ds.len(), 5);
    assert_eq!(ds.output_width(), OUTPUT_NAMES.len());
    assert_eq!(report.tasks.len(), 5);
    let indices: Vec<usize> = report.tasks.iter().map(|t| t.index).collect();
    assert_eq!(indices, vec![0, 1, 2, 3, 4]);
    assert!(report.wall >= std::time::Duration::ZERO);
}

#[test]
fn failing_run_surfaces_error_not_hang() {
    // duration <= 0 makes every run fail; the parallel path must return
    // the error (the lowest-index one, same as sequential) promptly.
    let configs = design(6);
    let run = |jobs| run_design_faulty_jobs(&configs, 1, 0.0, 0.0, FaultProfile::none(), 0, jobs);
    let serial = run(1).unwrap_err();
    let parallel = run(4).unwrap_err();
    assert_eq!(format!("{serial}"), format!("{parallel}"));
}

/// FNV-1a 64-bit: a dependency-free fingerprint of the dataset bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn stream_window_bytes_are_golden() {
    // The exact samples and fault tally a drifting, faulty stream
    // produces over ticks 0..12: any change to the drift, the fault
    // draws, the retry/quarantine rule or the seeds fails here. Neither
    // the worker count nor the windowing may matter.
    let cfg = |jobs| StreamConfig {
        base_seed: 33,
        drift: "kind=ramp,rate=0.05".parse().unwrap(),
        faults: "dropout=0.3,stall=0.2,truncate=0.3,truncate_frac=0.5,spike=0.2,spike_scale=0.5"
            .parse()
            .unwrap(),
        duration_secs: 3.0,
        warmup_secs: 1.0,
        max_retries: 2,
        jobs,
    };
    let pin = |ds: &Dataset, faults: &str, quarantined: &[usize]| {
        let csv = ds.to_csv_string();
        assert_eq!(
            (csv.len(), fnv1a64(csv.as_bytes()), faults, quarantined),
            (
                1441,
                0x1ad9_5bfc_59c2_4b9e,
                "6 dropouts, 5 stalls, 4 truncated runs, 13 indicator spikes, \
                 1 quarantined configurations",
                &[7][..]
            ),
        );
    };
    for jobs in [1, 2] {
        let (ds, faults) = stream_window(&cfg(jobs), 0, 12).unwrap();
        pin(&ds, &faults.to_string(), &faults.quarantined);

        let (mut ds, first) = stream_window(&cfg(jobs), 0, 5).unwrap();
        let (rest, second) = stream_window(&cfg(jobs), 5, 7).unwrap();
        ds.merge(&rest).unwrap();
        let tally = format!(
            "{} dropouts, {} stalls, {} truncated runs, {} indicator spikes, \
             {} quarantined configurations",
            first.dropouts + second.dropouts,
            first.stalls + second.stalls,
            first.truncations + second.truncations,
            first.spikes + second.spikes,
            first.quarantined.len() + second.quarantined.len()
        );
        let quarantined: Vec<usize> = first
            .quarantined
            .into_iter()
            .chain(second.quarantined)
            .collect();
        pin(&ds, &tally, &quarantined);
    }
}
