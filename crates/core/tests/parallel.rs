//! Determinism of parallel cross-validation: reports must be
//! bit-for-bit identical for any worker count.

use wlc_data::{Dataset, Sample};
use wlc_model::{CrossValidator, WorkloadModelBuilder};

fn dataset(n: usize) -> Dataset {
    let mut ds =
        Dataset::new(vec!["a".into(), "b".into()], vec!["y0".into(), "y1".into()]).unwrap();
    for i in 0..n {
        let a = (i % 7) as f64 + 1.0;
        let b = (i / 7) as f64 + 1.0;
        ds.push(Sample::new(vec![a, b], vec![a * a + b, a * b + 2.0]))
            .unwrap();
    }
    ds
}

fn builder() -> WorkloadModelBuilder {
    WorkloadModelBuilder::new()
        .no_hidden_layers()
        .hidden_layer(8)
        .max_epochs(200)
        .learning_rate(0.05)
}

#[test]
fn cross_validation_is_bit_identical_across_job_counts() {
    let ds = dataset(30);
    let serial = CrossValidator::new(builder())
        .seed(9)
        .jobs(1)
        .run(&ds)
        .unwrap();
    for jobs in [2, 5] {
        let parallel = CrossValidator::new(builder())
            .seed(9)
            .jobs(jobs)
            .run(&ds)
            .unwrap();
        assert_eq!(serial.trials().len(), parallel.trials().len());
        for (s, p) in serial.trials().iter().zip(parallel.trials()) {
            assert_eq!(s.fold, p.fold);
            assert_eq!(s.validation, p.validation, "jobs={jobs} fold {}", s.fold);
            assert_eq!(s.training, p.training);
            assert_eq!(
                s.train_report.loss_history, p.train_report.loss_history,
                "jobs={jobs} fold {}",
                s.fold
            );
        }
    }
}

#[test]
fn cross_validation_timed_reports_per_fold() {
    let ds = dataset(25);
    let (report, timing) = CrossValidator::new(builder())
        .jobs(2)
        .run_timed(&ds)
        .unwrap();
    assert_eq!(report.trials().len(), 5);
    assert_eq!(timing.tasks.len(), 5);
    assert!(timing.busy() >= timing.tasks[0].elapsed);
}
