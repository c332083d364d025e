//! The order statistics the report and the spread rule rest on, and the
//! agreement between `BENCHMARK.json` and the metrics the binary
//! prints.

use wlc_perfbench::stats::{
    median, quantile, quartiles, supported_quantile, supports, tail, Summary,
};
use wlc_perfbench::{owner, END_TO_END, PER_LAYER, PROBES, WORKLOADS};
use wlc_serve::Json;

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from Python 3.11 `statistics.quantiles(v, n=4)`.
    let cases: [(&[f64], [f64; 3]); 5] = [
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
        (
            &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
            [27.5, 55.0, 82.5],
        ),
        (&[0.5, 7.25, 3.0, 9.5, 1.0, 2.0, 8.0], [1.0, 3.0, 8.0]),
    ];
    for (xs, want) in cases {
        assert_eq!(quartiles(xs), Some(want), "{xs:?}");
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn median_and_quantile_interpolate_between_ranks() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
    let xs: Vec<f64> = (0..=100).map(f64::from).collect();
    assert_eq!(quantile(&xs, 0.99), 99.0);
    assert_eq!(quantile(&xs, 0.0), 0.0);
    assert_eq!(quantile(&xs, 1.0), 100.0);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(tail(&xs), None, "ten samples support no percentile");
    let xs: Vec<f64> = (1..=11).map(f64::from).collect();
    assert_eq!(tail(&xs), Some((1.0 / 11.0, 1.0)));
    let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let (q, v) = tail(&xs).expect("1000 samples");
    assert!((q - 0.99).abs() < 1e-12);
    assert_eq!(v, 990.0);
    assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
}

#[test]
fn a_percentile_is_reported_only_with_ten_samples_beyond_it() {
    assert!(supports(1000, 0.99));
    assert!(!supports(999, 0.99));
    assert!(supports(20, 0.5));
    let xs: Vec<f64> = (0..999).map(f64::from).collect();
    assert_eq!(supported_quantile(&xs, 0.99), None);
    assert_eq!(supported_quantile(&xs, 0.5), Some(499.0));
}

#[test]
fn summary_states_its_sample_count() {
    let xs: Vec<f64> = (1..=20).map(f64::from).collect();
    let s = Summary::of(&xs);
    assert_eq!(s.n, 20);
    assert_eq!(s.p50, 10.5);
    assert_eq!((s.min, s.max), (1.0, 20.0));
    assert_eq!(s.tail, Some((0.5, 10.0)));
    assert!(s.describe().ends_with("(n=20)"), "{}", s.describe());
    assert!(Summary::of(&[1.0, 2.0]).describe().contains("n=2"));
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(json: &Json, key: &str) -> Vec<String> {
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let json = benchmark_json();
    assert_eq!(names(&json, "workloads"), WORKLOADS);
    assert_eq!(names(&json, "end_to_end"), END_TO_END.map(|m| m.0));
    assert_eq!(names(&json, "per_layer"), PER_LAYER.map(|m| m.0));
    for (m, (name, unit, better, bound)) in json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(better),
            "{name}"
        );
        assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound), "{name}");
    }
    for (m, (name, unit, better)) in json
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer")
        .iter()
        .zip(PER_LAYER)
    {
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(better),
            "{name}"
        );
    }
}

#[test]
fn every_layer_metric_has_an_owning_probe() {
    for (name, _, _) in PER_LAYER {
        assert!(PROBES.contains(&owner(name)), "{name}");
    }
    assert_eq!(owner("sim.txns"), "capacity");
    assert_eq!(owner("sim.stream_window_s"), "learn_loop");
    assert_eq!(owner("serve.ttfb_us_p50"), "serve_open");
    assert_eq!(owner("exec.cv_efficiency"), "characterize");
}
