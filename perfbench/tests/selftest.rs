//! Self-tests of the benchmark's helpers: order statistics, tail
//! selection, span self time, `/proc` parsing, and agreement between
//! the metric catalogue and `BENCHMARK.json`.

use std::time::Duration;

use s2d_perfbench::catalogue::{Metric, END_TO_END, PER_LAYER};
use s2d_perfbench::stats::{median, percentile_sorted, quartiles, summary, tail};
use s2d_perfbench::sys::parse_stat_cpu;
use s2d_perfbench::trace::{self_time, Tracer};
use s2d_perfbench::{reference_product, reference_product_on, SeedRng};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's `statistics.quantiles(xs, n=4)`.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(quartiles(&[3.5, 1.25, 9.0, 2.0, 7.75, 4.0, 6.5]), [2.0, 4.0, 7.75]);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&hundred), Some((90.0, 90.0, 10)));
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&thousand), Some((99.0, 990.0, 10)));
    let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(tail(&twenty), Some((50.0, 10.0, 10)));
    let fifteen: Vec<f64> = (1..=15).map(f64::from).collect();
    assert_eq!(tail(&fifteen), None);
    assert_eq!(tail(&[]), None);
}

#[test]
fn summary_states_count_median_quartiles_and_tail() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(
        summary(&hundred, 1.0, "s"),
        "n=100 median=50.5000s q1=25.2500s q3=75.7500s p90=90.0000s (10 beyond)"
    );
    assert_eq!(summary(&[0.002], 1e3, "ms"), "n=1 median=2.0000ms");
    assert_eq!(summary(&[], 1.0, "s"), "n=0");
}

#[test]
fn nearest_rank_percentile() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile_sorted(&v, 50.0), 5.0);
    assert_eq!(percentile_sorted(&v, 99.0), 10.0);
    assert_eq!(percentile_sorted(&v, 0.0), 1.0);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // Children overlap (10..30, 20..40) and one sticks out (90..120).
    let mut kids = vec![(90, 120), (10, 30), (20, 40)];
    assert_eq!(self_time((0, 100), &mut kids), 60);
    assert_eq!(self_time((0, 100), &mut []), 100);
    // A child covering the whole span leaves nothing.
    assert_eq!(self_time((5, 10), &mut [(0, 20)]), 0);
}

#[test]
fn tracer_self_seconds_nest() {
    let mut t = Tracer::new();
    t.span("outer", "o", |t| {
        std::thread::sleep(Duration::from_millis(5));
        t.span("inner", "i", |_| std::thread::sleep(Duration::from_millis(10)));
    });
    let outer = t.durations("o")[0];
    let inner = t.durations("i")[0];
    let selfs = t.self_seconds();
    assert!(inner >= 0.010);
    assert!((selfs["outer"] - (outer - inner)).abs() < 1e-6, "{selfs:?}");
    assert!((selfs["inner"] - inner).abs() < 1e-9);
    assert_eq!(t.spans()[1].parent, Some(0));
    assert!(t.to_json().starts_with("{\"spans\":[{\"id\":0,\"parent\":null,"));
}

#[test]
fn stat_cpu_fields_are_counted_from_the_last_parenthesis() {
    let line = "4242 (odd) name) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3";
    assert_eq!(parse_stat_cpu(line), Some(3.0));
    assert_eq!(parse_stat_cpu("garbage"), None);
}

#[test]
fn reference_product_is_a_csr_product() {
    // [[2, 0, 1], [0, 0, 0], [0, 3, 0]] · [1, 2, 3]
    let mut y = vec![9.0; 3];
    reference_product(&[0, 2, 2, 3], &[0, 2, 1], &[2.0, 1.0, 3.0], &[1.0, 2.0, 3.0], &mut y);
    assert_eq!(y, [5.0, 0.0, 6.0]);
    for threads in [0, 1, 2, 3, 4] {
        let mut z = vec![9.0; 3];
        reference_product_on(
            threads,
            &[0, 2, 2, 3],
            &[0, 2, 1],
            &[2.0, 1.0, 3.0],
            &[1.0, 2.0, 3.0],
            &mut z,
        );
        assert_eq!(z, [5.0, 0.0, 6.0], "{threads} threads");
    }
}

#[test]
fn seeded_inputs_repeat() {
    let a = SeedRng::new(7, 1).vector(64);
    assert_eq!(a, SeedRng::new(7, 1).vector(64));
    assert_ne!(a, SeedRng::new(8, 1).vector(64));
    assert_ne!(a, SeedRng::new(7, 2).vector(64));
    assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
}

/// The `{...}` object of `BENCHMARK.json` that names `name`.
fn entry<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"name\": \"{name}\"");
    let at = json.find(&key)?;
    let start = json[..at].rfind('{')?;
    let end = at + json[at..].find('}')?;
    Some(&json[start..=end])
}

fn check_listed(json: &str, metrics: &[Metric]) {
    for m in metrics {
        let e = entry(json, m.name).unwrap_or_else(|| panic!("{} missing", m.name));
        assert!(e.contains(&format!("\"unit\": \"{}\"", m.unit)), "{}: unit", m.name);
        let better = if m.lower_is_better { "lower" } else { "higher" };
        assert!(e.contains(&format!("\"better\": \"{better}\"")), "{}: direction", m.name);
        assert_eq!(json.matches(&format!("\"name\": \"{}\"", m.name)).count(), 1, "{}", m.name);
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    check_listed(&json, &END_TO_END);
    check_listed(&json, &PER_LAYER);
    let listed = json.matches("\"unit\":").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "no metric beyond the catalogue");
}
