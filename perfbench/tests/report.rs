//! The percentile helper's "ten samples beyond" rule, the metric
//! vocabulary, and the result line.

use perfbench::report::{self, Metrics, END_TO_END, NAMED, PER_LAYER};
use perfbench::stats::{self, Histogram, MIN_BEYOND};

#[test]
fn percentile_requires_ten_samples_beyond() {
    for p in [50.0, 90.0, 99.0] {
        for n in 1..1200usize {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let beyond = stats::samples_beyond(n, p);
            match stats::percentile(&sorted, p) {
                Some(v) => {
                    assert!(beyond >= MIN_BEYOND, "p{p} of {n} reported with {beyond} beyond");
                    let above = sorted.iter().filter(|&&x| x > v).count();
                    assert_eq!(above, beyond, "p{p} of {n}: value {v}");
                }
                None => assert!(beyond < MIN_BEYOND, "p{p} of {n} withheld with {beyond} beyond"),
            }
        }
    }
}

#[test]
fn min_samples_matches_the_rule() {
    assert_eq!(stats::min_samples(50.0), 20);
    assert_eq!(stats::min_samples(90.0), 100);
    assert_eq!(stats::min_samples(99.0), 1000);
    for p in [50.0, 90.0, 99.0] {
        let n = stats::min_samples(p);
        assert!(stats::samples_beyond(n, p) >= MIN_BEYOND);
        assert!(stats::samples_beyond(n - 1, p) < MIN_BEYOND);
    }
}

#[test]
fn histogram_agrees_with_sorted_samples() {
    // A fixed pseudo-random sample set, heavy-tailed like call latencies.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut samples = Vec::new();
    let mut h = Histogram::default();
    for _ in 0..5000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let ns = 1500 + (x % 1000) + if x.is_multiple_of(97) { x % 50_000 } else { 0 };
        samples.push(ns as f64);
        h.record(ns);
    }
    stats::sort(&mut samples);
    for p in [50.0, 90.0, 99.0, 99.9] {
        assert_eq!(h.percentile(p), stats::percentile(&samples, p), "p{p}");
    }
    let (h_mean, mean) = (h.trimmed_mean(), stats::trimmed_mean(&samples));
    assert!((h_mean - mean).abs() < 1e-9 * mean, "{h_mean} vs {mean}");
    // The slowest 1% (the spikes) is dropped.
    assert!(mean < samples.iter().sum::<f64>() / samples.len() as f64);
    assert_eq!(h.count(), samples.len());
    assert_eq!(h.sum(), samples.iter().sum::<f64>());
    let mut few = Histogram::default();
    (0..50).for_each(|i| few.record(i));
    assert_eq!(few.percentile(99.0), None);
}

#[test]
fn trimmed_mean_drops_the_slowest_share() {
    let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::trimmed_mean(&v), 50.0, "1..=99 without the top sample");
    v.push(1e9);
    v.push(1e9);
    assert!(stats::trimmed_mean(&v) > 50.0, "101 samples drop only one");
    assert_eq!(stats::trimmed_mean(&[7.0, 9.0]), 8.0);
}

#[test]
fn median_of_small_sets() {
    assert_eq!(stats::median(&[3.0]), 3.0);
    assert_eq!(stats::median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

#[test]
fn every_emitted_name_is_well_formed_and_unique() {
    for table in [END_TO_END, PER_LAYER, NAMED] {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in table {
            assert!(report::valid_name(name), "bad metric name {name:?}");
            assert!(name.len() <= 64, "metric name {name:?} too long");
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name:?} must start alnum");
            assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
    }
    // Every per-layer metric belongs to a layer that reports a self time.
    for (name, _) in PER_LAYER {
        let layer = name.split('.').next().unwrap_or("");
        let self_ms = format!("{layer}.self_ms");
        assert!(PER_LAYER.iter().any(|(n, _)| *n == self_ms), "{name}: no {self_ms}");
    }
    assert!(!report::valid_name("bad name"));
    assert!(!report::valid_name(""));
    assert!(!report::valid_name("a{b}"));
}

#[test]
fn result_line_has_exactly_the_table_metrics() {
    let values: Metrics = END_TO_END.iter().enumerate().map(|(i, &(n, _))| (n, i as f64)).collect();
    let line = report::result_json(true, 10, 0, END_TO_END, &values).expect("complete");
    assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
    assert_eq!(line.matches("\"value\":").count(), END_TO_END.len());
    for &(name, unit) in END_TO_END {
        assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name} missing");
        assert!(line.contains(&format!("\"unit\":\"{unit}\"")), "{unit} missing");
    }
    let mut missing = values.clone();
    missing.remove("setup_s");
    assert!(report::result_json(true, 1, 0, END_TO_END, &missing).is_err());
    let mut nan = values;
    nan.insert("setup_s", f64::NAN);
    assert!(report::result_json(true, 1, 0, END_TO_END, &nan).is_err());
}

/// Pulls `"key": "value"` string fields out of a JSON text, in order.
fn string_fields<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find(&pat) {
        rest = &rest[i + pat.len()..];
        let open = rest.find('"').expect("a string value");
        let close = rest[open + 1..].find('"').expect("a closed string") + open + 1;
        out.push(&rest[open + 1..close]);
        rest = &rest[close + 1..];
    }
    out
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let names = string_fields(&json, "name");
    let units = string_fields(&json, "unit");
    let workloads = &names[..names.len() - units.len()];
    assert_eq!(workloads, perfbench::WORKLOADS);
    let metrics: Vec<(&str, &str)> =
        names[workloads.len()..].iter().copied().zip(units.iter().copied()).collect();
    let expected: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    assert_eq!(metrics, expected);
}
