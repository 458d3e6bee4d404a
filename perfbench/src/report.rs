//! Metric vocabulary, run header and the one-line JSON result.
//!
//! Every run prints human-readable lines first and the JSON object last:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! An untraced run's metrics are exactly [`END_TO_END`]; a traced run's
//! are exactly [`PER_LAYER`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric, reported on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_mean_us", "us"),
    ("latency_tail_us", "us"),
    ("calls_per_s", "calls/s"),
    ("readback_ms", "ms"),
    ("trace_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, reported on every workload
/// by a traced run. A layer a workload does not exercise reads 0. The
/// `<layer>.self_ms` entries name the layers; `bench` is the
/// benchmark's own load-generating code.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tracer.calls", "count"),
    ("cst.observe_ns", "ns"),
    ("cst.signatures", "count"),
    ("sequitur.push_ns", "ns"),
    ("sequitur.rules", "count"),
    ("merge.accept_us_p50", "us"),
    ("merge.complete_us_p50", "us"),
    ("merge.finalize_ms", "ms"),
    ("merge.unique_grammars", "count"),
    ("trace.serialize_ms", "ms"),
    ("trace.decode_ms", "ms"),
    ("decode.expand_ms", "ms"),
    ("net.push_us_p90", "us"),
    ("net.frames", "count"),
    ("net.acks", "count"),
    ("net.wal_bytes", "bytes"),
    ("net.sheds", "count"),
    ("net.frame_codec_ns", "ns"),
    ("auth.mac_ns_per_kb", "ns/KB"),
    ("wal.append_us_p50", "us"),
    ("wal.append_us_p90", "us"),
    ("recover.jobs", "count"),
    ("bench.timer_ns", "ns"),
    ("tracer.self_ms", "ms"),
    ("cst.self_ms", "ms"),
    ("sequitur.self_ms", "ms"),
    ("merge.self_ms", "ms"),
    ("trace.self_ms", "ms"),
    ("decode.self_ms", "ms"),
    ("net.self_ms", "ms"),
    ("auth.self_ms", "ms"),
    ("wal.self_ms", "ms"),
    ("recover.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// `(name, unit)` of the workload-specific metrics printed as report
/// lines (not part of the JSON result). Each workload prints the ones
/// that apply to it.
pub const NAMED: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trace_bytes", "bytes"),
    ("call_ns_p50", "ns"),
    ("call_ns_p99", "ns"),
    ("merge_ms_p50", "ms"),
    ("merge_ms_p90", "ms"),
    ("decode_calls_per_s", "calls/s"),
    ("ingest_calls_per_s", "calls/s"),
    ("commit_ms_p50", "ms"),
    ("commit_ms_p90", "ms"),
    ("recover_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "fraction"),
];

/// Metric names are `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// Looks up the unit of `name` in a `(name, unit)` table.
pub fn unit_of(table: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Named metric values; units come from the tables above.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Renders the final result line. Metrics are emitted in `table` order
/// and every table entry must be present.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&'static str, &'static str)],
    values: &Metrics,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let v = *values.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(v)));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        parts.join(",")
    ))
}

/// A finite float as a JSON number with every digit Rust round-trips.
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cost of the `Instant::now()` + `elapsed()` pair the benchmark wraps
/// around every timed call, in ns: the median of 21 batches.
pub fn timer_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            let outer = Instant::now();
            for _ in 0..BATCH {
                let t = Instant::now();
                black_box(t.elapsed());
            }
            outer.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    crate::stats::median(&batches)
}
