//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--inject-fault corrupt-container]`
//!
//! Prints a header, the workload's named metrics and, as the last line,
//! one JSON object: end-to-end metrics with `--trace 0`, per-layer
//! metrics (self times and tracing overhead included) with `--trace 1`.
//! Exits 1 when any correctness check failed, 2 on bad arguments.

use std::path::{Path, PathBuf};
use std::process::exit;

use perfbench::report::{self, Metrics, END_TO_END, NAMED, PER_LAYER};
use perfbench::{cellular, milc, wire, Config, Fault, Outcome, WORKLOADS};

/// Scratch space and span output, relative to the working directory.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: String,
    cfg: Config,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         [--inject-fault corrupt-container]",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let workload = get("--workload").unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed").map_or(Ok(1), str::parse).unwrap_or_else(|_| usage("bad --seed"));
    let seconds: f64 =
        get("--seconds").map_or(Ok(10.0), str::parse).unwrap_or_else(|_| usage("bad --seconds"));
    if !(seconds > 0.0 && seconds.is_finite()) {
        usage("--seconds must be positive");
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let fault = match get("--inject-fault") {
        None => Fault::None,
        Some("corrupt-container") => Fault::CorruptContainer,
        Some(other) => usage(&format!("unknown fault {other:?}")),
    };
    let work_dir = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
    Args { workload: workload.to_string(), cfg: Config { seed, seconds, trace, fault, work_dir } }
}

fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    match workload {
        "trace-milc" => milc::run(cfg),
        "merge-cellular" => cellular::run(cfg),
        "collect-wire" => wire::run(cfg),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

/// Writes the kept spans of a traced run next to the work directories.
fn write_spans(o: &Outcome, workload: &str, seed: u64) -> Option<PathBuf> {
    let dir = Path::new(WORK_ROOT).join("spans");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{workload}-seed{seed}-{}.csv", std::process::id()));
    o.spans.write_csv(&path).ok()?;
    Some(path)
}

fn main() {
    let Args { workload, cfg } = parse_args();
    let timer_ns = report::timer_ns();
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        exit(1);
    }
    let result = run(&workload, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let mut o = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            exit(1);
        }
    };
    let rss = report::peak_rss_mb().unwrap_or(0.0);
    o.e2e.insert("peak_rss_mb", rss);
    o.named.push(("peak_rss_mb", rss));
    o.named.push(("error_rate", o.checks.error_rate()));

    println!(
        "# perfbench workload={workload} seed={} seconds={} trace={} nproc={} bench.timer_ns={timer_ns:.1}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        report::nproc()
    );
    for line in &o.info {
        println!("# {line}");
    }
    for (name, value) in &o.named {
        let unit = report::unit_of(NAMED, name).unwrap_or("?");
        println!("{name} {value} {unit}");
    }
    for p in &o.checks.problems {
        println!("# FAILED: {p}");
    }

    let (table, values): (_, Metrics) = if cfg.trace {
        let mut l: Metrics = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
        l.extend(o.layer.iter().map(|(k, v)| (*k, *v)));
        l.insert("bench.timer_ns", timer_ns);
        for &(name, _) in PER_LAYER {
            if let Some(layer) = name.strip_suffix(".self_ms") {
                l.insert(name, o.spans.self_ms(layer));
            }
        }
        let untraced = o.e2e.get("latency_mean_us").copied().unwrap_or(f64::NAN);
        let traced = o.traced_latency_us.unwrap_or(f64::NAN);
        let overhead = (traced / untraced - 1.0) * 100.0;
        println!(
            "# tracing overhead: latency_mean_us {untraced} untraced vs {traced} traced ({overhead:+.2}%)"
        );
        l.insert("bench.trace_overhead_pct", overhead);
        for &(name, unit) in PER_LAYER {
            println!("{name} {} {unit}", l[name]);
        }
        let counts: Vec<String> = o.spans.counts().map(|(n, c)| format!("{n}={c}")).collect();
        println!("# span counts: {}", counts.join(" "));
        match write_spans(&o, &workload, cfg.seed) {
            Some(p) => println!(
                "# spans: {} recorded, {} kept in {}",
                o.spans.total(),
                o.spans.total() - o.spans.dropped(),
                p.display()
            ),
            None => println!("# spans: could not be written"),
        }
        (PER_LAYER, l)
    } else {
        for &(name, unit) in END_TO_END {
            println!("{name} {} {unit}", o.e2e.get(name).copied().unwrap_or(f64::NAN));
        }
        (END_TO_END, o.e2e.clone())
    };
    let correct = o.checks.failed == 0 && o.checks.attempted > 0;
    match report::result_json(correct, o.checks.attempted, o.checks.failed, table, &values) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
    if !correct {
        exit(1);
    }
}
