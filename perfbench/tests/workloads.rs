//! Seed handling, the counts that show each workload stresses what it
//! was chosen for, and injected faults failing the run. Run with
//! `cargo test --release` from this directory: the workloads run at
//! their benchmark size.

use std::path::PathBuf;

use perfbench::{cellular, milc, wire, Config, Fault};

fn hash(bytes: &[u8]) -> [u8; 32] {
    pilgrim::auth::sha256(bytes)
}

fn config(tag: &str, seed: u64, trace: bool, fault: Fault) -> Config {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-test-{tag}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("work dir");
    Config { seed, seconds: 0.2, trace, fault, work_dir }
}

#[test]
fn milc_same_seed_same_trace_and_other_seeds_lossless() {
    let a = milc::reference(7, milc::TRAJECTORIES).expect("seed 7 is lossless");
    let b = milc::reference(7, milc::TRAJECTORIES).expect("seed 7 again");
    assert_eq!(a.bytes.len(), b.bytes.len(), "trace_bytes must repeat for a seed");
    assert_eq!(hash(&a.bytes), hash(&b.bytes), "serialized trace must repeat for a seed");
    // `reference` fails unless validate() is clean and verify_lossless
    // passes against the captured call stream.
    milc::reference(8, milc::TRAJECTORIES).expect("seed 8 is lossless");
    assert!(a.trace.unique_grammars <= 2, "{} unique grammars", a.trace.unique_grammars);
}

#[test]
fn cellular_same_seed_same_trace_and_one_grammar_per_rank() {
    let a = cellular::reference(7, cellular::RANKS, cellular::ITERS).expect("seed 7");
    let b = cellular::reference(7, cellular::RANKS, cellular::ITERS).expect("seed 7 again");
    assert_eq!(a.bytes.len(), b.bytes.len());
    assert_eq!(hash(&a.bytes), hash(&b.bytes));
    cellular::reference(8, cellular::RANKS, cellular::ITERS).expect("seed 8 is lossless");
    assert_eq!(a.unique_grammars, cellular::RANKS, "AMR churn gives every rank its grammar");
    assert_eq!(a.job.segs.len(), cellular::RANKS, "few, large segments: one per rank");
}

#[test]
fn wire_same_seed_same_job_and_many_segments_per_rank() {
    let a = wire::reference(7).expect("seed 7");
    let b = wire::reference(7).expect("seed 7 again");
    assert_eq!(hash(&a.bytes), hash(&b.bytes));
    assert_eq!(a.job.segs, b.job.segs, "the captured segments repeat for a seed");
    wire::reference(8).expect("seed 8 is lossless");
    let (_, fewest) = a.job.segments_per_rank();
    assert!(fewest > 1, "each rank must stream several sealed segments, got {fewest}");
}

#[test]
fn wire_run_sheds_nothing_and_recovers_every_job() {
    let cfg = config("wire", 3, true, Fault::None);
    let o = wire::run(&cfg).expect("collect-wire runs");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    assert_eq!(o.checks.failed, 0, "{:?}", o.checks.problems);
    assert_eq!(o.layer["net.sheds"], 0.0, "the workload measures ingest, not rejection");
    assert_eq!(o.layer["recover.jobs"], wire::DURABLE_JOBS as f64);
    assert!(o.layer["net.wal_bytes"] > 0.0);
}

#[test]
fn corrupt_container_fails_every_workload() {
    type Run = fn(&Config) -> Result<perfbench::Outcome, String>;
    let runs: [(&str, Run); 3] =
        [("milc", milc::run), ("cellular", cellular::run), ("wire", wire::run)];
    for (tag, run) in runs {
        let cfg = config(tag, 5, false, Fault::CorruptContainer);
        let o = run(&cfg).expect("the run completes");
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
        assert!(o.checks.failed > 0, "{tag}: a corrupted container went unnoticed");
        assert!(o.checks.error_rate() > 0.0);
    }
}
