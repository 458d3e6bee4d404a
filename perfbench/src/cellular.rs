//! `merge-cellular`: the finalize merge and the trace read path.
//!
//! Set-up runs the FLASH Cellular AMR skeleton once as a 32-rank world
//! streaming into a capturing `SegmentSink` (with reference capture on,
//! so the folded trace is checked with `validate()` and
//! `verify_lossless`). The timed loop then folds the captured segments
//! and completions into a fresh `IncrementalMerger` once per job —
//! every segment, every completion, `finalize`, `serialize` — and reads
//! the bytes back with `GlobalTrace::decode` + `decode_all_ranks`. Each
//! fold's bytes and expanded call streams must equal the reference's.

use std::time::{Duration, Instant};

use pilgrim::{verify_lossless, CapturedCall, GlobalTrace, PilgrimConfig};

use crate::spans::Spans;
use crate::{stats, CapturedJob, Checks, Config, Fault, Outcome, Readback};

pub const RANKS: usize = 32;
/// Cellular iterations: ~74 KB trace, one unique grammar per rank.
pub const ITERS: usize = 100;

/// The captured job and its checked reference fold.
#[derive(Debug)]
pub struct Reference {
    pub job: CapturedJob,
    pub bytes: Vec<u8>,
    pub unique_grammars: usize,
    pub expanded: Vec<Vec<u32>>,
    pub trace: GlobalTrace,
}

/// Captures the 32-rank world and checks its fold.
pub fn reference(seed: u64, ranks: usize, iters: usize) -> Result<Reference, String> {
    let body = mpi_workloads::by_name("cellular", iters);
    let cfg = PilgrimConfig::default().capture_reference(true);
    let (job, tracers) = CapturedJob::capture(ranks, seed, cfg, move |env| body(env));
    let refs: Vec<Vec<CapturedCall>> = tracers.iter().map(|t| t.captured().to_vec()).collect();
    drop(tracers);
    let trace = job.fold()?;
    let problems = trace.validate();
    if !problems.is_empty() {
        return Err(format!("reference fold invalid: {}", problems.join("; ")));
    }
    verify_lossless(&trace, &refs).map_err(|e| format!("not lossless: {e}"))?;
    Ok(Reference {
        bytes: trace.serialize(),
        unique_grammars: trace.unique_grammars,
        expanded: trace.decode_all_ranks(),
        job,
        trace,
    })
}

#[derive(Default)]
struct PhaseResult {
    merge: Vec<f64>,
    accept: Vec<Duration>,
    complete: Vec<Duration>,
    finalize: Vec<f64>,
    serialize: Vec<f64>,
    readback: Readback,
    merge_total: Duration,
    folds: u64,
}

/// Folds at least this many jobs, so `merge_ms_p90` has ten samples
/// beyond it.
fn min_folds() -> usize {
    stats::min_samples(90.0)
}

fn timed_phase(
    cfg: &Config,
    r: &Reference,
    secs: f64,
    checks: &mut Checks,
    spans: &mut Spans,
) -> Result<PhaseResult, String> {
    let epoch = Instant::now();
    let mut out = PhaseResult::default();
    while (out.merge.len() < min_folds()) || epoch.elapsed().as_secs_f64() < secs {
        let fold = out.folds;
        out.folds += 1;
        let done = r.job.done.clone();
        spans.enter("bench.fold", fold);
        let folded = crate::timed_fold(&r.job, done, spans, fold);
        let (mut bytes, t) = match folded {
            Ok(f) => f,
            Err(e) => {
                spans.exit();
                checks.fail(format!("fold {fold}: {e}"));
                continue;
            }
        };
        if cfg.fault == Fault::CorruptContainer && fold == 0 {
            crate::corrupt(&mut bytes);
        }
        if !checks.check(bytes == r.bytes, || format!("fold {fold}: serialized trace differs")) {
            spans.exit();
            continue;
        }
        let ranks =
            out.readback.pass(&bytes, spans, fold).map_err(|e| format!("fold {fold}: {e}"))?;
        spans.exit();
        checks.check(ranks == r.expanded, || format!("fold {fold}: expanded calls differ"));
        out.merge.push(crate::ms(t.total));
        out.merge_total += t.total;
        out.accept.extend(t.accept);
        out.complete.extend(t.complete);
        out.finalize.push(crate::ms(t.finalize));
        out.serialize.push(crate::ms(t.serialize));
    }
    Ok(out)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut o = Outcome::new(cfg);
    let (r, setup_s) = crate::repeated_setup(|_| reference(cfg.seed, RANKS, ITERS))?;
    o.checks.check(r.unique_grammars == RANKS, || {
        format!("{} unique grammars, expected one per rank ({RANKS})", r.unique_grammars)
    });
    let calls: u64 = r.job.calls();
    o.info.push(format!(
        "job: {RANKS} ranks, {} segments, {calls} calls, {} trace bytes",
        r.job.segs.len(),
        r.bytes.len()
    ));
    for phase in cfg.phases() {
        let mut off = Spans::off();
        let rec = if phase.traced { &mut o.spans } else { &mut off };
        let mut res = timed_phase(cfg, &r, phase.seconds, &mut o.checks, rec)?;
        let m = stats::summarize(&mut res.merge, 90.0)
            .ok_or_else(|| format!("only {} merge folds", res.merge.len()))?;
        let tag = if phase.traced { "traced" } else { "untraced" };
        o.info.push(format!(
            "{tag} phase: merge folds n={} (p50, p90: {} beyond p90)",
            m.n,
            stats::samples_beyond(m.n, 90.0)
        ));
        if phase.traced {
            o.traced_latency_us = Some(m.mean * 1e3);
            let l = &mut o.layer;
            l.insert("merge.accept_us_p50", stats::median(&crate::us_samples(&res.accept)));
            l.insert("merge.complete_us_p50", stats::median(&crate::us_samples(&res.complete)));
            l.insert("merge.finalize_ms", stats::median(&res.finalize));
            l.insert("trace.serialize_ms", stats::median(&res.serialize));
            l.insert("trace.decode_ms", stats::median(&res.readback.decode));
            l.insert("decode.expand_ms", stats::median(&res.readback.expand));
            continue;
        }
        let decode = res.readback.mean_ms();
        let calls_per_s = (calls * res.merge.len() as u64) as f64 / res.merge_total.as_secs_f64();
        o.e2e.insert("latency_mean_us", m.mean * 1e3);
        o.e2e.insert("latency_tail_us", m.tail * 1e3);
        o.e2e.insert("calls_per_s", calls_per_s);
        o.e2e.insert("readback_ms", decode);
        o.named.push(("merge_ms_p50", m.p50));
        o.named.push(("merge_ms_p90", m.tail));
        o.named.push(("decode_calls_per_s", calls as f64 / (decode / 1e3)));
        let passes = res.readback.decode.len();
        o.info.push(format!("readback: mean of {passes} decode + expand passes"));
    }
    o.e2e.insert("trace_bytes", r.bytes.len() as f64);
    o.e2e.insert("setup_s", setup_s);
    o.named.push(("trace_bytes", r.bytes.len() as f64));
    o.named.push(("setup_s", setup_s));

    if cfg.trace {
        let (observe_ns, sigs) = crate::replay_cst(&r.trace, &r.expanded, &mut o.spans);
        let (push_ns, rules) = crate::replay_sequitur(&r.expanded, &mut o.spans);
        let l = &mut o.layer;
        l.insert("cst.observe_ns", observe_ns);
        l.insert("cst.signatures", sigs);
        l.insert("sequitur.push_ns", push_ns);
        l.insert("sequitur.rules", rules);
        l.insert("merge.unique_grammars", r.unique_grammars as f64);
    }
    Ok(o)
}
