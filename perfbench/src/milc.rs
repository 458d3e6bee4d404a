//! `trace-milc`: the tracer hot path.
//!
//! A 2-rank world runs the MILC su3_rmd skeleton under a default
//! `PilgrimTracer`, wrapped in a `Tracer` that times every `on_call`
//! and forwards `on_alloc`/`on_free`/`on_finalize`. Worlds run one after
//! another until the phase's time is up; the samples of all ranks and
//! worlds are pooled. Every world's merged trace must be byte-identical
//! to the reference trace of an untimed pass of the same seed, which is
//! checked with `validate()` and `verify_lossless` during set-up.

use std::time::Instant;

use mpi_sim::hooks::{CallRec, TraceCtx, Tracer};
use mpi_sim::{World, WorldConfig};
use pilgrim::{verify_lossless, CapturedCall, GlobalTrace, PilgrimConfig, PilgrimTracer};

use crate::spans::Spans;
use crate::{stats, Checks, Config, Fault, Outcome, Readback};

pub const RANKS: usize = 2;
/// su3_rmd trajectories: 172,804 traced calls per world.
pub const TRAJECTORIES: usize = 400;
/// Read-back time after each world: `readback_ms` is the median pass
/// over the whole run, not over one moment of it.
const READBACK_SLICE_S: f64 = 0.02;

/// The untimed pass: the trace every timed world must reproduce.
#[derive(Debug)]
pub struct Reference {
    pub bytes: Vec<u8>,
    pub trace: GlobalTrace,
    /// Every rank's call stream, from the reference trace.
    pub expanded: Vec<Vec<u32>>,
    pub calls: u64,
}

/// Runs one world with reference capture on, checks `validate()` and
/// `verify_lossless` against the captured call stream.
pub fn reference(seed: u64, trajectories: usize) -> Result<Reference, String> {
    let body = mpi_workloads::by_name("milc", trajectories);
    let cfg = PilgrimConfig::default().capture_reference(true);
    let mut tracers = World::run(
        &WorldConfig::new(RANKS).seed(seed),
        |rank| PilgrimTracer::new(rank, cfg),
        move |env| body(env),
    );
    let refs: Vec<Vec<CapturedCall>> = tracers.iter().map(|t| t.captured().to_vec()).collect();
    let trace = tracers[0].take_output().trace.ok_or("rank 0 holds no merged trace")?;
    let problems = trace.validate();
    if !problems.is_empty() {
        return Err(format!("reference trace invalid: {}", problems.join("; ")));
    }
    let verified = verify_lossless(&trace, &refs).map_err(|e| format!("not lossless: {e}"))?;
    Ok(Reference {
        bytes: trace.serialize(),
        expanded: trace.decode_all_ranks(),
        calls: verified.calls_checked,
        trace,
    })
}

/// Times every `on_call` of the wrapped tracer.
struct TimedTracer {
    inner: PilgrimTracer,
    rank: u64,
    samples: Vec<u32>,
    spans: Spans,
    open: bool,
}

impl Tracer for TimedTracer {
    fn on_call(&mut self, ctx: &TraceCtx<'_>, rec: &CallRec, t_start: u64, t_end: u64) {
        if !self.open {
            self.spans.enter("bench.rank", self.rank);
            self.open = true;
        }
        let inner = &mut self.inner;
        let ((), d) = self
            .spans
            .timed("tracer.on_call", self.rank, || inner.on_call(ctx, rec, t_start, t_end));
        self.samples.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    fn on_alloc(&mut self, addr: u64, size: u64) {
        self.inner.on_alloc(addr, size);
    }

    fn on_free(&mut self, addr: u64) {
        self.inner.on_free(addr);
    }

    fn on_finalize(&mut self, ctx: &TraceCtx<'_>) {
        let inner = &mut self.inner;
        self.spans.timed("tracer.on_finalize", self.rank, || inner.on_finalize(ctx));
        if self.open {
            self.spans.exit();
            self.open = false;
        }
    }
}

/// One phase's pooled on_call samples and read-back passes.
struct PhaseResult {
    on_call: stats::Histogram,
    readback: Readback,
    worlds: u64,
}

fn timed_phase(
    cfg: &Config,
    r: &Reference,
    secs: f64,
    traced: bool,
    checks: &mut Checks,
    spans: &mut Spans,
) -> PhaseResult {
    let epoch = Instant::now();
    let mut out = PhaseResult {
        on_call: stats::Histogram::default(),
        readback: Readback::default(),
        worlds: 0,
    };
    while out.worlds == 0 || epoch.elapsed().as_secs_f64() < secs {
        let body = mpi_workloads::by_name("milc", TRAJECTORIES);
        let mut tracers = World::run(
            &WorldConfig::new(RANKS).seed(cfg.seed),
            |rank| TimedTracer {
                inner: PilgrimTracer::new(rank, PilgrimConfig::default()),
                rank: rank as u64,
                samples: Vec::with_capacity(90_000),
                spans: Spans::new(traced, epoch, rank as u64 + 1),
                open: false,
            },
            move |env| body(env),
        );
        let world = out.worlds;
        out.worlds += 1;
        let trace = tracers[0].inner.take_output().trace;
        for t in tracers {
            for &ns in &t.samples {
                out.on_call.record(u64::from(ns));
            }
            spans.absorb(t.spans);
        }
        let Some(trace) = trace else {
            checks.fail(format!("world {world}: rank 0 holds no merged trace"));
            continue;
        };
        let (mut bytes, _) = spans.timed("trace.serialize", world, || trace.serialize());
        if cfg.fault == Fault::CorruptContainer && world == 0 {
            crate::corrupt(&mut bytes);
        }
        // Read side: decode + expand the reference bytes.
        match out.readback.passes_for(READBACK_SLICE_S, &r.bytes, spans, world) {
            Ok(ranks) => {
                checks
                    .check(ranks == r.expanded, || format!("world {world}: decoded calls differ"));
            }
            Err(e) => checks.fail(format!("world {world}: {e}")),
        }
        checks.check(bytes == r.bytes, || {
            format!(
                "world {world}: trace differs from the reference ({} vs {} bytes)",
                bytes.len(),
                r.bytes.len()
            )
        });
    }
    out
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut o = Outcome::new(cfg);
    let (r, setup_s) = crate::repeated_setup(|_| reference(cfg.seed, TRAJECTORIES))?;
    o.checks.check(r.trace.unique_grammars <= 2, || {
        format!("{} unique grammars, expected at most 2", r.trace.unique_grammars)
    });
    for phase in cfg.phases() {
        let mut off = Spans::off();
        let rec = if phase.traced { &mut o.spans } else { &mut off };
        let res = timed_phase(cfg, &r, phase.seconds, phase.traced, &mut o.checks, rec);
        let h = &res.on_call;
        let (Some(p50), Some(p99)) = (h.percentile(50.0), h.percentile(99.0)) else {
            return Err(format!("only {} on_call samples", h.count()));
        };
        let tag = if phase.traced { "traced" } else { "untraced" };
        o.info.push(format!(
            "{tag} phase: {} worlds, on_call samples n={} (p50, p99: {} beyond p99)",
            res.worlds,
            h.count(),
            stats::samples_beyond(h.count(), 99.0)
        ));
        let rb = &res.readback;
        if phase.traced {
            o.traced_latency_us = Some(h.trimmed_mean() / 1e3);
            o.layer.insert("tracer.calls", h.count() as f64);
            o.layer.insert("trace.decode_ms", stats::median(&rb.decode));
            o.layer.insert("decode.expand_ms", stats::median(&rb.expand));
            continue;
        }
        let readback = rb.mean_ms();
        o.info.push(format!("readback: mean of {} decode + expand passes", rb.decode.len()));
        o.e2e.insert("readback_ms", readback);
        o.named.push(("decode_calls_per_s", r.calls as f64 / (readback / 1e3)));
        o.e2e.insert("latency_mean_us", h.trimmed_mean() / 1e3);
        o.e2e.insert("latency_tail_us", p99 / 1e3);
        o.e2e.insert("calls_per_s", h.count() as f64 / h.sum() * 1e9);
        o.named.push(("call_ns_p50", p50));
        o.named.push(("call_ns_p99", p99));
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
        l.insert("merge.unique_grammars", r.trace.unique_grammars as f64);
    }
    Ok(o)
}
