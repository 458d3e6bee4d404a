//! One benchmark for the pilgrim tracer hot path, the finalize merge and
//! the durable `PNT1` collector.
//!
//! Three closed-loop workloads, each driven from one thread of this
//! process through the library's public API only:
//!
//! * [`milc`] (`trace-milc`) — `PilgrimTracer::on_call` latency on a
//!   2-rank MILC world;
//! * [`cellular`] (`merge-cellular`) — `IncrementalMerger` folds of a
//!   32-rank FLASH Cellular capture, then decode + expand;
//! * [`wire`] (`collect-wire`) — authenticated loopback ingest into a
//!   durable `serve` collector, then `recover_dir`.
//!
//! `README.md` in this directory lists every metric, the layer it
//! belongs to and the end-to-end metric it should move.

pub mod cellular;
pub mod milc;
pub mod report;
pub mod spans;
pub mod stats;
pub mod wire;

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pilgrim::{
    GlobalTrace, IncrementalMerger, PilgrimConfig, PilgrimTracer, RankCompletion, SegmentSink,
    TraceSegment,
};
use pilgrim_sequitur::Grammar;

use report::Metrics;
use spans::Spans;

/// Times the whole set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Workload names, as given to `--workload`.
pub const WORKLOADS: &[&str] = &["trace-milc", "merge-cellular", "collect-wire"];

/// A correctness fault injected on purpose, to prove the checks fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Flip one byte of a serialized trace or delivered container.
    CorruptContainer,
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub fault: Fault,
    /// Scratch directory for spill directories and side files; removed
    /// by the caller when the run ends.
    pub work_dir: PathBuf,
}

/// One timed phase of a run.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub seconds: f64,
    pub traced: bool,
}

impl Config {
    /// An untraced run is one untraced phase; a traced run splits its
    /// time into an untraced and a traced phase, so the tracing overhead
    /// is measured in the same process.
    pub fn phases(&self) -> Vec<Phase> {
        if self.trace {
            let half = self.seconds / 2.0;
            vec![Phase { seconds: half, traced: false }, Phase { seconds: half, traced: true }]
        } else {
            vec![Phase { seconds: self.seconds, traced: false }]
        }
    }
}

/// Correctness bookkeeping: every checked operation is attempted, every
/// failed check is a failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// Counts an operation that was attempted and failed.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What a workload hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics from the untraced phase.
    pub e2e: Metrics,
    /// `latency_mean_us` of the traced phase, when there was one.
    pub traced_latency_us: Option<f64>,
    /// Per-layer metrics this workload measured (the rest read 0).
    pub layer: Metrics,
    /// Workload-specific named metrics, printed as report lines.
    pub named: Vec<(&'static str, f64)>,
    /// Header lines: sample counts behind each percentile and the like.
    pub info: Vec<String>,
    pub checks: Checks,
    pub spans: Spans,
}

impl Outcome {
    /// An empty outcome whose span recorder records when `cfg.trace`.
    pub fn new(cfg: &Config) -> Outcome {
        Outcome {
            e2e: Metrics::new(),
            traced_latency_us: None,
            layer: Metrics::new(),
            named: Vec::new(),
            info: Vec::new(),
            checks: Checks::default(),
            spans: Spans::new(cfg.trace, Instant::now(), 0),
        }
    }
}

/// Runs `f` [`SETUP_REPS`] times; returns the last result and the
/// median set-up time in seconds.
pub fn repeated_setup<T>(
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut last = None;
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(f(rep)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up rep"), stats::median(&secs)))
}

/// A [`SegmentSink`] that keeps everything a world streams.
#[derive(Debug, Default)]
pub struct Capture {
    segs: Mutex<Vec<TraceSegment>>,
    done: Mutex<Vec<RankCompletion>>,
}

impl SegmentSink for Capture {
    fn push_segment(&self, seg: TraceSegment) {
        self.segs.lock().expect("capture lock poisoned").push(seg);
    }

    fn complete_rank(&self, done: RankCompletion) {
        self.done.lock().expect("capture lock poisoned").push(done);
    }
}

/// A captured job: segments sorted by `(rank, seq)`, completions by rank.
#[derive(Debug, Clone)]
pub struct CapturedJob {
    pub nranks: usize,
    pub segs: Vec<TraceSegment>,
    pub done: Vec<RankCompletion>,
}

impl CapturedJob {
    /// Runs `body` on `nranks` ranks streaming into a capture; returns
    /// the job and the tracers (for their reference capture).
    pub fn capture<B>(
        nranks: usize,
        seed: u64,
        cfg: PilgrimConfig,
        body: B,
    ) -> (CapturedJob, Vec<PilgrimTracer>)
    where
        B: Fn(&mut mpi_sim::Env) + Send + Sync + 'static,
    {
        let capture = Arc::new(Capture::default());
        let sink: Arc<dyn SegmentSink> = capture.clone();
        let tracers = mpi_sim::World::run(
            &mpi_sim::WorldConfig::new(nranks).seed(seed),
            |rank| PilgrimTracer::new(rank, cfg).with_segment_sink(sink.clone()),
            body,
        );
        let mut segs = std::mem::take(&mut *capture.segs.lock().expect("capture lock poisoned"));
        let mut done = std::mem::take(&mut *capture.done.lock().expect("capture lock poisoned"));
        segs.sort_by_key(|s| (s.rank, s.seq));
        done.sort_by_key(|d| d.rank);
        (CapturedJob { nranks, segs, done }, tracers)
    }

    /// Folds the job through a fresh merger, untimed.
    pub fn fold(&self) -> Result<GlobalTrace, String> {
        let mut m = IncrementalMerger::new(self.nranks);
        for s in &self.segs {
            m.accept_segment(s).map_err(|e| format!("segment {}/{}: {e}", s.rank, s.seq))?;
        }
        for d in &self.done {
            m.complete_rank(d.clone()).map_err(|e| format!("complete {}: {e}", d.rank))?;
        }
        Ok(m.finalize())
    }

    /// Total traced calls across ranks.
    pub fn calls(&self) -> u64 {
        self.done.iter().map(|d| d.call_count).sum()
    }

    /// Most sealed segments any rank streamed, and the fewest.
    pub fn segments_per_rank(&self) -> (usize, usize) {
        let per: Vec<usize> =
            (0..self.nranks).map(|r| self.segs.iter().filter(|s| s.rank == r).count()).collect();
        (per.iter().copied().max().unwrap_or(0), per.iter().copied().min().unwrap_or(0))
    }
}

/// Per-fold timings of one [`timed_fold`].
#[derive(Debug, Default, Clone)]
pub struct FoldTimes {
    pub accept: Vec<Duration>,
    pub complete: Vec<Duration>,
    pub finalize: Duration,
    pub serialize: Duration,
    /// Segments in to serialized bytes out.
    pub total: Duration,
}

/// Folds `job` through a fresh `IncrementalMerger` — every
/// `accept_segment`, every `complete_rank`, `finalize`, `serialize` —
/// timing each call. `done` is consumed so no clone is timed.
pub fn timed_fold(
    job: &CapturedJob,
    done: Vec<RankCompletion>,
    spans: &mut Spans,
    rid: u64,
) -> Result<(Vec<u8>, FoldTimes), String> {
    let mut t = FoldTimes::default();
    let start = Instant::now();
    let mut m = IncrementalMerger::new(job.nranks);
    for s in &job.segs {
        let (r, d) = spans.timed("merge.accept_segment", rid, || m.accept_segment(s));
        r.map_err(|e| format!("segment {}/{}: {e}", s.rank, s.seq))?;
        t.accept.push(d);
    }
    for c in done {
        let rank = c.rank;
        let (r, d) = spans.timed("merge.complete_rank", rid, || m.complete_rank(c));
        r.map_err(|e| format!("complete {rank}: {e}"))?;
        t.complete.push(d);
    }
    let (trace, d) = spans.timed("merge.finalize", rid, || m.finalize());
    t.finalize = d;
    let (bytes, d) = spans.timed("trace.serialize", rid, || trace.serialize());
    t.serialize = d;
    t.total = start.elapsed();
    Ok((bytes, t))
}

/// Flips one byte in the middle of `bytes`.
pub fn corrupt(bytes: &mut [u8]) {
    if let Some(b) = bytes.get_mut(bytes.len() / 2) {
        *b ^= 0x5A;
    }
}

/// Reps of each replay; the median is reported.
const REPLAY_REPS: usize = 3;

/// Replays each rank's signature stream (taken from the trace's CST,
/// in call order) through `Cst::observe` into a fresh table. Returns ns
/// per observe and the signatures of the merged table.
pub fn replay_cst(trace: &GlobalTrace, ranks: &[Vec<u32>], spans: &mut Spans) -> (f64, f64) {
    let streams: Vec<Vec<(&[u8], u64)>> = ranks
        .iter()
        .map(|terms| {
            terms
                .iter()
                .map(|&t| (trace.cst.signature(t), trace.cst.stats(t).avg_duration() as u64))
                .collect()
        })
        .collect();
    let calls: usize = streams.iter().map(Vec::len).sum();
    let per_rep: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let mut ns = 0u128;
            for (rank, stream) in streams.iter().enumerate() {
                let mut cst = pilgrim::Cst::new();
                let ((), d) = spans.timed("cst.observe", rank as u64, || {
                    for &(sig, dur) in stream {
                        black_box(cst.observe(sig, dur));
                    }
                });
                ns += d.as_nanos();
                black_box(cst.len());
            }
            ns as f64 / calls.max(1) as f64
        })
        .collect();
    (stats::median(&per_rep), trace.cst.len() as f64)
}

/// Replays each rank's terminal stream through `Grammar::push`. Returns
/// ns per push and the rules of the replayed grammars, summed over ranks.
pub fn replay_sequitur(ranks: &[Vec<u32>], spans: &mut Spans) -> (f64, f64) {
    let calls: usize = ranks.iter().map(Vec::len).sum();
    let mut rules = 0usize;
    let per_rep: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let mut ns = 0u128;
            rules = 0;
            for (rank, terms) in ranks.iter().enumerate() {
                let mut g = Grammar::new();
                let ((), d) = spans.timed("sequitur.push", rank as u64, || {
                    for &t in terms {
                        g.push(black_box(t));
                    }
                });
                ns += d.as_nanos();
                rules += g.num_rules();
            }
            ns as f64 / calls.max(1) as f64
        })
        .collect();
    (stats::median(&per_rep), rules as f64)
}

/// Decode + expand timings, accumulated pass by pass so a workload can
/// spread its read-back passes over the whole run.
#[derive(Debug, Default)]
pub struct Readback {
    /// `GlobalTrace::decode` times, in ms.
    pub decode: Vec<f64>,
    /// `decode_all_ranks` times, in ms.
    pub expand: Vec<f64>,
}

impl Readback {
    /// Decodes `bytes` and expands every rank; returns the expansion.
    pub fn pass(
        &mut self,
        bytes: &[u8],
        spans: &mut Spans,
        rid: u64,
    ) -> Result<Vec<Vec<u32>>, String> {
        let (trace, d) = spans.timed("trace.decode", rid, || GlobalTrace::decode(bytes));
        let trace = trace.map_err(|e| format!("decode: {e}"))?;
        self.decode.push(ms(d));
        let (ranks, d) = spans.timed("decode.expand", rid, || trace.decode_all_ranks());
        self.expand.push(ms(d));
        Ok(ranks)
    }

    /// Passes for at least `secs` (and at least one).
    pub fn passes_for(
        &mut self,
        secs: f64,
        bytes: &[u8],
        spans: &mut Spans,
        rid: u64,
    ) -> Result<Vec<Vec<u32>>, String> {
        let start = Instant::now();
        loop {
            let ranks = self.pass(bytes, spans, rid)?;
            if start.elapsed().as_secs_f64() >= secs {
                return Ok(ranks);
            }
        }
    }

    /// Trimmed mean decode + expand time of one pass, in ms.
    pub fn mean_ms(&self) -> f64 {
        let both: Vec<f64> = self.decode.iter().zip(&self.expand).map(|(d, e)| d + e).collect();
        stats::trimmed_mean(&both)
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Durations as microsecond samples.
pub fn us_samples(ds: &[Duration]) -> Vec<f64> {
    ds.iter().map(|&d| us(d)).collect()
}
