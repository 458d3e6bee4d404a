//! `collect-wire`: authenticated ingest over `PNT1`, then the durable
//! collector and its recovery.
//!
//! Set-up captures a 2-rank NPB MG job under a governor memory budget,
//! so each rank streams many small sealed segments, and starts two
//! in-process `serve` collectors on loopback, both with HMAC auth and
//! [`SHARDS`] shards:
//!
//! * the **wire** collector has no spill directory, like `pilgrimd serve`
//!   without `--out`: frames are acked once dispatched. The timed phase
//!   runs against it.
//! * the **durable** collector is configured like `pilgrimd serve --out
//!   DIR`: per-connection ack-after-durable WALs plus delivered
//!   containers. A fixed [`DURABLE_JOBS`] jobs run against it after the
//!   timed phase; then every delivered container is read back and
//!   `recover_dir` runs over the spill directory.
//!
//! The durable commit is not the timed phase because on the host this
//! benchmark was sized on (2-core VM, ext4 on a shared virtual disk) its
//! per-run median swung by 17–31% (IQR ÷ median over 5 runs), wider than
//! any bound the benchmark may fix; its figures are printed as report
//! lines instead.
//!
//! One load thread with one authenticated `NetClient` per collector
//! replays the job as a sequence of jobs, [`IN_FLIGHT`] at a time,
//! pushing one segment of each in turn; a new job opens when one
//! commits. Every job must be delivered with a lossless verdict and
//! recover byte-identical to the same segments folded locally.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mpi_sim::{World, WorldConfig};
use pilgrim::net::NetFrame;
use pilgrim::recover::recover_dir;
use pilgrim::wal::{split_frame, WalRecord, WalWriter};
use pilgrim::{
    serve, verify_lossless, AuthKey, CapturedCall, GlobalTrace, IngestConfig, IngestSession,
    MacState, NetClient, NetClientConfig, NetJobHandle, NetServerConfig, NetServerStats,
    PilgrimConfig, PilgrimTracer, RecoveryState, SegmentSink, ServeHandle,
};

use crate::spans::Spans;
use crate::{stats, CapturedJob, Checks, Config, Fault, Outcome, Readback};

pub const RANKS: usize = 2;
pub const WORKLOAD: &str = "mg";
pub const ITERS: usize = 60;
/// Governor budget of the captured job: 39 sealed segments per rank.
pub const BUDGET: usize = 20_000;
/// Jobs open at once on the one connection.
pub const IN_FLIGHT: usize = 3;
/// Collector shards, as `pilgrimd serve` defaults to.
pub const SHARDS: usize = 4;
/// Jobs delivered to the durable collector: enough for a p90 with ten
/// samples beyond it, and a spill directory of the same size every run.
pub const DURABLE_JOBS: usize = 100;
/// Timed `recover_dir` passes behind `recover_ms`, after one untimed
/// pass that warms the page cache and the allocator.
const RECOVER_REPS: usize = 5;
/// Replays of the captured job through the per-layer side paths.
const REPLAY_REPS: usize = 3;

/// The captured job, its push order and its locally folded reference.
#[derive(Debug)]
pub struct Reference {
    pub job: CapturedJob,
    /// Indices into `job.segs`, round-robin over ranks by sequence.
    pub order: Vec<usize>,
    pub bytes: Vec<u8>,
    pub calls: u64,
}

/// Captures the budgeted job and checks its local fold against the
/// call stream of an unbudgeted reference-capture pass of the same seed.
pub fn reference(seed: u64) -> Result<Reference, String> {
    let body = mpi_workloads::by_name(WORKLOAD, ITERS);
    let cfg = PilgrimConfig::default().memory_budget(BUDGET);
    let (job, _) = CapturedJob::capture(RANKS, seed, cfg, move |env| body(env));
    let body = mpi_workloads::by_name(WORKLOAD, ITERS);
    let cfg = PilgrimConfig::default().capture_reference(true);
    let tracers = World::run(
        &WorldConfig::new(RANKS).seed(seed),
        |rank| PilgrimTracer::new(rank, cfg),
        move |env| body(env),
    );
    let refs: Vec<Vec<CapturedCall>> = tracers.iter().map(|t| t.captured().to_vec()).collect();
    drop(tracers);
    let trace = job.fold()?;
    let problems = trace.validate();
    if !problems.is_empty() {
        return Err(format!("local fold invalid: {}", problems.join("; ")));
    }
    verify_lossless(&trace, &refs).map_err(|e| format!("not lossless: {e}"))?;
    let mut order: Vec<usize> = (0..job.segs.len()).collect();
    order.sort_by_key(|&i| (job.segs[i].seq, job.segs[i].rank));
    Ok(Reference { calls: job.calls(), bytes: trace.serialize(), order, job })
}

/// A running collector and the one client connected to it.
pub struct Collector {
    /// Spill directory of a durable collector.
    pub dir: Option<PathBuf>,
    pub server: ServeHandle,
    pub client: NetClient,
}

/// The pre-shared key both ends use.
fn auth_key(seed: u64) -> AuthKey {
    AuthKey::from_bytes(format!("perfbench-wire-{seed}").as_bytes()).expect("non-empty key")
}

/// Starts `serve` on loopback — durable when given a spill directory —
/// and connects an authenticated client.
pub fn start(dir: Option<&Path>, seed: u64, client_id: u64) -> Result<Collector, String> {
    let mut icfg = IngestConfig::new().shards(SHARDS);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
        icfg = icfg.spill_dir(dir);
    }
    let session = IngestSession::new(icfg).map_err(|e| format!("ingest session: {e:?}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let cfg =
        NetServerConfig::new().io_timeout(Duration::from_millis(5000)).auth_key(auth_key(seed));
    let server = serve(listener, session, cfg).map_err(|e| format!("serve: {e}"))?;
    let ccfg = NetClientConfig::new(server.addr().to_string())
        .client_id(client_id)
        .auth_key(auth_key(seed));
    let client = NetClient::start(ccfg).map_err(|e| format!("net client: {e}"))?;
    Ok(Collector { dir: dir.map(Path::to_path_buf), server, client })
}

/// When a drive stops opening jobs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this many seconds, once a p90 has ten samples beyond it.
    Seconds(f64),
    /// After exactly this many jobs.
    Jobs(usize),
}

#[derive(Default)]
struct Drive {
    commit: Vec<f64>,
    push: Vec<Duration>,
    calls: u64,
    wall: Duration,
    delivered: Vec<u64>,
}

struct Slot {
    handle: NetJobHandle,
    next: usize,
}

/// Replays the captured job into `col` as a sequence of jobs, closed
/// loop, [`IN_FLIGHT`] at a time. `next_job` numbers jobs across drives.
fn drive(
    r: &Reference,
    col: &Collector,
    limit: Limit,
    next_job: &mut u64,
    checks: &mut Checks,
    spans: &mut Spans,
) -> Drive {
    let mut out = Drive::default();
    let nseg = r.order.len();
    let mut slots: Vec<Option<Slot>> = (0..IN_FLIGHT).map(|_| None).collect();
    let mut started = [false; IN_FLIGHT];
    let mut opened = 0usize;
    let mut stopping = false;
    let epoch = Instant::now();
    spans.enter("bench.drive", *next_job);
    for step in 0.. {
        for k in 0..IN_FLIGHT {
            if slots[k].is_none() {
                // Stagger the first jobs so commits interleave with pushes.
                if stopping || (!started[k] && step < k * nseg / IN_FLIGHT) {
                    continue;
                }
                started[k] = true;
                opened += 1;
                let local = *next_job;
                *next_job += 1;
                let (handle, _) =
                    spans.timed("net.open_job", local, || col.client.open_job(local, RANKS, true));
                slots[k] = Some(Slot { handle, next: 0 });
            }
            let slot = slots[k].as_mut().expect("slot opened above");
            let job = slot.handle.job();
            if slot.next < nseg {
                let seg = r.job.segs[r.order[slot.next]].clone();
                let ((), d) =
                    spans.timed("net.push_segment", job, || slot.handle.push_segment(seg));
                out.push.push(d);
                slot.next += 1;
            }
            if slot.next < nseg {
                continue;
            }
            for done in r.job.done.clone() {
                spans.timed("net.complete_rank", job, || slot.handle.complete_rank(done));
            }
            spans.timed("net.flush", job, || slot.handle.flush());
            let (outcome, d) = spans.timed("net.finish", job, || slot.handle.finish());
            let ok = outcome.delivered && outcome.lossless == Some(true);
            if checks.check(ok, || format!("job {job}: not delivered lossless: {outcome:?}")) {
                out.commit.push(crate::ms(d));
                out.calls += r.calls;
                out.delivered.push(job);
            }
            slots[k] = None;
        }
        stopping = match limit {
            Limit::Jobs(n) => opened >= n,
            Limit::Seconds(secs) => {
                stopping
                    || (out.commit.len() >= stats::min_samples(90.0)
                        && epoch.elapsed().as_secs_f64() >= secs)
            }
        };
        if stopping && slots.iter().all(Option::is_none) {
            break;
        }
    }
    out.wall = epoch.elapsed();
    spans.exit();
    out
}

/// Reads every delivered container back; each must decode to the
/// reference bytes.
fn check_containers(
    dir: &Path,
    r: &Reference,
    delivered: &[u64],
    fault: Fault,
    checks: &mut Checks,
) {
    for (i, job) in delivered.iter().enumerate() {
        let path = dir.join(format!("job-{job}.pilgrim"));
        let mut buf = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                checks.fail(format!("{}: {e}", path.display()));
                continue;
            }
        };
        if fault == Fault::CorruptContainer && i == 0 {
            crate::corrupt(&mut buf);
            if std::fs::write(&path, &buf).is_err() {
                checks.fail(format!("{}: cannot inject the fault", path.display()));
            }
        }
        let same = GlobalTrace::decode_container(&buf).map(|t| t.serialize() == r.bytes);
        checks.check(same == Ok(true), || format!("job {job}: delivered container: {same:?}"));
    }
}

/// Shuts a collector down and checks nothing was shed or degraded.
fn stop(col: Collector, checks: &mut Checks) -> (Option<PathBuf>, NetServerStats) {
    let Collector { dir, server, client } = col;
    let cstats = client.shutdown();
    let sstats = server.stop();
    checks.check(!cstats.degraded && cstats.busy_sheds == 0, || {
        format!("client degraded or shed: {cstats:?}")
    });
    checks.check(sstats.sheds == 0, || format!("collector shed {} job opens", sstats.sheds));
    (dir, sstats)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut o = Outcome::new(cfg);
    // Both collectors are part of set-up; an earlier rep's collectors
    // stop as the next rep replaces them.
    let ((r, wire, durable), setup_s) = crate::repeated_setup(|rep| {
        let r = reference(cfg.seed)?;
        let wire = start(None, cfg.seed, cfg.seed.wrapping_mul(2))?;
        let dir = cfg.work_dir.join(format!("spill-{rep}"));
        let durable = start(Some(&dir), cfg.seed, cfg.seed.wrapping_mul(2) + 1)?;
        Ok((r, wire, durable))
    })?;
    let (most, fewest) = r.job.segments_per_rank();
    o.checks.check(fewest > 1, || format!("a rank streamed only {fewest} segments"));

    o.info.push(format!(
        "job: {RANKS} ranks, {} segments ({fewest}..{most} per rank), {} calls, \
         {IN_FLIGHT} in flight on 1 connection",
        r.job.segs.len(),
        r.calls
    ));
    let mut next_job = cfg.seed << 24;
    for phase in cfg.phases() {
        let mut off = Spans::off();
        let rec = if phase.traced { &mut o.spans } else { &mut off };
        let limit = Limit::Seconds(phase.seconds);
        let mut d = drive(&r, &wire, limit, &mut next_job, &mut o.checks, rec);
        let c = stats::summarize(&mut d.commit, 90.0)
            .ok_or_else(|| format!("only {} jobs committed", d.commit.len()))?;
        let tag = if phase.traced { "traced" } else { "untraced" };
        o.info.push(format!(
            "{tag} phase (wire collector): commits n={} (p50, p90: {} beyond p90), {} pushes",
            c.n,
            stats::samples_beyond(c.n, 90.0),
            d.push.len()
        ));
        if phase.traced {
            o.traced_latency_us = Some(c.mean * 1e3);
            let mut push = crate::us_samples(&d.push);
            stats::sort(&mut push);
            o.layer.insert("net.push_us_p90", stats::percentile(&push, 90.0).unwrap_or(0.0));
            continue;
        }
        o.e2e.insert("latency_mean_us", c.mean * 1e3);
        o.e2e.insert("latency_tail_us", c.tail * 1e3);
        o.e2e.insert("calls_per_s", d.calls as f64 / d.wall.as_secs_f64());
    }
    let (_, wire_stats) = stop(wire, &mut o.checks);

    // The durable collector: a fixed number of jobs, then read-back.
    let limit = Limit::Jobs(DURABLE_JOBS);
    let mut d = drive(&r, &durable, limit, &mut next_job, &mut o.checks, &mut o.spans);
    let (dir, durable_stats) = stop(durable, &mut o.checks);
    let dir = dir.expect("the durable collector has a spill directory");
    let c = stats::summarize(&mut d.commit, 90.0)
        .ok_or_else(|| format!("only {} durable jobs committed", d.commit.len()))?;
    o.info.push(format!(
        "durable collector: commits n={} (p50, p90: {} beyond p90), {} WAL bytes",
        c.n,
        stats::samples_beyond(c.n, 90.0),
        durable_stats.wal_bytes
    ));
    o.named.push(("ingest_calls_per_s", d.calls as f64 / d.wall.as_secs_f64()));
    o.named.push(("commit_ms_p50", c.p50));
    o.named.push(("commit_ms_p90", c.tail));
    check_containers(&dir, &r, &d.delivered, cfg.fault, &mut o.checks);

    // Restart cost: recover_dir over the durable collector's spill
    // directory.
    let mut recover_ms = Vec::with_capacity(RECOVER_REPS);
    let mut recovered = 0usize;
    for rep in 0..=RECOVER_REPS {
        let (report, t) = o.spans.timed("recover.recover_dir", rep as u64, || recover_dir(&dir));
        let report = report.map_err(|e| format!("recover_dir: {e}"))?;
        recovered = report.recovered();
        if rep > 0 {
            recover_ms.push(crate::ms(t));
            continue;
        }
        o.checks.check(report.jobs.len() == d.delivered.len(), || {
            format!("recovered {} jobs of {}", report.jobs.len(), d.delivered.len())
        });
        for job in &report.jobs {
            let same = job.state == RecoveryState::Recovered
                && job.trace.as_ref().is_some_and(|t| t.serialize() == r.bytes);
            o.checks.check(same, || {
                format!("job {}: recovered {:?}: {:?}", job.job, job.state, job.problems)
            });
        }
    }
    let recover = stats::trimmed_mean(&recover_ms);
    o.info.push(format!("recover: mean of {RECOVER_REPS} recover_dir passes after one warm-up"));
    o.e2e.insert("readback_ms", recover);
    o.e2e.insert("trace_bytes", r.bytes.len() as f64);
    o.e2e.insert("setup_s", setup_s);
    o.named.push(("recover_ms", recover));
    o.named.push(("trace_bytes", r.bytes.len() as f64));
    o.named.push(("setup_s", setup_s));

    if cfg.trace {
        let l = &mut o.layer;
        l.insert("net.frames", (wire_stats.frames + durable_stats.frames) as f64);
        l.insert("net.acks", (wire_stats.acks + durable_stats.acks) as f64);
        l.insert("net.wal_bytes", durable_stats.wal_bytes as f64);
        l.insert("net.sheds", (wire_stats.sheds + durable_stats.sheds) as f64);
        l.insert("recover.jobs", recovered as f64);
        layer_replays(cfg, &r, &mut o)?;
    }
    Ok(o)
}

/// Feeds the run's own segments through each layer's public function
/// on its own: the merger, the frame codec, the MAC and the WAL.
fn layer_replays(cfg: &Config, r: &Reference, o: &mut Outcome) -> Result<(), String> {
    let mut accept = Vec::new();
    for rep in 0..REPLAY_REPS {
        let (bytes, t) = crate::timed_fold(&r.job, r.job.done.clone(), &mut o.spans, rep as u64)?;
        o.checks.check(bytes == r.bytes, || "local fold replay differs".into());
        accept.extend(crate::us_samples(&t.accept));
    }
    o.layer.insert("merge.accept_us_p50", stats::median(&accept));

    let frames: Vec<NetFrame> = r
        .order
        .iter()
        .map(|&i| NetFrame::Segment { job: cfg.seed, seg: r.job.segs[i].clone() })
        .collect();
    let mut codec_ns = Vec::with_capacity(REPLAY_REPS);
    for rep in 0..REPLAY_REPS {
        let (ok, d) = o.spans.timed("net.frame_codec", rep as u64, || {
            frames.iter().all(|f| {
                let wire = f.encode();
                let mut pos = 0;
                match split_frame(&wire, &mut pos) {
                    Some(Ok((kind, payload))) => NetFrame::decode(kind, payload).as_ref() == Ok(f),
                    _ => false,
                }
            })
        });
        o.checks.check(ok, || "frame codec replay did not round-trip".into());
        codec_ns.push(d.as_nanos() as f64 / frames.len() as f64);
    }
    o.layer.insert("net.frame_codec_ns", stats::median(&codec_ns));

    let encoded: Vec<Vec<u8>> = frames.iter().map(NetFrame::encode).collect();
    let kb = encoded.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    let key = pilgrim::auth::sha256(format!("perfbench-mac-{}", cfg.seed).as_bytes());
    let mut mac_ns = Vec::with_capacity(REPLAY_REPS);
    for rep in 0..REPLAY_REPS {
        let mut mac = MacState::new(key, 0);
        let ((), d) = o.spans.timed("auth.seal", rep as u64, || {
            for f in &encoded {
                std::hint::black_box(mac.seal(f));
            }
        });
        mac_ns.push(d.as_nanos() as f64 / kb);
    }
    o.layer.insert("auth.mac_ns_per_kb", stats::median(&mac_ns));

    let side = cfg.work_dir.join("wal-replay.wal");
    let mut wal = WalWriter::create(&side).map_err(|e| format!("{}: {e}", side.display()))?;
    let mut append = Vec::new();
    while append.len() < stats::min_samples(90.0) {
        for f in &frames {
            let NetFrame::Segment { job, seg } = f else { continue };
            let rec = WalRecord::Segment { job: *job, seg: seg.clone() };
            let (res, d) = o.spans.timed("wal.append", *job, || wal.append(&rec));
            res.map_err(|e| format!("wal append: {e}"))?;
            append.push(crate::us(d));
        }
    }
    drop(wal);
    let _ = std::fs::remove_file(&side);
    stats::sort(&mut append);
    o.info.push(format!("wal replay: {} appends", append.len()));
    let l = &mut o.layer;
    l.insert("wal.append_us_p50", stats::percentile(&append, 50.0).unwrap_or(0.0));
    l.insert("wal.append_us_p90", stats::percentile(&append, 90.0).unwrap_or(0.0));

    let mut rb = Readback::default();
    for rep in 0..21 {
        rb.pass(&r.bytes, &mut o.spans, rep)?;
    }
    o.layer.insert("trace.decode_ms", stats::median(&rb.decode));
    Ok(())
}
