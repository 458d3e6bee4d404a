//! Inter-process compression (paper §3.5), fault-tolerant.
//!
//! At `MPI_Finalize`, ranks merge their CSTs pairwise in `log2(P)` phases;
//! rank 0 broadcasts the merged table and every rank renumbers its grammar
//! terminals to the global ids. Grammars are then gathered the same way
//! with an *identity check* first — identical grammars (the common case
//! for SPMD codes) are kept once with a rank list instead of being
//! concatenated. Rank 0 hash-conses structurally identical rules across
//! the surviving unique grammars (Fig 4's dedup), concatenates the
//! per-rank top rules, and runs a final Sequitur pass over that top-level
//! sequence. Timing grammars are deduplicated the same way.
//!
//! # Degraded merges
//!
//! Every receive in the merge tree is *bounded*: a partner that died (or
//! stalled past [`MergePolicy::timeout`]) costs its subtree, not the run.
//! The survivor proceeds with what it has, records which ranks were lost
//! at which round, and propagates that list up the tree. Rank 0 then
//! tries to recover every non-merged rank from its last crash-consistent
//! checkpoint (see [`crate::checkpoint`]), and writes a per-rank
//! [`TraceCompleteness`] manifest into the trace. A rank that cannot
//! obtain the merged CST (its broadcast parent vanished) still relays its
//! children's payloads upward so only its own trace is at risk, and
//! reports a [`MergeError`] to its caller.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mpi_sim::{PeerFailure, TraceCtx};
use pilgrim_sequitur::{
    compress_runs, decode_varint, write_varint, DecodeError, FlatGrammar, FlatRule, Symbol,
};

use crate::checkpoint::decode_checkpoint;
use crate::cst::Cst;
use crate::encode::EncoderConfig;
use crate::governor::DegradationEvent;
use crate::metrics::{MetricsRegistry, Stage};
use crate::stats::OverheadStats;
use crate::trace::{GlobalTrace, RankStatus, TraceCompleteness};

const TAG_CST_GATHER: i32 = 1_000_001;
const TAG_CST_BCAST: i32 = 1_000_002;
const TAG_CFG_GATHER: i32 = 1_000_003;
const TAG_DUR_GATHER: i32 = 1_000_004;
const TAG_INT_GATHER: i32 = 1_000_005;

/// Bounds on how long a merge step waits for a partner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePolicy {
    /// Per-receive wait budget once a failure is known. While the world
    /// is healthy the effective budget is 8x this, so slow-but-alive
    /// partners are never dropped spuriously.
    pub timeout: Duration,
}

impl Default for MergePolicy {
    fn default() -> Self {
        MergePolicy { timeout: Duration::from_millis(800) }
    }
}

impl MergePolicy {
    pub fn with_timeout_ms(ms: u64) -> Self {
        MergePolicy { timeout: Duration::from_millis(ms) }
    }
}

/// Why a rank's own trace could not enter the merge. The rank still
/// relays its subtree's payloads, so the error is local to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// The merged-CST broadcast from `parent` never arrived (the parent
    /// died or abandoned); without the global table this rank cannot
    /// renumber its grammar.
    CstBroadcastLost { parent: usize },
    /// The global CST is missing some of this rank's signatures — its
    /// CST-gather payload was dropped upstream and no other rank shared
    /// the signatures.
    SignaturesNotMerged,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::CstBroadcastLost { parent } => {
                write!(f, "merged-CST broadcast from rank {parent} never arrived")
            }
            MergeError::SignaturesNotMerged => {
                write!(f, "global CST is missing local signatures (gather payload lost)")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// One rank's compressed trace, ready for merging.
#[derive(Debug, Clone)]
pub struct LocalPiece {
    pub rank: usize,
    pub cst: Cst,
    pub grammar: FlatGrammar,
    pub call_count: u64,
    pub duration: Option<FlatGrammar>,
    pub interval: Option<FlatGrammar>,
    pub encoder_cfg: EncoderConfig,
    /// Degradation events the rank's resource governor recorded while
    /// tracing (empty for an unbudgeted or never-pressured rank). Carried
    /// to rank 0 with the grammar gather and written into the
    /// [`TraceCompleteness`] manifest.
    pub events: Vec<DegradationEvent>,
}

impl LocalPiece {
    /// Serialized size of this rank's *local* (pre-merge) trace — what the
    /// trace size would be without inter-process compression.
    pub fn local_size_bytes(&self) -> usize {
        let mut buf = Vec::new();
        self.cst.serialize(&mut buf);
        self.grammar.serialize(&mut buf);
        buf.len()
    }
}

/// A set of unique grammars, each tagged with the `(rank, call_count)`
/// pairs that produced it.
type GrammarSet = Vec<(FlatGrammar, Vec<(u64, u64)>)>;

fn ser_grammar_set(set: &GrammarSet) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, set.len() as u64);
    for (g, ranks) in set {
        g.serialize(&mut out);
        write_varint(&mut out, ranks.len() as u64);
        for &(r, l) in ranks {
            write_varint(&mut out, r);
            write_varint(&mut out, l);
        }
    }
    out
}

fn deser_grammar_set_at(buf: &[u8], pos: &mut usize) -> Result<GrammarSet, DecodeError> {
    let count_off = *pos;
    let n = decode_varint(buf, pos)? as usize;
    if n > buf.len().saturating_sub(*pos) + 1 {
        return Err(DecodeError::Corrupt { what: "grammar set count", offset: count_off });
    }
    let mut set = Vec::with_capacity(n);
    for _ in 0..n {
        let (g, used) = FlatGrammar::decode(&buf[*pos..]).map_err(|e| e.offset_by(*pos))?;
        *pos += used;
        let m_off = *pos;
        let m = decode_varint(buf, pos)? as usize;
        if m > buf.len().saturating_sub(*pos) / 2 + 1 {
            return Err(DecodeError::Corrupt { what: "rank list count", offset: m_off });
        }
        let mut ranks = Vec::with_capacity(m);
        for _ in 0..m {
            let r = decode_varint(buf, pos)?;
            let l = decode_varint(buf, pos)?;
            ranks.push((r, l));
        }
        set.push((g, ranks));
    }
    Ok(set)
}

fn deser_grammar_set(buf: &[u8]) -> Result<GrammarSet, DecodeError> {
    let mut pos = 0usize;
    deser_grammar_set_at(buf, &mut pos)
}

/// Degradation events collected during the grammar gather, each tagged
/// with the rank that produced it.
type EventList = Vec<(u64, DegradationEvent)>;

/// Grammar-gather payload: the grammar set, the `(rank, round)` list of
/// subtrees lost below the sender, and the `(rank, event)` degradation
/// events reported by the sender's subtree.
fn ser_phase2(set: &GrammarSet, lost: &[(u64, u32)], events: &EventList) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, lost.len() as u64);
    for &(r, round) in lost {
        write_varint(&mut out, r);
        write_varint(&mut out, round as u64);
    }
    write_varint(&mut out, events.len() as u64);
    for (r, ev) in events {
        write_varint(&mut out, *r);
        ev.serialize(&mut out);
    }
    out.extend_from_slice(&ser_grammar_set(set));
    out
}

/// Decoded grammar-gather payload: `(set, lost, events)`.
type Phase2Payload = (GrammarSet, Vec<(u64, u32)>, EventList);

fn deser_phase2(buf: &[u8]) -> Result<Phase2Payload, DecodeError> {
    let mut pos = 0usize;
    let n_off = pos;
    let n = decode_varint(buf, &mut pos)? as usize;
    if n > buf.len().saturating_sub(pos) / 2 + 1 {
        return Err(DecodeError::Corrupt { what: "lost list count", offset: n_off });
    }
    let mut lost = Vec::with_capacity(n);
    for _ in 0..n {
        let r = decode_varint(buf, &mut pos)?;
        let round = decode_varint(buf, &mut pos)? as u32;
        lost.push((r, round));
    }
    let e_off = pos;
    let ne = decode_varint(buf, &mut pos)? as usize;
    if ne > buf.len().saturating_sub(pos) / 5 + 1 {
        return Err(DecodeError::Corrupt { what: "event list count", offset: e_off });
    }
    let mut events = Vec::with_capacity(ne);
    for _ in 0..ne {
        let r = decode_varint(buf, &mut pos)?;
        let ev = DegradationEvent::decode(buf, &mut pos)?;
        events.push((r, ev));
    }
    let set = deser_grammar_set_at(buf, &mut pos)?;
    Ok((set, lost, events))
}

/// Merges an incoming grammar set into `mine`, using the identity check
/// before any structural work (§3.5.2).
fn merge_sets(mine: &mut GrammarSet, incoming: GrammarSet) {
    for (g, ranks) in incoming {
        if let Some((_, existing)) = mine.iter_mut().find(|(mg, _)| *mg == g) {
            existing.extend(ranks);
        } else {
            mine.push((g, ranks));
        }
    }
}

/// A world-wide tool barrier that tolerates peer death: returns false if
/// a dead rank interrupted it (the merge then proceeds degraded).
fn try_tool_barrier(ctx: &TraceCtx<'_>) -> bool {
    match catch_unwind(AssertUnwindSafe(|| ctx.tool_barrier())) {
        Ok(()) => true,
        Err(e) if e.is::<PeerFailure>() => false,
        Err(e) => resume_unwind(e),
    }
}

/// Per-receive wait budget: generous while the world is healthy, tight
/// once a failure is known (dead partners never send; waiting is waste).
fn recv_budget(ctx: &TraceCtx<'_>, policy: &MergePolicy) -> Duration {
    if ctx.any_failures() {
        policy.timeout
    } else {
        policy.timeout.saturating_mul(8)
    }
}

fn lsb(r: usize) -> usize {
    r & r.wrapping_neg()
}

/// First *live* ancestor of `rank` in the binomial tree: the natural
/// parent, or — when that rank is dead — the nearest ancestor above it
/// that is still alive. Both tree directions route around casualties with
/// this rule, and because the dead set is stable by merge time every rank
/// computes the same routing.
fn live_ancestor(ctx: &TraceCtx<'_>, rank: usize) -> usize {
    let mut q = rank - lsb(rank);
    while q != 0 && ctx.is_dead(q) {
        q -= lsb(q);
    }
    q
}

/// Receives `partner`'s gather payload, adopting its orphans if it died:
/// a dead partner contributes nothing itself, but its children route
/// their payloads to the partner's live ancestor (this rank), so only the
/// casualty — not its whole subtree — is lost. An *alive* partner that
/// times out does cost its subtree `[partner, partner + step)`: its
/// children already sent their payloads to it.
#[allow(clippy::too_many_arguments)]
fn recv_or_adopt<T>(
    ctx: &TraceCtx<'_>,
    tag: i32,
    partner: usize,
    step: usize,
    state: &mut T,
    policy: &MergePolicy,
    metrics: &MetricsRegistry,
    merge_in: &mut impl FnMut(&mut T, Vec<u8>),
    on_lost: &mut impl FnMut(&mut T, u64, u32),
) {
    let p = ctx.world_size;
    let round = step.trailing_zeros() + 1;
    if ctx.is_dead(partner) {
        on_lost(state, partner as u64, round);
        let mut s2 = step / 2;
        while s2 >= 1 {
            let c = partner + s2;
            if c < p {
                recv_or_adopt(ctx, tag, c, s2, state, policy, metrics, merge_in, on_lost);
            }
            s2 /= 2;
        }
        return;
    }
    let (msg, waits) = ctx.tool_recv_timeout(partner, tag, recv_budget(ctx, policy));
    metrics.incr("merge.recv_waits", waits);
    match msg {
        Some(bytes) => merge_in(state, bytes),
        None => {
            metrics.incr("merge.timeouts", 1);
            for r in partner..(partner + step).min(p) {
                on_lost(state, r as u64, round);
            }
        }
    }
}

/// Bounded binomial-tree gather-merge toward rank 0, routing around dead
/// partners ([`recv_or_adopt`]). `merge_in` folds a received partner
/// payload into the local state; `payload` serializes it for the parent
/// (the nearest live ancestor). `on_lost(state, rank, round)` is invoked
/// for every rank whose payload is unrecoverable. Returns true on rank 0.
#[allow(clippy::too_many_arguments)]
fn gather_bounded<T>(
    ctx: &TraceCtx<'_>,
    tag: i32,
    state: &mut T,
    policy: &MergePolicy,
    metrics: &MetricsRegistry,
    mut merge_in: impl FnMut(&mut T, Vec<u8>),
    mut on_lost: impl FnMut(&mut T, u64, u32),
    payload: impl Fn(&T) -> Vec<u8>,
) -> bool {
    let rank = ctx.world_rank;
    let p = ctx.world_size;
    let mut step = 1;
    while step < p {
        if rank % (2 * step) == step {
            ctx.tool_send(live_ancestor(ctx, rank), tag, payload(state));
            return false;
        }
        if rank.is_multiple_of(2 * step) {
            let partner = rank + step;
            if partner < p {
                recv_or_adopt(
                    ctx,
                    tag,
                    partner,
                    step,
                    state,
                    policy,
                    metrics,
                    &mut merge_in,
                    &mut on_lost,
                );
            }
        }
        step *= 2;
    }
    rank == 0
}

/// Forwards bcast `data` to `child` (subtree size `s`), hopping over a
/// dead child straight to its children so the casualty's subtree still
/// receives the payload.
fn forward_or_hop(ctx: &TraceCtx<'_>, tag: i32, child: usize, s: usize, data: &[u8]) {
    if child >= ctx.world_size {
        return;
    }
    if ctx.is_dead(child) {
        let mut s2 = s / 2;
        while s2 >= 1 {
            forward_or_hop(ctx, tag, child + s2, s2, data);
            s2 /= 2;
        }
        return;
    }
    ctx.tool_send(child, tag, data.to_vec());
}

/// Bounded binomial-tree broadcast of `data` from rank 0, routing around
/// dead ranks ([`forward_or_hop`] / [`live_ancestor`]). Returns `None` on
/// a non-root rank whose (live-ancestor) source never delivered.
fn bcast_bounded(
    ctx: &TraceCtx<'_>,
    tag: i32,
    data: Option<Vec<u8>>,
    policy: &MergePolicy,
    metrics: &MetricsRegistry,
) -> Option<Vec<u8>> {
    let rank = ctx.world_rank;
    let p = ctx.world_size;
    let data = if rank == 0 {
        data.expect("rank 0 provides bcast payload")
    } else {
        let (msg, waits) =
            ctx.tool_recv_timeout(live_ancestor(ctx, rank), tag, recv_budget(ctx, policy));
        metrics.incr("merge.recv_waits", waits);
        match msg {
            Some(d) => d,
            None => {
                metrics.incr("merge.timeouts", 1);
                return None;
            }
        }
    };
    // My subtree spans steps below my lsb (unbounded for rank 0).
    let limit = if rank == 0 { p.next_power_of_two() } else { lsb(rank) };
    let mut s = limit / 2;
    while s >= 1 {
        forward_or_hop(ctx, tag, rank + s, s, &data);
        s /= 2;
    }
    Some(data)
}

/// Options for the unified [`merge`] entry point: policy knobs plus an
/// optional metrics sink, replacing the former
/// `merge`/`merge_with_options`/`merge_with_metrics`/`merge_degraded`
/// argument-list zoo.
#[derive(Debug, Clone, Copy)]
pub struct MergeOptions<'a> {
    /// Run the grammar identity check before structural merging (§3.5.2).
    /// Disabling it is the paper's ablation: every rank's grammar is then
    /// kept distinct.
    pub identity_check: bool,
    /// Bounded-wait policy for degraded merges.
    pub policy: MergePolicy,
    /// Per-stage timers ([`Stage::CstMerge`], [`Stage::CfgMerge`],
    /// [`Stage::FinalSequitur`]) and payload-byte counters are recorded
    /// here when set. The stage timers decompose [`MergeOutcome::stats`]
    /// exactly: `cst-merge` equals `inter_cst`, and
    /// `cfg-merge + final-sequitur` equals `inter_cfg`.
    pub metrics: Option<&'a MetricsRegistry>,
}

impl Default for MergeOptions<'static> {
    fn default() -> Self {
        MergeOptions { identity_check: true, policy: MergePolicy::default(), metrics: None }
    }
}

impl<'a> MergeOptions<'a> {
    /// Defaults: identity check on, default policy, no metrics sink.
    pub fn new() -> MergeOptions<'static> {
        MergeOptions::default()
    }

    /// Toggles the pre-merge grammar identity check.
    pub fn identity_check(mut self, on: bool) -> Self {
        self.identity_check = on;
        self
    }

    /// Sets the bounded-wait policy for degraded merges.
    pub fn policy(mut self, policy: MergePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a metrics sink.
    pub fn metrics(self, metrics: &MetricsRegistry) -> MergeOptions<'_> {
        MergeOptions {
            identity_check: self.identity_check,
            policy: self.policy,
            metrics: Some(metrics),
        }
    }
}

/// What [`merge`] produced on this rank.
#[derive(Debug, Default)]
pub struct MergeOutcome {
    /// The merged trace; `Some` only on the rank that holds it (rank 0).
    /// When any rank was lost it carries a [`TraceCompleteness`] manifest
    /// naming each lost or checkpoint-recovered rank.
    pub trace: Option<GlobalTrace>,
    /// Wall-clock overhead of the merge phases on this rank (`inter_cst`
    /// and `inter_cfg`; `intra` is always zero here).
    pub stats: OverheadStats,
    /// Why this rank's *own* trace could not enter the merge, if it
    /// could not (it still relayed its subtree's payloads).
    pub error: Option<MergeError>,
}

impl MergeOutcome {
    /// The lost-subtree report: `(rank, merge round)` for every rank the
    /// manifest records as lost. Empty off the root or on a clean merge.
    pub fn lost_subtrees(&self) -> Vec<(usize, u32)> {
        self.trace.as_ref().map(|t| t.completeness.lost_ranks()).unwrap_or_default()
    }

    /// Whether this rank participated fully and (if root) the trace is
    /// complete.
    pub fn is_clean(&self) -> bool {
        self.error.is_none() && self.trace.as_ref().is_none_or(|t| t.completeness.is_complete())
    }
}

/// Runs the full fault-tolerant inter-process compression. Every rank
/// participates; the returned [`MergeOutcome`] carries the merged
/// [`GlobalTrace`] on rank 0, this rank's merge-phase overhead, and its
/// local error (if its own trace missed the merge).
///
/// This is the single merge entry point. The former `merge_with_options`
/// / `merge_with_metrics` / `merge_degraded` signatures were deprecated
/// for one release and have been removed.
pub fn merge(ctx: &TraceCtx<'_>, piece: LocalPiece, opts: &MergeOptions<'_>) -> MergeOutcome {
    let fallback;
    let metrics = match opts.metrics {
        Some(m) => m,
        None => {
            fallback = MetricsRegistry::default();
            &fallback
        }
    };
    let mut stats = OverheadStats::default();
    match merge_engine(ctx, piece, &mut stats, opts.identity_check, metrics, opts.policy) {
        Ok(trace) => MergeOutcome { trace, stats, error: None },
        Err(e) => MergeOutcome { trace: None, stats, error: Some(e) },
    }
}

/// The fault-tolerant merge engine behind [`merge`].
///
/// `Ok(Some(trace))` on the rank holding the merged trace (rank 0),
/// `Ok(None)` on other ranks that participated fully, and `Err` on a
/// rank whose own trace could not be merged (it still relayed its
/// subtree). When any rank was lost, the trace carries a
/// [`TraceCompleteness`] manifest naming each lost or
/// checkpoint-recovered rank.
fn merge_engine(
    ctx: &TraceCtx<'_>,
    piece: LocalPiece,
    stats: &mut OverheadStats,
    identity_check: bool,
    metrics: &MetricsRegistry,
    policy: MergePolicy,
) -> Result<Option<GlobalTrace>, MergeError> {
    // Synchronize before timing: rank threads reach finalize at skewed
    // times (they timeshare host cores); without a barrier the first
    // merge phase would absorb all the skew as apparent CST time. Once a
    // rank has died the barrier can never complete, so it is skipped (and
    // a failure racing into the middle of it just degrades the timing
    // split, never the merge).
    if !ctx.any_failures() {
        try_tool_barrier(ctx);
    }
    // ---- Phase 1: CST merge + broadcast + terminal renumbering ----
    let t_cst = Instant::now();
    let mut merged_cst = piece.cst.clone();
    gather_bounded(
        ctx,
        TAG_CST_GATHER,
        &mut merged_cst,
        &policy,
        metrics,
        |mine, bytes| {
            let mut pos = 0;
            if let Ok(incoming) = Cst::decode(&bytes, &mut pos) {
                metrics.incr("merge.cst_payload_bytes", bytes.len() as u64);
                for (_, sig, st) in incoming.iter() {
                    mine.intern(sig, st);
                }
            }
        },
        // A subtree missing from the CST gather is not recorded here: its
        // ranks detect the gap themselves at renumbering time and
        // self-report (SPMD ranks usually share every signature and lose
        // nothing but their CST stats).
        |_, _, _| {},
        |mine| {
            let mut buf = Vec::new();
            mine.serialize(&mut buf);
            buf
        },
    );
    let bcast_parent = if ctx.world_rank == 0 {
        0
    } else {
        ctx.world_rank - (ctx.world_rank & ctx.world_rank.wrapping_neg())
    };
    let cst_bytes = bcast_bounded(
        ctx,
        TAG_CST_BCAST,
        (ctx.world_rank == 0).then(|| {
            let mut buf = Vec::new();
            merged_cst.serialize(&mut buf);
            buf
        }),
        &policy,
        metrics,
    );
    // Renumber this rank's grammar terminals to the global terminal
    // space. A rank that cannot (no broadcast, or its signatures never
    // reached rank 0) forfeits its own trace but keeps relaying.
    let mut my_error: Option<MergeError> = None;
    let global_cst = match &cst_bytes {
        Some(bytes) => {
            let mut pos = 0;
            Cst::decode(bytes, &mut pos).ok()
        }
        None => None,
    };
    if global_cst.is_none() && ctx.world_rank != 0 {
        my_error = Some(MergeError::CstBroadcastLost { parent: bcast_parent });
    }
    let grammar = match &global_cst {
        Some(gcst) => {
            let remap: Option<Vec<u32>> =
                piece.cst.iter().map(|(_, sig, _)| gcst.lookup(sig)).collect();
            match remap {
                Some(remap) => Some(map_terminals(&piece.grammar, &remap)),
                None => {
                    my_error = Some(MergeError::SignaturesNotMerged);
                    None
                }
            }
        }
        None => None,
    };
    let d_cst = t_cst.elapsed();
    stats.inter_cst += d_cst;
    metrics.add_stage(Stage::CstMerge, d_cst);
    if let Some(gcst) = &global_cst {
        metrics.set_gauge("merge.global_cst_signatures", gcst.len() as u64);
    }

    // ---- Phase 2: CFG gather with identity check ----
    let t_cfg = Instant::now();
    let mut lost: Vec<(u64, u32)> = Vec::new();
    let mut events: EventList = piece.events.iter().map(|ev| (piece.rank as u64, *ev)).collect();
    let mut set: GrammarSet = match grammar {
        Some(g) => vec![(g, vec![(piece.rank as u64, piece.call_count)])],
        None => {
            // Round 0: lost before the grammar gather.
            lost.push((piece.rank as u64, 0));
            metrics.incr("merge.abandoned", 1);
            Vec::new()
        }
    };
    let mut state = (set, lost, events);
    let at_root = gather_bounded(
        ctx,
        TAG_CFG_GATHER,
        &mut state,
        &policy,
        metrics,
        |(mine, lost_acc, ev_acc), bytes| {
            if let Ok((incoming, inc_lost, inc_events)) = deser_phase2(&bytes) {
                metrics.incr("merge.cfg_payload_bytes", bytes.len() as u64);
                lost_acc.extend(inc_lost);
                ev_acc.extend(inc_events);
                if identity_check {
                    let before = mine.len() + incoming.len();
                    merge_sets(mine, incoming);
                    metrics.incr("merge.identity_hits", (before - mine.len()) as u64);
                } else {
                    mine.extend(incoming);
                }
            }
        },
        // Timed-out subtrees join the lost list the parent payload carries.
        |(_, lost_acc, _), r, round| lost_acc.push((r, round)),
        |(mine, lost_acc, ev_acc)| ser_phase2(mine, lost_acc, ev_acc),
    );
    set = state.0;
    lost = state.1;
    events = state.2;

    // ---- Phase 2b: timing grammar gather (dedup only) ----
    let mut dur_set: GrammarSet = Vec::new();
    let mut int_set: GrammarSet = Vec::new();
    if let Some(d) = &piece.duration {
        if my_error.is_none() {
            dur_set.push((d.clone(), vec![(piece.rank as u64, 0)]));
        }
        gather_bounded(
            ctx,
            TAG_DUR_GATHER,
            &mut dur_set,
            &policy,
            metrics,
            |mine, bytes| {
                if let Ok(s) = deser_grammar_set(&bytes) {
                    merge_sets(mine, s);
                }
            },
            // Lost ranks keep the rank-map sentinel; nothing to record.
            |_, _, _| {},
            ser_grammar_set,
        );
    }
    if let Some(i) = &piece.interval {
        if my_error.is_none() {
            int_set.push((i.clone(), vec![(piece.rank as u64, 0)]));
        }
        gather_bounded(
            ctx,
            TAG_INT_GATHER,
            &mut int_set,
            &policy,
            metrics,
            |mine, bytes| {
                if let Ok(s) = deser_grammar_set(&bytes) {
                    merge_sets(mine, s);
                }
            },
            |_, _, _| {},
            ser_grammar_set,
        );
    }

    if !at_root {
        let d_cfg = t_cfg.elapsed();
        stats.inter_cfg += d_cfg;
        metrics.add_stage(Stage::CfgMerge, d_cfg);
        return match my_error {
            Some(e) => Err(e),
            None => Ok(None),
        };
    }

    // ---- Phase 3 (rank 0): recover, hash-cons, concatenate, compress ----
    let nranks = ctx.world_size;
    let mut global_cst = global_cst.expect("rank 0 always holds the merged CST");
    let merged_ranks: HashSet<u64> =
        set.iter().flat_map(|(_, rl)| rl.iter().map(|&(r, _)| r)).collect();
    let mut lost_rounds: HashMap<u64, u32> = HashMap::new();
    for (r, round) in lost {
        // Keep the earliest (most specific) round per rank.
        lost_rounds.entry(r).or_insert(round);
    }
    let mut statuses = vec![RankStatus::Merged; nranks];
    #[allow(clippy::needless_range_loop)] // rank indexes checkpoints AND statuses
    for rank in 0..nranks {
        if merged_ranks.contains(&(rank as u64)) {
            continue;
        }
        // Not merged: try the rank's last crash-consistent checkpoint.
        let recovered = ctx.load_checkpoint(rank).and_then(|(_, bytes)| {
            let ck = decode_checkpoint(&bytes).ok()?;
            // Intern the snapshot's signatures into the global CST
            // (append-only: survivors' already-broadcast ids are stable).
            let remap: Vec<u32> =
                ck.cst.iter().map(|(_, sig, st)| global_cst.intern(sig, st)).collect();
            let g = map_terminals(&ck.grammar, &remap);
            Some((g.expanded_len(), g))
        });
        match recovered {
            Some((calls, g)) => {
                merge_sets(&mut set, vec![(g, vec![(rank as u64, calls)])]);
                statuses[rank] = RankStatus::Checkpoint { calls };
                metrics.incr("merge.checkpoint_recovered", 1);
            }
            None => {
                let round = lost_rounds.get(&(rank as u64)).copied().unwrap_or(0);
                statuses[rank] = RankStatus::Lost { round };
                metrics.incr("merge.lost_ranks", 1);
            }
        }
    }
    // Degradation events, sorted by (rank, call order) for determinism
    // regardless of gather arrival order. Events from ranks beyond the
    // world (corrupt payloads) are dropped.
    let mut manifest_events: Vec<(u32, DegradationEvent)> = events
        .into_iter()
        .filter(|&(r, _)| (r as usize) < nranks)
        .map(|(r, ev)| (r as u32, ev))
        .collect();
    manifest_events.sort_by_key(|&(r, ev)| (r, ev.call_index, ev.stage.code()));
    // Canonical form (what the serialized manifest preserves): an
    // all-Merged status list collapses to the empty list, so that a
    // serialize/decode roundtrip is the identity even when degradation
    // events are present.
    let all_merged = statuses.iter().all(|s| matches!(s, RankStatus::Merged));
    let completeness = if all_merged && manifest_events.is_empty() {
        TraceCompleteness::complete()
    } else {
        if !all_merged {
            metrics.incr("merge.degraded", 1);
        }
        TraceCompleteness {
            ranks: if all_merged { Vec::new() } else { statuses },
            events: manifest_events,
        }
    };

    let unique_grammars = set.len();
    let t_final = Instant::now();
    let (grammar, rank_lengths) = combine_grammars(&set, nranks);
    let (duration_grammars, mut duration_rank_map) = split_timing(dur_set, nranks);
    let (interval_grammars, mut interval_rank_map) = split_timing(int_set, nranks);
    // A rank whose governor collapsed per-call timing contributed an
    // empty placeholder grammar (so the timing gathers stayed symmetric
    // across ranks); point its map entries at the "no grammar" sentinel
    // consumers already understand.
    for &(r, ev) in &completeness.events {
        if ev.stage.is_memory_rung()
            && ev.stage >= crate::governor::DegradationStage::AggregateTiming
        {
            if let Some(slot) = duration_rank_map.get_mut(r as usize) {
                *slot = u32::MAX;
            }
            if let Some(slot) = interval_rank_map.get_mut(r as usize) {
                *slot = u32::MAX;
            }
        }
    }
    let d_final = t_final.elapsed();
    let d_cfg = t_cfg.elapsed();
    stats.inter_cfg += d_cfg;
    // Exact decomposition: the gather is whatever wasn't the final pass.
    metrics.add_stage(Stage::FinalSequitur, d_final);
    metrics.add_stage(Stage::CfgMerge, d_cfg.saturating_sub(d_final));
    metrics.set_gauge("merge.unique_grammars", unique_grammars as u64);
    metrics.set_gauge("merge.merged_rules", grammar.num_rules() as u64);
    metrics.set_gauge("merge.global_cst_signatures", global_cst.len() as u64);

    Ok(Some(GlobalTrace {
        nranks,
        encoder_cfg: piece.encoder_cfg,
        cst: global_cst,
        grammar,
        rank_lengths,
        unique_grammars,
        duration_grammars,
        interval_grammars,
        duration_rank_map,
        interval_rank_map,
        completeness,
        nondet: None,
    }))
}

/// Applies a terminal renumbering to a grammar.
pub fn map_terminals(g: &FlatGrammar, remap: &[u32]) -> FlatGrammar {
    FlatGrammar {
        rules: g
            .rules
            .iter()
            .map(|r| FlatRule {
                symbols: r
                    .symbols
                    .iter()
                    .map(|&(s, e)| match s {
                        Symbol::Terminal(t) => (Symbol::Terminal(remap[t as usize]), e),
                        rule => (rule, e),
                    })
                    .collect(),
            })
            .collect(),
    }
}

fn split_timing(set: GrammarSet, nranks: usize) -> (Vec<FlatGrammar>, Vec<u32>) {
    if set.is_empty() {
        return (Vec::new(), Vec::new());
    }
    // Ranks with no timing grammar (lost in a degraded merge) keep the
    // u32::MAX sentinel, serialized as "no grammar".
    let mut rank_map = vec![u32::MAX; nranks];
    let mut grammars = Vec::with_capacity(set.len());
    for (i, (g, ranks)) in set.into_iter().enumerate() {
        for (r, _) in ranks {
            rank_map[r as usize] = i as u32;
        }
        grammars.push(g);
    }
    (grammars, rank_map)
}

/// Rank-0 combination: hash-cons rules across unique grammars, build the
/// per-rank top-level sequence, re-compress it with Sequitur, and graft.
/// Ranks absent from every rank list (lost in a degraded merge)
/// contribute nothing and get a zero rank length.
pub fn combine_grammars(set: &GrammarSet, nranks: usize) -> (FlatGrammar, Vec<u64>) {
    // Collect all rules into one space; remember each grammar's top rule.
    let mut all_rules: Vec<FlatRule> = Vec::new();
    let mut tops: Vec<u32> = Vec::with_capacity(set.len());
    for (g, _) in set {
        let offset = all_rules.len() as u32;
        tops.push(offset);
        for r in &g.rules {
            all_rules.push(FlatRule {
                symbols: r
                    .symbols
                    .iter()
                    .map(|&(s, e)| match s {
                        Symbol::Rule(q) => (Symbol::Rule(q + offset), e),
                        t => (t, e),
                    })
                    .collect(),
            });
        }
    }
    // Hash-cons: structurally identical rules collapse (Fig 4's shared X).
    let (consed_rules, root_map) = hash_cons(&all_rules, &tops);
    // Per-rank top-rule sequence in rank order; `None` marks a lost rank.
    let mut rank_root: Vec<Option<u32>> = vec![None; nranks];
    let mut rank_lengths = vec![0u64; nranks];
    for (i, (g, ranks)) in set.iter().enumerate() {
        let root = root_map[tops[i] as usize];
        let len = g.expanded_len();
        for &(r, _) in ranks {
            rank_root[r as usize] = Some(root);
            rank_lengths[r as usize] = len;
        }
    }
    // Collapse into runs and intern roots as temporary terminals.
    let mut distinct: Vec<u32> = Vec::new();
    let mut index: HashMap<u32, u32> = HashMap::new();
    let mut runs: Vec<(u32, u64)> = Vec::new();
    for root in rank_root.iter().filter_map(|r| *r) {
        let k = *index.entry(root).or_insert_with(|| {
            distinct.push(root);
            (distinct.len() - 1) as u32
        });
        match runs.last_mut() {
            Some((last, n)) if *last == k => *n += 1,
            _ => runs.push((k, 1)),
        }
    }
    // Final Sequitur pass over the top-level sequence (§3.5.2).
    let top = compress_runs(&runs);
    // Graft: the pass's rules come first; consed rules follow with offset.
    let base = top.rules.len() as u32;
    let mut rules: Vec<FlatRule> = top
        .rules
        .iter()
        .map(|r| FlatRule {
            symbols: r
                .symbols
                .iter()
                .map(|&(s, e)| match s {
                    Symbol::Terminal(k) => (Symbol::Rule(base + distinct[k as usize]), e),
                    rule => (rule, e),
                })
                .collect(),
        })
        .collect();
    for r in &consed_rules {
        rules.push(FlatRule {
            symbols: r
                .symbols
                .iter()
                .map(|&(s, e)| match s {
                    Symbol::Rule(q) => (Symbol::Rule(base + q), e),
                    t => (t, e),
                })
                .collect(),
        });
    }
    let combined = FlatGrammar { rules };
    debug_assert_eq!(
        combined.expanded_len(),
        rank_lengths.iter().sum::<u64>(),
        "combined grammar must generate all ranks' calls"
    );
    (combined, rank_lengths)
}

/// Iterative hash-consing of a rule forest: returns the deduplicated rule
/// list and the old-index -> new-index map. (Iterative: rank threads run
/// on small stacks.)
fn hash_cons(rules: &[FlatRule], roots: &[u32]) -> (Vec<FlatRule>, Vec<u32>) {
    let mut new_id: Vec<Option<u32>> = vec![None; rules.len()];
    let mut canon: HashMap<FlatRule, u32> = HashMap::new();
    let mut out: Vec<FlatRule> = Vec::new();
    for &root in roots {
        // Explicit DFS with a visit stack: process children first.
        let mut stack: Vec<(u32, bool)> = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if new_id[id as usize].is_some() {
                continue;
            }
            if !expanded {
                stack.push((id, true));
                for &(s, _) in &rules[id as usize].symbols {
                    if let Symbol::Rule(q) = s {
                        if new_id[q as usize].is_none() {
                            stack.push((q, false));
                        }
                    }
                }
            } else {
                let fr = FlatRule {
                    symbols: rules[id as usize]
                        .symbols
                        .iter()
                        .map(|&(s, e)| match s {
                            Symbol::Rule(q) => {
                                (Symbol::Rule(new_id[q as usize].expect("child consed")), e)
                            }
                            t => (t, e),
                        })
                        .collect(),
                };
                let nid = *canon.entry(fr.clone()).or_insert_with(|| {
                    out.push(fr);
                    (out.len() - 1) as u32
                });
                new_id[id as usize] = Some(nid);
            }
        }
    }
    let map = new_id.into_iter().map(|n| n.unwrap_or(0)).collect();
    (out, map)
}

// ---------------------------------------------------------------------
// Incremental (streaming) merge
// ---------------------------------------------------------------------

/// One grammar segment streamed out of a rank: either a governor-sealed
/// segment pushed mid-run or the final (live) segment pushed at
/// finalize. `bytes` is the checkpoint codec payload (call count,
/// segment CST, segment grammar — see [`crate::checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSegment {
    pub rank: usize,
    /// Per-rank stream sequence number, starting at 0 and gap-free.
    pub seq: u32,
    /// True for governor-sealed segments, false for the final segment.
    pub sealed: bool,
    /// [`crate::checkpoint::encode_checkpoint`] bytes.
    pub bytes: Vec<u8>,
}

/// A rank's end-of-stream marker: everything the batch merge learns from
/// a [`LocalPiece`] besides the grammar segments themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct RankCompletion {
    pub rank: usize,
    /// Total traced calls across every segment.
    pub call_count: u64,
    /// How many segments the rank pushed before completing. The merger
    /// cross-checks this against what actually arrived, so a segment
    /// dropped in flight (or quarantined by the collector) surfaces as a
    /// [`SegmentError::MissingSegments`] instead of a silently short
    /// trace.
    pub segments: u32,
    /// Per-call duration grammar (bin ids, not CST terminals).
    pub duration: Option<FlatGrammar>,
    /// Per-call interval grammar (bin ids, not CST terminals).
    pub interval: Option<FlatGrammar>,
    pub encoder_cfg: EncoderConfig,
    /// Degradation events the rank's governor recorded while tracing.
    pub events: Vec<DegradationEvent>,
}

impl RankCompletion {
    /// Serializes the completion for the ingest write-ahead log.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        write_varint(out, self.rank as u64);
        write_varint(out, self.call_count);
        write_varint(out, self.segments as u64);
        out.push(self.encoder_cfg.to_byte());
        let flags = u8::from(self.duration.is_some()) | (u8::from(self.interval.is_some()) << 1);
        out.push(flags);
        if let Some(d) = &self.duration {
            d.serialize(out);
        }
        if let Some(i) = &self.interval {
            i.serialize(out);
        }
        write_varint(out, self.events.len() as u64);
        for ev in &self.events {
            ev.serialize(out);
        }
    }

    /// Decodes a completion written by [`RankCompletion::serialize`].
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<RankCompletion, DecodeError> {
        let rank = decode_varint(buf, pos)? as usize;
        let call_count = decode_varint(buf, pos)?;
        let segments = decode_varint(buf, pos)? as u32;
        let cfg_off = *pos;
        let encoder_cfg = EncoderConfig::from_byte(
            *buf.get(*pos)
                .ok_or(DecodeError::Truncated { what: "encoder cfg", offset: cfg_off })?,
        );
        *pos += 1;
        let flags_off = *pos;
        let flags = *buf
            .get(*pos)
            .ok_or(DecodeError::Truncated { what: "completion flags", offset: flags_off })?;
        *pos += 1;
        if flags & !0b11 != 0 {
            return Err(DecodeError::Corrupt { what: "completion flags", offset: flags_off });
        }
        let mut grammar_at = |present: bool| -> Result<Option<FlatGrammar>, DecodeError> {
            if !present {
                return Ok(None);
            }
            let (g, used) = FlatGrammar::decode(&buf[*pos..]).map_err(|e| e.offset_by(*pos))?;
            *pos += used;
            Ok(Some(g))
        };
        let duration = grammar_at(flags & 1 != 0)?;
        let interval = grammar_at(flags & 2 != 0)?;
        let n_off = *pos;
        let n = decode_varint(buf, pos)? as usize;
        if n > buf.len().saturating_sub(*pos) / 4 + 1 {
            return Err(DecodeError::Corrupt { what: "completion event count", offset: n_off });
        }
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(DegradationEvent::decode(buf, pos)?);
        }
        Ok(RankCompletion { rank, call_count, segments, duration, interval, encoder_cfg, events })
    }
}

/// Why the incremental merger rejected a stream message. Rejections are
/// per-message: the collector's merged state is untouched and the job's
/// other ranks are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// The segment payload did not decode as a checkpoint.
    Decode(DecodeError),
    /// The rank id is outside the job's world.
    UnknownRank { rank: usize, nranks: usize },
    /// A segment arrived out of sequence for its rank (segments within
    /// one rank must be in order; ranks may interleave freely).
    OutOfOrder { rank: usize, expected: u32, got: u32 },
    /// The rank already completed; no further messages are accepted.
    RankComplete { rank: usize },
    /// The rank's completion declared more segments than arrived — some
    /// were dropped in flight or quarantined. The rank is left open so
    /// the job degrades (the rank reports as lost) instead of merging a
    /// silently short trace.
    MissingSegments { rank: usize, declared: u32, arrived: u32 },
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Decode(e) => write!(f, "segment payload did not decode: {e}"),
            SegmentError::UnknownRank { rank, nranks } => {
                write!(f, "rank {rank} outside world of {nranks} ranks")
            }
            SegmentError::OutOfOrder { rank, expected, got } => {
                write!(f, "rank {rank} sent segment {got}, expected {expected}")
            }
            SegmentError::RankComplete { rank } => {
                write!(f, "rank {rank} already completed its stream")
            }
            SegmentError::MissingSegments { rank, declared, arrived } => {
                write!(f, "rank {rank} declared {declared} segments but {arrived} arrived")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// A rank whose stream is still open: its terminal-remapped segment
/// grammars in sequence order, and whether any of them was sealed (a
/// sealed segment forces the wrap rule, mirroring the tracer's own
/// segment assembly).
#[derive(Debug, Default)]
struct OpenRank {
    grammars: Vec<FlatGrammar>,
    next_seq: u32,
    wrapped: bool,
}

/// Streaming counterpart of the batch binomial merge.
///
/// Segments are folded into one shared CST *as they arrive*, in any
/// interleaving across ranks, so the collector holds a single merged
/// state instead of P full pieces. Arrival order would normally leak
/// into terminal numbering; the merger therefore tags every terminal
/// with the smallest `(rank, seq, index)` that produced it and
/// renumbers canonically at [`IncrementalMerger::finalize`] — the
/// result is byte-identical to what the batch merge computes from the
/// same ranks (the batch gather interns CSTs in ascending-rank scan
/// order, which is exactly the sorted key order).
///
/// Grammar identity checks run in arrival-terminal space; that is sound
/// because the canonical renumbering is a bijection applied uniformly,
/// so two grammars are equal before the renumbering iff they are equal
/// after it. Timing grammars encode bin ids, never CST terminals, and
/// are never remapped — same as the batch path.
#[derive(Debug)]
pub struct IncrementalMerger {
    nranks: usize,
    identity_check: bool,
    /// Shared CST in arrival order.
    cst: Cst,
    /// Per arrival-order terminal: the minimum `(rank, seq, index)` key.
    keys: Vec<(u32, u32, u32)>,
    open: HashMap<usize, OpenRank>,
    set: GrammarSet,
    dur_set: GrammarSet,
    int_set: GrammarSet,
    events: EventList,
    /// Lowest-completed-rank encoder config (the batch merge uses rank
    /// 0's piece; rank 0 is the lowest rank that can complete).
    encoder_cfg: Option<(usize, EncoderConfig)>,
    done: Vec<bool>,
    /// Ranks salvaged from an incomplete stream prefix, with the call
    /// count the salvaged grammar expands to (recovery path only).
    checkpointed: HashMap<usize, u64>,
    calls: u64,
    segments: u64,
    ingested_bytes: u64,
}

impl IncrementalMerger {
    pub fn new(nranks: usize) -> Self {
        IncrementalMerger {
            nranks,
            identity_check: true,
            cst: Cst::new(),
            keys: Vec::new(),
            open: HashMap::new(),
            set: Vec::new(),
            dur_set: Vec::new(),
            int_set: Vec::new(),
            events: Vec::new(),
            encoder_cfg: None,
            done: vec![false; nranks],
            checkpointed: HashMap::new(),
            calls: 0,
            segments: 0,
            ingested_bytes: 0,
        }
    }

    /// Toggles the grammar identity check applied at rank completion
    /// (§3.5.2 ablation; on by default).
    pub fn identity_check(mut self, on: bool) -> Self {
        self.identity_check = on;
        self
    }

    /// World size this merger was built for.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Total traced calls across completed ranks.
    pub fn call_count(&self) -> u64 {
        self.calls
    }

    /// Segments accepted so far.
    pub fn segment_count(&self) -> u64 {
        self.segments
    }

    /// Raw segment bytes accepted so far.
    pub fn ingested_bytes(&self) -> u64 {
        self.ingested_bytes
    }

    /// True once every rank has completed its stream.
    pub fn is_complete(&self) -> bool {
        self.done.iter().all(|&d| d)
    }

    /// Ranks that have completed their streams so far.
    pub fn completed_ranks(&self) -> usize {
        self.done.iter().filter(|&&d| d).count()
    }

    /// Folds one streamed segment into the shared CST and this rank's
    /// open grammar list. Segments from different ranks may interleave
    /// arbitrarily; within a rank they must arrive in sequence order.
    pub fn accept_segment(&mut self, seg: &TraceSegment) -> Result<(), SegmentError> {
        if seg.rank >= self.nranks {
            return Err(SegmentError::UnknownRank { rank: seg.rank, nranks: self.nranks });
        }
        if self.done[seg.rank] {
            return Err(SegmentError::RankComplete { rank: seg.rank });
        }
        let expected = self.open.get(&seg.rank).map_or(0, |o| o.next_seq);
        if seg.seq != expected {
            return Err(SegmentError::OutOfOrder { rank: seg.rank, expected, got: seg.seq });
        }
        let ck = decode_checkpoint(&seg.bytes).map_err(SegmentError::Decode)?;
        let mut remap: Vec<u32> = Vec::with_capacity(ck.cst.len());
        for (i, sig, st) in ck.cst.iter() {
            let t = self.cst.intern(sig, st);
            let key = (seg.rank as u32, seg.seq, i);
            if t as usize == self.keys.len() {
                self.keys.push(key);
            } else if key < self.keys[t as usize] {
                self.keys[t as usize] = key;
            }
            remap.push(t);
        }
        let g = map_terminals(&ck.grammar, &remap);
        let open = self.open.entry(seg.rank).or_default();
        open.grammars.push(g);
        open.next_seq = seg.seq + 1;
        open.wrapped |= seg.sealed;
        self.segments += 1;
        self.ingested_bytes += seg.bytes.len() as u64;
        Ok(())
    }

    /// Closes a rank's stream: assembles its segment grammars into the
    /// rank's full-trace grammar (identically to the tracer's own
    /// segment assembly) and merges it into the collector's grammar set
    /// with the identity check. The rank's per-segment state is dropped
    /// here — this is what keeps the collector's footprint one merged
    /// state rather than P pieces.
    pub fn complete_rank(&mut self, done: RankCompletion) -> Result<(), SegmentError> {
        if done.rank >= self.nranks {
            return Err(SegmentError::UnknownRank { rank: done.rank, nranks: self.nranks });
        }
        if self.done[done.rank] {
            return Err(SegmentError::RankComplete { rank: done.rank });
        }
        let arrived = self.open.get(&done.rank).map_or(0, |o| o.next_seq);
        if done.segments > arrived {
            // Leave the rank open: finalize will record it as lost rather
            // than pass off a silently truncated stream as complete.
            return Err(SegmentError::MissingSegments {
                rank: done.rank,
                declared: done.segments,
                arrived,
            });
        }
        let open = self.open.remove(&done.rank).unwrap_or_default();
        let grammar = assemble_rank(open);
        let entry = (grammar, vec![(done.rank as u64, done.call_count)]);
        if self.identity_check {
            merge_sets(&mut self.set, vec![entry]);
        } else {
            self.set.push(entry);
        }
        // Timing sets always dedup, identity check or not (batch Phase 2b).
        if let Some(d) = done.duration {
            merge_sets(&mut self.dur_set, vec![(d, vec![(done.rank as u64, 0)])]);
        }
        if let Some(i) = done.interval {
            merge_sets(&mut self.int_set, vec![(i, vec![(done.rank as u64, 0)])]);
        }
        self.events.extend(done.events.into_iter().map(|ev| (done.rank as u64, ev)));
        match self.encoder_cfg {
            Some((r, _)) if r <= done.rank => {}
            _ => self.encoder_cfg = Some((done.rank, done.encoder_cfg)),
        }
        self.done[done.rank] = true;
        self.calls += done.call_count;
        Ok(())
    }

    /// Salvages every still-open rank: assembles whatever in-order
    /// prefix of its stream arrived into a grammar and merges it as a
    /// `Checkpoint { calls }` rank, mirroring the batch merge's
    /// checkpoint recovery for unmerged ranks. This is the recovery
    /// path's half-a-stream answer — a WAL can hold a rank's segments
    /// without its completion record (the collector died first), and
    /// the accepted prefix is crash-consistent by construction. Live
    /// ingest never calls this: a rank that stalls mid-stream stays
    /// `Lost` under a plain `finalize`. Returns the salvaged
    /// `(rank, calls)` pairs, ascending by rank.
    pub fn salvage_open_ranks(&mut self) -> Vec<(usize, u64)> {
        let mut ranks: Vec<usize> = self.open.keys().copied().collect();
        ranks.sort_unstable();
        let mut salvaged = Vec::new();
        for rank in ranks {
            let Some(open) = self.open.remove(&rank) else { continue };
            if open.grammars.is_empty() {
                continue;
            }
            let grammar = assemble_rank(open);
            let calls = grammar.expanded_len();
            if calls == 0 {
                continue;
            }
            let entry = (grammar, vec![(rank as u64, calls)]);
            if self.identity_check {
                merge_sets(&mut self.set, vec![entry]);
            } else {
                self.set.push(entry);
            }
            self.checkpointed.insert(rank, calls);
            self.calls += calls;
            salvaged.push((rank, calls));
        }
        salvaged
    }

    /// Canonicalizes and combines: renumbers terminals into the batch
    /// merge's rank-scan order, sorts rank lists and grammar-set entries
    /// the way the batch gather produces them, and runs the same rank-0
    /// combination (hash-cons, top-sequence Sequitur pass, timing
    /// split). Ranks that never completed are recorded as
    /// `Lost { round: 0 }` in the completeness manifest, unless
    /// [`Self::salvage_open_ranks`] rescued their prefix first
    /// (`Checkpoint { calls }`).
    pub fn finalize(self) -> GlobalTrace {
        let nranks = self.nranks;
        // Canonical terminal order: ascending minimum (rank, seq, index)
        // — first appearance under the batch gather's rank scan.
        let mut order: Vec<u32> = (0..self.keys.len() as u32).collect();
        order.sort_by_key(|&t| self.keys[t as usize]);
        let mut remap = vec![0u32; order.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let mut global_cst = Cst::new();
        for &old in &order {
            global_cst.intern(self.cst.signature(old), self.cst.stats(old));
        }
        let canonical_set = |set: GrammarSet, renumber: bool| -> GrammarSet {
            let mut out: GrammarSet = set
                .into_iter()
                .map(|(g, mut ranks)| {
                    ranks.sort_unstable();
                    (if renumber { map_terminals(&g, &remap) } else { g }, ranks)
                })
                .collect();
            out.sort_by_key(|(_, ranks)| ranks.first().map_or(u64::MAX, |&(r, _)| r));
            out
        };
        let set = canonical_set(self.set, true);
        // Timing grammars are bin-id space: sort but never renumber.
        let dur_set = canonical_set(self.dur_set, false);
        let int_set = canonical_set(self.int_set, false);

        let mut statuses = vec![RankStatus::Merged; nranks];
        for (rank, &done) in self.done.iter().enumerate() {
            if !done {
                statuses[rank] = match self.checkpointed.get(&rank) {
                    Some(&calls) => RankStatus::Checkpoint { calls },
                    None => RankStatus::Lost { round: 0 },
                };
            }
        }
        let mut manifest_events: Vec<(u32, DegradationEvent)> = self
            .events
            .into_iter()
            .filter(|&(r, _)| (r as usize) < nranks)
            .map(|(r, ev)| (r as u32, ev))
            .collect();
        manifest_events.sort_by_key(|&(r, ev)| (r, ev.call_index, ev.stage.code()));
        let all_merged = statuses.iter().all(|s| matches!(s, RankStatus::Merged));
        let completeness = if all_merged && manifest_events.is_empty() {
            TraceCompleteness::complete()
        } else {
            TraceCompleteness {
                ranks: if all_merged { Vec::new() } else { statuses },
                events: manifest_events,
            }
        };

        let unique_grammars = set.len();
        let (grammar, rank_lengths) = combine_grammars(&set, nranks);
        let (duration_grammars, mut duration_rank_map) = split_timing(dur_set, nranks);
        let (interval_grammars, mut interval_rank_map) = split_timing(int_set, nranks);
        for &(r, ev) in &completeness.events {
            if ev.stage.is_memory_rung()
                && ev.stage >= crate::governor::DegradationStage::AggregateTiming
            {
                if let Some(slot) = duration_rank_map.get_mut(r as usize) {
                    *slot = u32::MAX;
                }
                if let Some(slot) = interval_rank_map.get_mut(r as usize) {
                    *slot = u32::MAX;
                }
            }
        }

        GlobalTrace {
            nranks,
            encoder_cfg: self.encoder_cfg.map_or_else(EncoderConfig::default, |(_, c)| c),
            cst: global_cst,
            grammar,
            rank_lengths,
            unique_grammars,
            duration_grammars,
            interval_grammars,
            duration_rank_map,
            interval_rank_map,
            completeness,
            nondet: None,
        }
    }
}

/// Assembles a rank's streamed segments into its full-trace grammar,
/// mirroring the tracer's own assembly exactly: a lone unsealed (final)
/// segment is the grammar itself; any sealed segment forces the wrap —
/// rule 0 references each segment's top rule in sequence order, with
/// every segment's rule ids offset into one space.
fn assemble_rank(open: OpenRank) -> FlatGrammar {
    if !open.wrapped && open.grammars.len() <= 1 {
        return open.grammars.into_iter().next().unwrap_or_else(FlatGrammar::empty);
    }
    let mut rules: Vec<FlatRule> = vec![FlatRule { symbols: Vec::new() }];
    let mut tops: Vec<u32> = Vec::with_capacity(open.grammars.len());
    for g in &open.grammars {
        let offset = rules.len() as u32;
        tops.push(offset);
        for r in &g.rules {
            rules.push(FlatRule {
                symbols: r
                    .symbols
                    .iter()
                    .map(|&(s, e)| match s {
                        Symbol::Rule(q) => (Symbol::Rule(q + offset), e),
                        t => (t, e),
                    })
                    .collect(),
            });
        }
    }
    rules[0] = FlatRule { symbols: tops.iter().map(|&t| (Symbol::Rule(t), 1)).collect() };
    FlatGrammar { rules }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilgrim_sequitur::Grammar;

    fn grammar_of(seq: &[u32]) -> FlatGrammar {
        let mut g = Grammar::new();
        for &t in seq {
            g.push(t);
        }
        g.to_flat()
    }

    #[test]
    fn identical_grammars_dedup_in_sets() {
        let g = grammar_of(&[1, 2, 1, 2]);
        let mut mine: GrammarSet = vec![(g.clone(), vec![(0, 4)])];
        merge_sets(&mut mine, vec![(g.clone(), vec![(1, 4)])]);
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].1, vec![(0, 4), (1, 4)]);
        merge_sets(&mut mine, vec![(grammar_of(&[9]), vec![(2, 1)])]);
        assert_eq!(mine.len(), 2);
    }

    #[test]
    fn grammar_set_serialization_roundtrip() {
        let set: GrammarSet =
            vec![(grammar_of(&[1, 2, 3]), vec![(0, 3), (2, 3)]), (grammar_of(&[7]), vec![(1, 1)])];
        let bytes = ser_grammar_set(&set);
        let back = deser_grammar_set(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, set[0].0);
        assert_eq!(back[1].1, vec![(1, 1)]);
    }

    #[test]
    fn phase2_payload_roundtrips_lost_list() {
        let set: GrammarSet = vec![(grammar_of(&[1, 2]), vec![(0, 2)])];
        let lost = vec![(3u64, 2u32), (4, 0)];
        let bytes = ser_phase2(&set, &lost, &Vec::new());
        let (back_set, back_lost, back_events) = deser_phase2(&bytes).unwrap();
        assert_eq!(back_set.len(), 1);
        assert_eq!(back_lost, lost);
        assert!(back_events.is_empty());
    }

    #[test]
    fn phase2_payload_roundtrips_degradation_events() {
        use crate::governor::{Component, DegradationStage};
        let set: GrammarSet = vec![(grammar_of(&[1, 2]), vec![(0, 2)])];
        let events: EventList = vec![
            (
                1,
                DegradationEvent {
                    call_index: 17,
                    stage: DegradationStage::FreezeGrammar,
                    component: Component::CallGrammar,
                    bytes: 4096,
                },
            ),
            (
                1,
                DegradationEvent {
                    call_index: 40,
                    stage: DegradationStage::SealSegment,
                    component: Component::Cst,
                    bytes: 8192,
                },
            ),
        ];
        let bytes = ser_phase2(&set, &[], &events);
        let (_, _, back) = deser_phase2(&bytes).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn combine_identical_ranks_is_compact() {
        // 8 ranks, all with the same grammar: top level becomes one
        // counted reference (paper: constant-size inter-process merge).
        let g = grammar_of(&[5, 6, 5, 6, 5, 6]);
        let set: GrammarSet = vec![(g, (0..8).map(|r| (r, 6)).collect())];
        let (combined, lens) = combine_grammars(&set, 8);
        assert_eq!(lens, vec![6; 8]);
        assert_eq!(combined.expanded_len(), 48);
        let expanded = combined.expand();
        assert_eq!(&expanded[..6], &[5, 6, 5, 6, 5, 6]);
        assert_eq!(&expanded[42..], &[5, 6, 5, 6, 5, 6]);
        // Adding ranks must not add rules: the top is a counted run.
        let g2 = grammar_of(&[5, 6, 5, 6, 5, 6]);
        let set2: GrammarSet = vec![(g2, (0..64).map(|r| (r, 6)).collect())];
        let (combined2, _) = combine_grammars(&set2, 64);
        assert_eq!(combined2.num_rules(), combined.num_rules());
    }

    #[test]
    fn combine_skips_lost_ranks() {
        // Rank 1 of 3 is lost: it must contribute nothing — not rank 0's
        // sequence (the old behavior spliced root 0 in for missing ranks).
        let a = grammar_of(&[1, 2, 1, 2]);
        let b = grammar_of(&[7, 8]);
        let set: GrammarSet = vec![(a, vec![(0, 4)]), (b, vec![(2, 2)])];
        let (combined, lens) = combine_grammars(&set, 3);
        assert_eq!(lens, vec![4, 0, 2]);
        assert_eq!(combined.expanded_len(), 6);
        assert_eq!(combined.expand(), vec![1, 2, 1, 2, 7, 8]);
    }

    #[test]
    fn combine_shares_rules_across_grammars() {
        // Figure 4: two grammar shapes sharing sub-structure.
        let a = grammar_of(&[1, 2, 1, 2, 3, 3]);
        let b = grammar_of(&[1, 2, 1, 2, 9, 9]);
        let set: GrammarSet =
            vec![(a.clone(), vec![(0, 6), (1, 6)]), (b.clone(), vec![(2, 6), (3, 6)])];
        let (combined, lens) = combine_grammars(&set, 4);
        assert_eq!(lens, vec![6; 4]);
        let expanded = combined.expand();
        assert_eq!(&expanded[..6], &[1, 2, 1, 2, 3, 3]);
        assert_eq!(&expanded[12..18], &[1, 2, 1, 2, 9, 9]);
    }

    #[test]
    fn interleaved_rank_assignment_preserves_order() {
        // Odd ranks have one grammar, even ranks another.
        let a = grammar_of(&[1]);
        let b = grammar_of(&[2]);
        let set: GrammarSet = vec![(a, vec![(0, 1), (2, 1)]), (b, vec![(1, 1), (3, 1)])];
        let (combined, _) = combine_grammars(&set, 4);
        assert_eq!(combined.expand(), vec![1, 2, 1, 2]);
    }

    #[test]
    fn map_terminals_renumbers() {
        let g = grammar_of(&[0, 1, 0, 1]);
        let m = map_terminals(&g, &[10, 20]);
        assert_eq!(m.expand(), vec![10, 20, 10, 20]);
    }

    #[test]
    fn hash_cons_collapses_identical_rules() {
        // Two copies of the same two-rule grammar.
        let g = grammar_of(&[4, 5, 4, 5, 4, 5, 4, 5]);
        assert!(g.num_rules() >= 2, "test needs a sub-rule");
        let mut all = Vec::new();
        let mut roots = Vec::new();
        for copy in 0..2u32 {
            let off = all.len() as u32;
            roots.push(off);
            for r in &g.rules {
                all.push(FlatRule {
                    symbols: r
                        .symbols
                        .iter()
                        .map(|&(s, e)| match s {
                            Symbol::Rule(q) => (Symbol::Rule(q + off), e),
                            t => (t, e),
                        })
                        .collect(),
                });
            }
            let _ = copy;
        }
        let (consed, map) = hash_cons(&all, &roots);
        assert_eq!(consed.len(), g.num_rules(), "duplicate rules must collapse");
        assert_eq!(map[roots[0] as usize], map[roots[1] as usize]);
    }

    // -- incremental merger --

    fn segment(rank: usize, seq: u32, sealed: bool, sigs: &[&[u8]]) -> TraceSegment {
        let mut cst = Cst::new();
        let mut g = Grammar::new();
        for s in sigs {
            let t = cst.observe(s, 10);
            g.push(t);
        }
        let flat = g.to_flat();
        let bytes = crate::checkpoint::encode_checkpoint(flat.expanded_len(), &cst, &flat);
        TraceSegment { rank, seq, sealed, bytes }
    }

    fn completion(rank: usize, calls: u64, segments: u32) -> RankCompletion {
        RankCompletion {
            rank,
            call_count: calls,
            segments,
            duration: None,
            interval: None,
            encoder_cfg: EncoderConfig::default(),
            events: Vec::new(),
        }
    }

    #[test]
    fn completion_serialization_roundtrips() {
        use crate::governor::{Component, DegradationStage};
        let done = RankCompletion {
            rank: 3,
            call_count: 99,
            segments: 4,
            duration: Some(grammar_of(&[1, 1, 2])),
            interval: None,
            encoder_cfg: EncoderConfig::default(),
            events: vec![DegradationEvent {
                call_index: 12,
                stage: DegradationStage::FreezeGrammar,
                component: Component::CallGrammar,
                bytes: 2048,
            }],
        };
        let mut bytes = Vec::new();
        done.serialize(&mut bytes);
        let mut pos = 0;
        let back = RankCompletion::decode(&bytes, &mut pos).expect("roundtrip");
        assert_eq!(pos, bytes.len());
        assert_eq!(back.rank, 3);
        assert_eq!(back.call_count, 99);
        assert_eq!(back.segments, 4);
        assert_eq!(back.duration, done.duration);
        assert_eq!(back.interval, None);
        assert_eq!(back.events, done.events);
        // Every truncation must error, never panic.
        for cut in 0..bytes.len() {
            let mut p = 0;
            let r = RankCompletion::decode(&bytes[..cut], &mut p);
            assert!(r.is_err() || p <= cut, "prefix {cut} decoded past its end");
        }
    }

    #[test]
    fn completion_with_missing_segments_leaves_rank_open() {
        let mut m = IncrementalMerger::new(1);
        m.accept_segment(&segment(0, 0, true, &[b"a"])).unwrap();
        // Declared 3 segments, only 1 arrived (e.g. one was quarantined).
        assert!(matches!(
            m.complete_rank(completion(0, 3, 3)),
            Err(SegmentError::MissingSegments { rank: 0, declared: 3, arrived: 1 })
        ));
        assert!(!m.is_complete());
        let trace = m.finalize();
        assert_eq!(trace.completeness.ranks[0], RankStatus::Lost { round: 0 });
    }

    #[test]
    fn incremental_rejects_bad_streams() {
        let mut m = IncrementalMerger::new(2);
        assert!(matches!(
            m.accept_segment(&segment(7, 0, false, &[b"a"])),
            Err(SegmentError::UnknownRank { rank: 7, nranks: 2 })
        ));
        assert!(matches!(
            m.accept_segment(&segment(0, 3, false, &[b"a"])),
            Err(SegmentError::OutOfOrder { rank: 0, expected: 0, got: 3 })
        ));
        m.accept_segment(&segment(0, 0, false, &[b"a"])).unwrap();
        m.complete_rank(completion(0, 1, 1)).unwrap();
        assert!(matches!(
            m.accept_segment(&segment(0, 1, false, &[b"a"])),
            Err(SegmentError::RankComplete { rank: 0 })
        ));
        let seg = TraceSegment { rank: 1, seq: 0, sealed: false, bytes: vec![0xFF, 0xFF] };
        assert!(matches!(m.accept_segment(&seg), Err(SegmentError::Decode(_))));
    }

    #[test]
    fn incremental_is_arrival_order_independent() {
        // Overlapping signatures across ranks: terminal numbering must
        // come out in rank-scan order regardless of arrival order.
        let run = |rank_first: usize| {
            let mut m = IncrementalMerger::new(2);
            let order = if rank_first == 0 { [0usize, 1] } else { [1, 0] };
            for &r in &order {
                let sigs: &[&[u8]] = if r == 0 { &[b"x", b"y", b"x"] } else { &[b"z", b"y", b"z"] };
                m.accept_segment(&segment(r, 0, false, sigs)).unwrap();
            }
            for r in 0..2 {
                m.complete_rank(completion(r, 3, 1)).unwrap();
            }
            assert!(m.is_complete());
            m.finalize().serialize()
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn incremental_wraps_sealed_segments() {
        let mut m = IncrementalMerger::new(1);
        m.accept_segment(&segment(0, 0, true, &[b"a", b"b"])).unwrap();
        m.accept_segment(&segment(0, 1, false, &[b"b", b"c"])).unwrap();
        m.complete_rank(completion(0, 4, 2)).unwrap();
        let trace = m.finalize();
        assert_eq!(trace.rank_lengths, vec![4]);
        assert_eq!(trace.cst.len(), 3);
        assert_eq!(trace.grammar.expand(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn incremental_marks_missing_ranks_lost() {
        let mut m = IncrementalMerger::new(3);
        m.accept_segment(&segment(0, 0, false, &[b"a"])).unwrap();
        m.complete_rank(completion(0, 1, 1)).unwrap();
        m.accept_segment(&segment(2, 0, false, &[b"a"])).unwrap();
        m.complete_rank(completion(2, 1, 1)).unwrap();
        assert!(!m.is_complete());
        let trace = m.finalize();
        assert_eq!(trace.completeness.ranks[1], RankStatus::Lost { round: 0 });
        assert_eq!(trace.rank_lengths, vec![1, 0, 1]);
    }
}
