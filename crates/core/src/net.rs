//! `PNT1`: the fault-tolerant wire transport between a traced client and
//! a networked collector.
//!
//! The client side ([`NetClient`] / [`NetJobHandle`]) is a drop-in
//! [`SegmentSink`]: a tracer streams segments into it exactly as it
//! would into an in-process [`JobHandle`], and the client ships them
//! over TCP to a collector running [`serve`]. The stream is framed with
//! the same `[kind][varint len][payload][crc32]` codec as the write-ahead
//! log ([`crate::wal::encode_frame`]) behind a 4-byte `PNT1` magic and a
//! versioned hello, so a frame accepted off the wire can be re-framed
//! into a WAL byte-for-byte.
//!
//! ## Fault model
//!
//! The traced rank is never blocked by a dead collector and never
//! silently loses data:
//!
//! - Frames wait in a bounded in-memory queue. Behind a full queue they
//!   are appended to the client's one on-disk log,
//!   `<spill_dir>/wal/client-<id>.wal` — an ordinary `PWL1` WAL
//!   ([`crate::wal`]) — and read back in FIFO order; a drained log is
//!   deleted. The rank is never blocked.
//! - A broken connection is retried with exponential backoff plus
//!   deterministic jitter. Every (re)connect replays the client's job
//!   opens (the server dedups) and retransmits unacked frames; the
//!   server acks each frame *after* appending it to a per-connection WAL
//!   and dedups retransmits by `(job, rank, seq)` watermark.
//! - When the retry budget runs out — refused connects, a partition, a
//!   collector that stays dead — the client degrades to a local spill:
//!   the log is rotated into a fresh one holding every job open, then
//!   the unacked frames, the queued frames and the log's unread tail;
//!   later frames append to it, and `finish` rebuilds the job from it
//!   with crash recovery's own replay ([`crate::recover`]) into a local
//!   container. A client spill dir is therefore an ordinary recoverable
//!   directory. The degradation is recorded in the trace's completeness
//!   manifest ([`DegradationStage::LocalSpill`], surfaced by
//!   `fidelity()`), never papered over.
//!
//! The server survives being killed outright: its per-connection WALs
//! under `<spill_dir>/wal/` are written before each ack, so
//! `trace_tool recover` can rebuild every acked byte, and a restarted
//! [`serve`] on the same directory appends new conn logs next to the old
//! ones instead of truncating them. Seeded fault injection for all of
//! this lives in [`crate::net_fault`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::fs;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pilgrim_sequitur::{read_varint, write_varint};

use crate::auth::{
    challenge_response, ct_eq, fresh_nonce, session_key, AuthKey, MacState, DIR_CLIENT, DIR_SERVER,
    MAC_LEN, NONCE_LEN,
};
use crate::error::DecodeError;
use crate::export::{write_container, write_container_file};
use crate::governor::{Component, DegradationEvent, DegradationStage};
use crate::ingest::{IngestSession, JobHandle, RetryPolicy, SegmentSink};
use crate::merge::{RankCompletion, TraceSegment};
use crate::net_fault::NetFaultPlan;
use crate::recover::replay_job;
use crate::wal::{
    encode_frame, put_complete, put_open, put_segment, read_array, read_u64, read_wal, split_frame,
    WalRecord, WalWriter, WAL_MAGIC,
};

/// Leading magic both peers send before their hello frame.
pub const NET_MAGIC: &[u8; 4] = b"PNT1";
/// Protocol version carried in the hello exchange.
pub const NET_VERSION: u32 = 1;

const KIND_HELLO: u8 = 1;
const KIND_HELLO_ACK: u8 = 2;
const KIND_JOB_OPEN: u8 = 3;
const KIND_SEGMENT: u8 = 4;
const KIND_COMPLETE: u8 = 5;
const KIND_FINISHED: u8 = 6;
const KIND_HEARTBEAT: u8 = 7;
const KIND_ACK: u8 = 8;
const KIND_CHALLENGE: u8 = 9;
const KIND_AUTH_RESPONSE: u8 = 10;
const KIND_BUSY: u8 = 11;
const KIND_REJECT: u8 = 12;

/// [`NetFrame::Reject`] codes.
/// The peer's protocol version is not this one.
pub const REJECT_VERSION: u8 = 1;
/// The collector requires authentication and the hello offered none.
pub const REJECT_AUTH_REQUIRED: u8 = 2;
/// The challenge response did not verify (wrong key or a replay).
pub const REJECT_BAD_MAC: u8 = 3;
/// A frame declared a resource bound (e.g. `JobOpen.nranks`) beyond
/// the collector's ceiling.
pub const REJECT_LIMITS: u8 = 4;

/// Frames the client may keep unacked before it pauses sending.
const ACK_WINDOW: usize = 1024;

/// Decode-size cap while a connection is still in its hello exchange:
/// every legitimate handshake frame fits in well under this.
const HELLO_MAX_FRAME: usize = 4096;

/// Ceiling on the rank count a `JobOpen` may declare. The merger
/// allocates `nranks`-sized state up front, so an unbounded wire
/// varint would let one small frame force an arbitrary allocation;
/// anything above this is refused with [`REJECT_LIMITS`].
pub const MAX_NRANKS: usize = 1 << 20;

/// One `PNT1` frame. The record-bearing kinds mirror [`WalRecord`]
/// one-for-one so the server can log exactly what it acks.
#[derive(Debug, Clone, PartialEq)]
pub enum NetFrame {
    /// Client's first frame after the magic.
    Hello {
        version: u32,
        client_id: u64,
    },
    /// Server's reply after its own magic.
    HelloAck {
        version: u32,
    },
    JobOpen {
        job: u64,
        nranks: usize,
        identity_check: bool,
    },
    Segment {
        job: u64,
        seg: TraceSegment,
    },
    Complete {
        job: u64,
        done: RankCompletion,
    },
    Finished {
        job: u64,
    },
    /// Keep-alive; never acked, never logged.
    Heartbeat,
    /// Server receipt. `a`/`b` depend on `of`: rank/seq for a segment,
    /// rank/0 for a completion, lossless-flag/0 for a finish, 0/0 for a
    /// job open.
    Ack {
        job: u64,
        a: u64,
        b: u64,
        of: u8,
    },
    /// Server's auth challenge, sent instead of the hello-ack when a
    /// key is configured. The client proves key possession with an
    /// [`NetFrame::AuthResponse`].
    Challenge {
        nonce: [u8; NONCE_LEN],
    },
    /// Client's HMAC over the nonce and its hello coordinates.
    AuthResponse {
        mac: [u8; 32],
    },
    /// Overload shed: the collector refused to open this (new) job.
    /// The client backs off and eventually degrades to local spill.
    Busy {
        job: u64,
    },
    /// Typed handshake rejection (`REJECT_*` codes); the connection
    /// closes right after.
    Reject {
        code: u8,
    },
}

impl NetFrame {
    fn kind(&self) -> u8 {
        match self {
            NetFrame::Hello { .. } => KIND_HELLO,
            NetFrame::HelloAck { .. } => KIND_HELLO_ACK,
            NetFrame::JobOpen { .. } => KIND_JOB_OPEN,
            NetFrame::Segment { .. } => KIND_SEGMENT,
            NetFrame::Complete { .. } => KIND_COMPLETE,
            NetFrame::Finished { .. } => KIND_FINISHED,
            NetFrame::Heartbeat => KIND_HEARTBEAT,
            NetFrame::Ack { .. } => KIND_ACK,
            NetFrame::Challenge { .. } => KIND_CHALLENGE,
            NetFrame::AuthResponse { .. } => KIND_AUTH_RESPONSE,
            NetFrame::Busy { .. } => KIND_BUSY,
            NetFrame::Reject { .. } => KIND_REJECT,
        }
    }

    fn serialize_payload(&self, out: &mut Vec<u8>) {
        match self {
            NetFrame::Hello { version, client_id } => {
                write_varint(out, *version as u64);
                write_varint(out, *client_id);
            }
            NetFrame::HelloAck { version } => write_varint(out, *version as u64),
            NetFrame::JobOpen { job, nranks, identity_check } => {
                put_open(out, *job, *nranks, *identity_check)
            }
            NetFrame::Segment { job, seg } => put_segment(out, *job, seg),
            NetFrame::Complete { job, done } => put_complete(out, *job, done),
            NetFrame::Finished { job } => write_varint(out, *job),
            NetFrame::Heartbeat => {}
            NetFrame::Ack { job, a, b, of } => {
                write_varint(out, *job);
                write_varint(out, *a);
                write_varint(out, *b);
                out.push(*of);
            }
            NetFrame::Challenge { nonce } => out.extend_from_slice(nonce),
            NetFrame::AuthResponse { mac } => out.extend_from_slice(mac),
            NetFrame::Busy { job } => write_varint(out, *job),
            NetFrame::Reject { code } => out.push(*code),
        }
    }

    /// Encodes the frame with the shared WAL/wire codec.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        self.serialize_payload(&mut payload);
        encode_frame(self.kind(), &payload)
    }

    /// Decodes one frame's payload.
    pub fn decode(kind: u8, buf: &[u8]) -> Result<NetFrame, DecodeError> {
        let pos = &mut 0usize;
        let frame = match kind {
            KIND_HELLO => {
                let version = read_u64(buf, pos, "net hello version")? as u32;
                let client_id = read_u64(buf, pos, "net hello client")?;
                NetFrame::Hello { version, client_id }
            }
            KIND_HELLO_ACK => {
                NetFrame::HelloAck { version: read_u64(buf, pos, "net hello-ack version")? as u32 }
            }
            KIND_JOB_OPEN..=KIND_FINISHED => {
                // Wire kinds 3–6 carry WAL record kinds 1–4, payload for
                // payload.
                let rec = WalRecord::decode_payload(kind - KIND_JOB_OPEN + 1, buf)?;
                return NetFrame::from_record(rec)
                    .ok_or(DecodeError::Corrupt { what: "net frame kind", offset: 0 });
            }
            KIND_HEARTBEAT => NetFrame::Heartbeat,
            KIND_ACK => {
                let job = read_u64(buf, pos, "net ack job")?;
                let a = read_u64(buf, pos, "net ack a")?;
                let b = read_u64(buf, pos, "net ack b")?;
                let [of] = read_array(buf, pos, "net ack of")?;
                NetFrame::Ack { job, a, b, of }
            }
            KIND_CHALLENGE => {
                NetFrame::Challenge { nonce: read_array(buf, pos, "net challenge nonce")? }
            }
            KIND_AUTH_RESPONSE => {
                NetFrame::AuthResponse { mac: read_array(buf, pos, "net auth response")? }
            }
            KIND_BUSY => NetFrame::Busy { job: read_u64(buf, pos, "net busy job")? },
            KIND_REJECT => {
                let [code] = read_array(buf, pos, "net reject code")?;
                NetFrame::Reject { code }
            }
            _ => return Err(DecodeError::Corrupt { what: "net frame kind", offset: 0 }),
        };
        if *pos != buf.len() {
            return Err(DecodeError::Corrupt { what: "net frame trailing bytes", offset: *pos });
        }
        Ok(frame)
    }

    /// Fault-injection coordinates `(job, rank, seq)` for frames the
    /// plan targets; connection-level frames return `None`.
    fn fault_key(&self) -> Option<(u64, u64, u64)> {
        match self {
            NetFrame::JobOpen { job, .. } => Some((*job, u64::MAX, 0)),
            NetFrame::Segment { job, seg } => Some((*job, seg.rank as u64, seg.seq as u64)),
            NetFrame::Complete { job, done } => Some((*job, done.rank as u64, u64::MAX)),
            NetFrame::Finished { job } => Some((*job, u64::MAX, 1)),
            _ => None,
        }
    }

    /// Is this (queued, unacked) frame settled by the given ack?
    fn settled_by(&self, job: u64, a: u64, b: u64, of: u8) -> bool {
        match self {
            NetFrame::JobOpen { job: j, .. } => of == KIND_JOB_OPEN && *j == job,
            NetFrame::Segment { job: j, seg } => {
                of == KIND_SEGMENT && *j == job && seg.rank as u64 == a && seg.seq as u64 == b
            }
            NetFrame::Complete { job: j, done } => {
                of == KIND_COMPLETE && *j == job && done.rank as u64 == a
            }
            NetFrame::Finished { job: j } => of == KIND_FINISHED && *j == job,
            _ => false,
        }
    }

    /// The WAL record this frame carries, for the client log.
    fn as_wal_record(&self) -> Option<WalRecord> {
        match self {
            NetFrame::JobOpen { job, nranks, identity_check } => Some(WalRecord::JobOpen {
                job: *job,
                nranks: *nranks,
                identity_check: *identity_check,
            }),
            NetFrame::Segment { job, seg } => {
                Some(WalRecord::Segment { job: *job, seg: seg.clone() })
            }
            NetFrame::Complete { job, done } => {
                Some(WalRecord::Complete { job: *job, done: done.clone() })
            }
            NetFrame::Finished { job } => Some(WalRecord::Finished { job: *job }),
            _ => None,
        }
    }

    /// The frame carrying a WAL record: the inverse of
    /// [`NetFrame::as_wal_record`], for records read back from the
    /// client log or decoded off the wire. `None` for a quarantine,
    /// which has no frame.
    fn from_record(rec: WalRecord) -> Option<NetFrame> {
        Some(match rec {
            WalRecord::JobOpen { job, nranks, identity_check } => {
                NetFrame::JobOpen { job, nranks, identity_check }
            }
            WalRecord::Segment { job, seg } => NetFrame::Segment { job, seg },
            WalRecord::Complete { job, done } => NetFrame::Complete { job, done },
            WalRecord::Finished { job } => NetFrame::Finished { job },
            WalRecord::Quarantine { .. } => return None,
        })
    }
}

/// Incremental frame reassembly over a byte stream: bytes go in as they
/// arrive, whole frames come out; a torn tail waits for more bytes.
///
/// Hostile-peer hardening: a declared payload length over `cap` is
/// rejected *before* the body is buffered, so a peer announcing a
/// multi-gigabyte frame cannot make the collector hold more than
/// `cap + one read chunk` for it. With a [`MacState`] installed
/// ([`FrameBuf::set_mac`]) every frame must carry a valid chained
/// truncated MAC; a bad tag is a corrupt stream (fail closed).
struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
    cap: usize,
    mac: Option<MacState>,
}

impl FrameBuf {
    fn new() -> FrameBuf {
        FrameBuf::with_cap(usize::MAX)
    }

    fn with_cap(cap: usize) -> FrameBuf {
        FrameBuf { buf: Vec::new(), pos: 0, cap, mac: None }
    }

    fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
    }

    /// Installs the receive-direction MAC chain (post-handshake).
    fn set_mac(&mut self, mac: MacState) {
        self.mac = Some(mac);
    }

    /// Bytes buffered but not yet consumed as frames.
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn extend(&mut self, bytes: &[u8]) {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos > (1 << 16)) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// `None` = need more bytes; `Some(Err)` = the stream is corrupt at
    /// the current frame (the connection must be dropped).
    fn next_frame(&mut self) -> Option<Result<NetFrame, DecodeError>> {
        // Reject an over-cap declared length up front, while the buffer
        // holds at most the frame header.
        {
            let mut peek = self.pos;
            if self.buf.get(peek).is_some() {
                peek += 1;
                if let Some(len) = read_varint(&self.buf, &mut peek) {
                    if len > self.cap as u64 {
                        return Some(Err(DecodeError::Corrupt {
                            what: "net frame over length cap",
                            offset: self.pos,
                        }));
                    }
                }
            }
        }
        let start = self.pos;
        let mut pos = start;
        let parsed = split_frame(&self.buf, &mut pos)?;
        let (kind, payload) = match parsed {
            Ok(kp) => kp,
            Err(e) => {
                self.pos = pos;
                return Some(Err(e));
            }
        };
        let out = match self.mac.as_mut() {
            Some(mac) => {
                // An authenticated frame is `frame || mac8`; wait for
                // the tag before judging the frame.
                let tag = self.buf.get(pos..pos + MAC_LEN)?;
                if !mac.verify(&self.buf[start..pos], tag) {
                    return Some(Err(DecodeError::Corrupt {
                        what: "net frame mac",
                        offset: start,
                    }));
                }
                pos += MAC_LEN;
                NetFrame::decode(kind, payload)
            }
            None => NetFrame::decode(kind, payload),
        };
        self.pos = pos;
        Some(out)
    }
}

/// Poison-tolerant lock: a panicked holder must not wedge the transport.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Collector-side knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Per-connection read deadline: a connection silent this long is
    /// closed (clients heartbeat well inside it).
    pub io_timeout: Duration,
    /// How long a fresh connection gets to complete the hello.
    pub hello_timeout: Duration,
    /// Per-job seal deadline handed to the ingest session: an orphaned
    /// job (its client gone for good) is finalized with whatever
    /// arrived instead of staying open forever.
    pub job_timeout: Option<Duration>,
    /// Fault hook: hard-stop the server (sockets shut, no more acks, the
    /// session abandoned) the moment this many jobs have finished.
    /// Simulates the collector being killed for restart/recovery tests.
    pub kill_after_finished: Option<u64>,
    /// Pre-shared wire key. When set, every hello is challenged and
    /// every post-handshake frame must carry a chained MAC; without it
    /// the server accepts unauthenticated v1 peers (loopback mode).
    pub auth_key: Option<AuthKey>,
    /// Admission control: concurrent connections beyond this wait in
    /// the kernel accept queue (FIFO, so admission stays fair).
    pub max_connections: usize,
    /// Decode-size cap: a frame declaring a larger payload is rejected
    /// before its body is buffered, bounding per-connection memory.
    pub max_frame_len: usize,
    /// Per-connection byte budget per rolling second; a peer over it is
    /// disconnected (counted in `throttled`).
    pub max_conn_bytes_per_sec: Option<u64>,
    /// Per-connection frame budget per rolling second.
    pub max_conn_frames_per_sec: Option<u64>,
    /// Overload shedding: refuse *new* JobOpens with [`NetFrame::Busy`]
    /// while this many jobs are open and unfinished.
    pub max_open_jobs: Option<u64>,
    /// Overload shedding: refuse new JobOpens once the per-connection
    /// WALs hold this many bytes in total.
    pub max_wal_bytes: Option<u64>,
    /// Overload shedding: refuse new JobOpens while the ingest queue
    /// saturation ([`IngestSession::saturation`]) is at or above this
    /// fraction (e.g. `0.9`).
    pub shed_saturation: Option<f64>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            io_timeout: Duration::from_secs(5),
            hello_timeout: Duration::from_secs(2),
            job_timeout: None,
            kill_after_finished: None,
            auth_key: None,
            max_connections: 256,
            max_frame_len: 64 << 20,
            max_conn_bytes_per_sec: None,
            max_conn_frames_per_sec: None,
            max_open_jobs: None,
            max_wal_bytes: None,
            shed_saturation: None,
        }
    }
}

impl NetServerConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn io_timeout(mut self, d: Duration) -> Self {
        self.io_timeout = d;
        self
    }

    pub fn hello_timeout(mut self, d: Duration) -> Self {
        self.hello_timeout = d;
        self
    }

    pub fn job_timeout(mut self, d: Duration) -> Self {
        self.job_timeout = Some(d);
        self
    }

    pub fn kill_after_finished(mut self, n: u64) -> Self {
        self.kill_after_finished = Some(n);
        self
    }

    pub fn auth_key(mut self, key: AuthKey) -> Self {
        self.auth_key = Some(key);
        self
    }

    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    pub fn max_frame_len(mut self, n: usize) -> Self {
        self.max_frame_len = n.max(HELLO_MAX_FRAME);
        self
    }

    pub fn max_conn_bytes_per_sec(mut self, n: u64) -> Self {
        self.max_conn_bytes_per_sec = Some(n);
        self
    }

    pub fn max_conn_frames_per_sec(mut self, n: u64) -> Self {
        self.max_conn_frames_per_sec = Some(n);
        self
    }

    pub fn max_open_jobs(mut self, n: u64) -> Self {
        self.max_open_jobs = Some(n);
        self
    }

    pub fn max_wal_bytes(mut self, n: u64) -> Self {
        self.max_wal_bytes = Some(n);
        self
    }

    pub fn shed_saturation(mut self, frac: f64) -> Self {
        self.shed_saturation = Some(frac);
        self
    }
}

#[derive(Debug, Default)]
struct ServerCounters {
    connections: AtomicU64,
    frames: AtomicU64,
    acks: AtomicU64,
    dup_frames: AtomicU64,
    torn_conns: AtomicU64,
    protocol_errors: AtomicU64,
    bad_hello: AtomicU64,
    idle_closed: AtomicU64,
    stale_finishes: AtomicU64,
    heartbeats: AtomicU64,
    wal_errors: AtomicU64,
    jobs_opened: AtomicU64,
    jobs_finished: AtomicU64,
    auth_failures: AtomicU64,
    version_skew: AtomicU64,
    sheds: AtomicU64,
    throttled: AtomicU64,
    slow_loris_closed: AtomicU64,
    peak_conn_buffer: AtomicU64,
    wal_bytes: AtomicU64,
}

/// Snapshot of the server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetServerStats {
    pub connections: u64,
    /// Frames accepted off the wire (heartbeats included).
    pub frames: u64,
    pub acks: u64,
    /// Retransmits dropped by the `(job, rank, seq)` watermark.
    pub dup_frames: u64,
    /// Connections dropped on a torn or corrupt frame.
    pub torn_conns: u64,
    pub protocol_errors: u64,
    /// Connections that never completed a valid hello.
    pub bad_hello: u64,
    /// Connections closed at the idle read deadline.
    pub idle_closed: u64,
    /// Finish retransmits for jobs this server never saw data for
    /// (a finish replayed across a collector restart).
    pub stale_finishes: u64,
    pub heartbeats: u64,
    /// Failed conn-WAL appends (the frame was not acked).
    pub wal_errors: u64,
    pub jobs_opened: u64,
    pub jobs_finished: u64,
    /// Hellos rejected by the challenge–response (wrong key, replayed
    /// response, or no response at all).
    pub auth_failures: u64,
    /// Hellos rejected for a protocol version mismatch.
    pub version_skew: u64,
    /// New JobOpens refused with a `Busy` frame under overload.
    pub sheds: u64,
    /// Connections dropped for exceeding a byte/frame rate budget.
    pub throttled: u64,
    /// Connections dropped for trickling bytes without ever completing
    /// a frame (slow-loris writers).
    pub slow_loris_closed: u64,
    /// High-water mark of any one connection's reassembly buffer — the
    /// bounded-memory gate for the adversarial sweep.
    pub peak_conn_buffer: u64,
    /// Total bytes appended across the per-connection WALs (drives the
    /// `max_wal_bytes` shed threshold).
    pub wal_bytes: u64,
}

/// Per-job server state: the ingest handle plus the dedup watermarks.
struct NetJobEntry {
    handle: JobHandle,
    /// rank -> next expected segment seq.
    next_seq: HashMap<u64, u64>,
    completed: HashSet<u64>,
    /// Lossless verdict once finished (re-acked to retransmits).
    finished: Option<bool>,
}

struct ServeShared {
    session: IngestSession,
    cfg: NetServerConfig,
    wal_dir: Option<PathBuf>,
    conn_counter: AtomicU64,
    stop: AtomicBool,
    /// Graceful-shutdown mode: stop accepting, let connection workers
    /// flush what they have buffered, then exit.
    draining: AtomicBool,
    active_conns: AtomicU64,
    counters: ServerCounters,
    jobs: Mutex<HashMap<u64, Arc<Mutex<NetJobEntry>>>>,
    conns: Mutex<HashMap<u64, TcpStream>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Releases a connection's admission slot and its duped stream however
/// the worker exits. Dropping the stream clone matters: keeping it
/// would hold a closed peer's fd in CLOSE_WAIT for the life of the
/// server, so a reconnect flood would exhaust fds.
struct ConnGuard {
    shared: Arc<ServeShared>,
    id: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        lock(&self.shared.conns).remove(&self.id);
        self.shared.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ServeShared {
    fn stats(&self) -> NetServerStats {
        let c = &self.counters;
        NetServerStats {
            connections: c.connections.load(Ordering::Relaxed),
            frames: c.frames.load(Ordering::Relaxed),
            acks: c.acks.load(Ordering::Relaxed),
            dup_frames: c.dup_frames.load(Ordering::Relaxed),
            torn_conns: c.torn_conns.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            bad_hello: c.bad_hello.load(Ordering::Relaxed),
            idle_closed: c.idle_closed.load(Ordering::Relaxed),
            stale_finishes: c.stale_finishes.load(Ordering::Relaxed),
            heartbeats: c.heartbeats.load(Ordering::Relaxed),
            wal_errors: c.wal_errors.load(Ordering::Relaxed),
            jobs_opened: c.jobs_opened.load(Ordering::Relaxed),
            jobs_finished: c.jobs_finished.load(Ordering::Relaxed),
            auth_failures: c.auth_failures.load(Ordering::Relaxed),
            version_skew: c.version_skew.load(Ordering::Relaxed),
            sheds: c.sheds.load(Ordering::Relaxed),
            throttled: c.throttled.load(Ordering::Relaxed),
            slow_loris_closed: c.slow_loris_closed.load(Ordering::Relaxed),
            peak_conn_buffer: c.peak_conn_buffer.load(Ordering::Relaxed),
            wal_bytes: c.wal_bytes.load(Ordering::Relaxed),
        }
    }

    /// Why a *new* job must be refused right now — `None` when the
    /// collector has capacity. Already-accepted jobs are never shed.
    fn shed_reason(&self) -> Option<&'static str> {
        if let Some(max) = self.cfg.max_open_jobs {
            let opened = self.counters.jobs_opened.load(Ordering::Relaxed);
            let finished = self.counters.jobs_finished.load(Ordering::Relaxed);
            if opened.saturating_sub(finished) >= max {
                return Some("open-jobs");
            }
        }
        if let Some(budget) = self.cfg.max_wal_bytes {
            if self.counters.wal_bytes.load(Ordering::Relaxed) >= budget {
                return Some("wal-budget");
            }
        }
        if let Some(frac) = self.cfg.shed_saturation {
            if self.session.saturation() >= frac {
                return Some("queue-saturation");
            }
        }
        None
    }

    /// Stops accepting and shuts every connection, both directions.
    /// Dispatch in flight fails on its next socket op — an intentionally
    /// abrupt stop, because the kill hook uses the same path.
    fn initiate_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for conn in lock(&self.conns).values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// Joins worker threads that have already exited, so a long-running
    /// server's handle list tracks *live* connections instead of
    /// growing with every reconnect ever made.
    fn reap_finished_threads(&self) {
        let mut threads = lock(&self.threads);
        let mut i = 0;
        while i < threads.len() {
            if threads[i].is_finished() {
                let t = threads.swap_remove(i);
                let _ = t.join();
            } else {
                i += 1;
            }
        }
    }

    /// Looks up or creates the job entry. Creation opens the job on the
    /// ingest session under its stable wire id.
    fn job_entry(&self, job: u64, nranks: usize, identity_check: bool) -> Arc<Mutex<NetJobEntry>> {
        let mut jobs = lock(&self.jobs);
        jobs.entry(job)
            .or_insert_with(|| {
                self.counters.jobs_opened.fetch_add(1, Ordering::Relaxed);
                let handle = self.session.open_job_with_id(
                    job,
                    nranks,
                    identity_check,
                    self.cfg.job_timeout,
                );
                Arc::new(Mutex::new(NetJobEntry {
                    handle,
                    next_seq: HashMap::new(),
                    completed: HashSet::new(),
                    finished: None,
                }))
            })
            .clone()
    }

    fn lookup_job(&self, job: u64) -> Option<Arc<Mutex<NetJobEntry>>> {
        lock(&self.jobs).get(&job).cloned()
    }

    /// Opens the next per-connection WAL (`wal/conn-<k>.wal`). `None`
    /// when the session has no spill dir (no durability — acks then mean
    /// "merged in memory" only) or when creation fails (counted).
    fn new_conn_wal(&self) -> Option<WalWriter> {
        let dir = self.wal_dir.as_ref()?;
        let k = self.conn_counter.fetch_add(1, Ordering::Relaxed);
        match WalWriter::create(dir.join(format!("conn-{k}.wal"))) {
            Ok(w) => Some(w),
            Err(_) => {
                self.counters.wal_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Appends to the connection WAL before the ack. `false` means the
    /// record is NOT durable: the caller must close the connection
    /// without acking, so the client retransmits to a healthier one.
    fn wal_log(&self, wal: &mut Option<WalWriter>, rec: &WalRecord) -> bool {
        let Some(w) = wal.as_mut() else {
            // No durability configured: accept without logging.
            return self.wal_dir.is_none();
        };
        match w.append(rec) {
            Ok(n) => {
                self.counters.wal_bytes.fetch_add(n, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.counters.wal_errors.fetch_add(1, Ordering::Relaxed);
                if w.truncate_to_clean().is_err() {
                    *wal = None;
                }
                false
            }
        }
    }
}

/// A running collector endpoint, returned by [`serve`].
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<ServeShared>,
    accept: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> NetServerStats {
        self.shared.stats()
    }

    /// Jobs finished so far (drives `--expect-jobs` style polling).
    pub fn finished_jobs(&self) -> u64 {
        self.shared.counters.jobs_finished.load(Ordering::Relaxed)
    }

    /// True once the server has stopped accepting — normal stop or the
    /// [`NetServerConfig::kill_after_finished`] hook firing.
    pub fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Stops the server: sockets shut, threads joined, session dropped.
    /// Unfinished jobs are abandoned *without* being finalized — their
    /// durable record is the per-connection WALs, exactly as if the
    /// process had been killed; `trace_tool recover` rebuilds them.
    pub fn stop(mut self) -> NetServerStats {
        self.join_all();
        self.shared.stats()
    }

    /// Graceful shutdown: stop accepting, give live connections up to
    /// `grace` to flush the frames they have already received (each
    /// frame is fsynced into its conn WAL before its ack, so everything
    /// acked is durable), then stop. Connections still mid-stream after
    /// the grace period are cut like a plain [`ServeHandle::stop`] —
    /// their clients reconnect elsewhere or degrade to local spill.
    pub fn drain(mut self, grace: Duration) -> NetServerStats {
        self.shared.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + grace;
        while self.shared.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.join_all();
        self.shared.stats()
    }

    fn join_all(&mut self) {
        self.shared.initiate_stop();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let threads: Vec<JoinHandle<()>> = lock(&self.shared.threads).drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.join_all();
    }
}

/// Runs a collector endpoint on `listener`, feeding `session`. Returns
/// immediately; connections are handled on background threads.
///
/// The session should be created with `wal(false)`: [`serve`] writes its
/// own per-connection WALs under `<spill_dir>/wal/` (ack-after-durable),
/// and a session-level WAL would log every record a second time.
/// Existing `conn-*.wal` files from a previous incarnation are left
/// untouched — recovery reads the union.
pub fn serve(
    listener: TcpListener,
    session: IngestSession,
    cfg: NetServerConfig,
) -> std::io::Result<ServeHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let wal_dir = match session.spill_dir() {
        Some(dir) => {
            let wal_dir = dir.join("wal");
            fs::create_dir_all(&wal_dir)?;
            Some(wal_dir)
        }
        None => None,
    };
    let conn_start = wal_dir.as_deref().map_or(0, next_conn_index);
    let shared = Arc::new(ServeShared {
        session,
        cfg,
        wal_dir,
        conn_counter: AtomicU64::new(conn_start),
        stop: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        active_conns: AtomicU64::new(0),
        counters: ServerCounters::default(),
        jobs: Mutex::new(HashMap::new()),
        conns: Mutex::new(HashMap::new()),
        threads: Mutex::new(Vec::new()),
    });
    let accept_shared = shared.clone();
    let accept = std::thread::Builder::new()
        .name("pilgrim-net-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServeHandle { addr, shared, accept: Some(accept) })
}

/// First free `conn-<k>.wal` index, so a restarted server appends new
/// connection logs next to a previous incarnation's instead of
/// truncating them (the WAL union is the durable state).
fn next_conn_index(wal_dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(wal_dir) else { return 0 };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            name.strip_prefix("conn-")?.strip_suffix(".wal")?.parse::<u64>().ok()
        })
        .map(|k| k + 1)
        .max()
        .unwrap_or(0)
}

fn accept_loop(listener: TcpListener, shared: Arc<ServeShared>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
            return;
        }
        shared.reap_finished_threads();
        // Admission control: at the connection ceiling, stop accepting.
        // Waiting peers stay in the kernel's FIFO accept backlog, so
        // admission order is fair when slots free up.
        if shared.active_conns.load(Ordering::SeqCst) >= shared.cfg.max_connections as u64 {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The pre-increment counter value doubles as the
                // connection's id in `conns` (unique per process).
                let id = shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                shared.active_conns.fetch_add(1, Ordering::SeqCst);
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    lock(&shared.conns).insert(id, clone);
                }
                let conn_shared = shared.clone();
                let guard = ConnGuard { shared: shared.clone(), id };
                let spawned =
                    std::thread::Builder::new().name("pilgrim-net-conn".into()).spawn(move || {
                        let _guard = guard;
                        conn_worker(conn_shared, stream);
                    });
                // On spawn failure the closure (and the guard in it) is
                // dropped, releasing the admission slot.
                if let Ok(t) = spawned {
                    lock(&shared.threads).push(t);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn conn_worker(shared: Arc<ServeShared>, mut stream: TcpStream) {
    // The hello phase runs under a tight decode cap; the negotiated cap
    // applies only after the peer has proven itself.
    let mut rbuf = FrameBuf::with_cap(HELLO_MAX_FRAME);
    let Some(mut send_mac) = server_hello(&shared, &mut stream, &mut rbuf) else {
        shared.counters.bad_hello.fetch_add(1, Ordering::Relaxed);
        return;
    };
    rbuf.set_cap(shared.cfg.max_frame_len);
    // The conn WAL is created only *after* a successful (and, with a
    // key, authenticated) hello: a rejected peer leaves no partial WAL
    // state behind.
    let mut wal = shared.new_conn_wal();
    if stream.set_read_timeout(Some(shared.cfg.io_timeout)).is_err() {
        return;
    }
    // Jobs whose open this connection has logged: every conn WAL that
    // carries a job's records also names its open, so recovery can
    // replay any single file (or any union) without a dangling job.
    let mut opened: HashSet<u64> = HashSet::new();
    let mut tmp = vec![0u8; 64 * 1024];
    // Rolling one-second rate window and the slow-loris clock.
    let mut window_start = Instant::now();
    let mut window_bytes: u64 = 0;
    let mut window_frames: u64 = 0;
    let mut last_whole_frame = Instant::now();
    let mut drain_mode = false;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if !drain_mode && shared.draining.load(Ordering::SeqCst) {
            // Graceful shutdown: flush what the peer already sent, then
            // exit at the first quiet read instead of the idle deadline.
            drain_mode = true;
            if stream.set_read_timeout(Some(Duration::from_millis(30))).is_err() {
                return;
            }
        }
        match stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => {
                rbuf.extend(&tmp[..n]);
                shared
                    .counters
                    .peak_conn_buffer
                    .fetch_max(rbuf.pending() as u64, Ordering::Relaxed);
                loop {
                    match rbuf.next_frame() {
                        None => break,
                        Some(Err(_)) => {
                            // Torn or corrupt frame (bad CRC or MAC):
                            // fail closed. The client reconnects and
                            // retransmits from the last ack.
                            shared.counters.torn_conns.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        Some(Ok(frame)) => {
                            shared.counters.frames.fetch_add(1, Ordering::Relaxed);
                            window_frames += 1;
                            last_whole_frame = Instant::now();
                            match dispatch(&shared, &mut wal, &mut opened, frame) {
                                Ok(Dispatch::Reply(ack)) => {
                                    if write_framed(&mut stream, &ack, &mut send_mac).is_err() {
                                        return;
                                    }
                                    shared.counters.acks.fetch_add(1, Ordering::Relaxed);
                                }
                                Ok(Dispatch::Quiet) => {}
                                Ok(Dispatch::ReplyClose(bytes)) => {
                                    let _ = write_framed(&mut stream, &bytes, &mut send_mac);
                                    return;
                                }
                                Err(()) => return,
                            }
                        }
                    }
                }
                // Slow-loris kill: bytes keep trickling in (so the idle
                // read deadline never fires) but no whole frame has
                // arrived within the io window.
                if rbuf.pending() > 0 && last_whole_frame.elapsed() > shared.cfg.io_timeout {
                    shared.counters.slow_loris_closed.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                // Per-connection rate budgets over a rolling second.
                // Judge the window that just accumulated *before*
                // rolling it: zeroing first would let the bytes that
                // landed at the boundary escape the comparison, so a
                // peer timing bursts across boundaries could sustain
                // double the budget without ever tripping.
                window_bytes += n as u64;
                let over_bytes =
                    shared.cfg.max_conn_bytes_per_sec.is_some_and(|max| window_bytes > max);
                let over_frames =
                    shared.cfg.max_conn_frames_per_sec.is_some_and(|max| window_frames > max);
                if over_bytes || over_frames {
                    shared.counters.throttled.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                if window_start.elapsed() >= Duration::from_secs(1) {
                    window_start = Instant::now();
                    window_bytes = 0;
                    window_frames = 0;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if drain_mode {
                    // Drained: nothing more buffered on the socket.
                    return;
                }
                // Idle past the read deadline: orphaned peer (its
                // heartbeats stopped). Closing releases this conn's WAL
                // handle; the job seal deadline (if any) finalizes
                // whatever arrived.
                shared.counters.idle_closed.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) => return,
        }
    }
}

/// Writes one frame, appending the chained MAC when the session is
/// authenticated.
fn write_framed(
    stream: &mut TcpStream,
    bytes: &[u8],
    mac: &mut Option<MacState>,
) -> std::io::Result<()> {
    if mac.is_some() {
        stream.write_all(&seal_bytes(bytes, mac))
    } else {
        stream.write_all(bytes)
    }
}

/// Consumes `PNT1` + Hello and completes the handshake. Without a key:
/// answers `PNT1` + HelloAck (the v1 exchange, byte-identical). With a
/// key: answers `PNT1` + Challenge, verifies the client's response, and
/// only then HelloAck — returning the server→client MAC chain and
/// installing the client→server chain into `rbuf`.
///
/// `None` = reject (counted as `bad_hello` by the caller; the specific
/// cause lands in `version_skew` / `auth_failures` here). A rejected
/// peer gets a typed [`NetFrame::Reject`] before the close when the
/// conversation got far enough to send one.
fn server_hello(
    shared: &ServeShared,
    stream: &mut TcpStream,
    rbuf: &mut FrameBuf,
) -> Option<Option<MacState>> {
    let frame = read_hello_frame(stream, rbuf, shared.cfg.hello_timeout)?;
    let NetFrame::Hello { version, client_id } = frame else {
        return None;
    };
    if version != NET_VERSION {
        shared.counters.version_skew.fetch_add(1, Ordering::Relaxed);
        let mut reply = NET_MAGIC.to_vec();
        reply.extend_from_slice(&NetFrame::Reject { code: REJECT_VERSION }.encode());
        let _ = stream.write_all(&reply);
        return None;
    }
    let Some(key) = shared.cfg.auth_key.as_ref() else {
        // Unauthenticated (loopback) mode: plain v1 hello-ack.
        let mut reply = NET_MAGIC.to_vec();
        reply.extend_from_slice(&NetFrame::HelloAck { version: NET_VERSION }.encode());
        return stream.write_all(&reply).ok().map(|()| None);
    };
    let nonce = fresh_nonce();
    let mut reply = NET_MAGIC.to_vec();
    reply.extend_from_slice(&NetFrame::Challenge { nonce }.encode());
    stream.write_all(&reply).ok()?;
    let response = read_frame_within(stream, rbuf, shared.cfg.hello_timeout);
    let Some(NetFrame::AuthResponse { mac }) = response else {
        shared.counters.auth_failures.fetch_add(1, Ordering::Relaxed);
        let _ = stream.write_all(&NetFrame::Reject { code: REJECT_AUTH_REQUIRED }.encode());
        return None;
    };
    let expect = challenge_response(key, &nonce, client_id, NET_VERSION);
    if !ct_eq(&expect, &mac) {
        // Wrong key — or a response replayed from another handshake,
        // which this nonce was never part of.
        shared.counters.auth_failures.fetch_add(1, Ordering::Relaxed);
        let _ = stream.write_all(&NetFrame::Reject { code: REJECT_BAD_MAC }.encode());
        return None;
    }
    stream.write_all(&NetFrame::HelloAck { version: NET_VERSION }.encode()).ok()?;
    let sk = session_key(key, &nonce, client_id, NET_VERSION);
    rbuf.set_mac(MacState::new(sk, DIR_CLIENT));
    Some(Some(MacState::new(sk, DIR_SERVER)))
}

/// Reads the 4-byte magic plus one frame within `timeout`. Shared by
/// both hello directions.
fn read_hello_frame(
    stream: &mut TcpStream,
    rbuf: &mut FrameBuf,
    timeout: Duration,
) -> Option<NetFrame> {
    let deadline = Instant::now() + timeout;
    if stream.set_read_timeout(Some(Duration::from_millis(50))).is_err() {
        return None;
    }
    let mut raw: Vec<u8> = Vec::new();
    let mut magic_ok = false;
    let mut tmp = [0u8; 4096];
    loop {
        if Instant::now() >= deadline {
            return None;
        }
        if magic_ok {
            if let Some(res) = rbuf.next_frame() {
                return res.ok();
            }
        }
        match stream.read(&mut tmp) {
            Ok(0) => return None,
            Ok(n) => {
                raw.extend_from_slice(&tmp[..n]);
                if !magic_ok && raw.len() >= NET_MAGIC.len() {
                    if &raw[..NET_MAGIC.len()] != NET_MAGIC {
                        return None;
                    }
                    magic_ok = true;
                    rbuf.extend(&raw[NET_MAGIC.len()..]);
                    raw.clear();
                } else if magic_ok {
                    rbuf.extend(&raw);
                    raw.clear();
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return None,
        }
    }
}

/// Reads one frame (no magic prefix) within `timeout` — the
/// mid-handshake counterpart of [`read_hello_frame`].
fn read_frame_within(
    stream: &mut TcpStream,
    rbuf: &mut FrameBuf,
    timeout: Duration,
) -> Option<NetFrame> {
    let deadline = Instant::now() + timeout;
    if stream.set_read_timeout(Some(Duration::from_millis(50))).is_err() {
        return None;
    }
    let mut tmp = [0u8; 4096];
    loop {
        if let Some(res) = rbuf.next_frame() {
            return res.ok();
        }
        if Instant::now() >= deadline {
            return None;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return None,
            Ok(n) => rbuf.extend(&tmp[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return None,
        }
    }
}

fn ack_bytes(job: u64, a: u64, b: u64, of: u8) -> Vec<u8> {
    NetFrame::Ack { job, a, b, of }.encode()
}

/// What [`dispatch`] wants done with the connection.
enum Dispatch {
    /// Write this ack and keep going.
    Reply(Vec<u8>),
    /// Nothing to write (heartbeat).
    Quiet,
    /// Write these bytes, then close (overload shed).
    ReplyClose(Vec<u8>),
}

/// Handles one accepted frame. `Err(())` = close the connection
/// (protocol violation or a WAL append that could not be made durable —
/// no ack, so the client retransmits).
fn dispatch(
    shared: &ServeShared,
    wal: &mut Option<WalWriter>,
    opened: &mut HashSet<u64>,
    frame: NetFrame,
) -> Result<Dispatch, ()> {
    match frame {
        NetFrame::Heartbeat => {
            shared.counters.heartbeats.fetch_add(1, Ordering::Relaxed);
            Ok(Dispatch::Quiet)
        }
        NetFrame::JobOpen { job, nranks, identity_check } => {
            // The declared rank count sizes the merger's allocations,
            // so it must be judged *before* the job is opened: a
            // hostile open declaring 2^50 ranks costs the peer one
            // typed reject, not the collector petabytes.
            if nranks > MAX_NRANKS {
                shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Ok(Dispatch::ReplyClose(NetFrame::Reject { code: REJECT_LIMITS }.encode()));
            }
            // Overload shedding applies to *new* jobs only: a retransmit
            // of an accepted job's open must keep succeeding, or a
            // reconnect during overload would orphan the job.
            if !lock(&shared.jobs).contains_key(&job) {
                if let Some(_reason) = shared.shed_reason() {
                    shared.counters.sheds.fetch_add(1, Ordering::Relaxed);
                    return Ok(Dispatch::ReplyClose(NetFrame::Busy { job }.encode()));
                }
            }
            let _entry = shared.job_entry(job, nranks, identity_check);
            if opened.insert(job)
                && !shared.wal_log(wal, &WalRecord::JobOpen { job, nranks, identity_check })
            {
                opened.remove(&job);
                return Err(());
            }
            Ok(Dispatch::Reply(ack_bytes(job, 0, 0, KIND_JOB_OPEN)))
        }
        NetFrame::Segment { job, seg } => {
            let Some(entry) = shared.lookup_job(job) else {
                shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Err(());
            };
            let mut e = lock(&entry);
            let (rank, seq) = (seg.rank as u64, seg.seq as u64);
            match e.next_seq.get(&rank).copied() {
                Some(expected) if seq < expected => {
                    // Retransmit of an already-durable frame: ack, drop.
                    shared.counters.dup_frames.fetch_add(1, Ordering::Relaxed);
                }
                Some(expected) if seq > expected => {
                    // A gap on an in-order stream is a protocol error.
                    shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(());
                }
                _ => {
                    // In order — or the first segment this incarnation
                    // has seen for the rank. A restarted collector
                    // adopts the client's seq as its watermark: the
                    // missing prefix is durable in the previous
                    // incarnation's conn WALs, and recovery replays the
                    // union. The live merge degrades; the WAL does not.
                    if !shared.wal_log(wal, &WalRecord::Segment { job, seg: seg.clone() }) {
                        return Err(());
                    }
                    e.handle.push_segment(seg);
                    e.next_seq.insert(rank, seq + 1);
                }
            }
            Ok(Dispatch::Reply(ack_bytes(job, rank, seq, KIND_SEGMENT)))
        }
        NetFrame::Complete { job, done } => {
            let Some(entry) = shared.lookup_job(job) else {
                shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Err(());
            };
            let mut e = lock(&entry);
            let rank = done.rank as u64;
            if e.completed.contains(&rank) {
                shared.counters.dup_frames.fetch_add(1, Ordering::Relaxed);
            } else {
                if !shared.wal_log(wal, &WalRecord::Complete { job, done: done.clone() }) {
                    return Err(());
                }
                e.handle.complete_rank(done);
                e.completed.insert(rank);
            }
            Ok(Dispatch::Reply(ack_bytes(job, rank, 0, KIND_COMPLETE)))
        }
        NetFrame::Finished { job } => {
            let Some(entry) = shared.lookup_job(job) else {
                shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Err(());
            };
            let mut e = lock(&entry);
            if let Some(lossless) = e.finished {
                shared.counters.dup_frames.fetch_add(1, Ordering::Relaxed);
                return Ok(Dispatch::Reply(ack_bytes(job, u64::from(lossless), 0, KIND_FINISHED)));
            }
            if e.next_seq.is_empty() && e.completed.is_empty() {
                // A finish replayed across a collector restart: this
                // incarnation never saw the job's data (it was all acked
                // before the crash). Finalizing now would overwrite the
                // previous incarnation's container with an empty trace,
                // so just settle the client; recovery owns the rebuild.
                shared.counters.stale_finishes.fetch_add(1, Ordering::Relaxed);
                // The replayed open counted toward `jobs_opened`, so a
                // stale finish must settle `jobs_finished` too — or the
                // open-jobs gauge inflates with every job replayed
                // across a restart until `max_open_jobs` sheds forever.
                shared.counters.jobs_finished.fetch_add(1, Ordering::Relaxed);
                e.finished = Some(false);
                return Ok(Dispatch::Reply(ack_bytes(job, 0, 0, KIND_FINISHED)));
            }
            let outcome = shared.session.finish_job(&e.handle);
            let lossless = outcome.is_lossless();
            if lossless {
                // Only a lossless finish is marked settled in the WAL:
                // recovery then trusts the container. Anything less and
                // recovery re-replays the full record union instead.
                let _ = shared.wal_log(wal, &WalRecord::Finished { job });
            }
            e.finished = Some(lossless);
            let done = shared.counters.jobs_finished.fetch_add(1, Ordering::Relaxed) + 1;
            if shared.cfg.kill_after_finished.is_some_and(|k| done >= k) {
                // Crash simulation: sockets shut *before* this ack is
                // written, so the client never learns the job finished.
                shared.initiate_stop();
            }
            Ok(Dispatch::Reply(ack_bytes(job, u64::from(lossless), 0, KIND_FINISHED)))
        }
        NetFrame::Hello { .. }
        | NetFrame::HelloAck { .. }
        | NetFrame::Ack { .. }
        | NetFrame::Challenge { .. }
        | NetFrame::AuthResponse { .. }
        | NetFrame::Busy { .. }
        | NetFrame::Reject { .. } => {
            // Handshake-only or server-only frames after the handshake:
            // a protocol violation either way.
            shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
            Err(())
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Client-side knobs for [`NetClient::start`].
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Collector address (`host:port`).
    pub addr: String,
    /// Stable client identity; job ids are derived from it
    /// ([`crate::net_fault::stable_job_id`]).
    pub client_id: u64,
    /// In-memory frames queued before overflowing to the client log.
    pub queue_capacity: usize,
    /// Reconnect budget: `max_attempts` *consecutive* connection
    /// failures degrade the client to local spill; `backoff` seeds the
    /// exponential reconnect delay.
    pub retry: RetryPolicy,
    /// Keep-alive interval on an idle connection.
    pub heartbeat: Duration,
    /// Connect / hello / ack-wait deadline.
    pub io_timeout: Duration,
    /// How long [`NetJobHandle::finish`] waits for the server's finish
    /// ack before degrading to local spill.
    pub finish_timeout: Duration,
    /// Where the client log (`wal/client-<id>.wal`: queue overflow
    /// while connected, the local spill once degraded) and local
    /// containers live. Without it the client blocks on a full queue and
    /// *drops* on degrade (counted and reported, never silent).
    pub spill_dir: Option<PathBuf>,
    /// Seeded wire faults (inert by default).
    pub faults: NetFaultPlan,
    /// Pre-shared wire key, answered when the collector challenges.
    /// Without one, a challenge is a fatal typed error (the client
    /// degrades to local spill immediately instead of retrying).
    pub auth_key: Option<AuthKey>,
}

impl NetClientConfig {
    pub fn new(addr: impl Into<String>) -> Self {
        NetClientConfig {
            addr: addr.into(),
            client_id: 0,
            queue_capacity: 256,
            retry: RetryPolicy { max_attempts: 8, backoff: Duration::from_millis(10) },
            heartbeat: Duration::from_millis(500),
            io_timeout: Duration::from_secs(2),
            finish_timeout: Duration::from_secs(30),
            spill_dir: None,
            faults: NetFaultPlan::default(),
            auth_key: None,
        }
    }

    pub fn client_id(mut self, id: u64) -> Self {
        self.client_id = id;
        self
    }

    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    pub fn heartbeat(mut self, d: Duration) -> Self {
        self.heartbeat = d;
        self
    }

    pub fn io_timeout(mut self, d: Duration) -> Self {
        self.io_timeout = d;
        self
    }

    pub fn finish_timeout(mut self, d: Duration) -> Self {
        self.finish_timeout = d;
        self
    }

    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    pub fn faults(mut self, plan: NetFaultPlan) -> Self {
        self.faults = plan;
        self
    }

    pub fn auth_key(mut self, key: AuthKey) -> Self {
        self.auth_key = Some(key);
        self
    }
}

#[derive(Debug, Default)]
struct ClientCounters {
    connects: AtomicU64,
    connect_failures: AtomicU64,
    frames_sent: AtomicU64,
    retransmits: AtomicU64,
    acks: AtomicU64,
    stray_acks: AtomicU64,
    heartbeats: AtomicU64,
    backpressure: AtomicU64,
    disk_buffered: AtomicU64,
    spilled_records: AtomicU64,
    dropped_records: AtomicU64,
    degraded: AtomicU64,
    busy_sheds: AtomicU64,
    auth_failed: AtomicU64,
}

/// Snapshot of the client counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetClientStats {
    pub connects: u64,
    pub connect_failures: u64,
    pub frames_sent: u64,
    /// Frames sent more than once (reconnect replay).
    pub retransmits: u64,
    pub acks: u64,
    /// Acks that matched no unacked frame (double-delivered receipts).
    pub stray_acks: u64,
    pub heartbeats: u64,
    /// Producer pushes that blocked on a full queue (no spill dir).
    pub backpressure: u64,
    /// Records appended to the client log while connected (queue
    /// overflow).
    pub disk_buffered: u64,
    /// Records appended to the client log after degrade (local spill).
    pub spilled_records: u64,
    /// Records lost outright (degrade with no spill dir, or spill I/O
    /// failure) — always reported in the job outcome, never silent.
    pub dropped_records: u64,
    pub degraded: bool,
    /// `Busy` frames received: the collector shed this client's new
    /// jobs under overload.
    pub busy_sheds: u64,
    /// The collector rejected this client's handshake (wrong key,
    /// missing key, or version skew) — a fatal, typed condition.
    pub auth_failed: bool,
}

struct Unacked {
    frame: NetFrame,
    /// Transmissions so far; frame faults fire on the first only.
    attempts: u32,
}

#[derive(Default)]
struct ClientState {
    queue: VecDeque<NetFrame>,
    /// The client's one on-disk log, `<spill_dir>/wal/client-<id>.wal`:
    /// the overflow backlog behind a full queue while connected, the
    /// local spill once degraded. `None` when neither is in use (or the
    /// log could not be created).
    log: Option<WalWriter>,
    /// Byte offset of the next overflow record not yet read back.
    log_read: u64,
    /// Overflow records appended but not yet read back.
    log_pending: u64,
    unacked: VecDeque<Unacked>,
    /// (job, nranks, identity_check) — replayed on every (re)connect.
    opens: Vec<(u64, usize, bool)>,
    /// job -> server's lossless verdict, set by the finish ack.
    acked_finished: HashMap<u64, bool>,
    /// A permanent injected partition tripped: every later connect fails.
    partitioned: bool,
    /// The collector shed a JobOpen with `Busy` on the last connection.
    busy_hit: bool,
    /// Fatal handshake rejection (wrong key / missing key / version
    /// skew): degrade immediately, retrying cannot help.
    auth_fatal: Option<String>,
    degraded: bool,
    shutdown: bool,
    /// Client-wide problems (spill failures, drops), echoed into every
    /// job outcome so loss is never silent.
    problems: Vec<String>,
}

impl ClientState {
    fn has_pending(&self) -> bool {
        !self.queue.is_empty() || self.log_pending > 0 || !self.unacked.is_empty()
    }
}

struct ClientInner {
    cfg: NetClientConfig,
    state: Mutex<ClientState>,
    cv: Condvar,
    counters: ClientCounters,
}

/// Everything [`NetJobHandle::finish`] reports about one job.
#[derive(Debug)]
pub struct NetJobOutcome {
    pub job: u64,
    /// The server acked the finish: the stream is durable (or at least
    /// merged) on the collector.
    pub delivered: bool,
    /// The server's lossless verdict, when delivered.
    pub lossless: Option<bool>,
    /// The locally-finalized container, when the client degraded and
    /// had enough buffered locally to rebuild one.
    pub local_path: Option<PathBuf>,
    pub problems: Vec<String>,
}

impl NetJobOutcome {
    /// True when the job's data is somewhere durable — delivered to the
    /// collector or finalized locally. False means loss (named in
    /// `problems`) or a stream the collector alone can still recover.
    pub fn accounted(&self) -> bool {
        self.delivered || self.local_path.is_some()
    }
}

/// A tracer-facing wire client. One background worker owns the socket;
/// any number of job handles feed it. Dropping the client (or calling
/// [`NetClient::shutdown`]) flushes and joins the worker.
pub struct NetClient {
    inner: Arc<ClientInner>,
    worker: Option<JoinHandle<()>>,
}

impl NetClient {
    /// Validates the spill dir (when configured) and starts the worker.
    /// Does not require the collector to be up — connecting is the
    /// worker's (retried) job.
    pub fn start(cfg: NetClientConfig) -> std::io::Result<NetClient> {
        if let Some(dir) = &cfg.spill_dir {
            fs::create_dir_all(dir.join("wal"))?;
        }
        let inner = Arc::new(ClientInner {
            cfg,
            state: Mutex::new(ClientState::default()),
            cv: Condvar::new(),
            counters: ClientCounters::default(),
        });
        let worker_inner = inner.clone();
        let worker = std::thread::Builder::new()
            .name("pilgrim-net-client".into())
            .spawn(move || client_worker(worker_inner))?;
        Ok(NetClient { inner, worker: Some(worker) })
    }

    /// Opens a job. The wire id is derived from `(client_id, local_job)`
    /// so it stays stable across reconnects and collector restarts.
    pub fn open_job(&self, local_job: u64, nranks: usize, identity_check: bool) -> NetJobHandle {
        let job = crate::net_fault::stable_job_id(self.inner.cfg.client_id, local_job);
        {
            let mut st = lock(&self.inner.state);
            if !st.opens.iter().any(|(j, _, _)| *j == job) {
                st.opens.push((job, nranks, identity_check));
            }
        }
        self.inner.enqueue(NetFrame::JobOpen { job, nranks, identity_check });
        NetJobHandle { job, nranks, identity_check, inner: self.inner.clone() }
    }

    pub fn stats(&self) -> NetClientStats {
        self.inner.snapshot()
    }

    /// Signals shutdown, waits for the worker to drain (or degrade), and
    /// returns the final counters.
    pub fn shutdown(mut self) -> NetClientStats {
        self.join_worker();
        self.inner.snapshot()
    }

    fn join_worker(&mut self) {
        {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
            self.inner.cv.notify_all();
        }
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        self.join_worker();
    }
}

impl ClientInner {
    fn snapshot(&self) -> NetClientStats {
        let c = &self.counters;
        NetClientStats {
            connects: c.connects.load(Ordering::Relaxed),
            connect_failures: c.connect_failures.load(Ordering::Relaxed),
            frames_sent: c.frames_sent.load(Ordering::Relaxed),
            retransmits: c.retransmits.load(Ordering::Relaxed),
            acks: c.acks.load(Ordering::Relaxed),
            stray_acks: c.stray_acks.load(Ordering::Relaxed),
            heartbeats: c.heartbeats.load(Ordering::Relaxed),
            backpressure: c.backpressure.load(Ordering::Relaxed),
            disk_buffered: c.disk_buffered.load(Ordering::Relaxed),
            spilled_records: c.spilled_records.load(Ordering::Relaxed),
            dropped_records: c.dropped_records.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed) != 0,
            busy_sheds: c.busy_sheds.load(Ordering::Relaxed),
            auth_failed: c.auth_failed.load(Ordering::Relaxed) != 0,
        }
    }

    /// Queues a frame without ever blocking the producer when a spill
    /// dir is configured: full queue -> client log; degraded -> straight
    /// to the local spill. Without a spill dir a full queue blocks (after
    /// counting backpressure) — bounded memory is the harder promise.
    fn enqueue(&self, frame: NetFrame) {
        let mut st = lock(&self.state);
        loop {
            if st.degraded {
                self.spill_frame(&mut st, frame);
                break;
            }
            let full = st.queue.len() >= self.cfg.queue_capacity;
            if st.log.is_some() || (full && self.cfg.spill_dir.is_some()) {
                self.overflow(&mut st, frame);
                break;
            }
            if !full {
                st.queue.push_back(frame);
                break;
            }
            self.counters.backpressure.fetch_add(1, Ordering::Relaxed);
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        self.cv.notify_all();
    }

    /// `<spill_dir>/wal/client-<id>.wal`, when there is a spill dir.
    fn log_path(&self) -> Option<PathBuf> {
        let dir = self.cfg.spill_dir.as_ref()?;
        Some(dir.join("wal").join(format!("client-{}.wal", self.cfg.client_id)))
    }

    /// Appends a frame to the client log, opening the log on first use.
    /// Frames keep going there until the worker drains it, so order
    /// holds. If the log cannot take the frame, the queue grows instead
    /// (and says so) rather than block or drop.
    fn overflow(&self, st: &mut ClientState, frame: NetFrame) {
        if st.log.is_none() {
            match self.log_path().map(WalWriter::create).transpose() {
                Ok(log) => {
                    st.log = log;
                    st.log_read = WAL_MAGIC.len() as u64;
                }
                Err(e) => st.problems.push(format!("client log unavailable: {e}")),
            }
        }
        if let (Some(w), Some(rec)) = (st.log.as_mut(), frame.as_wal_record()) {
            match w.append(&rec) {
                Ok(_) => {
                    st.log_pending += 1;
                    self.counters.disk_buffered.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(e) => st.problems.push(format!("client log append failed: {e}")),
            }
        }
        st.queue.push_back(frame);
    }

    /// Pops the next frame to transmit: memory queue first, then the
    /// client log's backlog (global FIFO: the log only fills while the
    /// queue is saturated, and is drained before the queue refills). The
    /// log is deleted as soon as it is drained.
    fn pop_next(&self, st: &mut ClientState) -> Option<NetFrame> {
        if let Some(frame) = st.queue.pop_front() {
            self.cv.notify_all();
            return Some(frame);
        }
        let mut log = st.log.take()?;
        let next = self.read_backlog(st, &mut log);
        if st.log_pending > 0 {
            st.log = Some(log);
        } else {
            let _ = fs::remove_file(log.path());
        }
        next
    }

    /// Reads the next overflow record of `log` back as its frame. A read
    /// failure counts every pending record as dropped and ends the
    /// backlog.
    fn read_backlog(&self, st: &mut ClientState, log: &mut WalWriter) -> Option<NetFrame> {
        if st.log_pending == 0 {
            return None;
        }
        match log.read_at(st.log_read) {
            Ok((rec, at)) => {
                st.log_read = at;
                st.log_pending -= 1;
                NetFrame::from_record(rec)
            }
            Err(e) => {
                let lost = std::mem::take(&mut st.log_pending);
                self.counters.dropped_records.fetch_add(lost, Ordering::Relaxed);
                st.problems.push(format!("client log read failed: {e}"));
                None
            }
        }
    }

    /// Irreversibly degrades to local spill by rotating the client log:
    /// a fresh log takes every job open, then the unacked frames, the
    /// queued frames and the old log's unread tail — each through
    /// [`ClientInner::spill_frame`] — and is renamed over the old one.
    /// All later frames append to it.
    fn degrade(&self, st: &mut ClientState, reason: &str) {
        if st.degraded {
            return;
        }
        st.degraded = true;
        self.counters.degraded.store(1, Ordering::Relaxed);
        st.problems.push(format!("degraded to local spill: {reason}"));
        let backlog = st.log.take();
        let path = self.log_path();
        if let Some(path) = &path {
            match WalWriter::create(path.with_extension("wal.tmp")) {
                Ok(w) => st.log = Some(w),
                Err(e) => st.problems.push(format!("local spill WAL unavailable: {e}")),
            }
        }
        // Every open first, so any replay of the log knows each job's
        // shape before its records.
        let opens = st.opens.clone();
        for (job, nranks, identity_check) in opens {
            self.spill_record(st, WalRecord::JobOpen { job, nranks, identity_check });
        }
        let unacked: Vec<NetFrame> = st.unacked.drain(..).map(|u| u.frame).collect();
        for frame in unacked {
            self.spill_frame(st, frame);
        }
        let queued: Vec<NetFrame> = st.queue.drain(..).collect();
        for frame in queued {
            self.spill_frame(st, frame);
        }
        if let Some(mut backlog) = backlog {
            while st.log_pending > 0 {
                if let Some(frame) = self.read_backlog(st, &mut backlog) {
                    self.spill_frame(st, frame);
                }
            }
        }
        match (path, st.log.as_mut()) {
            (Some(path), Some(w)) => {
                if let Err(e) = w.rename(path) {
                    st.problems.push(format!("local spill WAL rotation failed: {e}"));
                    st.log = None;
                }
            }
            // No fresh log: the stale backlog must not outlive it.
            (Some(path), None) => {
                let _ = fs::remove_file(path);
            }
            (None, _) => {}
        }
        self.cv.notify_all();
    }

    /// Converts one frame to its WAL record and spills it. Completions
    /// get a `LocalSpill` degradation event appended first, so the trace
    /// built from this WAL carries the degradation in its completeness
    /// manifest (`fidelity()` surfaces it as `net_spilled_ranks`).
    fn spill_frame(&self, st: &mut ClientState, frame: NetFrame) {
        let rec = match frame {
            NetFrame::Complete { job, mut done } => {
                done.events.push(DegradationEvent {
                    call_index: done.call_count,
                    stage: DegradationStage::LocalSpill,
                    component: Component::Network,
                    bytes: 0,
                });
                Some(WalRecord::Complete { job, done })
            }
            // `finish` decides when a job is settled locally.
            NetFrame::Finished { .. } => None,
            other => other.as_wal_record(),
        };
        if let Some(rec) = rec {
            self.spill_record(st, rec);
        }
    }

    fn spill_record(&self, st: &mut ClientState, rec: WalRecord) {
        match st.log.as_mut().map(|w| w.append(&rec)) {
            Some(Ok(_)) => {
                self.counters.spilled_records.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.counters.dropped_records.fetch_add(1, Ordering::Relaxed);
            }
            Some(Err(e)) => {
                self.counters.dropped_records.fetch_add(1, Ordering::Relaxed);
                st.problems.push(format!("local spill append failed: {e}"));
            }
        }
    }
}

/// One job's stream endpoint over the wire — the networked counterpart
/// of [`JobHandle`]. Cheap to clone.
#[derive(Clone)]
pub struct NetJobHandle {
    job: u64,
    nranks: usize,
    identity_check: bool,
    inner: Arc<ClientInner>,
}

impl NetJobHandle {
    /// The job's stable wire id.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// Declares the stream complete and waits for the server's finish
    /// ack. On degrade (already degraded, or the configured finish
    /// timeout expiring first) the client finalizes locally instead:
    /// replay its spill WAL, write `<spill_dir>/job-<id>.pilgrim`, and
    /// report exactly what happened.
    pub fn finish(&self) -> NetJobOutcome {
        self.inner.enqueue(NetFrame::Finished { job: self.job });
        let deadline = Instant::now() + self.inner.cfg.finish_timeout;
        let mut st = lock(&self.inner.state);
        loop {
            if let Some(&lossless) = st.acked_finished.get(&self.job) {
                return NetJobOutcome {
                    job: self.job,
                    delivered: true,
                    lossless: Some(lossless),
                    local_path: None,
                    problems: st.problems.clone(),
                };
            }
            if st.degraded {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                self.inner.degrade(&mut st, "finish timed out waiting for the collector");
                break;
            }
            let wait = (deadline - now).min(Duration::from_millis(100));
            let (guard, _) =
                self.inner.cv.wait_timeout(st, wait).unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        self.local_finalize(&mut st)
    }

    /// Rebuilds the job from the client log and reports what happened.
    fn local_finalize(&self, st: &mut ClientState) -> NetJobOutcome {
        let mut problems = st.problems.clone();
        let local_path = self.rebuild_locally(st, &mut problems);
        NetJobOutcome { job: self.job, delivered: false, lossless: None, local_path, problems }
    }

    /// Replays the job's records from the client log with crash
    /// recovery's own replay and writes `<spill_dir>/job-<id>.pilgrim`.
    fn rebuild_locally(&self, st: &mut ClientState, problems: &mut Vec<String>) -> Option<PathBuf> {
        let (Some(dir), Some(log)) = (&self.inner.cfg.spill_dir, &st.log) else {
            problems.push("no local spill WAL; the degraded stream is lost".into());
            return None;
        };
        let out_path = dir.join(format!("job-{}.pilgrim", self.job));
        let replay = read_wal(log.path())
            .map_err(|e| problems.push(format!("local spill WAL unreadable: {e}")))
            .ok()?;
        let before = problems.len();
        let records = replay.records.into_iter().filter(|r| r.job() == self.job);
        let (trace, _) = replay_job(self.nranks, self.identity_check, records, problems);
        if trace.rank_lengths.iter().sum::<u64>() == 0 {
            problems.push(
                "nothing rebuilt locally; the collector may still hold the delivered stream".into(),
            );
            return None;
        }
        if let Err(e) = write_container_file(&out_path, &write_container(&trace)) {
            problems.push(format!("writing local container: {e}"));
            return None;
        }
        // Settle the job in the log so recovery on the client dir trusts
        // the container over a re-replay.
        if trace.completeness.is_complete() && problems.len() == before {
            self.inner.spill_record(st, WalRecord::Finished { job: self.job });
        }
        Some(out_path)
    }
}

impl SegmentSink for NetJobHandle {
    fn push_segment(&self, seg: TraceSegment) {
        self.inner.enqueue(NetFrame::Segment { job: self.job, seg });
    }

    fn complete_rank(&self, done: RankCompletion) {
        self.inner.enqueue(NetFrame::Complete { job: self.job, done });
    }

    fn flush(&self) {
        self.inner.cv.notify_all();
    }
}

enum ConnEnd {
    /// The socket broke (or a fault broke it); reconnect.
    Broken,
    /// Shutdown requested and everything pending is acked.
    Drained,
    /// The client degraded mid-connection.
    Degraded,
}

fn client_worker(inner: Arc<ClientInner>) {
    let mut attempt: u64 = 0;
    let mut consecutive: u32 = 0;
    let mut busy_conns: u32 = 0;
    loop {
        // Park until there is work (or forever, once degraded — the
        // producers write straight to the local WAL).
        {
            let mut st = lock(&inner.state);
            loop {
                if st.shutdown && (st.degraded || !st.has_pending()) {
                    return;
                }
                if !st.degraded && st.has_pending() {
                    break;
                }
                st = inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        match try_connect(&inner, attempt) {
            Ok((mut stream, crypto)) => {
                attempt += 1;
                consecutive = 0;
                inner.counters.connects.fetch_add(1, Ordering::Relaxed);
                let mut acks_this_conn: u64 = 0;
                match run_connection(&inner, &mut stream, crypto, &mut acks_this_conn) {
                    ConnEnd::Drained => return,
                    ConnEnd::Degraded => continue,
                    ConnEnd::Broken => {
                        let was_busy = {
                            let mut st = lock(&inner.state);
                            std::mem::take(&mut st.busy_hit)
                        };
                        if was_busy {
                            // Overload shed: back off, and give up after
                            // the same budget as reconnects — the shed
                            // jobs then finish via local spill.
                            busy_conns += 1;
                            if busy_conns >= inner.cfg.retry.max_attempts {
                                let mut st = lock(&inner.state);
                                inner.degrade(
                                    &mut st,
                                    "collector busy: new jobs shed under overload",
                                );
                                continue;
                            }
                            backoff_sleep(&inner, busy_conns, attempt);
                            continue;
                        }
                        // A connection that produced no acks at all is a
                        // failure for budget purposes: a collector that
                        // accepts and then dies must not dodge the
                        // degrade ladder forever.
                        if acks_this_conn == 0 {
                            consecutive += 1;
                        }
                    }
                }
            }
            Err(_) => {
                attempt += 1;
                inner.counters.connect_failures.fetch_add(1, Ordering::Relaxed);
                // A typed handshake rejection is fatal: the collector is
                // alive and said no. Retrying with the same key (or no
                // key) cannot succeed, so degrade now.
                let fatal = {
                    let mut st = lock(&inner.state);
                    match st.auth_fatal.take() {
                        Some(reason) => {
                            inner.degrade(&mut st, &reason);
                            true
                        }
                        None => false,
                    }
                };
                if fatal {
                    continue;
                }
                consecutive += 1;
            }
        }
        if consecutive >= inner.cfg.retry.max_attempts {
            let mut st = lock(&inner.state);
            inner.degrade(&mut st, "reconnect budget exhausted");
            continue;
        }
        if consecutive > 0 {
            backoff_sleep(&inner, consecutive, attempt);
        }
    }
}

/// Exponential backoff with deterministic jitter, interruptible by
/// shutdown/degrade.
fn backoff_sleep(inner: &ClientInner, consecutive: u32, attempt: u64) {
    let base = inner.cfg.retry.backoff.max(Duration::from_millis(1));
    let exp = (consecutive.saturating_sub(1)).min(6);
    let mut wait = base * (1 << exp);
    let jitter_ms = mix(inner.cfg.client_id, attempt) % (base.as_millis().max(1) as u64 + 1);
    wait += Duration::from_millis(jitter_ms);
    let deadline = Instant::now() + wait.min(Duration::from_secs(2));
    let mut st = lock(&inner.state);
    loop {
        if st.shutdown || st.degraded {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let (guard, _) =
            inner.cv.wait_timeout(st, deadline - now).unwrap_or_else(|e| e.into_inner());
        st = guard;
    }
}

/// Both directions of an authenticated session's MAC chains.
struct SessionCrypto {
    send: MacState,
    recv: MacState,
}

/// Records a fatal typed handshake rejection: the worker degrades on it
/// instead of burning the retry ladder.
fn auth_fatal(inner: &ClientInner, reason: String) -> std::io::Error {
    inner.counters.auth_failed.store(1, Ordering::Relaxed);
    let mut st = lock(&inner.state);
    st.auth_fatal = Some(reason.clone());
    std::io::Error::other(reason)
}

/// Dials, speaks the hello (answering an auth challenge when the
/// collector sends one), and returns the ready socket plus the session
/// MAC chains for an authenticated session. Injected refusals and a
/// tripped partition fail here like a dead collector.
fn try_connect(
    inner: &ClientInner,
    attempt: u64,
) -> std::io::Result<(TcpStream, Option<SessionCrypto>)> {
    {
        let st = lock(&inner.state);
        if st.partitioned {
            return Err(std::io::Error::other("partitioned (injected)"));
        }
    }
    if inner.cfg.faults.refuses_connect(inner.cfg.client_id, attempt) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "connection refused (injected)",
        ));
    }
    let addr = inner
        .cfg
        .addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?;
    let mut stream = TcpStream::connect_timeout(&addr, inner.cfg.io_timeout)?;
    let _ = stream.set_nodelay(true);
    let client_id = inner.cfg.client_id;
    let mut hello = NET_MAGIC.to_vec();
    hello.extend_from_slice(&NetFrame::Hello { version: NET_VERSION, client_id }.encode());
    stream.write_all(&hello)?;
    let mut rbuf = FrameBuf::with_cap(HELLO_MAX_FRAME);
    match read_hello_frame(&mut stream, &mut rbuf, inner.cfg.io_timeout) {
        Some(NetFrame::HelloAck { version }) if version == NET_VERSION => Ok((stream, None)),
        Some(NetFrame::Challenge { nonce }) => {
            let Some(key) = inner.cfg.auth_key.clone() else {
                return Err(auth_fatal(
                    inner,
                    "collector requires authentication and no auth key is configured".into(),
                ));
            };
            let mac = challenge_response(&key, &nonce, client_id, NET_VERSION);
            stream.write_all(&NetFrame::AuthResponse { mac }.encode())?;
            match read_frame_within(&mut stream, &mut rbuf, inner.cfg.io_timeout) {
                Some(NetFrame::HelloAck { version }) if version == NET_VERSION => {
                    let sk = session_key(&key, &nonce, client_id, NET_VERSION);
                    Ok((
                        stream,
                        Some(SessionCrypto {
                            send: MacState::new(sk, DIR_CLIENT),
                            recv: MacState::new(sk, DIR_SERVER),
                        }),
                    ))
                }
                Some(NetFrame::Reject { code }) => Err(auth_fatal(
                    inner,
                    format!("collector rejected authentication ({})", reject_reason(code)),
                )),
                _ => Err(std::io::Error::other("auth handshake failed")),
            }
        }
        Some(NetFrame::Reject { code }) => {
            Err(auth_fatal(inner, format!("collector rejected hello ({})", reject_reason(code))))
        }
        _ => Err(std::io::Error::other("hello handshake failed")),
    }
}

fn reject_reason(code: u8) -> &'static str {
    match code {
        REJECT_VERSION => "protocol version skew",
        REJECT_AUTH_REQUIRED => "authentication required",
        REJECT_BAD_MAC => "bad key or replayed response",
        REJECT_LIMITS => "declared resource bound over the collector's ceiling",
        _ => "unknown reject code",
    }
}

fn run_connection(
    inner: &ClientInner,
    stream: &mut TcpStream,
    crypto: Option<SessionCrypto>,
    acks: &mut u64,
) -> ConnEnd {
    let mut send_mac = None;
    let mut rbuf = FrameBuf::new();
    if let Some(c) = crypto {
        send_mac = Some(c.send);
        rbuf.set_mac(c.recv);
    }
    // Replay job opens (the server dedups), then unacked frames in
    // order. Retransmits bump the attempt counter so frame faults
    // (first transmission only) do not re-fire and loop forever.
    let replay: Vec<Vec<u8>> = {
        let mut st = lock(&inner.state);
        let mut out: Vec<Vec<u8>> = Vec::new();
        for &(job, nranks, identity_check) in &st.opens {
            out.push(NetFrame::JobOpen { job, nranks, identity_check }.encode());
        }
        for u in st.unacked.iter_mut() {
            u.attempts += 1;
            inner.counters.retransmits.fetch_add(1, Ordering::Relaxed);
            out.push(u.frame.encode());
        }
        out
    };
    for bytes in replay {
        if write_framed(stream, &bytes, &mut send_mac).is_err() {
            return ConnEnd::Broken;
        }
        inner.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
    }
    let mut last_ack = Instant::now();
    loop {
        // Pick the next frame (or decide to idle) under the lock.
        let next: Option<(NetFrame, u32)> = {
            let mut st = lock(&inner.state);
            if st.degraded {
                return ConnEnd::Degraded;
            }
            if st.shutdown && !st.has_pending() {
                return ConnEnd::Drained;
            }
            if st.unacked.len() < ACK_WINDOW {
                match inner.pop_next(&mut st) {
                    Some(frame) => {
                        st.unacked.push_back(Unacked { frame: frame.clone(), attempts: 0 });
                        Some((frame, 0))
                    }
                    None => None,
                }
            } else {
                None
            }
        };
        match next {
            Some((frame, attempts)) => {
                match send_frame(inner, stream, &frame, attempts, &mut send_mac) {
                    SendResult::Sent => {}
                    SendResult::Broke => return ConnEnd::Broken,
                }
                // Opportunistic ack drain to keep the window moving.
                match drain_acks(inner, stream, &mut rbuf, Duration::from_millis(1)) {
                    Ok(true) => {
                        *acks += 1;
                        last_ack = Instant::now();
                    }
                    Ok(false) => {}
                    Err(()) => return ConnEnd::Broken,
                }
            }
            None => {
                let unacked_empty = lock(&inner.state).unacked.is_empty();
                if unacked_empty {
                    // Nothing in flight: idle on the condvar, heartbeat
                    // at the configured interval.
                    let mut st = lock(&inner.state);
                    if st.degraded {
                        return ConnEnd::Degraded;
                    }
                    if st.shutdown && !st.has_pending() {
                        return ConnEnd::Drained;
                    }
                    if !st.has_pending() {
                        let (guard, timeout) = inner
                            .cv
                            .wait_timeout(st, inner.cfg.heartbeat)
                            .unwrap_or_else(|e| e.into_inner());
                        st = guard;
                        if timeout.timed_out() && !st.has_pending() && !st.degraded {
                            drop(st);
                            let hb = NetFrame::Heartbeat.encode();
                            if write_framed(stream, &hb, &mut send_mac).is_err() {
                                return ConnEnd::Broken;
                            }
                            inner.counters.heartbeats.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                } else {
                    // Everything sent; wait for acks.
                    match drain_acks(inner, stream, &mut rbuf, Duration::from_millis(50)) {
                        Ok(true) => {
                            *acks += 1;
                            last_ack = Instant::now();
                        }
                        Ok(false) => {
                            if last_ack.elapsed() > inner.cfg.io_timeout {
                                // The collector went silent with frames
                                // in flight: treat as broken and replay.
                                return ConnEnd::Broken;
                            }
                        }
                        Err(()) => return ConnEnd::Broken,
                    }
                }
            }
        }
    }
}

enum SendResult {
    Sent,
    Broke,
}

/// Transmits one frame, applying first-transmission faults. When the
/// session is authenticated, each physical transmission is sealed
/// separately (so an injected duplicate carries a fresh, valid tag and
/// the server's watermark — not the MAC chain — dedups it, while a
/// corrupted transmission fails the MAC exactly as it fails the CRC).
fn send_frame(
    inner: &ClientInner,
    stream: &mut TcpStream,
    frame: &NetFrame,
    attempts: u32,
    mac: &mut Option<MacState>,
) -> SendResult {
    let bytes = frame.encode();
    let faults = &inner.cfg.faults;
    if attempts == 0 && faults.is_active() {
        if let Some((job, rank, seq)) = frame.fault_key() {
            if faults.stalls(job, rank, seq) {
                std::thread::sleep(Duration::from_millis(faults.stall_ms));
            }
            if faults.partitions(job, rank, seq) {
                let mut st = lock(&inner.state);
                st.partitioned = true;
                return SendResult::Broke;
            }
            if faults.cuts(job, rank, seq) {
                let wire = seal_bytes(&bytes, mac);
                let _ = stream.write_all(&wire[..wire.len() / 2]);
                let _ = stream.flush();
                return SendResult::Broke;
            }
            if let Some(off) = faults.corrupts(job, rank, seq) {
                let mut bad = seal_bytes(&bytes, mac);
                let idx = (off % bad.len() as u64) as usize;
                bad[idx] ^= 0x20;
                // The server's CRC (or MAC) fails closed and drops the
                // connection; the clean retransmit goes through later.
                if stream.write_all(&bad).is_err() {
                    return SendResult::Broke;
                }
                inner.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
                return SendResult::Sent;
            }
            if faults.duplicates(job, rank, seq) && write_framed(stream, &bytes, mac).is_err() {
                return SendResult::Broke;
            }
        }
    }
    if write_framed(stream, &bytes, mac).is_err() {
        return SendResult::Broke;
    }
    inner.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
    SendResult::Sent
}

/// The bytes one transmission puts on the wire: the frame plus its
/// chained tag in an authenticated session, the frame alone otherwise.
fn seal_bytes(bytes: &[u8], mac: &mut Option<MacState>) -> Vec<u8> {
    match mac.as_mut() {
        Some(m) => {
            let tag = m.seal(bytes);
            let mut out = Vec::with_capacity(bytes.len() + MAC_LEN);
            out.extend_from_slice(bytes);
            out.extend_from_slice(&tag);
            out
        }
        None => bytes.to_vec(),
    }
}

/// Reads whatever acks are available within `wait`. `Ok(true)` = at
/// least one ack was applied.
fn drain_acks(
    inner: &ClientInner,
    stream: &mut TcpStream,
    rbuf: &mut FrameBuf,
    wait: Duration,
) -> Result<bool, ()> {
    if stream.set_read_timeout(Some(wait.max(Duration::from_millis(1)))).is_err() {
        return Err(());
    }
    let mut tmp = [0u8; 64 * 1024];
    let mut progress = false;
    match stream.read(&mut tmp) {
        Ok(0) => return Err(()),
        Ok(n) => {
            rbuf.extend(&tmp[..n]);
            loop {
                match rbuf.next_frame() {
                    None => break,
                    Some(Err(_)) => return Err(()),
                    Some(Ok(NetFrame::Ack { job, a, b, of })) => {
                        apply_ack(inner, job, a, b, of);
                        progress = true;
                    }
                    Some(Ok(NetFrame::Busy { .. })) => {
                        // Overload shed: the server closes right after
                        // this. Note it so the worker backs off instead
                        // of charging the reconnect ladder.
                        inner.counters.busy_sheds.fetch_add(1, Ordering::Relaxed);
                        let mut st = lock(&inner.state);
                        st.busy_hit = true;
                    }
                    // The server sends nothing else post-hello; ignore.
                    Some(Ok(_)) => {}
                }
            }
        }
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut => {}
        Err(_) => return Err(()),
    }
    Ok(progress)
}

fn apply_ack(inner: &ClientInner, job: u64, a: u64, b: u64, of: u8) {
    let mut st = lock(&inner.state);
    let idx = st.unacked.iter().position(|u| u.frame.settled_by(job, a, b, of));
    match idx {
        Some(i) => {
            st.unacked.remove(i);
            inner.counters.acks.fetch_add(1, Ordering::Relaxed);
        }
        None => {
            inner.counters.stray_acks.fetch_add(1, Ordering::Relaxed);
        }
    }
    if of == KIND_FINISHED {
        st.acked_finished.insert(job, a == 1);
    }
    inner.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::EncoderConfig;
    use crate::ingest::IngestConfig;

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

    fn sample_frames() -> Vec<NetFrame> {
        vec![
            NetFrame::Hello { version: NET_VERSION, client_id: 7 },
            NetFrame::HelloAck { version: NET_VERSION },
            NetFrame::JobOpen { job: 9, nranks: 4, identity_check: true },
            NetFrame::Segment {
                job: 9,
                seg: TraceSegment { rank: 2, seq: 5, sealed: true, bytes: vec![1, 2, 3] },
            },
            NetFrame::Complete { job: 9, done: completion(2, 40, 6) },
            NetFrame::Finished { job: 9 },
            NetFrame::Heartbeat,
            NetFrame::Ack { job: 9, a: 2, b: 5, of: KIND_SEGMENT },
            NetFrame::Challenge { nonce: [0xab; NONCE_LEN] },
            NetFrame::AuthResponse { mac: [0xcd; 32] },
            NetFrame::Busy { job: 300 },
            NetFrame::Reject { code: REJECT_BAD_MAC },
        ]
    }

    #[test]
    fn frames_roundtrip_through_the_shared_codec() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            let mut buf = FrameBuf::new();
            // Feed byte by byte: every prefix must politely wait.
            for (i, b) in bytes.iter().enumerate() {
                if i + 1 < bytes.len() {
                    buf.extend(std::slice::from_ref(b));
                    assert!(buf.next_frame().is_none(), "frame {frame:?} decoded early");
                } else {
                    buf.extend(std::slice::from_ref(b));
                }
            }
            let back = buf.next_frame().expect("whole frame").expect("clean frame");
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn acks_settle_exactly_their_frame() {
        let seg = NetFrame::Segment {
            job: 9,
            seg: TraceSegment { rank: 2, seq: 5, sealed: false, bytes: vec![] },
        };
        assert!(seg.settled_by(9, 2, 5, KIND_SEGMENT));
        assert!(!seg.settled_by(9, 2, 6, KIND_SEGMENT));
        assert!(!seg.settled_by(9, 2, 5, KIND_COMPLETE));
        assert!(!seg.settled_by(8, 2, 5, KIND_SEGMENT));
        let done = NetFrame::Complete { job: 9, done: completion(2, 1, 1) };
        assert!(done.settled_by(9, 2, 0, KIND_COMPLETE));
        assert!(!done.settled_by(9, 3, 0, KIND_COMPLETE));
        let fin = NetFrame::Finished { job: 9 };
        assert!(fin.settled_by(9, 1, 0, KIND_FINISHED));
        assert!(!fin.settled_by(7, 1, 0, KIND_FINISHED));
    }

    /// `PNT1` is a wire format: every frame kind's bytes are pinned, so
    /// a codec refactor cannot change them unnoticed.
    #[test]
    fn wire_bytes_are_pinned() {
        let pinned = [
            "01020107f5c8031d",
            "020101ab0cd992",
            "03030904013eec8d8f",
            "04080902050103010203f42e8c0c",
            "050709022806050000d2451aac",
            "060109452c0b9b",
            "07003884980e",
            "080409020504b62e87ac",
            "0920abababababababababababababababababababababababababababababababab6d2df732",
            "0a20cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd8bed1836",
            "0b02ac02ba1e7d19",
            "0c01038d404976",
        ];
        let hex = |f: &NetFrame| f.encode().iter().map(|b| format!("{b:02x}")).collect::<String>();
        let got: Vec<String> = sample_frames().iter().map(hex).collect();
        assert_eq!(got, pinned);
    }

    /// A client with no worker, so a test can drive its queue, log and
    /// degrade path by hand.
    fn offline_client(tag: &str, queue_capacity: usize) -> (ClientInner, PathBuf) {
        let dir = std::env::temp_dir().join(format!("pilgrim-client-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("wal")).expect("client wal dir");
        let cfg = NetClientConfig::new("127.0.0.1:9")
            .client_id(5)
            .queue_capacity(queue_capacity)
            .spill_dir(&dir);
        let inner = ClientInner {
            cfg,
            state: Mutex::new(ClientState::default()),
            cv: Condvar::new(),
            counters: ClientCounters::default(),
        };
        (inner, dir)
    }

    fn segment_frame(seq: u32) -> NetFrame {
        let bytes = vec![seq as u8; (seq as usize % 7) + 1];
        NetFrame::Segment { job: 1, seg: TraceSegment { rank: 0, seq, sealed: false, bytes } }
    }

    #[test]
    fn client_log_keeps_fifo_across_overflow_and_drain() {
        let (inner, dir) = offline_client("fifo", 4);
        let log = dir.join("wal").join("client-5.wal");
        let frames: Vec<NetFrame> = (0..40).map(segment_frame).collect();
        let mut sent = Vec::new();
        // Bursts of 8 against a queue of 4 overflow to the log; even
        // bursts then drain three frames, odd ones drain it dry.
        for (i, burst) in frames.chunks(8).enumerate() {
            burst.iter().for_each(|f| inner.enqueue(f.clone()));
            assert!(log.exists(), "burst {i} must overflow to the client log");
            let mut st = lock(&inner.state);
            let budget = if i % 2 == 0 { 3 } else { usize::MAX };
            sent.extend(std::iter::from_fn(|| inner.pop_next(&mut st)).take(budget));
            assert_eq!(log.exists(), i % 2 == 0, "burst {i}: only a drained log is deleted");
        }
        let mut st = lock(&inner.state);
        sent.extend(std::iter::from_fn(|| inner.pop_next(&mut st)));
        assert_eq!(sent, frames);
        assert!(!log.exists() && st.problems.is_empty(), "{:?}", st.problems);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn degrade_after_partial_drain_spills_opens_and_unacked_frames_once() {
        let (inner, dir) = offline_client("degrade", 2);
        let open = NetFrame::JobOpen { job: 1, nranks: 1, identity_check: false };
        lock(&inner.state).opens.push((1, 1, false));
        inner.enqueue(open.clone());
        for seq in 0..6 {
            inner.enqueue(segment_frame(seq));
        }
        inner.enqueue(NetFrame::Complete { job: 1, done: completion(0, 6, 6) });
        // Queue: open, seg 0. Log: segs 1-5 and the completion. The
        // worker sends four frames, two of them read back from the log,
        // and the first two are acked.
        for _ in 0..4 {
            let mut st = lock(&inner.state);
            let frame = inner.pop_next(&mut st).expect("a frame to send");
            st.unacked.push_back(Unacked { frame, attempts: 0 });
        }
        apply_ack(&inner, 1, 0, 0, KIND_JOB_OPEN);
        apply_ack(&inner, 1, 0, 0, KIND_SEGMENT);
        inner.degrade(&mut lock(&inner.state), "test");
        inner.enqueue(segment_frame(6));

        let wal_dir = dir.join("wal");
        let names: Vec<_> = fs::read_dir(&wal_dir).expect("wal dir").flatten().collect();
        assert_eq!(names.len(), 1, "one log, no rotation leftovers: {names:?}");
        let replay = read_wal(&wal_dir.join("client-5.wal")).expect("read the client log");
        assert!(replay.torn.is_none(), "{:?}", replay.torn);
        let mut spilled = completion(0, 6, 6);
        spilled.events.push(DegradationEvent {
            call_index: 6,
            stage: DegradationStage::LocalSpill,
            component: Component::Network,
            bytes: 0,
        });
        // The open, the unacked segs 1-2, the unread tail, then the
        // frame enqueued after degrade; the acked seg 0 is gone.
        let mut want = vec![open];
        want.extend((1..6).map(segment_frame));
        want.push(NetFrame::Complete { job: 1, done: spilled });
        want.push(segment_frame(6));
        let got: Option<Vec<NetFrame>> =
            replay.records.into_iter().map(NetFrame::from_record).collect();
        assert_eq!(got, Some(want));
        let stats = inner.snapshot();
        assert_eq!((stats.disk_buffered, stats.spilled_records), (6, 8), "{stats:?}");
        assert_eq!(stats.dropped_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Reads one server frame, stripping the leading `PNT1` magic when
    /// `expect_magic` (the server prefixes its *first* frame only).
    fn read_server_frame(stream: &mut TcpStream, expect_magic: bool) -> Option<NetFrame> {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            let body = if expect_magic {
                if buf.len() < 4 {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return None,
                        Ok(n) => {
                            buf.extend_from_slice(&chunk[..n]);
                            continue;
                        }
                    }
                }
                assert_eq!(&buf[..4], NET_MAGIC, "server reply must lead with the magic");
                &buf[4..]
            } else {
                &buf[..]
            };
            let mut pos = 0usize;
            match crate::wal::split_frame(body, &mut pos) {
                Some(Ok((kind, payload))) => return NetFrame::decode(kind, payload).ok(),
                Some(Err(_)) => return None,
                None => match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return None,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                },
            }
        }
    }

    fn raw_hello(server: &ServeHandle) -> TcpStream {
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        let mut wire = NET_MAGIC.to_vec();
        wire.extend_from_slice(&NetFrame::Hello { version: NET_VERSION, client_id: 3 }.encode());
        s.write_all(&wire).expect("write hello");
        assert_eq!(
            read_server_frame(&mut s, true),
            Some(NetFrame::HelloAck { version: NET_VERSION }),
            "plain hello must be acked"
        );
        s
    }

    #[test]
    fn huge_job_open_gets_a_typed_reject_without_allocation() {
        let dir = std::env::temp_dir().join(format!("pilgrim-net-nranks-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let session =
            IngestSession::new(IngestConfig::new().shards(1).spill_dir(&dir)).expect("session");
        let server = serve(listener, session, NetServerConfig::new()).expect("serve");
        let mut s = raw_hello(&server);
        let open = NetFrame::JobOpen { job: 1, nranks: 1usize << 50, identity_check: false };
        s.write_all(&open.encode()).expect("write open");
        assert_eq!(
            read_server_frame(&mut s, false),
            Some(NetFrame::Reject { code: REJECT_LIMITS }),
            "a 2^50-rank open must be refused with a typed reject"
        );
        let stats = server.stop();
        assert_eq!(stats.jobs_opened, 0, "the hostile open must never reach the session");
        assert_eq!(stats.protocol_errors, 1, "{stats:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_finishes_settle_the_open_jobs_gauge() {
        let dir = std::env::temp_dir().join(format!("pilgrim-net-stale-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let session =
            IngestSession::new(IngestConfig::new().shards(1).spill_dir(&dir)).expect("session");
        let server =
            serve(listener, session, NetServerConfig::new().max_open_jobs(1)).expect("serve");
        let mut s = raw_hello(&server);
        // Open job 1 and finish it with no data: the stale-finish path
        // (a finish replayed across a restart looks exactly like this).
        s.write_all(&NetFrame::JobOpen { job: 1, nranks: 1, identity_check: false }.encode())
            .expect("open 1");
        assert_eq!(
            read_server_frame(&mut s, false),
            Some(NetFrame::Ack { job: 1, a: 0, b: 0, of: KIND_JOB_OPEN })
        );
        s.write_all(&NetFrame::Finished { job: 1 }.encode()).expect("finish 1");
        assert_eq!(
            read_server_frame(&mut s, false),
            Some(NetFrame::Ack { job: 1, a: 0, b: 0, of: KIND_FINISHED })
        );
        // With max_open_jobs = 1, job 2 only gets in if the stale
        // finish settled the open-jobs gauge.
        s.write_all(&NetFrame::JobOpen { job: 2, nranks: 1, identity_check: false }.encode())
            .expect("open 2");
        assert_eq!(
            read_server_frame(&mut s, false),
            Some(NetFrame::Ack { job: 2, a: 0, b: 0, of: KIND_JOB_OPEN }),
            "a stale-finished job must not hold its admission slot"
        );
        let stats = server.stop();
        assert_eq!(stats.stale_finishes, 1, "{stats:?}");
        assert_eq!(stats.sheds, 0, "{stats:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn loopback_round_trip_delivers_a_job_losslessly() {
        let dir = std::env::temp_dir().join(format!("pilgrim-net-smoke-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let session =
            IngestSession::new(IngestConfig::new().shards(1).spill_dir(dir.join("server")))
                .expect("session");
        let server = serve(listener, session, NetServerConfig::new()).expect("serve");
        let cfg = NetClientConfig::new(server.addr().to_string())
            .client_id(1)
            .spill_dir(dir.join("client"));
        let client = NetClient::start(cfg).expect("client");
        let h = client.open_job(0, 1, true);
        use crate::checkpoint::encode_checkpoint;
        use crate::cst::Cst;
        use pilgrim_sequitur::Grammar;
        let mut cst = Cst::new();
        let mut g = Grammar::new();
        for s in [b"a".as_slice(), b"b", b"a"] {
            let t = cst.observe(s, 5);
            g.push(t);
        }
        let flat = g.to_flat();
        let bytes = encode_checkpoint(flat.expanded_len(), &cst, &flat);
        h.push_segment(TraceSegment { rank: 0, seq: 0, sealed: false, bytes });
        h.complete_rank(completion(0, 3, 1));
        let out = h.finish();
        assert!(out.delivered, "problems: {:?}", out.problems);
        assert_eq!(out.lossless, Some(true));
        assert!(out.accounted());
        let stats = client.shutdown();
        assert!(stats.acks >= 3, "stats: {stats:?}");
        assert!(!stats.degraded);
        let server_stats = server.stop();
        assert_eq!(server_stats.jobs_finished, 1);
        assert_eq!(server_stats.torn_conns, 0);
        // The ack-before-durable WAL exists and holds the stream.
        let report = crate::recover::recover_dir(&dir.join("server")).expect("recover");
        assert_eq!(report.jobs.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
