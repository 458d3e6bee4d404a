//! Per-shard write-ahead log for the ingest session.
//!
//! Every stream message a shard accepts — job opens, segments, rank
//! completions, quarantines, job finishes — is appended to
//! `<spill_dir>/wal/shard-<k>.wal` *before* it is folded into the
//! merger, so a crashed collector can replay the log into a fresh
//! [`IncrementalMerger`](crate::merge::IncrementalMerger) and rebuild
//! every in-flight job ([`crate::recover`]). The same format backs the
//! `PNT1` collector's per-connection logs and the client log
//! ([`crate::net`]).
//!
//! ## Format
//!
//! A 4-byte magic (`PWL1`) followed by CRC-framed records:
//!
//! ```text
//! [kind: u8] [payload_len: varint] [payload] [crc32: u32 LE]
//! ```
//!
//! The CRC covers kind + length + payload, so a torn or bit-flipped
//! frame fails closed. The reader is torn-tail tolerant: it replays the
//! longest clean prefix and reports (never propagates) the damage —
//! exactly the semantics of the spill path's tmp+sync+rename, applied to
//! an append-only file. The writer [`sync_data`](File::sync_data)s every
//! append and, on a failed append (a real short write or an injected
//! one), truncates back to the last clean frame so one lost record
//! cannot poison the frames after it.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use pilgrim_sequitur::{read_varint, write_varint};

use crate::error::DecodeError;
use crate::export::crc32;
use crate::merge::{RankCompletion, TraceSegment};

/// Leading magic of a shard WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"PWL1";

const KIND_OPEN: u8 = 1;
const KIND_SEGMENT: u8 = 2;
const KIND_COMPLETE: u8 = 3;
const KIND_FINISHED: u8 = 4;
const KIND_QUARANTINE: u8 = 5;

/// One logged ingest event.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A job was opened on this shard.
    JobOpen { job: u64, nranks: usize, identity_check: bool },
    /// A segment arrived (logged before folding, so a segment that
    /// panics the worker is still replayable).
    Segment { job: u64, seg: TraceSegment },
    /// A rank completed its stream.
    Complete { job: u64, done: RankCompletion },
    /// The job was finalized and its outcome delivered; recovery treats
    /// the job as settled.
    Finished { job: u64 },
    /// A segment was quarantined after exhausting the worker retry
    /// budget; the rank's sequence has a deliberate gap.
    Quarantine { job: u64, rank: usize, seq: u32 },
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::JobOpen { .. } => KIND_OPEN,
            WalRecord::Segment { .. } => KIND_SEGMENT,
            WalRecord::Complete { .. } => KIND_COMPLETE,
            WalRecord::Finished { .. } => KIND_FINISHED,
            WalRecord::Quarantine { .. } => KIND_QUARANTINE,
        }
    }

    fn serialize_payload(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::JobOpen { job, nranks, identity_check } => {
                put_open(out, *job, *nranks, *identity_check)
            }
            WalRecord::Segment { job, seg } => put_segment(out, *job, seg),
            WalRecord::Complete { job, done } => put_complete(out, *job, done),
            WalRecord::Finished { job } => write_varint(out, *job),
            WalRecord::Quarantine { job, rank, seq } => {
                write_varint(out, *job);
                write_varint(out, *rank as u64);
                write_varint(out, *seq as u64);
            }
        }
    }

    /// Job id the record belongs to.
    pub fn job(&self) -> u64 {
        match self {
            WalRecord::JobOpen { job, .. }
            | WalRecord::Segment { job, .. }
            | WalRecord::Complete { job, .. }
            | WalRecord::Finished { job }
            | WalRecord::Quarantine { job, .. } => *job,
        }
    }

    /// Decodes one record payload of the given WAL kind. The `PNT1` wire
    /// decodes its record-bearing frames through this too.
    pub(crate) fn decode_payload(kind: u8, buf: &[u8]) -> Result<WalRecord, DecodeError> {
        let pos = &mut 0usize;
        let rec = match kind {
            KIND_OPEN => {
                let job = read_u64(buf, pos, "wal open job")?;
                let nranks = read_u64(buf, pos, "wal open nranks")? as usize;
                let [flag] = read_array(buf, pos, "wal open flag")?;
                WalRecord::JobOpen { job, nranks, identity_check: flag != 0 }
            }
            KIND_SEGMENT => {
                let job = read_u64(buf, pos, "wal segment job")?;
                let rank = read_u64(buf, pos, "wal segment rank")? as usize;
                let seq = read_u64(buf, pos, "wal segment seq")? as u32;
                let [sealed] = read_array(buf, pos, "wal segment flag")?;
                let len = read_u64(buf, pos, "wal segment len")? as usize;
                let bytes = buf
                    .get(*pos..)
                    .and_then(|rest| rest.get(..len))
                    .ok_or(DecodeError::Truncated { what: "wal segment bytes", offset: *pos })?
                    .to_vec();
                *pos += len;
                WalRecord::Segment {
                    job,
                    seg: TraceSegment { rank, seq, sealed: sealed != 0, bytes },
                }
            }
            KIND_COMPLETE => {
                let job = read_u64(buf, pos, "wal complete job")?;
                let done = RankCompletion::decode(buf, pos)?;
                WalRecord::Complete { job, done }
            }
            KIND_FINISHED => WalRecord::Finished { job: read_u64(buf, pos, "wal finished job")? },
            KIND_QUARANTINE => {
                let job = read_u64(buf, pos, "wal quarantine job")?;
                let rank = read_u64(buf, pos, "wal quarantine rank")? as usize;
                let seq = read_u64(buf, pos, "wal quarantine seq")? as u32;
                WalRecord::Quarantine { job, rank, seq }
            }
            _ => return Err(DecodeError::Corrupt { what: "wal record kind", offset: 0 }),
        };
        if *pos != buf.len() {
            return Err(DecodeError::Corrupt { what: "wal record trailing bytes", offset: *pos });
        }
        Ok(rec)
    }
}

// Payload layouts of the records the WAL shares with the `PNT1` wire
// (wire kinds 3–6 carry WAL kinds 1–4 byte for byte). Both encoders
// write through these, borrowing the fields, so neither copies a
// segment before framing it.

pub(crate) fn put_open(out: &mut Vec<u8>, job: u64, nranks: usize, identity_check: bool) {
    write_varint(out, job);
    write_varint(out, nranks as u64);
    out.push(u8::from(identity_check));
}

pub(crate) fn put_segment(out: &mut Vec<u8>, job: u64, seg: &TraceSegment) {
    write_varint(out, job);
    write_varint(out, seg.rank as u64);
    write_varint(out, seg.seq as u64);
    out.push(u8::from(seg.sealed));
    write_varint(out, seg.bytes.len() as u64);
    out.extend_from_slice(&seg.bytes);
}

pub(crate) fn put_complete(out: &mut Vec<u8>, job: u64, done: &RankCompletion) {
    write_varint(out, job);
    done.serialize(out);
}

// Field readers shared by both payload decoders: each advances `pos`
// past its field or names the field it found truncated.

pub(crate) fn read_u64(
    buf: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<u64, DecodeError> {
    let off = *pos;
    read_varint(buf, pos).ok_or(DecodeError::Truncated { what, offset: off })
}

pub(crate) fn read_array<const N: usize>(
    buf: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<[u8; N], DecodeError> {
    let off = *pos;
    let out = buf.get(off..).and_then(|rest| rest.get(..N)?.try_into().ok());
    let out = out.ok_or(DecodeError::Truncated { what, offset: off })?;
    *pos += N;
    Ok(out)
}

/// Builds one CRC frame — `[kind: u8] [payload_len: varint] [payload]
/// [crc32: u32 LE]`, the CRC covering everything before it. This is the
/// framing shared by the WAL and the `PNT1` wire protocol
/// ([`crate::net`]): same layout on disk and on the socket, so a frame
/// accepted off the wire can be re-framed into a WAL byte-for-byte.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 10);
    out.push(kind);
    write_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Pulls one CRC frame starting at `*pos`, advancing past it on success.
/// `None` = the buffer ends mid-frame (torn tail — more bytes may still
/// arrive on a stream); `Some(Err)` = framing intact but the CRC does
/// not match. The payload is borrowed, not copied.
pub fn split_frame<'a>(
    buf: &'a [u8],
    pos: &mut usize,
) -> Option<Result<(u8, &'a [u8]), DecodeError>> {
    let start = *pos;
    let kind = *buf.get(*pos)?;
    *pos += 1;
    let Some(len) = read_varint(buf, pos).map(|v| v as usize) else {
        // Torn inside the length varint: leave `pos` where it was so
        // the caller can retry once more bytes arrive.
        *pos = start;
        return None;
    };
    if len > buf.len().saturating_sub(*pos) {
        *pos = start;
        return None;
    }
    let payload = &buf[*pos..*pos + len];
    *pos += len;
    let Some(crc_bytes) = buf.get(*pos..*pos + 4) else {
        *pos = start;
        return None;
    };
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    *pos += 4;
    if crc32(&buf[start..*pos - 4]) != stored {
        return Some(Err(DecodeError::Corrupt { what: "frame crc", offset: start }));
    }
    Some(Ok((kind, payload)))
}

fn frame(rec: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    rec.serialize_payload(&mut payload);
    encode_frame(rec.kind(), &payload)
}

/// Appending writer for one shard's WAL.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// File length up to the last fully-synced frame; a failed append
    /// truncates back here.
    clean_len: u64,
    records: u64,
}

impl WalWriter {
    /// Creates (truncating) the WAL at `path` and writes the magic.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<WalWriter> {
        let path = path.into();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_data()?;
        Ok(WalWriter { file, path, clean_len: WAL_MAGIC.len() as u64, records: 0 })
    }

    /// Path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Renames the log file, e.g. a log written under a temporary name
    /// over the one it replaces. Later appends follow the file.
    pub(crate) fn rename(&mut self, to: impl Into<PathBuf>) -> std::io::Result<()> {
        let to = to.into();
        std::fs::rename(&self.path, &to)?;
        self.path = to;
        Ok(())
    }

    /// Reads back the record framed at byte `pos` of this log (a frame
    /// boundary, e.g. the magic's length for the first record) and
    /// returns it with the offset of the frame after it.
    pub(crate) fn read_at(&mut self, pos: u64) -> std::io::Result<(WalRecord, u64)> {
        // The head first — a kind byte and at most a 10-byte length
        // varint — then the rest of the frame it announces.
        let avail = self.clean_len.saturating_sub(pos);
        let mut buf = vec![0u8; avail.min(11) as usize];
        self.file.seek(SeekFrom::Start(pos))?;
        self.file.read_exact(&mut buf)?;
        let mut p = 1;
        let len = read_varint(&buf, &mut p).unwrap_or(u64::MAX);
        let total = (p as u64).saturating_add(len).saturating_add(4).min(avail) as usize;
        let head = buf.len().min(total);
        buf.resize(total, 0);
        self.file.read_exact(&mut buf[head..])?;
        let mut p = 0;
        match next_frame(&buf, &mut p) {
            Some(Ok(rec)) => Ok((rec, pos + p as u64)),
            Some(Err(e)) => Err(std::io::Error::other(e.offset_by(pos as usize))),
            None => Err(std::io::Error::other(format!("torn frame at byte {pos}"))),
        }
    }

    /// Frames, appends, and syncs one record. Returns the frame size.
    /// The frame always lands at the clean end — after a read, or after
    /// a torn append whose truncation failed, the next frame overwrites
    /// the torn bytes instead of following them.
    pub fn append(&mut self, rec: &WalRecord) -> std::io::Result<u64> {
        let bytes = frame(rec);
        self.file.seek(SeekFrom::Start(self.clean_len))?;
        self.file.write_all(&bytes)?;
        self.file.sync_data()?;
        self.clean_len += bytes.len() as u64;
        self.records += 1;
        Ok(bytes.len() as u64)
    }

    /// Fault-injection hook: writes only the first half of the frame
    /// (a torn append, as if the process died mid-write) and reports it
    /// as a short-write error. The caller is expected to
    /// [`truncate_to_clean`](WalWriter::truncate_to_clean) — until then
    /// the file carries a torn tail, exactly what a crash leaves.
    pub fn append_torn(&mut self, rec: &WalRecord) -> std::io::Result<u64> {
        let bytes = frame(rec);
        self.file.seek(SeekFrom::Start(self.clean_len))?;
        self.file.write_all(&bytes[..bytes.len() / 2])?;
        self.file.sync_data()?;
        Err(std::io::Error::new(
            std::io::ErrorKind::WriteZero,
            format!("injected short write after {} of {} bytes", bytes.len() / 2, bytes.len()),
        ))
    }

    /// Truncates back to the last fully-synced frame after a failed
    /// append, so later records land on a clean boundary.
    pub fn truncate_to_clean(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.clean_len)?;
        self.file.sync_data()
    }

    /// Records successfully appended.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes in the file up to the last clean frame.
    pub fn clean_len(&self) -> u64 {
        self.clean_len
    }
}

/// Result of replaying one WAL file: the longest clean prefix of
/// records, plus what (if anything) stopped the scan.
#[derive(Debug, Default)]
pub struct WalReplay {
    pub records: Vec<WalRecord>,
    /// Bytes consumed by clean frames (magic included).
    pub clean_bytes: u64,
    /// Why the scan stopped early (torn tail, CRC mismatch, corrupt
    /// frame); `None` when the file ended on a frame boundary.
    pub torn: Option<String>,
}

/// Decodes a WAL image, replaying the longest clean prefix. Errors only
/// when the magic itself is missing — damage past the magic is reported
/// in [`WalReplay::torn`], never propagated.
pub fn decode_wal(buf: &[u8]) -> Result<WalReplay, DecodeError> {
    if buf.len() < WAL_MAGIC.len() || &buf[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(DecodeError::Corrupt { what: "wal magic", offset: 0 });
    }
    let mut replay = WalReplay { clean_bytes: WAL_MAGIC.len() as u64, ..Default::default() };
    let mut pos = WAL_MAGIC.len();
    while pos < buf.len() {
        let start = pos;
        let Some(framed) = next_frame(buf, &mut pos) else {
            replay.torn = Some(format!(
                "torn frame at byte {start} ({} records clean)",
                replay.records.len()
            ));
            break;
        };
        match framed {
            Ok(rec) => {
                replay.records.push(rec);
                replay.clean_bytes = pos as u64;
            }
            Err(e) => {
                replay.torn = Some(format!(
                    "corrupt frame at byte {start}: {e} ({} records clean)",
                    replay.records.len()
                ));
                break;
            }
        }
    }
    Ok(replay)
}

/// Pulls one frame starting at `*pos`. `None` = truncated (torn tail);
/// `Some(Err)` = framing intact but contents corrupt (bad CRC, bad
/// kind, payload decode failure).
fn next_frame(buf: &[u8], pos: &mut usize) -> Option<Result<WalRecord, DecodeError>> {
    let start = *pos;
    match split_frame(buf, pos)? {
        Ok((kind, payload)) => {
            Some(WalRecord::decode_payload(kind, payload).map_err(|e| e.offset_by(start)))
        }
        Err(e) => Some(Err(e)),
    }
}

/// Reads and replays one WAL file from disk; a missing magic is an
/// [`InvalidData`](std::io::ErrorKind::InvalidData) error.
pub fn read_wal(path: &Path) -> std::io::Result<WalReplay> {
    let bytes = std::fs::read(path)?;
    decode_wal(&bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::EncoderConfig;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::JobOpen { job: 3, nranks: 4, identity_check: true },
            WalRecord::Segment {
                job: 3,
                seg: TraceSegment { rank: 1, seq: 0, sealed: true, bytes: vec![1, 2, 3, 4, 5] },
            },
            WalRecord::Quarantine { job: 3, rank: 1, seq: 1 },
            WalRecord::Complete {
                job: 3,
                done: RankCompletion {
                    rank: 1,
                    call_count: 9,
                    segments: 2,
                    duration: None,
                    interval: None,
                    encoder_cfg: EncoderConfig::default(),
                    events: Vec::new(),
                },
            },
            WalRecord::Finished { job: 3 },
        ]
    }

    fn image(records: &[WalRecord]) -> Vec<u8> {
        let mut out = WAL_MAGIC.to_vec();
        for r in records {
            out.extend_from_slice(&frame(r));
        }
        out
    }

    #[test]
    fn roundtrips_every_record_kind() {
        let img = image(&sample_records());
        let replay = decode_wal(&img).expect("magic intact");
        assert!(replay.torn.is_none(), "{:?}", replay.torn);
        assert_eq!(replay.clean_bytes, img.len() as u64);
        assert_eq!(replay.records.len(), 5);
        match &replay.records[1] {
            WalRecord::Segment { job: 3, seg } => {
                assert_eq!((seg.rank, seg.seq, seg.sealed), (1, 0, true));
                assert_eq!(seg.bytes, vec![1, 2, 3, 4, 5]);
            }
            other => panic!("expected segment, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_replays_clean_prefix() {
        let img = image(&sample_records());
        for cut in WAL_MAGIC.len()..img.len() {
            let replay = decode_wal(&img[..cut]).expect("magic intact");
            // Every record reported clean must be bit-exact decodable.
            assert!(replay.records.len() <= 5);
            if cut < img.len() {
                assert!(replay.clean_bytes <= cut as u64);
            }
        }
        // Cut exactly at a frame boundary: no tear reported.
        let one = image(&sample_records()[..1]);
        let replay = decode_wal(&one).expect("magic intact");
        assert!(replay.torn.is_none());
        assert_eq!(replay.records.len(), 1);
    }

    #[test]
    fn bit_flip_fails_closed_at_the_flipped_frame() {
        let img = image(&sample_records());
        // Flip a byte inside the second frame's payload.
        let mut bad = img.clone();
        let first_end = WAL_MAGIC.len() + frame(&sample_records()[0]).len();
        bad[first_end + 3] ^= 0x40;
        let replay = decode_wal(&bad).expect("magic intact");
        assert_eq!(replay.records.len(), 1, "only the first frame survives");
        assert!(replay.torn.is_some());
    }

    #[test]
    fn missing_magic_is_an_error() {
        assert!(decode_wal(b"nope").is_err());
        assert!(decode_wal(b"PW").is_err());
    }

    #[test]
    fn shared_frame_codec_roundtrips_and_rejects_bit_flips() {
        let frame = encode_frame(7, b"hello frame");
        let mut pos = 0;
        let (kind, payload) = split_frame(&frame, &mut pos).expect("whole").expect("clean");
        assert_eq!((kind, payload), (7u8, &b"hello frame"[..]));
        assert_eq!(pos, frame.len());
        // Every strict prefix is torn, and `pos` is left where it was.
        for cut in 0..frame.len() {
            let mut p = 0;
            assert!(split_frame(&frame[..cut], &mut p).is_none(), "cut at {cut}");
            assert_eq!(p, 0);
        }
        // Any single bit flip fails the CRC closed.
        for byte in 0..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x10;
            let mut p = 0;
            match split_frame(&bad, &mut p) {
                Some(Err(_)) | None => {}
                Some(Ok(_)) => panic!("flip at byte {byte} went undetected"),
            }
        }
    }

    /// The satellite case for truncate-on-failed-append: a short write
    /// must leave the file readable *at the last clean frame* even
    /// before `truncate_to_clean` runs, and `clean_len` must agree with
    /// what an independent reader accepts.
    #[test]
    fn short_write_leaves_log_readable_at_last_clean_frame() {
        let dir = std::env::temp_dir().join(format!("pilgrim-wal-short-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("shard-0.wal");
        let recs = sample_records();
        let mut w = WalWriter::create(&path).expect("create wal");
        w.append(&recs[0]).expect("append");
        w.append(&recs[1]).expect("append");
        let clean = w.clean_len();
        assert!(w.append_torn(&recs[2]).is_err());
        // The torn tail is on disk, past the clean length...
        let on_disk = std::fs::metadata(&path).expect("stat").len();
        assert!(on_disk > clean, "torn bytes must be present ({on_disk} <= {clean})");
        // ...and a crash-time reader replays exactly the clean prefix.
        let replay = read_wal(&path).expect("read wal");
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.clean_bytes, clean);
        assert!(replay.torn.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_appends_syncs_and_recovers_from_torn_append() {
        let dir = std::env::temp_dir().join(format!("pilgrim-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("shard-0.wal");
        let recs = sample_records();
        let mut w = WalWriter::create(&path).expect("create wal");
        w.append(&recs[0]).expect("append");
        w.append(&recs[1]).expect("append");
        // A torn append leaves a damaged tail the reader skips...
        assert!(w.append_torn(&recs[2]).is_err());
        let replay = read_wal(&path).expect("read wal");
        assert_eq!(replay.records.len(), 2);
        assert!(replay.torn.is_some());
        // ...and truncate-to-clean lets the log continue.
        w.truncate_to_clean().expect("truncate");
        w.append(&recs[3]).expect("append after recovery");
        let replay = read_wal(&path).expect("read wal");
        assert_eq!(replay.records.len(), 3);
        assert!(replay.torn.is_none());
        assert_eq!(w.records(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
