//! Trace export: a human-readable OTF-inspired text format, and the
//! corruption-hardened `PGC1` container.
//!
//! The paper notes that Pilgrim's own format keeps existing post-
//! processing tools from reading its traces, and lists a converter "into
//! some existing trace formats (e.g., OTF)" as future work. This module
//! implements that direction: a line-oriented event format in the spirit
//! of OTF's ASCII representation — a definitions preamble (functions,
//! signatures) followed by per-rank event records — which downstream
//! text tooling can consume directly.
//!
//! [`write_container`] wraps the same trace content in a sectioned
//! container where every section carries a CRC32 of its payload, so a
//! flipped bit on disk is detected at the section that holds it instead
//! of surfacing as a confusing structural decode error — and so
//! [`GlobalTrace::decode_salvage`](crate::decode) can recover every rank
//! whose sections still checksum clean.

use std::fmt::Write;

use mpi_sim::FuncId;
use pilgrim_sequitur::write_varint;

use crate::encode::{decode_signature, EncodedArg, RankCode};
use crate::trace::{GlobalTrace, RankStatus, RANK_MAP_NONE};

fn fmt_rank(code: RankCode) -> String {
    match code {
        RankCode::Relative(d) => format!("rel({d:+})"),
        RankCode::Absolute(r) => format!("{r}"),
        RankCode::AnySource => "ANY_SOURCE".into(),
        RankCode::ProcNull => "PROC_NULL".into(),
    }
}

/// Formats one decoded argument in the export's compact notation
/// (`rel(+1)`, `comm=2`, `buf=seg5+128`, …). Shared with `trace_tool`'s
/// JSON slice output so both surfaces print arguments identically.
pub fn format_arg(arg: &EncodedArg) -> String {
    match arg {
        EncodedArg::Int(v) => format!("{v}"),
        EncodedArg::Rank(c) => fmt_rank(*c),
        EncodedArg::Tag(t) => format!("tag={t}"),
        EncodedArg::Comm(c) => {
            if *c == u64::MAX {
                "comm=UNDEFINED".into()
            } else if *c == u64::MAX - 2 {
                "comm=<deferred>".into()
            } else {
                format!("comm={c}")
            }
        }
        EncodedArg::Datatype(d) => format!("dtype={d}"),
        EncodedArg::Op(o) => format!("op={o}"),
        EncodedArg::Group(g) => format!("group={g}"),
        EncodedArg::Request(r) => {
            if *r == u64::MAX {
                "req=NULL".into()
            } else {
                format!("req={r}")
            }
        }
        EncodedArg::RequestArr(v) => {
            let items: Vec<String> =
                v.iter().map(|r| r.map_or("NULL".into(), |x| x.to_string())).collect();
            format!("reqs=[{}]", items.join(","))
        }
        EncodedArg::Ptr { segment, offset } => format!("buf=seg{segment}+{offset}"),
        EncodedArg::Status { source, tag } => {
            format!("status=({},{})", fmt_rank(*source), tag)
        }
        EncodedArg::StatusArr(v) => {
            let items: Vec<String> =
                v.iter().map(|(s, t)| format!("({},{t})", fmt_rank(*s))).collect();
            format!("statuses=[{}]", items.join(","))
        }
        EncodedArg::IntArr(v) => format!("{v:?}"),
        EncodedArg::Color(c) => format!("color={c}"),
        EncodedArg::Key(k) => format!("key={k}"),
        EncodedArg::Str(s) => format!("{s:?}"),
    }
}

/// Exports the whole trace as text: a `DEF` section mapping signature ids
/// to decoded calls, then one `EVT <rank> <signature-id>` line per call.
/// Event bodies live in the definition table, so the export stays compact
/// for repetitive traces.
pub fn to_text(trace: &GlobalTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# pilgrim trace export (OTF-style text)");
    let _ = writeln!(out, "# ranks {}", trace.nranks);
    let _ = writeln!(out, "# calls {}", trace.rank_lengths.iter().sum::<u64>());
    let _ = writeln!(out, "# signatures {}", trace.cst.len());
    for (term, sig, stats) in trace.cst.iter() {
        let call = decode_signature(sig).expect("stored signatures decode");
        let name = FuncId::from_id(call.func).map_or("MPI_<unknown>", |f| f.name());
        let args: Vec<String> = call.args.iter().map(format_arg).collect();
        let _ = writeln!(
            out,
            "DEF {term} {name}({}) count={} avg_ns={:.0}",
            args.join(", "),
            stats.count,
            stats.avg_duration()
        );
    }
    for (rank, terms) in trace.decode_all_ranks().into_iter().enumerate() {
        for t in terms {
            let _ = writeln!(out, "EVT {rank} {t}");
        }
    }
    out
}

/// Exports only the definitions (the per-signature view of the program).
pub fn to_signature_listing(trace: &GlobalTrace) -> String {
    let mut out = String::new();
    for (term, sig, stats) in trace.cst.iter() {
        let call = decode_signature(sig).expect("stored signatures decode");
        let name = FuncId::from_id(call.func).map_or("MPI_<unknown>", |f| f.name());
        let args: Vec<String> = call.args.iter().map(format_arg).collect();
        let _ = writeln!(out, "{term:>6}  {name}({})  x{}", args.join(", "), stats.count);
    }
    out
}

// ---------------------------------------------------------------------
// The PGC1 checksummed container.
// ---------------------------------------------------------------------

/// Magic prefix identifying the checksummed container format.
pub const CONTAINER_MAGIC: [u8; 4] = *b"PGC1";
/// Container format version written after the magic.
pub const CONTAINER_VERSION: u8 = 1;

/// Section kinds, in their mandatory on-disk order: META, CST, GRAMMAR,
/// one DURATION section per duration grammar, one INTERVAL section per
/// interval grammar, then one RANK section per rank.
pub(crate) const SEC_META: u8 = 1;
pub(crate) const SEC_CST: u8 = 2;
pub(crate) const SEC_GRAMMAR: u8 = 3;
pub(crate) const SEC_DURATION: u8 = 4;
pub(crate) const SEC_INTERVAL: u8 = 5;
pub(crate) const SEC_RANK: u8 = 6;
/// Optional trailing section: the `PGND` nondeterminism log of a
/// record/replay recording ([`crate::NondetLog`]). Absent from ordinary
/// traces, so pre-existing containers decode unchanged.
pub(crate) const SEC_NONDET: u8 = 7;

/// Human-readable section name, used in checksum error reports.
pub(crate) fn section_name(kind: u8) -> &'static str {
    match kind {
        SEC_META => "meta",
        SEC_CST => "cst",
        SEC_GRAMMAR => "grammar",
        SEC_DURATION => "duration",
        SEC_INTERVAL => "interval",
        SEC_RANK => "rank",
        SEC_NONDET => "nondet",
        _ => "unknown",
    }
}

/// Slicing-by-16 tables for the reflected IEEE polynomial: `T[0]` is the
/// classic bytewise table, and `T[k][b]` is the CRC contribution of byte
/// `b` followed by `k` zero bytes, so sixteen lookups fold one 16-byte
/// chunk at once.
const fn make_crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 16] = make_crc_tables();

/// IEEE CRC-32 (the zlib/gzip polynomial), slicing-by-16, no dependencies.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let (chunks, tail) = data.as_chunks::<16>();
    for chunk in chunks {
        let [b0, b1, b2, b3] = (c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]))
            .to_le_bytes()
            .map(usize::from);
        c = t[15][b0] ^ t[14][b1] ^ t[13][b2] ^ t[12][b3];
        for (j, &b) in chunk[4..].iter().enumerate() {
            c ^= t[11 - j][usize::from(b)];
        }
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// True when `buf` starts with the container magic (regardless of
/// version). Lets tools sniff container vs. legacy flat traces.
pub fn is_container(buf: &[u8]) -> bool {
    buf.len() >= CONTAINER_MAGIC.len() && buf[..CONTAINER_MAGIC.len()] == CONTAINER_MAGIC
}

fn push_section(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.push(kind);
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// A timing rank-map entry in its on-disk +1 form (0 = no grammar, which
/// also covers traces whose maps are empty because timing is aggregated).
fn map_entry(map: &[u32], rank: usize) -> u64 {
    match map.get(rank) {
        Some(&m) if m != RANK_MAP_NONE => m as u64 + 1,
        _ => 0,
    }
}

/// Crash-safe container write, the one every durable container goes
/// through: temporary file, `sync_all`, atomic rename. A crash mid-write
/// leaves either the previous container or a `.pilgrim.tmp` orphan —
/// never a torn file at the final path.
pub(crate) fn write_container_file(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension("pilgrim.tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)
}

/// Serializes a trace into the `PGC1` container: magic + version, then a
/// sequence of `(kind, length, payload, CRC32)` sections. Content is
/// identical to [`GlobalTrace::serialize`] but regrouped so each
/// independently recoverable piece — the merged CST, the call grammar,
/// each timing grammar, and each rank's metadata — is checksummed on its
/// own. Decode with [`GlobalTrace::decode_container`] (strict) or
/// [`GlobalTrace::decode_salvage`] (best effort).
pub fn write_container(trace: &GlobalTrace) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&CONTAINER_MAGIC);
    out.push(CONTAINER_VERSION);

    let mut payload = Vec::new();
    payload.push(trace.encoder_cfg.to_byte());
    write_varint(&mut payload, trace.nranks as u64);
    write_varint(&mut payload, trace.unique_grammars as u64);
    write_varint(&mut payload, trace.duration_grammars.len() as u64);
    write_varint(&mut payload, trace.interval_grammars.len() as u64);
    push_section(&mut out, SEC_META, &payload);

    payload.clear();
    trace.cst.serialize(&mut payload);
    push_section(&mut out, SEC_CST, &payload);

    payload.clear();
    trace.grammar.serialize(&mut payload);
    push_section(&mut out, SEC_GRAMMAR, &payload);

    for (kind, grammars) in
        [(SEC_DURATION, &trace.duration_grammars), (SEC_INTERVAL, &trace.interval_grammars)]
    {
        for g in grammars {
            payload.clear();
            g.serialize(&mut payload);
            push_section(&mut out, kind, &payload);
        }
    }

    for rank in 0..trace.nranks {
        payload.clear();
        write_varint(&mut payload, trace.rank_lengths.get(rank).copied().unwrap_or(0));
        write_varint(&mut payload, map_entry(&trace.duration_rank_map, rank));
        write_varint(&mut payload, map_entry(&trace.interval_rank_map, rank));
        match trace.completeness.status(rank) {
            RankStatus::Merged => write_varint(&mut payload, 0),
            RankStatus::Lost { round } => {
                write_varint(&mut payload, 1);
                write_varint(&mut payload, round as u64);
            }
            RankStatus::Checkpoint { calls } => {
                write_varint(&mut payload, 2);
                write_varint(&mut payload, calls);
            }
            RankStatus::Salvaged { calls } => {
                write_varint(&mut payload, 3);
                write_varint(&mut payload, calls);
            }
        }
        let events: Vec<_> = trace.completeness.events_for(rank).collect();
        write_varint(&mut payload, events.len() as u64);
        for e in events {
            e.serialize(&mut payload);
        }
        push_section(&mut out, SEC_RANK, &payload);
    }

    if let Some(nondet) = &trace.nondet {
        payload.clear();
        nondet.serialize(&mut payload);
        push_section(&mut out, SEC_NONDET, &payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::PilgrimTracer;
    use mpi_sim::datatype::BasicType;
    use mpi_sim::{World, WorldConfig};

    fn sample_trace() -> GlobalTrace {
        let mut tracers = World::run(&WorldConfig::new(2), PilgrimTracer::with_defaults, |env| {
            let me = env.world_rank();
            let world = env.comm_world();
            let dt = env.basic(BasicType::LongLong);
            let buf = env.malloc(8);
            for _ in 0..5 {
                if me == 0 {
                    env.send(buf, 1, dt, 1, 9, world);
                } else {
                    env.recv(buf, 1, dt, 0, 9, world);
                }
                env.barrier(world);
            }
        });
        tracers[0].take_output().trace.unwrap()
    }

    #[test]
    fn export_contains_defs_and_events() {
        let trace = sample_trace();
        let text = to_text(&trace);
        assert!(text.contains("DEF"));
        assert!(text.contains("MPI_Send"));
        assert!(text.contains("MPI_Recv"));
        assert!(text.contains("MPI_Barrier"));
        assert!(text.contains("tag=9"));
        // One EVT line per call.
        let evts = text.lines().filter(|l| l.starts_with("EVT ")).count() as u64;
        assert_eq!(evts, trace.rank_lengths.iter().sum::<u64>());
    }

    #[test]
    fn events_reference_defined_signatures() {
        let trace = sample_trace();
        let text = to_text(&trace);
        let defs: std::collections::HashSet<&str> = text
            .lines()
            .filter(|l| l.starts_with("DEF "))
            .map(|l| l.split_whitespace().nth(1).unwrap())
            .collect();
        for l in text.lines().filter(|l| l.starts_with("EVT ")) {
            let term = l.split_whitespace().nth(2).unwrap();
            assert!(defs.contains(term), "event references undefined signature {term}");
        }
    }

    #[test]
    fn signature_listing_is_compact() {
        let trace = sample_trace();
        let listing = to_signature_listing(&trace);
        assert_eq!(listing.lines().count(), trace.cst.len());
        assert!(listing.contains("x5"), "counts are shown");
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The classic one-table, one-byte-at-a-time CRC-32.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_bytewise_reference() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..4096 + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=4096 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    /// Kernel timing, not a check: `cargo test --release -p pilgrim --lib
    /// crc32_ns_per_byte -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn crc32_ns_per_byte() {
        let buf = vec![0x5Au8; 1 << 20];
        let ns_per_byte = |f: fn(&[u8]) -> u32| {
            let t = std::time::Instant::now();
            for _ in 0..64 {
                std::hint::black_box(f(std::hint::black_box(&buf)));
            }
            t.elapsed().as_nanos() as f64 / (64.0 * buf.len() as f64)
        };
        let (bytewise, sliced) = (ns_per_byte(crc32_bytewise), ns_per_byte(crc32));
        println!("crc32 ns/B: bytewise {bytewise:.3}, slicing-by-16 {sliced:.3}");
    }

    #[test]
    fn container_starts_with_magic_and_sniffs() {
        let trace = sample_trace();
        let bytes = write_container(&trace);
        assert!(is_container(&bytes));
        assert_eq!(&bytes[..4], b"PGC1");
        assert_eq!(bytes[4], CONTAINER_VERSION);
        // The legacy flat serialization is not mistaken for a container.
        assert!(!is_container(&trace.serialize()));
        assert!(!is_container(b"PG"));
    }

    #[test]
    fn container_sections_appear_in_order() {
        let trace = sample_trace();
        let bytes = write_container(&trace);
        // Walk the framing by hand: kind, payload-length varint, payload,
        // 4-byte CRC — and collect the kinds.
        let mut pos = 5;
        let mut kinds = Vec::new();
        while pos < bytes.len() {
            kinds.push(bytes[pos]);
            pos += 1;
            let mut len = 0u64;
            let mut shift = 0;
            loop {
                let b = bytes[pos];
                pos += 1;
                len |= u64::from(b & 0x7F) << shift;
                shift += 7;
                if b & 0x80 == 0 {
                    break;
                }
            }
            let payload = &bytes[pos..pos + len as usize];
            pos += len as usize;
            let stored =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
            assert_eq!(crc32(payload), stored, "section checksum is valid as written");
            pos += 4;
        }
        let mut expect = vec![SEC_META, SEC_CST, SEC_GRAMMAR];
        expect.extend(std::iter::repeat_n(SEC_DURATION, trace.duration_grammars.len()));
        expect.extend(std::iter::repeat_n(SEC_INTERVAL, trace.interval_grammars.len()));
        expect.extend(std::iter::repeat_n(SEC_RANK, trace.nranks));
        assert_eq!(kinds, expect);
    }
}
