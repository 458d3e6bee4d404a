//! Pins the exact grammar `Grammar::push` builds for fixed input streams.
//!
//! The digram index's hasher decides only where entries sit in the table,
//! never which rules form, so swapping it must leave every grammar — and
//! with it every trace byte — unchanged. Each case serializes `to_flat()`
//! and compares it with bytes recorded from the FNV-1a digram index this
//! crate used before: small grammars literally, large ones by length plus
//! an FNV-1a-64 checksum of the serialized form.

use pilgrim_sequitur::Grammar;

/// SplitMix64: fixed-seed entropy for the random shapes.
fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The four `sequitur_gate` shapes, generated exactly as that binary does.
fn gate_stream(shape: &str, n: usize) -> Vec<u32> {
    let mut next = splitmix(0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|i| match shape {
            "periodic8" => (i % 8) as u32,
            "nested" if i % 60 < 6 => (100 + i % 6) as u32,
            "nested" => (i % 6) as u32,
            "mixed" => ((i / 10_000) % 4 * 32 + i % 7) as u32,
            "noisy4k" => (next() % 4096) as u32,
            _ => unreachable!("unknown shape {shape}"),
        })
        .collect()
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// Builds the grammar for `input` and returns its serialized flat form,
/// after checking it still expands to the input.
fn flat_bytes(input: &[u32]) -> Vec<u8> {
    let mut g = Grammar::new();
    for &t in input {
        g.push(t);
    }
    g.validate();
    let flat = g.to_flat();
    assert_eq!(flat.expand(), input, "grammar no longer expands to its input");
    let mut out = Vec::new();
    flat.serialize(&mut out);
    out
}

fn assert_pinned(input: &[u32], len: usize, checksum: u64) {
    let bytes = flat_bytes(input);
    assert_eq!((bytes.len(), fnv1a64(&bytes)), (len, checksum), "grammar moved");
}

#[test]
fn gate_shapes_are_pinned() {
    const N: usize = 40_000;
    assert_eq!(flat_bytes(&gate_stream("periodic8", N)), PERIODIC8);
    assert_eq!(flat_bytes(&gate_stream("nested", N)), NESTED);
    assert_pinned(&gate_stream("mixed", N), MIXED.0, MIXED.1);
    assert_pinned(&gate_stream("noisy4k", N), NOISY4K.0, NOISY4K.1);
}

#[test]
fn milc_shaped_loop_is_pinned() {
    // MILC's CG step: 16 Isend/Irecv, one Waitall, one Allreduce.
    let input: Vec<u32> = (0..18 * 2_000 + 7).map(|i| (i % 18) as u32).collect();
    assert_eq!(flat_bytes(&input), PERIODIC18);
}

#[test]
fn seeded_random_stream_is_pinned() {
    // A small alphabet keeps digrams repeating, so rules form, merge and
    // get inlined throughout the stream.
    let mut next = splitmix(42);
    let input: Vec<u32> = (0..20_000).map(|_| (next() % 6) as u32).collect();
    assert_pinned(&input, RANDOM6.0, RANDOM6.1);
}

const PERIODIC8: &[u8] = &[2, 1, 3, 136, 39, 8, 0, 1, 2, 1, 4, 1, 6, 1, 8, 1, 10, 1, 12, 1, 14, 1];
const NESTED: &[u8] = &[
    5, 4, 7, 154, 5, 5, 1, 3, 5, 9, 1, 3, 9, 1, 8, 1, 10, 1, 6, 200, 1, 1, 202, 1, 1, 204, 1, 1,
    206, 1, 1, 208, 1, 1, 210, 1, 1, 2, 5, 1, 3, 9, 4, 0, 1, 2, 1, 4, 1, 6, 1,
];
const PERIODIC18: &[u8] = &[
    3, 2, 3, 208, 15, 5, 1, 12, 5, 1, 14, 1, 16, 1, 18, 1, 20, 1, 22, 1, 24, 1, 26, 1, 28, 1, 30,
    1, 32, 1, 34, 1, 7, 0, 1, 2, 1, 4, 1, 6, 1, 8, 1, 10, 1, 12, 1,
];
const MIXED: (usize, u64) = (108, 0x16F3_D494_00D0_7EC8);
const NOISY4K: (usize, u64) = (119_297, 0xF451_3E8C_29FD_E555);
const RANDOM6: (usize, u64) = (20_483, 0x19BD_E697_B4F8_5183);
