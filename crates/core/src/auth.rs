//! Wire authentication for the `PNT1` protocol: a self-contained
//! streaming SHA-256 + HMAC-SHA256 implementation (the workspace builds
//! offline — no external crypto crates), a challenge–response handshake
//! proof, and per-frame truncated MACs chained on a per-session key and
//! a per-direction frame sequence number.
//!
//! The SHA-256 block function has two paths with identical output. On
//! x86_64 CPUs that report the SHA extensions (`sha`, with `ssse3` and
//! `sse4.1`) at run time it uses the hardware rounds
//! (`sha256rnds2`/`sha256msg1`/`sha256msg2`); everywhere else it runs
//! the portable FIPS 180-4 compression. The choice is made per call
//! from `is_x86_feature_detected!` alone — there is no setting that
//! selects a path — and the call into the hardware routine is the
//! module's single `unsafe` block.
//!
//! Threat model (DESIGN.md §10): a shared collector on an untrusted
//! network. The scheme authenticates *peers* (both sides must hold the
//! pre-shared key) and *frames* (forgery and replay of post-handshake
//! frames is detected because every MAC binds the session key, the
//! direction, and a monotonically increasing sequence number). It does
//! **not** provide confidentiality — frame payloads travel in the
//! clear — and there is no key rotation yet.

use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Bytes of truncated HMAC appended to each authenticated frame.
pub const MAC_LEN: usize = 8;

/// Bytes in a handshake nonce / challenge response.
pub const NONCE_LEN: usize = 32;

/// Direction tag for client→server frames.
pub const DIR_CLIENT: u8 = b'C';

/// Direction tag for server→client frames.
pub const DIR_SERVER: u8 = b'S';

// ---------------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const SHA256_INIT: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

fn sha256_compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        let base = i * 4;
        *word =
            u32::from_be_bytes([block[base], block[base + 1], block[base + 2], block[base + 3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(SHA256_K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Runs the block function over whole blocks: the hardware rounds when
/// the CPU has them, the portable compression otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        // SAFETY: `shani::compress` only requires that the CPU supports
        // the `sha`, `sse2`, `ssse3` and `sse4.1` features it is compiled
        // for; `detected()` has just confirmed all of them at run time
        // (`sse2` is part of the x86_64 baseline).
        unsafe { shani::compress(state, blocks) };
        return;
    }
    for block in blocks {
        sha256_compress(state, block);
    }
}

/// The SHA-256 block function on the x86 SHA extensions, after Intel's
/// published `sha256rnds2`/`sha256msg1`/`sha256msg2` sequence. Every
/// operation is a register intrinsic, so the body needs no `unsafe`;
/// only calling it does, because of its `target_feature` contract.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::SHA256_K;

    /// True when this CPU can run [`compress`].
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Big-endian message words `4j..4j + 4` of `block`, lane `i` holding
    /// word `4j + i`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn words(block: &[u8; 64], j: usize) -> __m128i {
        let w = |i: usize| {
            let at = 16 * j + 4 * i;
            u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]) as i32
        };
        _mm_set_epi32(w(3), w(2), w(1), w(0))
    }

    /// Same result as running `sha256_compress` over each block in turn.
    ///
    /// # Safety
    ///
    /// Calling it is `unsafe` because of `target_feature`: the caller
    /// must know the CPU has these features, as [`detected`] checks.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let s = state.map(|w| w as i32);
        // The rounds instruction keeps the working variables as two
        // vectors, ABEF and CDGH (highest lane first).
        let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
        let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // A ring of the last four message vectors W[i-4..i].
            let mut w = [words(block, 0), words(block, 1), words(block, 2), words(block, 3)];
            for i in 0..16 {
                if i >= 4 {
                    let (w4, w3, w2, w1) =
                        (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                    let sigma0 = _mm_sha256msg1_epu32(w4, w3);
                    let w7 = _mm_alignr_epi8::<4>(w1, w2);
                    w[i % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), w1);
                }
                let k = |r: usize| SHA256_K[4 * i + r] as i32;
                let wk = _mm_add_epi32(w[i % 4], _mm_set_epi32(k(3), k(2), k(1), k(0)));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let lanes = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ];
        *state = lanes.map(|w| w as u32);
    }
}

/// Streaming SHA-256: absorb any number of byte slices with
/// [`update`](Sha256::update), then pad and read the digest with
/// [`finish`](Sha256::finish).
#[derive(Clone)]
struct Sha256 {
    state: [u32; 8],
    /// Bytes of a partial block awaiting more input.
    buf: [u8; 64],
    buf_len: usize,
    /// Total bytes absorbed.
    len: u64,
}

impl Sha256 {
    fn new() -> Sha256 {
        Sha256 { state: SHA256_INIT, buf: [0; 64], buf_len: 0, len: 0 }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        compress_blocks(&mut self.state, blocks);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Pads the tail (0x80, zeros, 64-bit big-endian bit length) and
    /// returns the digest.
    fn finish(mut self) -> [u8; 32] {
        let bitlen = self.len.wrapping_mul(8);
        let zeros = (119 - self.buf_len) % 64;
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[1 + zeros..9 + zeros].copy_from_slice(&bitlen.to_be_bytes());
        self.update(&pad[..9 + zeros]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

/// An HMAC-SHA256 key (RFC 2104, block size 64) with both pad blocks
/// already absorbed, so each MAC costs two compressions fewer than
/// hashing `key ^ ipad` and `key ^ opad` afresh.
struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    fn new(key: &[u8]) -> HmacKey {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacKey { inner, outer }
    }

    /// HMAC of the concatenation of `parts`, streamed without copying.
    fn mac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finish());
        outer.finish()
    }
}

/// HMAC-SHA256 per RFC 2104 (block size 64).
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(&[msg])
}

/// Constant-time equality: scans both slices fully, no early exit.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

// ---------------------------------------------------------------------------
// Keys and handshake proofs
// ---------------------------------------------------------------------------

/// A pre-shared wire key. Arbitrary key material is normalised through
/// SHA-256 so every key is exactly 32 bytes regardless of the file's
/// length. `Debug` never prints the key bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct AuthKey([u8; 32]);

impl std::fmt::Debug for AuthKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AuthKey(..)")
    }
}

impl AuthKey {
    /// Derive a key from raw material (any non-empty byte string).
    pub fn from_bytes(material: &[u8]) -> Option<AuthKey> {
        if material.is_empty() {
            return None;
        }
        let mut h = Sha256::new();
        h.update(b"pilgrim-wire-key");
        h.update(material);
        Some(AuthKey(h.finish()))
    }

    /// Load key material from a file; trailing ASCII whitespace is
    /// stripped so `echo secret > key` works as expected.
    pub fn from_file(path: &Path) -> std::io::Result<AuthKey> {
        let mut raw = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut raw)?;
        while raw.last().is_some_and(|b| matches!(b, b'\n' | b'\r' | b' ' | b'\t')) {
            raw.pop();
        }
        AuthKey::from_bytes(&raw).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("auth key file {} is empty", path.display()),
            )
        })
    }

    fn raw(&self) -> &[u8; 32] {
        &self.0
    }
}

/// HMAC under `key` over `tag || nonce || client_id || version`.
fn handshake_mac(
    key: &AuthKey,
    tag: &[u8],
    nonce: &[u8; NONCE_LEN],
    client_id: u64,
    version: u32,
) -> [u8; 32] {
    HmacKey::new(key.raw()).mac(&[tag, nonce, &client_id.to_le_bytes(), &version.to_le_bytes()])
}

/// The client's proof of key possession: an HMAC binding the server's
/// nonce to the hello it just sent (client id + protocol version), so a
/// response captured from one handshake is useless against any other.
pub fn challenge_response(
    key: &AuthKey,
    nonce: &[u8; NONCE_LEN],
    client_id: u64,
    version: u32,
) -> [u8; 32] {
    handshake_mac(key, b"PNT1-auth-v1", nonce, client_id, version)
}

/// Derive the per-session MAC key from the shared key and the
/// handshake coordinates. Fresh per connection because the nonce is.
pub fn session_key(
    key: &AuthKey,
    nonce: &[u8; NONCE_LEN],
    client_id: u64,
    version: u32,
) -> [u8; 32] {
    handshake_mac(key, b"PNT1-session-v1", nonce, client_id, version)
}

static NONCE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh per-connection nonce: wall clock, a process-wide counter and
/// a stack address hashed together. Uniqueness (not unpredictability to
/// the keyholder) is what defeats handshake replay; the counter alone
/// guarantees that within a process.
pub fn fresh_nonce() -> [u8; NONCE_LEN] {
    let count = NONCE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
    let marker = &count as *const u64 as u64;
    let mut h = Sha256::new();
    h.update(b"PNT1-nonce");
    h.update(&count.to_le_bytes());
    h.update(&nanos.to_le_bytes());
    h.update(&marker.to_le_bytes());
    h.update(&std::process::id().to_le_bytes());
    h.finish()
}

// ---------------------------------------------------------------------------
// Per-frame MAC chain
// ---------------------------------------------------------------------------

/// One direction of an authenticated session: seals (or verifies)
/// frames with a truncated HMAC over `direction || seq || frame`,
/// advancing `seq` only on success. Because the counter is bound into
/// every tag, a frame replayed, reordered, or spliced from another
/// session fails verification and the connection is torn down.
pub struct MacState {
    key: HmacKey,
    dir: u8,
    seq: u64,
}

impl std::fmt::Debug for MacState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MacState {{ dir: {}, seq: {} }}", self.dir, self.seq)
    }
}

fn frame_mac(key: &HmacKey, dir: u8, seq: u64, frame: &[u8]) -> [u8; MAC_LEN] {
    let full = key.mac(&[&[dir], &seq.to_le_bytes(), frame]);
    let mut mac = [0u8; MAC_LEN];
    mac.copy_from_slice(&full[..MAC_LEN]);
    mac
}

impl MacState {
    /// A fresh chain for one direction of one session.
    pub fn new(session_key: [u8; 32], dir: u8) -> MacState {
        MacState { key: HmacKey::new(&session_key), dir, seq: 0 }
    }

    /// Tag for the next outgoing frame; advances the chain.
    pub fn seal(&mut self, frame: &[u8]) -> [u8; MAC_LEN] {
        let mac = frame_mac(&self.key, self.dir, self.seq, frame);
        self.seq = self.seq.wrapping_add(1);
        mac
    }

    /// Verify the tag on the next incoming frame. Advances the chain
    /// only when the tag matches (constant-time compare).
    pub fn verify(&mut self, frame: &[u8], tag: &[u8]) -> bool {
        let expect = frame_mac(&self.key, self.dir, self.seq, frame);
        if ct_eq(&expect, tag) {
            self.seq = self.seq.wrapping_add(1);
            true
        } else {
            false
        }
    }

    /// Frames sealed or verified so far on this direction.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_matches_nist_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Length straddling the padding boundary (55/56/64 bytes).
        assert_eq!(
            hex(&sha256(&[b'a'; 55])),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"
        );
        assert_eq!(
            hex(&sha256(&[b'a'; 56])),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
        );
        assert_eq!(
            hex(&sha256(&[b'a'; 64])),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
        assert_eq!(
            hex(&sha256(&[b'a'; 1000])),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    #[test]
    fn hmac_matches_rfc4231_vectors() {
        // RFC 4231 test case 1.
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Test case 2: short printable key.
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Test case 3: 0xaa * 20 key, 0xdd * 50 data.
        assert_eq!(
            hex(&hmac_sha256(&[0xaa; 20], &[0xdd; 50])),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
        // Test case 6: key longer than the block size (131 bytes).
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// splitmix64: a seeded stream of test inputs.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn hardware_rounds_match_scalar_compress() {
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            let mut next = rng(0x5EED_5A25);
            for n in 0..500 {
                let state: [u32; 8] = std::array::from_fn(|_| next() as u32);
                let blocks: Vec<[u8; 64]> =
                    (0..1 + n % 4).map(|_| std::array::from_fn(|_| next() as u8)).collect();
                let mut scalar = state;
                blocks.iter().for_each(|b| sha256_compress(&mut scalar, b));
                let mut hw = state;
                // SAFETY: `detected()` confirmed every feature `compress` needs.
                unsafe { shani::compress(&mut hw, &blocks) };
                assert_eq!(hw, scalar, "case {n}: {} blocks", blocks.len());
            }
            return;
        }
        eprintln!("note: no SHA extensions on this CPU; only the scalar path is tested");
    }

    /// Kernel timing, not a check: `cargo test --release -p pilgrim --lib
    /// sha256_ns_per_byte -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn sha256_ns_per_byte() {
        let blocks = vec![[0xA5u8; 64]; 1 << 14];
        let bytes = 64.0 * blocks.len() as f64;
        let ns_per_byte = |f: &dyn Fn(&mut [u32; 8])| {
            let mut state = SHA256_INIT;
            let t = std::time::Instant::now();
            for _ in 0..16 {
                f(std::hint::black_box(&mut state));
            }
            t.elapsed().as_nanos() as f64 / (16.0 * bytes)
        };
        let scalar = ns_per_byte(&|s| blocks.iter().for_each(|b| sha256_compress(s, b)));
        let dispatched = ns_per_byte(&|s| compress_blocks(s, &blocks));
        println!("sha256 ns/B: scalar {scalar:.3}, dispatched {dispatched:.3}");
        let key = HmacKey::new(&[7; 32]);
        let frame = vec![0x3Cu8; 3100];
        let t = std::time::Instant::now();
        for seq in 0..4096u64 {
            std::hint::black_box(frame_mac(&key, DIR_CLIENT, seq, &frame));
        }
        println!("frame_mac ns/KB on 3100 B frames: {:.0}", {
            t.elapsed().as_nanos() as f64 / (4096.0 * 3100.0 / 1024.0)
        });
    }

    #[test]
    fn streaming_split_matches_one_shot() {
        let mut next = rng(7);
        let data: Vec<u8> = (0..300).map(|_| next() as u8).collect();
        for len in 0..=data.len() {
            let whole = sha256(&data[..len]);
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finish(), whole, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn mac_tags_are_pinned() {
        // Tags for seq 0..=3, one line per frame length; the lengths put
        // `dir || seq || frame` on both sides of the padding boundary.
        // Any change to these bytes breaks every deployed peer.
        let pinned = [
            (0, "6f2f40c7fea257cbde02386b8a12ea7cd82a016606c0cf28868d2bd0449f71ab"),
            (55, "381c89fc34bb123374755917d790a41cb788c510d1ff5187fe7f7dc466232e24"),
            (56, "693709c0c54831c8e63fe72dc98c220c483a2f040479da03c1915e6b8e68d318"),
            (64, "54cf295c86b58dfc13b6af170a781a80c19720fd143f4778bdeadb4f8ebbaa8a"),
            (3100, "826cf21bc74e32a32a3aeac26ef6af8f087ed51d09e56bd67d88c303059960d9"),
        ];
        let key: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(7).wrapping_add(1));
        for (len, tags) in pinned {
            let frame: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut tx = MacState::new(key, DIR_CLIENT);
            let sealed: Vec<u8> = (0..4).flat_map(|_| tx.seal(&frame)).collect();
            assert_eq!(hex(&sealed), tags, "frame length {len}");
            let mut rx = MacState::new(key, DIR_CLIENT);
            assert!(sealed.chunks(MAC_LEN).all(|tag| rx.verify(&frame, tag)));
        }
    }

    #[test]
    fn ct_eq_is_exact() {
        assert!(ct_eq(b"abcd", b"abcd"));
        assert!(!ct_eq(b"abcd", b"abce"));
        assert!(!ct_eq(b"abcd", b"abc"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn keys_normalise_and_redact() {
        let a = AuthKey::from_bytes(b"secret").expect("non-empty");
        let b = AuthKey::from_bytes(b"secret").expect("non-empty");
        let c = AuthKey::from_bytes(b"other").expect("non-empty");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(AuthKey::from_bytes(b"").is_none());
        assert_eq!(format!("{a:?}"), "AuthKey(..)");
    }

    #[test]
    fn key_file_strips_trailing_newline() {
        let dir = std::env::temp_dir().join(format!("pilgrim-auth-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("key");
        std::fs::write(&path, b"hunter2\n").expect("write");
        let from_file = AuthKey::from_file(&path).expect("load");
        let from_bytes = AuthKey::from_bytes(b"hunter2").expect("non-empty");
        assert_eq!(from_file, from_bytes);
        std::fs::write(&path, b"\n").expect("write");
        assert!(AuthKey::from_file(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn challenge_response_binds_every_coordinate() {
        let key = AuthKey::from_bytes(b"k").expect("non-empty");
        let other = AuthKey::from_bytes(b"k2").expect("non-empty");
        let nonce = [7u8; NONCE_LEN];
        let mut nonce2 = nonce;
        nonce2[0] ^= 1;
        let base = challenge_response(&key, &nonce, 42, 1);
        assert_eq!(base, challenge_response(&key, &nonce, 42, 1));
        assert_ne!(base, challenge_response(&other, &nonce, 42, 1));
        assert_ne!(base, challenge_response(&key, &nonce2, 42, 1));
        assert_ne!(base, challenge_response(&key, &nonce, 43, 1));
        assert_ne!(base, challenge_response(&key, &nonce, 42, 2));
        // The session key derivation is domain-separated from the proof.
        assert_ne!(base[..], session_key(&key, &nonce, 42, 1)[..]);
    }

    #[test]
    fn nonces_are_unique() {
        let a = fresh_nonce();
        let b = fresh_nonce();
        assert_ne!(a, b);
    }

    #[test]
    fn mac_chain_detects_replay_reorder_and_forgery() {
        let key = AuthKey::from_bytes(b"k").expect("non-empty");
        let nonce = [3u8; NONCE_LEN];
        let sk = session_key(&key, &nonce, 9, 1);
        let mut tx = MacState::new(sk, DIR_CLIENT);
        let mut rx = MacState::new(sk, DIR_CLIENT);

        let f1 = b"frame-one".to_vec();
        let f2 = b"frame-two".to_vec();
        let t1 = tx.seal(&f1);
        let t2 = tx.seal(&f2);

        // Reorder: second frame first fails, chain does not advance.
        assert!(!rx.verify(&f2, &t2));
        assert_eq!(rx.seq(), 0);
        assert!(rx.verify(&f1, &t1));
        assert!(rx.verify(&f2, &t2));
        // Replay of an already-verified frame fails.
        assert!(!rx.verify(&f2, &t2));

        // Forgery: flipping one payload byte fails.
        let mut rx2 = MacState::new(sk, DIR_CLIENT);
        let mut forged = f1.clone();
        forged[0] ^= 0x80;
        assert!(!rx2.verify(&forged, &t1));
        // Wrong direction tag fails even with the right key and seq.
        let mut rx3 = MacState::new(sk, DIR_SERVER);
        assert!(!rx3.verify(&f1, &t1));
    }
}
