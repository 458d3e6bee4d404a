//! The fixed-seed hasher for process-local hash tables.

use std::hash::{BuildHasherDefault, Hasher};

/// A fixed-seed, word-at-a-time hasher: every integer the key writes is
/// mixed into the state with one 64x64->128-bit multiply whose halves are
/// folded together, and byte slices are consumed eight bytes per mix.
///
/// The seed is fixed on purpose. `RandomState` draws a fresh seed per map,
/// which makes a table's bucket layout — and so its capacity after the
/// insert/erase churn Sequitur's digram index sees — differ between
/// otherwise identical runs. [`Grammar::approx_bytes`](crate::Grammar::approx_bytes)
/// counts that capacity, and the tracer's resource governor trips on it,
/// so the governor needs a hash whose whole table history is a pure
/// function of the input. Keyed SipHash stays the right choice for any
/// table keyed by bytes a peer supplies; this one is for keys a process
/// makes itself.
#[derive(Debug, Clone, Copy)]
pub struct WordHasher(u64);

/// Builds [`WordHasher`]s: `HashMap<K, V, FixedState>`.
pub type FixedState = BuildHasherDefault<WordHasher>;

/// Odd 64-bit multiplier (the golden-ratio constant).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Default for WordHasher {
    #[inline]
    fn default() -> Self {
        WordHasher(0x243F_6A88_85A3_08D3)
    }
}

impl WordHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * u128::from(MUL);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            self.mix(u64::from_le_bytes(b));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut b = [0u8; 8];
            b[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(b) ^ ((tail.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.mix(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FixedState::default().hash_one(v)
    }

    #[test]
    fn same_input_same_hash_across_builders() {
        assert_eq!(hash_of((3u32, 7u64)), hash_of((3u32, 7u64)));
        assert_eq!(hash_of(b"signature".as_slice()), hash_of(b"signature".as_slice()));
    }

    #[test]
    fn nearby_keys_spread_over_low_and_high_bits() {
        // hashbrown indexes buckets with the low bits and tags them with
        // the top seven, so both ends must vary for sequential keys.
        let hs: Vec<u64> = (0..64u64).map(hash_of).collect();
        let low: std::collections::HashSet<u64> = hs.iter().map(|h| h & 63).collect();
        let top: std::collections::HashSet<u64> = hs.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 32, "low bits collapse: {}", low.len());
        assert!(top.len() > 32, "top bits collapse: {}", top.len());
    }

    #[test]
    fn byte_tails_and_lengths_are_distinguished() {
        let mut a = WordHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = WordHasher::default();
        b.write(&[1, 2, 3, 0]);
        assert_ne!(a.finish(), b.finish());
        assert_ne!(hash_of([0u8; 9].as_slice()), hash_of([0u8; 10].as_slice()));
    }
}
