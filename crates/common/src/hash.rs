//! Fast, non-cryptographic hashing for hot paths.
//!
//! The token database performs millions of map probes while curating a
//! corpus; the standard library's SipHash is a measurable bottleneck there
//! (see the performance guide's "Hashing" chapter). This module implements
//! the Fx hash algorithm (the multiply-xor hash used by rustc, public
//! domain) so the workspace does not need an extra dependency.
//!
//! HashDoS is not a concern: every map key in CrypText originates from local
//! corpora or trusted callers, never from a network adversary.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx multiply-xor hasher. Extremely fast for short keys
/// (integers, short strings) at the cost of weaker avalanche behaviour.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8-byte words, then the tail, mixing each chunk.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = 0u64;
            for (i, &b) in tail.iter().enumerate() {
                word |= (b as u64) << (i * 8);
            }
            // Fold the tail length in so "a\0" and "a" differ.
            self.add_to_hash(word ^ ((tail.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Hash an arbitrary byte slice with the Fx algorithm in one call.
#[inline]
pub fn fx_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Hash a string slice with the Fx algorithm in one call.
#[inline]
pub fn fx_hash_str(s: &str) -> u64 {
    fx_hash_bytes(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(fx_hash_str("democrats"), fx_hash_str("democrats"));
        assert_eq!(fx_hash_bytes(b""), fx_hash_bytes(b""));
    }

    #[test]
    fn distinguishes_close_inputs() {
        assert_ne!(fx_hash_str("democrats"), fx_hash_str("demoCRats"));
        assert_ne!(fx_hash_str("a"), fx_hash_str("a\0"));
        assert_ne!(fx_hash_str("ab"), fx_hash_str("ba"));
    }

    #[test]
    fn map_aliases_behave_like_std_maps() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("suic1de".into(), 3);
        m.insert("suicide".into(), 5);
        assert_eq!(m.get("suic1de"), Some(&3));
        assert_eq!(m.len(), 2);

        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000 {
            s.insert(i);
        }
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn long_inputs_use_all_bytes() {
        let a = "x".repeat(1024);
        let mut b = a.clone();
        // Flip one byte in the middle; hash must change.
        b.replace_range(512..513, "y");
        assert_ne!(fx_hash_str(&a), fx_hash_str(&b));
    }

    #[test]
    fn collision_rate_is_sane_on_small_token_universe() {
        // 10k distinct short tokens should produce (almost) 10k distinct
        // hashes; allow a tiny number of collisions.
        let mut hashes = FxHashSet::default();
        let mut n = 0u32;
        for a in b'a'..=b'z' {
            for b in b'a'..=b'z' {
                for c in b'a'..=b'm' {
                    let tok = [a, b, c];
                    hashes.insert(fx_hash_bytes(&tok));
                    n += 1;
                }
            }
        }
        assert!(
            hashes.len() as u32 >= n - 2,
            "{} of {n} unique",
            hashes.len()
        );
    }
}
