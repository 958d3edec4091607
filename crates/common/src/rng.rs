//! Deterministic pseudo-randomness.
//!
//! Everything stochastic in CrypText — corpus generation, perturbation
//! sampling, train/test splits, the simulated social stream — must be
//! reproducible from a seed so the experiment binaries regenerate the same
//! tables on every run. [`SplitMix64`] is the tiny, allocation-free PRNG used
//! on hot paths; the `rand`-based crates seed `StdRng` from it.

/// SplitMix64: a tiny, fast, well-distributed 64-bit PRNG.
///
/// Suitable for sampling and shuffling, **not** for cryptography. Passes
/// BigCrush when used as a stream; its main virtue here is that it is
/// trivially seedable and has no state beyond a single `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from an explicit seed. Equal seeds yield equal
    /// streams forever.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of entropy.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below requires bound > 0");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform index into a slice of length `len` (`len > 0`).
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Choose a uniformly random element of `items`, or `None` when empty.
    #[inline]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (Floyd's algorithm when
    /// `k < n`, identity when `k >= n`). Output order is unspecified but
    /// deterministic for a given state.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        // Floyd's sampling: O(k) expected probes.
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        let mut seen = std::collections::HashSet::with_capacity(k * 2);
        for j in (n - k)..n {
            let t = self.index(j + 1);
            let pick = if seen.contains(&t) { j } else { t };
            seen.insert(pick);
            chosen.push(pick);
        }
        chosen
    }

    /// Weighted index draw proportional to `weights` (all non-negative, at
    /// least one positive). Returns `None` if the total weight is zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slop: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }

    /// Derive an independent child generator; useful for giving each worker
    /// or document its own stream while keeping global determinism.
    #[inline]
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0xA5A5_A5A5_5A5A_5A5A)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound_and_covers_range() {
        let mut r = SplitMix64::new(9);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = r.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range p is clamped instead of panicking.
        assert!(r.chance(5.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn choose_empty_and_singleton() {
        let mut r = SplitMix64::new(11);
        let empty: [u8; 0] = [];
        assert_eq!(r.choose(&empty), None);
        assert_eq!(r.choose(&[42]), Some(&42));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle changed order");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = SplitMix64::new(13);
        let sample = r.sample_indices(100, 20);
        assert_eq!(sample.len(), 20);
        let set: std::collections::HashSet<_> = sample.iter().collect();
        assert_eq!(set.len(), 20, "indices distinct");
        assert!(sample.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_k_geq_n_returns_all() {
        let mut r = SplitMix64::new(13);
        let sample = r.sample_indices(5, 10);
        assert_eq!(sample, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn weighted_index_skips_zero_weights() {
        let mut r = SplitMix64::new(17);
        for _ in 0..200 {
            let i = r.weighted_index(&[0.0, 1.0, 0.0, 3.0]).unwrap();
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn weighted_index_zero_total_is_none() {
        let mut r = SplitMix64::new(19);
        assert_eq!(r.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(r.weighted_index(&[]), None);
    }

    #[test]
    fn weighted_index_roughly_proportional() {
        let mut r = SplitMix64::new(23);
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            counts[r.weighted_index(&[1.0, 3.0]).unwrap()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio} near 3");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SplitMix64::new(29);
        let mut child = parent.fork();
        let a: Vec<u64> = (0..10).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..10).map(|_| child.next_u64()).collect();
        assert_ne!(a, b);
    }
}
