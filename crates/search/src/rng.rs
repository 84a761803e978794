//! A tiny deterministic PRNG for victim selection and node-cost jitter.
//!
//! SplitMix64 (Steele, Lea & Flood): one multiply-xorshift round per draw,
//! no external dependency, and — crucially for reproducible experiments —
//! every worker seeds its own stream from the run seed and its worker id.

/// SplitMix64 pseudo-random generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678_9ABC_DEF0,
        }
    }

    /// Per-worker stream: decorrelates workers sharing a run seed.
    pub fn for_worker(seed: u64, worker: usize) -> Self {
        let mut r = SplitMix64::new(seed ^ (worker as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (n > 0).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire's multiply-shift; the modulo bias is irrelevant at our n.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform draw in `0..n` as usize.
    #[inline]
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn worker_streams_differ() {
        let mut w0 = SplitMix64::for_worker(7, 0);
        let mut w1 = SplitMix64::for_worker(7, 1);
        let same = (0..64).filter(|_| w0.next_u64() == w1.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SplitMix64::new(1);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }
}
