//! Deterministic pseudo-random number generation for simulations.
//!
//! Every experiment in this workspace must be bit-reproducible from a single
//! `u64` seed, so we implement the generators ourselves instead of pulling in
//! `rand`: a [`SplitMix64`] seeder/stream-splitter and a [`Xoshiro256StarStar`]
//! workhorse generator (Blackman & Vigna, 2018). Both are tiny, fast, and
//! pass BigCrush-class test batteries, which is far more statistical quality
//! than a capacity-planning simulation needs.
//!
//! The key facility for reproducibility under model changes is *stream
//! splitting*: [`Rng::split`] derives an independent child generator, so each
//! simulated client/connection can own a private stream. Adding a new random
//! draw in one component then never perturbs the draws seen by another.

/// SplitMix64: a tiny 64-bit generator used to seed other generators and to
/// derive independent streams. One multiplication-free state increment per
/// draw with a strong output mix.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Produce the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the workspace's workhorse generator.
///
/// 256 bits of state, period 2^256 − 1, equidistributed in 4 dimensions.
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed via SplitMix64 as recommended by the authors (avoids the all-zero
    /// state and decorrelates nearby seeds).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // The all-zero state is the one fixed point; SplitMix64 cannot emit
        // four consecutive zeros, but be defensive anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x1;
        }
        Xoshiro256StarStar { s }
    }

    /// Produce the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The simulation RNG handle: an owned xoshiro256** stream with convenience
/// samplers for the primitive draws every model layer needs. Distribution
/// shapes (Pareto, lognormal, Zipf, …) live in the `workload` crate and take
/// `&mut Rng`.
#[derive(Debug, Clone)]
pub struct Rng {
    inner: Xoshiro256StarStar,
    split_seq: u64,
    seed: u64,
}

impl Rng {
    /// Create the root stream for a simulation run.
    pub fn new(seed: u64) -> Self {
        Rng {
            inner: Xoshiro256StarStar::new(seed),
            split_seq: 0,
            seed,
        }
    }

    /// The seed this stream (root or child) was created from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream.
    ///
    /// Children are keyed by (parent seed, split counter) through SplitMix64,
    /// so the k-th split of a given parent is stable across runs regardless
    /// of how many values the parent has drawn in between.
    pub fn split(&mut self) -> Rng {
        self.split_seq += 1;
        let mut mix = SplitMix64::new(self.seed ^ 0xA076_1D64_78BD_642F);
        // Fold the split counter in via two rounds for avalanche.
        let mut child_seed = mix.next_u64() ^ self.split_seq.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        child_seed ^= child_seed >> 32;
        Rng {
            inner: Xoshiro256StarStar::new(child_seed),
            split_seq: 0,
            seed: child_seed,
        }
    }

    /// Derive a child stream keyed by an explicit label instead of a counter.
    /// Useful when entities are created in model-dependent order but must
    /// keep stable streams (e.g. "client #42").
    pub fn split_labeled(&self, label: u64) -> Rng {
        let mut mix =
            SplitMix64::new(self.seed.rotate_left(17) ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let child_seed = mix.next_u64();
        Rng {
            inner: Xoshiro256StarStar::new(child_seed),
            split_seq: 0,
            seed: child_seed,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform double in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform double in `(0, 1]`; safe to feed into `ln()`.
    #[inline]
    pub fn f64_open_left(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "Rng::range_inclusive: lo > hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw with probability `p` of returning true.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        let n = xs.len() as u64;
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            xs.swap(i as usize, j as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c implementation.
        let mut sm = SplitMix64::new(1234567);
        let v: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(v[0], 6457827717110365317);
        assert_eq!(v[1], 3203168211198807973);
        assert_eq!(v[2], 9817491932198370423);
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.f64_open_left();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Rng::new(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let x = r.below(10);
            assert!(x < 10);
            counts[x as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "Rng::below(0)")]
    fn below_zero_panics() {
        Rng::new(0).below(0);
    }

    #[test]
    fn range_inclusive_endpoints_reachable() {
        let mut r = Rng::new(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match r.range_inclusive(3, 5) {
                3 => saw_lo = true,
                5 => saw_hi = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn splits_are_independent_of_parent_consumption() {
        // The k-th split must be identical whether or not the parent drew
        // values in between.
        let mut a = Rng::new(11);
        let mut b = Rng::new(11);
        for _ in 0..57 {
            b.next_u64();
        }
        let mut ca = a.split();
        let mut cb = b.split();
        for _ in 0..32 {
            assert_eq!(ca.next_u64(), cb.next_u64());
        }
    }

    #[test]
    fn successive_splits_differ() {
        let mut root = Rng::new(12);
        let mut c1 = root.split();
        let mut c2 = root.split();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn labeled_splits_are_stable_and_distinct() {
        let root = Rng::new(77);
        let mut a1 = root.split_labeled(42);
        let mut a2 = root.split_labeled(42);
        let mut b = root.split_labeled(43);
        assert_eq!(a1.next_u64(), a2.next_u64());
        let same = (0..64).filter(|_| a1.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(8);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(21);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // And with overwhelming probability not the identity.
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }
}
