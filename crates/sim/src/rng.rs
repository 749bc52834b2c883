//! Deterministic pseudo-random number generation.
//!
//! Reproducibility is a contract of this simulator: the same seed must yield
//! bit-identical event streams on every platform and in every release. To
//! guarantee that, the generator is implemented here (SplitMix64 for seeding,
//! xoshiro256★★ for the stream — both public-domain algorithms by Blackman &
//! Vigna) instead of depending on an external crate whose stream could change
//! between versions.

use crate::persist::{bad, Dec, Enc, Persist, Res};
/// SplitMix64: a tiny, high-quality 64-bit mixer used to expand a single
/// `u64` seed into the xoshiro state.
///
/// # Examples
///
/// ```
/// use bcp_sim::rng::SplitMix64;
///
/// let mut sm = SplitMix64::new(0);
/// assert_eq!(sm.next_u64(), 0xe220a8397b1dcdaf);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// xoshiro256★★: the simulator's core generator (period 2²⁵⁶−1).
///
/// Use [`Rng`] for the ergonomic sampling API; this type exposes the raw
/// stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator whose 256-bit state is expanded from `seed` via
    /// SplitMix64 (the construction recommended by the algorithm's authors).
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256StarStar { s }
    }

    /// Creates a generator from an explicit 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros (a fixed point of the generator).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro256** state must be non-zero"
        );
        Xoshiro256StarStar { s }
    }

    /// The raw 256-bit state, for exact checkpointing; feed it back to
    /// [`from_state`](Self::from_state) to resume the stream mid-sequence.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Returns the next 64 random bits.
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

    /// Equivalent to 2¹²⁸ calls to [`next_u64`](Self::next_u64); used to
    /// derive non-overlapping per-node substreams from one run seed.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180ec6d33cfd0aba,
            0xd5a61266f0c9392c,
            0xa9582618e03fc9aa,
            0x39abdc4529b1661c,
        ];
        let mut s = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    s[0] ^= self.s[0];
                    s[1] ^= self.s[1];
                    s[2] ^= self.s[2];
                    s[3] ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = s;
    }
}

/// The simulator-facing random source: a seeded xoshiro256★★ stream with
/// convenience samplers for the distributions the models need.
///
/// # Examples
///
/// ```
/// use bcp_sim::rng::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let x = a.range_u64(10, 20);
/// assert!((10..20).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    inner: Xoshiro256StarStar,
}

impl Rng {
    /// Creates a deterministic generator from a seed.
    pub fn new(seed: u64) -> Self {
        Rng {
            inner: Xoshiro256StarStar::from_seed(seed),
        }
    }

    /// Derives the `index`-th independent substream of this generator.
    ///
    /// Substreams are separated by xoshiro jumps (2¹²⁸ steps apart), so
    /// per-node generators never correlate no matter how long a run is.
    pub fn substream(&self, index: u64) -> Rng {
        let mut inner = self.inner.clone();
        for _ in 0..=index {
            inner.jump();
        }
        Rng { inner }
    }

    /// The raw 256-bit generator state, for exact checkpointing.
    pub fn state(&self) -> [u64; 4] {
        self.inner.state()
    }

    /// Resumes a generator from a state captured by [`state`](Self::state).
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros.
    pub fn from_state(s: [u64; 4]) -> Self {
        Rng {
            inner: Xoshiro256StarStar::from_state(s),
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// A uniform float in `[0, 1)` with 53 random bits of mantissa.
    pub fn f64(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: empty range [{lo}, {hi})");
        // Lemire-style unbiased bounded sampling via rejection.
        let span = hi - lo;
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + v % span;
            }
        }
    }

    /// A uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed value with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential: invalid mean {mean}"
        );
        // Inverse-CDF; 1 - f64() is in (0, 1] so ln() is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite());
        lo + self.f64() * (hi - lo)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

impl Persist for Rng {
    type Ctx = ();
    #[inline]
    fn save(&self, e: &mut Enc) {
        for w in self.state() {
            e.u64(w);
        }
    }
    #[inline]
    fn load(d: &mut Dec<'_>, _: ()) -> Res<Self> {
        let s = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        if s == [0; 4] {
            return Err(bad("all-zero RNG state"));
        }
        Ok(Rng::from_state(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vectors() {
        // Reference sequence for seed 1234567 from the public-domain
        // splitmix64.c test program.
        let mut sm = SplitMix64::new(1234567);
        let expected = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for e in expected {
            assert_eq!(sm.next_u64(), e);
        }
    }

    #[test]
    fn splitmix_zero_seed_first_output() {
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xe220a8397b1dcdaf);
    }

    #[test]
    fn xoshiro_starstar_reference_vectors() {
        // From the xoshiro256** reference implementation with state
        // {1, 2, 3, 4}.
        let mut x = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        let expected = [
            11520u64,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
        ];
        for e in expected {
            assert_eq!(x.next_u64(), e);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn xoshiro_rejects_zero_state() {
        let _ = Xoshiro256StarStar::from_state([0; 4]);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(99);
        let mut b = Rng::new(99);
        for _ in 0..1000 {
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
    fn substreams_are_disjoint_and_deterministic() {
        let root = Rng::new(7);
        let mut s0 = root.substream(0);
        let mut s0b = root.substream(0);
        let mut s1 = root.substream(1);
        assert_eq!(s0.next_u64(), s0b.next_u64());
        // Jumped streams should not collide on the first draws.
        let a: Vec<u64> = (0..8).map(|_| s0.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::new(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_u64_bounds_and_coverage() {
        let mut r = Rng::new(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.range_u64(5, 15);
            assert!((5..15).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should appear");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = Rng::new(13);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::new(17);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(19);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle should permute");
    }
}
