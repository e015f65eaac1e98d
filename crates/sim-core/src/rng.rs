//! Deterministic random numbers and the sampling distributions used by
//! the workload generator.
//!
//! The simulation must be exactly reproducible from a seed, so we use a
//! self-contained xoshiro256** generator (seeded via SplitMix64) instead
//! of relying on the stability of any external crate's algorithm choice.
//!
//! Besides the raw generator, this module provides the distributions the
//! evaluation needs:
//!
//! - [`SimRng::gen_range`] — uniform integers, used by Filebench-style
//!   uniform file selection (§6.1.1);
//! - [`CdfSampler`] — sampling from an arbitrary discrete distribution
//!   via a precomputed CDF, used for the skewed Microsoft-trace file
//!   access distributions (Figure 1);
//! - [`zipf_weights`] — the Zipf-like weights used to synthesize those
//!   skewed distributions;
//! - [`SimRng::lognormal`] — file-size sampling for the file set.

/// A deterministic pseudo-random generator (xoshiro256**).
///
/// The four xoshiro words are the complete generator state: two equal
/// generators produce identical future streams.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed. Any seed, including zero, yields
    /// a well-distributed state via SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
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

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range: empty range [{lo}, {hi})");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire). The rejection loop terminates
        // quickly for any span.
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (span as u128);
            if (m as u64) >= threshold {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by shifting u1 away from zero.
        let u1 = (self.next_u64() >> 11) as f64 + 1.0;
        let u1 = u1 * (1.0 / (1u64 << 53) as f64);
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal sample with the given log-space mean and deviation.
    ///
    /// File sizes in Filebench-style file sets follow a log-normal-like
    /// distribution; the workload crate uses this to populate the 50 GB
    /// file set of §6.1.3.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf-like weights over `n` items with exponent `s`:
/// `w[i] = 1 / (i + 1)^s`.
///
/// `s = 0` degenerates to uniform; larger `s` concentrates accesses on
/// the first items. The Microsoft Production Build Server trace shapes in
/// Figure 1 are synthesized from these weights (see `workloads::mstrace`).
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect()
}

/// Samples indices from an arbitrary discrete distribution given by
/// non-negative weights, via binary search over the cumulative sum.
///
/// # Examples
///
/// ```
/// use sim_core::rng::{CdfSampler, SimRng};
///
/// let sampler = CdfSampler::new(&[1.0, 0.0, 3.0]);
/// let mut rng = SimRng::new(7);
/// let idx = sampler.sample(&mut rng);
/// assert!(idx == 0 || idx == 2); // index 1 has zero weight
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CdfSampler {
    cdf: Vec<f64>,
    total: f64,
}

impl CdfSampler {
    /// Builds a sampler from weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "CdfSampler: no weights");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "CdfSampler: bad weight {w}");
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "CdfSampler: zero total weight");
        CdfSampler { cdf, total: acc }
    }

    /// Number of items in the distribution.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the sampler has no items (never true for a
    /// constructed sampler; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let x = rng.gen_f64() * self.total;
        // partition_point returns the first index with cdf[i] > x.
        let i = self.cdf.partition_point(|&c| c <= x);
        i.min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(43);
        assert_ne!(SimRng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(10, 20);
            assert!((10..20).contains(&x));
        }
        // Single-element range.
        assert_eq!(rng.gen_range(5, 6), 5);
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = SimRng::new(2);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.gen_range(0, 10) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket should hold ~10% ± 1% of samples.
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = SimRng::new(4);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = SimRng::new(5);
        for _ in 0..1_000 {
            assert!(rng.lognormal(10.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn zipf_weights_decrease() {
        let w = zipf_weights(100, 1.0);
        assert_eq!(w.len(), 100);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        // s = 0 is uniform.
        let u = zipf_weights(10, 0.0);
        assert!(u.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn cdf_sampler_respects_weights() {
        let sampler = CdfSampler::new(&[8.0, 0.0, 2.0]);
        let mut rng = SimRng::new(6);
        let mut counts = [0u32; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight item sampled");
        let frac0 = counts[0] as f64 / n as f64;
        assert!((frac0 - 0.8).abs() < 0.01, "frac0 {frac0}");
    }

    #[test]
    #[should_panic(expected = "zero total weight")]
    fn cdf_sampler_rejects_all_zero() {
        let _ = CdfSampler::new(&[0.0, 0.0]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(7);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<u32>>(),
            "shuffle left input unchanged"
        );
    }
}
