//! Continuous and discrete distributions used by the SURGE workload model.
//!
//! All samplers are implemented from first principles (inverse-CDF or
//! Box–Muller) over the deterministic `desim::Rng`, so workloads are
//! bit-reproducible. Each distribution documents the parameterisation used
//! by Barford & Crovella's SURGE paper where applicable.

use desim::Rng;

/// A real-valued distribution sampleable from the simulation RNG.
pub trait Distribution {
    /// Draw one sample.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// The theoretical mean, if finite and known in closed form.
    fn mean(&self) -> Option<f64>;
}

/// Degenerate distribution: always `value`.
#[derive(Debug, Clone, Copy)]
pub struct Constant(pub f64);

impl Distribution for Constant {
    fn sample(&self, _rng: &mut Rng) -> f64 {
        self.0
    }
    fn mean(&self) -> Option<f64> {
        Some(self.0)
    }
}

/// Uniform over `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
pub struct Uniform {
    pub lo: f64,
    pub hi: f64,
}

impl Uniform {
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "Uniform: lo > hi");
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.f64()
    }
    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
}

/// Exponential with rate `lambda` (mean `1/lambda`), via inverse CDF.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    pub lambda: f64,
}

impl Exponential {
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0);
        Exponential { lambda: 1.0 / mean }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        -rng.f64_open_left().ln() / self.lambda
    }
    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.lambda)
    }
}

/// Pareto with scale `k` (minimum value) and shape `alpha`.
///
/// SURGE uses Pareto for the heavy tail of file sizes (α≈1.1) and for OFF
/// times / think times (α≈1.4–1.5). The mean is infinite for α ≤ 1.
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    pub k: f64,
    pub alpha: f64,
}

impl Pareto {
    pub fn new(k: f64, alpha: f64) -> Self {
        assert!(k > 0.0 && alpha > 0.0);
        Pareto { k, alpha }
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF: k / U^(1/alpha) with U in (0,1].
        self.k / rng.f64_open_left().powf(1.0 / self.alpha)
    }
    fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| self.alpha * self.k / (self.alpha - 1.0))
    }
}

/// Pareto truncated to `[k, cap]` by resampling the CDF over the truncated
/// support (exact, no rejection loop). Keeps think-time tails heavy without
/// letting a single sample exceed e.g. the benchmark duration.
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    pub k: f64,
    pub cap: f64,
    pub alpha: f64,
}

impl BoundedPareto {
    pub fn new(k: f64, cap: f64, alpha: f64) -> Self {
        assert!(k > 0.0 && cap > k && alpha > 0.0);
        BoundedPareto { k, cap, alpha }
    }
}

impl Distribution for BoundedPareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF of the truncated Pareto:
        // F(x) = (1 - (k/x)^a) / (1 - (k/cap)^a)
        let a = self.alpha;
        let kc = (self.k / self.cap).powf(a);
        let u = rng.f64() * (1.0 - kc);
        self.k / (1.0 - u).powf(1.0 / a)
    }
    fn mean(&self) -> Option<f64> {
        let a = self.alpha;
        let (k, c) = (self.k, self.cap);
        if (a - 1.0).abs() < 1e-12 {
            // α = 1 limit: k * ln(c/k) / (1 - k/c)
            Some(k * (c / k).ln() / (1.0 - k / c))
        } else {
            let kc = (k / c).powf(a);
            Some((a * k / (a - 1.0)) * (1.0 - (k / c).powf(a - 1.0)) / (1.0 - kc))
        }
    }
}

/// Lognormal: `exp(N(mu, sigma))`, sampled via Box–Muller.
///
/// SURGE models the body of the file-size distribution as lognormal with
/// μ = 9.357, σ = 1.318 (sizes in bytes).
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    pub mu: f64,
    pub sigma: f64,
}

impl LogNormal {
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0);
        LogNormal { mu, sigma }
    }

    /// Standard normal draw via Box–Muller (one of the pair; we discard the
    /// spare to stay stateless and deterministic per call order).
    fn standard_normal(rng: &mut Rng) -> f64 {
        let u1 = rng.f64_open_left();
        let u2 = rng.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }
    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }
}

/// Weibull with shape `k` and scale `lambda`, via inverse CDF.
///
/// SURGE uses Weibull for active OFF times (within-session gaps).
#[derive(Debug, Clone, Copy)]
pub struct Weibull {
    pub shape: f64,
    pub scale: f64,
}

impl Weibull {
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && scale > 0.0);
        Weibull { shape, scale }
    }
}

impl Distribution for Weibull {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.scale * (-rng.f64_open_left().ln()).powf(1.0 / self.shape)
    }
    fn mean(&self) -> Option<f64> {
        // λ Γ(1 + 1/k)
        Some(self.scale * gamma(1.0 + 1.0 / self.shape))
    }
}

/// Lanczos approximation of the gamma function (g = 7, n = 9), accurate to
/// ~1e-13 over the range we use — plenty for moment checks in tests.
pub fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// Zipf over ranks `1..=n` with exponent `s`: P(rank = r) ∝ r^-s.
///
/// Sampling uses a precomputed CDF table with binary search — O(log n) per
/// draw, exact, and cheap to build once per file set.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against FP drift: the last entry must be exactly 1.
        *cdf.last_mut().unwrap() = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw a 0-based rank (0 is the most popular).
    pub fn sample_rank(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        // partition_point returns the count of entries < u ⇒ first index
        // with cdf[i] >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of a 0-based rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        let hi = self.cdf[rank];
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean<D: Distribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Constant(42.0);
        let mut rng = Rng::new(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 42.0);
        }
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let d = Uniform::new(10.0, 20.0);
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((10.0..20.0).contains(&x));
        }
        let m = sample_mean(&d, 100_000, 2);
        assert!((m - 15.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::with_mean(3.0);
        let m = sample_mean(&d, 200_000, 3);
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
        assert_eq!(d.mean(), Some(3.0));
    }

    #[test]
    fn pareto_bounds_and_mean() {
        let d = Pareto::new(2.0, 2.5);
        let mut rng = Rng::new(4);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 2.0);
        }
        // mean = αk/(α-1) = 2.5*2/1.5 = 10/3
        let expect = 10.0 / 3.0;
        let m = sample_mean(&d, 400_000, 5);
        assert!((m - expect).abs() / expect < 0.05, "mean {m} vs {expect}");
        assert!(Pareto::new(1.0, 0.9).mean().is_none());
    }

    #[test]
    fn bounded_pareto_support_and_mean() {
        let d = BoundedPareto::new(1.0, 100.0, 1.4);
        let mut rng = Rng::new(6);
        for _ in 0..20_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=100.0).contains(&x), "{x}");
        }
        let expect = d.mean().unwrap();
        let m = sample_mean(&d, 400_000, 7);
        assert!((m - expect).abs() / expect < 0.03, "mean {m} vs {expect}");
    }

    #[test]
    fn bounded_pareto_alpha_one_mean_is_log_limit() {
        let d = BoundedPareto::new(2.0, 200.0, 1.0);
        let expect = d.mean().unwrap();
        // k ln(c/k) / (1 - k/c) = 2 ln(100)/(0.99)
        let closed = 2.0 * (100.0f64).ln() / 0.99;
        assert!((expect - closed).abs() < 1e-9);
        let m = sample_mean(&d, 400_000, 8);
        assert!((m - expect).abs() / expect < 0.05, "mean {m} vs {expect}");
    }

    #[test]
    fn lognormal_mean_matches_closed_form() {
        let d = LogNormal::new(1.0, 0.5);
        let expect = d.mean().unwrap();
        let m = sample_mean(&d, 400_000, 9);
        assert!((m - expect).abs() / expect < 0.02, "mean {m} vs {expect}");
    }

    #[test]
    fn lognormal_surge_body_median() {
        // Median of lognormal is exp(mu): SURGE's 9.357 ⇒ ~11.6 KB median.
        let d = LogNormal::new(9.357, 1.318);
        let mut rng = Rng::new(10);
        let mut xs: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[50_000];
        let expect = 9.357f64.exp();
        assert!((median - expect).abs() / expect < 0.05, "median {median}");
    }

    #[test]
    fn weibull_mean() {
        let d = Weibull::new(1.46, 0.382);
        let expect = d.mean().unwrap();
        let m = sample_mean(&d, 400_000, 11);
        assert!((m - expect).abs() / expect < 0.02, "mean {m} vs {expect}");
    }

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn zipf_rank_frequencies() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(12);
        let mut counts = vec![0u32; 100];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample_rank(&mut rng)] += 1;
        }
        // Rank 0 should be about twice as frequent as rank 1, 3x rank 2.
        let f0 = counts[0] as f64;
        assert!((f0 / counts[1] as f64 - 2.0).abs() < 0.15);
        assert!((f0 / counts[2] as f64 - 3.0).abs() < 0.25);
        // Every observed frequency should be near its pmf.
        for r in [0usize, 5, 50, 99] {
            let obs = counts[r] as f64 / n as f64;
            let exp = z.pmf(r);
            assert!(
                (obs - exp).abs() < 0.01 + exp * 0.2,
                "rank {r}: obs {obs}, exp {exp}"
            );
        }
    }

    #[test]
    fn zipf_single_element() {
        let z = Zipf::new(1, 1.2);
        let mut rng = Rng::new(13);
        for _ in 0..100 {
            assert_eq!(z.sample_rank(&mut rng), 0);
        }
        assert_eq!(z.pmf(0), 1.0);
    }

    #[test]
    fn samplers_are_deterministic() {
        let d = LogNormal::new(9.357, 1.318);
        let mut a = Rng::new(99);
        let mut b = Rng::new(99);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    #[test]
    fn pareto_mean_is_infinite_at_or_below_alpha_one() {
        assert_eq!(Pareto::new(1.0, 1.0).mean(), None);
        assert_eq!(Pareto::new(1.0, 0.8).mean(), None);
        let m = Pareto::new(2.0, 3.0).mean().expect("finite for alpha > 1");
        assert!((m - 3.0).abs() < 1e-12, "{m}");
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_decreases() {
        let z = Zipf::new(50, 0.9);
        assert_eq!(z.n(), 50);
        let total: f64 = (0..z.n()).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        for r in 1..z.n() {
            assert!(z.pmf(r) < z.pmf(r - 1), "rank {r}");
        }
    }

    #[test]
    fn exponential_samples_are_positive() {
        let d = Exponential::with_mean(0.25);
        assert_eq!(d.mean(), Some(0.25));
        let mut rng = Rng::new(5);
        assert!((0..10_000).all(|_| d.sample(&mut rng) > 0.0));
    }

    #[test]
    #[should_panic(expected = "Zipf over empty support")]
    fn zipf_rejects_empty_support() {
        Zipf::new(0, 1.0);
    }
}
