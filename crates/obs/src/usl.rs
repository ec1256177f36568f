//! Universal Scalability Law fitting.
//!
//! Gunther's USL models throughput at concurrency `N` as
//!
//! ```text
//! C(N) = λ·N / (1 + σ·(N−1) + κ·N·(N−1))
//! ```
//!
//! where `λ` is the single-unit rate, `σ` the contention (serial-fraction)
//! coefficient and `κ` the coherency (crosstalk) coefficient. `σ` caps the
//! curve at `λ/σ`; `κ` makes it *retrograde* past the knee
//! `N* = √((1−σ)/κ)` — the shape the paper's Figs 7–10 measure and the one
//! a point-throughput gate cannot see.
//!
//! The fitter is a deterministic coarse-to-fine grid search over `(σ, κ)`
//! with the closed-form least-squares `λ` per candidate: with
//! `m_i = N_i / (1 + σ(N_i−1) + κN_i(N_i−1))`, the SSE-minimising rate is
//! `λ* = Σ yᵢmᵢ / Σ mᵢ²`. No external solver, no randomness: the same
//! sweep always fits the same coefficients, which is what lets CI gate on
//! them. Confidence comes from a jackknife (leave-one-out refits).

/// A fitted USL curve with goodness-of-fit and jackknife confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct UslFit {
    /// Single-unit throughput (the `N = 1` rate).
    pub lambda: f64,
    /// Contention coefficient in `[0, 1]`: serialized fraction of work.
    pub sigma: f64,
    /// Coherency coefficient `>= 0`: pairwise-crosstalk cost.
    pub kappa: f64,
    /// Coefficient of determination of the fit.
    pub r2: f64,
    /// Root-mean-square residual, in throughput units.
    pub rmse: f64,
    /// Predicted peak concurrency `√((1−σ)/κ)`; infinite when `κ ≈ 0`.
    pub peak_n: f64,
    /// Jackknife standard error of `σ` (NaN below 4 points).
    pub se_sigma: f64,
    /// Jackknife standard error of `κ` (NaN below 4 points).
    pub se_kappa: f64,
    /// Points the fit used.
    pub n_points: usize,
}

impl UslFit {
    /// Model throughput at concurrency `n`.
    pub fn predict(&self, n: f64) -> f64 {
        usl(self.lambda, self.sigma, self.kappa, n)
    }

    /// Throughput at the predicted knee (the asymptote `λ/σ` when the
    /// curve never bends back).
    pub fn peak_throughput(&self) -> f64 {
        if self.peak_n.is_finite() {
            self.predict(self.peak_n)
        } else if self.sigma > 0.0 {
            self.lambda / self.sigma
        } else {
            f64::INFINITY
        }
    }

    /// Which coefficient shapes the curve: the dominant loss term at the
    /// largest useful concurrency (`N = 8` as a fixed probe point).
    pub fn regime(&self) -> &'static str {
        let n = 8.0;
        let contention = self.sigma * (n - 1.0);
        let coherency = self.kappa * n * (n - 1.0);
        if contention < 0.05 && coherency < 0.05 {
            "near-linear"
        } else if coherency > contention {
            "coherency-limited"
        } else {
            "contention-limited"
        }
    }
}

/// The USL model itself.
pub fn usl(lambda: f64, sigma: f64, kappa: f64, n: f64) -> f64 {
    lambda * n / (1.0 + sigma * (n - 1.0) + kappa * n * (n - 1.0))
}

/// Least-squares-fit the USL to `(N, throughput)` points.
///
/// Needs at least three distinct `N >= 1` values with positive throughput;
/// returns `None` otherwise. Repeated `N` values (multiple trials per load
/// point) are fine and simply weight that point.
pub fn fit_usl(points: &[(f64, f64)]) -> Option<UslFit> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(n, y)| n.is_finite() && y.is_finite() && n >= 1.0 && y > 0.0)
        .collect();
    let mut distinct: Vec<f64> = pts.iter().map(|&(n, _)| n).collect();
    distinct.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    distinct.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    if distinct.len() < 3 {
        return None;
    }

    let (lambda, sigma, kappa, sse) = grid_fit(&pts);
    let n = pts.len();
    let mean_y = pts.iter().map(|&(_, y)| y).sum::<f64>() / n as f64;
    let sst: f64 = pts.iter().map(|&(_, y)| (y - mean_y).powi(2)).sum();
    let r2 = if sst > 0.0 { 1.0 - sse / sst } else { 1.0 };
    let rmse = (sse / n as f64).sqrt();
    let peak_n = if kappa > 1e-12 {
        ((1.0 - sigma).max(0.0) / kappa).sqrt().max(1.0)
    } else {
        f64::INFINITY
    };

    // Jackknife: refit leaving one point out; the spread of the deleted
    // estimates is the standard error. Only meaningful with a point to
    // spare over the minimum.
    let (se_sigma, se_kappa) = if n >= 4 {
        let mut sigmas = Vec::with_capacity(n);
        let mut kappas = Vec::with_capacity(n);
        for skip in 0..n {
            let sub: Vec<(f64, f64)> = pts
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, &p)| p)
                .collect();
            let (_, s, k, _) = grid_fit(&sub);
            sigmas.push(s);
            kappas.push(k);
        }
        (jackknife_se(&sigmas), jackknife_se(&kappas))
    } else {
        (f64::NAN, f64::NAN)
    };

    Some(UslFit {
        lambda,
        sigma,
        kappa,
        r2,
        rmse,
        peak_n,
        se_sigma,
        se_kappa,
        n_points: n,
    })
}

fn jackknife_se(vals: &[f64]) -> f64 {
    let n = vals.len() as f64;
    let mean = vals.iter().sum::<f64>() / n;
    let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>();
    ((n - 1.0) / n * var).sqrt()
}

/// Closed-form λ for fixed (σ, κ): `λ* = Σ yᵢmᵢ / Σ mᵢ²`.
fn lambda_for(pts: &[(f64, f64)], sigma: f64, kappa: f64) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for &(n, y) in pts {
        let m = n / (1.0 + sigma * (n - 1.0) + kappa * n * (n - 1.0));
        num += y * m;
        den += m * m;
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sse_of(pts: &[(f64, f64)], lambda: f64, sigma: f64, kappa: f64) -> f64 {
    pts.iter()
        .map(|&(n, y)| (y - usl(lambda, sigma, kappa, n)).powi(2))
        .sum()
}

/// Coarse 41×41 grid over `(σ ∈ [0,1], κ ∈ [0,1])` to find the basin,
/// then a deterministic pattern search (compass + diagonal moves with
/// halving steps) down to ~1e-9 resolution. The SSE surface is a narrow
/// curved valley in `(σ, κ)` — λ trades off against both — so a
/// shrinking-window grid can fence the optimum out; the pattern search
/// follows the valley instead.
fn grid_fit(pts: &[(f64, f64)]) -> (f64, f64, f64, f64) {
    const STEPS: usize = 40;
    let coarse = 1.0 / STEPS as f64;
    let eval = |sigma: f64, kappa: f64| -> (f64, f64) {
        let lambda = lambda_for(pts, sigma, kappa);
        (lambda, sse_of(pts, lambda, sigma, kappa))
    };
    let mut best = (0.0f64, 0.0f64, f64::INFINITY); // (sigma, kappa, sse)
    for i in 0..=STEPS {
        let sigma = i as f64 * coarse;
        for j in 0..=STEPS {
            let kappa = j as f64 * coarse;
            let (_, e) = eval(sigma, kappa);
            if e < best.2 {
                best = (sigma, kappa, e);
            }
        }
    }
    let (mut s, mut k, mut sse) = best;
    let mut step = coarse;
    const MOVES: [(f64, f64); 8] = [
        (1.0, 0.0),
        (-1.0, 0.0),
        (0.0, 1.0),
        (0.0, -1.0),
        (1.0, 1.0),
        (1.0, -1.0),
        (-1.0, 1.0),
        (-1.0, -1.0),
    ];
    let mut iters = 0usize;
    while step > 1e-9 && iters < 10_000 {
        iters += 1;
        let mut moved = false;
        for &(ds, dk) in &MOVES {
            let s2 = (s + ds * step).clamp(0.0, 1.0);
            let k2 = (k + dk * step).max(0.0);
            let (_, e2) = eval(s2, k2);
            if e2 < sse {
                s = s2;
                k = k2;
                sse = e2;
                moved = true;
            }
        }
        if !moved {
            step *= 0.5;
        }
    }
    let (lambda, sse) = eval(s, k);
    (lambda, s, k, sse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(lambda: f64, sigma: f64, kappa: f64, ns: &[f64]) -> Vec<(f64, f64)> {
        ns.iter()
            .map(|&n| (n, usl(lambda, sigma, kappa, n)))
            .collect()
    }

    #[test]
    fn recovers_exact_curve() {
        let pts = synth(1000.0, 0.08, 0.002, &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
        let fit = fit_usl(&pts).expect("fit");
        assert!((fit.lambda - 1000.0).abs() < 5.0, "lambda {}", fit.lambda);
        assert!((fit.sigma - 0.08).abs() < 0.005, "sigma {}", fit.sigma);
        assert!((fit.kappa - 0.002).abs() < 0.0005, "kappa {}", fit.kappa);
        assert!(fit.r2 > 0.999, "r2 {}", fit.r2);
    }

    #[test]
    fn knee_matches_analytic_peak() {
        let fit = fit_usl(&synth(500.0, 0.1, 0.01, &[1.0, 2.0, 4.0, 8.0, 16.0])).expect("fit");
        let expect = ((1.0 - 0.1f64) / 0.01).sqrt();
        assert!(
            (fit.peak_n - expect).abs() / expect < 0.1,
            "peak_n {} vs {expect}",
            fit.peak_n
        );
    }

    #[test]
    fn linear_curve_fits_zero_coefficients() {
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0]
            .iter()
            .map(|&n| (n, 100.0 * n))
            .collect();
        let fit = fit_usl(&pts).expect("fit");
        assert!(fit.sigma < 0.01, "sigma {}", fit.sigma);
        assert!(fit.kappa < 0.001, "kappa {}", fit.kappa);
        assert!(fit.peak_n.is_infinite() || fit.peak_n > 100.0);
        assert_eq!(fit.regime(), "near-linear");
    }

    #[test]
    fn too_few_distinct_points_refuse() {
        assert!(fit_usl(&[]).is_none());
        assert!(fit_usl(&[(1.0, 10.0), (2.0, 18.0)]).is_none());
        // Repeats of two N values are still two distinct points.
        assert!(fit_usl(&[(1.0, 10.0), (1.0, 11.0), (2.0, 18.0), (2.0, 19.0)]).is_none());
        // Junk points are ignored entirely.
        assert!(fit_usl(&[(0.0, 10.0), (1.0, -5.0), (f64::NAN, 3.0)]).is_none());
    }

    #[test]
    fn jackknife_se_small_on_clean_data() {
        let fit =
            fit_usl(&synth(800.0, 0.15, 0.004, &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0])).expect("fit");
        assert!(fit.se_sigma.is_finite());
        assert!(fit.se_sigma < 0.02, "se_sigma {}", fit.se_sigma);
        assert!(fit.se_kappa < 0.002, "se_kappa {}", fit.se_kappa);
    }

    #[test]
    fn three_points_fit_without_jackknife() {
        let fit = fit_usl(&synth(100.0, 0.2, 0.0, &[1.0, 2.0, 4.0])).expect("fit");
        assert!(fit.se_sigma.is_nan());
        assert!((fit.sigma - 0.2).abs() < 0.02);
    }

    #[test]
    fn retrograde_curve_classified_coherency_limited() {
        // Heavy crosstalk: throughput falls past N=4.
        let fit = fit_usl(&synth(200.0, 0.02, 0.06, &[1.0, 2.0, 4.0, 8.0, 16.0])).expect("fit");
        assert_eq!(fit.regime(), "coherency-limited");
        assert!(fit.peak_n < 8.0, "peak {}", fit.peak_n);
    }
}
