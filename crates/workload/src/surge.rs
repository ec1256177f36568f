//! The SURGE-derived static content model.
//!
//! The paper drives Httperf with "the workload distribution ... extracted
//! from the Surge workload generator" (Barford & Crovella 1998): reply sizes
//! follow a hybrid lognormal-body/Pareto-tail distribution and request
//! popularity follows Zipf's law, with popular files biased toward small
//! sizes. [`FileSet`] materialises one such virtual document tree; both the
//! simulated and the real servers serve requests drawn from it.

use crate::dist::{BoundedPareto, Distribution, LogNormal, Zipf};
use desim::Rng;

/// Identifier of a file in a [`FileSet`] (its popularity rank: 0 = hottest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Parameters of the SURGE content model. Defaults follow Barford &
/// Crovella's published fits, with the Pareto size tail bounded so a single
/// draw cannot exceed `tail_cap` bytes (the unbounded α=1.1 tail has
/// infinite mean, which no 2 GB-RAM 2004 server could hold anyway).
#[derive(Debug, Clone)]
pub struct SurgeConfig {
    /// Number of distinct files on the server.
    pub num_files: usize,
    /// Lognormal μ for the size body (ln bytes). SURGE: 9.357.
    pub body_mu: f64,
    /// Lognormal σ for the size body. SURGE: 1.318.
    pub body_sigma: f64,
    /// Probability a file's size is drawn from the Pareto tail. SURGE: 0.07.
    pub tail_prob: f64,
    /// Pareto tail scale (bytes). SURGE: 133 KB.
    pub tail_k: f64,
    /// Pareto tail shape. SURGE: 1.1.
    pub tail_alpha: f64,
    /// Upper bound applied to the tail (bytes).
    pub tail_cap: f64,
    /// Zipf exponent for popularity. SURGE: 1.0.
    pub zipf_s: f64,
    /// Bias popular files toward small sizes (SURGE's size-popularity
    /// matching). When false, sizes are assigned to ranks at random.
    pub correlate_popularity_with_size: bool,
    /// Minimum file size in bytes (an empty HTML page still has bytes).
    pub min_bytes: u64,
}

impl Default for SurgeConfig {
    fn default() -> Self {
        SurgeConfig {
            num_files: 2000,
            body_mu: 9.357,
            body_sigma: 1.318,
            tail_prob: 0.07,
            tail_k: 133_000.0,
            tail_alpha: 1.1,
            tail_cap: 1_000_000.0,
            zipf_s: 1.0,
            correlate_popularity_with_size: true,
            min_bytes: 128,
        }
    }
}

/// A materialised server document tree: per-rank file sizes plus the Zipf
/// popularity law over ranks.
#[derive(Debug, Clone)]
pub struct FileSet {
    sizes: Vec<u64>,
    popularity: Zipf,
}

impl FileSet {
    /// Build a file set from the config, deterministically from `rng`.
    pub fn build(cfg: &SurgeConfig, rng: &mut Rng) -> FileSet {
        assert!(cfg.num_files > 0, "empty file set");
        assert!((0.0..=1.0).contains(&cfg.tail_prob));
        let body = LogNormal::new(cfg.body_mu, cfg.body_sigma);
        let tail = BoundedPareto::new(cfg.tail_k, cfg.tail_cap, cfg.tail_alpha);
        let mut sizes: Vec<u64> = (0..cfg.num_files)
            .map(|_| {
                let raw = if rng.chance(cfg.tail_prob) {
                    tail.sample(rng)
                } else {
                    body.sample(rng)
                };
                // `tail_cap` bounds every file: the rare lognormal draw
                // beyond it is clamped too (the server hosts nothing bigger).
                (raw.min(cfg.tail_cap) as u64).max(cfg.min_bytes)
            })
            .collect();
        if cfg.correlate_popularity_with_size {
            // SURGE matches popularity to size: hot files tend small. Sort
            // ascending, then add locality noise by shuffling within small
            // windows so the correlation is strong but not a hard rule.
            sizes.sort_unstable();
            let window = (cfg.num_files / 20).max(2);
            let mut i = 0;
            while i < sizes.len() {
                let end = (i + window).min(sizes.len());
                rng.shuffle(&mut sizes[i..end]);
                i = end;
            }
        } else {
            rng.shuffle(&mut sizes);
        }
        FileSet {
            sizes,
            popularity: Zipf::new(cfg.num_files, cfg.zipf_s),
        }
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// True when the set holds no files (never, post-build).
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Size in bytes of a file.
    pub fn size_of(&self, id: FileId) -> u64 {
        self.sizes[id.0 as usize]
    }

    /// Draw a request target by popularity.
    pub fn sample(&self, rng: &mut Rng) -> FileId {
        FileId(self.popularity.sample_rank(rng) as u32)
    }

    /// Exact expected bytes per request under the popularity law:
    /// Σ_r pmf(r) · size(r). This is what capacity math should use, not the
    /// unweighted mean file size.
    pub fn mean_request_bytes(&self) -> f64 {
        self.sizes
            .iter()
            .enumerate()
            .map(|(r, &s)| self.popularity.pmf(r) * s as f64)
            .sum()
    }

    /// Unweighted mean file size in bytes.
    pub fn mean_file_bytes(&self) -> f64 {
        self.sizes.iter().map(|&s| s as f64).sum::<f64>() / self.sizes.len() as f64
    }

    /// Iterate over `(id, size)` pairs — used by the real servers to
    /// materialise content.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, u64)> + '_ {
        self.sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (FileId(i as u32), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_default(seed: u64) -> FileSet {
        let mut rng = Rng::new(seed);
        FileSet::build(&SurgeConfig::default(), &mut rng)
    }

    #[test]
    fn build_is_deterministic() {
        let a = build_default(42);
        let b = build_default(42);
        assert_eq!(a.sizes, b.sizes);
    }

    #[test]
    fn sizes_respect_floor_and_cap() {
        let cfg = SurgeConfig::default();
        let fs = build_default(7);
        for (_, s) in fs.iter() {
            assert!(s >= cfg.min_bytes);
            assert!(s as f64 <= cfg.tail_cap * 1.01);
        }
    }

    #[test]
    fn popularity_correlates_with_small_sizes() {
        let fs = build_default(3);
        let n = fs.len();
        let head: f64 = (0..n / 10)
            .map(|i| fs.size_of(FileId(i as u32)) as f64)
            .sum::<f64>()
            / (n / 10) as f64;
        let tail: f64 = (9 * n / 10..n)
            .map(|i| fs.size_of(FileId(i as u32)) as f64)
            .sum::<f64>()
            / (n - 9 * n / 10) as f64;
        assert!(
            head * 10.0 < tail,
            "hot files should be far smaller: head {head}, tail {tail}"
        );
    }

    #[test]
    fn mean_request_bytes_below_mean_file_bytes_when_correlated() {
        let fs = build_default(11);
        assert!(
            fs.mean_request_bytes() < fs.mean_file_bytes() / 2.0,
            "popularity-size matching should shrink per-request bytes: {} vs {}",
            fs.mean_request_bytes(),
            fs.mean_file_bytes()
        );
    }

    #[test]
    fn uncorrelated_request_mean_tracks_file_mean() {
        let cfg = SurgeConfig {
            correlate_popularity_with_size: false,
            zipf_s: 0.0001, // near-uniform popularity
            ..SurgeConfig::default()
        };
        let mut rng = Rng::new(5);
        let fs = FileSet::build(&cfg, &mut rng);
        let ratio = fs.mean_request_bytes() / fs.mean_file_bytes();
        assert!((ratio - 1.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn sample_prefers_low_ranks() {
        let fs = build_default(9);
        let mut rng = Rng::new(100);
        let n = 50_000;
        let hot = (0..n)
            .filter(|_| fs.sample(&mut rng).0 < (fs.len() / 10) as u32)
            .count();
        // Under Zipf(s=1) over 2000 files, the top 10% carries ~70% of mass.
        assert!(hot as f64 / n as f64 > 0.5, "top decile only got {hot}/{n}");
    }

    #[test]
    fn surge_mean_request_size_is_web_plausible() {
        // The whole study hinges on replies being "non-uniform" but web-like:
        // tens of KB on average, not megabytes.
        let fs = build_default(13);
        let m = fs.mean_request_bytes();
        assert!(
            (1_000.0..60_000.0).contains(&m),
            "mean request bytes {m} not web-plausible"
        );
    }

    #[test]
    #[should_panic(expected = "empty file set")]
    fn zero_files_panics() {
        let cfg = SurgeConfig {
            num_files: 0,
            ..SurgeConfig::default()
        };
        FileSet::build(&cfg, &mut Rng::new(0));
    }
}
