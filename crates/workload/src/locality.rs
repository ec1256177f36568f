//! Temporal locality: SURGE's stack-distance request reordering.
//!
//! Zipf popularity fixes *how often* each file is requested but not *when*:
//! real traces show temporal locality — a requested document is likely to be
//! requested again soon. SURGE models this with an LRU stack: the next
//! request's position in the stack of recently-used documents follows a
//! heavy-body distribution (we use a lognormal over stack distance, as in
//! Barford & Crovella's analysis), so most requests hit documents near the
//! top.
//!
//! The simulated servers don't cache (the paper's SUT served everything
//! from RAM), so locality doesn't change the paper's figures — but the
//! generator is part of faithful SURGE, it matters the moment anyone adds a
//! cache to the model, and the live content store benefits from the
//! realistic reference stream when profiling.

use crate::dist::{Distribution, LogNormal};
use crate::surge::{FileId, FileSet};
use desim::Rng;

/// Stack-distance request generator over a [`FileSet`].
#[derive(Debug, Clone)]
pub struct LocalityModel {
    /// LRU stack: most recently used at index 0. Holds every file id once.
    stack: Vec<FileId>,
    /// Stack-distance law (values ≥ 0; beyond the stack end we fall back to
    /// popularity sampling, which also refreshes the tail).
    distance: LogNormal,
    /// Probability of bypassing the stack entirely with a fresh popularity
    /// draw (keeps long-run frequencies anchored to the Zipf law).
    refresh_prob: f64,
}

impl LocalityModel {
    /// Default parameterisation: median stack distance ~e^1.5 ≈ 4.5
    /// documents, σ = 1.8 (a heavy spread), 30% popularity refreshes.
    pub fn new(files: &FileSet) -> LocalityModel {
        LocalityModel::with_params(files, 1.5, 1.8, 0.3)
    }

    /// Explicit parameters (lognormal μ/σ over stack distance, refresh
    /// probability toward pure popularity sampling).
    pub fn with_params(files: &FileSet, mu: f64, sigma: f64, refresh_prob: f64) -> LocalityModel {
        assert!((0.0..=1.0).contains(&refresh_prob));
        LocalityModel {
            // Initialise the stack in popularity order: rank 0 on top.
            stack: (0..files.len() as u32).map(FileId).collect(),
            distance: LogNormal::new(mu, sigma),
            refresh_prob,
        }
    }

    /// Number of documents tracked.
    pub fn len(&self) -> usize {
        self.stack.len()
    }

    /// True when the underlying file set was empty (never, post-build).
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// Draw the next request and update the LRU stack.
    pub fn sample(&mut self, files: &FileSet, rng: &mut Rng) -> FileId {
        let id = if rng.chance(self.refresh_prob) {
            files.sample(rng)
        } else {
            let d = self.distance.sample(rng) as usize;
            if d < self.stack.len() {
                self.stack[d]
            } else {
                files.sample(rng)
            }
        };
        self.touch(id);
        id
    }

    /// Move `id` to the top of the stack.
    fn touch(&mut self, id: FileId) {
        // Stack distance draws are small, so the scan is short in the hot
        // case; the popularity fallback pays a full scan rarely.
        if let Some(pos) = self.stack.iter().position(|&f| f == id) {
            let f = self.stack.remove(pos);
            self.stack.insert(0, f);
        }
    }

    /// Current stack position of a file (0 = most recent), if tracked.
    pub fn position(&self, id: FileId) -> Option<usize> {
        self.stack.iter().position(|&f| f == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surge::SurgeConfig;

    fn fileset(seed: u64) -> FileSet {
        let mut rng = Rng::new(seed);
        FileSet::build(
            &SurgeConfig {
                num_files: 300,
                ..SurgeConfig::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn sampled_ids_are_valid_and_stack_updates() {
        let files = fileset(1);
        let mut m = LocalityModel::new(&files);
        let mut rng = Rng::new(2);
        for _ in 0..1000 {
            let id = m.sample(&files, &mut rng);
            assert!((id.0 as usize) < files.len());
            assert_eq!(m.position(id), Some(0), "sampled doc must be on top");
        }
        assert_eq!(m.len(), files.len());
    }

    #[test]
    fn locality_raises_short_term_reuse() {
        // Measure the fraction of requests that repeat one of the previous
        // 8 requests: the locality stream must beat the IID Zipf stream.
        let files = fileset(3);
        let window = 8;
        let n = 30_000;

        let reuse = |ids: &[FileId]| -> f64 {
            let mut hits = 0;
            for i in window..ids.len() {
                if ids[i - window..i].contains(&ids[i]) {
                    hits += 1;
                }
            }
            hits as f64 / (ids.len() - window) as f64
        };

        let mut rng = Rng::new(4);
        let iid: Vec<FileId> = (0..n).map(|_| files.sample(&mut rng)).collect();

        let mut m = LocalityModel::new(&files);
        let mut rng2 = Rng::new(4);
        let local: Vec<FileId> = (0..n).map(|_| m.sample(&files, &mut rng2)).collect();

        let (r_iid, r_local) = (reuse(&iid), reuse(&local));
        assert!(
            r_local > r_iid * 1.5,
            "locality should raise short-term reuse: iid {r_iid:.3} vs local {r_local:.3}"
        );
    }

    #[test]
    fn refresh_prob_one_degenerates_to_popularity() {
        let files = fileset(5);
        let mut m = LocalityModel::with_params(&files, 1.5, 1.8, 1.0);
        let mut rng_a = Rng::new(6);
        let mut rng_b = Rng::new(6);
        for _ in 0..200 {
            // With refresh_prob = 1 every draw consumes one chance() and one
            // popularity sample, identical to files.sample on a synced RNG.
            assert!(rng_b.chance(1.0));
            let expect = files.sample(&mut rng_b);
            assert_eq!(m.sample(&files, &mut rng_a), expect);
        }
    }

    #[test]
    fn long_run_frequencies_still_favor_popular_files() {
        let files = fileset(7);
        let mut m = LocalityModel::new(&files);
        let mut rng = Rng::new(8);
        let n = 50_000;
        let top_decile = files.len() as u32 / 10;
        let hot = (0..n)
            .filter(|_| m.sample(&files, &mut rng).0 < top_decile)
            .count();
        // The Zipf anchor keeps the popular files dominant even with the
        // LRU dynamics on top.
        assert!(
            hot as f64 / n as f64 > 0.4,
            "popular files got only {hot}/{n}"
        );
    }

    #[test]
    #[should_panic]
    fn invalid_refresh_prob_rejected() {
        let files = fileset(9);
        LocalityModel::with_params(&files, 1.5, 1.8, 1.5);
    }

    #[test]
    fn stack_starts_in_popularity_order() {
        let files = fileset(10);
        let m = LocalityModel::new(&files);
        assert!(!m.is_empty());
        for rank in [0u32, 1, 42, files.len() as u32 - 1] {
            assert_eq!(m.position(FileId(rank)), Some(rank as usize));
        }
        assert_eq!(m.position(FileId(files.len() as u32)), None);
    }

    #[test]
    fn stack_keeps_every_document_exactly_once() {
        let files = fileset(11);
        let mut m = LocalityModel::new(&files);
        let mut rng = Rng::new(12);
        for _ in 0..2_000 {
            m.sample(&files, &mut rng);
        }
        let mut seen: Vec<usize> = (0..files.len() as u32)
            .map(|f| m.position(FileId(f)).expect("tracked"))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..files.len()).collect::<Vec<_>>());
    }
}
