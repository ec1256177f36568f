//! Per-stage latency histograms.
//!
//! One fixed-bucket log2 histogram ([`metrics::Histogram`], the HDR-style
//! power-of-two-band layout, <1% relative error at the default precision)
//! per lifecycle [`Stage`], plus one for whole-request response times.
//! Recording is O(1); merging is bucketwise addition, so per-worker or
//! per-shard instances join losslessly in any order — the property tests
//! pin associativity and percentile monotonicity across arbitrary splits.
//!
//! The simulator and loadgen feed these from completed
//! [`RequestBreakdown`]s (every close records, even when the breakdown
//! archive is at capacity — the histogram never drops). The live servers
//! feed the parse/service/transfer stages directly from their serve paths.

use crate::record::RequestBreakdown;
use crate::stage::Stage;
use metrics::Histogram;

/// The quantiles reports render, with their labels.
pub const REPORT_QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// A histogram per stage plus one for whole-request totals.
#[derive(Debug, Clone)]
pub struct StageHists {
    stages: Vec<Histogram>,
    total: Histogram,
}

impl Default for StageHists {
    fn default() -> Self {
        StageHists::new()
    }
}

impl StageHists {
    pub fn new() -> Self {
        StageHists {
            stages: Stage::ALL
                .iter()
                .map(|_| Histogram::default_precision())
                .collect(),
            total: Histogram::default_precision(),
        }
    }

    fn idx(stage: Stage) -> usize {
        Stage::ALL
            .iter()
            .position(|&s| s == stage)
            .expect("stage in ALL")
    }

    /// Record one observation of `stage` taking `ns` nanoseconds.
    #[inline]
    pub fn record(&mut self, stage: Stage, ns: u64) {
        self.stages[Self::idx(stage)].record(ns);
    }

    /// Record one whole-request response time.
    #[inline]
    pub fn record_total(&mut self, ns: u64) {
        self.total.record(ns);
    }

    /// Record a completed request: each stage duration plus the total.
    pub fn record_breakdown(&mut self, b: &RequestBreakdown) {
        for &(stage, ns) in &b.stages {
            self.record(stage, ns);
        }
        self.record_total(b.total_ns());
    }

    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[Self::idx(stage)]
    }

    pub fn total(&self) -> &Histogram {
        &self.total
    }

    /// `(label, histogram)` rows for export/rendering: every stage that saw
    /// at least one observation, then always the `total` row — so an export
    /// carries at least one `hist` line even for an empty capture.
    pub fn rows(&self) -> Vec<(&'static str, &Histogram)> {
        let mut rows: Vec<(&'static str, &Histogram)> = Stage::ALL
            .iter()
            .filter(|&&s| !self.stage(s).is_empty())
            .map(|&s| (s.label(), self.stage(s)))
            .collect();
        rows.push(("total", &self.total));
        rows
    }

    /// True when nothing at all has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total.is_empty() && self.stages.iter().all(Histogram::is_empty)
    }

    /// Bucketwise merge (same default precision everywhere).
    pub fn merge(&mut self, other: &StageHists) {
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.merge(theirs);
        }
        self.total.merge(&other.total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::EndReason;

    #[test]
    fn breakdown_feeds_stages_and_total() {
        let mut h = StageHists::new();
        h.record_breakdown(&RequestBreakdown {
            conn: 1,
            seq: 0,
            start_ns: 0,
            end_ns: 900,
            end: EndReason::Done,
            stages: vec![(Stage::Parse, 300), (Stage::Transfer, 600)],
        });
        assert_eq!(h.stage(Stage::Parse).count(), 1);
        assert_eq!(h.stage(Stage::Transfer).count(), 1);
        assert_eq!(h.stage(Stage::Service).count(), 0);
        assert_eq!(h.total().count(), 1);
        assert_eq!(h.total().max(), 900);
    }

    #[test]
    fn rows_skip_empty_stages_but_keep_total() {
        let h = StageHists::new();
        let rows = h.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "total");
        let mut h = StageHists::new();
        h.record(Stage::Service, 42);
        let labels: Vec<&str> = h.rows().iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, vec!["service", "total"]);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = StageHists::new();
        let mut b = StageHists::new();
        a.record(Stage::Parse, 10);
        b.record(Stage::Parse, 1_000_000);
        b.record_total(1_000_100);
        a.merge(&b);
        assert_eq!(a.stage(Stage::Parse).count(), 2);
        assert_eq!(a.total().count(), 1);
        assert_eq!(a.stage(Stage::Parse).min(), 10);
    }
}
