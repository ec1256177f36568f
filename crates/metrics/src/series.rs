//! Windowed time series for rate measurements.
//!
//! Httperf reports throughput as replies per second over the measurement
//! interval; the paper's stability remarks ("reduced significantly the
//! stability of the system") come from watching the per-window rate
//! fluctuate. `WindowedSeries` bins events into fixed-width virtual-time
//! windows and reports per-window rates, plus a steady-state aggregate that
//! can drop warm-up and cool-down windows.

use crate::summary::Summary;
use desim::{SimDuration, SimTime};

/// Events-per-window accumulator over virtual time.
#[derive(Debug, Clone)]
pub struct WindowedSeries {
    window: SimDuration,
    /// Sum of event weights per window index.
    windows: Vec<f64>,
}

impl WindowedSeries {
    /// Create a series with the given window width.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        WindowedSeries {
            window,
            windows: Vec::new(),
        }
    }

    /// Record an event of weight `w` at time `t`.
    pub fn record(&mut self, t: SimTime, w: f64) {
        let idx = (t.as_nanos() / self.window.as_nanos()) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, 0.0);
        }
        self.windows[idx] += w;
    }

    /// Record a unit-weight event.
    pub fn record_one(&mut self, t: SimTime) {
        self.record(t, 1.0);
    }

    /// The window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Number of windows touched so far (including interior zero windows).
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Per-window rates in events/second.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let secs = self.window.as_secs_f64();
        self.windows.iter().map(|w| w / secs).collect()
    }

    /// Mean rate over all windows (events/second). Zero when empty.
    pub fn mean_rate(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        let total: f64 = self.windows.iter().sum();
        total / (self.windows.len() as f64 * self.window.as_secs_f64())
    }

    /// Steady-state rate: drop `skip_head` leading and `skip_tail` trailing
    /// windows (warm-up / cool-down), average the rest. Falls back to the
    /// overall mean when too few windows remain.
    pub fn steady_rate(&self, skip_head: usize, skip_tail: usize) -> f64 {
        let n = self.windows.len();
        if n <= skip_head + skip_tail {
            return self.mean_rate();
        }
        let body = &self.windows[skip_head..n - skip_tail];
        let total: f64 = body.iter().sum();
        total / (body.len() as f64 * self.window.as_secs_f64())
    }

    /// Summary over per-window rates (for stability/variance reporting).
    pub fn rate_summary(&self, skip_head: usize, skip_tail: usize) -> Summary {
        let mut s = Summary::new();
        let n = self.windows.len();
        if n <= skip_head + skip_tail {
            for r in self.rates_per_sec() {
                s.add(r);
            }
            return s;
        }
        let secs = self.window.as_secs_f64();
        for w in &self.windows[skip_head..n - skip_tail] {
            s.add(w / secs);
        }
        s
    }

    /// Coefficient of variation of per-window rates in the steady region —
    /// the "stability" number used to reproduce the paper's remark about
    /// 6000-thread Apache configurations.
    pub fn stability_cv(&self, skip_head: usize, skip_tail: usize) -> f64 {
        let s = self.rate_summary(skip_head, skip_tail);
        if s.mean() == 0.0 {
            0.0
        } else {
            s.stddev() / s.mean()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn events_bin_into_windows() {
        let mut ws = WindowedSeries::new(SimDuration::from_secs(1));
        ws.record_one(SimTime::from_millis(100));
        ws.record_one(SimTime::from_millis(900));
        ws.record_one(SimTime::from_millis(1100));
        assert_eq!(ws.len(), 2);
        assert_eq!(ws.rates_per_sec(), vec![2.0, 1.0]);
    }

    #[test]
    fn mean_rate_counts_interior_gaps() {
        let mut ws = WindowedSeries::new(SimDuration::from_secs(1));
        ws.record_one(sec(0));
        ws.record_one(sec(9)); // windows 1..=8 are empty
        assert_eq!(ws.len(), 10);
        assert!((ws.mean_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn steady_rate_drops_edges() {
        let mut ws = WindowedSeries::new(SimDuration::from_secs(1));
        // Ramp: 0 events in window 0, then 10/s for 8 windows, then 1.
        for s in 1..9 {
            for _ in 0..10 {
                ws.record_one(sec(s));
            }
        }
        ws.record_one(sec(9));
        assert!((ws.steady_rate(1, 1) - 10.0).abs() < 1e-12);
        assert!(ws.mean_rate() < 10.0);
    }

    #[test]
    fn steady_rate_falls_back_when_short() {
        let mut ws = WindowedSeries::new(SimDuration::from_secs(1));
        ws.record_one(sec(0));
        assert_eq!(ws.steady_rate(5, 5), ws.mean_rate());
    }

    #[test]
    fn stability_cv_zero_for_constant_rate() {
        let mut ws = WindowedSeries::new(SimDuration::from_secs(1));
        for s in 0..10 {
            for _ in 0..5 {
                ws.record_one(sec(s));
            }
        }
        assert!(ws.stability_cv(0, 0) < 1e-12);
    }

    #[test]
    fn stability_cv_positive_for_bursty_rate() {
        let mut ws = WindowedSeries::new(SimDuration::from_secs(1));
        for s in 0..10 {
            let n = if s % 2 == 0 { 10 } else { 1 };
            for _ in 0..n {
                ws.record_one(sec(s));
            }
        }
        assert!(ws.stability_cv(0, 0) > 0.5);
    }

    #[test]
    fn weighted_records() {
        let mut ws = WindowedSeries::new(SimDuration::from_millis(500));
        ws.record(SimTime::from_millis(100), 1500.0); // bytes, say
        ws.record(SimTime::from_millis(400), 500.0);
        assert_eq!(ws.rates_per_sec(), vec![4000.0]);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        WindowedSeries::new(SimDuration::ZERO);
    }

    #[test]
    fn window_boundary_opens_the_next_window() {
        let mut ws = WindowedSeries::new(SimDuration::from_secs(1));
        ws.record_one(SimTime::from_nanos(999_999_999));
        ws.record_one(sec(1));
        assert_eq!(ws.rates_per_sec(), vec![1.0, 1.0]);
    }

    #[test]
    fn sub_second_windows_report_per_second_rates() {
        let mut ws = WindowedSeries::new(SimDuration::from_millis(250));
        assert_eq!(ws.window(), SimDuration::from_millis(250));
        ws.record_one(SimTime::from_millis(100));
        ws.record_one(SimTime::from_millis(600));
        ws.record_one(SimTime::from_millis(700));
        assert_eq!(ws.rates_per_sec(), vec![4.0, 0.0, 8.0]);
        assert!((ws.mean_rate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rate_summary_covers_only_the_steady_windows() {
        let mut ws = WindowedSeries::new(SimDuration::from_secs(1));
        for (s, n) in [(0u64, 1), (1, 10), (2, 10), (3, 10), (4, 1)] {
            for _ in 0..n {
                ws.record_one(sec(s));
            }
        }
        let body = ws.rate_summary(1, 1);
        assert_eq!(body.count(), 3);
        assert!((body.mean() - 10.0).abs() < 1e-12);
        assert_eq!(ws.rate_summary(3, 3).count(), 5, "too short: every window");
    }

    #[test]
    fn empty_series_is_zero_everywhere() {
        let ws = WindowedSeries::new(SimDuration::from_secs(1));
        assert!(ws.is_empty());
        assert_eq!(ws.len(), 0);
        assert_eq!(ws.mean_rate(), 0.0);
        assert_eq!(ws.steady_rate(1, 1), 0.0);
        assert_eq!(ws.stability_cv(0, 0), 0.0);
    }
}
