//! The quiet-decile estimator.
//!
//! Interference from neighbours on a shared host is time-varying and
//! one-sided: it only ever makes a window slower. A run is therefore cut
//! into back-to-back windows and each metric is read off the *quiet* end of
//! its window distribution — the 90th percentile of the window rates, the
//! 10th percentile of the per-window costs — instead of the mean or median
//! of the whole run. A disturbance that hits fewer than nine tenths of the
//! windows does not move the estimate; a uniform slowdown of the program
//! moves it one-for-one.

/// One measurement window of a live run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Wall time the window actually covered, seconds.
    pub secs: f64,
    /// Replies completed in the window.
    pub replies: u64,
    /// CPU time the server's threads consumed in the window, nanoseconds.
    pub server_cpu_ns: u64,
    /// Time the driver spent working rather than spinning, nanoseconds.
    pub driver_busy_ns: u64,
    /// Median latency of the operations completed in the window, nanoseconds.
    pub p50_ns: f64,
}

impl Window {
    pub fn rate(&self) -> f64 {
        self.replies as f64 / self.secs
    }

    pub fn server_cpu_us_per_reply(&self) -> f64 {
        self.server_cpu_ns as f64 / 1e3 / self.replies as f64
    }

    pub fn driver_busy_us_per_reply(&self) -> f64 {
        self.driver_busy_ns as f64 / 1e3 / self.replies as f64
    }
}

/// What a run reports, read off the quiet end of its windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuietEstimate {
    pub replies_per_s: f64,
    pub server_cpu_us_per_reply: f64,
    pub driver_busy_us_per_reply: f64,
    pub reply_p50_us: f64,
    /// (p90 − p10) / p50 of the window rates: the jitter the quiet decile
    /// hides, published per layer as `driver.window_spread`.
    pub window_spread: f64,
}

/// `q`-quantile of `values` with linear interpolation between order
/// statistics (so the estimate moves continuously, never in steps of one
/// window). Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (exclusive method): the spread the harness computes over repeated runs.
pub fn iqr_share(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(3) - at(1)) / median(&sorted)
}

/// Reduce a run's windows to its reported metrics. Windows without a reply
/// carry no cost information and are skipped; panics if none has one.
pub fn quiet_decile(windows: &[Window]) -> QuietEstimate {
    let live: Vec<&Window> = windows.iter().filter(|w| w.replies > 0).collect();
    assert!(!live.is_empty(), "no window completed a reply");
    let of = |f: fn(&Window) -> f64| live.iter().map(|w| f(w)).collect::<Vec<f64>>();
    let rates = of(Window::rate);
    QuietEstimate {
        replies_per_s: quantile(&rates, 0.9),
        server_cpu_us_per_reply: quantile(&of(Window::server_cpu_us_per_reply), 0.1),
        driver_busy_us_per_reply: quantile(&of(Window::driver_busy_us_per_reply), 0.1),
        reply_p50_us: quantile(&of(|w| w.p50_ns / 1e3), 0.1),
        window_spread: (quantile(&rates, 0.9) - quantile(&rates, 0.1)) / median(&rates),
    }
}
