//! Per-run result extraction: the numbers each paper figure plots.

use crate::config::TestbedConfig;
use crate::testbed::Testbed;
use metrics::{ErrorCounters, Json};

/// Everything one (config, client-count) point contributes to the figures.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Server configuration label, e.g. "nio-2w" or "httpd-4096t".
    pub label: String,
    /// Offered load: concurrent emulated clients.
    pub clients: u32,
    /// Steady-state reply throughput (replies/s) — figures 1, 5, 7, 9.
    pub throughput_rps: f64,
    /// Mean response time in ms — figures 2, 6, 8, 10.
    pub mean_response_ms: f64,
    /// 90th percentile response time in ms.
    pub p90_response_ms: f64,
    /// Mean connection-establishment time in ms — figure 4.
    pub mean_connect_ms: f64,
    /// 90th percentile connection time in ms.
    pub p90_connect_ms: f64,
    /// Client-timeout errors per second — figure 3(a).
    pub client_timeout_per_s: f64,
    /// Connection-reset errors per second — figure 3(b).
    pub conn_reset_per_s: f64,
    /// Delivered bandwidth in MB/s (checks the bandwidth-bound scenarios).
    pub bandwidth_mb_s: f64,
    /// Coefficient of variation of per-second throughput — the "stability"
    /// the paper says 6000-thread Apache loses.
    pub stability_cv: f64,
    /// Raw error totals over the measured interval.
    pub errors: ErrorCounters,
    /// Sessions finished cleanly / aborted.
    pub sessions_completed: u64,
    pub sessions_aborted: u64,
    /// Fraction of total CPU capacity spent busy.
    pub cpu_utilisation: f64,
    /// Stale (defensively dropped) events — should be a negligible share.
    pub stale_events: u64,
}

impl RunResult {
    /// Summarise a finished testbed run.
    pub fn from_testbed(cfg: &TestbedConfig, tb: &Testbed, sim_seconds: f64) -> RunResult {
        let m = &tb.metrics;
        let measured_secs = (cfg.duration.as_secs_f64() - cfg.warmup.as_secs_f64()).max(1e-9);
        // Skip warm-up windows (plus one cool-down window) in rate series.
        let skip_head = (cfg.warmup.as_secs_f64() / cfg.window().as_secs_f64()).ceil() as usize;
        let throughput = m.replies.steady_rate(skip_head, 1);
        let cv = m.replies.stability_cv(skip_head, 1);
        let timeouts = m.errors.client_timeout as f64 / measured_secs;
        let resets = m.errors.connection_reset as f64 / measured_secs;
        let busy = tb.cpu_stats().busy_nanos as f64 / 1e9;
        let capacity = cfg.num_cpus as f64 * sim_seconds;
        RunResult {
            label: cfg.server.label(),
            clients: cfg.num_clients,
            throughput_rps: throughput,
            mean_response_ms: m.mean_response_ms(),
            p90_response_ms: m.response_time_us.quantile(0.9) as f64 / 1000.0,
            mean_connect_ms: m.mean_connect_ms(),
            p90_connect_ms: m.connect_time_us.quantile(0.9) as f64 / 1000.0,
            client_timeout_per_s: timeouts,
            conn_reset_per_s: resets,
            bandwidth_mb_s: tb.link_bytes_delivered() / sim_seconds / 1e6,
            stability_cv: cv,
            errors: m.errors,
            sessions_completed: m.traffic.sessions_completed,
            sessions_aborted: m.traffic.sessions_aborted,
            cpu_utilisation: (busy / capacity).min(1.0),
            stale_events: tb.stale_events,
        }
    }

    /// JSON export for external plotting.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", self.label.as_str().into()),
            ("clients", (self.clients as u64).into()),
            ("throughput_rps", self.throughput_rps.into()),
            ("mean_response_ms", self.mean_response_ms.into()),
            ("p90_response_ms", self.p90_response_ms.into()),
            ("mean_connect_ms", self.mean_connect_ms.into()),
            ("p90_connect_ms", self.p90_connect_ms.into()),
            ("client_timeout_per_s", self.client_timeout_per_s.into()),
            ("conn_reset_per_s", self.conn_reset_per_s.into()),
            ("bandwidth_mb_s", self.bandwidth_mb_s.into()),
            ("stability_cv", self.stability_cv.into()),
            ("sessions_completed", self.sessions_completed.into()),
            ("sessions_aborted", self.sessions_aborted.into()),
            ("cpu_utilisation", self.cpu_utilisation.into()),
        ])
    }
}
