//! Figure representation and rendering.
//!
//! Each paper figure becomes a [`Figure`]: one plotted metric, one series
//! per line in the original plot, one point per client count. `render()`
//! prints the numbers a reader would read off the plot's axes; `to_json()`
//! exports the same data for external plotting.

use metrics::{fnum, Align, Json, Table};
use serversim::RunResult;

/// Which measurement a figure plots on its y-axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Replies per second.
    ThroughputRps,
    /// Mean response time, ms.
    ResponseMs,
    /// Mean connection-establishment time, ms.
    ConnectMs,
    /// Client-timeout errors per second.
    TimeoutsPerS,
    /// Connection-reset errors per second.
    ResetsPerS,
    /// Delivered bandwidth, MB/s.
    BandwidthMbS,
    /// Coefficient of variation of per-second throughput (stability).
    StabilityCv,
}

impl Metric {
    pub fn label(self) -> &'static str {
        match self {
            Metric::ThroughputRps => "replies/s",
            Metric::ResponseMs => "response time (ms)",
            Metric::ConnectMs => "connection time (ms)",
            Metric::TimeoutsPerS => "client-timeout errors/s",
            Metric::ResetsPerS => "connection-reset errors/s",
            Metric::BandwidthMbS => "bandwidth (MB/s)",
            Metric::StabilityCv => "throughput CV (stability)",
        }
    }

    /// Extract the metric from a run result.
    pub fn of(self, r: &RunResult) -> f64 {
        match self {
            Metric::ThroughputRps => r.throughput_rps,
            Metric::ResponseMs => r.mean_response_ms,
            Metric::ConnectMs => r.mean_connect_ms,
            Metric::TimeoutsPerS => r.client_timeout_per_s,
            Metric::ResetsPerS => r.conn_reset_per_s,
            Metric::BandwidthMbS => r.bandwidth_mb_s,
            Metric::StabilityCv => r.stability_cv,
        }
    }

    fn decimals(self) -> usize {
        match self {
            Metric::ThroughputRps => 0,
            Metric::ResponseMs | Metric::ConnectMs => 1,
            Metric::TimeoutsPerS | Metric::ResetsPerS | Metric::BandwidthMbS => 2,
            Metric::StabilityCv => 3,
        }
    }
}

/// One line in a figure.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    pub points: Vec<RunResult>,
}

/// One reproduced figure (or panel).
#[derive(Debug, Clone)]
pub struct Figure {
    /// Paper identifier, e.g. "fig1a".
    pub id: &'static str,
    pub title: String,
    pub metric: Metric,
    /// The x-axis: concurrent clients, shared by all series.
    pub loads: Vec<u32>,
    pub series: Vec<Series>,
}

impl Figure {
    /// Render as a plain-text table: one row per client count, one column
    /// per series.
    pub fn render(&self) -> String {
        let mut headers: Vec<(&str, Align)> = vec![("clients", Align::Right)];
        for s in &self.series {
            headers.push((s.label.as_str(), Align::Right));
        }
        let mut table = Table::new(&headers);
        for (i, &load) in self.loads.iter().enumerate() {
            let mut row = vec![load.to_string()];
            for s in &self.series {
                let cell = s
                    .points
                    .get(i)
                    .map(|r| fnum(self.metric.of(r), self.metric.decimals()))
                    .unwrap_or_else(|| "-".to_string());
                row.push(cell);
            }
            table.row(row);
        }
        format!(
            "## {} — {}\n   y-axis: {}\n\n{}",
            self.id,
            self.title,
            self.metric.label(),
            table.render()
        )
    }

    /// JSON export (full run results per point, not just the headline
    /// metric).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", self.id.into()),
            ("title", self.title.as_str().into()),
            ("metric", self.metric.label().into()),
            ("loads", Json::nums(self.loads.iter().map(|&l| l as f64))),
            (
                "series",
                Json::Array(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("label", s.label.as_str().into()),
                                (
                                    "values",
                                    Json::nums(s.points.iter().map(|r| self.metric.of(r))),
                                ),
                                (
                                    "runs",
                                    Json::Array(s.points.iter().map(|r| r.to_json()).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// CSV export: one row per (load, series) with every run metric —
    /// convenient for spreadsheets and external plotting without JSON
    /// tooling.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "figure,series,clients,throughput_rps,mean_response_ms,p90_response_ms,\
mean_connect_ms,p90_connect_ms,client_timeout_per_s,conn_reset_per_s,\
bandwidth_mb_s,stability_cv,sessions_completed,sessions_aborted,cpu_utilisation\n",
        );
        for s in &self.series {
            for r in &s.points {
                out.push_str(&format!(
                    "{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.4},{:.4},{:.4},{:.4},{},{},{:.4}\n",
                    self.id,
                    s.label,
                    r.clients,
                    r.throughput_rps,
                    r.mean_response_ms,
                    r.p90_response_ms,
                    r.mean_connect_ms,
                    r.p90_connect_ms,
                    r.client_timeout_per_s,
                    r.conn_reset_per_s,
                    r.bandwidth_mb_s,
                    r.stability_cv,
                    r.sessions_completed,
                    r.sessions_aborted,
                    r.cpu_utilisation,
                ));
            }
        }
        out
    }

    /// Render an ASCII line chart of the figure (shape view; the table is
    /// the exact view). Time metrics use a log y-axis — their interesting
    /// region spans decades.
    pub fn render_chart(&self) -> String {
        let log_y = matches!(self.metric, Metric::ResponseMs | Metric::ConnectMs);
        let series: Vec<metrics::ChartSeries> = self
            .series
            .iter()
            .map(|s| metrics::ChartSeries {
                label: s.label.clone(),
                values: s.points.iter().map(|r| self.metric.of(r)).collect(),
            })
            .collect();
        metrics::render_chart(
            &self.loads,
            &series,
            &metrics::ChartConfig {
                log_y,
                ..metrics::ChartConfig::default()
            },
        )
    }

    /// Peak (max) value of the metric across a series' points.
    pub fn peak(&self, series_idx: usize) -> f64 {
        self.series[series_idx]
            .points
            .iter()
            .map(|r| self.metric.of(r))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Find a series by label.
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::ErrorCounters;

    fn rr(clients: u32, thr: f64) -> RunResult {
        RunResult {
            label: "x".into(),
            clients,
            throughput_rps: thr,
            mean_response_ms: 1.0,
            p90_response_ms: 2.0,
            mean_connect_ms: 0.2,
            p90_connect_ms: 0.4,
            client_timeout_per_s: 0.0,
            conn_reset_per_s: 0.0,
            bandwidth_mb_s: 1.0,
            stability_cv: 0.1,
            errors: ErrorCounters::default(),
            sessions_completed: 10,
            sessions_aborted: 0,
            cpu_utilisation: 0.5,
            stale_events: 0,
        }
    }

    fn fixture() -> Figure {
        Figure {
            id: "fig1a",
            title: "test".into(),
            metric: Metric::ThroughputRps,
            loads: vec![60, 600],
            series: vec![
                Series {
                    label: "nio-1w".into(),
                    points: vec![rr(60, 50.0), rr(600, 400.0)],
                },
                Series {
                    label: "httpd-896t".into(),
                    points: vec![rr(60, 55.0), rr(600, 450.0)],
                },
            ],
        }
    }

    #[test]
    fn render_contains_all_cells() {
        let s = fixture().render();
        assert!(s.contains("fig1a"));
        assert!(s.contains("nio-1w"));
        assert!(s.contains("httpd-896t"));
        assert!(s.contains("400"));
        assert!(s.contains("450"));
    }

    #[test]
    fn json_roundtrip_shape() {
        let j = fixture().to_json().render();
        assert!(j.contains("\"id\":\"fig1a\""));
        assert!(j.contains("\"values\":[50,400]"));
    }

    #[test]
    fn peak_and_lookup() {
        let f = fixture();
        assert_eq!(f.peak(0), 400.0);
        assert_eq!(f.peak(1), 450.0);
        assert!(f.series_by_label("nio-1w").is_some());
        assert!(f.series_by_label("zzz").is_none());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = fixture().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 4, "header + 2 series × 2 points");
        assert!(lines[0].starts_with("figure,series,clients,throughput_rps"));
        assert!(lines[1].starts_with("fig1a,nio-1w,60,"));
        let cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), cols, "ragged row: {l}");
        }
    }

    #[test]
    fn metric_extraction() {
        let r = rr(1, 123.0);
        assert_eq!(Metric::ThroughputRps.of(&r), 123.0);
        assert_eq!(Metric::ResponseMs.of(&r), 1.0);
        assert_eq!(Metric::BandwidthMbS.of(&r), 1.0);
    }
}
