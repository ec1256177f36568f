//! `metrics` — measurement infrastructure shared by the simulated and real
//! layers of `eventscale`.
//!
//! Provides:
//! * [`Histogram`] — HDR-style log-bucketed histogram for latencies/sizes;
//! * [`Summary`] — streaming mean/variance/min/max (Welford);
//! * [`WindowedSeries`] — per-window rates over virtual time (throughput);
//! * [`ErrorCounters`]/[`TrafficCounters`] — httperf-style accounting;
//! * [`Table`] — plain-text report rendering;
//! * [`render_chart`] — terminal line charts for figure shapes;
//! * [`Json`] — minimal JSON: export of results, and the reader for the
//!   committed baselines.

pub mod chart;
pub mod counters;
pub mod histogram;
pub mod json;
pub mod series;
pub mod summary;
pub mod table;

pub use chart::{render_chart, ChartConfig, ChartSeries};
pub use counters::{ClientError, ErrorCounters, TrafficCounters};
pub use histogram::Histogram;
pub use json::Json;
pub use series::WindowedSeries;
pub use summary::Summary;
pub use table::{fnum, Align, Table};
