//! JSONL export — the one schema both layers emit.
//!
//! Each line is a self-describing JSON object with a `type` tag:
//!
//! ```text
//! {"type":"meta","source":"sim"|"live","label":...,"t_unit":"ns", ...}
//! {"type":"gauge","t_ns":N,"gauge":"run-queue-depth","value":V}
//! {"type":"span","conn":C,"req":R|null,"stage":"accept","start_ns":A,"end_ns":B}
//! {"type":"request","conn":C,"seq":S,"start_ns":A,"end_ns":B,"end":"done",
//!  "total_ns":T,"stages":[{"stage":"parse","ns":N},...]}
//! {"type":"hist","stage":"parse"|"total","count":N,"min_ns":..,"max_ns":..,
//!  "p50_ns":..,"p90_ns":..,"p99_ns":..,"p999_ns":..}
//! {"type":"counters","spans_dropped":..,"requests_dropped":..,
//!  "gauge_overflow":..,"trace_dropped":..,
//!  "ends":{"idle-timeout":..,"header-timeout":..,...}}
//! ```
//!
//! The writer is the workspace's hand-rolled `metrics::Json` (no serde, per
//! dependency policy); its escaper is what keeps hostile stage/label strings
//! from corrupting lines, and the tests below pin that.

use crate::gauge::{GaugeLog, GaugeSample};
use crate::lifecycle::EndTally;
use crate::record::{RequestBreakdown, Span, SpanLog};
use crate::Obs;
use metrics::{Histogram, Json};

/// Run-identifying fields for the leading `meta` line.
#[derive(Debug, Clone)]
pub struct ExportMeta {
    /// `"sim"` (virtual time) or `"live"` (wall time since run start).
    pub source: &'static str,
    /// Human label: figure id, server label, run name.
    pub label: String,
    /// Extra key/value pairs (load point, arch, link, ...).
    pub extra: Vec<(String, Json)>,
}

impl ExportMeta {
    pub fn new(source: &'static str, label: impl Into<String>) -> Self {
        ExportMeta {
            source,
            label: label.into(),
            extra: Vec::new(),
        }
    }

    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.extra.push((key.to_string(), value.into()));
        self
    }

    /// Render the leading `meta` line.
    fn line(&self) -> Json {
        let mut pairs = vec![
            ("type", Json::from("meta")),
            ("source", Json::from(self.source)),
            ("label", Json::from(self.label.clone())),
            ("t_unit", Json::from("ns")),
        ];
        let extra: Vec<(&str, Json)> = self
            .extra
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        pairs.extend(extra);
        Json::obj(pairs)
    }
}

pub fn gauge_line(s: &GaugeSample) -> Json {
    Json::obj(vec![
        ("type", "gauge".into()),
        ("t_ns", s.t_ns.into()),
        ("gauge", s.kind.label().into()),
        ("value", s.value.into()),
    ])
}

pub fn span_line(s: &Span) -> Json {
    Json::obj(vec![
        ("type", "span".into()),
        ("conn", s.conn.into()),
        ("req", s.req.map(Json::from).unwrap_or(Json::Null)),
        ("stage", s.stage.label().into()),
        ("start_ns", s.start_ns.into()),
        ("end_ns", s.end_ns.into()),
    ])
}

pub fn request_line(b: &RequestBreakdown) -> Json {
    let stages = b
        .stages
        .iter()
        .map(|&(stage, ns)| Json::obj(vec![("stage", stage.label().into()), ("ns", ns.into())]))
        .collect();
    Json::obj(vec![
        ("type", "request".into()),
        ("conn", b.conn.into()),
        ("seq", b.seq.into()),
        ("start_ns", b.start_ns.into()),
        ("end_ns", b.end_ns.into()),
        ("end", b.end.label().into()),
        ("total_ns", b.total_ns().into()),
        ("stages", Json::Array(stages)),
    ])
}

/// One per-stage latency histogram, summarised to the report quantiles.
/// `label` is a stage label or `"total"` for whole-request response times.
pub fn hist_line(label: &str, h: &Histogram) -> Json {
    Json::obj(vec![
        ("type", "hist".into()),
        ("stage", label.into()),
        ("count", h.count().into()),
        ("min_ns", h.min().into()),
        ("max_ns", h.max().into()),
        ("p50_ns", h.quantile(0.50).into()),
        ("p90_ns", h.quantile(0.90).into()),
        ("p99_ns", h.quantile(0.99).into()),
        ("p999_ns", h.quantile(0.999).into()),
    ])
}

/// The trailing accounting line: every bounded store's eviction/overflow
/// count, the sim trace ring's eviction count when applicable, and the
/// server-side termination-cause tally. An export without this line can
/// silently misrepresent a saturated run.
pub fn counters_line(
    spans: &SpanLog,
    requests_dropped: u64,
    gauges: &GaugeLog,
    trace_dropped: u64,
    ends: &EndTally,
) -> Json {
    let end_pairs: Vec<(&str, Json)> = ends
        .rows()
        .into_iter()
        .map(|(label, count)| (label, Json::from(count)))
        .collect();
    Json::obj(vec![
        ("type", "counters".into()),
        ("spans_dropped", spans.dropped().into()),
        ("requests_dropped", requests_dropped.into()),
        ("gauge_overflow", gauges.overflow().into()),
        ("trace_dropped", trace_dropped.into()),
        ("ends", Json::obj(end_pairs)),
    ])
}

/// Render a complete JSONL document: meta, gauges, spans, requests, stage
/// histograms, counters — one JSON object per line. The `total` hist line
/// is always present, so every conforming document exercises the tag.
pub fn to_jsonl(obs: &Obs, meta: &ExportMeta, trace_dropped: u64) -> String {
    let mut out = String::new();
    out.push_str(&meta.line().render());
    out.push('\n');
    for s in obs.gauges.samples() {
        out.push_str(&gauge_line(s).render());
        out.push('\n');
    }
    for s in obs.spans.spans() {
        out.push_str(&span_line(s).render());
        out.push('\n');
    }
    for b in obs.requests.completed() {
        out.push_str(&request_line(b).render());
        out.push('\n');
    }
    for (label, h) in obs.requests.hists().rows() {
        out.push_str(&hist_line(label, h).render());
        out.push('\n');
    }
    out.push_str(
        &counters_line(
            &obs.spans,
            obs.requests.dropped(),
            &obs.gauges,
            trace_dropped,
            &obs.ends,
        )
        .render(),
    );
    out.push('\n');
    out
}

/// The set of `type` tags a conforming JSONL document may contain, in
/// emission order. Schema-equality tests on the two layers key off this.
pub const LINE_TYPES: [&str; 6] = ["meta", "gauge", "span", "request", "hist", "counters"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauge::GaugeKind;
    use crate::stage::{EndReason, Stage};
    use crate::ObsConfig;

    fn sample_obs() -> Obs {
        let mut obs = Obs::new(&ObsConfig::default());
        obs.gauges.push(10, GaugeKind::RunQueueDepth, 3.0);
        obs.spans.push(Span {
            conn: 1,
            req: None,
            stage: Stage::ConnectWait,
            start_ns: 0,
            end_ns: 5,
        });
        obs.requests.begin(1, 0, Stage::Parse);
        obs.requests.mark_next(1, Stage::Transfer, 7);
        obs.requests.finish_next(1, 9, EndReason::Done);
        obs.ends.add(crate::lifecycle::EndCause::ParseLimit, 3);
        obs
    }

    #[test]
    fn jsonl_lines_parse_shape() {
        let obs = sample_obs();
        let meta = ExportMeta::new("sim", "fig1").with("clients", 60u64);
        let doc = to_jsonl(&obs, &meta, 2);
        let lines: Vec<&str> = doc.lines().collect();
        // meta, gauge, span, request, 3 hist rows (parse/transfer/total),
        // counters.
        assert_eq!(lines.len(), 8);
        assert!(lines[0].starts_with(r#"{"type":"meta","source":"sim","label":"fig1""#));
        assert!(lines[0].contains(r#""clients":60"#));
        assert!(lines[1].contains(r#""gauge":"run-queue-depth""#));
        assert!(lines[2].contains(r#""stage":"connect-wait""#));
        assert!(lines[3].contains(r#""end":"done""#));
        assert!(lines[3].contains(r#""total_ns":9"#));
        assert!(lines[4].contains(r#""type":"hist","stage":"parse","count":1"#));
        assert!(lines[5].contains(r#""stage":"transfer""#));
        assert!(lines[6].contains(r#""stage":"total""#));
        assert!(lines[6].contains(r#""p99_ns":9"#));
        assert!(lines[7].contains(r#""trace_dropped":2"#));
        assert!(lines[7].contains(r#""ends":{"idle-timeout":0,"#));
        assert!(lines[7].contains(r#""parse-limit":3"#));
        // Every line is a lone object: starts `{`, ends `}`.
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn request_stage_sums_serialize_consistently() {
        let obs = sample_obs();
        let b = &obs.requests.completed()[0];
        let line = request_line(b).render();
        assert!(line.contains(r#"{"stage":"parse","ns":7}"#));
        assert!(line.contains(r#"{"stage":"transfer","ns":2}"#));
        assert_eq!(b.stage_sum_ns(), b.total_ns());
    }

    #[test]
    fn hostile_labels_are_escaped() {
        // A label with quotes, backslashes, newlines and a control byte must
        // not break the one-object-per-line format.
        let meta = ExportMeta::new("live", "evil\"label\\with\nnewline\u{1}");
        let obs = Obs::new(&ObsConfig::default());
        let doc = to_jsonl(&obs, &meta, 0);
        let lines: Vec<&str> = doc.lines().collect();
        // meta, the always-present total hist line, counters.
        assert_eq!(lines.len(), 3, "escaping must keep meta on one line");
        assert!(lines[0].contains(r#"evil\"label\\with\nnewline\u0001"#));
    }
}
