//! Terminal rendering: stage-breakdown tables and gauge timelines.
//!
//! `repro observe <fig>` prints these; they are the human-readable view of
//! the same data the JSONL export carries. Tables come from
//! `metrics::table`, timelines from `metrics::chart`, so the observability
//! output reads like the rest of the repro reports.

use crate::gauge::{GaugeKind, GaugeLog};
use crate::hist::{StageHists, REPORT_QUANTILES};
use crate::record::RequestTracker;
use crate::stage::{EndReason, Stage};
use metrics::{fnum, render_chart, Align, ChartConfig, ChartSeries, Table};

/// Per-stage mean/share table over completed requests.
///
/// `Share` is each stage's fraction of the summed response time — the
/// "where did the milliseconds go" view that explains a bending curve.
pub fn stage_table(requests: &RequestTracker) -> String {
    let totals = requests.stage_totals(None);
    let grand: u64 = totals.iter().map(|&(_, ns, _)| ns).sum();
    let mut table = Table::new(&[
        ("stage", Align::Left),
        ("count", Align::Right),
        ("total ms", Align::Right),
        ("mean µs", Align::Right),
        ("share %", Align::Right),
    ]);
    for (stage, total_ns, count) in totals {
        table.row(vec![
            stage.label().to_string(),
            count.to_string(),
            fnum(total_ns as f64 / 1e6, 1),
            fnum(total_ns as f64 / 1e3 / count.max(1) as f64, 1),
            fnum(
                if grand == 0 {
                    0.0
                } else {
                    100.0 * total_ns as f64 / grand as f64
                },
                1,
            ),
        ]);
    }
    table.render()
}

/// Per-stage latency percentiles from the log2 histograms: p50/p90/p99/p999
/// per stage plus the whole-request `total` row. The tail columns are what
/// the mean-based stage table cannot show — a p999 pulling away from p50 is
/// queueing, before the mean moves at all.
pub fn hist_table(hists: &StageHists) -> String {
    let mut cols: Vec<(&str, Align)> = vec![("stage", Align::Left), ("count", Align::Right)];
    for &(label, _) in &REPORT_QUANTILES {
        cols.push((label, Align::Right));
    }
    let mut table = Table::new(&cols);
    for (label, h) in hists.rows() {
        let mut row = vec![label.to_string(), h.count().to_string()];
        for &(_, q) in &REPORT_QUANTILES {
            row.push(format!("{} µs", fnum(h.quantile(q) as f64 / 1e3, 1)));
        }
        table.row(row);
    }
    table.render()
}

/// Capture-loss accounting for terminal reports: what each bounded store
/// evicted or refused. Returns the rendered section and whether anything
/// was dropped at all — callers prepend a WARNING line when it was,
/// because percentiles from a lossy capture are suspect.
pub fn drop_counters_section(
    spans_dropped: u64,
    requests_dropped: u64,
    gauge_overflow: u64,
    trace_dropped: u64,
) -> (String, bool) {
    let rows = [
        ("spans dropped", spans_dropped),
        ("request breakdowns dropped", requests_dropped),
        ("gauge samples overflowed", gauge_overflow),
        ("trace events dropped", trace_dropped),
    ];
    let any = rows.iter().any(|&(_, n)| n > 0);
    let mut table = Table::new(&[("store", Align::Left), ("dropped", Align::Right)]);
    for (label, n) in rows {
        table.row(vec![label.to_string(), n.to_string()]);
    }
    let mut out = String::new();
    if any {
        out.push_str(
            "WARNING: capture dropped records — bounded stores overflowed; raise the \
             obs capacities before trusting tails.\n",
        );
    }
    out.push_str(&table.render());
    (out, any)
}

/// End-reason accounting: completed vs censored requests. The censored rows
/// are the ones a naive mean silently excludes.
pub fn end_reason_table(requests: &RequestTracker) -> String {
    let counts = requests.end_counts();
    let total: u64 = counts.iter().map(|&(_, n)| n).sum();
    let mut table = Table::new(&[
        ("end", Align::Left),
        ("requests", Align::Right),
        ("share %", Align::Right),
        ("mean ms", Align::Right),
    ]);
    for (reason, n) in counts {
        let sum_ns: u64 = requests
            .completed()
            .iter()
            .filter(|b| b.end == reason)
            .map(|b| b.total_ns())
            .sum();
        table.row(vec![
            reason.label().to_string(),
            n.to_string(),
            fnum(100.0 * n as f64 / total.max(1) as f64, 1),
            fnum(sum_ns as f64 / 1e6 / n.max(1) as f64, 2),
        ]);
    }
    table.render()
}

/// Server-side termination-cause accounting — why connections ended, in the
/// lifecycle-policy taxonomy (idle/header/write-stall timeouts, refusals,
/// fd-reserve, parse limits). Zero rows are omitted; an all-zero tally
/// renders a single "none" row so the section never silently disappears.
pub fn end_cause_table(ends: &crate::lifecycle::EndTally) -> String {
    let mut table = Table::new(&[("cause", Align::Left), ("conns", Align::Right)]);
    let mut any = false;
    for (label, count) in ends.rows() {
        if count == 0 {
            continue;
        }
        any = true;
        table.row(vec![label.to_string(), count.to_string()]);
    }
    if !any {
        table.row(vec!["none".to_string(), "0".to_string()]);
    }
    table.render()
}

/// Downsample a gauge series onto `buckets` equal time windows (mean per
/// window) and chart it. Returns None when the gauge was never sampled.
pub fn gauge_timeline(log: &GaugeLog, kind: GaugeKind, buckets: usize) -> Option<String> {
    let (ts, vs) = log.series(kind);
    if ts.is_empty() {
        return None;
    }
    let t0 = *ts.first().expect("nonempty");
    let t1 = *ts.last().expect("nonempty");
    let span = (t1 - t0).max(1);
    let buckets = buckets.clamp(2, ts.len().max(2));
    let mut sums = vec![0.0f64; buckets];
    let mut counts = vec![0u64; buckets];
    for (&t, &v) in ts.iter().zip(&vs) {
        let b =
            (((t - t0) as u128 * buckets as u128 / (span as u128 + 1)) as usize).min(buckets - 1);
        sums[b] += v;
        counts[b] += 1;
    }
    let values: Vec<f64> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &n)| if n == 0 { f64::NAN } else { s / n as f64 })
        .collect();
    let x_labels: Vec<u32> = (0..buckets)
        .map(|b| ((t0 + span * b as u64 / buckets as u64) / 1_000_000_000) as u32)
        .collect();
    let series = [ChartSeries {
        label: kind.label().to_string(),
        values,
    }];
    Some(render_chart(&x_labels, &series, &ChartConfig::default()))
}

/// Heuristic anomaly notes — the "why does the curve bend here" bullets.
///
/// These are computed facts, not canned text: each line only appears when
/// the captured data actually shows the pattern.
pub fn anomaly_notes(requests: &RequestTracker, gauges: &GaugeLog) -> Vec<String> {
    let mut notes = Vec::new();
    let counts = requests.end_counts();
    let total: u64 = counts.iter().map(|&(_, n)| n).sum();
    let n_of = |r: EndReason| {
        counts
            .iter()
            .find(|&&(e, _)| e == r)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    };

    // Timeout censoring deflating the mean (the Fig 2 anomaly).
    let timeouts = n_of(EndReason::Timeout);
    if timeouts > 0 && total > 0 {
        let done_mean = mean_total_ms(requests, Some(EndReason::Done));
        let all_mean = mean_total_ms(requests, None);
        notes.push(format!(
            "{timeouts} of {total} requests ({:.1}%) timed out and are censored from the \
             response-time mean: completed-only mean {:.1} ms vs {:.1} ms counting censored \
             lifetimes — the reported curve is deflated.",
            100.0 * timeouts as f64 / total as f64,
            done_mean,
            all_mean,
        ));
    }

    // Reset stream (Fig 3).
    let resets = n_of(EndReason::Reset);
    if resets > 0 {
        notes.push(format!(
            "{resets} requests died by connection reset — an error stream the throughput \
             numbers alone would hide.",
        ));
    }

    // Pool saturation: occupancy pinned at its ceiling while backlog grows.
    let occ_peak = gauges.peak(GaugeKind::ThreadPoolOccupancy);
    let occ_mean = gauges.mean(GaugeKind::ThreadPoolOccupancy);
    let backlog_peak = gauges.peak(GaugeKind::AcceptBacklog);
    if occ_peak > 0.0 && occ_mean > 0.95 * occ_peak && backlog_peak > 0.0 {
        notes.push(format!(
            "thread pool pinned at its ceiling (mean occupancy {:.0} of peak {:.0}) while \
             the accept backlog reached {:.0}: arrivals queue behind the pool — connection \
             time, not service time, is what grows.",
            occ_mean, occ_peak, backlog_peak,
        ));
    } else if backlog_peak > 0.0 {
        notes.push(format!(
            "accept backlog peaked at {backlog_peak:.0} — handshakes waited for accept \
             capacity.",
        ));
    }

    // Event-driven: registered set far above the ready set → selector scan
    // dominated by idle registrations (the NIO-on-2004-kernels caveat), while
    // connection time stays flat because accept is never starved.
    let registered = gauges.peak(GaugeKind::RegisteredConns);
    let ready_peak = gauges.peak(GaugeKind::ReadySetSize);
    if registered > 0.0 && ready_peak >= 0.0 && gauges.mean(GaugeKind::RegisteredConns) > 0.0 {
        let ready_mean = gauges.mean(GaugeKind::ReadySetSize);
        notes.push(format!(
            "selector holds up to {registered:.0} registrations with a ready set of only \
             {ready_mean:.1} on average (peak {ready_peak:.0}): per-event work is bounded by \
             the ready set, which is why connection time stays flat as load grows.",
        ));
    }

    // Run-queue growth: service time inflation is queueing, not work.
    let rq_peak = gauges.peak(GaugeKind::RunQueueDepth);
    if rq_peak > 2.0 * gauges.mean(GaugeKind::CpuRunning).max(1.0) {
        notes.push(format!(
            "CPU run queue peaked at {rq_peak:.0} jobs — response time past the bend is \
             queueing delay, not longer service.",
        ));
    }

    // Link saturation.
    let util_mean = gauges.mean(GaugeKind::LinkUtilisation);
    if util_mean > 0.9 {
        notes.push(format!(
            "link utilisation averaged {:.0}% — the transfer stage is bandwidth-bound and \
             throughput has hit the pipe, not the server.",
            100.0 * util_mean,
        ));
    }

    if notes.is_empty() {
        notes.push(
            "no saturation signatures in this capture: stages and gauges within nominal \
             ranges."
                .to_string(),
        );
    }
    notes
}

fn mean_total_ms(requests: &RequestTracker, end: Option<EndReason>) -> f64 {
    let mut sum = 0u64;
    let mut n = 0u64;
    for b in requests.completed() {
        if end.is_some_and(|e| e != b.end) {
            continue;
        }
        sum += b.total_ns();
        n += 1;
    }
    sum as f64 / 1e6 / n.max(1) as f64
}

/// Stage share of one stage across completed requests, 0..=1.
pub fn stage_share(requests: &RequestTracker, stage: Stage) -> f64 {
    let totals = requests.stage_totals(None);
    let grand: u64 = totals.iter().map(|&(_, ns, _)| ns).sum();
    if grand == 0 {
        return 0.0;
    }
    totals
        .iter()
        .find(|&&(s, _, _)| s == stage)
        .map(|&(_, ns, _)| ns as f64 / grand as f64)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Stage;

    fn tracker_with(reqs: &[(u64, u64, EndReason)]) -> RequestTracker {
        let mut t = RequestTracker::bounded(1024);
        for (i, &(start, end, reason)) in reqs.iter().enumerate() {
            let conn = i as u64;
            t.begin(conn, start, Stage::Parse);
            t.mark_next(conn, Stage::Transfer, start + (end - start) / 2);
            t.finish_next(conn, end, reason);
        }
        t
    }

    #[test]
    fn stage_table_shares_sum_to_100() {
        let t = tracker_with(&[(0, 1000, EndReason::Done), (0, 3000, EndReason::Done)]);
        let s = stage_table(&t);
        assert!(s.contains("parse"));
        assert!(s.contains("transfer"));
        let share = stage_share(&t, Stage::Parse) + stage_share(&t, Stage::Transfer);
        assert!((share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hist_table_renders_percentiles() {
        let t = tracker_with(&[(0, 2_000_000, EndReason::Done)]);
        let s = hist_table(t.hists());
        assert!(s.contains("total"), "{s}");
        assert!(s.contains("p999"), "{s}");
        assert!(s.contains("parse"), "{s}");
    }

    #[test]
    fn drop_section_warns_only_when_lossy() {
        let (clean, any) = drop_counters_section(0, 0, 0, 0);
        assert!(!any);
        assert!(!clean.contains("WARNING"));
        let (lossy, any) = drop_counters_section(0, 3, 0, 0);
        assert!(any);
        assert!(lossy.contains("WARNING"), "{lossy}");
        assert!(lossy.contains("request breakdowns dropped"));
    }

    #[test]
    fn timeout_censoring_note_fires() {
        let t = tracker_with(&[
            (0, 1_000_000, EndReason::Done),
            (0, 50_000_000, EndReason::Timeout),
        ]);
        let notes = anomaly_notes(&t, &GaugeLog::bounded(8));
        assert!(
            notes.iter().any(|n| n.contains("censored")),
            "notes: {notes:?}"
        );
    }

    #[test]
    fn timeline_downsamples() {
        let mut log = GaugeLog::bounded(1024);
        for i in 0..100u64 {
            log.push(i * 1_000_000_000, GaugeKind::OpenConns, i as f64);
        }
        let chart = gauge_timeline(&log, GaugeKind::OpenConns, 10).unwrap();
        assert!(chart.contains("open-conns"));
        assert!(gauge_timeline(&log, GaugeKind::ActiveFlows, 10).is_none());
    }

    #[test]
    fn end_cause_table_hides_zero_rows() {
        use crate::lifecycle::{EndCause, EndTally};
        let mut ends = EndTally::new();
        assert!(end_cause_table(&ends).contains("none"));
        ends.record(EndCause::HeaderTimeout);
        ends.record(EndCause::Refused);
        let s = end_cause_table(&ends);
        assert!(s.contains("header-timeout"));
        assert!(s.contains("refused"));
        assert!(!s.contains("write-stall"));
        assert!(!s.contains("none"));
    }

    #[test]
    fn quiet_capture_says_so() {
        let t = RequestTracker::bounded(8);
        let notes = anomaly_notes(&t, &GaugeLog::bounded(8));
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("nominal"));
    }
}
