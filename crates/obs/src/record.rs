//! Typed span records and the per-request lifecycle tracker.
//!
//! Two record shapes:
//!
//! * [`Span`] — a closed interval of one stage on one connection (e.g. the
//!   connect-wait of conn 17, or a think-time idle gap). Kept in a bounded
//!   ring ([`SpanLog`]) that evicts oldest and counts evictions, mirroring
//!   `desim::Trace`'s contract.
//! * [`RequestBreakdown`] — a completed request's stage durations. Built by
//!   [`RequestTracker`] from monotone stage marks, so by construction the
//!   durations are non-negative, non-overlapping, and telescope exactly to
//!   `end - start`: the breakdown *provably* sums to the measured response
//!   time (the property tests pin this).
//!
//! Timestamps are plain `u64` nanoseconds — virtual time in the simulator,
//! wall time since run start on the live layer — so one crate serves both.

use crate::hist::StageHists;
use crate::stage::{EndReason, Stage};
use std::collections::{HashMap, VecDeque};

/// One completed stage interval on a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub conn: u64,
    /// Request sequence number within the connection, when the span belongs
    /// to a specific request rather than the connection as a whole.
    pub req: Option<u64>,
    pub stage: Stage,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Bounded ring of spans; evicts oldest when full and counts the evictions.
#[derive(Debug)]
pub struct SpanLog {
    spans: VecDeque<Span>,
    capacity: usize,
    dropped: u64,
}

impl SpanLog {
    pub fn bounded(capacity: usize) -> Self {
        SpanLog {
            spans: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    pub fn push(&mut self, span: Span) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }

    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans evicted (or refused, at capacity 0) since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Fold spans into per-stage (total_ns, count) sums.
    pub fn totals(&self) -> Vec<(Stage, u64, u64)> {
        let mut acc: Vec<(Stage, u64, u64)> = Stage::ALL.iter().map(|&s| (s, 0u64, 0u64)).collect();
        for span in &self.spans {
            let slot = acc
                .iter_mut()
                .find(|(s, _, _)| *s == span.stage)
                .expect("stage in ALL");
            slot.1 += span.duration_ns();
            slot.2 += 1;
        }
        acc.retain(|&(_, _, n)| n > 0);
        acc
    }

    /// Merge another log into this one (used when per-thread logs join).
    pub fn merge(&mut self, other: SpanLog) {
        self.dropped += other.dropped;
        for span in other.spans {
            self.push(span);
        }
    }
}

/// A completed request with its stage-attributed durations.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestBreakdown {
    pub conn: u64,
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub end: EndReason,
    /// `(stage, duration_ns)` in lifecycle order; durations telescope to
    /// `end_ns - start_ns` exactly.
    pub stages: Vec<(Stage, u64)>,
}

impl RequestBreakdown {
    /// The measured response time this breakdown must sum to.
    pub fn total_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Sum of the per-stage durations (invariant: equals `total_ns`).
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.iter().map(|&(_, d)| d).sum()
    }

    pub fn duration_of(&self, stage: Stage) -> u64 {
        self.stages
            .iter()
            .filter(|&&(s, _)| s == stage)
            .map(|&(_, d)| d)
            .sum()
    }
}

/// An in-flight request: monotone `(stage, entered_at)` marks.
#[derive(Debug)]
struct OpenRequest {
    seq: u64,
    marks: Vec<(Stage, u64)>,
}

impl OpenRequest {
    fn last_ns(&self) -> u64 {
        self.marks.last().map(|&(_, t)| t).unwrap_or(0)
    }

    fn has_stage(&self, stage: Stage) -> bool {
        self.marks.iter().any(|&(s, _)| s == stage)
    }
}

/// Tracks open requests per connection and emits [`RequestBreakdown`]s.
///
/// Requests on one connection are FIFO (HTTP/1.1 pipelining preserves reply
/// order), so the stage marks and the finish land on the *oldest* request
/// that hasn't yet seen them. Marks are clamped monotone per request, which
/// is what makes the breakdown invariants hold by construction.
#[derive(Debug)]
pub struct RequestTracker {
    open: HashMap<u64, VecDeque<OpenRequest>>,
    done: Vec<RequestBreakdown>,
    capacity: usize,
    dropped: u64,
    next_seq: HashMap<u64, u64>,
    open_count: usize,
    hists: StageHists,
}

impl RequestTracker {
    pub fn bounded(capacity: usize) -> Self {
        RequestTracker {
            open: HashMap::new(),
            done: Vec::new(),
            capacity,
            dropped: 0,
            next_seq: HashMap::new(),
            open_count: 0,
            hists: StageHists::new(),
        }
    }

    /// Open a new request on `conn`, entering `first_stage` at `now_ns`.
    /// Returns the request's sequence number within the connection.
    pub fn begin(&mut self, conn: u64, now_ns: u64, first_stage: Stage) -> u64 {
        let seq_slot = self.next_seq.entry(conn).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        self.open.entry(conn).or_default().push_back(OpenRequest {
            seq,
            marks: vec![(first_stage, now_ns)],
        });
        self.open_count += 1;
        seq
    }

    /// Enter `stage` at `t_ns` on the oldest open request of `conn` that has
    /// not already entered it. `t_ns` is clamped to the request's last mark,
    /// keeping the mark sequence monotone. No-op when nothing matches.
    pub fn mark_next(&mut self, conn: u64, stage: Stage, t_ns: u64) {
        if let Some(queue) = self.open.get_mut(&conn) {
            if let Some(req) = queue.iter_mut().find(|r| !r.has_stage(stage)) {
                let t = t_ns.max(req.last_ns());
                req.marks.push((stage, t));
            }
        }
    }

    /// Complete the oldest open request of `conn` at `end_ns`; computes the
    /// per-stage durations from the marks and archives the breakdown.
    pub fn finish_next(
        &mut self,
        conn: u64,
        end_ns: u64,
        end: EndReason,
    ) -> Option<&RequestBreakdown> {
        let queue = self.open.get_mut(&conn)?;
        let req = queue.pop_front()?;
        if queue.is_empty() {
            self.open.remove(&conn);
        }
        self.open_count -= 1;
        let breakdown = Self::close(req, conn, end_ns, end);
        self.hists.record_breakdown(&breakdown);
        self.archive(breakdown)
    }

    /// Finish every open request on `conn` (connection death: reset, client
    /// timeout, orderly close with pipelined requests still in flight).
    pub fn finish_all(&mut self, conn: u64, end_ns: u64, end: EndReason) -> usize {
        let Some(queue) = self.open.remove(&conn) else {
            return 0;
        };
        let n = queue.len();
        self.open_count -= n;
        for req in queue {
            let breakdown = Self::close(req, conn, end_ns, end);
            self.hists.record_breakdown(&breakdown);
            self.archive(breakdown);
        }
        n
    }

    fn close(req: OpenRequest, conn: u64, end_ns: u64, end: EndReason) -> RequestBreakdown {
        let start_ns = req.marks.first().map(|&(_, t)| t).unwrap_or(end_ns);
        let end_ns = end_ns.max(req.last_ns()).max(start_ns);
        let mut stages = Vec::with_capacity(req.marks.len());
        for (i, &(stage, t)) in req.marks.iter().enumerate() {
            let next_t = req.marks.get(i + 1).map(|&(_, t2)| t2).unwrap_or(end_ns);
            stages.push((stage, next_t - t));
        }
        RequestBreakdown {
            conn,
            seq: req.seq,
            start_ns,
            end_ns,
            end,
            stages,
        }
    }

    fn archive(&mut self, breakdown: RequestBreakdown) -> Option<&RequestBreakdown> {
        if self.done.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        self.done.push(breakdown);
        self.done.last()
    }

    /// Completed breakdowns, oldest first.
    pub fn completed(&self) -> &[RequestBreakdown] {
        &self.done
    }

    /// Requests still open (in flight) across all connections.
    pub fn open_len(&self) -> usize {
        self.open_count
    }

    /// Breakdowns discarded because the archive was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-stage latency histograms over every closed request — including
    /// ones the bounded archive dropped, so percentiles stay faithful on
    /// captures that outgrow `request_capacity`.
    pub fn hists(&self) -> &StageHists {
        &self.hists
    }

    /// Mutable access for callers that record stage timings directly
    /// (live servers time their serve-path bursts without a tracker).
    pub fn hists_mut(&mut self) -> &mut StageHists {
        &mut self.hists
    }

    /// Per-stage `(total_ns, count)` over completed requests with the given
    /// end reason filter (`None` = all).
    pub fn stage_totals(&self, end: Option<EndReason>) -> Vec<(Stage, u64, u64)> {
        let mut acc: Vec<(Stage, u64, u64)> = Stage::ALL.iter().map(|&s| (s, 0u64, 0u64)).collect();
        for b in &self.done {
            if end.is_some_and(|e| e != b.end) {
                continue;
            }
            for &(stage, d) in &b.stages {
                let slot = acc
                    .iter_mut()
                    .find(|(s, _, _)| *s == stage)
                    .expect("stage in ALL");
                slot.1 += d;
                slot.2 += 1;
            }
        }
        acc.retain(|&(_, _, n)| n > 0);
        acc
    }

    /// Count of completed requests per end reason.
    pub fn end_counts(&self) -> Vec<(EndReason, u64)> {
        let mut acc: Vec<(EndReason, u64)> = EndReason::ALL.iter().map(|&e| (e, 0u64)).collect();
        for b in &self.done {
            acc.iter_mut().find(|(e, _)| *e == b.end).expect("reason").1 += 1;
        }
        acc.retain(|&(_, n)| n > 0);
        acc
    }

    /// Merge another tracker's *completed* records (per-thread join on the
    /// live layer); open requests don't cross threads.
    pub fn merge(&mut self, other: RequestTracker) {
        self.dropped += other.dropped;
        self.hists.merge(&other.hists);
        for b in other.done {
            self.archive(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_telescopes_to_total() {
        let mut t = RequestTracker::bounded(16);
        let seq = t.begin(1, 100, Stage::Parse);
        assert_eq!(seq, 0);
        t.mark_next(1, Stage::Service, 400);
        t.mark_next(1, Stage::Transfer, 900);
        let b = t.finish_next(1, 1500, EndReason::Done).unwrap().clone();
        assert_eq!(b.total_ns(), 1400);
        assert_eq!(b.stage_sum_ns(), 1400);
        assert_eq!(
            b.stages,
            vec![
                (Stage::Parse, 300),
                (Stage::Service, 500),
                (Stage::Transfer, 600)
            ]
        );
    }

    #[test]
    fn non_monotone_marks_are_clamped() {
        let mut t = RequestTracker::bounded(16);
        t.begin(1, 1000, Stage::Parse);
        // Retroactive mark earlier than the previous one: clamped, so the
        // Service stage gets zero duration rather than a negative one.
        t.mark_next(1, Stage::Service, 500);
        let b = t.finish_next(1, 1200, EndReason::Done).unwrap();
        assert_eq!(b.stage_sum_ns(), b.total_ns());
        assert_eq!(b.duration_of(Stage::Parse), 0);
        assert_eq!(b.duration_of(Stage::Service), 200);
    }

    #[test]
    fn pipelined_requests_are_fifo() {
        let mut t = RequestTracker::bounded(16);
        t.begin(7, 0, Stage::Parse);
        t.begin(7, 0, Stage::Parse);
        // First service mark lands on req 0, second on req 1.
        t.mark_next(7, Stage::Service, 10);
        t.mark_next(7, Stage::Service, 20);
        let b0 = t.finish_next(7, 30, EndReason::Done).unwrap().clone();
        let b1 = t.finish_next(7, 40, EndReason::Done).unwrap().clone();
        assert_eq!((b0.seq, b1.seq), (0, 1));
        assert_eq!(b0.duration_of(Stage::Parse), 10);
        assert_eq!(b1.duration_of(Stage::Parse), 20);
    }

    #[test]
    fn finish_all_attributes_end_reason() {
        let mut t = RequestTracker::bounded(16);
        t.begin(3, 0, Stage::Parse);
        t.begin(3, 5, Stage::Parse);
        assert_eq!(t.open_len(), 2);
        assert_eq!(t.finish_all(3, 100, EndReason::Timeout), 2);
        assert_eq!(t.open_len(), 0);
        assert!(t.completed().iter().all(|b| b.end == EndReason::Timeout));
        assert_eq!(t.end_counts(), vec![(EndReason::Timeout, 2)]);
    }

    #[test]
    fn archive_capacity_counts_drops() {
        let mut t = RequestTracker::bounded(1);
        t.begin(1, 0, Stage::Parse);
        t.begin(2, 0, Stage::Parse);
        t.finish_next(1, 10, EndReason::Done);
        assert!(t.finish_next(2, 10, EndReason::Done).is_none());
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.completed().len(), 1);
    }

    #[test]
    fn span_log_evicts_oldest() {
        let mut log = SpanLog::bounded(2);
        for i in 0..3u64 {
            log.push(Span {
                conn: i,
                req: None,
                stage: Stage::Idle,
                start_ns: i,
                end_ns: i + 1,
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.spans().next().unwrap().conn, 1);
    }
}
