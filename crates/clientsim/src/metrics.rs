//! Aggregated measurements across the emulated client population —
//! the simulation's equivalent of httperf's output block.

use desim::{SimDuration, SimTime};
use metrics::{ClientError, ErrorCounters, Histogram, TrafficCounters, WindowedSeries};

/// Everything the load generator measures, shared by all clients.
#[derive(Debug)]
pub struct ClientMetrics {
    /// Per-reply response time (request sent → last byte received), µs.
    pub response_time_us: Histogram,
    /// Connection establishment time (SYN → established), µs.
    pub connect_time_us: Histogram,
    /// Replies completed, per 1 s window (throughput).
    pub replies: WindowedSeries,
    /// Client-timeout errors per window (figure 3a).
    pub timeout_series: WindowedSeries,
    /// Connection-reset errors per window (figure 3b).
    pub reset_series: WindowedSeries,
    /// Explicit connection refusals per window (admission control and
    /// graceful drain make these; silent SYN drops do not).
    pub refused_series: WindowedSeries,
    /// Error totals by kind.
    pub errors: ErrorCounters,
    /// Request/reply/session/byte totals.
    pub traffic: TrafficCounters,
    /// Histograms and error totals only accumulate after this instant
    /// (warm-up exclusion); series always record and trim by window instead.
    measure_from: SimTime,
}

impl ClientMetrics {
    pub fn new(window: SimDuration) -> Self {
        ClientMetrics {
            response_time_us: Histogram::default_precision(),
            connect_time_us: Histogram::default_precision(),
            replies: WindowedSeries::new(window),
            timeout_series: WindowedSeries::new(window),
            reset_series: WindowedSeries::new(window),
            refused_series: WindowedSeries::new(window),
            errors: ErrorCounters::default(),
            traffic: TrafficCounters::default(),
            measure_from: SimTime::ZERO,
        }
    }

    /// Exclude everything before `t` from histograms and counters.
    pub fn set_measure_from(&mut self, t: SimTime) {
        self.measure_from = t;
    }

    /// The measurement-start boundary.
    pub fn measure_from(&self) -> SimTime {
        self.measure_from
    }

    #[inline]
    fn measuring(&self, now: SimTime) -> bool {
        now >= self.measure_from
    }

    /// A reply fully arrived.
    pub fn record_reply(&mut self, now: SimTime, response_time: SimDuration, bytes: u64) {
        self.replies.record_one(now);
        if self.measuring(now) {
            self.response_time_us
                .record(response_time.as_nanos() / 1_000);
            self.traffic.replies_received += 1;
            self.traffic.bytes_received += bytes;
        }
    }

    /// A connection was established.
    pub fn record_connect(&mut self, now: SimTime, connect_time: SimDuration) {
        if self.measuring(now) {
            self.connect_time_us.record(connect_time.as_nanos() / 1_000);
            self.traffic.connections_established += 1;
        }
    }

    /// A request was put on the wire.
    pub fn record_request_sent(&mut self, now: SimTime, bytes: u64) {
        if self.measuring(now) {
            self.traffic.requests_sent += 1;
            self.traffic.bytes_sent += bytes;
        }
    }

    /// An error was observed.
    pub fn record_error(&mut self, now: SimTime, kind: ClientError) {
        match kind {
            ClientError::ClientTimeout => self.timeout_series.record_one(now),
            ClientError::ConnectionReset => self.reset_series.record_one(now),
            ClientError::ConnectionRefused => self.refused_series.record_one(now),
            _ => {}
        }
        if self.measuring(now) {
            self.errors.record(kind);
        }
    }

    /// The client scheduled a policy-driven reconnect after an error.
    pub fn record_retry(&mut self, now: SimTime) {
        if self.measuring(now) {
            self.traffic.retries += 1;
        }
    }

    /// A session ran to completion (or aborted).
    pub fn record_session_end(&mut self, now: SimTime, completed: bool) {
        if self.measuring(now) {
            if completed {
                self.traffic.sessions_completed += 1;
            } else {
                self.traffic.sessions_aborted += 1;
            }
        }
    }

    /// Steady-state reply throughput, skipping warm-up/cool-down windows.
    pub fn throughput_rps(&self, skip_head: usize, skip_tail: usize) -> f64 {
        self.replies.steady_rate(skip_head, skip_tail)
    }

    /// Mean response time in milliseconds over the measured region.
    pub fn mean_response_ms(&self) -> f64 {
        self.response_time_us.mean() / 1_000.0
    }

    /// Mean connection time in milliseconds over the measured region.
    pub fn mean_connect_ms(&self) -> f64 {
        self.connect_time_us.mean() / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> ClientMetrics {
        ClientMetrics::new(SimDuration::from_secs(1))
    }

    #[test]
    fn warmup_exclusion() {
        let mut cm = m();
        cm.set_measure_from(SimTime::from_secs(10));
        cm.record_reply(SimTime::from_secs(5), SimDuration::from_millis(3), 100);
        assert_eq!(cm.traffic.replies_received, 0);
        assert!(cm.response_time_us.is_empty());
        // ... but the throughput series still sees the early reply.
        assert!(!cm.replies.is_empty());
        cm.record_reply(SimTime::from_secs(11), SimDuration::from_millis(3), 100);
        assert_eq!(cm.traffic.replies_received, 1);
        assert_eq!(cm.response_time_us.count(), 1);
    }

    #[test]
    fn error_series_split_by_kind() {
        let mut cm = m();
        cm.record_error(SimTime::from_secs(1), ClientError::ClientTimeout);
        cm.record_error(SimTime::from_secs(1), ClientError::ConnectionReset);
        cm.record_error(SimTime::from_secs(1), ClientError::ConnectionReset);
        assert_eq!(cm.errors.client_timeout, 1);
        assert_eq!(cm.errors.connection_reset, 2);
        assert!((cm.timeout_series.mean_rate() - 0.5).abs() < 1e-9);
        assert!((cm.reset_series.mean_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn response_time_units() {
        let mut cm = m();
        cm.record_reply(SimTime::from_secs(1), SimDuration::from_millis(250), 10);
        assert!((cm.mean_response_ms() - 250.0).abs() < 1.0);
    }

    #[test]
    fn session_accounting() {
        let mut cm = m();
        cm.record_session_end(SimTime::from_secs(1), true);
        cm.record_session_end(SimTime::from_secs(1), false);
        cm.record_session_end(SimTime::from_secs(1), true);
        assert_eq!(cm.traffic.sessions_completed, 2);
        assert_eq!(cm.traffic.sessions_aborted, 1);
    }

    #[test]
    fn refusals_get_their_own_series() {
        let mut cm = m();
        cm.record_error(SimTime::from_secs(1), ClientError::ConnectionRefused);
        cm.record_error(SimTime::from_secs(1), ClientError::ConnectionRefused);
        assert_eq!(cm.errors.connection_refused, 2);
        assert!(!cm.refused_series.is_empty());
        assert!(cm.timeout_series.is_empty());
        assert!(cm.reset_series.is_empty());
    }

    #[test]
    fn socket_errors_are_counted_but_have_no_series() {
        let mut cm = m();
        cm.record_error(SimTime::from_secs(2), ClientError::SocketError);
        assert_eq!(cm.errors.socket_error, 1);
        assert!(cm.timeout_series.is_empty());
        assert!(cm.reset_series.is_empty());
        assert!(cm.refused_series.is_empty());
    }

    #[test]
    fn warmup_excludes_every_counter() {
        let mut cm = m();
        cm.set_measure_from(SimTime::from_secs(10));
        assert_eq!(cm.measure_from(), SimTime::from_secs(10));
        let early = SimTime::from_secs(9);
        cm.record_connect(early, SimDuration::from_millis(1));
        cm.record_request_sent(early, 80);
        cm.record_retry(early);
        cm.record_session_end(early, true);
        cm.record_error(early, ClientError::ClientTimeout);
        let t = &cm.traffic;
        assert_eq!(
            (
                t.connections_established,
                t.requests_sent,
                t.bytes_sent,
                t.retries,
                t.sessions_completed
            ),
            (0, 0, 0, 0, 0)
        );
        assert_eq!(cm.errors.client_timeout, 0);
        assert!(cm.connect_time_us.is_empty());
        // The per-window error series still sees the early timeout.
        assert!(!cm.timeout_series.is_empty());
    }

    #[test]
    fn traffic_totals_add_bytes_and_retries() {
        let mut cm = m();
        let t = SimTime::from_secs(1);
        cm.record_request_sent(t, 80);
        cm.record_request_sent(t, 90);
        cm.record_reply(t, SimDuration::from_millis(1), 1_000);
        cm.record_retry(t);
        assert_eq!(cm.traffic.requests_sent, 2);
        assert_eq!(cm.traffic.bytes_sent, 170);
        assert_eq!(cm.traffic.bytes_received, 1_000);
        assert_eq!(cm.traffic.retries, 1);
    }

    #[test]
    fn connect_time_units() {
        let mut cm = m();
        cm.record_connect(SimTime::from_secs(1), SimDuration::from_micros(1_500));
        cm.record_connect(SimTime::from_secs(1), SimDuration::from_micros(2_500));
        assert_eq!(cm.traffic.connections_established, 2);
        assert!(
            (cm.mean_connect_ms() - 2.0).abs() < 0.05,
            "{}",
            cm.mean_connect_ms()
        );
    }
}
