//! The emulated httperf client state machine.
//!
//! Each client runs an endless loop of sessions against the SUT, exactly as
//! the paper configures httperf for "constant workload intensity": connect,
//! play the session's bursts (pipelined requests separated by think times),
//! close, immediately start the next session. A 10 s socket timeout guards
//! every phase that awaits the server (connect, reply); server-initiated
//! closes surface as connection resets on the client's next send.
//!
//! The state machine is *pure*: it never schedules anything itself. Every
//! transition returns a [`ClientAction`] telling the testbed what to do on
//! the client's behalf, which keeps this logic independently testable and
//! reusable by both simulated server architectures.

use crate::metrics::ClientMetrics;
use desim::{Rng, SimDuration, SimTime};
use faults::RetryPolicy;
use metrics::ClientError;
use workload::{FileId, FileSet, SessionConfig, SessionPlan};

/// Identifier of an emulated client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u32);

/// Client-side socket parameters.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// httperf's client timeout: applies to connect and to reply progress.
    /// The paper uses 10 s.
    pub timeout: SimDuration,
    /// TCP SYN retransmission interval when a connect attempt gets no
    /// answer (backlog overflow drops the SYN silently).
    pub syn_retry: SimDuration,
    /// Pause before reconnecting after a refused connection.
    pub refusal_backoff: SimDuration,
    /// Session shape.
    pub session: SessionConfig,
    /// Approximate bytes of an HTTP request on the wire (for accounting).
    pub request_bytes: u64,
    /// Opt-in recovery: reconnect after errors with capped exponential
    /// backoff + jitter instead of immediately. `None` (the default)
    /// reproduces the paper's httperf behaviour exactly.
    pub retry: Option<RetryPolicy>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            timeout: SimDuration::from_secs(10),
            syn_retry: SimDuration::from_secs(3),
            refusal_backoff: SimDuration::from_secs(1),
            session: SessionConfig::default(),
            request_bytes: 300,
            retry: None,
        }
    }
}

/// What the testbed must do next on behalf of this client.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Open a new connection now.
    Connect,
    /// Open a new connection after a delay (refusal backoff).
    ConnectAfter(SimDuration),
    /// Send these (pipelined) requests on the current connection.
    SendBurst(Vec<FileId>),
    /// Schedule a think-done wake-up after the delay.
    Think(SimDuration),
    /// Close the current connection cleanly, then open a new one
    /// (session boundary).
    CloseThenConnect,
}

/// Client protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientPhase {
    /// Not yet started.
    Idle,
    /// SYN out, waiting for establishment.
    Connecting,
    /// Burst sent, awaiting one or more replies.
    AwaitingReplies,
    /// Between bursts.
    Thinking,
}

/// One emulated client.
#[derive(Debug)]
pub struct Client {
    pub id: ClientId,
    cfg: ClientConfig,
    rng: Rng,
    phase: ClientPhase,
    plan: SessionPlan,
    burst_idx: usize,
    /// Send timestamps of requests whose replies are still outstanding
    /// (FIFO: HTTP/1.1 replies arrive in order).
    outstanding: std::collections::VecDeque<SimTime>,
    /// When the current connect attempt started (for connection time).
    connect_started: Option<SimTime>,
    /// Requests completed in the current session (for abort accounting).
    session_had_error: bool,
    /// Consecutive errors since the last successful establishment, used to
    /// escalate the retry backoff when a policy is configured.
    retry_attempt: u32,
}

impl Client {
    /// Create a client with its own RNG stream. It draws nothing until
    /// [`Client::on_start`] plans its first session, so building a large
    /// population costs no session draws.
    pub fn new(id: ClientId, cfg: ClientConfig, root_rng: &Rng) -> Client {
        Client {
            id,
            rng: root_rng.split_labeled(id.0 as u64),
            cfg,
            phase: ClientPhase::Idle,
            plan: SessionPlan { bursts: Vec::new() },
            burst_idx: 0,
            outstanding: std::collections::VecDeque::new(),
            connect_started: None,
            session_had_error: false,
            retry_attempt: 0,
        }
    }

    /// Current phase (for assertions and debugging).
    pub fn phase(&self) -> ClientPhase {
        self.phase
    }

    /// The configured client timeout.
    pub fn timeout(&self) -> SimDuration {
        self.cfg.timeout
    }

    /// The configured SYN retry interval.
    pub fn syn_retry(&self) -> SimDuration {
        self.cfg.syn_retry
    }

    /// Bytes a request occupies on the wire.
    pub fn request_bytes(&self) -> u64 {
        self.cfg.request_bytes
    }

    /// Number of replies currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// When the in-progress connect attempt started, while connecting.
    /// This is the anchor `ClientMetrics::record_connect` measures from, so
    /// observability spans built on it agree with the figure-4 metric.
    pub fn connecting_since(&self) -> Option<SimTime> {
        self.connect_started
    }

    fn fresh_session(&mut self, files: &FileSet) {
        self.plan = SessionPlan::generate(&self.cfg.session, files, &mut self.rng);
        self.burst_idx = 0;
        self.outstanding.clear();
        self.session_had_error = false;
    }

    /// The client begins its life: plan the first session and connect for
    /// it. Every session's plan is drawn when the session starts, from the
    /// client's own stream, so the draws are the same whatever the order
    /// clients start in.
    pub fn on_start(&mut self, now: SimTime, files: &FileSet) -> ClientAction {
        assert_eq!(self.phase, ClientPhase::Idle);
        self.fresh_session(files);
        self.phase = ClientPhase::Connecting;
        self.connect_started = Some(now);
        ClientAction::Connect
    }

    /// The connection was established: fire the first burst.
    pub fn on_connected(&mut self, now: SimTime, m: &mut ClientMetrics) -> ClientAction {
        assert_eq!(self.phase, ClientPhase::Connecting, "client {:?}", self.id);
        let started = self.connect_started.expect("no connect start recorded");
        m.record_connect(now, now.saturating_since(started));
        self.connect_started = None;
        self.retry_attempt = 0;
        self.start_burst(now, m)
    }

    /// Post-error reconnect action. Without a retry policy the client
    /// reconnects immediately (or after `fallback`, when the caller has
    /// one — the refusal path). With one, consecutive errors escalate a
    /// capped exponential backoff with jitter drawn from the client's own
    /// deterministic RNG stream; the escalation ladder resets after
    /// `max_retries` rungs (and on any successful establishment).
    fn reconnect_action(
        &mut self,
        now: SimTime,
        fallback: Option<SimDuration>,
        m: &mut ClientMetrics,
    ) -> ClientAction {
        let Some(policy) = self.cfg.retry else {
            return match fallback {
                Some(d) => {
                    self.connect_started = Some(now + d);
                    ClientAction::ConnectAfter(d)
                }
                None => {
                    self.connect_started = Some(now);
                    ClientAction::Connect
                }
            };
        };
        let attempt = self.retry_attempt;
        self.retry_attempt = if attempt >= policy.max_retries {
            0
        } else {
            attempt + 1
        };
        m.record_retry(now);
        let d = SimDuration::from_nanos(policy.backoff_ns(attempt, self.rng.f64()));
        self.connect_started = Some(now + d);
        ClientAction::ConnectAfter(d)
    }

    fn start_burst(&mut self, now: SimTime, m: &mut ClientMetrics) -> ClientAction {
        let burst = &self.plan.bursts[self.burst_idx];
        let files = burst.files.clone();
        self.phase = ClientPhase::AwaitingReplies;
        for _ in &files {
            self.outstanding.push_back(now);
            m.record_request_sent(now, self.cfg.request_bytes);
        }
        ClientAction::SendBurst(files)
    }

    /// A complete reply arrived. Returns the next action, or `None` when
    /// the client keeps waiting for more replies of the same burst.
    pub fn on_reply(
        &mut self,
        now: SimTime,
        bytes: u64,
        files: &FileSet,
        m: &mut ClientMetrics,
    ) -> Option<ClientAction> {
        assert_eq!(self.phase, ClientPhase::AwaitingReplies);
        let sent_at = self
            .outstanding
            .pop_front()
            .expect("reply with no outstanding request");
        m.record_reply(now, now.saturating_since(sent_at), bytes);
        if !self.outstanding.is_empty() {
            return None;
        }
        // Burst complete: think before the next, or finish the session.
        self.burst_idx += 1;
        if self.burst_idx < self.plan.bursts.len() {
            let think = self.plan.bursts[self.burst_idx].think_before;
            self.phase = ClientPhase::Thinking;
            Some(ClientAction::Think(think))
        } else {
            m.record_session_end(now, !self.session_had_error);
            self.fresh_session(files);
            self.phase = ClientPhase::Connecting;
            self.connect_started = Some(now);
            Some(ClientAction::CloseThenConnect)
        }
    }

    /// The think timer fired: send the next burst.
    pub fn on_think_done(&mut self, now: SimTime, m: &mut ClientMetrics) -> ClientAction {
        assert_eq!(self.phase, ClientPhase::Thinking);
        self.start_burst(now, m)
    }

    /// The client's socket timeout expired while connecting or awaiting
    /// replies: record the error, abort the session, start a new one.
    pub fn on_timeout(
        &mut self,
        now: SimTime,
        files: &FileSet,
        m: &mut ClientMetrics,
    ) -> ClientAction {
        assert!(
            matches!(
                self.phase,
                ClientPhase::Connecting | ClientPhase::AwaitingReplies
            ),
            "timeout in {:?}",
            self.phase
        );
        m.record_error(now, ClientError::ClientTimeout);
        m.record_session_end(now, false);
        self.fresh_session(files);
        self.phase = ClientPhase::Connecting;
        self.reconnect_action(now, None, m)
    }

    /// The server reset the connection (its idle timeout closed it and the
    /// client sent on the dead socket): error, new session.
    pub fn on_reset(
        &mut self,
        now: SimTime,
        files: &FileSet,
        m: &mut ClientMetrics,
    ) -> ClientAction {
        m.record_error(now, ClientError::ConnectionReset);
        m.record_session_end(now, false);
        self.fresh_session(files);
        self.phase = ClientPhase::Connecting;
        self.reconnect_action(now, None, m)
    }

    /// The server refused the connection (backlog overflow observed as an
    /// explicit refusal): error, back off, new session.
    pub fn on_refused(
        &mut self,
        now: SimTime,
        files: &FileSet,
        m: &mut ClientMetrics,
    ) -> ClientAction {
        assert_eq!(self.phase, ClientPhase::Connecting);
        m.record_error(now, ClientError::ConnectionRefused);
        m.record_session_end(now, false);
        self.fresh_session(files);
        // Remain in Connecting; the retry IS the next connect attempt.
        self.reconnect_action(now, Some(self.cfg.refusal_backoff), m)
    }

    /// The burst the client is about to send in `on_think_done` — exposed
    /// so the testbed can detect a server-side idle close *before* wasting
    /// the send (RST arrives in response to the first packet).
    pub fn peek_next_burst(&self) -> Option<&[FileId]> {
        self.plan
            .bursts
            .get(self.burst_idx)
            .map(|b| b.files.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Rng;
    use workload::SurgeConfig;

    fn fixture() -> (Client, FileSet, ClientMetrics) {
        let root = Rng::new(7);
        let mut build_rng = Rng::new(8);
        let files = FileSet::build(&SurgeConfig::default(), &mut build_rng);
        let client = Client::new(ClientId(0), ClientConfig::default(), &root);
        let m = ClientMetrics::new(SimDuration::from_secs(1));
        (client, files, m)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn start_connect_burst_cycle() {
        let (mut c, files, mut m) = fixture();
        assert_eq!(c.on_start(t(0), &files), ClientAction::Connect);
        assert_eq!(c.phase(), ClientPhase::Connecting);
        let act = c.on_connected(t(5), &mut m);
        let ClientAction::SendBurst(reqs) = act else {
            panic!("expected burst, got {act:?}");
        };
        assert!(!reqs.is_empty());
        assert_eq!(c.phase(), ClientPhase::AwaitingReplies);
        assert_eq!(c.outstanding(), reqs.len());
        assert!((m.mean_connect_ms() - 5.0).abs() < 0.1);

        // Drain the burst's replies.
        let mut last = None;
        for _ in 0..reqs.len() {
            last = c.on_reply(t(50), 1000, &files, &mut m);
        }
        match last.expect("burst completion must yield an action") {
            ClientAction::Think(d) => {
                // Think times are bounded below by the Pareto scale (0.5 s).
                assert!(d >= SimDuration::from_millis(500));
                assert_eq!(c.phase(), ClientPhase::Thinking);
            }
            ClientAction::CloseThenConnect => {
                // Single-burst session: immediately reconnects.
                assert_eq!(c.phase(), ClientPhase::Connecting);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.traffic.replies_received, reqs.len() as u64);
    }

    #[test]
    fn mid_burst_replies_return_none() {
        let (mut c, files, mut m) = fixture();
        c.on_start(t(0), &files);
        let ClientAction::SendBurst(reqs) = c.on_connected(t(1), &mut m) else {
            panic!()
        };
        if reqs.len() >= 2 {
            assert_eq!(c.on_reply(t(10), 500, &files, &mut m), None);
            assert_eq!(c.outstanding(), reqs.len() - 1);
        }
    }

    #[test]
    fn timeout_aborts_session_and_reconnects() {
        let (mut c, files, mut m) = fixture();
        c.on_start(t(0), &files);
        c.on_connected(t(1), &mut m);
        let act = c.on_timeout(t(10_001), &files, &mut m);
        assert_eq!(act, ClientAction::Connect);
        assert_eq!(c.phase(), ClientPhase::Connecting);
        assert_eq!(c.outstanding(), 0);
        assert_eq!(m.errors.client_timeout, 1);
        assert_eq!(m.traffic.sessions_aborted, 1);
    }

    #[test]
    fn reset_counts_and_restarts() {
        let (mut c, files, mut m) = fixture();
        c.on_start(t(0), &files);
        c.on_connected(t(1), &mut m);
        // Simulate think → server idle-closed → send hits reset.
        let act = c.on_reset(t(20_000), &files, &mut m);
        assert_eq!(act, ClientAction::Connect);
        assert_eq!(m.errors.connection_reset, 1);
    }

    #[test]
    fn refusal_backs_off() {
        let (mut c, files, mut m) = fixture();
        c.on_start(t(0), &files);
        let act = c.on_refused(t(1), &files, &mut m);
        assert_eq!(act, ClientAction::ConnectAfter(SimDuration::from_secs(1)));
        assert_eq!(m.errors.connection_refused, 1);
        assert_eq!(c.phase(), ClientPhase::Connecting);
    }

    #[test]
    fn retry_policy_backs_off_exponentially() {
        let root = Rng::new(7);
        let mut build_rng = Rng::new(8);
        let files = FileSet::build(&SurgeConfig::default(), &mut build_rng);
        let cfg = ClientConfig {
            retry: Some(RetryPolicy {
                max_retries: 3,
                base_ns: 100_000_000,
                cap_ns: 1_000_000_000,
                jitter_frac: 0.0,
            }),
            ..ClientConfig::default()
        };
        let mut c = Client::new(ClientId(0), cfg, &root);
        let mut m = ClientMetrics::new(SimDuration::from_secs(1));
        c.on_start(t(0), &files);
        c.on_connected(t(1), &mut m);
        // Consecutive timeouts escalate the backoff: 100 ms, 200 ms, 400 ms.
        let mut delays = Vec::new();
        for _ in 0..3 {
            match c.on_timeout(t(20_000), &files, &mut m) {
                ClientAction::ConnectAfter(d) => delays.push(d.as_nanos()),
                other => panic!("expected backoff, got {other:?}"),
            }
        }
        assert_eq!(delays, vec![100_000_000, 200_000_000, 400_000_000]);
        assert_eq!(m.traffic.retries, 3);
        // A successful establishment resets the ladder.
        c.on_connected(t(21_000), &mut m);
        match c.on_timeout(t(40_000), &files, &mut m) {
            ClientAction::ConnectAfter(d) => assert_eq!(d.as_nanos(), 100_000_000),
            other => panic!("expected backoff, got {other:?}"),
        }
    }

    #[test]
    fn full_session_completes_and_renews() {
        let (mut c, files, mut m) = fixture();
        c.on_start(t(0), &files);
        let mut now = 1u64;
        let mut action = c.on_connected(t(now), &mut m);
        let mut sessions = 0;
        let mut safety = 0;
        while sessions < 3 {
            safety += 1;
            assert!(safety < 10_000, "session loop did not terminate");
            match action {
                ClientAction::SendBurst(reqs) => {
                    now += 10;
                    let mut next = None;
                    for _ in 0..reqs.len() {
                        next = c.on_reply(t(now), 2000, &files, &mut m);
                    }
                    action = next.unwrap();
                }
                ClientAction::Think(d) => {
                    now += d.as_nanos() / 1_000_000 + 1;
                    action = c.on_think_done(t(now), &mut m);
                }
                ClientAction::CloseThenConnect => {
                    sessions += 1;
                    now += 5;
                    action = c.on_connected(t(now), &mut m);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(m.traffic.sessions_completed, 3);
        assert_eq!(m.traffic.sessions_aborted, 0);
        assert!(m.traffic.replies_received >= 3);
    }

    #[test]
    fn clients_are_deterministic_per_id() {
        let root = Rng::new(7);
        let mut build_rng = Rng::new(8);
        let files = FileSet::build(&SurgeConfig::default(), &mut build_rng);
        let mut a = Client::new(ClientId(3), ClientConfig::default(), &root);
        let mut b = Client::new(ClientId(3), ClientConfig::default(), &root);
        let mut m = ClientMetrics::new(SimDuration::from_secs(1));
        a.on_start(t(0), &files);
        b.on_start(t(0), &files);
        assert_eq!(a.on_connected(t(1), &mut m), b.on_connected(t(1), &mut m));
    }
}
