//! `loadgen` — a live httperf-style workload generator.
//!
//! Drives either real server over loopback with the same session semantics
//! the simulation uses (and that the paper configured httperf with):
//! emulated clients running back-to-back sessions of ~6.5 requests in
//! pipelined bursts over persistent connections, heavy-tailed think times,
//! and a client socket timeout covering connect and reply progress. Errors
//! are classified exactly as httperf does: client timeouts vs connection
//! resets vs refusals.
//!
//! Think times can be scaled down (`think_scale`) so a test exercises the
//! full session machinery in hundreds of milliseconds.

pub mod adversary;

use desim::Rng;
use metrics::{ClientError, ErrorCounters, Histogram};
use obs::{EndReason, Obs, ObsConfig, Span, Stage};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use workload::{FileSet, SessionConfig, SessionPlan};

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    pub target: SocketAddr,
    /// Concurrent emulated clients (one thread each).
    pub clients: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    pub session: SessionConfig,
    /// Client socket timeout (httperf's 10 s; scale down for tests).
    pub client_timeout: Duration,
    /// Multiplier on think times (1.0 = faithful; tests use ~0.01).
    pub think_scale: f64,
    pub seed: u64,
    /// Typed observability capture (connect spans, per-reply stage
    /// breakdowns). `None` (the default) records nothing and costs one
    /// branch per hook — mirrors `TestbedConfig::obs` on the sim side.
    pub obs: Option<ObsConfig>,
    /// Opt-in retry with capped exponential backoff + jitter after a failed
    /// session (connect error, refusal, reset, timeout). `None` (the
    /// default) preserves the faithful httperf behaviour: fail, count, move
    /// on. Mirrors `ClientConfig::retry` on the sim side.
    pub retry: Option<faults::RetryPolicy>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            target: SocketAddr::from(([127, 0, 0, 1], 0)),
            clients: 8,
            duration: Duration::from_secs(2),
            session: SessionConfig::default(),
            client_timeout: Duration::from_secs(10),
            think_scale: 1.0,
            seed: 0x010A_D6E4,
            obs: None,
            retry: None,
        }
    }
}

/// Aggregated measurement across all emulated clients.
#[derive(Debug)]
pub struct LoadReport {
    pub replies: u64,
    pub requests: u64,
    pub bytes_received: u64,
    pub sessions_completed: u64,
    pub sessions_aborted: u64,
    /// Backoff-delayed re-attempts taken under `LoadConfig::retry` (counted
    /// separately — never folded into `requests` or the error counters).
    pub retries: u64,
    pub errors: ErrorCounters,
    /// Per-reply response time, µs.
    pub response_time_us: Histogram,
    /// Connection establishment time, µs.
    pub connect_time_us: Histogram,
    pub wall: Duration,
    /// Merged per-thread observability capture (empty unless
    /// `LoadConfig::obs` was set). Timestamps are wall nanoseconds since
    /// the run started — the live analogue of the simulator's virtual
    /// clock, so both layers export the same JSONL schema.
    pub obs: Obs,
}

impl LoadReport {
    fn new() -> LoadReport {
        LoadReport {
            replies: 0,
            requests: 0,
            bytes_received: 0,
            sessions_completed: 0,
            sessions_aborted: 0,
            retries: 0,
            errors: ErrorCounters::default(),
            response_time_us: Histogram::default_precision(),
            connect_time_us: Histogram::default_precision(),
            wall: Duration::ZERO,
            obs: Obs::disabled(),
        }
    }

    fn merge(&mut self, other: LoadReport) {
        self.replies += other.replies;
        self.requests += other.requests;
        self.bytes_received += other.bytes_received;
        self.sessions_completed += other.sessions_completed;
        self.sessions_aborted += other.sessions_aborted;
        self.retries += other.retries;
        self.errors.merge(&other.errors);
        self.response_time_us.merge(&other.response_time_us);
        self.connect_time_us.merge(&other.connect_time_us);
        self.obs.merge(other.obs);
    }

    /// Render an httperf-style summary block.
    pub fn render(&self) -> String {
        format!(
            "replies: {} ({:.0}/s)  requests: {}  bytes: {}\n\
             response time: mean {:.2} ms, p50 {:.2} ms, p99 {:.2} ms\n\
             connect time:  mean {:.2} ms\n\
             sessions: {} completed, {} aborted ({} retries)\n\
             errors: {} client-timeout, {} connection-reset, {} refused, {} socket",
            self.replies,
            self.throughput_rps(),
            self.requests,
            self.bytes_received,
            self.response_time_us.mean() / 1000.0,
            self.response_time_us.quantile(0.5) as f64 / 1000.0,
            self.response_time_us.quantile(0.99) as f64 / 1000.0,
            self.connect_time_us.mean() / 1000.0,
            self.sessions_completed,
            self.sessions_aborted,
            self.retries,
            self.errors.client_timeout,
            self.errors.connection_reset,
            self.errors.connection_refused,
            self.errors.socket_error,
        )
    }

    /// Replies per second over the run.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.replies as f64 / self.wall.as_secs_f64()
        }
    }
}

/// Run the generator against a live server. Blocks for `cfg.duration`.
pub fn run(cfg: &LoadConfig, files: &FileSet) -> LoadReport {
    assert!(cfg.clients > 0);
    let start = Instant::now();
    let deadline = start + cfg.duration;
    let reports: Vec<LoadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|i| {
                let cfg = cfg.clone();
                scope.spawn(move || client_loop(&cfg, files, i as u64, start, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut total = LoadReport::new();
    if let Some(oc) = &cfg.obs {
        total.obs = Obs::new(oc);
    }
    for r in reports {
        total.merge(r);
    }
    total.wall = start.elapsed();
    total
}

/// Wall nanoseconds since the run epoch — the live layer's clock.
fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// What ended a burst exchange.
enum ExchangeEnd {
    Ok,
    Timeout,
    Reset,
    OtherError,
}

/// After a failed session: sleep the retry policy's capped-exponential
/// backoff (with jitter) and count the retry, or — with no policy — just the
/// fixed pacing delay `fallback` the faithful path always used.
fn backoff_or_pace(
    cfg: &LoadConfig,
    report: &mut LoadReport,
    attempt: &mut u32,
    rng: &mut Rng,
    deadline: Instant,
    fallback: Duration,
) {
    let wait = match &cfg.retry {
        Some(policy) if *attempt < policy.max_retries => {
            report.retries += 1;
            let ns = policy.backoff_ns(*attempt, rng.f64());
            *attempt += 1;
            Duration::from_nanos(ns)
        }
        Some(_) => {
            // Retry budget exhausted: give up on this streak and start the
            // next session (if any) from a cold backoff curve.
            *attempt = 0;
            fallback
        }
        None => fallback,
    };
    let wait = wait.min(deadline.saturating_duration_since(Instant::now()));
    if !wait.is_zero() {
        std::thread::sleep(wait);
    }
}

fn classify(e: &io::Error) -> ExchangeEnd {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ExchangeEnd::Timeout,
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::ConnectionAborted => ExchangeEnd::Reset,
        _ => ExchangeEnd::OtherError,
    }
}

fn client_loop(
    cfg: &LoadConfig,
    files: &FileSet,
    id: u64,
    epoch: Instant,
    deadline: Instant,
) -> LoadReport {
    let mut report = LoadReport::new();
    if let Some(oc) = &cfg.obs {
        report.obs = Obs::new(oc);
    }
    let mut rng = Rng::new(cfg.seed ^ 0x5E55_0000).split_labeled(id);
    let mut scratch = vec![0u8; 64 * 1024];
    // Connection ids unique across client threads so merged captures never
    // collide: high bits carry the thread id.
    let mut conn_seq: u64 = 0;
    // Consecutive failed sessions (drives the backoff curve under
    // `cfg.retry`); reset by any successful connect.
    let mut retry_attempt: u32 = 0;
    'sessions: while Instant::now() < deadline {
        let plan = SessionPlan::generate(&cfg.session, files, &mut rng);
        conn_seq += 1;
        let conn = (id << 32) | conn_seq;
        let replies_before = report.replies;
        // Connect (measured).
        let t0 = Instant::now();
        let remaining = deadline.saturating_duration_since(t0);
        if remaining.is_zero() {
            break;
        }
        let stream = TcpStream::connect_timeout(
            &cfg.target,
            cfg.client_timeout
                .min(remaining.max(Duration::from_millis(10))),
        );
        let mut stream = match stream {
            Ok(s) => s,
            Err(e) => {
                let end = classify(&e);
                match end {
                    ExchangeEnd::Timeout => report.errors.record(ClientError::ClientTimeout),
                    // Any hard failure *during connect* — ECONNREFUSED, or a
                    // RST racing the handshake (the shed watermark's
                    // SO_LINGER(0) close) — is the server turning us away at
                    // the door: conn-refused, never conn-reset.
                    _ => report.errors.record(ClientError::ConnectionRefused),
                }
                if report.obs.on() {
                    // A refused/failed connect still leaves a typed record:
                    // a one-stage ConnectWait request — same shape the
                    // simulator emits for an explicit refusal.
                    let reason = match end {
                        ExchangeEnd::Timeout => EndReason::Timeout,
                        _ => EndReason::Refused,
                    };
                    let t = t0.saturating_duration_since(epoch).as_nanos() as u64;
                    report.obs.requests.begin(conn, t, Stage::ConnectWait);
                    report
                        .obs
                        .requests
                        .finish_next(conn, ns_since(epoch), reason);
                }
                report.sessions_aborted += 1;
                backoff_or_pace(
                    cfg,
                    &mut report,
                    &mut retry_attempt,
                    &mut rng,
                    deadline,
                    Duration::from_millis(20),
                );
                continue;
            }
        };
        retry_attempt = 0;
        report
            .connect_time_us
            .record(t0.elapsed().as_micros() as u64);
        if report.obs.on() {
            // Same interval connect_time_us measures, as a typed span.
            report.obs.spans.push(Span {
                conn,
                req: None,
                stage: Stage::ConnectWait,
                start_ns: t0.saturating_duration_since(epoch).as_nanos() as u64,
                end_ns: ns_since(epoch),
            });
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(cfg.client_timeout));

        for (bi, burst) in plan.bursts.iter().enumerate() {
            if bi > 0 {
                let think = burst.think_before.as_secs_f64() * cfg.think_scale;
                let think = Duration::from_secs_f64(think);
                if Instant::now() + think >= deadline {
                    report.sessions_aborted += 1;
                    continue 'sessions;
                }
                std::thread::sleep(think);
            }
            let end = exchange_burst(
                files,
                &mut stream,
                conn,
                epoch,
                &burst.files,
                &mut scratch,
                &mut report,
            );
            // A reset before the very first reply of a session is the
            // accept-path refusing us (shed watermark's SO_LINGER(0) close,
            // or a drain racing the accept): classify it as a refusal, not
            // a mid-stream reset.
            let refused_at_door =
                matches!(end, ExchangeEnd::Reset) && bi == 0 && report.replies == replies_before;
            if report.obs.on() {
                // Close out whatever the burst left in flight with the
                // EndReason the error classification implies.
                let reason = match end {
                    ExchangeEnd::Ok => None,
                    ExchangeEnd::Timeout => Some(EndReason::Timeout),
                    ExchangeEnd::Reset if refused_at_door => Some(EndReason::Refused),
                    ExchangeEnd::Reset => Some(EndReason::Reset),
                    ExchangeEnd::OtherError => Some(EndReason::Closed),
                };
                if let Some(r) = reason {
                    report.obs.requests.finish_all(conn, ns_since(epoch), r);
                }
            }
            let err = match end {
                ExchangeEnd::Ok => continue,
                ExchangeEnd::Timeout => ClientError::ClientTimeout,
                ExchangeEnd::Reset if refused_at_door => ClientError::ConnectionRefused,
                ExchangeEnd::Reset => ClientError::ConnectionReset,
                ExchangeEnd::OtherError => ClientError::SocketError,
            };
            report.errors.record(err);
            report.sessions_aborted += 1;
            backoff_or_pace(
                cfg,
                &mut report,
                &mut retry_attempt,
                &mut rng,
                deadline,
                Duration::ZERO,
            );
            continue 'sessions;
        }
        report.sessions_completed += 1;
        // Connection closes on drop; the next session opens a fresh one.
    }
    report
}

/// Send one pipelined burst and read all its replies.
#[allow(clippy::too_many_arguments)]
fn exchange_burst(
    files: &FileSet,
    stream: &mut TcpStream,
    conn: u64,
    epoch: Instant,
    targets: &[workload::FileId],
    scratch: &mut [u8],
    report: &mut LoadReport,
) -> ExchangeEnd {
    // Pipelined request block.
    let mut out = Vec::with_capacity(targets.len() * 64);
    for f in targets {
        out.extend_from_slice(format!("GET /f/{} HTTP/1.1\r\nHost: sut\r\n\r\n", f.0).as_bytes());
    }
    let sent_at = Instant::now();
    if report.obs.on() {
        // Each pipelined request opens in Parse at the send instant —
        // identical semantics to the simulator's SendBurst hook, so the
        // breakdown totals are the same response time the histogram records.
        let t = sent_at.saturating_duration_since(epoch).as_nanos() as u64;
        for _ in targets {
            report.obs.requests.begin(conn, t, Stage::Parse);
        }
    }
    if let Err(e) = stream.write_all(&out) {
        return classify(&e);
    }
    report.requests += targets.len() as u64;

    // Read replies with Content-Length framing.
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut expected = targets.len();
    let expect_sizes: Vec<u64> = targets.iter().map(|&f| files.size_of(f)).collect();
    let mut idx = 0;
    // When the current reply's head became visible before its body finished
    // — the client-observable service/transfer boundary.
    let mut head_seen_ns: Option<u64> = None;
    while expected > 0 {
        // Parse as many complete replies as the buffer holds.
        loop {
            match httpcore::parse_response_head(&buf) {
                Some(Ok(head)) => {
                    let total = head.head_len + head.content_length;
                    if buf.len() < total {
                        if report.obs.on() && head_seen_ns.is_none() {
                            head_seen_ns = Some(ns_since(epoch));
                        }
                        break; // need more body bytes
                    }
                    report.replies += 1;
                    report.bytes_received += total as u64;
                    report
                        .response_time_us
                        .record(sent_at.elapsed().as_micros() as u64);
                    if report.obs.on() {
                        let done_ns = ns_since(epoch);
                        // Service ends when the head surfaced; Transfer
                        // carries the body tail. A reply arriving whole
                        // degenerates to a zero-width Transfer.
                        let head_ns = head_seen_ns.take().unwrap_or(done_ns);
                        report.obs.requests.mark_next(conn, Stage::Service, head_ns);
                        report
                            .obs
                            .requests
                            .mark_next(conn, Stage::Transfer, done_ns);
                        report
                            .obs
                            .requests
                            .finish_next(conn, done_ns, EndReason::Done);
                    }
                    if head.status == 200 {
                        debug_assert_eq!(
                            head.content_length as u64, expect_sizes[idx],
                            "reply size mismatch"
                        );
                    }
                    idx += 1;
                    expected -= 1;
                    buf.drain(..total);
                    if expected == 0 {
                        return ExchangeEnd::Ok;
                    }
                }
                Some(Err(_)) => return ExchangeEnd::OtherError,
                None => break,
            }
        }
        match stream.read(scratch) {
            Ok(0) => return ExchangeEnd::Reset, // server closed mid-burst
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return classify(&e),
        }
    }
    ExchangeEnd::Ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpcore::ContentStore;
    use std::sync::Arc;
    use workload::SurgeConfig;

    fn small_files() -> FileSet {
        let mut rng = Rng::new(3);
        FileSet::build(
            &SurgeConfig {
                num_files: 30,
                tail_prob: 0.0,
                body_mu: 7.0, // small files: fast tests
                ..SurgeConfig::default()
            },
            &mut rng,
        )
    }

    fn quick_cfg(target: SocketAddr) -> LoadConfig {
        LoadConfig {
            target,
            clients: 4,
            duration: Duration::from_millis(1200),
            session: SessionConfig::default(),
            client_timeout: Duration::from_secs(5),
            think_scale: 0.005,
            seed: 42,
            obs: None,
            retry: None,
        }
    }

    #[test]
    fn drives_the_nio_server() {
        let files = small_files();
        let content = Arc::new(ContentStore::from_fileset(&files));
        let server = nioserver::NioServer::start(nioserver::NioConfig {
            workers: 2,
            backend: nioserver::BackendKind::Epoll,
            accept: nioserver::AcceptMode::from_env(),
            shed_watermark: None,
            lifecycle: httpcore::LifecyclePolicy::default(),
            content,
        })
        .unwrap();
        let report = run(&quick_cfg(server.addr()), &files);
        assert!(report.replies > 20, "replies {}", report.replies);
        assert!(report.sessions_completed > 0);
        assert_eq!(report.errors.connection_reset, 0, "nio never resets");
        assert!(report.throughput_rps() > 10.0);
        assert!(report.response_time_us.count() > 0);
        server.shutdown();
    }

    #[test]
    fn drives_the_pool_server() {
        let files = small_files();
        let content = Arc::new(ContentStore::from_fileset(&files));
        let server = poolserver::PoolServer::start(poolserver::PoolConfig {
            pool_size: 8,
            lifecycle: httpcore::LifecyclePolicy::default(),
            shed_watermark: None,
            content,
        })
        .unwrap();
        let report = run(&quick_cfg(server.addr()), &files);
        assert!(report.replies > 20, "replies {}", report.replies);
        assert!(report.sessions_completed > 0);
        server.shutdown();
    }

    #[test]
    fn counts_resets_against_short_idle_timeouts() {
        // Pool server with a 1 s idle timeout + unscaled multi-second think
        // times ⇒ the generator must observe connection resets, the live
        // analogue of figure 3(b).
        let files = small_files();
        let content = Arc::new(ContentStore::from_fileset(&files));
        let server = poolserver::PoolServer::start(poolserver::PoolConfig {
            pool_size: 8,
            lifecycle: httpcore::LifecyclePolicy {
                idle_timeout: Some(Duration::from_millis(300)),
                ..httpcore::LifecyclePolicy::default()
            },
            shed_watermark: None,
            content,
        })
        .unwrap();
        let cfg = LoadConfig {
            clients: 6,
            duration: Duration::from_secs(3),
            // Keep think times real enough to exceed the 300 ms timeout.
            think_scale: 1.0,
            client_timeout: Duration::from_secs(5),
            ..quick_cfg(server.addr())
        };
        let report = run(&cfg, &files);
        assert!(
            report.errors.connection_reset > 0,
            "expected resets: {:?}",
            report.errors
        );
        server.shutdown();
    }

    #[test]
    fn captures_breakdowns_and_gauges_against_live_server() {
        use obs::GaugeKind;
        use std::sync::atomic::AtomicBool;

        let files = small_files();
        let content = Arc::new(ContentStore::from_fileset(&files));
        let server = nioserver::NioServer::start(nioserver::NioConfig {
            workers: 2,
            backend: nioserver::BackendKind::Epoll,
            accept: nioserver::AcceptMode::from_env(),
            shed_watermark: None,
            lifecycle: httpcore::LifecyclePolicy::default(),
            content,
        })
        .unwrap();
        // Stats thread sampling the server's atomic registry in wall time —
        // the live counterpart of the simulator's virtual-time Ev::ObsSample.
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = obs::spawn_sampler(
            server.gauges(),
            obs::gauge::kinds_for(false),
            Duration::from_millis(5),
            4096,
            Arc::clone(&stop),
        );
        let mut cfg = quick_cfg(server.addr());
        cfg.obs = Some(obs::ObsConfig::default());
        let mut report = run(&cfg, &files);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        report.obs.gauges.merge(sampler.join().unwrap());

        assert!(report.obs.on());
        // Every reply produced a breakdown obeying the stage invariants.
        let completed = report.obs.requests.completed();
        assert!(!completed.is_empty());
        assert!(completed.len() as u64 >= report.replies);
        for b in completed {
            assert!(b.end_ns >= b.start_ns);
            assert_eq!(b.stage_sum_ns(), b.total_ns(), "{b:?}");
            assert_eq!(b.stages.first().map(|&(s, _)| s), Some(Stage::Parse));
        }
        // Connect spans mirror the connect-time histogram.
        assert!(report
            .obs
            .spans
            .spans()
            .any(|s| s.stage == Stage::ConnectWait && s.end_ns >= s.start_ns));
        // The sampler saw the server's connections while the run was live.
        assert!(!report.obs.gauges.is_empty());
        assert!(report.obs.gauges.samples().iter().all(|s| s.value >= 0.0));
        assert!(report.obs.gauges.peak(GaugeKind::OpenConns) >= 1.0);
        server.shutdown();
    }

    #[test]
    fn refused_connections_are_counted() {
        // Nobody listens on this port (bind, learn the port, drop).
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let files = small_files();
        let cfg = LoadConfig {
            clients: 2,
            duration: Duration::from_millis(300),
            ..quick_cfg(addr)
        };
        let report = run(&cfg, &files);
        assert_eq!(report.replies, 0);
        assert!(report.errors.connection_refused > 0);
        assert!(report.sessions_aborted > 0);
        assert_eq!(report.retries, 0, "no retry policy, no retries");
    }

    #[test]
    fn retry_policy_backs_off_and_counts() {
        // Dead port + retry policy: each client burns its retry budget with
        // exponential pauses instead of hammering every 20 ms.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let files = small_files();
        let cfg = LoadConfig {
            clients: 2,
            duration: Duration::from_millis(500),
            retry: Some(faults::RetryPolicy {
                max_retries: 16,
                base_ns: 10_000_000, // 10 ms so the test stays fast
                cap_ns: 200_000_000,
                jitter_frac: 0.0,
            }),
            ..quick_cfg(addr)
        };
        let report = run(&cfg, &files);
        assert_eq!(report.replies, 0);
        assert!(report.retries > 0, "retries {}", report.retries);
        assert!(report.errors.connection_refused > 0);
        // Backoff pacing means far fewer attempts than the no-policy path's
        // 20 ms spin would produce in the same window.
        assert!(
            report.sessions_aborted < 25,
            "backoff not applied: {} aborts",
            report.sessions_aborted
        );
    }

    #[test]
    fn shed_refusals_classify_as_refused_not_reset() {
        // Watermark 0: the pool server abortively closes every accepted
        // connection before serving a byte. The generator must file these
        // under conn-refused (explicit refusal), not connection-reset.
        let files = small_files();
        let content = Arc::new(ContentStore::from_fileset(&files));
        let server = poolserver::PoolServer::start(poolserver::PoolConfig {
            pool_size: 4,
            lifecycle: httpcore::LifecyclePolicy::default(),
            shed_watermark: Some(0),
            content,
        })
        .unwrap();
        let mut cfg = LoadConfig {
            clients: 3,
            duration: Duration::from_millis(500),
            ..quick_cfg(server.addr())
        };
        cfg.obs = Some(obs::ObsConfig::default());
        let report = run(&cfg, &files);
        assert_eq!(report.replies, 0);
        assert!(
            report.errors.connection_refused > 0,
            "expected refusals: {:?}",
            report.errors
        );
        assert_eq!(
            report.errors.connection_reset, 0,
            "shed refusal misfiled as reset: {:?}",
            report.errors
        );
        assert!(
            server
                .stats()
                .refused
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
        );
        // The obs capture records them with the Refused end reason.
        assert!(report
            .obs
            .requests
            .completed()
            .iter()
            .any(|b| b.end == EndReason::Refused));
        server.shutdown();
    }
}
