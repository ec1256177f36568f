//! Adversarial clients — degenerate peers for the resilience harness.
//!
//! Each attack models a real-world misbehaviour class that an event-driven
//! server must survive on its own bookkeeping (no blocked thread notices on
//! its behalf):
//!
//! * [`AttackKind::SlowLoris`] — opens a request head and dribbles one
//!   padding header per interval, never finishing the head;
//! * [`AttackKind::ByteDrip`] — sends the request line itself one byte per
//!   interval;
//! * [`AttackKind::NeverReads`] — pipelines many requests and never reads a
//!   byte of reply, wedging the server's send path;
//! * [`AttackKind::IdleFlood`] — opens connections and sends nothing;
//! * [`AttackKind::FdStorm`] — opens as many simultaneous connections as it
//!   can and holds them, pushing the server toward fd exhaustion.
//!
//! Attack clients reconnect when the server disposes of them, keeping the
//! pressure constant for the whole attack window, and classify every
//! disposal they observe (408/431/503 answers vs silent resets) so the
//! harness can assert *how* the server defended itself, not just that it
//! survived.

use httpcore::parse_response_head;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Which degenerate peer to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    SlowLoris,
    ByteDrip,
    NeverReads,
    IdleFlood,
    FdStorm,
}

impl AttackKind {
    pub const ALL: [AttackKind; 5] = [
        AttackKind::SlowLoris,
        AttackKind::ByteDrip,
        AttackKind::NeverReads,
        AttackKind::IdleFlood,
        AttackKind::FdStorm,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            AttackKind::SlowLoris => "slow-loris",
            AttackKind::ByteDrip => "byte-drip",
            AttackKind::NeverReads => "never-reads",
            AttackKind::IdleFlood => "idle-flood",
            AttackKind::FdStorm => "fd-storm",
        }
    }
}

/// One attack run's parameters.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    pub target: SocketAddr,
    pub kind: AttackKind,
    /// Concurrent adversarial connections (threads for the dribbling
    /// attacks; a single holder thread multiplexes IdleFlood/FdStorm).
    pub conns: usize,
    /// Attack window.
    pub duration: Duration,
    /// Cadence for loris/drip bytes.
    pub drip_interval: Duration,
    /// Request target used by NeverReads (point it at a large body so the
    /// un-drained replies actually wedge the server's send buffer).
    pub path: String,
}

impl AttackConfig {
    pub fn new(target: SocketAddr, kind: AttackKind) -> Self {
        AttackConfig {
            target,
            kind,
            conns: 8,
            duration: Duration::from_secs(2),
            drip_interval: Duration::from_millis(100),
            path: "/f/0".to_string(),
        }
    }
}

/// What the adversarial clients observed. All counters are totals across
/// the attack's connections.
#[derive(Debug, Default, Clone)]
pub struct AttackReport {
    /// Connections successfully opened.
    pub opened: u64,
    /// `connect()` failures (kernel backlog overflow, refusals at SYN).
    pub connect_failed: u64,
    /// Disposals answered with `408 Request Timeout`.
    pub answered_408: u64,
    /// Disposals answered with `431 Request Header Fields Too Large`.
    pub answered_431: u64,
    /// Disposals answered with `503 Service Unavailable`.
    pub answered_503: u64,
    /// Connections the server closed without an HTTP answer (FIN or RST —
    /// the correct disposal for idle floods and never-reads peers).
    pub closed_by_server: u64,
    /// Connections still open when the attack window ended — what a
    /// defenseless server shows: every adversarial socket survives.
    pub held_to_end: u64,
}

impl AttackReport {
    fn merge(&mut self, other: &AttackReport) {
        self.opened += other.opened;
        self.connect_failed += other.connect_failed;
        self.answered_408 += other.answered_408;
        self.answered_431 += other.answered_431;
        self.answered_503 += other.answered_503;
        self.closed_by_server += other.closed_by_server;
        self.held_to_end += other.held_to_end;
    }

    /// Total disposals the server performed (any mechanism).
    pub fn disposed(&self) -> u64 {
        self.answered_408 + self.answered_431 + self.answered_503 + self.closed_by_server
    }
}

/// Run one attack to completion (blocks for `cfg.duration`).
pub fn run_attack(cfg: &AttackConfig) -> AttackReport {
    let deadline = Instant::now() + cfg.duration;
    match cfg.kind {
        AttackKind::IdleFlood | AttackKind::FdStorm => holder_attack(cfg, deadline),
        _ => {
            let mut handles = Vec::new();
            for _ in 0..cfg.conns {
                let cfg = cfg.clone();
                handles.push(std::thread::spawn(move || dribble_attack(&cfg, deadline)));
            }
            let mut report = AttackReport::default();
            for h in handles {
                if let Ok(r) = h.join() {
                    report.merge(&r);
                }
            }
            report
        }
    }
}

/// Read whatever the server sent (bounded, non-blocking-ish via a short
/// read timeout) and classify the disposal. Returns true when the
/// connection is finished (server closed or answered).
fn classify_disposal(stream: &mut TcpStream, report: &mut AttackReport) -> bool {
    let mut buf = Vec::with_capacity(512);
    let mut tmp = [0u8; 512];
    let _ = stream.set_read_timeout(Some(Duration::from_millis(5)));
    loop {
        match stream.read(&mut tmp) {
            Ok(0) => {
                // Orderly or abortive close; classify any answer we read.
                record_status(&buf, report);
                return true;
            }
            Ok(n) => {
                buf.extend_from_slice(&tmp[..n]);
                // A complete head is enough; the server closes after it.
                if let Some(Ok(_)) = parse_response_head(&buf) {
                    record_status(&buf, report);
                    return true;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return false; // nothing (more) from the server yet
            }
            Err(_) => {
                // Reset — classify anything that arrived before it.
                record_status(&buf, report);
                return true;
            }
        }
    }
}

fn record_status(buf: &[u8], report: &mut AttackReport) {
    match parse_response_head(buf) {
        Some(Ok(head)) => match head.status {
            408 => report.answered_408 += 1,
            431 => report.answered_431 += 1,
            503 => report.answered_503 += 1,
            _ => report.closed_by_server += 1,
        },
        _ => report.closed_by_server += 1,
    }
}

/// One dribbling connection at a time, reconnecting on disposal:
/// SlowLoris/ByteDrip feed bytes forever; NeverReads floods requests and
/// then refuses to drain replies.
fn dribble_attack(cfg: &AttackConfig, deadline: Instant) -> AttackReport {
    let mut report = AttackReport::default();
    while Instant::now() < deadline {
        let Ok(mut stream) = TcpStream::connect(cfg.target) else {
            report.connect_failed += 1;
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        report.opened += 1;
        let disposed = match cfg.kind {
            AttackKind::SlowLoris => {
                drip_bytes(&mut stream, cfg, deadline, &mut report, DripShape::Headers)
            }
            AttackKind::ByteDrip => drip_bytes(
                &mut stream,
                cfg,
                deadline,
                &mut report,
                DripShape::RequestLine,
            ),
            AttackKind::NeverReads => never_reads(&mut stream, cfg, deadline, &mut report),
            _ => unreachable!("holder attacks don't dribble"),
        };
        if !disposed {
            report.held_to_end += 1;
            return report; // window ended with the connection still alive
        }
    }
    report
}

enum DripShape {
    /// A finished request line, then one padding header per interval —
    /// forever short of the final CRLF.
    Headers,
    /// The request line itself, one byte per interval.
    RequestLine,
}

/// Returns true when the server disposed of the connection.
fn drip_bytes(
    stream: &mut TcpStream,
    cfg: &AttackConfig,
    deadline: Instant,
    report: &mut AttackReport,
    shape: DripShape,
) -> bool {
    let opener: &[u8] = match shape {
        DripShape::Headers => b"GET /f/0 HTTP/1.1\r\nHost: a\r\n",
        DripShape::RequestLine => b"",
    };
    if !opener.is_empty() && stream.write_all(opener).is_err() {
        report.closed_by_server += 1;
        return true;
    }
    let line = b"GET /f/0 HTTP/1.1\r\n";
    let mut line_pos = 0usize;
    while Instant::now() < deadline {
        let sent = match shape {
            DripShape::Headers => stream.write_all(b"X-Pad: y\r\n"),
            DripShape::RequestLine => {
                let b = line[line_pos % line.len()];
                line_pos += 1;
                stream.write_all(&[b])
            }
        };
        if sent.is_err() {
            // RST on a previous disposal surfaces as a write error; any
            // answer the server sent first is still in the receive queue.
            classify_disposal(stream, report);
            return true;
        }
        if classify_disposal(stream, report) {
            return true;
        }
        std::thread::sleep(cfg.drip_interval.min(Duration::from_millis(100)));
    }
    false
}

/// Pipeline a burst of requests, then hold the socket without reading.
/// Returns true when the server disposed of the connection.
fn never_reads(
    stream: &mut TcpStream,
    cfg: &AttackConfig,
    deadline: Instant,
    report: &mut AttackReport,
) -> bool {
    // A deep pipeline of replies the client will never drain: once our
    // receive window and the server's send buffer fill, the server's write
    // path is wedged and only its write-stall deadline can free it.
    let burst: String = (0..64)
        .map(|_| format!("GET {} HTTP/1.1\r\nHost: a\r\n\r\n", cfg.path))
        .collect();
    if stream.write_all(burst.as_bytes()).is_err() {
        report.closed_by_server += 1;
        return true;
    }
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        // Never read. A dead socket surfaces on the next tiny write (the
        // pipelined requests keep the server's reply queue loaded anyway).
        if stream.take_error().ok().flatten().is_some()
            || stream
                .write_all(format!("GET {} HTTP/1.1\r\nHost: a\r\n\r\n", cfg.path).as_bytes())
                .is_err()
        {
            report.closed_by_server += 1;
            return true;
        }
    }
    false
}

/// IdleFlood / FdStorm: one thread opening and holding many sockets,
/// sweeping them for server-side disposals and reopening to keep the
/// pressure constant.
fn holder_attack(cfg: &AttackConfig, deadline: Instant) -> AttackReport {
    let mut report = AttackReport::default();
    let mut held: Vec<TcpStream> = Vec::with_capacity(cfg.conns);
    let mut tmp = [0u8; 512];
    while Instant::now() < deadline {
        // Top up to the target count. FdStorm opens as fast as it can;
        // IdleFlood paces itself so the flood looks like quiet clients.
        while held.len() < cfg.conns && Instant::now() < deadline {
            match TcpStream::connect_timeout(&cfg.target, Duration::from_millis(200)) {
                Ok(s) => {
                    let _ = s.set_nonblocking(true);
                    report.opened += 1;
                    held.push(s);
                }
                Err(_) => {
                    report.connect_failed += 1;
                    break; // backlog full or fds refused: stop topping up
                }
            }
            if cfg.kind == AttackKind::IdleFlood {
                break; // one new idle socket per sweep
            }
        }
        // Sweep for disposals.
        held.retain_mut(|s| {
            let mut local = AttackReport::default();
            let done = match s.read(&mut tmp) {
                Ok(0) => {
                    local.closed_by_server += 1;
                    true
                }
                Ok(n) => {
                    record_status(&tmp[..n], &mut local);
                    true
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
                Err(_) => {
                    local.closed_by_server += 1;
                    true
                }
            };
            report.merge(&local);
            !done
        });
        std::thread::sleep(Duration::from_millis(10));
    }
    report.held_to_end += held.len() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpcore::{ContentStore, LifecyclePolicy};
    use std::sync::Arc;

    fn content() -> Arc<ContentStore> {
        let mut rng = desim::Rng::new(7);
        let fs = workload::FileSet::build(
            &workload::SurgeConfig {
                num_files: 10,
                tail_prob: 0.0,
                ..workload::SurgeConfig::default()
            },
            &mut rng,
        );
        Arc::new(ContentStore::from_fileset(&fs))
    }

    fn hardened_nio() -> nioserver::NioServer {
        nioserver::NioServer::start(nioserver::NioConfig {
            workers: 1,
            backend: nioserver::BackendKind::Epoll,
            accept: nioserver::AcceptMode::from_env(),
            shed_watermark: None,
            lifecycle: LifecyclePolicy::hardened(
                Duration::from_millis(400),
                Duration::from_millis(300),
                Duration::from_millis(400),
            ),
            content: content(),
        })
        .unwrap()
    }

    #[test]
    fn loris_clients_are_answered_408() {
        let server = hardened_nio();
        let mut cfg = AttackConfig::new(server.addr(), AttackKind::SlowLoris);
        cfg.conns = 4;
        cfg.duration = Duration::from_secs(2);
        let report = run_attack(&cfg);
        assert!(report.opened >= 4, "report: {report:?}");
        assert!(report.answered_408 > 0, "report: {report:?}");
        // At most each thread's final connection (opened just before the
        // window closed) may still be alive; every earlier one was disposed.
        assert!(
            report.held_to_end <= 4,
            "loris sockets outlived their deadline: {report:?}"
        );
        server.shutdown();
    }

    #[test]
    fn idle_flood_is_reclaimed() {
        let server = hardened_nio();
        let mut cfg = AttackConfig::new(server.addr(), AttackKind::IdleFlood);
        cfg.conns = 8;
        cfg.duration = Duration::from_secs(2);
        let report = run_attack(&cfg);
        assert!(report.opened >= 4, "report: {report:?}");
        assert!(report.closed_by_server > 0, "report: {report:?}");
        server.shutdown();
    }

    #[test]
    fn undefended_server_holds_every_idle_socket() {
        // The contrast case: with the paper-default policy nothing disposes
        // of idle adversaries — exactly the behaviour Fig 3 celebrates and
        // the resilience harness measures the cost of.
        let server = nioserver::NioServer::start(nioserver::NioConfig {
            workers: 1,
            backend: nioserver::BackendKind::Epoll,
            accept: nioserver::AcceptMode::from_env(),
            shed_watermark: None,
            lifecycle: LifecyclePolicy::default(),
            content: content(),
        })
        .unwrap();
        let mut cfg = AttackConfig::new(server.addr(), AttackKind::IdleFlood);
        cfg.conns = 6;
        cfg.duration = Duration::from_millis(800);
        let report = run_attack(&cfg);
        assert_eq!(report.closed_by_server, 0, "report: {report:?}");
        assert!(report.held_to_end > 0, "report: {report:?}");
        server.shutdown();
    }
}
