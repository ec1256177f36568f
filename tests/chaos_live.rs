//! Live-layer overload control over loopback sockets: graceful drain loses
//! no in-flight responses, and admission control refuses at the door.

#![cfg(target_os = "linux")]

use desim::Rng;
use httpcore::ContentStore;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{FileSet, SurgeConfig};

fn content() -> Arc<ContentStore> {
    let mut rng = Rng::new(7);
    let fs = FileSet::build(
        &SurgeConfig {
            num_files: 20,
            tail_prob: 0.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    );
    Arc::new(ContentStore::from_fileset(&fs))
}

fn start_nio(workers: usize, shed: Option<u64>) -> nioserver::NioServer {
    nioserver::NioServer::start(nioserver::NioConfig {
        workers,
        backend: nioserver::BackendKind::Epoll,
        accept: nioserver::AcceptMode::from_env(),
        shed_watermark: shed,
        lifecycle: httpcore::LifecyclePolicy::default(),
        content: content(),
    })
    .unwrap()
}

fn start_pool(pool_size: usize, shed: Option<u64>) -> poolserver::PoolServer {
    poolserver::PoolServer::start(poolserver::PoolConfig {
        pool_size,
        lifecycle: httpcore::LifecyclePolicy {
            idle_timeout: Some(Duration::from_secs(30)),
            ..httpcore::LifecyclePolicy::default()
        },
        shed_watermark: shed,
        content: content(),
    })
    .unwrap()
}

/// Open a keep-alive connection and run one complete request/response on
/// it, leaving the connection open and idle.
fn idle_after_one(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    read_one_response(&mut s);
    s
}

/// Read exactly one HTTP response (head + content-length body) off an open
/// connection; returns (status, body bytes).
fn read_one_response(s: &mut TcpStream) -> (u16, Vec<u8>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(head) = httpcore::parse_response_head(&buf) {
            let head = head.expect("valid response head");
            if buf.len() >= head.head_len + head.content_length {
                let body = buf[head.head_len..head.head_len + head.content_length].to_vec();
                return (head.status, body);
            }
        }
        let n = s.read(&mut chunk).expect("read response");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn nio_graceful_drain_delivers_in_flight_response() {
    let server = start_nio(1, None);
    let addr = server.addr();

    // Connection A: complete one exchange, then sit idle (keep-alive).
    let _a = idle_after_one(addr);

    // Connection B: half a request on the wire when the drain begins.
    let mut b = TcpStream::connect(addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    b.write_all(b"GET /f/1 HTT").unwrap();
    // Let the worker pull the partial bytes into its parser so the drain
    // sweep sees B as in-flight, not idle.
    std::thread::sleep(Duration::from_millis(150));

    let drain = std::thread::spawn(move || server.shutdown_graceful(Duration::from_secs(3)));
    std::thread::sleep(Duration::from_millis(100));
    // Finish the request mid-drain: the response must still arrive whole.
    b.write_all(b"P/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, body) = read_one_response(&mut b);
    assert_eq!(status, 200);
    assert!(!body.is_empty());

    let report = drain.join().unwrap();
    assert_eq!(report.aborted, 0, "no in-flight response may be lost");
    assert_eq!(report.drained, 2, "idle A and served B both end cleanly");
}

/// The drain path is O(active), not O(open): however many idle connections
/// are open and however many event-loop passes the drain spans, a worker
/// performs at most two full sweeps over the connection map — one when the
/// drain begins, one if the deadline fires. Connections that become idle
/// mid-drain close from the event path instead.
#[test]
fn nio_drain_full_sweeps_bounded_regardless_of_idle_population() {
    let server = start_nio(1, None);
    let addr = server.addr();
    let stats = server.stats_arc();

    // A large idle population the drain must not rescan every pass.
    let idle: Vec<TcpStream> = (0..40).map(|_| idle_after_one(addr)).collect();

    // One in-flight connection that holds the drain open across many
    // event-loop passes: each dribbled byte wakes the worker.
    let mut b = TcpStream::connect(addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    b.write_all(b"GET /f/1 HTT").unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let drain = std::thread::spawn(move || server.shutdown_graceful(Duration::from_secs(5)));
    std::thread::sleep(Duration::from_millis(100));
    for chunk in [&b"P/1.1\r\n"[..], b"Host: t\r\n", b"Connection: close\r\n"] {
        b.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }
    b.write_all(b"\r\n").unwrap();
    let (status, _) = read_one_response(&mut b);
    assert_eq!(status, 200);

    let report = drain.join().unwrap();
    assert_eq!(report.aborted, 0);
    assert_eq!(report.drained, 41, "40 idle + the served straggler");
    let sweeps = stats.drain_full_sweeps.load(Ordering::Relaxed);
    assert!(
        (1..=2).contains(&sweeps),
        "drain swept the full map {sweeps} times; the protocol bounds it at 2"
    );
    drop(idle);
}

#[test]
fn pool_graceful_drain_delivers_in_flight_response() {
    let server = start_pool(4, None);
    let addr = server.addr();

    // A: idle keep-alive; its pool thread is parked in a blocking read.
    let _a = idle_after_one(addr);

    // B: request answered by the server but not yet read by the client —
    // the drain must not claw those bytes back.
    let mut b = TcpStream::connect(addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    b.write_all(b"GET /f/2 HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let report = server.shutdown_graceful(Duration::from_secs(3));
    assert_eq!(report.aborted, 0, "no response was owed at the deadline");
    assert_eq!(report.drained, 2);

    let (status, body) = read_one_response(&mut b);
    assert_eq!(status, 200);
    assert!(!body.is_empty());
}

#[test]
fn shed_watermark_refuses_at_the_door_on_both_servers() {
    // Watermark 0: every connection is over the limit, so both servers
    // answer the door only to slam it (abortive close, not a silent drop).
    let nio = start_nio(1, Some(0));
    let mut s = TcpStream::connect(nio.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let _ = s.write_all(b"GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n");
    let mut sink = Vec::new();
    assert!(
        s.read_to_end(&mut sink).is_err() || sink.is_empty(),
        "a shed connection must carry no response"
    );
    let refused = nio.stats().refused.load(Ordering::Relaxed);
    assert!(refused >= 1, "nio refused counter: {refused}");
    nio.shutdown();

    let pool = start_pool(2, Some(0));
    let mut s = TcpStream::connect(pool.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let _ = s.write_all(b"GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n");
    let mut sink = Vec::new();
    assert!(s.read_to_end(&mut sink).is_err() || sink.is_empty());
    // The accept loop may need a beat to pick the connection up.
    let deadline = Instant::now() + Duration::from_secs(2);
    while pool.stats().refused.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(pool.stats().refused.load(Ordering::Relaxed) >= 1);
    pool.shutdown();
}
