//! An idle accept path sleeps in the kernel, not on a timer.
//!
//! Both accepting threads — nioserver's handoff acceptor and the thread
//! holding poolserver's accept mutex — must block until a connection
//! arrives or a control flag changes. A thread that instead polls with a
//! short sleep goes to sleep once per tick, and each of those is a
//! voluntary context switch in `/proc/self/task/<tid>/status`: a 1 ms
//! sleep-poll shows ~300 of them over a 300 ms idle window, a blocking wait
//! none. Threads are found by name, so this file holds a single test and
//! runs one server at a time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use httpcore::ContentStore;
use workload::{FileSet, SurgeConfig};

/// Most voluntary switches the accepting threads may show while idle.
const IDLE_SWITCH_BUDGET: u64 = 5;
const IDLE_WINDOW: Duration = Duration::from_millis(300);

fn content() -> Arc<ContentStore> {
    let mut rng = desim::Rng::new(11);
    let fs = FileSet::build(
        &SurgeConfig {
            num_files: 4,
            tail_prob: 0.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    );
    Arc::new(ContentStore::from_fileset(&fs))
}

/// Thread ids of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .flatten()
        .filter(|e| {
            std::fs::read_to_string(e.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end().starts_with(prefix))
        })
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect()
}

fn voluntary_switches(tid: &str) -> u64 {
    let status =
        std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).expect("thread status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("voluntary_ctxt_switches field")
}

/// One HTTP/1.0 exchange; returns the status line.
fn get(addr: SocketAddr) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /f/0 HTTP/1.0\r\n\r\n").expect("write");
    let mut reply = Vec::new();
    s.read_to_end(&mut reply).expect("read");
    let text = String::from_utf8_lossy(&reply);
    text.lines().next().unwrap_or_default().to_string()
}

/// Serve one request, let the server settle, then count the accepting
/// threads' switches across an idle window; the server must still accept
/// afterwards.
fn assert_idle_accept_path_sleeps(addr: SocketAddr, thread_prefix: &str) {
    assert_eq!(get(addr), "HTTP/1.0 200 OK");
    std::thread::sleep(Duration::from_millis(50));
    let threads = threads_named(thread_prefix);
    assert!(!threads.is_empty(), "no '{thread_prefix}' threads");
    let count = || threads.iter().map(|t| voluntary_switches(t)).sum::<u64>();
    let before = count();
    std::thread::sleep(IDLE_WINDOW);
    let woke = count() - before;
    assert!(
        woke <= IDLE_SWITCH_BUDGET,
        "'{thread_prefix}' threads woke {woke} times in an idle {IDLE_WINDOW:?} \
         (budget {IDLE_SWITCH_BUDGET})"
    );
    assert_eq!(
        get(addr),
        "HTTP/1.0 200 OK",
        "accepts after the idle window"
    );
}

#[test]
fn idle_accept_paths_block_instead_of_polling() {
    let nio = nioserver::NioServer::start(nioserver::NioConfig {
        workers: 1,
        backend: nioserver::BackendKind::Epoll,
        accept: nioserver::AcceptMode::Handoff,
        shed_watermark: None,
        lifecycle: Default::default(),
        content: content(),
    })
    .expect("start nio server");
    assert_idle_accept_path_sleeps(nio.addr(), "nio-acceptor");
    nio.shutdown();

    let pool = poolserver::PoolServer::start(poolserver::PoolConfig {
        pool_size: 4,
        lifecycle: Default::default(),
        shed_watermark: None,
        content: content(),
    })
    .expect("start pool server");
    assert_idle_accept_path_sleeps(pool.addr(), "pool-");
    pool.shutdown();
}
