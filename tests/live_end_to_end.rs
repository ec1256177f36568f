//! Workspace integration: the live layer reproduces the paper's qualitative
//! contrasts over real loopback sockets.

#![cfg(target_os = "linux")]

use desim::Rng;
use httpcore::ContentStore;
use std::sync::Arc;
use std::time::Duration;
use workload::{FileSet, SurgeConfig};

fn files() -> FileSet {
    let mut rng = Rng::new(11);
    FileSet::build(
        &SurgeConfig {
            num_files: 200,
            tail_k: 20_000.0,
            tail_cap: 100_000.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    )
}

fn quick_load(target: std::net::SocketAddr, secs: u64) -> loadgen::LoadConfig {
    loadgen::LoadConfig {
        target,
        clients: 16,
        duration: Duration::from_secs(secs),
        client_timeout: Duration::from_secs(5),
        think_scale: 0.01,
        ..loadgen::LoadConfig::default()
    }
}

#[test]
fn one_worker_reactor_sustains_many_live_clients() {
    let fs = files();
    let content = Arc::new(ContentStore::from_fileset(&fs));
    let server = nioserver::NioServer::start(nioserver::NioConfig {
        workers: 1,
        backend: nioserver::BackendKind::Epoll,
        accept: nioserver::AcceptMode::from_env(),
        shed_watermark: None,
        lifecycle: httpcore::LifecyclePolicy::default(),
        content,
    })
    .unwrap();
    let report = loadgen::run(&quick_load(server.addr(), 3), &fs);
    assert!(report.replies > 100, "replies {}", report.replies);
    assert_eq!(report.errors.connection_reset, 0);
    assert!(report.sessions_completed > 5);
    // One worker, sixteen concurrent clients: the whole point.
    assert!(
        server
            .stats()
            .accepted
            .load(std::sync::atomic::Ordering::Relaxed)
            > 5
    );
    server.shutdown();
}

#[test]
fn poll_backend_works_like_epoll() {
    let fs = files();
    let content = Arc::new(ContentStore::from_fileset(&fs));
    let server = nioserver::NioServer::start(nioserver::NioConfig {
        workers: 2,
        backend: nioserver::BackendKind::Poll,
        accept: nioserver::AcceptMode::from_env(),
        shed_watermark: None,
        lifecycle: httpcore::LifecyclePolicy::default(),
        content,
    })
    .unwrap();
    let report = loadgen::run(&quick_load(server.addr(), 2), &fs);
    assert!(report.replies > 50, "replies {}", report.replies);
    server.shutdown();
}

#[test]
fn live_reset_contrast_between_architectures() {
    // Same aggressive idle timeout conditions; only the threaded server
    // resets clients, because only it needs to reclaim threads.
    let fs = files();
    let content = Arc::new(ContentStore::from_fileset(&fs));

    let pool = poolserver::PoolServer::start(poolserver::PoolConfig {
        pool_size: 8,
        lifecycle: httpcore::LifecyclePolicy {
            idle_timeout: Some(Duration::from_millis(300)),
            ..httpcore::LifecyclePolicy::default()
        },
        shed_watermark: None,
        content: Arc::clone(&content),
    })
    .unwrap();
    let mut cfg = quick_load(pool.addr(), 3);
    cfg.think_scale = 1.0; // real think times exceed 300 ms
    cfg.clients = 8;
    let pool_report = loadgen::run(&cfg, &fs);
    pool.shutdown();

    let nio = nioserver::NioServer::start(nioserver::NioConfig {
        workers: 1,
        backend: nioserver::BackendKind::Epoll,
        accept: nioserver::AcceptMode::from_env(),
        shed_watermark: None,
        lifecycle: httpcore::LifecyclePolicy::default(),
        content,
    })
    .unwrap();
    let mut cfg = quick_load(nio.addr(), 3);
    cfg.think_scale = 1.0;
    cfg.clients = 8;
    let nio_report = loadgen::run(&cfg, &fs);
    nio.shutdown();

    assert!(
        pool_report.errors.connection_reset > 0,
        "threaded server must reset thinking clients: {:?}",
        pool_report.errors
    );
    assert_eq!(
        nio_report.errors.connection_reset, 0,
        "event-driven server must not reset: {:?}",
        nio_report.errors
    );
}

#[test]
fn live_pool_exhaustion_throttles_throughput() {
    // 2 pool threads vs 16 concurrent clients: most clients queue behind
    // bound threads, so the reactor server with one worker far outpaces it.
    let fs = files();
    let content = Arc::new(ContentStore::from_fileset(&fs));

    let pool = poolserver::PoolServer::start(poolserver::PoolConfig {
        pool_size: 2,
        lifecycle: httpcore::LifecyclePolicy {
            idle_timeout: Some(Duration::from_secs(1)),
            ..httpcore::LifecyclePolicy::default()
        },
        shed_watermark: None,
        content: Arc::clone(&content),
    })
    .unwrap();
    let pool_hists = pool.stage_hists();
    let pool_report = loadgen::run(&quick_load(pool.addr(), 3), &fs);
    pool.shutdown();

    let nio = nioserver::NioServer::start(nioserver::NioConfig {
        workers: 1,
        backend: nioserver::BackendKind::Epoll,
        accept: nioserver::AcceptMode::from_env(),
        shed_watermark: None,
        lifecycle: httpcore::LifecyclePolicy::default(),
        content,
    })
    .unwrap();
    let nio_hists = nio.stage_hists();
    let nio_report = loadgen::run(&quick_load(nio.addr(), 3), &fs);
    nio.shutdown();

    assert!(
        nio_report.throughput_rps() > pool_report.throughput_rps() * 1.5,
        "nio {} rps vs exhausted pool {} rps",
        nio_report.throughput_rps(),
        pool_report.throughput_rps()
    );
    // Both servers merge their workers' stage histograms on shutdown; a
    // loaded run must have populated the parse stage at least.
    for (arch, hists) in [("pool", pool_hists), ("nio", nio_hists)] {
        let parsed = hists.lock().stage(obs::Stage::Parse).count();
        assert!(parsed > 0, "{arch}: empty parse-stage histogram after load");
    }
}
