//! Cross-layer consistency: the simulation and the live layer must agree on
//! the *qualitative* architecture contrasts when given the same workload
//! semantics. These tests are the reproduction's internal validity check —
//! if the simulator said one thing and the live sockets another, the
//! figure regeneration would be fiction.

#![cfg(target_os = "linux")]

use desim::Rng;
use eventscale::prelude::*;
use httpcore::ContentStore;
use std::sync::Arc;
use std::time::Duration;
use workload::SurgeConfig;

/// Both layers: the event-driven server yields zero connection resets while
/// the threaded server with a tight idle timeout yields a positive rate.
#[test]
fn reset_contrast_holds_in_both_layers() {
    // --- simulated ---
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let mut sim_nio = TestbedConfig::paper_default(ServerArch::EventDriven { workers: 1 }, 1, link);
    sim_nio.num_clients = 150;
    sim_nio.duration = SimDuration::from_secs(20);
    sim_nio.warmup = SimDuration::from_secs(5);
    let sim_nio_r = run_experiment(sim_nio);

    let mut sim_pool = TestbedConfig::paper_default(ServerArch::Threaded { pool: 512 }, 1, link);
    sim_pool.num_clients = 150;
    sim_pool.duration = SimDuration::from_secs(20);
    sim_pool.warmup = SimDuration::from_secs(5);
    // Tight timeout so the quick run shows the effect clearly.
    sim_pool.server_idle_timeout = Some(SimDuration::from_secs(2));
    let sim_pool_r = run_experiment(sim_pool);

    assert_eq!(sim_nio_r.errors.connection_reset, 0);
    assert!(sim_pool_r.errors.connection_reset > 0);

    // --- live ---
    let mut rng = Rng::new(77);
    let files = workload::FileSet::build(
        &SurgeConfig {
            num_files: 100,
            tail_k: 10_000.0,
            tail_cap: 50_000.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    );
    let content = Arc::new(ContentStore::from_fileset(&files));
    let live = |target| loadgen::LoadConfig {
        target,
        clients: 6,
        duration: Duration::from_secs(3),
        client_timeout: Duration::from_secs(5),
        think_scale: 1.0,
        ..loadgen::LoadConfig::default()
    };

    let nio = nioserver::NioServer::start(nioserver::NioConfig {
        workers: 1,
        backend: nioserver::BackendKind::Epoll,
        accept: nioserver::AcceptMode::from_env(),
        shed_watermark: None,
        lifecycle: httpcore::LifecyclePolicy::default(),
        content: Arc::clone(&content),
    })
    .unwrap();
    let live_nio = loadgen::run(&live(nio.addr()), &files);
    nio.shutdown();

    let pool = poolserver::PoolServer::start(poolserver::PoolConfig {
        pool_size: 8,
        lifecycle: httpcore::LifecyclePolicy {
            idle_timeout: Some(Duration::from_millis(300)),
            ..httpcore::LifecyclePolicy::default()
        },
        shed_watermark: None,
        content,
    })
    .unwrap();
    let live_pool = loadgen::run(&live(pool.addr()), &files);
    pool.shutdown();

    assert_eq!(live_nio.errors.connection_reset, 0);
    assert!(live_pool.errors.connection_reset > 0);
}

/// Both layers: under pool exhaustion the event-driven architecture wins
/// throughput at equal concurrency.
#[test]
fn exhaustion_contrast_holds_in_both_layers() {
    // --- simulated: 400 clients vs 32-thread pool ---
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let quick = |server| {
        let mut cfg = TestbedConfig::paper_default(server, 1, link);
        cfg.num_clients = 400;
        cfg.duration = SimDuration::from_secs(20);
        cfg.warmup = SimDuration::from_secs(6);
        run_experiment(cfg)
    };
    let sim_nio = quick(ServerArch::EventDriven { workers: 1 });
    let sim_pool = quick(ServerArch::Threaded { pool: 32 });
    assert!(
        sim_nio.throughput_rps > sim_pool.throughput_rps * 1.3,
        "sim: nio {} vs pool-32 {}",
        sim_nio.throughput_rps,
        sim_pool.throughput_rps
    );

    // --- live: 16 clients vs 2-thread pool ---
    let mut rng = Rng::new(99);
    let files = workload::FileSet::build(
        &SurgeConfig {
            num_files: 100,
            tail_k: 10_000.0,
            tail_cap: 50_000.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    );
    let content = Arc::new(ContentStore::from_fileset(&files));
    let live = |target| loadgen::LoadConfig {
        target,
        clients: 16,
        duration: Duration::from_secs(3),
        client_timeout: Duration::from_secs(5),
        think_scale: 0.01,
        ..loadgen::LoadConfig::default()
    };
    let nio = nioserver::NioServer::start(nioserver::NioConfig {
        workers: 1,
        backend: nioserver::BackendKind::Epoll,
        accept: nioserver::AcceptMode::from_env(),
        shed_watermark: None,
        lifecycle: httpcore::LifecyclePolicy::default(),
        content: Arc::clone(&content),
    })
    .unwrap();
    let live_nio = loadgen::run(&live(nio.addr()), &files);
    nio.shutdown();
    let pool = poolserver::PoolServer::start(poolserver::PoolConfig {
        pool_size: 2,
        lifecycle: httpcore::LifecyclePolicy {
            idle_timeout: Some(Duration::from_secs(1)),
            ..httpcore::LifecyclePolicy::default()
        },
        shed_watermark: None,
        content,
    })
    .unwrap();
    let live_pool = loadgen::run(&live(pool.addr()), &files);
    pool.shutdown();
    assert!(
        live_nio.throughput_rps() > live_pool.throughput_rps() * 1.3,
        "live: nio {} vs pool-2 {}",
        live_nio.throughput_rps(),
        live_pool.throughput_rps()
    );
}

/// The simulated SURGE content and the live content store describe the same
/// document tree (sizes, popularity-weighted means).
#[test]
fn content_layers_agree() {
    let mut rng = Rng::new(123);
    let files = workload::FileSet::build(&SurgeConfig::default(), &mut rng);
    let store = ContentStore::from_fileset(&files);
    assert_eq!(store.len(), files.len());
    for (id, size) in files.iter() {
        assert_eq!(store.size_of(id), size);
        assert_eq!(store.body(id).len() as u64, size);
    }
}
