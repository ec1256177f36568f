//! Live showdown: the paper's comparison over real sockets.
//!
//! Starts the real epoll-reactor server (1 worker) and the real blocking
//! thread-pool server (64 threads) on loopback, drives each with the
//! httperf-style load generator for a few seconds under the same SURGE
//! session workload, and prints both reports side by side.
//!
//! Run with: `cargo run --release --example live_showdown`

use desim::Rng;
use httpcore::ContentStore;
use metrics::{fnum, Align, Table};
use std::sync::Arc;
use std::time::Duration;
use workload::{FileSet, SurgeConfig};

fn main() {
    // Shared content: a small SURGE tree (capped tail so runs stay quick).
    let mut rng = Rng::new(2004);
    let files = FileSet::build(
        &SurgeConfig {
            num_files: 500,
            tail_cap: 200_000.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    );
    let content = Arc::new(ContentStore::from_fileset(&files));

    let load = loadgen::LoadConfig {
        clients: 32,
        duration: Duration::from_secs(4),
        client_timeout: Duration::from_secs(5),
        // Compress think times so a 4 s run holds many full sessions.
        think_scale: 0.02,
        ..loadgen::LoadConfig::default()
    };

    let mut table = Table::new(&[
        ("server", Align::Left),
        ("replies/s", Align::Right),
        ("mean resp ms", Align::Right),
        ("p99 resp ms", Align::Right),
        ("mean conn ms", Align::Right),
        ("resets", Align::Right),
        ("timeouts", Align::Right),
        ("sessions ok", Align::Right),
    ]);

    // --- event-driven server, one worker thread ---
    {
        let server = nioserver::NioServer::start(nioserver::NioConfig {
            workers: 1,
            backend: nioserver::BackendKind::Epoll,
            accept: nioserver::AcceptMode::from_env(),
            shed_watermark: None,
            lifecycle: httpcore::LifecyclePolicy::default(),
            content: Arc::clone(&content),
        })
        .expect("start nio server");
        let cfg = loadgen::LoadConfig {
            target: server.addr(),
            ..load.clone()
        };
        let report = loadgen::run(&cfg, &files);
        push_row(&mut table, "nio (1 worker)", &report);
        server.shutdown();
    }

    // --- threaded server, 64-thread pool, 2 s idle timeout ---
    {
        let server = poolserver::PoolServer::start(poolserver::PoolConfig {
            pool_size: 64,
            lifecycle: httpcore::LifecyclePolicy {
                idle_timeout: Some(Duration::from_secs(2)),
                ..httpcore::LifecyclePolicy::default()
            },
            shed_watermark: None,
            content: Arc::clone(&content),
        })
        .expect("start pool server");
        let cfg = loadgen::LoadConfig {
            target: server.addr(),
            ..load.clone()
        };
        let report = loadgen::run(&cfg, &files);
        push_row(&mut table, "httpd (64 threads)", &report);
        server.shutdown();
    }

    println!("32 live clients over loopback, 4 s runs, SURGE sessions:");
    println!();
    println!("{}", table.render());
}

fn push_row(table: &mut metrics::Table, label: &str, r: &loadgen::LoadReport) {
    table.row(vec![
        label.to_string(),
        fnum(r.throughput_rps(), 0),
        fnum(r.response_time_us.mean() / 1000.0, 2),
        fnum(r.response_time_us.quantile(0.99) as f64 / 1000.0, 2),
        fnum(r.connect_time_us.mean() / 1000.0, 2),
        r.errors.connection_reset.to_string(),
        r.errors.client_timeout.to_string(),
        r.sessions_completed.to_string(),
    ]);
}
