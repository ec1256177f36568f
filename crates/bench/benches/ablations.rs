//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! * `selector_scan`: real epoll (O(ready)) vs real poll (O(registered))
//!   select latency as idle registrations grow — the measured version of
//!   the simulator's selector-cost parameter and of the NIO-on-2004-kernels
//!   caveat.
//! * `context_switch_sweep`: how the threaded server's simulated capacity
//!   moves with the context-switch cost.
//! * `idle_timeout_sweep`: reset-error production vs the server timeout
//!   (the knob behind figure 3b).
//! * `think_tail_sweep`: sensitivity of the reset rate to the Pareto tail
//!   index of think times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use desim::SimDuration;
use netsim::LinkConfig;
use reactor::{Interest, Selector, Token};
use serversim::{ServerArch, TestbedConfig};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Build `n` established loopback connection pairs and register the server
/// sides with the selector; returns the pairs to keep them alive.
fn idle_registrations(
    selector: &mut dyn Selector,
    n: usize,
) -> (TcpListener, Vec<(TcpStream, TcpStream)>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let mut pairs = Vec::with_capacity(n);
    for i in 0..n {
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).unwrap();
        selector
            .register(server.as_raw_fd(), Token(i), Interest::READABLE)
            .expect("register");
        pairs.push((client, server));
    }
    (listener, pairs)
}

fn selector_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("selector_scan");
    group.sample_size(20);
    for &n in &[64usize, 256, 448] {
        for kind in ["epoll", "poll"] {
            let mut selector: Box<dyn Selector> = match kind {
                "epoll" => Box::new(reactor::EpollSelector::new().unwrap()),
                _ => Box::new(reactor::PollSelector::new()),
            };
            let (_listener, mut pairs) = idle_registrations(selector.as_mut(), n);
            // Exactly one connection has data pending: ready set = 1,
            // registered set = n.
            {
                use std::io::Write;
                pairs[0].0.write_all(b"x").unwrap();
            }
            let mut events = Vec::new();
            group.bench_with_input(BenchmarkId::new(kind, n), &n, |b, _| {
                b.iter(|| {
                    events.clear();
                    let got = selector
                        .select(&mut events, Some(Duration::from_millis(100)))
                        .expect("select");
                    assert_eq!(got, 1, "exactly the one hot fd");
                    std::hint::black_box(events.len())
                })
            });
        }
    }
    group.finish();
}

/// A tiny simulated run for parameter sweeps (fast enough to iterate).
fn quick_run(mutate: impl FnOnce(&mut TestbedConfig)) -> serversim::RunResult {
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(ServerArch::Threaded { pool: 2048 }, 1, link);
    cfg.num_clients = 600;
    cfg.duration = SimDuration::from_secs(12);
    cfg.warmup = SimDuration::from_secs(4);
    mutate(&mut cfg);
    let secs = cfg.duration.as_secs_f64();
    let tb = serversim::run(cfg.clone());
    serversim::RunResult::from_testbed(&cfg, &tb, secs)
}

fn context_switch_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("context_switch_sweep");
    group.sample_size(10);
    for cs_us in [2u64, 8, 24] {
        group.bench_with_input(BenchmarkId::from_parameter(cs_us), &cs_us, |b, &cs| {
            b.iter(|| {
                let r = quick_run(|cfg| {
                    cfg.costs.context_switch = SimDuration::from_micros(cs);
                });
                std::hint::black_box(r.throughput_rps)
            })
        });
    }
    group.finish();
}

fn idle_timeout_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("idle_timeout_sweep");
    group.sample_size(10);
    for secs in [5u64, 15, 60] {
        group.bench_with_input(BenchmarkId::from_parameter(secs), &secs, |b, &t| {
            b.iter(|| {
                let r = quick_run(|cfg| {
                    cfg.server_idle_timeout = Some(SimDuration::from_secs(t));
                });
                std::hint::black_box(r.conn_reset_per_s)
            })
        });
    }
    group.finish();
}

fn think_tail_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("think_tail_sweep");
    group.sample_size(10);
    for alpha_x100 in [120u64, 135, 160] {
        group.bench_with_input(
            BenchmarkId::from_parameter(alpha_x100),
            &alpha_x100,
            |b, &a| {
                b.iter(|| {
                    let r = quick_run(|cfg| {
                        cfg.client.session.think_alpha = a as f64 / 100.0;
                    });
                    std::hint::black_box(r.conn_reset_per_s)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    selector_scan,
    context_switch_sweep,
    idle_timeout_sweep,
    think_tail_sweep
);
criterion_main!(benches);
