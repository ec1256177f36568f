//! The `sim-figs` workload: eight paper-scale points of the simulated
//! testbed, run serially on the driver thread. It guards the cost of the
//! simulator itself — the event queue, the testbed's bookkeeping, the link
//! and CPU models — which no live workload touches.

use crate::estimate::median;
use crate::sys::{self, Pinning};
use crate::trace::{phase, Tracer};
use desim::SimDuration;
use netsim::LinkConfig;
use serversim::{RunResult, ServerArch, Testbed, TestbedConfig};
use std::time::Instant;

/// One simulated experiment: an architecture, a machine and a client count.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub label: &'static str,
    pub server: ServerArch,
    pub cpus: usize,
    pub clients: u32,
}

const fn nio(label: &'static str, workers: usize, cpus: usize, clients: u32) -> Point {
    Point {
        label,
        server: ServerArch::EventDriven { workers },
        cpus,
        clients,
    }
}

const fn httpd(label: &'static str, pool: usize, clients: u32) -> Point {
    Point {
        label,
        server: ServerArch::Threaded { pool },
        cpus: 1,
        clients,
    }
}

/// Both architectures below, at and beyond the knee of the paper's curves.
pub const POINTS: [Point; 8] = [
    nio("sim.nio-1w.600", 1, 1, 600),
    nio("sim.nio-1w.2400", 1, 1, 2400),
    nio("sim.nio-1w.6000", 1, 1, 6000),
    nio("sim.nio-2w-2cpu.6000", 2, 2, 6000),
    httpd("sim.httpd-4096.600", 4096, 600),
    httpd("sim.httpd-4096.2400", 4096, 2400),
    httpd("sim.httpd-4096.6000", 4096, 6000),
    httpd("sim.httpd-896.6000", 896, 6000),
];

/// Index in [`POINTS`] of the two points published per layer.
pub const NIO_6000: usize = 2;
pub const HTTPD4096_6000: usize = 6;

/// Simulated seconds per point: the paper's 60 s, or a fifth of it.
fn horizon(smoke: bool) -> (SimDuration, SimDuration) {
    if smoke {
        (SimDuration::from_secs(12), SimDuration::from_secs(2))
    } else {
        (SimDuration::from_secs(60), SimDuration::from_secs(10))
    }
}

pub fn config(point: &Point, seed: u64, smoke: bool) -> TestbedConfig {
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(point.server, point.cpus, link);
    cfg.num_clients = point.clients;
    (cfg.duration, cfg.warmup) = horizon(smoke);
    cfg.seed = seed ^ (point.clients as u64).wrapping_mul(0x9E37_79B9);
    cfg
}

/// One execution of one point.
#[derive(Debug, Clone)]
pub struct PointRun {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Replies the simulated clients received.
    pub replies: u64,
    /// The figures' numbers, rendered: equal strings mean bit-identical
    /// results.
    pub result: String,
}

pub fn run_point(point: &Point, seed: u64, smoke: bool) -> PointRun {
    let cfg = config(point, seed, smoke);
    let sim_secs = cfg.duration.as_secs_f64();
    let (t0, cpu0) = (Instant::now(), sys::self_cpu_ns());
    let testbed = serversim::run(cfg.clone());
    let (wall_ns, cpu_ns) = (t0.elapsed().as_nanos() as u64, sys::self_cpu_ns() - cpu0);
    PointRun {
        wall_ns,
        cpu_ns,
        replies: testbed.metrics.traffic.replies_received,
        result: format!("{:?}", RunResult::from_testbed(&cfg, &testbed, sim_secs)),
    }
}

/// `n` constructions of the largest testbed: the median wall time of one,
/// ms, and the median resident anonymous memory with one alive, MiB.
pub fn testbed_new(seed: u64, n: usize) -> (f64, f64) {
    let (times, resident): (Vec<f64>, Vec<f64>) = (0..n)
        .map(|_| {
            let cfg = config(&POINTS[NIO_6000], seed, false);
            let t0 = Instant::now();
            let testbed = Testbed::new(cfg);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let mib = sys::rss_anon_kib() as f64 / 1024.0;
            drop(testbed);
            (ms, mib)
        })
        .unzip();
    (median(&times), median(&resident))
}

#[derive(Debug)]
pub struct SimOutcome {
    pub replies_per_s: f64,
    pub cpu_us_per_reply: f64,
    /// Median over the points of the fastest wall time of each, µs.
    pub point_p50_us: f64,
    pub rss_mb: f64,
    pub setup_s: f64,
    /// Fastest wall time of each point, ms, in [`POINTS`] order.
    pub point_ms: Vec<f64>,
    /// Simulated replies over all points (of every pass: they are equal).
    pub replies: u64,
    /// Points whose result differed between passes.
    pub differing: Vec<&'static str>,
}

/// Run every point `passes` times and keep, per point, the fastest wall and
/// CPU time: the simulation is deterministic, so its passes do identical
/// work and the fastest is the one least disturbed.
pub fn run(
    seed: u64,
    passes: usize,
    smoke: bool,
    pin: Option<Pinning>,
    tracer: &mut Option<&mut Tracer>,
) -> SimOutcome {
    assert!(passes >= 2, "determinism is checked between passes");
    if let Some(pin) = pin {
        sys::pin_current_thread(pin.driver_cpu).expect("pin to an allowed processor");
    }
    let (setup_ms, rss_mb) = phase(tracer, "setup", |_| testbed_new(seed, 20));
    let mut best: Vec<PointRun> = Vec::new();
    let mut differing = Vec::new();
    for pass in 0..passes {
        phase(tracer, "pass", |tr| {
            for (i, point) in POINTS.iter().enumerate() {
                let run = phase(tr, point.label, |_| run_point(point, seed, smoke));
                if pass == 0 {
                    best.push(run);
                    continue;
                }
                let kept = &mut best[i];
                if (kept.replies, &kept.result) != (run.replies, &run.result)
                    && !differing.contains(&point.label)
                {
                    differing.push(point.label);
                }
                kept.wall_ns = kept.wall_ns.min(run.wall_ns);
                kept.cpu_ns = kept.cpu_ns.min(run.cpu_ns);
            }
        });
    }
    let replies: u64 = best.iter().map(|p| p.replies).sum();
    let wall_ns: u64 = best.iter().map(|p| p.wall_ns).sum();
    let cpu_ns: u64 = best.iter().map(|p| p.cpu_ns).sum();
    let point_ms: Vec<f64> = best.iter().map(|p| p.wall_ns as f64 / 1e6).collect();
    SimOutcome {
        replies_per_s: replies as f64 / (wall_ns as f64 / 1e9),
        cpu_us_per_reply: cpu_ns as f64 / 1e3 / replies as f64,
        point_p50_us: median(&point_ms) * 1e3,
        rss_mb,
        setup_s: setup_ms / 1e3,
        point_ms,
        replies,
        differing,
    }
}
