//! End-to-end smoke tests: run small testbeds of both architectures and
//! check the paper's qualitative properties hold at reduced scale.

use desim::SimDuration;
use netsim::LinkConfig;
use serversim::{run, RunResult, ServerArch, TestbedConfig};

fn gbit() -> LinkConfig {
    LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100))
}

fn small(server: ServerArch, clients: u32) -> TestbedConfig {
    let mut cfg = TestbedConfig::paper_default(server, 1, gbit());
    cfg.num_clients = clients;
    cfg.duration = SimDuration::from_secs(30);
    cfg.warmup = SimDuration::from_secs(8);
    cfg.ramp = SimDuration::from_secs(3);
    cfg
}

fn execute(cfg: TestbedConfig) -> RunResult {
    let sim_secs = cfg.duration.as_secs_f64();
    let tb = run(cfg.clone());
    RunResult::from_testbed(&cfg, &tb, sim_secs)
}

#[test]
fn event_driven_server_serves_requests() {
    let r = execute(small(ServerArch::EventDriven { workers: 1 }, 100));
    assert!(r.throughput_rps > 20.0, "throughput {}", r.throughput_rps);
    assert!(r.mean_response_ms > 0.0);
    assert!(r.mean_connect_ms >= 0.0);
    assert!(r.sessions_completed > 10, "{}", r.sessions_completed);
    assert_eq!(
        r.errors.connection_reset, 0,
        "the nio server never produces connection resets"
    );
}

#[test]
fn threaded_server_serves_requests() {
    let r = execute(small(ServerArch::Threaded { pool: 512 }, 100));
    assert!(r.throughput_rps > 20.0, "throughput {}", r.throughput_rps);
    assert!(r.sessions_completed > 10);
}

#[test]
fn threaded_server_resets_idle_clients() {
    // 200 clients, 15 s idle timeout, Pareto think times: a measurable
    // trickle of connection resets (figure 3b).
    let r = execute(small(ServerArch::Threaded { pool: 512 }, 200));
    assert!(
        r.errors.connection_reset > 0,
        "expected resets from the 15 s idle timeout"
    );
}

#[test]
fn small_pool_throttles_concurrency() {
    // With far fewer threads than clients, the threaded server's throughput
    // must fall well below the event-driven server's at equal load.
    let threaded = execute(small(ServerArch::Threaded { pool: 32 }, 400));
    let event = execute(small(ServerArch::EventDriven { workers: 1 }, 400));
    assert!(
        threaded.throughput_rps < event.throughput_rps * 0.7,
        "pool-32 {} vs nio {}",
        threaded.throughput_rps,
        event.throughput_rps
    );
    // And its connection times explode while nio's stay flat (figure 4).
    assert!(
        threaded.mean_connect_ms > 20.0 * event.mean_connect_ms.max(0.05),
        "threaded connect {} ms vs nio {} ms",
        threaded.mean_connect_ms,
        event.mean_connect_ms
    );
}

#[test]
fn bandwidth_bound_link_caps_throughput() {
    // A 10 Mbit/s link with ~12 KB replies supports roughly 100 replies/s;
    // CPU could do far more. Throughput must sit near the link cap.
    let mut cfg = small(ServerArch::EventDriven { workers: 1 }, 300);
    cfg.links = vec![LinkConfig::from_mbit(10.0, SimDuration::from_micros(100))];
    let r = execute(cfg);
    assert!(
        r.bandwidth_mb_s < 1.35,
        "delivered {} MB/s over a 1.25 MB/s link",
        r.bandwidth_mb_s
    );
    assert!(
        r.bandwidth_mb_s > 0.8,
        "link should be nearly saturated, got {} MB/s",
        r.bandwidth_mb_s
    );
}

#[test]
fn runs_are_deterministic() {
    let a = execute(small(ServerArch::EventDriven { workers: 2 }, 80));
    let b = execute(small(ServerArch::EventDriven { workers: 2 }, 80));
    assert_eq!(a.throughput_rps, b.throughput_rps);
    assert_eq!(a.mean_response_ms, b.mean_response_ms);
    assert_eq!(a.errors, b.errors);
}

#[test]
fn different_seeds_differ() {
    let mut cfg = small(ServerArch::EventDriven { workers: 1 }, 80);
    cfg.seed = 1;
    let a = execute(cfg);
    let mut cfg2 = small(ServerArch::EventDriven { workers: 1 }, 80);
    cfg2.seed = 2;
    let b = execute(cfg2);
    assert_ne!(a.mean_response_ms, b.mean_response_ms);
}

#[test]
fn stale_events_stay_negligible() {
    let r = execute(small(ServerArch::Threaded { pool: 64 }, 300));
    // Defensive drops happen (races are real) but must be a sliver of
    // activity.
    assert!(
        (r.stale_events as f64) < 2_000.0,
        "stale events {}",
        r.stale_events
    );
}

#[test]
fn staged_server_serves_requests() {
    let r = execute(small(
        ServerArch::Staged {
            parse_threads: 1,
            send_threads: 1,
        },
        100,
    ));
    assert!(r.throughput_rps > 20.0, "throughput {}", r.throughput_rps);
    assert_eq!(
        r.errors.connection_reset, 0,
        "staged server never resets idle clients"
    );
    assert!(r.sessions_completed > 10);
}

#[test]
fn staged_pipeline_outscales_flat_event_driven_on_smp() {
    // The paper's §6 conjecture at reduced scale: saturate a 4-CPU machine
    // and compare the staged pipeline with the flat 2-worker selector.
    let mut base = small(ServerArch::EventDriven { workers: 2 }, 3000);
    base.num_cpus = 4;
    let flat = execute(base);
    let mut staged_cfg = small(
        ServerArch::Staged {
            parse_threads: 1,
            send_threads: 3,
        },
        3000,
    );
    staged_cfg.num_cpus = 4;
    let staged = execute(staged_cfg);
    assert!(
        staged.throughput_rps > flat.throughput_rps,
        "staged {} vs flat {}",
        staged.throughput_rps,
        flat.throughput_rps
    );
}

/// The engine's counts on a small fixed run. Every reply re-arms its
/// client's 10 s timeout, so a quarter of all scheduled events are
/// cancelled. The scheduled, dispatched and cancelled counts are pinned
/// exactly: how the queue disposes of a cancelled event must not change
/// which events the model sees. The pending-set peak must stay near the
/// live population — about one timeout per client plus the events in
/// flight — which holds only while cancelled events leave the queue at
/// once.
#[test]
fn engine_counts_on_a_fixed_run() {
    let clients = 600;
    let mut cfg = TestbedConfig::paper_default(ServerArch::EventDriven { workers: 1 }, 1, gbit());
    cfg.num_clients = clients;
    cfg.duration = SimDuration::from_secs(12);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.seed = 1 ^ u64::from(clients).wrapping_mul(0x9E37_79B9);
    let tb = run(cfg);
    let stats = tb.engine_stats;
    assert_eq!(
        (stats.dispatched, stats.scheduled, stats.cancelled),
        (45_071, 59_852, 14_181)
    );
    assert_eq!(tb.metrics.traffic.replies_received, 8_550);
    assert!(
        stats.peak_pending <= 2 * clients as usize + 64,
        "peak_pending {}",
        stats.peak_pending
    );
}
