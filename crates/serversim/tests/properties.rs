//! Property tests over whole simulated runs: conservation laws and
//! architectural invariants that must hold for *any* configuration, not
//! just the paper's.

use clientsim::ClientConfig;
use desim::SimDuration;
use netsim::LinkConfig;
use proptest::prelude::*;
use serversim::{run, RunResult, ServerArch, Testbed, TestbedConfig};

fn tiny(server: ServerArch, clients: u32, seed: u64, cpus: usize) -> TestbedConfig {
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(server, cpus, link);
    cfg.num_clients = clients;
    cfg.duration = SimDuration::from_secs(12);
    cfg.warmup = SimDuration::from_secs(3);
    cfg.ramp = SimDuration::from_secs(1);
    cfg.seed = seed;
    cfg.client = ClientConfig::default();
    cfg
}

fn execute(cfg: &TestbedConfig) -> (RunResult, Testbed) {
    let secs = cfg.duration.as_secs_f64();
    let tb = run(cfg.clone());
    (RunResult::from_testbed(cfg, &tb, secs), tb)
}

fn arch_from(which: u8, size: u16) -> ServerArch {
    match which % 3 {
        0 => ServerArch::EventDriven {
            workers: (size % 8) as usize + 1,
        },
        1 => ServerArch::Threaded {
            pool: (size % 512) as usize + 4,
        },
        _ => ServerArch::Staged {
            parse_threads: (size % 3) as usize + 1,
            send_threads: (size % 4) as usize + 1,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation: replies received never exceed requests sent; bytes and
    /// session accounting stay coherent; the run produces work.
    #[test]
    fn accounting_is_conserved(which in 0u8..3, size in 1u16..600, clients in 5u32..120, seed in 0u64..1000) {
        let cfg = tiny(arch_from(which, size), clients, seed, 1);
        let (r, tb) = execute(&cfg);
        let t = &tb.metrics.traffic;
        prop_assert!(t.replies_received <= t.requests_sent,
            "replies {} > requests {}", t.replies_received, t.requests_sent);
        prop_assert!(t.bytes_received > 0 || t.replies_received == 0);
        prop_assert!(r.throughput_rps >= 0.0);
        // Sessions complete only with at least one reply each.
        prop_assert!(t.sessions_completed <= t.replies_received.max(1));
        // Stale-event noise is bounded relative to activity.
        prop_assert!(tb.stale_events < 200 + t.requests_sent / 2,
            "stale {}", tb.stale_events);
    }

    /// Architectural invariant: event-driven and staged servers never
    /// produce a connection reset, under any configuration.
    #[test]
    fn no_resets_without_idle_timeout(which in 0u8..2, size in 1u16..600, clients in 5u32..150, seed in 0u64..1000) {
        let arch = match which {
            0 => ServerArch::EventDriven { workers: (size % 8) as usize + 1 },
            _ => ServerArch::Staged {
                parse_threads: (size % 3) as usize + 1,
                send_threads: (size % 4) as usize + 1,
            },
        };
        let cfg = tiny(arch, clients, seed, 1);
        let (r, _) = execute(&cfg);
        prop_assert_eq!(r.errors.connection_reset, 0);
    }

    /// Thread accounting: the threaded server never binds more threads than
    /// its pool holds, and everything unwinds by the end of the run.
    #[test]
    fn thread_pool_never_oversubscribed(pool in 2u16..128, clients in 5u32..200, seed in 0u64..1000) {
        let cfg = tiny(ServerArch::Threaded { pool: pool as usize }, clients, seed, 1);
        let (_, tb) = execute(&cfg);
        let t = tb.threaded().expect("threaded server");
        prop_assert!(t.peak_in_use <= pool as usize,
            "peak {} > pool {}", t.peak_in_use, pool);
        prop_assert!(t.threads_in_use() <= t.peak_in_use);
    }

    /// Determinism across the whole stack for any architecture.
    #[test]
    fn whole_runs_are_deterministic(which in 0u8..3, size in 1u16..600, seed in 0u64..1000) {
        let cfg = tiny(arch_from(which, size), 40, seed, 2);
        let (a, _) = execute(&cfg);
        let (b, _) = execute(&cfg);
        prop_assert_eq!(a.throughput_rps, b.throughput_rps);
        prop_assert_eq!(a.mean_response_ms, b.mean_response_ms);
        prop_assert_eq!(a.errors, b.errors);
        prop_assert_eq!(a.sessions_completed, b.sessions_completed);
    }
}
