//! Fault-plan properties: any valid generated plan leaves the simulation
//! deterministic — the same seed and plan produce bit-identical metrics —
//! and plan execution never corrupts accounting.

use desim::SimDuration;
use faults::{AcceptMode, FaultEvent, FaultKind, FaultPlan};
use metrics::Histogram;
use netsim::LinkConfig;
use proptest::prelude::*;
use serversim::{run, ServerArch, Testbed, TestbedConfig};

const SEC: u64 = 1_000_000_000;

/// Build one fault event from plain scalars (the shim strategies generate
/// integers; the mapping below covers every `FaultKind`).
fn event_from(kind_sel: u8, start_s: u64, dur_s: u64, knob: u32) -> FaultEvent {
    let kind = match kind_sel % 8 {
        0 => FaultKind::LinkOutage { link: 0 },
        1 => FaultKind::LinkDegrade {
            link: 0,
            capacity_factor: 0.05 + 0.1 * (knob % 9) as f64,
        },
        2 => FaultKind::LatencyJitter {
            link: 0,
            added_ns: 10_000_000 * (knob as u64 % 40 + 1),
        },
        3 => FaultKind::WorkerCrash {
            fraction: 0.1 + 0.1 * (knob % 10).min(9) as f64,
            restart: knob.is_multiple_of(2),
        },
        4 => FaultKind::ServerStall,
        5 => FaultKind::SlowLoris {
            clients: (knob % 30) as usize + 1,
        },
        6 => FaultKind::NeverReads {
            clients: (knob % 30) as usize + 1,
        },
        _ => FaultKind::FdStorm {
            sockets: (knob % 400) as usize + 1,
        },
    };
    FaultEvent {
        start_ns: start_s * SEC,
        duration_ns: dur_s * SEC,
        kind,
    }
}

fn cfg_with(plan: FaultPlan, arch: ServerArch, seed: u64) -> TestbedConfig {
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(arch, 1, link);
    cfg.num_clients = 60;
    cfg.duration = SimDuration::from_secs(18);
    cfg.warmup = SimDuration::from_secs(3);
    cfg.ramp = SimDuration::from_secs(1);
    cfg.seed = seed;
    cfg.fault_plan = Some(plan);
    cfg
}

/// Digest of everything a run measures, with exact (bit-level) equality.
#[derive(Debug, PartialEq)]
struct Digest {
    traffic: [u64; 8],
    errors: metrics::ErrorCounters,
    response_hist: (u64, u64, u64, u64),
    reply_windows: Vec<u64>,
    stale_events: u64,
    syns_refused: u64,
}

fn hist_digest(h: &Histogram) -> (u64, u64, u64, u64) {
    if h.is_empty() {
        return (0, 0, 0, 0);
    }
    (h.count(), h.min(), h.max(), h.mean().to_bits())
}

fn digest(tb: &Testbed) -> Digest {
    let t = &tb.metrics.traffic;
    Digest {
        traffic: [
            t.connections_established,
            t.requests_sent,
            t.replies_received,
            t.sessions_completed,
            t.sessions_aborted,
            t.bytes_received,
            t.bytes_sent,
            t.retries,
        ],
        errors: tb.metrics.errors,
        response_hist: hist_digest(&tb.metrics.response_time_us),
        reply_windows: tb
            .metrics
            .replies
            .rates_per_sec()
            .iter()
            .map(|r| r.to_bits())
            .collect(),
        stale_events: tb.stale_events,
        syns_refused: tb.syns_refused,
    }
}

fn arch_from(which: u8) -> ServerArch {
    match which % 3 {
        0 => ServerArch::EventDriven { workers: 2 },
        1 => ServerArch::Threaded { pool: 128 },
        _ => ServerArch::Staged {
            parse_threads: 1,
            send_threads: 2,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same seed + same plan ⇒ bit-identical metrics, for any generated
    /// plan against any architecture. This is what makes fault replays
    /// debuggable: a chaos run can be reproduced exactly from its config.
    #[test]
    fn any_plan_is_deterministic(
        kind_sel in 0u8..8,
        start_s in 2u64..10,
        dur_s in 1u64..7,
        knob in 0u32..100,
        which in 0u8..3,
        seed in 0u64..10_000,
    ) {
        let plan = FaultPlan::new("generated", vec![event_from(kind_sel, start_s, dur_s, knob)]);
        prop_assert!(plan.validate(1).is_ok(), "generator must emit valid plans");
        let cfg = cfg_with(plan, arch_from(which), seed);
        let a = digest(&run(cfg.clone()));
        let b = digest(&run(cfg));
        prop_assert_eq!(a, b, "same seed + plan must replay identically");
    }

    /// A two-event plan (fault, then a later different fault) keeps the
    /// accounting coherent: replies never exceed requests and the run
    /// still makes progress outside the fault windows.
    #[test]
    fn plans_preserve_accounting(
        kind_a in 0u8..8,
        kind_b in 0u8..8,
        knob in 0u32..100,
        which in 0u8..3,
        seed in 0u64..10_000,
    ) {
        // Disjoint windows; different kinds may share a link, same kinds
        // on one link must not overlap (validate enforces it).
        let plan = FaultPlan::new(
            "generated-pair",
            vec![event_from(kind_a, 3, 2, knob), event_from(kind_b, 7, 2, knob / 7)],
        );
        prop_assert!(plan.validate(1).is_ok());
        let cfg = cfg_with(plan, arch_from(which), seed);
        let tb = run(cfg);
        let t = &tb.metrics.traffic;
        prop_assert!(t.replies_received <= t.requests_sent,
            "replies {} > requests {}", t.replies_received, t.requests_sent);
        prop_assert!(t.replies_received > 0, "run must survive the plan");
    }

    /// Any generated WorkerCrash plan replayed against the sharded accept
    /// path: the replay is bit-identical, the port stays reachable (clients
    /// keep getting replies through and after the crash window), and no
    /// already-accepted connection is lost — every establishment the
    /// clients measured is accounted to exactly one shard's accept
    /// counter, crash takeover included.
    #[test]
    fn sharded_worker_crash_loses_no_accepted_connections(
        fraction_sel in 1u32..10,
        restart in any::<bool>(),
        start_s in 2u64..8,
        dur_s in 1u64..6,
        seed in 0u64..10_000,
    ) {
        let plan = FaultPlan::new(
            "sharded-crash",
            vec![FaultEvent {
                start_ns: start_s * SEC,
                duration_ns: dur_s * SEC,
                kind: FaultKind::WorkerCrash {
                    fraction: 0.1 * fraction_sel as f64,
                    restart,
                },
            }],
        );
        prop_assert!(plan.validate(1).is_ok());
        let mut cfg = cfg_with(plan, ServerArch::EventDriven { workers: 4 }, seed);
        cfg.accept_mode = AcceptMode::Sharded;
        let a = run(cfg.clone());
        let b = run(cfg);
        prop_assert_eq!(
            digest(&a), digest(&b),
            "same seed + crash plan must replay bit-identically in sharded mode"
        );

        let t = &a.metrics.traffic;
        prop_assert!(t.replies_received > 0, "port must stay reachable through the crash");

        let ev = a.event_server().expect("event-driven arch");
        let shards = ev.accepted_per_shard();
        prop_assert_eq!(shards.len(), 4, "one accept counter per worker shard");
        let shard_total: u64 = shards.iter().sum();
        // Shard counters cover the whole run (warmup included) while the
        // client-side establishment counter only covers the measuring
        // window, so the shard total must dominate: a takeover that
        // dropped an accepted connection would break this.
        prop_assert!(
            shard_total >= t.connections_established,
            "shards accepted {} < clients established {} — accepted connections were lost",
            shard_total,
            t.connections_established
        );
        prop_assert!(shard_total > 0, "sharded path must actually accept");
    }
}
