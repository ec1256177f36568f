//! End-to-end observability properties over whole simulated runs: for
//! arbitrary (architecture, load, seed) schedules, every captured request
//! breakdown obeys the stage invariants, and no gauge ever reads negative.

use desim::SimDuration;
use netsim::LinkConfig;
use obs::{GaugeKind, ObsConfig, Stage};
use proptest::prelude::*;
use serversim::{run, ServerArch, TestbedConfig};

fn observed_config(arch: ServerArch, clients: u32, seed: u64) -> TestbedConfig {
    let link = LinkConfig::from_mbit(100.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(arch, 1, link);
    cfg.num_clients = clients;
    cfg.duration = SimDuration::from_secs(4);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.ramp = SimDuration::from_millis(500);
    cfg.seed = seed;
    cfg.obs = Some(ObsConfig::default());
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn simulated_schedules_produce_valid_breakdowns(
        arch_sel in 0u8..3,
        clients in 5u32..40,
        seed in 1u64..1_000_000,
    ) {
        let arch = match arch_sel {
            0 => ServerArch::EventDriven { workers: 2 },
            1 => ServerArch::Threaded { pool: 16 },
            _ => ServerArch::Staged { parse_threads: 1, send_threads: 2 },
        };
        let tb = run(observed_config(arch, clients, seed));

        // The run must actually have captured requests.
        prop_assert!(!tb.obs.requests.completed().is_empty());

        for b in tb.obs.requests.completed() {
            // Non-negative (u64) durations that tile [start, end] exactly:
            // the breakdown provably sums to the measured response time.
            prop_assert!(b.end_ns >= b.start_ns);
            prop_assert_eq!(b.stage_sum_ns(), b.total_ns());
            let mut cursor = b.start_ns;
            for &(_, d) in &b.stages {
                cursor += d;
                prop_assert!(cursor <= b.end_ns);
            }
            prop_assert_eq!(cursor, b.end_ns);
            // Lifecycle order: the request always opens in Parse.
            prop_assert_eq!(b.stages.first().map(|&(s, _)| s), Some(Stage::Parse));
        }

        // Gauges: sampled on the virtual timer, never negative, and the
        // kinds match the architecture.
        prop_assert!(!tb.obs.gauges.is_empty());
        for s in tb.obs.gauges.samples() {
            prop_assert!(s.value >= 0.0, "negative gauge {:?}", s);
        }
        let threaded = matches!(arch, ServerArch::Threaded { .. });
        let (pool_ts, _) = tb.obs.gauges.series(GaugeKind::ThreadPoolOccupancy);
        let (reg_ts, _) = tb.obs.gauges.series(GaugeKind::RegisteredConns);
        prop_assert_eq!(pool_ts.is_empty(), !threaded);
        prop_assert_eq!(reg_ts.is_empty(), threaded);

        // Connection-level spans are well-formed intervals.
        for span in tb.obs.spans.spans() {
            prop_assert!(span.end_ns >= span.start_ns);
        }

        // The incrementally maintained busy counter the ready-set gauge
        // reads agrees with a brute-force recount of the same predicate at
        // whatever state the schedule ended in.
        let mut tb = tb;
        let fast = tb.busy_fast();
        prop_assert_eq!(fast, tb.busy_brute());
    }
}

/// Gauge sampling must be O(active), not O(open): a run with 20× the idle
/// connection population performs exactly as many per-connection visits
/// while sampling — zero — and the incremental ready-set counter it reads
/// instead still matches a brute recount.
#[test]
fn gauge_sampling_cost_independent_of_idle_connections() {
    for &clients in &[10u32, 200u32] {
        let mut tb = run(observed_config(
            ServerArch::EventDriven { workers: 2 },
            clients,
            7,
        ));
        // Sampling demonstrably ran: the ready-set series is populated.
        let (ts, _) = tb.obs.gauges.series(GaugeKind::ReadySetSize);
        assert!(!ts.is_empty(), "no ready-set samples at clients={clients}");
        // ...and never iterated connection records to do so.
        assert_eq!(
            tb.gauge_conn_visits, 0,
            "gauge sampling scanned connection records at clients={clients}"
        );
        let fast = tb.busy_fast();
        assert_eq!(fast, tb.busy_brute(), "counter drift at clients={clients}");
    }
}

/// The per-stage histograms and the span archive measure the same
/// requests through different stores: the `total` histogram's percentiles
/// must agree with percentiles computed directly from the archived
/// breakdowns' response times, within the log2 bucket resolution.
#[test]
fn histogram_percentiles_agree_with_span_derived_response_times() {
    let tb = run(observed_config(ServerArch::Threaded { pool: 16 }, 25, 11));
    // Apples to apples only when the bounded archive dropped nothing (the
    // histograms see every closed request; the archive may not).
    assert_eq!(tb.obs.requests.dropped(), 0, "archive overflowed; grow it");
    let mut totals: Vec<u64> = tb
        .obs
        .requests
        .completed()
        .iter()
        .map(|b| b.total_ns())
        .collect();
    assert!(
        totals.len() >= 100,
        "too few requests to compare percentiles"
    );
    totals.sort_unstable();
    let hist = tb.obs.requests.hists().total();
    assert_eq!(hist.count(), totals.len() as u64);
    for q in [0.50, 0.90, 0.99] {
        // The histogram reports the matched bucket's lower bound at rank
        // ceil(q·n); mirror that rank, then allow one bucket (~2^-7
        // relative) of quantisation plus rank-rounding slack.
        let rank = ((q * totals.len() as f64).ceil() as usize).max(1) - 1;
        let exact = totals[rank] as f64;
        let approx = hist.quantile(q) as f64;
        let rel = (approx - exact).abs() / exact.max(1.0);
        assert!(
            rel < 0.05,
            "q{q}: hist {approx} vs span-derived {exact} ({:.2}% off)",
            rel * 100.0
        );
    }
}

#[test]
fn disabled_obs_records_nothing() {
    let link = LinkConfig::from_mbit(100.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(ServerArch::EventDriven { workers: 2 }, 1, link);
    cfg.num_clients = 10;
    cfg.duration = SimDuration::from_secs(2);
    cfg.warmup = SimDuration::from_millis(500);
    cfg.ramp = SimDuration::from_millis(200);
    let tb = run(cfg);
    assert!(!tb.obs.on());
    assert!(tb.obs.requests.completed().is_empty());
    assert!(tb.obs.spans.is_empty());
    assert!(tb.obs.gauges.is_empty());
}

#[test]
fn breakdown_count_tracks_delivered_replies() {
    let tb = run(observed_config(ServerArch::Threaded { pool: 16 }, 20, 7));
    let done = tb
        .obs
        .requests
        .end_counts()
        .iter()
        .find(|&&(e, _)| e == obs::EndReason::Done)
        .map(|&(_, n)| n)
        .unwrap_or(0);
    // Every delivered reply finishes exactly one tracked request; the
    // metrics count includes only measured-window replies, so the tracker
    // (which sees the whole run) must have at least as many.
    assert!(
        done >= tb.metrics.traffic.replies_received,
        "done={} < replies={}",
        done,
        tb.metrics.traffic.replies_received
    );
}
