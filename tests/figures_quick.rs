//! Workspace integration: every paper figure regenerates at reduced scale
//! and keeps its qualitative shape. This is the CI-speed version of
//! `repro all`; absolute numbers shrink with the load, the who-wins
//! relations must not.

use eventscale::prelude::*;

/// A quick campaign shared by all tests in this binary (figure builders
/// memoise sweeps, so panel pairs cost one sweep).
fn campaign() -> Campaign {
    Campaign::new(Scale::quick())
}

#[test]
fn fig1_uniprocessor_throughput_shapes() {
    let mut c = campaign();
    for id in ["fig1a", "fig1b"] {
        let fig = c.build(id);
        let checks = check_figure(&fig);
        assert!(!checks.is_empty());
        // At quick scale only the monotone-growth checks are meaningful;
        // peak-ordering needs saturation, which needs paper-scale load. The
        // first check of both panels is the growth check.
        assert!(
            checks[0].pass,
            "{id}: {} — {}\n{}",
            checks[0].name,
            checks[0].detail,
            fig.render()
        );
    }
}

#[test]
fn fig3_error_taxonomy() {
    let mut c = campaign();
    let fig = c.build("fig3b");
    let checks = check_figure(&fig);
    // "nio never produces connection resets" holds at any scale.
    let nio_check = &checks[0];
    assert!(
        nio_check.pass,
        "{} — {}\n{}",
        nio_check.name,
        nio_check.detail,
        fig.render()
    );
    // httpd produces at least some resets once load is non-trivial.
    let httpd = fig.series_by_label("httpd").unwrap();
    let total: f64 = httpd.points.iter().map(|r| r.conn_reset_per_s).sum();
    assert!(
        total > 0.0,
        "httpd should reset thinking clients\n{}",
        fig.render()
    );
}

#[test]
fn fig4_connection_time_contrast() {
    // Use a dedicated sweep with loads crossing a small pool's size so the
    // contrast appears at quick scale.
    let mut scale = Scale::quick();
    scale.loads = vec![60, 300, 600];
    let mut c = Campaign::new(scale);
    let nio = c.series(
        "nio",
        ServerArch::EventDriven { workers: 1 },
        1,
        experiments::LinkSetup::Gbit1,
    );
    let small_pool = c.series(
        "httpd-128t",
        ServerArch::Threaded { pool: 128 },
        1,
        experiments::LinkSetup::Gbit1,
    );
    let nio_worst = nio
        .points
        .iter()
        .map(|r| r.mean_connect_ms)
        .fold(0.0f64, f64::max);
    let pool_at_overload = small_pool.points.last().unwrap().mean_connect_ms;
    assert!(
        nio_worst < 20.0,
        "nio connection time should stay flat: {nio_worst} ms"
    );
    assert!(
        pool_at_overload > nio_worst * 10.0,
        "128-thread pool at 600 clients should show contention: {pool_at_overload} ms vs {nio_worst} ms"
    );
}

#[test]
fn fig5_bandwidth_cap() {
    // At quick scale, use a narrower link so saturation happens by 600
    // clients: 20 Mbit/s ≈ 2.5 MB/s.
    let link = LinkConfig::from_mbit(20.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(ServerArch::EventDriven { workers: 1 }, 1, link);
    cfg.num_clients = 600;
    cfg.duration = SimDuration::from_secs(20);
    cfg.warmup = SimDuration::from_secs(6);
    let r = run_experiment(cfg);
    assert!(
        (1.9..2.8).contains(&r.bandwidth_mb_s),
        "20 Mbit link should saturate near 2.5 MB/s, got {}",
        r.bandwidth_mb_s
    );
}

#[test]
fn fig9_smp_scaling_direction() {
    // Full doubling requires paper-scale saturation; at quick scale assert
    // the direction and a sane magnitude using a CPU-heavy load.
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let run_with = |cpus: usize, arch: ServerArch| {
        let mut cfg = TestbedConfig::paper_default(arch, cpus, link);
        cfg.num_clients = 5000;
        cfg.duration = SimDuration::from_secs(25);
        cfg.warmup = SimDuration::from_secs(8);
        run_experiment(cfg)
    };
    let nio_up = run_with(1, ServerArch::EventDriven { workers: 1 });
    let nio_smp = run_with(4, ServerArch::EventDriven { workers: 2 });
    let ratio = nio_smp.throughput_rps / nio_up.throughput_rps;
    assert!(
        ratio > 1.4,
        "SMP should clearly beat UP under saturation: {ratio:.2} ({} vs {})",
        nio_smp.throughput_rps,
        nio_up.throughput_rps
    );
}

#[test]
fn campaign_caches_sweeps_across_panels() {
    let mut c = Campaign::new(Scale {
        loads: vec![30, 90],
        duration: SimDuration::from_secs(8),
        warmup: SimDuration::from_secs(3),
        ramp: SimDuration::from_secs(1),
        seed: 7,
    });
    let t0 = std::time::Instant::now();
    let _fig1a = c.build("fig1a");
    let first = t0.elapsed();
    let t1 = std::time::Instant::now();
    let fig2a = c.build("fig2a"); // same sweeps, different metric
    let second = t1.elapsed();
    assert!(
        second < first / 5,
        "panel pair should reuse cached sweeps: {first:?} then {second:?}"
    );
    assert_eq!(fig2a.metric, Metric::ResponseMs);
}
