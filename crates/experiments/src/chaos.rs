//! `repro chaos` — execute the named fault plans against both
//! architectures and report degradation-under-fault and time-to-recover.
//!
//! The paper measures the two architectures on their best day; this module
//! measures them on their worst. Each run replays one deterministic
//! [`FaultPlan`] from the catalog in virtual time with overload control on
//! (explicit refusal + load shedding) and clients retrying with capped
//! exponential backoff — then summarises the reply-rate series around the
//! fault window with [`FaultImpact`].
//!
//! The shape checks encode the robustness claim this PR adds on top of the
//! paper: the event-driven server degrades no less gracefully than the
//! thread pool and recovers at least as fast once the fault clears.

use crate::checks::Check;
use faults::{FaultImpact, FaultPlan, RetryPolicy, PLAN_NAMES};
use serversim::{ServerArch, TestbedConfig};

/// One (plan, architecture) execution, summarised.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    pub plan: String,
    pub arch: String,
    pub impact: FaultImpact,
    /// Total replies over the run (sanity: the run did real work).
    pub replies: u64,
    /// Explicit refusals clients observed (admission control at work).
    pub refused: u64,
    /// Backoff retries clients took under the retry policy.
    pub retries: u64,
}

/// Everything `repro chaos` prints and asserts.
#[derive(Debug)]
pub struct ChaosReport {
    pub runs: Vec<ChaosRun>,
    pub checks: Vec<Check>,
}

/// The two contenders, sized comparably for a 200-client chaos run: the
/// paper's best UP nio config (plus one spare worker so a worker-crash
/// leaves a survivor) vs. a mid-size Apache pool.
const ARCHS: [ServerArch; 2] = [
    ServerArch::EventDriven { workers: 2 },
    ServerArch::Threaded { pool: 256 },
];

/// Fault window geometry shared by every catalog plan (see
/// [`FaultPlan::named`]): steady by 10 s, fault at 12 s, cleared by 22 s.
const FAULT_START_S: usize = 12;
const WARMUP_S: usize = 5;

fn chaos_config(arch: ServerArch, plan: FaultPlan, smoke: bool) -> TestbedConfig {
    let link = netsim::LinkConfig::from_mbit(1000.0, desim::SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(arch, 1, link);
    cfg.num_clients = if smoke { 120 } else { 200 };
    cfg.duration = desim::SimDuration::from_secs(if smoke { 35 } else { 40 });
    cfg.warmup = desim::SimDuration::from_secs(WARMUP_S as u64);
    cfg.ramp = desim::SimDuration::from_secs(2);
    cfg.seed = 0xC4A0_5000 ^ plan.name.len() as u64;
    // Robustness posture under test: refuse explicitly instead of silently
    // dropping SYNs, shed load past a watermark, and let clients retry with
    // capped exponential backoff.
    cfg.admission.refuse_on_full = true;
    cfg.admission.shed_watermark = Some(match arch {
        // Run-queue depth for the selector server…
        ServerArch::EventDriven { .. } | ServerArch::Staged { .. } => 400,
        // …pool occupancy + backlog residence for the thread pool.
        ServerArch::Threaded { pool } => (pool + 300) as u64,
    });
    cfg.client.retry = Some(RetryPolicy::standard());
    cfg.fault_plan = Some(plan);
    cfg
}

/// Execute every named plan against both architectures. `smoke` trims the
/// plan list and the client population for CI.
pub fn run_chaos(smoke: bool) -> ChaosReport {
    let plans: &[&str] = if smoke {
        &PLAN_NAMES[..4]
    } else {
        &PLAN_NAMES[..]
    };
    let jobs: Vec<(String, ServerArch)> = plans
        .iter()
        .flat_map(|p| ARCHS.iter().map(move |&a| (p.to_string(), a)))
        .collect();
    // Each job is one single-threaded deterministic simulation: run them in
    // parallel like `sweep` does, preserving order.
    let results: Vec<ChaosRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(plan_name, arch)| {
                scope.spawn(move || {
                    let plan = FaultPlan::named(plan_name).expect("catalog plan");
                    let fault_end_s = plan.horizon_ns().div_ceil(1_000_000_000) as usize;
                    let cfg = chaos_config(*arch, plan, smoke);
                    let tb = serversim::run(cfg);
                    let rates = tb.metrics.replies.rates_per_sec();
                    let impact =
                        FaultImpact::from_rates(&rates, WARMUP_S, FAULT_START_S, fault_end_s);
                    ChaosRun {
                        plan: plan_name.clone(),
                        arch: arch.label(),
                        impact,
                        replies: tb.metrics.traffic.replies_received,
                        refused: tb.metrics.errors.connection_refused,
                        retries: tb.metrics.traffic.retries,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos run"))
            .collect()
    });
    let checks = chaos_checks(&results, plans);
    ChaosReport {
        runs: results,
        checks,
    }
}

/// The robustness story the runs must tell.
fn chaos_checks(runs: &[ChaosRun], plans: &[&str]) -> Vec<Check> {
    let mut out = Vec::new();
    let find = |plan: &str, nio: bool| {
        runs.iter()
            .find(|r| r.plan == plan && r.arch.starts_with("nio") == nio)
            .unwrap_or_else(|| panic!("missing run {plan}/{nio}"))
    };
    for &plan in plans {
        let nio = find(plan, true);
        let httpd = find(plan, false);
        // Both architectures did real work around the fault.
        out.push(Check::new(
            &format!("{plan}: both architectures sustain traffic"),
            nio.replies > 500 && httpd.replies > 500,
            format!("replies nio={} httpd={}", nio.replies, httpd.replies),
        ));
        // The event-driven server comes back once the fault clears.
        out.push(Check::new(
            &format!("{plan}: nio recovers after the fault clears"),
            nio.impact.recovered(),
            format!(
                "before {:.0} rps, during {:.0}, after {:.0}, ttr {:?}",
                nio.impact.before_rps,
                nio.impact.during_rps,
                nio.impact.after_rps,
                nio.impact.time_to_recover_s
            ),
        ));
        // … and no slower than the thread pool (a pool that never recovers
        // counts as infinitely slow). One second of tolerance absorbs
        // window-edge rounding.
        let nio_ttr = nio.impact.time_to_recover_s.unwrap_or(f64::INFINITY);
        let httpd_ttr = httpd.impact.time_to_recover_s.unwrap_or(f64::INFINITY);
        out.push(Check::new(
            &format!("{plan}: nio recovers at least as fast as httpd"),
            nio_ttr <= httpd_ttr + 1.0,
            format!("ttr nio={nio_ttr:.0}s httpd={httpd_ttr:.0}s"),
        ));
    }
    // Hard faults must actually hurt — otherwise the plan replay is broken
    // and every recovery check above is vacuous.
    for &plan in plans.iter().filter(|p| ["outage", "stall"].contains(p)) {
        let nio = find(plan, true);
        out.push(Check::new(
            &format!("{plan}: fault visibly degrades throughput"),
            nio.impact.degradation() > 0.2,
            format!("degradation {:.0}%", nio.impact.degradation() * 100.0),
        ));
    }
    // Overload control sheds explicitly somewhere across the campaign: the
    // refusal path is exercised, not dead config.
    let refused: u64 = runs.iter().map(|r| r.refused).sum();
    let retries: u64 = runs.iter().map(|r| r.retries).sum();
    out.push(Check::new(
        "clients retry with backoff under faults",
        retries > 0,
        format!("total retries {retries}, total refusals {refused}"),
    ));
    out
}

/// Render the per-run table.
pub fn render_chaos(report: &ChaosReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<12} {:>9} {:>9} {:>9} {:>7} {:>8} {:>9} {:>9}\n",
        "plan", "arch", "before", "during", "after", "degr%", "ttr(s)", "refused", "retries"
    ));
    for r in &report.runs {
        let ttr = r
            .impact
            .time_to_recover_s
            .map(|t| format!("{t:.0}"))
            .unwrap_or_else(|| "never".to_string());
        out.push_str(&format!(
            "{:<14} {:<12} {:>9.0} {:>9.0} {:>9.0} {:>7.0} {:>8} {:>9} {:>9}\n",
            r.plan,
            r.arch,
            r.impact.before_rps,
            r.impact.during_rps,
            r.impact.after_rps,
            r.impact.degradation() * 100.0,
            ttr,
            r.refused,
            r.retries
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_passes_its_own_checks() {
        let report = run_chaos(true);
        assert_eq!(report.runs.len(), 8, "4 plans x 2 archs");
        assert!(
            report.checks.iter().all(|c| c.pass),
            "{}",
            crate::render_checks(&report.checks)
        );
    }

    #[test]
    fn render_has_a_row_per_run() {
        let report = run_chaos(true);
        let table = render_chaos(&report);
        assert_eq!(table.lines().count(), report.runs.len() + 1);
        for r in &report.runs {
            assert!(table.contains(&r.plan));
        }
    }
}
