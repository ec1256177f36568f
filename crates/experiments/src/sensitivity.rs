//! Sensitivity analysis: are the reproduced conclusions artifacts of the
//! calibration, or properties of the architectures?
//!
//! Every constant in `hostsim::CpuCosts` was calibrated against the paper's
//! peaks. A reproduction whose conclusions flip when a constant moves ±50%
//! would be curve-fitting, not modelling. This module perturbs each
//! calibrated constant and re-tests the paper's three headline conclusions
//! at reduced scale:
//!
//! * **C1 (thread economy):** one worker thread keeps the event-driven
//!   server within 40% of the 4096-thread server's throughput on one CPU;
//! * **C2 (error structure):** the event-driven server produces zero
//!   connection resets while the threaded server produces some;
//! * **C3 (SMP scaling):** four CPUs clearly beat one under saturation for
//!   the event-driven server (≥1.3×).

use desim::SimDuration;
use hostsim::CpuCosts;
use metrics::{Align, Table};
use netsim::LinkConfig;
use serversim::{run, RunResult, ServerArch, TestbedConfig};

/// A named perturbation of the cost model.
pub struct Perturbation {
    pub name: &'static str,
    pub apply: fn(&mut CpuCosts),
}

/// The sweep: each calibrated constant halved and x1.5'd.
pub const PERTURBATIONS: &[Perturbation] = &[
    Perturbation {
        name: "baseline",
        apply: |_| {},
    },
    Perturbation {
        name: "parse x0.5",
        apply: |c| c.parse = c.parse / 2,
    },
    Perturbation {
        name: "parse x1.5",
        apply: |c| c.parse = c.parse.mul_f64(1.5),
    },
    Perturbation {
        name: "per_kb_send x0.5",
        apply: |c| c.per_kb_send = c.per_kb_send / 2,
    },
    Perturbation {
        name: "per_kb_send x1.5",
        apply: |c| c.per_kb_send = c.per_kb_send.mul_f64(1.5),
    },
    Perturbation {
        name: "context_switch x3",
        apply: |c| c.context_switch = c.context_switch * 3,
    },
    Perturbation {
        name: "smp_contention x0.5",
        apply: |c| c.smp_contention *= 0.5,
    },
    Perturbation {
        name: "smp_contention x1.5",
        apply: |c| c.smp_contention *= 1.5,
    },
    Perturbation {
        name: "jvm_factor = 1.0 (native nio)",
        apply: |c| c.jvm_factor = 1.0,
    },
    Perturbation {
        name: "jvm_factor = 1.4 (slow JVM)",
        apply: |c| c.jvm_factor = 1.4,
    },
];

/// Result of testing all conclusions under one perturbation.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    pub perturbation: &'static str,
    pub c1_thread_economy: bool,
    pub c2_error_structure: bool,
    pub c3_smp_scaling: bool,
}

impl SensitivityRow {
    pub fn all_hold(&self) -> bool {
        self.c1_thread_economy && self.c2_error_structure && self.c3_smp_scaling
    }
}

fn quick(server: ServerArch, cpus: usize, clients: u32, costs: &CpuCosts) -> RunResult {
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(server, cpus, link);
    cfg.num_clients = clients;
    // Long enough for the 15 s idle timeout to fire repeatedly (C2 needs
    // think gaps longer than the timeout to occur *and* be observed).
    cfg.duration = SimDuration::from_secs(40);
    cfg.warmup = SimDuration::from_secs(8);
    cfg.ramp = SimDuration::from_secs(1);
    cfg.costs = costs.clone();
    let secs = cfg.duration.as_secs_f64();
    let tb = run(cfg.clone());
    RunResult::from_testbed(&cfg, &tb, secs)
}

/// Test the three conclusions under one cost model.
pub fn test_conclusions(costs: &CpuCosts) -> (bool, bool, bool) {
    // C1/C2 at a UP saturation point.
    let nio_up = quick(ServerArch::EventDriven { workers: 1 }, 1, 3000, costs);
    let httpd_up = quick(ServerArch::Threaded { pool: 4096 }, 1, 3000, costs);
    let c1 = nio_up.throughput_rps > httpd_up.throughput_rps * 0.6;
    let c2 = nio_up.errors.connection_reset == 0 && httpd_up.errors.connection_reset > 0;
    // C3 at an SMP saturation point.
    let nio_smp = quick(ServerArch::EventDriven { workers: 2 }, 4, 6000, costs);
    let nio_up_heavy = quick(ServerArch::EventDriven { workers: 1 }, 1, 6000, costs);
    let c3 = nio_smp.throughput_rps > nio_up_heavy.throughput_rps * 1.3;
    (c1, c2, c3)
}

/// Run the full sweep. ~40 reduced-scale simulations; parallelises across
/// perturbations via the same scoped-thread pattern as `sweep`.
pub fn run_sensitivity() -> Vec<SensitivityRow> {
    let rows: Vec<Option<SensitivityRow>> = {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let next = AtomicUsize::new(0);
        let out: Mutex<Vec<Option<SensitivityRow>>> =
            Mutex::new(PERTURBATIONS.iter().map(|_| None).collect());
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(PERTURBATIONS.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= PERTURBATIONS.len() {
                        break;
                    }
                    let p = &PERTURBATIONS[i];
                    let mut costs = CpuCosts::default();
                    (p.apply)(&mut costs);
                    let (c1, c2, c3) = test_conclusions(&costs);
                    out.lock().expect("sensitivity mutex")[i] = Some(SensitivityRow {
                        perturbation: p.name,
                        c1_thread_economy: c1,
                        c2_error_structure: c2,
                        c3_smp_scaling: c3,
                    });
                });
            }
        });
        out.into_inner().expect("sensitivity mutex")
    };
    rows.into_iter().map(|r| r.expect("slot filled")).collect()
}

/// Render the sweep as a table.
pub fn render_sensitivity(rows: &[SensitivityRow]) -> String {
    let mut table = Table::new(&[
        ("perturbation", Align::Left),
        ("C1 thread economy", Align::Right),
        ("C2 error structure", Align::Right),
        ("C3 SMP scaling", Align::Right),
    ]);
    let mark = |b: bool| if b { "holds" } else { "FLIPS" }.to_string();
    for r in rows {
        table.row(vec![
            r.perturbation.to_string(),
            mark(r.c1_thread_economy),
            mark(r.c2_error_structure),
            mark(r.c3_smp_scaling),
        ]);
    }
    format!(
        "## sensitivity — do the conclusions survive ±50% cost perturbations?\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_conclusions_hold() {
        let (c1, c2, c3) = test_conclusions(&CpuCosts::default());
        assert!(c1, "C1 thread economy");
        assert!(c2, "C2 error structure");
        assert!(c3, "C3 SMP scaling");
    }

    #[test]
    fn conclusions_survive_a_slow_jvm() {
        let costs = CpuCosts {
            jvm_factor: 1.4,
            ..CpuCosts::default()
        };
        let (c1, c2, c3) = test_conclusions(&costs);
        assert!(
            c1 && c2 && c3,
            "slow JVM flipped a conclusion: {c1} {c2} {c3}"
        );
    }

    #[test]
    fn perturbation_table_renders() {
        let rows = vec![SensitivityRow {
            perturbation: "x",
            c1_thread_economy: true,
            c2_error_structure: false,
            c3_smp_scaling: true,
        }];
        let s = render_sensitivity(&rows);
        assert!(s.contains("holds"));
        assert!(s.contains("FLIPS"));
    }
}
