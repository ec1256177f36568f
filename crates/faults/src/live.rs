//! Loopback fault driver: replays a [`FaultPlan`](crate::FaultPlan) against
//! a running live server in wall-clock time.
//!
//! The driver only actuates faults a process can inflict on itself —
//! stalling accepts and crashing worker threads. Link-shaped faults have no
//! loopback actuator (there is no tc/netem here) and client-side faults
//! (slow-loris, jitter) are the load generator's job; both are reported as
//! skipped rather than silently ignored.

use crate::plan::{FaultKind, FaultPlan};
use std::time::{Duration, Instant};

/// Hooks a live server exposes so the driver can hurt it.
pub trait FaultTarget {
    /// Freeze (`true`) or resume (`false`) the accept loop.
    fn stall_accepts(&self, on: bool);
    /// Kill one worker thread. Returns false when no worker was left to
    /// kill (or the target does not support crashes).
    fn crash_worker(&self) -> bool {
        false
    }
    /// Bring one previously crashed worker back. Returns false when the
    /// target cannot restart workers — the crash then just persists, which
    /// the caller's plan must tolerate.
    fn restart_worker(&self) -> bool {
        false
    }
    /// Number of worker threads the target started with (used to turn a
    /// crash `fraction` into a count).
    fn worker_count(&self) -> usize {
        1
    }
}

/// What the driver actually did with a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanOutcome {
    /// Fault events actuated against the target.
    pub applied: usize,
    /// Events with no loopback actuator (link faults, client-side faults).
    pub skipped: usize,
}

/// Replay `plan` against `target`, blocking until the last event ends.
/// `time_scale` compresses the schedule (0.01 turns a 12 s offset into
/// 120 ms) so tests stay fast; it must be positive.
pub fn run_plan<T: FaultTarget>(plan: &FaultPlan, target: &T, time_scale: f64) -> PlanOutcome {
    assert!(time_scale > 0.0, "time_scale must be positive");
    // Flatten to (when, event index, is_start) edges and sort; ties break
    // start-before-end so zero-gap sequences still toggle correctly.
    let mut edges: Vec<(u64, usize, bool)> = Vec::new();
    for (i, e) in plan.events.iter().enumerate() {
        edges.push((e.start_ns, i, true));
        edges.push((e.end_ns(), i, false));
    }
    edges.sort_by_key(|&(t, i, start)| (t, !start as u8, i));

    let epoch = Instant::now();
    let mut outcome = PlanOutcome::default();
    for (t_ns, idx, is_start) in edges {
        let at = Duration::from_nanos((t_ns as f64 * time_scale) as u64);
        if let Some(wait) = at.checked_sub(epoch.elapsed()) {
            std::thread::sleep(wait);
        }
        let kind = plan.events[idx].kind;
        match kind {
            FaultKind::ServerStall => {
                target.stall_accepts(is_start);
                if is_start {
                    outcome.applied += 1;
                }
            }
            FaultKind::WorkerCrash { fraction, restart } => {
                let count = ((target.worker_count() as f64 * fraction).round() as usize).max(1);
                if is_start {
                    for _ in 0..count {
                        target.crash_worker();
                    }
                    outcome.applied += 1;
                } else if restart {
                    for _ in 0..count {
                        target.restart_worker();
                    }
                }
            }
            // Network shaping has no loopback analogue, and the adversarial
            // client kinds are driven from the client side live (see
            // `loadgen::adversary`), not injected into the server.
            FaultKind::LinkOutage { .. }
            | FaultKind::LinkDegrade { .. }
            | FaultKind::LatencyJitter { .. }
            | FaultKind::SlowLoris { .. }
            | FaultKind::NeverReads { .. }
            | FaultKind::FdStorm { .. } => {
                if is_start {
                    outcome.skipped += 1;
                }
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultEvent;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[derive(Default)]
    struct Probe {
        stalled: AtomicBool,
        crashes: AtomicU64,
        restarts: AtomicU64,
        stall_edges: AtomicU64,
    }

    impl FaultTarget for Probe {
        fn stall_accepts(&self, on: bool) {
            self.stalled.store(on, Ordering::SeqCst);
            self.stall_edges.fetch_add(1, Ordering::SeqCst);
        }
        fn crash_worker(&self) -> bool {
            self.crashes.fetch_add(1, Ordering::SeqCst);
            true
        }
        fn restart_worker(&self) -> bool {
            self.restarts.fetch_add(1, Ordering::SeqCst);
            true
        }
        fn worker_count(&self) -> usize {
            4
        }
    }

    #[test]
    fn replays_stall_and_crash_edges() {
        let plan = FaultPlan::new(
            "t",
            vec![
                FaultEvent {
                    start_ns: 0,
                    duration_ns: 20_000_000,
                    kind: FaultKind::ServerStall,
                },
                FaultEvent {
                    start_ns: 5_000_000,
                    duration_ns: 20_000_000,
                    kind: FaultKind::WorkerCrash {
                        fraction: 0.5,
                        restart: true,
                    },
                },
                FaultEvent {
                    start_ns: 1_000_000,
                    duration_ns: 1_000_000,
                    kind: FaultKind::LinkOutage { link: 0 },
                },
            ],
        );
        let probe = Probe::default();
        let outcome = run_plan(&plan, &probe, 1.0);
        assert_eq!(
            outcome,
            PlanOutcome {
                applied: 2,
                skipped: 1
            }
        );
        assert!(!probe.stalled.load(Ordering::SeqCst), "stall must end");
        assert_eq!(probe.stall_edges.load(Ordering::SeqCst), 2);
        assert_eq!(probe.crashes.load(Ordering::SeqCst), 2, "half of 4 workers");
        assert_eq!(probe.restarts.load(Ordering::SeqCst), 2);
    }
}
