//! Fault plan schema and the named catalog `repro chaos` executes.

/// One nanosecond-denominated second, for readable plan literals.
const SEC: u64 = 1_000_000_000;

/// What goes wrong. Each kind names the component it degrades; the schedule
/// around it (start, duration) lives in [`FaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Link `link` drops to (effectively) zero capacity: packets neither
    /// arrive nor depart, in-flight transfers stall.
    LinkOutage { link: usize },
    /// Link `link` keeps only `capacity_factor` of its configured bandwidth
    /// (byte-rate loss — the sim's fluid analogue of sustained packet loss).
    LinkDegrade { link: usize, capacity_factor: f64 },
    /// Every byte crossing link `link` pays `added_ns` extra one-way latency.
    LatencyJitter { link: usize, added_ns: u64 },
    /// A fraction of the server's worker threads (selector workers for the
    /// event-driven server, pool threads for the threaded one) crash and
    /// stay dead for the event's duration. With `restart: false` they stay
    /// dead until the end of the run regardless of the scheduled duration.
    WorkerCrash { fraction: f64, restart: bool },
    /// The whole server stalls: accepts freeze and no request makes progress
    /// for the duration (models a GC pause / kernel hiccup).
    ServerStall,
    /// The first `clients` clients turn slow-loris: they trickle request
    /// bytes so slowly that each request occupies server-side resources for
    /// seconds before it parses.
    SlowLoris { clients: usize },
    /// The first `clients` clients stop draining replies: every reply bound
    /// for them wedges in the server's send path (and, for the threaded
    /// server, wedges the thread bound to the connection) until the fault
    /// clears.
    NeverReads { clients: usize },
    /// A connect storm exhausts the server's fd headroom: `sockets` raw
    /// connects slam the accept path at onset and every SYN arriving during
    /// the window is answered with an explicit refusal (the fd-reserve
    /// defense) instead of an accept.
    FdStorm { sockets: usize },
}

impl FaultKind {
    /// Short label used in tables and trace lines.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LinkOutage { .. } => "link-outage",
            FaultKind::LinkDegrade { .. } => "link-degrade",
            FaultKind::LatencyJitter { .. } => "latency-jitter",
            FaultKind::WorkerCrash { .. } => "worker-crash",
            FaultKind::ServerStall => "server-stall",
            FaultKind::SlowLoris { .. } => "slow-loris",
            FaultKind::NeverReads { .. } => "never-reads",
            FaultKind::FdStorm { .. } => "fd-storm",
        }
    }

    /// Link index this fault targets, if it targets one.
    pub fn link(&self) -> Option<usize> {
        match self {
            FaultKind::LinkOutage { link }
            | FaultKind::LinkDegrade { link, .. }
            | FaultKind::LatencyJitter { link, .. } => Some(*link),
            _ => None,
        }
    }
}

/// One scheduled fault: `kind` holds from `start_ns` for `duration_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub start_ns: u64,
    pub duration_ns: u64,
    pub kind: FaultKind,
}

impl FaultEvent {
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.duration_ns)
    }
}

/// A named, deterministic schedule of faults. The same value drives the sim
/// testbed (virtual time) and the live loopback driver (wall time).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub name: String,
    pub events: Vec<FaultEvent>,
}

/// Names in the built-in catalog, in the order `repro chaos` runs them.
pub const PLAN_NAMES: [&str; 8] = [
    "outage",
    "brownout",
    "jitter",
    "worker-crash",
    "stall",
    "slow-loris",
    "never-reads",
    "fd-storm",
];

impl FaultPlan {
    pub fn new(name: &str, events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan {
            name: name.to_string(),
            events,
        }
    }

    /// Look up a plan from the built-in catalog. Windows are laid out for a
    /// run of roughly 40 (virtual or wall-scaled) seconds: steady state by
    /// 10 s, fault from 12 s, cleared by 22 s, recovery observed after.
    pub fn named(name: &str) -> Option<FaultPlan> {
        let ev = |start_s: u64, dur_s: u64, kind: FaultKind| FaultEvent {
            start_ns: start_s * SEC,
            duration_ns: dur_s * SEC,
            kind,
        };
        let events = match name {
            "outage" => vec![ev(12, 10, FaultKind::LinkOutage { link: 0 })],
            "brownout" => vec![ev(
                12,
                10,
                FaultKind::LinkDegrade {
                    link: 0,
                    capacity_factor: 0.1,
                },
            )],
            "jitter" => vec![ev(
                12,
                10,
                FaultKind::LatencyJitter {
                    link: 0,
                    added_ns: 150_000_000,
                },
            )],
            "worker-crash" => vec![ev(
                12,
                10,
                FaultKind::WorkerCrash {
                    fraction: 0.5,
                    restart: true,
                },
            )],
            "stall" => vec![ev(12, 6, FaultKind::ServerStall)],
            "slow-loris" => vec![ev(12, 10, FaultKind::SlowLoris { clients: 40 })],
            "never-reads" => vec![ev(12, 10, FaultKind::NeverReads { clients: 30 })],
            "fd-storm" => vec![ev(12, 10, FaultKind::FdStorm { sockets: 512 })],
            _ => return None,
        };
        Some(FaultPlan::new(name, events))
    }

    /// Highest link index any event references, if any does.
    pub fn max_link(&self) -> Option<usize> {
        self.events.iter().filter_map(|e| e.kind.link()).max()
    }

    /// Latest end time across all events (ns).
    pub fn horizon_ns(&self) -> u64 {
        self.events
            .iter()
            .map(FaultEvent::end_ns)
            .max()
            .unwrap_or(0)
    }

    /// Check the plan is executable against a testbed with `num_links`
    /// links. Returns a description of the first problem found.
    pub fn validate(&self, num_links: usize) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            if e.duration_ns == 0 {
                return Err(format!("event {i} ({}) has zero duration", e.kind.label()));
            }
            if let Some(link) = e.kind.link() {
                if link >= num_links {
                    return Err(format!(
                        "event {i} ({}) targets link {link} but the testbed has {num_links}",
                        e.kind.label()
                    ));
                }
            }
            match e.kind {
                FaultKind::LinkDegrade {
                    capacity_factor, ..
                } if !(capacity_factor > 0.0 && capacity_factor < 1.0) => {
                    return Err(format!(
                        "event {i}: capacity_factor {capacity_factor} not in (0, 1)"
                    ));
                }
                FaultKind::WorkerCrash { fraction, .. } if !(fraction > 0.0 && fraction <= 1.0) => {
                    return Err(format!(
                        "event {i}: crash fraction {fraction} not in (0, 1]"
                    ));
                }
                FaultKind::SlowLoris { clients: 0 } | FaultKind::NeverReads { clients: 0 } => {
                    return Err(format!("event {i}: zero afflicted clients is a no-op"));
                }
                FaultKind::FdStorm { sockets: 0 } => {
                    return Err(format!("event {i}: zero storm sockets is a no-op"));
                }
                _ => {}
            }
        }
        // Two events degrading the same link must not overlap: restoring
        // one would silently cancel the other.
        for (i, a) in self.events.iter().enumerate() {
            for b in &self.events[i + 1..] {
                if let (Some(la), Some(lb)) = (a.kind.link(), b.kind.link()) {
                    let overlap = a.start_ns < b.end_ns() && b.start_ns < a.end_ns();
                    if la == lb && overlap && a.kind.label() == b.kind.label() {
                        return Err(format!(
                            "overlapping {} events on link {la}",
                            a.kind.label()
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_complete_and_valid() {
        for name in PLAN_NAMES {
            let plan = FaultPlan::named(name).expect(name);
            assert_eq!(plan.name, name);
            plan.validate(1).expect(name);
            assert!(plan.horizon_ns() <= 22 * SEC, "{name} ends late");
        }
        assert!(FaultPlan::named("nonesuch").is_none());
    }

    #[test]
    fn validate_rejects_bad_links_and_factors() {
        let plan = FaultPlan::new(
            "bad",
            vec![FaultEvent {
                start_ns: 0,
                duration_ns: SEC,
                kind: FaultKind::LinkOutage { link: 3 },
            }],
        );
        assert!(plan.validate(2).is_err());
        assert!(plan.validate(4).is_ok());

        let plan = FaultPlan::new(
            "bad",
            vec![FaultEvent {
                start_ns: 0,
                duration_ns: SEC,
                kind: FaultKind::LinkDegrade {
                    link: 0,
                    capacity_factor: 1.5,
                },
            }],
        );
        assert!(plan.validate(1).is_err());
    }

    #[test]
    fn validate_rejects_overlapping_same_link_events() {
        let out = |start_s: u64| FaultEvent {
            start_ns: start_s * SEC,
            duration_ns: 5 * SEC,
            kind: FaultKind::LinkOutage { link: 0 },
        };
        let plan = FaultPlan::new("overlap", vec![out(1), out(4)]);
        assert!(plan.validate(1).is_err());
        let plan = FaultPlan::new("sequential", vec![out(1), out(7)]);
        assert!(plan.validate(1).is_ok());
    }
}
