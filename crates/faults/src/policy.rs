//! Overload-control and recovery policies: admission control on the server
//! side, capped exponential backoff on the client side, and drain
//! accounting for graceful shutdown. All knobs default to *off* so paper
//! figures are reproduced byte-for-byte unless a caller opts in.

/// How new connections travel from the kernel to a worker.
///
/// `Handoff` is the paper's nio architecture: one acceptor thread accepts
/// every connection and hands it to a worker (a channel send plus a
/// cross-thread wake per connection). `Sharded` is the shared-nothing
/// alternative: every worker owns its own `SO_REUSEPORT` listener (live) or
/// per-worker accept queue (sim) and accepts directly in its own loop — no
/// acceptor thread, no transfer, no wake. Both layers understand the same
/// enum so one flag sweeps one figure in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AcceptMode {
    /// Single acceptor thread distributing to workers (the paper's nio).
    #[default]
    Handoff,
    /// Per-worker listeners/queues; each worker accepts for itself.
    Sharded,
}

/// Environment variable the harnesses read to pick the accept mode, so one
/// CI matrix axis flips every existing test/driver onto the sharded path.
pub const ACCEPT_MODE_ENV: &str = "REPRO_ACCEPT_MODE";

impl AcceptMode {
    /// Stable label used in series names, JSON exports and reports.
    pub fn label(self) -> &'static str {
        match self {
            AcceptMode::Handoff => "handoff",
            AcceptMode::Sharded => "sharded",
        }
    }

    /// Parse a label (case-insensitive): `handoff` | `sharded`.
    pub fn parse(s: &str) -> Option<AcceptMode> {
        let s = s.trim();
        [AcceptMode::Handoff, AcceptMode::Sharded]
            .into_iter()
            .find(|m| s.eq_ignore_ascii_case(m.label()))
    }

    /// Read the mode from `REPRO_ACCEPT_MODE` (`handoff` | `sharded`,
    /// case-insensitive). Unset means `Handoff`, the paper-faithful
    /// default. Any other value panics: a mistyped CI matrix axis must fail
    /// the run, not quietly run the handoff path twice.
    pub fn from_env() -> AcceptMode {
        let Some(raw) = std::env::var_os(ACCEPT_MODE_ENV) else {
            return AcceptMode::Handoff;
        };
        raw.to_str().and_then(AcceptMode::parse).unwrap_or_else(|| {
            panic!(
                "{ACCEPT_MODE_ENV}={raw:?} is not an accept mode (expected `handoff` or `sharded`)"
            )
        })
    }
}

/// Server-side admission control. When enabled, a server refuses new
/// connections *explicitly* (the client observes `conn-refused`, distinct
/// from a reset) instead of silently dropping SYNs to be retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionControl {
    /// Refuse explicitly when the accept backlog is full, rather than
    /// dropping the SYN and letting the client's retransmit timer fire.
    pub refuse_on_full: bool,
    /// Shed load once run-queue depth (event-driven) or pool occupancy
    /// (threaded) reaches this watermark: new connections are refused until
    /// pressure falls below it again.
    pub shed_watermark: Option<u64>,
}

impl AdmissionControl {
    /// Anything enabled at all?
    pub fn is_active(&self) -> bool {
        self.refuse_on_full || self.shed_watermark.is_some()
    }
}

/// Client-side retry with capped exponential backoff plus full jitter.
/// Opt-in: no config carries one by default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Give up (abort the session) after this many consecutive retries.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_ns: u64,
    /// Ceiling the exponential curve saturates at.
    pub cap_ns: u64,
    /// Fraction of the computed backoff randomised away (0 = deterministic,
    /// 1 = full jitter). Jitter only ever *shortens* the wait, so `cap_ns`
    /// stays an upper bound.
    pub jitter_frac: f64,
}

impl RetryPolicy {
    /// A sane default for experiments: 4 retries, 250 ms base, 4 s cap,
    /// half jitter.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_ns: 250_000_000,
            cap_ns: 4_000_000_000,
            jitter_frac: 0.5,
        }
    }

    /// Backoff before retry number `attempt` (0-based), given `unit` drawn
    /// uniformly from [0, 1) by the caller's deterministic RNG stream.
    pub fn backoff_ns(&self, attempt: u32, unit: f64) -> u64 {
        let shift = attempt.min(62);
        let exp = self.base_ns.saturating_mul(1u64 << shift).min(self.cap_ns);
        let jitter = (exp as f64 * self.jitter_frac.clamp(0.0, 1.0) * unit) as u64;
        exp - jitter
    }
}

/// Outcome of a graceful drain: how many connections finished cleanly
/// within the deadline vs. how many were cut off with work still pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainReport {
    pub drained: u64,
    pub aborted: u64,
}

impl DrainReport {
    pub fn total(&self) -> u64 {
        self.drained + self.aborted
    }

    pub fn render(&self) -> String {
        format!("drained {} aborted {}", self.drained, self.aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn backoff_doubles_then_saturates() {
        let p = RetryPolicy {
            max_retries: 10,
            base_ns: 100,
            cap_ns: 1000,
            jitter_frac: 0.0,
        };
        assert_eq!(p.backoff_ns(0, 0.5), 100);
        assert_eq!(p.backoff_ns(1, 0.5), 200);
        assert_eq!(p.backoff_ns(2, 0.5), 400);
        assert_eq!(p.backoff_ns(3, 0.5), 800);
        assert_eq!(p.backoff_ns(4, 0.5), 1000);
        assert_eq!(p.backoff_ns(63, 0.5), 1000);
    }

    #[test]
    fn jitter_only_shortens() {
        let p = RetryPolicy::standard();
        let full = p.backoff_ns(2, 0.0);
        assert!(p.backoff_ns(2, 0.999) < full);
        assert!(p.backoff_ns(2, 0.999) >= full / 2);
    }

    #[test]
    fn admission_default_is_inert() {
        assert!(!AdmissionControl::default().is_active());
    }

    #[test]
    fn accept_mode_env_rejects_typos() {
        // The only test in this crate that touches the variable; it puts
        // back whatever the CI matrix leg set.
        let saved = std::env::var_os(ACCEPT_MODE_ENV);
        std::env::remove_var(ACCEPT_MODE_ENV);
        assert_eq!(AcceptMode::from_env(), AcceptMode::Handoff, "unset");
        for (v, want) in [
            ("handoff", AcceptMode::Handoff),
            ("Sharded", AcceptMode::Sharded),
            (" SHARDED ", AcceptMode::Sharded),
        ] {
            std::env::set_var(ACCEPT_MODE_ENV, v);
            assert_eq!(AcceptMode::from_env(), want, "{v:?}");
        }
        std::env::set_var(ACCEPT_MODE_ENV, "shraded");
        let typo = std::panic::catch_unwind(AcceptMode::from_env);
        match saved {
            Some(v) => std::env::set_var(ACCEPT_MODE_ENV, v),
            None => std::env::remove_var(ACCEPT_MODE_ENV),
        }
        let err = typo.expect_err("a mistyped mode must not fall back to handoff");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(
            msg.contains("shraded") && msg.contains("`handoff` or `sharded`"),
            "{msg}"
        );
    }

    #[test]
    fn accept_mode_labels_parse_back() {
        assert_eq!(AcceptMode::default(), AcceptMode::Handoff);
        for m in [AcceptMode::Handoff, AcceptMode::Sharded] {
            assert_eq!(AcceptMode::parse(m.label()), Some(m));
            assert_eq!(AcceptMode::parse(&m.label().to_uppercase()), Some(m));
        }
        assert_eq!(AcceptMode::parse("\thandoff\n"), Some(AcceptMode::Handoff));
        for bad in ["", "hand off", "shard", "sharded-x"] {
            assert_eq!(AcceptMode::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn admission_is_active_with_either_knob() {
        let refuse = AdmissionControl {
            refuse_on_full: true,
            shed_watermark: None,
        };
        let shed = AdmissionControl {
            refuse_on_full: false,
            shed_watermark: Some(0),
        };
        assert!(refuse.is_active());
        assert!(shed.is_active(), "a zero watermark is still a watermark");
    }

    #[test]
    fn zero_jitter_ignores_the_random_unit() {
        let p = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::standard()
        };
        for attempt in 0..8 {
            let want = p.backoff_ns(attempt, 0.0);
            for unit in [0.25, 0.5, 0.999] {
                assert_eq!(p.backoff_ns(attempt, unit), want, "attempt {attempt}");
            }
        }
    }

    #[test]
    fn jitter_fraction_is_clamped_to_unit_interval() {
        let base = RetryPolicy {
            max_retries: 1,
            base_ns: 1_000,
            cap_ns: 1_000_000,
            jitter_frac: 1.0,
        };
        let over = RetryPolicy {
            jitter_frac: 7.5,
            ..base
        };
        let under = RetryPolicy {
            jitter_frac: -3.0,
            ..base
        };
        assert_eq!(over.backoff_ns(3, 0.5), base.backoff_ns(3, 0.5));
        assert_eq!(
            under.backoff_ns(3, 0.5),
            8_000,
            "negative jitter acts as none"
        );
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            max_retries: u32::MAX,
            base_ns: u64::MAX / 2,
            cap_ns: u64::MAX,
            jitter_frac: 0.0,
        };
        assert_eq!(p.backoff_ns(0, 0.0), u64::MAX / 2);
        assert_eq!(p.backoff_ns(1, 0.0), u64::MAX - 1);
        assert_eq!(p.backoff_ns(u32::MAX, 0.0), u64::MAX);
    }

    #[test]
    fn standard_policy_starts_at_base_and_reaches_cap() {
        let p = RetryPolicy::standard();
        assert_eq!(p.backoff_ns(0, 0.0), p.base_ns);
        let capped = (0..p.max_retries + 8).find(|&a| p.backoff_ns(a, 0.0) == p.cap_ns);
        assert_eq!(
            capped,
            Some(4),
            "250 ms doubles to the 4 s cap at attempt 4"
        );
    }

    #[test]
    fn drain_report_totals_and_renders() {
        let r = DrainReport {
            drained: 7,
            aborted: 2,
        };
        assert_eq!(r.total(), 9);
        assert_eq!(r.render(), "drained 7 aborted 2");
        assert_eq!(DrainReport::default().total(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn backoff_bounded_by_cap(attempt in 0u32..80, unit in 0f64..1.0) {
            let p = RetryPolicy::standard();
            let b = p.backoff_ns(attempt, unit);
            prop_assert!(b <= p.cap_ns);
            prop_assert!(b >= 1); // never a zero-length busy retry
        }
    }
}
