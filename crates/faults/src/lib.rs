//! Fault plans, overload control, and recovery accounting.
//!
//! The paper's sharpest claims are robustness claims: the thread-pool server
//! emits a growing stream of resets and timeouts under pressure while the
//! event-driven server degrades gracefully. This crate gives both layers one
//! vocabulary for *provoking* that behaviour (deterministic [`FaultPlan`]
//! schedules), *surviving* it ([`AdmissionControl`], [`RetryPolicy`]), and
//! *accounting* for it ([`DrainReport`], [`FaultImpact`]).
//!
//! Everything here is denominated in plain `u64` nanoseconds rather than a
//! layer-specific time type, so the exact same plan value drives the
//! discrete-event testbed in virtual time and the loopback fault driver in
//! wall-clock time.

pub mod live;
pub mod plan;
pub mod policy;
pub mod recovery;

pub use live::{run_plan, FaultTarget, PlanOutcome};
pub use plan::{FaultEvent, FaultKind, FaultPlan, PLAN_NAMES};
pub use policy::{AcceptMode, AdmissionControl, DrainReport, RetryPolicy, ACCEPT_MODE_ENV};
pub use recovery::FaultImpact;
