//! `workload` — the SURGE/Httperf workload model shared by the simulated and
//! real layers of `eventscale`.
//!
//! * [`dist`] — Pareto, bounded Pareto, lognormal, Weibull, exponential and
//!   Zipf samplers implemented from first principles over `desim::Rng`;
//! * [`surge`] — the static content model (file sizes, Zipf popularity,
//!   popularity–size matching) from Barford & Crovella's SURGE;
//! * [`session`] — httperf-style sessions: bursts of pipelined requests over
//!   persistent connections, separated by heavy-tailed think times;
//! * [`locality`] — SURGE's LRU stack-distance temporal locality.

pub mod dist;
pub mod httperf;
pub mod locality;
pub mod session;
pub mod surge;

pub use dist::{
    gamma, BoundedPareto, Constant, Distribution, Exponential, LogNormal, Pareto, Uniform, Weibull,
    Zipf,
};
pub use httperf::HttperfInvocation;
pub use locality::LocalityModel;
pub use session::{Burst, SessionConfig, SessionPlan};
pub use surge::{FileId, FileSet, SurgeConfig};
