//! # eventscale
//!
//! A from-scratch Rust reproduction of *“Evaluating the Scalability of Java
//! Event-Driven Web Servers”* (Beltran, Carrera, Torres, Ayguadé — ICPP
//! 2004): the paper that asked whether Java NIO's readiness selection lets
//! an event-driven server with **one or two worker threads** match a
//! native, multithreaded Apache with **thousands** of threads.
//!
//! The workspace provides two parallel instantiations of the study:
//!
//! * a **deterministic discrete-event simulation** of the paper's entire
//!   testbed — 4-way SMP SUT, crossover links, httperf client farms —
//!   that regenerates every figure of the evaluation
//!   ([`experiments`], [`serversim`], [`netsim`], [`hostsim`],
//!   [`clientsim`], [`workload`], [`desim`]);
//! * a **live layer** — a real epoll-reactor HTTP server
//!   ([`nioserver`]), a real blocking thread-pool HTTP server
//!   ([`poolserver`]) and a real httperf-style load generator
//!   ([`loadgen`]) over [`httpcore`] and [`reactor`] — exercising the same
//!   architectural contrast over actual sockets.
//!
//! ## Quickstart: compare the two architectures in simulation
//!
//! ```
//! use eventscale::prelude::*;
//!
//! let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
//! let mut cfg = TestbedConfig::paper_default(
//!     ServerArch::EventDriven { workers: 1 }, /* cpus = */ 1, link);
//! cfg.num_clients = 150;
//! cfg.duration = SimDuration::from_secs(15);
//! cfg.warmup = SimDuration::from_secs(5);
//!
//! let result = eventscale::run_experiment(cfg);
//! assert!(result.throughput_rps > 0.0);
//! assert_eq!(result.errors.connection_reset, 0); // nio never resets
//! ```
//!
//! ## Regenerating a paper figure
//!
//! ```no_run
//! use eventscale::prelude::*;
//!
//! let mut campaign = Campaign::new(Scale::paper());
//! let fig = campaign.build("fig1a");
//! println!("{}", fig.render());
//! for check in eventscale::experiments::check_figure(&fig) {
//!     assert!(check.pass, "{}: {}", check.name, check.detail);
//! }
//! ```

pub use clientsim;
pub use desim;
pub use experiments;
pub use hostsim;
pub use httpcore;
pub use loadgen;
pub use metrics;
pub use netsim;
#[cfg(target_os = "linux")]
pub use nioserver;
pub use obs;
#[cfg(target_os = "linux")]
pub use poolserver;
pub use reactor;
pub use serversim;
pub use workload;

pub use experiments::{Campaign, Scale};
pub use serversim::{RunResult, ServerArch, TestbedConfig};

/// Run one simulated experiment and summarise it.
pub fn run_experiment(cfg: TestbedConfig) -> RunResult {
    let sim_secs = cfg.duration.as_secs_f64();
    let tb = serversim::run(cfg.clone());
    RunResult::from_testbed(&cfg, &tb, sim_secs)
}

/// Commonly used types, one import away.
pub mod prelude {
    pub use crate::run_experiment;
    pub use clientsim::{Client, ClientAction, ClientConfig, ClientId, ClientMetrics};
    pub use desim::{Engine, Model, Rng, SimDuration, SimTime};
    pub use experiments::{check_figure, render_checks, Campaign, Figure, Metric, Scale};
    pub use hostsim::{Cpu, CpuCosts};
    pub use metrics::{ClientError, ErrorCounters, Histogram, Summary, WindowedSeries};
    pub use netsim::{LinkConfig, PsLink};
    pub use serversim::{RunResult, ServerArch, TestbedConfig};
    pub use workload::{FileSet, SessionConfig, SessionPlan, SurgeConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn run_experiment_smoke() {
        let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
        let mut cfg = TestbedConfig::paper_default(ServerArch::Threaded { pool: 64 }, 1, link);
        cfg.num_clients = 50;
        cfg.duration = SimDuration::from_secs(10);
        cfg.warmup = SimDuration::from_secs(3);
        let r = crate::run_experiment(cfg);
        assert!(r.throughput_rps > 0.0);
        assert_eq!(r.label, "httpd-64t");
    }
}
