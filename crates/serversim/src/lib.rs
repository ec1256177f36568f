//! `serversim` — the two simulated web-server architectures and the full
//! testbed composing them with CPUs, links, and an httperf client
//! population.
//!
//! * [`config`] — one struct per experiment run ([`TestbedConfig`]);
//! * [`threaded`] — Apache-worker-style pool/backlog bookkeeping;
//! * [`event_driven`] — NIO-style acceptor/selector bookkeeping;
//! * [`testbed`] — the discrete-event model wiring everything together;
//! * [`result`] — per-run summary extraction ([`RunResult`]).

pub mod config;
pub mod conntable;
pub mod event_driven;
pub mod result;
pub mod testbed;
pub mod threaded;

pub use config::{ServerArch, TestbedConfig};
pub use event_driven::EventServer;
pub use result::RunResult;
pub use testbed::{run, Testbed};
pub use threaded::ThreadedServer;
