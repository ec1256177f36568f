//! Overload control and drain accounting shared by the sim and live layers.
//!
//! Both server architectures, the simulated testbed and both clients read
//! one vocabulary from here: how connections reach a worker
//! ([`AcceptMode`]), when the server refuses at the door
//! ([`AdmissionControl`]), how a client backs off and retries
//! ([`RetryPolicy`]), and what a graceful shutdown delivered
//! ([`DrainReport`]). Every knob defaults to off, so the paper's figures
//! are reproduced unchanged unless a caller opts in.

pub mod policy;

pub use policy::{AcceptMode, AdmissionControl, DrainReport, RetryPolicy, ACCEPT_MODE_ENV};
