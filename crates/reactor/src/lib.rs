//! `reactor` — real readiness selection for the live event-driven server.
//!
//! * [`sys`] — direct FFI to `epoll(7)` / `poll(2)` (no crate dependency;
//!   `std` already links the C library);
//! * [`selector`] — the level-triggered [`Selector`] abstraction with an
//!   O(ready) epoll backend and an O(registered) poll backend, mirroring
//!   the 2004-JVM-vs-modern-kernel distinction the paper's cost model
//!   parameterises;
//! * [`waker`] — a self-pipe `Selector.wakeup()` analogue for cross-thread
//!   event-loop interruption;
//! * [`wheel`] — a wall-clock hierarchical deadline wheel backing
//!   per-connection lifecycle timers;
//! * [`backend`] — the [`Backend`] trait unifying readiness (epoll/poll)
//!   and completion (submit/reap) engines under one event-loop body;
//! * [`mock`] — a deterministic, fault-injecting mock-completion backend
//!   for tier-1 tests;
//! * [`uring`] — the real `io_uring` completion backend (runtime-probed,
//!   raw syscalls).

#[cfg(target_os = "linux")]
pub mod backend;
#[cfg(target_os = "linux")]
pub mod mock;
#[cfg(target_os = "linux")]
pub mod selector;
#[cfg(target_os = "linux")]
pub mod sys;
#[cfg(target_os = "linux")]
pub mod uring;
#[cfg(target_os = "linux")]
pub mod waker;
pub mod wheel;

#[cfg(target_os = "linux")]
pub use backend::{
    create, io_uring_available, Backend, BackendKind, Cqe, CqeKind, ReadinessBackend,
    SubmitError, BACKEND_ENV,
};
#[cfg(target_os = "linux")]
pub use mock::{MockCompletionBackend, MockConfig};
#[cfg(target_os = "linux")]
pub use selector::{EpollSelector, Event, Interest, PollSelector, Selector, Token};
#[cfg(target_os = "linux")]
pub use uring::UringBackend;
#[cfg(target_os = "linux")]
pub use waker::Waker;
pub use wheel::DeadlineWheel;
