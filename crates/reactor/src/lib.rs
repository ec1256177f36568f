//! `reactor` — real readiness selection for the live event-driven server.
//!
//! * [`sys`] — direct FFI to `epoll(7)` / `poll(2)` (no crate dependency;
//!   `std` already links the C library);
//! * [`selector`] — the level-triggered [`Selector`] abstraction with an
//!   O(ready) epoll backend and an O(registered) poll backend, mirroring
//!   the 2004-JVM-vs-modern-kernel distinction the paper's cost model
//!   parameterises;
//! * [`backend`] — [`BackendKind`], the choice between those two;
//! * [`waker`] — a self-pipe `Selector.wakeup()` analogue for cross-thread
//!   event-loop interruption;
//! * [`wheel`] — a wall-clock hierarchical deadline wheel backing
//!   per-connection lifecycle timers.
//!
//! Every FFI block carries a `// SAFETY:` comment; the lint below keeps it so.

#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(target_os = "linux")]
pub mod backend;
#[cfg(target_os = "linux")]
pub mod selector;
#[cfg(target_os = "linux")]
pub mod sys;
#[cfg(target_os = "linux")]
pub mod waker;
pub mod wheel;

#[cfg(target_os = "linux")]
pub use backend::BackendKind;
#[cfg(target_os = "linux")]
pub use selector::{EpollSelector, Event, Interest, PollSelector, Selector, Token};
#[cfg(target_os = "linux")]
pub use waker::Waker;
pub use wheel::DeadlineWheel;

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    /// The fd-owning types are `Send + Sync` by their fields alone: a worker
    /// moves its selector into its thread, and the acceptor and every worker
    /// share a `Waker` through an `Arc`.
    #[test]
    fn fd_owners_are_send_and_sync() {
        assert_send_sync::<EpollSelector>();
        assert_send_sync::<PollSelector>();
        assert_send_sync::<Waker>();
    }
}
