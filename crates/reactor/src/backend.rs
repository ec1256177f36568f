//! Which readiness selector an event loop runs on.
//!
//! Readiness is the one I/O model (DESIGN.md §16): a [`Selector`] reports
//! level-triggered `Event`s and the caller performs its own non-blocking
//! I/O. The two kinds differ only in scan cost — the pair the paper's cost
//! model parameterises.

use crate::selector::{EpollSelector, PollSelector, Selector};
use std::io;

/// Which selector an event loop runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `epoll(7)`: O(ready) — a modern JVM/kernel.
    Epoll,
    /// `poll(2)`: O(registered) — the 2004 testbed.
    Poll,
}

impl BackendKind {
    /// Parse a label (case-insensitive): `epoll` | `poll`.
    pub fn parse(s: &str) -> Option<BackendKind> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("epoll") {
            Some(BackendKind::Epoll)
        } else if s.eq_ignore_ascii_case("poll") {
            Some(BackendKind::Poll)
        } else {
            None
        }
    }

    /// Stable display name (JSON rows, logs).
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Epoll => "epoll",
            BackendKind::Poll => "poll",
        }
    }

    /// A fresh selector of this kind.
    pub fn selector(self) -> io::Result<Box<dyn Selector>> {
        Ok(match self {
            BackendKind::Epoll => Box::new(EpollSelector::new()?),
            BackendKind::Poll => Box::new(PollSelector::new()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips() {
        for kind in [BackendKind::Epoll, BackendKind::Poll] {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(BackendKind::parse(" EPOLL "), Some(BackendKind::Epoll));
        assert_eq!(BackendKind::parse("io_uring"), None);
        assert_eq!(BackendKind::parse("kqueue"), None);
    }
}
