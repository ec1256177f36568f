//! Connection-lifecycle policy — the knobs both live servers share.
//!
//! The paper's Fig 3 asymmetry (httpd2's 15 s idle timeout streams
//! connection resets; nio never times a client out and reports zero errors)
//! is a *policy* difference, not an architectural necessity. Expressing it
//! as one config struct both servers accept makes the asymmetry falsifiable
//! from a single codebase: `idle_timeout: None` reproduces the paper's nio,
//! `Some(15 s)` reproduces httpd2's reset stream from the same binary.
//!
//! The defense knobs (`fd_reserve`, `max_conns`) harden the accept path
//! against resource exhaustion; the deadline knobs (`header_timeout`,
//! `write_stall_timeout`) bound how long a degenerate peer — a slow-loris
//! header dribbler, a client that never drains its socket — can hold a
//! connection. Event-driven servers must carry this bookkeeping themselves:
//! no blocked thread does it for them.
//!
//! The accept-path decision itself lives here too, so both servers refuse
//! the same connections the same way: [`LifecyclePolicy::admit`] decides,
//! [`Admission::refuse`] carries a refusal out, and [`AcceptBackoff`]
//! paces an accept loop through `accept(2)` errors.

use crate::response::{send_closing_head, Status};
use crate::sys::{self, ECONNABORTED, EINTR, EMFILE, ENFILE};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Per-connection lifecycle policy plus accept-path defenses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecyclePolicy {
    /// Close keep-alive connections idle this long. `None` never times a
    /// client out (the paper's nio); `Some(15 s)` is httpd2's policy. The
    /// close is abortive (RST), matching Apache's observable behaviour in
    /// Fig 3.
    pub idle_timeout: Option<Duration>,
    /// Bound on delivering a complete request head, measured from the first
    /// byte of the head. Expiry is answered with `408 Request Timeout` —
    /// the anti-slow-loris deadline.
    pub header_timeout: Option<Duration>,
    /// Bound on a client that stops draining its socket mid-reply (no write
    /// progress for this long while output is pending). Expiry is an
    /// abortive close.
    pub write_stall_timeout: Option<Duration>,
    /// Refuse new connections once accepted fds climb within this many fds
    /// of `RLIMIT_NOFILE`, keeping headroom for the server's own plumbing
    /// (selectors, wakers, content store). 0 disables the reserve.
    pub fd_reserve: u64,
    /// Admission cap: refuse new connections (with `503 Connection: close`)
    /// while at least this many are open. Coarser than the shed watermark —
    /// this is the hard ceiling, not the load-shedding threshold.
    pub max_conns: Option<u64>,
    /// `SO_RCVBUF` for every accepted socket, bytes (`None` keeps the
    /// kernel default). At a million mostly-idle connections the kernel's
    /// per-socket receive buffer — not the server's own state — dominates
    /// memory; requests are a few hundred bytes, so this can be tiny.
    pub recv_buffer: Option<u32>,
    /// `SO_SNDBUF` for every accepted socket, bytes (`None` keeps the
    /// kernel default). Large enough for a whole reply, the kernel takes
    /// a full response in one vectored write; small, it trades syscalls
    /// (and write-readiness parking) for per-connection kernel memory.
    pub send_buffer: Option<u32>,
}

impl Default for LifecyclePolicy {
    /// Paper-faithful defaults: no timeouts anywhere (nio's zero-error
    /// Fig-3 curve), no admission cap, and a modest fd reserve — the one
    /// defense that costs nothing until the process is nearly out of fds.
    fn default() -> Self {
        LifecyclePolicy {
            idle_timeout: None,
            header_timeout: None,
            write_stall_timeout: None,
            fd_reserve: 64,
            max_conns: None,
            recv_buffer: None,
            // A send buffer larger than any reply (bodies are capped well
            // below this) lets a worker hand the kernel a whole response in
            // one vectored write instead of parking the connection in the
            // WRITABLE set while a default-sized buffer drains.
            send_buffer: Some(1 << 19),
        }
    }
}

impl LifecyclePolicy {
    /// httpd2's observable policy in the paper: 15 s keep-alive timeout.
    pub fn httpd2() -> Self {
        LifecyclePolicy {
            idle_timeout: Some(Duration::from_secs(15)),
            ..LifecyclePolicy::default()
        }
    }

    /// A hardened profile for adversarial-client experiments: every
    /// deadline armed, admission capped.
    pub fn hardened(idle: Duration, header: Duration, write_stall: Duration) -> Self {
        LifecyclePolicy {
            idle_timeout: Some(idle),
            header_timeout: Some(header),
            write_stall_timeout: Some(write_stall),
            ..LifecyclePolicy::default()
        }
    }

    /// The same policy with both kernel socket buffers pinned — the
    /// per-connection-memory profile for frontier ramps (`repro scale`).
    pub fn with_buffers(self, recv: u32, send: u32) -> Self {
        LifecyclePolicy {
            recv_buffer: Some(recv),
            send_buffer: Some(send),
            ..self
        }
    }
}

/// What the accept path does with a freshly accepted connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    Admit,
    /// Inside the fd reserve: abortive close (RST).
    FdReserve,
    /// At the `max_conns` cap: `503 Connection: close`.
    Unavailable,
    /// Over the server's shed watermark: abortive close (RST).
    Shed,
}

impl LifecyclePolicy {
    /// The admission decision both servers share, checked in this order:
    ///
    /// 1. fd reserve — the accepted `fd` tells how close the process is to
    ///    `fd_limit` (fds are allocated lowest-free); inside the reserve,
    ///    keeping the connection could starve teardown plumbing;
    /// 2. `max_conns` against the `open` connection count;
    /// 3. `shed_hit` — the server's own pressure signal (open connections
    ///    for nio, busy threads for the pool) is over its watermark.
    pub fn admit(&self, fd: u64, fd_limit: u64, open: u64, shed_hit: bool) -> Admission {
        if self.fd_reserve > 0 && fd.saturating_add(self.fd_reserve) >= fd_limit {
            Admission::FdReserve
        } else if self.max_conns.is_some_and(|cap| open >= cap) {
            Admission::Unavailable
        } else if shed_hit {
            Admission::Shed
        } else {
            Admission::Admit
        }
    }
}

impl Admission {
    /// Carry out a refusal on a still-blocking `stream`: a `503` for the
    /// cap, so well-behaved clients see an HTTP answer, and RST for the
    /// rest, so the client observes the refusal at once instead of queueing.
    /// `Admit` does nothing.
    pub fn refuse(self, stream: &TcpStream, head: &mut Vec<u8>, date: &str) {
        match self {
            Admission::Admit => {}
            Admission::Unavailable => {
                send_closing_head(stream, head, Status::ServiceUnavailable, date)
            }
            Admission::FdReserve | Admission::Shed => {
                let _ = sys::set_linger_zero(stream);
            }
        }
    }
}

/// How an accept loop proceeds after a failed `accept(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptRetry {
    /// Stop accepting for this long; `None` retries at once.
    pub pause: Option<Duration>,
    /// The error was fd exhaustion (`EMFILE`/`ENFILE`), tallied with the
    /// fd-reserve refusals.
    pub fd_exhausted: bool,
}

/// The accept-error classifier and its fd-exhaustion backoff. Exiting on
/// `EMFILE` would silently kill the accept path, and retrying at full speed
/// is a busy loop that starves the very teardowns that would free fds.
#[derive(Debug)]
pub struct AcceptBackoff {
    next: Duration,
}

impl Default for AcceptBackoff {
    fn default() -> Self {
        AcceptBackoff {
            next: AcceptBackoff::FLOOR,
        }
    }
}

impl AcceptBackoff {
    /// First exhaustion pause, and the pause for any unrecognised error.
    const FLOOR: Duration = Duration::from_millis(1);
    /// Ceiling of the doubling exhaustion pause.
    const CAP: Duration = Duration::from_millis(100);

    /// A successful accept: the next exhaustion starts from the floor.
    pub fn reset(&mut self) {
        self.next = AcceptBackoff::FLOOR;
    }

    /// Classify a failed accept (`WouldBlock` aside):
    /// `EINTR`/`ECONNABORTED` (a signal, or a peer that hung up between SYN
    /// and accept) retry at once; `EMFILE`/`ENFILE` pause for a doubling
    /// 1 → 100 ms; anything else pauses 1 ms.
    pub fn on_error(&mut self, e: &io::Error) -> AcceptRetry {
        match e.raw_os_error() {
            Some(EINTR) | Some(ECONNABORTED) => AcceptRetry {
                pause: None,
                fd_exhausted: false,
            },
            Some(EMFILE) | Some(ENFILE) => {
                let pause = self.next;
                self.next = (self.next * 2).min(AcceptBackoff::CAP);
                AcceptRetry {
                    pause: Some(pause),
                    fd_exhausted: true,
                }
            }
            _ => AcceptRetry {
                pause: Some(AcceptBackoff::FLOOR),
                fd_exhausted: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_nio() {
        let p = LifecyclePolicy::default();
        assert_eq!(p.idle_timeout, None);
        assert_eq!(p.header_timeout, None);
        assert_eq!(p.write_stall_timeout, None);
        assert_eq!(p.max_conns, None);
        assert!(p.fd_reserve > 0, "fd reserve on by default");
        assert_eq!(p.recv_buffer, None, "kernel default rcvbuf by default");
        assert_eq!(p.send_buffer, Some(1 << 19), "reply-sized sndbuf");
    }

    #[test]
    fn with_buffers_pins_both_socket_buffers() {
        let p = LifecyclePolicy::default().with_buffers(4096, 16384);
        assert_eq!(p.recv_buffer, Some(4096));
        assert_eq!(p.send_buffer, Some(16384));
        // The lifecycle knobs ride through untouched.
        assert_eq!(p.idle_timeout, None);
        assert_eq!(p.fd_reserve, LifecyclePolicy::default().fd_reserve);
    }

    #[test]
    fn httpd2_profile_matches_paper() {
        assert_eq!(
            LifecyclePolicy::httpd2().idle_timeout,
            Some(Duration::from_secs(15))
        );
    }

    #[test]
    fn hardened_arms_every_deadline() {
        let p = LifecyclePolicy::hardened(
            Duration::from_secs(1),
            Duration::from_secs(2),
            Duration::from_secs(3),
        );
        assert!(p.idle_timeout.is_some());
        assert!(p.header_timeout.is_some());
        assert!(p.write_stall_timeout.is_some());
    }

    #[test]
    fn admit_table() {
        let p = LifecyclePolicy {
            fd_reserve: 10,
            max_conns: Some(5),
            ..LifecyclePolicy::default()
        };
        let cases = [
            // (fd, limit, open, shed_hit, expected)
            (90, 100, 0, false, Admission::FdReserve), // fd + reserve == limit
            (89, 100, 0, false, Admission::Admit),     // one below
            (10, 100, 5, false, Admission::Unavailable),
            (10, 100, 4, true, Admission::Shed),
            (95, 100, 9, true, Admission::FdReserve), // reserve > cap > shed
            (10, 100, 9, true, Admission::Unavailable), // cap > shed
            (10, u64::MAX, 0, false, Admission::Admit), // failed limit query
        ];
        for (fd, limit, open, shed, want) in cases {
            assert_eq!(p.admit(fd, limit, open, shed), want, "fd {fd} open {open}");
        }
        let no_reserve = LifecyclePolicy {
            fd_reserve: 0,
            ..LifecyclePolicy::default()
        };
        assert_eq!(no_reserve.admit(99, 100, 0, false), Admission::Admit);
        assert_eq!(no_reserve.admit(200, 100, 0, false), Admission::Admit);
    }

    #[test]
    fn accept_backoff_doubles_to_the_cap_and_resets() {
        let ms = Duration::from_millis;
        let emfile = io::Error::from_raw_os_error(EMFILE);
        let mut b = AcceptBackoff::default();
        let pauses: Vec<_> = (0..9).map(|_| b.on_error(&emfile).pause.unwrap()).collect();
        let want = [1, 2, 4, 8, 16, 32, 64, 100, 100].map(ms);
        assert_eq!(pauses, want);
        let enfile = b.on_error(&io::Error::from_raw_os_error(ENFILE));
        assert_eq!((enfile.pause, enfile.fd_exhausted), (Some(ms(100)), true));
        b.reset();
        assert_eq!(b.on_error(&emfile).pause, Some(ms(1)));
        for errno in [EINTR, ECONNABORTED] {
            let r = b.on_error(&io::Error::from_raw_os_error(errno));
            assert_eq!((r.pause, r.fd_exhausted), (None, false));
        }
        // Immediate retries leave the exhaustion sequence where it was.
        assert_eq!(b.on_error(&emfile).pause, Some(ms(2)));
        let other = b.on_error(&io::Error::from_raw_os_error(22));
        assert_eq!((other.pause, other.fd_exhausted), (Some(ms(1)), false));
    }
}
