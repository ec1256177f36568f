//! Readiness selection: the `Selector` abstraction plus the epoll and
//! poll(2) backends.
//!
//! Both backends are **level-triggered**, matching Java NIO's `select()`
//! semantics that the paper's server is written against: a key stays ready
//! until the condition is drained, so a server that processes only part of
//! the readable data simply sees the key again on the next select.

use crate::sys;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

/// Caller-chosen identifier attached to a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// What the caller wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub token: Token,
    pub readable: bool,
    pub writable: bool,
    /// Error or hang-up. On the epoll backend this includes `EPOLLRDHUP`,
    /// which only means "the peer sends no more" (a half-close), **not**
    /// "the connection is dead": a half-closed connection may still owe
    /// replies and must keep flushing. Callers must drain readable data
    /// and pending output before treating this as fatal.
    pub error: bool,
}

/// A readiness selector over raw fds.
pub trait Selector: Send {
    fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()>;
    fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()>;
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;
    /// Wait for events, appending into `out`. `None` timeout blocks.
    fn select(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize>;
    /// Number of registered fds (for diagnostics).
    fn registered(&self) -> usize;
}

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        // Round *up*: `as_millis()` truncates, which would turn a
        // sub-millisecond wait (e.g. 100 µs) into a 0 ms timeout — a
        // busy-spin poll instead of a blocking wait.
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
    }
}

// ---------------------------------------------------------------------
// epoll backend
// ---------------------------------------------------------------------

/// O(ready) selection via `epoll(7)` (level-triggered). The epoll fd is an
/// `OwnedFd`, so dropping the selector closes it.
pub struct EpollSelector {
    epfd: OwnedFd,
    registered: usize,
    buf: Vec<sys::EpollEvent>,
}

impl EpollSelector {
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; on success it returns a
        // fresh fd that nothing else owns, so `OwnedFd` may take it.
        let epfd =
            unsafe { OwnedFd::from_raw_fd(sys::cvt(sys::epoll_create1(sys::EPOLL_CLOEXEC))?) };
        Ok(EpollSelector {
            epfd,
            registered: 0,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        // EPOLLRDHUP rides along only with read interest. It is permanently
        // asserted once the peer half-closes, so subscribing it on a
        // write-only registration (a connection that is done reading and
        // only flushing owed replies) would re-report the fd on every
        // wait — and, with a full send buffer, deliver error-only events
        // that look fatal while bytes are still owed.
        let mut flags = 0;
        if interest.readable {
            flags |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.writable {
            flags |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events: flags,
            data: token.0 as u64,
        };
        // SAFETY: `ev` is a live, correctly laid-out `epoll_event` for the
        // duration of the call; the kernel only reads it.
        sys::cvt(unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }
}

impl Selector for EpollSelector {
    fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)?;
        self.registered += 1;
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let epfd = self.epfd.as_raw_fd();
        // SAFETY: EPOLL_CTL_DEL ignores the event pointer (null is allowed
        // since Linux 2.6.9).
        sys::cvt(unsafe { sys::epoll_ctl(epfd, sys::EPOLL_CTL_DEL, fd, std::ptr::null_mut()) })?;
        self.registered = self.registered.saturating_sub(1);
        Ok(())
    }

    fn select(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let n = loop {
            // SAFETY: the pointer and length describe `self.buf`, which
            // stays borrowed (and unresized) for the call; the kernel writes
            // at most `len` events into it.
            let r = unsafe {
                sys::epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms(timeout),
                )
            };
            if r < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            break r as usize;
        };
        for ev in &self.buf[..n] {
            let flags = ev.events;
            out.push(Event {
                token: Token(ev.data as usize),
                readable: flags & sys::EPOLLIN != 0,
                writable: flags & sys::EPOLLOUT != 0,
                error: flags & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        if n == self.buf.len() {
            // Saturated: grow so a flood doesn't starve late registrations.
            self.buf
                .resize(self.buf.len() * 2, sys::EpollEvent { events: 0, data: 0 });
        }
        Ok(n)
    }

    fn registered(&self) -> usize {
        self.registered
    }
}

// ---------------------------------------------------------------------
// poll(2) backend
// ---------------------------------------------------------------------

/// O(registered) selection via `poll(2)` — the behaviour of 2004-era Java
/// `Selector.select()`. Kept for the selector-cost ablation.
#[derive(Debug, Default)]
pub struct PollSelector {
    fds: Vec<sys::PollFd>,
    tokens: Vec<Token>,
}

impl PollSelector {
    pub fn new() -> Self {
        PollSelector::default()
    }

    fn position(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().position(|p| p.fd == fd)
    }

    fn events_for(interest: Interest) -> i16 {
        let mut e = 0;
        if interest.readable {
            e |= sys::POLLIN;
        }
        if interest.writable {
            e |= sys::POLLOUT;
        }
        e
    }
}

impl Selector for PollSelector {
    fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        if self.position(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.fds.push(sys::PollFd {
            fd,
            events: Self::events_for(interest),
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        let i = self
            .position(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds[i].events = Self::events_for(interest);
        self.tokens[i] = token;
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self
            .position(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds.swap_remove(i);
        self.tokens.swap_remove(i);
        Ok(())
    }

    fn select(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let n = loop {
            // SAFETY: the pointer and length describe `self.fds`, borrowed
            // for the call; the kernel writes only each entry's `revents`.
            let r = unsafe {
                sys::poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as u64,
                    timeout_ms(timeout),
                )
            };
            if r < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            break r as usize;
        };
        // The O(registered) scan the paper's JVM paid on every select.
        for (p, &tok) in self.fds.iter().zip(&self.tokens) {
            if p.revents != 0 {
                out.push(Event {
                    token: tok,
                    readable: p.revents & sys::POLLIN != 0,
                    writable: p.revents & sys::POLLOUT != 0,
                    error: p.revents & (sys::POLLERR | sys::POLLHUP) != 0,
                });
            }
        }
        Ok(n)
    }

    fn registered(&self) -> usize {
        self.fds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn backends() -> Vec<Box<dyn Selector>> {
        vec![
            Box::new(EpollSelector::new().expect("epoll")),
            Box::new(PollSelector::new()),
        ]
    }

    #[test]
    fn empty_select_times_out_quickly() {
        for mut s in backends() {
            let mut out = Vec::new();
            let n = s
                .select(&mut out, Some(Duration::from_millis(5)))
                .expect("select");
            assert_eq!(n, 0);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn submillisecond_timeout_blocks_instead_of_spinning() {
        // Regression: `as_millis()` truncation turned a 100 µs timeout into
        // a 0 ms poll, so an idle select degenerated to a busy spin. The
        // timeout must round up and actually block.
        for mut s in backends() {
            let start = std::time::Instant::now();
            let mut out = Vec::new();
            for _ in 0..20 {
                let n = s
                    .select(&mut out, Some(Duration::from_micros(100)))
                    .expect("select");
                assert_eq!(n, 0);
            }
            // Rounded up to 1 ms each, 20 idle selects must take ≥ ~20 ms;
            // the truncated-to-zero spin finished in microseconds.
            assert!(
                start.elapsed() >= Duration::from_millis(10),
                "20 sub-millisecond selects returned in {:?} — busy spin",
                start.elapsed()
            );
        }
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        for mut s in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.set_nonblocking(true).unwrap();
            s.register(listener.as_raw_fd(), Token(7), Interest::READABLE)
                .unwrap();
            assert_eq!(s.registered(), 1);
            let _client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
            let mut out = Vec::new();
            // Allow a few millis for loopback delivery.
            let n = s
                .select(&mut out, Some(Duration::from_millis(500)))
                .unwrap();
            assert_eq!(n, 1, "listener should be readable");
            assert_eq!(out[0].token, Token(7));
            assert!(out[0].readable);
        }
    }

    #[test]
    fn stream_readable_after_peer_writes() {
        for mut s in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            server_side.set_nonblocking(true).unwrap();
            s.register(server_side.as_raw_fd(), Token(1), Interest::READABLE)
                .unwrap();
            let mut out = Vec::new();
            let n = s.select(&mut out, Some(Duration::from_millis(20))).unwrap();
            assert_eq!(n, 0, "no data yet");
            client.write_all(b"ping").unwrap();
            let n = s
                .select(&mut out, Some(Duration::from_millis(500)))
                .unwrap();
            assert_eq!(n, 1);
            assert!(out[0].readable);
            s.deregister(server_side.as_raw_fd()).unwrap();
            assert_eq!(s.registered(), 0);
        }
    }

    #[test]
    fn writable_interest_fires_immediately_on_fresh_socket() {
        for mut s in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            client.set_nonblocking(true).unwrap();
            s.register(client.as_raw_fd(), Token(3), Interest::BOTH)
                .unwrap();
            let mut out = Vec::new();
            s.select(&mut out, Some(Duration::from_millis(500)))
                .unwrap();
            assert!(out.iter().any(|e| e.token == Token(3) && e.writable));
        }
    }

    #[test]
    fn reregister_switches_interest() {
        for mut s in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            client.set_nonblocking(true).unwrap();
            s.register(client.as_raw_fd(), Token(4), Interest::WRITABLE)
                .unwrap();
            let mut out = Vec::new();
            s.select(&mut out, Some(Duration::from_millis(200)))
                .unwrap();
            assert!(!out.is_empty(), "fresh socket is writable");
            // Switch to read-only interest: no data pending ⇒ silent.
            s.reregister(client.as_raw_fd(), Token(4), Interest::READABLE)
                .unwrap();
            out.clear();
            let n = s.select(&mut out, Some(Duration::from_millis(20))).unwrap();
            assert_eq!(n, 0, "read interest with no data must be quiet");
        }
    }

    #[test]
    fn poll_register_twice_rejected() {
        let mut s = PollSelector::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let fd = listener.as_raw_fd();
        s.register(fd, Token(0), Interest::READABLE).unwrap();
        assert!(s.register(fd, Token(1), Interest::READABLE).is_err());
        assert!(s.deregister(fd).is_ok());
        assert!(s.deregister(fd).is_err());
    }
}
