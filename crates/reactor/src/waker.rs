//! Cross-thread selector wake-up via a self-pipe.
//!
//! A selector blocks in `epoll_wait`/`poll`; another thread (the acceptor
//! handing over a fresh connection) must be able to interrupt that wait
//! immediately instead of riding out the timeout. The classic mechanism is
//! the self-pipe trick: register the read end of a non-blocking pipe with
//! the selector, and have the waking thread write one byte to the write
//! end. Java NIO's `Selector.wakeup()` is the same idea.

#![cfg(target_os = "linux")]

use crate::sys;
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::os::raw::c_int;

const O_NONBLOCK: c_int = 0x800;
const O_CLOEXEC: c_int = 0x8_0000;

extern "C" {
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
}

/// A self-pipe waker. The struct owns both pipe ends (as `File`s, so they
/// close on drop and `read(2)`/`write(2)` go through std); `wake()` is safe
/// to call from any thread holding a reference.
#[derive(Debug)]
pub struct Waker {
    read_end: File,
    write_end: File,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `fds` has room for the two descriptors pipe2 writes.
        sys::cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
        // SAFETY: pipe2 succeeded, so both fds are open and owned by nothing
        // else; each `File` takes sole ownership of one.
        let (read_end, write_end) =
            unsafe { (File::from_raw_fd(fds[0]), File::from_raw_fd(fds[1])) };
        Ok(Waker {
            read_end,
            write_end,
        })
    }

    /// The fd to register with the selector (readable when woken).
    pub fn read_fd(&self) -> RawFd {
        self.read_end.as_raw_fd()
    }

    /// Interrupt the selector. Coalesces: if a wake is already pending the
    /// pipe is full-enough and the extra byte is dropped (EAGAIN), which is
    /// exactly the semantics we want.
    pub fn wake(&self) {
        let _ = (&self.write_end).write(&[1]);
    }

    /// Drain pending wake bytes (call when the selector reports the read fd
    /// readable). Returns how many bytes were pending.
    pub fn drain(&self) -> usize {
        let mut total = 0;
        let mut buf = [0u8; 64];
        while let Ok(n @ 1..) = (&self.read_end).read(&mut buf) {
            total += n;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{EpollSelector, Interest, Selector, Token};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn wake_makes_read_fd_readable() {
        let waker = Waker::new().unwrap();
        let mut sel = EpollSelector::new().unwrap();
        sel.register(waker.read_fd(), Token(0), Interest::READABLE)
            .unwrap();
        let mut events = Vec::new();
        // Quiet before wake.
        let n = sel
            .select(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        waker.wake();
        let n = sel
            .select(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(0));
        assert!(events[0].readable);
        assert!(waker.drain() >= 1);
        // Drained: quiet again (level-triggered would otherwise re-fire).
        events.clear();
        let n = sel
            .select(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn wakes_coalesce() {
        let waker = Waker::new().unwrap();
        for _ in 0..100_000 {
            waker.wake(); // must never block even when the pipe fills
        }
        assert!(waker.drain() > 0);
        assert_eq!(waker.drain(), 0);
    }

    #[test]
    fn cross_thread_wake_interrupts_blocking_select() {
        let waker = Arc::new(Waker::new().unwrap());
        let mut sel = EpollSelector::new().unwrap();
        sel.register(waker.read_fd(), Token(9), Interest::READABLE)
            .unwrap();
        let w2 = Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w2.wake();
        });
        let start = Instant::now();
        let mut events = Vec::new();
        let n = sel
            .select(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        let waited = start.elapsed();
        t.join().unwrap();
        assert_eq!(n, 1);
        assert!(
            waited < Duration::from_secs(2),
            "select should return promptly after wake, waited {waited:?}"
        );
    }
}
