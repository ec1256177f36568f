//! Raw readiness-selection syscall bindings.
//!
//! The workspace's dependency policy rules out `libc`/`mio`, but `std`
//! already links the platform C library, so declaring the four symbols we
//! need is sound and adds no dependency. Two backends are bound:
//!
//! * `epoll(7)` — O(ready) scalable selection (what a modern JVM's NIO
//!   selector uses on Linux);
//! * `poll(2)` — O(registered) selection (what the paper's 2004 JVM's
//!   `select` actually did under the hood).
//!
//! Keeping both lets the ablation bench measure exactly the scan-cost
//! difference the simulated cost model parameterises.

#![cfg(target_os = "linux")]

use std::os::raw::c_int;

pub const EPOLL_CLOEXEC: c_int = 0x8_0000;
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

/// `struct epoll_event`. Packed on x86-64, as glibc declares it.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;
pub const POLLERR: i16 = 0x008;
pub const POLLHUP: i16 = 0x010;

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    pub fd: c_int,
    pub events: i16,
    pub revents: i16,
}

extern "C" {
    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    pub fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    pub fn close(fd: c_int) -> c_int;
}

/// Convert a -1 syscall return into the thread's `errno` as `io::Error`.
pub fn cvt(ret: c_int) -> std::io::Result<c_int> {
    if ret < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_create_and_close() {
        // SAFETY: epoll_create1 takes no pointers.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) }).expect("epoll_create1");
        assert!(fd >= 0);
        // SAFETY: `fd` was just opened above and is closed exactly once.
        assert_eq!(unsafe { close(fd) }, 0);
    }

    #[test]
    fn epoll_event_layout() {
        // glibc packs epoll_event to 12 bytes on x86-64.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        assert_eq!(std::mem::size_of::<PollFd>(), 8);
    }

    #[test]
    fn cvt_translates_errno() {
        // SAFETY: invalid fds make the kernel fail with EBADF before it
        // would read the (null) event pointer.
        let err = cvt(unsafe { epoll_ctl(-1, EPOLL_CTL_ADD, -1, std::ptr::null_mut()) });
        assert!(err.is_err());
    }

    #[test]
    fn poll_with_no_fds_times_out() {
        // SAFETY: with `nfds == 0` the kernel never dereferences the array.
        let n = cvt(unsafe { poll(std::ptr::null_mut(), 0, 10) }).unwrap();
        assert_eq!(n, 0);
    }
}
