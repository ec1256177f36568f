//! Raw socket-option and fd-limit syscall bindings — the one FFI module
//! outside `reactor`.
//!
//! `std` exposes no knob for `SO_SNDBUF`/`SO_RCVBUF`, `SO_LINGER`,
//! `SO_REUSEPORT` or `RLIMIT_NOFILE`, and the workspace's dependency policy
//! rules out `libc`. `std` already links the platform C library, so
//! declaring the few symbols needed here is sound and adds no dependency.
//! Both live servers, the conformance executor, the experiments and the
//! integration tests call these instead of carrying their own copies.
//! Constants are Linux's.

use std::io;
use std::mem::size_of;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::raw::{c_int, c_void};

/// Raw errno values the accept paths classify (see
/// [`crate::policy::AcceptBackoff`]).
pub const EINTR: i32 = 4;
pub const ENFILE: i32 = 23;
pub const EMFILE: i32 = 24;
pub const ECONNABORTED: i32 = 103;

const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;
const SO_SNDBUF: c_int = 7;
const SO_RCVBUF: c_int = 8;
const SO_LINGER: c_int = 13;
const SO_REUSEPORT: c_int = 15;
const RLIMIT_NOFILE: c_int = 7;
const AF_INET: c_int = 2;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0x800;
const SOCK_CLOEXEC: c_int = 0x8_0000;

#[repr(C)]
struct Linger {
    l_onoff: c_int,
    l_linger: c_int,
}

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

#[repr(C)]
struct SockaddrIn {
    sin_family: u16,
    /// Network byte order.
    sin_port: u16,
    /// Network byte order (bytes as written).
    sin_addr: [u8; 4],
    sin_zero: [u8; 8],
}

extern "C" {
    fn setsockopt(fd: c_int, level: c_int, name: c_int, val: *const c_void, len: u32) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn bind(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

/// Convert a -1 syscall return into the thread's `errno` as `io::Error`.
fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// `setsockopt(SOL_SOCKET, opt, val)`.
fn set_opt<T>(fd: &impl AsRawFd, opt: c_int, val: &T) -> io::Result<()> {
    // SAFETY: `val` points at `size_of::<T>()` readable bytes for the whole
    // call; the kernel copies them and keeps no pointer.
    let r = unsafe {
        setsockopt(
            fd.as_raw_fd(),
            SOL_SOCKET,
            opt,
            val as *const T as *const c_void,
            size_of::<T>() as u32,
        )
    };
    cvt(r).map(drop)
}

/// `SO_SNDBUF`: size the kernel send buffer (the kernel doubles the value
/// for bookkeeping and clamps it to `net.core.wmem_max`).
pub fn set_sndbuf(stream: &TcpStream, bytes: i32) -> io::Result<()> {
    set_opt(stream, SO_SNDBUF, &bytes)
}

/// `SO_RCVBUF`: size the kernel receive buffer (doubled and clamped to
/// `net.core.rmem_max`, as for [`set_sndbuf`]).
pub fn set_rcvbuf(stream: &TcpStream, bytes: i32) -> io::Result<()> {
    set_opt(stream, SO_RCVBUF, &bytes)
}

/// `SO_LINGER(0)`: make `close()` send RST instead of FIN, so the peer's
/// next operation observes `ECONNRESET` — an explicit refusal or abort.
pub fn set_linger_zero(stream: &TcpStream) -> io::Result<()> {
    set_opt(
        stream,
        SO_LINGER,
        &Linger {
            l_onoff: 1,
            l_linger: 0,
        },
    )
}

/// `(soft, hard)` `RLIMIT_NOFILE`; `(u64::MAX, u64::MAX)` when the query
/// fails, which disables an fd reserve rather than refusing everything.
pub fn nofile_limits() -> (u64, u64) {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable `struct rlimit`.
    match cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }) {
        Ok(_) => (lim.cur, lim.max),
        Err(_) => (u64::MAX, u64::MAX),
    }
}

/// Move the soft `RLIMIT_NOFILE` (clamped to the hard limit, which never
/// moves).
pub fn set_nofile_soft(soft: u64) -> io::Result<()> {
    let (_, hard) = nofile_limits();
    let lim = Rlimit {
        cur: soft.min(hard),
        max: hard,
    };
    // SAFETY: `lim` is a live `struct rlimit`; the kernel only reads it.
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }).map(drop)
}

/// Bind a non-blocking `SO_REUSEPORT` TCP listener on loopback. `addr:
/// None` picks an ephemeral port; `Some(addr)` joins that port's reuseport
/// group, so the kernel hashes incoming connections across every member
/// listener. The fd is owned from birth, so no failure path leaks it.
pub fn bind_reuseport(addr: Option<SocketAddr>) -> io::Result<(TcpListener, SocketAddr)> {
    // SAFETY: `socket` takes no pointers.
    let raw = cvt(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // SAFETY: `raw` is a freshly opened fd that nothing else owns.
    let fd = unsafe { OwnedFd::from_raw_fd(raw) };
    let one: c_int = 1;
    set_opt(&fd, SO_REUSEADDR, &one)?;
    set_opt(&fd, SO_REUSEPORT, &one)?;
    let sa = SockaddrIn {
        sin_family: AF_INET as u16,
        sin_port: addr.map_or(0, |a| a.port()).to_be(),
        sin_addr: [127, 0, 0, 1],
        sin_zero: [0; 8],
    };
    // SAFETY: `sa` is a live `sockaddr_in` of exactly the length passed.
    cvt(unsafe { bind(fd.as_raw_fd(), &sa, size_of::<SockaddrIn>() as u32) })?;
    // SAFETY: `listen` takes no pointers.
    cvt(unsafe { listen(fd.as_raw_fd(), 1024) })?;
    let listener = TcpListener::from(fd);
    let local = listener.local_addr()?;
    Ok((listener, local))
}
