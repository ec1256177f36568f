//! What the harness needs from Linux and `std` does not expose: CPU
//! affinity, another thread's CPU clock, a TCP connect from a chosen
//! source address, and the `/proc` readings behind `rss_mb`, wake-ups per
//! reply and the host fingerprint.
//!
//! The repository's dependency policy rules out `libc`, and `std` already
//! links the C library, so the handful of symbols are declared here (the
//! same idiom as `reactor::sys`).

use std::io;
use std::net::{Ipv4Addr, SocketAddrV4, TcpStream};
use std::os::fd::FromRawFd;
use std::os::raw::{c_int, c_long, c_void};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

/// `struct sockaddr_in`; port and address in network byte order.
#[repr(C)]
struct SockaddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: [u8; 4],
    sin_zero: [u8; 8],
}

/// Bits in a `cpu_set_t` (glibc's fixed 1024-CPU set).
const CPU_SET_BITS: usize = 1024;
type CpuSet = [u64; CPU_SET_BITS / 64];

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const AF_INET: c_int = 2;
const SOCK_STREAM: c_int = 1;
const SOCK_CLOEXEC: c_int = 0x8_0000;
const SOL_SOCKET: c_int = 1;
const SO_RCVBUF: c_int = 8;

/// `SO_RCVBUF` of every driver socket. Setting it at all is the point: it
/// switches off the kernel's receive-buffer autotuning, whose outcome
/// depends on the sizes of the first replies on a connection — and so on
/// the seed — and put whole `nio-large` runs into a fast (≈ 30 µs of
/// server CPU per reply) or a slow (≈ 45–60 µs) mode. 128 KiB is below
/// every host's `net.core.rmem_max`, so the window is the same everywhere:
/// replies of `nio-large` exceed it and flow control is always engaged.
const RECV_BUFFER: c_int = 128 << 10;

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_void) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_void) -> c_int;
    fn clock_gettime(clk: c_int, ts: *mut Timespec) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn bind(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
    fn connect(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; CPU_SET_BITS / 64];
    // SAFETY: `set` is a writable buffer of exactly the size passed.
    let rc = unsafe {
        sched_getaffinity(
            0,
            std::mem::size_of::<CpuSet>(),
            set.as_mut_ptr() as *mut c_void,
        )
    };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_BITS)
        .filter(|&cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Pin the calling thread (and every thread it spawns afterwards) to `cpu`.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    assert!(cpu < CPU_SET_BITS, "cpu index beyond cpu_set_t");
    let mut set: CpuSet = [0; CPU_SET_BITS / 64];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed.
    let rc = unsafe {
        sched_setaffinity(
            0,
            std::mem::size_of::<CpuSet>(),
            set.as_ptr() as *const c_void,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

fn clock_ns(clk: c_int) -> io::Result<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    if unsafe { clock_gettime(clk, &mut ts) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// CPU time the calling thread has consumed, nanoseconds.
pub fn self_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID).expect("CLOCK_THREAD_CPUTIME_ID is always readable")
}

/// CPU time thread `tid` of this process has consumed, nanoseconds. The
/// clock id is the kernel's per-thread CPU clock encoding
/// (`CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED` over the inverted tid) — what
/// `pthread_getcpuclockid` returns. Errors once the thread has exited.
pub fn thread_cpu_ns(tid: u32) -> io::Result<u64> {
    clock_ns(((!(tid as c_int)) << 3) | 6)
}

/// A server thread found by name.
#[derive(Debug, Clone)]
pub struct ServerThread {
    pub tid: u32,
    pub name: String,
}

/// Threads of this process whose name starts with `prefix` (`nio-`,
/// `pool-`): the servers name every thread they spawn, and the harness
/// finds them from outside instead of asking the server for handles.
pub fn threads_named(prefix: &str) -> Vec<ServerThread> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) else {
            continue;
        };
        let name = comm.trim_end();
        if name.starts_with(prefix) {
            out.push(ServerThread {
                tid,
                name: name.to_string(),
            });
        }
    }
    out.sort_by_key(|t| t.tid);
    out
}

/// `voluntary_ctxt_switches` of thread `tid`: how often it went to sleep
/// waiting (an `epoll_wait`, `read` or `accept` that had to block).
pub fn voluntary_switches(tid: u32) -> u64 {
    proc_status_field(
        &format!("/proc/self/task/{tid}/status"),
        "voluntary_ctxt_switches:",
    )
}

/// Resident anonymous memory of the process — heap and stacks — KiB. The
/// rest of the resident set is the executable's own pages, 3.2–3.4 MiB of
/// the live workloads' 7.5, and how many of them are mapped is the page
/// cache's business: it moved `VmRSS` by a percent or two from run to run
/// with no allocation behind it.
pub fn rss_anon_kib() -> u64 {
    proc_status_field("/proc/self/status", "RssAnon:")
}

fn proc_status_field(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Blocking TCP connect to `dst` from source address `src` (port chosen by
/// the kernel), with a fixed receive buffer. `std` can do neither before
/// connecting; the churn workload needs the first, so that its closed
/// connections do not exhaust the ephemeral ports of a single source
/// address, and every workload the second (see [`RECV_BUFFER`]).
pub fn connect_from(src: Ipv4Addr, dst: SocketAddrV4) -> io::Result<TcpStream> {
    let addr = |ip: Ipv4Addr, port: u16| SockaddrIn {
        sin_family: AF_INET as u16,
        sin_port: port.to_be(),
        sin_addr: ip.octets(),
        sin_zero: [0; 8],
    };
    let len = std::mem::size_of::<SockaddrIn>() as u32;
    // SAFETY: plain syscall, no pointers.
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh socket owned by nothing else; the stream
    // closes it on drop, also on the error returns below.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    // SAFETY: `RECV_BUFFER` is a live `c_int`, and its size is passed.
    if unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_RCVBUF,
            &RECV_BUFFER as *const c_int as *const c_void,
            std::mem::size_of::<c_int>() as u32,
        )
    } != 0
    {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: both addresses are valid `sockaddr_in` values of length `len`.
    if unsafe { bind(fd, &addr(src, 0), len) } != 0
        || unsafe { connect(fd, &addr(*dst.ip(), dst.port()), len) } != 0
    {
        return Err(io::Error::last_os_error());
    }
    Ok(stream)
}

/// The two processors a pinned run uses: the server's threads on one, the
/// driver thread (and the simulator, and the replay) on the other.
#[derive(Debug, Clone, Copy)]
pub struct Pinning {
    pub server_cpu: usize,
    pub driver_cpu: usize,
}

impl Pinning {
    /// The first two processors this process may use, if it may use two.
    pub fn choose() -> Option<Pinning> {
        match allowed_cpus()[..] {
            [server_cpu, driver_cpu, ..] => Some(Pinning {
                server_cpu,
                driver_cpu,
            }),
            _ => None,
        }
    }
}

/// Where a run was taken: results from different hosts do not compare.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub kernel: String,
    pub cpu_model: String,
}

impl Host {
    pub fn read() -> Host {
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: allowed_cpus().len().max(1),
            kernel,
            cpu_model,
        }
    }
}
