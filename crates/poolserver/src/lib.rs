//! `poolserver` — the live multithreaded blocking HTTP server (the paper's
//! Apache-worker-MPM stand-in, in Rust).
//!
//! Architecture: a pool of `pool_size` threads; each thread loops over
//! "accept one connection (serialised by an accept mutex, as Apache does),
//! then serve that connection with *blocking* I/O until it closes". The two
//! architectural properties the paper measures fall straight out:
//!
//! * one connection binds one thread for its whole lifetime — under more
//!   concurrent clients than threads, new connections wait in the kernel
//!   backlog and connection-establishment time explodes (figure 4);
//! * an idle-connection timeout (`idle_timeout`, Apache's 15 s `Timeout`)
//!   is *required* to reclaim threads from thinking clients, and every such
//!   reclaim surfaces at the client as a connection-reset error
//!   (figure 3(b)).
//!
//! Robustness layer: every accepted connection is tracked in a registry of
//! cloned handles, so [`PoolServer::shutdown`] can interrupt threads blocked
//! in reads immediately (idle keep-alive connections used to hold shutdown
//! hostage for a full read slice), [`PoolServer::shutdown_graceful`] can
//! drain — finish in-flight responses, close idle connections, report
//! drained vs aborted — and tests can stall accepts or crash/restart pool
//! threads ([`PoolServer::stall_accepts`], [`PoolServer::crash_worker`],
//! [`PoolServer::restart_worker`]). The accept
//! path runs the same admission decision as the event server
//! ([`LifecyclePolicy::admit`]), with busy threads as the shed pressure.
//!
//! The only FFI here is [`WakePipe`]: this crate stays free of `reactor`,
//! so the wire-equivalence tests can use it as their independent reference.

#![deny(clippy::undocumented_unsafe_blocks)]

use faults::DrainReport;
use httpcore::sys::{nofile_limits, set_linger_zero, set_rcvbuf, set_sndbuf};
use httpcore::{
    send_closing_head, AcceptBackoff, Admission, ContentStore, DateCache, LifecyclePolicy, Next,
    RequestPool, Session, Status,
};
use obs::{EndCause, GaugeKind, LiveEnds, LiveGauges, Stage, StageHists};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Clone)]
pub struct PoolConfig {
    /// Threads in the pool (the paper sweeps 512–6000; live tests use less).
    pub pool_size: usize,
    /// Connection-lifecycle policy shared with the event server. For this
    /// architecture `idle_timeout` is the load-bearing knob (Apache's 15 s
    /// `Timeout` — which, as the paper explains, a threaded server cannot
    /// afford to leave unset under load); `header_timeout` bounds slow-loris
    /// head dribbling; the accept-path defenses (`fd_reserve`, `max_conns`)
    /// apply as in the event server. `write_stall_timeout` arms
    /// `SO_SNDTIMEO` on every accepted socket, so a blocking write to a
    /// peer that never drains errors out (and the connection is reset)
    /// instead of wedging the thread for as long as the peer likes.
    pub lifecycle: LifecyclePolicy,
    /// Load shedding: refuse new connections (abortive close on accept)
    /// while at least this many threads are already bound. None = admit
    /// until the kernel backlog fills.
    pub shed_watermark: Option<u64>,
    pub content: Arc<ContentStore>,
}

/// Live counters.
#[derive(Debug, Default)]
pub struct PoolStats {
    pub accepted: AtomicU64,
    pub requests: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub idle_closes: AtomicU64,
    pub parse_errors: AtomicU64,
    /// Threads currently bound to a connection.
    pub busy_threads: AtomicU64,
    /// Connections refused by the fd reserve, the `max_conns` cap, or the
    /// load-shedding watermark.
    pub refused: AtomicU64,
    /// Pool threads currently running (drops when a fault crashes one).
    pub alive_threads: AtomicU64,
    /// Fault injections consumed: threads that crashed on request.
    pub worker_crashes: AtomicU64,
    /// Transient `accept()` errors tolerated (EMFILE/ENFILE/ECONNABORTED/
    /// EINTR and friends) — each was retried, not fatal.
    pub accept_errors: AtomicU64,
}

/// Shared mutable control state: shutdown/drain flags, fault hooks, the
/// live-connection registry, and the accept path's wake pipe.
struct PoolCtl {
    stop: AtomicBool,
    draining: AtomicBool,
    accepts_stalled: AtomicBool,
    /// Pending crash requests; a pool thread consuming one exits.
    crash_tokens: AtomicU64,
    drained: AtomicU64,
    aborted: AtomicU64,
    registry: ConnRegistry,
    /// Written after every flag change above, so the thread blocked in
    /// `poll(2)` under the accept mutex re-reads them.
    wake: WakePipe,
}

impl PoolCtl {
    fn new() -> io::Result<PoolCtl> {
        Ok(PoolCtl {
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            accepts_stalled: AtomicBool::new(false),
            crash_tokens: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            registry: ConnRegistry::default(),
            wake: WakePipe::new()?,
        })
    }
}

/// Registry of live connections: a cloned stream handle per connection so
/// shutdown and drain can interrupt threads blocked on socket I/O.
#[derive(Default)]
struct ConnRegistry {
    next: AtomicU64,
    conns: Mutex<HashMap<u64, ConnSlot>>,
}

struct ConnSlot {
    stream: TcpStream,
    /// True while a parsed request's response has not been fully written.
    in_flight: Arc<AtomicBool>,
}

impl ConnRegistry {
    fn register(&self, stream: &TcpStream, in_flight: &Arc<AtomicBool>) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        if let Ok(dup) = stream.try_clone() {
            self.conns.lock().insert(
                id,
                ConnSlot {
                    stream: dup,
                    in_flight: Arc::clone(in_flight),
                },
            );
        }
        id
    }

    fn remove(&self, id: u64) {
        self.conns.lock().remove(&id);
    }

    fn is_empty(&self) -> bool {
        self.conns.lock().is_empty()
    }

    /// Shut down connections with no response owed (unblocks their threads).
    fn shutdown_idle(&self) {
        for slot in self.conns.lock().values() {
            if !slot.in_flight.load(Ordering::Relaxed) {
                let _ = slot.stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Shut down every tracked connection, in-flight or not.
    fn shutdown_all(&self) {
        for slot in self.conns.lock().values() {
            let _ = slot.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Handle to a running pool server; dropping it stops the server.
pub struct PoolServer {
    addr: SocketAddr,
    config: PoolConfig,
    ctl: Arc<PoolCtl>,
    stats: Arc<PoolStats>,
    gauges: Arc<LiveGauges>,
    ends: Arc<LiveEnds>,
    hists: Arc<Mutex<StageHists>>,
    /// `None` once the port is released (drain refuses new connections).
    listener: Arc<Mutex<Option<TcpListener>>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl PoolServer {
    /// Bind `127.0.0.1:0` and start the pool.
    pub fn start(config: PoolConfig) -> io::Result<PoolServer> {
        assert!(config.pool_size > 0);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let server = PoolServer {
            addr,
            config: config.clone(),
            ctl: Arc::new(PoolCtl::new()?),
            stats: Arc::new(PoolStats::default()),
            gauges: Arc::new(LiveGauges::new()),
            ends: Arc::new(LiveEnds::new()),
            hists: Arc::new(Mutex::new(StageHists::new())),
            listener: Arc::new(Mutex::new(Some(listener))),
            threads: Mutex::new(Vec::new()),
        };
        for _ in 0..config.pool_size {
            server.spawn_thread()?;
        }
        Ok(server)
    }

    fn spawn_thread(&self) -> io::Result<()> {
        let i = self.threads.lock().len();
        let cfg = self.config.clone();
        let listener = Arc::clone(&self.listener);
        let ctl = Arc::clone(&self.ctl);
        let stats = Arc::clone(&self.stats);
        let gauges = Arc::clone(&self.gauges);
        let ends = Arc::clone(&self.ends);
        let hists = Arc::clone(&self.hists);
        let handle = std::thread::Builder::new()
            .name(format!("pool-{i}"))
            .spawn(move || pool_thread(cfg, listener, ctl, stats, gauges, ends, hists))?;
        self.threads.lock().push(handle);
        Ok(())
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Lock-free gauge registry (thread-pool occupancy, open connections).
    /// Hand it to [`obs::spawn_sampler`] to collect a periodic
    /// [`obs::GaugeLog`] while the server runs.
    pub fn gauges(&self) -> Arc<LiveGauges> {
        Arc::clone(&self.gauges)
    }

    /// Lock-free connection-termination tally (why connections ended, in
    /// the lifecycle-policy taxonomy). Snapshot it into an
    /// [`obs::EndTally`] for export.
    pub fn ends(&self) -> Arc<LiveEnds> {
        Arc::clone(&self.ends)
    }

    /// Server-side per-stage latency histograms: parse/service/transfer
    /// burst durations measured inside the pool threads, merged into this
    /// shared sink as each thread exits. Clone the `Arc` before `shutdown`
    /// (which consumes the handle) to read the completed merge afterwards.
    pub fn stage_hists(&self) -> Arc<Mutex<StageHists>> {
        Arc::clone(&self.hists)
    }

    fn stop_and_join(&self) {
        self.ctl.stop.store(true, Ordering::SeqCst);
        // Wake the accept-mutex holder first: it blocks in `poll(2)` while
        // holding the lock this needs.
        self.ctl.wake.wake();
        *self.listener.lock() = None;
        // Interrupt threads blocked reading idle keep-alive connections —
        // without this, shutdown waits out a full read slice per thread.
        self.ctl.registry.shutdown_all();
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }

    /// Signal all threads to stop and join them. Open connections are cut.
    pub fn shutdown(self) {
        self.stop_and_join();
    }

    /// Graceful drain: release the port (new connections are refused by the
    /// kernel), close idle connections, let in-flight responses finish, and
    /// cut whatever is still unfinished at the deadline. Returns how many
    /// connections ended cleanly vs were cut mid-response.
    pub fn shutdown_graceful(self, deadline: Duration) -> DrainReport {
        self.ctl.draining.store(true, Ordering::SeqCst);
        self.ctl.wake.wake();
        *self.listener.lock() = None;
        let start = Instant::now();
        while start.elapsed() < deadline && !self.ctl.registry.is_empty() {
            // Connections with nothing owed can go now; re-sweeping catches
            // ones that finished their response since the last pass.
            self.ctl.registry.shutdown_idle();
            std::thread::sleep(Duration::from_millis(5));
        }
        self.ctl.registry.shutdown_all();
        self.stop_and_join();
        DrainReport {
            drained: self.ctl.drained.load(Ordering::SeqCst),
            aborted: self.ctl.aborted.load(Ordering::SeqCst),
        }
    }
}

impl Drop for PoolServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl PoolServer {
    /// Freeze (`true`) or resume (`false`) accepting new connections.
    pub fn stall_accepts(&self, on: bool) {
        self.ctl.accepts_stalled.store(on, Ordering::SeqCst);
        self.ctl.wake.wake();
    }

    /// Kill one pool thread. Returns false when no thread was left to
    /// kill.
    pub fn crash_worker(&self) -> bool {
        if self.stats.alive_threads.load(Ordering::SeqCst) == 0 {
            return false;
        }
        self.ctl.crash_tokens.fetch_add(1, Ordering::SeqCst);
        // An idle pool takes the token at the top of its loop; wake the
        // holder so one thread gets there.
        self.ctl.wake.wake();
        true
    }

    /// Start one replacement pool thread. Returns false when the thread
    /// could not be spawned.
    pub fn restart_worker(&self) -> bool {
        self.spawn_thread().is_ok()
    }
}

/// Take one pending crash token, if any.
fn take_crash_token(ctl: &PoolCtl) -> bool {
    ctl.crash_tokens
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

/// One pool thread: accept under the mutex, then serve the connection to
/// completion with blocking I/O (the thread is unavailable throughout).
#[allow(clippy::too_many_arguments)]
fn pool_thread(
    cfg: PoolConfig,
    listener: Arc<Mutex<Option<TcpListener>>>,
    ctl: Arc<PoolCtl>,
    stats: Arc<PoolStats>,
    gauges: Arc<LiveGauges>,
    ends: Arc<LiveEnds>,
    hists: Arc<Mutex<StageHists>>,
) {
    stats.alive_threads.fetch_add(1, Ordering::SeqCst);
    // Per-thread stage histograms: recorded locally (nothing shared on the
    // serve path), merged into the server-wide sink when the thread exits.
    let mut local_hists = StageHists::new();
    // Per-thread parser-scratch pool: request allocations recycle across
    // connections served by this thread instead of being rebuilt from
    // nothing for every accepted connection.
    let mut req_pool = RequestPool::new();
    let fd_limit = nofile_limits().0;
    let mut backoff = AcceptBackoff::default();
    let mut refusal_head = Vec::new();
    // The thread's reply dates, shared by every connection it serves.
    let mut dates = DateCache::new(Instant::now());
    loop {
        if ctl.stop.load(Ordering::Relaxed) || ctl.draining.load(Ordering::Relaxed) {
            break;
        }
        if take_crash_token(&ctl) {
            stats.worker_crashes.fetch_add(1, Ordering::SeqCst);
            break;
        }
        // Apache's accept serialisation: one thread in accept at a time.
        // The holder blocks in `poll(2)` on the listener and the wake pipe;
        // the rest of the idle pool parks on the mutex.
        let accepted = {
            let guard = listener.lock();
            let Some(l) = guard.as_ref() else { break };
            match accept_or_wait(l, &ctl) {
                Some(accepted) => accepted,
                // Woken: release the mutex and re-read the flags above.
                None => continue,
            }
        };
        match accepted {
            Ok((stream, _)) => {
                backoff.reset();
                let shed_hit = cfg
                    .shed_watermark
                    .is_some_and(|w| stats.busy_threads.load(Ordering::Relaxed) >= w);
                let admission = cfg.lifecycle.admit(
                    stream.as_raw_fd() as u64,
                    fd_limit,
                    gauges.get(GaugeKind::OpenConns),
                    shed_hit,
                );
                if admission != Admission::Admit {
                    stats.refused.fetch_add(1, Ordering::Relaxed);
                    ends.record(if admission == Admission::FdReserve {
                        EndCause::FdReserve
                    } else {
                        EndCause::Refused
                    });
                    admission.refuse(&stream, &mut refusal_head, dates.get(Instant::now()));
                    continue;
                }
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                stats.busy_threads.fetch_add(1, Ordering::Relaxed);
                // Thread binding: occupancy and open-conn count move in
                // lockstep — the architectural coupling the paper measures.
                gauges.add(GaugeKind::ThreadPoolOccupancy, 1);
                gauges.add(GaugeKind::OpenConns, 1);
                let in_flight = Arc::new(AtomicBool::new(false));
                let id = ctl.registry.register(&stream, &in_flight);
                let owed = serve_connection(
                    &cfg,
                    stream,
                    &ctl,
                    &stats,
                    &ends,
                    &in_flight,
                    &mut local_hists,
                    &mut req_pool,
                    &mut dates,
                );
                ctl.registry.remove(id);
                if ctl.draining.load(Ordering::SeqCst) {
                    if owed {
                        ctl.aborted.fetch_add(1, Ordering::SeqCst);
                    } else {
                        ctl.drained.fetch_add(1, Ordering::SeqCst);
                    }
                }
                gauges.sub(GaugeKind::ThreadPoolOccupancy, 1);
                gauges.sub(GaugeKind::OpenConns, 1);
                stats.busy_threads.fetch_sub(1, Ordering::Relaxed);
            }
            Err(e) => {
                stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                let retry = backoff.on_error(&e);
                if retry.fd_exhausted {
                    ends.record(EndCause::FdReserve);
                }
                if let Some(pause) = retry.pause {
                    std::thread::sleep(pause);
                }
            }
        }
    }
    stats.alive_threads.fetch_sub(1, Ordering::SeqCst);
    hists.lock().merge(&local_hists);
}

/// The accept-mutex holder's turn: accept one connection, blocking in
/// `poll(2)` on the listener and the wake pipe while the backlog is empty
/// (or on the pipe alone during an accept stall). `None` means the pipe
/// fired — a flag changed, and the caller must release the mutex and
/// re-read them. The flags are checked here, under the mutex, before every
/// wait: a wake written after the flag was set is either still in the pipe
/// when the holder polls or was drained by a holder that re-checks next.
fn accept_or_wait(
    listener: &TcpListener,
    ctl: &PoolCtl,
) -> Option<io::Result<(TcpStream, SocketAddr)>> {
    loop {
        if ctl.stop.load(Ordering::SeqCst) || ctl.draining.load(Ordering::SeqCst) {
            return None;
        }
        if ctl.accepts_stalled.load(Ordering::SeqCst) {
            // Accept stall (`stall_accepts`): SYNs queue in the kernel backlog.
            ctl.wake.wait(None);
            return None;
        }
        match listener.accept() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if ctl.wake.wait(Some(listener.as_raw_fd())) {
                    return None;
                }
            }
            accepted => return Some(accepted),
        }
    }
}

/// A non-blocking self-pipe: the pool's wake-up for the thread blocked in
/// `poll(2)` under the accept mutex. This crate stays free of the `reactor`
/// crate, so the wire-equivalence tests can use it as their independent
/// reference.
struct WakePipe {
    read_fd: i32,
    write_fd: i32,
}

impl WakePipe {
    fn new() -> io::Result<WakePipe> {
        extern "C" {
            fn pipe2(fds: *mut i32, flags: i32) -> i32;
        }
        const O_NONBLOCK: i32 = 0x800;
        const O_CLOEXEC: i32 = 0x8_0000;
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a writable array of the two ints pipe2 fills.
        if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// Make the pipe readable. Wakes coalesce: a full pipe drops the byte.
    fn wake(&self) {
        extern "C" {
            fn write(fd: i32, buf: *const std::os::raw::c_void, count: usize) -> isize;
        }
        let byte = 1u8;
        // SAFETY: writes one byte from a live local; the fd is owned by
        // `self` and stays open until drop.
        let _ = unsafe { write(self.write_fd, &byte as *const u8 as *const _, 1) };
    }

    /// Block until the pipe (or `listener`, when given) is readable.
    /// Returns true, with the pipe drained, when the pipe fired.
    fn wait(&self, listener: Option<i32>) -> bool {
        #[repr(C)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
            fn read(fd: i32, buf: *mut std::os::raw::c_void, count: usize) -> isize;
        }
        const POLLIN: i16 = 1;
        let mut fds = [
            PollFd {
                fd: self.read_fd,
                events: POLLIN,
                revents: 0,
            },
            PollFd {
                fd: listener.unwrap_or(-1),
                events: POLLIN,
                revents: 0,
            },
        ];
        // EINTR and listener readiness both come back as "not woken": the
        // caller retries `accept`, which waits again on `WouldBlock`.
        // SAFETY: `fds` is a live array of `fds.len()` `#[repr(C)]` pollfd
        // records; poll ignores the negative fd of an absent listener.
        if unsafe { poll(fds.as_mut_ptr(), fds.len() as _, -1) } <= 0 || fds[0].revents == 0 {
            return false;
        }
        let mut buf = [0u8; 64];
        // SAFETY: reads at most `buf.len()` bytes into the local buffer; the
        // fd is non-blocking, so the loop ends at EAGAIN.
        while unsafe { read(self.read_fd, buf.as_mut_ptr() as *mut _, buf.len()) } > 0 {}
        true
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        extern "C" {
            fn close(fd: i32) -> i32;
        }
        // SAFETY: both fds are owned by `self` and closed exactly once, here.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

/// Serve one connection until it closes, errors, or idles out. Returns true
/// if the connection ended with a response still owed to the client (the
/// drain accounting's "aborted").
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    cfg: &PoolConfig,
    mut stream: TcpStream,
    ctl: &PoolCtl,
    stats: &PoolStats,
    ends: &LiveEnds,
    in_flight: &AtomicBool,
    hists: &mut StageHists,
    req_pool: &mut RequestPool,
    dates: &mut DateCache,
) -> bool {
    let _ = stream.set_nodelay(true);
    // Same socket-buffer sizing as the event server: the default
    // reply-sized send buffer takes a whole response in one blocking
    // vectored write, so the thread overlaps the kernel's drain with
    // reading the next request; both knobs can be trimmed to shrink
    // kernel-side per-connection memory.
    if let Some(b) = cfg.lifecycle.send_buffer {
        let _ = set_sndbuf(&stream, b as i32);
    }
    if let Some(b) = cfg.lifecycle.recv_buffer {
        let _ = set_rcvbuf(&stream, b as i32);
    }
    // SO_SNDTIMEO from the lifecycle policy: a write that makes no progress
    // for this long (the never-reads shape) fails with a timeout error
    // instead of binding the thread until the peer deigns to drain.
    let _ = stream.set_write_timeout(cfg.lifecycle.write_stall_timeout);
    // Blocking reads with the idle timeout as the read timeout — exactly the
    // Apache `Timeout` directive's mechanism. Bounded by 1 s slices so the
    // thread also notices server shutdown, and by the header deadline so a
    // stalled head is answered on time.
    let idle = cfg
        .lifecycle
        .idle_timeout
        .unwrap_or(Duration::from_secs(3600));
    let mut idle_left = idle;
    let slice = Duration::from_secs(1)
        .min(idle)
        .min(cfg.lifecycle.header_timeout.unwrap_or(Duration::MAX));
    let _ = stream.set_read_timeout(Some(slice));
    let mut session = Session::new();
    let mut buf = vec![0u8; 64 * 1024];
    // Head buffer reused across every response on this connection.
    let mut head = Vec::new();
    // Absolute deadline for delivering a complete request head, armed at
    // the first partial byte. Absolute — a byte-per-second dribble (the
    // slow-loris shape) must not slide it.
    let mut head_started: Option<Instant> = None;
    loop {
        if ctl.stop.load(Ordering::Relaxed) {
            return false;
        }
        if let (Some(limit), Some(t0)) = (cfg.lifecycle.header_timeout, head_started) {
            if t0.elapsed() >= limit {
                // The head never completed in time: answer 408 and close.
                ends.record(EndCause::HeaderTimeout);
                let date = dates.get(Instant::now());
                send_closing_head(&stream, &mut head, Status::RequestTimeout, date);
                return false;
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return false, // client closed
            Ok(n) => {
                idle_left = idle;
                // Stage clock: feed+parse is the parse burst, restarted
                // after each served request so pipelined requests each get
                // their own sample.
                let mut p0 = Instant::now();
                let date = dates.get(p0);
                session.feed(&buf[..n]);
                loop {
                    match session.next(req_pool) {
                        Next::Request(req) => {
                            hists.record(Stage::Parse, p0.elapsed().as_nanos() as u64);
                            in_flight.store(true, Ordering::SeqCst);
                            let sent = respond(
                                cfg,
                                &mut stream,
                                stats,
                                ends,
                                &req,
                                date,
                                &mut head,
                                hists,
                            );
                            in_flight.store(false, Ordering::SeqCst);
                            p0 = Instant::now();
                            // Hand the request's allocations back to the
                            // thread's pool for the next parse — they
                            // outlive this connection.
                            req_pool.give(req);
                            if !sent {
                                // Write-stall expiry (or a mid-reply write
                                // error): abortive close, as the policy
                                // documents and as the event server's
                                // write-stall teardown behaves — the client
                                // must observe RST, not a clean FIN after
                                // the kernel drains what it owed.
                                let _ = set_linger_zero(&stream);
                                return true; // response lost
                            }
                        }
                        Next::Wait => break,
                        Next::Reject { status, limit } => {
                            stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                            if limit {
                                ends.record(EndCause::ParseLimit);
                            }
                            send_closing_head(&stream, &mut head, status, date);
                            return false;
                        }
                        Next::Closed => return false,
                    }
                }
                head_started = if session.buffered() > 0 {
                    Some(head_started.unwrap_or_else(Instant::now))
                } else {
                    None
                };
                // Draining and every received request answered: close now
                // rather than wait for more requests that will never be
                // admitted.
                if ctl.draining.load(Ordering::SeqCst) {
                    return false;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // A buffered partial head means the connection is mid-request,
                // not idle: the header deadline above governs (and answers 408
                // rather than resetting). Idle expiry still applies as the
                // fallback when no header deadline is armed, so a dangling
                // head cannot hold the thread forever.
                if head_started.is_some() && cfg.lifecycle.header_timeout.is_some() {
                    continue;
                }
                // One idle slice elapsed with no data.
                idle_left = idle_left.saturating_sub(slice);
                if idle_left.is_zero() {
                    // Reclaim the thread: abortive close so the thinking
                    // client sees ECONNRESET on its next send, as the
                    // paper's Apache does.
                    stats.idle_closes.fetch_add(1, Ordering::Relaxed);
                    ends.record(EndCause::IdleTimeout);
                    let _ = set_linger_zero(&stream);
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Write the response for one request with *blocking* I/O: the thread does
/// not return until the kernel accepted every byte.
///
/// Zero-copy reply path: the head renders into the caller's reused buffer
/// and the body stays a borrowed arena slice — the pair goes to the kernel
/// via [`write_two`] (`writev`) instead of being concatenated into a fresh
/// allocation per response.
#[allow(clippy::too_many_arguments)]
fn respond(
    cfg: &PoolConfig,
    stream: &mut TcpStream,
    stats: &PoolStats,
    ends: &LiveEnds,
    req: &httpcore::Request,
    date: &str,
    head: &mut Vec<u8>,
    hists: &mut StageHists,
) -> bool {
    stats.requests.fetch_add(1, Ordering::Relaxed);
    // Service = building the response; transfer = the blocking write below.
    let s0 = Instant::now();
    head.clear();
    let body = match httpcore::route(req, &cfg.content, date, head) {
        Some(id) => cfg.content.body(id),
        None => &[],
    };
    hists.record(Stage::Service, s0.elapsed().as_nanos() as u64);
    let t0 = Instant::now();
    let out = match write_two(stream, head, body) {
        Ok(()) => {
            stats
                .bytes_sent
                .fetch_add((head.len() + body.len()) as u64, Ordering::Relaxed);
            true
        }
        Err(e) => {
            // SO_SNDTIMEO expiry (the peer never drained): an abortive
            // close so the stall is visible as a reset, tallied apart from
            // ordinary peer-vanished write errors.
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                ends.record(EndCause::WriteStall);
                let _ = set_linger_zero(stream);
            }
            false
        }
    };
    hists.record(Stage::Transfer, t0.elapsed().as_nanos() as u64);
    out
}

/// Blocking vectored write of two segments with a cursor that spans both —
/// `write_all` for a (head, body) pair without concatenating them.
fn write_two(stream: &mut TcpStream, head: &[u8], body: &[u8]) -> io::Result<()> {
    use std::io::{IoSlice, Write};
    let total = head.len() + body.len();
    let mut pos = 0usize;
    while pos < total {
        let iov = if pos < head.len() {
            [IoSlice::new(&head[pos..]), IoSlice::new(body)]
        } else {
            [IoSlice::new(&body[pos - head.len()..]), IoSlice::new(&[])]
        };
        match stream.write_vectored(&iov) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Rng;
    use std::io::Write;
    use workload::{FileSet, SurgeConfig};

    fn test_content() -> Arc<ContentStore> {
        let mut rng = Rng::new(1);
        let fs = FileSet::build(
            &SurgeConfig {
                num_files: 20,
                tail_prob: 0.0,
                ..SurgeConfig::default()
            },
            &mut rng,
        );
        Arc::new(ContentStore::from_fileset(&fs))
    }

    fn start(pool: usize, idle: Option<Duration>) -> (PoolServer, Arc<ContentStore>) {
        let content = test_content();
        let server = PoolServer::start(PoolConfig {
            pool_size: pool,
            lifecycle: LifecyclePolicy {
                idle_timeout: idle,
                ..LifecyclePolicy::default()
            },
            shed_watermark: None,
            content: Arc::clone(&content),
        })
        .unwrap();
        (server, content)
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, Vec<u8>) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        (head.status, buf[head.head_len..].to_vec())
    }

    #[test]
    fn serves_files_end_to_end() {
        let (server, content) = start(4, None);
        let (status, body) = get(server.addr(), "/f/5");
        assert_eq!(status, 200);
        assert_eq!(body, content.body(workload::FileId(5)));
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_sequential_requests() {
        let (server, content) = start(2, None);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for id in [0u32, 1, 2] {
            write!(s, "GET /f/{id} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut buf = Vec::new();
            let mut tmp = [0u8; 4096];
            let head = loop {
                if let Some(h) = httpcore::parse_response_head(&buf) {
                    break h.unwrap();
                }
                let n = s.read(&mut tmp).unwrap();
                assert!(n > 0, "server closed mid-reply");
                buf.extend_from_slice(&tmp[..n]);
            };
            while buf.len() < head.head_len + head.content_length {
                let n = s.read(&mut tmp).unwrap();
                assert!(n > 0);
                buf.extend_from_slice(&tmp[..n]);
            }
            assert_eq!(head.status, 200);
            assert_eq!(
                &buf[head.head_len..head.head_len + head.content_length],
                content.body(workload::FileId(id))
            );
        }
        server.shutdown();
    }

    #[test]
    fn date_advances_on_a_keep_alive_connection() {
        // The reply date comes from the thread's once-a-second cache, not
        // from the moment the connection was accepted: two replies 2.1 s
        // apart on one connection carry different dates.
        let (server, _) = start(1, None);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut date = || {
            s.write_all(b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let mut buf = Vec::new();
            let mut tmp = [0u8; 1024];
            let head = loop {
                if let Some(h) = httpcore::parse_response_head(&buf) {
                    break h.unwrap();
                }
                let n = s.read(&mut tmp).unwrap();
                assert!(n > 0, "server closed mid-reply");
                buf.extend_from_slice(&tmp[..n]);
            };
            assert_eq!((head.status, head.content_length), (404, 0));
            let text = String::from_utf8(buf[..head.head_len].to_vec()).unwrap();
            let line = text.split("\r\n").find(|l| l.starts_with("Date: "));
            line.expect("a Date header").to_string()
        };
        let first = date();
        std::thread::sleep(Duration::from_millis(2100));
        let second = date();
        assert_ne!(first, second, "Date froze for the connection's lifetime");
        server.shutdown();
    }

    #[test]
    fn half_close_drains_buffered_pipeline_then_closes_cleanly() {
        // `shutdown(SHUT_WR)` after a pipelined burst: the bound thread
        // must serve every request already on the wire, then notice the
        // EOF and close with a clean FIN — never a reset, never a dropped
        // reply.
        let (server, content) = start(2, None);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\nGET /f/1 HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).expect("clean close, not a reset");
        let mut off = 0;
        for id in 0..2u32 {
            let head = httpcore::parse_response_head(&buf[off..])
                .expect("complete head")
                .expect("valid head");
            assert_eq!(head.status, 200, "reply {id}");
            let body = &buf[off + head.head_len..off + head.head_len + head.content_length];
            assert_eq!(body, content.body(workload::FileId(id)), "reply {id}");
            off += head.head_len + head.content_length;
        }
        assert_eq!(off, buf.len(), "no trailing bytes after the two replies");
        server.shutdown();
    }

    #[test]
    fn half_close_with_partial_head_closes_without_answer() {
        // FIN while a head is dangling: it can never complete, so the
        // thread drops the connection cleanly without inventing a 408.
        let (server, _) = start(2, None);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"GET /f/0 HTTP/1.1\r\nHost: t").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).expect("clean close");
        assert!(buf.is_empty(), "no reply owed to an unfinished head");
        server.shutdown();
    }

    #[test]
    fn trimmed_socket_buffers_still_serve_full_bodies() {
        // The SO_RCVBUF/SO_SNDBUF knobs shrink kernel memory; a reply
        // bigger than the trimmed send buffer must still arrive whole
        // (the blocking write path just takes more trips to the kernel).
        let content = test_content();
        let server = PoolServer::start(PoolConfig {
            pool_size: 2,
            lifecycle: LifecyclePolicy::default().with_buffers(4096, 4096),
            shed_watermark: None,
            content: Arc::clone(&content),
        })
        .unwrap();
        let (status, body) = get(server.addr(), "/f/3");
        assert_eq!(status, 200);
        assert_eq!(body, content.body(workload::FileId(3)));
        server.shutdown();
    }

    #[test]
    fn idle_timeout_resets_thinking_clients() {
        let (server, _) = start(2, Some(Duration::from_secs(1)));
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // First request succeeds.
        write!(s, "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut tmp = [0u8; 65536];
        let n = s.read(&mut tmp).unwrap();
        assert!(n > 0);
        // "Think" past the server's idle timeout.
        std::thread::sleep(Duration::from_millis(2500));
        // The next send (or the read after it) must observe the close/reset.
        let send_result = write!(s, "GET /f/1 HTTP/1.1\r\nHost: t\r\n\r\n");
        let reset = match send_result {
            Err(_) => true,
            Ok(()) => {
                let _ = s.flush();
                loop {
                    match s.read(&mut tmp) {
                        Ok(0) => break true,
                        Ok(_) => continue,
                        Err(e) if e.kind() == io::ErrorKind::ConnectionReset => break true,
                        Err(_) => break true,
                    }
                }
            }
        };
        assert!(reset, "idle connection must be reset by the server");
        assert!(server.stats().idle_closes.load(Ordering::Relaxed) >= 1);
        server.shutdown();
    }

    #[test]
    fn pool_exhaustion_queues_excess_clients() {
        // 1 thread, 2 clients: the second client's request is only served
        // after the first connection closes — thread binding in action.
        let (server, _) = start(1, None);
        let addr = server.addr();
        let mut held = TcpStream::connect(addr).unwrap();
        held.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(held, "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut tmp = [0u8; 65536];
        let _ = held.read(&mut tmp).unwrap(); // thread now bound to `held`
        let t = std::thread::spawn(move || get(addr, "/f/1"));
        // Give the second client time to be stuck behind the bound thread.
        std::thread::sleep(Duration::from_millis(300));
        assert!(!t.is_finished(), "second client should be waiting");
        drop(held); // closes the first connection, freeing the thread
        let (status, _) = t.join().unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn write_stall_frees_wedged_thread_for_next_client() {
        // Two 8 MB files: far larger than the server's send buffer plus a
        // never-reading client's receive window, so the blocking reply
        // write wedges the pool's only thread.
        let mut rng = Rng::new(3);
        let fs = FileSet::build(
            &SurgeConfig {
                num_files: 2,
                tail_prob: 0.0,
                min_bytes: 8 * 1024 * 1024,
                ..SurgeConfig::default()
            },
            &mut rng,
        );
        let content = Arc::new(ContentStore::from_fileset(&fs));
        let server = PoolServer::start(PoolConfig {
            pool_size: 1,
            lifecycle: LifecyclePolicy {
                write_stall_timeout: Some(Duration::from_millis(500)),
                ..LifecyclePolicy::default()
            },
            shed_watermark: None,
            content: Arc::clone(&content),
        })
        .unwrap();
        let addr = server.addr();
        // The never-reads client: ask for the huge file, then never drain.
        let mut wedger = TcpStream::connect(addr).unwrap();
        write!(wedger, "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        // A well-behaved client queues behind the wedged thread...
        let t = std::thread::spawn(move || get(addr, "/f/1"));
        std::thread::sleep(Duration::from_millis(300));
        assert!(
            !t.is_finished(),
            "second client should be stuck behind the wedged thread"
        );
        // ...until SO_SNDTIMEO expires, the stalled write errors out, and
        // the reclaimed thread serves it in full.
        let (status, body) = t.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, content.body(workload::FileId(1)));
        assert_eq!(server.ends().get(EndCause::WriteStall), 1);
        // The wedge observes the abortive close instead of a clean FIN.
        wedger
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut tmp = [0u8; 65536];
        let dead = loop {
            match wedger.read(&mut tmp) {
                Ok(0) => break true,
                Ok(_) => continue,
                Err(_) => break true,
            }
        };
        assert!(dead, "stalled connection must be torn down");
        server.shutdown();
    }

    #[test]
    fn occupancy_gauge_tracks_bound_threads() {
        let (server, _) = start(2, None);
        let g = server.gauges();
        assert_eq!(g.get(GaugeKind::ThreadPoolOccupancy), 0);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut tmp = [0u8; 65536];
        let n = s.read(&mut tmp).unwrap();
        assert!(n > 0);
        // The connection is alive and keep-alive: exactly one thread bound.
        assert_eq!(g.get(GaugeKind::ThreadPoolOccupancy), 1);
        assert_eq!(g.get(GaugeKind::OpenConns), 1);
        drop(s);
        // The thread notices the close within its 1 s read slice.
        let freed = (0..60).any(|_| {
            std::thread::sleep(Duration::from_millis(50));
            g.get(GaugeKind::ThreadPoolOccupancy) == 0
        });
        assert!(freed, "thread never unbound after client close");
        server.shutdown();
    }

    #[test]
    fn conditional_get_returns_304() {
        let (server, content) = start(2, None);
        let lm = content.last_modified(workload::FileId(1));
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(
            s,
            "GET /f/1 HTTP/1.1\r\nHost: t\r\nIf-Modified-Since: {lm}\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        assert_eq!(head.status, 304);
        assert_eq!(head.content_length, 0);
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400() {
        let (server, _) = start(2, None);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"GARBAGE\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        assert_eq!(head.status, 400);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_with_idle_keepalive_conns() {
        // An idle keep-alive connection keeps a thread blocked in read;
        // shutdown must interrupt it via the registry instead of waiting
        // out the read slice.
        let (server, _) = start(2, None);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut tmp = [0u8; 65536];
        let n = s.read(&mut tmp).unwrap();
        assert!(n > 0);
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "shutdown took {:?} with an idle keep-alive connection",
            t0.elapsed()
        );
    }

    #[test]
    fn shed_watermark_refuses_excess_connections() {
        let content = test_content();
        let server = PoolServer::start(PoolConfig {
            pool_size: 4,
            lifecycle: LifecyclePolicy::default(),
            shed_watermark: Some(1),
            content,
        })
        .unwrap();
        let addr = server.addr();
        // Bind the single admitted slot.
        let mut held = TcpStream::connect(addr).unwrap();
        held.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(held, "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut tmp = [0u8; 65536];
        let _ = held.read(&mut tmp).unwrap();
        // Subsequent connections are shed: reset before any reply.
        let mut refused_seen = false;
        for _ in 0..10 {
            let mut s = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(_) => {
                    refused_seen = true;
                    break;
                }
            };
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let _ = write!(s, "GET /f/1 HTTP/1.1\r\nHost: t\r\n\r\n");
            match s.read(&mut tmp) {
                Ok(0) | Err(_) => {
                    refused_seen = true;
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        assert!(refused_seen, "watermark never shed a connection");
        assert!(server.stats().refused.load(Ordering::Relaxed) >= 1);
        server.shutdown();
    }

    #[test]
    fn crash_and_restart_worker() {
        let (server, _) = start(2, None);
        let up = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            server.stats().alive_threads.load(Ordering::SeqCst) == 2
        });
        assert!(up, "pool threads never came up");
        assert!(server.crash_worker());
        let died = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            server.stats().alive_threads.load(Ordering::SeqCst) == 1
        });
        assert!(died, "no thread consumed the crash token");
        assert_eq!(server.stats().worker_crashes.load(Ordering::SeqCst), 1);
        assert!(server.restart_worker());
        let back = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            server.stats().alive_threads.load(Ordering::SeqCst) == 2
        });
        assert!(back, "restarted thread never came up");
        // The restarted thread serves requests.
        let (status, _) = get(server.addr(), "/f/0");
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn stall_accepts_blocks_then_recovers() {
        let (server, _) = start(2, None);
        server.stall_accepts(true);
        let addr = server.addr();
        let t = std::thread::spawn(move || get(addr, "/f/0"));
        std::thread::sleep(Duration::from_millis(300));
        // The connect sits in the kernel backlog, unserved.
        assert!(!t.is_finished(), "request served during an accept stall");
        server.stall_accepts(false);
        let (status, _) = t.join().unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    fn start_with_lifecycle(pool: usize, lifecycle: LifecyclePolicy) -> PoolServer {
        PoolServer::start(PoolConfig {
            pool_size: pool,
            lifecycle,
            shed_watermark: None,
            content: test_content(),
        })
        .unwrap()
    }

    #[test]
    fn oversize_request_line_gets_431_not_400() {
        let (server, _) = start(2, None);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let long = format!("GET /{} HTTP/1.1\r\nHost: t\r\n\r\n", "a".repeat(9000));
        s.write_all(long.as_bytes()).unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        assert_eq!(head.status, 431, "parser limit must answer 431");
        assert!(!head.keep_alive, "431 closes the connection");
        assert_eq!(server.ends().get(EndCause::ParseLimit), 1);
        server.shutdown();
    }

    #[test]
    fn slow_header_gets_408() {
        let server = start_with_lifecycle(
            2,
            LifecyclePolicy {
                header_timeout: Some(Duration::from_millis(300)),
                ..LifecyclePolicy::default()
            },
        );
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // A slow-loris opening: start a request head, then stall forever.
        s.write_all(b"GET /f/0 HT").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        assert_eq!(head.status, 408, "stalled header must be answered");
        assert_eq!(server.ends().get(EndCause::HeaderTimeout), 1);
        server.shutdown();
    }

    #[test]
    fn connection_cap_answers_503_and_close() {
        let server = start_with_lifecycle(
            2,
            LifecyclePolicy {
                max_conns: Some(0),
                ..LifecyclePolicy::default()
            },
        );
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        assert_eq!(head.status, 503, "over-cap admission must answer 503");
        assert!(!head.keep_alive, "refusal must close");
        assert_eq!(server.ends().get(EndCause::Refused), 1);
        assert_eq!(server.stats().refused.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn fd_reserve_at_the_soft_limit_resets_every_connection() {
        // A reserve as large as the soft RLIMIT_NOFILE covers every fd:
        // each connection is reset before any reply.
        let server = start_with_lifecycle(
            2,
            LifecyclePolicy {
                fd_reserve: nofile_limits().0,
                ..LifecyclePolicy::default()
            },
        );
        for _ in 0..3 {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let err = s.read(&mut [0u8; 64]).expect_err("reset, not a reply");
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        }
        assert_eq!(server.ends().get(EndCause::FdReserve), 3);
        assert_eq!(server.stats().refused.load(Ordering::Relaxed), 3);
        server.shutdown();
    }

    #[test]
    fn idle_close_is_tallied_as_end_cause() {
        let (server, _) = start(2, Some(Duration::from_secs(1)));
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut tmp = [0u8; 65536];
        assert!(s.read(&mut tmp).unwrap() > 0);
        std::thread::sleep(Duration::from_millis(2500));
        let dead = matches!(s.read(&mut tmp), Ok(0) | Err(_));
        assert!(dead, "idle connection must be reclaimed");
        assert_eq!(server.ends().get(EndCause::IdleTimeout), 1);
        server.shutdown();
    }
}
