//! `nioserver` — the live event-driven HTTP server (the paper's "nio"
//! server, in Rust).
//!
//! Architecture, faithful to the paper's description: **one acceptor
//! thread** blocks on the listen socket and hands accepted connections to
//! **`workers` worker threads**, each running a readiness-selection loop
//! over its share of the connections with strictly non-blocking I/O. A
//! worker never blocks on a socket: a full send buffer simply re-arms the
//! connection for writability and the worker moves on to the next ready key
//! — the "sharing the network resource in a more fair way between clients"
//! behaviour the paper measures.
//!
//! By default the server never applies an inactivity timeout to its clients
//! (it has no thread bound to them to reclaim), which is why it produces
//! zero connection-reset errors in figure 3(b). That is *policy*, not
//! architecture: [`LifecyclePolicy`] can arm a keep-alive idle timeout
//! (reproducing httpd2's reset stream from this same binary), a header-read
//! deadline answered with `408 Request Timeout` (anti-slow-loris), and a
//! write-stall deadline for clients that never drain their socket — all
//! driven by one wall-clock [`reactor::DeadlineWheel`] per worker.
//!
//! Accept-path architectures ([`faults::AcceptMode`]): the default
//! `Handoff` mode is the paper's nio — one acceptor thread distributing to
//! workers over channels. `Sharded` mode gives every worker its own
//! `SO_REUSEPORT` listener and the worker accepts directly in its selector
//! loop: no acceptor thread, no channel transfer, no per-accept lock, no
//! cross-thread wake. Both modes run the same admission defenses on the
//! accept path, and a crashed shard's listener fds are adopted by a
//! surviving worker (preserving their kernel accept queues) so the port
//! never silently loses a hash share.
//!
//! Robustness layer: the accept path runs the admission decision both
//! servers share ([`LifecyclePolicy::admit`]: fd reserve, `max_conns` cap,
//! shed watermark over open connections), answers EMFILE/ENFILE with
//! [`httpcore::AcceptBackoff`] instead of a spinning or dying accept loop,
//! and survives worker crashes by re-routing to the remaining workers;
//! [`NioServer::shutdown_graceful`] drains — idle connections close
//! immediately, in-flight responses finish, and whatever is still unflushed
//! at the deadline is cut and reported as aborted. Tests stall accepts and
//! crash/restart workers through [`NioServer::stall_accepts`],
//! [`NioServer::crash_worker`] and [`NioServer::restart_worker`]. Every
//! deliberate teardown is recorded in a typed [`obs::LiveEnds`] tally.

#![forbid(unsafe_code)]

pub use faults::AcceptMode;
pub use reactor::BackendKind;

use connslab::{Handle, Slab};
use faults::DrainReport;
use httpcore::sys::{bind_reuseport, nofile_limits, set_linger_zero, set_rcvbuf, set_sndbuf};
use httpcore::{
    AcceptBackoff, Admission, ContentStore, DateCache, HeadPool, LifecyclePolicy, Next, ReplyQueue,
    RequestPool, Session, Status, Version,
};
use obs::{EndCause, GaugeKind, LiveEnds, LiveGauges, ShardCell, ShardGauges, Stage, StageHists};
use parking_lot::Mutex;
use reactor::{DeadlineWheel, EpollSelector, Event, Interest, Selector, Token, Waker};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Clone)]
pub struct NioConfig {
    /// Worker (selector) threads. The paper's headline: 1–2 suffice.
    pub workers: usize,
    /// Readiness selector per worker: `Epoll` (O(ready)) or `Poll`
    /// (O(registered)) — the paper's selector pair.
    pub backend: BackendKind,
    /// How connections reach a worker: `Handoff` (one acceptor thread, the
    /// paper's nio) or `Sharded` (per-worker `SO_REUSEPORT` listeners).
    pub accept: AcceptMode,
    /// Load shedding: refuse new connections (abortive close on accept)
    /// while at least this many connections are open. None = admit all.
    pub shed_watermark: Option<u64>,
    /// Connection-lifecycle policy: idle/header/write-stall deadlines plus
    /// accept-path defenses. The default is the paper's nio (no timeouts).
    pub lifecycle: LifecyclePolicy,
    /// Content to serve.
    pub content: Arc<ContentStore>,
}

/// Live counters, shared with the handle.
#[derive(Debug, Default)]
pub struct NioStats {
    pub accepted: AtomicU64,
    pub requests: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub parse_errors: AtomicU64,
    /// Connections refused by the load-shedding watermark, the `max_conns`
    /// cap, or the fd reserve.
    pub refused: AtomicU64,
    /// Transient `accept()` errors survived (EMFILE/ENFILE/ECONNABORTED/
    /// EINTR and friends) — a healthy accept loop under attack shows these
    /// climbing while `accepted` keeps climbing too.
    pub accept_errors: AtomicU64,
    /// Worker threads currently running (drops when a fault crashes one).
    pub alive_workers: AtomicU64,
    /// Fault injections consumed: workers that crashed on request.
    pub worker_crashes: AtomicU64,
    /// Full O(open) drain sweeps performed across all workers. The drain
    /// protocol bounds this at one per worker — the sweep when the drain
    /// begins, which also collects in-flight survivors into a pending list;
    /// the deadline cut walks only that list — regardless of how many idle
    /// connections are open. Tests pin that bound.
    pub drain_full_sweeps: AtomicU64,
}

/// Shared control state: shutdown/drain flags and fault hooks.
#[derive(Default)]
struct NioCtl {
    stop: AtomicBool,
    draining: AtomicBool,
    accepts_stalled: AtomicBool,
    /// Pending crash requests; a worker consuming one exits.
    crash_tokens: AtomicU64,
    drained: AtomicU64,
    aborted: AtomicU64,
    drain_deadline: Mutex<Option<Instant>>,
    /// Sharded mode: listener fds surrendered by crashed workers, awaiting
    /// adoption by a survivor. Adopting the live fd (rather than rebinding)
    /// preserves the dead shard's kernel accept queue, so connections the
    /// kernel already completed are served, not reset.
    orphan_listeners: Mutex<Vec<TcpListener>>,
    /// Bumped whenever `orphan_listeners` gains entries; workers compare it
    /// against a local copy so the no-orphan steady state costs one relaxed
    /// load per loop, no lock.
    orphan_epoch: AtomicU64,
}

/// One worker's handover channel, shared with the acceptor (and with
/// `restart_worker`, which appends fresh links).
#[derive(Clone)]
struct WorkerLink {
    /// Stable identity, so the acceptor can delete a dead link from the
    /// shared list after discovering the death on its private snapshot.
    id: u64,
    tx: crossbeam::channel::Sender<TcpStream>,
    waker: Arc<Waker>,
}

/// The shared worker-link list plus a change epoch. The acceptor's hot path
/// round-robins over a private snapshot and re-reads the list only when the
/// epoch moves (worker spawn/crash) — the per-accept `links.lock()` this
/// replaces was the one piece of shared mutable state on the handoff path.
///
/// The list itself is copy-on-write behind an `Arc`: mutations (spawn/crash,
/// rare) build a fresh vector and swap the pointer, so `snapshot` and
/// `wake_all` hold the lock only for an `Arc` clone — O(1), never O(workers)
/// — and the actual wakes happen outside any lock. Samplers and fault
/// injectors poking every worker can never stall the accept path.
#[derive(Default)]
struct Links {
    list: Mutex<Arc<Vec<WorkerLink>>>,
    epoch: AtomicU64,
}

impl Links {
    fn update(&self, f: impl FnOnce(&mut Vec<WorkerLink>)) {
        let mut guard = self.list.lock();
        let mut next = (**guard).clone();
        f(&mut next);
        *guard = Arc::new(next);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    fn push(&self, link: WorkerLink) {
        self.update(|list| list.push(link));
    }

    fn remove(&self, id: u64) {
        self.update(|list| list.retain(|l| l.id != id));
    }

    fn len(&self) -> usize {
        self.list.lock().len()
    }

    /// (epoch-at-read, shared snapshot of the list). The epoch is read
    /// *before* the snapshot: a concurrent change can only make the caller
    /// re-snapshot once more than necessary, never miss an update.
    fn snapshot(&self) -> (u64, Arc<Vec<WorkerLink>>) {
        let epoch = self.epoch.load(Ordering::Acquire);
        (epoch, Arc::clone(&self.list.lock()))
    }

    fn wake_all(&self) {
        // O(1) under the lock: clone the Arc, wake outside.
        let list = Arc::clone(&self.list.lock());
        for link in list.iter() {
            link.waker.wake();
        }
    }
}

/// Everything a worker thread owns at birth. In handoff mode only the
/// channel half is populated; in sharded mode the worker also gets its own
/// `SO_REUSEPORT` listener and per-shard gauge cell.
struct WorkerSeat {
    rx: crossbeam::channel::Receiver<TcpStream>,
    waker: Arc<Waker>,
    listener: Option<TcpListener>,
    cell: Option<Arc<ShardCell>>,
}

/// Handle to a running server; dropping it stops the server.
pub struct NioServer {
    addr: SocketAddr,
    config: NioConfig,
    ctl: Arc<NioCtl>,
    stats: Arc<NioStats>,
    gauges: Arc<LiveGauges>,
    ends: Arc<LiveEnds>,
    shards: Arc<ShardGauges>,
    hists: Arc<Mutex<StageHists>>,
    links: Arc<Links>,
    /// Handoff mode: wakes the acceptor out of its blocking wait.
    acceptor_waker: Option<Arc<Waker>>,
    next_link_id: AtomicU64,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl NioServer {
    /// Bind `127.0.0.1:0` and start the workers (plus, in handoff mode, the
    /// acceptor thread; in sharded mode every worker brings its own
    /// `SO_REUSEPORT` listener to the same address instead).
    pub fn start(config: NioConfig) -> io::Result<NioServer> {
        assert!(config.workers > 0);
        let (listener, addr) = match config.accept {
            AcceptMode::Handoff => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                let addr = l.local_addr()?;
                l.set_nonblocking(true)?;
                (l, addr)
            }
            AcceptMode::Sharded => bind_reuseport(None)?,
        };
        let acceptor_waker = match config.accept {
            AcceptMode::Handoff => Some(Arc::new(Waker::new()?)),
            AcceptMode::Sharded => None,
        };
        let server = NioServer {
            addr,
            config: config.clone(),
            ctl: Arc::new(NioCtl::default()),
            stats: Arc::new(NioStats::default()),
            gauges: Arc::new(LiveGauges::new()),
            ends: Arc::new(LiveEnds::new()),
            shards: Arc::new(ShardGauges::new()),
            hists: Arc::new(Mutex::new(StageHists::new())),
            links: Arc::new(Links::default()),
            acceptor_waker,
            next_link_id: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
        };
        match config.accept {
            AcceptMode::Handoff => {
                for _ in 0..config.workers {
                    server.spawn_worker()?;
                }
                let ctl = Arc::clone(&server.ctl);
                let stats = Arc::clone(&server.stats);
                let gauges = Arc::clone(&server.gauges);
                let ends = Arc::clone(&server.ends);
                let links = Arc::clone(&server.links);
                let waker = Arc::clone(server.acceptor_waker.as_ref().expect("handoff waker"));
                // The acceptor's own wait set: its waker always, the
                // listener whenever it is accepting.
                let mut selector = EpollSelector::new()?;
                selector.register(waker.read_fd(), WAKER_TOKEN, Interest::READABLE)?;
                let cfg = config;
                server.threads.lock().push(
                    std::thread::Builder::new()
                        .name("nio-acceptor".to_string())
                        .spawn(move || {
                            acceptor_loop(
                                cfg, listener, selector, waker, links, ctl, stats, gauges, ends,
                            )
                        })
                        .expect("spawn acceptor"),
                );
            }
            AcceptMode::Sharded => {
                // The bootstrap listener seeds shard 0; the remaining
                // workers bind their own listeners to the same address.
                server.spawn_worker_seated(Some(listener))?;
                for _ in 1..config.workers {
                    server.spawn_worker()?;
                }
            }
        }
        Ok(server)
    }

    fn spawn_worker(&self) -> io::Result<()> {
        let listener = match self.config.accept {
            AcceptMode::Handoff => None,
            AcceptMode::Sharded => Some(bind_reuseport(Some(self.addr))?.0),
        };
        self.spawn_worker_seated(listener)
    }

    fn spawn_worker_seated(&self, listener: Option<TcpListener>) -> io::Result<()> {
        let w = self.links.len();
        let (tx, rx) = crossbeam::channel::unbounded::<TcpStream>();
        let waker = Arc::new(Waker::new()?);
        let id = self.next_link_id.fetch_add(1, Ordering::Relaxed);
        self.links.push(WorkerLink {
            id,
            tx,
            waker: Arc::clone(&waker),
        });
        let cell = listener.as_ref().map(|_| self.shards.register_shard());
        let seat = WorkerSeat {
            rx,
            waker,
            listener,
            cell,
        };
        let links = Arc::clone(&self.links);
        let ctl = Arc::clone(&self.ctl);
        let stats = Arc::clone(&self.stats);
        let gauges = Arc::clone(&self.gauges);
        let ends = Arc::clone(&self.ends);
        let hists = Arc::clone(&self.hists);
        let cfg = self.config.clone();
        let handle = std::thread::Builder::new()
            .name(format!("nio-worker-{w}"))
            .spawn(move || worker_loop(cfg, seat, links, ctl, stats, gauges, ends, hists))?;
        self.threads.lock().push(handle);
        Ok(())
    }

    /// Address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &NioStats {
        &self.stats
    }

    /// Shared handle to the live counters, for reading after `shutdown` /
    /// `shutdown_graceful` consume the server.
    pub fn stats_arc(&self) -> Arc<NioStats> {
        Arc::clone(&self.stats)
    }

    /// Lock-free gauge registry (open connections, ready-set size,
    /// accept-backlog residence). Hand it to [`obs::spawn_sampler`] to
    /// collect a periodic [`obs::GaugeLog`] while the server runs.
    pub fn gauges(&self) -> Arc<LiveGauges> {
        Arc::clone(&self.gauges)
    }

    /// Typed connection-termination tally (idle/header/write-stall
    /// timeouts, refusals, fd-reserve refusals, parse-limit closes).
    pub fn ends(&self) -> Arc<LiveEnds> {
        Arc::clone(&self.ends)
    }

    /// Per-shard accepted/occupancy gauges. Empty in handoff mode; one cell
    /// per worker-shard (plus one per restart) in sharded mode.
    pub fn shard_gauges(&self) -> Arc<ShardGauges> {
        Arc::clone(&self.shards)
    }

    /// Server-side per-stage latency histograms: parse/service/transfer
    /// burst durations measured inside the workers, merged into this shared
    /// sink as each worker exits. Clone the `Arc` before `shutdown` (which
    /// consumes the handle) to read the completed merge afterwards.
    pub fn stage_hists(&self) -> Arc<Mutex<StageHists>> {
        Arc::clone(&self.hists)
    }

    /// Poke every thread out of its wait so it re-reads the control flags.
    fn wake_all(&self) {
        self.links.wake_all();
        if let Some(w) = &self.acceptor_waker {
            w.wake();
        }
    }

    fn stop_and_join(&self) {
        self.ctl.stop.store(true, Ordering::SeqCst);
        self.wake_all();
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }

    /// Signal all threads to stop and join them. Open connections are cut.
    pub fn shutdown(self) {
        self.stop_and_join();
    }

    /// Graceful drain: stop accepting (the port is released, so new
    /// connections are refused), close idle connections immediately, finish
    /// flushing in-flight responses, and cut whatever is still unflushed at
    /// the deadline. Returns drained vs aborted connection counts.
    pub fn shutdown_graceful(self, deadline: Duration) -> DrainReport {
        *self.ctl.drain_deadline.lock() = Some(Instant::now() + deadline);
        self.ctl.draining.store(true, Ordering::SeqCst);
        self.wake_all();
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
        DrainReport {
            drained: self.ctl.drained.load(Ordering::SeqCst),
            aborted: self.ctl.aborted.load(Ordering::SeqCst),
        }
    }
}

impl Drop for NioServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl NioServer {
    /// Freeze (`true`) or resume (`false`) accepting new connections.
    pub fn stall_accepts(&self, on: bool) {
        self.ctl.accepts_stalled.store(on, Ordering::SeqCst);
        // The acceptor and sharded workers only reconcile listener
        // registration at the top of a loop pass; poke them out of their
        // wait so the stall (and the recovery) takes effect now — the
        // acceptor's wait has no ceiling at all.
        self.wake_all();
    }

    /// Kill one worker thread. Returns false when no worker was left to
    /// kill.
    pub fn crash_worker(&self) -> bool {
        if self.stats.alive_workers.load(Ordering::SeqCst) == 0 {
            return false;
        }
        self.ctl.crash_tokens.fetch_add(1, Ordering::SeqCst);
        self.links.wake_all();
        true
    }

    /// Start one replacement worker thread. Returns false when the thread
    /// could not be spawned.
    pub fn restart_worker(&self) -> bool {
        self.spawn_worker().is_ok()
    }
}

/// Take one pending crash token, if any.
fn take_crash_token(ctl: &NioCtl) -> bool {
    ctl.crash_tokens
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

/// The shared admission decision ([`LifecyclePolicy::admit`]) on a freshly
/// accepted stream, with open connections as the shed pressure. Returns the
/// configured stream (nodelay, non-blocking, sized kernel buffers) when the
/// connection is admitted, `None` when it was refused (counters and
/// lifecycle tally already recorded).
#[allow(clippy::too_many_arguments)]
fn admit_stream(
    stream: TcpStream,
    cfg: &NioConfig,
    fd_limit: u64,
    stats: &NioStats,
    gauges: &LiveGauges,
    ends: &LiveEnds,
    refusal_head: &mut Vec<u8>,
    date: &str,
) -> Option<TcpStream> {
    let open = gauges.get(GaugeKind::OpenConns);
    let shed_hit = cfg.shed_watermark.is_some_and(|w| open >= w);
    let admission = cfg
        .lifecycle
        .admit(stream.as_raw_fd() as u64, fd_limit, open, shed_hit);
    if admission != Admission::Admit {
        stats.refused.fetch_add(1, Ordering::Relaxed);
        ends.record(if admission == Admission::FdReserve {
            EndCause::FdReserve
        } else {
            EndCause::Refused
        });
        admission.refuse(&stream, refusal_head, date);
        return None;
    }
    stats.accepted.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_nonblocking(true);
    // Kernel socket buffers from the policy: the send side defaults to
    // reply-sized (a whole response in one vectored write); both can be
    // trimmed to shrink kernel-side per-connection memory on frontier
    // ramps, or left `None` for the kernel's own sizing.
    if let Some(b) = cfg.lifecycle.send_buffer {
        let _ = set_sndbuf(&stream, b as i32);
    }
    if let Some(b) = cfg.lifecycle.recv_buffer {
        let _ = set_rcvbuf(&stream, b as i32);
    }
    Some(stream)
}

/// The single acceptor thread: accept and distribute, nothing else — the
/// reason connection-establishment time stays flat in figure 4. The hot
/// path routes over a private snapshot of the worker links; the shared list
/// is only re-read when its epoch moves (spawn/crash), so a steady-state
/// accept touches no lock at all.
///
/// Between bursts the thread blocks in `selector`, its own epoll wait on the
/// listener and `waker` — the `accept(2)`-blocking acceptor of the paper's
/// server, with a wake-up path. `stop`, `shutdown_graceful` and `stall_accepts`
/// poke `waker`; nothing else wakes the thread. During a stall or an fd
/// backoff the listener is deregistered (a level-triggered wait would spin
/// on its pending connections), so the thread waits on the waker alone, or
/// until the backoff ends.
#[allow(clippy::too_many_arguments)]
fn acceptor_loop(
    cfg: NioConfig,
    listener: TcpListener,
    mut selector: EpollSelector,
    waker: Arc<Waker>,
    links: Arc<Links>,
    ctl: Arc<NioCtl>,
    stats: Arc<NioStats>,
    gauges: Arc<LiveGauges>,
    ends: Arc<LiveEnds>,
) {
    const LISTENER: Token = Token(1);
    let mut events = Vec::new();
    let mut listening = false;
    let mut router = Router::new(links);
    let fd_limit = nofile_limits().0;
    let mut backoff = AcceptBackoff::default();
    let mut resume_at: Option<Instant> = None;
    // Refusal plumbing: one reused head buffer and a date cache, so a
    // storm of 503 refusals at the admission cap allocates nothing.
    let mut refusal_head: Vec<u8> = Vec::new();
    let mut dates = DateCache::new(Instant::now());
    while !ctl.stop.load(Ordering::Relaxed) && !ctl.draining.load(Ordering::Relaxed) {
        let date = dates.get(Instant::now());
        if resume_at.is_some_and(|t| Instant::now() >= t) {
            resume_at = None;
        }
        // Accept stall (`stall_accepts`): the accept path freezes, and SYNs
        // queue in the kernel backlog exactly as during a GC pause.
        let want = !ctl.accepts_stalled.load(Ordering::Relaxed) && resume_at.is_none();
        if want != listening {
            let fd = listener.as_raw_fd();
            let _ = if want {
                selector.register(fd, LISTENER, Interest::READABLE)
            } else {
                selector.deregister(fd)
            };
            listening = want;
        }
        if listening {
            match listener.accept() {
                Ok((stream, _)) => {
                    backoff.reset();
                    if let Some(stream) = admit_stream(
                        stream,
                        &cfg,
                        fd_limit,
                        &stats,
                        &gauges,
                        &ends,
                        &mut refusal_head,
                        date,
                    ) {
                        router.route(stream, &gauges);
                    }
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => {
                    stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    let retry = backoff.on_error(&e);
                    if retry.fd_exhausted {
                        ends.record(EndCause::FdReserve);
                    }
                    if let Some(pause) = retry.pause {
                        resume_at = Some(Instant::now() + pause);
                    }
                    continue;
                }
            }
        }
        // Nothing to accept, or not accepting: block until the listener or
        // the waker fires, or the backoff ends.
        events.clear();
        let timeout = resume_at.map(|t| t.saturating_duration_since(Instant::now()));
        let _ = selector.select(&mut events, timeout);
        if events.iter().any(|e| e.token == WAKER_TOKEN) {
            waker.drain();
        }
    }
    // The listener drops here: during a drain, new connection attempts are
    // refused by the kernel from this point on.
}

/// The acceptor's round-robin over a private snapshot of the worker links,
/// re-read only when the shared list's epoch moves.
struct Router {
    links: Arc<Links>,
    seen_epoch: u64,
    snapshot: Arc<Vec<WorkerLink>>,
    next: usize,
}

impl Router {
    fn new(links: Arc<Links>) -> Router {
        let (seen_epoch, snapshot) = links.snapshot();
        Router {
            links,
            seen_epoch,
            snapshot,
            next: 0,
        }
    }

    /// Hand an admitted stream to the next worker. A closed channel means
    /// that worker crashed: delete the dead link from the shared list,
    /// re-snapshot, and re-route to the survivors instead of taking the
    /// whole accept path down.
    fn route(&mut self, stream: TcpStream, gauges: &LiveGauges) {
        if self.seen_epoch != self.links.epoch.load(Ordering::Acquire) {
            (self.seen_epoch, self.snapshot) = self.links.snapshot();
        }
        gauges.add(GaugeKind::AcceptBacklog, 1);
        let mut stream = Some(stream);
        loop {
            if self.snapshot.is_empty() {
                // No workers left at all; the connection is lost.
                gauges.sub(GaugeKind::AcceptBacklog, 1);
                return;
            }
            let link = &self.snapshot[self.next % self.snapshot.len()];
            match link.tx.send(stream.take().expect("stream consumed")) {
                Ok(()) => {
                    link.waker.wake();
                    self.next += 1;
                    return;
                }
                Err(e) => {
                    stream = Some(e.0);
                    self.links.remove(link.id);
                    (self.seen_epoch, self.snapshot) = self.links.snapshot();
                }
            }
        }
    }
}

/// Per-connection worker-side state.
struct Conn {
    stream: TcpStream,
    /// The protocol state. Once it is closed (the peer's FIN, a request
    /// that does not keep the connection alive, or a reject) nothing more
    /// is read, and the connection closes when its owed replies drain.
    session: Session,
    /// Staged output: (head, arena-slice) response segments, flushed
    /// zero-copy via `write_vectored`.
    out: ReplyQueue,
    /// Interest currently registered with the selector — cached so the hot
    /// path only pays a `reregister` syscall on an actual change.
    registered: Interest,
    /// Last observed progress (read bytes or write drain), ns since the
    /// worker epoch. The idle deadline slides from here.
    last_activity_ns: u64,
    /// Last observed *write* progress (or output first becoming pending),
    /// ns since the worker epoch. The write-stall deadline slides from
    /// here, never from reads — a peer that keeps pipelining requests
    /// while refusing to drain replies must not refresh it.
    last_write_progress_ns: u64,
    /// Total bytes ever flushed to this socket; compared across a wakeup
    /// to detect write progress for the write-stall clock.
    bytes_flushed: u64,
    /// When the first byte of the current request head arrived (0 = no
    /// partial head pending). The header deadline is absolute from here —
    /// a slow-loris dribble must NOT slide it.
    head_start_ns: u64,
    /// Earliest wheel entry armed for this connection (`u64::MAX` = none).
    /// Wheel entries are never cancelled while the connection lives (only
    /// compaction drops them, after it closes); a popped entry re-checks
    /// the connection's real deadline and re-arms or expires accordingly.
    armed_until: u64,
}

impl Conn {
    fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    fn interest(&self) -> Interest {
        if self.session.is_closed() {
            // Nothing left to read — the connection only lives to drain
            // its owed replies.
            Interest::WRITABLE
        } else if self.wants_write() {
            Interest::BOTH
        } else {
            Interest::READABLE
        }
    }

    /// Nothing owed and nothing half-received: safe to drain-close cleanly.
    fn drain_idle(&self) -> bool {
        !self.wants_write() && self.session.buffered() == 0
    }

    /// The connection's current lifecycle deadline under `policy`, given
    /// its state: write-stall while output is pending, header deadline
    /// while a partial head is buffered, idle otherwise. `None` when the
    /// applicable policy knob is off.
    fn next_due(&self, policy: &LifecyclePolicy) -> Option<(u64, EndCause)> {
        let ns = |d: Duration| d.as_nanos() as u64;
        if self.wants_write() {
            policy
                .write_stall_timeout
                .map(|d| (self.last_write_progress_ns + ns(d), EndCause::WriteStall))
        } else if self.session.buffered() > 0 {
            policy
                .header_timeout
                .map(|d| (self.head_start_ns + ns(d), EndCause::HeaderTimeout))
        } else {
            policy
                .idle_timeout
                .map(|d| (self.last_activity_ns + ns(d), EndCause::IdleTimeout))
        }
    }
}

/// Arm (or tighten) the wheel entry for `token` to the connection's current
/// deadline. Entries are lazy: an in-flight entry that fires early simply
/// re-checks and re-arms, so only a *tighter* deadline needs a new entry.
fn rearm_deadline(
    wheel: &mut DeadlineWheel<usize>,
    conn: &mut Conn,
    token: usize,
    policy: &LifecyclePolicy,
) {
    if let Some((due, _)) = conn.next_due(policy) {
        if due < conn.armed_until {
            wheel.schedule(due, token);
            conn.armed_until = due;
        }
    }
}

/// Stale deadline-wheel entries a worker tolerates beyond twice its live
/// ones before compacting (24 B each).
const WHEEL_SLACK: usize = 1024;

/// Token 0 is reserved for the waker. A connection token is its packed slab
/// handle (`Handle::raw`), whose low 32 bits are a sequence that starts at 1
/// and skips 0 — a connection token can never collide with the waker's.
const WAKER_TOKEN: Token = Token(0);

/// Sharded mode: listener tokens live in the top half of the token space.
/// Connection tokens are packed slab handles — slot index in the high bits,
/// capped at `connslab::MAX_SLOTS = 2^30` slots — so every connection token
/// is below 2^62 and the two ranges can never meet. `LISTENER_TOKEN_BASE +
/// i` is the worker's `listeners[i]`.
const LISTENER_TOKEN_BASE: usize = usize::MAX / 2;

/// A worker's accept shard: its `SO_REUSEPORT` listeners (one at birth,
/// more after adopting a crashed peer's), its per-shard gauge cell, and the
/// listener-registration state machine (deregistered during accept stalls
/// and EMFILE backoff so a level-triggered selector doesn't busy-spin on a
/// listener we refuse to accept from).
struct ShardState {
    listeners: Vec<TcpListener>,
    cell: Arc<ShardCell>,
    /// Listener fds currently registered with the selector.
    registered: bool,
    /// Accept-error pause: listeners stay deregistered until this instant
    /// (under EMFILE/ENFILE, so teardowns elsewhere can free fds).
    resume_at: Option<Instant>,
    backoff: AcceptBackoff,
    /// Local copy of `NioCtl::orphan_epoch`; a mismatch means a crashed
    /// peer surrendered listeners for adoption.
    seen_orphan_epoch: u64,
    fd_limit: u64,
}

/// Register an admitted stream with the selector and install its `Conn`
/// state (shared by the handoff channel-adopt path and the sharded direct
/// accept). The connection's selector token is its packed slab handle, so
/// event dispatch is an O(1) indexed load with a generation check — a stale
/// event for a closed-and-reused slot misses instead of aliasing the new
/// occupant. Returns `None` when selector registration failed (the slot is
/// reclaimed and the stream drops, closing the socket).
#[allow(clippy::too_many_arguments)]
fn install_conn(
    stream: TcpStream,
    selector: &mut dyn Selector,
    conns: &mut Slab<Conn>,
    gauges: &LiveGauges,
    deadlines_on: bool,
    epoch: Instant,
    wheel: &mut DeadlineWheel<usize>,
    policy: &LifecyclePolicy,
) -> Option<Handle> {
    let fd = stream.as_raw_fd();
    let handle = conns.insert(Conn {
        stream,
        session: Session::new(),
        out: ReplyQueue::new(),
        registered: Interest::READABLE,
        last_activity_ns: 0,
        last_write_progress_ns: 0,
        bytes_flushed: 0,
        head_start_ns: 0,
        armed_until: u64::MAX,
    });
    if selector
        .register(fd, Token(handle.raw() as usize), Interest::READABLE)
        .is_err()
    {
        conns.remove(handle);
        return None;
    }
    gauges.add(GaugeKind::OpenConns, 1);
    gauges.add(GaugeKind::RegisteredConns, 1);
    if deadlines_on {
        let conn = conns.get_mut(handle).expect("just inserted");
        conn.last_activity_ns = epoch.elapsed().as_nanos() as u64;
        rearm_deadline(wheel, conn, handle.raw() as usize, policy);
    }
    Some(handle)
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    cfg: NioConfig,
    seat: WorkerSeat,
    links: Arc<Links>,
    ctl: Arc<NioCtl>,
    stats: Arc<NioStats>,
    gauges: Arc<LiveGauges>,
    ends: Arc<LiveEnds>,
    hists: Arc<Mutex<StageHists>>,
) {
    let WorkerSeat {
        rx,
        waker,
        listener,
        cell,
    } = seat;
    stats.alive_workers.fetch_add(1, Ordering::SeqCst);
    // One level-triggered selector per worker; the worker does its own
    // non-blocking I/O on every reported event.
    let mut selector = cfg.backend.selector().expect("create selector");
    selector
        .register(waker.read_fd(), WAKER_TOKEN, Interest::READABLE)
        .expect("register waker");
    // Sharded mode: this worker is a shard. Its listener starts
    // deregistered; the reconcile step below registers it on the first loop
    // pass (and handles stall/backoff/drain transitions thereafter).
    let mut shard: Option<ShardState> = listener.map(|l| ShardState {
        listeners: vec![l],
        cell: cell.expect("sharded worker has a gauge cell"),
        registered: false,
        resume_at: None,
        backoff: AcceptBackoff::default(),
        seen_orphan_epoch: 0,
        fd_limit: nofile_limits().0,
    });
    // Connection states live in a generation-tagged slab indexed by the low
    // bits of the selector token: dispatch is a bounds-checked array load,
    // and per-connection storage is dense — no hash table, no rehash spikes
    // at a million entries.
    let mut conns: Slab<Conn> = Slab::new();
    let mut events: Vec<Event> = Vec::new();
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut last_ready = 0usize;
    // Per-worker buffer pools: response heads and parser scratch recycle
    // through these instead of sitting as per-connection spares — at a
    // million mostly-idle connections the spares, not the live traffic,
    // would dominate RSS.
    let mut head_pool = HeadPool::new();
    let mut req_pool = RequestPool::new();
    // Refusal scratch for the sharded accept path (see `acceptor_loop`).
    let mut refusal_head: Vec<u8> = Vec::new();
    // Cached copy of the drain deadline (fixed once draining starts), and
    // whether this worker has already paid its drain-start full sweep.
    // `drain_pending` holds the handles that survived that sweep (plus any
    // connection installed mid-drain): the deadline cut walks only this
    // list — O(in-flight at drain start), not O(open) — and a handle whose
    // connection already closed is stale by generation, skipped for free.
    let mut drain_deadline: Option<Instant> = None;
    let mut drain_swept = false;
    let mut drain_pending: Vec<Handle> = Vec::new();
    // Per-worker stage histograms: recorded locally (nothing shared on the
    // hot path), merged into the server-wide sink when the worker exits.
    let mut local_hists = StageHists::new();
    // Per-worker deadline wheel, keyed by connection token (tokens are
    // never reused, so a popped entry whose connection is gone is simply
    // stale — no cancellation bookkeeping on the hot path). When the policy
    // arms no deadline at all, the wheel is never touched: the paper
    // configuration pays nothing. `wheel_live` is the entry count the last
    // compaction left (see the harvest below).
    let epoch = Instant::now();
    let mut dates = DateCache::new(epoch);
    let deadlines_on = cfg.lifecycle.idle_timeout.is_some()
        || cfg.lifecycle.header_timeout.is_some()
        || cfg.lifecycle.write_stall_timeout.is_some();
    let mut wheel: DeadlineWheel<usize> = DeadlineWheel::new();
    let mut wheel_live = 0usize;

    while !ctl.stop.load(Ordering::Relaxed) {
        if take_crash_token(&ctl) {
            // Crash: this worker dies now. Its connections are dropped on
            // the floor (streams close on drop); only the gauge bookkeeping
            // is repaired so the survivors' view stays consistent. A shard
            // additionally surrenders its listener fds for adoption — the
            // kernel keeps their accept queues intact, so connections it
            // already completed against this shard are served by the
            // adopter, not reset.
            stats.worker_crashes.fetch_add(1, Ordering::SeqCst);
            let n = conns.len() as u64;
            gauges.sub(GaugeKind::OpenConns, n);
            gauges.sub(GaugeKind::RegisteredConns, n);
            gauges.sub(GaugeKind::ReadySetSize, last_ready as u64);
            if let Some(shard) = shard.take() {
                shard.cell.close_many(n);
                if !shard.listeners.is_empty() {
                    ctl.orphan_listeners.lock().extend(shard.listeners);
                    ctl.orphan_epoch.fetch_add(1, Ordering::Release);
                    links.wake_all();
                }
            }
            stats.alive_workers.fetch_sub(1, Ordering::SeqCst);
            hists.lock().merge(&local_hists);
            return;
        }
        // Adopt freshly accepted connections (handoff mode; a shard's rx
        // never receives anything). A stream that was already in the channel
        // when the drain-start sweep ran would otherwise dodge the deadline
        // cut — joining `drain_pending` keeps it cuttable.
        while let Ok(stream) = rx.try_recv() {
            gauges.sub(GaugeKind::AcceptBacklog, 1);
            if let Some(h) = install_conn(
                stream,
                selector.as_mut(),
                &mut conns,
                &gauges,
                deadlines_on,
                epoch,
                &mut wheel,
                &cfg.lifecycle,
            ) {
                if drain_swept {
                    drain_pending.push(h);
                }
            }
        }
        // Shard housekeeping: adopt orphaned listeners from crashed peers,
        // then reconcile listener registration with the stall/drain/backoff
        // state (deregistering instead of ignoring readiness — a
        // level-triggered selector would otherwise spin on a ready listener
        // we refuse to accept from).
        if let Some(s) = shard.as_mut() {
            let drain_now = ctl.draining.load(Ordering::Relaxed);
            let oe = ctl.orphan_epoch.load(Ordering::Acquire);
            if oe != s.seen_orphan_epoch {
                s.seen_orphan_epoch = oe;
                if !drain_now {
                    let mut orphans = ctl.orphan_listeners.lock();
                    for l in orphans.drain(..) {
                        if s.registered {
                            let tok = Token(LISTENER_TOKEN_BASE + s.listeners.len());
                            let _ = selector.register(l.as_raw_fd(), tok, Interest::READABLE);
                        }
                        s.listeners.push(l);
                    }
                }
            }
            if drain_now && !s.listeners.is_empty() {
                // Drain: drop the listeners so the kernel refuses new
                // connections from here on (the handoff analogue is the
                // acceptor thread exiting and dropping the listen socket).
                for l in &s.listeners {
                    let _ = selector.deregister(l.as_raw_fd());
                }
                s.listeners.clear();
                s.registered = false;
            }
            let stalled = ctl.accepts_stalled.load(Ordering::Relaxed);
            let backing_off = s.resume_at.is_some_and(|t| Instant::now() < t);
            let want = !stalled && !backing_off && !s.listeners.is_empty();
            if want != s.registered {
                for (i, l) in s.listeners.iter().enumerate() {
                    if want {
                        let tok = Token(LISTENER_TOKEN_BASE + i);
                        let _ = selector.register(l.as_raw_fd(), tok, Interest::READABLE);
                    } else {
                        let _ = selector.deregister(l.as_raw_fd());
                    }
                }
                s.registered = want;
                if want {
                    s.resume_at = None;
                }
            }
        }

        events.clear();
        // The waker interrupts this wait the moment a connection is handed
        // over; the 100 ms ceiling only bounds shutdown latency.
        let _ = selector.select(&mut events, Some(Duration::from_millis(100)));
        // Publish this worker's ready-set size; add-then-sub keeps the
        // shared (multi-worker) total from transiently saturating at zero.
        let ready = events.iter().filter(|e| e.token != WAKER_TOKEN).count();
        gauges.add(GaugeKind::ReadySetSize, ready as u64);
        gauges.sub(GaugeKind::ReadySetSize, last_ready as u64);
        last_ready = ready;
        let draining = ctl.draining.load(Ordering::Relaxed);
        // One clock read per wakeup serves the reply dates and every
        // deadline decision below.
        let now = Instant::now();
        let date = dates.get(now);
        let now_ns = now.duration_since(epoch).as_nanos() as u64;
        // Drain the event buffer in place: the `Vec` keeps its capacity
        // across iterations instead of being discarded and regrown from
        // zero every loop.
        for ev in events.drain(..) {
            let ev_token = ev.token;
            if ev_token == WAKER_TOKEN {
                waker.drain();
                continue;
            }
            if ev_token.0 >= LISTENER_TOKEN_BASE {
                // A ready shard listener: accept until the burst is drained.
                // This is the whole point of sharded mode — the connection
                // goes from `accept(2)` to this worker's selector without a
                // channel, a lock, or a cross-thread wake.
                let Some(s) = shard.as_mut() else { continue };
                let li = ev_token.0 - LISTENER_TOKEN_BASE;
                if li >= s.listeners.len() || !s.registered {
                    continue; // stale event from a drained/backed-off listener
                }
                loop {
                    match s.listeners[li].accept() {
                        Ok((stream, _)) => {
                            s.backoff.reset();
                            let Some(stream) = admit_stream(
                                stream,
                                &cfg,
                                s.fd_limit,
                                &stats,
                                &gauges,
                                &ends,
                                &mut refusal_head,
                                date,
                            ) else {
                                continue;
                            };
                            if let Some(h) = install_conn(
                                stream,
                                selector.as_mut(),
                                &mut conns,
                                &gauges,
                                deadlines_on,
                                epoch,
                                &mut wheel,
                                &cfg.lifecycle,
                            ) {
                                s.cell.on_accept();
                                if drain_swept {
                                    drain_pending.push(h);
                                }
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) => {
                            stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                            let retry = s.backoff.on_error(&e);
                            if retry.fd_exhausted {
                                ends.record(EndCause::FdReserve);
                            }
                            let Some(pause) = retry.pause else { continue };
                            // Pause: deregister the shard's listeners — the
                            // selector keeps serving established connections
                            // (whose teardowns free fds) instead of spinning
                            // on accept.
                            for l in &s.listeners {
                                let _ = selector.deregister(l.as_raw_fd());
                            }
                            s.registered = false;
                            s.resume_at = Some(Instant::now() + pause);
                            break;
                        }
                    }
                }
                continue;
            }
            // The token *is* the packed slab handle: a generation-checked
            // indexed load resolves the connection, and an event raced
            // against a close (even one whose slot was already reused) is a
            // clean miss, never an aliased lookup.
            let handle = Handle::from_raw(ev_token.0 as u64);
            let Some(conn) = conns.get_mut(handle) else {
                continue;
            };
            let flushed_before = conn.bytes_flushed;
            let had_output = conn.wants_write();
            // An error/hang-up event with nothing readable is fatal — except
            // once the session is closed (after a FIN, EPOLLRDHUP is
            // permanently asserted): the connection must stay alive exactly
            // as long as it still owes output.
            let mut dead = ev.error && !ev.readable && !(conn.session.is_closed() && ev.writable);
            if ev.readable && !dead {
                dead = handle_readable(
                    conn,
                    &cfg,
                    &stats,
                    &ends,
                    &mut read_buf,
                    date,
                    &mut local_hists,
                    &mut head_pool,
                    &mut req_pool,
                );
            }
            if ev.writable && !dead {
                // Writability means queued output: this flush burst is
                // transfer time by definition.
                let t0 = Instant::now();
                dead = flush_output(conn, &stats, &mut head_pool);
                local_hists.record(Stage::Transfer, t0.elapsed().as_nanos() as u64);
            }
            if !dead && !conn.wants_write() && conn.session.is_closed() {
                dead = true;
            }
            // Draining: a connection that just went drain-idle closes here
            // in the event path, so the full sweep below stays bounded
            // instead of re-scanning every open connection each pass.
            if !dead && draining && conn.drain_idle() {
                dead = true;
            }
            if !dead && deadlines_on {
                // Readiness on this connection is progress: slide the
                // activity clock, start/clear the header clock (absolute
                // from the first byte of a partial head — a dribble must
                // not refresh it), and tighten the armed deadline. The
                // write-stall clock slides only on actual write progress
                // (or output first becoming pending) — read activity from
                // a never-draining peer must not reset it.
                conn.last_activity_ns = now_ns;
                if conn.bytes_flushed != flushed_before || (!had_output && conn.wants_write()) {
                    conn.last_write_progress_ns = now_ns;
                }
                if conn.session.buffered() > 0 {
                    if conn.head_start_ns == 0 {
                        conn.head_start_ns = now_ns;
                    }
                } else {
                    conn.head_start_ns = 0;
                }
                rearm_deadline(&mut wheel, conn, ev_token.0, &cfg.lifecycle);
            }
            if dead {
                if draining {
                    if conn.wants_write() {
                        ctl.aborted.fetch_add(1, Ordering::SeqCst);
                    } else {
                        ctl.drained.fetch_add(1, Ordering::SeqCst);
                    }
                }
                let fd = conn.stream.as_raw_fd();
                let _ = selector.deregister(fd);
                conns.remove(handle);
                gauges.sub(GaugeKind::OpenConns, 1);
                gauges.sub(GaugeKind::RegisteredConns, 1);
                if let Some(s) = shard.as_ref() {
                    s.cell.on_close();
                }
            } else {
                // Only an actual interest change costs a syscall; the
                // steady read-only request/reply cadence pays none.
                let want = conn.interest();
                if want != conn.registered {
                    let fd = conn.stream.as_raw_fd();
                    if selector.reregister(fd, ev_token, want).is_ok() {
                        conn.registered = want;
                    }
                }
            }
        }

        // Deadline harvest: pop every expired wheel entry and re-check it
        // against the connection's *current* deadline — entries are lazy, so
        // a pop is a hypothesis, not a verdict. A still-live connection
        // re-arms; a genuinely expired one is torn down by cause.
        if deadlines_on {
            while let Some((_, token)) = wheel.pop_due(now_ns) {
                let handle = Handle::from_raw(token as u64);
                let expired = match conns.get_mut(handle) {
                    // Handle stale: the connection closed normally after
                    // this entry was armed (the generation tag also rules
                    // out a reused slot). Skip.
                    None => None,
                    Some(conn) => {
                        conn.armed_until = u64::MAX;
                        match conn.next_due(&cfg.lifecycle) {
                            None => None,
                            Some((due, _)) if due > now_ns => {
                                wheel.schedule(due, token);
                                conn.armed_until = due;
                                None
                            }
                            Some((_, cause)) => Some(cause),
                        }
                    }
                };
                let Some(cause) = expired else {
                    continue;
                };
                let mut conn = conns.remove(handle).expect("present above");
                ends.record(cause);
                match cause {
                    EndCause::HeaderTimeout => {
                        // Answer the half-sent request before closing: the
                        // head is tiny, one non-blocking shot delivers it
                        // unless the attacker also jammed the send buffer.
                        respond_status(&mut conn, Status::RequestTimeout, date, &mut head_pool);
                        let _ = flush_output(&mut conn, &stats, &mut head_pool);
                    }
                    _ => {
                        // Idle / write-stall: abortive close — httpd2's
                        // observable behaviour, the Fig-3 reset stream.
                        let _ = set_linger_zero(&conn.stream);
                    }
                }
                if draining {
                    if conn.wants_write() {
                        ctl.aborted.fetch_add(1, Ordering::SeqCst);
                    } else {
                        ctl.drained.fetch_add(1, Ordering::SeqCst);
                    }
                }
                let _ = selector.deregister(conn.stream.as_raw_fd());
                gauges.sub(GaugeKind::OpenConns, 1);
                gauges.sub(GaugeKind::RegisteredConns, 1);
                if let Some(s) = shard.as_ref() {
                    s.cell.on_close();
                }
            }
            // Compaction: a connection that closes leaves its entries armed
            // until they expire, so under churn the wheel would hold
            // (close rate × timeout) stale entries. Once they outnumber the
            // live ones, drop every entry whose connection is gone — wheel
            // memory stays O(open connections), and each O(wheel) pass is
            // paid for by more than `wheel_live + WHEEL_SLACK` entries armed
            // since the last one.
            if wheel.len() > 2 * conns.len().max(wheel_live) + WHEEL_SLACK {
                wheel.retain(|&token| conns.contains(Handle::from_raw(token as u64)));
                wheel_live = wheel.len();
            }
        }

        if draining {
            // Drain sweep: idle connections close now; in-flight ones keep
            // flushing until done or until the deadline cuts them. The
            // deadline is fixed at drain start, so it is read (under the
            // mutex) once and cached; each pass costs one `Instant::now()`
            // and no allocation.
            if drain_deadline.is_none() {
                drain_deadline = *ctl.drain_deadline.lock();
            }
            let now = Instant::now();
            let deadline_hit = drain_deadline.is_some_and(|d| now >= d);
            // The O(open) sweep runs exactly once, when the drain begins:
            // it closes the already-idle population and collects the
            // in-flight survivors into `drain_pending`. From then on,
            // connections that *become* idle close in the event path above,
            // and the deadline cut below walks only the pending list — a
            // worker parked on a million idle connections never re-scans
            // them.
            if !drain_swept {
                drain_swept = true;
                stats.drain_full_sweeps.fetch_add(1, Ordering::Relaxed);
                conns.retain(|h, conn| {
                    if !(conn.drain_idle() || deadline_hit) {
                        drain_pending.push(h);
                        return true;
                    }
                    if conn.wants_write() {
                        ctl.aborted.fetch_add(1, Ordering::SeqCst);
                    } else {
                        ctl.drained.fetch_add(1, Ordering::SeqCst);
                    }
                    let _ = selector.deregister(conn.stream.as_raw_fd());
                    gauges.sub(GaugeKind::OpenConns, 1);
                    gauges.sub(GaugeKind::RegisteredConns, 1);
                    if let Some(s) = &shard {
                        s.cell.on_close();
                    }
                    false
                });
            } else if deadline_hit {
                // Deadline cut: O(pending at drain start). Handles whose
                // connections already finished (closed in the event path)
                // are stale by generation and skip for free.
                for h in drain_pending.drain(..) {
                    let Some(conn) = conns.remove(h) else {
                        continue;
                    };
                    if conn.wants_write() {
                        ctl.aborted.fetch_add(1, Ordering::SeqCst);
                    } else {
                        ctl.drained.fetch_add(1, Ordering::SeqCst);
                    }
                    let _ = selector.deregister(conn.stream.as_raw_fd());
                    gauges.sub(GaugeKind::OpenConns, 1);
                    gauges.sub(GaugeKind::RegisteredConns, 1);
                    if let Some(s) = &shard {
                        s.cell.on_close();
                    }
                }
            }
            if conns.is_empty() {
                break;
            }
        }
    }
    stats.alive_workers.fetch_sub(1, Ordering::SeqCst);
    hists.lock().merge(&local_hists);
}

/// Drain the socket and serve every complete request. Returns true when
/// the connection must be torn down.
#[allow(clippy::too_many_arguments)]
fn handle_readable(
    conn: &mut Conn,
    cfg: &NioConfig,
    stats: &NioStats,
    ends: &LiveEnds,
    scratch: &mut [u8],
    date: &str,
    hists: &mut StageHists,
    head_pool: &mut HeadPool,
    req_pool: &mut RequestPool,
) -> bool {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                // FIN: the peer half-closed (`shutdown(SHUT_WR)`) or went
                // away entirely. Every complete pipelined request it sent
                // has already been parsed and served by the loop below (the
                // kernel delivers data before the EOF), so the connection's
                // remaining job is to flush what it owes and close cleanly.
                // A dangling partial head dies unanswered — it can never
                // complete, so a 408 would be noise.
                conn.session.close();
                return !conn.wants_write();
            }
            Ok(n) => {
                // Stage clocks: feed+parse is the parse burst (restarted
                // after each served request so pipelined requests each get
                // their own sample), the response build is service.
                let mut p0 = Instant::now();
                conn.session.feed(&scratch[..n]);
                loop {
                    match conn.session.next(req_pool) {
                        Next::Request(req) => {
                            hists.record(Stage::Parse, p0.elapsed().as_nanos() as u64);
                            let s0 = Instant::now();
                            stats.requests.fetch_add(1, Ordering::Relaxed);
                            // The head renders into a buffer recycled through
                            // the worker's pool and the body stages as an
                            // arena handle: a steady-state reply copies and
                            // allocates nothing.
                            let mut head = head_pool.take();
                            let body = httpcore::route(&req, &cfg.content, date, &mut head);
                            conn.out.push_head(head, head_pool);
                            if let Some(id) = body {
                                conn.out.push_body(cfg.content.body_slice(id));
                            }
                            // Return the request's allocations to the
                            // worker's pool for the next parse on *any*
                            // connection — idle connections hold no scratch.
                            req_pool.give(req);
                            hists.record(Stage::Service, s0.elapsed().as_nanos() as u64);
                            p0 = Instant::now();
                        }
                        Next::Reject { status, limit } => {
                            stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                            if limit {
                                ends.record(EndCause::ParseLimit);
                            }
                            respond_status(conn, status, date, head_pool);
                        }
                        Next::Wait | Next::Closed => break,
                    }
                }
                // Opportunistic write of what we just queued (timed as
                // transfer only when there is output to move).
                let had_output = conn.wants_write();
                let t0 = Instant::now();
                let flush_dead = flush_output(conn, stats, head_pool);
                if had_output {
                    hists.record(Stage::Transfer, t0.elapsed().as_nanos() as u64);
                }
                if flush_dead {
                    return true;
                }
                // A short read means the socket buffer was drained at
                // syscall time — skip the read that would only confirm
                // `WouldBlock`. The selector is level-triggered: bytes that
                // arrive later re-report the fd, so nothing is lost. A
                // closed session reads nothing more at all.
                if n < scratch.len() || conn.session.is_closed() {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
}

fn respond_status(conn: &mut Conn, status: Status, date: &str, pool: &mut HeadPool) {
    let mut head = pool.take();
    httpcore::write_head(&mut head, Version::Http11, status, 0, false, date);
    conn.out.push_head(head, pool);
}

/// Non-blocking vectored flush of the staged output. Returns true when the
/// connection must be torn down (write error).
fn flush_output(conn: &mut Conn, stats: &NioStats, pool: &mut HeadPool) -> bool {
    while !conn.out.is_empty() {
        match conn.out.write_to(&mut conn.stream, pool) {
            Ok(0) => return true,
            Ok(n) => {
                stats.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
                conn.bytes_flushed += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    false
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

    fn start(workers: usize, backend: BackendKind) -> NioServer {
        start_mode(workers, backend, AcceptMode::Handoff)
    }

    fn start_mode(workers: usize, backend: BackendKind, accept: AcceptMode) -> NioServer {
        NioServer::start(NioConfig {
            workers,
            backend,
            accept,
            shed_watermark: None,
            lifecycle: LifecyclePolicy::default(),
            content: test_content(),
        })
        .unwrap()
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
        let content = test_content();
        let server = NioServer::start(NioConfig {
            workers: 1,
            backend: BackendKind::Epoll,
            accept: AcceptMode::Handoff,
            shed_watermark: None,
            lifecycle: LifecyclePolicy::default(),
            content: Arc::clone(&content),
        })
        .unwrap();
        let (status, body) = get(server.addr(), "/f/3");
        assert_eq!(status, 200);
        assert_eq!(body, content.body(workload::FileId(3)));
        assert_eq!(server.stats().requests.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn unknown_path_is_404() {
        let server = start(1, BackendKind::Poll);
        let (status, body) = get(server.addr(), "/nope");
        assert_eq!(status, 404);
        assert!(body.is_empty());
        server.shutdown();
    }

    #[test]
    fn persistent_connection_pipelining() {
        let content = test_content();
        let server = NioServer::start(NioConfig {
            workers: 2,
            backend: BackendKind::Epoll,
            accept: AcceptMode::Handoff,
            shed_watermark: None,
            lifecycle: LifecyclePolicy::default(),
            content: Arc::clone(&content),
        })
        .unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Three pipelined requests on one connection.
        write!(
            s,
            "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\nGET /f/1 HTTP/1.1\r\nHost: t\r\n\r\nGET /f/2 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let mut off = 0;
        for id in 0..3u32 {
            let head = httpcore::parse_response_head(&buf[off..])
                .expect("complete head")
                .expect("valid head");
            assert_eq!(head.status, 200);
            let body = &buf[off + head.head_len..off + head.head_len + head.content_length];
            assert_eq!(body, content.body(workload::FileId(id)), "reply {id}");
            off += head.head_len + head.content_length;
        }
        assert_eq!(off, buf.len(), "no trailing bytes");
        server.shutdown();
    }

    #[test]
    fn half_close_drains_buffered_pipeline_then_closes_cleanly() {
        // `shutdown(SHUT_WR)` after a pipelined burst: every request that
        // was already on the wire must still be served, the replies
        // flushed, and the close must be a clean FIN (read_to_end returns
        // Ok), never an abortive reset.
        let content = test_content();
        let server = NioServer::start(NioConfig {
            workers: 1,
            backend: BackendKind::Epoll,
            accept: AcceptMode::Handoff,
            shed_watermark: None,
            lifecycle: LifecyclePolicy::default(),
            content: Arc::clone(&content),
        })
        .unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Keep-alive requests — without the half-close the server would
        // hold the connection open waiting for more.
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
        // server closes cleanly without inventing a 408.
        let server = start(1, BackendKind::Epoll);
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
        // The SO_RCVBUF/SO_SNDBUF policy knobs shrink kernel-side memory;
        // replies bigger than the trimmed send buffer must still arrive
        // whole (the flush path parks in the WRITABLE set and resumes).
        let content = test_content();
        let server = NioServer::start(NioConfig {
            workers: 1,
            backend: BackendKind::Epoll,
            accept: AcceptMode::Handoff,
            shed_watermark: None,
            lifecycle: LifecyclePolicy::default().with_buffers(4096, 4096),
            content: Arc::clone(&content),
        })
        .unwrap();
        let (status, body) = get(server.addr(), "/f/3");
        assert_eq!(status, 200);
        assert_eq!(body, content.body(workload::FileId(3)));
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let server = start(1, BackendKind::Epoll);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        assert_eq!(head.status, 400);
        assert_eq!(server.stats().parse_errors.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn conditional_get_returns_304() {
        let content = test_content();
        let server = NioServer::start(NioConfig {
            workers: 1,
            backend: BackendKind::Epoll,
            accept: AcceptMode::Handoff,
            shed_watermark: None,
            lifecycle: LifecyclePolicy::default(),
            content: Arc::clone(&content),
        })
        .unwrap();
        let lm = content.last_modified(workload::FileId(2));
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(
            s,
            "GET /f/2 HTTP/1.1\r\nHost: t\r\nIf-Modified-Since: {lm}\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        assert_eq!(head.status, 304);
        assert_eq!(head.content_length, 0);
        assert_eq!(buf.len(), head.head_len, "no body after 304");
        server.shutdown();
    }

    #[test]
    fn stale_if_modified_since_returns_full_body() {
        let content = test_content();
        let server = NioServer::start(NioConfig {
            workers: 1,
            backend: BackendKind::Epoll,
            accept: AcceptMode::Handoff,
            shed_watermark: None,
            lifecycle: LifecyclePolicy::default(),
            content: Arc::clone(&content),
        })
        .unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(
            s,
            "GET /f/2 HTTP/1.1\r\nHost: t\r\nIf-Modified-Since: Thu, 01 Jan 1970 00:00:00 GMT\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(
            head.content_length as u64,
            content.size_of(workload::FileId(2))
        );
        server.shutdown();
    }

    #[test]
    fn many_concurrent_connections_on_one_worker() {
        // The paper's architectural claim in miniature: one worker thread
        // multiplexes many simultaneously connected clients.
        let server = start(1, BackendKind::Epoll);
        let addr = server.addr();
        let handles: Vec<_> = (0..32)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                    write!(
                        s,
                        "GET /f/{} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                        i % 20
                    )
                    .unwrap();
                    let mut buf = Vec::new();
                    s.read_to_end(&mut buf).unwrap();
                    let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
                    assert_eq!(head.status, 200);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.stats().requests.load(Ordering::Relaxed), 32);
        server.shutdown();
    }

    #[test]
    fn acceptor_survives_worker_crash_and_restart() {
        let server = start(2, BackendKind::Epoll);
        let up = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            server.stats().alive_workers.load(Ordering::SeqCst) == 2
        });
        assert!(up, "workers never came up");
        assert!(server.crash_worker());
        let died = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            server.stats().alive_workers.load(Ordering::SeqCst) == 1
        });
        assert!(died, "no worker consumed the crash token");
        // The acceptor re-routes around the dead worker's channel: every
        // request still gets served.
        for i in 0..8 {
            let (status, _) = get(server.addr(), &format!("/f/{}", i % 20));
            assert_eq!(status, 200, "request {i} after crash");
        }
        assert!(server.restart_worker());
        let back = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            server.stats().alive_workers.load(Ordering::SeqCst) == 2
        });
        assert!(back, "restarted worker never came up");
        let (status, _) = get(server.addr(), "/f/1");
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn stall_accepts_blocks_then_recovers() {
        let server = start(1, BackendKind::Epoll);
        server.stall_accepts(true);
        let addr = server.addr();
        let t = std::thread::spawn(move || get(addr, "/f/0"));
        std::thread::sleep(Duration::from_millis(300));
        assert!(!t.is_finished(), "request served during an accept stall");
        server.stall_accepts(false);
        let (status, _) = t.join().unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn graceful_drain_closes_idle_and_reports() {
        let server = start(1, BackendKind::Epoll);
        // An idle keep-alive connection: one request, then silence.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut tmp = [0u8; 65536];
        let n = s.read(&mut tmp).unwrap();
        assert!(n > 0);
        let t0 = Instant::now();
        let report = server.shutdown_graceful(Duration::from_secs(2));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "idle drain should not wait for the deadline: {:?}",
            t0.elapsed()
        );
        assert_eq!(report.drained, 1, "{report:?}");
        assert_eq!(report.aborted, 0, "{report:?}");
        // The connection is now closed at our end.
        let closed = matches!(s.read(&mut tmp), Ok(0) | Err(_));
        assert!(closed, "drained connection still open");
    }

    fn start_with_lifecycle(lifecycle: LifecyclePolicy) -> NioServer {
        NioServer::start(NioConfig {
            workers: 1,
            backend: BackendKind::Epoll,
            accept: AcceptMode::Handoff,
            shed_watermark: None,
            lifecycle,
            content: test_content(),
        })
        .unwrap()
    }

    #[test]
    fn oversize_request_line_gets_431_not_400() {
        let server = start(1, BackendKind::Epoll);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Request line longer than the default 8192-byte per-line limit.
        let long = format!("GET /{} HTTP/1.1\r\nHost: t\r\n\r\n", "a".repeat(9000));
        s.write_all(long.as_bytes()).unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        assert_eq!(head.status, 431, "parser limit must answer 431");
        assert!(!head.keep_alive, "431 closes the connection");
        assert_eq!(
            server.ends().get(obs::EndCause::ParseLimit),
            1,
            "parse-limit close must be tallied"
        );
        server.shutdown();
    }

    #[test]
    fn idle_timeout_resets_like_httpd2() {
        // The Fig-3 knob: the same binary that never resets by default
        // produces httpd2's reset stream once the idle timeout is armed.
        let server = start_with_lifecycle(LifecyclePolicy {
            idle_timeout: Some(Duration::from_millis(300)),
            ..LifecyclePolicy::default()
        });
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut tmp = [0u8; 65536];
        let n = s.read(&mut tmp).unwrap();
        assert!(n > 0, "first request must be served");
        // Think silently past the timeout; the server reclaims the
        // connection abortively.
        std::thread::sleep(Duration::from_millis(900));
        let dead = matches!(s.read(&mut tmp), Ok(0) | Err(_));
        assert!(dead, "idle connection must be reclaimed");
        assert_eq!(server.ends().get(obs::EndCause::IdleTimeout), 1);
        server.shutdown();
    }

    #[test]
    fn slow_header_gets_408() {
        let server = start_with_lifecycle(LifecyclePolicy {
            header_timeout: Some(Duration::from_millis(300)),
            ..LifecyclePolicy::default()
        });
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // A slow-loris opening: start a request head, then stall forever.
        s.write_all(b"GET /f/0 HT").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        assert_eq!(head.status, 408, "stalled header must be answered");
        assert_eq!(server.ends().get(obs::EndCause::HeaderTimeout), 1);
        server.shutdown();
    }

    #[test]
    fn header_dribble_does_not_slide_the_deadline() {
        // Anti-slow-loris: the header deadline is absolute from the first
        // byte, so dribbling one byte per 100 ms cannot hold it open.
        let server = start_with_lifecycle(LifecyclePolicy {
            header_timeout: Some(Duration::from_millis(400)),
            ..LifecyclePolicy::default()
        });
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let t0 = Instant::now();
        let mut buf = Vec::new();
        for b in b"GET /f/0 HTTP/1.1\r\nHost:" {
            if s.write_all(&[*b]).is_err() {
                break; // server already cut us off mid-dribble
            }
            std::thread::sleep(Duration::from_millis(100));
            if t0.elapsed() > Duration::from_secs(3) {
                break;
            }
        }
        let _ = s.read_to_end(&mut buf);
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "dribbled head must not survive past the absolute deadline"
        );
        assert_eq!(server.ends().get(obs::EndCause::HeaderTimeout), 1);
        server.shutdown();
    }

    #[test]
    fn connection_cap_answers_503_and_close() {
        let server = start_with_lifecycle(LifecyclePolicy {
            max_conns: Some(0),
            ..LifecyclePolicy::default()
        });
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        assert_eq!(head.status, 503, "over-cap admission must answer 503");
        assert!(!head.keep_alive, "refusal must close");
        assert_eq!(server.ends().get(obs::EndCause::Refused), 1);
        assert_eq!(server.stats().refused.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn fd_reserve_at_the_soft_limit_resets_every_connection() {
        // A reserve as large as the soft RLIMIT_NOFILE covers every fd:
        // each connection is reset before any reply.
        let server = start_with_lifecycle(LifecyclePolicy {
            fd_reserve: httpcore::sys::nofile_limits().0,
            ..LifecyclePolicy::default()
        });
        for _ in 0..3 {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let err = s.read(&mut [0u8; 64]).expect_err("reset, not a reply");
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        }
        assert_eq!(server.ends().get(obs::EndCause::FdReserve), 3);
        assert_eq!(server.stats().refused.load(Ordering::Relaxed), 3);
        server.shutdown();
    }

    #[test]
    fn sharded_serves_files_end_to_end() {
        let server = start_mode(2, BackendKind::Epoll, AcceptMode::Sharded);
        for i in 0..8 {
            let (status, _) = get(server.addr(), &format!("/f/{}", i % 20));
            assert_eq!(status, 200, "request {i}");
        }
        assert_eq!(server.stats().accepted.load(Ordering::Relaxed), 8);
        assert_eq!(
            server.shard_gauges().total_accepted(),
            8,
            "per-shard gauges must conserve the accepted total"
        );
        server.shutdown();
    }

    #[test]
    fn sharded_pipelining_works() {
        let content = test_content();
        let server = NioServer::start(NioConfig {
            workers: 2,
            backend: BackendKind::Epoll,
            accept: AcceptMode::Sharded,
            shed_watermark: None,
            lifecycle: LifecyclePolicy::default(),
            content: Arc::clone(&content),
        })
        .unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(
            s,
            "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\nGET /f/1 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let mut off = 0;
        for id in 0..2u32 {
            let head = httpcore::parse_response_head(&buf[off..]).unwrap().unwrap();
            assert_eq!(head.status, 200);
            let body = &buf[off + head.head_len..off + head.head_len + head.content_length];
            assert_eq!(body, content.body(workload::FileId(id)), "reply {id}");
            off += head.head_len + head.content_length;
        }
        server.shutdown();
    }

    #[test]
    fn sharded_crash_hands_listener_to_survivor() {
        // The takeover protocol: crashing a shard must not lose its share
        // of the listen port — a survivor adopts the orphaned listener fd,
        // so every subsequent connection is still served no matter which
        // reuseport bucket the kernel hashes it into.
        let server = start_mode(2, BackendKind::Epoll, AcceptMode::Sharded);
        let up = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            server.stats().alive_workers.load(Ordering::SeqCst) == 2
        });
        assert!(up, "workers never came up");
        assert!(server.crash_worker());
        let died = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            server.stats().alive_workers.load(Ordering::SeqCst) == 1
        });
        assert!(died, "no worker consumed the crash token");
        // Give the survivor a moment to adopt the orphaned listener, then
        // hammer the port: with takeover every request is served; without
        // it roughly half would hash into a dead queue and hang.
        std::thread::sleep(Duration::from_millis(100));
        for i in 0..16 {
            let (status, _) = get(server.addr(), &format!("/f/{}", i % 20));
            assert_eq!(status, 200, "request {i} after shard crash");
        }
        assert!(server.restart_worker());
        let back = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            server.stats().alive_workers.load(Ordering::SeqCst) == 2
        });
        assert!(back, "restarted worker never came up");
        for i in 0..8 {
            let (status, _) = get(server.addr(), &format!("/f/{}", i % 20));
            assert_eq!(status, 200, "request {i} after restart");
        }
        server.shutdown();
    }

    #[test]
    fn sharded_stall_blocks_then_recovers() {
        let server = start_mode(2, BackendKind::Epoll, AcceptMode::Sharded);
        server.stall_accepts(true);
        std::thread::sleep(Duration::from_millis(50)); // let shards deregister
        let addr = server.addr();
        let t = std::thread::spawn(move || get(addr, "/f/0"));
        std::thread::sleep(Duration::from_millis(300));
        assert!(!t.is_finished(), "request served during an accept stall");
        server.stall_accepts(false);
        let (status, _) = t.join().unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn sharded_graceful_drain_reports() {
        let server = start_mode(1, BackendKind::Epoll, AcceptMode::Sharded);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut tmp = [0u8; 65536];
        assert!(s.read(&mut tmp).unwrap() > 0);
        let report = server.shutdown_graceful(Duration::from_secs(2));
        assert_eq!(report.drained, 1, "{report:?}");
        assert_eq!(report.aborted, 0, "{report:?}");
    }

    #[test]
    fn shard_balance_1k_storm() {
        // Fixed-workload shard-balance regression: 1024 connections against
        // two shards. The kernel's reuseport hash over distinct source
        // ports spreads them ~binomially, so the max/min accepted ratio
        // stays far below 2.0 (mean 512/shard, σ=16 — a 1.5 bound is >9σ);
        // a broken sharded path (one dead or unregistered listener) shows
        // up as an unbounded ratio or hung connections instead.
        let server = start_mode(2, BackendKind::Epoll, AcceptMode::Sharded);
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..128 {
                        let mut s = TcpStream::connect(addr).unwrap();
                        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                        write!(
                            s,
                            "GET /f/{} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                            (t * 128 + i) % 20
                        )
                        .unwrap();
                        let mut buf = Vec::new();
                        s.read_to_end(&mut buf).unwrap();
                        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
                        assert_eq!(head.status, 200);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let shards = server.shard_gauges();
        let accepted = server.stats().accepted.load(Ordering::Relaxed);
        assert_eq!(accepted, 1024);
        assert_eq!(
            shards.total_accepted(),
            accepted,
            "per-shard accepts must sum to the server total: {:?}",
            shards.snapshot()
        );
        let snapshot = shards.snapshot();
        assert_eq!(snapshot.len(), 2);
        assert!(
            snapshot.iter().all(|s| s.accepted > 0),
            "every shard must take traffic: {snapshot:?}"
        );
        let ratio = shards.balance_ratio();
        assert!(
            ratio <= 1.5,
            "shard imbalance {ratio:.2} exceeds bound: {snapshot:?}"
        );
        // All storm connections closed by now: occupancy must be fully
        // repaid (the storm uses Connection: close and drains each reply).
        let open_ok = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            shards.snapshot().iter().all(|s| s.open == 0)
        });
        assert!(
            open_ok,
            "shard occupancy never drained: {:?}",
            shards.snapshot()
        );
        server.shutdown();
    }

    #[test]
    fn default_lifecycle_never_times_out_thinking_clients() {
        // Paper shape preserved: with the default policy a silent keep-alive
        // connection survives arbitrarily long thinking pauses.
        let server = start(1, BackendKind::Epoll);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut tmp = [0u8; 65536];
        assert!(s.read(&mut tmp).unwrap() > 0);
        std::thread::sleep(Duration::from_millis(700));
        // Still alive: a second request on the same connection succeeds.
        write!(
            s,
            "GET /f/1 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).unwrap();
        let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(server.ends().total(), 0, "no lifecycle teardowns");
        server.shutdown();
    }

    // ---- cross-selector matrix ------------------------------------------
    //
    // The same observable behaviour on both selectors: epoll (O(ready)) and
    // poll(2) (O(registered)). Each test below loops the matrix so a drift
    // between them — say, in how a half-close or an error-only event is
    // reported — fails by name.

    fn matrix_backends() -> [BackendKind; 2] {
        [BackendKind::Epoll, BackendKind::Poll]
    }

    #[test]
    fn every_backend_serves_files_end_to_end() {
        let content = test_content();
        for backend in matrix_backends() {
            for accept in [AcceptMode::Handoff, AcceptMode::Sharded] {
                let server = NioServer::start(NioConfig {
                    workers: 2,
                    backend,
                    accept,
                    shed_watermark: None,
                    lifecycle: LifecyclePolicy::default(),
                    content: Arc::clone(&content),
                })
                .unwrap();
                let (status, body) = get(server.addr(), "/f/3");
                assert_eq!(status, 200, "{backend:?}/{accept:?}");
                assert_eq!(
                    body,
                    content.body(workload::FileId(3)),
                    "{backend:?}/{accept:?}"
                );
                let (status, _) = get(server.addr(), "/nope");
                assert_eq!(status, 404, "{backend:?}/{accept:?}");
                server.shutdown();
            }
        }
    }

    #[test]
    fn every_backend_pipelines_and_half_closes() {
        // Pipelined keep-alive burst followed by SHUT_WR: epoll reports the
        // FIN as EPOLLRDHUP, poll(2) only as a readable EOF — both must
        // drain the owed replies, then FIN cleanly.
        let content = test_content();
        for backend in matrix_backends() {
            let server = start(1, backend);
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(
                b"GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\nGET /f/1 HTTP/1.1\r\nHost: t\r\n\r\n",
            )
            .unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
            let mut buf = Vec::new();
            s.read_to_end(&mut buf).expect("clean close, not a reset");
            let mut off = 0;
            for id in 0..2u32 {
                let head = httpcore::parse_response_head(&buf[off..])
                    .expect("complete head")
                    .expect("valid head");
                assert_eq!(head.status, 200, "{backend:?} reply {id}");
                let body = &buf[off + head.head_len..off + head.head_len + head.content_length];
                assert_eq!(
                    body,
                    content.body(workload::FileId(id)),
                    "{backend:?} reply {id}"
                );
                off += head.head_len + head.content_length;
            }
            assert_eq!(off, buf.len(), "{backend:?}: trailing bytes");
            server.shutdown();
        }
    }

    /// Read exactly one complete response (head + body) from a keep-alive
    /// connection, in as many reads as the fragmentation demands.
    fn read_one_reply(s: &mut TcpStream, ctx: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut tmp = [0u8; 65536];
        loop {
            if let Some(head) = httpcore::parse_response_head(&buf) {
                let head = head.expect("valid head");
                if buf.len() >= head.head_len + head.content_length {
                    return buf;
                }
            }
            let n = s
                .read(&mut tmp)
                .unwrap_or_else(|e| panic!("{ctx}: read mid-reply: {e}"));
            assert!(n > 0, "{ctx}: EOF before a complete reply");
            buf.extend_from_slice(&tmp[..n]);
        }
    }

    fn start_backend_policy(
        backend: BackendKind,
        lifecycle: LifecyclePolicy,
        content: Arc<ContentStore>,
    ) -> NioServer {
        NioServer::start(NioConfig {
            workers: 1,
            backend,
            accept: AcceptMode::Handoff,
            shed_watermark: None,
            lifecycle,
            content,
        })
        .unwrap()
    }

    #[test]
    fn every_backend_enforces_idle_timeout() {
        for backend in matrix_backends() {
            let server = start_backend_policy(
                backend,
                LifecyclePolicy {
                    idle_timeout: Some(Duration::from_millis(300)),
                    ..LifecyclePolicy::default()
                },
                test_content(),
            );
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write!(s, "GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            // Drain the whole reply before going silent: if it arrives
            // fragmented, leftover bytes would make the post-sleep read
            // look like a live connection.
            read_one_reply(&mut s, &format!("{backend:?}"));
            std::thread::sleep(Duration::from_millis(900));
            let mut tmp = [0u8; 65536];
            let dead = matches!(s.read(&mut tmp), Ok(0) | Err(_));
            assert!(dead, "{backend:?}: idle connection must be reclaimed");
            assert_eq!(
                server.ends().get(obs::EndCause::IdleTimeout),
                1,
                "{backend:?}"
            );
            server.shutdown();
        }
    }

    #[test]
    fn every_backend_answers_408_on_slow_header() {
        // The header deadline fires from the wheel, outside any event for
        // the connection; the teardown must still deliver the 408 head
        // through the direct flush path.
        for backend in matrix_backends() {
            let server = start_backend_policy(
                backend,
                LifecyclePolicy {
                    header_timeout: Some(Duration::from_millis(300)),
                    ..LifecyclePolicy::default()
                },
                test_content(),
            );
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(b"GET /f/0 HT").unwrap();
            let mut buf = Vec::new();
            s.read_to_end(&mut buf).unwrap();
            let head = httpcore::parse_response_head(&buf).unwrap().unwrap();
            assert_eq!(head.status, 408, "{backend:?}");
            assert_eq!(
                server.ends().get(obs::EndCause::HeaderTimeout),
                1,
                "{backend:?}"
            );
            server.shutdown();
        }
    }

    /// One file of exactly `min_bytes` — large enough that a trimmed send
    /// buffer cannot swallow the whole reply, so the flush genuinely parks.
    fn big_content(min_bytes: u64) -> Arc<ContentStore> {
        let mut rng = Rng::new(9);
        let fs = FileSet::build(
            &SurgeConfig {
                num_files: 1,
                tail_prob: 0.0,
                min_bytes,
                ..SurgeConfig::default()
            },
            &mut rng,
        );
        Arc::new(ContentStore::from_fileset(&fs))
    }

    #[test]
    fn every_backend_reclaims_stalled_writers() {
        // A client that requests a megabyte and never reads: once the
        // kernel windows fill, no writable event arrives,
        // the stall clock stops sliding, and the wheel reclaims the
        // connection abortively.
        let content = big_content(1 << 20);
        for backend in matrix_backends() {
            let server = start_backend_policy(
                backend,
                LifecyclePolicy {
                    write_stall_timeout: Some(Duration::from_millis(400)),
                    ..LifecyclePolicy::default()
                }
                .with_buffers(16 * 1024, 16 * 1024),
                Arc::clone(&content),
            );
            let mut s = TcpStream::connect(server.addr()).unwrap();
            set_rcvbuf(&s, 8 * 1024).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(b"GET /f/0 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                .unwrap();
            // Never read. The abort must land well before the client's own
            // read timeout; read_to_end then fails (RST) or comes up short.
            let stalled = (0..100).any(|_| {
                std::thread::sleep(Duration::from_millis(50));
                server.ends().get(obs::EndCause::WriteStall) == 1
            });
            assert!(stalled, "{backend:?}: stalled writer never reclaimed");
            let mut buf = Vec::new();
            let short = match s.read_to_end(&mut buf) {
                Err(_) => true,
                Ok(_) => buf.len() < (1 << 20),
            };
            assert!(short, "{backend:?}: full body despite never reading");
            server.shutdown();
        }
    }

    #[test]
    fn every_backend_slides_write_stall_only_on_progress() {
        // The converse: a reader that is slow but steady makes progress on
        // every chunk, so each flush slides the stall clock and a transfer
        // taking several multiples of the timeout still completes. A
        // backend that slides the clock on reads (or on no progress at
        // all) passes the test above but fails this one, and vice versa.
        //
        // Margins matter: the client's per-read gap must stay far under
        // the stall timeout even when a loaded single-CPU host deschedules
        // the client thread for hundreds of milliseconds — a too-tight
        // timeout turns scheduler noise into a legitimate-looking stall
        // and the test flakes. 25 ms cadence vs a 1.2 s timeout gives
        // ~50x headroom while the 320 KB body still takes several
        // timeouts' worth of wall clock to drain.
        let stall = Duration::from_millis(1200);
        let content = big_content(320 * 1024);
        let total = content.size_of(workload::FileId(0)) as usize;
        for backend in matrix_backends() {
            let server = start_backend_policy(
                backend,
                LifecyclePolicy {
                    write_stall_timeout: Some(stall),
                    ..LifecyclePolicy::default()
                }
                .with_buffers(16 * 1024, 16 * 1024),
                Arc::clone(&content),
            );
            let mut s = TcpStream::connect(server.addr()).unwrap();
            set_rcvbuf(&s, 8 * 1024).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            s.write_all(b"GET /f/0 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                .unwrap();
            let t0 = Instant::now();
            let mut got = Vec::new();
            let mut chunk = [0u8; 4 * 1024];
            loop {
                match s.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => {
                        got.extend_from_slice(&chunk[..n]);
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) => panic!(
                        "{backend:?}: reset mid-transfer at {}/{total} after {:?} \
                         (write-stalls tallied: {}): {e}",
                        got.len(),
                        t0.elapsed(),
                        server.ends().get(obs::EndCause::WriteStall)
                    ),
                }
            }
            assert!(
                got.len() >= total,
                "{backend:?}: transfer truncated at {}/{total}",
                got.len()
            );
            assert!(
                t0.elapsed() > stall,
                "{backend:?}: transfer too fast to exercise the slide ({:?})",
                t0.elapsed()
            );
            assert_eq!(
                server.ends().get(obs::EndCause::WriteStall),
                0,
                "{backend:?}: steady progress must never trip the stall clock"
            );
            server.shutdown();
        }
    }
}
