//! The live workloads: a real server started in this process and driven
//! over loopback, under the run protocol of README.md (pin, cold set-up
//! cycles, checked warm-up, back-to-back windows, quiet-decile estimate).

use crate::driver::{median_ns, Driver};
use crate::estimate::{median, quiet_decile, QuietEstimate, Window};
use crate::stream::{content_files, RequestStream, StreamSpec};
use crate::sys::{self, Pinning};
use crate::trace::{phase, Tracer};
use httpcore::{ContentStore, LifecyclePolicy};
use nioserver::{AcceptMode, BackendKind, NioConfig, NioServer};
use obs::{Stage, StageHists};
use poolserver::{PoolConfig, PoolServer};
use std::net::{SocketAddr, SocketAddrV4};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Window length of the timed phase.
pub const WINDOW: Duration = Duration::from_millis(250);

/// Connections the driver keeps busy: at most one per processor of the
/// two-processor reference host.
const CONNS: usize = 2;

/// Which server a workload runs, with the configuration the issue fixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// `NioServer`, one worker, epoll, handoff accept, default lifecycle.
    Nio,
    /// The same, with every lifecycle deadline armed (5 s each).
    NioHardened,
    /// The same as `Nio`, with the accepted sockets' `SO_SNDBUF` at
    /// [`SMALL_SNDBUF`]: replies do not fit and are written piecemeal.
    NioSmallSendBuffer,
    /// `PoolServer`, eight threads, httpd2's lifecycle.
    Pool,
}

/// `SO_SNDBUF` of `nio-large`'s server. The default policy's 512 KiB takes
/// any reply whole — by count: one flush per reply, and one per burst even
/// with eight 229 KiB replies pipelined — so the partial-write cursor and
/// the write-interest re-arm never run. 64 KiB is the smallest power of two
/// that holds a loopback segment; below it TCP waits out delayed ACKs
/// (measured at 16 and 32 KiB: 32 replies/s).
const SMALL_SNDBUF: u32 = 64 << 10;
/// `with_buffers` pins both; requests are a few dozen bytes.
const SERVER_RCVBUF: u32 = 16 << 10;

const NIO_WORKERS: usize = 1;
const POOL_THREADS: usize = 8;

impl ServerKind {
    /// The crate the server comes from: the prefix of its per-layer metrics.
    pub fn family(self) -> &'static str {
        match self {
            ServerKind::Pool => "poolserver",
            _ => "nioserver",
        }
    }

    /// Prefix of the names the server gives its threads, and how many
    /// threads it starts (the nio workers plus their acceptor).
    fn threads(self) -> (&'static str, usize) {
        match self {
            ServerKind::Pool => ("pool-", POOL_THREADS),
            _ => ("nio-", NIO_WORKERS + 1),
        }
    }
}

/// The running server's threads, found by name. A thread names itself as
/// it starts, so right after `start` some are not yet to be seen: wait for
/// all of them, or the CPU account would silently miss the latecomers.
fn server_threads(kind: ServerKind) -> Vec<sys::ServerThread> {
    let (prefix, count) = kind.threads();
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let threads = sys::threads_named(prefix);
        if threads.len() == count {
            return threads;
        }
        assert!(
            Instant::now() < deadline,
            "{} of {count} '{prefix}' threads visible after 2 s",
            threads.len()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A live workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveSpec {
    pub server: ServerKind,
    pub stream: StreamSpec,
}

const SMALL: StreamSpec = StreamSpec {
    min_bytes: 0,
    max_bytes: 1024,
    depth: 1,
    close: false,
};

pub const NIO_SMALL: LiveSpec = LiveSpec {
    server: ServerKind::Nio,
    stream: SMALL,
};
pub const NIO_PIPELINED: LiveSpec = LiveSpec {
    server: ServerKind::Nio,
    stream: StreamSpec { depth: 16, ..SMALL },
};
pub const NIO_LARGE: LiveSpec = LiveSpec {
    server: ServerKind::NioSmallSendBuffer,
    stream: StreamSpec {
        min_bytes: 128 << 10,
        max_bytes: 512 << 10,
        ..SMALL
    },
};
pub const NIO_CHURN: LiveSpec = LiveSpec {
    server: ServerKind::NioHardened,
    stream: StreamSpec {
        close: true,
        ..SMALL
    },
};
pub const POOL_SMALL: LiveSpec = LiveSpec {
    server: ServerKind::Pool,
    stream: SMALL,
};

/// A running server of either architecture.
enum Server {
    Nio(NioServer),
    Pool(PoolServer),
}

impl Server {
    fn start(kind: ServerKind, content: Arc<ContentStore>) -> Server {
        let hardened = Duration::from_secs(5);
        let nio = |lifecycle| {
            let config = NioConfig {
                workers: NIO_WORKERS,
                backend: BackendKind::Epoll,
                accept: AcceptMode::Handoff,
                shed_watermark: None,
                lifecycle,
                content: Arc::clone(&content),
            };
            Server::Nio(NioServer::start(config).expect("start NioServer on loopback"))
        };
        match kind {
            ServerKind::Nio => nio(LifecyclePolicy::default()),
            ServerKind::NioHardened => nio(LifecyclePolicy::hardened(hardened, hardened, hardened)),
            ServerKind::NioSmallSendBuffer => {
                nio(LifecyclePolicy::default().with_buffers(SERVER_RCVBUF, SMALL_SNDBUF))
            }
            ServerKind::Pool => Server::Pool(
                PoolServer::start(PoolConfig {
                    pool_size: POOL_THREADS,
                    lifecycle: LifecyclePolicy::httpd2(),
                    shed_watermark: None,
                    content: Arc::clone(&content),
                })
                .expect("start PoolServer on loopback"),
            ),
        }
    }

    fn addr(&self) -> SocketAddrV4 {
        let addr = match self {
            Server::Nio(s) => s.addr(),
            Server::Pool(s) => s.addr(),
        };
        match addr {
            SocketAddr::V4(v4) => v4,
            SocketAddr::V6(_) => unreachable!("the servers bind 127.0.0.1"),
        }
    }

    /// (requests served, bytes sent) so far.
    fn counts(&self) -> (u64, u64) {
        let (requests, bytes) = match self {
            Server::Nio(s) => (&s.stats().requests, &s.stats().bytes_sent),
            Server::Pool(s) => (&s.stats().requests, &s.stats().bytes_sent),
        };
        (
            requests.load(Ordering::Relaxed),
            bytes.load(Ordering::Relaxed),
        )
    }

    /// Stop the server; its per-stage histograms are complete afterwards.
    fn shutdown(self) -> StageHists {
        let hists = match &self {
            Server::Nio(s) => s.stage_hists(),
            Server::Pool(s) => s.stage_hists(),
        };
        match self {
            Server::Nio(s) => s.shutdown(),
            Server::Pool(s) => s.shutdown(),
        }
        let merged = hists.lock().clone();
        merged
    }
}

/// Start a server whose threads all run on the server's processor (they
/// inherit the spawning thread's affinity), then move the calling thread —
/// the driver — to its own.
fn start_pinned(kind: ServerKind, content: Arc<ContentStore>, pin: Option<Pinning>) -> Server {
    if let Some(p) = pin {
        sys::pin_current_thread(p.server_cpu).expect("pin to an allowed processor");
    }
    let server = Server::start(kind, content);
    if let Some(p) = pin {
        sys::pin_current_thread(p.driver_cpu).expect("pin to an allowed processor");
    }
    server
}

/// Median durations of the cold set-up cycles, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub cycle_ms: f64,
    pub start_ms: f64,
    pub shutdown_ms: f64,
    pub connect_us: f64,
}

/// Server-side readings of the timed phase, per reply.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerLayer {
    pub wakeups_per_reply: f64,
    pub worker_cpu_us_per_reply: f64,
    pub acceptor_cpu_us_per_reply: f64,
    pub bytes_per_reply: f64,
    /// Write bursts per reply over the server's life: its `Transfer` stage
    /// is recorded once per flush of staged output, `Parse` once per
    /// request. One reply written whole is 1; a pipelined burst written
    /// whole is 1 ÷ depth; every return to a socket that would not take the
    /// rest adds one.
    pub flushes_per_reply: f64,
    pub stage_parse_p50_us: f64,
    pub stage_service_p50_us: f64,
    pub stage_transfer_p50_us: f64,
    pub start_ms: f64,
    pub shutdown_ms: f64,
}

/// The server's running totals, read from outside it.
struct Counters {
    requests: u64,
    bytes: u64,
    /// Voluntary context switches of its threads: times one went to sleep.
    switches: u64,
    cpu_ns: u64,
    acceptor_cpu_ns: u64,
}

/// Everything one live run measured.
#[derive(Debug)]
pub struct LiveOutcome {
    pub estimate: QuietEstimate,
    pub rss_mb: f64,
    pub setup: SetupTimes,
    pub server: ServerLayer,
    pub reply_p99_us: f64,
    pub connect_p50_us: f64,
    /// 1 − (quiet rate of the traced windows ÷ of the untraced windows);
    /// 0 when the run was not traced.
    pub trace_overhead_frac: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// The requests the run sent, for the per-layer replay.
    pub requests: RequestStream,
    pub content: Arc<ContentStore>,
}

/// How much of the protocol to run: a full run, or the short probe a traced
/// run of another workload takes to read this server's layer metrics.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Cold cycles `setup_s` is the median of; at least one.
    pub setup_cycles: usize,
    pub warmup: Duration,
    pub windows: usize,
}

/// One cold cycle: build the content, start the server, connect, get one
/// verified reply, shut down.
fn setup_cycle(spec: &LiveSpec, pin: Option<Pinning>) -> (SetupTimes, u64, Option<String>) {
    let t0 = Instant::now();
    let files = content_files();
    let content = Arc::new(ContentStore::from_fileset(&files));
    let t1 = Instant::now();
    let server = start_pinned(spec.server, Arc::clone(&content), pin);
    let t2 = Instant::now();
    let requests = RequestStream::build(&files, spec.stream, 0);
    let mut driver = Driver::new(&requests, &content, server.addr(), 1, spec.stream.close);
    // Building the stream is the harness's work, not the system's.
    let t3 = Instant::now();
    driver.run_ops(1);
    let connect_us = driver
        .tally
        .connect_ns
        .first()
        .map_or(0.0, |&ns| ns as f64 / 1e3);
    let (failed, why) = (driver.tally.failed, driver.tally.first_failure.take());
    drop(driver);
    let t4 = Instant::now();
    server.shutdown();
    let t5 = Instant::now();
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    let times = SetupTimes {
        cycle_ms: ms(t0, t2) + ms(t3, t5),
        start_ms: ms(t1, t2),
        shutdown_ms: ms(t4, t5),
        connect_us,
    };
    (times, failed, why)
}

/// Run a live workload. `pin` must have been chosen before anything pinned
/// this thread (a pinned thread sees only its own processor as allowed).
pub fn run(
    spec: &LiveSpec,
    seed: u64,
    effort: Effort,
    pin: Option<Pinning>,
    tracer: &mut Option<&mut Tracer>,
) -> LiveOutcome {
    let (mut attempted, mut failed, mut first_failure) = (0, 0, None);

    let cycles: Vec<SetupTimes> = phase(tracer, "setup", |_| {
        (0..effort.setup_cycles.max(1))
            .map(|_| {
                let (times, cycle_failed, why) = setup_cycle(spec, pin);
                attempted += 1;
                failed += cycle_failed;
                first_failure = first_failure.take().or(why);
                times
            })
            .collect()
    });
    let med = |f: fn(&SetupTimes) -> f64| median(&cycles.iter().map(f).collect::<Vec<f64>>());
    let setup = SetupTimes {
        cycle_ms: med(|c| c.cycle_ms),
        start_ms: med(|c| c.start_ms),
        shutdown_ms: med(|c| c.shutdown_ms),
        connect_us: med(|c| c.connect_us),
    };

    let files = content_files();
    let content = Arc::new(ContentStore::from_fileset(&files));
    let requests = RequestStream::build(&files, spec.stream, seed);
    let server = start_pinned(spec.server, Arc::clone(&content), pin);
    let threads = server_threads(spec.server);
    let cpu_ns = |t: &sys::ServerThread| sys::thread_cpu_ns(t.tid).expect("server thread is alive");
    let server_cpu = || threads.iter().map(cpu_ns).sum::<u64>();
    let read_counters = || {
        let (requests, bytes) = server.counts();
        Counters {
            requests,
            bytes,
            switches: threads.iter().map(|t| sys::voluntary_switches(t.tid)).sum(),
            cpu_ns: server_cpu(),
            acceptor_cpu_ns: threads
                .iter()
                .filter(|t| t.name.ends_with("acceptor"))
                .map(cpu_ns)
                .sum(),
        }
    };

    let mut driver = Driver::new(&requests, &content, server.addr(), CONNS, spec.stream.close);
    phase(tracer, "warmup", |_| driver.warm_up(effort.warmup));

    let before = read_counters();
    let traced = tracer.is_some();
    let windows = phase(tracer, "measure", |tr| {
        driver.measure(
            effort.windows,
            WINDOW,
            &mut || server_cpu(),
            tr.as_deref_mut(),
        )
    });
    let after = read_counters();
    let rss_mb = sys::rss_anon_kib() as f64 / 1024.0;

    let tally = std::mem::take(&mut driver.tally);
    drop(driver);
    attempted += tally.replies + tally.failed;
    failed += tally.failed;
    first_failure = first_failure.or(tally.first_failure);

    let hists = server.shutdown();

    let served = (after.requests - before.requests).max(1) as f64;
    let acceptor_ns = (after.acceptor_cpu_ns - before.acceptor_cpu_ns) as f64;
    let stage_us = |s: Stage| hists.stage(s).median() as f64 / 1e3;
    let server_layer = ServerLayer {
        wakeups_per_reply: (after.switches - before.switches) as f64 / served,
        worker_cpu_us_per_reply: ((after.cpu_ns - before.cpu_ns) as f64 - acceptor_ns)
            / 1e3
            / served,
        acceptor_cpu_us_per_reply: acceptor_ns / 1e3 / served,
        bytes_per_reply: (after.bytes - before.bytes) as f64 / served,
        flushes_per_reply: hists.stage(Stage::Transfer).count() as f64
            / hists.stage(Stage::Parse).count().max(1) as f64,
        stage_parse_p50_us: stage_us(Stage::Parse),
        stage_service_p50_us: stage_us(Stage::Service),
        stage_transfer_p50_us: stage_us(Stage::Transfer),
        start_ms: setup.start_ms,
        shutdown_ms: setup.shutdown_ms,
    };

    let mut connects = tally.connect_ns;
    let estimate = quiet_decile(&windows);
    let half = |parity: usize| -> Vec<Window> {
        windows.iter().skip(parity).step_by(2).copied().collect()
    };
    let trace_overhead_frac = if traced && windows.len() >= 2 {
        1.0 - quiet_decile(&half(0)).replies_per_s / quiet_decile(&half(1)).replies_per_s
    } else {
        0.0
    };
    LiveOutcome {
        estimate,
        rss_mb,
        setup,
        server: server_layer,
        reply_p99_us: tally.all_ops.quantile(0.99) as f64 / 1e3,
        connect_p50_us: if spec.stream.close {
            median_ns(&mut connects) / 1e3
        } else {
            setup.connect_us
        },
        trace_overhead_frac,
        attempted,
        failed,
        first_failure,
        requests,
        content,
    }
}
