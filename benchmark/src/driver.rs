//! The closed-loop load driver: one thread, a few non-blocking connections,
//! `poll(2)`.
//!
//! Each connection has at most one operation in flight — one request, or
//! one burst of pipelined requests written at once — and starts the next
//! as soon as the last reply of the previous one is complete. The offered
//! load is therefore set by the server's speed (closed loop, `conns`
//! clients, no think time). Every reply is checked: status and
//! `Content-Length` against the file asked for, the byte count by the
//! framing, and during warm-up every body byte against the content store.
//!
//! The driver never sleeps: it polls with a zero timeout on a processor of
//! its own. A driver that blocks in `poll` is woken through the hypervisor
//! on a virtual machine, and that wake-up — the load generator's, not the
//! server's — was most of every latency and most of its run-to-run noise
//! (README.md, *The driver spins*).

use crate::estimate::Window;
use crate::framing::{Framer, Piece};
use crate::stream::{Op, RequestStream};
use crate::sys;
use crate::trace::Tracer;
use httpcore::ContentStore;
use metrics::Histogram;
use reactor::sys::{poll, PollFd, POLLIN, POLLOUT};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddrV4, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Larger than any reply, so one `read` can take a whole one.
const READ_BUF: usize = 1 << 20;

/// An operation with no byte of progress for this long has failed.
const STALL: Duration = Duration::from_secs(2);

/// Request spans recorded per traced window; the rest of the window's
/// operations are counted, not recorded, so a run's trace stays readable
/// and its buffer bounded.
const SPANS_PER_WINDOW: usize = 128;

/// Room for a window's latencies, reserved up front so that the vector's
/// doubling does not show in `rss_mb` (only the pages a window fills are
/// resident).
const OPS_PER_WINDOW: usize = 1 << 19;

/// Counts and samples the driver accumulates over its lifetime (`op_ns` is
/// emptied at each window's end).
#[derive(Debug)]
pub struct Tally {
    /// Replies received and found correct.
    pub replies: u64,
    /// Requests whose reply was refused, reset, short, late or wrong.
    pub failed: u64,
    /// What the first failure was, for the report.
    pub first_failure: Option<String>,
    /// Latency of each completed operation, nanoseconds: write of the
    /// request or burst → last byte of its last reply.
    pub op_ns: Vec<u32>,
    /// The same latencies over the whole timed phase, for its tail.
    pub all_ops: Histogram,
    /// Duration of each `connect`, nanoseconds.
    pub connect_ns: Vec<u32>,
    /// Time the driver spent working (from a poll that found a connection
    /// ready to the next poll) rather than spinning, nanoseconds.
    pub busy_ns: u64,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            replies: 0,
            failed: 0,
            first_failure: None,
            op_ns: Vec::with_capacity(OPS_PER_WINDOW),
            all_ops: Histogram::default_precision(),
            connect_ns: Vec::new(),
            busy_ns: 0,
        }
    }
}

impl Tally {
    fn fail(&mut self, requests: usize, what: impl FnOnce() -> String) {
        self.failed += requests as u64;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }
}

/// What the loop tells its caller about, one event at a time.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// An operation's last reply is complete.
    Done(OpTimes),
    /// An operation failed (already counted in the tally).
    Failed,
    /// A poll found no connection ready.
    Idle,
}

/// When the phases of one completed operation happened.
#[derive(Debug, Clone, Copy)]
struct OpTimes {
    req: u64,
    send: Instant,
    written: Instant,
    first_byte: Instant,
    done: Instant,
}

#[derive(Debug)]
struct Conn {
    stream: Option<TcpStream>,
    framer: Framer,
    busy: bool,
    op: Op,
    /// Bytes of the operation written so far.
    sent: usize,
    /// Replies of the operation completed so far.
    replies_done: usize,
    /// Body bytes of the reply in progress seen so far.
    body_seen: usize,
    req: u64,
    send: Instant,
    written: Instant,
    first_byte: Option<Instant>,
    last_progress: Instant,
}

pub struct Driver<'a> {
    requests: &'a RequestStream,
    store: &'a ContentStore,
    server: SocketAddrV4,
    /// One connection per request, each from the next source address.
    churn: bool,
    conns: Vec<Conn>,
    next_op: usize,
    next_req: u64,
    next_src: u32,
    buf: Vec<u8>,
    /// Compare every body byte (warm-up) or only count them (timed phase,
    /// where hashing large bodies would make the driver the bottleneck).
    check_bodies: bool,
    pub tally: Tally,
}

impl<'a> Driver<'a> {
    pub fn new(
        requests: &'a RequestStream,
        store: &'a ContentStore,
        server: SocketAddrV4,
        conns: usize,
        churn: bool,
    ) -> Driver<'a> {
        let now = Instant::now();
        let blank = requests.ops[0];
        Driver {
            requests,
            store,
            server,
            churn,
            conns: (0..conns)
                .map(|_| Conn {
                    stream: None,
                    framer: Framer::new(),
                    busy: false,
                    op: blank,
                    sent: 0,
                    replies_done: 0,
                    body_seen: 0,
                    req: 0,
                    send: now,
                    written: now,
                    first_byte: None,
                    last_progress: now,
                })
                .collect(),
            next_op: 0,
            next_req: 1,
            next_src: 0,
            buf: vec![0; READ_BUF],
            check_bodies: true,
            tally: Tally::default(),
        }
    }

    /// Drive the loop for `dur`, comparing every body byte for byte.
    pub fn warm_up(&mut self, dur: Duration) {
        self.check_bodies = true;
        let end = Instant::now() + dur;
        self.pump(&mut |_, _, now| now < end);
    }

    /// Complete exactly `ops` operations, bodies compared byte for byte.
    pub fn run_ops(&mut self, ops: usize) {
        self.check_bodies = true;
        let mut left = ops;
        self.pump(&mut |_, event, _| {
            if !matches!(event, Event::Idle) {
                left -= 1;
            }
            left > 0
        });
    }

    /// The timed phase: `count` back-to-back windows of `len`. `server_cpu`
    /// reads the CPU time of the server's threads. With a tracer, every
    /// second window records request spans, so that the traced and the
    /// untraced windows of one run give the tracing overhead.
    pub fn measure(
        &mut self,
        count: usize,
        len: Duration,
        server_cpu: &mut dyn FnMut() -> u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Vec<Window> {
        self.check_bodies = false;
        let mut windows = Vec::with_capacity(count);
        let mut start = Instant::now();
        let mut cpu0 = server_cpu();
        let mut own0 = self.tally.busy_ns;
        let (mut replies0, mut spans_left) = (self.tally.replies, SPANS_PER_WINDOW);
        self.tally.op_ns.clear();
        self.pump(&mut |tally, event, now| {
            let traced = windows.len() % 2 == 0;
            if let (Event::Done(t), Some(tr), true) = (event, tracer.as_deref_mut(), traced) {
                if spans_left > 0 {
                    spans_left -= 1;
                    let id = tr.span(0, t.req, "driver.request", t.send, t.done);
                    tr.span(id, t.req, "driver.write", t.send, t.written);
                    tr.span(id, t.req, "driver.wait", t.written, t.first_byte);
                    tr.span(id, t.req, "driver.read", t.first_byte, t.done);
                }
            }
            if now.duration_since(start) < len {
                return true;
            }
            let (cpu1, own1) = (server_cpu(), tally.busy_ns);
            for &ns in &tally.op_ns {
                tally.all_ops.record(ns as u64);
            }
            let window = Window {
                secs: now.duration_since(start).as_secs_f64(),
                replies: tally.replies - replies0,
                server_cpu_ns: cpu1 - cpu0,
                driver_busy_ns: own1 - own0,
                p50_ns: median_ns(&mut tally.op_ns),
            };
            if let Some(tr) = tracer.as_deref_mut() {
                let name = if traced {
                    "window.traced"
                } else {
                    "window.untraced"
                };
                tr.span(0, 0, name, start, now);
            }
            windows.push(window);
            tally.op_ns.clear();
            (start, cpu0, own0, replies0, spans_left) =
                (now, cpu1, own1, tally.replies, SPANS_PER_WINDOW);
            windows.len() < count
        });
        windows
    }

    /// The loop. `on_event` is told of every [`Event`] and when it happened,
    /// and returns whether to go on.
    fn pump(&mut self, on_event: &mut dyn FnMut(&mut Tally, Event, Instant) -> bool) {
        let mut fds: Vec<PollFd> = Vec::with_capacity(self.conns.len());
        let mut working_since: Option<Instant> = None;
        loop {
            for i in 0..self.conns.len() {
                if !self.conns[i].busy
                    && !self.start_op(i)
                    && !on_event(&mut self.tally, Event::Failed, Instant::now())
                {
                    return;
                }
            }
            fds.clear();
            for c in &self.conns {
                let fd = c.stream.as_ref().map_or(-1, |s| s.as_raw_fd());
                let events = if c.sent < c.op.len() {
                    POLLIN | POLLOUT
                } else {
                    POLLIN
                };
                fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
            }
            if let Some(since) = working_since.take() {
                self.tally.busy_ns += since.elapsed().as_nanos() as u64;
            }
            // SAFETY: `fds` is a live array of `fds.len()` pollfd structs;
            // a negative fd is ignored by the kernel.
            let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, 0) };
            let now = Instant::now();
            if ready > 0 {
                working_since = Some(now);
            }
            if ready < 0 && io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
                panic!("poll: {}", io::Error::last_os_error());
            }
            for (i, fd) in fds.iter().enumerate() {
                if !self.conns[i].busy {
                    continue;
                }
                let revents = if ready > 0 { fd.revents } else { 0 };
                let outcome = if revents != 0 {
                    self.progress(i, revents, now)
                } else if now.duration_since(self.conns[i].last_progress) > STALL {
                    Err("no progress for 2 s".to_string())
                } else {
                    continue;
                };
                let go_on = match outcome {
                    Ok(None) => continue,
                    Ok(Some(times)) => on_event(&mut self.tally, Event::Done(times), times.done),
                    Err(what) => {
                        self.abandon(i, what);
                        on_event(&mut self.tally, Event::Failed, Instant::now())
                    }
                };
                if !go_on {
                    return;
                }
            }
            if ready == 0 && !on_event(&mut self.tally, Event::Idle, now) {
                return;
            }
        }
    }

    /// Give up on connection `i`'s operation: its unanswered requests have
    /// failed and the connection is not reused.
    fn abandon(&mut self, i: usize, what: String) {
        let c = &mut self.conns[i];
        let unanswered = self.requests.depth - c.replies_done;
        self.tally
            .fail(unanswered, || format!("request {}: {what}", c.req));
        c.busy = false;
        c.stream = None;
    }

    /// Begin the next operation on idle connection `i`. False if it could
    /// not be begun (already counted as failed).
    fn start_op(&mut self, i: usize) -> bool {
        let op = self.requests.ops[self.next_op];
        self.next_op = (self.next_op + 1) % self.requests.ops.len();
        let req = self.next_req;
        self.next_req += 1;
        if self.conns[i].stream.is_none() {
            let src = if self.churn {
                // 127.0.0.2 … 127.0.0.254: a closed connection holds its
                // (address, port) pair for a minute; rotating the address
                // keeps a much faster server from running out of pairs.
                self.next_src = (self.next_src + 1) % 253;
                Ipv4Addr::new(127, 0, 0, 2 + self.next_src as u8)
            } else {
                Ipv4Addr::LOCALHOST
            };
            let t0 = Instant::now();
            let opened = sys::connect_from(src, self.server).and_then(|s| {
                s.set_nonblocking(true)?;
                s.set_nodelay(true)?;
                Ok(s)
            });
            match opened {
                Ok(s) => {
                    self.tally.connect_ns.push(clamp_ns(t0.elapsed()));
                    self.conns[i].stream = Some(s);
                    self.conns[i].framer = Framer::new();
                }
                Err(e) => {
                    self.tally.fail(self.requests.depth, || {
                        format!("request {req}: connect: {e}")
                    });
                    return false;
                }
            }
        }
        let now = Instant::now();
        let c = &mut self.conns[i];
        (c.busy, c.op, c.req, c.sent, c.replies_done, c.body_seen) = (true, op, req, 0, 0, 0);
        (c.send, c.written, c.first_byte, c.last_progress) = (now, now, None, now);
        if let Err(what) = self.write_some(i) {
            self.abandon(i, what);
            return false;
        }
        true
    }

    /// Write as much of the operation's unsent bytes as the socket takes.
    fn write_some(&mut self, i: usize) -> Result<(), String> {
        let c = &mut self.conns[i];
        let bytes = self.requests.bytes_of(&c.op);
        let stream = c.stream.as_mut().expect("busy connection is open");
        while c.sent < bytes.len() {
            match stream.write(&bytes[c.sent..]) {
                Ok(0) => return Err("write: connection closed".into()),
                Ok(n) => c.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        c.written = Instant::now();
        Ok(())
    }

    /// Connection `i` is ready: move its operation forward. `Ok(Some)` when
    /// the last reply completed.
    fn progress(
        &mut self,
        i: usize,
        revents: i16,
        now: Instant,
    ) -> Result<Option<OpTimes>, String> {
        if revents & POLLOUT != 0 && self.conns[i].sent < self.conns[i].op.len() {
            self.write_some(i)?;
            self.conns[i].last_progress = now;
        }
        if revents & !POLLOUT == 0 {
            return Ok(None);
        }
        loop {
            let c = &mut self.conns[i];
            let stream = c.stream.as_mut().expect("busy connection is open");
            let n = match stream.read(&mut self.buf) {
                Ok(0) => return Err("connection closed before the reply was complete".into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            };
            c.last_progress = now;
            c.first_byte.get_or_insert(now);
            let mut input = &self.buf[..n];
            let targets = self.requests.targets_of(&c.op);
            while let Some(piece) = c
                .framer
                .next(&mut input)
                .map_err(|e| format!("framing: {e:?}"))?
            {
                let Some(&file) = targets.get(c.replies_done) else {
                    return Err("more replies than requests".into());
                };
                match piece {
                    Piece::Head(head) => {
                        let want = self.store.size_of(file) as usize;
                        if head.status != 200 || head.content_length != want {
                            return Err(format!(
                                "status {} length {} for a {want}-byte file",
                                head.status, head.content_length
                            ));
                        }
                        c.body_seen = 0;
                    }
                    Piece::Body(chunk) => {
                        if self.check_bodies
                            && self.store.body(file)[c.body_seen..c.body_seen + chunk.len()]
                                != *chunk
                        {
                            return Err(format!("body differs at byte {}", c.body_seen));
                        }
                        c.body_seen += chunk.len();
                    }
                    Piece::End => {
                        c.replies_done += 1;
                        self.tally.replies += 1;
                    }
                }
            }
            if c.replies_done == self.requests.depth {
                if !input.is_empty() {
                    return Err("bytes after the last reply".into());
                }
                let done = Instant::now();
                c.busy = false;
                if self.churn {
                    c.stream = None;
                }
                self.tally.op_ns.push(clamp_ns(done.duration_since(c.send)));
                return Ok(Some(OpTimes {
                    req: c.req,
                    send: c.send,
                    written: c.written,
                    first_byte: c.first_byte.unwrap_or(done),
                    done,
                }));
            }
            if n < self.buf.len() {
                // The socket is very likely drained; let poll say when
                // there is more rather than pay for a read that would block.
                return Ok(None);
            }
        }
    }
}

fn clamp_ns(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

/// Exact median of the samples (reorders them); 0 for none.
pub fn median_ns(samples: &mut [u32]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let (mid, odd) = (samples.len() / 2, samples.len() % 2 == 1);
    let (below, &mut hi, _) = samples.select_nth_unstable(mid);
    if odd {
        hi as f64
    } else {
        let lo = *below.iter().max().expect("even length has a lower half");
        (lo as f64 + hi as f64) / 2.0
    }
}
