//! The simulated testbed: clients, links, CPU and one server architecture
//! composed into a single discrete-event model.
//!
//! This is the component that corresponds to the paper's physical rig (SUT +
//! client machines + cables). It owns all cross-component plumbing: SYNs
//! travel over links into the server's accept path, requests become CPU jobs
//! on the architecture's lanes, replies become processor-sharing flows back
//! over the link, and every client-visible outcome (establishment, reply
//! bytes, resets, silence) is fed to the `clientsim` state machines, which
//! decide what the emulated user does next.
//!
//! Event-flow summary per request:
//!
//! ```text
//! client SendBurst --latency--> RequestsAtServer
//!   threaded: per-conn queue -> pool-lane CPU job -> reply flow -> (repeat)
//!   event:    worker-lane job -> kernel-lane job  -> reply pipeline -> flow
//! flow completes --(fair-shared link)--> client.on_reply -> next action
//! ```

use crate::config::{ServerArch, TestbedConfig};
use crate::conntable::ConnTable;
use crate::event_driven::{AcceptOutcome, EventServer};
use crate::threaded::{SynOutcome, ThreadedServer};
use clientsim::{Client, ClientAction, ClientId, ClientMetrics};
use desim::{
    Ctx, Engine, EngineStats, EventId, IntMap, Model, Rng, RunOutcome, SimDuration, SimTime, Trace,
    TraceLevel,
};
use faults::AcceptMode;
use hostsim::{Cpu, JobToken, LaneId};
use netsim::{CloseKind, ConnId, Connection, FlowId, PsLink};
use obs::{EndReason, GaugeKind, Obs, Span, Stage};
use std::collections::VecDeque;
use workload::{FileId, FileSet};

/// Events of the testbed model.
#[derive(Debug)]
pub enum Ev {
    /// A client machine brings one emulated client online.
    ClientArrive(ClientId),
    /// The client issues a (new) SYN now.
    ClientConnect(ClientId),
    /// A SYN reached the server NIC.
    SynAtServer(ConnId),
    /// The client retransmits a dropped SYN.
    SynRetry(ConnId),
    /// The SYN-ACK reached the client: connection established.
    EstablishedAtClient(ConnId),
    /// An RST reached the client.
    ResetAtClient(ConnId),
    /// A burst of pipelined requests reached the server.
    RequestsAtServer(ConnId, Vec<FileId>),
    /// The client's think timer expired.
    ClientThinkDone(ClientId),
    /// The client's 10 s socket timeout expired.
    ClientTimeout(ClientId),
    /// A CPU job finished.
    CpuDone(JobToken),
    /// The earliest flow on link `i` completes around now.
    LinkTick(usize),
    /// The threaded server's inactivity timer fired for a connection.
    ServerIdleClose(ConnId),
    /// Periodic instability injection for oversized thread pools.
    StallTick,
    /// An explicit refusal (RST to a connecting client) reached the client.
    RefusedAtClient(ConnId),
    /// Graceful drain begins: stop accepting, finish in-flight work.
    DrainStart,
    /// Drain deadline: whatever is still in flight is aborted and counted.
    DrainDeadline,
    /// Warm-up ended; begin recording histograms/counters.
    MeasureStart,
    /// Periodic observability gauge sample (only scheduled when the run has
    /// an [`obs::ObsConfig`]).
    ObsSample,
    /// Run horizon.
    EndRun,
}

/// CPU job payloads.
#[derive(Debug)]
enum Job {
    /// Accept processing for a connection.
    Accept(ConnId),
    /// Threaded server: full per-request service.
    ThreadedRequest { conn: ConnId, reply_bytes: u64 },
    /// Event-driven: worker-lane stage (parse + dispatch + write syscalls).
    EventParse { conn: ConnId, reply_bytes: u64 },
    /// Event-driven: kernel network-stack stage.
    EventKernel { conn: ConnId, reply_bytes: u64 },
    /// Staged pipeline: parse stage.
    StageParse { conn: ConnId, reply_bytes: u64 },
    /// Staged pipeline: send stage.
    StageSend { conn: ConnId, reply_bytes: u64 },
    /// Kernel-side cost of dropping a SYN under overload.
    Reject,
    /// Swap-storm stall occupying one processor.
    Stall,
}

/// Per-client runtime bookkeeping (timers and the current connection).
#[derive(Debug, Default)]
struct ClientRt {
    conn: Option<ConnId>,
    timeout_ev: Option<EventId>,
    think_ev: Option<EventId>,
    connect_ev: Option<EventId>,
}

/// What a reply flow is carrying.
#[derive(Debug)]
enum FlowKind {
    Reply {
        conn: ConnId,
        body_bytes: u64,
    },
    /// Handshake/teardown packet overhead (consumes bandwidth, delivers
    /// nothing).
    Overhead,
}

#[derive(Debug)]
struct FlowRec {
    kind: FlowKind,
}

/// Per-connection record, server side.
#[derive(Debug)]
struct ConnRec {
    client: ClientId,
    net: Connection,
    link: usize,
    /// Threaded: requests not yet handed to the bound thread.
    req_queue: VecDeque<FileId>,
    /// Threaded: the bound thread is executing a CPU job for this conn.
    cpu_busy: bool,
    /// Replies ready to go out, in order (bytes incl. headers).
    pipeline: VecDeque<u64>,
    active_flow: Option<FlowId>,
    idle_ev: Option<EventId>,
    /// Threaded: a pool thread is bound to this connection.
    thread_bound: bool,
    /// CPU jobs in flight that reference this connection.
    pending_jobs: u32,
    /// Cached busy state (established with server-side work in flight),
    /// maintained by [`Testbed::refresh_busy`] so the gauge sampler reads a
    /// counter instead of scanning every open connection.
    busy: bool,
}

/// Which server is running, with its architecture-specific state.
#[derive(Debug)]
enum ServerModel {
    Threaded(ThreadedServer),
    Event(EventServer),
    /// Staged pipeline reuses the selector/acceptor bookkeeping — it is the
    /// same no-thread-binding admission model with different lanes behind.
    Staged(EventServer),
}

/// The complete simulated rig.
pub struct Testbed {
    cfg: TestbedConfig,
    files: FileSet,
    clients: Vec<Client>,
    rt: Vec<ClientRt>,
    pub metrics: ClientMetrics,
    conns: ConnTable<ConnRec>,
    flows: IntMap<FlowId, FlowRec>,
    next_flow: u64,
    links: Vec<PsLink>,
    link_ev: Vec<Option<EventId>>,
    cpu: Cpu<Job>,
    kernel_lane: LaneId,
    acceptor_lane: LaneId,
    worker_lane: LaneId,
    pool_lane: LaneId,
    stage_parse_lane: LaneId,
    stage_send_lane: LaneId,
    server: ServerModel,
    /// Stale events dropped defensively (should stay tiny; asserted in
    /// tests).
    pub stale_events: u64,
    /// Optional connection-level debug trace.
    pub trace: Trace,
    /// Typed observability capture (disabled unless `cfg.obs` is set).
    pub obs: Obs,
    /// Graceful drain in progress.
    draining: bool,
    /// Connections that closed cleanly (client FIN) since the drain began.
    drain_drained: u64,
    /// Connections aborted (client gave up, or cut at the deadline).
    drain_aborted: u64,
    /// Filled at the drain deadline; `None` until then (or when no drain
    /// was scheduled).
    pub drain_report: Option<faults::DrainReport>,
    /// SYNs answered with an explicit refusal (drain, shedding, full
    /// backlog under `refuse_on_full`).
    pub syns_refused: u64,
    /// Established connections with server-side work in flight, maintained
    /// incrementally at every state transition — the gauge sampler's
    /// ready-set reading is O(1) in the open-connection count.
    busy_conns: usize,
    /// Connections the gauge sampler *visited* (iterated over) across all
    /// samples. Stays zero with the incremental counter; tests pin that
    /// sampling cost is independent of the idle-connection population.
    pub gauge_conn_visits: u64,
    /// High-water mark of simultaneously open connections over the run —
    /// the scale harness's "how many did the table actually hold" reading.
    peak_open_conns: usize,
    /// The engine's counters at the end of [`run`] (zero before): events
    /// scheduled, dispatched and cancelled, and the pending-set peak.
    pub engine_stats: EngineStats,
}

impl Testbed {
    /// Build the rig from a config. Determinism: everything derives from
    /// `cfg.seed`.
    pub fn new(cfg: TestbedConfig) -> Self {
        assert!(!cfg.links.is_empty(), "need at least one link");
        assert!(cfg.num_clients > 0, "need at least one client");
        let mut build_rng = Rng::new(cfg.seed ^ 0x5EED_F11E);
        let files = FileSet::build(&cfg.surge, &mut build_rng);
        let client_root = Rng::new(cfg.seed ^ 0xC11E_17A5);
        let clients: Vec<Client> = (0..cfg.num_clients)
            .map(|i| Client::new(ClientId(i), cfg.client.clone(), &client_root))
            .collect();
        let rt = (0..cfg.num_clients).map(|_| ClientRt::default()).collect();
        let links: Vec<PsLink> = cfg.links.iter().map(|&l| PsLink::new(l)).collect();
        let link_ev = vec![None; links.len()];
        let mut cpu = Cpu::new(cfg.num_cpus);
        let kernel_lane = cpu.add_lane(cfg.num_cpus);
        let acceptor_lane = cpu.add_lane(1);
        let (worker_lane, pool_lane, stage_parse_lane, stage_send_lane, server) = match cfg.server {
            ServerArch::EventDriven { workers } => {
                let w = cpu.add_lane(workers);
                let p = cpu.add_lane(1); // unused
                let s1 = cpu.add_lane(1); // unused
                let s2 = cpu.add_lane(1); // unused
                let ev = match cfg.accept_mode {
                    AcceptMode::Handoff => EventServer::new(workers, cfg.backlog),
                    AcceptMode::Sharded => EventServer::new_sharded(workers, cfg.backlog),
                };
                (w, p, s1, s2, ServerModel::Event(ev))
            }
            ServerArch::Threaded { pool } => {
                let w = cpu.add_lane(1); // unused
                let p = cpu.add_lane(pool);
                let s1 = cpu.add_lane(1); // unused
                let s2 = cpu.add_lane(1); // unused
                (
                    w,
                    p,
                    s1,
                    s2,
                    ServerModel::Threaded(ThreadedServer::new(pool, cfg.backlog)),
                )
            }
            ServerArch::Staged {
                parse_threads,
                send_threads,
            } => {
                let w = cpu.add_lane(1); // unused
                let p = cpu.add_lane(1); // unused
                let s1 = cpu.add_lane(parse_threads);
                let s2 = cpu.add_lane(send_threads);
                (
                    w,
                    p,
                    s1,
                    s2,
                    ServerModel::Staged(EventServer::new(
                        parse_threads + send_threads,
                        cfg.backlog,
                    )),
                )
            }
        };
        let metrics = ClientMetrics::new(cfg.window());
        let trace_capacity = cfg.trace_capacity;
        let obs = match &cfg.obs {
            Some(c) => Obs::new(c),
            None => Obs::disabled(),
        };
        Testbed {
            cfg,
            files,
            clients,
            rt,
            metrics,
            conns: ConnTable::new(),
            flows: IntMap::default(),
            next_flow: 0,
            links,
            link_ev,
            cpu,
            kernel_lane,
            acceptor_lane,
            worker_lane,
            pool_lane,
            stage_parse_lane,
            stage_send_lane,
            server,
            stale_events: 0,
            trace: if trace_capacity > 0 {
                Trace::bounded(trace_capacity, TraceLevel::Debug)
            } else {
                Trace::disabled()
            },
            obs,
            draining: false,
            drain_drained: 0,
            drain_aborted: 0,
            drain_report: None,
            syns_refused: 0,
            busy_conns: 0,
            gauge_conn_visits: 0,
            peak_open_conns: 0,
            engine_stats: EngineStats::default(),
        }
    }

    /// The materialised file set (exposed for experiments and tests).
    pub fn files(&self) -> &FileSet {
        &self.files
    }

    /// Connections open right now.
    pub fn open_conns(&self) -> usize {
        self.conns.len()
    }

    /// High-water mark of simultaneously open connections across the run.
    pub fn peak_open_conns(&self) -> usize {
        self.peak_open_conns
    }

    /// Threaded server state, if that architecture is running.
    pub fn threaded(&self) -> Option<&ThreadedServer> {
        match &self.server {
            ServerModel::Threaded(t) => Some(t),
            _ => None,
        }
    }

    /// Event-driven server state, if that architecture is running.
    pub fn event_server(&self) -> Option<&EventServer> {
        match &self.server {
            ServerModel::Event(e) => Some(e),
            _ => None,
        }
    }

    /// CPU statistics.
    pub fn cpu_stats(&self) -> hostsim::CpuStats {
        self.cpu.stats()
    }

    /// Total bytes the links delivered.
    pub fn link_bytes_delivered(&self) -> f64 {
        self.links.iter().map(|l| l.bytes_delivered).sum()
    }

    // ------------------------------------------------------------------
    // helpers
    // ------------------------------------------------------------------

    fn link_of_client(&self, cid: ClientId) -> usize {
        cid.0 as usize % self.links.len()
    }

    fn latency(&self, link: usize) -> SimDuration {
        self.links[link].config().latency
    }

    fn reply_wire_bytes(&self, file: FileId) -> u64 {
        let body = self.files.size_of(file) + self.cfg.reply_header_bytes;
        (body as f64 * self.cfg.wire_overhead) as u64
    }

    fn arm_client_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, cid: ClientId) {
        if let Some(old) = self.rt[cid.0 as usize].timeout_ev.take() {
            ctx.cancel(old);
        }
        let d = self.clients[cid.0 as usize].timeout();
        self.rt[cid.0 as usize].timeout_ev = Some(ctx.schedule_in(d, Ev::ClientTimeout(cid)));
    }

    fn disarm_client_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, cid: ClientId) {
        if let Some(ev) = self.rt[cid.0 as usize].timeout_ev.take() {
            ctx.cancel(ev);
        }
    }

    /// Reschedule link `li`'s next-completion event.
    fn resched_link(&mut self, ctx: &mut Ctx<'_, Ev>, li: usize) {
        if let Some(old) = self.link_ev[li].take() {
            ctx.cancel(old);
        }
        if let Some((t, _)) = self.links[li].next_completion(ctx.now()) {
            self.link_ev[li] = Some(ctx.schedule_at(t.max(ctx.now()), Ev::LinkTick(li)));
        }
    }

    /// Recompute one connection's busy state and fold the delta into the
    /// incremental counter. Must run after any mutation of the predicate's
    /// inputs (net state, pending jobs, pipeline, active flow); a full-run
    /// equivalence test against the brute-force scan pins the call sites.
    fn refresh_busy(&mut self, conn: ConnId) {
        let Some(rec) = self.conns.get_mut(&conn) else {
            return;
        };
        let now_busy = rec.net.is_established()
            && (rec.pending_jobs > 0 || !rec.pipeline.is_empty() || rec.active_flow.is_some());
        if now_busy != rec.busy {
            rec.busy = now_busy;
            if now_busy {
                self.busy_conns += 1;
            } else {
                self.busy_conns -= 1;
            }
        }
    }

    /// The incremental busy-connection counter (selector ready-set size).
    pub fn busy_fast(&self) -> usize {
        self.busy_conns
    }

    /// Brute-force recount of the same predicate; O(open), test-only use.
    ///
    /// Every connection record it touches bumps `gauge_conn_visits`, so this
    /// doubles as a tripwire: if gauge sampling ever falls back to a scan
    /// (this function or an inline loop that honours the same accounting),
    /// the cost-independence test sees a non-zero visit count.
    pub fn busy_brute(&mut self) -> usize {
        self.gauge_conn_visits += self.conns.len() as u64;
        self.conns
            .values()
            .filter(|r| {
                r.net.is_established()
                    && (r.pending_jobs > 0 || !r.pipeline.is_empty() || r.active_flow.is_some())
            })
            .count()
    }

    /// Enqueue a CPU job and schedule completions for whatever started.
    fn enqueue_cpu(&mut self, ctx: &mut Ctx<'_, Ev>, lane: LaneId, service: SimDuration, job: Job) {
        if let Some(conn) = job.conn_ref() {
            if self.conns.contains_key(&conn) {
                self.conns.get_mut(&conn).expect("checked").pending_jobs += 1;
                self.refresh_busy(conn);
            }
        }
        if let Some((token, finish, _service)) = self.cpu.submit(ctx.now(), lane, service, job) {
            ctx.schedule_at(finish, Ev::CpuDone(token));
        }
    }

    /// Answer a connecting SYN with an explicit refusal: the kernel pays a
    /// reject's worth of CPU, and an RST travels back to the client.
    fn refuse_syn(&mut self, ctx: &mut Ctx<'_, Ev>, conn: ConnId) {
        self.syns_refused += 1;
        let service = self.cfg.costs.reject_service(self.cfg.num_cpus);
        self.enqueue_cpu(ctx, self.kernel_lane, service, Job::Reject);
        let lat = self.latency(self.conns[&conn].link);
        ctx.schedule_in(lat, Ev::RefusedAtClient(conn));
    }

    /// Load-shedding check: is the admission watermark crossed right now?
    /// Pressure is the same quantity the gauge sampler reports — pool
    /// occupancy plus backlog for the threaded server, CPU run-queue depth
    /// for the event-driven ones.
    fn shed_watermark_hit(&self) -> bool {
        let Some(w) = self.cfg.admission.shed_watermark else {
            return false;
        };
        let pressure = match &self.server {
            ServerModel::Threaded(t) => (t.threads_in_use() + t.backlog_len()) as u64,
            ServerModel::Event(_) | ServerModel::Staged(_) => self.cpu.queued_total() as u64,
        };
        pressure >= w
    }

    /// Open a new connection for `cid` and fire its SYN.
    fn do_connect(&mut self, ctx: &mut Ctx<'_, Ev>, cid: ClientId) {
        let link = self.link_of_client(cid);
        let now = ctx.now();
        let conn = self.conns.insert_with(|conn| ConnRec {
            client: cid,
            net: Connection::open(conn, now),
            link,
            req_queue: VecDeque::new(),
            cpu_busy: false,
            pipeline: VecDeque::new(),
            active_flow: None,
            idle_ev: None,
            thread_bound: false,
            pending_jobs: 0,
            busy: false,
        });
        self.peak_open_conns = self.peak_open_conns.max(self.conns.len());
        if self.trace.wants(TraceLevel::Debug) {
            self.trace.emit(
                ctx.now(),
                TraceLevel::Debug,
                format!("client {} opens conn {} (SYN)", cid.0, conn.0),
            );
        }
        self.rt[cid.0 as usize].conn = Some(conn);
        self.arm_client_timeout(ctx, cid);
        // Handshake packets consume link bandwidth.
        self.start_overhead_flow(ctx, link, self.cfg.connection_overhead_bytes);
        let lat = self.latency(link);
        ctx.schedule_in(lat, Ev::SynAtServer(conn));
    }

    fn start_overhead_flow(&mut self, ctx: &mut Ctx<'_, Ev>, link: usize, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        self.next_flow += 1;
        let fid = FlowId(self.next_flow);
        self.flows.insert(
            fid,
            FlowRec {
                kind: FlowKind::Overhead,
            },
        );
        self.links[link].start_flow(ctx.now(), fid, bytes);
        self.resched_link(ctx, link);
    }

    /// Start the next queued reply flow on `conn`, if idle.
    fn try_start_flow(&mut self, ctx: &mut Ctx<'_, Ev>, conn: ConnId) {
        // Callers reach here right after pushing a reply into the pipeline;
        // refreshing up front folds that push into the busy counter on
        // every path, including the early returns below (popping the
        // pipeline into `active_flow` cannot change the predicate).
        self.refresh_busy(conn);
        let Some(rec) = self.conns.get_mut(&conn) else {
            return;
        };
        if rec.active_flow.is_some() || !rec.net.is_established() {
            return;
        }
        let Some(bytes) = rec.pipeline.pop_front() else {
            return;
        };
        self.next_flow += 1;
        let fid = FlowId(self.next_flow);
        rec.active_flow = Some(fid);
        let link = rec.link;
        let body = bytes;
        self.flows.insert(
            fid,
            FlowRec {
                kind: FlowKind::Reply {
                    conn,
                    body_bytes: body,
                },
            },
        );
        self.links[link].start_flow(ctx.now(), fid, bytes as f64);
        self.resched_link(ctx, link);
    }

    /// Threaded server: give the bound thread its next request if it is
    /// neither computing nor mid-send.
    fn pump_threaded(&mut self, ctx: &mut Ctx<'_, Ev>, conn: ConnId) {
        let (file, pool, cpus) = {
            let Some(rec) = self.conns.get_mut(&conn) else {
                return;
            };
            if rec.cpu_busy
                || rec.active_flow.is_some()
                || !rec.pipeline.is_empty()
                || !rec.net.is_established()
            {
                return;
            }
            let Some(file) = rec.req_queue.pop_front() else {
                return;
            };
            rec.cpu_busy = true;
            let ServerModel::Threaded(t) = &self.server else {
                unreachable!("pump_threaded on event server")
            };
            (file, t.pool_size(), self.cfg.num_cpus)
        };
        let reply_bytes = self.reply_wire_bytes(file);
        let service = self
            .cfg
            .costs
            .threaded_request_service(reply_bytes, pool, cpus);
        self.enqueue_cpu(
            ctx,
            self.pool_lane,
            service,
            Job::ThreadedRequest { conn, reply_bytes },
        );
    }

    /// Threaded server: arm the idle timer when a connection goes quiet.
    fn maybe_arm_idle(&mut self, ctx: &mut Ctx<'_, Ev>, conn: ConnId) {
        let Some(timeout) = self.cfg.server_idle_timeout else {
            return;
        };
        let Some(rec) = self.conns.get_mut(&conn) else {
            return;
        };
        let idle = rec.net.is_established()
            && rec.req_queue.is_empty()
            && rec.pipeline.is_empty()
            && !rec.cpu_busy
            && rec.active_flow.is_none();
        if idle && rec.idle_ev.is_none() {
            rec.idle_ev = Some(ctx.schedule_in(timeout, Ev::ServerIdleClose(conn)));
        }
    }

    /// Release the thread bound to `conn` (threaded arch) and hand it down
    /// the backlog, skipping connections whose client already gave up.
    fn free_thread(&mut self, ctx: &mut Ctx<'_, Ev>, conn: ConnId) {
        let bound = self
            .conns
            .get_mut(&conn)
            .map(|r| std::mem::take(&mut r.thread_bound))
            .unwrap_or(false);
        if !bound {
            return;
        }
        let ServerModel::Threaded(t) = &mut self.server else {
            return;
        };
        let mut next = t.release();
        // Hand the freed thread to the first *live* backlogged connection.
        while let Some(cand) = next {
            let alive = self
                .conns
                .get(&cand)
                .map(|r| matches!(r.net.state, netsim::ConnState::Connecting))
                .unwrap_or(false);
            if alive {
                self.conns.get_mut(&cand).unwrap().thread_bound = true;
                let (pool, cpus) = {
                    let ServerModel::Threaded(t) = &self.server else {
                        unreachable!()
                    };
                    (t.pool_size(), self.cfg.num_cpus)
                };
                let service = self.cfg.costs.threaded_accept_service(pool, cpus);
                self.enqueue_cpu(ctx, self.pool_lane, service, Job::Accept(cand));
                return;
            }
            let ServerModel::Threaded(t) = &mut self.server else {
                unreachable!()
            };
            next = t.release();
        }
    }

    /// Tear down a connection from the client side (abort or clean close).
    fn close_conn_client_side(&mut self, ctx: &mut Ctx<'_, Ev>, conn: ConnId, kind: CloseKind) {
        let Some(rec) = self.conns.get_mut(&conn) else {
            return;
        };
        // Drain accounting: established connections that end during the
        // drain window count toward the report — cleanly (FIN) as drained,
        // given-up (client timeout) as aborted.
        if self.draining && self.drain_report.is_none() && rec.net.is_established() {
            match kind {
                CloseKind::ClientFin => self.drain_drained += 1,
                CloseKind::ClientAbort => self.drain_aborted += 1,
                _ => {}
            }
        }
        // Requests still open on this connection end censored: abort means
        // the client's socket timeout fired, a clean FIN means the session
        // moved on.
        if self.obs.on() {
            let end = match kind {
                CloseKind::ClientAbort => EndReason::Timeout,
                _ => EndReason::Closed,
            };
            self.obs
                .requests
                .finish_all(conn.0, ctx.now().as_nanos(), end);
        }
        rec.net.close(ctx.now(), kind);
        rec.req_queue.clear();
        rec.pipeline.clear();
        if let Some(ev) = rec.idle_ev.take() {
            ctx.cancel(ev);
        }
        let link = rec.link;
        let active = rec.active_flow.take();
        if let Some(fid) = active {
            self.links[link].cancel_flow(ctx.now(), fid);
            self.flows.remove(&fid);
            self.resched_link(ctx, link);
        }
        match &mut self.server {
            ServerModel::Threaded(t) => {
                // Either bound (free it) or maybe still in the backlog.
                if self.conns.get(&conn).map(|r| r.thread_bound) == Some(true) {
                    self.free_thread(ctx, conn);
                } else {
                    t.remove_from_backlog(conn);
                }
            }
            ServerModel::Event(e) | ServerModel::Staged(e) => {
                e.deregister(conn);
            }
        }
        // Teardown packets also burn bandwidth.
        self.start_overhead_flow(ctx, link, self.cfg.connection_overhead_bytes * 0.5);
        self.refresh_busy(conn);
        self.maybe_gc(conn);
    }

    /// Drop the record once nothing references it any more.
    fn maybe_gc(&mut self, conn: ConnId) {
        let Some(rec) = self.conns.get(&conn) else {
            return;
        };
        let closed = matches!(rec.net.state, netsim::ConnState::Closed(_));
        let current = self.rt[rec.client.0 as usize].conn == Some(conn);
        if closed && rec.pending_jobs == 0 && rec.active_flow.is_none() && !current {
            if let Some(rec) = self.conns.remove(&conn) {
                if rec.busy {
                    self.busy_conns -= 1;
                }
            }
        }
    }

    /// Execute a client action returned by the state machine.
    fn run_client_action(&mut self, ctx: &mut Ctx<'_, Ev>, cid: ClientId, action: ClientAction) {
        match action {
            ClientAction::Connect => self.do_connect(ctx, cid),
            ClientAction::ConnectAfter(d) => {
                let ev = ctx.schedule_in(d, Ev::ClientConnect(cid));
                self.rt[cid.0 as usize].connect_ev = Some(ev);
            }
            ClientAction::SendBurst(files) => {
                let conn = self.rt[cid.0 as usize]
                    .conn
                    .expect("burst with no connection");
                self.arm_client_timeout(ctx, cid);
                // Request lifetimes start at the client's send instant (the
                // anchor `record_reply` measures response time from). The
                // first stage covers transit + server queueing + parse.
                if self.obs.on() {
                    let t = ctx.now().as_nanos();
                    for _ in &files {
                        self.obs.requests.begin(conn.0, t, Stage::Parse);
                    }
                }
                let link = self.conns[&conn].link;
                let lat = self.latency(link);
                ctx.schedule_in(lat, Ev::RequestsAtServer(conn, files));
            }
            ClientAction::Think(d) => {
                let ev = ctx.schedule_in(d, Ev::ClientThinkDone(cid));
                self.rt[cid.0 as usize].think_ev = Some(ev);
            }
            ClientAction::CloseThenConnect => {
                if let Some(conn) = self.rt[cid.0 as usize].conn.take() {
                    self.close_conn_client_side(ctx, conn, CloseKind::ClientFin);
                    self.maybe_gc(conn);
                }
                self.do_connect(ctx, cid);
            }
        }
    }

    /// One periodic gauge sweep: CPU queues, server occupancy/backlog,
    /// selector population, link load, open connections.
    fn sample_gauges(&mut self, now: SimTime) {
        let t = now.as_nanos();
        let g = &mut self.obs.gauges;
        g.push(t, GaugeKind::RunQueueDepth, self.cpu.queued_total() as f64);
        g.push(t, GaugeKind::CpuRunning, self.cpu.running_total() as f64);
        g.push(t, GaugeKind::OpenConns, self.conns.len() as f64);
        let mut util = 0.0;
        let mut flows = 0usize;
        for l in &self.links {
            let lg = l.gauges();
            util += lg.utilisation;
            flows += lg.active_flows;
        }
        g.push(
            t,
            GaugeKind::LinkUtilisation,
            util / self.links.len() as f64,
        );
        g.push(t, GaugeKind::ActiveFlows, flows as f64);
        match &self.server {
            ServerModel::Threaded(s) => {
                g.push(t, GaugeKind::ThreadPoolOccupancy, s.threads_in_use() as f64);
                g.push(t, GaugeKind::AcceptBacklog, s.backlog_len() as f64);
            }
            ServerModel::Event(e) | ServerModel::Staged(e) => {
                g.push(t, GaugeKind::RegisteredConns, e.registered_count() as f64);
                g.push(t, GaugeKind::AcceptBacklog, e.pending_accepts() as f64);
                // The selector's ready set at this instant: registered
                // connections with server-side work in flight. Read from
                // the incrementally maintained counter — a sample must not
                // cost a scan of every idle registration (the very effect
                // the ready-set gauge exists to expose).
                g.push(t, GaugeKind::ReadySetSize, self.busy_conns as f64);
            }
        }
    }

    /// Handle a completed reply flow.
    fn on_reply_flow_done(&mut self, ctx: &mut Ctx<'_, Ev>, conn: ConnId, body_bytes: u64) {
        let Some(rec) = self.conns.get_mut(&conn) else {
            return;
        };
        rec.active_flow = None;
        rec.net.replies += 1;
        let cid = rec.client;
        self.refresh_busy(conn);
        // The reply is delivered at this exact instant — the same one
        // `client.on_reply` measures response time at — so the breakdown's
        // total equals the recorded response time.
        if self.obs.on() {
            self.obs
                .requests
                .finish_next(conn.0, ctx.now().as_nanos(), EndReason::Done);
        }
        // Deliver to the client.
        self.disarm_client_timeout(ctx, cid);
        let action = {
            let client = &mut self.clients[cid.0 as usize];
            client.on_reply(ctx.now(), body_bytes, &self.files, &mut self.metrics)
        };
        match action {
            None => {
                // More replies of the same burst still outstanding.
                self.arm_client_timeout(ctx, cid);
            }
            Some(a) => self.run_client_action(ctx, cid, a),
        }
        // Server side: continue this connection's output, or go idle.
        self.try_start_flow(ctx, conn);
        if matches!(self.server, ServerModel::Threaded(_)) {
            self.pump_threaded(ctx, conn);
        }
        self.maybe_arm_idle(ctx, conn);
        self.maybe_gc(conn);
    }
}

impl Model for Testbed {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        match ev {
            Ev::ClientArrive(cid) => {
                let action = self.clients[cid.0 as usize].on_start(ctx.now(), &self.files);
                self.run_client_action(ctx, cid, action);
            }

            Ev::ClientConnect(cid) => {
                self.rt[cid.0 as usize].connect_ev = None;
                self.do_connect(ctx, cid);
            }

            Ev::SynAtServer(conn) => {
                let alive = self
                    .conns
                    .get(&conn)
                    .map(|r| matches!(r.net.state, netsim::ConnState::Connecting))
                    .unwrap_or(false);
                if !alive {
                    self.stale_events += 1;
                    return;
                }
                // Overload control: refuse explicitly while draining or when
                // the load-shedding watermark is crossed — before any accept
                // state is reserved.
                if self.draining || self.shed_watermark_hit() {
                    self.refuse_syn(ctx, conn);
                    return;
                }
                let cpus = self.cfg.num_cpus;
                let refuse_on_full = self.cfg.admission.refuse_on_full;
                match &mut self.server {
                    ServerModel::Threaded(t) => match t.on_syn(conn) {
                        SynOutcome::AcceptNow => {
                            self.conns.get_mut(&conn).unwrap().thread_bound = true;
                            let pool = match &self.server {
                                ServerModel::Threaded(t) => t.pool_size(),
                                _ => unreachable!(),
                            };
                            let service = self.cfg.costs.threaded_accept_service(pool, cpus);
                            self.enqueue_cpu(ctx, self.pool_lane, service, Job::Accept(conn));
                        }
                        SynOutcome::Queued => { /* waits for a free thread */ }
                        SynOutcome::Dropped if refuse_on_full => self.refuse_syn(ctx, conn),
                        SynOutcome::Dropped => {
                            let service = self.cfg.costs.reject_service(cpus);
                            self.enqueue_cpu(ctx, self.kernel_lane, service, Job::Reject);
                            let retry =
                                self.clients[self.conns[&conn].client.0 as usize].syn_retry();
                            ctx.schedule_in(retry, Ev::SynRetry(conn));
                        }
                        SynOutcome::Refused => self.refuse_syn(ctx, conn),
                    },
                    ServerModel::Event(e) | ServerModel::Staged(e) => match e.on_syn(conn) {
                        AcceptOutcome::Accept => {
                            // Handoff: the dedicated acceptor thread (a cap-1
                            // lane) accepts every connection. Sharded: the
                            // owning worker accepts on its own lane at the
                            // pinned-affinity cost — no acceptor serialization.
                            let (lane, service) = if e.mode() == AcceptMode::Sharded {
                                (
                                    self.worker_lane,
                                    self.cfg.costs.sharded_accept_service(cpus),
                                )
                            } else {
                                (
                                    self.acceptor_lane,
                                    self.cfg.costs.event_accept_service(cpus),
                                )
                            };
                            self.enqueue_cpu(ctx, lane, service, Job::Accept(conn));
                        }
                        AcceptOutcome::Dropped if refuse_on_full => self.refuse_syn(ctx, conn),
                        AcceptOutcome::Dropped => {
                            let service = self.cfg.costs.reject_service(cpus);
                            self.enqueue_cpu(ctx, self.kernel_lane, service, Job::Reject);
                            let retry =
                                self.clients[self.conns[&conn].client.0 as usize].syn_retry();
                            ctx.schedule_in(retry, Ev::SynRetry(conn));
                        }
                        AcceptOutcome::Refused => self.refuse_syn(ctx, conn),
                    },
                }
            }

            Ev::SynRetry(conn) => {
                let alive = self
                    .conns
                    .get(&conn)
                    .map(|r| matches!(r.net.state, netsim::ConnState::Connecting))
                    .unwrap_or(false);
                if !alive {
                    self.stale_events += 1;
                    return;
                }
                let link = self.conns[&conn].link;
                // The retransmitted SYN also burns handshake bytes.
                self.start_overhead_flow(ctx, link, self.cfg.connection_overhead_bytes * 0.25);
                let lat = self.latency(link);
                ctx.schedule_in(lat, Ev::SynAtServer(conn));
            }

            Ev::EstablishedAtClient(conn) => {
                let Some(rec) = self.conns.get_mut(&conn) else {
                    self.stale_events += 1;
                    return;
                };
                let cid = rec.client;
                if !matches!(rec.net.state, netsim::ConnState::Connecting)
                    || self.rt[cid.0 as usize].conn != Some(conn)
                {
                    self.stale_events += 1;
                    return;
                }
                rec.net.establish(ctx.now());
                let opened_ns = rec.net.opened_at.as_nanos();
                // Connect-wait span anchored where the client's figure-4
                // connection-time metric is anchored (read before
                // `on_connected` clears it).
                if self.obs.on() {
                    let start_ns = self.clients[cid.0 as usize]
                        .connecting_since()
                        .map(|t| t.as_nanos())
                        .unwrap_or(opened_ns);
                    self.obs.spans.push(Span {
                        conn: conn.0,
                        req: None,
                        stage: Stage::ConnectWait,
                        start_ns,
                        end_ns: ctx.now().as_nanos(),
                    });
                }
                self.refresh_busy(conn);
                let action = {
                    let client = &mut self.clients[cid.0 as usize];
                    client.on_connected(ctx.now(), &mut self.metrics)
                };
                self.run_client_action(ctx, cid, action);
            }

            Ev::ResetAtClient(conn) => {
                let Some(rec) = self.conns.get(&conn) else {
                    self.stale_events += 1;
                    return;
                };
                let cid = rec.client;
                if self.rt[cid.0 as usize].conn != Some(conn) {
                    self.stale_events += 1;
                    return;
                }
                self.disarm_client_timeout(ctx, cid);
                self.rt[cid.0 as usize].conn = None;
                if self.obs.on() {
                    self.obs
                        .requests
                        .finish_all(conn.0, ctx.now().as_nanos(), EndReason::Reset);
                }
                let action = {
                    let client = &mut self.clients[cid.0 as usize];
                    client.on_reset(ctx.now(), &self.files, &mut self.metrics)
                };
                self.maybe_gc(conn);
                self.run_client_action(ctx, cid, action);
            }

            Ev::RequestsAtServer(conn, files) => {
                enum Disposition {
                    Stale,
                    Reset(usize),
                    Deliver,
                }
                let disp = match self.conns.get_mut(&conn) {
                    None => Disposition::Stale,
                    Some(rec) => {
                        if rec.net.send_would_reset() {
                            Disposition::Reset(rec.link)
                        } else if !rec.net.is_established() {
                            Disposition::Stale
                        } else {
                            if let Some(evh) = rec.idle_ev.take() {
                                ctx.cancel(evh);
                            }
                            Disposition::Deliver
                        }
                    }
                };
                match disp {
                    Disposition::Stale => {
                        self.stale_events += 1;
                        return;
                    }
                    Disposition::Reset(link) => {
                        // Server idle-closed while the client was thinking:
                        // the request data hits a dead socket; RST goes back.
                        let lat = self.latency(link);
                        ctx.schedule_in(lat, Ev::ResetAtClient(conn));
                        return;
                    }
                    Disposition::Deliver => {}
                }
                match self.server {
                    ServerModel::Threaded(_) => {
                        self.conns
                            .get_mut(&conn)
                            .expect("checked above")
                            .req_queue
                            .extend(files);
                        self.pump_threaded(ctx, conn);
                    }
                    ServerModel::Event(ref e) => {
                        let workers = e.workers();
                        let cpus = self.cfg.num_cpus;
                        for f in files {
                            let reply_bytes = self.reply_wire_bytes(f);
                            let split =
                                self.cfg
                                    .costs
                                    .event_request_service(reply_bytes, workers, cpus);
                            let job = Job::EventParse { conn, reply_bytes };
                            self.enqueue_cpu(ctx, self.worker_lane, split.worker, job);
                        }
                    }
                    ServerModel::Staged(_) => {
                        let cpus = self.cfg.num_cpus;
                        for f in files {
                            let reply_bytes = self.reply_wire_bytes(f);
                            let split = self.cfg.costs.staged_request_service(reply_bytes, cpus);
                            let job = Job::StageParse { conn, reply_bytes };
                            self.enqueue_cpu(ctx, self.stage_parse_lane, split.worker, job);
                        }
                    }
                }
            }

            Ev::ClientThinkDone(cid) => {
                self.rt[cid.0 as usize].think_ev = None;
                let action = {
                    let client = &mut self.clients[cid.0 as usize];
                    client.on_think_done(ctx.now(), &mut self.metrics)
                };
                self.run_client_action(ctx, cid, action);
            }

            Ev::ClientTimeout(cid) => {
                if self.trace.wants(TraceLevel::Info) {
                    self.trace.emit(
                        ctx.now(),
                        TraceLevel::Info,
                        format!("client {} hits its socket timeout", cid.0),
                    );
                }
                self.rt[cid.0 as usize].timeout_ev = None;
                if let Some(conn) = self.rt[cid.0 as usize].conn.take() {
                    self.close_conn_client_side(ctx, conn, CloseKind::ClientAbort);
                    self.maybe_gc(conn);
                }
                let action = {
                    let client = &mut self.clients[cid.0 as usize];
                    client.on_timeout(ctx.now(), &self.files, &mut self.metrics)
                };
                self.run_client_action(ctx, cid, action);
            }

            Ev::CpuDone(token) => {
                let (done, started) = self.cpu.complete_info(ctx.now(), token);
                let job_service = done.service;
                let job = done.payload;
                if let Some((tok, finish, _svc)) = started {
                    ctx.schedule_at(finish, Ev::CpuDone(tok));
                }
                if let Some(c) = job.conn_ref() {
                    if let Some(rec) = self.conns.get_mut(&c) {
                        rec.pending_jobs = rec.pending_jobs.saturating_sub(1);
                    }
                    self.refresh_busy(c);
                }
                // The job that produced the reply just finished executing:
                // retroactively mark where its service slice began and where
                // the transfer (pipeline wait + flow) takes over. Marks are
                // monotone-clamped, so the breakdown invariants hold even
                // when same-connection jobs overlap on a multi-worker lane.
                if self.obs.on() && job.is_final_request_job() {
                    if let Some(c) = job.conn_ref() {
                        let end = ctx.now().as_nanos();
                        self.obs.requests.mark_next(
                            c.0,
                            Stage::Service,
                            end.saturating_sub(job_service.as_nanos()),
                        );
                        self.obs.requests.mark_next(c.0, Stage::Transfer, end);
                    }
                }
                match job {
                    Job::Accept(conn) => {
                        let alive = self
                            .conns
                            .get(&conn)
                            .map(|r| matches!(r.net.state, netsim::ConnState::Connecting))
                            .unwrap_or(false);
                        if let ServerModel::Event(e) | ServerModel::Staged(e) = &mut self.server {
                            if alive {
                                e.on_accepted(conn);
                            } else {
                                e.abandon_accept(conn);
                            }
                        }
                        if alive {
                            if self.obs.on() {
                                let end_ns = ctx.now().as_nanos();
                                self.obs.spans.push(Span {
                                    conn: conn.0,
                                    req: None,
                                    stage: Stage::Accept,
                                    start_ns: end_ns.saturating_sub(job_service.as_nanos()),
                                    end_ns,
                                });
                            }
                            let lat = self.latency(self.conns[&conn].link);
                            ctx.schedule_in(lat, Ev::EstablishedAtClient(conn));
                        } else {
                            // Client gave up while the accept was queued.
                            if matches!(self.server, ServerModel::Threaded(_)) {
                                // The thread bound at SYN time (if still
                                // marked) must be released.
                                self.free_thread(ctx, conn);
                            }
                            self.maybe_gc(conn);
                        }
                    }
                    Job::ThreadedRequest { conn, reply_bytes } => {
                        if let Some(rec) = self.conns.get_mut(&conn) {
                            rec.cpu_busy = false;
                            if rec.net.is_established() {
                                rec.pipeline.push_back(reply_bytes);
                                self.try_start_flow(ctx, conn);
                            }
                        }
                        self.maybe_gc(conn);
                    }
                    Job::EventParse { conn, reply_bytes } => {
                        let alive = self
                            .conns
                            .get(&conn)
                            .map(|r| r.net.is_established())
                            .unwrap_or(false);
                        if alive {
                            let workers = match &self.server {
                                ServerModel::Event(e) => e.workers(),
                                _ => unreachable!("EventParse on threaded server"),
                            };
                            let split = self.cfg.costs.event_request_service(
                                reply_bytes,
                                workers,
                                self.cfg.num_cpus,
                            );
                            self.enqueue_cpu(
                                ctx,
                                self.kernel_lane,
                                split.kernel,
                                Job::EventKernel { conn, reply_bytes },
                            );
                        } else {
                            self.maybe_gc(conn);
                        }
                    }
                    Job::EventKernel { conn, reply_bytes } => {
                        if let Some(rec) = self.conns.get_mut(&conn) {
                            if rec.net.is_established() {
                                rec.pipeline.push_back(reply_bytes);
                                self.try_start_flow(ctx, conn);
                            }
                        }
                        self.maybe_gc(conn);
                    }
                    Job::StageParse { conn, reply_bytes } => {
                        let alive = self
                            .conns
                            .get(&conn)
                            .map(|r| r.net.is_established())
                            .unwrap_or(false);
                        if alive {
                            let split = self
                                .cfg
                                .costs
                                .staged_request_service(reply_bytes, self.cfg.num_cpus);
                            self.enqueue_cpu(
                                ctx,
                                self.stage_send_lane,
                                split.kernel,
                                Job::StageSend { conn, reply_bytes },
                            );
                        } else {
                            self.maybe_gc(conn);
                        }
                    }
                    Job::StageSend { conn, reply_bytes } => {
                        if let Some(rec) = self.conns.get_mut(&conn) {
                            if rec.net.is_established() {
                                rec.pipeline.push_back(reply_bytes);
                                self.try_start_flow(ctx, conn);
                            }
                        }
                        self.maybe_gc(conn);
                    }
                    Job::Reject | Job::Stall => {}
                }
            }

            Ev::LinkTick(li) => {
                self.link_ev[li] = None;
                // Complete every flow due by now (ties are common when
                // several replies share the PS clock).
                loop {
                    match self.links[li].next_completion(ctx.now()) {
                        Some((t, _)) if t <= ctx.now() => {
                            let Some(fid) = self.links[li].complete_next(ctx.now()) else {
                                break;
                            };
                            let Some(flow) = self.flows.remove(&fid) else {
                                continue;
                            };
                            match flow.kind {
                                FlowKind::Overhead => {}
                                FlowKind::Reply { conn, body_bytes } => {
                                    self.on_reply_flow_done(ctx, conn, body_bytes);
                                }
                            }
                        }
                        _ => break,
                    }
                }
                self.resched_link(ctx, li);
            }

            Ev::ServerIdleClose(conn) => {
                let Some(rec) = self.conns.get_mut(&conn) else {
                    self.stale_events += 1;
                    return;
                };
                rec.idle_ev = None;
                if !rec.net.is_established() {
                    self.stale_events += 1;
                    return;
                }
                if self.trace.wants(TraceLevel::Info) {
                    self.trace.emit(
                        ctx.now(),
                        TraceLevel::Info,
                        format!("server idle-closes conn {} (will reset client)", conn.0),
                    );
                }
                // The connection sat idle for exactly the configured timeout
                // (the timer is cancelled on any activity).
                if self.obs.on() {
                    let end_ns = ctx.now().as_nanos();
                    let idle_ns = self
                        .cfg
                        .server_idle_timeout
                        .map(|d| d.as_nanos())
                        .unwrap_or(0);
                    self.obs.spans.push(Span {
                        conn: conn.0,
                        req: None,
                        stage: Stage::Idle,
                        start_ns: end_ns.saturating_sub(idle_ns),
                        end_ns,
                    });
                }
                rec.net.close(ctx.now(), CloseKind::ServerIdleTimeout);
                // The thread is reclaimed — the whole point of the policy.
                self.free_thread(ctx, conn);
                if let ServerModel::Event(e) | ServerModel::Staged(e) = &mut self.server {
                    e.deregister(conn);
                }
                self.refresh_busy(conn);
            }

            Ev::StallTick => {
                if let ServerModel::Threaded(t) = &self.server {
                    if t.pool_size() >= self.cfg.stall_threshold {
                        let cpus = self.cfg.num_cpus;
                        let span_ns = (self.cfg.stall_max - self.cfg.stall_min).as_nanos();
                        for _ in 0..cpus {
                            let jitter = if span_ns > 0 {
                                ctx.rng().below(span_ns)
                            } else {
                                0
                            };
                            let dur = self.cfg.stall_min + SimDuration::from_nanos(jitter);
                            self.enqueue_cpu(ctx, self.kernel_lane, dur, Job::Stall);
                        }
                        // Exponential inter-stall gap.
                        let mean = self.cfg.stall_mean_interval.as_secs_f64();
                        let gap = -ctx.rng().f64_open_left().ln() * mean;
                        ctx.schedule_in(SimDuration::from_secs_f64(gap), Ev::StallTick);
                    }
                }
            }

            Ev::RefusedAtClient(conn) => {
                let Some(rec) = self.conns.get(&conn) else {
                    self.stale_events += 1;
                    return;
                };
                let cid = rec.client;
                if self.rt[cid.0 as usize].conn != Some(conn)
                    || !matches!(rec.net.state, netsim::ConnState::Connecting)
                {
                    self.stale_events += 1;
                    return;
                }
                let opened_ns = rec.net.opened_at.as_nanos();
                self.conns
                    .get_mut(&conn)
                    .unwrap()
                    .net
                    .close(ctx.now(), CloseKind::ServerRefused);
                self.disarm_client_timeout(ctx, cid);
                self.rt[cid.0 as usize].conn = None;
                // The refused attempt shows up in the capture as a one-stage
                // request: the whole life of the attempt was connect-wait.
                if self.obs.on() {
                    let start_ns = self.clients[cid.0 as usize]
                        .connecting_since()
                        .map(|t| t.as_nanos())
                        .unwrap_or(opened_ns);
                    self.obs
                        .requests
                        .begin(conn.0, start_ns, Stage::ConnectWait);
                    self.obs
                        .requests
                        .finish_next(conn.0, ctx.now().as_nanos(), EndReason::Refused);
                }
                let action = {
                    let client = &mut self.clients[cid.0 as usize];
                    client.on_refused(ctx.now(), &self.files, &mut self.metrics)
                };
                self.refresh_busy(conn);
                self.maybe_gc(conn);
                self.run_client_action(ctx, cid, action);
            }

            Ev::DrainStart => {
                self.draining = true;
                match &mut self.server {
                    ServerModel::Threaded(t) => t.begin_drain(),
                    ServerModel::Event(e) | ServerModel::Staged(e) => e.begin_drain(),
                }
                if self.trace.wants(TraceLevel::Info) {
                    self.trace
                        .emit(ctx.now(), TraceLevel::Info, "drain begins".to_string());
                }
            }

            Ev::DrainDeadline => {
                // Whatever survived to the deadline is settled now: idle
                // established connections drained cleanly, in-flight ones
                // are cut (the client sees a reset), connecting ones are
                // refused.
                let ids: Vec<ConnId> = self.conns.keys().collect();
                for conn in ids {
                    let Some(rec) = self.conns.get(&conn) else {
                        continue;
                    };
                    let current = self.rt[rec.client.0 as usize].conn == Some(conn);
                    match rec.net.state {
                        netsim::ConnState::Connecting if current => {
                            self.refuse_syn(ctx, conn);
                        }
                        netsim::ConnState::Established => {
                            let in_flight = rec.pending_jobs > 0
                                || !rec.pipeline.is_empty()
                                || rec.active_flow.is_some()
                                || !rec.req_queue.is_empty()
                                || rec.cpu_busy;
                            let link = rec.link;
                            if in_flight {
                                self.drain_aborted += 1;
                                if self.obs.on() {
                                    self.obs.requests.finish_all(
                                        conn.0,
                                        ctx.now().as_nanos(),
                                        EndReason::Reset,
                                    );
                                }
                                let rec = self.conns.get_mut(&conn).unwrap();
                                rec.net.close(ctx.now(), CloseKind::ServerIdleTimeout);
                                rec.req_queue.clear();
                                rec.pipeline.clear();
                                if let Some(evh) = rec.idle_ev.take() {
                                    ctx.cancel(evh);
                                }
                                if let Some(fid) = rec.active_flow.take() {
                                    self.links[link].cancel_flow(ctx.now(), fid);
                                    self.flows.remove(&fid);
                                    self.resched_link(ctx, link);
                                }
                                self.free_thread(ctx, conn);
                                if let ServerModel::Event(e) | ServerModel::Staged(e) =
                                    &mut self.server
                                {
                                    e.deregister(conn);
                                }
                                let lat = self.latency(link);
                                ctx.schedule_in(lat, Ev::ResetAtClient(conn));
                            } else {
                                self.drain_drained += 1;
                                let rec = self.conns.get_mut(&conn).unwrap();
                                rec.net.close(ctx.now(), CloseKind::ServerIdleTimeout);
                                if let Some(evh) = rec.idle_ev.take() {
                                    ctx.cancel(evh);
                                }
                                self.free_thread(ctx, conn);
                                if let ServerModel::Event(e) | ServerModel::Staged(e) =
                                    &mut self.server
                                {
                                    e.deregister(conn);
                                }
                            }
                        }
                        _ => {}
                    }
                    self.refresh_busy(conn);
                }
                self.drain_report = Some(faults::DrainReport {
                    drained: self.drain_drained,
                    aborted: self.drain_aborted,
                });
            }

            Ev::MeasureStart => {
                self.metrics.set_measure_from(ctx.now());
            }

            Ev::ObsSample => {
                if self.obs.on() {
                    self.sample_gauges(ctx.now());
                    ctx.schedule_in(
                        SimDuration::from_nanos(self.obs.sample_period_ns()),
                        Ev::ObsSample,
                    );
                }
            }

            Ev::EndRun => {
                ctx.request_stop();
            }
        }
    }
}

impl Job {
    /// The connection this job references, for pending-job accounting.
    fn conn_ref(&self) -> Option<ConnId> {
        match *self {
            Job::Accept(c)
            | Job::ThreadedRequest { conn: c, .. }
            | Job::EventParse { conn: c, .. }
            | Job::EventKernel { conn: c, .. }
            | Job::StageParse { conn: c, .. }
            | Job::StageSend { conn: c, .. } => Some(c),
            Job::Reject | Job::Stall => None,
        }
    }

    /// True for the last CPU job of a request's server-side processing —
    /// the one whose completion pushes the reply into the pipeline. Its
    /// service slice is what the breakdown's `service` stage records.
    fn is_final_request_job(&self) -> bool {
        matches!(
            self,
            Job::ThreadedRequest { .. } | Job::EventKernel { .. } | Job::StageSend { .. }
        )
    }
}

/// Build the engine, schedule arrivals and control events, and run to the
/// configured horizon. Returns the finished testbed for result extraction.
pub fn run(cfg: TestbedConfig) -> Testbed {
    if let Err(e) = cfg.validate() {
        panic!("invalid testbed configuration: {e}");
    }
    let duration = cfg.duration;
    let warmup = cfg.warmup;
    let ramp = cfg.ramp;
    let n = cfg.num_clients;
    let seed = cfg.seed;
    let is_threaded = matches!(cfg.server, ServerArch::Threaded { .. });
    let stall_possible = is_threaded
        && match cfg.server {
            ServerArch::Threaded { pool } => pool >= cfg.stall_threshold,
            _ => false,
        };
    let drain_at = cfg.drain_at;
    let drain_deadline = cfg.drain_deadline;
    let testbed = Testbed::new(cfg);
    let obs_tick = testbed
        .obs
        .on()
        .then(|| SimDuration::from_nanos(testbed.obs.sample_period_ns()));
    let mut engine = Engine::new(testbed, seed ^ 0xD15C_0DE5);
    let mut arrival_rng = Rng::new(seed ^ 0xA55E_55ED);
    for i in 0..n {
        let at = SimTime::from_nanos(arrival_rng.below(ramp.as_nanos().max(1)));
        engine.schedule_at(at, Ev::ClientArrive(ClientId(i)));
    }
    if stall_possible {
        engine.schedule_at(SimTime::from_millis(500), Ev::StallTick);
    }
    if let Some(at) = drain_at {
        engine.schedule_at(SimTime::ZERO + at, Ev::DrainStart);
        engine.schedule_at(SimTime::ZERO + at + drain_deadline, Ev::DrainDeadline);
    }
    if let Some(period) = obs_tick {
        engine.schedule_at(SimTime::ZERO + period, Ev::ObsSample);
    }
    engine.schedule_at(SimTime::ZERO + warmup, Ev::MeasureStart);
    engine.schedule_at(SimTime::ZERO + duration, Ev::EndRun);
    let outcome = engine.run();
    assert_eq!(
        outcome,
        RunOutcome::Stopped,
        "run did not reach its horizon"
    );
    let engine_stats = engine.stats();
    let mut testbed = engine.into_model();
    testbed.engine_stats = engine_stats;
    testbed
}
