//! N-replica fleet testbed: replicated event-driven hosts behind the
//! fault-aware [`LoadBalancer`], all sharing one frontend link.
//!
//! This generalises the single-SUT [`testbed`](crate::testbed) into the
//! fleet the ROADMAP's million-client north star implies: N identical
//! event-driven replicas, an L7 balancer that owns the client side of every
//! connection, per-host fault injection ([`FleetFaultPlan`]), active health
//! probes with rise/fall hysteresis, and `drain_at`-style rolling restarts.
//!
//! The central accounting contract is the **zero-lost-reply ledger**: every
//! request a replica accepts is appended to its connection's `inflight`
//! list and removed only when the reply's flow completes at the client.
//! When a replica dies with replies still owed, the balancer either replays
//! the owed requests against a sibling — spending [`RetryBudget`] per
//! request — or, when the budget is dry or no sibling is routable, resets
//! the connection and counts every owed reply in `lost_replies`. Nothing is
//! silently dropped, so "zero lost replies" is a checked fact.

use crate::balancer::{HealthConfig, HealthState, LoadBalancer, Strategy};
use crate::conntable::ConnTable;
use clientsim::{Client, ClientAction, ClientConfig, ClientId, ClientMetrics};
use desim::{
    Ctx, Engine, EngineStats, EventId, IntMap, Model, Rng, RunOutcome, SimDuration, SimTime,
};
use faults::{DrainReport, FaultKind, FleetFaultPlan, RetryBudget};
use hostsim::{Cpu, CpuCosts, JobToken, LaneId};
use netsim::{CloseKind, ConnId, ConnState, Connection, FlowId, LinkConfig, PsLink};
use obs::{GaugeKind, GaugeLog, Obs};
use std::collections::VecDeque;
use workload::{FileId, FileSet, SurgeConfig};

/// Rolling-restart schedule: each host in index order is drained, held down
/// briefly (the restart), then re-admitted by the health prober.
#[derive(Debug, Clone, Copy)]
pub struct RollingRestart {
    /// When host 0's drain begins.
    pub start: SimDuration,
    /// Gap between consecutive hosts' drain starts. Must exceed
    /// `drain_timeout + restart_down` plus the prober's readmission time or
    /// two hosts are out of rotation at once.
    pub stagger: SimDuration,
    /// How long a draining host may hold its remaining connections before
    /// they are handed off (replayed) or cut.
    pub drain_timeout: SimDuration,
    /// How long the host is down between drain completion and restart.
    pub restart_down: SimDuration,
}

impl RollingRestart {
    /// Instant the last host is back up (before probe readmission).
    pub fn last_up(&self, num_hosts: usize) -> SimDuration {
        let h = num_hosts.saturating_sub(1) as u64;
        self.start + self.stagger * h + self.drain_timeout + self.restart_down
    }
}

/// Full description of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Replicated server hosts behind the balancer.
    pub num_hosts: usize,
    /// Event-driven workers per host.
    pub workers_per_host: usize,
    /// Processors per host.
    pub cpus_per_host: usize,
    pub strategy: Strategy,
    pub health: HealthConfig,
    /// The shared-bandwidth frontend link every reply crosses.
    pub frontend: LinkConfig,
    /// Per-host admission ceiling: a host at this many open connections
    /// refuses new ones (a passive health signal).
    pub max_conns_per_host: u64,
    /// Clients present from the ramp.
    pub num_clients: u32,
    /// Extra clients that arrive together at `surge_at` (surge failover
    /// scenario). Zero disables.
    pub surge_clients: u32,
    pub surge_at: Option<SimDuration>,
    pub client: ClientConfig,
    pub surge: SurgeConfig,
    pub costs: CpuCosts,
    pub duration: SimDuration,
    pub warmup: SimDuration,
    pub ramp: SimDuration,
    pub seed: u64,
    pub reply_header_bytes: u64,
    pub wire_overhead: f64,
    pub connection_overhead_bytes: f64,
    /// Relative service speed per host (1.0 = nominal). Empty means all
    /// hosts run at nominal speed; otherwise length must equal `num_hosts`
    /// (the split-capacity scenario).
    pub host_speed: Vec<f64>,
    /// Per-host fault schedule.
    pub fleet_plan: Option<FleetFaultPlan>,
    /// Balancer-initiated retries allowed for the whole run.
    pub retry_budget: u64,
    pub rolling_restart: Option<RollingRestart>,
    /// Gauge capture (fleet aggregates into the standard nine-kind schema,
    /// plus one [`GaugeLog`] per replica with the same sample schema).
    pub obs: Option<obs::ObsConfig>,
}

impl FleetConfig {
    /// A 3-host fleet at CI-friendly scale: 30 s run, ~120 clients, a
    /// gigabit frontend, default health checking and a generous (but
    /// finite) retry budget.
    pub fn baseline(num_hosts: usize, strategy: Strategy) -> FleetConfig {
        FleetConfig {
            num_hosts,
            workers_per_host: 2,
            cpus_per_host: 2,
            strategy,
            health: HealthConfig::default(),
            frontend: LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100)),
            max_conns_per_host: 300,
            num_clients: 120,
            surge_clients: 0,
            surge_at: None,
            client: ClientConfig::default(),
            surge: SurgeConfig::default(),
            costs: CpuCosts::default(),
            duration: SimDuration::from_secs(30),
            warmup: SimDuration::from_secs(8),
            ramp: SimDuration::from_secs(3),
            seed: 0xF1EE_7B3D,
            reply_header_bytes: 290,
            wire_overhead: 1.06,
            connection_overhead_bytes: 400.0,
            host_speed: Vec::new(),
            fleet_plan: None,
            retry_budget: 200,
            rolling_restart: None,
            obs: None,
        }
    }

    /// Clients present after the surge wave (sizing for client vectors).
    pub fn total_clients(&self) -> u32 {
        self.num_clients + self.surge_clients
    }

    /// Measurement window for throughput series.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    /// Check the configuration for contradictions. `run_fleet` enforces
    /// this.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_hosts == 0 {
            return Err("fleet has zero hosts".into());
        }
        if self.workers_per_host == 0 || self.cpus_per_host == 0 {
            return Err("hosts need at least one worker and one cpu".into());
        }
        if self.num_clients == 0 {
            return Err("no clients configured".into());
        }
        if self.warmup >= self.duration {
            return Err(format!(
                "warmup {} must be shorter than duration {}",
                self.warmup, self.duration
            ));
        }
        if !self.host_speed.is_empty() {
            if self.host_speed.len() != self.num_hosts {
                return Err(format!(
                    "host_speed has {} entries for {} hosts",
                    self.host_speed.len(),
                    self.num_hosts
                ));
            }
            if self.host_speed.iter().any(|&s| s <= 0.0) {
                return Err("host_speed entries must be positive".into());
            }
        }
        if self.surge_clients > 0 && self.surge_at.is_none() {
            return Err("surge_clients set without surge_at".into());
        }
        if let Some(at) = self.surge_at {
            if at >= self.duration {
                return Err(format!("surge_at {at} is past the run horizon"));
            }
        }
        if let Some(plan) = &self.fleet_plan {
            plan.validate(self.num_hosts, 1)
                .map_err(|e| format!("fleet plan '{}': {e}", plan.name))?;
        }
        if let Some(r) = &self.rolling_restart {
            if r.last_up(self.num_hosts) >= self.duration {
                return Err(format!(
                    "rolling restart ends at {} which is past the horizon {}",
                    r.last_up(self.num_hosts),
                    self.duration
                ));
            }
        }
        Ok(())
    }
}

/// Events of the fleet model.
#[derive(Debug)]
pub enum FEv {
    ClientArrive(ClientId),
    ClientConnect(ClientId),
    /// A SYN reached the balancer's frontend: route it.
    SynAtLb(ConnId),
    SynRetry(ConnId),
    EstablishedAtClient(ConnId),
    ResetAtClient(ConnId),
    RefusedAtClient(ConnId),
    /// A burst of pipelined requests reached the connection's current host.
    RequestsAtConn(ConnId, Vec<FileId>),
    ClientThinkDone(ClientId),
    ClientTimeout(ClientId),
    CpuDone { host: usize, token: JobToken },
    /// The earliest flow on the frontend link completes around now.
    LinkTick,
    /// Probe every host.
    ProbeRound,
    /// One host's probe answered (or its deadline passed).
    ProbeOutcome { host: usize, ok: bool },
    /// Fleet plan: fault `i` takes effect on its host.
    FaultBegin(usize),
    /// Fleet plan: fault `i` clears.
    FaultEnd(usize),
    /// Rolling restart: host begins draining.
    DrainStart(usize),
    /// Rolling restart: host's drain deadline — hand off or cut.
    DrainDeadline(usize),
    /// Rolling restart: host is back up (prober will readmit).
    RestartDone(usize),
    MeasureStart,
    ObsSample,
    EndRun,
}

/// CPU job payloads. Every connection-bound job carries the connection's
/// epoch at submission; a mismatch at completion means the connection was
/// evacuated in between and the result belongs to a dead replica.
#[derive(Debug)]
enum FJob {
    Accept { conn: ConnId, epoch: u32 },
    Parse { conn: ConnId, file: FileId, epoch: u32 },
    Send { conn: ConnId, file: FileId, epoch: u32 },
    Reject,
    Stall,
}

/// Per-client runtime bookkeeping (timers and the current connection).
#[derive(Debug, Default)]
struct ClientRt {
    conn: Option<ConnId>,
    timeout_ev: Option<EventId>,
    #[allow(dead_code)]
    think_ev: Option<EventId>,
    #[allow(dead_code)]
    connect_ev: Option<EventId>,
}

/// What a frontend flow is carrying.
#[derive(Debug)]
enum FlowKind {
    Reply {
        conn: ConnId,
        file: FileId,
        body_bytes: u64,
    },
    Overhead,
}

/// Per-connection record. The balancer owns the client side: `host` is the
/// replica currently serving it and may change over the connection's life
/// (failover, drain handoff) without the client noticing.
#[derive(Debug)]
struct FConn {
    client: ClientId,
    net: Connection,
    host: Option<usize>,
    /// Bumped on every evacuation/close; stale CPU completions are dropped.
    epoch: u32,
    /// The zero-lost ledger: accepted requests whose replies have not yet
    /// been delivered to the client.
    inflight: Vec<FileId>,
    /// Replies computed and ready to send, in completion order.
    pipeline: VecDeque<(FileId, u64)>,
    active_flow: Option<FlowId>,
    /// Reply flow frozen by a host NIC outage: (file, body, bytes left).
    paused: Option<(FileId, u64, f64)>,
    /// Current-epoch CPU jobs in flight for this connection.
    pending_jobs: u32,
}

/// One replicated server host: its own CPU lanes plus per-host fault state.
#[derive(Debug)]
struct Replica {
    cpu: Cpu<FJob>,
    worker_lane: LaneId,
    kernel_lane: LaneId,
    /// Relative service speed (split-capacity scenario).
    speed: f64,
    /// Service inflation from a scoped link-degrade (brownout).
    slow_factor: f64,
    added_latency: SimDuration,
    nic_down: bool,
    stalled_until: SimTime,
    refuse_all: bool,
    down: bool,
    loris_clients: u32,
    never_reads: u32,
    /// Replies delivered from this host inside the measurement window.
    replies: u64,
}

impl Replica {
    fn new(cfg: &FleetConfig, speed: f64) -> Replica {
        let mut cpu = Cpu::new(cfg.cpus_per_host);
        let kernel_lane = cpu.add_lane(cfg.cpus_per_host);
        let worker_lane = cpu.add_lane(cfg.workers_per_host);
        Replica {
            cpu,
            worker_lane,
            kernel_lane,
            speed,
            slow_factor: 1.0,
            added_latency: SimDuration::ZERO,
            nic_down: false,
            stalled_until: SimTime::ZERO,
            refuse_all: false,
            down: false,
            loris_clients: 0,
            never_reads: 0,
            replies: 0,
        }
    }

    /// Cannot currently answer SYNs or probes.
    fn unreachable_at(&self, now: SimTime) -> bool {
        self.down || self.nic_down || now < self.stalled_until
    }
}

/// What became of one evacuated connection.
enum Evac {
    /// Idle: moved to a sibling for free.
    Rehomed,
    /// Owed replies replayed on a sibling (budget spent per reply).
    Replayed(u64),
    /// Reset; any owed replies were charged to `lost_replies`.
    Reset,
    /// Still connecting: accept resubmitted on a sibling.
    Reaccepted,
    /// Still connecting and no sibling routable: refused.
    Refused,
    /// Record already closed/absent.
    Gone,
}

/// The complete fleet rig.
pub struct FleetTestbed {
    cfg: FleetConfig,
    files: FileSet,
    clients: Vec<Client>,
    rt: Vec<ClientRt>,
    pub metrics: ClientMetrics,
    conns: ConnTable<FConn>,
    flows: IntMap<FlowId, FlowKind>,
    next_flow: u64,
    frontend: PsLink,
    link_ev: Option<EventId>,
    replicas: Vec<Replica>,
    pub lb: LoadBalancer,
    pub budget: RetryBudget,
    /// Replies the fleet owed and failed to deliver (the gated number).
    pub lost_replies: u64,
    /// Owed replies dropped because the *client* abandoned the connection
    /// (socket timeout) — reported separately from fleet-caused loss.
    pub timeout_abandoned: u64,
    /// Balancer-initiated request replays (budget-charged).
    pub failover_retries: u64,
    /// Balancer-initiated connect redirects after a refusal (budget-charged).
    pub connect_redirects: u64,
    /// Idle connections moved off a dead/draining host for free.
    pub conns_rehomed: u64,
    /// Drain handoffs of idle connections (rolling restart).
    pub drain_handoffs: u64,
    /// Draining connections whose owed replies were replayed at the
    /// deadline.
    pub drain_replayed: u64,
    /// Draining connections cut at the deadline.
    pub drain_aborted: u64,
    pub restarts_completed: u64,
    pub drain_report: Option<DrainReport>,
    pub syns_refused: u64,
    pub stale_events: u64,
    /// Health transitions: (t_ns, host, new state).
    pub transitions: Vec<(u64, usize, HealthState)>,
    pub obs: Obs,
    /// Per-replica gauges, same sample schema as the aggregate log.
    pub host_gauges: Vec<GaugeLog>,
    /// The engine's counters at the end of [`run_fleet`] (zero before).
    pub engine_stats: EngineStats,
    measuring: bool,
}

impl FleetTestbed {
    pub fn new(cfg: FleetConfig) -> FleetTestbed {
        let mut build_rng = Rng::new(cfg.seed ^ 0x5EED_F11E);
        let files = FileSet::build(&cfg.surge, &mut build_rng);
        let client_root = Rng::new(cfg.seed ^ 0xC11E_17A5);
        let total = cfg.total_clients();
        let clients: Vec<Client> = (0..total)
            .map(|i| Client::new(ClientId(i), cfg.client.clone(), &client_root))
            .collect();
        let rt = (0..total).map(|_| ClientRt::default()).collect();
        let replicas: Vec<Replica> = (0..cfg.num_hosts)
            .map(|h| {
                let speed = cfg.host_speed.get(h).copied().unwrap_or(1.0);
                Replica::new(&cfg, speed)
            })
            .collect();
        let lb = LoadBalancer::new(cfg.num_hosts, cfg.strategy, cfg.health);
        let budget = RetryBudget::new(cfg.retry_budget);
        let metrics = ClientMetrics::new(cfg.window());
        let obs = match &cfg.obs {
            Some(c) => Obs::new(c),
            None => Obs::disabled(),
        };
        let per_host_cap = cfg
            .obs
            .as_ref()
            .map(|c| c.gauge_capacity / cfg.num_hosts.max(1))
            .unwrap_or(0);
        let host_gauges = (0..cfg.num_hosts)
            .map(|_| GaugeLog::bounded(per_host_cap))
            .collect();
        let frontend = PsLink::new(cfg.frontend);
        FleetTestbed {
            cfg,
            files,
            clients,
            rt,
            metrics,
            conns: ConnTable::new(),
            flows: IntMap::default(),
            next_flow: 0,
            frontend,
            link_ev: None,
            replicas,
            lb,
            budget,
            lost_replies: 0,
            timeout_abandoned: 0,
            failover_retries: 0,
            connect_redirects: 0,
            conns_rehomed: 0,
            drain_handoffs: 0,
            drain_replayed: 0,
            drain_aborted: 0,
            restarts_completed: 0,
            drain_report: None,
            syns_refused: 0,
            stale_events: 0,
            transitions: Vec::new(),
            obs,
            host_gauges,
            engine_stats: EngineStats::default(),
            measuring: false,
        }
    }

    pub fn files(&self) -> &FileSet {
        &self.files
    }

    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Measured replies delivered per host.
    pub fn host_replies(&self) -> Vec<u64> {
        self.replicas.iter().map(|r| r.replies).collect()
    }

    // ------------------------------------------------------------------
    // helpers
    // ------------------------------------------------------------------

    fn frontend_latency(&self) -> SimDuration {
        self.frontend.config().latency
    }

    /// Client-to-host one-way latency (frontend plus any scoped jitter).
    fn latency_of(&self, host: Option<usize>) -> SimDuration {
        let base = self.frontend_latency();
        match host {
            Some(h) => base + self.replicas[h].added_latency,
            None => base,
        }
    }

    fn reply_wire_bytes(&self, file: FileId) -> u64 {
        let body = self.files.size_of(file) + self.cfg.reply_header_bytes;
        (body as f64 * self.cfg.wire_overhead) as u64
    }

    /// Service inflated by the host's brownout factor and speed grade.
    fn scaled(&self, host: usize, d: SimDuration) -> SimDuration {
        let r = &self.replicas[host];
        let f = r.slow_factor / r.speed;
        if (f - 1.0).abs() < 1e-12 {
            d
        } else {
            SimDuration::from_nanos((d.as_nanos() as f64 * f).round() as u64)
        }
    }

    /// Record a health transition, if one happened.
    fn note(&mut self, now: SimTime, host: usize, st: Option<HealthState>) {
        if let Some(st) = st {
            self.transitions.push((now.as_nanos(), host, st));
        }
    }

    fn arm_client_timeout(&mut self, ctx: &mut Ctx<'_, FEv>, cid: ClientId) {
        if let Some(old) = self.rt[cid.0 as usize].timeout_ev.take() {
            ctx.cancel(old);
        }
        let d = self.clients[cid.0 as usize].timeout();
        self.rt[cid.0 as usize].timeout_ev = Some(ctx.schedule_in(d, FEv::ClientTimeout(cid)));
    }

    fn disarm_client_timeout(&mut self, ctx: &mut Ctx<'_, FEv>, cid: ClientId) {
        if let Some(ev) = self.rt[cid.0 as usize].timeout_ev.take() {
            ctx.cancel(ev);
        }
    }

    fn resched_link(&mut self, ctx: &mut Ctx<'_, FEv>) {
        if let Some(old) = self.link_ev.take() {
            ctx.cancel(old);
        }
        if let Some((t, _)) = self.frontend.next_completion(ctx.now()) {
            self.link_ev = Some(ctx.schedule_at(t.max(ctx.now()), FEv::LinkTick));
        }
    }

    /// Enqueue a CPU job on `host` and schedule completions for whatever
    /// started. Connection-bound jobs bump the pending counter.
    fn enqueue_job(
        &mut self,
        ctx: &mut Ctx<'_, FEv>,
        host: usize,
        lane: LaneId,
        service: SimDuration,
        job: FJob,
    ) {
        if let FJob::Accept { conn, .. } | FJob::Parse { conn, .. } | FJob::Send { conn, .. } =
            job
        {
            if let Some(rec) = self.conns.get_mut(&conn) {
                rec.pending_jobs += 1;
            }
        }
        let started = self.replicas[host].cpu.submit(ctx.now(), lane, service, job);
        if let Some((token, finish, _service)) = started {
            ctx.schedule_at(finish, FEv::CpuDone { host, token });
        }
    }

    /// The balancer answers a connecting client with an RST.
    fn refuse_syn(&mut self, ctx: &mut Ctx<'_, FEv>, conn: ConnId) {
        self.syns_refused += 1;
        let lat = self.frontend_latency();
        ctx.schedule_in(lat, FEv::RefusedAtClient(conn));
    }

    /// Open a new connection for `cid` and fire its SYN at the balancer.
    fn do_connect(&mut self, ctx: &mut Ctx<'_, FEv>, cid: ClientId) {
        let now = ctx.now();
        let conn = self.conns.insert_with(|conn| FConn {
            client: cid,
            net: Connection::open(conn, now),
            host: None,
            epoch: 0,
            inflight: Vec::new(),
            pipeline: VecDeque::new(),
            active_flow: None,
            paused: None,
            pending_jobs: 0,
        });
        self.rt[cid.0 as usize].conn = Some(conn);
        self.arm_client_timeout(ctx, cid);
        self.start_overhead_flow(ctx, self.cfg.connection_overhead_bytes);
        let lat = self.frontend_latency();
        ctx.schedule_in(lat, FEv::SynAtLb(conn));
    }

    fn start_overhead_flow(&mut self, ctx: &mut Ctx<'_, FEv>, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        self.next_flow += 1;
        let fid = FlowId(self.next_flow);
        self.flows.insert(fid, FlowKind::Overhead);
        self.frontend.start_flow(ctx.now(), fid, bytes);
        self.resched_link(ctx);
    }

    /// Start the next queued reply flow on `conn`, if idle and allowed.
    fn try_start_flow(&mut self, ctx: &mut Ctx<'_, FEv>, conn: ConnId) {
        let Some(rec) = self.conns.get_mut(&conn) else {
            return;
        };
        if rec.active_flow.is_some() || rec.paused.is_some() || !rec.net.is_established() {
            return;
        }
        let Some(h) = rec.host else {
            return;
        };
        let host = &self.replicas[h];
        if host.nic_down {
            return;
        }
        if host.never_reads > 0 && rec.client.0 < host.never_reads {
            return;
        }
        let Some((file, bytes)) = rec.pipeline.pop_front() else {
            return;
        };
        self.next_flow += 1;
        let fid = FlowId(self.next_flow);
        rec.active_flow = Some(fid);
        self.flows.insert(
            fid,
            FlowKind::Reply {
                conn,
                file,
                body_bytes: bytes,
            },
        );
        self.frontend.start_flow(ctx.now(), fid, bytes as f64);
        self.resched_link(ctx);
    }

    /// Tear down a connection from the client side (abort or clean close).
    fn close_conn_client_side(&mut self, ctx: &mut Ctx<'_, FEv>, conn: ConnId, kind: CloseKind) {
        let now = ctx.now();
        let Some(rec) = self.conns.get_mut(&conn) else {
            return;
        };
        let owed = rec.inflight.len() as u64;
        rec.net.close(now, kind);
        rec.inflight.clear();
        rec.pipeline.clear();
        rec.paused = None;
        rec.epoch += 1;
        rec.pending_jobs = 0;
        let host = rec.host.take();
        let active = rec.active_flow.take();
        if let Some(fid) = active {
            self.frontend.cancel_flow(now, fid);
            self.flows.remove(&fid);
            self.resched_link(ctx);
        }
        if let Some(h) = host {
            self.lb.on_conn_close(h);
            if kind == CloseKind::ClientAbort {
                // A socket-timeout expiry is a passive health signal, and
                // any owed replies die with the client's interest in them —
                // reported apart from fleet-caused loss.
                self.timeout_abandoned += owed;
                let t = self.lb.passive_failure(h);
                self.note(now, h, t);
            }
        }
        self.start_overhead_flow(ctx, self.cfg.connection_overhead_bytes * 0.5);
        self.maybe_gc(conn);
    }

    /// Server-side reset: close the record and tell the client.
    fn reset_conn(&mut self, ctx: &mut Ctx<'_, FEv>, conn: ConnId) {
        let lat = self.frontend_latency();
        let Some(rec) = self.conns.get_mut(&conn) else {
            return;
        };
        rec.net.close(ctx.now(), CloseKind::ServerIdleTimeout);
        rec.inflight.clear();
        rec.pipeline.clear();
        rec.paused = None;
        rec.epoch += 1;
        rec.pending_jobs = 0;
        if let Some(h) = rec.host.take() {
            self.lb.on_conn_close(h);
        }
        let active = self.conns.get_mut(&conn).and_then(|r| r.active_flow.take());
        if let Some(fid) = active {
            self.frontend.cancel_flow(ctx.now(), fid);
            self.flows.remove(&fid);
            self.resched_link(ctx);
        }
        ctx.schedule_in(lat, FEv::ResetAtClient(conn));
    }

    /// Drop the record once nothing references it any more.
    fn maybe_gc(&mut self, conn: ConnId) {
        let Some(rec) = self.conns.get(&conn) else {
            return;
        };
        let closed = matches!(rec.net.state, ConnState::Closed(_));
        let current = self.rt[rec.client.0 as usize].conn == Some(conn);
        if closed && rec.pending_jobs == 0 && rec.active_flow.is_none() && !current {
            self.conns.remove(&conn);
        }
    }

    /// All open connections currently homed on `host`, in id order so
    /// evacuation (and therefore budget spend) replays deterministically.
    fn conns_on(&self, host: usize) -> Vec<ConnId> {
        let mut v: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, r)| r.host == Some(host))
            .map(|(c, _)| c)
            .collect();
        v.sort();
        v
    }

    /// A routable, reachable sibling to take over work from `from`.
    fn sibling_for(&mut self, now: SimTime, from: usize) -> Option<usize> {
        let sib = self.lb.pick_failover(from)?;
        (!self.replicas[sib].unreachable_at(now) && !self.replicas[sib].refuse_all)
            .then_some(sib)
    }

    /// Move one connection off `from` (dead or past its drain deadline).
    /// Established connections with owed replies are replayed on a sibling
    /// under the retry budget; otherwise they are reset and the owed count
    /// is charged to `lost_replies`.
    fn evacuate_conn(&mut self, ctx: &mut Ctx<'_, FEv>, conn: ConnId, from: usize) -> Evac {
        let now = ctx.now();
        let state = match self.conns.get(&conn) {
            Some(rec) if rec.host == Some(from) => rec.net.state,
            _ => return Evac::Gone,
        };
        match state {
            ConnState::Connecting => {
                let sib = self.sibling_for(now, from);
                let rec = self.conns.get_mut(&conn).expect("checked");
                rec.epoch += 1;
                rec.pending_jobs = 0;
                match sib {
                    Some(s) => {
                        rec.host = Some(s);
                        let epoch = rec.epoch;
                        self.lb.on_conn_moved(from, s);
                        let service = self
                            .scaled(s, self.cfg.costs.sharded_accept_service(self.cfg.cpus_per_host));
                        let lane = self.replicas[s].worker_lane;
                        self.enqueue_job(ctx, s, lane, service, FJob::Accept { conn, epoch });
                        Evac::Reaccepted
                    }
                    None => {
                        rec.host = None;
                        self.lb.on_conn_close(from);
                        self.refuse_syn(ctx, conn);
                        Evac::Refused
                    }
                }
            }
            ConnState::Established => {
                // Strip the dead replica's in-flight state first.
                let (owed, files) = {
                    let rec = self.conns.get_mut(&conn).expect("checked");
                    rec.epoch += 1;
                    rec.pending_jobs = 0;
                    rec.pipeline.clear();
                    rec.paused = None;
                    if let Some(fid) = rec.active_flow.take() {
                        self.frontend.cancel_flow(now, fid);
                        self.flows.remove(&fid);
                    }
                    (rec.inflight.len() as u64, rec.inflight.clone())
                };
                self.resched_link(ctx);
                let sib = self.sibling_for(now, from);
                if owed == 0 {
                    match sib {
                        Some(s) => {
                            self.conns.get_mut(&conn).expect("checked").host = Some(s);
                            self.lb.on_conn_moved(from, s);
                            Evac::Rehomed
                        }
                        None => {
                            self.reset_conn(ctx, conn);
                            Evac::Reset
                        }
                    }
                } else if let Some(s) = sib.filter(|_| self.budget.remaining() >= owed) {
                    for _ in 0..owed {
                        let took = self.budget.try_take();
                        debug_assert!(took, "budget checked above");
                    }
                    let epoch = {
                        let rec = self.conns.get_mut(&conn).expect("checked");
                        rec.host = Some(s);
                        rec.epoch
                    };
                    self.lb.on_conn_moved(from, s);
                    // Replay every owed request on the sibling from scratch.
                    for file in files {
                        let rb = self.reply_wire_bytes(file);
                        let split = self.cfg.costs.event_request_service(
                            rb,
                            self.cfg.workers_per_host,
                            self.cfg.cpus_per_host,
                        );
                        let service = self.scaled(s, split.worker);
                        let lane = self.replicas[s].worker_lane;
                        self.enqueue_job(ctx, s, lane, service, FJob::Parse { conn, file, epoch });
                    }
                    Evac::Replayed(owed)
                } else {
                    self.lost_replies += owed;
                    self.reset_conn(ctx, conn);
                    Evac::Reset
                }
            }
            ConnState::Closed(_) => Evac::Gone,
        }
    }

    /// A whole replica died: eject it and evacuate everything it was
    /// serving.
    fn host_died(&mut self, ctx: &mut Ctx<'_, FEv>, host: usize) {
        self.replicas[host].down = true;
        let t = self.lb.force_eject(host);
        self.note(ctx.now(), host, t);
        for conn in self.conns_on(host) {
            match self.evacuate_conn(ctx, conn, host) {
                Evac::Rehomed => self.conns_rehomed += 1,
                Evac::Replayed(k) => self.failover_retries += k,
                Evac::Reset | Evac::Reaccepted | Evac::Refused | Evac::Gone => {}
            }
        }
    }

    /// Quiesce-point handoff during a rolling restart: an idle connection
    /// on a draining host moves to a sibling immediately.
    fn maybe_drain_rehome(&mut self, now: SimTime, conn: ConnId) {
        let Some(rec) = self.conns.get(&conn) else {
            return;
        };
        let Some(h) = rec.host else {
            return;
        };
        if self.lb.state(h) != HealthState::Draining || !rec.net.is_established() {
            return;
        }
        let idle = rec.inflight.is_empty()
            && rec.pipeline.is_empty()
            && rec.pending_jobs == 0
            && rec.active_flow.is_none()
            && rec.paused.is_none();
        if !idle {
            return;
        }
        if let Some(s) = self.sibling_for(now, h) {
            self.conns.get_mut(&conn).expect("checked").host = Some(s);
            self.lb.on_conn_moved(h, s);
            self.drain_handoffs += 1;
        }
    }

    /// Execute a client action returned by the state machine.
    fn run_client_action(&mut self, ctx: &mut Ctx<'_, FEv>, cid: ClientId, action: ClientAction) {
        match action {
            ClientAction::Connect => self.do_connect(ctx, cid),
            ClientAction::ConnectAfter(d) => {
                let ev = ctx.schedule_in(d, FEv::ClientConnect(cid));
                self.rt[cid.0 as usize].connect_ev = Some(ev);
            }
            ClientAction::SendBurst(files) => {
                let conn = self.rt[cid.0 as usize]
                    .conn
                    .expect("burst with no connection");
                self.arm_client_timeout(ctx, cid);
                let host = self.conns.get(&conn).and_then(|r| r.host);
                let mut lat = self.latency_of(host);
                // Scoped slow-loris: afflicted clients trickle their bytes
                // to this host, so the burst takes seconds to arrive fully.
                if let Some(h) = host {
                    let loris = self.replicas[h].loris_clients;
                    if loris > 0 && cid.0 < loris {
                        lat += SimDuration::from_millis(2_000 + (cid.0 as u64 % 7) * 250);
                    }
                }
                ctx.schedule_in(lat, FEv::RequestsAtConn(conn, files));
            }
            ClientAction::Think(d) => {
                let ev = ctx.schedule_in(d, FEv::ClientThinkDone(cid));
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

    /// One periodic gauge sweep: fleet aggregates into the standard schema
    /// plus per-replica logs with the same sample layout.
    fn sample_gauges(&mut self, now: SimTime) {
        let t = now.as_nanos();
        let queued: usize = self.replicas.iter().map(|r| r.cpu.queued_total()).sum();
        let running: usize = self.replicas.iter().map(|r| r.cpu.running_total()).sum();
        let lg = self.frontend.gauges();
        let g = &mut self.obs.gauges;
        g.push(t, GaugeKind::RunQueueDepth, queued as f64);
        g.push(t, GaugeKind::CpuRunning, running as f64);
        g.push(t, GaugeKind::OpenConns, self.conns.len() as f64);
        g.push(t, GaugeKind::LinkUtilisation, lg.utilisation);
        g.push(t, GaugeKind::ActiveFlows, lg.active_flows as f64);
        for (h, r) in self.replicas.iter().enumerate() {
            let hg = &mut self.host_gauges[h];
            hg.push(t, GaugeKind::OpenConns, self.lb.open_conns(h) as f64);
            hg.push(t, GaugeKind::RunQueueDepth, r.cpu.queued_total() as f64);
            hg.push(t, GaugeKind::CpuRunning, r.cpu.running_total() as f64);
        }
    }

    /// Handle a completed reply flow: pop the ledger, deliver to the
    /// client, and continue this connection's output.
    fn on_reply_flow_done(
        &mut self,
        ctx: &mut Ctx<'_, FEv>,
        conn: ConnId,
        file: FileId,
        body_bytes: u64,
    ) {
        let Some(rec) = self.conns.get_mut(&conn) else {
            return;
        };
        rec.active_flow = None;
        rec.net.replies += 1;
        if let Some(pos) = rec.inflight.iter().position(|&f| f == file) {
            rec.inflight.remove(pos);
        }
        let cid = rec.client;
        let host = rec.host;
        if let Some(h) = host {
            if self.measuring {
                self.replicas[h].replies += 1;
            }
            self.lb.passive_success(h);
        }
        self.disarm_client_timeout(ctx, cid);
        let action = {
            let client = &mut self.clients[cid.0 as usize];
            client.on_reply(ctx.now(), body_bytes, &self.files, &mut self.metrics)
        };
        match action {
            None => self.arm_client_timeout(ctx, cid),
            Some(a) => self.run_client_action(ctx, cid, a),
        }
        self.try_start_flow(ctx, conn);
        self.maybe_drain_rehome(ctx.now(), conn);
        self.maybe_gc(conn);
    }

    // ------------------------------------------------------------------
    // event handlers
    // ------------------------------------------------------------------

    /// A SYN reached the balancer: pick a host, spend a redirect on a
    /// refusing pick, or answer with a refusal.
    fn on_syn_at_lb(&mut self, ctx: &mut Ctx<'_, FEv>, conn: ConnId) {
        let now = ctx.now();
        let cid = match self.conns.get(&conn) {
            Some(rec)
                if matches!(rec.net.state, ConnState::Connecting)
                    && self.rt[rec.client.0 as usize].conn == Some(conn) =>
            {
                rec.client
            }
            _ => {
                self.stale_events += 1;
                return;
            }
        };
        let key = cid.0 as u64;
        let Some(h) = self.lb.pick(key) else {
            // No routable host at all: refuse at the balancer.
            self.refuse_syn(ctx, conn);
            return;
        };
        if self.replicas[h].unreachable_at(now) {
            // The balancer routed to a host that cannot answer — a passive
            // failure signal. The client's SYN retransmit re-picks.
            let t = self.lb.passive_failure(h);
            self.note(now, h, t);
            let d = self.clients[cid.0 as usize].syn_retry();
            ctx.schedule_in(d, FEv::SynRetry(conn));
            return;
        }
        let refusing = self.replicas[h].refuse_all
            || self.lb.open_conns(h) >= self.cfg.max_conns_per_host;
        let target = if refusing {
            let t = self.lb.passive_failure(h);
            self.note(now, h, t);
            // One budget-charged redirect to the least-loaded sibling.
            let sib = self.lb.pick_failover(h).filter(|&s| {
                !self.replicas[s].unreachable_at(now)
                    && !self.replicas[s].refuse_all
                    && self.lb.open_conns(s) < self.cfg.max_conns_per_host
            });
            match sib {
                Some(s) if self.budget.try_take() => {
                    self.connect_redirects += 1;
                    Some(s)
                }
                _ => None,
            }
        } else {
            Some(h)
        };
        match target {
            Some(t) => {
                let rec = self.conns.get_mut(&conn).expect("checked above");
                rec.host = Some(t);
                let epoch = rec.epoch;
                self.lb.on_conn_open(t);
                let service = self
                    .scaled(t, self.cfg.costs.sharded_accept_service(self.cfg.cpus_per_host));
                let lane = self.replicas[t].worker_lane;
                self.enqueue_job(ctx, t, lane, service, FJob::Accept { conn, epoch });
            }
            None => self.refuse_syn(ctx, conn),
        }
    }

    fn on_cpu_done(&mut self, ctx: &mut Ctx<'_, FEv>, host: usize, token: JobToken) {
        let (done, started) = self.replicas[host].cpu.complete_info(ctx.now(), token);
        if let Some((t, finish, _service)) = started {
            ctx.schedule_at(finish, FEv::CpuDone { host, token: t });
        }
        match done.payload {
            FJob::Accept { conn, epoch } => {
                let fresh = self.conns.get(&conn).is_some_and(|r| {
                    r.epoch == epoch
                        && r.host == Some(host)
                        && matches!(r.net.state, ConnState::Connecting)
                });
                if fresh {
                    let rec = self.conns.get_mut(&conn).expect("checked");
                    rec.pending_jobs = rec.pending_jobs.saturating_sub(1);
                    let lat = self.latency_of(Some(host));
                    ctx.schedule_in(lat, FEv::EstablishedAtClient(conn));
                }
                self.maybe_gc(conn);
            }
            FJob::Parse { conn, file, epoch } => {
                let fresh = self.conns.get(&conn).is_some_and(|r| {
                    r.epoch == epoch && r.host == Some(host) && r.net.is_established()
                });
                if fresh {
                    let rec = self.conns.get_mut(&conn).expect("checked");
                    rec.pending_jobs = rec.pending_jobs.saturating_sub(1);
                    let rb = self.reply_wire_bytes(file);
                    let split = self.cfg.costs.event_request_service(
                        rb,
                        self.cfg.workers_per_host,
                        self.cfg.cpus_per_host,
                    );
                    let service = self.scaled(host, split.kernel);
                    let lane = self.replicas[host].kernel_lane;
                    self.enqueue_job(ctx, host, lane, service, FJob::Send { conn, file, epoch });
                }
                self.maybe_gc(conn);
            }
            FJob::Send { conn, file, epoch } => {
                let fresh = self.conns.get(&conn).is_some_and(|r| {
                    r.epoch == epoch && r.host == Some(host) && r.net.is_established()
                });
                if fresh {
                    let bytes = self.reply_wire_bytes(file);
                    let rec = self.conns.get_mut(&conn).expect("checked");
                    rec.pending_jobs = rec.pending_jobs.saturating_sub(1);
                    rec.pipeline.push_back((file, bytes));
                    self.try_start_flow(ctx, conn);
                }
                self.maybe_gc(conn);
            }
            FJob::Reject | FJob::Stall => {}
        }
    }

    fn on_link_tick(&mut self, ctx: &mut Ctx<'_, FEv>) {
        self.link_ev = None;
        loop {
            match self.frontend.next_completion(ctx.now()) {
                Some((t, _)) if t <= ctx.now() => {
                    let fid = self.frontend.complete_next(ctx.now()).expect("due flow");
                    match self.flows.remove(&fid) {
                        Some(FlowKind::Reply {
                            conn,
                            file,
                            body_bytes,
                        }) => self.on_reply_flow_done(ctx, conn, file, body_bytes),
                        Some(FlowKind::Overhead) | None => {}
                    }
                }
                _ => break,
            }
        }
        self.resched_link(ctx);
    }

    fn on_fault_begin(&mut self, ctx: &mut Ctx<'_, FEv>, idx: usize) {
        let now = ctx.now();
        let hf = self.cfg.fleet_plan.as_ref().expect("no fleet plan").faults[idx];
        let h = hf.host;
        match hf.event.kind {
            FaultKind::LinkOutage { .. } => {
                // The host's NIC goes dark: freeze every reply mid-flight.
                self.replicas[h].nic_down = true;
                for conn in self.conns_on(h) {
                    let rec = self.conns.get_mut(&conn).expect("listed");
                    if let Some(fid) = rec.active_flow.take() {
                        let remaining = self.frontend.cancel_flow(now, fid).unwrap_or(0.0);
                        if let Some(FlowKind::Reply {
                            file, body_bytes, ..
                        }) = self.flows.remove(&fid)
                        {
                            rec.paused = Some((file, body_bytes, remaining));
                        }
                    }
                }
                self.resched_link(ctx);
            }
            FaultKind::LinkDegrade {
                capacity_factor, ..
            } => {
                self.replicas[h].slow_factor = 1.0 / capacity_factor.max(1e-6);
            }
            FaultKind::LatencyJitter { added_ns, .. } => {
                self.replicas[h].added_latency = SimDuration::from_nanos(added_ns);
            }
            FaultKind::WorkerCrash { fraction, .. } => {
                if fraction >= 0.999 {
                    self.host_died(ctx, h);
                } else {
                    let workers = self.cfg.workers_per_host;
                    let crashed = ((workers as f64 * fraction).round() as usize).clamp(1, workers);
                    let cap = (workers - crashed).max(1);
                    let lane = self.replicas[h].worker_lane;
                    for (token, finish, _service) in
                        self.replicas[h].cpu.set_lane_cap(now, lane, cap)
                    {
                        ctx.schedule_at(finish, FEv::CpuDone { host: h, token });
                    }
                }
            }
            FaultKind::ServerStall => {
                let dur = SimDuration::from_nanos(hf.event.duration_ns);
                self.replicas[h].stalled_until = now + dur;
                let lane = self.replicas[h].kernel_lane;
                for _ in 0..self.cfg.cpus_per_host {
                    self.enqueue_job(ctx, h, lane, dur, FJob::Stall);
                }
            }
            FaultKind::SlowLoris { clients } => {
                self.replicas[h].loris_clients =
                    clients.min(self.cfg.total_clients() as usize) as u32;
            }
            FaultKind::NeverReads { clients } => {
                self.replicas[h].never_reads =
                    clients.min(self.cfg.total_clients() as usize) as u32;
            }
            FaultKind::FdStorm { sockets } => {
                self.replicas[h].refuse_all = true;
                let service = self.cfg.costs.reject_service(self.cfg.cpus_per_host);
                let lane = self.replicas[h].kernel_lane;
                for _ in 0..sockets {
                    self.enqueue_job(ctx, h, lane, service, FJob::Reject);
                }
            }
        }
    }

    fn on_fault_end(&mut self, ctx: &mut Ctx<'_, FEv>, idx: usize) {
        let now = ctx.now();
        let hf = self.cfg.fleet_plan.as_ref().expect("no fleet plan").faults[idx];
        let h = hf.host;
        match hf.event.kind {
            FaultKind::LinkOutage { .. } => {
                self.replicas[h].nic_down = false;
                // Resume frozen replies from where they stopped, then kick
                // anything that queued up behind the outage.
                for conn in self.conns_on(h) {
                    let rec = self.conns.get_mut(&conn).expect("listed");
                    if let Some((file, body_bytes, remaining)) = rec.paused.take() {
                        self.next_flow += 1;
                        let fid = FlowId(self.next_flow);
                        rec.active_flow = Some(fid);
                        self.flows.insert(
                            fid,
                            FlowKind::Reply {
                                conn,
                                file,
                                body_bytes,
                            },
                        );
                        self.frontend.start_flow(now, fid, remaining.max(1.0));
                    }
                }
                for conn in self.conns_on(h) {
                    self.try_start_flow(ctx, conn);
                }
                self.resched_link(ctx);
            }
            FaultKind::LinkDegrade { .. } => self.replicas[h].slow_factor = 1.0,
            FaultKind::LatencyJitter { .. } => {
                self.replicas[h].added_latency = SimDuration::ZERO;
            }
            FaultKind::WorkerCrash { fraction, restart } => {
                if !restart {
                    return;
                }
                if fraction >= 0.999 {
                    // Host process restarts; the prober readmits after
                    // `rise` clean probes.
                    self.replicas[h].down = false;
                } else {
                    let lane = self.replicas[h].worker_lane;
                    let workers = self.cfg.workers_per_host;
                    for (token, finish, _service) in
                        self.replicas[h].cpu.set_lane_cap(now, lane, workers)
                    {
                        ctx.schedule_at(finish, FEv::CpuDone { host: h, token });
                    }
                }
            }
            FaultKind::ServerStall => self.replicas[h].stalled_until = now,
            FaultKind::SlowLoris { .. } => self.replicas[h].loris_clients = 0,
            FaultKind::NeverReads { .. } => {
                self.replicas[h].never_reads = 0;
                for conn in self.conns_on(h) {
                    self.try_start_flow(ctx, conn);
                }
            }
            FaultKind::FdStorm { .. } => self.replicas[h].refuse_all = false,
        }
    }

    fn on_drain_start(&mut self, ctx: &mut Ctx<'_, FEv>, h: usize) {
        let now = ctx.now();
        self.lb.begin_drain(h);
        self.transitions
            .push((now.as_nanos(), h, HealthState::Draining));
        for conn in self.conns_on(h) {
            self.maybe_drain_rehome(now, conn);
        }
        let _ = ctx;
    }

    fn on_drain_deadline(&mut self, ctx: &mut Ctx<'_, FEv>, h: usize) {
        for conn in self.conns_on(h) {
            match self.evacuate_conn(ctx, conn, h) {
                Evac::Rehomed => self.drain_handoffs += 1,
                Evac::Replayed(k) => {
                    self.drain_replayed += 1;
                    self.failover_retries += k;
                }
                Evac::Reset => self.drain_aborted += 1,
                Evac::Reaccepted | Evac::Refused | Evac::Gone => {}
            }
        }
        self.lb.finish_drain(h);
        let now = ctx.now();
        self.transitions
            .push((now.as_nanos(), h, HealthState::Ejected));
        self.replicas[h].down = true;
        self.drain_report = Some(DrainReport {
            drained: self.drain_handoffs + self.drain_replayed,
            aborted: self.drain_aborted,
        });
        if let Some(r) = self.cfg.rolling_restart {
            ctx.schedule_in(r.restart_down, FEv::RestartDone(h));
        }
    }
}

impl Model for FleetTestbed {
    type Event = FEv;

    fn handle(&mut self, ctx: &mut Ctx<'_, FEv>, ev: FEv) {
        match ev {
            FEv::ClientArrive(cid) => {
                let action = self.clients[cid.0 as usize].on_start(ctx.now(), &self.files);
                self.run_client_action(ctx, cid, action);
            }
            FEv::ClientConnect(cid) => {
                self.rt[cid.0 as usize].connect_ev = None;
                self.do_connect(ctx, cid);
            }
            FEv::SynAtLb(conn) => self.on_syn_at_lb(ctx, conn),
            FEv::SynRetry(conn) => {
                let alive = self.conns.get(&conn).is_some_and(|r| {
                    matches!(r.net.state, ConnState::Connecting)
                        && self.rt[r.client.0 as usize].conn == Some(conn)
                });
                if !alive {
                    self.stale_events += 1;
                    return;
                }
                // The retransmitted SYN costs a fraction of a fresh
                // handshake's wire overhead.
                self.start_overhead_flow(ctx, self.cfg.connection_overhead_bytes * 0.25);
                let lat = self.frontend_latency();
                ctx.schedule_in(lat, FEv::SynAtLb(conn));
            }
            FEv::EstablishedAtClient(conn) => {
                let ok = self.conns.get(&conn).is_some_and(|r| {
                    matches!(r.net.state, ConnState::Connecting)
                        && self.rt[r.client.0 as usize].conn == Some(conn)
                });
                if !ok {
                    self.stale_events += 1;
                    return;
                }
                let now = ctx.now();
                let cid = {
                    let rec = self.conns.get_mut(&conn).expect("checked");
                    rec.net.establish(now);
                    rec.client
                };
                let action = self.clients[cid.0 as usize].on_connected(now, &mut self.metrics);
                self.run_client_action(ctx, cid, action);
            }
            FEv::ResetAtClient(conn) => {
                let cid = match self.conns.get(&conn) {
                    Some(rec) if self.rt[rec.client.0 as usize].conn == Some(conn) => rec.client,
                    _ => {
                        self.stale_events += 1;
                        return;
                    }
                };
                self.disarm_client_timeout(ctx, cid);
                self.rt[cid.0 as usize].conn = None;
                let action =
                    self.clients[cid.0 as usize].on_reset(ctx.now(), &self.files, &mut self.metrics);
                self.run_client_action(ctx, cid, action);
                self.maybe_gc(conn);
            }
            FEv::RefusedAtClient(conn) => {
                let ok = self.conns.get(&conn).is_some_and(|r| {
                    matches!(r.net.state, ConnState::Connecting)
                        && self.rt[r.client.0 as usize].conn == Some(conn)
                });
                if !ok {
                    self.stale_events += 1;
                    return;
                }
                let now = ctx.now();
                let cid = {
                    let rec = self.conns.get_mut(&conn).expect("checked");
                    rec.net.close(now, CloseKind::ServerRefused);
                    rec.client
                };
                self.disarm_client_timeout(ctx, cid);
                self.rt[cid.0 as usize].conn = None;
                let action =
                    self.clients[cid.0 as usize].on_refused(now, &self.files, &mut self.metrics);
                self.run_client_action(ctx, cid, action);
                self.maybe_gc(conn);
            }
            FEv::RequestsAtConn(conn, files) => {
                let (h, epoch) = match self.conns.get(&conn) {
                    Some(rec) if rec.net.send_would_reset() => {
                        let lat = self.frontend_latency();
                        ctx.schedule_in(lat, FEv::ResetAtClient(conn));
                        return;
                    }
                    Some(rec) if rec.net.is_established() && rec.host.is_some() => {
                        (rec.host.expect("checked"), rec.epoch)
                    }
                    _ => {
                        self.stale_events += 1;
                        return;
                    }
                };
                for file in files {
                    self.conns
                        .get_mut(&conn)
                        .expect("checked")
                        .inflight
                        .push(file);
                    let rb = self.reply_wire_bytes(file);
                    let split = self.cfg.costs.event_request_service(
                        rb,
                        self.cfg.workers_per_host,
                        self.cfg.cpus_per_host,
                    );
                    let service = self.scaled(h, split.worker);
                    let lane = self.replicas[h].worker_lane;
                    self.enqueue_job(ctx, h, lane, service, FJob::Parse { conn, file, epoch });
                }
            }
            FEv::ClientThinkDone(cid) => {
                self.rt[cid.0 as usize].think_ev = None;
                let action = self.clients[cid.0 as usize].on_think_done(ctx.now(), &mut self.metrics);
                self.run_client_action(ctx, cid, action);
            }
            FEv::ClientTimeout(cid) => {
                self.rt[cid.0 as usize].timeout_ev = None;
                if let Some(conn) = self.rt[cid.0 as usize].conn.take() {
                    self.close_conn_client_side(ctx, conn, CloseKind::ClientAbort);
                }
                let action =
                    self.clients[cid.0 as usize].on_timeout(ctx.now(), &self.files, &mut self.metrics);
                self.run_client_action(ctx, cid, action);
            }
            FEv::CpuDone { host, token } => self.on_cpu_done(ctx, host, token),
            FEv::LinkTick => self.on_link_tick(ctx),
            FEv::ProbeRound => {
                let now = ctx.now();
                for h in 0..self.cfg.num_hosts {
                    let ok = !self.replicas[h].unreachable_at(now) && !self.replicas[h].refuse_all;
                    let delay = if ok {
                        // A clean probe answers in one round trip.
                        self.latency_of(Some(h)) * 2
                    } else {
                        SimDuration::from_nanos(self.cfg.health.probe_timeout_ns)
                    };
                    ctx.schedule_in(delay, FEv::ProbeOutcome { host: h, ok });
                }
                ctx.schedule_in(
                    SimDuration::from_nanos(self.cfg.health.probe_interval_ns),
                    FEv::ProbeRound,
                );
            }
            FEv::ProbeOutcome { host, ok } => {
                let t = self.lb.probe_result(host, ok);
                self.note(ctx.now(), host, t);
            }
            FEv::FaultBegin(idx) => self.on_fault_begin(ctx, idx),
            FEv::FaultEnd(idx) => self.on_fault_end(ctx, idx),
            FEv::DrainStart(h) => self.on_drain_start(ctx, h),
            FEv::DrainDeadline(h) => self.on_drain_deadline(ctx, h),
            FEv::RestartDone(h) => {
                self.replicas[h].down = false;
                self.restarts_completed += 1;
            }
            FEv::MeasureStart => {
                self.metrics.set_measure_from(ctx.now());
                self.measuring = true;
            }
            FEv::ObsSample => {
                if self.obs.on() {
                    self.sample_gauges(ctx.now());
                    ctx.schedule_in(
                        SimDuration::from_nanos(self.obs.sample_period_ns()),
                        FEv::ObsSample,
                    );
                }
            }
            FEv::EndRun => ctx.request_stop(),
        }
    }
}

/// Run one fleet scenario to completion and hand back the full testbed for
/// inspection.
pub fn run_fleet(cfg: FleetConfig) -> FleetTestbed {
    if let Err(e) = cfg.validate() {
        panic!("invalid fleet config: {e}");
    }
    let seed = cfg.seed;
    let duration = cfg.duration;
    let warmup = cfg.warmup;
    let ramp = cfg.ramp;
    let num_clients = cfg.num_clients;
    let surge_clients = cfg.surge_clients;
    let surge_at = cfg.surge_at;
    let num_hosts = cfg.num_hosts;
    let probe_interval = cfg.health.probe_interval_ns;
    let obs_tick = cfg.obs.as_ref().map(|c| c.sample_period_ns);
    let plan_windows: Vec<(u64, u64)> = cfg
        .fleet_plan
        .as_ref()
        .map(|p| {
            p.faults
                .iter()
                .map(|f| (f.event.start_ns, f.event.end_ns()))
                .collect()
        })
        .unwrap_or_default();
    let rolling = cfg.rolling_restart;
    let testbed = FleetTestbed::new(cfg);
    let mut engine = Engine::new(testbed, seed ^ 0xD15C_0DE5);
    let mut arrivals = Rng::new(seed ^ 0xA55E_55ED);
    let ramp_ns = ramp.as_nanos().max(1);
    for i in 0..num_clients {
        let at = SimTime::ZERO + SimDuration::from_nanos(arrivals.below(ramp_ns));
        engine.schedule_at(at, FEv::ClientArrive(ClientId(i)));
    }
    if let Some(at) = surge_at {
        for i in 0..surge_clients {
            let t = SimTime::ZERO + at + SimDuration::from_nanos(arrivals.below(200_000_000));
            engine.schedule_at(t, FEv::ClientArrive(ClientId(num_clients + i)));
        }
    }
    for (idx, (start_ns, end_ns)) in plan_windows.into_iter().enumerate() {
        engine.schedule_at(
            SimTime::ZERO + SimDuration::from_nanos(start_ns),
            FEv::FaultBegin(idx),
        );
        engine.schedule_at(
            SimTime::ZERO + SimDuration::from_nanos(end_ns),
            FEv::FaultEnd(idx),
        );
    }
    if let Some(r) = rolling {
        for h in 0..num_hosts {
            let start = r.start + r.stagger * h as u64;
            engine.schedule_at(SimTime::ZERO + start, FEv::DrainStart(h));
            engine.schedule_at(SimTime::ZERO + start + r.drain_timeout, FEv::DrainDeadline(h));
        }
    }
    engine.schedule_at(
        SimTime::ZERO + SimDuration::from_nanos(probe_interval),
        FEv::ProbeRound,
    );
    if let Some(tick) = obs_tick {
        engine.schedule_at(SimTime::ZERO + SimDuration::from_nanos(tick), FEv::ObsSample);
    }
    engine.schedule_at(SimTime::ZERO + warmup, FEv::MeasureStart);
    engine.schedule_at(SimTime::ZERO + duration, FEv::EndRun);
    let outcome = engine.run();
    assert!(
        matches!(outcome, RunOutcome::Stopped),
        "fleet run did not stop cleanly: {outcome:?}"
    );
    let engine_stats = engine.stats();
    let mut fleet = engine.into_model();
    fleet.engine_stats = engine_stats;
    fleet
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::{FaultEvent, HostFault};

    const SEC: u64 = 1_000_000_000;

    fn crash_plan(host: usize) -> FleetFaultPlan {
        FleetFaultPlan::new(
            "host-down",
            vec![HostFault {
                host,
                event: FaultEvent {
                    start_ns: 12 * SEC,
                    duration_ns: 8 * SEC,
                    kind: FaultKind::WorkerCrash {
                        fraction: 1.0,
                        restart: true,
                    },
                },
            }],
        )
    }

    #[test]
    fn steady_state_spreads_load_under_every_strategy() {
        for strategy in Strategy::ALL {
            let mut cfg = FleetConfig::baseline(3, strategy);
            cfg.num_clients = 90;
            let tb = run_fleet(cfg);
            assert_eq!(tb.lost_replies, 0, "{strategy:?}");
            assert_eq!(tb.lb.ejections(), 0, "{strategy:?}");
            let replies = tb.metrics.traffic.replies_received;
            assert!(replies > 100, "{strategy:?}: only {replies} replies");
            for (h, r) in tb.host_replies().iter().enumerate() {
                assert!(*r > 0, "{strategy:?}: host {h} served nothing");
            }
        }
    }

    #[test]
    fn full_crash_fails_over_with_zero_lost_replies() {
        let mut cfg = FleetConfig::baseline(3, Strategy::LeastConn);
        cfg.num_clients = 90;
        cfg.fleet_plan = Some(crash_plan(0));
        let tb = run_fleet(cfg);
        assert_eq!(tb.lost_replies, 0);
        assert!(tb.lb.ejections() >= 1, "crash never ejected host 0");
        assert!(tb.lb.readmissions() >= 1, "host 0 never readmitted");
        assert!(
            tb.failover_retries + tb.conns_rehomed > 0,
            "crash evacuated nothing"
        );
        // The surviving pair keeps serving through the outage window.
        assert!(tb.metrics.traffic.replies_received > 100);
    }

    #[test]
    fn rolling_restart_hands_off_with_zero_lost_replies() {
        let mut cfg = FleetConfig::baseline(3, Strategy::LeastConn);
        cfg.num_clients = 90;
        cfg.rolling_restart = Some(RollingRestart {
            start: SimDuration::from_secs(10),
            stagger: SimDuration::from_secs(6),
            drain_timeout: SimDuration::from_secs(2),
            restart_down: SimDuration::from_secs(1),
        });
        let tb = run_fleet(cfg);
        assert_eq!(tb.lost_replies, 0);
        assert_eq!(tb.restarts_completed, 3);
        assert_eq!(tb.metrics.errors.connection_reset, 0);
        let report = tb.drain_report.expect("no drain report");
        assert_eq!(report.aborted, 0, "drain cut connections");
        assert!(tb.drain_handoffs + tb.drain_replayed > 0, "nothing drained");
    }

    #[test]
    fn exhausted_budget_surfaces_lost_replies() {
        let mut cfg = FleetConfig::baseline(3, Strategy::LeastConn);
        cfg.num_clients = 90;
        cfg.fleet_plan = Some(crash_plan(0));
        cfg.retry_budget = 0;
        // Hammering clients plus a severely graded host 0 guarantee its
        // request queue is deep at the crash instant.
        cfg.client.session.think_k_secs = 0.05;
        cfg.client.session.think_cap_secs = 0.2;
        cfg.host_speed = vec![0.002, 1.0, 1.0];
        let tb = run_fleet(cfg);
        assert!(
            tb.lost_replies > 0,
            "a dry budget must surface loss, not mask it \
             (rehomed={} replayed={} redirects={} abandoned={} refused={} \
             replies={} ejections={})",
            tb.conns_rehomed,
            tb.failover_retries,
            tb.connect_redirects,
            tb.timeout_abandoned,
            tb.syns_refused,
            tb.metrics.traffic.replies_received,
            tb.lb.ejections(),
        );
        assert_eq!(tb.failover_retries, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let mk = || {
            let mut cfg = FleetConfig::baseline(3, Strategy::RoundRobin);
            cfg.num_clients = 60;
            cfg.fleet_plan = FleetFaultPlan::named_scoped("outage", 1);
            cfg
        };
        let a = run_fleet(mk());
        let b = run_fleet(mk());
        assert_eq!(
            a.metrics.traffic.replies_received,
            b.metrics.traffic.replies_received
        );
        assert_eq!(a.lost_replies, b.lost_replies);
        assert_eq!(a.failover_retries, b.failover_retries);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.host_replies(), b.host_replies());
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let cfg = FleetConfig::baseline(0, Strategy::RoundRobin);
        assert!(cfg.validate().is_err());

        let mut cfg = FleetConfig::baseline(3, Strategy::RoundRobin);
        cfg.host_speed = vec![1.0, 2.0];
        assert!(cfg.validate().is_err());

        let mut cfg = FleetConfig::baseline(3, Strategy::RoundRobin);
        cfg.surge_clients = 10;
        assert!(cfg.validate().is_err());

        let mut cfg = FleetConfig::baseline(3, Strategy::RoundRobin);
        cfg.rolling_restart = Some(RollingRestart {
            start: SimDuration::from_secs(25),
            stagger: SimDuration::from_secs(6),
            drain_timeout: SimDuration::from_secs(2),
            restart_down: SimDuration::from_secs(1),
        });
        assert!(cfg.validate().is_err());

        assert!(FleetConfig::baseline(3, Strategy::LeastConn).validate().is_ok());
    }
}
