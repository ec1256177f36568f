//! `repro scale` — the connection-count frontier harness.
//!
//! The slab-backed connection tables (nioserver's `Slab<Conn>`, the sim's
//! [`serversim::conntable::ConnTable`]) exist so that *holding* a
//! connection costs a few hundred bytes and *sweeping* costs O(active),
//! not O(open). This harness measures that directly, in both layers:
//!
//! * **live** — ramp real keep-alive connections against the nio server
//!   until the process hits its fd ceiling and the lifecycle reserve
//!   starts refusing (an abortive close: RST before any reply), recording
//!   a curve of (open conns, resident-set delta, open fds) along the way.
//!   After the refusal point it frees a little headroom and probes that the
//!   server still answers — the frontier is a plateau, not a cliff. The ceiling
//!   itself comes from `RLIMIT_NOFILE`: smoke lowers the soft limit so
//!   refusal arrives in seconds; a full run raises it to the hard limit
//!   and rides the ramp as far as the kernel allows (two fds per held
//!   connection — both ends live in this process).
//! * **sim** — the discrete-event testbed holds the population the live
//!   layer cannot: a million clients connect, fetch one page, and then
//!   think for longer than the run, so the server ends the run with ~all
//!   of them open. Peak open connections and the resident-set growth per
//!   connection are recorded per ramp size. A separate refusal leg (tiny
//!   backlog, `refuse_on_full`) shows the explicit-refusal path works and
//!   service continues at the frontier.
//!
//! `repro scale` writes `SCALE_baseline.json`; `repro scale --smoke`
//! re-measures at CI scale and gates: memory per connection must not grow
//! past [`MEM_PER_CONN_TOLERANCE`]× the committed baseline (plus a small
//! absolute slack for RSS granularity), the ramp must reach the smoke
//! floor, and both layers must reach refusal and stay alive past it.

use crate::checks::Check;
use desim::SimDuration;
use httpcore::sys::{nofile_limits, set_nofile_soft};
use httpcore::{ContentStore, LifecyclePolicy};
use metrics::json::{get, get_num, get_str};
use metrics::Json;
use netsim::LinkConfig;
use serversim::{RunResult, ServerArch, TestbedConfig};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use workload::{FileSet, SessionConfig, SurgeConfig};

/// Schema tag emitted in (and required of) `SCALE_baseline.json`.
pub const SCALE_SCHEMA: &str = "scale/v1";

/// Default output / baseline path, relative to the repo root.
pub const SCALE_BASELINE_PATH: &str = "SCALE_baseline.json";

/// Multiplicative ceiling on memory-per-connection growth vs the
/// baseline. Per-connection cost is scale-independent (the slab stores
/// the same `Conn` either way), so smoke can gate against a full-size
/// baseline; 1.5× catches "someone fattened the per-connection state"
/// while riding out allocator rounding between runs.
pub const MEM_PER_CONN_TOLERANCE: f64 = 1.5;

/// Absolute slack (bytes per connection) added on top of the ratio gate.
/// RSS is read at 4 KiB page granularity and fixed overheads (file set,
/// engine, links) amortise over fewer connections in a smoke ramp, so a
/// near-zero baseline must not turn the ratio gate into a coin flip.
pub const MEM_PER_CONN_SLACK_BYTES: f64 = 4096.0;

/// Smoke floor on simultaneously open simulated connections (the smoke
/// sim ramp asks for 50 k clients; ≥90% of them must actually be open
/// at once).
pub const SIM_SMOKE_FLOOR: u64 = 45_000;

/// Smoke floor on simultaneously held live connections. The smoke ramp
/// lowers `RLIMIT_NOFILE` to [`SMOKE_NOFILE`]; two fds per connection
/// minus server plumbing and the lifecycle reserve leaves comfortably
/// over a thousand.
pub const LIVE_SMOKE_FLOOR: u64 = 1_000;

/// Soft `RLIMIT_NOFILE` the smoke live ramp runs under.
const SMOKE_NOFILE: u64 = 3_000;

/// Fd headroom the nio server keeps for its own plumbing; reaching
/// soft-limit − reserve is the live refusal point.
const FD_RESERVE: u64 = 64;

/// Connections opened between curve samples on the live ramp.
const BATCH: usize = 128;

/// Held connections dropped after refusal to hand the liveness probe
/// some fd headroom.
const PROBE_HEADROOM: usize = 8;

/// One (open connections, resident-set delta, open fds) sample on a ramp.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    pub conns: u64,
    /// VmRSS growth since the ramp started, bytes.
    pub rss_bytes: u64,
    /// Open fds in this process (0 for sim points — no real fds there).
    pub fds: u64,
}

/// One layer's ramp-to-the-frontier result.
#[derive(Debug, Clone)]
pub struct ScaleCurve {
    /// `live` or `sim`.
    pub layer: String,
    /// Architecture label (`nio-2w`).
    pub arch: String,
    /// The ceiling the ramp ran against: the soft `RLIMIT_NOFILE` for
    /// live, the largest requested client population for sim.
    pub limit: u64,
    pub points: Vec<ScalePoint>,
    /// Most connections simultaneously open.
    pub sustained_conns: u64,
    /// Resident-set growth per sustained connection, bytes.
    pub mem_per_conn_bytes: f64,
    /// Most fds simultaneously open (live only; 0 for sim).
    pub fd_watermark: u64,
    /// The ramp reached an explicit refusal (live: RST or a denied connect
    /// at the fd reserve; sim: `refuse_on_full` at a saturated backlog).
    pub refusal_seen: bool,
    /// `(SO_RCVBUF, SO_SNDBUF)` requested on every accepted socket for
    /// this ramp; `None` leaves the kernel's autotuned defaults. Recorded
    /// so the baseline says which kernel-side memory footprint it priced.
    pub socket_buffers: Option<(u32, u32)>,
    /// Service continued past the refusal point.
    pub alive_after_refusal: bool,
}

impl ScaleCurve {
    /// Identity for baseline matching.
    pub fn key(&self) -> String {
        format!("{}/{}", self.layer, self.arch)
    }
}

/// Everything `repro scale` measures.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// `smoke` or `full`.
    pub scale: String,
    pub curves: Vec<ScaleCurve>,
}

// ---------------------------------------------------------------------
// Process introspection (RSS, fds, RLIMIT_NOFILE)
// ---------------------------------------------------------------------

/// Resident set size in bytes (0 when /proc is unavailable).
fn vm_rss_bytes() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Open fds in this process right now (0 when /proc is unavailable).
fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Live ramp
// ---------------------------------------------------------------------

const SCALE_SEED: u64 = 0x5CA1_E001;

/// Small-file content so the ramp measures connection *holding* cost,
/// not transfer buffers.
fn scale_files() -> FileSet {
    let mut rng = desim::Rng::new(SCALE_SEED);
    FileSet::build(
        &SurgeConfig {
            num_files: 32,
            body_mu: 5.5,
            body_sigma: 0.25,
            tail_prob: 0.0,
            tail_k: 1024.0,
            tail_cap: 2048.0,
            min_bytes: 64,
            ..SurgeConfig::default()
        },
        &mut rng,
    )
}

fn find_subslice(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// One keep-alive GET on an already-open connection; returns the status
/// code after draining the full reply.
fn http_get(stream: &mut TcpStream, path: &str) -> std::io::Result<u16> {
    let req = format!("GET {path} HTTP/1.1\r\nHost: scale\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut tmp = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = find_subslice(&buf, b"\r\n\r\n") {
            break p + 4;
        }
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed before a full response head",
            ));
        }
        buf.extend_from_slice(&tmp[..n]);
    };
    let status: u16 = std::str::from_utf8(buf.get(9..12).unwrap_or_default())
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "unparseable status line")
        })?;
    let mut content_len = 0usize;
    for line in buf[..head_end].split(|&b| b == b'\n') {
        let line = std::str::from_utf8(line).unwrap_or_default().trim();
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_len = v.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut have = buf.len() - head_end;
    while have < content_len {
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            break;
        }
        have += n;
    }
    Ok(status)
}

/// Fresh-connection probe: does the server still answer 200?
fn probe_alive(addr: SocketAddr) -> bool {
    for _ in 0..20 {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            if matches!(http_get(&mut s, "/f/0"), Ok(200)) {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    false
}

/// Ramp real keep-alive connections against the nio server until the fd
/// ceiling refuses, then verify the server survived the frontier.
fn live_ramp(smoke: bool, arch: &str, socket_buffers: Option<(u32, u32)>) -> ScaleCurve {
    let (orig_soft, hard) = nofile_limits();
    let target_soft = if smoke {
        orig_soft.min(SMOKE_NOFILE)
    } else {
        hard
    };
    // Best-effort: the ramp still ends on whatever ceiling actually applies.
    let _ = set_nofile_soft(target_soft);

    let files = scale_files();
    let content = Arc::new(ContentStore::from_fileset(&files));
    let server = nioserver::NioServer::start(nioserver::NioConfig {
        workers: 2,
        backend: nioserver::BackendKind::Epoll,
        accept: nioserver::AcceptMode::Handoff,
        shed_watermark: None,
        lifecycle: {
            let base = LifecyclePolicy {
                fd_reserve: FD_RESERVE,
                ..LifecyclePolicy::default()
            };
            match socket_buffers {
                Some((recv, send)) => base.with_buffers(recv, send),
                None => base,
            }
        },
        content,
    })
    .expect("start nio server for scale ramp");
    let addr = server.addr();

    let rss0 = vm_rss_bytes();
    let mut held: Vec<TcpStream> = Vec::new();
    let mut points = Vec::new();
    // The ramp only ends at the frontier: both break paths are refusals.
    let refusal_seen;
    let mut fd_watermark = open_fds();
    'ramp: loop {
        for _ in 0..BATCH {
            // Each held connection costs two fds (both ends live here),
            // so either end can hit the ceiling first: a refused request
            // (RST from the reserve) or a failed local connect both mark
            // the frontier.
            match TcpStream::connect(addr) {
                Ok(mut s) => {
                    let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                    match http_get(&mut s, "/f/0") {
                        Ok(200) => held.push(s),
                        Ok(_) | Err(_) => {
                            refusal_seen = true;
                            break 'ramp;
                        }
                    }
                }
                Err(_) => {
                    refusal_seen = true;
                    break 'ramp;
                }
            }
        }
        fd_watermark = fd_watermark.max(open_fds());
        points.push(ScalePoint {
            conns: held.len() as u64,
            rss_bytes: vm_rss_bytes().saturating_sub(rss0),
            fds: open_fds(),
        });
    }
    fd_watermark = fd_watermark.max(open_fds());
    let sustained = held.len() as u64;
    let rss_peak = vm_rss_bytes().saturating_sub(rss0);

    // The frontier must be a plateau: hand back a little fd headroom and
    // a fresh client must be served again.
    let keep = held.len().saturating_sub(PROBE_HEADROOM);
    held.truncate(keep);
    std::thread::sleep(Duration::from_millis(100));
    let alive_after_refusal = probe_alive(addr);

    drop(held);
    server.shutdown();
    let _ = set_nofile_soft(orig_soft);

    ScaleCurve {
        layer: "live".to_string(),
        arch: arch.to_string(),
        limit: target_soft,
        points,
        sustained_conns: sustained,
        mem_per_conn_bytes: rss_peak as f64 / sustained.max(1) as f64,
        fd_watermark,
        refusal_seen,
        alive_after_refusal,
        socket_buffers,
    }
}

// ---------------------------------------------------------------------
// Sim ramp
// ---------------------------------------------------------------------

/// A testbed run shaped to *hold* `conns` connections: every client
/// connects during the ramp, fetches one small page, and then thinks for
/// far longer than the horizon, so the run ends with ~all of them open.
fn sim_scale_config(conns: u32, seed: u64) -> TestbedConfig {
    let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(ServerArch::EventDriven { workers: 2 }, 4, link);
    // Spread the SYN flood over many cables so flow bookkeeping, not the
    // population, stays the bottleneck.
    cfg.links = vec![LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100)); 32];
    cfg.num_clients = conns;
    cfg.backlog = 1 << 16;
    cfg.surge = SurgeConfig {
        num_files: 64,
        body_mu: 5.5,
        body_sigma: 0.25,
        tail_prob: 0.0,
        tail_k: 1024.0,
        tail_cap: 2048.0,
        min_bytes: 64,
        ..SurgeConfig::default()
    };
    // Thin per-event costs: the point is the table, not the CPU model —
    // a million 25 µs accepts would need 25 s of acceptor lane.
    cfg.costs.accept = SimDuration::from_nanos(500);
    cfg.costs.parse = SimDuration::from_micros(1);
    cfg.costs.per_kb_send = SimDuration::from_micros(1);
    cfg.costs.selector_overhead = SimDuration::from_nanos(500);
    cfg.costs.context_switch = SimDuration::from_nanos(500);
    // One small burst, then think past the horizon: the connection
    // parks open in the server's table. The default ~6.5-request plan
    // keeps the pre-materialised session small — a million of them have
    // to fit in memory — while the think time guarantees no burst after
    // the first ever runs. (`max_burst` is the bounded Pareto's cap and
    // must exceed its k = 1.)
    cfg.client.session = SessionConfig {
        max_burst: 2,
        think_k_secs: 1.0e6,
        think_alpha: 1.4,
        think_cap_secs: 1.0e7,
        ..SessionConfig::default()
    };
    cfg.duration = SimDuration::from_secs(12);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.ramp = SimDuration::from_secs(10);
    cfg.seed = seed;
    cfg
}

/// The explicit-refusal leg: a thundering herd against a tiny backlog
/// with `refuse_on_full` — refusals must happen AND replies must keep
/// flowing.
fn sim_refusal_leg() -> (bool, bool) {
    let link = LinkConfig::from_mbit(100.0, SimDuration::from_micros(100));
    let mut cfg = TestbedConfig::paper_default(ServerArch::EventDriven { workers: 2 }, 1, link);
    cfg.num_clients = 2000;
    cfg.backlog = 16;
    cfg.admission.refuse_on_full = true;
    cfg.costs.accept = SimDuration::from_millis(1);
    cfg.duration = SimDuration::from_secs(6);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.ramp = SimDuration::from_millis(50);
    cfg.seed = SCALE_SEED ^ 0xFEED;
    let secs = cfg.duration.as_secs_f64();
    let tb = serversim::run(cfg.clone());
    let result = RunResult::from_testbed(&cfg, &tb, secs);
    (tb.syns_refused > 0, result.throughput_rps > 0.0)
}

/// Ramp the simulated population (up to a million held connections) and
/// measure resident-set growth per connection.
fn sim_ramp(smoke: bool) -> ScaleCurve {
    let sizes: &[u32] = if smoke {
        &[20_000, 50_000]
    } else {
        &[250_000, 500_000, 1_000_000]
    };
    let rss0 = vm_rss_bytes();
    let mut points = Vec::new();
    let mut sustained = 0u64;
    let mut mem_per_conn = 0.0f64;
    for (i, &n) in sizes.iter().enumerate() {
        let cfg = sim_scale_config(n, SCALE_SEED ^ (i as u64).wrapping_mul(0x9E37_79B9));
        let tb = serversim::run(cfg);
        // Measure while the testbed (and its connection table) is alive;
        // ascending sizes reuse the previous run's freed memory, so the
        // delta against the pre-ramp floor tracks the largest table.
        let peak = tb.peak_open_conns() as u64;
        let rss = vm_rss_bytes().saturating_sub(rss0);
        points.push(ScalePoint {
            conns: peak,
            rss_bytes: rss,
            fds: 0,
        });
        if peak >= sustained {
            sustained = peak;
            mem_per_conn = rss as f64 / peak.max(1) as f64;
        }
        drop(tb);
    }
    let (refusal_seen, alive_after_refusal) = sim_refusal_leg();
    ScaleCurve {
        layer: "sim".to_string(),
        arch: "nio-2w".to_string(),
        limit: *sizes.last().expect("non-empty size list") as u64,
        points,
        sustained_conns: sustained,
        mem_per_conn_bytes: mem_per_conn,
        fd_watermark: 0,
        refusal_seen,
        alive_after_refusal,
        socket_buffers: None,
    }
}

/// Run both layers' ramps.
pub fn run_scale(smoke: bool) -> ScaleReport {
    ScaleReport {
        scale: if smoke { "smoke" } else { "full" }.to_string(),
        curves: vec![
            sim_ramp(smoke),
            live_ramp(smoke, "nio-2w", None),
            // The same ramp with the kernel's per-socket buffers trimmed
            // via the `LifecyclePolicy` knobs: userland mem/conn should be
            // unchanged while the (unmeasured here) kernel side shrinks —
            // the point is that the frontier survives the trim.
            live_ramp(smoke, "nio-2w-trim", Some((4096, 16384))),
        ],
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// The frontier table plus each ramp's sampled curve.
pub fn render_scale(report: &ScaleReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>10} {:>10} {:>12} {:>9} {:>8} {:>7}\n",
        "curve", "limit", "sustained", "mem/conn B", "fd peak", "refused", "alive"
    ));
    for c in &report.curves {
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>12.0} {:>9} {:>8} {:>7}\n",
            c.key(),
            c.limit,
            c.sustained_conns,
            c.mem_per_conn_bytes,
            c.fd_watermark,
            c.refusal_seen,
            c.alive_after_refusal
        ));
    }
    out.push('\n');
    for c in &report.curves {
        let pts: Vec<String> = c
            .points
            .iter()
            .map(|p| format!("{}:{}k", p.conns, p.rss_bytes / 1024))
            .collect();
        out.push_str(&format!("{} — conns:rssΔ [{}]\n", c.key(), pts.join(" ")));
    }
    out
}

// ---------------------------------------------------------------------
// JSON persist / parse (SCALE_baseline.json)
// ---------------------------------------------------------------------

/// Serialize a report for `SCALE_baseline.json`.
pub fn scale_to_json(report: &ScaleReport) -> Json {
    Json::obj(vec![
        ("schema", Json::Str(SCALE_SCHEMA.to_string())),
        ("scale", Json::Str(report.scale.clone())),
        (
            "curves",
            Json::Array(
                report
                    .curves
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("layer", Json::Str(c.layer.clone())),
                            ("arch", Json::Str(c.arch.clone())),
                            ("limit", Json::Num(c.limit as f64)),
                            (
                                "points",
                                Json::Array(
                                    c.points
                                        .iter()
                                        .map(|p| {
                                            Json::Array(vec![
                                                Json::Num(p.conns as f64),
                                                Json::Num(p.rss_bytes as f64),
                                                Json::Num(p.fds as f64),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            ("sustained_conns", Json::Num(c.sustained_conns as f64)),
                            ("mem_per_conn_bytes", Json::Num(c.mem_per_conn_bytes)),
                            ("fd_watermark", Json::Num(c.fd_watermark as f64)),
                            ("refusal_seen", Json::Bool(c.refusal_seen)),
                            (
                                "socket_buffers",
                                match c.socket_buffers {
                                    Some((r, w)) => {
                                        Json::Array(vec![Json::Num(r as f64), Json::Num(w as f64)])
                                    }
                                    None => Json::Null,
                                },
                            ),
                            ("alive_after_refusal", Json::Bool(c.alive_after_refusal)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn get_bool(obj: &[(String, Json)], key: &str) -> Result<bool, String> {
    match get(obj, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("field '{key}' must be a boolean")),
    }
}

/// Parse and schema-validate a `SCALE_baseline.json` document.
pub fn parse_scale_json(text: &str) -> Result<ScaleReport, String> {
    let doc = Json::parse(text)?;
    let obj = doc.as_object().ok_or("top level must be an object")?;
    let schema = get_str(obj, "schema")?;
    if schema != SCALE_SCHEMA {
        return Err(format!(
            "schema mismatch: expected {SCALE_SCHEMA}, got {schema}"
        ));
    }
    let scale = get_str(obj, "scale")?.to_string();
    let rows = get(obj, "curves")?
        .as_array()
        .ok_or("'curves' must be an array")?;
    let mut curves = Vec::new();
    for row in rows {
        let o = row.as_object().ok_or("curve row must be an object")?;
        let mut points = Vec::new();
        for p in get(o, "points")?
            .as_array()
            .ok_or("'points' must be an array")?
        {
            let triple = p.as_array().ok_or("point must be [conns, rss, fds]")?;
            match triple {
                [Json::Num(c), Json::Num(r), Json::Num(f)] => points.push(ScalePoint {
                    conns: *c as u64,
                    rss_bytes: *r as u64,
                    fds: *f as u64,
                }),
                _ => return Err("point must be [conns, rss, fds] numbers".to_string()),
            }
        }
        curves.push(ScaleCurve {
            layer: get_str(o, "layer")?.to_string(),
            arch: get_str(o, "arch")?.to_string(),
            limit: get_num(o, "limit")? as u64,
            points,
            sustained_conns: get_num(o, "sustained_conns")? as u64,
            mem_per_conn_bytes: get_num(o, "mem_per_conn_bytes")?,
            fd_watermark: get_num(o, "fd_watermark")? as u64,
            refusal_seen: get_bool(o, "refusal_seen")?,
            alive_after_refusal: get_bool(o, "alive_after_refusal")?,
            // Absent (pre-knob baselines) or `null` (what the writer emits
            // for `None`) means kernel-default buffers; anything else must
            // be a [recv, send] pair.
            socket_buffers: match get(o, "socket_buffers") {
                Err(_) | Ok(Json::Null) => None,
                Ok(v) => match v.as_array() {
                    Some([Json::Num(r), Json::Num(w)]) => Some((*r as u32, *w as u32)),
                    _ => {
                        return Err(
                            "'socket_buffers' must be [recv, send] numbers or null".to_string()
                        )
                    }
                },
            },
        });
    }
    if curves.is_empty() {
        return Err("baseline has no curves".to_string());
    }
    Ok(ScaleReport { scale, curves })
}

// ---------------------------------------------------------------------
// The CI frontier gate
// ---------------------------------------------------------------------

fn smoke_floor(layer: &str) -> u64 {
    if layer == "live" {
        LIVE_SMOKE_FLOOR
    } else {
        SIM_SMOKE_FLOOR
    }
}

/// Gate a fresh smoke ramp against the committed baseline. Population
/// sizes differ between smoke and full, so the gates are the
/// scale-independent readings: memory per held connection, reaching the
/// (smoke-sized) frontier, and surviving past refusal.
pub fn scale_checks(baseline: &ScaleReport, current: &ScaleReport) -> Vec<Check> {
    let mut checks = Vec::new();
    for base in &baseline.curves {
        let key = base.key();
        let Some(cur) = current.curves.iter().find(|c| c.key() == key) else {
            checks.push(Check::new(
                "scale: baseline curve present in fresh run",
                false,
                format!("{key} missing from the fresh ramp"),
            ));
            continue;
        };
        let ceiling = base.mem_per_conn_bytes * MEM_PER_CONN_TOLERANCE + MEM_PER_CONN_SLACK_BYTES;
        checks.push(Check::new(
            "scale: memory per connection within tolerance",
            cur.mem_per_conn_bytes <= ceiling,
            format!(
                "{key}: {:.0} B/conn vs baseline {:.0} (ceiling {:.0})",
                cur.mem_per_conn_bytes, base.mem_per_conn_bytes, ceiling
            ),
        ));
        checks.push(Check::new(
            "scale: ramp reaches the smoke floor",
            cur.sustained_conns >= smoke_floor(&base.layer),
            format!(
                "{key}: sustained {} conns (floor {})",
                cur.sustained_conns,
                smoke_floor(&base.layer)
            ),
        ));
        checks.push(Check::new(
            "scale: frontier reached and survived",
            cur.refusal_seen && cur.alive_after_refusal,
            format!(
                "{key}: refusal_seen {} alive_after_refusal {}",
                cur.refusal_seen, cur.alive_after_refusal
            ),
        ));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(mem_live: f64, mem_sim: f64) -> ScaleReport {
        let mk = |layer: &str, mem: f64, sustained: u64| ScaleCurve {
            layer: layer.to_string(),
            arch: "nio-2w".to_string(),
            limit: 3000,
            points: vec![ScalePoint {
                conns: sustained,
                rss_bytes: (mem * sustained as f64) as u64,
                fds: if layer == "live" { 2 * sustained } else { 0 },
            }],
            sustained_conns: sustained,
            mem_per_conn_bytes: mem,
            fd_watermark: if layer == "live" { 2 * sustained } else { 0 },
            refusal_seen: true,
            alive_after_refusal: true,
            socket_buffers: if layer == "live" {
                Some((4096, 16384))
            } else {
                None
            },
        };
        ScaleReport {
            scale: "smoke".to_string(),
            curves: vec![mk("sim", mem_sim, 50_000), mk("live", mem_live, 1_400)],
        }
    }

    #[test]
    fn json_round_trips() {
        let report = fake_report(700.0, 420.0);
        let text = scale_to_json(&report).render();
        let back = parse_scale_json(&text).expect("round trip");
        assert_eq!(back.curves.len(), 2);
        for (a, b) in report.curves.iter().zip(&back.curves) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.sustained_conns, b.sustained_conns);
            assert_eq!(a.fd_watermark, b.fd_watermark);
            assert_eq!(a.refusal_seen, b.refusal_seen);
            assert_eq!(a.alive_after_refusal, b.alive_after_refusal);
            assert_eq!(a.socket_buffers, b.socket_buffers);
            assert!((a.mem_per_conn_bytes - b.mem_per_conn_bytes).abs() < 1e-9);
            assert_eq!(a.points.len(), b.points.len());
        }
    }

    #[test]
    fn socket_buffers_absent_or_null_is_default_and_wrong_type_is_an_error() {
        let text = scale_to_json(&fake_report(700.0, 420.0)).render();
        let live_pair = "\"socket_buffers\":[4096,16384]";
        assert!(text.contains(live_pair), "{text}");
        let live_buffers = |doc: &str| parse_scale_json(doc).map(|r| r.curves[1].socket_buffers);
        let null = text.replace(live_pair, "\"socket_buffers\":null");
        let absent = text.replace(&format!("{live_pair},"), "");
        assert_eq!(live_buffers(&null), Ok(None));
        assert_eq!(live_buffers(&absent), Ok(None));
        for bad in ["\"x\"", "4096", "[4096]", "[4096,\"y\"]", "{}"] {
            let doc = text.replace(live_pair, &format!("\"socket_buffers\":{bad}"));
            assert!(live_buffers(&doc).is_err(), "socket_buffers {bad}");
        }
    }

    #[test]
    fn committed_baseline_parses_and_passes_its_own_gate() {
        let baseline = parse_scale_json(include_str!("../../../SCALE_baseline.json"))
            .expect("SCALE_baseline.json validates");
        let keys: Vec<String> = baseline.curves.iter().map(ScaleCurve::key).collect();
        assert!(keys.iter().any(|k| k.starts_with("sim/")), "{keys:?}");
        assert!(keys.iter().any(|k| k.starts_with("live/")), "{keys:?}");
        assert!(baseline.curves.iter().any(|c| c.socket_buffers.is_some()));
        assert!(scale_checks(&baseline, &baseline).iter().all(|c| c.pass));
    }

    #[test]
    fn gate_passes_itself_and_fails_a_memory_regression() {
        let baseline = fake_report(700.0, 420.0);
        let same = scale_checks(&baseline, &baseline);
        assert!(same.iter().all(|c| c.pass), "self-comparison must pass");
        // Nearly 2× the per-connection footprint: past the 1.5× + slack.
        let fat = fake_report(700.0 * 1.6 + 8192.0, 420.0 * 1.6 + 8192.0);
        let checks = scale_checks(&baseline, &fat);
        assert!(
            checks
                .iter()
                .any(|c| !c.pass && c.name.contains("memory per connection")),
            "memory regression must fail the gate"
        );
    }

    #[test]
    fn gate_fails_when_the_frontier_is_not_survived() {
        let baseline = fake_report(700.0, 420.0);
        let mut dead = baseline.clone();
        dead.curves[1].alive_after_refusal = false;
        let checks = scale_checks(&baseline, &dead);
        assert!(checks
            .iter()
            .any(|c| !c.pass && c.name.contains("frontier")));
    }

    #[test]
    fn sim_ramp_holds_almost_every_client_open() {
        // A miniature version of the sim ramp: the think-parked session
        // shape must leave ~all clients' connections open at the end.
        let cfg = sim_scale_config(2_000, SCALE_SEED);
        let tb = serversim::run(cfg);
        assert!(
            tb.peak_open_conns() >= 1_800,
            "peak open {} of 2000",
            tb.peak_open_conns()
        );
        assert!(
            tb.open_conns() >= 1_800,
            "still open {} of 2000",
            tb.open_conns()
        );
    }

    #[test]
    #[ignore = "calibration probe: run by hand with --ignored --nocapture"]
    fn sim_ramp_scaling_probe() {
        for n in [50_000u32, 100_000, 200_000] {
            let r0 = vm_rss_bytes();
            let t0 = std::time::Instant::now();
            let cfg = sim_scale_config(n, SCALE_SEED);
            let tb = serversim::run(cfg);
            println!(
                "n={} peak={} open={} rss_delta={}MB secs={:.1} stale={}",
                n,
                tb.peak_open_conns(),
                tb.open_conns(),
                vm_rss_bytes().saturating_sub(r0) / (1 << 20),
                t0.elapsed().as_secs_f64(),
                tb.stale_events
            );
        }
    }

    #[test]
    fn refusal_leg_refuses_and_survives() {
        let (refused, alive) = sim_refusal_leg();
        assert!(refused, "tiny backlog + refuse_on_full must refuse");
        assert!(alive, "service must continue at the frontier");
    }
}
