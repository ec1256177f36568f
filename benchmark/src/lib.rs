//! `eventscale-bench`: the quiet-window reply-cost benchmark.
//!
//! Six workloads, five end-to-end metrics, and a per-layer replay; the
//! definitions, the run protocol and the reasons for both are in
//! `README.md` next to this package. The package stands apart from the
//! repository's workspace and reaches the system under test only through
//! the public functions of its crates.

pub mod driver;
pub mod estimate;
pub mod framing;
pub mod layers;
pub mod live;
pub mod noise;
pub mod report;
pub mod simfigs;
pub mod stream;
pub mod sys;
pub mod trace;

use live::{Effort, LiveOutcome, LiveSpec, ServerKind, ServerLayer};
use metrics::Json;
use report::{Metric, RunReport};
use std::path::Path;
use std::time::Duration;
use sys::Pinning;
use trace::{phase, Tracer};

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Live(LiveSpec),
    SimFigs,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, Kind); 6] = [
    ("nio-small", Kind::Live(live::NIO_SMALL)),
    ("nio-pipelined", Kind::Live(live::NIO_PIPELINED)),
    ("nio-large", Kind::Live(live::NIO_LARGE)),
    ("nio-churn", Kind::Live(live::NIO_CHURN)),
    ("pool-small", Kind::Live(live::POOL_SMALL)),
    ("sim-figs", Kind::SimFigs),
];

/// How one run is asked for on the command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: u64,
    pub trace: bool,
    /// A fifth of the work: for checking that a run works, not for numbers.
    pub smoke: bool,
}

impl RunArgs {
    fn effort(&self) -> Effort {
        let windows = (self.seconds * 1000 / live::WINDOW.as_millis() as u64) as usize;
        Effort {
            setup_cycles: 20,
            warmup: Duration::from_secs(1),
            windows: if self.smoke { 8 } else { windows.max(8) },
        }
    }

    /// Passes over the simulated points: three in the reference ten
    /// seconds, never fewer than the two the determinism check needs.
    fn sim_passes(&self) -> usize {
        if self.smoke {
            2
        } else {
            (self.seconds as usize * 3 / 10).max(2)
        }
    }
}

/// The short run a traced run takes of a server its workload does not
/// exercise, so that every traced run reports every per-layer metric.
const PROBE: Effort = Effort {
    setup_cycles: 3,
    warmup: Duration::from_millis(250),
    windows: 8,
};

fn server_metrics(kind: ServerKind, s: &ServerLayer) -> Vec<Metric> {
    let family = kind.family();
    let metric =
        |name: &str, value: f64, unit| Metric::new(format!("{family}.{name}"), value, unit);
    let mut out = vec![
        metric("wakeups_per_reply", s.wakeups_per_reply, "1/reply"),
        metric("worker_cpu_us_per_reply", s.worker_cpu_us_per_reply, "us"),
        metric("bytes_per_reply", s.bytes_per_reply, "B"),
        metric("flushes_per_reply", s.flushes_per_reply, "1/reply"),
        metric("stage_parse_p50_us", s.stage_parse_p50_us, "us"),
        metric("stage_service_p50_us", s.stage_service_p50_us, "us"),
        metric("stage_transfer_p50_us", s.stage_transfer_p50_us, "us"),
        metric("start_ms", s.start_ms, "ms"),
        metric("shutdown_ms", s.shutdown_ms, "ms"),
    ];
    if kind != ServerKind::Pool {
        // The pool has no acceptor thread: its workers accept for themselves.
        out.push(metric(
            "acceptor_cpu_us_per_reply",
            s.acceptor_cpu_us_per_reply,
            "us",
        ));
    }
    out
}

fn driver_metrics(o: &LiveOutcome) -> Vec<Metric> {
    vec![
        Metric::new(
            "driver.busy_us_per_reply",
            o.estimate.driver_busy_us_per_reply,
            "us",
        ),
        Metric::new("driver.reply_p99_us", o.reply_p99_us, "us"),
        Metric::new("driver.connect_p50_us", o.connect_p50_us, "us"),
        Metric::new("driver.window_spread", o.estimate.window_spread, "ratio"),
        Metric::new("driver.trace_overhead_frac", o.trace_overhead_frac, "ratio"),
    ]
}

/// Add a live run's operation counts and first failure to the report.
fn absorb(report: &mut RunReport, o: &LiveOutcome) {
    report.attempted += o.attempted;
    report.failed += o.failed;
    report.problems.extend(o.first_failure.clone());
}

/// A traced run reads the layer metrics of a server its workload does not
/// run from a short depth-1 small-file run of that server; [`as_probe`]
/// marks them so.
fn probe(
    tracer: &mut Option<&mut Tracer>,
    report: &mut RunReport,
    spec: &LiveSpec,
    name: &'static str,
    pin: Option<Pinning>,
) -> LiveOutcome {
    let o = phase(tracer, name, |tr| {
        live::run(spec, report.seed, PROBE, pin, tr)
    });
    absorb(report, &o);
    o
}

fn as_probe(metrics: Vec<Metric>) -> impl Iterator<Item = Metric> {
    metrics.into_iter().map(|m| Metric { probe: true, ..m })
}

/// The five end-to-end metrics, in `BENCHMARK.json`'s order.
fn end_to_end(
    replies_per_s: f64,
    reply_p50_us: f64,
    cpu_us: f64,
    rss_mb: f64,
    setup_s: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("replies_per_s", replies_per_s, "1/s"),
        Metric::new("reply_p50_us", reply_p50_us, "us"),
        Metric::new("server_cpu_us_per_reply", cpu_us, "us"),
        Metric::new("rss_mb", rss_mb, "MiB"),
        Metric::new("setup_s", setup_s, "s"),
    ]
}

/// Add the per-layer replay of `o`'s requests to the report.
fn replay_into(
    tracer: &mut Option<&mut Tracer>,
    report: &mut RunReport,
    o: &LiveOutcome,
    smoke: bool,
    sim_point_ms: Option<(f64, f64)>,
) {
    match layers::replay(
        tracer,
        &o.requests,
        &o.content,
        report.seed,
        smoke,
        sim_point_ms,
    ) {
        Ok(layer) => report.metrics.extend(layer),
        Err(e) => report.problems.push(format!("per-layer replay: {e}")),
    }
}

fn run_live(
    args: &RunArgs,
    spec: &LiveSpec,
    pin: Option<Pinning>,
    tracer: &mut Option<&mut Tracer>,
    report: &mut RunReport,
) {
    let o = phase(tracer, "workload", |tr| {
        live::run(spec, args.seed, args.effort(), pin, tr)
    });
    absorb(report, &o);
    if !args.trace {
        let e = &o.estimate;
        report.metrics = end_to_end(
            e.replies_per_s,
            e.reply_p50_us,
            e.server_cpu_us_per_reply,
            o.rss_mb,
            o.setup.cycle_ms / 1e3,
        );
        return;
    }
    report
        .metrics
        .extend(server_metrics(spec.server, &o.server));
    report.metrics.extend(driver_metrics(&o));
    let (other, name) = match spec.server {
        ServerKind::Pool => (&live::NIO_SMALL, "probe.nioserver"),
        _ => (&live::POOL_SMALL, "probe.poolserver"),
    };
    let p = probe(tracer, report, other, name, pin);
    report
        .metrics
        .extend(as_probe(server_metrics(other.server, &p.server)));
    replay_into(tracer, report, &o, args.smoke, None);
}

fn run_sim(
    args: &RunArgs,
    pin: Option<Pinning>,
    tracer: &mut Option<&mut Tracer>,
    report: &mut RunReport,
) {
    let o = phase(tracer, "workload", |tr| {
        simfigs::run(args.seed, args.sim_passes(), args.smoke, pin, tr)
    });
    report.attempted += o.replies;
    for label in &o.differing {
        report
            .problems
            .push(format!("{label}: result differs between passes"));
    }
    if !args.trace {
        report.metrics = end_to_end(
            o.replies_per_s,
            o.point_p50_us,
            o.cpu_us_per_reply,
            o.rss_mb,
            o.setup_s,
        );
        return;
    }
    // No request crosses a socket here: the live layers are read from
    // probes, and replayed on the nio probe's requests.
    let nio = probe(tracer, report, &live::NIO_SMALL, "probe.nioserver", pin);
    let pool = probe(tracer, report, &live::POOL_SMALL, "probe.poolserver", pin);
    report
        .metrics
        .extend(as_probe(server_metrics(ServerKind::Nio, &nio.server)));
    report
        .metrics
        .extend(as_probe(server_metrics(ServerKind::Pool, &pool.server)));
    report.metrics.extend(as_probe(driver_metrics(&nio)));
    let points = (
        o.point_ms[simfigs::NIO_6000],
        o.point_ms[simfigs::HTTPD4096_6000],
    );
    replay_into(tracer, report, &nio, args.smoke, Some(points));
}

/// Run one workload once. `Err` is a usage error (unknown workload).
pub fn run_workload(args: &RunArgs, out_dir: &Path) -> Result<RunReport, String> {
    let Some(&(_, kind)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown workload '{}'; one of: {}",
            args.workload,
            names.join(", ")
        ));
    };
    // Chosen once, before anything pins this thread: a pinned thread sees
    // only its own processor as allowed.
    let pin = Pinning::choose();
    let mut tracer_store = args.trace.then(Tracer::new);
    let mut tracer = tracer_store.as_mut();
    let mut report = RunReport {
        workload: args.workload.clone(),
        seed: args.seed,
        traced: args.trace,
        host: sys::Host::read(),
        pinned: pin.is_some(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
    };
    match kind {
        Kind::Live(spec) => run_live(args, &spec, pin, &mut tracer, &mut report),
        Kind::SimFigs => run_sim(args, pin, &mut tracer, &mut report),
    }
    if let Some(tr) = tracer_store {
        let path = out_dir.join(format!("{}.trace.jsonl", args.workload));
        let mut header = report.fingerprint();
        if let Json::Object(fields) = &mut header {
            fields.push(("spans_dropped".into(), tr.dropped().into()));
        }
        if let Err(e) = tr.write_jsonl(&path, &header.render()) {
            report
                .problems
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    Ok(report)
}
