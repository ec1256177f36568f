//! The per-layer replay of a traced run: the bytes the workload sent, and
//! the operations its server performs on them, pushed through each layer's
//! public functions in isolation and timed.
//!
//! Each layer is called in batches of 1,024 (one span per batch) for a
//! fixed time budget, and reports the tenth percentile of its batches'
//! time per call — the quiet-decile reasoning of `estimate`, applied to a
//! loop. The numbers say what a layer costs per call on this workload's
//! inputs; README.md says which end-to-end metric each should move.

use crate::estimate::{median, quantile};
use crate::report::Metric;
use crate::simfigs;
use crate::stream::{content_files, RequestStream};
use crate::trace::{phase, Tracer};
use connslab::Slab;
use desim::{
    BinaryHeapQueue, Ctx, Engine, EventQueue, Model, Rng, Scheduled, SimDuration, SimTime,
};
use httpcore::{
    write_head_full, ContentStore, HeadPool, ParseOutcome, ReplyQueue, RequestParser, RequestPool,
    Status, Version,
};
use metrics::Histogram;
use netsim::{FlowId, LinkConfig, PsLink};
use reactor::{DeadlineWheel, EpollSelector, Interest, Selector, Token, Waker};
use std::hint::black_box;
use std::io::{self, IoSlice, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Calls per batch, and per span.
const BATCH: usize = 1024;

/// Time spent on each layer.
const BUDGET: Duration = Duration::from_millis(60);

/// Batches of a layer that leave a span; later ones are only timed.
const SPANS_PER_LAYER: usize = 256;

/// Pending events of the `desim` loops: the largest client population of
/// the simulated figures.
const PENDING: usize = 6000;

/// Time `call` in batches; nanoseconds per call at the quiet decile.
fn per_call_ns(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    mut call: impl FnMut(),
) -> f64 {
    let mut batches = Vec::new();
    let end = Instant::now() + BUDGET;
    loop {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            call();
        }
        let t1 = Instant::now();
        batches.push(t1.duration_since(t0).as_nanos() as f64 / BATCH as f64);
        if let (Some(tr), true) = (tracer.as_deref_mut(), batches.len() <= SPANS_PER_LAYER) {
            tr.span(0, 0, name, t0, t1);
        }
        if t1 >= end {
            return quantile(&batches, 0.1);
        }
    }
}

/// Median wall time of five runs of `build`, milliseconds.
fn build_ms<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    mut build: impl FnMut() -> T,
) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(build());
            let t1 = Instant::now();
            if let Some(tr) = tracer.as_deref_mut() {
                tr.span(0, 0, name, t0, t1);
            }
            t1.duration_since(t0).as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// A writer that accepts everything and keeps nothing: the reply queue's
/// own cost, without a socket's.
struct Sink;

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        Ok(bufs.iter().map(|b| b.len()).sum())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A model whose every event schedules its own successor: the engine's
/// dispatch and queue cost with a constant pending population.
struct SelfRescheduling;

impl Model for SelfRescheduling {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<'_, u32>, event: u32) {
        let delay = 1_000 + ctx.rng().below(1_000_000);
        ctx.schedule_in(SimDuration::from_nanos(delay), event);
    }
}

/// The `httpcore` layers, on the requests the workload sent.
fn httpcore_layers(
    tr: &mut Option<&mut Tracer>,
    requests: &RequestStream,
    store: &ContentStore,
) -> Vec<Metric> {
    let depth = requests.depth as f64;
    let mut next_op = (0..requests.ops.len()).cycle();
    let mut next_target = (0..requests.targets.len()).cycle();

    let (mut parser, mut pool) = (RequestParser::new(), RequestPool::new());
    let parse = per_call_ns(tr, "httpcore.parse", || {
        parser.feed(requests.bytes_of(&requests.ops[next_op.next().expect("cycle")]));
        loop {
            match parser.parse_pooled(&mut pool) {
                ParseOutcome::Complete(req) => pool.give(black_box(req)),
                ParseOutcome::Incomplete => break,
                ParseOutcome::Error(e) => panic!("the workload's own request did not parse: {e}"),
            }
        }
    });

    let paths: Vec<String> = requests
        .targets
        .iter()
        .map(|&id| store.path_of(id))
        .collect();
    let resolve = per_call_ns(tr, "httpcore.resolve", || {
        let id = store
            .resolve(&paths[next_target.next().expect("cycle")])
            .expect("a served file");
        black_box(store.body_slice(id));
    });

    let date = httpcore::now_http_date();
    let mut head = Vec::with_capacity(512);
    let write_head = per_call_ns(tr, "httpcore.head", || {
        let id = requests.targets[next_target.next().expect("cycle")];
        head.clear();
        let (len, modified) = (store.size_of(id) as usize, store.last_modified(id));
        write_head_full(
            &mut head,
            Version::Http11,
            Status::Ok,
            len,
            true,
            &date,
            Some(modified),
        );
        black_box(&head);
    });

    let (mut queue, mut heads) = (ReplyQueue::new(), HeadPool::new());
    let rendered = head.clone();
    let reply_queue = per_call_ns(tr, "httpcore.replyq", || {
        let id = requests.targets[next_target.next().expect("cycle")];
        let mut staged = heads.take();
        staged.extend_from_slice(&rendered);
        queue.push_head(staged, &mut heads);
        queue.push_body(store.body_slice(id));
        while !queue.is_empty() {
            queue
                .write_to(&mut Sink, &mut heads)
                .expect("the sink never fails");
        }
    });

    vec![
        Metric::new("httpcore.parse_ns_per_req", parse / depth, "ns"),
        Metric::new("httpcore.head_ns_per_reply", write_head, "ns"),
        Metric::new("httpcore.replyq_ns_per_reply", reply_queue, "ns"),
        Metric::new("httpcore.resolve_ns_per_req", resolve, "ns"),
    ]
}

/// The `reactor` and `connslab` layers: what a worker does around each
/// wait, each write-interest change, each accepted connection.
fn reactor_layers(tr: &mut Option<&mut Tracer>) -> io::Result<Vec<Metric>> {
    let mut selector = EpollSelector::new()?;
    let mut events = Vec::with_capacity(16);
    let wait = Some(Duration::from_secs(1));

    let (mut near, mut far) = UnixStream::pair()?;
    selector.register(near.as_raw_fd(), Token(1), Interest::READABLE)?;
    let mut byte = [0u8; 1];
    let roundtrip = per_call_ns(tr, "reactor.wait_roundtrip", || {
        far.write_all(&[1]).expect("socketpair write");
        events.clear();
        selector.select(&mut events, wait).expect("epoll_wait");
        near.read_exact(&mut byte).expect("socketpair read");
    });

    let reregister = per_call_ns(tr, "reactor.reregister", || {
        selector
            .reregister(near.as_raw_fd(), Token(1), Interest::BOTH)
            .expect("epoll_ctl");
        selector
            .reregister(near.as_raw_fd(), Token(1), Interest::READABLE)
            .expect("epoll_ctl");
    });
    selector.deregister(near.as_raw_fd())?;

    let waker = Waker::new()?;
    selector.register(waker.read_fd(), Token(2), Interest::READABLE)?;
    let wake = per_call_ns(tr, "reactor.waker_wake", || {
        waker.wake();
        events.clear();
        selector.select(&mut events, wait).expect("epoll_wait");
        black_box(waker.drain());
    });

    // One connection opened every 500 µs, each arming a 5 s deadline: the
    // wheel holds ten thousand entries and, once warm, expires one per arm.
    let mut wheel: DeadlineWheel<u64> = DeadlineWheel::new();
    let (mut now, step, deadline) = (0u64, 500_000u64, 5_000_000_000u64);
    let mut arm_and_expire = || {
        now += step;
        wheel.schedule(now + deadline, now);
        while let Some(due) = wheel.pop_due(now) {
            black_box(due);
        }
    };
    for _ in 0..(deadline / step) {
        arm_and_expire();
    }
    let wheel_op = per_call_ns(tr, "reactor.wheel", arm_and_expire);

    let mut slab: Slab<[u64; 16]> = Slab::new();
    let _resident = [slab.insert([0; 16]), slab.insert([1; 16])];
    let insert_remove = per_call_ns(tr, "connslab.insert_remove", || {
        let handle = slab.insert(black_box([2; 16]));
        black_box(slab.remove(handle));
    });

    Ok(vec![
        Metric::new("reactor.wait_roundtrip_ns", roundtrip, "ns"),
        Metric::new("reactor.reregister_ns", reregister / 2.0, "ns"),
        Metric::new("reactor.waker_wake_ns", wake, "ns"),
        Metric::new("reactor.wheel_ns_per_op", wheel_op, "ns"),
        Metric::new("connslab.insert_remove_ns", insert_remove, "ns"),
    ])
}

/// `metrics`, `workload`, `desim` and `netsim`: the layers under the
/// simulated figures (and the histogram the live servers record into).
fn model_layers(tr: &mut Option<&mut Tracer>, seed: u64) -> Vec<Metric> {
    let files = content_files();
    let mut hist = Histogram::default_precision();
    let mut sample = 0u64;
    let record = per_call_ns(tr, "metrics.hist_record", || {
        sample = (sample + 7919) % 1_000_000;
        hist.record(black_box(1_000 + sample));
    });

    let mut rng = Rng::new(seed);
    let sample_file = per_call_ns(tr, "workload.sample", || {
        black_box(files.sample(&mut rng));
    });

    let mut engine = Engine::new(SelfRescheduling, seed);
    for i in 0..PENDING {
        engine.schedule_at(SimTime::from_nanos(i as u64), i as u32);
    }
    let step = per_call_ns(tr, "desim.step", || {
        engine.step();
    });

    let mut queue = BinaryHeapQueue::new();
    let mut seq = 0u64;
    let mut push = |queue: &mut BinaryHeapQueue<u32>, at: u64| {
        seq += 1;
        queue.push(Scheduled {
            time: SimTime::from_nanos(at),
            seq,
            event: 0,
        });
    };
    for _ in 0..PENDING {
        push(&mut queue, rng.below(1_000_000));
    }
    let push_pop = per_call_ns(tr, "desim.queue_push_pop", || {
        let head = queue.pop().expect("the population is constant");
        push(
            &mut queue,
            head.time.as_nanos() + 1_000 + rng.below(1_000_000),
        );
    });

    // Sixty-four flows share a gigabit link; each call admits one more and
    // completes the one that finishes first.
    let mut link = PsLink::new(LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100)));
    let (mut at, mut flow) = (SimTime::ZERO, 0u64);
    let mut admit = |link: &mut PsLink, at: SimTime| {
        flow += 1;
        link.start_flow(at, FlowId(flow), 4_000.0 + (flow % 64) as f64 * 1_000.0);
    };
    for _ in 0..64 {
        admit(&mut link, at);
    }
    let per_flow = per_call_ns(tr, "netsim.pslink", || {
        admit(&mut link, at);
        let (done_at, _) = link.next_completion(at).expect("flows are active");
        at = done_at;
        black_box(link.complete_next(at));
    });

    vec![
        Metric::new("metrics.hist_record_ns", record, "ns"),
        Metric::new("workload.sample_ns", sample_file, "ns"),
        Metric::new("desim.events_per_s", 1e9 / step, "1/s"),
        Metric::new("desim.queue_push_pop_ns", push_pop, "ns"),
        Metric::new("netsim.pslink_ns_per_flow", per_flow, "ns"),
    ]
}

/// The two set-up layers every workload pays for, and the simulator's.
fn build_layers(tr: &mut Option<&mut Tracer>, seed: u64) -> Vec<Metric> {
    let fileset = build_ms(tr, "workload.fileset_build", content_files);
    let files = content_files();
    let content = build_ms(tr, "httpcore.content_build", || {
        ContentStore::from_fileset(&files)
    });
    let testbed = phase(tr, "serversim.testbed_new", |_| {
        simfigs::testbed_new(seed, 5).0
    });
    vec![
        Metric::new("workload.fileset_build_ms", fileset, "ms"),
        Metric::new("httpcore.content_build_ms", content, "ms"),
        Metric::new("serversim.testbed_new_ms", testbed, "ms"),
    ]
}

/// Replay `requests` through every layer. `sim_point_ms` gives the wall
/// time of the two simulated points published per layer when the workload
/// has already run them (`sim-figs`); a live workload runs each once here
/// (`smoke`: a fifth of the simulated time).
pub fn replay(
    tracer: &mut Option<&mut Tracer>,
    requests: &RequestStream,
    store: &ContentStore,
    seed: u64,
    smoke: bool,
    sim_point_ms: Option<(f64, f64)>,
) -> io::Result<Vec<Metric>> {
    phase(tracer, "replay", |tr| {
        let mut out = httpcore_layers(tr, requests, store);
        out.extend(reactor_layers(tr)?);
        out.extend(model_layers(tr, seed));
        out.extend(build_layers(tr, seed));
        let (nio, httpd) = sim_point_ms.unwrap_or_else(|| {
            let mut ms = |i: usize| {
                let label = simfigs::POINTS[i].label;
                phase(tr, label, |_| {
                    simfigs::run_point(&simfigs::POINTS[i], seed, smoke)
                })
                .wall_ns as f64
                    / 1e6
            };
            (ms(simfigs::NIO_6000), ms(simfigs::HTTPD4096_6000))
        });
        out.push(Metric::new("serversim.nio_6000_ms", nio, "ms"));
        out.push(Metric::new("serversim.httpd4096_6000_ms", httpd, "ms"));
        Ok(out)
    })
}
