//! Schema equality across layers: a simulated `repro observe` capture and a
//! live loadgen capture must emit the *same* JSONL schema — same `type`
//! tags, same keys per record type — so one analysis pipeline reads both.

#![cfg(target_os = "linux")]

use desim::SimDuration;
use eventscale::experiments::{observe, Scale};
use httpcore::ContentStore;
use obs::export::LINE_TYPES;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;
use workload::{FileSet, SurgeConfig};

/// Top-level keys of one JSONL object line, in order. Minimal scanner for
/// output this workspace itself rendered (no serde by policy).
fn top_level_keys(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut keys = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b'"' => {
                // Scan the string (keys and values both land here).
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\\' {
                        j += 1;
                    }
                    j += 1;
                }
                let is_key = depth == 1 && bytes.get(j + 1) == Some(&b':');
                if is_key {
                    keys.push(line[start..j].to_string());
                }
                i = j;
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

fn line_type(line: &str) -> String {
    let keys = top_level_keys(line);
    assert_eq!(keys.first().map(String::as_str), Some("type"), "{line}");
    // `"type":"X"` is always the first pair by construction.
    let rest = &line[line.find(':').unwrap() + 2..];
    rest[..rest.find('"').unwrap()].to_string()
}

/// First line of each record type, keyed by tag.
fn schema_of(doc: &str) -> Vec<(String, Vec<String>)> {
    let mut seen: Vec<(String, Vec<String>)> = Vec::new();
    for line in doc.lines() {
        let t = line_type(line);
        assert!(LINE_TYPES.contains(&t.as_str()), "unknown type {t}");
        if !seen.iter().any(|(s, _)| *s == t) {
            seen.push((t, top_level_keys(line)));
        }
    }
    seen
}

fn sim_capture() -> String {
    let scale = Scale {
        loads: vec![40],
        duration: SimDuration::from_secs(4),
        warmup: SimDuration::from_secs(1),
        ramp: SimDuration::from_millis(500),
        seed: 11,
    };
    observe("fig1a", &scale).expect("catalog figure").to_jsonl()
}

fn live_capture() -> String {
    let mut rng = desim::Rng::new(3);
    let files = FileSet::build(
        &SurgeConfig {
            num_files: 30,
            tail_prob: 0.0,
            body_mu: 7.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    );
    let content = Arc::new(ContentStore::from_fileset(&files));
    let server = nioserver::NioServer::start(nioserver::NioConfig {
        workers: 1,
        backend: nioserver::BackendKind::Epoll,
        accept: nioserver::AcceptMode::from_env(),
        shed_watermark: None,
        lifecycle: httpcore::LifecyclePolicy::default(),
        content,
    })
    .expect("start server");
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = obs::spawn_sampler(
        server.gauges(),
        obs::gauge::kinds_for(false),
        Duration::from_millis(5),
        4096,
        Arc::clone(&stop),
    );
    let cfg = loadgen::LoadConfig {
        target: server.addr(),
        clients: 4,
        duration: Duration::from_millis(800),
        client_timeout: Duration::from_secs(5),
        think_scale: 0.005,
        seed: 42,
        obs: Some(obs::ObsConfig::default()),
        ..Default::default()
    };
    let mut report = loadgen::run(&cfg, &files);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    report.obs.gauges.merge(sampler.join().expect("sampler"));
    server.shutdown();
    let meta = obs::ExportMeta::new("live", "nio-live")
        .with("server", "nio-1w")
        .with("clients", cfg.clients as u64);
    obs::to_jsonl(&report.obs, &meta, 0)
}

#[test]
fn sim_and_live_jsonl_share_one_schema() {
    let sim = sim_capture();
    let live = live_capture();

    let sim_schema = schema_of(&sim);
    let live_schema = schema_of(&live);

    // Both captures exercise every record type, in emission order.
    let tags =
        |s: &[(String, Vec<String>)]| -> Vec<String> { s.iter().map(|(t, _)| t.clone()).collect() };
    assert_eq!(tags(&sim_schema), LINE_TYPES.to_vec());
    assert_eq!(tags(&live_schema), LINE_TYPES.to_vec());

    for ((t, sim_keys), (_, live_keys)) in sim_schema.iter().zip(&live_schema) {
        if t == "meta" {
            // Meta carries run-specific extras; the required header keys
            // must be present and ordered identically in both.
            for k in ["type", "source", "label", "t_unit"] {
                assert!(sim_keys.contains(&k.to_string()), "sim meta lacks {k}");
                assert!(live_keys.contains(&k.to_string()), "live meta lacks {k}");
            }
        } else {
            assert_eq!(sim_keys, live_keys, "key mismatch for type {t}");
        }
    }

    // Both declare their layer truthfully.
    assert!(sim.lines().next().unwrap().contains(r#""source":"sim""#));
    assert!(live.lines().next().unwrap().contains(r#""source":"live""#));

    // Spot-check the invariant both layers promise: stage sums equal totals
    // on every request line. Cheap string-free check via the tracker is done
    // elsewhere; here we check the serialized form agrees with itself.
    for doc in [&sim, &live] {
        for line in doc.lines().filter(|l| l.contains(r#""type":"request""#)) {
            let total: u64 = field_u64(line, "total_ns");
            let sum: u64 = line
                .split(r#""ns":"#)
                .skip(1)
                .map(|s| {
                    s[..s.find(['}', ','].as_ref()).unwrap()]
                        .parse::<u64>()
                        .unwrap()
                })
                .sum();
            assert_eq!(sum, total, "stages must sum to total: {line}");
        }
    }
}

/// The `refused` end reason flows through both exporters in both layers:
/// a sim run with admission control and a live run against a shedding
/// server each emit `"end":"refused"` JSONL lines, and the terminal
/// end-reason table shows a non-zero `refused` row.
#[test]
fn refused_end_reason_reaches_both_exporters_in_both_layers() {
    // Sim layer: a threaded server with a low shed watermark refuses
    // connections once a couple of threads are bound.
    let link = netsim::LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
    let mut cfg = eventscale::serversim::TestbedConfig::paper_default(
        eventscale::serversim::ServerArch::Threaded { pool: 2 },
        1,
        link,
    );
    cfg.num_clients = 40;
    cfg.duration = SimDuration::from_secs(6);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.ramp = SimDuration::from_millis(500);
    cfg.admission.shed_watermark = Some(2);
    cfg.obs = Some(obs::ObsConfig::default());
    let tb = eventscale::serversim::run(cfg);
    assert!(
        tb.metrics.errors.connection_refused > 0,
        "watermark must trip: {:?}",
        tb.metrics.errors
    );
    let meta = obs::ExportMeta::new("sim", "refused-sim");
    let sim_jsonl = obs::to_jsonl(&tb.obs, &meta, 0);
    assert!(
        sim_jsonl.contains(r#""end":"refused""#),
        "sim JSONL must carry refused request lines"
    );
    let sim_table = obs::report::end_reason_table(&tb.obs.requests);
    assert!(sim_table.contains("refused"), "table: {sim_table}");

    // Live layer: a shedding nio server refuses at the door; loadgen's
    // capture classifies those ends as refused, not reset.
    let mut rng = desim::Rng::new(5);
    let files = FileSet::build(
        &SurgeConfig {
            num_files: 10,
            tail_prob: 0.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    );
    let server = nioserver::NioServer::start(nioserver::NioConfig {
        workers: 1,
        backend: nioserver::BackendKind::Epoll,
        accept: nioserver::AcceptMode::from_env(),
        shed_watermark: Some(0),
        lifecycle: httpcore::LifecyclePolicy::default(),
        content: Arc::new(ContentStore::from_fileset(&files)),
    })
    .expect("start server");
    let cfg = loadgen::LoadConfig {
        target: server.addr(),
        clients: 4,
        duration: Duration::from_millis(500),
        client_timeout: Duration::from_secs(2),
        think_scale: 0.005,
        seed: 9,
        obs: Some(obs::ObsConfig::default()),
        ..Default::default()
    };
    let report = loadgen::run(&cfg, &files);
    server.shutdown();
    assert!(
        report.errors.connection_refused > 0,
        "live shed must refuse: {:?}",
        report.errors
    );
    let meta = obs::ExportMeta::new("live", "refused-live");
    let live_jsonl = obs::to_jsonl(&report.obs, &meta, 0);
    assert!(
        live_jsonl.contains(r#""end":"refused""#),
        "live JSONL must carry refused request lines"
    );
    let live_table = obs::report::end_reason_table(&report.obs.requests);
    assert!(live_table.contains("refused"), "table: {live_table}");
}

fn field_u64(line: &str, key: &str) -> u64 {
    let pat = format!(r#""{key}":"#);
    let start = line.find(&pat).expect(key) + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'].as_ref()).unwrap();
    rest[..end].parse().unwrap()
}
