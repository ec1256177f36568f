//! `BENCHMARK.json` and the program agree: the same workloads, the same
//! end-to-end metrics with the same units, directions and bounds, and a
//! traced run reports every per-layer metric the file lists.

use eventscale_bench::report::END_TO_END;
use eventscale_bench::{run_workload, RunArgs, WORKLOADS};
use std::path::Path;

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The objects of the array under `key`, as text. Enough of a JSON reader
/// for a file whose arrays hold flat objects of strings and numbers.
fn objects(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let open = start + json[start..].find('[').expect("an array");
    let close = open + json[open..].find(']').expect("array end");
    json[open + 1..close]
        .split('}')
        .filter(|o| o.contains('{'))
        .map(|o| o[o.find('{').unwrap() + 1..].to_string())
        .collect()
}

/// The value of `field` in a flat object's text, quotes stripped.
fn field(object: &str, field: &str) -> String {
    let at = object
        .find(&format!("\"{field}\""))
        .unwrap_or_else(|| panic!("no {field} in {object}"));
    let rest = object[at..].split_once(':').expect("a value").1;
    let value = if let Some(quoted) = rest.trim_start().strip_prefix('"') {
        quoted.split('"').next().unwrap()
    } else {
        rest.split(',').next().unwrap()
    };
    value.trim().to_string()
}

#[test]
fn workloads_and_end_to_end_metrics_match_the_file() {
    let json = benchmark_json();
    let listed: Vec<String> = objects(&json, "workloads")
        .iter()
        .map(|o| field(o, "name"))
        .collect();
    let built: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed, built);

    // `check-noise` runs what the harness runs.
    assert_eq!(
        field(&json, "run_seconds").parse::<u64>().unwrap(),
        eventscale_bench::noise::SECONDS
    );

    let metrics = objects(&json, "end_to_end");
    assert_eq!(metrics.len(), END_TO_END.len());
    for (object, metric) in metrics.iter().zip(&END_TO_END) {
        assert_eq!(field(object, "name"), metric.name);
        assert_eq!(field(object, "unit"), metric.unit);
        assert_eq!(
            field(object, "better") == "higher",
            metric.higher_is_better,
            "{}",
            metric.name
        );
        assert_eq!(
            field(object, "bound").parse::<f64>().unwrap(),
            metric.bound,
            "{}",
            metric.name
        );
    }
}

/// `nio-large` is there for the partial-write path: its replies must not
/// fit the server's send buffer, which shows as more than one flush per
/// reply (a reply the kernel takes whole is exactly one).
fn nio_large_replies_are_written_piecemeal() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract-large");
    let args = RunArgs {
        workload: "nio-large".into(),
        seed: 3,
        seconds: 2,
        trace: true,
        smoke: true,
    };
    let report = run_workload(&args, &out_dir).expect("a known workload");
    assert!(report.correct(), "{:?}", report.problems);
    let flushes = report
        .metrics
        .iter()
        .find(|m| m.name == "nioserver.flushes_per_reply")
        .expect("a traced run reports it");
    assert!(!flushes.probe);
    assert!(flushes.value > 1.5, "{} flushes per reply", flushes.value);
}

fn a_traced_run_reports_every_listed_layer_metric_and_a_parseable_trace() {
    let json = benchmark_json();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract-trace");
    let args = RunArgs {
        workload: "nio-pipelined".into(),
        seed: 2,
        seconds: 2,
        trace: true,
        smoke: true,
    };
    let report = run_workload(&args, &out_dir).expect("a known workload");
    assert!(report.correct(), "{:?}", report.problems);
    assert!(report.attempted > 0);

    let listed = objects(&json, "per_layer");
    assert_eq!(listed.len(), report.metrics.len(), "{:?}", report.metrics);
    for object in &listed {
        let name = field(object, "name");
        let metric = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no {name}"));
        assert_eq!(metric.unit, field(object, "unit"), "{name}");
        assert!(metric.value.is_finite(), "{name}");
    }

    let trace =
        std::fs::read_to_string(out_dir.join("nio-pipelined.trace.jsonl")).expect("trace file");
    let mut names = std::collections::BTreeSet::new();
    for (i, line) in trace.lines().enumerate() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "line {i}: {line}"
        );
        if i == 0 {
            assert_eq!(field(line, "workload"), "nio-pipelined");
            continue;
        }
        let (start, end) = (
            field(line, "start_ns"),
            field(line, "end_ns").replace('}', ""),
        );
        assert!(
            start.parse::<u64>().unwrap() <= end.parse::<u64>().unwrap(),
            "{line}"
        );
        names.insert(field(line, "name"));
    }
    for expected in [
        "setup",
        "warmup",
        "measure",
        "driver.request",
        "driver.write",
        "driver.wait",
        "driver.read",
        "replay",
        "httpcore.parse",
    ] {
        assert!(
            names.contains(expected),
            "no {expected} span among {names:?}"
        );
    }
}

/// A live run finds its server's threads by name and pins the threads it
/// starts, so two cannot share a process at once: one test, in turn.
#[test]
fn traced_runs() {
    a_traced_run_reports_every_listed_layer_metric_and_a_parseable_trace();
    nio_large_replies_are_written_piecemeal();
}
