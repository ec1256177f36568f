//! `check-noise`: does the benchmark repeat within its own bounds?
//!
//! Every workload is run in two interleaved sets (A B A B …) of the same
//! code, each run under another seed and in a process of its own, exactly
//! as the harness runs them. For every end-to-end metric the table gives
//! the two medians and their relative disagreement next to the metric's
//! bound: a disagreement above the bound is a breach. It also gives each
//! set's spread (distance between the quartiles as a share of the median);
//! where that is wider than the bound the row is *unresolved* — on this
//! host, in this hour, a regression of the bound's size would not show in
//! a single set.

use crate::estimate::{iqr_share, median};
use crate::report::{EndToEnd, END_TO_END};
use crate::{sys, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// Runs per set, as the harness takes them.
pub const RUNS: usize = 10;

/// Length of a run's timed phase, seconds: `run_seconds` of `BENCHMARK.json`.
pub const SECONDS: u64 = 10;

/// Where the table is written, from the repository root.
pub const OUT_FILE: &str = "benchmark/NOISE.md";

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static EndToEnd,
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
}

impl Row {
    /// |B − A| as a share of A: stricter than the harness, which only
    /// rejects B being *worse* than A.
    pub fn disagreement(&self) -> f64 {
        (self.median_b - self.median_a).abs() / self.median_a
    }

    pub fn breach(&self) -> bool {
        self.disagreement() > self.metric.bound
    }

    pub fn unresolved(&self) -> bool {
        !self.breach() && self.spread_a.max(self.spread_b) > self.metric.bound
    }
}

/// The metrics one child run printed, or why it did not count.
fn run_once(workload: &str, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}\n{stdout}",
            out.status.code()
        ));
    }
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        if words.next() != Some("metric") {
            continue;
        }
        if let (Some(name), Some(Ok(value))) = (words.next(), words.next().map(str::parse::<f64>)) {
            metrics.insert(name.to_string(), value);
        }
    }
    Ok(metrics)
}

/// Run the two sets and build the table. `progress` is told of each run.
pub fn measure(mut progress: impl FnMut(&str)) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for &(workload, _) in &WORKLOADS {
        let mut sets: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
        for run in 0..RUNS {
            for (set, label) in ["A", "B"].iter().enumerate() {
                let seed = (1 + set * RUNS + run) as u64;
                progress(&format!(
                    "{workload} set {label} run {} seed {seed}",
                    run + 1
                ));
                sets[set].push(run_once(workload, seed)?);
            }
        }
        for metric in &END_TO_END {
            let values = |set: &[BTreeMap<String, f64>]| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|m| {
                        m.get(metric.name)
                            .copied()
                            .ok_or(format!("{workload}: no {}", metric.name))
                    })
                    .collect()
            };
            let (a, b) = (values(&sets[0])?, values(&sets[1])?);
            rows.push(Row {
                workload,
                metric,
                median_a: median(&a),
                median_b: median(&b),
                spread_a: iqr_share(&a),
                spread_b: iqr_share(&b),
            });
        }
    }
    Ok(rows)
}

/// The table as Markdown, with the conditions it was taken under.
pub fn render(rows: &[Row]) -> String {
    let host = sys::Host::read();
    let mut out = String::from("# Noise check\n\n");
    let _ = writeln!(
        out,
        "Two interleaved sets (A B A B …) of {RUNS} runs per workload, {SECONDS} s each, every run \
         under another seed and in its own process. Written by `eventscale-bench check-noise`.\n\n\
         Host: `nproc={} kernel={} cpu={}`\n\n\
         `disagreement` = |median B − median A| ÷ median A; above the bound it is a BREACH. \
         `spread` = (Q3 − Q1) ÷ median over a set's runs; a row whose spread is wider than its \
         bound is *unresolved*: a single set taken then could not have shown a regression of the \
         bound's size.\n",
        host.nproc, host.kernel, host.cpu_model
    );
    out.push_str("| workload | metric | median A | median B | disagreement | spread A | spread B | bound | |\n");
    out.push_str("|---|---|---:|---:|---:|---:|---:|---:|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} ({}) | {:.6} | {:.6} | {:.2}% | {:.2}% | {:.2}% | {:.0}% | {} |",
            r.workload,
            r.metric.name,
            r.metric.unit,
            r.median_a,
            r.median_b,
            r.disagreement() * 100.0,
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            r.metric.bound * 100.0,
            if r.breach() {
                "BREACH"
            } else if r.unresolved() {
                "unresolved"
            } else {
                "ok"
            },
        );
    }
    out
}
