//! What a run reports, and how it is printed: one line per metric with its
//! unit for a reader, then one JSON object for the harness.

use crate::sys::Host;
use metrics::Json;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Read from a short probe of a server the workload itself does not
    /// run, not from the workload: present so that every traced run reports
    /// every per-layer metric, and printed with the word `probe`.
    pub probe: bool,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            probe: false,
        }
    }
}

/// An end-to-end metric: what a user of the servers (or of the simulator)
/// sees, with the share of the parent's median by which it may worsen.
/// `BENCHMARK.json` carries the same table; `tests/contract.rs` compares.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "replies_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.15,
    },
    EndToEnd {
        name: "reply_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "server_cpu_us_per_reply",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub host: Host,
    pub pinned: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty for a correct run.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The host fingerprint as a JSON object (also the trace file's header).
    pub fn fingerprint(&self) -> Json {
        Json::obj(vec![
            ("workload", self.workload.as_str().into()),
            ("seed", self.seed.into()),
            ("traced", self.traced.into()),
            ("nproc", self.host.nproc.into()),
            ("kernel", self.host.kernel.as_str().into()),
            ("cpu_model", self.host.cpu_model.as_str().into()),
            ("pinned", self.pinned.into()),
        ])
    }

    /// The object the harness reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Json::obj(vec![("value", m.value.into()), ("unit", m.unit.into())]);
                (m.name.clone(), entry)
            })
            .collect();
        Json::obj(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Object(metrics)),
        ])
    }

    /// Everything, for a reader; the last line is [`RunReport::result_json`].
    pub fn render(&self) -> String {
        let mut out = format!("host {}\n", self.fingerprint().render());
        for m in &self.metrics {
            let probe = if m.probe { " probe" } else { "" };
            out.push_str(&format!(
                "metric {} {} {}{probe}\n",
                m.name, m.value, m.unit
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("problem {p}\n"));
        }
        out.push_str(&format!(
            "attempted {} failed {} correct {}\n",
            self.attempted,
            self.failed,
            self.correct()
        ));
        out.push_str(&self.result_json().render());
        out.push('\n');
        out
    }
}
