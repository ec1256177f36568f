//! `repro observe <fig>` — run one *representative* configuration of a
//! paper figure with full observability capture and explain, from the
//! captured internal state, why that figure's curve bends where it does.
//!
//! A figure is a sweep; observing re-runs a single well-chosen point of it
//! (the series and load where the figure's anomaly lives) with
//! [`obs::ObsConfig`] enabled, then renders the stage-breakdown table, the
//! end-reason accounting, the gauge timelines, and the computed anomaly
//! notes. `--json PATH` additionally dumps the capture as JSONL — the same
//! schema the live loadgen emits.

use crate::catalog::{LinkSetup, Scale, BEST_SMP_NIO, BEST_UP_HTTPD, BEST_UP_NIO};
use obs::export::ExportMeta;
use obs::gauge::GaugeKind;
use obs::report::{
    anomaly_notes, drop_counters_section, end_reason_table, gauge_timeline, hist_table, stage_table,
};
use obs::ObsConfig;
use serversim::{run, ServerArch, Testbed, TestbedConfig};

/// One observed run: the testbed (with its populated [`obs::Obs`]) plus the
/// identifying context needed to render and export it.
pub struct Observation {
    pub fig: String,
    /// Server label of the observed series (e.g. "httpd-4096t").
    pub server_label: String,
    pub clients: u32,
    pub links: LinkSetup,
    pub cpus: usize,
    pub testbed: Testbed,
}

/// The representative point of each figure: the series and the reason it is
/// the interesting one. Returns `None` for ids outside the paper catalog.
fn pick(fig: &str) -> Option<(ServerArch, usize, LinkSetup, &'static str)> {
    use LinkSetup::*;
    let up = 1;
    let smp = 4;
    Some(match fig {
        // NIO worker sweeps: more workers than processors buys nothing.
        "fig1a" | "fig2a" => (
            ServerArch::EventDriven { workers: 4 },
            up,
            Gbit1,
            "event-driven server at peak load: ready-set-bounded work",
        ),
        // httpd pool sweeps: Fig 2's timeout-censored response-time mean.
        "fig1b" | "fig2b" => (
            BEST_UP_HTTPD,
            up,
            Gbit1,
            "threaded server past saturation: timeouts censor the mean",
        ),
        "fig3a" => (
            BEST_UP_HTTPD,
            up,
            Gbit1,
            "client-timeout error stream at overload",
        ),
        "fig3b" => (
            BEST_UP_HTTPD,
            up,
            Gbit1,
            "idle-timeout reclaims surfacing as connection resets",
        ),
        // Fig 4: pool smaller than the client population — connection time
        // explodes while nio's stays flat.
        "fig4" => (
            ServerArch::Threaded { pool: 896 },
            up,
            Gbit1,
            "pool exhausted: arrivals wait in the accept backlog",
        ),
        "fig5" | "fig6" => (
            BEST_UP_NIO,
            up,
            Mbit100,
            "bandwidth-bound: the transfer stage hits the pipe",
        ),
        "fig7a" | "fig8a" | "fig9a" | "fig10a" => (
            BEST_SMP_NIO,
            smp,
            Gbit1,
            "SMP event-driven: workers scale with processors",
        ),
        "fig7b" | "fig8b" | "fig9b" | "fig10b" => (
            BEST_UP_HTTPD,
            smp,
            Gbit1,
            "SMP threaded: pool contention across processors",
        ),
        _ => return None,
    })
}

/// Run the representative point of `fig` at the scale's highest load with
/// observability enabled. Returns `None` for unknown figure ids.
pub fn observe(fig: &str, scale: &Scale) -> Option<Observation> {
    let (server, cpus, links, _why) = pick(fig)?;
    let clients = *scale.loads.last().expect("scale has loads");
    let mut cfg = TestbedConfig::paper_default(server, cpus, links.links()[0]);
    cfg.links = links.links();
    cfg.num_clients = clients;
    cfg.duration = scale.duration;
    cfg.warmup = scale.warmup;
    cfg.ramp = scale.ramp;
    cfg.seed = scale.seed ^ (clients as u64).wrapping_mul(0x9E37_79B9);
    cfg.obs = Some(ObsConfig::default());
    let server_label = server.label();
    let testbed = run(cfg);
    Some(Observation {
        fig: fig.to_string(),
        server_label,
        clients,
        links,
        cpus,
        testbed,
    })
}

impl Observation {
    /// The "why does the curve bend here" report: context line, stage and
    /// end-reason tables, gauge timelines, computed anomaly notes.
    pub fn render(&self) -> String {
        let (_, _, _, why) = pick(&self.fig).expect("observation built from catalog");
        let obs = &self.testbed.obs;
        let mut out = format!(
            "== observe {}: {} @ {} clients, {} cpu(s), {} ==\n   ({why})\n\n",
            self.fig,
            self.server_label,
            self.clients,
            self.cpus,
            self.links.label(),
        );
        out.push_str("-- where the milliseconds go (completed requests) --\n");
        out.push_str(&stage_table(&obs.requests));
        out.push_str("\n-- per-stage latency tails (log2 histograms) --\n");
        out.push_str(&hist_table(obs.requests.hists()));
        out.push_str("\n-- how requests ended --\n");
        out.push_str(&end_reason_table(&obs.requests));
        for kind in [
            GaugeKind::ThreadPoolOccupancy,
            GaugeKind::AcceptBacklog,
            GaugeKind::RegisteredConns,
            GaugeKind::ReadySetSize,
            GaugeKind::RunQueueDepth,
            GaugeKind::LinkUtilisation,
        ] {
            if let Some(chart) = gauge_timeline(&obs.gauges, kind, 24) {
                out.push('\n');
                out.push_str(&chart);
            }
        }
        out.push_str("\n-- why the curve bends --\n");
        for note in anomaly_notes(&obs.requests, &obs.gauges) {
            out.push_str("  * ");
            out.push_str(&note);
            out.push('\n');
        }
        // Capture-loss accounting last: a lossy capture taints every table
        // above, so the section leads with a WARNING when anything dropped.
        let (section, _lossy) = drop_counters_section(
            obs.spans.dropped(),
            obs.requests.dropped(),
            obs.gauges.overflow(),
            self.testbed.trace.dropped(),
        );
        out.push_str("\n-- capture losses --\n");
        out.push_str(&section);
        out
    }

    /// The capture as JSONL — identical schema to the live loadgen export.
    pub fn to_jsonl(&self) -> String {
        let meta = ExportMeta::new("sim", self.fig.clone())
            .with("server", self.server_label.clone())
            .with("clients", self.clients as u64)
            .with("cpus", self.cpus as u64)
            .with("link", self.links.label());
        obs::to_jsonl(&self.testbed.obs, &meta, self.testbed.trace.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    fn tiny_scale() -> Scale {
        Scale {
            loads: vec![40],
            duration: SimDuration::from_secs(4),
            warmup: SimDuration::from_secs(1),
            ramp: SimDuration::from_millis(500),
            seed: 7,
        }
    }

    #[test]
    fn unknown_figure_is_none() {
        assert!(observe("fig99", &tiny_scale()).is_none());
    }

    #[test]
    fn observe_captures_and_renders() {
        let o = observe("fig2b", &tiny_scale()).expect("catalog id");
        assert!(!o.testbed.obs.requests.completed().is_empty());
        let rendered = o.render();
        assert!(rendered.contains("observe fig2b"));
        assert!(rendered.contains("why the curve bends"));
        assert!(rendered.contains("parse"));
        assert!(rendered.contains("latency tails"));
        assert!(rendered.contains("p999"));
        assert!(rendered.contains("capture losses"));
        assert!(rendered.contains("trace events dropped"));
        let jsonl = o.to_jsonl();
        let first = jsonl.lines().next().unwrap();
        assert!(first.contains(r#""type":"meta""#));
        assert!(first.contains(r#""source":"sim""#));
        assert!(jsonl
            .lines()
            .last()
            .unwrap()
            .contains(r#""type":"counters""#));
    }

    #[test]
    fn every_catalog_figure_has_a_pick() {
        for id in crate::ALL_FIGURE_IDS {
            assert!(pick(id).is_some(), "no observe pick for {id}");
        }
    }
}
