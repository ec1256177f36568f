//! The experiment catalog: every figure of the paper's evaluation, mapped
//! to concrete sweeps over the simulated testbed.
//!
//! Figures come in (a)/(b) panels exactly as in the paper:
//!
//! | id     | paper figure | contents |
//! |--------|--------------|----------|
//! | fig1a  | Fig 1(a) | UP throughput, nio with 1/4/8 workers |
//! | fig1b  | Fig 1(b) | UP throughput, httpd with 512/896/4096/6000 threads |
//! | fig2a/b| Fig 2    | UP response time, same configurations |
//! | fig3a  | Fig 3(a) | client-timeout errors/s, best configs |
//! | fig3b  | Fig 3(b) | connection-reset errors/s, best configs |
//! | fig4   | Fig 4    | connection time, nio-1w vs httpd 896/4096/6000 |
//! | fig5   | Fig 5    | UP throughput under 100 Mbit / 2×100 Mbit / 1 Gbit |
//! | fig6   | Fig 6    | UP response time, same |
//! | fig7a/b| Fig 7    | SMP throughput, nio 2/3/4 workers, httpd 2048/4096/6000 |
//! | fig8a/b| Fig 8    | SMP response time, same |
//! | fig9a/b| Fig 9    | throughput scaling UP → SMP, best configs |
//! | fig10a/b| Fig 10  | response-time scaling UP → SMP, best configs |
//!
//! A [`Campaign`] memoises sweeps so panel pairs (throughput + response
//! time) reuse the same runs, exactly like reading two plots off one
//! experiment.

use crate::figure::{Figure, Metric, Series};
use crate::sweep::sweep;
use desim::SimDuration;
use faults::AcceptMode;
use netsim::LinkConfig;
use serversim::{ServerArch, TestbedConfig};
use std::collections::HashMap;

/// Run-size parameters, decoupled from figure definitions so tests can use
/// reduced scale.
#[derive(Debug, Clone)]
pub struct Scale {
    /// The x-axis: concurrent clients.
    pub loads: Vec<u32>,
    pub duration: SimDuration,
    pub warmup: SimDuration,
    pub ramp: SimDuration,
    pub seed: u64,
}

impl Scale {
    /// Paper scale: 60–6000 clients. (The paper ran 5-minute tests; 60
    /// simulated seconds after a 10 s warm-up gives statistically
    /// indistinguishable steady-state rates at these request volumes.)
    pub fn paper() -> Scale {
        Scale {
            loads: vec![60, 300, 600, 1200, 1800, 2400, 3000, 4200, 6000],
            duration: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(10),
            ramp: SimDuration::from_secs(5),
            seed: 0x1CC9_2004,
        }
    }

    /// Reduced scale for integration tests: the same shapes at a tenth of
    /// the load and a third of the duration.
    pub fn quick() -> Scale {
        Scale {
            loads: vec![30, 120, 300, 600],
            duration: SimDuration::from_secs(20),
            warmup: SimDuration::from_secs(6),
            ramp: SimDuration::from_secs(2),
            seed: 0x1CC9_2004,
        }
    }
}

/// Which cables connect the workload generators to the SUT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkSetup {
    /// One 1 Gbit/s crossover link (CPU-bound scenarios).
    Gbit1,
    /// One 100 Mbit/s link.
    Mbit100,
    /// Two 100 Mbit/s links, one per client machine.
    Mbit100x2,
}

impl LinkSetup {
    pub fn links(self) -> Vec<LinkConfig> {
        let lat = SimDuration::from_micros(100);
        match self {
            LinkSetup::Gbit1 => vec![LinkConfig::from_mbit(1000.0, lat)],
            LinkSetup::Mbit100 => vec![LinkConfig::from_mbit(100.0, lat)],
            LinkSetup::Mbit100x2 => vec![
                LinkConfig::from_mbit(100.0, lat),
                LinkConfig::from_mbit(100.0, lat),
            ],
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            LinkSetup::Gbit1 => "1Gbit",
            LinkSetup::Mbit100 => "100Mbit",
            LinkSetup::Mbit100x2 => "2x100Mbit",
        }
    }
}

/// The best configurations the paper determines in §4.1 and §5.1.
pub const BEST_UP_NIO: ServerArch = ServerArch::EventDriven { workers: 1 };
pub const BEST_UP_HTTPD: ServerArch = ServerArch::Threaded { pool: 4096 };
pub const BEST_SMP_NIO: ServerArch = ServerArch::EventDriven { workers: 2 };
pub const BEST_SMP_HTTPD: ServerArch = ServerArch::Threaded { pool: 4096 };

/// A memoising experiment campaign.
pub struct Campaign {
    scale: Scale,
    /// Accept path for every event-driven sweep in this campaign: the
    /// paper's single-acceptor handoff (default) or per-worker sharding.
    accept_mode: AcceptMode,
    cache: HashMap<(String, usize, LinkSetup), Series>,
}

/// All figure ids, in paper order.
pub const ALL_FIGURE_IDS: [&str; 17] = [
    "fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7a", "fig7b",
    "fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b",
];

/// Extension experiments beyond the paper's figures: the §6 staged-pipeline
/// conjecture, the extended report's bandwidth-usage plot, and the §4.1
/// stability remark quantified.
pub const EXTENSION_IDS: [&str; 3] = ["ext_staged", "ext_bandwidth", "ext_stability"];

impl Campaign {
    pub fn new(scale: Scale) -> Campaign {
        Campaign::with_accept_mode(scale, AcceptMode::Handoff)
    }

    /// A campaign whose event-driven sweeps all run with the given accept
    /// mode — `repro --sharded` builds one of these so fig4/fig7–fig10 can
    /// be compared across accept architectures. The memo cache is private
    /// to the campaign, so handoff and sharded results never mix.
    pub fn with_accept_mode(scale: Scale, accept_mode: AcceptMode) -> Campaign {
        Campaign {
            scale,
            accept_mode,
            cache: HashMap::new(),
        }
    }

    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    pub fn accept_mode(&self) -> AcceptMode {
        self.accept_mode
    }

    fn config(
        &self,
        server: ServerArch,
        cpus: usize,
        links: LinkSetup,
        clients: u32,
    ) -> TestbedConfig {
        let mut cfg = TestbedConfig::paper_default(server, cpus, links.links()[0]);
        cfg.accept_mode = self.accept_mode;
        cfg.links = links.links();
        cfg.num_clients = clients;
        cfg.duration = self.scale.duration;
        cfg.warmup = self.scale.warmup;
        cfg.ramp = self.scale.ramp;
        cfg.seed = self.scale.seed ^ (clients as u64).wrapping_mul(0x9E37_79B9);
        cfg
    }

    /// Run (or fetch) one sweep of a server configuration across all loads.
    pub fn series(
        &mut self,
        label: &str,
        server: ServerArch,
        cpus: usize,
        links: LinkSetup,
    ) -> Series {
        let key = (server.label(), cpus, links);
        if let Some(s) = self.cache.get(&key) {
            let mut s = s.clone();
            s.label = label.to_string();
            return s;
        }
        let configs: Vec<TestbedConfig> = self
            .scale
            .loads
            .iter()
            .map(|&n| self.config(server, cpus, links, n))
            .collect();
        let points = sweep(configs);
        let series = Series {
            label: label.to_string(),
            points,
        };
        self.cache.insert(key, series.clone());
        let mut out = series;
        out.label = label.to_string();
        out
    }

    fn figure(
        &mut self,
        id: &'static str,
        title: &str,
        metric: Metric,
        defs: Vec<(&str, ServerArch, usize, LinkSetup)>,
    ) -> Figure {
        let series = defs
            .into_iter()
            .map(|(label, server, cpus, links)| self.series(label, server, cpus, links))
            .collect();
        Figure {
            id,
            title: title.to_string(),
            metric,
            loads: self.scale.loads.clone(),
            series,
        }
    }

    /// Build a figure by its paper id. Panics on unknown ids (the catalog
    /// is closed).
    pub fn build(&mut self, id: &str) -> Figure {
        use LinkSetup::*;
        use Metric::*;
        use ServerArch::*;
        let up = 1;
        let smp = 4;
        match id {
            "fig1a" => self.figure(
                "fig1a",
                "NIO throughput on a uniprocessor, worker sweep",
                ThroughputRps,
                vec![
                    ("nio-1w", EventDriven { workers: 1 }, up, Gbit1),
                    ("nio-4w", EventDriven { workers: 4 }, up, Gbit1),
                    ("nio-8w", EventDriven { workers: 8 }, up, Gbit1),
                ],
            ),
            "fig1b" => self.figure(
                "fig1b",
                "httpd throughput on a uniprocessor, pool sweep",
                ThroughputRps,
                vec![
                    ("httpd-512t", Threaded { pool: 512 }, up, Gbit1),
                    ("httpd-896t", Threaded { pool: 896 }, up, Gbit1),
                    ("httpd-4096t", Threaded { pool: 4096 }, up, Gbit1),
                    ("httpd-6000t", Threaded { pool: 6000 }, up, Gbit1),
                ],
            ),
            "fig2a" => self.figure(
                "fig2a",
                "NIO response time on a uniprocessor, worker sweep",
                ResponseMs,
                vec![
                    ("nio-1w", EventDriven { workers: 1 }, up, Gbit1),
                    ("nio-4w", EventDriven { workers: 4 }, up, Gbit1),
                    ("nio-8w", EventDriven { workers: 8 }, up, Gbit1),
                ],
            ),
            "fig2b" => self.figure(
                "fig2b",
                "httpd response time on a uniprocessor, pool sweep",
                ResponseMs,
                vec![
                    ("httpd-512t", Threaded { pool: 512 }, up, Gbit1),
                    ("httpd-896t", Threaded { pool: 896 }, up, Gbit1),
                    ("httpd-4096t", Threaded { pool: 4096 }, up, Gbit1),
                    ("httpd-6000t", Threaded { pool: 6000 }, up, Gbit1),
                ],
            ),
            "fig3a" => self.figure(
                "fig3a",
                "Client-timeout errors, best UP configurations",
                TimeoutsPerS,
                vec![
                    ("nio", BEST_UP_NIO, up, Gbit1),
                    ("httpd", BEST_UP_HTTPD, up, Gbit1),
                ],
            ),
            "fig3b" => self.figure(
                "fig3b",
                "Connection-reset errors, best UP configurations",
                ResetsPerS,
                vec![
                    ("nio", BEST_UP_NIO, up, Gbit1),
                    ("httpd", BEST_UP_HTTPD, up, Gbit1),
                ],
            ),
            "fig4" => self.figure(
                "fig4",
                "Connection time, nio vs httpd pool sizes (UP)",
                ConnectMs,
                vec![
                    ("nio-1w", EventDriven { workers: 1 }, up, Gbit1),
                    ("httpd-896t", Threaded { pool: 896 }, up, Gbit1),
                    ("httpd-4096t", Threaded { pool: 4096 }, up, Gbit1),
                    ("httpd-6000t", Threaded { pool: 6000 }, up, Gbit1),
                ],
            ),
            "fig5" => self.figure(
                "fig5",
                "Throughput under bandwidth and CPU limits (UP)",
                ThroughputRps,
                vec![
                    ("nio/100Mbit", BEST_UP_NIO, up, Mbit100),
                    ("httpd/100Mbit", BEST_UP_HTTPD, up, Mbit100),
                    ("nio/2x100Mbit", BEST_UP_NIO, up, Mbit100x2),
                    ("httpd/2x100Mbit", BEST_UP_HTTPD, up, Mbit100x2),
                    ("nio/1Gbit", BEST_UP_NIO, up, Gbit1),
                    ("httpd/1Gbit", BEST_UP_HTTPD, up, Gbit1),
                ],
            ),
            "fig6" => self.figure(
                "fig6",
                "Response time under bandwidth and CPU limits (UP)",
                ResponseMs,
                vec![
                    ("nio/100Mbit", BEST_UP_NIO, up, Mbit100),
                    ("httpd/100Mbit", BEST_UP_HTTPD, up, Mbit100),
                    ("nio/2x100Mbit", BEST_UP_NIO, up, Mbit100x2),
                    ("httpd/2x100Mbit", BEST_UP_HTTPD, up, Mbit100x2),
                    ("nio/1Gbit", BEST_UP_NIO, up, Gbit1),
                    ("httpd/1Gbit", BEST_UP_HTTPD, up, Gbit1),
                ],
            ),
            "fig7a" => self.figure(
                "fig7a",
                "NIO throughput on 4-way SMP, worker sweep",
                ThroughputRps,
                vec![
                    ("nio-2w", EventDriven { workers: 2 }, smp, Gbit1),
                    ("nio-3w", EventDriven { workers: 3 }, smp, Gbit1),
                    ("nio-4w", EventDriven { workers: 4 }, smp, Gbit1),
                ],
            ),
            "fig7b" => self.figure(
                "fig7b",
                "httpd throughput on 4-way SMP, pool sweep",
                ThroughputRps,
                vec![
                    ("httpd-2048t", Threaded { pool: 2048 }, smp, Gbit1),
                    ("httpd-4096t", Threaded { pool: 4096 }, smp, Gbit1),
                    ("httpd-6000t", Threaded { pool: 6000 }, smp, Gbit1),
                ],
            ),
            "fig8a" => self.figure(
                "fig8a",
                "NIO response time on 4-way SMP, worker sweep",
                ResponseMs,
                vec![
                    ("nio-2w", EventDriven { workers: 2 }, smp, Gbit1),
                    ("nio-3w", EventDriven { workers: 3 }, smp, Gbit1),
                    ("nio-4w", EventDriven { workers: 4 }, smp, Gbit1),
                ],
            ),
            "fig8b" => self.figure(
                "fig8b",
                "httpd response time on 4-way SMP, pool sweep",
                ResponseMs,
                vec![
                    ("httpd-2048t", Threaded { pool: 2048 }, smp, Gbit1),
                    ("httpd-4096t", Threaded { pool: 4096 }, smp, Gbit1),
                    ("httpd-6000t", Threaded { pool: 6000 }, smp, Gbit1),
                ],
            ),
            "fig9a" => self.figure(
                "fig9a",
                "NIO throughput scaling from 1 to 4 CPUs",
                ThroughputRps,
                vec![
                    ("nio/UP", BEST_UP_NIO, up, Gbit1),
                    ("nio/SMP", BEST_SMP_NIO, smp, Gbit1),
                ],
            ),
            "fig9b" => self.figure(
                "fig9b",
                "httpd throughput scaling from 1 to 4 CPUs",
                ThroughputRps,
                vec![
                    ("httpd/UP", BEST_UP_HTTPD, up, Gbit1),
                    ("httpd/SMP", BEST_SMP_HTTPD, smp, Gbit1),
                ],
            ),
            "fig10a" => self.figure(
                "fig10a",
                "NIO response-time scaling from 1 to 4 CPUs",
                ResponseMs,
                vec![
                    ("nio/UP", BEST_UP_NIO, up, Gbit1),
                    ("nio/SMP", BEST_SMP_NIO, smp, Gbit1),
                ],
            ),
            "fig10b" => self.figure(
                "fig10b",
                "httpd response-time scaling from 1 to 4 CPUs",
                ResponseMs,
                vec![
                    ("httpd/UP", BEST_UP_HTTPD, up, Gbit1),
                    ("httpd/SMP", BEST_SMP_HTTPD, smp, Gbit1),
                ],
            ),
            "ext_staged" => self.figure(
                "ext_staged",
                "EXT: the paper's \u{a7}6 conjecture — staged pipeline on 4-way SMP",
                ThroughputRps,
                vec![
                    ("nio-2w", BEST_SMP_NIO, smp, Gbit1),
                    ("httpd-4096t", BEST_SMP_HTTPD, smp, Gbit1),
                    (
                        "seda-1p3s",
                        Staged {
                            parse_threads: 1,
                            send_threads: 3,
                        },
                        smp,
                        Gbit1,
                    ),
                ],
            ),
            "ext_bandwidth" => self.figure(
                "ext_bandwidth",
                "EXT: bandwidth usage (the companion tech report's plot)",
                BandwidthMbS,
                vec![
                    ("nio/100Mbit", BEST_UP_NIO, up, Mbit100),
                    ("nio/2x100Mbit", BEST_UP_NIO, up, Mbit100x2),
                    ("nio/1Gbit", BEST_UP_NIO, up, Gbit1),
                ],
            ),
            "ext_stability" => self.figure(
                "ext_stability",
                "EXT: per-second throughput stability (\u{a7}4.1's 6000-thread remark)",
                StabilityCv,
                vec![
                    ("httpd-4096t", Threaded { pool: 4096 }, up, Gbit1),
                    ("httpd-6000t", Threaded { pool: 6000 }, up, Gbit1),
                    ("nio-1w", BEST_UP_NIO, up, Gbit1),
                ],
            ),
            other => panic!("unknown figure id: {other}"),
        }
    }

    /// Build every figure, reusing cached sweeps across panels.
    pub fn build_all(&mut self) -> Vec<Figure> {
        ALL_FIGURE_IDS.iter().map(|id| self.build(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_sane_shapes() {
        let p = Scale::paper();
        assert_eq!(p.loads.first(), Some(&60));
        assert_eq!(p.loads.last(), Some(&6000));
        assert!(p.warmup < p.duration);
        let q = Scale::quick();
        assert!(q.loads.len() >= 3);
        assert!(q.duration < p.duration);
    }

    #[test]
    fn link_setups() {
        assert_eq!(LinkSetup::Gbit1.links().len(), 1);
        assert_eq!(LinkSetup::Mbit100x2.links().len(), 2);
        assert!((LinkSetup::Mbit100.links()[0].capacity_bps - 12.5e6).abs() < 1.0);
    }

    #[test]
    fn sharded_campaign_propagates_mode_into_configs() {
        let c = Campaign::with_accept_mode(Scale::quick(), AcceptMode::Sharded);
        assert_eq!(c.accept_mode(), AcceptMode::Sharded);
        let cfg = c.config(
            ServerArch::EventDriven { workers: 2 },
            4,
            LinkSetup::Gbit1,
            60,
        );
        assert_eq!(cfg.accept_mode, AcceptMode::Sharded);
        assert_eq!(
            Campaign::new(Scale::quick()).accept_mode(),
            AcceptMode::Handoff
        );
    }

    #[test]
    #[should_panic(expected = "unknown figure id")]
    fn unknown_figure_panics() {
        let mut c = Campaign::new(Scale::quick());
        c.build("fig99");
    }

    #[test]
    fn catalog_ids_cover_every_panel() {
        assert_eq!(ALL_FIGURE_IDS.len(), 17);
        let mut ids: Vec<&str> = ALL_FIGURE_IDS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 17, "duplicate figure ids");
    }
}
