//! Testbed configuration: one struct describes a full experiment run —
//! server architecture, machine, links, client population, durations.

use clientsim::ClientConfig;
use desim::SimDuration;
use faults::{AcceptMode, AdmissionControl};
use hostsim::CpuCosts;
use netsim::LinkConfig;
use workload::SurgeConfig;

/// Which server architecture the SUT runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerArch {
    /// The experimental Java NIO event-driven server: one acceptor thread
    /// plus `workers` worker threads multiplexing all connections.
    EventDriven { workers: usize },
    /// Apache-2-style threaded server: a pool of `pool` threads, one bound
    /// to each connection for its lifetime, blocking I/O.
    Threaded { pool: usize },
    /// The staged (SEDA-style) pipeline the paper's conclusions propose as
    /// future work: a parse stage and a send stage, each with its own
    /// processor-pinned thread group, connections never bound to threads.
    Staged {
        parse_threads: usize,
        send_threads: usize,
    },
}

impl ServerArch {
    /// Short label used in tables ("nio-2w", "httpd-4096t").
    pub fn label(&self) -> String {
        match self {
            ServerArch::EventDriven { workers } => format!("nio-{workers}w"),
            ServerArch::Threaded { pool } => format!("httpd-{pool}t"),
            ServerArch::Staged {
                parse_threads,
                send_threads,
            } => format!("seda-{parse_threads}p{send_threads}s"),
        }
    }

    /// True for the event-driven architecture.
    pub fn is_event_driven(&self) -> bool {
        matches!(self, ServerArch::EventDriven { .. })
    }

    /// True for the architectures that run on the JVM in the paper's study
    /// (the experimental nio server and the staged pipeline it proposes).
    pub fn is_java(&self) -> bool {
        !matches!(self, ServerArch::Threaded { .. })
    }

    /// Threads the server spawns (acceptor included).
    pub fn server_threads(&self) -> usize {
        match *self {
            ServerArch::EventDriven { workers } => workers + 1,
            ServerArch::Threaded { pool } => pool,
            ServerArch::Staged {
                parse_threads,
                send_threads,
            } => parse_threads + send_threads + 1,
        }
    }
}

/// Full description of one simulated run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    pub server: ServerArch,
    /// How accepted connections reach workers on the event-driven server:
    /// the paper's single-acceptor handoff, or per-worker `SO_REUSEPORT`
    /// shards. Ignored by the threaded and staged architectures.
    pub accept_mode: AcceptMode,
    /// Processors on the SUT (1 = the paper's UP kernel, 4 = SMP).
    pub num_cpus: usize,
    /// Listen backlog; SYNs beyond this are dropped (client retransmits).
    pub backlog: usize,
    /// Threaded server's connection inactivity timeout (the paper sets
    /// Apache's to 15 s). `None` disables it — the event-driven server
    /// "does not need to apply disconnection policies to its clients".
    pub server_idle_timeout: Option<SimDuration>,
    /// Links between client machines and the SUT. Clients are spread
    /// round-robin across links (the paper's 2×100 Mbit/s configuration
    /// splits the generators over two cables).
    pub links: Vec<LinkConfig>,
    /// Concurrent emulated clients (the workload intensity axis).
    pub num_clients: u32,
    pub client: ClientConfig,
    pub surge: SurgeConfig,
    pub costs: CpuCosts,
    /// Total virtual run time.
    pub duration: SimDuration,
    /// Measurements (histograms/counters) start after this much time.
    pub warmup: SimDuration,
    /// Client arrivals are staggered uniformly over this initial span.
    pub ramp: SimDuration,
    pub seed: u64,
    /// HTTP response header bytes added to each reply body on the wire.
    pub reply_header_bytes: u64,
    /// Multiplier for TCP/IP framing overhead on reply flows.
    pub wire_overhead: f64,
    /// Link bytes burned per connection handshake/teardown — this is what
    /// makes httpd's reset/reconnect churn show up as congestion in the
    /// bandwidth-bounded scenarios.
    pub connection_overhead_bytes: f64,
    /// Threaded pools at or above this size suffer Poisson "swap storm"
    /// stalls (the paper's 6000-thread instability). `usize::MAX` disables.
    pub stall_threshold: usize,
    /// Mean interval between stalls once over the threshold.
    pub stall_mean_interval: SimDuration,
    /// Duration band of one stall (uniform).
    pub stall_min: SimDuration,
    pub stall_max: SimDuration,
    /// Debug trace: retain up to this many most-recent connection-level
    /// events (0 = disabled, the default — tracing is for debugging runs,
    /// not for measurement).
    pub trace_capacity: usize,
    /// The JVM's practical thread ceiling (§4.1: a Java server "is commonly
    /// limited to spawn a maximum of 1000 threads for the JVM"). Java
    /// architectures exceeding it fail validation — the constraint that
    /// makes the nio server's thread economy matter.
    pub jvm_thread_limit: Option<usize>,
    /// Typed observability capture (spans, request breakdowns, gauges).
    /// `None` (the default) records nothing and costs one branch per hook,
    /// like `trace_capacity: 0` — measurement runs stay unperturbed.
    pub obs: Option<obs::ObsConfig>,
    /// Server-side overload control (explicit refusal, load shedding).
    /// Defaults to fully off: the paper's servers drop SYNs silently.
    pub admission: AdmissionControl,
    /// Begin a graceful drain at this instant: stop accepting, finish
    /// in-flight work, report drained vs. aborted at the deadline.
    pub drain_at: Option<SimDuration>,
    /// How long the drain may take before remaining in-flight connections
    /// are aborted.
    pub drain_deadline: SimDuration,
}

impl TestbedConfig {
    /// The paper's baseline: given a server architecture, CPU count and one
    /// link, build a config with every other knob at its paper-faithful
    /// default (10 s client timeout, 15 s idle timeout for the threaded
    /// server, SURGE content, 6.5-request sessions).
    pub fn paper_default(server: ServerArch, num_cpus: usize, link: LinkConfig) -> Self {
        TestbedConfig {
            server,
            accept_mode: AcceptMode::Handoff,
            num_cpus,
            backlog: 511,
            server_idle_timeout: match server {
                ServerArch::Threaded { .. } => Some(SimDuration::from_secs(15)),
                ServerArch::EventDriven { .. } | ServerArch::Staged { .. } => None,
            },
            links: vec![link],
            num_clients: 600,
            client: ClientConfig::default(),
            surge: SurgeConfig::default(),
            costs: CpuCosts::default(),
            duration: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(10),
            ramp: SimDuration::from_secs(5),
            seed: 0xE5CA1ADE,
            reply_header_bytes: 290,
            wire_overhead: 1.06,
            connection_overhead_bytes: 400.0,
            stall_threshold: 5000,
            stall_mean_interval: SimDuration::from_secs(2),
            stall_min: SimDuration::from_millis(80),
            stall_max: SimDuration::from_millis(250),
            trace_capacity: 0,
            jvm_thread_limit: Some(1000),
            obs: None,
            admission: AdmissionControl::default(),
            drain_at: None,
            drain_deadline: SimDuration::from_secs(5),
        }
    }

    /// Check the configuration for contradictions (Java thread ceiling,
    /// empty links, horizons). `run()` enforces this.
    pub fn validate(&self) -> Result<(), String> {
        if self.links.is_empty() {
            return Err("no links configured".into());
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
        if let Some(at) = self.drain_at {
            if at >= self.duration {
                return Err(format!(
                    "drain_at {at} is not before the run horizon {}",
                    self.duration
                ));
            }
        }
        if let Some(limit) = self.jvm_thread_limit {
            if self.server.is_java() && self.server.server_threads() > limit {
                return Err(format!(
                    "{} needs {} threads but the JVM allows {} — this is the \
constraint the event-driven architecture exists to escape",
                    self.server.label(),
                    self.server.server_threads(),
                    limit
                ));
            }
        }
        Ok(())
    }

    /// Measurement window length used for throughput series.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(ServerArch::EventDriven { workers: 2 }.label(), "nio-2w");
        assert_eq!(ServerArch::Threaded { pool: 4096 }.label(), "httpd-4096t");
    }

    #[test]
    fn jvm_ceiling_rejects_thread_hungry_java_configs() {
        let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
        // A hypothetical Java thread-per-connection server blows the limit…
        let mut cfg =
            TestbedConfig::paper_default(ServerArch::EventDriven { workers: 4096 }, 1, link);
        assert!(cfg.validate().is_err());
        // … the real nio config sails through with 2 threads …
        cfg.server = ServerArch::EventDriven { workers: 1 };
        assert!(cfg.validate().is_ok());
        // … and native Apache is exempt.
        cfg.server = ServerArch::Threaded { pool: 4096 };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_catches_contradictions() {
        let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
        let mut cfg = TestbedConfig::paper_default(ServerArch::EventDriven { workers: 1 }, 1, link);
        cfg.warmup = cfg.duration;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_checks_drain() {
        let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
        let mut cfg = TestbedConfig::paper_default(ServerArch::EventDriven { workers: 1 }, 1, link);
        cfg.drain_at = Some(cfg.duration);
        assert!(cfg.validate().is_err());
        cfg.drain_at = Some(cfg.duration - SimDuration::from_secs(5));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn server_thread_accounting() {
        assert_eq!(ServerArch::EventDriven { workers: 2 }.server_threads(), 3);
        assert_eq!(ServerArch::Threaded { pool: 896 }.server_threads(), 896);
        assert_eq!(
            ServerArch::Staged {
                parse_threads: 1,
                send_threads: 3
            }
            .server_threads(),
            5
        );
        assert!(ServerArch::EventDriven { workers: 1 }.is_java());
        assert!(!ServerArch::Threaded { pool: 1 }.is_java());
    }

    #[test]
    fn paper_default_wires_idle_timeout_by_arch() {
        let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
        let t = TestbedConfig::paper_default(ServerArch::Threaded { pool: 896 }, 1, link);
        assert_eq!(t.server_idle_timeout, Some(SimDuration::from_secs(15)));
        let e = TestbedConfig::paper_default(ServerArch::EventDriven { workers: 1 }, 1, link);
        assert_eq!(e.server_idle_timeout, None);
        assert_eq!(e.client.timeout, SimDuration::from_secs(10));
    }

    fn link() -> LinkConfig {
        LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100))
    }

    #[test]
    fn validate_rejects_an_empty_testbed() {
        let mut cfg = TestbedConfig::paper_default(ServerArch::Threaded { pool: 64 }, 1, link());
        cfg.links.clear();
        assert_eq!(cfg.validate(), Err("no links configured".into()));
        cfg.links.push(link());
        cfg.num_clients = 0;
        assert_eq!(cfg.validate(), Err("no clients configured".into()));
    }

    #[test]
    fn paper_defaults_validate_for_every_architecture() {
        for arch in [
            ServerArch::EventDriven { workers: 1 },
            ServerArch::EventDriven { workers: 2 },
            ServerArch::Threaded { pool: 4096 },
            ServerArch::Staged {
                parse_threads: 1,
                send_threads: 2,
            },
        ] {
            for cpus in [1, 4] {
                let cfg = TestbedConfig::paper_default(arch, cpus, link());
                assert_eq!(cfg.validate(), Ok(()), "{} on {cpus} CPUs", arch.label());
            }
        }
    }

    #[test]
    fn no_jvm_limit_admits_any_thread_count() {
        let mut cfg =
            TestbedConfig::paper_default(ServerArch::EventDriven { workers: 4096 }, 1, link());
        let err = cfg.validate().expect_err("over the default JVM ceiling");
        assert!(err.contains("nio-4096w needs 4097 threads"), "{err}");
        cfg.jvm_thread_limit = None;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn staged_label_and_event_driven_predicate() {
        let staged = ServerArch::Staged {
            parse_threads: 2,
            send_threads: 3,
        };
        assert_eq!(staged.label(), "seda-2p3s");
        assert!(!staged.is_event_driven());
        assert!(ServerArch::EventDriven { workers: 1 }.is_event_driven());
        assert!(!ServerArch::Threaded { pool: 8 }.is_event_driven());
    }
}
