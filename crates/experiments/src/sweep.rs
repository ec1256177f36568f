//! Parallel sweep execution.
//!
//! A figure is a set of independent (configuration, client-count) runs;
//! each run is a single-threaded discrete-event simulation, so the sweep
//! parallelises across runs with plain scoped threads — the same
//! embarrassing parallelism the paper exploited by owning three machines.

use serversim::{RunResult, TestbedConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run every config, in parallel, preserving input order in the output.
pub fn sweep(configs: Vec<TestbedConfig>) -> Vec<RunResult> {
    let n = configs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<RunResult>>> = Mutex::new((0..n).map(|_| None).collect());
    let configs_ref = &configs;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cfg = configs_ref[i].clone();
                let sim_secs = cfg.duration.as_secs_f64();
                let tb = serversim::run(cfg.clone());
                let result = RunResult::from_testbed(&cfg, &tb, sim_secs);
                results.lock().expect("sweep mutex poisoned")[i] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("sweep mutex poisoned")
        .into_iter()
        .map(|r| r.expect("worker skipped a slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;
    use netsim::LinkConfig;
    use serversim::ServerArch;

    fn tiny(clients: u32, seed: u64) -> TestbedConfig {
        let link = LinkConfig::from_mbit(1000.0, SimDuration::from_micros(100));
        let mut cfg = TestbedConfig::paper_default(ServerArch::EventDriven { workers: 1 }, 1, link);
        cfg.num_clients = clients;
        cfg.duration = SimDuration::from_secs(10);
        cfg.warmup = SimDuration::from_secs(3);
        cfg.ramp = SimDuration::from_secs(1);
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn empty_sweep() {
        assert!(sweep(vec![]).is_empty());
    }

    #[test]
    fn preserves_order_and_matches_serial() {
        let configs = vec![tiny(20, 1), tiny(40, 2), tiny(60, 3)];
        let parallel = sweep(configs.clone());
        assert_eq!(parallel.len(), 3);
        assert_eq!(parallel[0].clients, 20);
        assert_eq!(parallel[1].clients, 40);
        assert_eq!(parallel[2].clients, 60);
        // Parallel execution must not change results (each run is an
        // isolated deterministic simulation).
        let serial: Vec<_> = configs
            .into_iter()
            .map(|c| {
                let secs = c.duration.as_secs_f64();
                let tb = serversim::run(c.clone());
                RunResult::from_testbed(&c, &tb, secs)
            })
            .collect();
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.throughput_rps, s.throughput_rps);
            assert_eq!(p.errors, s.errors);
        }
    }
}
