//! The calibrated CPU cost model for both server architectures.
//!
//! Everything the paper measures ultimately reduces to *where CPU time goes*
//! per request under each architecture. This module is the single place all
//! of those constants live, so experiments (and ablation benches) can sweep
//! them. Defaults are calibrated to reproduce the paper's 4-way 1.4 GHz
//! Xeon: a uniprocessor peak around 2.3–2.6 k replies/s and an SMP peak a
//! bit above 2× that (see EXPERIMENTS.md for the calibration table).
//!
//! Cost structure per reply (serving a `b`-byte file):
//!
//! * both servers pay `parse` (request parsing + dispatch) and
//!   `per_kb_send × b/1KiB` (buffer copies + socket syscalls);
//! * the threaded server adds two `context_switch` charges (the blocking
//!   read wake-up and the post-write block) and a pool-management
//!   inflation `1 + pool_mgmt_per_thousand × pool/1000` (scheduler/memory
//!   footprint of thousands of kernel threads);
//! * the event-driven server multiplies by `jvm_factor` (it is Java; Apache
//!   is native), adds `selector_overhead` per readiness event, and pays a
//!   worker-synchronisation penalty `1 + lin·(W−1) + quad·(W−1)²` on the
//!   worker-lane share of its work (contended selector/dispatch lock);
//! * on SMP, every job is inflated by `1 + smp_contention × (cpus−1)` —
//!   lock/cacheline contention; with the default 0.3 this makes 4 CPUs
//!   deliver ≈2.1× a uniprocessor, matching figure 9.
//!
//! The event-driven server's work is split between its worker lane
//! (`worker_frac`) and the kernel's network stack (softirq time the worker
//! thread does not serialise on); this is why two worker threads suffice to
//! double throughput on a 4-way box — the paper's central observation.

use desim::SimDuration;

/// All CPU cost constants. Durations are *uniprocessor, uncontended* costs;
/// multipliers are applied by the service-time functions below.
#[derive(Debug, Clone)]
pub struct CpuCosts {
    /// Accepting one connection (syscall + server bookkeeping).
    pub accept: SimDuration,
    /// Turning away one connection when the backlog is full.
    pub reject: SimDuration,
    /// Parsing one HTTP request and locating the file.
    pub parse: SimDuration,
    /// Copy + syscall cost per KiB of reply payload.
    pub per_kb_send: SimDuration,
    /// One thread block/wake pair.
    pub context_switch: SimDuration,
    /// Event-driven: selector wake-up + key dispatch, per readiness event.
    pub selector_overhead: SimDuration,
    /// Event-driven: JVM vs native multiplier on parse/send work.
    pub jvm_factor: f64,
    /// Event-driven: fraction of per-request work serialised on the worker
    /// lane (the rest runs in the kernel network stack on any CPU).
    pub worker_frac: f64,
    /// Event-driven: worker-lane inflation, linear coefficient × (W−1).
    pub worker_sync_lin: f64,
    /// Event-driven: worker-lane inflation, quadratic coefficient × (W−1)².
    pub worker_sync_quad: f64,
    /// Threaded: fractional service inflation per 1000 pool threads.
    pub pool_mgmt_per_thousand: f64,
    /// SMP: fractional inflation per processor beyond the first.
    pub smp_contention: f64,
    /// Staged server: multiplier on `smp_contention` when stage threads are
    /// pinned to processors (the paper's §6 conjecture — affinity keeps a
    /// stage's working set on one cache, cutting cross-CPU contention).
    pub affinity_discount: f64,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            accept: SimDuration::from_micros(25),
            reject: SimDuration::from_micros(15),
            parse: SimDuration::from_micros(60),
            per_kb_send: SimDuration::from_micros(25),
            context_switch: SimDuration::from_micros(8),
            selector_overhead: SimDuration::from_micros(10),
            jvm_factor: 1.15,
            worker_frac: 0.4,
            worker_sync_lin: 0.08,
            worker_sync_quad: 0.02,
            pool_mgmt_per_thousand: 0.008,
            smp_contention: 0.3,
            affinity_discount: 0.45,
        }
    }
}

/// The two service-time components of one event-driven request: the part
/// serialised on the worker lane and the part the kernel runs on any CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitService {
    pub worker: SimDuration,
    pub kernel: SimDuration,
}

impl SplitService {
    pub fn total(&self) -> SimDuration {
        self.worker + self.kernel
    }
}

impl CpuCosts {
    /// SMP contention multiplier for a machine with `cpus` processors.
    pub fn smp_multiplier(&self, cpus: usize) -> f64 {
        1.0 + self.smp_contention * (cpus.saturating_sub(1)) as f64
    }

    /// Raw parse+send work for a `reply_bytes` response, before any
    /// architecture multipliers.
    fn base_work(&self, reply_bytes: u64) -> f64 {
        let kb = reply_bytes as f64 / 1024.0;
        self.parse.as_nanos() as f64 + self.per_kb_send.as_nanos() as f64 * kb
    }

    /// Service time for one request on the *threaded* server with the given
    /// pool size, on a `cpus`-way machine.
    pub fn threaded_request_service(
        &self,
        reply_bytes: u64,
        pool_size: usize,
        cpus: usize,
    ) -> SimDuration {
        let work = self.base_work(reply_bytes) + 2.0 * self.context_switch.as_nanos() as f64;
        let pool_inflation = 1.0 + self.pool_mgmt_per_thousand * pool_size as f64 / 1000.0;
        let nanos = work * pool_inflation * self.smp_multiplier(cpus);
        SimDuration::from_nanos(nanos as u64)
    }

    /// Service time for one request on the *event-driven* server with `W`
    /// worker threads on a `cpus`-way machine, split into worker-lane and
    /// kernel-lane components.
    pub fn event_request_service(
        &self,
        reply_bytes: u64,
        workers: usize,
        cpus: usize,
    ) -> SplitService {
        let work = self.base_work(reply_bytes) * self.jvm_factor
            + self.selector_overhead.as_nanos() as f64;
        let smp = self.smp_multiplier(cpus);
        let w1 = workers.saturating_sub(1) as f64;
        let sync = 1.0 + self.worker_sync_lin * w1 + self.worker_sync_quad * w1 * w1;
        let worker_nanos = work * self.worker_frac * smp * sync;
        let kernel_nanos = work * (1.0 - self.worker_frac) * smp;
        SplitService {
            worker: SimDuration::from_nanos(worker_nanos as u64),
            kernel: SimDuration::from_nanos(kernel_nanos as u64),
        }
    }

    /// SMP multiplier under per-stage processor affinity.
    pub fn smp_multiplier_pinned(&self, cpus: usize) -> f64 {
        1.0 + self.smp_contention * self.affinity_discount * (cpus.saturating_sub(1)) as f64
    }

    /// Service time for one request on the *staged* (SEDA-style) server the
    /// paper's conclusions propose: a parse stage and a send stage, each
    /// with its own pinned thread group. Work is the event-driven server's
    /// (it is the same Java runtime) but contention shrinks by
    /// `affinity_discount` and there is no shared-selector sync penalty —
    /// each stage owns its queue.
    pub fn staged_request_service(&self, reply_bytes: u64, cpus: usize) -> SplitService {
        let kb = reply_bytes as f64 / 1024.0;
        let smp = self.smp_multiplier_pinned(cpus);
        let parse_nanos = (self.parse.as_nanos() as f64 * self.jvm_factor
            + self.selector_overhead.as_nanos() as f64)
            * smp;
        let send_nanos = self.per_kb_send.as_nanos() as f64 * kb * self.jvm_factor * smp;
        SplitService {
            worker: SimDuration::from_nanos(parse_nanos as u64),
            kernel: SimDuration::from_nanos(send_nanos as u64),
        }
    }

    /// Peak replies/s for the staged server given stage thread counts.
    pub fn staged_peak_rps(
        &self,
        mean_reply_bytes: f64,
        parse_threads: usize,
        send_threads: usize,
        cpus: usize,
    ) -> f64 {
        let s = self.staged_request_service(mean_reply_bytes as u64, cpus);
        let machine = cpus as f64 / s.total().as_secs_f64();
        let parse_lane = (parse_threads.min(cpus)) as f64 / s.worker.as_secs_f64().max(1e-12);
        let send_lane = (send_threads.min(cpus)) as f64 / s.kernel.as_secs_f64().max(1e-12);
        machine.min(parse_lane).min(send_lane)
    }

    /// Accept cost on the threaded server (runs on a pool thread).
    pub fn threaded_accept_service(&self, pool_size: usize, cpus: usize) -> SimDuration {
        let pool_inflation = 1.0 + self.pool_mgmt_per_thousand * pool_size as f64 / 1000.0;
        let nanos = self.accept.as_nanos() as f64 * pool_inflation * self.smp_multiplier(cpus);
        SimDuration::from_nanos(nanos as u64)
    }

    /// Accept cost on the event-driven server's acceptor thread.
    pub fn event_accept_service(&self, cpus: usize) -> SimDuration {
        let nanos = self.accept.as_nanos() as f64 * self.jvm_factor * self.smp_multiplier(cpus);
        SimDuration::from_nanos(nanos as u64)
    }

    /// Accept cost on the event-driven server when every worker owns its
    /// own listener (`SO_REUSEPORT` sharding). The accept itself runs on
    /// the accepting worker's lane, so it enjoys the same pinned-affinity
    /// contention discount as the staged server's stages: the listener is
    /// private to the worker and no cross-thread handoff occurs. On a
    /// uniprocessor both multipliers are 1.0, so UP figures are
    /// bit-identical across modes.
    pub fn sharded_accept_service(&self, cpus: usize) -> SimDuration {
        let nanos =
            self.accept.as_nanos() as f64 * self.jvm_factor * self.smp_multiplier_pinned(cpus);
        SimDuration::from_nanos(nanos as u64)
    }

    /// Cost of refusing one connection (kernel work, any CPU).
    pub fn reject_service(&self, cpus: usize) -> SimDuration {
        let nanos = self.reject.as_nanos() as f64 * self.smp_multiplier(cpus);
        SimDuration::from_nanos(nanos as u64)
    }

    /// Theoretical peak replies/s for the threaded server, CPU-bound, at a
    /// given mean reply size — a calibration helper used by experiments to
    /// sanity-check sweeps.
    pub fn threaded_peak_rps(&self, mean_reply_bytes: f64, pool_size: usize, cpus: usize) -> f64 {
        let s = self
            .threaded_request_service(mean_reply_bytes as u64, pool_size, cpus)
            .as_secs_f64();
        cpus as f64 / s
    }

    /// Theoretical peak replies/s for the event-driven server: the tighter
    /// of the worker-lane bound and the whole-machine bound.
    pub fn event_peak_rps(&self, mean_reply_bytes: f64, workers: usize, cpus: usize) -> f64 {
        let s = self.event_request_service(mean_reply_bytes as u64, workers, cpus);
        let machine = cpus as f64 / s.total().as_secs_f64();
        let lane = (workers.min(cpus)) as f64 / s.worker.as_secs_f64();
        machine.min(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEAN_REPLY: f64 = 12_000.0;

    #[test]
    fn smp_multiplier_grows_linearly() {
        let c = CpuCosts::default();
        assert_eq!(c.smp_multiplier(1), 1.0);
        assert!((c.smp_multiplier(4) - 1.9).abs() < 1e-12);
    }

    #[test]
    fn uniprocessor_peaks_match_calibration_targets() {
        // The paper's UP figure-1 peaks: httpd ~2.4-2.8k replies/s, nio a
        // bit lower. These bands pin the defaults.
        let c = CpuCosts::default();
        let httpd = c.threaded_peak_rps(MEAN_REPLY, 4096, 1);
        let nio = c.event_peak_rps(MEAN_REPLY, 1, 1);
        assert!((2_000.0..3_200.0).contains(&httpd), "httpd UP peak {httpd}");
        assert!((1_700.0..2_800.0).contains(&nio), "nio UP peak {nio}");
        assert!(httpd > nio, "native httpd should peak above Java nio on UP");
    }

    #[test]
    fn smp_roughly_doubles_both_servers() {
        // Figure 9: both servers roughly double from 1 to 4 CPUs.
        let c = CpuCosts::default();
        let httpd_ratio =
            c.threaded_peak_rps(MEAN_REPLY, 4096, 4) / c.threaded_peak_rps(MEAN_REPLY, 4096, 1);
        let nio_ratio = c.event_peak_rps(MEAN_REPLY, 2, 4) / c.event_peak_rps(MEAN_REPLY, 1, 1);
        assert!(
            (1.7..2.6).contains(&httpd_ratio),
            "httpd SMP ratio {httpd_ratio}"
        );
        assert!((1.6..2.5).contains(&nio_ratio), "nio SMP ratio {nio_ratio}");
    }

    #[test]
    fn two_workers_are_best_on_four_cpus() {
        // Figure 7(a): nio's best SMP configuration is 2 workers, with 3 and
        // 4 close behind.
        let c = CpuCosts::default();
        let p: Vec<f64> = (1..=4)
            .map(|w| c.event_peak_rps(MEAN_REPLY, w, 4))
            .collect();
        assert!(p[1] > p[0], "2 workers must beat 1 on SMP: {p:?}");
        assert!(p[1] >= p[2] && p[2] >= p[3], "2 >= 3 >= 4 workers: {p:?}");
        // ... but 3 and 4 are within ~15% (the paper calls them "very
        // similar").
        assert!(p[3] / p[1] > 0.8, "4 workers should stay close: {p:?}");
    }

    #[test]
    fn one_worker_is_best_on_uniprocessor() {
        // Figure 1(a): on UP, 1 worker ≥ 4 workers ≥ 8 workers.
        let c = CpuCosts::default();
        let p1 = c.event_peak_rps(MEAN_REPLY, 1, 1);
        let p4 = c.event_peak_rps(MEAN_REPLY, 4, 1);
        let p8 = c.event_peak_rps(MEAN_REPLY, 8, 1);
        assert!(p1 >= p4 && p4 >= p8, "{p1} {p4} {p8}");
        assert!(p8 / p1 > 0.6, "8 workers shouldn't collapse: {p8} vs {p1}");
    }

    #[test]
    fn pool_management_inflation_is_mild() {
        // §4.1: 6000 threads performs slightly differently from 4096 — the
        // first-order cost of big pools is instability, not mean slowdown.
        let c = CpuCosts::default();
        let s896 = c.threaded_request_service(12_000, 896, 1);
        let s6000 = c.threaded_request_service(12_000, 6000, 1);
        let ratio = s6000.as_secs_f64() / s896.as_secs_f64();
        assert!((1.0..1.1).contains(&ratio), "pool inflation ratio {ratio}");
    }

    #[test]
    fn bigger_replies_cost_more() {
        let c = CpuCosts::default();
        let small = c.threaded_request_service(1_000, 896, 1);
        let big = c.threaded_request_service(100_000, 896, 1);
        assert!(big.as_nanos() > 10 * small.as_nanos());
    }

    #[test]
    fn split_service_parts_sum_to_total() {
        let c = CpuCosts::default();
        let s = c.event_request_service(12_000, 2, 4);
        assert_eq!(s.total(), s.worker + s.kernel);
        assert!(s.worker > SimDuration::ZERO && s.kernel > SimDuration::ZERO);
    }

    #[test]
    fn accept_and_reject_costs_positive() {
        let c = CpuCosts::default();
        assert!(c.threaded_accept_service(4096, 4) > SimDuration::ZERO);
        assert!(c.event_accept_service(1) > SimDuration::ZERO);
        assert!(c.reject_service(4) > c.reject_service(1));
    }

    #[test]
    fn sharded_accept_matches_handoff_on_up_and_is_cheaper_on_smp() {
        let c = CpuCosts::default();
        // Uniprocessor: no contention in either mode, identical cost —
        // this is what keeps the paper's UP figures bit-identical.
        assert_eq!(c.sharded_accept_service(1), c.event_accept_service(1));
        // SMP: the per-worker listener avoids the shared acceptor's full
        // contention multiplier.
        assert!(c.sharded_accept_service(4) < c.event_accept_service(4));
        assert!(c.sharded_accept_service(4) > SimDuration::ZERO);
    }

    /// The service functions truncate to whole nanoseconds, so a cost is
    /// checked to within one.
    fn assert_us(got: SimDuration, want_us: f64) {
        let want = want_us * 1_000.0;
        assert!(
            (got.as_nanos() as f64 - want).abs() < 1.01,
            "{got:?} vs {want_us} µs"
        );
    }

    #[test]
    fn threaded_request_cost_on_uniprocessor_is_the_plain_sum() {
        // parse 60 + 1 KiB × 25 + two context switches × 8, no pool, 1 CPU.
        let c = CpuCosts::default();
        assert_us(c.threaded_request_service(1024, 0, 1), 101.0);
    }

    #[test]
    fn event_request_split_on_uniprocessor() {
        // (60 + 25) × 1.15 + 10 = 107.75 µs, 40 % of it on the worker lane.
        let c = CpuCosts::default();
        let s = c.event_request_service(1024, 1, 1);
        assert_us(s.worker, 43.1);
        assert_us(s.kernel, 64.65);
    }

    #[test]
    fn worker_sync_penalty_spares_the_kernel_share() {
        let c = CpuCosts::default();
        let one = c.event_request_service(4096, 1, 4);
        let many = c.event_request_service(4096, 8, 4);
        assert_eq!(one.kernel, many.kernel);
        // 1 + 0.08 × 7 + 0.02 × 49 = 2.54
        let ratio = many.worker.as_nanos() as f64 / one.worker.as_nanos() as f64;
        assert!((ratio - 2.54).abs() < 1e-3, "{ratio}");
    }

    #[test]
    fn uniprocessor_accept_costs() {
        let c = CpuCosts::default();
        assert_us(c.threaded_accept_service(0, 1), 25.0);
        assert_us(c.event_accept_service(1), 28.75);
        assert_eq!(c.sharded_accept_service(1), c.event_accept_service(1));
        assert_us(c.reject_service(1), 15.0);
    }

    #[test]
    fn reject_cost_scales_with_smp_contention() {
        let c = CpuCosts::default();
        // 15 µs × (1 + 0.3 × 3)
        assert_us(c.reject_service(4), 28.5);
        assert!((c.smp_multiplier_pinned(4) - 1.405).abs() < 1e-9);
    }
}

#[cfg(test)]
mod staged_tests {
    use super::*;

    const MEAN_REPLY: f64 = 12_000.0;

    #[test]
    fn affinity_discount_cuts_contention() {
        let c = CpuCosts::default();
        assert!(c.smp_multiplier_pinned(4) < c.smp_multiplier(4));
        assert_eq!(c.smp_multiplier_pinned(1), 1.0);
    }

    #[test]
    fn staged_beats_flat_event_driven_on_smp() {
        // The paper's §6 conjecture: pipelined stages with affinity turn a
        // multiprocessor into "a real high-scalable request processing
        // pipeline" — i.e. the staged layout should outscale the flat
        // 2-worker selector server on 4 CPUs.
        let c = CpuCosts::default();
        // Stage threads sized to stage work: parsing is cheap (one thread),
        // the send stage carries the bytes (three threads).
        let staged = c.staged_peak_rps(MEAN_REPLY, 1, 3, 4);
        let flat = c.event_peak_rps(MEAN_REPLY, 2, 4);
        assert!(
            staged > flat * 1.1,
            "staged {staged:.0} should beat flat nio {flat:.0}"
        );
    }

    #[test]
    fn staged_gains_little_on_uniprocessor() {
        // On one CPU there is nothing to pin apart; the pipeline only adds
        // queue hops.
        let c = CpuCosts::default();
        let staged = c.staged_peak_rps(MEAN_REPLY, 1, 1, 1);
        let flat = c.event_peak_rps(MEAN_REPLY, 1, 1);
        let ratio = staged / flat;
        assert!((0.8..1.25).contains(&ratio), "UP ratio {ratio}");
    }

    #[test]
    fn starved_stage_caps_the_pipeline() {
        let c = CpuCosts::default();
        let balanced = c.staged_peak_rps(MEAN_REPLY, 1, 3, 4);
        let starved = c.staged_peak_rps(MEAN_REPLY, 1, 1, 4);
        assert!(starved < balanced, "send stage with 1 thread must bind");
    }
}
