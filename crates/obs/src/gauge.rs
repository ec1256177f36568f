//! Periodic gauge sampling.
//!
//! A gauge is an instantaneous depth/occupancy reading — run-queue depth,
//! thread-pool occupancy, selector ready-set size, accept-backlog depth,
//! link utilisation, open connections. The simulator samples them on a
//! virtual-time timer; the live servers publish them through the lock-free
//! [`LiveGauges`] registry and a stats thread samples in wall time. Both
//! paths append to the same bounded [`GaugeLog`], which counts (rather than
//! silently drops) overflow.

use crate::stage::Stage;
use std::sync::atomic::{AtomicU64, Ordering};

/// The closed set of sampled gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GaugeKind {
    /// CPU jobs waiting for a lane slot (simulated kernel/worker run queue).
    RunQueueDepth,
    /// CPU jobs currently executing across lanes.
    CpuRunning,
    /// Threads of the pool busy serving a connection.
    ThreadPoolOccupancy,
    /// Established-but-unadopted connections (listen backlog + handoff
    /// channel residence).
    AcceptBacklog,
    /// Connections returned ready by the last selector poll.
    ReadySetSize,
    /// Connections currently open (established, not yet closed).
    OpenConns,
    /// Connections registered with the event-driven selector.
    RegisteredConns,
    /// Fraction of link capacity in use, 0..=1 (work-conserving PS link:
    /// busy or idle; fractional once averaged over a window).
    LinkUtilisation,
    /// Reply flows concurrently sharing the link.
    ActiveFlows,
}

impl GaugeKind {
    pub const ALL: [GaugeKind; 9] = [
        GaugeKind::RunQueueDepth,
        GaugeKind::CpuRunning,
        GaugeKind::ThreadPoolOccupancy,
        GaugeKind::AcceptBacklog,
        GaugeKind::ReadySetSize,
        GaugeKind::OpenConns,
        GaugeKind::RegisteredConns,
        GaugeKind::LinkUtilisation,
        GaugeKind::ActiveFlows,
    ];

    /// Stable label used in JSONL exports and chart legends.
    pub fn label(self) -> &'static str {
        match self {
            GaugeKind::RunQueueDepth => "run-queue-depth",
            GaugeKind::CpuRunning => "cpu-running",
            GaugeKind::ThreadPoolOccupancy => "thread-pool-occupancy",
            GaugeKind::AcceptBacklog => "accept-backlog",
            GaugeKind::ReadySetSize => "ready-set-size",
            GaugeKind::OpenConns => "open-conns",
            GaugeKind::RegisteredConns => "registered-conns",
            GaugeKind::LinkUtilisation => "link-utilisation",
            GaugeKind::ActiveFlows => "active-flows",
        }
    }

    fn index(self) -> usize {
        GaugeKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind in ALL")
    }
}

/// One sampled reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSample {
    pub t_ns: u64,
    pub kind: GaugeKind,
    pub value: f64,
}

/// Bounded sample store; overflow is counted, never silent.
#[derive(Debug)]
pub struct GaugeLog {
    samples: Vec<GaugeSample>,
    capacity: usize,
    overflow: u64,
}

impl GaugeLog {
    pub fn bounded(capacity: usize) -> Self {
        GaugeLog {
            samples: Vec::new(),
            capacity,
            overflow: 0,
        }
    }

    pub fn push(&mut self, t_ns: u64, kind: GaugeKind, value: f64) {
        debug_assert!(value >= 0.0, "gauges never go negative");
        if self.samples.len() >= self.capacity {
            self.overflow += 1;
            return;
        }
        self.samples.push(GaugeSample { t_ns, kind, value });
    }

    pub fn samples(&self) -> &[GaugeSample] {
        &self.samples
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples refused because the store was full.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Time/value series for one gauge kind, in sample order.
    pub fn series(&self, kind: GaugeKind) -> (Vec<u64>, Vec<f64>) {
        let mut ts = Vec::new();
        let mut vs = Vec::new();
        for s in &self.samples {
            if s.kind == kind {
                ts.push(s.t_ns);
                vs.push(s.value);
            }
        }
        (ts, vs)
    }

    /// Peak value seen for one gauge kind.
    pub fn peak(&self, kind: GaugeKind) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.value)
            .fold(0.0, f64::max)
    }

    /// Mean value for one gauge kind (0 when unsampled).
    pub fn mean(&self, kind: GaugeKind) -> f64 {
        let (_, vs) = self.series(kind);
        if vs.is_empty() {
            0.0
        } else {
            vs.iter().sum::<f64>() / vs.len() as f64
        }
    }

    pub fn merge(&mut self, other: GaugeLog) {
        self.overflow += other.overflow;
        for s in other.samples {
            self.push(s.t_ns, s.kind, s.value);
        }
    }
}

/// Lock-free gauge registry for the live layer.
///
/// Servers bump these atomics on their hot paths (a relaxed add/sub — the
/// same cost class as the existing `NioStats` counters); a stats thread
/// samples the registry periodically into a [`GaugeLog`]. Decrements
/// saturate at zero so a racy shutdown can never publish a negative depth.
#[derive(Debug, Default)]
pub struct LiveGauges {
    values: [AtomicU64; GaugeKind::ALL.len()],
}

impl LiveGauges {
    pub fn new() -> Self {
        LiveGauges::default()
    }

    #[inline]
    pub fn add(&self, kind: GaugeKind, delta: u64) {
        self.values[kind.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Saturating decrement: never wraps below zero.
    #[inline]
    pub fn sub(&self, kind: GaugeKind, delta: u64) {
        let _ = self.values[kind.index()].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(delta))
        });
    }

    #[inline]
    pub fn set(&self, kind: GaugeKind, value: u64) {
        self.values[kind.index()].store(value, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self, kind: GaugeKind) -> u64 {
        self.values[kind.index()].load(Ordering::Relaxed)
    }

    /// Sample the given kinds into `log` at time `t_ns`.
    pub fn sample_into(&self, t_ns: u64, kinds: &[GaugeKind], log: &mut GaugeLog) {
        for &kind in kinds {
            log.push(t_ns, kind, self.get(kind) as f64);
        }
    }
}

/// Spawn a wall-clock sampler thread over a shared [`LiveGauges`].
///
/// Samples `kinds` every `period` until `stop` goes true, then returns the
/// collected log via `join()`. Timestamps are nanoseconds since the sampler
/// started, matching the simulator's run-relative virtual timestamps.
pub fn spawn_sampler(
    gauges: std::sync::Arc<LiveGauges>,
    kinds: Vec<GaugeKind>,
    period: std::time::Duration,
    capacity: usize,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<GaugeLog> {
    std::thread::spawn(move || {
        let mut log = GaugeLog::bounded(capacity);
        let epoch = std::time::Instant::now();
        while !stop.load(Ordering::Relaxed) {
            gauges.sample_into(epoch.elapsed().as_nanos() as u64, &kinds, &mut log);
            std::thread::sleep(period);
        }
        // One final sample so short runs always record something.
        gauges.sample_into(epoch.elapsed().as_nanos() as u64, &kinds, &mut log);
        log
    })
}

/// Convenience: which gauges a given architecture meaningfully exposes.
pub fn kinds_for(threaded: bool) -> Vec<GaugeKind> {
    let mut kinds = vec![
        GaugeKind::RunQueueDepth,
        GaugeKind::CpuRunning,
        GaugeKind::OpenConns,
        GaugeKind::AcceptBacklog,
        GaugeKind::LinkUtilisation,
        GaugeKind::ActiveFlows,
    ];
    if threaded {
        kinds.push(GaugeKind::ThreadPoolOccupancy);
    } else {
        kinds.push(GaugeKind::RegisteredConns);
        kinds.push(GaugeKind::ReadySetSize);
    }
    kinds
}

/// Stage labels are re-exported here for exports that pair gauges with the
/// stage taxonomy in one schema block.
pub fn stage_labels() -> Vec<&'static str> {
    Stage::ALL.iter().map(|s| s.label()).collect()
}

/// One accept shard's live counters: lifetime accepted connections plus the
/// instantaneous open-connection occupancy. Hot-path updates are relaxed
/// atomics through an `Arc` the worker holds directly, so per-accept cost is
/// identical to the existing `NioStats` counters — no registry lookup, no
/// lock.
#[derive(Debug, Default)]
pub struct ShardCell {
    accepted: AtomicU64,
    open: AtomicU64,
}

impl ShardCell {
    #[inline]
    pub fn on_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.open.fetch_add(1, Ordering::Relaxed);
    }

    /// Saturating: a racy teardown can never publish negative occupancy.
    #[inline]
    pub fn on_close(&self) {
        let _ = self
            .open
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Bulk close (worker crash drops its whole connection set at once).
    #[inline]
    pub fn close_many(&self, n: u64) {
        let _ = self
            .open
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    pub fn open(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }
}

/// Per-shard accepted/occupancy snapshot (one row per registered shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSample {
    pub shard: usize,
    pub accepted: u64,
    pub open: u64,
}

/// Registry of accept shards for the sharded accept path.
///
/// Registration (server start, worker restart) takes a lock; the per-accept
/// hot path never touches the registry — each worker updates its own
/// [`ShardCell`] through the `Arc` returned at registration. In handoff mode
/// the registry simply stays empty and costs nothing.
#[derive(Debug, Default)]
pub struct ShardGauges {
    cells: std::sync::Mutex<Vec<std::sync::Arc<ShardCell>>>,
}

impl ShardGauges {
    pub fn new() -> Self {
        ShardGauges::default()
    }

    /// Register a new shard; the returned cell is the shard's private
    /// counter handle. Shard ids are assigned in registration order.
    pub fn register_shard(&self) -> std::sync::Arc<ShardCell> {
        let cell = std::sync::Arc::new(ShardCell::default());
        self.cells
            .lock()
            .unwrap()
            .push(std::sync::Arc::clone(&cell));
        cell
    }

    pub fn shard_count(&self) -> usize {
        self.cells.lock().unwrap().len()
    }

    /// Instantaneous per-shard readings, in registration order.
    pub fn snapshot(&self) -> Vec<ShardSample> {
        self.cells
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(shard, c)| ShardSample {
                shard,
                accepted: c.accepted(),
                open: c.open(),
            })
            .collect()
    }

    /// Sum of lifetime accepts across every shard — must equal the server's
    /// total accepted counter (the shard-balance regression test's
    /// conservation law).
    pub fn total_accepted(&self) -> u64 {
        self.cells
            .lock()
            .unwrap()
            .iter()
            .map(|c| c.accepted())
            .sum()
    }

    /// Max/min lifetime-accepted ratio across shards that accepted anything;
    /// 1.0 when fewer than two shards have traffic. The shard-balance bound.
    pub fn balance_ratio(&self) -> f64 {
        let counts: Vec<u64> = self
            .cells
            .lock()
            .unwrap()
            .iter()
            .map(|c| c.accepted())
            .filter(|&n| n > 0)
            .collect();
        if counts.len() < 2 {
            return 1.0;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn log_counts_overflow() {
        let mut log = GaugeLog::bounded(2);
        log.push(0, GaugeKind::OpenConns, 1.0);
        log.push(1, GaugeKind::OpenConns, 2.0);
        log.push(2, GaugeKind::OpenConns, 3.0);
        assert_eq!(log.len(), 2);
        assert_eq!(log.overflow(), 1);
        assert_eq!(log.peak(GaugeKind::OpenConns), 2.0);
        assert_eq!(log.mean(GaugeKind::OpenConns), 1.5);
    }

    #[test]
    fn live_gauges_saturate_at_zero() {
        let g = LiveGauges::new();
        g.add(GaugeKind::OpenConns, 2);
        g.sub(GaugeKind::OpenConns, 5);
        assert_eq!(g.get(GaugeKind::OpenConns), 0);
    }

    #[test]
    fn sampler_thread_collects_and_stops() {
        let g = Arc::new(LiveGauges::new());
        g.set(GaugeKind::ReadySetSize, 4);
        let stop = Arc::new(AtomicBool::new(false));
        let handle = spawn_sampler(
            Arc::clone(&g),
            vec![GaugeKind::ReadySetSize],
            std::time::Duration::from_millis(1),
            1024,
            Arc::clone(&stop),
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
        let log = handle.join().unwrap();
        assert!(!log.is_empty());
        assert!(log
            .samples()
            .iter()
            .all(|s| s.kind == GaugeKind::ReadySetSize && s.value == 4.0));
    }

    #[test]
    fn kinds_differ_by_architecture() {
        assert!(kinds_for(true).contains(&GaugeKind::ThreadPoolOccupancy));
        assert!(kinds_for(false).contains(&GaugeKind::ReadySetSize));
    }
}
