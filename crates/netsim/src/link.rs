//! Fluid-flow link model with processor-sharing bandwidth allocation.
//!
//! Every flow crossing a link gets an equal share of its capacity — exact
//! max-min fairness for the paper's topology, where each client machine
//! reaches the SUT over its own crossover cable and the cable is the only
//! bottleneck. TCP's per-flow throughput under many long-lived connections
//! over one bottleneck converges to the fair share, so the fluid model
//! preserves the figure-5/6 bandwidth-bound behaviour without simulating
//! packets.
//!
//! The implementation uses the classic processor-sharing virtual-time trick:
//! let `V(t)` be the cumulative per-flow service (bytes) a flow admitted at
//! time 0 would have received by `t`. `V` advances at rate `capacity / n`
//! while `n` flows are active, and a flow carrying `b` bytes admitted when
//! the virtual clock stood at `V0` completes exactly when `V = V0 + b`.
//! Completion order is therefore the order of finish tags, giving O(log n)
//! joins/leaves instead of rescheduling every flow on every change.

use desim::{IntMap, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Identifier for a flow on a link (assigned by the caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Static link parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Capacity in bytes per second. The paper's links: 100 Mbit/s =
    /// 12.5e6 B/s, 1 Gbit/s = 125e6 B/s.
    pub capacity_bps: f64,
    /// One-way propagation + switching latency.
    pub latency: SimDuration,
}

impl LinkConfig {
    /// A link from a megabit-per-second rating with the given latency.
    pub fn from_mbit(mbit: f64, latency: SimDuration) -> Self {
        LinkConfig {
            capacity_bps: mbit * 1_000_000.0 / 8.0,
            latency,
        }
    }
}

/// Finish-tag key: virtual finish time plus the flow id for total ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FinishKey {
    v: f64,
    id: FlowId,
}

impl Eq for FinishKey {}
impl PartialOrd for FinishKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FinishKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // v values are always finite (asserted on insert).
        self.v
            .partial_cmp(&other.v)
            .expect("non-finite virtual time")
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// A processor-sharing link: equal instantaneous share for every active flow.
#[derive(Debug)]
pub struct PsLink {
    config: LinkConfig,
    /// Virtual per-flow service delivered so far (bytes).
    v_now: f64,
    /// Wall (simulation) time at which `v_now` was computed.
    last_update: SimTime,
    /// Active flows keyed by their virtual finish tag; value is the flow's
    /// total byte count (for delivery accounting).
    by_finish: BTreeMap<FinishKey, f64>,
    /// Reverse index: flow → its finish key (for cancellation).
    finish_of: IntMap<FlowId, FinishKey>,
    /// Total bytes delivered by completed flows (accounting).
    pub bytes_delivered: f64,
}

impl PsLink {
    pub fn new(config: LinkConfig) -> Self {
        assert!(config.capacity_bps > 0.0);
        PsLink {
            config,
            v_now: 0.0,
            last_update: SimTime::ZERO,
            by_finish: BTreeMap::new(),
            finish_of: IntMap::default(),
            bytes_delivered: 0.0,
        }
    }

    /// Link parameters.
    pub fn config(&self) -> LinkConfig {
        self.config
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.by_finish.len()
    }

    /// Advance the virtual clock to `now`.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "link time ran backwards");
        let n = self.by_finish.len();
        if n > 0 {
            let dt = (now - self.last_update).as_secs_f64();
            self.v_now += dt * self.config.capacity_bps / n as f64;
        }
        self.last_update = now;
    }

    /// Admit a flow of `bytes` at `now`. Flows of zero bytes are legal and
    /// complete immediately at the next `next_completion` query.
    pub fn start_flow(&mut self, now: SimTime, id: FlowId, bytes: f64) {
        assert!(bytes >= 0.0 && bytes.is_finite());
        assert!(
            !self.finish_of.contains_key(&id),
            "flow {id:?} already active"
        );
        self.advance(now);
        let key = FinishKey {
            v: self.v_now + bytes,
            id,
        };
        self.by_finish.insert(key, bytes);
        self.finish_of.insert(id, key);
    }

    /// Remove a flow before completion (connection aborted). Returns the
    /// bytes it still had outstanding, or `None` if it wasn't active.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
        self.advance(now);
        let key = self.finish_of.remove(&id)?;
        let bytes = self.by_finish.remove(&key).expect("index out of sync");
        let remaining = (key.v - self.v_now).max(0.0).min(bytes);
        self.bytes_delivered += bytes - remaining;
        Some(remaining)
    }

    /// When will the next flow complete, and which one? Pure query; the
    /// caller schedules an event at the returned time and then calls
    /// [`PsLink::complete_next`] when it fires. Returns `None` when idle.
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, FlowId)> {
        let (key, _) = self.by_finish.first_key_value()?;
        let n = self.by_finish.len() as f64;
        // Virtual service still owed to the head flow.
        let owed_v = (key.v - self.v_now).max(0.0);
        // But time has passed since last_update without the clock advancing.
        let elapsed = now.saturating_since(self.last_update).as_secs_f64();
        let already = elapsed * self.config.capacity_bps / n;
        let remaining_v = (owed_v - already).max(0.0);
        let dt = remaining_v * n / self.config.capacity_bps;
        Some((now.saturating_add(SimDuration::from_secs_f64(dt)), key.id))
    }

    /// Pop the earliest-finishing flow, advancing the clock to `now`. The
    /// caller must only invoke this at (or after) the time returned by
    /// [`PsLink::next_completion`]. Returns the completed flow.
    pub fn complete_next(&mut self, now: SimTime) -> Option<FlowId> {
        self.advance(now);
        let (&key, _) = self.by_finish.first_key_value()?;
        // Tolerate sub-nanosecond float slop from the time conversion.
        let slack_bytes = self.config.capacity_bps * 1e-6;
        if key.v > self.v_now + slack_bytes {
            return None; // head flow genuinely not done yet
        }
        let bytes = self.by_finish.remove(&key).expect("index out of sync");
        self.finish_of.remove(&key.id);
        self.bytes_delivered += bytes;
        // Snap the virtual clock so later math doesn't accumulate slop.
        self.v_now = self.v_now.max(key.v);
        Some(key.id)
    }

    /// Change the link's capacity at `now` — used for failure injection
    /// (outages model as a near-zero capacity) and degradation studies. The
    /// virtual-time bookkeeping is exact across the change: finish tags are
    /// denominated in per-flow bytes, so only the clock *rate* changes.
    pub fn set_capacity(&mut self, now: SimTime, capacity_bps: f64) {
        assert!(capacity_bps > 0.0, "capacity must stay positive");
        self.advance(now);
        self.config.capacity_bps = capacity_bps;
    }

    /// Change the link's propagation latency — used for jitter-injection
    /// faults. Only future latency reads see it; transfers in flight keep
    /// the bandwidth share math untouched (latency is applied per hop by
    /// the testbed, not by the fluid model).
    pub fn set_latency(&mut self, latency: SimDuration) {
        self.config.latency = latency;
    }

    /// Instantaneous per-flow throughput in bytes/second.
    pub fn per_flow_rate(&self) -> f64 {
        let n = self.by_finish.len();
        if n == 0 {
            0.0
        } else {
            self.config.capacity_bps / n as f64
        }
    }

    /// Current utilisation in [0, 1]: 1 whenever any flow is active (the
    /// fluid model is work-conserving).
    pub fn utilisation(&self) -> f64 {
        if self.by_finish.is_empty() {
            0.0
        } else {
            1.0
        }
    }

    /// Point-in-time load numbers for a periodic gauge sampler — one call
    /// per sampling tick instead of three, and a stable place to extend if
    /// the fluid model ever tracks more state.
    pub fn gauges(&self) -> LinkGauges {
        LinkGauges {
            active_flows: self.active_flows(),
            utilisation: self.utilisation(),
            per_flow_rate: self.per_flow_rate(),
        }
    }
}

/// Snapshot of a link's instantaneous load, for gauge sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkGauges {
    pub active_flows: usize,
    /// Work-conserving utilisation in [0, 1].
    pub utilisation: f64,
    /// Instantaneous per-flow throughput in bytes/second.
    pub per_flow_rate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(mbit: f64) -> PsLink {
        PsLink::new(LinkConfig::from_mbit(mbit, SimDuration::from_micros(100)))
    }

    fn t_ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        // 100 Mbit/s = 12.5 MB/s; 12.5 MB should take exactly 1 s.
        let mut l = link(100.0);
        l.start_flow(SimTime::ZERO, FlowId(1), 12_500_000.0);
        let (done, id) = l.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(id, FlowId(1));
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6, "{done}");
        assert_eq!(l.complete_next(done), Some(FlowId(1)));
        assert_eq!(l.active_flows(), 0);
    }

    #[test]
    fn two_equal_flows_halve_the_rate() {
        let mut l = link(100.0);
        l.start_flow(SimTime::ZERO, FlowId(1), 12_500_000.0);
        l.start_flow(SimTime::ZERO, FlowId(2), 12_500_000.0);
        let (done, _) = l.next_completion(SimTime::ZERO).unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn short_flow_finishes_first_then_long_speeds_up() {
        let mut l = link(100.0); // 12.5 MB/s
        l.start_flow(SimTime::ZERO, FlowId(1), 25_000_000.0); // 25 MB
        l.start_flow(SimTime::ZERO, FlowId(2), 2_500_000.0); // 2.5 MB
        // Shared: each at 6.25 MB/s. Flow 2 needs 0.4 s.
        let (d2, id2) = l.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(id2, FlowId(2));
        assert!((d2.as_secs_f64() - 0.4).abs() < 1e-6);
        assert_eq!(l.complete_next(d2), Some(FlowId(2)));
        // Flow 1 has 25 - 2.5 = 22.5 MB left, now alone at 12.5 MB/s: 1.8 s.
        let (d1, id1) = l.next_completion(d2).unwrap();
        assert_eq!(id1, FlowId(1));
        assert!((d1.as_secs_f64() - 2.2).abs() < 1e-5, "{}", d1.as_secs_f64());
    }

    #[test]
    fn late_join_shares_from_join_time() {
        let mut l = link(100.0);
        l.start_flow(SimTime::ZERO, FlowId(1), 12_500_000.0); // alone: 1s
        // At 0.5 s flow 1 has 6.25 MB left; flow 2 joins with 6.25 MB.
        l.start_flow(t_ms(500), FlowId(2), 6_250_000.0);
        // Both finish together at 0.5 + (6.25+6.25)/12.5 = 1.5 s.
        let (d, _) = l.next_completion(t_ms(500)).unwrap();
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-6, "{}", d.as_secs_f64());
    }

    #[test]
    fn cancel_returns_outstanding_bytes() {
        let mut l = link(100.0);
        l.start_flow(SimTime::ZERO, FlowId(1), 12_500_000.0);
        let rem = l.cancel_flow(t_ms(250), FlowId(1)).unwrap();
        // After 0.25 s alone it moved 3.125 MB.
        assert!((rem - 9_375_000.0).abs() < 1.0, "{rem}");
        assert_eq!(l.cancel_flow(t_ms(300), FlowId(1)), None);
        assert_eq!(l.active_flows(), 0);
        assert_eq!(l.next_completion(t_ms(300)), None);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut l = link(100.0);
        l.start_flow(t_ms(10), FlowId(7), 0.0);
        let (d, id) = l.next_completion(t_ms(10)).unwrap();
        assert_eq!(id, FlowId(7));
        assert_eq!(d, t_ms(10));
        assert_eq!(l.complete_next(d), Some(FlowId(7)));
    }

    #[test]
    fn completion_conservation_under_churn() {
        // Work conservation: total bytes / capacity = makespan when the link
        // never idles.
        let mut l = link(100.0);
        let cap = 12_500_000.0;
        let flows = [(1u64, 0.3 * cap), (2, 0.2 * cap), (3, 0.5 * cap)];
        for &(id, b) in &flows {
            l.start_flow(SimTime::ZERO, FlowId(id), b);
        }
        let mut now = SimTime::ZERO;
        let mut completed = 0;
        while let Some((t, _)) = l.next_completion(now) {
            now = t;
            assert!(l.complete_next(now).is_some());
            completed += 1;
        }
        assert_eq!(completed, 3);
        assert!((now.as_secs_f64() - 1.0).abs() < 1e-6, "{now}");
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn duplicate_flow_panics() {
        let mut l = link(100.0);
        l.start_flow(SimTime::ZERO, FlowId(1), 10.0);
        l.start_flow(SimTime::ZERO, FlowId(1), 10.0);
    }

    #[test]
    fn per_flow_rate_reports_share() {
        let mut l = link(100.0);
        assert_eq!(l.per_flow_rate(), 0.0);
        l.start_flow(SimTime::ZERO, FlowId(1), 1e9);
        assert!((l.per_flow_rate() - 12.5e6).abs() < 1.0);
        l.start_flow(SimTime::ZERO, FlowId(2), 1e9);
        assert!((l.per_flow_rate() - 6.25e6).abs() < 1.0);
        assert_eq!(l.utilisation(), 1.0);
    }

    #[test]
    fn capacity_change_rescales_in_flight_flows() {
        // 12.5 MB at 12.5 MB/s, halved to 6.25 MB/s at t=0.5 s: the first
        // half moved 6.25 MB, the rest takes 1 more second ⇒ done at 1.5 s.
        let mut l = link(100.0);
        l.start_flow(SimTime::ZERO, FlowId(1), 12_500_000.0);
        l.set_capacity(t_ms(500), 6_250_000.0);
        let (done, _) = l.next_completion(t_ms(500)).unwrap();
        assert!((done.as_secs_f64() - 1.5).abs() < 1e-6, "{done}");
    }

    #[test]
    fn outage_freezes_progress() {
        let mut l = link(100.0);
        l.start_flow(SimTime::ZERO, FlowId(1), 12_500_000.0);
        // Outage at 0.2 s: capacity collapses to ~nothing for 1 s.
        l.set_capacity(t_ms(200), 1.0);
        l.set_capacity(t_ms(1200), 12_500_000.0);
        // 0.2 s of progress before, ~0 during; remaining 10 MB takes 0.8 s.
        let (done, _) = l.next_completion(t_ms(1200)).unwrap();
        assert!(
            (done.as_secs_f64() - 2.0).abs() < 0.01,
            "{}",
            done.as_secs_f64()
        );
    }

    #[test]
    #[should_panic(expected = "capacity must stay positive")]
    fn zero_capacity_rejected() {
        let mut l = link(100.0);
        l.set_capacity(SimTime::ZERO, 0.0);
    }

    #[test]
    fn gauge_snapshot_tracks_flows() {
        let mut l = link(100.0);
        assert_eq!(
            l.gauges(),
            LinkGauges {
                active_flows: 0,
                utilisation: 0.0,
                per_flow_rate: 0.0
            }
        );
        l.start_flow(SimTime::ZERO, FlowId(1), 1e9);
        l.start_flow(SimTime::ZERO, FlowId(2), 1e9);
        let g = l.gauges();
        assert_eq!(g.active_flows, 2);
        assert_eq!(g.utilisation, 1.0);
        assert!((g.per_flow_rate - 6.25e6).abs() < 1.0);
    }

    #[test]
    fn from_mbit_conversion() {
        let c = LinkConfig::from_mbit(1000.0, SimDuration::ZERO);
        assert!((c.capacity_bps - 125e6).abs() < 1e-6);
    }
}
