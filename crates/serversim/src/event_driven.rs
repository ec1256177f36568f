//! Event-driven (NIO-style) server bookkeeping.
//!
//! The architectural inverse of [`crate::threaded`]: connections are never
//! bound to threads. In the paper's layout ([`AcceptMode::Handoff`]) a
//! single acceptor thread drains the listen queue, and `workers` worker
//! threads multiplex *all* established connections through readiness
//! selection. The only admission limit is the listen backlog in front of
//! the acceptor — and because accepting costs microseconds rather than a
//! pool thread, that queue practically never fills.
//!
//! [`AcceptMode::Sharded`] models the shared-nothing alternative the live
//! layer implements with `SO_REUSEPORT`: every worker owns a private accept
//! queue with its own full backlog (mirroring one `listen(backlog)` socket
//! per worker), SYNs hash onto the *alive* shards, and a crashed shard's
//! queue is adopted by a survivor — exactly the live listener-fd takeover,
//! so already-queued connections survive a worker death.

use desim::{IntMap, IntSet};
use faults::AcceptMode;
use netsim::ConnId;

/// Outcome of a SYN arriving at the event-driven server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// Queued for the acceptor thread (handoff) or an owning shard
    /// (sharded); run the accept job.
    Accept,
    /// Listen queue overflow (requires pathological accept starvation).
    Dropped,
    /// The server is draining: new connections are refused explicitly.
    Refused,
}

/// Selector/acceptor state of the event-driven server.
#[derive(Debug)]
pub struct EventServer {
    workers: usize,
    backlog_cap: usize,
    mode: AcceptMode,
    /// Handoff: connections waiting for the acceptor thread.
    pending_accepts: usize,
    /// Sharded: per-worker accept-queue depths (index = shard).
    shard_pending: Vec<usize>,
    /// Sharded: connections accepted per shard, ever (balance reporting).
    shard_accepted: Vec<u64>,
    /// Sharded: which shards are currently alive (a crashed shard's queue
    /// is adopted by a survivor).
    shard_alive: Vec<bool>,
    /// Sharded: which shard each in-flight accept is queued on.
    assigned: IntMap<ConnId, usize>,
    /// Connections registered with the selector.
    registered: IntSet<ConnId>,
    /// Peak registered connections (reporting; the paper's point is that
    /// this can be thousands with one worker thread).
    pub peak_registered: usize,
    pub syns_dropped: u64,
    /// SYNs refused explicitly while draining (reporting).
    pub syns_refused: u64,
    /// Graceful drain in progress: refuse new work, let registered
    /// connections finish.
    draining: bool,
}

impl EventServer {
    pub fn new(workers: usize, backlog_cap: usize) -> Self {
        Self::with_mode(workers, backlog_cap, AcceptMode::Handoff)
    }

    /// Per-worker accept queues: each worker owns a private backlog of
    /// `backlog_cap` (one `listen(backlog)` socket per worker, as
    /// `SO_REUSEPORT` gives the live server).
    pub fn new_sharded(workers: usize, backlog_cap: usize) -> Self {
        Self::with_mode(workers, backlog_cap, AcceptMode::Sharded)
    }

    fn with_mode(workers: usize, backlog_cap: usize, mode: AcceptMode) -> Self {
        assert!(workers > 0);
        let shards = if mode == AcceptMode::Sharded { workers } else { 0 };
        EventServer {
            workers,
            backlog_cap,
            mode,
            pending_accepts: 0,
            shard_pending: vec![0; shards],
            shard_accepted: vec![0; shards],
            shard_alive: vec![true; shards],
            assigned: IntMap::default(),
            registered: IntSet::default(),
            peak_registered: 0,
            syns_dropped: 0,
            syns_refused: 0,
            draining: false,
        }
    }

    /// Begin a graceful drain: every subsequent SYN is refused; already
    /// registered connections keep being served.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Drain in progress?
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn mode(&self) -> AcceptMode {
        self.mode
    }

    /// Connections currently registered with the selector.
    pub fn registered_count(&self) -> usize {
        self.registered.len()
    }

    /// Connections waiting to be accepted — the accept-backlog depth the
    /// gauge sampler reports. In sharded mode this is the sum across all
    /// per-worker queues.
    pub fn pending_accepts(&self) -> usize {
        match self.mode {
            AcceptMode::Handoff => self.pending_accepts,
            AcceptMode::Sharded => self.shard_pending.iter().sum(),
        }
    }

    /// Sharded: accepted-ever counts per shard (balance reporting).
    pub fn accepted_per_shard(&self) -> &[u64] {
        &self.shard_accepted
    }

    /// Sharded: the shard a SYN for `conn` lands on — the `conn.0`-th
    /// alive shard, matching the kernel's deterministic `SO_REUSEPORT`
    /// hash over the live group.
    fn pick_shard(&self, conn: ConnId) -> usize {
        let alive: Vec<usize> = (0..self.shard_alive.len())
            .filter(|&s| self.shard_alive[s])
            .collect();
        debug_assert!(!alive.is_empty());
        alive[conn.0 as usize % alive.len()]
    }

    /// A SYN arrived for `conn` (the id only matters in sharded mode,
    /// where it determines the owning shard).
    pub fn on_syn(&mut self, conn: ConnId) -> AcceptOutcome {
        if self.draining {
            self.syns_refused += 1;
            return AcceptOutcome::Refused;
        }
        match self.mode {
            AcceptMode::Handoff => {
                if self.pending_accepts < self.backlog_cap {
                    self.pending_accepts += 1;
                    AcceptOutcome::Accept
                } else {
                    self.syns_dropped += 1;
                    AcceptOutcome::Dropped
                }
            }
            AcceptMode::Sharded => {
                let shard = self.pick_shard(conn);
                if self.shard_pending[shard] < self.backlog_cap {
                    self.shard_pending[shard] += 1;
                    self.assigned.insert(conn, shard);
                    AcceptOutcome::Accept
                } else {
                    self.syns_dropped += 1;
                    AcceptOutcome::Dropped
                }
            }
        }
    }

    /// The accept for `conn` finished: register it with the selector.
    pub fn on_accepted(&mut self, conn: ConnId) {
        self.take_pending(conn, true);
        self.registered.insert(conn);
        self.peak_registered = self.peak_registered.max(self.registered.len());
    }

    /// A registered connection closed (either side). Returns true if it was
    /// registered.
    pub fn deregister(&mut self, conn: ConnId) -> bool {
        self.registered.remove(&conn)
    }

    /// The accept for `conn` was abandoned before completing (client timed
    /// out while the accept job was queued).
    pub fn abandon_accept(&mut self, conn: ConnId) {
        self.take_pending(conn, false);
    }

    fn take_pending(&mut self, conn: ConnId, count_accept: bool) {
        match self.mode {
            AcceptMode::Handoff => {
                debug_assert!(self.pending_accepts > 0);
                self.pending_accepts = self.pending_accepts.saturating_sub(1);
            }
            AcceptMode::Sharded => {
                let shard = self
                    .assigned
                    .remove(&conn)
                    .expect("pending accept must be assigned to a shard");
                debug_assert!(self.shard_pending[shard] > 0);
                self.shard_pending[shard] = self.shard_pending[shard].saturating_sub(1);
                if count_accept {
                    self.shard_accepted[shard] += 1;
                }
            }
        }
    }

    /// Sharded: crash up to `count` shards (highest index first), always
    /// keeping at least one alive. Each dead shard's queued accepts are
    /// adopted by the lowest-index survivor — the listener-fd takeover —
    /// so no already-queued connection is lost. Returns how many shards
    /// actually went down. No-op in handoff mode (worker death there only
    /// shrinks lane capacity; the single accept queue is unaffected).
    pub fn crash_shards(&mut self, count: usize) -> usize {
        if self.mode != AcceptMode::Sharded {
            return 0;
        }
        let alive_now = self.shard_alive.iter().filter(|a| **a).count();
        let to_kill = count.min(alive_now.saturating_sub(1));
        let mut killed = 0;
        for s in (0..self.shard_alive.len()).rev() {
            if killed == to_kill {
                break;
            }
            if self.shard_alive[s] {
                self.shard_alive[s] = false;
                killed += 1;
            }
        }
        let survivor = self
            .shard_alive
            .iter()
            .position(|a| *a)
            .expect("at least one shard stays alive");
        // Takeover: move every dead shard's queue to the survivor.
        for s in 0..self.shard_pending.len() {
            if !self.shard_alive[s] && self.shard_pending[s] > 0 {
                self.shard_pending[survivor] += self.shard_pending[s];
                self.shard_pending[s] = 0;
                for shard in self.assigned.values_mut() {
                    if *shard == s {
                        *shard = survivor;
                    }
                }
            }
        }
        killed
    }

    /// Sharded: bring up to `count` dead shards back (lowest index first).
    /// Returns how many revived. No-op in handoff mode.
    pub fn revive_shards(&mut self, count: usize) -> usize {
        if self.mode != AcceptMode::Sharded {
            return 0;
        }
        let mut revived = 0;
        for s in 0..self.shard_alive.len() {
            if revived == count {
                break;
            }
            if !self.shard_alive[s] {
                self.shard_alive[s] = true;
                revived += 1;
            }
        }
        revived
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_thousands_without_threads() {
        let mut s = EventServer::new(1, 100_000);
        for i in 0..5_000u64 {
            assert_eq!(s.on_syn(ConnId(i)), AcceptOutcome::Accept);
            s.on_accepted(ConnId(i));
        }
        assert_eq!(s.registered_count(), 5_000);
        assert_eq!(s.peak_registered, 5_000);
        assert_eq!(s.workers(), 1);
        assert_eq!(s.mode(), AcceptMode::Handoff);
    }

    #[test]
    fn backlog_overflow_drops() {
        let mut s = EventServer::new(2, 2);
        assert_eq!(s.on_syn(ConnId(0)), AcceptOutcome::Accept);
        assert_eq!(s.on_syn(ConnId(1)), AcceptOutcome::Accept);
        assert_eq!(s.on_syn(ConnId(2)), AcceptOutcome::Dropped);
        assert_eq!(s.syns_dropped, 1);
        // Draining an accept frees a slot.
        s.on_accepted(ConnId(1));
        assert_eq!(s.on_syn(ConnId(3)), AcceptOutcome::Accept);
    }

    #[test]
    fn drain_refuses_new_but_keeps_registered() {
        let mut s = EventServer::new(1, 10);
        s.on_syn(ConnId(1));
        s.on_accepted(ConnId(1));
        s.begin_drain();
        assert!(s.is_draining());
        assert_eq!(s.on_syn(ConnId(2)), AcceptOutcome::Refused);
        assert_eq!(s.syns_refused, 1);
        // The registered connection is untouched until it closes itself.
        assert_eq!(s.registered_count(), 1);
        assert!(s.deregister(ConnId(1)));
    }

    #[test]
    fn deregister_is_idempotent() {
        let mut s = EventServer::new(1, 10);
        s.on_syn(ConnId(1));
        s.on_accepted(ConnId(1));
        assert!(s.deregister(ConnId(1)));
        assert!(!s.deregister(ConnId(1)));
        assert_eq!(s.registered_count(), 0);
    }

    #[test]
    fn sharded_spreads_syns_across_workers() {
        let mut s = EventServer::new_sharded(4, 100);
        for i in 0..40u64 {
            assert_eq!(s.on_syn(ConnId(i)), AcceptOutcome::Accept);
            s.on_accepted(ConnId(i));
        }
        assert_eq!(s.mode(), AcceptMode::Sharded);
        assert_eq!(s.registered_count(), 40);
        // conn.0 % 4 distributes evenly over 4 alive shards.
        assert_eq!(s.accepted_per_shard(), &[10, 10, 10, 10]);
        assert_eq!(s.pending_accepts(), 0);
    }

    #[test]
    fn sharded_backlog_is_per_shard() {
        // 2 shards × cap 2: shard 0 takes even ids, shard 1 odd ids.
        let mut s = EventServer::new_sharded(2, 2);
        assert_eq!(s.on_syn(ConnId(0)), AcceptOutcome::Accept);
        assert_eq!(s.on_syn(ConnId(2)), AcceptOutcome::Accept);
        // Shard 0 is now full; shard 1 still has room.
        assert_eq!(s.on_syn(ConnId(4)), AcceptOutcome::Dropped);
        assert_eq!(s.on_syn(ConnId(1)), AcceptOutcome::Accept);
        assert_eq!(s.syns_dropped, 1);
        assert_eq!(s.pending_accepts(), 3);
    }

    #[test]
    fn crash_moves_queue_to_survivor_and_loses_nothing() {
        let mut s = EventServer::new_sharded(2, 100);
        // Queue two accepts on shard 1 (odd ids).
        assert_eq!(s.on_syn(ConnId(1)), AcceptOutcome::Accept);
        assert_eq!(s.on_syn(ConnId(3)), AcceptOutcome::Accept);
        assert_eq!(s.crash_shards(1), 1);
        // Takeover: nothing dropped, queue adopted by shard 0.
        assert_eq!(s.pending_accepts(), 2);
        // The adopted accepts complete and are credited to the survivor.
        s.on_accepted(ConnId(1));
        s.on_accepted(ConnId(3));
        assert_eq!(s.accepted_per_shard(), &[2, 0]);
        // New SYNs land on the lone survivor.
        assert_eq!(s.on_syn(ConnId(5)), AcceptOutcome::Accept);
        s.on_accepted(ConnId(5));
        assert_eq!(s.accepted_per_shard(), &[3, 0]);
        // Revival restores spreading.
        assert_eq!(s.revive_shards(1), 1);
        assert_eq!(s.on_syn(ConnId(7)), AcceptOutcome::Accept);
        s.on_accepted(ConnId(7));
        assert_eq!(s.accepted_per_shard(), &[3, 1]);
    }

    #[test]
    fn crash_never_kills_last_shard() {
        let mut s = EventServer::new_sharded(3, 10);
        assert_eq!(s.crash_shards(99), 2);
        assert_eq!(s.on_syn(ConnId(0)), AcceptOutcome::Accept);
        // Handoff mode ignores shard crash/revive entirely.
        let mut h = EventServer::new(3, 10);
        assert_eq!(h.crash_shards(2), 0);
        assert_eq!(h.revive_shards(2), 0);
    }
}
