//! Wall-clock hierarchical deadline wheel for per-connection timers.
//!
//! A Varghese & Lauck hierarchy: a fine wheel of `SLOTS` buckets, then
//! coarser wheels each `SLOTS`× wider, cascading on slot boundaries. The
//! simulator keeps its pending events in `desim`'s binary heap instead; the
//! wheel's shape is driven by the live servers' needs:
//!
//! - Time is `u64` nanoseconds since a caller-chosen epoch (the worker's
//!   start `Instant`), not virtual `SimTime`.
//! - The pop is *bounded*: [`DeadlineWheel::pop_due`] only yields entries
//!   whose deadline is at or before `now`, so a worker loop can harvest
//!   expiries once per select tick without a global peek.
//! - There is no per-entry remove. Cancellation is lazy: callers key
//!   entries with a generation counter and drop stale pops (an event-driven
//!   server re-arms deadlines on every readiness event; eager removal would
//!   make the hot path pay for the cold one). Left alone, stale entries
//!   accumulate at (close rate × timeout); [`DeadlineWheel::retain`] is the
//!   batch compaction a caller runs once they outnumber the live ones.
//!
//! Default resolution is 1 ms — connection deadlines are 100 ms..minutes, so
//! a coarser base slot keeps cascades rare while staying far below the
//! shortest policy anyone configures.

use std::collections::VecDeque;

const SLOTS: usize = 64;
const LEVELS: usize = 8;

#[derive(Debug)]
struct Entry<K> {
    at: u64,
    seq: u64,
    key: K,
}

/// A hierarchical deadline wheel over `u64` nanoseconds.
///
/// `resolution` is the width of a level-0 slot; level `k` slots are
/// `resolution × SLOTS^k` wide. Entries beyond the hierarchy land in an
/// overflow list consulted on cascade, so arbitrarily far deadlines are
/// never lost.
#[derive(Debug)]
pub struct DeadlineWheel<K> {
    resolution: u64,
    /// wheels[level][slot]
    wheels: Vec<Vec<VecDeque<Entry<K>>>>,
    /// Absolute time the cursor has processed up to (exclusive).
    horizon: u64,
    len: usize,
    /// Entries too far out for the hierarchy (rare).
    overflow: Vec<Entry<K>>,
    next_seq: u64,
}

impl<K> DeadlineWheel<K> {
    /// Wheel with 1 ms base resolution.
    pub fn new() -> Self {
        Self::with_resolution(1_000_000)
    }

    /// Wheel with an explicit base slot width (nanoseconds).
    pub fn with_resolution(resolution: u64) -> Self {
        assert!(resolution > 0);
        DeadlineWheel {
            resolution,
            wheels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| VecDeque::new()).collect())
                .collect(),
            horizon: 0,
            len: 0,
            overflow: Vec::new(),
            next_seq: 0,
        }
    }

    /// Width of one slot at `level`.
    fn slot_width(&self, level: usize) -> u64 {
        self.resolution
            .saturating_mul((SLOTS as u64).saturating_pow(level as u32))
    }

    /// Span of the whole wheel at `level` (slot width × SLOTS).
    fn level_span(&self, level: usize) -> u64 {
        self.slot_width(level).saturating_mul(SLOTS as u64)
    }

    /// Arm a deadline at absolute time `at` (nanoseconds since the wheel's
    /// epoch). Deadlines already in the past are clamped to the horizon and
    /// fire on the next harvest.
    pub fn schedule(&mut self, at: u64, key: K) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        // Unlike the sim wheel, live callers may arm a deadline that has
        // already elapsed (timeout shorter than one select tick); clamp
        // instead of asserting so it pops immediately.
        let at = at.max(self.horizon);
        self.place(Entry { at, seq, key });
    }

    /// Place an entry into the correct wheel/slot relative to the horizon.
    fn place(&mut self, entry: Entry<K>) {
        let delta = entry.at.saturating_sub(self.horizon);
        for level in 0..LEVELS {
            if delta < self.level_span(level) {
                let slot = ((entry.at / self.slot_width(level)) % SLOTS as u64) as usize;
                self.wheels[level][slot].push_back(entry);
                return;
            }
        }
        self.overflow.push(entry);
    }

    /// Advance the horizon one level-0 slot, cascading coarser buckets as
    /// their boundaries are crossed.
    fn advance_one_slot(&mut self) {
        self.horizon += self.resolution;
        for level in 1..LEVELS {
            if self.horizon.is_multiple_of(self.slot_width(level)) {
                let slot = ((self.horizon / self.slot_width(level)) % SLOTS as u64) as usize;
                let mut bucket: Vec<Entry<K>> = self.wheels[level][slot].drain(..).collect();
                for entry in bucket.drain(..) {
                    // Redistribute into finer wheels; entries a full lap out
                    // stay at this level.
                    let delta = entry.at.saturating_sub(self.horizon);
                    let target = (0..level).find(|&l| delta < self.level_span(l));
                    match target {
                        Some(l) => {
                            let s = ((entry.at / self.slot_width(l)) % SLOTS as u64) as usize;
                            self.wheels[l][s].push_back(entry);
                        }
                        None => self.wheels[level][slot].push_back(entry),
                    }
                }
            } else {
                break;
            }
        }
        if !self.overflow.is_empty() {
            let top_span = self.level_span(LEVELS - 1);
            let mut i = 0;
            while i < self.overflow.len() {
                if self.overflow[i].at.saturating_sub(self.horizon) < top_span {
                    let e = self.overflow.swap_remove(i);
                    self.place(e);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Drain the current level-0 slot sorted by (deadline, seq).
    fn take_current_slot(&mut self) -> Vec<Entry<K>> {
        let slot = ((self.horizon / self.resolution) % SLOTS as u64) as usize;
        let mut out: Vec<Entry<K>> = self.wheels[0][slot].drain(..).collect();
        out.sort_by(|a, b| a.at.cmp(&b.at).then(a.seq.cmp(&b.seq)));
        out
    }

    /// Pop the earliest deadline at or before `now`, advancing the cursor as
    /// far as `now` permits. Returns `(deadline, key)`. Call in a loop each
    /// tick to harvest every expiry; entries after `now` stay armed.
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, K)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let mut slot = self.take_current_slot();
            if !slot.is_empty() {
                if slot[0].at <= now {
                    let head = slot.remove(0);
                    let slot_idx = ((self.horizon / self.resolution) % SLOTS as u64) as usize;
                    for e in slot.into_iter().rev() {
                        self.wheels[0][slot_idx].push_front(e);
                    }
                    self.len -= 1;
                    return Some((head.at, head.key));
                }
                // Earliest entry in the cursor slot is in the future; put
                // everything back and stop — nothing is due.
                let slot_idx = ((self.horizon / self.resolution) % SLOTS as u64) as usize;
                for e in slot.into_iter().rev() {
                    self.wheels[0][slot_idx].push_front(e);
                }
                return None;
            }
            if self.horizon.saturating_add(self.resolution) > now {
                return None;
            }
            self.advance_one_slot();
        }
    }

    /// Earliest armed deadline, or `None` when empty. Full scan — the wheel
    /// has no cheap global min; use for idle-timeout sizing of a select
    /// wait, not per-event.
    pub fn peek_next(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<u64> = None;
        for level in &self.wheels {
            for bucket in level {
                for e in bucket {
                    if best.is_none_or(|b| e.at < b) {
                        best = Some(e.at);
                    }
                }
            }
        }
        for e in &self.overflow {
            if best.is_none_or(|b| e.at < b) {
                best = Some(e.at);
            }
        }
        best
    }

    /// Drop every armed entry whose key fails `keep`. Survivors stay in
    /// their slots in arm order, so the pop order of what remains is
    /// unchanged. O(entries + buckets): meant to run in batches, not per
    /// event.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        let mut len = 0;
        for bucket in self.wheels.iter_mut().flatten() {
            bucket.retain(|e| keep(&e.key));
            len += bucket.len();
        }
        self.overflow.retain(|e| keep(&e.key));
        self.len = len + self.overflow.len();
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<K> Default for DeadlineWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_until<K: Copy>(w: &mut DeadlineWheel<K>, now: u64) -> Vec<(u64, K)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop_due(now) {
            out.push(e);
        }
        out
    }

    #[test]
    fn orders_by_deadline_then_arm_order() {
        let mut w = DeadlineWheel::with_resolution(10);
        w.schedule(500, 'a');
        w.schedule(30, 'b');
        w.schedule(500, 'c');
        w.schedule(0, 'd');
        assert_eq!(
            drain_until(&mut w, 1_000),
            vec![(0, 'd'), (30, 'b'), (500, 'a'), (500, 'c')]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut w = DeadlineWheel::with_resolution(10);
        w.schedule(100, 1u32);
        w.schedule(5_000, 2u32);
        assert_eq!(w.pop_due(99), None);
        assert_eq!(w.pop_due(100), Some((100, 1)));
        assert_eq!(w.pop_due(4_999), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(5_000), Some((5_000, 2)));
        assert_eq!(w.pop_due(u64::MAX), None);
    }

    #[test]
    fn cascades_across_levels() {
        let mut w = DeadlineWheel::with_resolution(10);
        // Level-0 span = 640 ns; these land in level 1+.
        w.schedule(10_000, 0u8);
        w.schedule(700, 1u8);
        w.schedule(50_000, 2u8);
        w.schedule(5, 3u8);
        assert_eq!(
            drain_until(&mut w, u64::MAX / 2),
            vec![(5, 3), (700, 1), (10_000, 0), (50_000, 2)]
        );
    }

    #[test]
    fn far_future_overflow_entries_survive() {
        let mut w = DeadlineWheel::with_resolution(1);
        w.schedule(1, 0u8);
        w.schedule(u64::MAX / 2, 1u8);
        assert_eq!(w.pop_due(10), Some((1, 0)));
        assert_eq!(w.len(), 1);
        assert_eq!(w.peek_next(), Some(u64::MAX / 2));
    }

    #[test]
    fn past_deadlines_clamp_and_fire_immediately() {
        let mut w = DeadlineWheel::with_resolution(10);
        // Move the cursor well past zero first.
        w.schedule(1_000, 0u8);
        assert_eq!(w.pop_due(2_000), Some((1_000, 0)));
        // Arm "in the past" relative to the cursor: clamps, still fires.
        w.schedule(3, 1u8);
        let popped = w.pop_due(2_000);
        assert_eq!(popped.map(|(_, k)| k), Some(1));
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop_monotone() {
        // Deterministic LCG so the test needs no rng dependency.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move |below: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % below
        };
        let mut w = DeadlineWheel::with_resolution(50);
        let mut last = 0u64;
        let mut pending = 0usize;
        for i in 0..3_000u64 {
            if pending == 0 || rand(10) < 6 {
                let t = last + rand(100_000);
                w.schedule(t, i);
                pending += 1;
            } else {
                let (t, _) = w.pop_due(u64::MAX / 2).expect("pending entries must pop");
                assert!(t >= last, "time went backwards");
                last = t;
                pending -= 1;
            }
            assert_eq!(w.len(), pending);
        }
    }

    /// The lazy-cancellation idiom every live server builds on this wheel
    /// (see nioserver's write-stall deadline): a *slide* re-arms by
    /// scheduling a fresh `(key, generation+1)` entry and leaving the stale
    /// one in place; the harvest drops pops whose generation no longer
    /// matches. Progress before the old deadline must therefore never fire
    /// the timeout — only the slid deadline can.
    #[test]
    fn generation_rearm_slides_expiry_only_forward() {
        let mut w: DeadlineWheel<(u32, u64)> = DeadlineWheel::with_resolution(10);
        let conn = 7u32;
        let mut gen = 0u64;
        // Armed at t=1_000; progress at t=400 slides it to t=1_400, then
        // progress at t=900 slides it to t=1_900.
        w.schedule(1_000, (conn, gen));
        for slide_to in [1_400u64, 1_900] {
            gen += 1;
            w.schedule(slide_to, (conn, gen));
        }
        let mut fired = Vec::new();
        for now in [999u64, 1_000, 1_399, 1_400, 1_899, 1_900] {
            while let Some((at, (id, g))) = w.pop_due(now) {
                assert_eq!(id, conn);
                if g == gen {
                    fired.push((now, at));
                } // else: stale generation, dropped — the lazy cancel
            }
        }
        // Both superseded deadlines popped silently; the connection timed
        // out exactly once, at the final slid deadline.
        assert_eq!(fired, vec![(1_900, 1_900)]);
        assert!(w.is_empty());
    }

    /// A slide storm (one entry per progress event, as a busy connection
    /// produces) leaves the wheel consistent: `len` counts every armed
    /// entry including stale ones, all of them pop by the final deadline,
    /// and exactly one carries the live generation.
    #[test]
    fn rearm_storm_drains_completely_with_one_live_entry() {
        let mut w: DeadlineWheel<u64> = DeadlineWheel::with_resolution(50);
        let slides = 500u64;
        for g in 0..=slides {
            // Each slide pushes the deadline further out, crossing slot and
            // level boundaries along the way.
            w.schedule(1_000 + g * 777, g);
        }
        assert_eq!(w.len(), slides as usize + 1);
        let mut live_pops = 0;
        let mut last_at = 0;
        while let Some((at, g)) = w.pop_due(u64::MAX / 2) {
            assert!(at >= last_at, "expiry order must be monotone");
            last_at = at;
            if g == slides {
                live_pops += 1;
                assert_eq!(at, 1_000 + slides * 777);
            }
        }
        assert_eq!(live_pops, 1, "exactly one live-generation expiry");
        assert!(w.is_empty());
    }

    /// `peek_next` (which sizes the worker's select timeout) sees stale
    /// entries too — waking early for a superseded deadline is harmless
    /// (the pop is dropped), but waking *late* for a live one would stall
    /// the timeout path, so the peek must never exceed the earliest armed
    /// entry, stale or not.
    #[test]
    fn peek_next_is_conservative_across_rearms() {
        let mut w: DeadlineWheel<(u8, u64)> = DeadlineWheel::with_resolution(10);
        w.schedule(500, (1, 0));
        w.schedule(900, (1, 1)); // slide
        assert_eq!(
            w.peek_next(),
            Some(500),
            "stale entry still bounds the wait"
        );
        assert_eq!(w.pop_due(600), Some((500, (1, 0)))); // dropped by caller
        assert_eq!(w.peek_next(), Some(900), "live entry remains");
    }

    #[test]
    fn empty_wheel() {
        let mut w: DeadlineWheel<u8> = DeadlineWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.pop_due(u64::MAX), None);
        assert_eq!(w.peek_next(), None);
    }
}
