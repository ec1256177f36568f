//! Property-based tests for the DES kernel: queue ordering against a
//! sorted model, causality, and RNG stream independence.

use desim::{
    BinaryHeapQueue, Ctx, Engine, EventId, EventQueue, Model, Rng, Scheduled, SimDuration, SimTime,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A model that records (time, payload) for every dispatched event and
/// schedules nothing new — used to observe raw dispatch order.
struct Observer {
    seen: Vec<(u64, u64)>,
}

impl Model for Observer {
    type Event = u64;
    fn handle(&mut self, ctx: &mut Ctx<'_, u64>, ev: u64) {
        self.seen.push((ctx.now().as_nanos(), ev));
    }
}

proptest! {
    /// The heap pops exactly what a sorted `(time, seq)` model pops, under
    /// any interleaving of pushes (heavy timestamp ties included), pops and
    /// removals by handle, and `peek_time`/`len` agree with the model after
    /// every operation. Handles of popped or removed entries are stale:
    /// removing one takes nothing, including after a later push reused its
    /// slot (vacated slots are reused last-in first-out, so the next push
    /// after a pop or removal always does).
    #[test]
    fn queues_agree(ops in proptest::collection::vec((0u64..100, 0u8..6), 0..300)) {
        let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        // seq -> (handle, time) of every pending entry.
        let mut live: BTreeMap<u64, (EventId, u64)> = BTreeMap::new();
        let mut stale: Vec<EventId> = Vec::new();
        for (seq, &(t, op)) in ops.iter().enumerate() {
            match op {
                // Pop the earliest entry.
                0 => {
                    let got = heap.pop().map(|s| {
                        assert_eq!(s.event, s.seq, "payload travels with its entry");
                        (s.time.as_nanos(), s.seq)
                    });
                    prop_assert_eq!(got, model.pop_first());
                    if let Some((_, seq)) = got {
                        stale.push(live.remove(&seq).expect("popped entry was live").0);
                    }
                }
                // Remove a live entry picked by `t`.
                1 if !live.is_empty() => {
                    let (&seq, &(id, time)) =
                        live.iter().nth(t as usize % live.len()).expect("in range");
                    let gone = heap.remove(id).expect("a live handle removes its entry");
                    prop_assert_eq!((gone.time.as_nanos(), gone.seq, gone.event), (time, seq, seq));
                    prop_assert!(model.remove(&(time, seq)));
                    live.remove(&seq);
                    stale.push(id);
                }
                // Remove through a stale handle picked by `t`: a no-op.
                2 if !stale.is_empty() => {
                    let id = stale[t as usize % stale.len()];
                    prop_assert!(heap.remove(id).is_none(), "stale handle removed an entry");
                }
                // Push; one op in two on average.
                _ => {
                    let seq = seq as u64;
                    let id = heap.push(Scheduled { time: SimTime::from_nanos(t), seq, event: seq });
                    model.insert((t, seq));
                    live.insert(seq, (id, t));
                }
            }
            prop_assert_eq!(heap.len(), model.len());
            prop_assert_eq!(heap.peek_time(), model.first().map(|&(t, _)| SimTime::from_nanos(t)));
        }
        // Every stale handle still misses after the churn above.
        for &id in &stale {
            prop_assert!(heap.remove(id).is_none());
        }
        while let Some((t, seq)) = model.pop_first() {
            let s = heap.pop().expect("model and heap hold the same entries");
            prop_assert_eq!((s.time.as_nanos(), s.seq), (t, seq));
        }
        prop_assert!(heap.pop().is_none());
    }

    /// Dispatch order is nondecreasing in time, and FIFO within equal times,
    /// regardless of the insertion order.
    #[test]
    fn dispatch_is_causal(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut eng = Engine::new(Observer { seen: vec![] }, 0);
        for (i, &t) in times.iter().enumerate() {
            eng.schedule_at(SimTime::from_nanos(t), i as u64);
        }
        eng.run();
        let seen = &eng.model().seen;
        prop_assert_eq!(seen.len(), times.len());
        for w in seen.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time ran backwards: {:?}", w);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at t={}: {:?}", w[0].0, w);
            }
        }
    }

    /// Labeled RNG streams: the same label always yields the same stream and
    /// different labels yield streams that differ somewhere early.
    #[test]
    fn labeled_streams_stable(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let root = Rng::new(seed);
        let mut s1 = root.split_labeled(a);
        let mut s2 = root.split_labeled(a);
        for _ in 0..16 {
            prop_assert_eq!(s1.next_u64(), s2.next_u64());
        }
        if a != b {
            let mut t1 = root.split_labeled(a);
            let mut t2 = root.split_labeled(b);
            let all_same = (0..16).all(|_| t1.next_u64() == t2.next_u64());
            prop_assert!(!all_same, "distinct labels produced identical prefixes");
        }
    }

    /// below(n) is always < n for arbitrary nonzero bounds.
    #[test]
    fn below_bound_respected(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut r = Rng::new(seed);
        for _ in 0..64 {
            prop_assert!(r.below(bound) < bound);
        }
    }

    /// Engine reproducibility: two engines with identical seeds and initial
    /// schedules dispatch identical sequences through a model that also
    /// consumes randomness.
    #[test]
    fn engine_runs_reproducible(seed in any::<u64>(), n in 1usize..50) {
        struct Jitterer { seen: Vec<(u64, u64)> }
        impl Model for Jitterer {
            type Event = u64;
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, ev: u64) {
                let draw = ctx.rng().below(1000);
                self.seen.push((ctx.now().as_nanos(), ev ^ draw));
                if ev < 20 {
                    ctx.schedule_in(SimDuration::from_nanos(draw + 1), ev + 1);
                }
            }
        }
        let run = || {
            let mut eng = Engine::new(Jitterer { seen: vec![] }, seed);
            for i in 0..n {
                eng.schedule_at(SimTime::from_nanos(i as u64 * 3), i as u64);
            }
            eng.run();
            eng.into_model().seen
        };
        prop_assert_eq!(run(), run());
    }
}
