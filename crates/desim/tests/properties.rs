//! Property-based tests for the DES kernel: queue ordering against a
//! sorted model, causality, and RNG stream independence.

use desim::{
    BinaryHeapQueue, Ctx, Engine, EventQueue, Model, Rng, Scheduled, SimDuration, SimTime,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

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
    /// any interleaving of pushes (heavy timestamp ties included) and pops,
    /// and `peek_time`/`len` agree with the model throughout.
    #[test]
    fn queues_agree(ops in proptest::collection::vec((0u64..100, 0u8..4), 0..300)) {
        let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        let pop_both = |heap: &mut BinaryHeapQueue<u64>, model: &mut BTreeSet<(u64, u64)>| {
            let got = heap.pop().map(|s| {
                assert_eq!(s.event, s.seq, "payload travels with its entry");
                (s.time.as_nanos(), s.seq)
            });
            assert_eq!(got, model.pop_first());
        };
        for (seq, &(t, op)) in ops.iter().enumerate() {
            // One op in four pops; pushes land on 100 distinct times, so
            // equal timestamps are common and FIFO order is exercised.
            if op == 0 {
                pop_both(&mut heap, &mut model);
            } else {
                let seq = seq as u64;
                heap.push(Scheduled { time: SimTime::from_nanos(t), seq, event: seq });
                model.insert((t, seq));
            }
            prop_assert_eq!(heap.len(), model.len());
            prop_assert_eq!(heap.peek_time(), model.first().map(|&(t, _)| SimTime::from_nanos(t)));
        }
        while !model.is_empty() {
            pop_both(&mut heap, &mut model);
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
