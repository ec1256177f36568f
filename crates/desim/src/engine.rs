//! The discrete-event engine.
//!
//! The engine owns a virtual clock, a pending-event set, and a user-supplied
//! [`Model`]. Running the engine repeatedly pops the earliest pending event,
//! advances the clock to its timestamp, and hands it to the model, which may
//! schedule or cancel further events through the [`Ctx`] it receives.
//!
//! Determinism contract: with the same model, seed, and schedule of initial
//! events, two runs produce identical event sequences. This relies on
//! (a) stable FIFO tie-breaking in the queue, (b) the model drawing
//! randomness only from `Ctx::rng`, and (c) the model never consulting wall
//! time.

use crate::queue::{BinaryHeapQueue, EventId, EventQueue, Scheduled};
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// A simulation model: owns all domain state and reacts to events.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handle one event at its scheduled time. The model may schedule and
    /// cancel events, draw randomness, and request a stop via `ctx`.
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Event>, event: Self::Event);
}

/// Counters maintained by the engine, cheap enough to always collect.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Events delivered to the model.
    pub dispatched: u64,
    /// Events scheduled (including later-cancelled ones).
    pub scheduled: u64,
    /// Events cancelled before dispatch.
    pub cancelled: u64,
    /// High-water mark of the pending-event set. Cancelled events leave
    /// the set at once, so this counts only events still due.
    pub peak_pending: usize,
}

/// The mutable capability surface handed to the model while it handles an
/// event. Borrows the engine's clock, queue, RNG and stop flag.
pub struct Ctx<'a, E> {
    now: SimTime,
    seq: &'a mut u64,
    queue: &'a mut dyn EventQueue<E>,
    rng: &'a mut Rng,
    stats: &'a mut EngineStats,
    stop: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine's root RNG stream. Models that need per-entity streams
    /// should `split()` children off this at entity creation.
    #[inline]
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    /// Schedule `event` at absolute time `at`. Panics if `at` is in the past
    /// — delivering events before the current instant would violate
    /// causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "schedule_at: {} is before now ({})",
            at,
            self.now
        );
        *self.seq += 1;
        let id = self.queue.push(Scheduled {
            time: at,
            seq: *self.seq,
            event,
        });
        self.stats.scheduled += 1;
        self.stats.peak_pending = self.stats.peak_pending.max(self.queue.len());
        id
    }

    /// Schedule `event` after a relative delay, saturating at the end of
    /// time (an event at `SimTime::MAX` will effectively never fire when the
    /// run has an earlier horizon).
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, event)
    }

    /// Schedule `event` at the current instant; it runs after all events
    /// already pending at this instant (FIFO tie-breaking).
    #[inline]
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.schedule_at(self.now, event)
    }

    /// Cancel a scheduled event: it leaves the pending set now, in
    /// O(log n). Returns true if the id was still pending. Cancelling an
    /// already-dispatched or already-cancelled id is a no-op returning
    /// false.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let pending = self.queue.remove(id).is_some();
        if pending {
            self.stats.cancelled += 1;
        }
        pending
    }

    /// Ask the engine to stop after the current event completes.
    #[inline]
    pub fn request_stop(&mut self) {
        *self.stop = true;
    }
}

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained completely.
    Drained,
    /// The horizon passed; the clock stands at the horizon.
    HorizonReached,
    /// The model requested a stop.
    Stopped,
    /// The event budget was exhausted (runaway-model backstop).
    BudgetExhausted,
}

/// The discrete-event engine. Generic over the model and the pending-event
/// set implementation (binary heap by default).
pub struct Engine<M: Model, Q: EventQueue<<M as Model>::Event> = BinaryHeapQueue<<M as Model>::Event>> {
    now: SimTime,
    seq: u64,
    queue: Q,
    rng: Rng,
    stats: EngineStats,
    model: M,
    stop: bool,
    /// Hard cap on events dispatched in a single `run_*` call; guards
    /// against accidental infinite event loops in models under test.
    event_budget: u64,
}

impl<M: Model> Engine<M, BinaryHeapQueue<M::Event>> {
    /// Create an engine with the default binary-heap event list.
    pub fn new(model: M, seed: u64) -> Self {
        Engine::with_queue(model, seed, BinaryHeapQueue::new())
    }
}

impl<M: Model, Q: EventQueue<M::Event>> Engine<M, Q> {
    /// Create an engine with an explicit pending-event set implementation.
    pub fn with_queue(model: M, seed: u64, queue: Q) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue,
            rng: Rng::new(seed),
            stats: EngineStats::default(),
            model,
            stop: false,
            event_budget: u64::MAX,
        }
    }

    /// Set a hard cap on dispatched events per run call.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine counters.
    #[inline]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Immutable access to the model.
    #[inline]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to harvest metrics between phases).
    #[inline]
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Number of pending events: exactly those still to be dispatched.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule an event from outside the model (setup phase).
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) -> EventId {
        assert!(at >= self.now, "schedule_at in the past");
        self.seq += 1;
        let id = self.queue.push(Scheduled {
            time: at,
            seq: self.seq,
            event,
        });
        self.stats.scheduled += 1;
        self.stats.peak_pending = self.stats.peak_pending.max(self.queue.len());
        id
    }

    /// Schedule an event after a delay from the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: M::Event) -> EventId {
        self.schedule_at(self.now.saturating_add(delay), event)
    }

    /// Timestamp of the earliest pending event: the next one delivered.
    pub fn peek_next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Run for a relative span from the current clock (see
    /// [`Engine::run_until`] for semantics).
    pub fn run_for(&mut self, span: SimDuration) -> RunOutcome {
        self.run_until(self.now.saturating_add(span))
    }

    /// Dispatch exactly one event if one is pending. Returns false if the
    /// queue is drained.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.queue.pop() else {
            return false;
        };
        debug_assert!(entry.time >= self.now, "time ran backwards");
        self.now = entry.time;
        self.stats.dispatched += 1;
        let mut ctx = Ctx {
            now: self.now,
            seq: &mut self.seq,
            queue: &mut self.queue,
            rng: &mut self.rng,
            stats: &mut self.stats,
            stop: &mut self.stop,
        };
        self.model.handle(&mut ctx, entry.event);
        true
    }

    /// Run until the queue drains, the model stops the run, or the event
    /// budget is exhausted.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Run until `horizon` (exclusive: events stamped exactly at the horizon
    /// do not fire), a drain, a stop request, or budget exhaustion. On
    /// `HorizonReached` the clock is advanced to the horizon so repeated
    /// phased runs observe a monotone clock.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.stop = false;
        let mut dispatched_this_run = 0u64;
        loop {
            if self.stop {
                return RunOutcome::Stopped;
            }
            if dispatched_this_run >= self.event_budget {
                return RunOutcome::BudgetExhausted;
            }
            match self.queue.peek_time() {
                None => return RunOutcome::Drained,
                Some(t) if t >= horizon => {
                    if horizon != SimTime::MAX {
                        self.now = horizon;
                    }
                    return RunOutcome::HorizonReached;
                }
                Some(_) => {
                    self.step();
                    dispatched_this_run += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model: a counter that reschedules itself `remaining` times with
    /// a fixed period, recording dispatch times.
    struct Ticker {
        remaining: u32,
        period: SimDuration,
        fired_at: Vec<SimTime>,
    }

    #[derive(Debug)]
    enum Tick {
        Tick,
    }

    impl Model for Ticker {
        type Event = Tick;
        fn handle(&mut self, ctx: &mut Ctx<'_, Tick>, _ev: Tick) {
            self.fired_at.push(ctx.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_in(self.period, Tick::Tick);
            }
        }
    }

    #[test]
    fn ticker_fires_periodically() {
        let model = Ticker {
            remaining: 4,
            period: SimDuration::from_millis(10),
            fired_at: Vec::new(),
        };
        let mut eng = Engine::new(model, 1);
        eng.schedule_at(SimTime::from_millis(5), Tick::Tick);
        assert_eq!(eng.run(), RunOutcome::Drained);
        let times: Vec<u64> = eng
            .model()
            .fired_at
            .iter()
            .map(|t| t.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(times, vec![5, 15, 25, 35, 45]);
        assert_eq!(eng.stats().dispatched, 5);
    }

    #[test]
    fn horizon_stops_and_clock_advances() {
        let model = Ticker {
            remaining: 1000,
            period: SimDuration::from_millis(1),
            fired_at: Vec::new(),
        };
        let mut eng = Engine::new(model, 1);
        eng.schedule_at(SimTime::ZERO, Tick::Tick);
        let outcome = eng.run_until(SimTime::from_millis(10));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(eng.now(), SimTime::from_millis(10));
        // Events at exactly the horizon do not fire.
        assert_eq!(eng.model().fired_at.len(), 10);
    }

    struct Stopper;
    impl Model for Stopper {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
            if ev == 3 {
                ctx.request_stop();
            } else {
                ctx.schedule_in(SimDuration::from_secs(1), ev + 1);
            }
        }
    }

    #[test]
    fn model_can_request_stop() {
        let mut eng = Engine::new(Stopper, 0);
        eng.schedule_at(SimTime::ZERO, 0);
        assert_eq!(eng.run(), RunOutcome::Stopped);
        assert_eq!(eng.now(), SimTime::from_secs(3));
    }

    struct Recorder {
        seen: Vec<u32>,
    }
    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, _ctx: &mut Ctx<'_, u32>, ev: u32) {
            self.seen.push(ev);
        }
    }

    #[test]
    fn same_time_events_dispatch_fifo() {
        let mut eng = Engine::new(Recorder { seen: vec![] }, 0);
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            eng.schedule_at(t, i);
        }
        eng.run();
        assert_eq!(eng.model().seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_suppresses_delivery() {
        struct Canceller {
            victim: Option<EventId>,
            seen: Vec<&'static str>,
        }
        #[derive(Debug)]
        enum Ev {
            Setup,
            Victim,
            Bystander,
        }
        impl Model for Canceller {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
                match ev {
                    Ev::Setup => {
                        let id = ctx.schedule_in(SimDuration::from_secs(1), Ev::Victim);
                        ctx.schedule_in(SimDuration::from_secs(2), Ev::Bystander);
                        self.victim = Some(id);
                        assert!(ctx.cancel(id));
                        assert!(!ctx.cancel(id), "double-cancel must be a no-op");
                    }
                    Ev::Victim => self.seen.push("victim"),
                    Ev::Bystander => self.seen.push("bystander"),
                }
            }
        }
        let mut eng = Engine::new(
            Canceller {
                victim: None,
                seen: vec![],
            },
            0,
        );
        eng.schedule_at(SimTime::ZERO, Ev::Setup);
        eng.run();
        assert_eq!(eng.model().seen, vec!["bystander"]);
        assert_eq!(eng.stats().cancelled, 1);
    }

    #[test]
    fn cancel_after_dispatch_is_a_noop() {
        struct Late {
            first: Option<EventId>,
            cancels: Vec<bool>,
            seen: Vec<u32>,
        }
        impl Model for Late {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
                self.seen.push(ev);
                if ev == 0 {
                    self.first = Some(ctx.schedule_in(SimDuration::from_secs(1), 1));
                } else if ev == 1 {
                    let first = self.first.expect("scheduled by event 0");
                    // Event 1 is the one being handled: already dispatched.
                    self.cancels.push(ctx.cancel(first));
                    // Event 2 takes the slot event 1 vacated; the old handle
                    // is stale and must not reach it.
                    ctx.schedule_in(SimDuration::from_secs(1), 2);
                    self.cancels.push(ctx.cancel(first));
                }
            }
        }
        let mut eng = Engine::new(
            Late {
                first: None,
                cancels: vec![],
                seen: vec![],
            },
            0,
        );
        eng.schedule_at(SimTime::ZERO, 0);
        assert_eq!(eng.run(), RunOutcome::Drained);
        assert_eq!(eng.model().cancels, vec![false, false]);
        assert_eq!(eng.model().seen, vec![0, 1, 2]);
        assert_eq!(eng.stats().cancelled, 0);
        assert_eq!(eng.stats().dispatched, 3);
    }

    #[test]
    fn pending_and_peek_are_exact_after_cancel() {
        struct Canceller;
        impl Model for Canceller {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
                if ev == 0 {
                    let victim = ctx.schedule_in(SimDuration::from_secs(1), 1);
                    ctx.schedule_in(SimDuration::from_secs(3), 2);
                    assert!(ctx.cancel(victim));
                }
            }
        }
        let mut eng = Engine::new(Canceller, 0);
        eng.schedule_at(SimTime::ZERO, 0);
        assert!(eng.step());
        assert_eq!(eng.pending(), 1);
        assert_eq!(eng.peek_next_time(), Some(SimTime::from_secs(3)));
        assert_eq!(eng.stats().peak_pending, 2);
        // A horizon between the cancelled and the live event delivers
        // nothing: the cancelled entry is gone, not skipped.
        assert_eq!(
            eng.run_until(SimTime::from_secs(2)),
            RunOutcome::HorizonReached
        );
        assert_eq!(eng.stats().dispatched, 1);
    }

    #[test]
    fn event_budget_backstops_runaway_models() {
        struct Runaway;
        impl Model for Runaway {
            type Event = ();
            fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _ev: ()) {
                ctx.schedule_now(());
            }
        }
        let mut eng = Engine::new(Runaway, 0);
        eng.set_event_budget(1000);
        eng.schedule_at(SimTime::ZERO, ());
        assert_eq!(eng.run(), RunOutcome::BudgetExhausted);
        assert_eq!(eng.stats().dispatched, 1000);
    }

    #[test]
    #[should_panic(expected = "schedule_at")]
    fn scheduling_in_the_past_panics() {
        struct BadModel;
        impl Model for BadModel {
            type Event = ();
            fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _ev: ()) {
                ctx.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut eng = Engine::new(BadModel, 0);
        eng.schedule_at(SimTime::from_secs(1), ());
        eng.run();
    }

    #[test]
    fn rng_is_deterministic_across_runs() {
        struct Sampler {
            draws: Vec<u64>,
        }
        impl Model for Sampler {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
                self.draws.push(ctx.rng().next_u64());
                if ev < 10 {
                    ctx.schedule_in(SimDuration::from_secs(1), ev + 1);
                }
            }
        }
        let run = |seed| {
            let mut eng = Engine::new(Sampler { draws: vec![] }, seed);
            eng.schedule_at(SimTime::ZERO, 0);
            eng.run();
            eng.into_model().draws
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn run_for_advances_relative_spans() {
        let model = Ticker {
            remaining: 100,
            period: SimDuration::from_millis(10),
            fired_at: Vec::new(),
        };
        let mut eng = Engine::new(model, 1);
        eng.schedule_at(SimTime::ZERO, Tick::Tick);
        assert_eq!(eng.run_for(SimDuration::from_millis(35)), RunOutcome::HorizonReached);
        assert_eq!(eng.now(), SimTime::from_millis(35));
        assert_eq!(eng.model().fired_at.len(), 4); // t = 0, 10, 20, 30
        eng.run_for(SimDuration::from_millis(30));
        assert_eq!(eng.now(), SimTime::from_millis(65));
        assert_eq!(eng.model().fired_at.len(), 7);
    }

    #[test]
    fn peek_next_time_tracks_queue() {
        let mut eng = Engine::new(Recorder { seen: vec![] }, 0);
        assert_eq!(eng.peek_next_time(), None);
        eng.schedule_at(SimTime::from_secs(3), 1);
        eng.schedule_at(SimTime::from_secs(1), 2);
        assert_eq!(eng.peek_next_time(), Some(SimTime::from_secs(1)));
        eng.step();
        assert_eq!(eng.peek_next_time(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn phased_runs_resume_cleanly() {
        let model = Ticker {
            remaining: 100,
            period: SimDuration::from_millis(7),
            fired_at: Vec::new(),
        };
        let mut eng = Engine::new(model, 1);
        eng.schedule_at(SimTime::ZERO, Tick::Tick);
        eng.run_until(SimTime::from_millis(50));
        let mid = eng.model().fired_at.len();
        assert!(mid > 0 && mid < 101);
        eng.run_until(SimTime::from_secs(10));
        assert_eq!(eng.model().fired_at.len(), 101);
    }
}
