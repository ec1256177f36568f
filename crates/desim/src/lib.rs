//! `desim` — the discrete-event simulation kernel underneath `eventscale`.
//!
//! This crate provides the substrate every simulated experiment in the
//! workspace runs on:
//!
//! * a virtual clock with nanosecond resolution ([`SimTime`], [`SimDuration`]);
//! * a deterministic, splittable PRNG ([`Rng`]) so runs are bit-reproducible
//!   from a single seed;
//! * a pending-event set: the [`EventQueue`] trait and its indexed
//!   binary-heap implementation, [`BinaryHeapQueue`], which removes a
//!   cancelled event in O(log n) instead of leaving a tombstone;
//! * the engine itself ([`Engine`], [`Model`], [`Ctx`]) with cancellation
//!   by [`EventId`] handle, horizons, stop requests, and an event budget
//!   backstop;
//! * a bounded debugging trace ([`Trace`]);
//! * [`IntMap`]/[`IntSet`], the hash containers the models key on their
//!   own integer ids.
//!
//! # Example
//!
//! ```
//! use desim::{Engine, Model, Ctx, SimTime, SimDuration};
//!
//! struct Counter { fired: u32 }
//! impl Model for Counter {
//!     type Event = ();
//!     fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _ev: ()) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             ctx.schedule_in(SimDuration::from_secs(1), ());
//!         }
//!     }
//! }
//!
//! let mut eng = Engine::new(Counter { fired: 0 }, 42);
//! eng.schedule_at(SimTime::ZERO, ());
//! eng.run();
//! assert_eq!(eng.model().fired, 3);
//! assert_eq!(eng.now(), SimTime::from_secs(2));
//! ```

pub mod engine;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod time;
pub mod trace;

pub use engine::{Ctx, Engine, EngineStats, Model, RunOutcome};
pub use hash::{IntHasher, IntMap, IntSet};
pub use queue::{BinaryHeapQueue, EventId, EventQueue, Scheduled};
pub use rng::{Rng, SplitMix64, Xoshiro256StarStar};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceLevel, TraceRecord};
