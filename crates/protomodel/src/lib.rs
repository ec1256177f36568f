//! `protomodel` — model-based protocol conformance for every server
//! variant (Artho & Rousset's *Model-based Testing of the Java Network
//! API*, applied to this reproduction's HTTP servers).
//!
//! The wire-equivalence suite replays hand-scripted byte streams; this
//! crate *generates* client behaviour from a protocol state machine and
//! proves all server variants agree on what a client can observe:
//!
//! * [`model`] — the client-side state machine: requests (complete,
//!   fragmented, pipelined, keep-alive vs close, malformed, oversized,
//!   dangling partial head) and connection terminals (read-to-end,
//!   half-close `SHUT_WR`, abortive RST, write-stall starvation), plus
//!   the seeded generator and the [`model::Transition`] coverage
//!   alphabet;
//! * [`outcome`] — the observable-outcome vocabulary: per-episode reply
//!   lists (status, content length, body hash), connection end cause
//!   (clean FIN vs RST vs local abort), and the differ that renders the
//!   first disagreement readably;
//! * [`oracle`] — the executable specification: replays a sequence
//!   against the real `httpcore` parser plus the lifecycle-policy rules
//!   in virtual time (no sockets) and predicts the outcome every live
//!   variant must produce. [`oracle::Mutation`] seeds deliberate spec
//!   bugs (pipelined replies reordered, 431 threshold off by one) to
//!   prove the harness detects divergence;
//! * [`exec`] — the live executor: replays a sequence against a real
//!   server over loopback TCP, discriminating FIN from RST client-side;
//! * [`shrink`] — greedy divergence minimizer (drop episodes, drop ops,
//!   drop fragmentation, simplify terminals) feeding the regression
//!   corpus;
//! * [`corpus`] — the line-oriented text format for persisted sequences
//!   under `tests/corpus/`.
//!
//! The conformance harness in `crates/experiments` wires these into
//! `repro conformance`: oracle vs handoff-nio vs sharded-nio vs
//! poolserver, with per-transition coverage and the mutation teeth
//! check.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod exec;
pub mod model;
pub mod oracle;
pub mod outcome;
pub mod shrink;

pub use corpus::{parse_sequence, serialize_sequence};
pub use exec::{run_sequence, ExecConfig};
pub use model::{generate, Episode, Keep, ModelCtx, Req, SendOp, Sequence, Terminal, Transition};
pub use oracle::{Mutation, Oracle};
pub use outcome::{diff, fnv1a, EndCause, EpisodeOutcome, ReplyObs, SequenceOutcome};
pub use shrink::shrink;
