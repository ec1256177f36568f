//! `httpcore` — real HTTP/1.1 machinery shared by the live servers and the
//! live load generator.
//!
//! * [`buffer`] — read-accumulation buffer with front consumption;
//! * [`request`] — incremental, never-panicking request parser with
//!   persistent-connection and pipelining semantics;
//! * [`response`] — response head writer (server) and parser (client);
//! * [`reply`] — staged zero-copy reply queue (head + arena-slice segments
//!   flushed with `write_vectored`);
//! * [`content`] — the SURGE content store served by the real servers;
//! * [`session`] — the protocol core both servers share: one connection's
//!   [`Session`] and [`route`], the one reply decision;
//! * [`date`] — IMF-fixdate formatting and the once-a-second [`DateCache`];
//! * [`policy`] — the connection-lifecycle policy (timeouts + accept-path
//!   defenses) both live servers accept, making the Fig-3 asymmetry a
//!   config knob instead of an architectural constant, plus the one
//!   accept-path admission decision both servers apply;
//! * [`sys`] — the socket-option and fd-limit syscalls (the one FFI module
//!   outside `reactor`).
//!
//! Every FFI block carries a `// SAFETY:` comment; the lint below keeps it so.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod buffer;
pub mod content;
pub mod date;
pub mod policy;
pub mod reply;
pub mod request;
pub mod response;
pub mod session;
pub mod sys;

pub use buffer::ReadBuf;
pub use content::{ArenaSlice, ContentStore};
pub use date::{http_date, now_http_date, DateCache};
pub use policy::{AcceptBackoff, AcceptRetry, Admission, LifecyclePolicy};
pub use reply::{HeadPool, ReplyQueue};
pub use request::{
    Method, ParseError, ParseOutcome, ParserLimits, Request, RequestParser, RequestPool, Version,
};
pub use response::{
    parse_response_head, send_closing_head, write_head, write_head_full, ResponseHead, Status,
};
pub use session::{route, Next, Session};
