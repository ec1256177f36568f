//! The client-side protocol state machine and its seeded generator.
//!
//! A [`Sequence`] is what one logical client does to a server: a list of
//! connection [`Episode`]s (reconnects), each a list of [`SendOp`]s
//! (requests, possibly fragmented mid-head) ended by a [`Terminal`] — the
//! four ways a client can stop talking: read to connection end, half-close
//! (`shutdown(SHUT_WR)`) then read, abortive RST, or stop draining
//! entirely and starve the server's writes. The generator emits only
//! *determinate* sequences — shapes on which every correct variant's
//! observable outcome is a function of the sequence alone:
//!
//! * nothing is pipelined after a request that closes the connection
//!   (`Connection: close`, HTTP/1.0, malformed, oversized) — the variants
//!   legitimately differ on whether already-buffered requests after a
//!   close-request are served, and RFC 9112 §9.6 lets them;
//! * a dangling partial head is always the last send on its connection;
//! * timeout expiry is only observed through terminals (a client that
//!   keeps interacting races the timer; one that stops does not).

use std::sync::Arc;

use desim::Rng;
use httpcore::{ContentStore, LifecyclePolicy, ParserLimits};
use workload::FileId;

/// Keep-alive disposition of a well-formed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// HTTP/1.1, no `Connection` header: persistent.
    KeepAlive,
    /// HTTP/1.1 + `Connection: close`.
    Close,
    /// HTTP/1.0, no `Connection` header: close by default.
    Http10,
}

/// One client request as the model sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// `GET /f/<file>`.
    Get { file: u32, keep: Keep },
    /// `HEAD /f/<file>` — reply head advertises the length, carries no body.
    Head { file: u32 },
    /// `GET /f/<file>` with an exactly-matching `If-Modified-Since` → 304.
    ConditionalGet { file: u32 },
    /// `GET` for a target outside the content tree → 404.
    NotFound { keep: Keep },
    /// Syntactically broken head (bad HTTP version) → 400 + close.
    Malformed,
    /// One header line exactly one byte over `max_line` → 431 + close.
    /// Sitting right on the boundary is what gives the off-by-one
    /// mutation its teeth.
    Oversized,
    /// A valid head truncated after `bytes` bytes and never completed —
    /// the slow-loris prefix. Always the last send on its connection.
    PartialHead { bytes: usize },
}

impl Req {
    /// Does this request leave the connection usable for more requests?
    pub fn continues(&self) -> bool {
        matches!(
            self,
            Req::Get {
                keep: Keep::KeepAlive,
                ..
            } | Req::Head { .. }
                | Req::ConditionalGet { .. }
                | Req::NotFound {
                    keep: Keep::KeepAlive
                }
        )
    }

    /// Does the server owe a reply for this request (assuming it arrives
    /// whole)?
    pub fn expects_reply(&self) -> bool {
        !matches!(self, Req::PartialHead { .. })
    }

    /// Is the reply a HEAD reply — `Content-Length` advertised, body
    /// absent? The executor needs this to frame the reply stream.
    pub fn is_head(&self) -> bool {
        matches!(self, Req::Head { .. })
    }

    /// Render the request to wire bytes.
    pub fn render(&self, ctx: &ModelCtx) -> Vec<u8> {
        fn plain(verb: &str, target: &str, keep: Keep) -> Vec<u8> {
            match keep {
                Keep::KeepAlive => format!("{verb} {target} HTTP/1.1\r\nHost: m\r\n\r\n"),
                Keep::Close => {
                    format!("{verb} {target} HTTP/1.1\r\nHost: m\r\nConnection: close\r\n\r\n")
                }
                Keep::Http10 => format!("{verb} {target} HTTP/1.0\r\nHost: m\r\n\r\n"),
            }
            .into_bytes()
        }
        match *self {
            Req::Get { file, keep } => plain("GET", &format!("/f/{file}"), keep),
            Req::Head { file } => plain("HEAD", &format!("/f/{file}"), Keep::KeepAlive),
            Req::ConditionalGet { file } => {
                let lm = ctx.content.last_modified(FileId(file));
                format!("GET /f/{file} HTTP/1.1\r\nHost: m\r\nIf-Modified-Since: {lm}\r\n\r\n")
                    .into_bytes()
            }
            Req::NotFound { keep } => plain("GET", "/nope", keep),
            // `HTTP/9.9` trips `BadVersion`, not a parser limit → 400.
            Req::Malformed => b"GET /f/0 HTTP/9.9\r\nHost: m\r\n\r\n".to_vec(),
            Req::Oversized => {
                // Header line (sans CRLF) exactly `max_line + 1` bytes long:
                // the smallest head the 431 defense must refuse.
                let pad = ctx.limits.max_line + 1 - "X-Pad: ".len();
                let mut out = b"GET /f/0 HTTP/1.1\r\nHost: m\r\nX-Pad: ".to_vec();
                out.resize(out.len() + pad, b'a');
                out.extend_from_slice(b"\r\n\r\n");
                out
            }
            Req::PartialHead { bytes } => {
                let full = plain("GET", "/f/0", Keep::KeepAlive);
                // Clamp so the head stays strictly incomplete and non-empty.
                let n = bytes.clamp(1, full.len() - 5);
                full[..n].to_vec()
            }
        }
    }
}

/// One send, optionally fragmented: `split` is a byte offset into the
/// rendered request; the executor writes the prefix, pauses long enough
/// for the server to observe a partial head, then writes the rest. The
/// offset is clamped into the rendered length at execution time, so any
/// value is valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOp {
    pub req: Req,
    pub split: Option<usize>,
}

/// How the client stops talking on this connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Stop sending, read until the server ends the connection. Observes
    /// every reply plus the end cause — including timeout expiry (408 on
    /// a dangling head, idle RST on a quiet keep-alive connection).
    ReadToEnd,
    /// `shutdown(SHUT_WR)`, then read to the end: the server must serve
    /// everything already on the wire, flush, and close with a clean FIN.
    HalfCloseThenRead,
    /// Abortive close (`SO_LINGER(0)` → RST). The client observes nothing;
    /// the value is that the server must survive it and serve the next
    /// episode.
    Reset,
    /// Stop draining entirely: the reply volume exceeds kernel buffering,
    /// the server's writes starve, and its write-stall defense must RST.
    /// Only the end cause is observable — buffered partial replies die
    /// with the RST.
    StallThenRead,
}

/// One connection's worth of behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Episode {
    pub ops: Vec<SendOp>,
    pub terminal: Terminal,
}

/// A full client lifetime: episodes run in order over fresh connections
/// to the same server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    pub episodes: Vec<Episode>,
}

/// Shared context: the content tree being served, the parser limits and
/// lifecycle policy the servers run under, and the derived write-stall
/// shape (which file, how many pipelined copies overwhelm the buffers).
#[derive(Clone)]
pub struct ModelCtx {
    pub content: Arc<ContentStore>,
    pub limits: ParserLimits,
    pub policy: LifecyclePolicy,
    /// Largest file in the tree — the write-stall payload.
    pub stall_file: u32,
    /// Pipelined copies of `stall_file` guaranteed to exceed the server
    /// send buffer plus the (clamped) client receive buffer.
    pub stall_repeats: usize,
}

/// Receive-buffer clamp the executor applies on stall connections, so the
/// kernel cannot autotune the client window past what the model sized the
/// stall payload against.
pub const STALL_CLIENT_RCVBUF: usize = 16 * 1024;

/// Reply bytes a stall episode queues — comfortably past server
/// `SO_SNDBUF` + client `SO_RCVBUF` (both ≤ 64 KiB effective) plus the
/// pre-clamp initial client window.
const STALL_BYTES: u64 = 600_000;

impl ModelCtx {
    pub fn new(content: Arc<ContentStore>, policy: LifecyclePolicy) -> ModelCtx {
        let limits = ParserLimits::default();
        let mut stall_file = 0u32;
        let mut biggest = 1u64;
        for i in 0..content.len() as u32 {
            let sz = content.size_of(FileId(i));
            if sz > biggest {
                biggest = sz;
                stall_file = i;
            }
        }
        let stall_repeats = (STALL_BYTES.div_ceil(biggest) as usize).max(4);
        ModelCtx {
            content,
            limits,
            policy,
            stall_file,
            stall_repeats,
        }
    }

    /// Number of files the generator may reference.
    pub fn files(&self) -> u32 {
        self.content.len() as u32
    }
}

/// The coverage alphabet: every state-machine transition the explorer is
/// expected to exercise. `repro conformance` fails if any stays cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Transition {
    Connect,
    Reconnect,
    EmptyConnection,
    CompleteHead,
    FragmentedHead,
    Pipeline,
    KeepAlive,
    ConnClose,
    Http10Close,
    HalfClose,
    ClientReset,
    IdleExpiry,
    HeaderExpiry,
    WriteStallExpiry,
    OversizedHead,
    MalformedHead,
    NotFound,
    HeadRequest,
    ConditionalGet,
}

impl Transition {
    pub const ALL: [Transition; 19] = [
        Transition::Connect,
        Transition::Reconnect,
        Transition::EmptyConnection,
        Transition::CompleteHead,
        Transition::FragmentedHead,
        Transition::Pipeline,
        Transition::KeepAlive,
        Transition::ConnClose,
        Transition::Http10Close,
        Transition::HalfClose,
        Transition::ClientReset,
        Transition::IdleExpiry,
        Transition::HeaderExpiry,
        Transition::WriteStallExpiry,
        Transition::OversizedHead,
        Transition::MalformedHead,
        Transition::NotFound,
        Transition::HeadRequest,
        Transition::ConditionalGet,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Transition::Connect => "connect",
            Transition::Reconnect => "reconnect",
            Transition::EmptyConnection => "empty-connection",
            Transition::CompleteHead => "complete-head",
            Transition::FragmentedHead => "fragmented-head",
            Transition::Pipeline => "pipeline",
            Transition::KeepAlive => "keep-alive",
            Transition::ConnClose => "conn-close",
            Transition::Http10Close => "http10-close",
            Transition::HalfClose => "half-close",
            Transition::ClientReset => "client-reset",
            Transition::IdleExpiry => "idle-expiry",
            Transition::HeaderExpiry => "header-expiry",
            Transition::WriteStallExpiry => "write-stall-expiry",
            Transition::OversizedHead => "oversized-head",
            Transition::MalformedHead => "malformed-head",
            Transition::NotFound => "not-found",
            Transition::HeadRequest => "head-request",
            Transition::ConditionalGet => "conditional-get",
        }
    }
}

impl Sequence {
    /// The transitions this sequence exercises.
    pub fn transitions(&self) -> Vec<Transition> {
        use Transition::*;
        let mut t = Vec::new();
        let hit = |x: Transition, v: &mut Vec<Transition>| {
            if !v.contains(&x) {
                v.push(x);
            }
        };
        if !self.episodes.is_empty() {
            hit(Connect, &mut t);
        }
        if self.episodes.len() >= 2 {
            hit(Reconnect, &mut t);
        }
        for ep in &self.episodes {
            if ep.ops.is_empty() {
                hit(EmptyConnection, &mut t);
            }
            let complete = ep.ops.iter().filter(|o| o.req.expects_reply()).count();
            if complete >= 2 {
                hit(Pipeline, &mut t);
            }
            let mut dangling = false;
            for op in &ep.ops {
                if op.req.expects_reply() {
                    hit(CompleteHead, &mut t);
                }
                if op.split.is_some() && op.req.expects_reply() {
                    hit(FragmentedHead, &mut t);
                }
                match op.req {
                    Req::Get { keep, .. } | Req::NotFound { keep } => match keep {
                        Keep::KeepAlive => hit(KeepAlive, &mut t),
                        Keep::Close => hit(ConnClose, &mut t),
                        Keep::Http10 => hit(Http10Close, &mut t),
                    },
                    Req::Head { .. } => {
                        hit(HeadRequest, &mut t);
                        hit(KeepAlive, &mut t);
                    }
                    Req::ConditionalGet { .. } => {
                        hit(ConditionalGet, &mut t);
                        hit(KeepAlive, &mut t);
                    }
                    Req::Malformed => hit(MalformedHead, &mut t),
                    Req::Oversized => hit(OversizedHead, &mut t),
                    Req::PartialHead { .. } => dangling = true,
                }
                if matches!(op.req, Req::NotFound { .. }) {
                    hit(NotFound, &mut t);
                }
            }
            let open_end = ep
                .ops
                .last()
                .map(|o| o.req.continues() || !o.req.expects_reply())
                .unwrap_or(true);
            match ep.terminal {
                Terminal::ReadToEnd => {
                    if dangling {
                        hit(HeaderExpiry, &mut t);
                    } else if open_end {
                        hit(IdleExpiry, &mut t);
                    }
                }
                Terminal::HalfCloseThenRead => hit(HalfClose, &mut t),
                Terminal::Reset => hit(ClientReset, &mut t),
                Terminal::StallThenRead => hit(WriteStallExpiry, &mut t),
            }
        }
        t
    }

    /// Total ops across episodes — the shrinker's size metric.
    pub fn op_count(&self) -> usize {
        self.episodes.iter().map(|e| e.ops.len()).sum()
    }

    /// Generator invariants: close-carrying and partial-head ops only in
    /// final position; stall episodes are all-continuing GET pipelines.
    /// The corpus parser and the shrinker both enforce this, so a
    /// persisted or minimized sequence is always determinate.
    pub fn valid(&self) -> bool {
        for ep in &self.episodes {
            for (i, op) in ep.ops.iter().enumerate() {
                let last = i + 1 == ep.ops.len();
                if !last && !op.req.continues() {
                    return false;
                }
                if matches!(op.req, Req::PartialHead { .. })
                    && ep.terminal == Terminal::StallThenRead
                {
                    return false;
                }
            }
            if ep.terminal == Terminal::StallThenRead && !ep.ops.iter().all(|o| o.req.continues()) {
                return false;
            }
        }
        true
    }
}

/// Deterministically generate the sequence for `seed`.
pub fn generate(seed: u64, ctx: &ModelCtx) -> Sequence {
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x00c0_ffee);
    let n_eps = 1 + rng.below(3) as usize;
    let mut episodes = Vec::with_capacity(n_eps);
    for _ in 0..n_eps {
        episodes.push(gen_episode(&mut rng, ctx));
    }
    let seq = Sequence { episodes };
    debug_assert!(seq.valid());
    seq
}

fn gen_episode(rng: &mut Rng, ctx: &ModelCtx) -> Episode {
    let roll = rng.f64();
    if roll < 0.05 {
        // Connect and say nothing: idle expiry or immediate half-close.
        let terminal = if rng.chance(0.5) {
            Terminal::ReadToEnd
        } else {
            Terminal::HalfCloseThenRead
        };
        return Episode {
            ops: vec![],
            terminal,
        };
    }
    if roll < 0.10 {
        // The write-stall shape: enough pipelined copies of the biggest
        // file to starve the server's writes once the client stops
        // draining.
        let ops = (0..ctx.stall_repeats)
            .map(|_| SendOp {
                req: Req::Get {
                    file: ctx.stall_file,
                    keep: Keep::KeepAlive,
                },
                split: None,
            })
            .collect();
        return Episode {
            ops,
            terminal: Terminal::StallThenRead,
        };
    }
    let n_ops = 1 + rng.below(4) as usize;
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops - 1 {
        ops.push(SendOp {
            req: gen_continuing(rng, ctx),
            split: gen_split(rng),
        });
    }
    let last = gen_last(rng, ctx);
    let dangling = !last.expects_reply();
    let open_end = last.continues() || dangling;
    ops.push(SendOp {
        req: last,
        split: gen_split(rng),
    });
    let terminal = if dangling {
        // A dangling head pins the connection: exercise header expiry,
        // half-close discard, or client abort.
        match rng.below(3) {
            0 => Terminal::ReadToEnd,
            1 => Terminal::HalfCloseThenRead,
            _ => Terminal::Reset,
        }
    } else if open_end {
        // Keep-alive tail: ReadToEnd means waiting out the idle timer, so
        // half-close carries most of the weight.
        let r = rng.f64();
        if r < 0.25 {
            Terminal::ReadToEnd
        } else if r < 0.80 {
            Terminal::HalfCloseThenRead
        } else {
            Terminal::Reset
        }
    } else {
        // The request itself ends the connection; ReadToEnd is cheap.
        let r = rng.f64();
        if r < 0.60 {
            Terminal::ReadToEnd
        } else if r < 0.85 {
            Terminal::HalfCloseThenRead
        } else {
            Terminal::Reset
        }
    };
    Episode { ops, terminal }
}

fn gen_split(rng: &mut Rng) -> Option<usize> {
    if rng.chance(0.25) {
        Some(rng.range_inclusive(1, 40) as usize)
    } else {
        None
    }
}

fn gen_continuing(rng: &mut Rng, ctx: &ModelCtx) -> Req {
    let file = rng.below(ctx.files() as u64) as u32;
    let r = rng.f64();
    if r < 0.60 {
        Req::Get {
            file,
            keep: Keep::KeepAlive,
        }
    } else if r < 0.75 {
        Req::Head { file }
    } else if r < 0.85 {
        Req::ConditionalGet { file }
    } else {
        Req::NotFound {
            keep: Keep::KeepAlive,
        }
    }
}

fn gen_last(rng: &mut Rng, ctx: &ModelCtx) -> Req {
    let file = rng.below(ctx.files() as u64) as u32;
    let r = rng.f64();
    if r < 0.45 {
        gen_continuing(rng, ctx)
    } else if r < 0.60 {
        Req::Get {
            file,
            keep: Keep::Close,
        }
    } else if r < 0.70 {
        Req::Get {
            file,
            keep: Keep::Http10,
        }
    } else if r < 0.78 {
        Req::Malformed
    } else if r < 0.85 {
        Req::Oversized
    } else {
        Req::PartialHead {
            bytes: rng.range_inclusive(4, 30) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{FileSet, SurgeConfig};

    fn ctx() -> ModelCtx {
        let mut rng = Rng::new(41);
        let fs = FileSet::build(
            &SurgeConfig {
                num_files: 16,
                tail_prob: 0.0,
                ..SurgeConfig::default()
            },
            &mut rng,
        );
        ModelCtx::new(
            Arc::new(ContentStore::from_fileset(&fs)),
            LifecyclePolicy::default(),
        )
    }

    #[test]
    fn generation_is_deterministic() {
        let c = ctx();
        assert_eq!(generate(7, &c), generate(7, &c));
        assert_ne!(generate(7, &c), generate(8, &c));
    }

    #[test]
    fn generated_sequences_are_valid() {
        let c = ctx();
        for seed in 0..500 {
            assert!(generate(seed, &c).valid(), "seed {seed}");
        }
    }

    #[test]
    fn generator_covers_every_transition() {
        let c = ctx();
        let mut seen = Vec::new();
        for seed in 0..500 {
            for t in generate(seed, &c).transitions() {
                if !seen.contains(&t) {
                    seen.push(t);
                }
            }
        }
        for t in Transition::ALL {
            assert!(
                seen.contains(&t),
                "transition {} never generated",
                t.label()
            );
        }
    }

    #[test]
    fn oversized_render_is_exactly_one_over() {
        let c = ctx();
        let bytes = Req::Oversized.render(&c);
        let s = String::from_utf8(bytes).unwrap();
        let line = s.lines().find(|l| l.starts_with("X-Pad:")).unwrap();
        assert_eq!(line.len(), c.limits.max_line + 1);
    }

    #[test]
    fn partial_head_render_never_completes() {
        let c = ctx();
        for bytes in [1usize, 4, 30, 10_000] {
            let b = Req::PartialHead { bytes }.render(&c);
            assert!(!b.windows(4).any(|w| w == b"\r\n\r\n"));
            assert!(!b.is_empty());
        }
    }
}
