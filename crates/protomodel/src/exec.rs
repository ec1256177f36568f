//! The live executor: replay a [`Sequence`] against a real server over
//! loopback TCP and record what the client observed.
//!
//! The executor is deliberately dumb — it knows which requests it sent
//! (so it can frame HEAD replies, whose heads advertise a length no body
//! follows) but nothing about what the server *should* do; prediction is
//! the oracle's job. End causes are discriminated the way a real client
//! sees them: `read() == 0` is a clean FIN, `ECONNRESET` (and kin) is an
//! abortive close, a read-timeout is a hang.

use httpcore::sys::{set_linger_zero, set_rcvbuf};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::model::{ModelCtx, Sequence, Terminal, STALL_CLIENT_RCVBUF};
use crate::outcome::{fnv1a, EndCause, EpisodeOutcome, ReplyObs, SequenceOutcome};

/// Executor knobs, derived from the lifecycle policy under test.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Pause between the two fragments of a split send — long enough for
    /// the server to observe a partial head, far shorter than any armed
    /// deadline.
    pub frag_pause: Duration,
    /// How long a stall episode refuses to drain before reading: past the
    /// write-stall deadline, with margin for timer granularity.
    pub stall_wait: Duration,
    /// Safety net on every read — trips only when a variant hangs where
    /// the model expects an outcome.
    pub read_timeout: Duration,
}

impl ExecConfig {
    pub fn for_ctx(ctx: &ModelCtx) -> ExecConfig {
        let stall = ctx
            .policy
            .write_stall_timeout
            .unwrap_or(Duration::from_millis(350));
        let idle = ctx.policy.idle_timeout.unwrap_or(Duration::ZERO);
        ExecConfig {
            frag_pause: Duration::from_millis(30),
            // Past both the write-stall and (for shrunk stall episodes
            // whose payload no longer fills the buffers) the idle timer.
            stall_wait: stall.max(idle) + stall + Duration::from_millis(300),
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Replay `seq` against the server at `addr`.
pub fn run_sequence(addr: SocketAddr, seq: &Sequence, ctx: &ModelCtx) -> SequenceOutcome {
    let cfg = ExecConfig::for_ctx(ctx);
    SequenceOutcome {
        episodes: seq
            .episodes
            .iter()
            .map(|ep| run_episode(addr, ep, ctx, &cfg))
            .collect(),
    }
}

fn run_episode(
    addr: SocketAddr,
    ep: &crate::model::Episode,
    ctx: &ModelCtx,
    cfg: &ExecConfig,
) -> EpisodeOutcome {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return EpisodeOutcome {
            replies: Vec::new(),
            end: EndCause::Refused,
            trailing: 0,
        };
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    if ep.terminal == Terminal::StallThenRead {
        // Clamp the receive window before any data flows, so kernel
        // autotuning cannot quietly absorb the stall payload.
        let _ = set_rcvbuf(&stream, STALL_CLIENT_RCVBUF as i32);
    }
    // Which replies will be HEAD-framed (length advertised, no body).
    let head_flags: Vec<bool> = ep
        .ops
        .iter()
        .filter(|o| o.req.expects_reply())
        .map(|o| o.req.is_head())
        .collect();
    for op in &ep.ops {
        let bytes = op.req.render(ctx);
        let wrote = match op.split {
            Some(at) if bytes.len() > 2 => {
                let at = at.clamp(1, bytes.len() - 1);
                stream.write_all(&bytes[..at]).and_then(|()| {
                    std::thread::sleep(cfg.frag_pause);
                    stream.write_all(&bytes[at..])
                })
            }
            _ => stream.write_all(&bytes),
        };
        if wrote.is_err() {
            // The server already ended the connection (e.g. a prior
            // episode's policy fired early). The read phase below will
            // classify what the client observes.
            break;
        }
    }
    match ep.terminal {
        Terminal::Reset => {
            let _ = set_linger_zero(&stream);
            drop(stream);
            EpisodeOutcome {
                replies: Vec::new(),
                end: EndCause::LocalReset,
                trailing: 0,
            }
        }
        Terminal::StallThenRead => {
            std::thread::sleep(cfg.stall_wait);
            let end = drain_discard(&mut stream);
            EpisodeOutcome {
                replies: Vec::new(),
                end,
                trailing: 0,
            }
        }
        Terminal::HalfCloseThenRead => {
            let _ = stream.shutdown(std::net::Shutdown::Write);
            read_replies(&mut stream, &head_flags)
        }
        Terminal::ReadToEnd => read_replies(&mut stream, &head_flags),
    }
}

/// Read until the connection ends, framing replies as we go.
fn read_replies(stream: &mut TcpStream, head_flags: &[bool]) -> EpisodeOutcome {
    let mut buf = Vec::new();
    let mut tmp = [0u8; 64 * 1024];
    let end = loop {
        match stream.read(&mut tmp) {
            Ok(0) => break EndCause::CleanEof,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => break classify(&e),
        }
    };
    let mut replies = Vec::new();
    let mut off = 0;
    // Frame replies until an incomplete head, unparseable bytes, or a
    // truncated body stop us; the remainder counts as trailing.
    while let Some(Ok(h)) = httpcore::parse_response_head(&buf[off..]) {
        let is_head = head_flags.get(replies.len()).copied().unwrap_or(false);
        let body_len = if is_head { 0 } else { h.content_length };
        if off + h.head_len + body_len > buf.len() {
            break; // truncated mid-reply: counts as trailing bytes
        }
        let body = &buf[off + h.head_len..off + h.head_len + body_len];
        replies.push(ReplyObs {
            status: h.status,
            content_length: h.content_length,
            body_len,
            body_hash: fnv1a(body),
        });
        off += h.head_len + body_len;
    }
    EpisodeOutcome {
        replies,
        end,
        trailing: buf.len() - off,
    }
}

/// Read and discard until the connection ends — the tail of a stall
/// episode, where buffered reply fragments carry no information.
fn drain_discard(stream: &mut TcpStream) -> EndCause {
    let mut tmp = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut tmp) {
            Ok(0) => return EndCause::CleanEof,
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return classify(&e),
        }
    }
}

fn classify(e: &io::Error) -> EndCause {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => EndCause::Hung,
        _ => EndCause::Reset,
    }
}
