//! The observable-outcome vocabulary and the differ.
//!
//! Conformance is defined over what a *client* can see: the ordered
//! replies on each connection (status line, advertised length, body
//! bytes) and how the connection ended (clean FIN, server RST, or the
//! client's own abort). Anything a client cannot observe — thread
//! scheduling, buffer sizes, which worker served it — is explicitly out
//! of scope, which is what makes four very different architectures
//! comparable at all.

use std::fmt;

/// One reply as observed (or predicted): enough to pin status, framing,
/// and body content without storing bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyObs {
    pub status: u16,
    /// `Content-Length` as advertised in the head.
    pub content_length: usize,
    /// Body bytes actually on the wire (0 for HEAD/304/error replies).
    pub body_len: usize,
    /// FNV-1a over the body bytes on the wire.
    pub body_hash: u64,
}

impl fmt::Display for ReplyObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cl={} body={}B#{:08x}",
            self.status, self.content_length, self.body_len, self.body_hash as u32
        )
    }
}

/// How a connection episode ended, from the client's chair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndCause {
    /// Orderly FIN: `read` returned 0.
    CleanEof,
    /// Server abort: `read` failed with a connection reset (or the
    /// connection died mid-reply some other way).
    Reset,
    /// The client itself aborted (`SO_LINGER(0)`); nothing observed.
    LocalReset,
    /// The connection never ended within the executor's read timeout — a
    /// variant hanging where the model expects an outcome.
    Hung,
    /// TCP connect itself failed.
    Refused,
}

impl EndCause {
    pub fn label(&self) -> &'static str {
        match self {
            EndCause::CleanEof => "clean-eof",
            EndCause::Reset => "reset",
            EndCause::LocalReset => "local-reset",
            EndCause::Hung => "hung",
            EndCause::Refused => "refused",
        }
    }
}

/// Everything observable on one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpisodeOutcome {
    pub replies: Vec<ReplyObs>,
    pub end: EndCause,
    /// Bytes after the last whole reply that didn't frame as a reply —
    /// nonzero only when a variant emits something the model can't parse,
    /// which is itself a divergence.
    pub trailing: usize,
}

/// The outcome of a whole sequence: one entry per episode, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceOutcome {
    pub episodes: Vec<EpisodeOutcome>,
}

/// FNV-1a, the crate's body fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Describe the first observable disagreement between two outcomes, or
/// `None` when they agree. The rendering names both sides so a report
/// line is self-contained.
pub fn diff(
    name_a: &str,
    a: &SequenceOutcome,
    name_b: &str,
    b: &SequenceOutcome,
) -> Option<String> {
    if a.episodes.len() != b.episodes.len() {
        return Some(format!(
            "episode count: {name_a}={} vs {name_b}={}",
            a.episodes.len(),
            b.episodes.len()
        ));
    }
    for (i, (ea, eb)) in a.episodes.iter().zip(&b.episodes).enumerate() {
        if ea.end != eb.end {
            return Some(format!(
                "episode {i} end cause: {name_a}={} vs {name_b}={}",
                ea.end.label(),
                eb.end.label()
            ));
        }
        if ea.replies.len() != eb.replies.len() {
            return Some(format!(
                "episode {i} reply count: {name_a}={} vs {name_b}={}",
                ea.replies.len(),
                eb.replies.len()
            ));
        }
        for (j, (ra, rb)) in ea.replies.iter().zip(&eb.replies).enumerate() {
            if ra != rb {
                return Some(format!(
                    "episode {i} reply {j}: {name_a}=[{ra}] vs {name_b}=[{rb}]"
                ));
            }
        }
        if ea.trailing != eb.trailing {
            return Some(format!(
                "episode {i} trailing bytes: {name_a}={} vs {name_b}={}",
                ea.trailing, eb.trailing
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(status: u16, len: usize) -> ReplyObs {
        ReplyObs {
            status,
            content_length: len,
            body_len: len,
            body_hash: 1,
        }
    }

    fn seq(replies: Vec<ReplyObs>, end: EndCause) -> SequenceOutcome {
        SequenceOutcome {
            episodes: vec![EpisodeOutcome {
                replies,
                end,
                trailing: 0,
            }],
        }
    }

    #[test]
    fn identical_outcomes_do_not_diff() {
        let a = seq(vec![ok(200, 3)], EndCause::CleanEof);
        assert_eq!(diff("a", &a, "b", &a.clone()), None);
    }

    #[test]
    fn reply_and_end_divergence_render_readably() {
        let a = seq(vec![ok(200, 3)], EndCause::CleanEof);
        let b = seq(vec![ok(404, 0)], EndCause::CleanEof);
        let d = diff("oracle", &a, "pool", &b).unwrap();
        assert!(
            d.contains("reply 0") && d.contains("oracle") && d.contains("pool"),
            "{d}"
        );
        let c = seq(vec![ok(200, 3)], EndCause::Reset);
        let d = diff("oracle", &a, "pool", &c).unwrap();
        assert!(d.contains("end cause"), "{d}");
    }

    #[test]
    fn fnv_distinguishes_bodies() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
