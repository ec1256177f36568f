//! The executable specification: predict, in virtual time, what any
//! correct server variant must let the client observe for a sequence.
//!
//! The oracle is *not* an independent reimplementation of HTTP — it
//! deliberately reuses the production `httpcore` parser and limits, so
//! what it checks is the part that can diverge between variants: request
//! routing, reply framing, keep-alive bookkeeping, half-close handling,
//! and lifecycle-policy expiry. Byte-level framing of each reply is
//! pinned separately by `tests/wire_equivalence.rs`.
//!
//! [`Mutation`] plants a deliberate spec bug so the harness can prove it
//! would notice a real one ("do the tests have teeth"): reordered
//! pipelined replies, or a parser limit off by one.

use httpcore::{ContentStore, Method, ParseError, ParseOutcome, ParserLimits, RequestParser};

use crate::model::{ModelCtx, Sequence, Terminal};
use crate::outcome::{fnv1a, EndCause, EpisodeOutcome, ReplyObs, SequenceOutcome};

/// A deliberate model bug for the teeth check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Swap the first two replies of every multi-reply episode — the
    /// "pipelined replies served out of order" bug.
    ReorderPipelined,
    /// Accept header lines one byte longer than the real limit — the
    /// "431 threshold off by one" bug.
    OversizeOffByOne,
}

impl Mutation {
    pub fn label(&self) -> &'static str {
        match self {
            Mutation::ReorderPipelined => "reorder-pipelined",
            Mutation::OversizeOffByOne => "431-off-by-one",
        }
    }
}

/// The outcome model, optionally mutated.
pub struct Oracle<'a> {
    ctx: &'a ModelCtx,
    mutation: Option<Mutation>,
}

impl<'a> Oracle<'a> {
    pub fn new(ctx: &'a ModelCtx) -> Oracle<'a> {
        Oracle {
            ctx,
            mutation: None,
        }
    }

    pub fn mutated(ctx: &'a ModelCtx, mutation: Mutation) -> Oracle<'a> {
        Oracle {
            ctx,
            mutation: Some(mutation),
        }
    }

    /// Predict the sequence's observable outcome.
    pub fn outcome(&self, seq: &Sequence) -> SequenceOutcome {
        SequenceOutcome {
            episodes: seq.episodes.iter().map(|ep| self.episode(ep)).collect(),
        }
    }

    fn episode(&self, ep: &crate::model::Episode) -> EpisodeOutcome {
        let limits = match self.mutation {
            Some(Mutation::OversizeOffByOne) => ParserLimits {
                max_line: self.ctx.limits.max_line + 1,
                ..self.ctx.limits
            },
            _ => self.ctx.limits,
        };
        let mut parser = RequestParser::with_limits(limits);
        let mut replies = Vec::new();
        let mut end: Option<EndCause> = None;
        'ops: for op in &ep.ops {
            if end.is_some() {
                // Connection already closed by an earlier request; later
                // sends go nowhere. The generator never produces this, but
                // hand-written corpus entries could.
                break;
            }
            parser.feed(&op.req.render(self.ctx));
            loop {
                match parser.parse() {
                    ParseOutcome::Complete(req) => {
                        let keep = req.keep_alive();
                        replies.push(serve_model(&req, &self.ctx.content));
                        if !keep {
                            end = Some(EndCause::CleanEof);
                            break 'ops;
                        }
                    }
                    ParseOutcome::Incomplete => break,
                    ParseOutcome::Error(e) => {
                        let status = match e {
                            ParseError::LineTooLong | ParseError::TooManyHeaders => 431,
                            _ => 400,
                        };
                        replies.push(empty_reply(status));
                        end = Some(EndCause::CleanEof);
                        break 'ops;
                    }
                }
            }
        }
        match ep.terminal {
            Terminal::ReadToEnd => {
                if end.is_none() {
                    if parser.buffered() > 0 {
                        // Dangling head: the anti-slow-loris deadline
                        // answers 408 and closes cleanly; without one the
                        // idle deadline reclaims the connection abortively.
                        if self.ctx.policy.header_timeout.is_some() {
                            replies.push(empty_reply(408));
                            end = Some(EndCause::CleanEof);
                        } else if self.ctx.policy.idle_timeout.is_some() {
                            end = Some(EndCause::Reset);
                        } else {
                            end = Some(EndCause::Hung);
                        }
                    } else if self.ctx.policy.idle_timeout.is_some() {
                        // Quiet keep-alive connection: idle expiry is an
                        // abortive close (the paper's Fig-3 reset stream).
                        end = Some(EndCause::Reset);
                    } else {
                        end = Some(EndCause::Hung);
                    }
                }
            }
            Terminal::HalfCloseThenRead => {
                // FIN: already-buffered whole requests were served above;
                // a dangling partial can never complete, so the server
                // closes cleanly without a 408.
                if end.is_none() {
                    end = Some(EndCause::CleanEof);
                }
            }
            Terminal::Reset => {
                // The client aborted without reading: nothing observed.
                replies.clear();
                end = Some(EndCause::LocalReset);
            }
            Terminal::StallThenRead => {
                // The client starved the server's writes; buffered partial
                // replies die with the defensive RST, so only the end
                // cause is observable.
                replies.clear();
                end = Some(if self.ctx.policy.write_stall_timeout.is_some() {
                    EndCause::Reset
                } else {
                    EndCause::Hung
                });
            }
        }
        if self.mutation == Some(Mutation::ReorderPipelined) && replies.len() >= 2 {
            replies.swap(0, 1);
        }
        EpisodeOutcome {
            replies,
            end: end.unwrap_or(EndCause::Hung),
            trailing: 0,
        }
    }
}

/// An independent mirror of `httpcore::route`, reduced to observables.
/// Unknown method wins over missing target, as in `route`. It is kept a
/// separate copy on purpose: an oracle that shared the code would check
/// nothing.
fn serve_model(req: &httpcore::Request, content: &ContentStore) -> ReplyObs {
    match (req.method, content.resolve(&req.target)) {
        (Method::Get, Some(id)) => {
            let lm = content.last_modified(id);
            if req.header("if-modified-since") == Some(lm) {
                empty_reply(304)
            } else {
                let body = content.body(id);
                ReplyObs {
                    status: 200,
                    content_length: body.len(),
                    body_len: body.len(),
                    body_hash: fnv1a(body),
                }
            }
        }
        (Method::Head, Some(id)) => ReplyObs {
            status: 200,
            content_length: content.size_of(id) as usize,
            body_len: 0,
            body_hash: fnv1a(&[]),
        },
        (Method::Other, _) => empty_reply(501),
        (_, None) => empty_reply(404),
    }
}

fn empty_reply(status: u16) -> ReplyObs {
    ReplyObs {
        status,
        content_length: 0,
        body_len: 0,
        body_hash: fnv1a(&[]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{generate, Episode, Keep, Req, SendOp};
    use desim::Rng;
    use httpcore::LifecyclePolicy;
    use std::sync::Arc;
    use std::time::Duration;
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
            LifecyclePolicy::hardened(
                Duration::from_millis(250),
                Duration::from_millis(250),
                Duration::from_millis(350),
            ),
        )
    }

    fn ep(ops: Vec<SendOp>, terminal: Terminal) -> Sequence {
        Sequence {
            episodes: vec![Episode { ops, terminal }],
        }
    }

    fn op(req: Req) -> SendOp {
        SendOp { req, split: None }
    }

    #[test]
    fn pipelined_gets_predict_ordered_200s_then_clean_close() {
        let c = ctx();
        let seq = ep(
            vec![
                op(Req::Get {
                    file: 1,
                    keep: Keep::KeepAlive,
                }),
                op(Req::Get {
                    file: 2,
                    keep: Keep::Close,
                }),
            ],
            Terminal::ReadToEnd,
        );
        let out = Oracle::new(&c).outcome(&seq);
        let e = &out.episodes[0];
        assert_eq!(e.end, EndCause::CleanEof);
        assert_eq!(e.replies.len(), 2);
        assert!(e.replies.iter().all(|r| r.status == 200));
        assert_ne!(e.replies[0].body_hash, e.replies[1].body_hash);
    }

    #[test]
    fn dangling_head_predicts_408_only_with_read_to_end() {
        let c = ctx();
        let dangle = vec![op(Req::PartialHead { bytes: 9 })];
        let read = Oracle::new(&c).outcome(&ep(dangle.clone(), Terminal::ReadToEnd));
        assert_eq!(read.episodes[0].replies.last().unwrap().status, 408);
        assert_eq!(read.episodes[0].end, EndCause::CleanEof);
        let half = Oracle::new(&c).outcome(&ep(dangle, Terminal::HalfCloseThenRead));
        assert!(half.episodes[0].replies.is_empty());
        assert_eq!(half.episodes[0].end, EndCause::CleanEof);
    }

    #[test]
    fn idle_and_stall_predict_resets() {
        let c = ctx();
        let idle = Oracle::new(&c).outcome(&ep(
            vec![op(Req::Get {
                file: 0,
                keep: Keep::KeepAlive,
            })],
            Terminal::ReadToEnd,
        ));
        assert_eq!(idle.episodes[0].end, EndCause::Reset);
        assert_eq!(idle.episodes[0].replies.len(), 1);
        let stall = Oracle::new(&c).outcome(&ep(
            vec![
                op(Req::Get {
                    file: c.stall_file,
                    keep: Keep::KeepAlive
                });
                6
            ],
            Terminal::StallThenRead,
        ));
        assert_eq!(stall.episodes[0].end, EndCause::Reset);
        assert!(stall.episodes[0].replies.is_empty());
    }

    #[test]
    fn mutations_change_predictions_only_where_they_should() {
        let c = ctx();
        let pipelined = ep(
            vec![
                op(Req::Get {
                    file: 1,
                    keep: Keep::KeepAlive,
                }),
                op(Req::Get {
                    file: 2,
                    keep: Keep::Close,
                }),
            ],
            Terminal::ReadToEnd,
        );
        let clean = Oracle::new(&c).outcome(&pipelined);
        let swapped = Oracle::mutated(&c, Mutation::ReorderPipelined).outcome(&pipelined);
        assert_ne!(clean, swapped);

        let boundary = ep(vec![op(Req::Oversized)], Terminal::ReadToEnd);
        let clean = Oracle::new(&c).outcome(&boundary);
        assert_eq!(clean.episodes[0].replies[0].status, 431);
        let lax = Oracle::mutated(&c, Mutation::OversizeOffByOne).outcome(&boundary);
        assert_eq!(lax.episodes[0].replies[0].status, 200);

        // A single plain GET is blind to both mutations.
        let single = ep(
            vec![op(Req::Get {
                file: 0,
                keep: Keep::Close,
            })],
            Terminal::ReadToEnd,
        );
        for m in [Mutation::ReorderPipelined, Mutation::OversizeOffByOne] {
            assert_eq!(
                Oracle::new(&c).outcome(&single),
                Oracle::mutated(&c, m).outcome(&single)
            );
        }
    }

    #[test]
    fn generated_population_has_mutation_witnesses() {
        let c = ctx();
        for m in [Mutation::ReorderPipelined, Mutation::OversizeOffByOne] {
            let found = (0..400).any(|seed| {
                let s = generate(seed, &c);
                Oracle::new(&c).outcome(&s) != Oracle::mutated(&c, m).outcome(&s)
            });
            assert!(found, "no witness for {} in 400 seeds", m.label());
        }
    }
}
