//! Greedy divergence minimizer.
//!
//! Given a sequence on which `diverges` holds, repeatedly try the
//! cheapest structural simplifications — drop whole episodes, drop
//! individual ops, remove fragmentation, simplify terminals to the
//! half-close shape — keeping a candidate only if the divergence
//! survives. Every candidate is validated against the model invariants
//! ([`Sequence::valid`]), so the minimized sequence is always a legal
//! corpus entry. Termination: every accepted step strictly shrinks
//! `(op_count, episode_count, splits, non-halfclose terminals)`.

use crate::model::{Sequence, Terminal};

/// Minimize `seq` while `diverges` keeps holding. `diverges(&seq)` must
/// be true on entry; the result is a (locally) minimal sequence on which
/// it still holds.
pub fn shrink<F: FnMut(&Sequence) -> bool>(seq: &Sequence, mut diverges: F) -> Sequence {
    let mut cur = seq.clone();
    loop {
        let mut improved = false;

        // Drop whole episodes, preferring later ones first so earlier
        // context (reconnect ordering) survives only if needed.
        let mut i = cur.episodes.len();
        while i > 0 && cur.episodes.len() > 1 {
            i -= 1;
            let mut cand = cur.clone();
            cand.episodes.remove(i);
            if cand.valid() && diverges(&cand) {
                cur = cand;
                improved = true;
            }
        }

        // Drop individual ops.
        for e in 0..cur.episodes.len() {
            let mut j = cur.episodes[e].ops.len();
            while j > 0 {
                j -= 1;
                let mut cand = cur.clone();
                cand.episodes[e].ops.remove(j);
                if cand.valid() && diverges(&cand) {
                    cur = cand;
                    improved = true;
                }
            }
        }

        // Remove fragmentation.
        for e in 0..cur.episodes.len() {
            for j in 0..cur.episodes[e].ops.len() {
                if cur.episodes[e].ops[j].split.is_some() {
                    let mut cand = cur.clone();
                    cand.episodes[e].ops[j].split = None;
                    if cand.valid() && diverges(&cand) {
                        cur = cand;
                        improved = true;
                    }
                }
            }
        }

        // Simplify terminals to the cheapest clean shape.
        for e in 0..cur.episodes.len() {
            if cur.episodes[e].terminal != Terminal::HalfCloseThenRead {
                let mut cand = cur.clone();
                cand.episodes[e].terminal = Terminal::HalfCloseThenRead;
                if cand.valid() && diverges(&cand) {
                    cur = cand;
                    improved = true;
                }
            }
        }

        if !improved {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Episode, Keep, Req, SendOp};

    fn get(file: u32) -> SendOp {
        SendOp {
            req: Req::Get {
                file,
                keep: Keep::KeepAlive,
            },
            split: Some(5),
        }
    }

    #[test]
    fn shrinks_to_the_single_load_bearing_op() {
        // Divergence "depends" only on the presence of file 7 somewhere.
        let seq = Sequence {
            episodes: vec![
                Episode {
                    ops: vec![get(1), get(2)],
                    terminal: Terminal::ReadToEnd,
                },
                Episode {
                    ops: vec![get(3), get(7), get(4)],
                    terminal: Terminal::Reset,
                },
            ],
        };
        let needs_7 = |s: &Sequence| {
            s.episodes
                .iter()
                .flat_map(|e| &e.ops)
                .any(|o| matches!(o.req, Req::Get { file: 7, .. }))
        };
        assert!(needs_7(&seq));
        let min = shrink(&seq, needs_7);
        assert_eq!(min.episodes.len(), 1);
        assert_eq!(min.op_count(), 1);
        assert_eq!(min.episodes[0].ops[0].split, None);
        assert_eq!(min.episodes[0].terminal, Terminal::HalfCloseThenRead);
        assert!(min.valid());
    }

    #[test]
    fn shrink_never_invalidates() {
        // A close-carrying op mid-episode would be invalid; removal paths
        // must not create one. Divergence holds for any sequence with ≥2
        // ops, so the shrinker stops at 2.
        let seq = Sequence {
            episodes: vec![Episode {
                ops: vec![
                    get(1),
                    get(2),
                    SendOp {
                        req: Req::Malformed,
                        split: None,
                    },
                ],
                terminal: Terminal::ReadToEnd,
            }],
        };
        let min = shrink(&seq, |s| s.op_count() >= 2);
        assert!(min.valid());
        assert_eq!(min.op_count(), 2);
    }
}
