//! The regression-corpus text format (`tests/corpus/*.seq`).
//!
//! One sequence per file, line-oriented so diffs review well:
//!
//! ```text
//! # free-form comment
//! episode
//! get 3 keep
//! get 5 close split 12
//! head 2
//! cond 4
//! notfound keep
//! malformed
//! oversized
//! partial 9
//! end read
//! ```
//!
//! Each `episode` opens a connection; request lines follow; `end
//! <read|halfclose|reset|stall>` picks the terminal and closes the
//! episode. Keep tokens are `keep`, `close`, `http10`. `split <n>`
//! fragments the request at byte offset `n`.

use crate::model::{Episode, Keep, Req, SendOp, Sequence, Terminal};

/// Render a sequence in corpus form (no trailing comment header).
pub fn serialize_sequence(seq: &Sequence) -> String {
    let mut out = String::new();
    for ep in &seq.episodes {
        out.push_str("episode\n");
        for op in &ep.ops {
            let line = match op.req {
                Req::Get { file, keep } => format!("get {file} {}", keep_token(keep)),
                Req::Head { file } => format!("head {file}"),
                Req::ConditionalGet { file } => format!("cond {file}"),
                Req::NotFound { keep } => format!("notfound {}", keep_token(keep)),
                Req::Malformed => "malformed".to_string(),
                Req::Oversized => "oversized".to_string(),
                Req::PartialHead { bytes } => format!("partial {bytes}"),
            };
            out.push_str(&line);
            if let Some(at) = op.split {
                out.push_str(&format!(" split {at}"));
            }
            out.push('\n');
        }
        let t = match ep.terminal {
            Terminal::ReadToEnd => "read",
            Terminal::HalfCloseThenRead => "halfclose",
            Terminal::Reset => "reset",
            Terminal::StallThenRead => "stall",
        };
        out.push_str(&format!("end {t}\n"));
    }
    out
}

fn keep_token(k: Keep) -> &'static str {
    match k {
        Keep::KeepAlive => "keep",
        Keep::Close => "close",
        Keep::Http10 => "http10",
    }
}

fn parse_keep(tok: &str) -> Result<Keep, String> {
    match tok {
        "keep" => Ok(Keep::KeepAlive),
        "close" => Ok(Keep::Close),
        "http10" => Ok(Keep::Http10),
        other => Err(format!("unknown keep token {other:?}")),
    }
}

/// Parse corpus text back into a sequence, validating model invariants.
pub fn parse_sequence(text: &str) -> Result<Sequence, String> {
    let mut episodes = Vec::new();
    let mut cur: Option<Episode> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        let mut toks = line.split_whitespace();
        let word = toks.next().unwrap();
        if word == "episode" {
            if cur.is_some() {
                return Err(err("previous episode missing `end`".into()));
            }
            cur = Some(Episode {
                ops: Vec::new(),
                terminal: Terminal::ReadToEnd,
            });
            continue;
        }
        let Some(ep) = cur.as_mut() else {
            return Err(err(format!("{word:?} before `episode`")));
        };
        if word == "end" {
            let t = match toks.next() {
                Some("read") => Terminal::ReadToEnd,
                Some("halfclose") => Terminal::HalfCloseThenRead,
                Some("reset") => Terminal::Reset,
                Some("stall") => Terminal::StallThenRead,
                other => return Err(err(format!("bad terminal {other:?}"))),
            };
            let mut done = cur.take().unwrap();
            done.terminal = t;
            episodes.push(done);
            continue;
        }
        let num = |name: &str, tok: Option<&str>| -> Result<usize, String> {
            tok.ok_or_else(|| format!("{word} missing {name}"))?
                .parse::<usize>()
                .map_err(|e| format!("{word} {name}: {e}"))
        };
        let req = match word {
            "get" => {
                let file = num("file", toks.next()).map_err(&err)? as u32;
                let keep = parse_keep(toks.next().unwrap_or("keep")).map_err(&err)?;
                Req::Get { file, keep }
            }
            "head" => Req::Head {
                file: num("file", toks.next()).map_err(&err)? as u32,
            },
            "cond" => Req::ConditionalGet {
                file: num("file", toks.next()).map_err(&err)? as u32,
            },
            "notfound" => Req::NotFound {
                keep: parse_keep(toks.next().unwrap_or("keep")).map_err(&err)?,
            },
            "malformed" => Req::Malformed,
            "oversized" => Req::Oversized,
            "partial" => Req::PartialHead {
                bytes: num("bytes", toks.next()).map_err(&err)?,
            },
            other => return Err(err(format!("unknown request {other:?}"))),
        };
        let split = match toks.next() {
            None => None,
            Some("split") => Some(num("offset", toks.next()).map_err(&err)?),
            Some(junk) => return Err(err(format!("trailing token {junk:?}"))),
        };
        if toks.next().is_some() {
            return Err(err("trailing tokens".into()));
        }
        ep.ops.push(SendOp { req, split });
    }
    if cur.is_some() {
        return Err("last episode missing `end`".into());
    }
    if episodes.is_empty() {
        return Err("no episodes".into());
    }
    let seq = Sequence { episodes };
    if !seq.valid() {
        return Err("sequence violates model invariants (close/partial op not last?)".into());
    }
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{generate, ModelCtx};
    use desim::Rng;
    use httpcore::{ContentStore, LifecyclePolicy};
    use std::sync::Arc;
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
    fn round_trips_generated_sequences() {
        let c = ctx();
        for seed in 0..200 {
            let seq = generate(seed, &c);
            let text = serialize_sequence(&seq);
            let back = parse_sequence(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(seq, back, "seed {seed}");
        }
    }

    #[test]
    fn parse_rejects_invalid_shapes() {
        assert!(
            parse_sequence("get 1 keep\nend read\n").is_err(),
            "req before episode"
        );
        assert!(
            parse_sequence("episode\nget 1 keep\n").is_err(),
            "missing end"
        );
        assert!(
            parse_sequence("episode\nmalformed\nget 1 keep\nend read\n").is_err(),
            "close-op not last"
        );
        assert!(
            parse_sequence("episode\nend warp\n").is_err(),
            "bad terminal"
        );
        assert!(parse_sequence("").is_err(), "empty");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let seq = parse_sequence("# hi\n\nepisode\n  get 2 close\nend read\n").unwrap();
        assert_eq!(seq.episodes.len(), 1);
        assert_eq!(seq.episodes[0].ops.len(), 1);
    }
}
