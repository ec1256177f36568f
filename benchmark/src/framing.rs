//! Client-side reply framing, written for the harness rather than borrowed
//! from `httpcore::parse_response_head`: the driver's own cost must not
//! move when a later change edits the server's crates.
//!
//! A [`Framer`] is fed whatever a `read` returned and yields the pieces of
//! the replies in it — head, body chunks, end — however the bytes were
//! split across reads.

/// Longest reply head accepted; the servers' heads are under 300 bytes.
const MAX_HEAD: usize = 8192;

/// The fields of a reply head the harness checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyHead {
    pub status: u16,
    pub content_length: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    HeadTooLong,
    BadStatusLine,
    BadContentLength,
    MissingContentLength,
}

/// One piece of a reply, in stream order: `Head`, then zero or more `Body`
/// chunks that add up to `content_length` bytes, then `End`.
#[derive(Debug, PartialEq, Eq)]
pub enum Piece<'a> {
    Head(ReplyHead),
    Body(&'a [u8]),
    End,
}

#[derive(Debug)]
enum State {
    Head,
    Body { left: usize },
}

#[derive(Debug)]
pub struct Framer {
    state: State,
    head: Vec<u8>,
}

impl Default for Framer {
    fn default() -> Self {
        Framer {
            state: State::Head,
            head: Vec::with_capacity(512),
        }
    }
}

impl Framer {
    pub fn new() -> Framer {
        Framer::default()
    }

    /// `input` holds no head terminator: keep it all for the next read.
    fn buffer_partial_head<'a>(
        &mut self,
        input: &mut &'a [u8],
    ) -> Result<Option<Piece<'a>>, FrameError> {
        if self.head.len() + input.len() > MAX_HEAD {
            return Err(FrameError::HeadTooLong);
        }
        self.head.extend_from_slice(input);
        *input = &[];
        Ok(None)
    }

    /// Take the next piece off the front of `input`, advancing it. `None`
    /// means the input is used up and the reply in progress needs more.
    pub fn next<'a>(&mut self, input: &mut &'a [u8]) -> Result<Option<Piece<'a>>, FrameError> {
        match self.state {
            State::Body { left: 0 } => {
                self.state = State::Head;
                Ok(Some(Piece::End))
            }
            State::Body { left } => {
                if input.is_empty() {
                    return Ok(None);
                }
                let bytes: &'a [u8] = input;
                let (chunk, rest) = bytes.split_at(left.min(bytes.len()));
                *input = rest;
                self.state = State::Body {
                    left: left - chunk.len(),
                };
                Ok(Some(Piece::Body(chunk)))
            }
            State::Head => {
                if input.is_empty() {
                    return Ok(None);
                }
                let bytes: &'a [u8] = input;
                let parsed = if self.head.is_empty() {
                    // Common case: the head starts in this read. Parse it
                    // in place when it also ends here.
                    match find_terminator(bytes) {
                        Some(at) => {
                            *input = &bytes[at + 4..];
                            parse_head(&bytes[..at])
                        }
                        None => return self.buffer_partial_head(input),
                    }
                } else {
                    // The terminator may straddle reads: rescan the last
                    // three buffered bytes together with the new ones.
                    let old_len = self.head.len();
                    let scan_from = old_len.saturating_sub(3);
                    self.head
                        .extend_from_slice(&bytes[..bytes.len().min(MAX_HEAD)]);
                    let Some(at) = find_terminator(&self.head[scan_from..]) else {
                        self.head.truncate(old_len);
                        return self.buffer_partial_head(input);
                    };
                    let head_len = scan_from + at + 4;
                    *input = &bytes[head_len - old_len..];
                    let parsed = parse_head(&self.head[..head_len - 4]);
                    self.head.clear();
                    parsed
                };
                let head = parsed?;
                self.state = State::Body {
                    left: head.content_length,
                };
                Ok(Some(Piece::Head(head)))
            }
        }
    }
}

fn find_terminator(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse a head without its terminating blank line.
fn parse_head(head: &[u8]) -> Result<ReplyHead, FrameError> {
    let mut lines = head
        .split(|&b| b == b'\n')
        .map(|l| l.strip_suffix(b"\r").unwrap_or(l));
    let status_line = lines.next().ok_or(FrameError::BadStatusLine)?;
    let status = status_line
        .strip_prefix(b"HTTP/1.")
        .and_then(|rest| rest.get(2..5))
        .and_then(|code| std::str::from_utf8(code).ok())
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or(FrameError::BadStatusLine)?;
    let mut content_length = None;
    for line in lines {
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        let (name, value) = (&line[..colon], line[colon + 1..].trim_ascii());
        if name.eq_ignore_ascii_case(b"content-length") {
            content_length = Some(
                std::str::from_utf8(value)
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or(FrameError::BadContentLength)?,
            );
        }
    }
    Ok(ReplyHead {
        status,
        content_length: content_length.ok_or(FrameError::MissingContentLength)?,
    })
}
