//! Incremental HTTP/1.1 request parsing.
//!
//! The servers read whatever the socket yields and feed it to
//! [`RequestParser::parse`], which returns complete requests one at a time
//! — the mechanism that makes persistent connections and pipelining work:
//! bytes of the next request simply stay in the buffer. The parser is
//! defensive (never panics on arbitrary bytes; property-tested) and bounds
//! line/header sizes so a hostile peer cannot balloon memory.

use crate::buffer::ReadBuf;
use std::fmt;

/// Supported request methods (the study serves static GETs; HEAD comes free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    Head,
    /// Anything else — surfaced so servers can answer 501.
    Other,
}

impl Method {
    fn from_bytes(b: &[u8]) -> Method {
        match b {
            b"GET" => Method::Get,
            b"HEAD" => Method::Head,
            _ => Method::Other,
        }
    }
}

/// HTTP version of the request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    Http10,
    Http11,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub method: Method,
    pub target: String,
    pub version: Version,
    /// Lower-cased header names with raw values, in arrival order.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// Look up a header by (case-insensitive) name. Stored names are
    /// already lower-cased; comparing case-insensitively (instead of
    /// lower-casing `name` into a fresh `String`) keeps this lookup — on
    /// the per-request hot path — allocation-free.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should persist after this request
    /// (HTTP/1.1 default keep-alive, HTTP/1.0 opt-in).
    pub fn keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        match self.version {
            Version::Http11 => !conn.eq_ignore_ascii_case("close"),
            Version::Http10 => conn.eq_ignore_ascii_case("keep-alive"),
        }
    }
}

/// Why parsing failed (the connection should answer 400 and close).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Request line or a header exceeded the per-line limit.
    LineTooLong,
    /// More headers than the configured bound.
    TooManyHeaders,
    /// Malformed request line.
    BadRequestLine,
    /// Malformed header.
    BadHeader,
    /// Unsupported HTTP version.
    BadVersion,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParseError::LineTooLong => "line too long",
            ParseError::TooManyHeaders => "too many headers",
            ParseError::BadRequestLine => "bad request line",
            ParseError::BadHeader => "bad header",
            ParseError::BadVersion => "bad http version",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ParseError {}

impl Default for Request {
    fn default() -> Request {
        Request {
            method: Method::Other,
            target: String::new(),
            version: Version::Http11,
            headers: Vec::new(),
        }
    }
}

/// Outcome of a parse attempt.
#[derive(Debug, PartialEq)]
pub enum ParseOutcome {
    /// A complete request was consumed from the buffer.
    Complete(Request),
    /// More bytes are needed.
    Incomplete,
    /// The stream is corrupt; close after responding 400.
    Error(ParseError),
}

/// Parser limits.
#[derive(Debug, Clone, Copy)]
pub struct ParserLimits {
    pub max_line: usize,
    pub max_headers: usize,
}

impl Default for ParserLimits {
    fn default() -> Self {
        ParserLimits {
            max_line: 8192,
            max_headers: 100,
        }
    }
}

/// A worker-owned free list of [`Request`] scratch objects. Parsing refills
/// a pooled request's strings in place, so a steady-state worker parses
/// every request — across *all* of its connections — without allocating,
/// while an idle connection pins no parser scratch of its own. (An earlier
/// design kept one spare request inside every parser; at a million
/// mostly-idle connections those per-connection spares are dead weight.)
#[derive(Debug, Default)]
pub struct RequestPool {
    spares: Vec<Request>,
}

/// Cap on pooled request scratch kept per pool (i.e. per worker thread) —
/// enough for the deepest plausible pipelined burst in flight at once.
const MAX_SPARE_REQUESTS: usize = 64;

impl RequestPool {
    pub fn new() -> RequestPool {
        RequestPool::default()
    }

    /// A scratch request, recycled when possible. The next parse clears and
    /// refills its fields in place.
    pub fn take(&mut self) -> Request {
        self.spares.pop().unwrap_or_default()
    }

    /// Hand a served request back so its allocations (target string,
    /// header names/values) are reused by a later parse.
    pub fn give(&mut self, req: Request) {
        if self.spares.len() < MAX_SPARE_REQUESTS {
            self.spares.push(req);
        }
    }

    /// Requests currently parked in the pool.
    pub fn spare_count(&self) -> usize {
        self.spares.len()
    }
}

/// Incremental request parser with an internal accumulation buffer.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: ReadBuf,
    limits: ParserLimits,
    /// A served [`Request`] handed back via [`RequestParser::recycle`]:
    /// scratch for the self-contained [`RequestParser::parse`]. The
    /// servers use [`RequestParser::parse_pooled`] instead, which draws
    /// scratch from a worker-wide [`RequestPool`] and leaves this empty.
    spare: Option<Request>,
}

/// Outcome of one parse step with the scratch request threaded through, so
/// the caller-side wrappers can route the scratch back to its free list in
/// every case.
enum Parsed {
    Complete(Request),
    Incomplete(Request),
    Error(ParseError, Request),
}

impl RequestParser {
    pub fn new() -> Self {
        RequestParser {
            // The accumulation buffer starts empty and only materialises on
            // the first feed: a connection that never sends a byte (most of
            // a million-connection idle population at any instant) costs no
            // parser heap at all.
            buf: ReadBuf::new(),
            limits: ParserLimits::default(),
            spare: None,
        }
    }

    pub fn with_limits(limits: ParserLimits) -> Self {
        RequestParser {
            buf: ReadBuf::new(),
            limits,
            spare: None,
        }
    }

    /// Hand a served request back so its allocations (target string,
    /// header names/values) are reused by the next [`RequestParser::parse`].
    pub fn recycle(&mut self, req: Request) {
        self.spare = Some(req);
    }

    /// Feed raw bytes from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend(bytes);
    }

    /// Bytes buffered but not yet parsed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to parse the next complete request off the front of the buffer,
    /// using the parser's own spare request as scratch (self-contained;
    /// servers prefer [`RequestParser::parse_pooled`]).
    pub fn parse(&mut self) -> ParseOutcome {
        let req = self.spare.take().unwrap_or_default();
        match self.parse_step(req) {
            Parsed::Complete(req) => ParseOutcome::Complete(req),
            Parsed::Incomplete(req) => {
                self.spare = Some(req);
                ParseOutcome::Incomplete
            }
            Parsed::Error(e, req) => {
                self.spare = Some(req);
                ParseOutcome::Error(e)
            }
        }
    }

    /// Like [`RequestParser::parse`], but scratch comes from (and returns
    /// to) a worker-wide [`RequestPool`] shared by every connection the
    /// worker serves.
    pub fn parse_pooled(&mut self, pool: &mut RequestPool) -> ParseOutcome {
        let req = pool.take();
        match self.parse_step(req) {
            Parsed::Complete(req) => ParseOutcome::Complete(req),
            Parsed::Incomplete(req) => {
                pool.give(req);
                ParseOutcome::Incomplete
            }
            Parsed::Error(e, req) => {
                pool.give(req);
                ParseOutcome::Error(e)
            }
        }
    }

    fn parse_step(&mut self, mut req: Request) -> Parsed {
        let data = self.buf.as_slice();
        // Find the end of the header block.
        let Some(head_end) = find_double_crlf(data) else {
            // Guard against an unbounded header block.
            if data.len() > self.limits.max_line * (self.limits.max_headers + 1) {
                return Parsed::Error(ParseError::LineTooLong, req);
            }
            return Parsed::Incomplete(req);
        };
        let head = &data[..head_end];
        let result = parse_head_into(head, self.limits, &mut req);
        // Consume the head plus its terminating CRLFCRLF regardless of
        // outcome; on error the connection dies anyway.
        let consumed = head_end + 4;
        self.buf.consume(consumed);
        match result {
            Ok(()) => Parsed::Complete(req),
            // Keep the scratch allocations; the refill clears them.
            Err(e) => Parsed::Error(e, req),
        }
    }
}

/// Locate the `\r\n\r\n` separating head from body. Returns the index of
/// its first byte.
fn find_double_crlf(data: &[u8]) -> Option<usize> {
    data.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse the head block into `req`, reusing its existing allocations
/// (target string, header name/value strings) wherever possible.
fn parse_head_into(head: &[u8], limits: ParserLimits, req: &mut Request) -> Result<(), ParseError> {
    let mut lines = head.split(|&b| b == b'\n').map(|l| {
        // Tolerate both \r\n (after split) and bare \n.
        if l.last() == Some(&b'\r') {
            &l[..l.len() - 1]
        } else {
            l
        }
    });
    let request_line = lines.next().ok_or(ParseError::BadRequestLine)?;
    if request_line.len() > limits.max_line {
        return Err(ParseError::LineTooLong);
    }
    let mut parts = request_line.split(|&b| b == b' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or(ParseError::BadRequestLine)?;
    let target = parts.next().ok_or(ParseError::BadRequestLine)?;
    let version = parts.next().ok_or(ParseError::BadRequestLine)?;
    if parts.next().is_some() {
        return Err(ParseError::BadRequestLine);
    }
    let version = match version {
        b"HTTP/1.1" => Version::Http11,
        b"HTTP/1.0" => Version::Http10,
        _ => return Err(ParseError::BadVersion),
    };
    if target.is_empty() || !target.iter().all(|&b| (0x21..0x7f).contains(&b)) {
        return Err(ParseError::BadRequestLine);
    }
    req.method = Method::from_bytes(method);
    req.version = version;
    set_lossy(&mut req.target, target);

    let mut n = 0;
    for line in lines {
        if line.is_empty() {
            continue; // trailing empty segment before the final CRLF
        }
        if line.len() > limits.max_line {
            return Err(ParseError::LineTooLong);
        }
        if n >= limits.max_headers {
            return Err(ParseError::TooManyHeaders);
        }
        let colon = line
            .iter()
            .position(|&b| b == b':')
            .ok_or(ParseError::BadHeader)?;
        let (name, rest) = line.split_at(colon);
        if name.is_empty() || !name.iter().all(|&b| is_token_byte(b)) {
            return Err(ParseError::BadHeader);
        }
        let value = trim_ows(&rest[1..]);
        if n == req.headers.len() {
            req.headers.push((String::new(), String::new()));
        }
        let (name_dst, value_dst) = &mut req.headers[n];
        name_dst.clear();
        // Token bytes are ASCII; lower-case while copying.
        for &b in name {
            name_dst.push(b.to_ascii_lowercase() as char);
        }
        set_lossy(value_dst, value);
        n += 1;
    }
    req.headers.truncate(n);
    Ok(())
}

/// `dst = lossy-UTF-8(src)` without allocating on the (overwhelmingly
/// common) valid-UTF-8 path.
fn set_lossy(dst: &mut String, src: &[u8]) {
    dst.clear();
    match std::str::from_utf8(src) {
        Ok(s) => dst.push_str(s),
        Err(_) => dst.push_str(&String::from_utf8_lossy(src)),
    }
}

fn trim_ows(mut v: &[u8]) -> &[u8] {
    while let Some((&b, rest)) = v.split_first() {
        if b == b' ' || b == b'\t' {
            v = rest;
        } else {
            break;
        }
    }
    while let Some((&b, rest)) = v.split_last() {
        if b == b' ' || b == b'\t' {
            v = rest;
        } else {
            break;
        }
    }
    v
}

fn is_token_byte(b: u8) -> bool {
    matches!(b,
        b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9'
        | b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*' | b'+' | b'-' | b'.'
        | b'^' | b'_' | b'`' | b'|' | b'~')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(input: &[u8]) -> ParseOutcome {
        let mut p = RequestParser::new();
        p.feed(input);
        p.parse()
    }

    #[test]
    fn simple_get() {
        let out = parse_one(b"GET /index.html HTTP/1.1\r\nHost: sut\r\n\r\n");
        let ParseOutcome::Complete(req) = out else {
            panic!("{out:?}");
        };
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target, "/index.html");
        assert_eq!(req.version, Version::Http11);
        assert_eq!(req.header("host"), Some("sut"));
        assert_eq!(req.header("HOST"), Some("sut"));
        assert!(req.keep_alive());
    }

    #[test]
    fn incremental_feeding() {
        let mut p = RequestParser::new();
        let full = b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n";
        for chunk in full.chunks(3) {
            p.feed(chunk);
        }
        // All but the final chunk yield Incomplete, the final one Complete —
        // but here we fed everything, so one parse suffices.
        let ParseOutcome::Complete(req) = p.parse() else {
            panic!();
        };
        assert_eq!(req.target, "/a");
    }

    #[test]
    fn incomplete_until_blank_line() {
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\nHost: x\r\n");
        assert_eq!(p.parse(), ParseOutcome::Incomplete);
        p.feed(b"\r\n");
        assert!(matches!(p.parse(), ParseOutcome::Complete(_)));
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let mut p = RequestParser::new();
        p.feed(b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\nGET /3 HTTP/1.1\r\n\r\n");
        for expect in ["/1", "/2", "/3"] {
            let ParseOutcome::Complete(req) = p.parse() else {
                panic!("expected {expect}");
            };
            assert_eq!(req.target, expect);
        }
        assert_eq!(p.parse(), ParseOutcome::Incomplete);
    }

    #[test]
    fn http10_connection_semantics() {
        let ParseOutcome::Complete(r) = parse_one(b"GET / HTTP/1.0\r\n\r\n") else {
            panic!()
        };
        assert!(!r.keep_alive());
        let ParseOutcome::Complete(r) =
            parse_one(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        else {
            panic!()
        };
        assert!(r.keep_alive());
        let ParseOutcome::Complete(r) = parse_one(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        else {
            panic!()
        };
        assert!(!r.keep_alive());
    }

    #[test]
    fn bad_version_rejected() {
        assert_eq!(
            parse_one(b"GET / HTTP/2.0\r\n\r\n"),
            ParseOutcome::Error(ParseError::BadVersion)
        );
        assert_eq!(
            parse_one(b"GET / POTATO\r\n\r\n"),
            ParseOutcome::Error(ParseError::BadVersion)
        );
    }

    #[test]
    fn bad_request_lines_rejected() {
        assert_eq!(
            parse_one(b"GET\r\n\r\n"),
            ParseOutcome::Error(ParseError::BadRequestLine)
        );
        assert_eq!(
            parse_one(b"GET / HTTP/1.1 EXTRA\r\n\r\n"),
            ParseOutcome::Error(ParseError::BadRequestLine)
        );
    }

    #[test]
    fn header_without_colon_rejected() {
        assert_eq!(
            parse_one(b"GET / HTTP/1.1\r\nBroken header line\r\n\r\n"),
            ParseOutcome::Error(ParseError::BadHeader)
        );
    }

    #[test]
    fn header_values_are_trimmed() {
        let ParseOutcome::Complete(r) =
            parse_one(b"GET / HTTP/1.1\r\nX-Pad:   spaced value \t\r\n\r\n")
        else {
            panic!()
        };
        assert_eq!(r.header("x-pad"), Some("spaced value"));
    }

    #[test]
    fn other_methods_surface_as_other() {
        let ParseOutcome::Complete(r) = parse_one(b"BREW /pot HTTP/1.1\r\n\r\n") else {
            panic!()
        };
        assert_eq!(r.method, Method::Other);
        let ParseOutcome::Complete(r) = parse_one(b"HEAD / HTTP/1.1\r\n\r\n") else {
            panic!()
        };
        assert_eq!(r.method, Method::Head);
    }

    #[test]
    fn too_many_headers_rejected() {
        let mut req = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..200 {
            req.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        req.extend_from_slice(b"\r\n");
        assert_eq!(
            parse_one(&req),
            ParseOutcome::Error(ParseError::TooManyHeaders)
        );
    }

    #[test]
    fn oversized_headerless_stream_errors_instead_of_ballooning() {
        let mut p = RequestParser::with_limits(ParserLimits {
            max_line: 64,
            max_headers: 4,
        });
        p.feed(&vec![b'A'; 64 * 5 + 1]);
        assert_eq!(p.parse(), ParseOutcome::Error(ParseError::LineTooLong));
    }

    #[test]
    fn control_bytes_in_target_rejected() {
        assert_eq!(
            parse_one(b"GET /\x01evil HTTP/1.1\r\n\r\n"),
            ParseOutcome::Error(ParseError::BadRequestLine)
        );
    }
}
