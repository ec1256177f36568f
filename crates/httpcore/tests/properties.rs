//! Property tests: the request parser must never panic and must be
//! insensitive to how bytes are chunked; the response writer must round-trip
//! through the client-side parser.

use httpcore::{
    parse_response_head, write_head, ParseError, ParseOutcome, ParserLimits, RequestParser, Status,
    Version,
};
use proptest::prelude::*;

/// Small limits so the tripping inputs stay a few hundred bytes.
const TIGHT: ParserLimits = ParserLimits {
    max_line: 64,
    max_headers: 4,
};

/// Feed `raw` in `chunk`-sized slices, calling `parse()` after every feed.
/// Returns the first error and the cumulative bytes fed when it surfaced.
fn first_error_chunked(
    raw: &[u8],
    limits: ParserLimits,
    chunk: usize,
) -> Option<(ParseError, usize)> {
    let mut p = RequestParser::with_limits(limits);
    let mut fed = 0usize;
    for c in raw.chunks(chunk) {
        p.feed(c);
        fed += c.len();
        loop {
            match p.parse() {
                ParseOutcome::Error(e) => return Some((e, fed)),
                ParseOutcome::Complete(_) => continue,
                ParseOutcome::Incomplete => break,
            }
        }
    }
    None
}

/// The chunk boundary at which an error surfaced must be the one covering
/// the canonical tripping byte `trip`: detection depends only on how many
/// bytes have arrived, never on how they were sliced.
fn surfaced_at(fed: usize, chunk: usize, trip: usize) -> bool {
    fed >= trip && fed < trip + chunk
}

proptest! {
    /// Arbitrary bytes never panic the parser, no matter how they are
    /// chunked; repeated parse() calls always terminate.
    #[test]
    fn parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2048),
                           chunk in 1usize..64) {
        let mut p = RequestParser::new();
        for c in data.chunks(chunk) {
            p.feed(c);
            for _ in 0..8 {
                match p.parse() {
                    ParseOutcome::Complete(_) | ParseOutcome::Error(_) => {}
                    ParseOutcome::Incomplete => break,
                }
            }
        }
    }

    /// A well-formed request parses identically regardless of chunk size.
    #[test]
    fn chunking_is_invisible(target in "[a-z0-9/._-]{1,40}", chunk in 1usize..32) {
        let raw = format!("GET /{target} HTTP/1.1\r\nHost: sut\r\nX-K: v\r\n\r\n");
        let mut whole = RequestParser::new();
        whole.feed(raw.as_bytes());
        let ParseOutcome::Complete(expect) = whole.parse() else {
            return Err(TestCaseError::fail("whole parse failed"));
        };
        let mut pieces = RequestParser::new();
        let mut got = None;
        for c in raw.as_bytes().chunks(chunk) {
            pieces.feed(c);
            if let ParseOutcome::Complete(r) = pieces.parse() {
                got = Some(r);
            }
        }
        prop_assert_eq!(got.expect("piecewise parse incomplete"), expect);
    }

    /// Pipelined sequences of N requests all come back out, in order.
    #[test]
    fn pipelining_preserves_order(ids in proptest::collection::vec(0u32..100_000, 1..20)) {
        let mut raw = Vec::new();
        for id in &ids {
            raw.extend_from_slice(format!("GET /f/{id} HTTP/1.1\r\nHost: s\r\n\r\n").as_bytes());
        }
        let mut p = RequestParser::new();
        p.feed(&raw);
        for id in &ids {
            let ParseOutcome::Complete(r) = p.parse() else {
                return Err(TestCaseError::fail("missing pipelined request"));
            };
            prop_assert_eq!(r.target, format!("/f/{id}"));
        }
        prop_assert_eq!(p.parse(), ParseOutcome::Incomplete);
    }

    /// Every head the server writer emits parses back on the client with
    /// identical fields.
    #[test]
    fn response_head_roundtrip(len in 0usize..10_000_000, keep in any::<bool>()) {
        let mut out = Vec::new();
        let n = write_head(&mut out, Version::Http11, Status::Ok, len, keep, "Thu, 01 Jan 1970 00:00:00 GMT");
        let head = parse_response_head(&out).expect("complete").expect("valid");
        prop_assert_eq!(head.head_len, n);
        prop_assert_eq!(head.status, 200);
        prop_assert_eq!(head.content_length, len);
        prop_assert_eq!(head.keep_alive, keep);
    }

    /// The client response parser never panics on arbitrary bytes.
    #[test]
    fn response_parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let _ = parse_response_head(&data);
    }

    /// An oversized request line trips `LineTooLong` at the same byte — the
    /// end of its head block — for every chunking, with trailing pipelined
    /// bytes untouched, and matches the one-shot verdict.
    #[test]
    fn oversize_line_trips_at_the_same_byte(chunk in 1usize..48, extra in 0usize..64) {
        let target: String = "a".repeat(TIGHT.max_line + extra);
        let head = format!("GET /{target} HTTP/1.1\r\nHost: s\r\n\r\n");
        let mut raw = head.clone().into_bytes();
        raw.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n"); // pipelined tail
        let mut whole = RequestParser::with_limits(TIGHT);
        whole.feed(&raw);
        prop_assert_eq!(whole.parse(), ParseOutcome::Error(ParseError::LineTooLong));
        let (err, fed) = first_error_chunked(&raw, TIGHT, chunk).expect("must trip");
        prop_assert_eq!(err, ParseError::LineTooLong);
        prop_assert!(surfaced_at(fed, chunk, head.len()),
            "tripped at {} (chunk {}), head ends at {}", fed, chunk, head.len());
    }

    /// One header past the cap trips `TooManyHeaders` at the end of the
    /// head block for every chunking, and matches the one-shot verdict.
    #[test]
    fn header_cap_trips_at_the_same_byte(chunk in 1usize..48, extra in 1usize..4) {
        let mut head = String::from("GET /f HTTP/1.1\r\n");
        for i in 0..(TIGHT.max_headers + extra) {
            head.push_str(&format!("X-{i}: v\r\n"));
        }
        head.push_str("\r\n");
        let mut raw = head.clone().into_bytes();
        raw.extend_from_slice(b"trailing body bytes");
        let mut whole = RequestParser::with_limits(TIGHT);
        whole.feed(&raw);
        prop_assert_eq!(whole.parse(), ParseOutcome::Error(ParseError::TooManyHeaders));
        let (err, fed) = first_error_chunked(&raw, TIGHT, chunk).expect("must trip");
        prop_assert_eq!(err, ParseError::TooManyHeaders);
        prop_assert!(surfaced_at(fed, chunk, head.len()),
            "tripped at {} (chunk {}), head ends at {}", fed, chunk, head.len());
    }

    /// A head that never terminates (the slow-loris shape) trips the
    /// unbounded-head guard as soon as the byte budget is exceeded — a pure
    /// function of bytes arrived, identical for every chunking.
    #[test]
    fn unterminated_head_trips_at_the_byte_budget(chunk in 1usize..48) {
        let budget = TIGHT.max_line * (TIGHT.max_headers + 1);
        let raw = vec![b'a'; budget + 2 * 48];
        let (err, fed) = first_error_chunked(&raw, TIGHT, chunk).expect("must trip");
        prop_assert_eq!(err, ParseError::LineTooLong);
        // Canonical tripping byte: the first one past the budget.
        prop_assert!(surfaced_at(fed, chunk, budget + 1),
            "tripped at {} (chunk {}), budget {}", fed, chunk, budget);
    }
}
