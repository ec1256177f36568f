//! The protocol core both live servers share: one connection's [`Session`]
//! (the parser plus whether the exchange is over) and [`route`], the one
//! reply decision. Both are sans-IO — the servers' shells own the sockets,
//! the clocks, the stats and the deadlines, and differ only in how they
//! wait and move bytes.

use crate::content::ContentStore;
use crate::request::{Method, ParseError, ParseOutcome, Request, RequestParser, RequestPool};
use crate::response::{write_head_full, Status};
use workload::FileId;

/// What a [`Session`] yields next.
#[derive(Debug, PartialEq)]
pub enum Next {
    /// A complete request: answer it with [`route`], then hand it back to
    /// the pool.
    Request(Request),
    /// The stream is corrupt: answer `status` with a `Connection: close`
    /// head. `limit` marks a tripped parser limit (431, a resource defense)
    /// rather than a syntax error (400).
    Reject { status: Status, limit: bool },
    /// More bytes are needed.
    Wait,
    /// The exchange is over: nothing more is parsed on this connection.
    Closed,
}

/// One connection's protocol state. After a request that does not keep the
/// connection alive, or after a reject, it parses nothing more: RFC 9112
/// §9.6 forbids answering requests pipelined behind a `Connection: close`.
#[derive(Debug, Default)]
pub struct Session {
    parser: RequestParser,
    closed: bool,
}

impl Session {
    pub fn new() -> Session {
        Session::default()
    }

    /// Feed raw bytes from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.parser.feed(bytes);
    }

    /// Bytes buffered but not yet parsed.
    pub fn buffered(&self) -> usize {
        self.parser.buffered()
    }

    /// Whether the exchange is over (see [`Next::Closed`]).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// End the exchange from outside, e.g. on the peer's FIN.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// The next step, with request scratch drawn from `pool`.
    pub fn next(&mut self, pool: &mut RequestPool) -> Next {
        if self.closed {
            return Next::Closed;
        }
        match self.parser.parse_pooled(pool) {
            ParseOutcome::Complete(req) => {
                self.closed = !req.keep_alive();
                Next::Request(req)
            }
            ParseOutcome::Incomplete => Next::Wait,
            ParseOutcome::Error(e) => {
                self.closed = true;
                let limit = matches!(e, ParseError::LineTooLong | ParseError::TooManyHeaders);
                let status = if limit {
                    Status::RequestHeaderFieldsTooLarge
                } else {
                    Status::BadRequest
                };
                Next::Reject { status, limit }
            }
        }
    }
}

/// The reply to `req`: 200, 304, 404, 501, or HEAD's body-less 200. The
/// head is appended to `head` (the caller's recycled buffer); the return is
/// the file whose body follows it, `Some` only for a GET answered 200. An
/// unknown method wins over a missing target.
pub fn route(
    req: &Request,
    content: &ContentStore,
    date: &str,
    head: &mut Vec<u8>,
) -> Option<FileId> {
    let (status, len, lm, body) = match (req.method, content.resolve(&req.target)) {
        (Method::Other, _) => (Status::NotImplemented, 0, None, None),
        (_, None) => (Status::NotFound, 0, None, None),
        (method, Some(id)) => {
            let lm = content.last_modified(id);
            let len = content.size_of(id) as usize;
            if method == Method::Head {
                (Status::Ok, len, Some(lm), None)
            } else if req.header("if-modified-since") == Some(lm) {
                (Status::NotModified, 0, Some(lm), None)
            } else {
                (Status::Ok, len, Some(lm), Some(id))
            }
        }
    };
    write_head_full(head, req.version, status, len, req.keep_alive(), date, lm);
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Version;
    use crate::response::write_head;
    use desim::Rng;
    use workload::{FileSet, SurgeConfig};

    fn store() -> ContentStore {
        let mut rng = Rng::new(5);
        let fs = FileSet::build(
            &SurgeConfig {
                num_files: 8,
                ..SurgeConfig::default()
            },
            &mut rng,
        );
        ContentStore::from_fileset(&fs)
    }

    fn one_request(raw: &str) -> Request {
        let mut s = Session::new();
        s.feed(raw.as_bytes());
        match s.next(&mut RequestPool::new()) {
            Next::Request(req) => req,
            other => panic!("{raw:?}: {other:?}"),
        }
    }

    #[test]
    fn route_table_matches_the_head_writers_byte_for_byte() {
        let c = store();
        let id = FileId(3);
        let (lm, size) = (c.last_modified(id), c.size_of(id) as usize);
        let stale = c.last_modified(FileId(4));
        let (v10, v11) = (Version::Http10, Version::Http11);
        type Row<'a> = (
            String,
            Version,
            Status,
            usize,
            bool,
            Option<&'a str>,
            Option<FileId>,
        );
        let rows: Vec<Row> = vec![
            (
                "GET /f/3 HTTP/1.1\r\n\r\n".into(),
                v11,
                Status::Ok,
                size,
                true,
                Some(lm),
                Some(id),
            ),
            (
                "HEAD /f/3 HTTP/1.1\r\n\r\n".into(),
                v11,
                Status::Ok,
                size,
                true,
                Some(lm),
                None,
            ),
            (
                "GET /f/99 HTTP/1.1\r\n\r\n".into(),
                v11,
                Status::NotFound,
                0,
                true,
                None,
                None,
            ),
            (
                "HEAD /nope HTTP/1.1\r\n\r\n".into(),
                v11,
                Status::NotFound,
                0,
                true,
                None,
                None,
            ),
            (
                format!("GET /f/3 HTTP/1.1\r\nIf-Modified-Since: {lm}\r\n\r\n"),
                v11,
                Status::NotModified,
                0,
                true,
                Some(lm),
                None,
            ),
            (
                format!("GET /f/3 HTTP/1.1\r\nIf-Modified-Since: {stale}\r\n\r\n"),
                v11,
                Status::Ok,
                size,
                true,
                Some(lm),
                Some(id),
            ),
            // HEAD is never answered 304.
            (
                format!("HEAD /f/3 HTTP/1.1\r\nIf-Modified-Since: {lm}\r\n\r\n"),
                v11,
                Status::Ok,
                size,
                true,
                Some(lm),
                None,
            ),
            (
                "GET /f/3 HTTP/1.0\r\n\r\n".into(),
                v10,
                Status::Ok,
                size,
                false,
                Some(lm),
                Some(id),
            ),
            (
                "GET /f/3 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".into(),
                v10,
                Status::Ok,
                size,
                true,
                Some(lm),
                Some(id),
            ),
            (
                "GET /f/3 HTTP/1.1\r\nConnection: close\r\n\r\n".into(),
                v11,
                Status::Ok,
                size,
                false,
                Some(lm),
                Some(id),
            ),
            (
                "GET /nope HTTP/1.0\r\n\r\n".into(),
                v10,
                Status::NotFound,
                0,
                false,
                None,
                None,
            ),
            // Arm order: an unknown method on a missing path is 501, not 404.
            (
                "BREW /nope HTTP/1.1\r\n\r\n".into(),
                v11,
                Status::NotImplemented,
                0,
                true,
                None,
                None,
            ),
            (
                "BREW /f/3 HTTP/1.1\r\n\r\n".into(),
                v11,
                Status::NotImplemented,
                0,
                true,
                None,
                None,
            ),
        ];
        for (raw, version, status, len, keep, last_modified, body) in rows {
            let req = one_request(&raw);
            let mut got = b"prefix".to_vec();
            assert_eq!(route(&req, &c, "D", &mut got), body, "{raw:?}");
            let mut want = b"prefix".to_vec();
            match last_modified {
                Some(lm) => write_head_full(&mut want, version, status, len, keep, "D", Some(lm)),
                None => write_head(&mut want, version, status, len, keep, "D"),
            };
            assert_eq!(got, want, "{raw:?}");
        }
    }

    #[test]
    fn every_parse_error_maps_to_400_or_431() {
        let mut many_headers = "GET / HTTP/1.1\r\n".to_string();
        for i in 0..200 {
            many_headers.push_str(&format!("H{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
        let cases = [
            (long_line.as_str(), ParseError::LineTooLong),
            (many_headers.as_str(), ParseError::TooManyHeaders),
            ("GET\r\n\r\n", ParseError::BadRequestLine),
            ("GET / HTTP/1.1\r\nno colon\r\n\r\n", ParseError::BadHeader),
            ("GET / HTTP/2.0\r\n\r\n", ParseError::BadVersion),
        ];
        let mut pool = RequestPool::new();
        for (raw, error) in cases {
            // The parser itself reports the variant this row stands for.
            let mut parser = RequestParser::new();
            parser.feed(raw.as_bytes());
            assert_eq!(parser.parse(), ParseOutcome::Error(error.clone()));
            let mut s = Session::new();
            s.feed(raw.as_bytes());
            s.feed(b"GET /f/0 HTTP/1.1\r\n\r\n");
            let limit = matches!(error, ParseError::LineTooLong | ParseError::TooManyHeaders);
            let status = if limit {
                Status::RequestHeaderFieldsTooLarge
            } else {
                Status::BadRequest
            };
            assert_eq!(
                s.next(&mut pool),
                Next::Reject { status, limit },
                "{error:?}"
            );
            // Nothing after a reject is parsed, even a valid request.
            assert!(s.is_closed());
            assert_eq!(s.next(&mut pool), Next::Closed, "{error:?}");
        }
    }

    #[test]
    fn nothing_is_parsed_after_a_close_request() {
        let mut pool = RequestPool::new();
        let mut s = Session::new();
        s.feed(b"GET /f/0 HTTP/1.1\r\n\r\nGET /f/0 HTTP/1.1\r\nConnection: close\r\n\r\n");
        s.feed(b"GET /f/1 HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\n");
        assert!(matches!(s.next(&mut pool), Next::Request(_)));
        assert!(!s.is_closed());
        assert!(matches!(s.next(&mut pool), Next::Request(r) if !r.keep_alive()));
        assert!(
            s.buffered() > 0,
            "the pipelined requests are still buffered"
        );
        assert_eq!(s.next(&mut pool), Next::Closed);
        assert_eq!(s.next(&mut pool), Next::Closed);
    }

    #[test]
    fn partial_head_waits_and_external_close_ends_the_session() {
        let mut pool = RequestPool::new();
        let mut s = Session::new();
        s.feed(b"GET /f/0 HTTP/1.1\r\nHo");
        assert_eq!(s.next(&mut pool), Next::Wait);
        s.close();
        assert_eq!(s.next(&mut pool), Next::Closed);
    }
}
