//! HTTP/1.1 response serialisation.
//!
//! Responses are rendered head-first into a caller-provided `Vec<u8>` so a
//! server can stage head + body into one write buffer (one `writev`-shaped
//! syscall in spirit). Bodies in this study are synthetic static files, so
//! the builder takes a length plus a fill strategy instead of owned bytes —
//! the content store shares one large arena slice for every reply.

use crate::request::Version;
use std::io::Write;
use std::net::TcpStream;

/// Response status subset the servers emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    NotModified,
    BadRequest,
    RequestTimeout,
    NotFound,
    RequestHeaderFieldsTooLarge,
    NotImplemented,
    ServiceUnavailable,
}

impl Status {
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::NotModified => 304,
            Status::BadRequest => 400,
            Status::RequestTimeout => 408,
            Status::NotFound => 404,
            Status::RequestHeaderFieldsTooLarge => 431,
            Status::NotImplemented => 501,
            Status::ServiceUnavailable => 503,
        }
    }

    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::NotModified => "Not Modified",
            Status::BadRequest => "Bad Request",
            Status::RequestTimeout => "Request Timeout",
            Status::NotFound => "Not Found",
            Status::RequestHeaderFieldsTooLarge => "Request Header Fields Too Large",
            Status::NotImplemented => "Not Implemented",
            Status::ServiceUnavailable => "Service Unavailable",
        }
    }
}

/// Render a response head into `out`. Returns the head length.
///
/// `content_length` is always emitted (the load generator relies on it to
/// delimit replies on persistent connections).
pub fn write_head(
    out: &mut Vec<u8>,
    version: Version,
    status: Status,
    content_length: usize,
    keep_alive: bool,
    date: &str,
) -> usize {
    write_head_full(out, version, status, content_length, keep_alive, date, None)
}

/// [`write_head`] plus an optional `Last-Modified` header (conditional-GET
/// support).
pub fn write_head_full(
    out: &mut Vec<u8>,
    version: Version,
    status: Status,
    content_length: usize,
    keep_alive: bool,
    date: &str,
    last_modified: Option<&str>,
) -> usize {
    let before = out.len();
    let ver = match version {
        Version::Http11 => "HTTP/1.1",
        Version::Http10 => "HTTP/1.0",
    };
    // Rendered by hand: this runs once per reply, and `core::fmt` is the
    // single most expensive thing the old path did besides the body copy.
    out.extend_from_slice(ver.as_bytes());
    out.push(b' ');
    push_decimal(out, status.code() as u64);
    out.push(b' ');
    out.extend_from_slice(status.reason().as_bytes());
    out.extend_from_slice(b"\r\nServer: eventscale/0.1\r\nDate: ");
    out.extend_from_slice(date.as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: application/octet-stream\r\nContent-Length: ");
    push_decimal(out, content_length as u64);
    out.extend_from_slice(b"\r\nConnection: ");
    out.extend_from_slice(if keep_alive {
        b"keep-alive".as_slice()
    } else {
        b"close".as_slice()
    });
    out.extend_from_slice(b"\r\n");
    if let Some(lm) = last_modified {
        out.extend_from_slice(b"Last-Modified: ");
        out.extend_from_slice(lm.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.len() - before
}

/// Best-effort blocking write of a body-less `Connection: close` head, for
/// the refusals and error answers a connection ends with. It renders into
/// the caller's scratch `head`, so a refusal storm allocates nothing, and
/// the head is far smaller than any socket buffer, so the write cannot stall.
pub fn send_closing_head(mut stream: &TcpStream, head: &mut Vec<u8>, status: Status, date: &str) {
    head.clear();
    write_head(head, Version::Http11, status, 0, false, date);
    let _ = stream.write_all(head);
}

/// Append the decimal digits of `v` without going through `core::fmt`.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Parse a response head on the *client* side (the load generator): returns
/// `(head_len, status_code, content_length, keep_alive)` or `None` if the
/// head is not complete yet.
pub fn parse_response_head(data: &[u8]) -> Option<Result<ResponseHead, &'static str>> {
    let head_end = data.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = &data[..head_end];
    let mut lines = head.split(|&b| b == b'\n').map(|l| {
        if l.last() == Some(&b'\r') {
            &l[..l.len() - 1]
        } else {
            l
        }
    });
    let status_line = match lines.next() {
        Some(l) => l,
        None => return Some(Err("empty head")),
    };
    let mut parts = status_line.splitn(3, |&b| b == b' ');
    let _version = parts.next();
    let code = match parts
        .next()
        .and_then(|c| std::str::from_utf8(c).ok())
        .and_then(|c| c.parse::<u16>().ok())
    {
        Some(c) => c,
        None => return Some(Err("bad status code")),
    };
    let mut content_length = None;
    let mut keep_alive = true;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            return Some(Err("bad header"));
        };
        let name = &line[..colon];
        let value = std::str::from_utf8(&line[colon + 1..]).unwrap_or("").trim();
        if name.eq_ignore_ascii_case(b"content-length") {
            match value.parse::<usize>() {
                Ok(n) => content_length = Some(n),
                Err(_) => return Some(Err("bad content-length")),
            }
        } else if name.eq_ignore_ascii_case(b"connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let Some(content_length) = content_length else {
        return Some(Err("missing content-length"));
    };
    Some(Ok(ResponseHead {
        head_len: head_end + 4,
        status: code,
        content_length,
        keep_alive,
    }))
}

/// Client-side view of a response head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHead {
    pub head_len: usize,
    pub status: u16,
    pub content_length: usize,
    pub keep_alive: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_roundtrips_through_client_parser() {
        let mut out = Vec::new();
        let n = write_head(&mut out, Version::Http11, Status::Ok, 1234, true, "D");
        assert_eq!(n, out.len());
        out.extend_from_slice(&[0u8; 10]); // some body bytes
        let head = parse_response_head(&out).unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.content_length, 1234);
        assert!(head.keep_alive);
        assert_eq!(head.head_len, n);
    }

    #[test]
    fn close_connection_signalled() {
        let mut out = Vec::new();
        write_head(&mut out, Version::Http11, Status::NotFound, 0, false, "D");
        let head = parse_response_head(&out).unwrap().unwrap();
        assert_eq!(head.status, 404);
        assert!(!head.keep_alive);
    }

    #[test]
    fn incomplete_head_returns_none() {
        assert!(parse_response_head(b"HTTP/1.1 200 OK\r\nContent-Len").is_none());
    }

    #[test]
    fn missing_content_length_is_an_error() {
        let r = parse_response_head(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
        assert!(r.is_err());
    }

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::ServiceUnavailable.code(), 503);
        assert_eq!(Status::NotImplemented.reason(), "Not Implemented");
        assert_eq!(Status::RequestTimeout.code(), 408);
        assert_eq!(Status::RequestTimeout.reason(), "Request Timeout");
        assert_eq!(Status::RequestHeaderFieldsTooLarge.code(), 431);
        assert_eq!(
            Status::RequestHeaderFieldsTooLarge.reason(),
            "Request Header Fields Too Large"
        );
    }

    #[test]
    fn last_modified_emitted_when_given() {
        let mut out = Vec::new();
        write_head_full(
            &mut out,
            Version::Http11,
            Status::Ok,
            10,
            true,
            "D",
            Some("Thu, 01 Jan 2004 00:00:00 GMT"),
        );
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.contains("Last-Modified: Thu, 01 Jan 2004 00:00:00 GMT\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
        // And the client parser still handles it.
        let head = parse_response_head(&out).unwrap().unwrap();
        assert_eq!(head.content_length, 10);
    }

    #[test]
    fn not_modified_status() {
        assert_eq!(Status::NotModified.code(), 304);
        assert_eq!(Status::NotModified.reason(), "Not Modified");
    }

    #[test]
    fn http10_head() {
        let mut out = Vec::new();
        write_head(&mut out, Version::Http10, Status::Ok, 5, false, "D");
        assert!(out.starts_with(b"HTTP/1.0 200 OK\r\n"));
    }
}
