//! The staged zero-copy reply path must be invisible on the wire: every
//! response the live server emits is compared **byte-for-byte** against a
//! reference rendering built the old way (head rendered with
//! `write_head_full`, body memcpy'd after it). Only the `Date` header is
//! taken from the live response, since the server stamps wall-clock time.

use desim::Rng;
use httpcore::{write_head, write_head_full, ContentStore, Status, Version};
use nioserver::{BackendKind, NioConfig, NioServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use workload::{FileId, FileSet, SurgeConfig};

fn content() -> Arc<ContentStore> {
    let mut rng = Rng::new(7);
    let fs = FileSet::build(
        &SurgeConfig {
            num_files: 20,
            tail_prob: 0.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    );
    Arc::new(ContentStore::from_fileset(&fs))
}

fn start(backend: BackendKind, content: &Arc<ContentStore>) -> NioServer {
    NioServer::start(NioConfig {
        workers: 1,
        backend,
        accept: nioserver::AcceptMode::from_env(),
        shed_watermark: None,
        lifecycle: httpcore::LifecyclePolicy::default(),
        content: Arc::clone(content),
    })
    .unwrap()
}

/// Send raw request bytes, read until the peer closes, return everything.
fn exchange(addr: SocketAddr, request: &str) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(request.as_bytes()).unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    buf
}

/// The `Date` value the server stamped into this head.
fn extract_date(raw: &[u8]) -> String {
    let head = httpcore::parse_response_head(raw).unwrap().unwrap();
    let text = std::str::from_utf8(&raw[..head.head_len]).unwrap();
    text.split("\r\n")
        .find_map(|l| l.strip_prefix("Date: "))
        .expect("Date header present")
        .to_string()
}

/// Reference rendering of one reply exactly as the pre-zero-copy path
/// built it: head bytes, then the body appended by copy.
#[allow(clippy::too_many_arguments)]
fn reference(
    status: Status,
    content_length: usize,
    keep: bool,
    date: &str,
    last_modified: Option<&str>,
    body: &[u8],
) -> Vec<u8> {
    let mut out = Vec::new();
    match last_modified {
        Some(lm) => {
            write_head_full(
                &mut out,
                Version::Http11,
                status,
                content_length,
                keep,
                date,
                Some(lm),
            );
        }
        None => {
            write_head(
                &mut out,
                Version::Http11,
                status,
                content_length,
                keep,
                date,
            );
        }
    }
    out.extend_from_slice(body);
    out
}

fn both_selectors() -> [BackendKind; 2] {
    [BackendKind::Epoll, BackendKind::Poll]
}

#[test]
fn get_matches_copying_path_byte_for_byte() {
    let content = content();
    for sel in both_selectors() {
        let server = start(sel, &content);
        let raw = exchange(
            server.addr(),
            "GET /f/3 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        let date = extract_date(&raw);
        let body = content.body(FileId(3));
        let lm = content.last_modified(FileId(3));
        let expect = reference(Status::Ok, body.len(), false, &date, Some(lm), body);
        assert_eq!(raw, expect, "{sel:?}");
        server.shutdown();
    }
}

#[test]
fn head_matches_copying_path_byte_for_byte() {
    let content = content();
    for sel in both_selectors() {
        let server = start(sel, &content);
        let raw = exchange(
            server.addr(),
            "HEAD /f/5 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        let date = extract_date(&raw);
        let lm = content.last_modified(FileId(5));
        let len = content.size_of(FileId(5)) as usize;
        let expect = reference(Status::Ok, len, false, &date, Some(lm), &[]);
        assert_eq!(raw, expect, "{sel:?}");
        server.shutdown();
    }
}

#[test]
fn not_modified_matches_copying_path_byte_for_byte() {
    let content = content();
    for sel in both_selectors() {
        let server = start(sel, &content);
        let lm = content.last_modified(FileId(2));
        let raw = exchange(
            server.addr(),
            &format!(
                "GET /f/2 HTTP/1.1\r\nHost: t\r\nIf-Modified-Since: {lm}\r\nConnection: close\r\n\r\n"
            ),
        );
        let date = extract_date(&raw);
        let expect = reference(Status::NotModified, 0, false, &date, Some(lm), &[]);
        assert_eq!(raw, expect, "{sel:?}");
        server.shutdown();
    }
}

#[test]
fn not_found_matches_copying_path_byte_for_byte() {
    let content = content();
    for sel in both_selectors() {
        let server = start(sel, &content);
        let raw = exchange(
            server.addr(),
            "GET /missing HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        let date = extract_date(&raw);
        let expect = reference(Status::NotFound, 0, false, &date, None, &[]);
        assert_eq!(raw, expect, "{sel:?}");
        server.shutdown();
    }
}

#[test]
fn pipelined_burst_matches_copying_path_byte_for_byte() {
    // Five pipelined requests in one segment: the staged queue coalesces
    // several (head, body) pairs into vectored writes, and the result must
    // still be the exact concatenation of five independently rendered
    // replies, in order.
    let content = content();
    for sel in both_selectors() {
        let server = start(sel, &content);
        let mut request = String::new();
        for id in 0..4u32 {
            request.push_str(&format!("GET /f/{id} HTTP/1.1\r\nHost: t\r\n\r\n"));
        }
        request.push_str("GET /f/4 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        let raw = exchange(server.addr(), &request);

        let mut off = 0;
        let mut expect = Vec::new();
        for id in 0..5u32 {
            let head = httpcore::parse_response_head(&raw[off..])
                .expect("complete head")
                .expect("valid head");
            let date = extract_date(&raw[off..]);
            let body = content.body(FileId(id));
            let lm = content.last_modified(FileId(id));
            let keep = id != 4;
            expect.clear();
            expect.extend(reference(
                Status::Ok,
                body.len(),
                keep,
                &date,
                Some(lm),
                body,
            ));
            let got = &raw[off..off + head.head_len + head.content_length];
            assert_eq!(got, &expect[..], "{sel:?} reply {id}");
            off += head.head_len + head.content_length;
        }
        assert_eq!(off, raw.len(), "{sel:?}: trailing bytes after 5 replies");
        server.shutdown();
    }
}
