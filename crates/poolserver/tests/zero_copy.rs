//! Wire-equality check for the pool server's vectored (head, body) reply
//! path: responses must be byte-identical to the old concatenate-and-write
//! rendering. Only the `Date` header is taken from the live response.

use desim::Rng;
use httpcore::{write_head, write_head_full, ContentStore, Status, Version};
use poolserver::{PoolConfig, PoolServer};
use std::io::{Read, Write};
use std::net::TcpStream;
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

fn extract_date(raw: &[u8]) -> String {
    let head = httpcore::parse_response_head(raw).unwrap().unwrap();
    let text = std::str::from_utf8(&raw[..head.head_len]).unwrap();
    text.split("\r\n")
        .find_map(|l| l.strip_prefix("Date: "))
        .expect("Date header present")
        .to_string()
}

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

#[test]
fn responses_match_copying_path_byte_for_byte() {
    let content = content();
    let server = PoolServer::start(PoolConfig {
        pool_size: 2,
        lifecycle: httpcore::LifecyclePolicy {
            idle_timeout: Some(Duration::from_secs(30)),
            ..httpcore::LifecyclePolicy::default()
        },
        shed_watermark: None,
        content: Arc::clone(&content),
    })
    .unwrap();
    let lm2 = content.last_modified(FileId(2));
    type Case<'a> = (String, Status, usize, Option<String>, &'a [u8]);
    let cases: Vec<Case> = vec![
        (
            "GET /f/3 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".to_string(),
            Status::Ok,
            content.body(FileId(3)).len(),
            Some(content.last_modified(FileId(3)).to_string()),
            content.body(FileId(3)),
        ),
        (
            "HEAD /f/5 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".to_string(),
            Status::Ok,
            content.size_of(FileId(5)) as usize,
            Some(content.last_modified(FileId(5)).to_string()),
            &[],
        ),
        (
            format!(
                "GET /f/2 HTTP/1.1\r\nHost: t\r\nIf-Modified-Since: {lm2}\r\nConnection: close\r\n\r\n"
            ),
            Status::NotModified,
            0,
            Some(lm2.to_string()),
            &[],
        ),
        (
            "GET /missing HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".to_string(),
            Status::NotFound,
            0,
            None,
            &[],
        ),
    ];
    for (request, status, len, lm, body) in &cases {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        let date = extract_date(&raw);
        let expect = reference(*status, *len, false, &date, lm.as_deref(), body);
        assert_eq!(raw, expect, "request {request:?}");
    }
    server.shutdown();
}

#[test]
fn pipelined_burst_matches_copying_path_byte_for_byte() {
    let content = content();
    let server = PoolServer::start(PoolConfig {
        pool_size: 2,
        lifecycle: httpcore::LifecyclePolicy {
            idle_timeout: Some(Duration::from_secs(30)),
            ..httpcore::LifecyclePolicy::default()
        },
        shed_watermark: None,
        content: Arc::clone(&content),
    })
    .unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut request = String::new();
    for id in 0..2u32 {
        request.push_str(&format!("GET /f/{id} HTTP/1.1\r\nHost: t\r\n\r\n"));
    }
    request.push_str("GET /f/2 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    s.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();

    let mut off = 0;
    for id in 0..3u32 {
        let head = httpcore::parse_response_head(&raw[off..])
            .expect("complete head")
            .expect("valid head");
        let date = extract_date(&raw[off..]);
        let body = content.body(FileId(id));
        let lm = content.last_modified(FileId(id));
        let expect = reference(Status::Ok, body.len(), id != 2, &date, Some(lm), body);
        let got = &raw[off..off + head.head_len + head.content_length];
        assert_eq!(got, &expect[..], "reply {id}");
        off += head.head_len + head.content_length;
    }
    assert_eq!(off, raw.len(), "trailing bytes after 3 replies");
    server.shutdown();
}
