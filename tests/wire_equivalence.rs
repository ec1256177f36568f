//! Differential wire equivalence across accept modes and architectures.
//!
//! The sharded accept path changes *how* a connection reaches a worker —
//! it must not change a single byte of what the server says on the wire.
//! Each scripted request byte stream below is replayed verbatim against
//! three live servers — the nio server in handoff mode, the nio server in
//! sharded mode, and the thread-pool server — and the full response
//! streams must be byte-identical modulo the `Date` header (the one
//! documented per-run difference: each server thread keeps its own
//! once-a-second `httpcore::DateCache`, so two servers may straddle a
//! second boundary).
//!
//! The scripts cover the parser's edge behaviour end to end: pipelined
//! bursts, heads split at awkward chunk boundaries, oversized heads
//! (431 + close), partial heads timed out by the header deadline
//! (408 + close), and malformed request lines (400 + close).

#![cfg(target_os = "linux")]

use desim::Rng;
use httpcore::{ContentStore, LifecyclePolicy};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use workload::{FileSet, SurgeConfig};

/// One step of a scripted client.
enum Step {
    /// Write these bytes to the socket.
    Send(Vec<u8>),
    /// Sleep this long with the socket open (chunk-split / stall shaping).
    Pause(Duration),
    /// `shutdown(SHUT_WR)`: promise the server no more request bytes while
    /// still reading every reply it owes.
    HalfClose,
}

struct Script {
    name: &'static str,
    steps: Vec<Step>,
    /// Status codes the response stream must contain, in order.
    expect: Vec<u16>,
}

/// Shared policy: the header deadline armed (so partial heads resolve as
/// 408 instead of hanging), everything else at paper defaults.
fn policy() -> LifecyclePolicy {
    LifecyclePolicy {
        header_timeout: Some(Duration::from_millis(400)),
        ..LifecyclePolicy::default()
    }
}

fn files() -> FileSet {
    let mut rng = Rng::new(77);
    FileSet::build(
        &SurgeConfig {
            num_files: 50,
            tail_k: 10_000.0,
            tail_cap: 50_000.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    )
}

fn scripts() -> Vec<Script> {
    let burst = concat_requests(&[
        "GET /f/0 HTTP/1.1\r\nHost: sut\r\n\r\n",
        "GET /f/1 HTTP/1.1\r\nHost: sut\r\n\r\n",
        "GET /nope HTTP/1.1\r\nHost: sut\r\n\r\n",
        "GET /f/2 HTTP/1.1\r\nHost: sut\r\nConnection: close\r\n\r\n",
    ]);
    // Two requests delivered in fragments that split the request line, a
    // header, and the terminating CRLFCRLF itself.
    let split = vec![
        Step::Send(b"GET /f".to_vec()),
        Step::Pause(Duration::from_millis(5)),
        Step::Send(b"/3 HTTP/1.1\r\nHo".to_vec()),
        Step::Pause(Duration::from_millis(5)),
        Step::Send(b"st: sut\r\n\r".to_vec()),
        Step::Pause(Duration::from_millis(5)),
        Step::Send(b"\nGET /f/4 HTTP/1.1\r\nConnection: clo".to_vec()),
        Step::Pause(Duration::from_millis(5)),
        Step::Send(b"se\r\n\r\n".to_vec()),
    ];
    let mut oversized = b"GET /f/0 HTTP/1.1\r\nX-Pad: ".to_vec();
    oversized.extend(std::iter::repeat_n(b'a', 9000));
    oversized.extend_from_slice(b"\r\n\r\n");
    vec![
        Script {
            name: "pipelined_burst",
            steps: vec![Step::Send(burst)],
            expect: vec![200, 200, 404, 200],
        },
        Script {
            name: "chunk_split_heads",
            steps: split,
            expect: vec![200, 200],
        },
        Script {
            name: "oversized_head",
            steps: vec![Step::Send(oversized)],
            expect: vec![431],
        },
        Script {
            name: "partial_head",
            // The head never completes; the server's header deadline must
            // answer 408 and close.
            steps: vec![Step::Send(b"GET /f/0 HTTP/1.1\r\nHost: s".to_vec())],
            expect: vec![408],
        },
        Script {
            name: "malformed_version",
            steps: vec![Step::Send(b"GET /f/0 HTTP/2.0\r\n\r\n".to_vec())],
            expect: vec![400],
        },
        Script {
            name: "malformed_request_line",
            steps: vec![Step::Send(
                b"GET /f/0 HTTP/1.1 EXTRA-TOKEN\r\n\r\n".to_vec(),
            )],
            expect: vec![400],
        },
        Script {
            // Promoted from the conformance corpus: keep-alive requests
            // with no `Connection: close` anywhere, ended by the client's
            // FIN — every buffered request must still be answered and the
            // close must be clean.
            name: "half_close_drains_pipeline",
            steps: vec![
                Step::Send(concat_requests(&[
                    "GET /f/7 HTTP/1.1\r\nHost: sut\r\n\r\n",
                    "GET /f/8 HTTP/1.1\r\nHost: sut\r\n\r\n",
                ])),
                Step::HalfClose,
            ],
            expect: vec![200, 200],
        },
        Script {
            // Requests pipelined behind a `Connection: close` request are
            // never answered (RFC 9112 §9.6): the server stops at the close.
            name: "close_then_pipelined",
            steps: vec![Step::Send(concat_requests(&[
                "GET /f/0 HTTP/1.1\r\nHost: sut\r\nConnection: close\r\n\r\n",
                "GET /f/1 HTTP/1.1\r\nHost: sut\r\n\r\n",
                "GET /nope HTTP/1.1\r\nHost: sut\r\n\r\n",
            ]))],
            expect: vec![200],
        },
        Script {
            // Promoted from the conformance corpus: a complete request
            // pipelined with a head that never finishes. The 200 must be
            // served immediately; the dangling head resolves as 408 when
            // the header deadline fires mid-pipeline.
            name: "timeout_mid_pipeline",
            steps: vec![Step::Send(concat_requests(&[
                "GET /f/5 HTTP/1.1\r\nHost: sut\r\n\r\n",
                "GET /f/6 HTTP/1.1\r\nHost: s",
            ]))],
            expect: vec![200, 408],
        },
    ]
}

fn concat_requests(reqs: &[&str]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in reqs {
        out.extend_from_slice(r.as_bytes());
    }
    out
}

/// Replay a script against one server and capture everything it answers,
/// reading until the server closes the connection.
fn replay(addr: SocketAddr, script: &Script) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for step in &script.steps {
        match step {
            Step::Send(bytes) => stream.write_all(bytes).expect("script write"),
            Step::Pause(d) => std::thread::sleep(*d),
            Step::HalfClose => stream.shutdown(Shutdown::Write).expect("half-close"),
        }
    }
    // Deliberately no write-side shutdown: a FIN would let the server
    // treat the partial-head script as a client close instead of letting
    // the header deadline fire.
    let mut out = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                panic!("{}: server never closed the connection", script.name)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break, // reset after the final response is also an end
        }
    }
    out
}

/// Replace every `Date:` header value in the stream with a fixed token,
/// walking response-by-response so body bytes are never touched.
fn normalize(data: &[u8]) -> Vec<u8> {
    let mut rest = data;
    let mut out = Vec::new();
    while !rest.is_empty() {
        match httpcore::parse_response_head(rest) {
            Some(Ok(h)) => {
                out.extend_from_slice(&scrub_date(&rest[..h.head_len]));
                let body_end = (h.head_len + h.content_length).min(rest.len());
                out.extend_from_slice(&rest[h.head_len..body_end]);
                rest = &rest[body_end..];
            }
            _ => {
                // Trailing bytes that are not a complete head (should not
                // happen with close-delimited scripts): keep them verbatim
                // so a divergence still fails the comparison loudly.
                out.extend_from_slice(rest);
                break;
            }
        }
    }
    out
}

fn scrub_date(head: &[u8]) -> Vec<u8> {
    let mut out = head.to_vec();
    let marker = b"\r\nDate: ";
    if let Some(start) = out
        .windows(marker.len())
        .position(|w| w == marker)
        .map(|p| p + marker.len())
    {
        if let Some(end) = out[start..]
            .windows(2)
            .position(|w| w == b"\r\n")
            .map(|p| p + start)
        {
            out.splice(start..end, b"<DATE>".iter().copied());
        }
    }
    out
}

/// Status codes in stream order.
fn statuses(data: &[u8]) -> Vec<u16> {
    let mut rest = data;
    let mut out = Vec::new();
    while let Some(Ok(h)) = httpcore::parse_response_head(rest) {
        out.push(h.status);
        let body_end = (h.head_len + h.content_length).min(rest.len());
        rest = &rest[body_end..];
        if rest.is_empty() {
            break;
        }
    }
    out
}

fn start_nio(
    accept: nioserver::AcceptMode,
    backend: nioserver::BackendKind,
    content: &Arc<ContentStore>,
) -> nioserver::NioServer {
    nioserver::NioServer::start(nioserver::NioConfig {
        workers: 2,
        backend,
        accept,
        shed_watermark: None,
        lifecycle: policy(),
        content: Arc::clone(content),
    })
    .expect("start nio server")
}

/// Both readiness selectors: epoll (O(ready)) and poll(2) (O(registered)).
fn available_backends() -> [nioserver::BackendKind; 2] {
    [nioserver::BackendKind::Epoll, nioserver::BackendKind::Poll]
}

#[test]
fn all_accept_modes_and_architectures_answer_identical_bytes() {
    // The full backend × accept-mode matrix against one fixed reference:
    // poolserver has no reactor at all, so its stream anchors the
    // comparison — every (backend, accept) nio variant must answer the
    // same bytes a thread-per-connection server does, modulo Date.
    let fs = files();
    let content = Arc::new(ContentStore::from_fileset(&fs));

    let pool = poolserver::PoolServer::start(poolserver::PoolConfig {
        pool_size: 4,
        lifecycle: policy(),
        shed_watermark: None,
        content: Arc::clone(&content),
    })
    .expect("start pool server");

    // One reference stream per script, shared by the whole matrix.
    let reference: Vec<(Script, Vec<u8>)> = scripts()
        .into_iter()
        .map(|script| {
            let raw = replay(pool.addr(), &script);
            assert!(!raw.is_empty(), "{}/poolserver: empty stream", script.name);
            assert_eq!(
                statuses(&raw),
                script.expect,
                "{}/poolserver: status sequence mismatch",
                script.name
            );
            let norm = normalize(&raw);
            (script, norm)
        })
        .collect();

    for backend in available_backends() {
        let handoff = start_nio(nioserver::AcceptMode::Handoff, backend, &content);
        let sharded = start_nio(nioserver::AcceptMode::Sharded, backend, &content);
        for (script, reference) in &reference {
            for (who, addr) in [
                ("nio-handoff", handoff.addr()),
                ("nio-sharded", sharded.addr()),
            ] {
                let raw = replay(addr, script);
                assert!(
                    !raw.is_empty(),
                    "{}/{who}[{}]: empty response stream",
                    script.name,
                    backend.label()
                );
                assert_eq!(
                    statuses(&raw),
                    script.expect,
                    "{}/{who}[{}]: status sequence mismatch",
                    script.name,
                    backend.label()
                );
                assert_eq!(
                    &normalize(&raw),
                    reference,
                    "{}/{who}[{}]: diverged from poolserver on the wire",
                    script.name,
                    backend.label()
                );
            }
        }
        handoff.shutdown();
        sharded.shutdown();
    }

    pool.shutdown();
}

#[test]
fn slot_reuse_churn_is_wire_equivalent_across_accept_modes() {
    // Churn angle on equivalence: waves of short-lived connections force
    // the workers' connection slab to recycle slots aggressively — the
    // LIFO free list hands each sequential connection the slot its
    // predecessor just vacated, and concurrent waves spread reuse across
    // many slots at once. A reused slot must serve its new connection
    // exactly like a fresh one: no state bleed from the previous occupant,
    // no aliased teardown, and byte-identical streams on both accept modes.
    let fs = files();
    let content = Arc::new(ContentStore::from_fileset(&fs));
    let handoff = start_nio(
        nioserver::AcceptMode::Handoff,
        nioserver::BackendKind::Epoll,
        &content,
    );
    let sharded = start_nio(
        nioserver::AcceptMode::Sharded,
        nioserver::BackendKind::Epoll,
        &content,
    );

    fn churn_script(i: usize) -> Script {
        Script {
            name: "churn",
            steps: vec![Step::Send(concat_requests(&[
                &format!("GET /f/{} HTTP/1.1\r\nHost: sut\r\n\r\n", i % 8),
                "GET /f/9 HTTP/1.1\r\nHost: sut\r\nConnection: close\r\n\r\n",
            ]))],
            expect: vec![200, 200],
        }
    }

    for (who, addr) in [("handoff", handoff.addr()), ("sharded", sharded.addr())] {
        // References on fresh slots, one per distinct request shape.
        let reference: Vec<Vec<u8>> = (0..8)
            .map(|i| normalize(&replay(addr, &churn_script(i))))
            .collect();
        for r in &reference {
            assert_eq!(statuses(r), vec![200, 200], "{who}: churn reference");
        }
        // Sequential churn: each close frees the slot the next connect
        // reuses, so one slot cycles through many generations.
        for i in 0..24 {
            let got = normalize(&replay(addr, &churn_script(i)));
            assert_eq!(
                got,
                reference[i % 8],
                "{who}: sequential churn conn {i} diverged on a reused slot"
            );
        }
        // Concurrent waves: a batch of live connections, all closed, then
        // the next batch lands on the freed slots.
        for wave in 0..3 {
            let workers: Vec<_> = (0..12)
                .map(|i| std::thread::spawn(move || (i, replay(addr, &churn_script(i)))))
                .collect();
            for w in workers {
                let (i, raw) = w.join().expect("churn client");
                assert_eq!(
                    normalize(&raw),
                    reference[i % 8],
                    "{who}: wave {wave} conn {i} diverged on a reused slot"
                );
            }
        }
    }

    handoff.shutdown();
    sharded.shutdown();
}

#[test]
fn sharded_mode_is_wire_equivalent_across_many_connections() {
    // A second angle on equivalence: the same pipelined burst replayed on
    // eight fresh connections against the sharded server (so multiple
    // shards serve it) yields eight identical normalized streams — shard
    // identity must never leak into the bytes.
    let fs = files();
    let content = Arc::new(ContentStore::from_fileset(&fs));
    let sharded = start_nio(
        nioserver::AcceptMode::Sharded,
        nioserver::BackendKind::Epoll,
        &content,
    );
    let script = Script {
        name: "per_shard_burst",
        steps: vec![Step::Send(concat_requests(&[
            "GET /f/5 HTTP/1.1\r\nHost: sut\r\n\r\n",
            "GET /f/6 HTTP/1.1\r\nHost: sut\r\nConnection: close\r\n\r\n",
        ]))],
        expect: vec![200, 200],
    };
    let reference = normalize(&replay(sharded.addr(), &script));
    assert_eq!(statuses(&reference), script.expect);
    for i in 0..8 {
        let next = normalize(&replay(sharded.addr(), &script));
        assert_eq!(reference, next, "connection {i} diverged");
    }
    sharded.shutdown();
}

#[test]
fn rst_after_partial_head_is_absorbed_identically() {
    // Promoted from the conformance corpus: a client sends half a request
    // head and aborts with RST. Every variant must clean the connection up
    // silently — no 408 rides the dead socket into a panic or a poisoned
    // slot — and a follow-up connection must be served exactly as if the
    // abort never happened, on every server, byte-identically.
    let fs = files();
    let content = Arc::new(ContentStore::from_fileset(&fs));
    let handoff = start_nio(
        nioserver::AcceptMode::Handoff,
        nioserver::BackendKind::Epoll,
        &content,
    );
    let sharded = start_nio(
        nioserver::AcceptMode::Sharded,
        nioserver::BackendKind::Epoll,
        &content,
    );
    let pool = poolserver::PoolServer::start(poolserver::PoolConfig {
        pool_size: 4,
        lifecycle: policy(),
        shed_watermark: None,
        content: Arc::clone(&content),
    })
    .expect("start pool server");

    let probe = Script {
        name: "post_rst_probe",
        steps: vec![Step::Send(concat_requests(&[
            "GET /f/3 HTTP/1.1\r\nHost: sut\r\nConnection: close\r\n\r\n",
        ]))],
        expect: vec![200],
    };
    let mut streams = Vec::new();
    for (who, addr) in [
        ("nio-handoff", handoff.addr()),
        ("nio-sharded", sharded.addr()),
        ("poolserver", pool.addr()),
    ] {
        for round in 0..4 {
            let s = TcpStream::connect(addr).expect("connect");
            s.set_nodelay(true).unwrap();
            let mut s = s;
            s.write_all(b"GET /f/0 HTTP/1.1\r\nHost: s")
                .expect("partial head");
            // Give the server a chance to observe the partial head before
            // the abort, so the RST lands on a connection mid-parse.
            std::thread::sleep(Duration::from_millis(20));
            // SO_LINGER(0): the drop sends RST instead of FIN — the
            // abortive client the conformance model calls `Terminal::Reset`.
            httpcore::sys::set_linger_zero(&s).expect("SO_LINGER(0)");
            drop(s);
            let raw = replay(addr, &probe);
            assert_eq!(
                statuses(&raw),
                probe.expect,
                "{who}: probe after RST round {round}"
            );
            streams.push((who, normalize(&raw)));
        }
    }
    // The post-abort probes agree byte-for-byte across all three servers.
    let reference = &streams[0].1;
    for (who, s) in &streams {
        assert_eq!(s, reference, "{who}: post-RST probe diverged on the wire");
    }

    handoff.shutdown();
    sharded.shutdown();
    pool.shutdown();
}
