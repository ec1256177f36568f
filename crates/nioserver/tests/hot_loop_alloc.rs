//! Steady-state allocation discipline: a keep-alive connection serving the
//! same file over and over must not allocate at all, in any thread.
//!
//! Everything on the per-request path is recycled — the parser's request
//! scratch through the worker's `RequestPool`, the response head through the
//! worker's `HeadPool`, the read buffer, the reply queue's segment ring, the
//! selector's event buffer. This test pins that property with a counting
//! global allocator: after a warmup that faults in every buffer, a burst of
//! identical pipeled-free requests must leave the allocation counter
//! untouched.
//!
//! The one deliberate allocation on the worker loop is the ~1 Hz HTTP-date
//! refresh (one `String` per second per worker). A measurement window is far
//! shorter than a second, but the refresh clock starts at worker spawn, so a
//! single window can straddle a tick; the test therefore takes several short
//! windows and requires that at least one is allocation-free, which the date
//! refresh cannot defeat (two ticks are a full second apart).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use desim::Rng;
use httpcore::ContentStore;
use nioserver::{BackendKind, NioConfig, NioServer};
use workload::{FileSet, SurgeConfig};

struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn content() -> Arc<ContentStore> {
    let mut rng = Rng::new(7);
    let fs = FileSet::build(
        &SurgeConfig {
            num_files: 4,
            tail_prob: 0.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    );
    Arc::new(ContentStore::from_fileset(&fs))
}

/// Send `n` identical keep-alive requests serially and read each full
/// response, using only the preallocated buffers. Returns total bytes read.
fn run_burst(
    stream: &mut TcpStream,
    req: &[u8],
    resp_len: usize,
    buf: &mut [u8],
    n: usize,
) -> usize {
    let mut total = 0usize;
    for _ in 0..n {
        stream.write_all(req).expect("write request");
        let mut got = 0usize;
        while got < resp_len {
            let k = stream.read(&mut buf[got..resp_len]).expect("read response");
            assert!(k > 0, "server closed mid-response");
            got += k;
        }
        total += got;
    }
    total
}

#[test]
fn steady_state_request_loop_allocates_nothing() {
    let server = NioServer::start(NioConfig {
        workers: 1,
        backend: BackendKind::Epoll,
        accept: faults::AcceptMode::Handoff,
        shed_watermark: None,
        lifecycle: Default::default(),
        content: content(),
    })
    .expect("server start");
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let req = b"GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n";
    let mut buf = vec![0u8; 256 * 1024];

    // Measure the response length once (identical requests → identical
    // responses; the Date header is fixed-width by construction).
    stream.write_all(req).expect("write probe");
    std::thread::sleep(std::time::Duration::from_millis(50));
    let resp_len = stream.read(&mut buf).expect("read probe");
    assert!(resp_len > 0);
    let head = std::str::from_utf8(&buf[..resp_len.min(64)]).expect("utf8 head");
    assert!(
        head.starts_with("HTTP/1.1 200 OK"),
        "probe response: {head:?}"
    );

    // Warmup: fault in every recycled buffer on both sides of the socket
    // (parser scratch, head pool, read accumulation, reply ring, event
    // buffer) so the measured windows exercise only steady-state reuse.
    run_burst(&mut stream, req, resp_len, &mut buf, 64);

    // Several short windows; the ~1 Hz date refresh can straddle at most
    // one of them. Everything else on the path must never allocate.
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = ALLOC_EVENTS.load(Ordering::SeqCst);
        run_burst(&mut stream, req, resp_len, &mut buf, 256);
        let after = ALLOC_EVENTS.load(Ordering::SeqCst);
        best = best.min(after - before);
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best, 0,
        "steady-state keep-alive loop allocated in every window"
    );

    drop(stream);
    server.shutdown();
}
