//! Steady-state allocation discipline of the thread-pool server: a
//! keep-alive connection serving the same file over and over must not
//! allocate at all, in any thread.
//!
//! The connection's read buffer, parser and head buffer are set up once per
//! connection; per request, the parser's scratch recycles through the
//! thread's `RequestPool`, the head renders into the reused buffer, and the
//! body is written straight from the content arena. This test pins that
//! property with a counting global allocator, as nio's `hot_loop_alloc`
//! does: after a warmup that faults in every buffer, a burst of identical
//! requests must leave the allocation counter untouched.
//!
//! The one deliberate allocation on the serve path is the thread's ~1 Hz
//! HTTP-date refresh (one `String` per second). A window can straddle one
//! refresh, so the test takes several short windows and requires that at
//! least one is allocation-free, which the refresh cannot defeat (two
//! refreshes are a full second apart).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use desim::Rng;
use httpcore::{ContentStore, LifecyclePolicy};
use poolserver::{PoolConfig, PoolServer};
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
/// response, using only the preallocated buffers.
fn run_burst(stream: &mut TcpStream, req: &[u8], resp_len: usize, buf: &mut [u8], n: usize) {
    for _ in 0..n {
        stream.write_all(req).expect("write request");
        let mut got = 0usize;
        while got < resp_len {
            let k = stream.read(&mut buf[got..resp_len]).expect("read response");
            assert!(k > 0, "server closed mid-response");
            got += k;
        }
    }
}

#[test]
fn steady_state_request_loop_allocates_nothing() {
    let server = PoolServer::start(PoolConfig {
        pool_size: 1,
        lifecycle: LifecyclePolicy::default(),
        shed_watermark: None,
        content: content(),
    })
    .expect("server start");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let req = b"GET /f/0 HTTP/1.1\r\nHost: t\r\n\r\n";
    let mut buf = vec![0u8; 256 * 1024];

    // Measure the response length once (identical requests → identical
    // responses; the Date header is fixed-width by construction).
    stream.write_all(req).expect("write probe");
    std::thread::sleep(std::time::Duration::from_millis(50));
    let resp_len = stream.read(&mut buf).expect("read probe");
    let head = httpcore::parse_response_head(&buf[..resp_len])
        .expect("a complete head")
        .expect("a valid head");
    assert_eq!(head.status, 200);
    assert_eq!(resp_len, head.head_len + head.content_length, "one read");

    // Warmup: fault in every recycled buffer (parser scratch, head buffer,
    // read accumulation, stage histograms).
    run_burst(&mut stream, req, resp_len, &mut buf, 64);

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
