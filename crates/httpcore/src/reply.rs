//! Staged zero-copy response queue.
//!
//! The old reply path rendered a head into the connection's output buffer
//! and then **memcpy'd the whole body after it** — for a content store whose
//! entire point is that every body is a window into one shared arena, the
//! copy was pure overhead (and the dominant per-reply cost for large files).
//!
//! A [`ReplyQueue`] instead stages a response as segments: an owned head
//! (`Vec<u8>`) followed by an [`ArenaSlice`] body handle. Nothing is copied;
//! [`ReplyQueue::write_to`] hands the kernel both segments in one
//! `write_vectored` (writev) call with a cursor that spans segment
//! boundaries, so a partial write can land mid-head or mid-body and the next
//! call resumes exactly where the kernel stopped. Pipelined responses queue
//! as further segments and are coalesced into the same vectored call, up to
//! [`MAX_IOVECS`] iovecs per syscall.
//!
//! Head buffers are recycled through a **per-worker** [`HeadPool`] free
//! list: a steady-state connection serves every reply without allocating,
//! and an idle connection holds no spare buffers at all. (An earlier design
//! kept the free list inside each `ReplyQueue`; at a million mostly-idle
//! connections those per-connection spares dominate resident memory, so the
//! pool moved to the worker that owns the connections.)

use crate::content::ArenaSlice;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};

/// Segments handed to one `writev` call. 16 covers an 8-deep pipelined
/// burst of (head, body) pairs; deeper queues simply take another call.
pub const MAX_IOVECS: usize = 16;

/// Cap on recycled head buffers kept per pool (i.e. per worker thread).
const MAX_SPARE_HEADS: usize = 64;

/// A worker-owned free list of head buffers, shared by every connection the
/// worker serves. One pool amortises head allocations across the whole
/// worker instead of pinning up to [`MAX_SPARE_HEADS`] spare `Vec`s inside
/// each open connection.
#[derive(Debug, Default)]
pub struct HeadPool {
    spares: Vec<Vec<u8>>,
}

impl HeadPool {
    pub fn new() -> HeadPool {
        HeadPool::default()
    }

    /// A cleared head buffer, recycled when possible. Render a response
    /// head into it and hand it to [`ReplyQueue::push_head`].
    pub fn take(&mut self) -> Vec<u8> {
        self.spares.pop().unwrap_or_default()
    }

    /// Return a retired buffer for reuse (dropped once the pool is full).
    pub fn give(&mut self, mut buf: Vec<u8>) {
        if self.spares.len() < MAX_SPARE_HEADS {
            buf.clear();
            self.spares.push(buf);
        }
    }

    /// Buffers currently parked in the pool.
    pub fn spare_count(&self) -> usize {
        self.spares.len()
    }
}

/// One staged span of output bytes.
#[derive(Debug)]
enum Segment {
    /// Owned bytes: a response head (or any copied payload, e.g. an error
    /// response).
    Head(Vec<u8>),
    /// Zero-copy body: a window into the shared content arena.
    Body(ArenaSlice),
}

impl Segment {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Segment::Head(v) => v,
            Segment::Body(s) => s.as_bytes(),
        }
    }
}

/// Per-connection staged output: a FIFO of segments with a front cursor.
#[derive(Debug, Default)]
pub struct ReplyQueue {
    segs: VecDeque<Segment>,
    /// Bytes of the front segment already written.
    front_pos: usize,
    /// Total unwritten bytes across all segments.
    pending: usize,
}

impl ReplyQueue {
    pub fn new() -> ReplyQueue {
        ReplyQueue::default()
    }

    /// No bytes owed.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Unwritten bytes across all staged segments.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Stage owned bytes (a rendered head, taken from the worker's
    /// [`HeadPool`]). Empty buffers are returned to the pool rather than
    /// queued.
    pub fn push_head(&mut self, head: Vec<u8>, pool: &mut HeadPool) {
        if head.is_empty() {
            pool.give(head);
            return;
        }
        self.pending += head.len();
        self.segs.push_back(Segment::Head(head));
    }

    /// Stage a zero-copy body.
    pub fn push_body(&mut self, body: ArenaSlice) {
        if body.is_empty() {
            return;
        }
        self.pending += body.len();
        self.segs.push_back(Segment::Body(body));
    }

    /// Advance the cursor past `n` freshly written bytes, retiring (and
    /// recycling into `pool`) fully consumed segments.
    fn advance(&mut self, mut n: usize, pool: &mut HeadPool) {
        debug_assert!(n <= self.pending);
        self.pending -= n;
        while n > 0 {
            let front_len = self.segs.front().expect("bytes pending").as_bytes().len();
            let remaining = front_len - self.front_pos;
            if n < remaining {
                self.front_pos += n;
                return;
            }
            n -= remaining;
            self.front_pos = 0;
            if let Some(Segment::Head(buf)) = self.segs.pop_front() {
                pool.give(buf);
            }
        }
    }

    /// One vectored write of everything staged (up to [`MAX_IOVECS`]
    /// segments), resuming from the cursor. Returns the byte count the
    /// kernel accepted; `Ok(0)` only when the queue was already empty.
    ///
    /// Callers loop: non-blocking sockets stop on `WouldBlock` (re-arm for
    /// writability), blocking sockets stop when the queue drains.
    pub fn write_to<W: Write>(&mut self, w: &mut W, pool: &mut HeadPool) -> io::Result<usize> {
        if self.pending == 0 {
            return Ok(0);
        }
        let mut iov = [IoSlice::new(&[]); MAX_IOVECS];
        let mut n = 0;
        for seg in self.segs.iter().take(MAX_IOVECS) {
            let bytes = seg.as_bytes();
            // The cursor only ever rests inside the front segment.
            let bytes = if n == 0 {
                &bytes[self.front_pos..]
            } else {
                bytes
            };
            iov[n] = IoSlice::new(bytes);
            n += 1;
        }
        let written = w.write_vectored(&iov[..n])?;
        self.advance(written, pool);
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ContentStore;
    use desim::Rng;
    use workload::{FileId, FileSet, SurgeConfig};

    fn store() -> ContentStore {
        let mut rng = Rng::new(9);
        let fs = FileSet::build(
            &SurgeConfig {
                num_files: 10,
                tail_prob: 0.0,
                ..SurgeConfig::default()
            },
            &mut rng,
        );
        ContentStore::from_fileset(&fs)
    }

    /// A writer that accepts at most `limit` bytes per call — drives the
    /// cursor through every partial-write landing spot, including mid-head
    /// and mid-body.
    struct LimitedWriter {
        out: Vec<u8>,
        limit: usize,
    }

    impl Write for LimitedWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.limit);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
        // Default write_vectored delegates to write() on the first
        // non-empty buffer, which is exactly the partial-write shape we
        // want to exercise.
    }

    fn drain_through(queue: &mut ReplyQueue, pool: &mut HeadPool, limit: usize) -> Vec<u8> {
        let mut w = LimitedWriter {
            out: Vec::new(),
            limit,
        };
        while !queue.is_empty() {
            let n = queue.write_to(&mut w, pool).expect("infallible writer");
            assert!(n > 0, "no progress");
        }
        w.out
    }

    /// Reference rendering: the old copying path (head bytes then body
    /// bytes appended into one Vec).
    fn reference(head: &[u8], body: &[u8]) -> Vec<u8> {
        let mut v = head.to_vec();
        v.extend_from_slice(body);
        v
    }

    #[test]
    fn staged_bytes_identical_to_copying_path() {
        let s = store();
        for limit in [1, 3, 7, 1024, usize::MAX] {
            let mut q = ReplyQueue::new();
            let mut pool = HeadPool::new();
            let head = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n".to_vec();
            let body = s.body_slice(FileId(3));
            let expect = reference(&head, body.as_bytes());
            q.push_head(head, &mut pool);
            q.push_body(body);
            assert_eq!(q.pending(), expect.len());
            let got = drain_through(&mut q, &mut pool, limit);
            assert_eq!(got, expect, "limit {limit}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn cursor_survives_mid_head_and_mid_body_landings() {
        let s = store();
        let head = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
        let body = s.body_slice(FileId(1));
        let expect = reference(&head, body.as_bytes());
        // limit 1: every single byte boundary is a landing spot, so the
        // cursor provably rests mid-head and mid-body along the way.
        let mut q = ReplyQueue::new();
        let mut pool = HeadPool::new();
        q.push_head(head, &mut pool);
        q.push_body(body);
        let got = drain_through(&mut q, &mut pool, 1);
        assert_eq!(got, expect);
    }

    #[test]
    fn pipelined_replies_coalesce_and_stay_ordered() {
        let s = store();
        let mut q = ReplyQueue::new();
        let mut pool = HeadPool::new();
        let mut expect = Vec::new();
        for id in [0u32, 1, 2, 3, 4] {
            let head = format!("HEAD-{id}\r\n\r\n").into_bytes();
            let body = s.body_slice(FileId(id));
            expect.extend_from_slice(&head);
            expect.extend_from_slice(body.as_bytes());
            q.push_head(head, &mut pool);
            q.push_body(body);
        }
        // More than MAX_IOVECS segments would also work — just more calls.
        let got = drain_through(&mut q, &mut pool, 37);
        assert_eq!(got, expect);
    }

    #[test]
    fn deep_queues_exceeding_max_iovecs_drain_completely() {
        let s = store();
        let mut q = ReplyQueue::new();
        let mut pool = HeadPool::new();
        let mut expect = Vec::new();
        for i in 0..(MAX_IOVECS * 2 + 3) {
            let head = format!("H{i}|").into_bytes();
            let body = s.body_slice(FileId((i % 10) as u32));
            expect.extend_from_slice(&head);
            expect.extend_from_slice(body.as_bytes());
            q.push_head(head, &mut pool);
            q.push_body(body);
        }
        let got = drain_through(&mut q, &mut pool, usize::MAX);
        assert_eq!(got, expect);
    }

    #[test]
    fn head_buffers_are_recycled_not_reallocated() {
        let mut q = ReplyQueue::new();
        let mut pool = HeadPool::new();
        let mut buf = pool.take();
        buf.extend_from_slice(b"first response head");
        let cap_hint = buf.capacity();
        q.push_head(buf, &mut pool);
        assert_eq!(pool.spare_count(), 0);
        let _ = drain_through(&mut q, &mut pool, usize::MAX);
        // The drained head comes back to the worker pool, cleared but with
        // its allocation intact.
        assert_eq!(pool.spare_count(), 1);
        let again = pool.take();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap_hint);
    }

    #[test]
    fn pool_is_shared_across_queues_and_bounded() {
        // The point of the worker-level pool: buffers retired by one
        // connection serve the next, and an idle queue holds none.
        let mut pool = HeadPool::new();
        let mut q1 = ReplyQueue::new();
        q1.push_head(b"reply-1".to_vec(), &mut pool);
        let _ = drain_through(&mut q1, &mut pool, usize::MAX);
        assert_eq!(pool.spare_count(), 1);
        let mut q2 = ReplyQueue::new();
        let reused = pool.take();
        assert_eq!(pool.spare_count(), 0);
        q2.push_head(reused, &mut pool); // empty: straight back to the pool
        assert_eq!(pool.spare_count(), 1);
        // The cap bounds pool growth no matter how many heads retire.
        for _ in 0..200 {
            pool.give(Vec::with_capacity(8));
        }
        assert!(pool.spare_count() <= 64, "pool must stay bounded");
    }

    #[test]
    fn empty_queue_writes_nothing() {
        let mut q = ReplyQueue::new();
        let mut pool = HeadPool::new();
        let mut w = LimitedWriter {
            out: Vec::new(),
            limit: 1024,
        };
        assert_eq!(q.write_to(&mut w, &mut pool).unwrap(), 0);
        assert!(w.out.is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn head_only_replies_flush() {
        // 304/404/HEAD responses have no body segment at all.
        let mut q = ReplyQueue::new();
        let mut pool = HeadPool::new();
        q.push_head(b"HTTP/1.1 304 Not Modified\r\n\r\n".to_vec(), &mut pool);
        q.push_head(b"HTTP/1.1 404 Not Found\r\n\r\n".to_vec(), &mut pool);
        let got = drain_through(&mut q, &mut pool, 5);
        assert_eq!(
            got,
            b"HTTP/1.1 304 Not Modified\r\n\r\nHTTP/1.1 404 Not Found\r\n\r\n".to_vec()
        );
    }
}
