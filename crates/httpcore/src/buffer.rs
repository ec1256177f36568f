//! A growable byte buffer with cheap front consumption.
//!
//! The parser needs to accumulate bytes from nonblocking reads and consume
//! complete requests off the front while keeping pipelined leftovers. This
//! is a minimal `BytesMut`: contiguous storage, an offset for consumed
//! bytes, and amortised compaction so the offset never grows unboundedly.

/// Read-accumulation buffer.
#[derive(Debug, Default)]
pub struct ReadBuf {
    data: Vec<u8>,
    /// Bytes before this offset have been consumed.
    start: usize,
}

impl ReadBuf {
    pub fn new() -> Self {
        ReadBuf {
            data: Vec::new(),
            start: 0,
        }
    }

    pub fn with_capacity(cap: usize) -> Self {
        ReadBuf {
            data: Vec::with_capacity(cap),
            start: 0,
        }
    }

    /// Unconsumed bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..]
    }

    /// Number of unconsumed bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append incoming bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.maybe_compact();
        self.data.extend_from_slice(bytes);
    }

    /// Mark `n` unconsumed bytes as consumed (panics if n > len: consuming
    /// bytes that never arrived is a parser bug).
    pub fn consume(&mut self, n: usize) {
        assert!(
            n <= self.len(),
            "consume({n}) beyond buffer ({})",
            self.len()
        );
        self.start += n;
        if self.start == self.data.len() {
            self.data.clear();
            self.start = 0;
        }
    }

    /// Compact when the dead prefix dominates the allocation.
    fn maybe_compact(&mut self) {
        if self.start > 4096 && self.start * 2 >= self.data.len() {
            self.data.copy_within(self.start.., 0);
            self.data.truncate(self.data.len() - self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_and_consume() {
        let mut b = ReadBuf::new();
        assert!(b.is_empty());
        b.extend(b"hello ");
        b.extend(b"world");
        assert_eq!(b.as_slice(), b"hello world");
        b.consume(6);
        assert_eq!(b.as_slice(), b"world");
        b.consume(5);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "consume")]
    fn over_consume_panics() {
        let mut b = ReadBuf::new();
        b.extend(b"hi");
        b.consume(3);
    }

    #[test]
    fn compaction_keeps_contents() {
        let mut b = ReadBuf::new();
        let chunk = vec![7u8; 1024];
        for _ in 0..16 {
            b.extend(&chunk);
        }
        b.consume(10_000);
        let before: Vec<u8> = b.as_slice().to_vec();
        b.extend(b"tail");
        let mut expect = before;
        expect.extend_from_slice(b"tail");
        assert_eq!(b.as_slice(), &expect[..]);
    }

    #[test]
    fn full_consume_resets_storage() {
        let mut b = ReadBuf::new();
        b.extend(b"abc");
        b.consume(3);
        b.extend(b"xyz");
        assert_eq!(b.as_slice(), b"xyz");
    }
}
