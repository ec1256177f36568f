//! The pending-event set.
//!
//! The engine is generic over an [`EventQueue`]; the one implementation is
//! [`BinaryHeapQueue`], a binary-heap future-event list whose push/pop cost
//! the benchmark's `desim.queue_push_pop_ns` replay times. An
//! implementation must be a *stable* priority queue: events with equal
//! timestamps dequeue in insertion order, which the engine relies on for
//! deterministic causality (see `engine::Engine`).
//!
//! Every push returns an [`EventId`], and [`EventQueue::remove`] takes the
//! entry out of the set in O(log n). A cancelled event therefore leaves no
//! tombstone behind: `len` and `peek_time` describe exactly the events that
//! will be delivered.

use crate::time::SimTime;

/// A scheduled entry: timestamp, a monotone sequence number for FIFO
/// tie-breaking, and the payload.
#[derive(Debug)]
pub struct Scheduled<E> {
    pub time: SimTime,
    pub seq: u64,
    pub event: E,
}

/// Handle on a pushed entry, usable for removal while the entry is pending.
///
/// A handle names a slot of the queue plus the slot's generation. The
/// generation advances whenever the slot is vacated, so the handle of an
/// entry that was popped or removed is *stale*: removing it is a no-op,
/// even after the slot holds a newer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    generation: u32,
}

/// A pending-event set: push timestamped events, pop them in nondecreasing
/// time order with FIFO tie-breaking, remove them by handle.
pub trait EventQueue<E> {
    /// Add an entry; the handle removes it while it is still pending.
    fn push(&mut self, entry: Scheduled<E>) -> EventId;
    /// Take the earliest pending entry.
    fn pop(&mut self) -> Option<Scheduled<E>>;
    /// Take the entry `id` names out of the set. `None` when the handle is
    /// stale: its entry was already popped or removed.
    fn remove(&mut self, id: EventId) -> Option<Scheduled<E>>;
    /// Timestamp of the earliest pending entry, if any.
    fn peek_time(&self) -> Option<SimTime>;
    /// Number of pending entries.
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One heap position: the ordering key and the slot holding the payload.
/// Kept small and `Copy` so sifting moves 24 bytes, not the event.
#[derive(Debug, Clone, Copy)]
struct Node {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Node {
    #[inline]
    fn before(&self, other: &Node) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

/// Where a slot's entry sits in the heap (meaningless while the slot is
/// vacant), and the slot's generation. Vacating a slot advances its
/// generation past every handle issued on it, so a generation match alone
/// proves the handle's entry is still pending.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    pos: u32,
    generation: u32,
}

/// The future-event list: an indexed binary min-heap on `(time, seq)`.
/// O(log n) push, pop and remove. Payloads live in a slab of slots beside
/// the heap; each slot records its entry's heap position, which every sift
/// keeps current, so a handle finds its entry in O(1).
#[derive(Debug)]
pub struct BinaryHeapQueue<E> {
    heap: Vec<Node>,
    slots: Vec<SlotMeta>,
    events: Vec<Option<E>>,
    /// Vacant slots, reused last-in first-out.
    free: Vec<u32>,
}

impl<E> BinaryHeapQueue<E> {
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            events: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Write `node` at heap position `i` and record the position in its
    /// slot.
    #[inline]
    fn place(&mut self, i: usize, node: Node) {
        self.heap[i] = node;
        self.slots[node.slot as usize].pos = i as u32;
    }

    /// Move `node`, destined for the hole at `i`, up past every later
    /// ancestor.
    fn sift_up(&mut self, mut i: usize, node: Node) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.heap[parent];
            if !node.before(&above) {
                break;
            }
            self.place(i, above);
            i = parent;
        }
        self.place(i, node);
    }

    /// Move `node`, destined for the hole at `i`, down past every earlier
    /// descendant.
    fn sift_down(&mut self, mut i: usize, node: Node) {
        let end = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= end {
                break;
            }
            if child + 1 < end && self.heap[child + 1].before(&self.heap[child]) {
                child += 1;
            }
            let below = self.heap[child];
            if !below.before(&node) {
                break;
            }
            self.place(i, below);
            i = child;
        }
        self.place(i, node);
    }

    /// Vacate `slot`, returning its payload; the generation bump makes
    /// every handle on it stale.
    fn release(&mut self, slot: u32) -> E {
        let meta = &mut self.slots[slot as usize];
        meta.generation = meta.generation.wrapping_add(1);
        self.free.push(slot);
        self.events[slot as usize]
            .take()
            .expect("an occupied slot holds its event")
    }
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> for BinaryHeapQueue<E> {
    fn push(&mut self, entry: Scheduled<E>) -> EventId {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(entry.event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending events");
                self.slots.push(SlotMeta {
                    pos: 0,
                    generation: 0,
                });
                self.events.push(Some(entry.event));
                slot
            }
        };
        let node = Node {
            time: entry.time,
            seq: entry.seq,
            slot,
        };
        let i = self.heap.len();
        self.heap.push(node);
        self.sift_up(i, node);
        EventId {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&root) => {
                self.sift_down(0, last);
                root
            }
            None => last,
        };
        Some(Scheduled {
            time: top.time,
            seq: top.seq,
            event: self.release(top.slot),
        })
    }

    fn remove(&mut self, id: EventId) -> Option<Scheduled<E>> {
        let meta = *self.slots.get(id.slot as usize)?;
        if meta.generation != id.generation {
            return None;
        }
        let i = meta.pos as usize;
        let gone = self.heap[i];
        let last = self.heap.pop().expect("a pending entry is in the heap");
        if i < self.heap.len() {
            // Fill the hole with the former last entry, which may belong
            // above or below it.
            if i > 0 && last.before(&self.heap[(i - 1) / 2]) {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
        Some(Scheduled {
            time: gone.time,
            seq: gone.seq,
            event: self.release(gone.slot),
        })
    }

    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|n| n.time)
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: u64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            time: SimTime::from_nanos(t),
            seq,
            event: t * 1000 + seq,
        }
    }

    fn drain<Q: EventQueue<u64>>(q: &mut Q) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(s) = q.pop() {
            out.push((s.time.as_nanos(), s.seq));
        }
        out
    }

    #[test]
    fn heap_orders_by_time_then_seq() {
        let mut q = BinaryHeapQueue::new();
        q.push(entry(5, 0));
        q.push(entry(3, 1));
        q.push(entry(5, 2));
        q.push(entry(1, 3));
        assert_eq!(drain(&mut q), vec![(1, 3), (3, 1), (5, 0), (5, 2)]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = BinaryHeapQueue::new();
        for i in 0..200u64 {
            h.push(entry((i * 37) % 1009, i));
        }
        let mut popped = 0;
        while let Some(pt) = h.peek_time() {
            assert_eq!(h.pop().unwrap().time, pt);
            popped += 1;
        }
        assert_eq!(popped, 200);
        assert!(h.pop().is_none());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn remove_takes_the_entry_out_and_keeps_the_order() {
        let mut q = BinaryHeapQueue::new();
        let ids: Vec<EventId> = (0..50u64)
            .map(|i| q.push(entry((i * 13) % 17, i)))
            .collect();
        for &i in &[0usize, 7, 21, 49] {
            let gone = q.remove(ids[i]).expect("pending");
            assert_eq!(gone.seq, i as u64);
            assert_eq!(gone.event, ((i as u64 * 13) % 17) * 1000 + i as u64);
        }
        assert_eq!(q.len(), 46);
        let mut want: Vec<(u64, u64)> = (0..50u64)
            .filter(|i| ![0, 7, 21, 49].contains(i))
            .map(|i| ((i * 13) % 17, i))
            .collect();
        want.sort();
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn stale_handles_remove_nothing() {
        let mut q = BinaryHeapQueue::new();
        let popped = q.push(entry(1, 0));
        let removed = q.push(entry(2, 1));
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.remove(popped).is_none(), "already popped");
        assert!(q.remove(removed).is_some());
        assert!(q.remove(removed).is_none(), "already removed");
        // Both slots are reused by new entries; the old handles still miss.
        let a = q.push(entry(3, 2));
        let b = q.push(entry(4, 3));
        assert!(q.remove(popped).is_none() && q.remove(removed).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.remove(b).unwrap().seq, 3);
        assert_eq!(q.remove(a).unwrap().seq, 2);
        assert!(q.is_empty());
    }
}
