//! `connslab` — generation-tagged slab storage for per-connection state.
//!
//! A million open connections is a memory/state problem before it is a CPU
//! problem: per-connection `HashMap` entries cost hashing on every event,
//! scatter connection state across the heap, and make any full-table
//! maintenance scan O(total-ever-opened buckets). A [`Slab`] instead keeps
//! connections in a dense `Vec` whose slots are recycled through a LIFO free
//! list, so
//!
//! * a [`Handle`] lookup is two bounds-free-after-the-first-check array
//!   steps (index, then a generation compare) — no hashing;
//! * storage never exceeds the *peak* number of simultaneously live
//!   connections, regardless of how many have ever been opened;
//! * iteration walks `O(peak live)` contiguous slots, not hash buckets.
//!
//! **Generation tags.** Slot reuse creates an aliasing hazard the old
//! sequential-token scheme never had: a stale reference to a closed
//! connection (a queued selector event, an in-flight deadline-wheel entry, a
//! drain list) must not resolve to whatever connection now occupies the
//! reused slot. Every insertion therefore stamps the slot with a fresh
//! sequence number drawn from a slab-wide monotone counter, and the
//! [`Handle`] carries that stamp: a lookup whose stamp disagrees with the
//! slot's current one returns `None`, exactly as a `HashMap` miss on a
//! never-reused key would.
//!
//! **Packed representation.** A handle packs to a single `u64`
//! (`index << 32 | seq`) suitable for use as a selector token:
//!
//! * `seq` is never 0, so a packed handle is never 0 (token 0 is the
//!   waker's in the live server);
//! * the index is capped at 2³⁰ slots, so a packed handle is `< 2⁶²`,
//!   comfortably below the live server's listener-token range at
//!   `usize::MAX / 2`;
//! * the low 32 bits are the slab-wide insertion sequence — monotone per
//!   insertion — so consumers that derive placement from the low bits of a
//!   connection id (the sim's SO_REUSEPORT shard hash) observe the same
//!   round-robin spread as with sequential ids.

/// Hard cap on slot indices so packed handles stay below `usize::MAX / 2`
/// (the live server's listener-token base) with room to spare.
const MAX_SLOTS: u32 = 1 << 30;

/// A generation-tagged reference to a slab slot.
///
/// Copyable, `!= 0` when packed, and stale-safe: after the referenced entry
/// is removed, the handle keeps failing lookups forever (until the slab-wide
/// 32-bit insertion counter wraps — four billion insertions — by which time
/// any stale selector event or wheel entry is long gone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle {
    idx: u32,
    seq: u32,
}

impl Handle {
    /// Slot index (dense: `< capacity()` of the owning slab).
    #[inline]
    pub fn index(self) -> u32 {
        self.idx
    }

    /// Generation stamp (never 0 for a handle produced by `insert`).
    #[inline]
    pub fn seq(self) -> u32 {
        self.seq
    }

    /// Pack to `idx << 32 | seq`. Never 0; always `< 2^62`.
    #[inline]
    pub fn raw(self) -> u64 {
        ((self.idx as u64) << 32) | self.seq as u64
    }

    /// Unpack a raw value. Total (never panics): garbage input yields a
    /// handle that fails every lookup, matching `HashMap` miss semantics.
    #[inline]
    pub fn from_raw(raw: u64) -> Handle {
        Handle {
            idx: (raw >> 32) as u32,
            seq: raw as u32,
        }
    }
}

#[derive(Debug)]
struct Slot<T> {
    /// Stamp of the current occupant; 0 while vacant.
    seq: u32,
    val: Option<T>,
}

/// A slab of `T` with generation-tagged handles and dense slot reuse.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Vacant slot indices, reused LIFO so the occupied prefix stays dense
    /// and recently-freed slots (warm cache lines) are reused first.
    free: Vec<u32>,
    len: usize,
    /// Slab-wide insertion counter; the next handle's stamp. Starts at 1
    /// and skips 0 on wrap so a live slot's stamp is never the vacant
    /// marker.
    next_seq: u32,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    pub fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            next_seq: 1,
        }
    }

    pub fn with_capacity(cap: usize) -> Slab<T> {
        Slab {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            len: 0,
            next_seq: 1,
        }
    }

    /// Live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots ever materialised — the high-watermark of simultaneously live
    /// entries, *not* the total ever inserted.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn fresh_seq(&mut self) -> u32 {
        let seq = self.next_seq;
        self.next_seq = match self.next_seq.wrapping_add(1) {
            0 => 1,
            n => n,
        };
        seq
    }

    /// Insert a value, returning its handle.
    pub fn insert(&mut self, val: T) -> Handle {
        self.insert_with(|_| val)
    }

    /// Insert a value built from its own handle (for entries that must
    /// record their identity, e.g. a sim connection carrying its id).
    pub fn insert_with(&mut self, make: impl FnOnce(Handle) -> T) -> Handle {
        let seq = self.fresh_seq();
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let idx = self.slots.len() as u32;
                assert!(idx < MAX_SLOTS, "connslab exceeded 2^30 live entries");
                self.slots.push(Slot { seq: 0, val: None });
                idx
            }
        };
        let h = Handle { idx, seq };
        let slot = &mut self.slots[idx as usize];
        debug_assert!(slot.val.is_none(), "free-listed slot was occupied");
        slot.seq = seq;
        slot.val = Some(make(h));
        self.len += 1;
        h
    }

    #[inline]
    fn slot(&self, h: Handle) -> Option<&Slot<T>> {
        self.slots
            .get(h.idx as usize)
            .filter(|s| s.seq == h.seq && h.seq != 0)
    }

    /// Look up a live entry; `None` for stale or garbage handles.
    #[inline]
    pub fn get(&self, h: Handle) -> Option<&T> {
        self.slot(h).and_then(|s| s.val.as_ref())
    }

    #[inline]
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        match self.slots.get_mut(h.idx as usize) {
            Some(s) if s.seq == h.seq && h.seq != 0 => s.val.as_mut(),
            _ => None,
        }
    }

    #[inline]
    pub fn contains(&self, h: Handle) -> bool {
        self.slot(h).is_some()
    }

    /// Remove and return a live entry; stale handles remove nothing.
    pub fn remove(&mut self, h: Handle) -> Option<T> {
        match self.slots.get_mut(h.idx as usize) {
            Some(s) if s.seq == h.seq && h.seq != 0 => {
                let val = s.val.take();
                debug_assert!(val.is_some(), "stamped slot had no value");
                s.seq = 0;
                self.free.push(h.idx);
                self.len -= 1;
                val
            }
            _ => None,
        }
    }

    /// Iterate live entries in slot order: `O(capacity)` ≈ `O(peak live)`.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            let val = s.val.as_ref()?;
            Some((
                Handle {
                    idx: i as u32,
                    seq: s.seq,
                },
                val,
            ))
        })
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Handle, &mut T)> {
        self.slots.iter_mut().enumerate().filter_map(|(i, s)| {
            let val = s.val.as_mut()?;
            Some((
                Handle {
                    idx: i as u32,
                    seq: s.seq,
                },
                val,
            ))
        })
    }

    /// Keep entries for which `keep` returns true; drop the rest.
    pub fn retain(&mut self, mut keep: impl FnMut(Handle, &mut T) -> bool) {
        for i in 0..self.slots.len() {
            let slot = &mut self.slots[i];
            let Some(val) = slot.val.as_mut() else {
                continue;
            };
            let h = Handle {
                idx: i as u32,
                seq: slot.seq,
            };
            if !keep(h, val) {
                slot.val = None;
                slot.seq = 0;
                self.free.push(i as u32);
                self.len -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(a), None);
        assert_eq!(s.get(b), Some(&"b"));
    }

    #[test]
    fn stale_handle_never_aliases_reused_slot() {
        let mut s = Slab::new();
        let old = s.insert(1u32);
        s.remove(old);
        let new = s.insert(2u32);
        // The slot is reused (dense) ...
        assert_eq!(new.index(), old.index());
        // ... but the stale handle keeps missing, in every access form.
        assert_eq!(s.get(old), None);
        assert_eq!(s.get_mut(old), None);
        assert!(!s.contains(old));
        assert_eq!(s.remove(old), None);
        assert_eq!(s.get(new), Some(&2));
    }

    #[test]
    fn capacity_tracks_peak_not_total() {
        let mut s = Slab::new();
        // 1000 sequential open/close cycles with ≤ 3 live at once.
        let mut live = Vec::new();
        for i in 0..1000u32 {
            live.push(s.insert(i));
            if live.len() > 3 {
                let h = live.remove(0);
                assert_eq!(s.remove(h), Some(i - 3));
            }
        }
        assert!(s.capacity() <= 4, "capacity {} > peak live", s.capacity());
    }

    #[test]
    fn packed_raw_roundtrips_and_respects_token_invariants() {
        let mut s = Slab::new();
        for i in 0..100u32 {
            let h = s.insert(i);
            let raw = h.raw();
            assert_ne!(raw, 0, "packed handle must never be the waker token");
            assert!(raw < u64::MAX / 2, "packed handle in listener range");
            assert_eq!(Handle::from_raw(raw), h);
            assert_eq!(s.get(Handle::from_raw(raw)), Some(&i));
        }
    }

    #[test]
    fn low_bits_are_monotone_insertion_sequence() {
        let mut s = Slab::new();
        let mut prev = 0u32;
        for i in 0..50u32 {
            let h = s.insert(i);
            assert_eq!(h.seq(), prev + 1, "seq must increment per insertion");
            prev = h.seq();
            if i % 3 == 0 {
                s.remove(h);
            }
        }
    }

    #[test]
    fn garbage_raw_handles_are_total() {
        let s: Slab<u8> = Slab::new();
        for raw in [0u64, 1, u64::MAX, u64::MAX / 2, 1 << 32] {
            assert_eq!(s.get(Handle::from_raw(raw)), None);
        }
    }

    #[test]
    fn iter_and_retain_walk_live_entries() {
        let mut s = Slab::new();
        let hs: Vec<_> = (0..10u32).map(|i| s.insert(i)).collect();
        for h in hs.iter().step_by(2) {
            s.remove(*h);
        }
        let seen: Vec<u32> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![1, 3, 5, 7, 9]);
        s.retain(|_, v| *v > 4);
        let seen: Vec<u32> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![5, 7, 9]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn seq_wrap_skips_zero() {
        let mut s: Slab<u8> = Slab::new();
        s.next_seq = u32::MAX;
        let a = s.insert(1);
        assert_eq!(a.seq(), u32::MAX);
        let b = s.insert(2);
        assert_eq!(b.seq(), 1, "wrap must skip the vacant marker 0");
        assert_eq!(s.get(a), Some(&1));
        assert_eq!(s.get(b), Some(&2));
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut s: Slab<u32> = Slab::new();
        let hs: Vec<Handle> = (0..4).map(|v| s.insert(v)).collect();
        s.remove(hs[1]);
        s.remove(hs[3]);
        assert_eq!(s.insert(10).index(), 3, "most recently freed first");
        assert_eq!(s.insert(11).index(), 1);
        assert_eq!(s.insert(12).index(), 4, "then a fresh slot");
        assert_eq!(s.capacity(), 5);
    }

    #[test]
    fn insert_with_sees_its_own_handle() {
        let mut s: Slab<Handle> = Slab::new();
        let a = s.insert_with(|h| h);
        s.remove(a);
        let b = s.insert_with(|h| h);
        assert_eq!(s.get(b), Some(&b));
        assert_eq!(b.index(), a.index());
        assert_ne!(b, a);
    }

    #[test]
    fn stale_handles_neither_mutate_nor_remove() {
        let mut s: Slab<u32> = Slab::new();
        let old = s.insert(1);
        s.remove(old);
        let new = s.insert(2);
        assert_eq!(new.index(), old.index());
        assert!(s.get_mut(old).is_none());
        assert_eq!(s.remove(old), None);
        assert!(!s.contains(old));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(new), Some(&2));
    }

    #[test]
    fn retained_out_entries_free_their_slots() {
        let mut s: Slab<u32> = Slab::with_capacity(8);
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 0, "reserving is not materialising");
        let hs: Vec<Handle> = (0..6).map(|v| s.insert(v)).collect();
        s.retain(|_, v| *v >= 3);
        assert!(hs[..3].iter().all(|&h| !s.contains(h)));
        assert_eq!(s.len(), 3);
        for v in 0..3 {
            assert!(s.insert(100 + v).index() < 3, "freed slots come back");
        }
        assert_eq!(s.capacity(), 6);
    }

    #[test]
    fn iter_mut_edits_live_entries_in_place() {
        let mut s: Slab<u32> = Slab::default();
        let a = s.insert(1);
        let b = s.insert(2);
        let gone = s.insert(3);
        s.remove(gone);
        for (_, v) in s.iter_mut() {
            *v *= 10;
        }
        assert_eq!(s.get(a), Some(&10));
        assert_eq!(s.get(b), Some(&20));
        assert_eq!(s.iter_mut().count(), 2);
    }
}
