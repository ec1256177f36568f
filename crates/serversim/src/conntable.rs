//! Slab-backed connection table for the simulators.
//!
//! The testbed used to key connection records on a `HashMap<ConnId, _>`
//! fed by a monotone counter. At a million simulated
//! connections the hash table is the dominant cost of every event dispatch
//! (hash, probe, chase) and of the churn path (rehash spikes). This table
//! stores records in a generation-tagged slab ([`connslab::Slab`]) and makes
//! the `ConnId` *be* the packed handle: lookups are a bounds-checked indexed
//! load plus a generation compare, and a stale id — a late event for a
//! connection that closed, even if its slot has since been reused — misses
//! exactly like a `HashMap` miss would.
//!
//! The packing keeps the low 32 bits a monotone insertion sequence, so
//! every `conn.0 % n` style round-robin in the testbed (shard picking, link
//! assignment) sees the same distribution the sequential counter produced.
//!
//! The API deliberately mirrors the `HashMap` surface the testbed already
//! used (`&ConnId` keys, `Index<&ConnId>`, `keys`/`values`/`iter`), so the
//! swap is mechanical; the one visible difference is that `iter` and `keys`
//! yield `ConnId` by value.

use connslab::{Handle, Slab};
use netsim::ConnId;
use std::ops::Index;

#[derive(Debug, Default)]
pub struct ConnTable<T> {
    slab: Slab<T>,
}

fn handle(id: &ConnId) -> Handle {
    Handle::from_raw(id.0)
}

impl<T> ConnTable<T> {
    pub fn new() -> ConnTable<T> {
        ConnTable { slab: Slab::new() }
    }

    pub fn len(&self) -> usize {
        self.slab.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Insert a record built from its own freshly minted id (connection
    /// records embed their `ConnId`, so the id must exist first).
    pub fn insert_with(&mut self, make: impl FnOnce(ConnId) -> T) -> ConnId {
        let h = self.slab.insert_with(|h| make(ConnId(h.raw())));
        ConnId(h.raw())
    }

    pub fn contains_key(&self, id: &ConnId) -> bool {
        self.slab.contains(handle(id))
    }

    pub fn get(&self, id: &ConnId) -> Option<&T> {
        self.slab.get(handle(id))
    }

    pub fn get_mut(&mut self, id: &ConnId) -> Option<&mut T> {
        self.slab.get_mut(handle(id))
    }

    pub fn remove(&mut self, id: &ConnId) -> Option<T> {
        self.slab.remove(handle(id))
    }

    pub fn iter(&self) -> impl Iterator<Item = (ConnId, &T)> {
        self.slab.iter().map(|(h, v)| (ConnId(h.raw()), v))
    }

    pub fn keys(&self) -> impl Iterator<Item = ConnId> + '_ {
        self.slab.iter().map(|(h, _)| ConnId(h.raw()))
    }

    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slab.iter().map(|(_, v)| v)
    }
}

impl<T> Index<&ConnId> for ConnTable<T> {
    type Output = T;

    fn index(&self, id: &ConnId) -> &T {
        self.get(id).expect("no record for connection id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_across_slot_reuse() {
        let mut t: ConnTable<u32> = ConnTable::new();
        let a = t.insert_with(|_| 1);
        assert_eq!(t[&a], 1);
        t.remove(&a);
        let b = t.insert_with(|_| 2);
        assert_ne!(a.0, b.0, "reused slot must mint a distinct ConnId");
        assert!(t.get(&a).is_none(), "stale id must miss, not alias");
        assert_eq!(t[&b], 2);
    }

    #[test]
    fn low_bits_stay_monotone_for_round_robin() {
        let mut t: ConnTable<()> = ConnTable::new();
        let mut prev = 0u64;
        for _ in 0..100 {
            let id = t.insert_with(|_| ());
            let seq = id.0 & 0xFFFF_FFFF;
            assert_eq!(seq, prev + 1);
            prev = seq;
            t.remove(&id);
        }
    }
}
