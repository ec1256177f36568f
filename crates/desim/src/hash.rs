//! One integer hasher for the simulators' id-keyed maps.
//!
//! The models key maps on ids they mint themselves — connection, flow and
//! job ids, all `u64` newtypes — and look them up on every event. std's
//! default hasher, SipHash-1-3 with a random key, defends against
//! adversarial keys a simulation never sees, and costs more per lookup than
//! the lookup's probe. [`IntHasher`] folds each integer written into it with
//! a rotate, an xor and one multiply by 2⁶⁴/φ (Fibonacci hashing): the
//! product's low bits, which pick the bucket, are a bijection of the key's
//! low bits, so a run of sequential ids fills buckets without collisions,
//! and its high bits mix every key bit.
//!
//! The hasher has no random state, so a map's layout is a function of its
//! history alone; the models still never let iteration order reach a result.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by simulator ids, hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` of simulator ids, hashed with [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// The hasher behind [`IntMap`] and [`IntSet`]; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

/// ⌊2⁶⁴/φ⌋, odd.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IntHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(GOLDEN);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn sequential_ids_fill_distinct_buckets() {
        // 1,024 buckets: the low ten bits of the hash.
        let mut buckets: Vec<u64> = (0..1024u64).map(|i| hash_of(i) & 1023).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(buckets.len(), 1024);
    }

    #[test]
    fn maps_behave_like_maps() {
        let mut m: IntMap<u64, u32> = IntMap::default();
        for i in 0..10_000u64 {
            m.insert(i << 32 | i, i as u32);
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.remove(&(7 << 32 | 7)), Some(7));
        assert!(!m.contains_key(&(7 << 32 | 7)));
        let mut s: IntSet<u32> = IntSet::default();
        assert!(s.insert(3) && !s.insert(3));
        assert_ne!(hash_of(1u8), hash_of(2u8));
        assert_eq!(hash_of((5u64, "x")), hash_of((5u64, "x")));
    }
}
