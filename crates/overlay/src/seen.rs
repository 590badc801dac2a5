//! A bounded first-in-first-out dedup cache for publication ids, and the
//! unkeyed hasher the overlay's id-keyed tables share.

use std::collections::{HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Hash state for tables keyed by integers **this process assigned**
/// ([`NodeId`](dps_sim::NodeId), [`PubId`](crate::PubId), interned label
/// ids): one rotate-xor-multiply round per word instead of SipHash's keyed
/// rounds. It is unkeyed, so whoever chooses the keys chooses the collisions
/// — never put it on a map keyed by anything a client wrote (labels,
/// attribute names), and, because it also fixes the bucket order, only on
/// tables that are never iterated (`docs/determinism.md`).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

/// `BuildHasher` of [`IdHasher`], for `HashMap<_, _, IdBuild>`.
pub(crate) type IdBuild = BuildHasherDefault<IdHasher>;

impl IdHasher {
    /// Odd 64-bit multiplier (the golden ratio's fraction): spreads an
    /// integer's low bits over the high ones hashbrown takes its tag from.
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Remembers the last `cap` inserted keys. Used to deduplicate publications at
/// each node without unbounded memory (events are short-lived: network-wide rates
/// in the paper's scenarios are ~1 event per 10 steps, so a few hundred entries
/// dwarf the in-flight window).
///
/// Storage is **lazy**: `cap` is a ceiling, not a preallocation. A fresh cache
/// owns no heap memory and grows geometrically with what it actually sees —
/// the difference between a metro-scale population fitting in RAM or not:
/// every `DpsNode` carries three of these (route dedup at `4 × seen_cap`,
/// node dedup at `seen_cap`, suspicion memory), and at the default
/// `seen_cap = 512` the old eager `with_capacity` reserved several hundred
/// kilobytes per node that idle nodes never touched. Capacity is invisible to
/// behavior (insert/evict order is unchanged), so traces stay byte-identical.
///
/// Every key type in use is a process-assigned integer id and the set is
/// never iterated (eviction order lives in the `VecDeque`), so it hashes with
/// [`IdHasher`].
#[derive(Debug, Clone)]
pub struct SeenCache<T> {
    cap: usize,
    set: HashSet<T, IdBuild>,
    order: VecDeque<T>,
}

impl<T: Eq + Hash + Clone> SeenCache<T> {
    /// Creates a cache remembering at most `cap` keys (minimum 1). Allocates
    /// nothing until the first insert.
    pub fn new(cap: usize) -> Self {
        SeenCache {
            cap: cap.max(1),
            set: HashSet::default(),
            order: VecDeque::new(),
        }
    }

    /// Inserts `key`; returns `true` if it was new. A duplicate — the common
    /// case on the publication path — costs one hash and one probe.
    pub fn insert(&mut self, key: T) -> bool {
        if !self.set.insert(key.clone()) {
            return false;
        }
        if self.order.len() == self.cap {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        self.order.push_back(key);
        true
    }

    /// Whether `key` is currently remembered.
    pub fn contains(&self, key: &T) -> bool {
        self.set.contains(key)
    }

    /// Forgets `key` (e.g. a suspicion contradicted by a live message).
    /// Returns whether the key was present.
    pub fn remove(&mut self, key: &T) -> bool {
        if self.set.remove(key) {
            self.order.retain(|k| k != key);
            true
        } else {
            false
        }
    }

    /// Number of remembered keys.
    #[allow(dead_code)] // exercised by tests; part of the cache's natural API
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the cache is empty.
    #[allow(dead_code)] // exercised by tests; part of the cache's natural API
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The cache against a plain `VecDeque` in insertion order: same
        /// answers, same FIFO victim at the cap, same size — whatever the
        /// hasher and however `insert` orders its set operations.
        #[test]
        fn matches_a_fifo_model(
            cap in proptest::sample::select(&[1usize, 2, 7, 512]),
            ops in proptest::collection::vec((0u8..4, 0u32..640), 0..1600),
        ) {
            let mut cache = SeenCache::new(cap);
            let mut model: VecDeque<u32> = VecDeque::new();
            for (op, key) in ops {
                match op {
                    0 | 1 => {
                        let fresh = !model.contains(&key);
                        let victim = (fresh && model.len() == cap).then(|| model.pop_front().unwrap());
                        if fresh {
                            model.push_back(key);
                        }
                        prop_assert_eq!(cache.insert(key), fresh);
                        if let Some(v) = victim {
                            prop_assert!(!cache.contains(&v), "cap {cap}: {v} outlived its eviction");
                        }
                    }
                    2 => prop_assert_eq!(cache.contains(&key), model.contains(&key)),
                    _ => {
                        let held = model.contains(&key);
                        model.retain(|k| *k != key);
                        prop_assert_eq!(cache.remove(&key), held);
                    }
                }
                prop_assert_eq!(cache.len(), model.len());
            }
            for key in 0..640 {
                prop_assert_eq!(cache.contains(&key), model.contains(&key));
            }
        }
    }

    /// The id hasher is a function of the words alone (no per-process key),
    /// and tells apart the keys the overlay uses it for.
    #[test]
    fn id_hasher_is_unkeyed_and_spreads_small_integers() {
        use std::hash::BuildHasher;
        let h = |k: (u64, u32)| IdBuild::default().hash_one(k);
        assert_eq!(h((3, 9)), h((3, 9)));
        let distinct: HashSet<u64> = (0..64u64)
            .flat_map(|n| (0..64u32).map(move |s| (n, s)))
            .map(h)
            .collect();
        assert_eq!(distinct.len(), 64 * 64);
        // hashbrown takes a bucket from the low bits and a tag from the top 7.
        let low: HashSet<u64> = (0..256u64)
            .map(|n| IdBuild::default().hash_one(n) & 0xff)
            .collect();
        let top: HashSet<u64> = (0..256u64)
            .map(|n| IdBuild::default().hash_one(n) >> 57)
            .collect();
        assert_eq!(low.len(), 256);
        assert!(top.len() > 100, "only {} of 128 tags in use", top.len());
    }

    #[test]
    fn dedups() {
        let mut c = SeenCache::new(4);
        assert!(c.insert(1));
        assert!(!c.insert(1));
        assert!(c.contains(&1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_oldest() {
        let mut c = SeenCache::new(2);
        c.insert(1);
        c.insert(2);
        c.insert(3); // evicts 1
        assert!(!c.contains(&1));
        assert!(c.contains(&2));
        assert!(c.contains(&3));
        assert!(c.insert(1)); // 1 can come back
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_cap_clamped() {
        let mut c = SeenCache::new(0);
        assert!(c.insert(9));
        assert!(c.contains(&9));
        assert!(!c.is_empty());
    }
}
