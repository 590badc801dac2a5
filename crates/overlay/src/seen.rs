//! A bounded first-in-first-out dedup cache for publication ids, and the
//! unkeyed hasher the overlay's id-keyed tables share.

use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

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
/// Each live key is stored **once**, in a ring in arrival order; an
/// open-addressing table of ring positions (linear probing, 4 bytes a slot,
/// load ≤ ½) finds it. At the cap the oldest key is overwritten in place and
/// `head` advances — that *is* the FIFO eviction — and its table slot is
/// closed by backward-shift deletion, so the table holds no tombstones and
/// never fills: every probe ends at an empty slot. With the packed keys the
/// overlay uses (8 and 12 bytes) a full cache costs 16–20 bytes a key.
///
/// Storage is **lazy**: `cap` is a ceiling, not a preallocation. A fresh cache
/// owns no heap memory; the ring doubles up to `cap` (never past it) and the
/// table is rebuilt beside it, at twice the ring's room — the difference
/// between a metro-scale population fitting in RAM or not: every `DpsNode`
/// carries three of these (route dedup at `4 × SEEN_CAP`, node dedup at
/// `SEEN_CAP`, suspicion memory) and most nodes see a handful of keys.
/// Capacity is invisible to behavior (insert/evict order is unchanged), so
/// traces stay byte-identical.
///
/// Every key type in use is a process-assigned integer id, the table is never
/// iterated and the ring only in arrival order, so it hashes with the
/// crate's unkeyed id hasher (`docs/determinism.md`).
#[derive(Debug, Clone)]
pub struct SeenCache<T> {
    cap: usize,
    /// The live keys, oldest at `head`, in arrival order from there (wrapping).
    ring: Vec<T>,
    /// Ring position of the oldest key; nonzero only while the ring is full.
    head: usize,
    /// Ring position + 1 of the key hashed to each slot, 0 for an empty slot.
    /// A power of two at least twice the ring's room, or empty (fresh cache).
    index: Vec<u32>,
}

impl<T: Eq + Hash> SeenCache<T> {
    /// Creates a cache remembering at most `cap` keys (minimum 1). Allocates
    /// nothing until the first insert.
    pub fn new(cap: usize) -> Self {
        SeenCache {
            // Positions are stored as `u32`s, one past.
            cap: cap.clamp(1, u32::MAX as usize),
            ring: Vec::new(),
            head: 0,
            index: Vec::new(),
        }
    }

    /// Inserts `key`; returns `true` if it was new. A duplicate — the common
    /// case on the publication path — costs one hash and one probe.
    pub fn insert(&mut self, key: T) -> bool {
        // The empty slot the key's probe ended at: where it is linked, unless
        // the table changes first (an eviction shifts entries, growth rebuilds).
        let mut free = None;
        if !self.ring.is_empty() {
            match self.probe(&key) {
                Ok(_) => return false,
                Err(slot) => free = Some(slot),
            }
        }
        let pos = if self.ring.len() == self.cap {
            let pos = self.head;
            let slot = self
                .find(&self.ring[pos])
                .expect("every live key is indexed");
            self.unlink(slot);
            free = None;
            self.ring[pos] = key;
            self.head = (pos + 1) % self.cap;
            pos
        } else {
            if self.ring.len() == self.index.len() / 2 {
                self.grow();
                free = None;
            }
            self.ring.push(key);
            self.ring.len() - 1
        };
        match free {
            Some(slot) => self.index[slot] = pos as u32 + 1,
            None => self.link(pos),
        }
        true
    }

    /// Whether `key` is currently remembered.
    pub fn contains(&self, key: &T) -> bool {
        self.find(key).is_some()
    }

    /// Forgets `key` (e.g. a suspicion contradicted by a live message).
    /// Returns whether the key was present. An absent key — the common case —
    /// costs one probe; a present one straightens the ring and re-indexes it.
    pub fn remove(&mut self, key: &T) -> bool {
        let Some(slot) = self.find(key) else {
            return false;
        };
        let pos = self.index[slot] as usize - 1;
        let len = self.ring.len();
        self.ring.rotate_left(self.head);
        self.ring.remove((pos + len - self.head) % len);
        self.head = 0;
        // Same table: the ring shrank, so the load only fell, and the next
        // pushes refill room the table was already sized for.
        self.index.fill(0);
        self.reindex();
        true
    }

    /// Number of remembered keys.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Heap bytes this cache owns (ring plus table).
    pub fn heap_bytes(&self) -> usize {
        self.ring.capacity() * size_of::<T>() + self.index.capacity() * size_of::<u32>()
    }

    /// The slot holding `key`'s position, if it is remembered. An empty cache
    /// answers without hashing (a fresh one has no table to probe).
    fn find(&self, key: &T) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        self.probe(key).ok()
    }

    /// The slot holding `key`'s position, or else the empty slot its probe
    /// ended at. Terminates because the table is never more than half full.
    fn probe(&self, key: &T) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut slot = self.home(key);
        loop {
            match self.index[slot] {
                0 => return Err(slot),
                p if self.ring[p as usize - 1] == *key => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Where `key`'s probe starts: the top bits of its hash (the multiply in
    /// `IdHasher` leaves the entropy there).
    fn home(&self, key: &T) -> usize {
        let bits = self.index.len().trailing_zeros();
        (IdBuild::default().hash_one(key) >> (u64::BITS - bits)) as usize
    }

    /// Indexes the key at ring position `pos`, which no slot points at yet.
    fn link(&mut self, pos: usize) {
        let slot = self
            .probe(&self.ring[pos])
            .expect_err("a key is linked once");
        self.index[slot] = pos as u32 + 1;
    }

    /// Empties `hole` by backward-shift deletion: every later entry of the
    /// cluster whose probe passes through the hole moves down into it.
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut slot = (hole + 1) & mask;
        while self.index[slot] != 0 {
            let home = self.home(&self.ring[self.index[slot] as usize - 1]);
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[slot];
                hole = slot;
            }
            slot = (slot + 1) & mask;
        }
        self.index[hole] = 0;
    }

    /// Doubles the ring's room (4 keys at first, `cap` at most) and rebuilds
    /// the table at twice that. Called only with the ring at its room, which
    /// is a power of two until it is `cap`, so `index.len() / 2` is the room.
    fn grow(&mut self) {
        let room = (2 * self.ring.len()).max(4).min(self.cap);
        self.ring.reserve_exact(room - self.ring.len());
        self.index = vec![0; (2 * room).next_power_of_two()];
        self.reindex();
    }

    /// Fills an all-empty table from the ring.
    fn reindex(&mut self) {
        for pos in 0..self.ring.len() {
            self.link(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashSet, VecDeque};
    use std::fmt::Debug;

    use proptest::prelude::*;

    use super::*;

    /// The cache beside its model, a plain `VecDeque` in arrival order: every
    /// call is made on both and must agree — same answers, same FIFO victim
    /// at the cap, same size — and the table must stay at most half full
    /// (a probe over a full table never ends).
    struct Checked<T> {
        cap: usize,
        cache: SeenCache<T>,
        model: VecDeque<T>,
    }

    impl<T: Eq + Hash + Copy + Debug> Checked<T> {
        fn new(cap: usize) -> Self {
            Checked {
                cap,
                cache: SeenCache::new(cap),
                model: VecDeque::new(),
            }
        }

        fn insert(&mut self, key: T) {
            let fresh = !self.model.contains(&key);
            if fresh {
                if self.model.len() == self.cap {
                    self.model.pop_front();
                }
                self.model.push_back(key);
            }
            assert_eq!(self.cache.insert(key), fresh, "insert {key:?}");
            self.check();
        }

        fn remove(&mut self, key: T) {
            let held = self.model.contains(&key);
            self.model.retain(|k| *k != key);
            assert_eq!(self.cache.remove(&key), held, "remove {key:?}");
            self.check();
        }

        fn check(&self) {
            let SeenCache {
                cap,
                ring,
                head,
                index,
            } = &self.cache;
            assert_eq!(ring.len(), self.model.len());
            assert_eq!(self.cache.is_empty(), self.model.is_empty());
            assert!(ring.len() <= *cap && ring.capacity() <= (*cap).max(4));
            assert!(index.len() >= 2 * ring.len(), "table over half full");
            let live = index.iter().filter(|p| **p != 0).count();
            assert_eq!(live, ring.len(), "a slot leaked or was lost");
            let in_order = ring[*head..].iter().chain(&ring[..*head]);
            assert!(in_order.eq(&self.model), "ring out of arrival order");
        }

        /// Every key of `universe` answers as the model says.
        fn check_answers(&self, universe: impl Iterator<Item = T>) {
            for key in universe {
                assert_eq!(
                    self.cache.contains(&key),
                    self.model.contains(&key),
                    "contains {key:?}"
                );
            }
        }
    }

    /// Runs `ops` — `(op, key)`, two inserts to one lookup to one remove —
    /// over keys `pack(0..span)`.
    fn run_ops<T: Eq + Hash + Copy + Debug>(cap: usize, ops: &[(u8, u32)], pack: fn(u32) -> T) {
        let span = (cap + cap / 4 + 3) as u32;
        let mut c = Checked::new(cap);
        for &(op, key) in ops {
            let key = pack(key % span);
            match op {
                0 | 1 => c.insert(key),
                2 => assert_eq!(c.cache.contains(&key), c.model.contains(&key)),
                _ => c.remove(key),
            }
        }
        c.check_answers((0..span).map(pack));
    }

    // The two packed key shapes the overlay stores (`node::pub_key`,
    // `node::route_key`), injective in `k`.
    fn pair(k: u32) -> (u32, u32) {
        (k % 5, k / 5)
    }

    fn triple(k: u32) -> (u32, u32, u32) {
        (k % 3, k / 3, k % 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Whatever the cap, the key shape and the order of operations; the
        /// sequences wrap the ring many times over at the small caps and
        /// fill it past eviction at the large ones.
        #[test]
        fn matches_a_fifo_model(
            cap in proptest::sample::select(&[1usize, 2, 3, 7, 8, 512, 2048]),
            shape in 0u8..3,
            ops in proptest::collection::vec((0u8..4, 0u32..u32::MAX), 0..6000),
        ) {
            match shape {
                0 => run_ops(cap, &ops, |k| k),
                1 => run_ops(cap, &ops, pair),
                _ => run_ops(cap, &ops, triple),
            }
        }
    }

    /// At every fill level, one real `remove` (oldest, middle or newest key)
    /// and then fresh keys up to the cap and 2 × cap past it: the table the
    /// remove rebuilt must still fit the ring once it has refilled — or the
    /// next probe of an absent key never returns.
    #[test]
    fn refills_after_a_remove_at_every_fill_level() {
        for cap in [7usize, 8, 128] {
            // `cap + 3`: a full ring whose head has moved off position 0.
            for fill in 0..=cap + 3 {
                for which in 0..3 {
                    let mut c = Checked::new(cap);
                    let mut fresh = 0u32..;
                    for key in fresh.by_ref().take(fill) {
                        c.insert(pair(key));
                    }
                    let victim = match (c.model.len(), which) {
                        (0, _) => u32::MAX, // nothing to remove: an absent key
                        (len, 0) => fill as u32 - len as u32,
                        (len, 1) => fill as u32 - len as u32 / 2 - 1,
                        _ => fill as u32 - 1,
                    };
                    c.remove(pair(victim));
                    for key in fresh.by_ref().take(3 * cap) {
                        c.insert(pair(key));
                        assert!(!c.cache.contains(&pair(u32::MAX)));
                    }
                    assert_eq!(c.cache.len(), cap);
                    c.check_answers((0..(fill + 3 * cap) as u32).map(pair));
                }
            }
        }
    }

    /// A fresh cache owns no heap, whatever is asked of it, and a cache's
    /// common traffic — duplicate inserts, removes of absent keys — touches
    /// neither of its two allocations.
    #[test]
    fn no_allocation_until_a_fresh_key() {
        let mut c: SeenCache<(u32, u32)> = SeenCache::new(512);
        assert!(!c.contains(&(1, 1)) && !c.remove(&(1, 1)) && c.is_empty());
        assert_eq!(c.heap_bytes(), 0);

        for k in 0..100 {
            c.insert(pair(k));
        }
        let before = (c.ring.as_ptr(), c.index.as_ptr(), c.heap_bytes());
        for k in 0..100 {
            assert!(!c.insert(pair(k)));
            assert!(!c.remove(&pair(1000 + k)));
        }
        assert_eq!((c.ring.as_ptr(), c.index.as_ptr(), c.heap_bytes()), before);
        assert_eq!(c.len(), 100);
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
