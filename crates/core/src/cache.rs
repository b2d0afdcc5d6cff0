//! An N-way sharded cache with least-recently-used eviction.
//!
//! The engine keeps two of these: distance fields keyed by query target
//! and final answers keyed by the whole query. A single global lock
//! would serialize every concurrent query on cache lookups even though
//! the cached values are immutable once built. Sharding by key hash
//! gives concurrent queries on different keys independent locks, and
//! callers build values *outside* the shard lock and insert them after,
//! so even same-shard misses never hold a lock across a build.
//!
//! Eviction is true LRU per shard: every hit stamps the entry with a
//! monotonically increasing shard tick, and when a shard overflows its
//! capacity the entry with the oldest stamp is removed. With per-shard
//! capacities in the tens, the eviction scan is a handful of loads —
//! no intrusive list needed.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Shard tick at last touch; smallest = least recently used.
    last_used: u64,
}

#[derive(Debug)]
struct Shard<K, V> {
    entries: HashMap<K, Entry<V>>,
    tick: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard { entries: HashMap::new(), tick: 0 }
    }
}

impl<K: Hash + Eq + Copy, V: Clone> Shard<K, V> {
    fn touch(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.value.clone())
    }

    /// Inserts (bumping recency) and evicts the LRU entry if over `cap`.
    fn insert(&mut self, key: K, value: V, cap: usize) -> usize {
        self.tick += 1;
        self.entries.insert(key, Entry { value, last_used: self.tick });
        let mut evicted = 0;
        while self.entries.len() > cap {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("overfull shard has a victim");
            self.entries.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

/// A sharded LRU map from `K` to `V`.
///
/// Values are cloned out on access, so `V` is typically an `Arc`.
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    shard_cap: usize,
}

impl<K: Hash + Eq + Copy, V: Clone> ShardedLru<K, V> {
    /// A cache of `shards` shards holding at most `capacity` entries in
    /// total (rounded up to a multiple of the shard count).
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity` is zero.
    #[must_use]
    pub fn new(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(capacity > 0, "at least one entry");
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: capacity.div_ceil(shards),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        // splitmix64 finalizer: spreads low-entropy hashes across shards.
        let mut h = hasher.finish();
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, bumping its recency on a hit.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key).lock().expect("cache shard poisoned").touch(key)
    }

    /// Inserts `key` (bumping recency), evicting the per-shard LRU entry
    /// if the shard overflows. Returns how many entries were evicted.
    pub fn insert(&self, key: K, value: V) -> usize {
        self.shard(&key).lock().expect("cache shard poisoned").insert(key, value, self.shard_cap)
    }

    /// Inserts `key` unless `keep` approves the value already cached
    /// under it, which then stays (with its recency bumped). The check
    /// and the insert share one shard lock, so a racing builder can never
    /// overwrite an entry `keep` protects. Returns how many entries were
    /// evicted.
    pub fn insert_unless<F: FnOnce(&V) -> bool>(&self, key: K, value: V, keep: F) -> usize {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if shard.entries.get(&key).is_some_and(|e| keep(&e.value)) {
            shard.touch(&key);
            return 0;
        }
        shard.insert(key, value, self.shard_cap)
    }

    /// Drops every entry (used when the keyed data is invalidated).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").entries.clear();
        }
    }

    /// Entries currently cached, across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").entries.len()).sum()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_recently_used_entry_is_the_one_evicted() {
        // One shard so the eviction order is fully observable.
        let cache: ShardedLru<u32, u32> = ShardedLru::new(1, 3);
        for k in [1, 2, 3] {
            assert_eq!(cache.insert(k, k * 10), 0);
        }
        // Recency now 1 < 2 < 3. Touch 1: recency 2 < 3 < 1.
        assert_eq!(cache.get(&1), Some(10));
        // Inserting a fourth entry must evict 2 — the least recently
        // used — not 1 (insertion-oldest) and not an arbitrary entry.
        assert_eq!(cache.insert(4, 40), 1);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(&2), None, "LRU entry evicted");
        assert_eq!(cache.get(&1), Some(10), "recently touched entry kept");
        assert_eq!(cache.get(&3), Some(30));
        assert_eq!(cache.get(&4), Some(40));
    }

    #[test]
    fn insert_unless_keeps_a_protected_entry() {
        let cache: ShardedLru<u32, u32> = ShardedLru::new(1, 2);
        assert_eq!(cache.insert_unless(1, 10, |_| unreachable!("nothing cached yet")), 0);
        // An unprotected entry is replaced...
        cache.insert_unless(1, 11, |&old| old > 100);
        assert_eq!(cache.get(&1), Some(11));
        // ...a protected one stays, and counts as recently used.
        cache.insert(2, 20);
        assert_eq!(cache.insert_unless(1, 12, |&old| old == 11), 0);
        assert_eq!(cache.insert(3, 30), 1);
        assert_eq!(cache.get(&2), None, "the kept entry was bumped past 2");
        assert_eq!(cache.get(&1), Some(11));
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache: ShardedLru<u32, u32> = ShardedLru::new(4, 64);
        for k in 0..32 {
            cache.insert(k, k);
        }
        assert_eq!(cache.len(), 32);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&0), None);
    }

    #[test]
    fn capacity_bounds_total_size_across_shards() {
        let cache: ShardedLru<u32, u32> = ShardedLru::new(4, 16);
        for k in 0..1000 {
            cache.insert(k, k);
        }
        // Per-shard cap is 4; hashing spreads keys, so the total stays at
        // or below shards * per-shard cap.
        assert!(cache.len() <= 16, "len {} exceeds capacity", cache.len());
    }

    #[test]
    fn concurrent_mixed_keys_stay_consistent() {
        let cache: ShardedLru<u32, u32> = ShardedLru::new(8, 64);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200 {
                        let k = (t * 7 + i) % 40;
                        cache.insert_unless(k, k * 2, |&old| old == k * 2);
                        if let Some(v) = cache.get(&k) {
                            assert_eq!(v, k * 2);
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 64);
    }
}
