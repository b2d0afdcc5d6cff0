//! An N-way sharded cache with least-recently-used eviction.
//!
//! The engine keys distance fields by query target; a single global lock
//! would serialize every concurrent query on cache lookups even though
//! the fields themselves are immutable once built. Sharding by key hash
//! gives concurrent queries on different targets independent locks, and
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard(key)
            .lock()
            .expect("cache shard poisoned")
            .entries
            .remove(key)
            .map(|e| e.value)
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

/// What one flight is doing.
#[derive(Debug)]
enum FlightState<V> {
    /// The leader is still computing.
    Pending,
    /// The leader finished; waiters share this value.
    Done(V),
    /// The leader dropped its lease without completing (panic or early
    /// return); waiters must retry and elect a new leader.
    Abandoned,
}

/// One in-progress computation that concurrent lookups of the same key
/// attach to instead of recomputing.
#[derive(Debug)]
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
    /// Callers currently blocked on this flight (observability/tests).
    waiters: AtomicUsize,
}

/// The obligation a [`SingleflightCache::lookup`] miss hands its caller:
/// compute the value and [`FlightLease::complete`] it, waking every
/// waiter. Dropping the lease without completing marks the flight
/// abandoned, so waiters retry instead of hanging — a panicking leader
/// never strands its followers.
#[derive(Debug)]
pub struct FlightLease<'a, K: Hash + Eq + Copy, V: Clone> {
    cache: &'a SingleflightCache<K, V>,
    key: K,
    epoch: u64,
    completed: bool,
}

impl<K: Hash + Eq + Copy, V: Clone> FlightLease<'_, K, V> {
    /// Publishes `value` under the lease's key and epoch: inserts it into
    /// the LRU, then resolves the flight so every waiter receives a clone.
    /// Returns how many LRU entries were evicted to make room.
    pub fn complete(mut self, value: V) -> usize {
        self.completed = true;
        // LRU first, flight second: a lookup that finds the inflight map
        // empty is then guaranteed to see the value in the LRU (its
        // double-check runs under the inflight lock).
        let evicted = self.cache.lru.insert(self.key, (self.epoch, value.clone()));
        let flight = self.cache.inflight.lock().expect("inflight map poisoned").remove(&self.key);
        if let Some(flight) = flight {
            *flight.state.lock().expect("flight poisoned") = FlightState::Done(value);
            flight.cv.notify_all();
        }
        evicted
    }
}

impl<K: Hash + Eq + Copy, V: Clone> Drop for FlightLease<'_, K, V> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        let flight = self.cache.inflight.lock().expect("inflight map poisoned").remove(&self.key);
        if let Some(flight) = flight {
            *flight.state.lock().expect("flight poisoned") = FlightState::Abandoned;
            flight.cv.notify_all();
        }
    }
}

/// What one [`SingleflightCache::lookup`] produced.
#[derive(Debug)]
pub enum Lookup<'a, K: Hash + Eq + Copy, V: Clone> {
    /// A fresh (same-epoch) value was already cached.
    Hit(V),
    /// A concurrent leader computed the value while this caller waited —
    /// the call collapsed onto an in-progress flight.
    Shared(V),
    /// This caller is the leader: compute the value and
    /// [`FlightLease::complete`] it.
    Miss(FlightLease<'a, K, V>),
}

/// An epoch-stamped sharded LRU with singleflight collapsing.
///
/// Every cached value is stamped with the **epoch** of the data it was
/// derived from; a lookup presents the current epoch and a stamp mismatch
/// drops the entry instead of returning it, so a stale value can never be
/// served no matter how the underlying data mutated.
///
/// **Singleflight:** when several callers miss on the same key at once,
/// exactly one (the *leader*, handed a [`FlightLease`]) runs the
/// computation; the rest block on the flight's condvar and receive a
/// clone of the leader's value ([`Lookup::Shared`]). `V` is typically an
/// `Arc`, so "clone" is a refcount bump and N concurrent identical
/// queries cost one pipeline run plus N-1 pointer copies.
#[derive(Debug)]
pub struct SingleflightCache<K: Hash + Eq + Copy, V: Clone> {
    lru: ShardedLru<K, (u64, V)>,
    inflight: Mutex<HashMap<K, Arc<Flight<V>>>>,
}

impl<K: Hash + Eq + Copy, V: Clone> SingleflightCache<K, V> {
    /// A cache of `shards` LRU shards holding at most `capacity` entries
    /// in total.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity` is zero.
    #[must_use]
    pub fn new(shards: usize, capacity: usize) -> Self {
        SingleflightCache { lru: ShardedLru::new(shards, capacity), inflight: Mutex::new(HashMap::new()) }
    }

    /// Checks the stale-or-fresh state of `key` against the LRU only
    /// (no flight interaction). `Some(value)` iff a same-`epoch` entry is
    /// cached; a stale entry is dropped and counts as the returned
    /// `invalidated` flag.
    fn lru_probe(&self, key: &K, epoch: u64, invalidated: &mut bool) -> Option<V> {
        let (stamp, value) = self.lru.get(key)?;
        if stamp == epoch {
            return Some(value);
        }
        // Built against an older graph: drop it rather than serve it.
        self.lru.remove(key);
        *invalidated = true;
        None
    }

    /// Looks up `key` at `epoch`. The second return is whether a *stale*
    /// entry (wrong epoch) was found and dropped along the way.
    pub fn lookup(&self, key: K, epoch: u64) -> (Lookup<'_, K, V>, bool) {
        let mut invalidated = false;
        loop {
            if let Some(value) = self.lru_probe(&key, epoch, &mut invalidated) {
                return (Lookup::Hit(value), invalidated);
            }
            let flight = {
                let mut inflight = self.inflight.lock().expect("inflight map poisoned");
                match inflight.get(&key) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        // No flight. A just-finished leader removes its
                        // flight *after* filling the LRU, so re-probe under
                        // the inflight lock before claiming leadership —
                        // otherwise two pipeline runs could slip through
                        // the complete()-to-remove window.
                        if let Some(value) = self.lru_probe(&key, epoch, &mut invalidated) {
                            return (Lookup::Hit(value), invalidated);
                        }
                        inflight.insert(
                            key,
                            Arc::new(Flight {
                                state: Mutex::new(FlightState::Pending),
                                cv: Condvar::new(),
                                waiters: AtomicUsize::new(0),
                            }),
                        );
                        return (
                            Lookup::Miss(FlightLease { cache: self, key, epoch, completed: false }),
                            invalidated,
                        );
                    }
                }
            };
            flight.waiters.fetch_add(1, Ordering::SeqCst);
            let mut state = flight.state.lock().expect("flight poisoned");
            while matches!(*state, FlightState::Pending) {
                state = flight.cv.wait(state).expect("flight poisoned");
            }
            let outcome = match &*state {
                FlightState::Done(value) => Some(value.clone()),
                FlightState::Abandoned => None,
                FlightState::Pending => unreachable!("wait loop exits only on resolution"),
            };
            drop(state);
            flight.waiters.fetch_sub(1, Ordering::SeqCst);
            match outcome {
                Some(value) => return (Lookup::Shared(value), invalidated),
                // Leader bailed: go around and elect a new one.
                None => continue,
            }
        }
    }

    /// Entries currently cached (excludes in-progress flights).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache holds no completed entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Drops every cached entry (in-progress flights are unaffected).
    pub fn clear(&self) {
        self.lru.clear();
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

    #[test]
    fn insert_and_remove_round_trip() {
        let cache: ShardedLru<u32, u32> = ShardedLru::new(4, 8);
        assert_eq!(cache.insert(1, 10), 0);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.remove(&1), Some(10));
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.remove(&1), None);
    }

    #[test]
    fn singleflight_hit_after_complete_and_epoch_mismatch_invalidates() {
        let cache: SingleflightCache<u32, Arc<u32>> = SingleflightCache::new(4, 8);
        let (lookup, invalidated) = cache.lookup(7, 1);
        assert!(!invalidated);
        let Lookup::Miss(lease) = lookup else { panic!("empty cache must miss") };
        assert_eq!(lease.complete(Arc::new(70)), 0);
        assert_eq!(cache.len(), 1);

        // Same epoch: a plain hit.
        let (lookup, invalidated) = cache.lookup(7, 1);
        assert!(!invalidated);
        let Lookup::Hit(v) = lookup else { panic!("same-epoch lookup must hit") };
        assert_eq!(*v, 70);

        // Newer epoch: the stamped entry is stale — dropped, not served.
        let (lookup, invalidated) = cache.lookup(7, 2);
        assert!(invalidated, "stale entry must be counted as invalidated");
        let Lookup::Miss(lease) = lookup else { panic!("stale entry must not be served") };
        lease.complete(Arc::new(71));
        let (lookup, _) = cache.lookup(7, 2);
        let Lookup::Hit(v) = lookup else { panic!("re-completed entry must hit") };
        assert_eq!(*v, 71);
    }

    /// Deterministic collapse: the leader holds its flight open until all
    /// 7 followers are provably blocked on it (the flight's waiter count
    /// is observable from inside the module), so every follower *must*
    /// come back as `Shared` — no scheduling luck involved.
    #[test]
    fn singleflight_collapses_concurrent_lookups_onto_one_leader() {
        let cache: SingleflightCache<u32, Arc<u32>> = SingleflightCache::new(4, 8);
        let (lookup, _) = cache.lookup(9, 1);
        let Lookup::Miss(lease) = lookup else { panic!("first lookup leads") };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..7)
                .map(|_| {
                    let cache = &cache;
                    scope.spawn(move || match cache.lookup(9, 1) {
                        (Lookup::Shared(v), _) => *v,
                        (other, _) => panic!("follower got {other:?}, expected Shared"),
                    })
                })
                .collect();
            // Wait for every follower to be parked on the flight before
            // completing it.
            loop {
                let waiters = cache
                    .inflight
                    .lock()
                    .unwrap()
                    .get(&9)
                    .map_or(0, |f| f.waiters.load(Ordering::SeqCst));
                if waiters == 7 {
                    break;
                }
                std::thread::yield_now();
            }
            lease.complete(Arc::new(90));
            for h in handles {
                assert_eq!(h.join().unwrap(), 90);
            }
        });
        assert!(cache.inflight.lock().unwrap().is_empty(), "flight cleaned up");
        assert_eq!(cache.len(), 1);
    }

    /// A leader that drops its lease without completing (panic, early
    /// return) must not strand waiters: they retry and one becomes the
    /// new leader.
    #[test]
    fn abandoned_flight_elects_a_new_leader() {
        let cache: SingleflightCache<u32, Arc<u32>> = SingleflightCache::new(4, 8);
        let (lookup, _) = cache.lookup(3, 1);
        let Lookup::Miss(lease) = lookup else { panic!("first lookup leads") };
        std::thread::scope(|scope| {
            let follower = {
                let cache = &cache;
                scope.spawn(move || match cache.lookup(3, 1) {
                    (Lookup::Miss(lease), _) => {
                        lease.complete(Arc::new(30));
                        "promoted"
                    }
                    (Lookup::Shared(_), _) => "shared",
                    (Lookup::Hit(_), _) => "hit",
                })
            };
            loop {
                let waiters = cache
                    .inflight
                    .lock()
                    .unwrap()
                    .get(&3)
                    .map_or(0, |f| f.waiters.load(Ordering::SeqCst));
                if waiters == 1 {
                    break;
                }
                std::thread::yield_now();
            }
            drop(lease); // abandon without completing
            assert_eq!(follower.join().unwrap(), "promoted");
        });
        let (lookup, _) = cache.lookup(3, 1);
        let Lookup::Hit(v) = lookup else { panic!("promoted leader's value cached") };
        assert_eq!(*v, 30);
    }
}
