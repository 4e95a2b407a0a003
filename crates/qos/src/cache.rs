//! The sharded, lock-striped LRU result cache: [`ResultCache`].

use std::collections::hash_map::{DefaultHasher, Entry as MapEntry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use tnn_trace::lock::{LockRank, OrderedMutex};

/// Result-cache tuning knobs.
///
/// ```
/// use tnn_qos::CacheConfig;
///
/// let cfg = CacheConfig::new().capacity(8192).shards(16);
/// assert!(cfg.enabled);
/// assert!(!CacheConfig::disabled().enabled);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Whether a front-end should consult the cache at all. `false`
    /// reproduces uncached serving exactly (every lookup is a bypass).
    pub enabled: bool,
    /// Total entry bound over all shards (clamped to at least one entry
    /// per shard).
    pub capacity: usize,
    /// Lock stripes; rounded up to a power of two, clamped to ≥ 1. More
    /// shards mean less contention between concurrent workers.
    pub shards: usize,
}

impl CacheConfig {
    /// Enabled, 4096 entries over 8 shards.
    pub fn new() -> Self {
        CacheConfig {
            enabled: true,
            capacity: 4096,
            shards: 8,
        }
    }

    /// A disabled cache (every lookup bypasses).
    pub fn disabled() -> Self {
        CacheConfig {
            enabled: false,
            ..CacheConfig::new()
        }
    }

    /// Sets the total entry bound.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the lock-stripe count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::new()
    }
}

tnn_trace::stats! {
    /// Aggregate cache counters, folded over all shards.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Probes that found a value.
        pub hits: u64 => "tnn_cache_hits_total", "Probes that hit",
        /// Probes that found none.
        pub misses: u64 => "tnn_cache_misses_total", "Probes that missed",
        /// Values stored (fresh keys and overwrites alike).
        pub insertions: u64 => "tnn_cache_insertions_total", "Values stored",
        /// Entries dropped to make room (LRU victims).
        pub evictions: u64 => "tnn_cache_evictions_total",
            "Entries dropped to make room (LRU victims)",
        /// Live entries at snapshot time.
        pub len: usize => "tnn_cache_len", "Live entries",
    }
}

impl CacheStats {
    /// Hit fraction of all probes, 0.0 on an unprobed cache.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }

    /// Publishes the cache counters into `registry` under `tnn_cache_*`
    /// names. Every field of this snapshot except `len` only grows, so
    /// repeated publications are monotone (Prometheus counter
    /// semantics); `len` is a gauge.
    pub fn publish_metrics(&self, registry: &tnn_trace::MetricsRegistry) {
        self.publish_series(registry, "");
    }
}

/// Slot index used as "no link" in the intrusive LRU list.
const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// One lock stripe: a hash map into a slab of entries threaded on an
/// intrusive most-recent-first list, so every operation is O(1).
struct Shard<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Option<Entry<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    /// This stripe's counters; `len` is read off `map` at snapshot time.
    stats: CacheStats,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            stats: CacheStats::default(),
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "intrusive-list invariant: every slot reachable through head/tail/prev/next links is occupied, checked by the stripe's debug asserts"
    )]
    fn entry(&self, slot: usize) -> &Entry<K, V> {
        self.slots[slot].as_ref().expect("linked slot is occupied")
    }

    #[expect(
        clippy::expect_used,
        reason = "intrusive-list invariant: every slot reachable through head/tail/prev/next links is occupied, checked by the stripe's debug asserts"
    )]
    fn entry_mut(&mut self, slot: usize) -> &mut Entry<K, V> {
        self.slots[slot].as_mut().expect("linked slot is occupied")
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let e = self.entry(slot);
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.entry_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entry_mut(n).prev = prev,
        }
    }

    fn link_front(&mut self, slot: usize) {
        let old_head = self.head;
        {
            let e = self.entry_mut(slot);
            e.prev = NIL;
            e.next = old_head;
        }
        match old_head {
            NIL => self.tail = slot,
            h => self.entry_mut(h).prev = slot,
        }
        self.head = slot;
    }

    /// Removes `slot` entirely, returning its entry to the free list.
    fn remove(&mut self, slot: usize) {
        self.unlink(slot);
        #[expect(
            clippy::expect_used,
            reason = "remove() is only called with slots found via the map or the LRU tail, both of which point at occupied slots"
        )]
        let entry = self.slots[slot].take().expect("removed slot was occupied");
        self.map.remove(&entry.key);
        self.free.push(slot);
    }

    fn lookup(&mut self, key: &K) -> Option<V> {
        let Some(&slot) = self.map.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.unlink(slot);
        self.link_front(slot);
        self.stats.hits += 1;
        Some(self.entry(slot).value.clone())
    }

    fn insert(&mut self, key: K, value: V) {
        self.stats.insertions += 1;
        if let MapEntry::Occupied(occupied) = self.map.entry(key.clone()) {
            let slot = *occupied.get();
            self.entry_mut(slot).value = value;
            self.unlink(slot);
            self.link_front(slot);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.remove(victim);
            self.stats.evictions += 1;
        }
        let entry = Entry {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(entry);
                slot
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.link_front(slot);
    }
}

/// A sharded, lock-striped LRU cache.
///
/// Keys route to one of `shards` stripes by hash; each stripe is an
/// independent O(1) LRU under its own mutex, so concurrent workers only
/// contend when their keys collide on a stripe. An entry lives until
/// LRU eviction: the cache never ages entries out, so a caller whose
/// data can change puts its version into the key (`tnn_core::QueryKey`
/// carries the environment's epoch and fingerprint). Values are
/// returned by clone — the intended value type (a query outcome) is
/// cheap relative to recomputing it over a broadcast cycle.
///
/// ```
/// use tnn_qos::{CacheConfig, ResultCache};
///
/// let cache: ResultCache<u64, String> = ResultCache::new(CacheConfig::new().capacity(128));
/// assert_eq!(cache.lookup(&7), None);
/// cache.insert(7, "answer".into());
/// assert_eq!(cache.lookup(&7), Some("answer".into()));
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct ResultCache<K, V> {
    shards: Vec<OrderedMutex<Shard<K, V>>>,
    mask: u64,
}

// Shard<K, V> has no Debug bound on K/V; keep the derive-free impl tiny.
impl<K, V> std::fmt::Debug for Shard<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("len", &self.map.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ResultCache<K, V> {
    /// A cache sized by `config` ([`CacheConfig::enabled`] is the
    /// *caller's* switch — a constructed cache always works).
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1).next_power_of_two();
        let per_shard = config.capacity.div_ceil(shards).max(1);
        ResultCache {
            shards: (0..shards)
                .map(|_| OrderedMutex::new(LockRank::QosCacheStripe, Shard::new(per_shard)))
                .collect(),
            mask: shards as u64 - 1,
        }
    }

    fn shard(&self, key: &K) -> &OrderedMutex<Shard<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() & self.mask) as usize]
    }

    /// Probes the cache: the stored value on a hit, which also moves
    /// the entry to most-recently-used; `None` on a miss.
    pub fn lookup(&self, key: &K) -> Option<V> {
        self.shard(key).lock().lookup(key)
    }

    /// Stores `value` under `key`, evicting the stripe's
    /// least-recently-used entry if it is full. An existing entry is
    /// overwritten and moved to most-recently-used.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key).lock().insert(key, value);
    }

    /// Live entries over all stripes.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// `true` when no stripe holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters folded over all stripes.
    pub fn stats(&self) -> CacheStats {
        let stripes: Vec<CacheStats> = self
            .shards
            .iter()
            .map(|shard| {
                let shard = shard.lock();
                CacheStats {
                    len: shard.map.len(),
                    ..shard.stats
                }
            })
            .collect();
        CacheStats::fold(&stripes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(capacity: usize, shards: usize) -> ResultCache<u64, u64> {
        ResultCache::new(CacheConfig::new().capacity(capacity).shards(shards))
    }

    #[test]
    fn hit_returns_the_stored_value() {
        let cache = small(16, 1);
        assert_eq!(cache.lookup(&1), None);
        cache.insert(1, 100);
        cache.insert(2, 200);
        assert_eq!(cache.lookup(&1), Some(100));
        assert_eq!(cache.lookup(&2), Some(200));
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 1, 2));
        assert!(stats.hit_rate() > 0.6);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // One shard so recency order is global.
        let cache = small(3, 1);
        for k in 0..3 {
            cache.insert(k, k * 10);
        }
        // Touch 0 so 1 becomes the LRU, then overflow.
        assert_eq!(cache.lookup(&0), Some(0));
        cache.insert(3, 30);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.lookup(&1), None, "LRU victim");
        assert_eq!(cache.lookup(&0), Some(0));
        assert_eq!(cache.lookup(&2), Some(20));
        assert_eq!(cache.lookup(&3), Some(30));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn overwrite_refreshes_value_and_recency() {
        let cache = small(2, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11); // overwrite: 2 is now the LRU
        cache.insert(3, 30);
        assert_eq!(cache.lookup(&2), None);
        assert_eq!(cache.lookup(&1), Some(11));
        assert_eq!(cache.lookup(&3), Some(30));
    }

    #[test]
    fn shards_split_the_capacity_and_keys() {
        let cache = small(64, 4);
        for k in 0..64u64 {
            cache.insert(k, k);
        }
        // Per-shard LRU may evict unevenly, but the total stays bounded
        // and most keys survive.
        assert!(cache.len() <= 64);
        assert!(cache.len() >= 32);
        let hits = (0..64u64).filter(|k| cache.lookup(k).is_some()).count();
        assert!(hits >= 32);
    }

    #[test]
    fn concurrent_probes_and_inserts_stay_consistent() {
        let cache = std::sync::Arc::new(small(256, 8));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        let key = (t * 31 + i) % 97;
                        match cache.lookup(&key) {
                            Some(v) => assert_eq!(v, key * 2),
                            None => cache.insert(key, key * 2),
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4000);
        assert!(stats.len <= 97);
    }
}
