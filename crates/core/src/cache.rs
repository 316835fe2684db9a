//! The shared stamp-based LRU map behind the prover's text-keyed caches.
//!
//! Extracted from PR 4's `SEARCH_MEMO` so its eviction machinery — a
//! monotonic access clock stamping entries on every hit and insert, a
//! capacity bound, and *batch* eviction (a quarter of the capacity at a
//! time, so a saturated cache pays the O(n) stamp scan once per batch
//! instead of once per insert) — is one implementation serving the search
//! memo, the stage-① parse cache and the stage-② normalize cache.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

struct LruEntry<V> {
    value: V,
    stamp: u64,
}

/// A capacity-bounded map with least-recently-used batch eviction.
pub(crate) struct LruMap<K, V> {
    entries: HashMap<K, LruEntry<V>>,
    /// Monotonic access clock stamping entries on every hit and insert.
    clock: u64,
    /// Maximum entry count; inserts beyond it evict in LRU order.
    capacity: usize,
}

impl<K: Eq + Hash, V: Clone> LruMap<K, V> {
    /// An empty map bounded to `capacity` entries (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        LruMap { entries: HashMap::new(), clock: 0, capacity: capacity.max(1) }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up `key`, refreshing its recency stamp on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let stamp = self.tick();
        let entry = self.entries.get_mut(key)?;
        entry.stamp = stamp;
        Some(entry.value.clone())
    }

    /// Inserts `key`, evicting the least recently used entries first when
    /// the table is full. Returns how many entries the insert evicted.
    pub fn insert(&mut self, key: K, value: V) -> u64 {
        let mut evicted = 0;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let to_evict = (self.capacity / 4).max(1);
            let mut stamps: Vec<u64> = self.entries.values().map(|entry| entry.stamp).collect();
            stamps.sort_unstable();
            let cutoff = stamps[(to_evict - 1).min(stamps.len() - 1)];
            let before = self.entries.len();
            self.entries.retain(|_, entry| entry.stamp > cutoff);
            evicted = (before - self.entries.len()) as u64;
        }
        let stamp = self.tick();
        self.entries.insert(key, LruEntry { value, stamp });
        evicted
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The current capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reconfigures the capacity (clamped to at least 1), evicting down to
    /// the new bound immediately in LRU order. Returns how many entries were
    /// evicted. A no-op when the capacity is unchanged.
    pub fn set_capacity(&mut self, capacity: usize) -> u64
    where
        K: Clone,
    {
        let capacity = capacity.max(1);
        if capacity == self.capacity {
            return 0;
        }
        self.capacity = capacity;
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(key, _)| key.clone())
                .expect("non-empty map");
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }

    /// Drops every entry (capacity and clock are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_and_eviction_is_lru() {
        let mut map = LruMap::new(4);
        for i in 0..4 {
            assert_eq!(map.insert(i, i * 10), 0);
        }
        // Refresh 0 so it is the most recently used, then overflow: the
        // batch eviction (quarter capacity = 1) must drop the stalest key.
        assert_eq!(map.get(&0), Some(0));
        let evicted = map.insert(4, 40);
        assert_eq!(evicted, 1);
        assert!(map.len() <= 4);
        assert_eq!(map.get(&1), None, "the least recently used entry must go first");
        assert_eq!(map.get(&0), Some(0), "the refreshed entry must survive");
    }

    #[test]
    fn shrinking_capacity_evicts_down_immediately() {
        let mut map = LruMap::new(8);
        for i in 0..6 {
            map.insert(i, i);
        }
        let evicted = map.set_capacity(2);
        assert_eq!(evicted, 4);
        assert_eq!(map.len(), 2);
        // Clamped to at least one entry; unchanged capacity is a no-op.
        assert_eq!(map.set_capacity(0), 1);
        assert_eq!(map.capacity(), 1);
        assert_eq!(map.set_capacity(1), 0);
    }

    #[test]
    fn replacing_an_existing_key_does_not_evict() {
        let mut map = LruMap::new(2);
        map.insert("a".to_string(), 1);
        map.insert("b".to_string(), 2);
        assert_eq!(map.insert("a".to_string(), 3), 0);
        assert_eq!(map.len(), 2);
        // Borrowed-key lookups work (`&str` against `String` keys).
        assert_eq!(map.get("a"), Some(3));
    }
}
