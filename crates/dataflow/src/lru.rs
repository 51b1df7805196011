//! A bounded least-recently-used map, the eviction list behind
//! [`Memo`](crate::Memo).
//!
//! The implementation is an intrusive doubly-linked list threaded through a
//! slot vector, with a [`HashMap`] from key to slot index: `get`, `insert`
//! and eviction are all `O(1)` (amortized, ignoring hashing). No external
//! crates, no unsafe — links are plain `usize` indices with `NIL` as the
//! null sentinel.

use std::collections::HashMap;
use std::hash::Hash;

/// Null link sentinel.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// Toward the most-recently-used end.
    prev: usize,
    /// Toward the least-recently-used end.
    next: usize,
}

/// A map bounded to `capacity` entries that evicts the least-recently-used
/// entry on overflow. Both `get` and `insert` count as a "use".
#[derive(Debug, Clone)]
pub(crate) struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most-recently-used slot (NIL when empty).
    head: usize,
    /// Least-recently-used slot (NIL when empty).
    tail: usize,
    /// Recycled slot indices.
    free: Vec<usize>,
    capacity: usize,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache bounded to `capacity` entries (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity: capacity.max(1),
            evictions: 0,
        }
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// The eviction bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted (not replaced or explicitly cleared) so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key`, marking the entry as most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &i = self.map.get(key)?;
        self.touch(i);
        Some(&self.slots[i].value)
    }

    /// Inserts or replaces `key`, marking it most recently used; evicts the
    /// least-recently-used entry when the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.touch(i);
            return;
        }
        if self.map.len() >= self.capacity {
            self.evict_tail();
        }
        let slot = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: self.head,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
        self.map.insert(key, i);
    }

    /// Drops every entry and resets the eviction counter. Capacity is kept.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.evictions = 0;
    }

    /// Unlinks slot `i` and re-links it at the head (most recently used).
    fn touch(&mut self, i: usize) {
        if self.head == i {
            return;
        }
        self.unlink(i);
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Removes slot `i` from the linked list (leaves the slot itself alone).
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Evicts the least-recently-used entry.
    fn evict_tail(&mut self) {
        let i = self.tail;
        if i == NIL {
            return;
        }
        self.unlink(i);
        self.map.remove(&self.slots[i].key);
        self.free.push(i);
        self.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3); // evicts "a"
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // "b" is now LRU
        c.insert("c", 3); // evicts "b"
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn insert_replaces_and_refreshes() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // replace, no eviction; "b" is LRU
        assert_eq!(c.evictions(), 0);
        c.insert("c", 3); // evicts "b"
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn clear_resets_entries_and_counter() {
        let mut c = LruCache::new(1);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.evictions(), 1);
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.capacity(), 1);
        c.insert("c", 3);
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut c = LruCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        let mut c = LruCache::new(8);
        for i in 0..1000u32 {
            c.insert(i, i * 2);
            assert!(c.len() <= 8);
        }
        assert_eq!(c.evictions(), 1000 - 8);
        for i in 992..1000 {
            assert_eq!(c.get(&i), Some(&(i * 2)));
        }
    }
}
