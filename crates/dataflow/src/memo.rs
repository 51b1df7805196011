//! One memoized, coalescing computation table: a bounded LRU of finished
//! results and the computations still in flight, under one lock.
//!
//! The tiling search ([`search_dataflow`](crate::search_dataflow)), the
//! planner's per-`(layer, arch)` tiling and the analysis service's rendered
//! responses are all memoized through [`Memo::get_or_compute`], the only
//! code that looks a key up, coalesces, computes and admits the result.
//! A caller that misses the LRU joins the key's *flight*: the first caller
//! to reach it (the *leader*) computes, and the others wait for that
//! result. Because the leader admits its result and retires the flight in
//! one critical section, no caller can fall between "not cached" and "not
//! in flight": `misses` counts exactly the computations that ran, and every
//! lookup counts exactly one of `hits`, `misses` and `coalesced`. The
//! computation must be deterministic — every waiting caller receives a
//! clone of the leader's result.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::lru::LruCache;

/// How [`Memo::get_or_compute`] answered one lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Answered from a resident entry.
    Hit,
    /// Computed by this caller, the flight's leader.
    Miss,
    /// Answered by a concurrent identical computation this caller waited
    /// for.
    Coalesced,
}

/// Counters and occupancy of one [`Memo`]. Each counter counts the
/// lookups answered that way since the last [`Memo::clear`]; a lookup whose
/// computation panicked is not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that ran the computation.
    pub misses: u64,
    /// Lookups answered by sharing a concurrent identical computation
    /// (neither a hit nor a computed miss).
    pub coalesced: u64,
    /// Entries dropped by LRU eviction since the last [`Memo::clear`].
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// The LRU bound ([`Memo::new`]).
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What the one lock guards: resident results, and the computations in
/// flight for keys that are not resident. A flight holds its result once
/// the leader has computed it; waiters block in [`OnceLock::get_or_init`].
struct Table<K, V> {
    lru: LruCache<K, V>,
    flights: HashMap<K, Arc<OnceLock<V>>>,
}

/// A bounded, coalescing memo of a deterministic computation per key.
///
/// No caller code (`compute`, `keep`) runs under the memo's lock, so a
/// panicking computation cannot poison it, and distinct keys compute
/// concurrently.
pub struct Memo<K, V> {
    table: Mutex<Table<K, V>>,
    /// Lookups answered each way, indexed by [`Lookup`].
    counts: [AtomicU64; 3],
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// An empty memo bounded to `capacity` resident entries (clamped to
    /// ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Memo {
            table: Mutex::new(Table {
                lru: LruCache::new(capacity),
                flights: HashMap::new(),
            }),
            counts: Default::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Table<K, V>> {
        self.table.lock().expect("memo lock poisoned")
    }

    /// The value for `key`: the resident entry, a concurrent identical
    /// computation's result, or `compute()` run by this caller — which
    /// then admits it to the LRU when `keep` accepts it. When the leader's
    /// `compute` or `keep` panics, the panic propagates to its caller and
    /// the flight stays open: the next waiter computes in its place.
    pub fn get_or_compute(
        &self,
        key: K,
        compute: impl FnOnce() -> V,
        keep: impl FnOnce(&V) -> bool,
    ) -> (V, Lookup) {
        let flight = {
            let mut table = self.lock();
            if let Some(value) = table.lru.get(&key) {
                let value = value.clone();
                drop(table);
                return self.counted(value, Lookup::Hit);
            }
            Arc::clone(table.flights.entry(key.clone()).or_default())
        };
        let mut kept = None;
        let value = flight
            .get_or_init(|| {
                let value = compute();
                kept = Some(keep(&value));
                value
            })
            .clone();
        let Some(kept) = kept else {
            return self.counted(value, Lookup::Coalesced);
        };
        let entry = kept.then(|| value.clone());
        let mut table = self.lock();
        table.flights.remove(&key);
        if let Some(entry) = entry {
            table.lru.insert(key, entry);
        }
        drop(table);
        self.counted(value, Lookup::Miss)
    }

    fn counted(&self, value: V, lookup: Lookup) -> (V, Lookup) {
        self.counts[lookup as usize].fetch_add(1, Ordering::Relaxed);
        (value, lookup)
    }

    /// Current counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let count = |lookup: Lookup| self.counts[lookup as usize].load(Ordering::Relaxed);
        let table = self.lock();
        CacheStats {
            hits: count(Lookup::Hit),
            misses: count(Lookup::Miss),
            coalesced: count(Lookup::Coalesced),
            evictions: table.lru.evictions(),
            entries: table.lru.len(),
            capacity: table.lru.capacity(),
        }
    }

    /// Drops every resident entry and resets the counters; computations in
    /// flight finish normally. The capacity is kept.
    pub fn clear(&self) {
        let mut table = self.lock();
        table.lru.clear();
        for count in &self.counts {
            count.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// References to `key`'s flight: the table's, the leader's and one
    /// per waiting follower (0 when nothing is in flight).
    fn flight_refs<K: Eq + Hash + Clone, V: Clone>(memo: &Memo<K, V>, key: &K) -> usize {
        memo.lock().flights.get(key).map_or(0, Arc::strong_count)
    }

    fn spin_until(done: impl Fn() -> bool) {
        while !done() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn single_caller_computes() {
        let memo: Memo<&str, u32> = Memo::new(4);
        assert_eq!(
            memo.get_or_compute("k", || 42, |_| true),
            (42, Lookup::Miss)
        );
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.coalesced), (0, 1, 0));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn lru_bound_evicts_and_counts() {
        // Far more distinct keys than slots: the memo stays bounded and
        // counts every eviction.
        let memo: Memo<u32, u32> = Memo::new(4);
        for k in 0..12 {
            memo.get_or_compute(k, || k * 2, |_| true);
        }
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.capacity), (4, 4));
        assert_eq!((stats.misses, stats.evictions), (12, 8));
    }

    #[test]
    fn sequential_calls_do_not_coalesce() {
        // The flight retires once the leader publishes: a result `keep`
        // refuses is computed again by the next call, a kept one is a hit.
        let memo: Memo<&str, u32> = Memo::new(4);
        memo.get_or_compute("k", || 1, |_| false);
        assert_eq!(memo.get_or_compute("k", || 2, |_| true), (2, Lookup::Miss));
        assert_eq!(memo.get_or_compute("k", || 3, |_| true), (2, Lookup::Hit));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.coalesced), (1, 2, 0));
    }

    #[test]
    fn concurrent_identical_calls_share_one_computation() {
        // The leader holds its computation open until all seven followers
        // hold its flight, so every follower is coalesced, none recomputes.
        let memo: Memo<u32, u64> = Memo::new(4);
        let computed = AtomicU64::new(0);
        let release = Barrier::new(2);
        let lookups: Vec<Lookup> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let compute = || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            release.wait();
                            99
                        };
                        let (v, lookup) = memo.get_or_compute(7, compute, |_| true);
                        assert_eq!(v, 99);
                        lookup
                    })
                })
                .collect();
            spin_until(|| flight_refs(&memo, &7) == 2 + 7);
            release.wait();
            callers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        let leaders = lookups.iter().filter(|&&l| l == Lookup::Miss).count();
        assert_eq!(leaders, 1);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.coalesced), (0, 1, 7));
    }

    #[test]
    fn distinct_keys_do_not_block_each_other() {
        // All four computations must be running at once to pass the
        // barrier: no key waits for another, and none runs under the lock.
        let memo: Memo<u32, u32> = Memo::new(8);
        let all_running = Barrier::new(4);
        std::thread::scope(|scope| {
            for k in 0..4 {
                let (memo, all_running) = (&memo, &all_running);
                scope.spawn(move || {
                    let compute = || {
                        all_running.wait();
                        k * 10
                    };
                    assert_eq!(
                        memo.get_or_compute(k, compute, |_| true),
                        (k * 10, Lookup::Miss)
                    );
                });
            }
        });
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.coalesced, stats.entries), (4, 0, 4));
    }

    #[test]
    fn leader_panic_does_not_strand_followers() {
        // The leader panics only once the follower waits on its flight;
        // the follower then computes in the leader's place.
        let memo: Memo<&str, u32> = Memo::new(4);
        let leading = Barrier::new(2);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                memo.get_or_compute(
                    "k",
                    || {
                        leading.wait();
                        spin_until(|| flight_refs(&memo, &"k") == 3);
                        panic!("leader dies");
                    },
                    |_| true,
                )
            });
            leading.wait();
            assert_eq!(memo.get_or_compute("k", || 5, |_| true), (5, Lookup::Miss));
            assert!(leader.join().is_err(), "the leader's panic propagates");
        });
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.coalesced), (0, 1, 0));
        assert_eq!(memo.get_or_compute("k", || 6, |_| true), (5, Lookup::Hit));
    }

    #[test]
    fn bursts_on_one_key_compute_it_exactly_once() {
        // T threads start each round together on the round's fresh key:
        // one computes, the rest hit or coalesce — never a second miss in
        // the gap between "not cached" and "not in flight".
        const THREADS: usize = 4;
        const ROUNDS: u64 = 20_000;
        let memo: Memo<u64, u64> = Memo::new(64);
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for round in 0..ROUNDS {
                        start.wait();
                        let (v, _) = memo.get_or_compute(round, || round * 3, |_| true);
                        assert_eq!(v, round * 3);
                    }
                });
            }
        });
        let stats = memo.stats();
        assert_eq!(stats.misses, ROUNDS);
        assert_eq!(
            stats.hits + stats.misses + stats.coalesced,
            THREADS as u64 * ROUNDS
        );
    }
}
