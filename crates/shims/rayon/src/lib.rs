//! Offline stand-in for `rayon`: genuinely parallel, but a tiny API.
//!
//! The workspace builds hermetically, so the real `rayon` crate is replaced
//! by this shim built on [`std::thread::scope`]. It provides the subset the
//! tiling-search engine uses:
//!
//! * [`ThreadPoolBuilder`]/[`current_num_threads`] — a global thread-count
//!   knob (there is no persistent pool; threads are scoped per call, which
//!   is fine for the engine's coarse-grained, compute-bound tasks);
//! * [`par_map`] — order-preserving parallel map over a slice with atomic
//!   work stealing, so unevenly sized work items (pruned search subtrees)
//!   balance across threads.
//!
//! Unlike real rayon there is no work-splitting of nested calls: a
//! `par_map` inside a `par_map` simply spawns its own scoped threads.
//! To keep arbitrary nesting safe (the analysis service runs `par_map`
//! pipelines from many HTTP workers at once, three levels deep), the shim
//! enforces a process-wide *worker budget*: `par_map` claims threads from
//! the budget and silently degrades toward serial execution when the
//! process is already saturated — mirroring how real rayon's fixed global
//! pool behaves under nesting, without its work-stealing machinery.
//! Results never depend on how many threads a call was granted.

#![deny(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global thread-count override; 0 means "use available parallelism".
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Scoped worker threads currently alive across every concurrent
/// [`par_map`] in the process.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The worker-budget cap: generous enough that a CLI-style nesting
/// (depth ≤ 2) is never throttled on its own, small enough that dozens of
/// concurrent deeply-nested pipelines cannot exhaust OS thread limits.
fn worker_budget_cap() -> usize {
    8 * std::thread::available_parallelism().map_or(1, usize::from)
}

/// Claims up to `desired` workers from the process-wide budget; returns
/// how many were granted (possibly 0).
fn claim_workers(desired: usize) -> usize {
    let cap = worker_budget_cap();
    let mut current = ACTIVE_WORKERS.load(Ordering::Relaxed);
    loop {
        let grant = desired.min(cap.saturating_sub(current));
        if grant == 0 {
            return 0;
        }
        match ACTIVE_WORKERS.compare_exchange_weak(
            current,
            current + grant,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return grant,
            Err(now) => current = now,
        }
    }
}

fn release_workers(granted: usize) {
    ACTIVE_WORKERS.fetch_sub(granted, Ordering::Relaxed);
}

/// Error returned by [`ThreadPoolBuilder::build_global`] (never constructed
/// by this shim — the global knob can be set repeatedly — but kept so call
/// sites can use the real rayon error-handling idiom).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to configure the global thread count")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for the global parallelism configuration.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with default settings.
    #[must_use]
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the number of worker threads (0 = auto).
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Installs the configuration globally.
    ///
    /// # Errors
    ///
    /// Never fails in this shim; the signature matches real rayon so call
    /// sites stay source-compatible.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        NUM_THREADS.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// The number of threads parallel operations will use.
#[must_use]
pub fn current_num_threads() -> usize {
    match NUM_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
}

/// Order-preserving parallel map over a slice.
///
/// Work items are claimed one at a time from an atomic counter, so threads
/// that draw cheap items (e.g. search subtrees pruned immediately) move on
/// to the next item instead of idling.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let desired = current_num_threads().min(items.len());
    if desired <= 1 {
        return items.iter().map(f).collect();
    }
    // Nested/concurrent calls share one process-wide worker budget; when
    // it is exhausted this call simply runs on the caller's thread. The
    // guard releases the claim even when `f` (or a thread spawn) panics —
    // a leak here would permanently degrade every later `par_map` toward
    // serial in long-running processes that survive handler panics.
    struct BudgetGuard(usize);
    impl Drop for BudgetGuard {
        fn drop(&mut self) {
            release_workers(self.0);
        }
    }
    let claimed = BudgetGuard(claim_workers(desired));
    if claimed.0 <= 1 {
        return items.iter().map(f).collect();
    }
    par_map_on(items, &f, claimed.0)
}

fn par_map_on<T, R, F>(items: &[T], f: &F, threads: usize) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Batch locally and merge once per thread: the lock is taken
                // `threads` times total, not once per item.
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    local.push((i, f(item)));
                }
                collected
                    .lock()
                    .expect("no poisoned lock: workers do not panic mid-merge")
                    .append(&mut local);
            });
        }
    });
    let mut pairs = collected.into_inner().expect("scope joined all workers");
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_par_map_is_correct_under_the_worker_budget() {
        // Three-deep nesting would previously spawn up to n³ threads; the
        // budget degrades inner levels toward serial while results stay
        // identical to the serial map.
        let outer: Vec<u64> = (0..40).collect();
        let result = par_map(&outer, |&x| {
            let mid: Vec<u64> = (0..20).collect();
            par_map(&mid, |&y| {
                let inner: Vec<u64> = (0..10).collect();
                par_map(&inner, |&z| x * y * z).into_iter().sum::<u64>()
            })
            .into_iter()
            .sum::<u64>()
        });
        // Σy<20 Σz<10 x·y·z = x · 190 · 45
        for (x, &r) in result.iter().enumerate() {
            assert_eq!(r, (x as u64) * 190 * 45);
        }
    }

    #[test]
    fn worker_budget_claims_and_releases() {
        let cap = worker_budget_cap();
        let granted = claim_workers(cap + 10_000);
        assert!(granted <= cap, "cannot exceed the cap");
        // Whatever was left over is at most the cap too.
        let rest = claim_workers(cap);
        assert!(granted + rest <= cap + cap, "sanity under concurrent tests");
        release_workers(granted);
        release_workers(rest);
    }

    #[test]
    fn thread_count_override() {
        ThreadPoolBuilder::new()
            .num_threads(3)
            .build_global()
            .unwrap();
        assert_eq!(current_num_threads(), 3);
        ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
        assert!(current_num_threads() >= 1);
    }
}
