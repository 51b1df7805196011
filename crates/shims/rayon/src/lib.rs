//! Offline stand-in for `rayon`: one persistent pool behind a tiny API.
//!
//! The workspace builds hermetically, so the real `rayon` crate is replaced
//! by this std-only shim. It provides the subset the analysis pipeline
//! uses:
//!
//! * [`ThreadPoolBuilder`]/[`current_num_threads`] — the process-wide
//!   thread count `N` (0 = one per available CPU; at most
//!   [`MAX_THREADS`]);
//! * [`par_map`] — order-preserving parallel map over a slice. Items are
//!   claimed one at a time from an atomic cursor, so unevenly sized items
//!   (pruned search subtrees) balance across threads.
//!
//! ## One pool, one budget of `N` compute threads
//!
//! The first `par_map` that can fan out starts `N − 1` long-lived helper
//! threads, which serve every later call for the rest of the process
//! (raising `N` later starts the missing ones). A call publishes its items
//! to the helpers and claims items itself too, so nested calls cannot
//! deadlock: a caller whose helpers are all busy runs every item itself.
//! Unlike real rayon, a caller never runs another call's items.
//!
//! Helpers go to the innermost calls. Once an item of a call turns out to
//! call `par_map` itself, the call takes no more helpers and those it has
//! leave after their current item, so in a sweep of plans the helpers
//! split each plan's search rather than planning side by side: on a
//! 2-core host the nested searches scaled with threads, side-by-side
//! plans did not.
//!
//! Helpers draw on one process-wide budget of `N` compute slots. A
//! [`ComputeSlot`] holds one for as long as it lives (the analysis service
//! holds one per admitted request), and a helper takes a free slot for
//! each item it runs. A `par_map` that finds no free slot runs inline, so
//! `N` admitted requests never fan out past `N` busy threads, while a lone
//! request or a CLI run still gets every helper.
//!
//! A panic in an item is re-raised on the caller once every helper has
//! left the call; the helper that caught it keeps serving. Results never
//! depend on how many threads took part or which thread ran an item.

#![deny(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

// Every atomic in this file is `Relaxed`: none publishes other data. Items
// reach the helpers, and results the caller, through the pool and result
// mutexes; `inside` changes only under the pool lock.

/// Global thread-count override; 0 means "use available parallelism".
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The largest thread count [`ThreadPoolBuilder::build_global`] accepts:
/// the pool starts `N − 1` operating-system threads on its first fan-out,
/// so an unbounded `N` would start that many.
pub const MAX_THREADS: usize = 1024;

/// Compute slots in use: live [`ComputeSlot`]s plus items running on
/// helpers.
static BUSY: AtomicUsize = AtomicUsize::new(0);

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set by every `par_map`, so the item that encloses one learns that it
    /// nests calls.
    static NESTED: Cell<bool> = const { Cell::new(false) };
}

/// Error returned by [`ThreadPoolBuilder::build_global`] for a thread
/// count above [`MAX_THREADS`].
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread count exceeds the cap of {MAX_THREADS} threads")
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

    /// Sets the number of compute threads, helpers plus caller (0 = auto).
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Installs the configuration globally. Unlike real rayon it may be
    /// called again: the budget follows the latest value at once, and the
    /// pool starts missing helpers on the next call that fans out.
    ///
    /// # Errors
    ///
    /// [`ThreadPoolBuildError`], leaving the budget unchanged, when the
    /// count exceeds [`MAX_THREADS`].
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        if self.num_threads > MAX_THREADS {
            return Err(ThreadPoolBuildError);
        }
        NUM_THREADS.store(self.num_threads, Relaxed);
        Ok(())
    }
}

/// The number of compute threads parallel operations will use: the size
/// of the compute budget.
#[must_use]
pub fn current_num_threads() -> usize {
    match NUM_THREADS.load(Relaxed) {
        0 => {
            static CPUS: OnceLock<usize> = OnceLock::new();
            *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
        }
        n => n,
    }
}

fn slot_free() -> bool {
    BUSY.load(Relaxed) < current_num_threads()
}

/// Takes a free compute slot for one helper item; `false` when the budget
/// is spent.
fn try_claim_slot() -> bool {
    let budget = current_num_threads();
    BUSY.fetch_update(Relaxed, Relaxed, |busy| (busy < budget).then_some(busy + 1))
        .is_ok()
}

/// One slot of the compute budget, held by a thread that computes outside
/// the pool until the guard drops. Holding one never waits and is never
/// refused — admission is the holder's business — it only keeps the
/// helpers from fanning out past the budget.
#[derive(Debug)]
#[must_use = "the slot is released when the guard drops"]
pub struct ComputeSlot(());

impl ComputeSlot {
    /// Holds one slot of the budget.
    pub fn hold() -> ComputeSlot {
        BUSY.fetch_add(1, Relaxed);
        ComputeSlot(())
    }
}

impl Drop for ComputeSlot {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Relaxed);
        // A helper parked for want of a slot may join an open call now.
        if let Some(pool) = POOL.get() {
            let state = pool.lock();
            if !state.calls.is_empty() {
                pool.work.notify_one();
            }
        }
    }
}

/// Order-preserving parallel map over a slice.
///
/// Runs inline when there is one item, one thread, no free compute slot or
/// no idle helper; otherwise the caller and up to `N − 1` helpers claim
/// items from one atomic cursor.
///
/// # Panics
///
/// Re-raises the first panic of any item, on the caller, after every
/// helper has left the call.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    NESTED.set(true);
    let threads = current_num_threads().min(items.len());
    if threads <= 1 || !slot_free() {
        return items.iter().map(f).collect();
    }
    let call = MapCall {
        items,
        f: &f,
        next: AtomicUsize::new(0),
        max_helpers: threads - 1,
        inside: AtomicUsize::new(0),
        nests: AtomicBool::new(false),
        results: Mutex::new(Vec::new()),
        panic: Mutex::new(None),
    };
    if !pool().run(&call, threads - 1) {
        return items.iter().map(&f).collect();
    }
    if let Some(payload) = call
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
    let mut pairs = call
        .results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// The view of one `par_map` call that the pool works with.
trait Call: Sync {
    /// Whether items remain unclaimed and the call takes another helper:
    /// helpers go to the innermost calls, so a call whose items nest calls
    /// of their own takes none.
    fn wants_helper(&self) -> bool;
    /// Helpers inside the call; changed only under the pool lock.
    fn inside(&self) -> &AtomicUsize;
    /// Claims and runs items until none remain or an item panics. A helper
    /// takes a compute slot for each item, and stops when none is free or
    /// once the call turns out to nest calls.
    fn work(&self, helper: bool);
}

struct MapCall<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    next: AtomicUsize,
    max_helpers: usize,
    inside: AtomicUsize,
    /// Some item called `par_map`, so helpers serve those inner calls
    /// instead (see the module doc).
    nests: AtomicBool,
    results: Mutex<Vec<(usize, R)>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, R, F> Call for MapCall<'_, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fn wants_helper(&self) -> bool {
        !self.nests.load(Relaxed)
            && self.next.load(Relaxed) < self.items.len()
            && self.inside.load(Relaxed) < self.max_helpers
    }

    fn inside(&self) -> &AtomicUsize {
        &self.inside
    }

    fn work(&self, helper: bool) {
        // Batch locally and merge once per thread: the lock is taken once
        // per participant, not once per item.
        let mut local = Vec::new();
        loop {
            if helper && !try_claim_slot() {
                break;
            }
            let i = self.next.fetch_add(1, Relaxed);
            let enclosing = NESTED.replace(false);
            let outcome = self
                .items
                .get(i)
                .map(|item| panic::catch_unwind(AssertUnwindSafe(|| (self.f)(item))));
            if NESTED.replace(enclosing) {
                self.nests.store(true, Relaxed);
            }
            if helper {
                BUSY.fetch_sub(1, Relaxed);
            }
            match outcome {
                None => break,
                Some(Ok(r)) if helper && self.nests.load(Relaxed) => {
                    local.push((i, r));
                    break;
                }
                Some(Ok(r)) => local.push((i, r)),
                Some(Err(payload)) => {
                    // Stop every participant; the first payload wins.
                    self.next.fetch_max(self.items.len(), Relaxed);
                    lock(&self.panic).get_or_insert(payload);
                    break;
                }
            }
        }
        let mut results = lock(&self.results);
        if results.is_empty() {
            *results = local;
        } else {
            results.append(&mut local);
        }
    }
}

/// A published call with its lifetime erased. It is dereferenced only
/// while it is listed in [`State::calls`] under the pool lock, or by a
/// helper between entering and leaving it; [`Pool::run`] delists the call
/// and waits for every helper to leave before the call goes out of scope.
#[derive(Clone, Copy)]
struct CallRef(*const (dyn Call + 'static));

// SAFETY: the pointee is `Sync`, and the protocol above keeps it alive for
// every thread that dereferences the pointer.
unsafe impl Send for CallRef {}

impl CallRef {
    fn erase(call: &(dyn Call + '_)) -> CallRef {
        let ptr: *const (dyn Call + '_) = call;
        // SAFETY: only the lifetime bound changes; see the type's doc.
        CallRef(unsafe { std::mem::transmute::<*const (dyn Call + '_), *const dyn Call>(ptr) })
    }

    /// # Safety
    ///
    /// The call must still be listed or entered; see the type's doc.
    unsafe fn get(&self) -> &dyn Call {
        unsafe { &*self.0 }
    }
}

struct Pool {
    state: Mutex<State>,
    /// Helpers park here until a call wants them and a slot is free.
    work: Condvar,
    /// Callers park here until the helpers inside their call have left.
    left: Condvar,
}

#[derive(Default)]
struct State {
    /// Published calls, oldest first.
    calls: Vec<CallRef>,
    /// Helper threads started.
    helpers: usize,
    /// Helpers not inside any call.
    idle: usize,
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State::default()),
        work: Condvar::new(),
        left: Condvar::new(),
    })
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Nothing panics while holding these locks; recover regardless.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        lock(&self.state)
    }

    /// Publishes `call` to up to `wanted` idle helpers, works on it
    /// inline, then delists it and waits for the helpers inside to leave.
    /// Returns `false`, having done nothing, when no helper is idle.
    fn run(&'static self, call: &(dyn Call + '_), wanted: usize) -> bool {
        let handle = CallRef::erase(call);
        let wake = {
            let mut state = self.lock();
            while state.helpers + 1 < current_num_threads() {
                let spawned = std::thread::Builder::new()
                    .name(format!("rayon-helper-{}", state.helpers))
                    .spawn(move || self.serve());
                if spawned.is_err() {
                    break; // fewer helpers only means less parallelism
                }
                state.helpers += 1;
                // Idle from the start: it looks for calls before it parks.
                state.idle += 1;
            }
            if state.idle == 0 {
                return false;
            }
            state.calls.push(handle);
            state.idle.min(wanted)
        };
        for _ in 0..wake {
            self.work.notify_one();
        }
        call.work(false);
        let mut state = self.lock();
        state.calls.retain(|c| !std::ptr::addr_eq(c.0, handle.0));
        while call.inside().load(Relaxed) > 0 {
            state = self
                .left
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        true
    }

    /// A helper's life: wait for a call that wants a helper while a slot is
    /// free, work on it, repeat.
    fn serve(&self) {
        let mut state = self.lock();
        loop {
            let wanted = slot_free()
                .then(|| {
                    state
                        .calls
                        .iter()
                        .copied()
                        // SAFETY: listed under the lock.
                        .find(|c| unsafe { c.get() }.wants_helper())
                })
                .flatten();
            let Some(handle) = wanted else {
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            // SAFETY: listed now; entered (counted in `inside`) until the
            // decrement below, so the caller waits for this helper.
            let call = unsafe { handle.get() };
            call.inside().fetch_add(1, Relaxed);
            state.idle -= 1;
            drop(state);
            call.work(true);
            state = self.lock();
            state.idle += 1;
            call.inside().fetch_sub(1, Relaxed);
            self.left.notify_all();
        }
    }
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
        // Three-deep nesting: inner calls find the helpers busy (or no
        // free slot) and run inline, while results stay identical to the
        // serial map.
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
    fn thread_count_override() {
        ThreadPoolBuilder::new()
            .num_threads(3)
            .build_global()
            .unwrap();
        assert_eq!(current_num_threads(), 3);
        // Over the cap: refused before it becomes the budget, so no helper
        // is ever started for it (no `par_map` runs at that value).
        let refused = ThreadPoolBuilder::new()
            .num_threads(MAX_THREADS + 1)
            .build_global();
        assert!(refused.is_err());
        assert_eq!(current_num_threads(), 3);
        ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
        assert!(current_num_threads() >= 1);
    }
}
