//! Concurrency primitives for the serving tier.
//!
//! * [`Gate`] — the compute-admission primitive: a bounded set of permits.
//!   The event tier's I/O workers only ever [`Gate::try_acquire`] (a
//!   request that finds every permit busy is shelved in the server's wait
//!   room, or shed with `503 + Retry-After` when that is full); background
//!   DSE job threads, capped in number by the server, block in
//!   [`Gate::acquire`]. Every permit holds one slot of the process-wide
//!   compute budget that the `rayon` pool's helpers also draw on, so
//!   admitted requests and fan-out share one budget of compute threads.
//! * [`WaitGroup`] — deadline-aware completion tracking for graceful
//!   drain: every connection holds a guard, shutdown waits for all guards
//!   with a hard deadline and aborts stragglers past it.
//! * [`BoundedQueue`] — the event tier's queue of ready connections, which
//!   its I/O workers drain (idle connections are parked on the epoll
//!   poller, so a persistent connection never pins a worker).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

struct QueueState<T> {
    items: VecDeque<T>,
    open: bool,
}

/// A bounded multi-producer/multi-consumer queue on [`Mutex`] + [`Condvar`].
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> std::fmt::Debug for QueueState<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueState")
            .field("len", &self.items.len())
            .field("open", &self.open)
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// An open queue bounded to `capacity` items (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The queue bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues without blocking. Returns the item when the queue is full
    /// or closed, so the caller can shed the load.
    ///
    /// # Errors
    ///
    /// `Err(item)` hands the item back on a full or closed queue.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if !state.open || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (`Some`) or the queue is closed
    /// *and* drained (`None`).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if !state.open {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .expect("queue lock poisoned while waiting");
        }
    }

    /// Closes the queue: future pushes fail, and consumers drain the
    /// remaining items before [`pop`](Self::pop) returns `None`.
    pub fn close(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.open = false;
        }
        self.not_empty.notify_all();
    }
}

/// A bounded semaphore: `permits` bounds how many requests compute
/// concurrently.
///
/// Admission control sits at request time, not accept time, so a
/// persistent connection can carry thousands of requests while the server
/// still never runs more than `permits` computations at once. The gate
/// holds no waiting room of its own: the server bounds who may wait —
/// shelved requests by its wait room, blocked [`acquire`] callers by its
/// cap on running DSE jobs.
///
/// [`acquire`]: Gate::acquire
#[derive(Debug)]
pub struct Gate {
    /// Compute permits currently available.
    available: Mutex<usize>,
    released: Condvar,
    permits: usize,
}

/// An acquired [`Gate`] permit; dropping it releases the slot and wakes one
/// waiter. While it lives, its request holds one slot of the compute
/// budget, so the pool's helpers fan out only into the slots no admitted
/// request holds.
#[derive(Debug)]
pub struct GatePermit<'a> {
    gate: &'a Gate,
    _slot: rayon::ComputeSlot,
}

impl<'a> GatePermit<'a> {
    fn new(gate: &'a Gate) -> Self {
        GatePermit {
            gate,
            _slot: rayon::ComputeSlot::hold(),
        }
    }
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        // A plain counter is valid after any update, so a poisoned lock is
        // recovered rather than panicking inside `drop`.
        *self
            .gate
            .available
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
        self.gate.released.notify_one();
    }
}

impl Gate {
    /// A gate with `permits` concurrent slots (clamped to ≥ 1).
    #[must_use]
    pub fn new(permits: usize) -> Self {
        let permits = permits.max(1);
        Gate {
            available: Mutex::new(permits),
            released: Condvar::new(),
            permits,
        }
    }

    /// The concurrent-compute bound.
    #[must_use]
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// Takes a permit only if one is free right now — never waits. The
    /// event tier's I/O workers admit requests through this: a worker
    /// blocked on the gate would be lost to the serving plane (starving
    /// ungated traffic under full compute load), so saturation is surfaced
    /// immediately and the caller shelves or sheds the request instead.
    #[must_use]
    pub fn try_acquire(&self) -> Option<GatePermit<'_>> {
        let mut available = self.available.lock().expect("gate lock poisoned");
        if *available == 0 {
            return None;
        }
        *available -= 1;
        Some(GatePermit::new(self))
    }

    /// Takes a permit, blocking until one is released if every permit is
    /// busy.
    #[must_use]
    pub fn acquire(&self) -> GatePermit<'_> {
        let mut available = self.available.lock().expect("gate lock poisoned");
        while *available == 0 {
            available = self
                .released
                .wait(available)
                .expect("gate lock poisoned while waiting");
        }
        *available -= 1;
        GatePermit::new(self)
    }
}

/// Counts outstanding work and lets a drainer wait for zero with a
/// deadline. Connection threads hold a [`WaitGuard`] for their lifetime
/// (panic-safe: the guard decrements on drop); [`WaitGroup::wait_timeout`]
/// is the graceful-drain barrier, returning `false` when stragglers remain
/// past the deadline so the caller can abort them.
#[derive(Debug, Default)]
pub struct WaitGroup {
    count: Mutex<usize>,
    zero: Condvar,
}

/// One unit of outstanding work in a [`WaitGroup`].
#[derive(Debug)]
pub struct WaitGuard {
    group: Arc<WaitGroup>,
}

impl Drop for WaitGuard {
    fn drop(&mut self) {
        let mut count = self.group.count.lock().expect("waitgroup lock poisoned");
        *count -= 1;
        if *count == 0 {
            drop(count);
            self.group.zero.notify_all();
        }
    }
}

impl WaitGroup {
    /// An empty group.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(WaitGroup::default())
    }

    /// Registers one unit of work; drop the guard to retire it.
    #[must_use]
    pub fn enter(self: &Arc<Self>) -> WaitGuard {
        let mut count = self.count.lock().expect("waitgroup lock poisoned");
        *count += 1;
        drop(count);
        WaitGuard {
            group: Arc::clone(self),
        }
    }

    /// Outstanding units (racy by nature; for stats and logging).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.count.lock().map(|c| *c).unwrap_or(0)
    }

    /// Blocks until every guard has dropped or `deadline` elapses; `true`
    /// means the group reached zero.
    #[must_use]
    pub fn wait_timeout(&self, deadline: std::time::Duration) -> bool {
        let end = std::time::Instant::now() + deadline;
        let mut count = self.count.lock().expect("waitgroup lock poisoned");
        while *count > 0 {
            let now = std::time::Instant::now();
            if now >= end {
                return false;
            }
            let (next, timeout) = self
                .zero
                .wait_timeout(count, end - now)
                .expect("waitgroup lock poisoned while waiting");
            count = next;
            if timeout.timed_out() && *count > 0 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn queue_rejects_when_full_and_after_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), Ok(()));
        q.close();
        assert_eq!(q.try_push(5), Err(5));
        // Closed queues still drain.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_capacity_clamps_to_one() {
        let q: BoundedQueue<u32> = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Err(2));
    }

    #[test]
    fn gate_sheds_beyond_permits_plus_waiting_room() {
        // `try_acquire` is the gate's shedding entry and has no waiting
        // room: beyond the permits it sheds at once.
        let gate = Gate::new(1);
        let held = gate.try_acquire().expect("first permit");
        assert!(gate.try_acquire().is_none());
        drop(held);
        assert!(
            gate.try_acquire().is_some(),
            "released permits are reusable"
        );
    }

    #[test]
    fn gate_waiting_room_blocks_then_admits() {
        let gate = Arc::new(Gate::new(1));
        let held = gate.acquire();
        let entered = Arc::new(AtomicUsize::new(0));
        let started = Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let (gate, entered, started) = (
                Arc::clone(&gate),
                Arc::clone(&entered),
                Arc::clone(&started),
            );
            std::thread::spawn(move || {
                started.wait();
                let _permit = gate.acquire();
                entered.fetch_add(1, Ordering::SeqCst);
            })
        };
        // The waiter is running; give it time to reach the blocked acquire.
        started.wait();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(entered.load(Ordering::SeqCst), 0, "acquire must wait");
        assert!(
            gate.try_acquire().is_none(),
            "a non-blocking overflow sheds while the waiter is parked"
        );
        drop(held);
        waiter.join().unwrap();
        assert_eq!(entered.load(Ordering::SeqCst), 1, "the release admits it");
        assert!(gate.try_acquire().is_some(), "its permit came back");
    }

    #[test]
    fn try_acquire_never_waits_and_never_counts_as_waiting() {
        let gate = Arc::new(Gate::new(1));
        let held = gate.try_acquire().expect("free permit");
        // Saturated: try_acquire bounces immediately and leaves no claim on
        // the permit...
        assert!(gate.try_acquire().is_none());
        // ...so the released permit goes to the blocking waiter.
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _permit = gate.acquire();
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(gate.try_acquire().is_none(), "still saturated");
        drop(held);
        waiter.join().unwrap();
        assert!(
            gate.try_acquire().is_some(),
            "the waiter gave its permit back"
        );
    }

    #[test]
    fn gate_clamps_zero_permits_to_one() {
        let gate = Gate::new(0);
        assert_eq!(gate.permits(), 1);
        let _permit = gate.acquire();
        assert!(gate.try_acquire().is_none());
    }

    #[test]
    fn waitgroup_times_out_on_stragglers_and_completes_on_drop() {
        let wg = WaitGroup::new();
        let guard = wg.enter();
        assert_eq!(wg.outstanding(), 1);
        assert!(
            !wg.wait_timeout(std::time::Duration::from_millis(30)),
            "a held guard must time the drain out"
        );
        let wg2 = Arc::clone(&wg);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(guard);
        });
        assert!(
            wg2.wait_timeout(std::time::Duration::from_secs(5)),
            "dropping the last guard must release the drain"
        );
        t.join().unwrap();
        assert_eq!(wg.outstanding(), 0);
        // An empty group drains instantly.
        assert!(wg.wait_timeout(std::time::Duration::from_millis(1)));
    }
}
