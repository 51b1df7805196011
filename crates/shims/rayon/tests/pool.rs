//! The persistent pool under panics, deep nesting, a spent compute budget
//! and thread-count flips.
//!
//! The three tests share the process-wide pool and budget, so each takes
//! `SERIAL` first: the panic test counts every helper, which a sibling's
//! flip of the thread count would disturb.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use rayon::{par_map, ComputeSlot, ThreadPoolBuilder};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn set_threads(n: usize) {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .unwrap();
}

/// Runs `work` on its own thread and fails the test when it takes longer
/// than `limit` (a deadlock), rather than hanging the suite.
fn within<R: Send + 'static>(limit: Duration, work: impl FnOnce() -> R + Send + 'static) -> R {
    let (done, result) = mpsc::channel();
    thread::spawn(move || done.send(work()).unwrap());
    result
        .recv_timeout(limit)
        .expect("deadlocked: no result within the time limit")
}

/// The Σy<20 Σz<10 x·y·z sums of a three-deep nested `par_map`.
fn nested_sums(outer: u64) -> Vec<u64> {
    let xs: Vec<u64> = (0..outer).collect();
    par_map(&xs, |&x| {
        let ys: Vec<u64> = (0..20).collect();
        par_map(&ys, |&y| {
            let zs: Vec<u64> = (0..10).collect();
            par_map(&zs, |&z| x * y * z).into_iter().sum::<u64>()
        })
        .into_iter()
        .sum::<u64>()
    })
}

#[test]
fn a_helper_panic_reraises_on_the_caller_and_every_helper_survives() {
    let _serial = serial();
    const THREADS: usize = 4;
    set_threads(THREADS);
    let caller = thread::current().id();
    let items: Vec<u32> = (0..64).collect();
    // Items panic only on helpers. The caller's items wait until a helper
    // has taken one, so a helper surely panics; its report is silenced
    // while this test runs alone.
    let (took_one, helper_took) = mpsc::channel();
    let helper_took = Mutex::new(helper_took);
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = std::panic::catch_unwind(|| {
        par_map(&items, |&i| {
            if thread::current().id() != caller {
                took_one.send(()).unwrap();
                panic!("helper item {i}");
            }
            let waited = helper_took
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_secs(30));
            waited.expect("a helper joins the call");
            i
        })
    });
    std::panic::set_hook(report);
    let payload = caught.expect_err("a helper's panic reaches the caller");
    let message = payload
        .downcast_ref::<String>()
        .expect("the item's own payload, not a generic one");
    assert!(message.starts_with("helper item "), "{message}");

    // Every helper survived: each of THREADS items blocks until THREADS
    // distinct threads (the caller plus all THREADS − 1 helpers) run one.
    let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let deadline = Instant::now() + Duration::from_secs(30);
    let quorum: Vec<usize> = (0..THREADS).collect();
    let counts = par_map(&quorum, |_| {
        seen.lock().unwrap().insert(thread::current().id());
        while seen.lock().unwrap().len() < THREADS && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        seen.lock().unwrap().len()
    });
    assert_eq!(
        counts,
        vec![THREADS; THREADS],
        "a helper died with its panic"
    );
}

#[test]
fn with_every_compute_slot_held_par_map_runs_inline() {
    let _serial = serial();
    set_threads(2);
    // Starts the helper.
    assert_eq!(par_map(&[1, 2, 3, 4], |x| x + 1), vec![2, 3, 4, 5]);
    let caller = thread::current().id();
    let slots = [ComputeSlot::hold(), ComputeSlot::hold()];
    let items: Vec<u32> = (0..256).collect();
    let ran_on = par_map(&items, |_| thread::current().id());
    drop(slots);
    set_threads(0);
    assert!(
        ran_on.iter().all(|&id| id == caller),
        "a helper ran an item while the whole budget was held"
    );
}

#[test]
fn nested_par_map_from_eight_threads_finishes_and_matches_serial() {
    let _serial = serial();
    set_threads(4);
    let expected: Vec<u64> = (0..24).map(|x| x * 190 * 45).collect();
    let results = within(Duration::from_secs(120), || {
        let callers: Vec<_> = (0..8).map(|_| thread::spawn(|| nested_sums(24))).collect();
        callers
            .into_iter()
            .map(|c| c.join().unwrap())
            .collect::<Vec<_>>()
    });
    for result in results {
        assert_eq!(result, expected);
    }
}

#[test]
fn flipping_the_thread_count_mid_flight_stays_correct() {
    let _serial = serial();
    let stop = Arc::new(AtomicBool::new(false));
    let flipper = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut n = 1;
            while !stop.load(Ordering::Relaxed) {
                set_threads(n);
                n = if n == 1 { 4 } else { 1 };
                thread::sleep(Duration::from_micros(200));
            }
        })
    };
    let items: Vec<u64> = (0..500).collect();
    let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
    let all_equal = within(Duration::from_secs(120), move || {
        let callers: Vec<_> = (0..4)
            .map(|_| {
                let (items, expected) = (items.clone(), expected.clone());
                thread::spawn(move || (0..200).all(|_| par_map(&items, |x| x * x + 1) == expected))
            })
            .collect();
        callers.into_iter().all(|c| c.join().unwrap())
    });
    stop.store(true, Ordering::Relaxed);
    flipper.join().unwrap();
    set_threads(0);
    assert!(all_equal);
}
