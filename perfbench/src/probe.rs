//! The host-speed probe: a fixed computation owned by the benchmark, timed
//! in thread CPU time, so it reads how fast the host runs this process's
//! code at a moment, whatever else the benchmark or the server is doing.
//!
//! A virtual machine that shares its host's cores runs the same code up
//! to 1.6× slower while a neighbour is busy, in bursts of a fraction of a
//! second to minutes, and without reporting stolen time. The benchmark
//! probes every [`PROBE_EVERY`] and scales each timing to the
//! [`REFERENCE_NS`] speed, so a run measures the program, not the
//! neighbours. The probe's own code never changes with the program.

use std::hint::black_box;
use std::os::raw::c_int;
use std::time::Duration;

use crate::stats::median_or_zero;
use crate::workload::mix;

/// How often a window is probed.
pub const PROBE_EVERY: Duration = Duration::from_millis(25);

/// The probe's CPU time at the reference speed: about its median on the
/// 2-vCPU virtual machine the baselines were taken on. It only fixes the
/// scale; both sides of a comparison use the same one.
pub const REFERENCE_NS: f64 = 1.0e6;

// The libc symbol std already links on Linux, declared here as the
// service's poller declares its own.
extern "C" {
    fn clock_gettime(clock: c_int, now: *mut Timespec) -> c_int;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time the calling thread has run, in ns.
fn thread_cpu_ns() -> u64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "the thread CPU clock exists on every Linux");
    now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64
}

/// Fills, sorts and hashes a 32 KiB table eight times: integer mixing,
/// branches and cache-resident memory traffic, like the service's own work.
fn reference_work() -> u64 {
    let mut table = vec![0u64; 4096];
    let mut hash = 0;
    for round in 0..8u64 {
        let mut x = round;
        for v in &mut table {
            x = mix(x);
            *v = x;
        }
        black_box(&mut table).sort_unstable();
        hash = table.iter().fold(hash, |h, &v| mix(h ^ v));
    }
    hash
}

/// One probe of a window.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// When it ran, in ns from the window's start.
    pub at: u64,
    /// The reference computation's thread CPU time, in ns.
    pub cpu_ns: u64,
}

/// Runs the reference computation once; returns its thread CPU time in ns.
#[must_use]
pub fn probe_ns() -> u64 {
    let started = thread_cpu_ns();
    black_box(reference_work());
    thread_cpu_ns() - started
}

/// Host speed from a probe time: 1.0 at the reference speed, below 1.0
/// when the host ran slower. A timing `t` measured at speed `s` reads
/// `t · s` at the reference speed; a rate `r` reads `r / s`.
#[must_use]
pub fn speed(cpu_ns: f64) -> f64 {
    if cpu_ns > 0.0 {
        REFERENCE_NS / cpu_ns
    } else {
        1.0
    }
}

/// The host speed while `[start, end]` (ns from the window's start) ran:
/// from the median of the probes taken in it, or the probe nearest its
/// end when none was; 1.0 without probes.
#[must_use]
pub fn speed_during(probes: &[Probe], start: u64, end: u64) -> f64 {
    let inside: Vec<f64> = probes
        .iter()
        .filter(|p| (start..=end).contains(&p.at))
        .map(|p| p.cpu_ns as f64)
        .collect();
    if !inside.is_empty() {
        return speed(median_or_zero(&inside));
    }
    probes
        .iter()
        .min_by_key(|p| p.at.abs_diff(end))
        .map_or(1.0, |p| speed(p.cpu_ns as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_take_the_speed_of_the_probes_inside_them() {
        let probe = |at, cpu_ns| Probe { at, cpu_ns };
        let probes = [
            probe(10, 2_000_000),
            probe(20, 1_000_000),
            probe(30, 500_000),
            probe(90, 4_000_000),
        ];
        // Median of 2, 1 and 0.5 ms is 1 ms: the reference speed.
        assert_eq!(speed_during(&probes, 0, 40), 1.0);
        assert_eq!(speed_during(&probes, 25, 35), 2.0);
        // No probe inside: the one nearest the end, at 90.
        assert_eq!(speed_during(&probes, 50, 80), 0.25);
        assert_eq!(speed_during(&[], 0, 10), 1.0);
    }

    #[test]
    fn the_probe_does_measurable_work() {
        assert_eq!(reference_work(), reference_work());
        assert!(probe_ns() > 0);
    }
}
