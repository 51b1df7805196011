//! Order statistics for latency samples and span durations.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between the two closest ranks (rank `q·(n−1)`, zero-based) — the
/// definition NumPy's default and Python's `statistics.quantiles(...,
/// method="inclusive")` share. `None` for an empty sample.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// [`quantile`] over an already ascending, non-empty slice.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median, or 0 for an empty sample (a layer that never ran reads 0).
#[must_use]
pub fn median_or_zero(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// `part / whole`, or 0 when nothing happened.
#[must_use]
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// One slice of a window: a run of consecutive completions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Where the slice starts, in ns from the window's start.
    pub start: u64,
    /// Where it ends: its last completion.
    pub end: u64,
    /// Completions per second within the slice.
    pub rate: f64,
    /// Median latency of the slice's completions, in µs.
    pub p50: f64,
    /// 90th-percentile latency of the slice's completions, in µs.
    pub p90: f64,
}

impl Slice {
    /// The slice as it would read at the reference host speed, given that
    /// it ran at `speed` times that speed.
    #[must_use]
    pub fn scaled(self, speed: f64) -> Slice {
        Slice {
            rate: self.rate / speed,
            p50: self.p50 * speed,
            p90: self.p90 * speed,
            ..self
        }
    }
}

/// Cuts a window into slices of `per_slice` consecutive completions.
/// `samples` are `(completion, latency)` pairs in ns, the completion
/// measured from the window's start; they are sorted by completion here.
/// A slice runs from the previous slice's last completion (the window's
/// start for the first) to its own last one; completions after the last
/// whole slice are dropped. Latencies are reported in µs.
#[must_use]
pub fn slices(samples: &mut [(u64, u64)], per_slice: usize) -> Vec<Slice> {
    samples.sort_unstable();
    let mut start = 0;
    samples
        .chunks_exact(per_slice.max(1))
        .map(|chunk| {
            let end = chunk[chunk.len() - 1].0;
            let mut latencies: Vec<f64> = chunk.iter().map(|&(_, l)| l as f64 / 1e3).collect();
            latencies.sort_by(f64::total_cmp);
            let slice = Slice {
                start,
                end,
                rate: share(chunk.len() as f64, end.saturating_sub(start) as f64 / 1e9),
                p50: quantile_sorted(&latencies, 0.5),
                p90: quantile_sorted(&latencies, 0.9),
            };
            start = end;
            slice
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        // rank 0.9 · 3 = 2.7 → 3 + 0.7 · (4 − 3)
        assert!((quantile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
    }

    #[test]
    fn p90_of_one_to_hundred_matches_numpy() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // numpy.percentile(range(1, 101), 90) == 90.1
        assert!((quantile(&v, 0.9).unwrap() - 90.1).abs() < 1e-9);
        assert_eq!(quantile(&v, 0.5), Some(50.5));
    }

    #[test]
    fn slices_hold_a_fixed_number_of_completions() {
        // Two completions per slice, out of order as two clients merge
        // them: the first slice ends at 0.5 s, the second at 2.5 s, and the
        // fifth completion, short of a whole slice, is dropped.
        let mut samples = [
            (500_000_000, 2_000),
            (100, 1_000),
            (2_500_000_000, 7_000),
            (1_000_000_000, 9_000),
            (3_000_000_000, 5_000),
        ];
        let got = slices(&mut samples, 2);
        assert_eq!(got.len(), 2);
        assert_eq!(
            (got[0].start, got[0].end, got[0].rate),
            (0, 500_000_000, 4.0)
        );
        assert_eq!(got[0].p50, 1.5);
        assert!((got[0].p90 - 1.9).abs() < 1e-12);
        assert_eq!((got[1].rate, got[1].p50), (1.0, 8.0));
        assert!((got[1].p90 - 8.8).abs() < 1e-12);
        assert!(slices(&mut [], 4).is_empty());
    }

    #[test]
    fn scaling_to_a_faster_host_raises_rates_and_cuts_latencies() {
        let slice = Slice {
            start: 0,
            end: 10,
            rate: 100.0,
            p50: 4.0,
            p90: 8.0,
        };
        let at_reference = slice.scaled(0.5);
        assert_eq!(
            (at_reference.rate, at_reference.p50, at_reference.p90),
            (200.0, 2.0, 4.0)
        );
        assert_eq!((at_reference.start, at_reference.end), (0, 10));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[1.0, 2.0], 1.5), None);
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(share(1.0, 0.0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
    }
}
