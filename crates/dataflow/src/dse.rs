//! Design-space-exploration (DSE) substrate — the paper's motivation made
//! executable.
//!
//! Section II-B argues that exhaustive DSE over loop orders and tiling
//! sizes is intractable (≈7.2×10¹³ points for two loop levels of one layer,
//! citing ref. \[29\]) and that heuristics find sub-optimal points without
//! explaining *why* a dataflow is good. This module provides:
//!
//! * [`search_space_size`] — the size of the two-level loop-order × tiling
//!   space for a layer, reproducing the intractability argument;
//! * [`random_dse`] — a budgeted random-sampling DSE baseline over the same
//!   space the paper's dataflow occupies (output tilings), which the tests
//!   show converges to — never beats — the closed-form choice.

use comm_bound::OnChipMemory;
use conv_model::ConvLayer;

use crate::engine::{search_ours, BestTracker, Candidate, LayerTables};
use crate::tiling::Tiling;
use crate::traffic::DramTraffic;

/// Number of distinct two-level tilings × loop orders for a layer: each of
/// the seven loops of Fig. 2 can be tiled at two levels (any divisor-free
/// size in `1..=dim` each) and the loops at each level permuted.
///
/// Returned as `f64` because the count overflows `u64` for real layers —
/// that is the point.
#[must_use]
pub fn search_space_size(layer: &ConvLayer) -> f64 {
    let dims = [
        layer.batch(),
        layer.out_channels(),
        layer.output_height(),
        layer.output_width(),
        layer.in_channels(),
        layer.kernel_height(),
        layer.kernel_width(),
    ];
    // Tiling choices: one inner tile size per dimension at each of the two
    // levels (sizes 1..=dim, inner <= outer): dim*(dim+1)/2 combinations.
    let tilings: f64 = dims
        .iter()
        .map(|&d| (d as f64) * (d as f64 + 1.0) / 2.0)
        .product();
    // Loop orders: 7! permutations at each level.
    let orders = 5040.0 * 5040.0;
    tilings * orders
}

/// Why a [`grid_points`] expansion was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridError {
    /// Axis `index` has no values, so the grid is empty by construction —
    /// almost always a caller bug, reported rather than silently yielding
    /// zero points.
    EmptyAxis(usize),
    /// The cross product has more than `cap` points. The cardinality is
    /// computed (in `u128`, overflow-free) *before* any point is
    /// materialized, so a hostile request cannot make the expansion itself
    /// allocate unboundedly.
    TooManyPoints {
        /// The would-be cardinality.
        points: u128,
        /// The refused cap.
        cap: usize,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::EmptyAxis(i) => write!(f, "grid axis #{i} has no values"),
            GridError::TooManyPoints { points, cap } => {
                write!(
                    f,
                    "grid expands to {points} points, more than the {cap} cap"
                )
            }
        }
    }
}

impl std::error::Error for GridError {}

/// Capped cartesian product: one point per combination of one value from
/// each axis, in lexicographic axis order.
///
/// This is the expansion primitive behind grid-style design-space sweeps
/// (e.g. the service's `/v1/dse` architecture grids): the caller provides
/// per-parameter value lists and a hard cap on the number of candidates it
/// is willing to evaluate.
///
/// # Errors
///
/// [`GridError::EmptyAxis`] when an axis has no values;
/// [`GridError::TooManyPoints`] when the (overflow-safe) cardinality
/// exceeds `cap` — checked before anything is materialized.
pub fn grid_points<T: Clone>(axes: &[Vec<T>], cap: usize) -> Result<Vec<Vec<T>>, GridError> {
    let mut cardinality: u128 = 1;
    for (i, axis) in axes.iter().enumerate() {
        if axis.is_empty() {
            return Err(GridError::EmptyAxis(i));
        }
        cardinality = cardinality.saturating_mul(axis.len() as u128);
    }
    if cardinality > cap as u128 {
        return Err(GridError::TooManyPoints {
            points: cardinality,
            cap,
        });
    }
    // A mixed-radix counter over the axes, last axis fastest: each point is
    // built once from its digits, with no per-level prefix copies.
    let len = cardinality as usize; // ≤ cap, checked above
    let mut digits = vec![0; axes.len()];
    let mut points = Vec::with_capacity(len);
    for _ in 0..len {
        let point = axes.iter().zip(&digits).map(|(axis, &d)| axis[d].clone());
        points.push(point.collect());
        for (digit, axis) in digits.iter_mut().zip(axes).rev() {
            *digit += 1;
            if *digit < axis.len() {
                break;
            }
            *digit = 0;
        }
    }
    Ok(points)
}

/// The best point a [`random_dse`] run actually sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DseBest {
    /// The best feasible tiling sampled.
    pub tiling: Tiling,
    /// Its DRAM traffic.
    pub traffic: DramTraffic,
}

/// Result of a random-sampling DSE run.
///
/// `best` is `None` when **no** sample satisfied the memory constraint —
/// the run found nothing, and is reported as such rather than inventing a
/// fallback tiling that was never sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DseOutcome {
    /// Samples drawn.
    pub samples: u64,
    /// Samples that satisfied the on-chip memory constraint.
    pub feasible: u64,
    /// Best sampled point, if any sample was feasible.
    pub best: Option<DseBest>,
}

impl DseOutcome {
    /// Total DRAM words of the best sampled point, if any.
    #[must_use]
    pub fn best_words(&self) -> Option<u64> {
        self.best.map(|b| b.traffic.total_words())
    }
}

/// Budgeted random-sampling DSE over the output-tiling space of the paper's
/// dataflow, with a deterministic xorshift generator (`seed`).
///
/// This is the "heuristic search" a DSE tool would run when the space is too
/// large to enumerate. Compare its best against
/// [`search_ours`] / [`paper_tiling`](crate::paper_tiling):
/// with a small budget it is clearly worse; even with a large budget it can
/// only approach the theory-guided choice. Sample evaluation goes through
/// the engine's dense [`LayerTables`], so a 20 000-sample run costs
/// microseconds, not the halo-loop recomputation of the seed implementation.
#[must_use]
pub fn random_dse(layer: &ConvLayer, mem: OnChipMemory, samples: u64, seed: u64) -> DseOutcome {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move |bound: usize| -> usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 33) as usize % bound.max(1) + 1
    };

    let tables = LayerTables::new(layer);
    let mem_words = mem.words();
    let mut feasible = 0u64;
    let mut tracker = BestTracker::new();
    for _ in 0..samples {
        let t = Tiling {
            b: next(layer.batch()),
            z: next(layer.out_channels()),
            y: next(layer.output_height()),
            x: next(layer.output_width()),
        };
        if tables.ours_onchip(&t) as f64 > mem_words {
            continue;
        }
        feasible += 1;
        tracker.offer(Candidate {
            tiling: t,
            k: 1,
            traffic: tables.ours_traffic(&t),
        });
    }
    DseOutcome {
        samples,
        feasible,
        best: tracker.into_best().map(|c| DseBest {
            tiling: c.tiling,
            traffic: c.traffic,
        }),
    }
}

/// Convenience: the ratio `random-DSE best / theory-guided best` for a given
/// sample budget (≥ 1.0 by construction; → 1.0 as the budget grows).
/// [`f64::INFINITY`] when the DSE run found no feasible sample at all.
#[must_use]
pub fn dse_gap(layer: &ConvLayer, mem: OnChipMemory, samples: u64, seed: u64) -> f64 {
    let dse = random_dse(layer, mem, samples, seed);
    let ours = search_ours(layer, mem);
    match dse.best_words() {
        Some(words) => words as f64 / ours.traffic.total_words() as f64,
        None => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_model::workloads;

    fn layer() -> ConvLayer {
        workloads::vgg16(3).layer(4).unwrap().layer
    }

    #[test]
    fn search_space_is_astronomical() {
        // The paper quotes 7.2e13 for two loops of one layer; the full
        // seven-loop two-level space is far larger still.
        let size = search_space_size(&layer());
        assert!(size > 1e13, "search space {size:e} should be intractable");
    }

    #[test]
    fn search_space_grows_with_layer() {
        let small = ConvLayer::square(1, 8, 8, 4, 3, 1).unwrap();
        assert!(search_space_size(&small) < search_space_size(&layer()));
    }

    #[test]
    fn dse_never_beats_theory() {
        let mem = OnChipMemory::from_kib(66.5);
        for seed in [1u64, 7, 42] {
            let gap = dse_gap(&layer(), mem, 2_000, seed);
            assert!(gap >= 1.0 - 1e-12, "DSE beat the exhaustive search: {gap}");
        }
    }

    #[test]
    fn small_budget_dse_is_clearly_worse() {
        // With a handful of samples the random search lands far from the
        // optimum — the paper's point about heuristic DSE.
        let mem = OnChipMemory::from_kib(66.5);
        let gap = dse_gap(&layer(), mem, 10, 3);
        assert!(
            gap > 1.02,
            "tiny-budget DSE should be visibly worse, got {gap}"
        );
    }

    #[test]
    fn dse_converges_with_budget() {
        let mem = OnChipMemory::from_kib(66.5);
        let small = dse_gap(&layer(), mem, 50, 11);
        let large = dse_gap(&layer(), mem, 20_000, 11);
        assert!(large <= small + 1e-12);
        assert!(large < 1.25, "large-budget DSE should approach the optimum");
    }

    #[test]
    fn dse_deterministic_per_seed() {
        let mem = OnChipMemory::from_kib(66.5);
        let a = random_dse(&layer(), mem, 500, 9);
        let b = random_dse(&layer(), mem, 500, 9);
        assert_eq!(a, b);
        assert!(a.best.is_some());
    }

    #[test]
    fn zero_feasible_run_reports_none() {
        // A memory barely above the {1,1,1,1} working set (19 words for a
        // 3×3 kernel): only a handful of the 3·256·56·56 possible samples
        // are feasible, so this deterministic 200-sample run draws none.
        let l = layer();
        let mem = OnChipMemory::from_words(25.0);
        let out = random_dse(&l, mem, 200, 5);
        assert_eq!(out.feasible, 0);
        assert_eq!(out.best, None);
        assert_eq!(out.best_words(), None);
        assert_eq!(dse_gap(&l, mem, 200, 5), f64::INFINITY);
    }

    #[test]
    fn grid_points_expands_lexicographically() {
        let axes = vec![vec![1u64, 2], vec![10, 20, 30]];
        let points = grid_points(&axes, 6).unwrap();
        assert_eq!(
            points,
            vec![
                vec![1, 10],
                vec![1, 20],
                vec![1, 30],
                vec![2, 10],
                vec![2, 20],
                vec![2, 30]
            ]
        );
    }

    #[test]
    fn grid_points_refuses_over_cap_before_materializing() {
        // 10^10 points: the cardinality check must trip without allocating.
        let axis: Vec<u64> = (0..10).collect();
        let axes: Vec<Vec<u64>> = (0..10).map(|_| axis.clone()).collect();
        assert_eq!(
            grid_points(&axes, 256),
            Err(GridError::TooManyPoints {
                points: 10_000_000_000,
                cap: 256
            })
        );
        // Saturating cardinality survives astronomically wide grids.
        let wide: Vec<Vec<u64>> = (0..200).map(|_| axis.clone()).collect();
        assert!(matches!(
            grid_points(&wide, 256),
            Err(GridError::TooManyPoints { .. })
        ));
    }

    #[test]
    fn grid_points_rejects_empty_axes() {
        let axes: Vec<Vec<u64>> = vec![vec![1], vec![]];
        assert_eq!(grid_points(&axes, 16), Err(GridError::EmptyAxis(1)));
        assert_eq!(
            grid_points::<u64>(&[], 16).unwrap(),
            vec![Vec::<u64>::new()]
        );
    }

    #[test]
    fn dse_best_matches_direct_evaluation() {
        let l = layer();
        let mem = OnChipMemory::from_kib(66.5);
        let out = random_dse(&l, mem, 1_000, 17);
        let best = out.best.expect("66.5 KiB admits many samples");
        assert_eq!(
            best.traffic,
            crate::our_dataflow_traffic(&l, &best.tiling),
            "table-evaluated traffic must equal the direct formula"
        );
        assert!(best.tiling.fits(&l, mem));
    }
}
