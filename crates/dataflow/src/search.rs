//! The tiling-search space and result: the candidate tile sizes every
//! exhaustive search sweeps, and the [`DataflowChoice`] it returns.
//!
//! The paper removes the impact of improper tiling sizes by exhaustively
//! searching the tiling space of every dataflow (Section VI-A: "the tiling
//! sizes of all dataflows are obtained by exhaustive searches"). The
//! searches themselves — [`search_dataflow`](crate::search_dataflow),
//! [`search_ours`](crate::search_ours), [`search_all`](crate::search_all)
//! and [`found_minimum`](crate::found_minimum) — live in the shared
//! [`engine`](crate::engine) with their memo, together with the retained
//! [`naive`](crate::engine::naive) reference the engine is tested against.

use serde::{Deserialize, Serialize};

use crate::tiling::Tiling;
use crate::traffic::DramTraffic;
use crate::DataflowKind;

/// Result of a tiling search for one dataflow on one layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataflowChoice {
    /// Which dataflow this is.
    pub kind: DataflowKind,
    /// Best output tiling (for [`DataflowKind::Ours`]) — `z`/`k`/`y`/`x`
    /// carry the baseline parameters otherwise (with `b` unused).
    pub tiling: Tiling,
    /// Input-channel tile for baselines that use one (`WtR-A`, `InR-A/B`).
    pub k: usize,
    /// The DRAM traffic of the best feasible tiling.
    pub traffic: DramTraffic,
}

/// Candidate tile sizes for a dimension: every divisor when the dimension is
/// small, otherwise all divisors plus a geometric ladder (≈25 points), always
/// including `1` and `dim`.
#[must_use]
pub fn candidates(dim: usize) -> Vec<usize> {
    let mut c: Vec<usize> = Vec::new();
    if dim <= 64 {
        c.extend(1..=dim);
    } else {
        c.extend((1..=dim).filter(|t| dim.is_multiple_of(*t)));
        let mut v = 1.0f64;
        while (v as usize) < dim {
            c.push(v as usize);
            v *= 1.35;
        }
        c.push(dim);
    }
    c.sort_unstable();
    c.dedup();
    c
}

/// [`candidates`] densified by one round of midpoint insertion for
/// dimensions above 64 — a strict superset, so a search over it can only
/// improve. Used by the `Ours` tiling sweeps ([`LayerTables`] hoists it),
/// where the staged DSE's bound stage made the finer grid affordable; it
/// tightens the worst-case relative gap between adjacent candidates from
/// ~35% to ~17%. Baseline dataflow sweeps keep the coarser [`candidates`]
/// grid that pins the paper's comparison figures.
///
/// [`LayerTables`]: crate::engine::LayerTables
#[must_use]
pub fn dense_candidates(dim: usize) -> Vec<usize> {
    let c = candidates(dim);
    if dim <= 64 {
        return c;
    }
    let mut dense = Vec::with_capacity(c.len() * 2);
    for w in c.windows(2) {
        dense.push(w[0]);
        let mid = w[0] + (w[1] - w[0]) / 2;
        if mid > w[0] && mid < w[1] {
            dense.push(mid);
        }
    }
    if let Some(&last) = c.last() {
        dense.push(last);
    }
    dense
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        found_minimum, our_dataflow_traffic, paper_tiling, search_dataflow, search_ours,
        LayerTables,
    };
    use comm_bound::OnChipMemory;
    use conv_model::{workloads, ConvLayer};

    fn layer() -> ConvLayer {
        workloads::vgg16(3).layer(4).unwrap().layer
    }

    #[test]
    fn candidates_cover_bounds() {
        let c = candidates(56);
        assert!(c.contains(&1));
        assert!(c.contains(&56));
        let c = candidates(224);
        assert!(c.contains(&1));
        assert!(c.contains(&224));
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn dense_candidates_are_a_strict_superset_with_halved_gaps() {
        // Small dims: identical (already exhaustive).
        assert_eq!(dense_candidates(56), candidates(56));
        for dim in [112usize, 224, 1000] {
            let coarse = candidates(dim);
            let dense = dense_candidates(dim);
            assert!(coarse.iter().all(|v| dense.contains(v)), "superset");
            assert!(dense.len() > coarse.len(), "strictly denser for dim {dim}");
            assert!(dense.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            // Midpoint insertion at least halves every gap: adjacent
            // candidates are consecutive integers or within ~25% (the
            // coarse ladder allows ~50% between small divisors).
            for w in dense.windows(2) {
                let rel = (w[1] - w[0]) as f64 / w[0] as f64;
                assert!(
                    w[1] - w[0] == 1 || rel <= 0.25,
                    "gap {}→{} too wide for dim {dim}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn ours_beats_paper_heuristic_or_ties() {
        let l = layer();
        let mem = OnChipMemory::from_kib(66.5);
        let heuristic = paper_tiling(&LayerTables::new(&l), mem);
        let heuristic_q = our_dataflow_traffic(&l, &heuristic).total_words();
        let searched = search_ours(&l, mem);
        assert!(searched.traffic.total_words() <= heuristic_q);
    }

    #[test]
    fn ours_close_to_lower_bound() {
        // Paper: our dataflow is ~10% above the theoretical lower bound.
        let l = layer();
        let mem = OnChipMemory::from_kib(66.5);
        let q = search_ours(&l, mem).traffic.total_words() as f64;
        let bound = comm_bound::dram_bound_words(&l, mem);
        let gap = q / bound - 1.0;
        assert!(
            (-0.02..0.30).contains(&gap),
            "ours should sit within ~30% above the bound, gap={gap}"
        );
    }

    #[test]
    fn found_minimum_not_worse_than_ours() {
        let l = layer();
        let mem = OnChipMemory::from_kib(66.5);
        let ours = search_ours(&l, mem);
        let min = found_minimum(&l, mem);
        assert!(min.traffic.total_words() <= ours.traffic.total_words());
        // And the paper says the difference is small (<~5%).
        let rel = ours.traffic.total_words() as f64 / min.traffic.total_words() as f64;
        assert!(rel < 1.10, "ours within 10% of found minimum, got {rel}");
    }

    #[test]
    fn all_baselines_feasible_at_66_5_kib() {
        let l = layer();
        let mem = OnChipMemory::from_kib(66.5);
        for kind in DataflowKind::ALL {
            let c = search_dataflow(kind, &l, mem);
            assert!(c.is_some(), "{kind:?} infeasible at 66.5 KiB");
        }
    }

    #[test]
    fn ours_beats_every_baseline_on_vgg_middle_layer() {
        let l = layer();
        let mem = OnChipMemory::from_kib(66.5);
        let ours = search_ours(&l, mem).traffic.total_words();
        for kind in [
            DataflowKind::OutRA,
            DataflowKind::OutRB,
            DataflowKind::WtRA,
            DataflowKind::WtRB,
            DataflowKind::InRA,
            DataflowKind::InRB,
            DataflowKind::InRC,
        ] {
            if let Some(c) = search_dataflow(kind, &l, mem) {
                assert!(
                    c.traffic.total_words() as f64 >= ours as f64 * 0.99,
                    "{kind:?} unexpectedly beats ours by >1%: {} vs {ours}",
                    c.traffic.total_words()
                );
            }
        }
    }

    #[test]
    fn searched_tilings_fit_memory() {
        let l = layer();
        for kib in [16.0, 66.5, 173.5] {
            let mem = OnChipMemory::from_kib(kib);
            let c = search_ours(&l, mem);
            assert!(c.tiling.fits(&l, mem));
        }
    }

    #[test]
    fn more_memory_never_hurts_ours() {
        let l = layer();
        let mut prev = u64::MAX;
        for kib in [16.0, 32.0, 64.0, 128.0, 256.0] {
            let q = search_ours(&l, OnChipMemory::from_kib(kib))
                .traffic
                .total_words();
            assert!(q <= prev);
            prev = q;
        }
    }
}
