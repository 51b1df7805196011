//! Staged-sweep acceptance properties — the lossless-pruning invariant:
//!
//! * **Oracle parity** — for random layers/networks × random candidate
//!   grids × *every* objective and several top-K values, the staged
//!   engine's kept frontier must be bit-identical (at the serialized-report
//!   level, which is what reaches the wire) to [`rank_entries`] over the
//!   serial unpruned full sweep. The bound stage must never discard a true
//!   optimum.
//! * **Admissibility** — every [`candidate_bounds`] floor must under-state
//!   the candidate's actual cycles / DRAM words / energy, in layer and in
//!   network mode, over the benchmark's DSE axes with random DRAM links;
//!   for every objective the floor key must be ≤ the entry's
//!   [`objective_key`]; and a `provably_infeasible` verdict must always
//!   coincide with an error outcome.
//! * **Funnel accounting** — `pruned + evaluated == unique`, always.
//! * **Small sweeps prune** — a 128-candidate grid prunes under every
//!   objective, with the oracle's kept set.

use clb_core::{
    candidate_bounds, objective_key, rank_entries, staged_sweep_archs, staged_sweep_archs_network,
    sweep_archs, sweep_archs_network, Accelerator, ArchConfig, ArchSweepEntry, CandidateBound,
    DramConfig, Objective, SimError, SweepCost,
};
use conv_model::workloads::Network;
use conv_model::ConvLayer;
use proptest::prelude::*;

/// Random small layers with `same` padding, so halo clipping is exercised.
fn layer_strategy() -> impl Strategy<Value = ConvLayer> {
    (
        1usize..=2,  // batch
        4usize..=24, // out channels
        6usize..=18, // output size
        1usize..=8,  // in channels
        1usize..=3,  // kernel
        1usize..=2,  // stride
    )
        .prop_filter_map("valid layer", |(b, co, size, ci, k, s)| {
            ConvLayer::square(b, co, size, ci, k, s).ok()
        })
}

fn network_strategy() -> impl Strategy<Value = Network> {
    prop::collection::vec(layer_strategy(), 1..=3).prop_map(|layers| {
        Network::new(
            "prop-net",
            layers
                .into_iter()
                .enumerate()
                .map(|(i, l)| (format!("conv{i}"), l))
                .collect(),
        )
    })
}

/// Random candidates around the Table I design space. Tiny IGBuf choices
/// make some layers provably infeasible (the bound stage's strongest
/// verdict); an invalid group size exercises the `InvalidArch` path.
fn candidate_strategy() -> impl Strategy<Value = ArchConfig> {
    (
        0usize..4, // pe_rows in {8,16,24,32}
        0usize..2, // pe_cols in {8,16}
        0usize..3, // groups in {2,4,7} — 7 fails validation
        0usize..3, // lreg in {32,64,128}
        0usize..4, // igbuf in {8,512,1024,2048}
        0usize..2, // wgbuf in {128,256}
    )
        .prop_map(|(pr, pc, g, lr, ig, wg)| {
            let group = [2usize, 4, 7][g];
            ArchConfig {
                pe_rows: [8usize, 16, 24, 32][pr],
                pe_cols: [8usize, 16][pc],
                group_rows: group,
                group_cols: 2,
                lreg_entries_per_pe: [32usize, 64, 128][lr],
                igbuf_entries: [8usize, 512, 1024, 2048][ig],
                wgbuf_entries: [128usize, 256][wg],
                ..ArchConfig::implementation(1)
            }
        })
}

/// Random candidates over the axes of the benchmark's DSE grid (PE 8–32 ×
/// 8–32 in steps of the group width, group rows 1–2, LReg 16–128, IGBuf
/// 256–1,600, WGBuf 256–1,024), each with a random DRAM link: bandwidth
/// and latency log-uniform over the whole range the caps allow.
fn sweep_axes_strategy() -> impl Strategy<Value = ArchConfig> {
    use accel_sim::caps;
    (
        2usize..=8,      // pe_rows / 4
        2usize..=8,      // pe_cols / 4
        1usize..=2,      // group_rows
        16usize..=128,   // lreg entries per PE
        256usize..=1600, // igbuf entries
        256usize..=1024, // wgbuf entries
        caps::MIN_DRAM_BW.log10()..=caps::MAX_DRAM_BW.log10(),
        0.0f64..=(caps::MAX_DRAM_LATENCY_CYCLES as f64).log10(),
    )
        .prop_map(|(pr, pc, gr, lreg, ig, wg, bw, lat)| ArchConfig {
            pe_rows: 4 * pr,
            pe_cols: 4 * pc,
            group_rows: gr,
            lreg_entries_per_pe: lreg,
            igbuf_entries: ig,
            wgbuf_entries: wg,
            dram: DramConfig {
                bandwidth_bytes_per_s: 10f64.powf(bw).clamp(caps::MIN_DRAM_BW, caps::MAX_DRAM_BW),
                latency_cycles: (10f64.powf(lat) as u64).min(caps::MAX_DRAM_LATENCY_CYCLES),
            },
            ..ArchConfig::implementation(1)
        })
}

/// The admissibility contract of one candidate's floors against its
/// actual outcome: every objective's floor key is ≤ its [`objective_key`]
/// (so a provably infeasible verdict is never given to a feasible
/// candidate), and a feasible candidate's floors are each ≤ its actual
/// cycles, DRAM words and energy.
fn assert_admissible<R: SweepCost>(
    arch: ArchConfig,
    bound: &CandidateBound,
    outcome: Result<R, SimError>,
) {
    let entry = ArchSweepEntry { arch, outcome };
    for objective in Objective::ALL {
        let floor = bound.floor_key(objective, arch.cache_key());
        let actual = objective_key(&entry, objective);
        assert!(
            floor <= actual,
            "{objective:?} floor key {floor:?} above actual {actual:?} for {arch:?}"
        );
    }
    if let Ok(report) = &entry.outcome {
        assert!(
            !bound.provably_infeasible,
            "feasible candidate declared provably infeasible: {arch:?}"
        );
        assert!(
            bound.cycles_lb <= report.sweep_cycles(),
            "cycles floor {} above actual {} for {arch:?}",
            bound.cycles_lb,
            report.sweep_cycles()
        );
        assert!(
            bound.dram_lb <= report.sweep_dram_words(),
            "DRAM floor {} above actual {} for {arch:?}",
            bound.dram_lb,
            report.sweep_dram_words()
        );
        let actual_bits = report.sweep_energy_pj().max(0.0).to_bits();
        assert!(
            bound.energy_lb_bits <= actual_bits,
            "energy floor {} pJ above actual {} pJ for {arch:?}",
            f64::from_bits(bound.energy_lb_bits),
            report.sweep_energy_pj()
        );
    }
}

fn objective_strategy() -> impl Strategy<Value = Objective> {
    (0usize..Objective::ALL.len()).prop_map(|i| Objective::ALL[i])
}

/// The serialized form of a kept frontier — byte equality of this string is
/// exactly wire-level bit identity.
fn rendered<R: SweepCost + serde::Serialize>(entries: &[ArchSweepEntry<R>]) -> String {
    entries
        .iter()
        .map(|entry| match &entry.outcome {
            Ok(report) => format!(
                "{}=>{}",
                serde_json::to_string_pretty(&entry.arch).unwrap(),
                serde_json::to_string_pretty(report).unwrap()
            ),
            Err(e) => format!(
                "{}=>error:{e}",
                serde_json::to_string_pretty(&entry.arch).unwrap()
            ),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Layer mode: staged frontier == unpruned oracle ranking, for every
    /// objective, bit for bit.
    #[test]
    fn staged_layer_sweep_equals_unpruned_oracle(
        layer in layer_strategy(),
        candidates in prop::collection::vec(candidate_strategy(), 1..=24),
        objective in objective_strategy(),
        top_k in 1usize..=8,
    ) {
        let staged = staged_sweep_archs("layer", &layer, &candidates, objective, top_k, |_| {});
        let oracle = rank_entries(sweep_archs("layer", &layer, &candidates), objective, top_k);
        prop_assert_eq!(rendered(&staged.entries), rendered(&oracle));
        prop_assert_eq!(staged.pruned + staged.evaluated, staged.unique as u64);
    }

    /// Network mode: staged frontier == unpruned oracle ranking.
    #[test]
    fn staged_network_sweep_equals_unpruned_oracle(
        net in network_strategy(),
        candidates in prop::collection::vec(candidate_strategy(), 1..=8),
        objective in objective_strategy(),
        top_k in 1usize..=4,
    ) {
        let staged = staged_sweep_archs_network(&net, &candidates, objective, top_k, |_| {});
        let oracle = rank_entries(sweep_archs_network(&net, &candidates), objective, top_k);
        prop_assert_eq!(rendered(&staged.entries), rendered(&oracle));
        prop_assert_eq!(staged.pruned + staged.evaluated, staged.unique as u64);
    }

    /// Every floor under-states the candidate's actual costs; the
    /// infeasibility verdict is never wrong.
    #[test]
    fn bounds_are_admissible(
        layer in layer_strategy(),
        candidates in prop::collection::vec(candidate_strategy(), 1..=12),
        swept in prop::collection::vec(sweep_axes_strategy(), 1..=12),
    ) {
        let candidates = [candidates, swept].concat();
        let bounds = candidate_bounds(std::slice::from_ref(&layer), &candidates);
        for (arch, bound) in candidates.iter().zip(&bounds) {
            assert_admissible(*arch, bound, Accelerator::new(*arch).analyze_layer("layer", &layer));
        }
    }

    /// Network mode: per-layer floors summed over the model under-state the
    /// [`NetworkReport`](clb_core::NetworkReport) totals.
    #[test]
    fn network_bounds_are_admissible(
        net in network_strategy(),
        candidates in prop::collection::vec(candidate_strategy(), 1..=3),
        swept in prop::collection::vec(sweep_axes_strategy(), 1..=6),
    ) {
        let candidates = [candidates, swept].concat();
        let layers: Vec<ConvLayer> = net.conv_layers().map(|l| l.layer).collect();
        let bounds = candidate_bounds(&layers, &candidates);
        for (arch, bound) in candidates.iter().zip(&bounds) {
            assert_admissible(*arch, bound, Accelerator::new(*arch).analyze_network(&net));
        }
    }

    /// The streamed snapshots are monotone (processed counts increase) and
    /// the last snapshot's frontier equals the final kept set.
    #[test]
    fn progress_snapshots_converge_to_the_final_frontier(
        layer in layer_strategy(),
        candidates in prop::collection::vec(candidate_strategy(), 2..=16),
        objective in objective_strategy(),
    ) {
        let mut snapshots: Vec<(usize, u64, String)> = Vec::new();
        let staged = staged_sweep_archs("layer", &layer, &candidates, objective, 4, |p| {
            // A Pareto frontier may exceed top-K mid-run; the kept set is
            // truncated only on extraction, so compare the head.
            let head = &p.frontier[..p.frontier.len().min(4)];
            snapshots.push((p.processed, p.pruned, rendered(head)));
        });
        prop_assert!(snapshots.windows(2).all(|w| w[0].0 < w[1].0));
        if let Some((_, _, last)) = snapshots.last() {
            prop_assert_eq!(last, &rendered(&staged.entries));
        } else {
            prop_assert!(staged.entries.is_empty());
        }
    }
}

/// A sweep small enough to fit the old first 512-candidate chunk prunes
/// under every objective, keeping exactly the oracle's set. The grid is
/// the benchmark's legacy sub-grid shape: PE rows/cols {8,16,24,32}, group
/// rows 1, LReg {16,128}, IGBuf {256,1600}, WGBuf {256,1024} — 128
/// candidates — on a 64→64-channel 14×14 3×3 layer at batch 1.
#[test]
fn a_small_staged_sweep_prunes_every_objective() {
    let layer = ConvLayer::square(1, 64, 14, 64, 3, 1).unwrap();
    let mut grid = Vec::new();
    for pe_rows in [8, 16, 24, 32] {
        for pe_cols in [8, 16, 24, 32] {
            for lreg in [16, 128] {
                for igbuf in [256, 1600] {
                    for wgbuf in [256, 1024] {
                        grid.push(ArchConfig {
                            pe_rows,
                            pe_cols,
                            group_rows: 1,
                            lreg_entries_per_pe: lreg,
                            igbuf_entries: igbuf,
                            wgbuf_entries: wgbuf,
                            ..ArchConfig::implementation(1)
                        });
                    }
                }
            }
        }
    }
    assert_eq!(grid.len(), 128);
    let full = sweep_archs("layer", &layer, &grid);
    let pruned: Vec<(Objective, u64)> = Objective::ALL
        .into_iter()
        .map(|objective| {
            let staged = staged_sweep_archs("layer", &layer, &grid, objective, 8, |_| {});
            let oracle = rank_entries(full.clone(), objective, 8);
            assert_eq!(
                rendered(&staged.entries),
                rendered(&oracle),
                "{objective:?}"
            );
            assert_eq!(staged.pruned + staged.evaluated, 128, "{objective:?}");
            assert!(staged.pruned > 0, "{objective:?} pruned nothing");
            (objective, staged.pruned)
        })
        .collect();
    assert_eq!(
        pruned,
        [
            (Objective::Cycles, 104),
            (Objective::Traffic, 104),
            (Objective::Energy, 64),
            (Objective::Pareto, 52),
        ]
    );
}
