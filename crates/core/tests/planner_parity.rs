//! The planner against an exhaustive reference, and the mapping check it
//! prunes with against the full mapping:
//!
//! * **Plan parity** — [`plan_for_arch`] (pruned, parallel, ending each
//!   x-run at the first tiling that does not map) must equal a serial
//!   quadruple loop over the same dense grid plus the `paper_tiling` seed,
//!   kept by [`tiling_feasible`] and ranked by the canonical
//!   `(traffic, b, z, y, x)` key, errors included, for random layers ×
//!   Table I implementations and architectures on the benchmark's DSE axes.
//! * **Existence parity** — [`block_fits`] must agree with
//!   `map_block(..).is_ok()` on random blocks.
//! * **Down-closure** — every smaller block of a block that maps also
//!   maps, which is what makes ending an x-run lossless.
//! * **Memoized stats** — the stats the plan memo hands
//!   [`Accelerator::analyze_layer`], cold or warm, are a fresh
//!   `accel_sim::simulate` of the planned tiling, and a memoized error is
//!   one the reference planner gives too.

use accel_sim::mapping::{block_fits, map_block, Block, RowGrids};
use clb_core::{plan_for_arch, tiling_feasible, Accelerator, ArchConfig, OnChipMemory, SimError};
use conv_model::ConvLayer;
use dataflow::{our_dataflow_traffic, paper_tiling, LayerTables, Tiling};
use proptest::prelude::*;

/// The reference plan: no pruning, no early exit, no threads.
fn exhaustive_plan(layer: &ConvLayer, arch: &ArchConfig) -> Result<Tiling, SimError> {
    arch.validate().map_err(SimError::InvalidArch)?;
    let key = |t: &Tiling| {
        (
            our_dataflow_traffic(layer, t).total_words(),
            t.b,
            t.z,
            t.y,
            t.x,
        )
    };
    let mut best: Option<Tiling> = None;
    let mut offer = |t: Tiling| {
        if tiling_feasible(layer, &t, arch) && best.is_none_or(|b| key(&t) < key(&b)) {
            best = Some(t);
        }
    };
    let mem = OnChipMemory::from_words(arch.effective_onchip_words() as f64);
    let grid = LayerTables::new(layer);
    offer(paper_tiling(&grid, mem));
    for b in 1..=layer.batch() {
        for &z in grid.z_candidates_dense() {
            for &y in grid.y_candidates_dense() {
                for &x in grid.x_candidates_dense() {
                    offer(Tiling { b, z, y, x });
                }
            }
        }
    }
    best.ok_or_else(|| no_tiling_error(layer, arch))
}

/// The planner's documented diagnosis when nothing fits: whatever stops
/// the unit tiling, checked IGBuf, then PE mapping, then WGBuf.
fn no_tiling_error(layer: &ConvLayer, arch: &ArchConfig) -> SimError {
    let (xh, yh) = layer.input_footprint(1, 1);
    if xh * yh > arch.igbuf_entries {
        return SimError::InputTileTooLarge {
            needed: xh * yh,
            capacity: arch.igbuf_entries,
        };
    }
    match map_block(arch, layer, &block(1, 1, 1, 1)) {
        Err(e) => SimError::Unmappable(e),
        Ok(_) => SimError::WeightTileTooLarge {
            z: 1,
            capacity: arch.wgbuf_entries,
        },
    }
}

fn block(b: usize, z: usize, y: usize, x: usize) -> Block {
    Block {
        i0: 0,
        b,
        z0: 0,
        z,
        y0: 0,
        y,
        x0: 0,
        x,
    }
}

/// Small random layers with `same` padding. Output channels reach past 64,
/// where the dense grid is divisors plus a ladder; a 17×17 kernel
/// overflows the smaller IGBufs, so some layers have no plan at all.
fn layer_strategy() -> impl Strategy<Value = ConvLayer> {
    (
        1usize..=2,  // batch
        1usize..=80, // out channels
        4usize..=18, // input size
        1usize..=8,  // in channels
        0usize..5,   // kernel in {1, 3, 5, 7, 17}
        1usize..=3,  // stride
    )
        .prop_filter_map("valid layer", |(b, co, size, ci, k, s)| {
            ConvLayer::square(b, co, size, ci, [1, 3, 5, 7, 17][k], s).ok()
        })
}

/// One of the five Table I implementations, or an architecture on the
/// axes of the benchmark's DSE grid: PE 8–32 × 8–32 in steps of the group
/// width (24 rows have 30 row-grid factorisations), group rows 1–2, LReg
/// 16–128, IGBuf 256–1,600, WGBuf 256–1,024. A group-row count of 3
/// leaves some arrays invalid.
fn arch_strategy() -> impl Strategy<Value = ArchConfig> {
    (
        0usize..=5,      // 0: DSE axes; 1-5: Table I
        2usize..=8,      // pe_rows / 4
        2usize..=8,      // pe_cols / 4
        1usize..=3,      // group_rows
        16usize..=128,   // lreg entries per PE
        256usize..=1600, // igbuf entries
        256usize..=1024, // wgbuf entries
    )
        .prop_map(|(implem, pr, pc, gr, lreg, ig, wg)| {
            if implem > 0 {
                return ArchConfig::implementation(implem);
            }
            ArchConfig {
                pe_rows: 4 * pr,
                pe_cols: 4 * pc,
                group_rows: gr,
                lreg_entries_per_pe: lreg,
                igbuf_entries: ig,
                wgbuf_entries: wg,
                ..ArchConfig::implementation(1)
            }
        })
}

/// A random block of up to 3 images × 128 channels × 32 × 32 outputs;
/// about half of them map.
fn block_strategy() -> impl Strategy<Value = Block> {
    (1usize..=3, 1usize..=128, 1usize..=32, 1usize..=32).prop_map(|(b, z, y, x)| block(b, z, y, x))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planner_matches_exhaustive_reference(layer in layer_strategy(), arch in arch_strategy()) {
        prop_assert_eq!(
            plan_for_arch(&layer, &arch),
            exhaustive_plan(&layer, &arch),
            "{} on {:?}", layer, arch
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memoized_stats_are_a_fresh_simulation(layer in layer_strategy(), arch in arch_strategy()) {
        // Two analyses: one of them fills the memo (unless an earlier draw
        // did) and the other hits it; neither may tell.
        let acc = Accelerator::new(arch);
        let analyses = [acc.analyze_layer("layer", &layer), acc.analyze_layer("layer", &layer)];
        match plan_for_arch(&layer, &arch) {
            Ok(tiling) => {
                // Every planned tiling simulates; the memo keeps its stats.
                let fresh = accel_sim::simulate(&layer, &tiling, &arch);
                prop_assert!(fresh.is_ok(), "{} on {:?}: {:?}", layer, arch, fresh);
                let fresh = fresh.unwrap();
                for analysis in analyses {
                    let report = analysis.unwrap();
                    prop_assert_eq!(report.tiling, tiling);
                    // `Debug` prints each float in its shortest round-trip
                    // form, so equal strings are equal bits.
                    prop_assert_eq!(format!("{:?}", report.stats), format!("{:?}", fresh));
                }
            }
            Err(e) => {
                prop_assert_eq!(&Err(e.clone()), &exhaustive_plan(&layer, &arch));
                for analysis in analyses {
                    prop_assert_eq!(analysis.unwrap_err(), e.clone());
                }
            }
        }
    }

    #[test]
    fn block_fits_agrees_with_map_block(
        layer in layer_strategy(),
        arch in arch_strategy(),
        b in block_strategy(),
    ) {
        let grids = RowGrids::new(arch.pe_rows);
        prop_assert_eq!(
            block_fits(&arch, &layer, &grids, &b),
            map_block(&arch, &layer, &b).is_ok(),
            "{:?} of {} on {:?}", b, layer, arch
        );
    }

    #[test]
    fn smaller_blocks_of_a_fitting_block_fit(
        layer in layer_strategy(),
        arch in arch_strategy(),
        large in block_strategy(),
        f in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
    ) {
        // A random block no larger than `large` on any axis.
        let shrink = |n: usize, f: f64| ((n as f64 * f).ceil() as usize).clamp(1, n);
        let small = block(
            shrink(large.b, f.0),
            shrink(large.z, f.1),
            shrink(large.y, f.2),
            shrink(large.x, f.3),
        );
        let grids = RowGrids::new(arch.pe_rows);
        if block_fits(&arch, &layer, &grids, &large) {
            prop_assert!(
                block_fits(&arch, &layer, &grids, &small),
                "{:?} maps but {:?} does not, {} on {:?}", large, small, layer, arch
            );
        }
    }
}

#[test]
fn the_reference_gives_the_planners_errors() {
    // The random layers rarely lack a plan; these pin the error paths: a
    // window beyond the IGBuf, a kernel row beyond a GReg segment and an
    // invalid array.
    let arch = ArchConfig::implementation(1);
    let huge_window = ConvLayer::square(1, 4, 40, 4, 33, 1).unwrap();
    let wide_row = ConvLayer::builder()
        .batch(1)
        .out_channels(4)
        .in_channels(4)
        .input(8, 80)
        .kernel(1, 65)
        .build()
        .unwrap();
    let mut invalid = arch;
    invalid.group_rows = 3;
    let cases = [
        (huge_window, arch, "input tile"),
        (wide_row, arch, "unmappable"),
        (huge_window, invalid, "invalid architecture"),
    ];
    for (layer, arch, error) in cases {
        let planned = plan_for_arch(&layer, &arch);
        assert!(
            planned
                .as_ref()
                .is_err_and(|e| e.to_string().contains(error)),
            "{layer} on {arch:?} planned {planned:?}"
        );
        assert_eq!(planned, exhaustive_plan(&layer, &arch));
    }
}
