//! Property tests pinning the search engine to the retained naive
//! reference: the pruned, parallel, memoized engine must return
//! bit-identical [`DataflowChoice`]s across all eight dataflow kinds,
//! several memory sizes, and stride/padding-heavy layers.

use comm_bound::OnChipMemory;
use conv_model::{ConvLayer, Padding};
use dataflow::engine::{self, naive};
use dataflow::DataflowKind;
use proptest::prelude::*;

/// Random layers biased toward awkward geometry: strides up to 3, kernels
/// up to 5, optional same-padding, non-divisible output sizes.
fn layer_strategy() -> impl Strategy<Value = ConvLayer> {
    (
        1usize..=3,  // batch
        1usize..=48, // out channels
        6usize..=40, // input size
        1usize..=8,  // in channels
        1usize..=5,  // kernel
        1usize..=3,  // stride
        prop::bool::ANY,
    )
        .prop_filter_map("valid layer", |(b, co, size, ci, k, s, pad)| {
            ConvLayer::builder()
                .batch(b)
                .out_channels(co)
                .in_channels(ci)
                .input(size, size)
                .kernel(k, k)
                .stride(s)
                .padding(if pad {
                    Padding::same(k)
                } else {
                    Padding::none()
                })
                .build()
                .ok()
        })
}

/// Layers on the axes of the benchmark's `cold_layers` workload: channel
/// counts above 64, so every swept dimension walks `candidates()`'s
/// divisor-plus-ladder grid (and the `Ours` sweep its densified form),
/// which is where the traffic floors prune. The strategy above never
/// draws channel counts that large.
fn cold_layer_strategy() -> impl Strategy<Value = ConvLayer> {
    (
        1usize..=3,    // batch
        64usize..=191, // out channels
        16usize..=40,  // input size
        64usize..=191, // in channels
        prop::bool::ANY,
        1usize..=2, // stride
    )
        .prop_filter_map("valid layer", |(b, co, size, ci, k3, s)| {
            ConvLayer::square(b, co, size, ci, if k3 { 3 } else { 1 }, s).ok()
        })
}

/// Memory sizes from cramped to roomy, including the paper's fractional
/// 66.5 KiB configuration.
const MEM_KIB: [f64; 4] = [2.0, 16.0, 66.5, 173.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_naive_for_every_kind(layer in layer_strategy(), mem_i in 0usize..4) {
        let mem = OnChipMemory::from_kib(MEM_KIB[mem_i]);
        for kind in DataflowKind::ALL {
            let fast = engine::search_dataflow(kind, &layer, mem);
            let slow = naive::search_dataflow(kind, &layer, mem);
            prop_assert_eq!(fast, slow, "{:?} diverged on {} at {} KiB", kind, layer, MEM_KIB[mem_i]);
        }
    }

    #[test]
    fn found_minimum_matches_naive(layer in layer_strategy(), mem_i in 0usize..4) {
        let mem = OnChipMemory::from_kib(MEM_KIB[mem_i]);
        // The eight-kind lookup first, so its misses sweep one shared
        // table; the per-kind lookups and the found minimum read it back.
        let all = engine::search_all(&layer, mem);
        for (&kind, &choice) in DataflowKind::ALL.iter().zip(&all.choices) {
            prop_assert_eq!(choice, engine::search_dataflow(kind, &layer, mem), "{:?}", kind);
        }
        let naive_minimum = naive::found_minimum(&layer, mem);
        prop_assert_eq!(all.minimum, naive_minimum);
        prop_assert_eq!(engine::found_minimum(&layer, mem), naive_minimum);
    }

    #[test]
    fn memoized_result_is_stable(layer in layer_strategy()) {
        // A cached answer must be the same object a fresh search returns.
        let mem = OnChipMemory::from_kib(66.5);
        let first = engine::found_minimum(&layer, mem);
        let cached = engine::found_minimum(&layer, mem);
        prop_assert_eq!(first, cached);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_naive_on_cold_layer_axes(
        layer in cold_layer_strategy(),
        mem_kib in 33.25f64..=199.5,
    ) {
        let mem = OnChipMemory::from_kib(mem_kib);
        for kind in DataflowKind::ALL {
            let fast = engine::search_dataflow(kind, &layer, mem);
            let slow = naive::search_dataflow(kind, &layer, mem);
            prop_assert_eq!(fast, slow, "{:?} diverged on {} at {} KiB", kind, layer, mem_kib);
        }
    }
}

#[test]
fn engine_matches_naive_on_all_vgg16_layers() {
    // The acceptance-criteria workload: every VGG-16 conv layer at the
    // paper's 66.5 KiB, all eight dataflows, plus the found minimum.
    let mem = OnChipMemory::from_kib(66.5);
    for named in conv_model::workloads::vgg16(3).conv_layers() {
        for kind in DataflowKind::ALL {
            assert_eq!(
                engine::search_dataflow(kind, &named.layer, mem),
                naive::search_dataflow(kind, &named.layer, mem),
                "{kind:?} diverged on {}",
                named.name
            );
        }
        let fast = engine::found_minimum(&named.layer, mem);
        let slow = naive::found_minimum(&named.layer, mem);
        assert_eq!(fast, slow, "found_minimum diverged on {}", named.name);
        assert_eq!(
            fast.traffic.total_words(),
            slow.traffic.total_words(),
            "traffic totals diverged on {}",
            named.name
        );
    }
}

#[test]
fn engine_matches_naive_on_strided_padded_stress_layers() {
    // Hand-picked geometry stress cases: stride > kernel (input gaps),
    // heavy padding, non-square-friendly sizes, 1×1 kernels.
    let cases = [
        ConvLayer::square(2, 96, 31, 3, 7, 3).unwrap(),
        ConvLayer::square(1, 13, 17, 5, 1, 1).unwrap(),
        ConvLayer::square(3, 64, 23, 24, 5, 4).unwrap(),
        ConvLayer::builder()
            .batch(2)
            .out_channels(32)
            .in_channels(6)
            .input(29, 29)
            .kernel(3, 3)
            .stride(2)
            .padding(Padding::same(3))
            .build()
            .unwrap(),
    ];
    for layer in &cases {
        for kib in [4.0, 32.0, 66.5] {
            let mem = OnChipMemory::from_kib(kib);
            for kind in DataflowKind::ALL {
                assert_eq!(
                    engine::search_dataflow(kind, layer, mem),
                    naive::search_dataflow(kind, layer, mem),
                    "{kind:?} diverged on {layer} at {kib} KiB"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hoisted_candidate_grids_match_recomputation(layer in layer_strategy()) {
        // `LayerTables` hoists the `candidates()` grids so per-search
        // recomputation stops; the hoisted lists must stay exactly the
        // grids a direct call recomputes, for every swept dimension.
        let tables = engine::LayerTables::new(&layer);
        prop_assert_eq!(tables.z_candidates(), &dataflow::candidates(layer.out_channels())[..]);
        prop_assert_eq!(tables.k_candidates(), &dataflow::candidates(layer.in_channels())[..]);
        prop_assert_eq!(tables.y_candidates(), &dataflow::candidates(layer.output_height())[..]);
        prop_assert_eq!(tables.x_candidates(), &dataflow::candidates(layer.output_width())[..]);
    }
}
