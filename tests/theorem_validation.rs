//! End-to-end validation of the theory chain on small layers:
//! Lemma 1 (DAG size) → Lemma 2 (T(S)) → Eq. 12 (P(S)) → Theorem 1 →
//! Theorem 2, squeezed against real measured schedules.

use clb::bound::OnChipMemory;
use clb::model::{ConvLayer, Padding};
use clb::pebble;
use clb::sim::{ArchConfig, TraceOptions};
use proptest::prelude::*;

fn small_layer() -> ConvLayer {
    ConvLayer::builder()
        .batch(1)
        .out_channels(4)
        .in_channels(4)
        .input(8, 8)
        .kernel(3, 3)
        .stride(1)
        .padding(Padding::none())
        .build()
        .unwrap()
}

#[test]
fn lemma1_node_count_on_dag() {
    let layer = small_layer();
    let conv = pebble::build_conv_dag(&layer);
    assert_eq!(conv.dag.internal_count() as u64, 2 * layer.macs());
    assert_eq!(
        conv.dag.input_count() as u64,
        layer.input_words() + layer.weight_words()
    );
}

#[test]
fn lemma2_brute_force_respects_bound() {
    // Exhaustively maximise the single-block term count and compare against
    // the closed form of Lemma 2 for the layer's R.
    let layer = small_layer();
    let r = layer.window_reuse();
    for s in [64u64, 256, 1024] {
        let brute = pebble::max_terms_brute_force(s, r);
        let bound = pebble::max_terms_bound(s, r);
        assert!(brute <= bound + 1e-9, "S={s}: {brute} > {bound}");
    }
}

#[test]
fn greedy_partition_vs_counting_lower_bound() {
    // The greedy S-partition is an upper bound on P(S); Eq. 12 is a lower
    // bound. The chain is consistent iff lower <= upper for every S.
    let layer = small_layer();
    let conv = pebble::build_conv_dag(&layer);
    let r = layer.window_reuse();
    for s in [16usize, 32, 64, 128] {
        let upper = pebble::greedy_partition(&conv.dag, s).len() as u64;
        let lower = pebble::p_lower_bound(conv.dag.internal_count() as u64, s as u64, r);
        assert!(
            lower <= upper,
            "S={s}: counting bound {lower} exceeds constructive partition {upper}"
        );
    }
}

#[test]
fn theorem2_pebble_bound_below_measured_schedule() {
    // Any real schedule's DRAM traffic must dominate the Theorem 1/2 bound.
    // Use the simulator's counted traffic for the paper's dataflow.
    let layer = small_layer();
    for s_words in [128u64, 256, 512] {
        let q_bound = pebble::theorem2_q_lower(&layer, s_words);
        let mem = OnChipMemory::from_words(s_words as f64);
        let measured = clb::dataflow::search_ours(&layer, mem)
            .traffic
            .total_words();
        assert!(
            q_bound <= measured,
            "S={s_words}: pebble bound {q_bound} exceeds measured {measured}"
        );
    }
}

/// Layers big enough that Theorem 2's bound is nonzero at the Table I
/// implementations' on-chip sizes, small enough to plan quickly.
fn bounded_layers() -> impl Strategy<Value = ConvLayer> {
    (
        1usize..=2,
        16usize..=160,
        8usize..=40,
        16usize..=160,
        1usize..=5,
        1usize..=2,
        prop::bool::ANY,
    )
        .prop_filter_map("kernel must fit", |(b, co, size, ci, k, s, same)| {
            let padding = if same {
                Padding::same(k)
            } else {
                Padding::none()
            };
            ConvLayer::builder()
                .batch(b)
                .out_channels(co)
                .in_channels(ci)
                .input(size, size)
                .kernel(k, k)
                .stride(s)
                .padding(padding)
                .build()
                .ok()
        })
}

/// Architectures over the axes of the benchmark's DSE grid (PE 8–32 ×
/// 8–32, group rows 1–2, LReg 16–128 entries per PE, IGBuf 256–1,600,
/// WGBuf 256 or 1,024; the rest as implementation 1), kept when they
/// validate.
fn sweep_archs() -> impl Strategy<Value = ArchConfig> {
    (
        8usize..=32,
        8usize..=32,
        1usize..=2,
        16usize..=128,
        256usize..=1600,
        prop::bool::ANY,
    )
        .prop_filter_map(
            "arch must validate",
            |(pe_rows, pe_cols, group_rows, lreg, igbuf, big_wgbuf)| {
                let arch = ArchConfig {
                    pe_rows,
                    pe_cols,
                    group_rows,
                    lreg_entries_per_pe: lreg,
                    igbuf_entries: igbuf,
                    wgbuf_entries: if big_wgbuf { 1024 } else { 256 },
                    ..ArchConfig::implementation(1)
                };
                arch.validate().is_ok().then_some(arch)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 2 against the strongest oracle in the tree: the DRAM words
    /// the simulator counts for the planned tiling on a Table I
    /// implementation never fall below the pebble-game bound at that
    /// implementation's effective on-chip words. Cases where the bound is
    /// zero prove nothing and are not counted.
    #[test]
    fn simulated_dram_of_planned_tilings_never_beats_theorem2(
        layer in bounded_layers(),
        implem in 1usize..=5,
    ) {
        let arch = ArchConfig::implementation(implem);
        let bound = pebble::theorem2_q_lower(&layer, arch.effective_onchip_words() as u64);
        prop_assume!(bound > 0);
        let tiling = clb::core::plan_for_arch(&layer, &arch);
        prop_assume!(tiling.is_ok());
        let stats = clb::sim::simulate(&layer, &tiling.unwrap(), &arch).unwrap();
        let simulated = stats.dram.total_words();
        prop_assert!(
            bound <= simulated,
            "implementation {implem}, {layer:?}: bound {bound} > simulated {simulated}"
        );
    }

    /// The same on custom architectures from the DSE grid's axes, where
    /// the traced simulation of the planned tiling must also reproduce the
    /// untraced stats.
    #[test]
    fn simulated_dram_on_custom_archs_never_beats_theorem2(
        layer in bounded_layers(),
        arch in sweep_archs(),
    ) {
        let bound = pebble::theorem2_q_lower(&layer, arch.effective_onchip_words() as u64);
        prop_assume!(bound > 0);
        let tiling = clb::core::plan_for_arch(&layer, &arch);
        prop_assume!(tiling.is_ok());
        let tiling = tiling.unwrap();
        let stats = clb::sim::simulate(&layer, &tiling, &arch).unwrap();
        let (traced, _) =
            clb::sim::simulate_traced(&layer, &tiling, &arch, &TraceOptions::default()).unwrap();
        prop_assert_eq!(&traced, &stats);
        let simulated = stats.dram.total_words();
        prop_assert!(
            bound <= simulated,
            "{arch:?}, {layer:?}: bound {bound} > simulated {simulated}"
        );
    }
}

#[test]
fn theorem2_and_eq15_agree_on_scaling() {
    // Both bounds must scale as 1/sqrt(S) in the read-dominated regime.
    let layer = ConvLayer::square(1, 64, 32, 64, 3, 1).unwrap();
    let ratio_pebble = pebble::theorem2_q_lower(&layer, 1024) as f64
        / pebble::theorem2_q_lower(&layer, 4096) as f64;
    let ratio_eq15 = clb::bound::theorem2_dram_words(&layer, OnChipMemory::from_words(1024.0))
        / clb::bound::theorem2_dram_words(&layer, OnChipMemory::from_words(4096.0));
    assert!((ratio_eq15 - 2.0).abs() < 1e-12);
    assert!((ratio_pebble - 2.0).abs() < 0.3);
}

#[test]
fn s_partition_checker_validates_greedy_across_sizes() {
    let layer = ConvLayer::builder()
        .batch(1)
        .out_channels(2)
        .in_channels(3)
        .input(6, 6)
        .kernel(3, 3)
        .padding(Padding::none())
        .build()
        .unwrap();
    let conv = pebble::build_conv_dag(&layer);
    for s in [8usize, 24, 72, 216] {
        let p = pebble::greedy_partition(&conv.dag, s);
        pebble::check_s_partition(&conv.dag, &p, s).unwrap();
    }
}

#[test]
fn fc_layer_matches_hong_kung_mm_bound() {
    // R = 1: Theorem 2 must reduce to the classic MM bound #MACs/sqrt(S).
    let fc = clb::model::workloads::fully_connected(4, 256, 256);
    let mem = OnChipMemory::from_words(4096.0);
    let bound = clb::bound::theorem2_dram_words(&fc, mem);
    let classic = fc.macs() as f64 / 4096.0_f64.sqrt();
    assert!((bound - classic).abs() / classic < 1e-12);
}
