//! Property tests of the execution-trace subsystem: a trace's interval sums
//! must reproduce the [`SimStats`] it ships with bit-identically — across
//! random layers × tilings × all five Table I implementations — and an
//! over-cap trace request must be rejected with a typed error before any
//! expansion is allocated.

use accel_sim::trace::caps;
use accel_sim::{
    simulate, simulate_traced, ArchConfig, ExecutionTrace, SimError, SimStats, TraceOptions,
    TracePhase, TraceSegment,
};
use conv_model::{ConvLayer, Padding};
use dataflow::Tiling;
use proptest::prelude::*;

fn feasible_case() -> impl Strategy<Value = (ConvLayer, Tiling)> {
    (
        1usize..=2,
        1usize..=12,
        4usize..=16,
        1usize..=6,
        1usize..=3,
        1usize..=2,
        prop::bool::ANY,
        1usize..=2,
        1usize..=12,
        1usize..=8,
        1usize..=8,
    )
        .prop_filter_map(
            "layer valid & tiling feasible",
            |(b, co, size, ci, k, s, pad, tb, tz, ty, tx)| {
                let layer = ConvLayer::builder()
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
                    .ok()?;
                let tiling = Tiling::clamped(&layer, tb, tz, ty, tx);
                Some((layer, tiling))
            },
        )
}

/// Re-derives the four pinned totals from the serialized per-class
/// segments, using exactly the accumulation discipline the simulator
/// documents: plain sums for compute cycles, blocks and iterations,
/// saturating sums for stall cycles.
fn resum(trace: &ExecutionTrace) -> (u64, u64, u64, u64) {
    let mut compute = 0u64;
    let mut stall = 0u64;
    let mut blocks = 0u64;
    let mut iterations = 0u64;
    for class in &trace.classes {
        let per_block_compute: u64 = class
            .segments
            .iter()
            .filter(|s| s.phase == TracePhase::Compute)
            .map(TraceSegment::total_cycles)
            .sum();
        let per_block_stall = class
            .segments
            .iter()
            .filter(|s| s.phase != TracePhase::Compute)
            .fold(0u64, |acc, s| acc.saturating_add(s.total_cycles()));
        compute += per_block_compute * class.multiplicity;
        stall = stall.saturating_add(per_block_stall.saturating_mul(class.multiplicity));
        blocks += class.multiplicity;
        iterations += class.iterations_per_block * class.multiplicity;
    }
    (compute, stall, blocks, iterations)
}

fn assert_trace_matches(stats: &SimStats, trace: &ExecutionTrace, context: &str) {
    // The shipped totals and an independent re-summation of the segments
    // must both reproduce the stats fields bit-identically.
    assert_eq!(
        trace.totals.compute_cycles, stats.compute_cycles,
        "{context}"
    );
    assert_eq!(trace.totals.stall_cycles, stats.stall_cycles, "{context}");
    assert_eq!(trace.totals.blocks, stats.blocks, "{context}");
    assert_eq!(trace.totals.iterations, stats.iterations, "{context}");
    let (compute, stall, blocks, iterations) = resum(trace);
    assert_eq!(compute, stats.compute_cycles, "{context}");
    assert_eq!(stall, stats.stall_cycles, "{context}");
    assert_eq!(blocks, stats.blocks, "{context}");
    assert_eq!(iterations, stats.iterations, "{context}");
    // Per-class rollups agree with their own segments.
    for class in &trace.classes {
        let per_block_stall = class
            .segments
            .iter()
            .filter(|s| s.phase != TracePhase::Compute)
            .fold(0u64, |acc, s| acc.saturating_add(s.total_cycles()));
        assert_eq!(class.stall_cycles, per_block_stall, "{context}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trace_sums_match_simstats((layer, tiling) in feasible_case()) {
        for index in 1..=5 {
            let arch = ArchConfig::implementation(index);
            let traced = simulate_traced(&layer, &tiling, &arch, &TraceOptions::default());
            let untraced = simulate(&layer, &tiling, &arch);
            let Ok((stats, trace)) = traced else {
                // Structurally infeasible tilings are allowed to error —
                // but then the untraced simulation must refuse too (the
                // small cases of `feasible_case` never hit the trace caps).
                prop_assert!(untraced.is_err(), "implem {}", index);
                continue;
            };
            // Tracing never changes the simulation.
            prop_assert_eq!(Some(&stats), untraced.as_ref().ok(), "implem {}", index);
            assert_trace_matches(&stats, &trace, &format!("implem {index}"));
            prop_assert!(trace.blocks.is_empty());
        }
    }

    #[test]
    fn expanded_blocks_cover_the_grid((layer, tiling) in feasible_case()) {
        let arch = ArchConfig::example();
        let options = TraceOptions { expand: true };
        let Ok((stats, trace)) = simulate_traced(&layer, &tiling, &arch, &options) else {
            return Ok(());
        };
        assert_trace_matches(&stats, &trace, "expanded");
        // The expansion lists exactly `blocks` entries, each pointing at a
        // class of its own shape whose multiplicity it contributes to.
        prop_assert_eq!(trace.blocks.len() as u64, stats.blocks);
        let mut per_class = vec![0u64; trace.classes.len()];
        for block in &trace.blocks {
            prop_assert!(block.class < trace.classes.len());
            let class = &trace.classes[block.class];
            prop_assert_eq!(
                (class.b, class.z, class.y, class.x),
                (block.b, block.z, block.y, block.x)
            );
            per_class[block.class] += 1;
        }
        for (class, &count) in trace.classes.iter().zip(&per_class) {
            prop_assert_eq!(class.multiplicity, count);
        }
        // And the expanded trace renders as VCD with a header and at least
        // one timestamped change.
        let vcd = trace.to_vcd().expect("expanded traces render");
        prop_assert!(vcd.contains("$enddefinitions $end"));
        prop_assert!(vcd.lines().any(|l| l.starts_with('#')));
    }
}

#[test]
fn over_cap_expansion_rejected_before_allocation() {
    // A unit tiling on a big layer implies ~200k blocks — far past
    // MAX_TRACE_BLOCKS. The request must be refused with the cap named,
    // from the axis-run cardinalities alone (this test completes in
    // microseconds; walking 200k blocks would be visible).
    let layer = ConvLayer::square(2, 64, 56, 8, 3, 1).unwrap();
    let tiling = Tiling::clamped(&layer, 1, 1, 1, 1);
    let blocks = 2u128 * 64 * 56 * 56;
    assert!(blocks > caps::MAX_TRACE_BLOCKS);
    let err = simulate_traced(
        &layer,
        &tiling,
        &ArchConfig::example(),
        &TraceOptions { expand: true },
    )
    .unwrap_err();
    let SimError::TraceTooLarge {
        cap_name,
        have,
        cap,
    } = err
    else {
        panic!("expected TraceTooLarge, got {err:?}");
    };
    assert_eq!(cap_name, "MAX_TRACE_BLOCKS");
    assert_eq!(have, blocks);
    assert_eq!(cap, caps::MAX_TRACE_BLOCKS);
    assert!(err.to_string().contains("MAX_TRACE_BLOCKS"));

    // Without expansion the same request is fine: the class table stays
    // compact no matter how many blocks the grid has.
    let (stats, trace) = simulate_traced(
        &layer,
        &tiling,
        &ArchConfig::example(),
        &TraceOptions::default(),
    )
    .unwrap();
    assert_eq!(trace.totals.blocks, stats.blocks);
    assert!(trace.classes.len() <= 16);
}

#[test]
fn traced_vgg_layer_matches_untraced() {
    // The CI smoke contract: a VGG-16 conv layer traces, expands, renders
    // VCD, and the totals agree with the untraced run bit-for-bit.
    let net = conv_model::workloads::vgg16(1);
    let named = net.conv_layers().nth(1).unwrap(); // conv1_2: 64ch 224x224
    let arch = ArchConfig::example();
    let tiling = Tiling::clamped(&named.layer, 1, 64, 4, 56);
    let stats = simulate(&named.layer, &tiling, &arch).unwrap();
    let (traced_stats, trace) =
        simulate_traced(&named.layer, &tiling, &arch, &TraceOptions { expand: true }).unwrap();
    assert_eq!(stats, traced_stats);
    assert_eq!(trace.totals.compute_cycles, stats.compute_cycles);
    assert_eq!(trace.totals.stall_cycles, stats.stall_cycles);
    let vcd = trace.to_vcd().unwrap();
    assert!(vcd.contains("$enddefinitions $end"));
    assert!(vcd.lines().filter(|l| l.starts_with('#')).count() > 1);
}
