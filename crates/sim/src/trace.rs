//! Per-block execution traces: where the cycles of a simulation go.
//!
//! [`simulate_traced`](crate::simulate_traced) records, alongside the usual
//! [`SimStats`], an [`ExecutionTrace`]: one timeline per block *shape class*
//! (the classes of `simulate`'s walk, observed as it counts them)
//! describing how a member block spends its cycles — the one-off DRAM
//! first-access latency, the per-iteration compute span, the per-iteration
//! unhidden load stall and the one-off output drain stall — together with
//! the class multiplicity, so the trace stays compact even for grids of
//! tens of thousands of blocks.
//! Per-block expansion ([`TraceOptions::expand`]) lists every block of the
//! grid in execution order with a reference into the class table, which is
//! what the VCD rendering ([`ExecutionTrace::to_vcd`]) walks.
//!
//! # The trace can never lie
//!
//! In the spirit of the hardware-counter validation literature, a trace is
//! only trustworthy if it is provably consistent with the totals it claims
//! to explain. The internal builder accumulates its totals with *exactly*
//! the arithmetic of the simulator's accumulator (plain sums for compute
//! cycles, blocks and iterations; saturating sums for stall cycles), and
//! [`ExecutionTrace`] construction asserts that they reproduce the
//! [`SimStats`] fields bit-identically — there is no way to obtain a trace
//! whose intervals sum to anything other than the stats it ships with. The
//! `trace_properties` proptest re-derives the totals from the serialized
//! segments and pins the same identity across random layers × tilings × all
//! five Table I implementations.

use serde::{Serialize, Serializer};

use crate::stats::SimStats;

/// Limits-style caps bounding every trace a caller can request, in the
/// mould of [`crate::caps`]: oversized requests are rejected with a typed
/// [`SimError::TraceTooLarge`](crate::SimError::TraceTooLarge) *before* any
/// expansion is allocated.
pub mod caps {
    /// Max distinct block shape classes (and therefore interval lists) an
    /// [`ExecutionTrace`](super::ExecutionTrace) may contain. Each class
    /// carries at most four segments, so this also bounds the interval
    /// count. Real grids collapse to dozens of classes; hitting this cap
    /// means the request is pathological, not that the layer is big.
    pub const MAX_TRACE_CLASSES: u128 = 4096;
    /// Max blocks a per-block expansion
    /// ([`TraceOptions::expand`](super::TraceOptions)) — and therefore a
    /// VCD rendering — may enumerate.
    pub const MAX_TRACE_BLOCKS: u128 = 4096;
}

/// What a trace request should record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceOptions {
    /// Also expand the class table into the full per-block list (execution
    /// order), bounded by [`caps::MAX_TRACE_BLOCKS`]. Required for VCD
    /// rendering.
    pub expand: bool,
}

/// One kind of activity within a block's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// The one-off DRAM first-access latency charged to the block.
    DramLatency,
    /// PE-array compute (one span per GBuf-load iteration).
    Compute,
    /// Unhidden input/weight load stall (the part of an iteration's DRAM
    /// transfer the overlapping compute could not cover).
    LoadStall,
    /// Unhidden output write-back (drain) stall, charged once per block.
    DrainStall,
}

impl TracePhase {
    /// The wire name of the phase (snake_case, as serialized).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            TracePhase::DramLatency => "dram_latency",
            TracePhase::Compute => "compute",
            TracePhase::LoadStall => "load_stall",
            TracePhase::DrainStall => "drain_stall",
        }
    }
}

impl Serialize for TracePhase {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.string(self.as_str());
    }
}

/// One interval of a block's timeline: `repeat` back-to-back spans of
/// `cycles` cycles each, all in the same [`TracePhase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TraceSegment {
    /// What the block is doing during this interval.
    pub phase: TracePhase,
    /// Length of one span in core cycles.
    pub cycles: u64,
    /// How many times the span repeats (`iterations_per_block` for the
    /// per-iteration phases, 1 for the one-off phases).
    pub repeat: u64,
}

impl TraceSegment {
    /// Total cycles of the interval (`cycles · repeat`, saturating — the
    /// same arithmetic the simulator's stall accumulation uses).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles.saturating_mul(self.repeat)
    }
}

/// The timeline of one block shape class, shared by `multiplicity` blocks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceClass {
    /// Images per block (`b'`).
    pub b: usize,
    /// Output channels per block (`z'`).
    pub z: usize,
    /// Output rows per block (`y'`).
    pub y: usize,
    /// Output columns per block (`x'`).
    pub x: usize,
    /// Image-clipped input columns actually fetched.
    pub clip_x: u64,
    /// Image-clipped input rows actually fetched.
    pub clip_y: u64,
    /// How many blocks of the grid share this shape.
    pub multiplicity: u64,
    /// GBuf-load iterations per block (the input-channel count).
    pub iterations_per_block: u64,
    /// PEs active during the compute spans (`rows_used · cols_used`).
    pub active_pes: u64,
    /// Rollup: compute cycles of ONE block of this class.
    pub compute_cycles: u64,
    /// Rollup: unhidden stall cycles of ONE block of this class.
    pub stall_cycles: u64,
    /// The timeline (zero-length intervals omitted). Summing
    /// [`TraceSegment::total_cycles`] over the compute segments gives
    /// `compute_cycles`; a saturating sum over the stall segments gives
    /// `stall_cycles`.
    pub segments: Vec<TraceSegment>,
}

/// One expanded block of the grid, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TraceBlock {
    /// First image index.
    pub i0: usize,
    /// Images in this block.
    pub b: usize,
    /// First output channel.
    pub z0: usize,
    /// Output channels in this block.
    pub z: usize,
    /// First output row.
    pub y0: usize,
    /// Output rows in this block.
    pub y: usize,
    /// First output column.
    pub x0: usize,
    /// Output columns in this block.
    pub x: usize,
    /// Index into [`ExecutionTrace::classes`] of this block's timeline.
    pub class: usize,
}

/// The [`SimStats`] fields a trace must reproduce bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TraceTotals {
    /// Total compute cycles across all blocks.
    pub compute_cycles: u64,
    /// Total unhidden stall cycles across all blocks.
    pub stall_cycles: u64,
    /// Total blocks in the grid.
    pub blocks: u64,
    /// Total GBuf-load iterations.
    pub iterations: u64,
}

/// An execution trace, provably consistent with the [`SimStats`] of the
/// same simulation (see the module docs).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExecutionTrace {
    /// One timeline per block shape class, in first-occurrence (execution)
    /// order.
    pub classes: Vec<TraceClass>,
    /// The expanded per-block list (empty unless
    /// [`TraceOptions::expand`] was set).
    pub blocks: Vec<TraceBlock>,
    /// Interval sums, equal to the corresponding [`SimStats`] fields.
    pub totals: TraceTotals,
}

/// What the engine observed about one block shape class — the bridge from
/// the private per-block counters to the public trace types.
pub(crate) struct ClassObservation {
    pub b: usize,
    pub z: usize,
    pub y: usize,
    pub x: usize,
    pub clip_x: u64,
    pub clip_y: u64,
    /// Blocks sharing this shape.
    pub multiplicity: u64,
    /// GBuf-load iterations per block (input channels).
    pub iterations: u64,
    /// PEs active in a pass.
    pub active_pes: u64,
    /// Compute cycles of one block.
    pub compute_cycles: u64,
    /// Compute cycles of one iteration (`compute_cycles / iterations`,
    /// exact — compute cycles are a multiple of the channel count).
    pub compute_per_iteration: u64,
    /// Unhidden load stall of one iteration.
    pub load_per_iteration: u64,
    /// Unhidden output drain stall of one block.
    pub drain: u64,
    /// DRAM first-access latency charged to one block.
    pub latency: u64,
    /// Total unhidden stall of one block, exactly as the simulator's
    /// `block_stall` computed it.
    pub block_stall: u64,
}

/// Accumulates class observations into an [`ExecutionTrace`] while
/// mirroring, operation for operation, the arithmetic of the simulator's
/// accumulator — so the totals it hands to [`TraceBuilder::finish`] agree
/// with the [`SimStats`] by construction.
#[derive(Default)]
pub(crate) struct TraceBuilder {
    classes: Vec<TraceClass>,
    compute_cycles: u64,
    stall_cycles: u64,
    blocks: u64,
    iterations: u64,
}

impl TraceBuilder {
    /// Records one shape class (the engine calls this in the same loop
    /// iteration that feeds the stats accumulator).
    pub(crate) fn add(&mut self, o: &ClassObservation) {
        let mut segments = Vec::with_capacity(4);
        if o.latency > 0 {
            segments.push(TraceSegment {
                phase: TracePhase::DramLatency,
                cycles: o.latency,
                repeat: 1,
            });
        }
        if o.compute_per_iteration > 0 {
            segments.push(TraceSegment {
                phase: TracePhase::Compute,
                cycles: o.compute_per_iteration,
                repeat: o.iterations,
            });
        }
        if o.load_per_iteration > 0 {
            segments.push(TraceSegment {
                phase: TracePhase::LoadStall,
                cycles: o.load_per_iteration,
                repeat: o.iterations,
            });
        }
        if o.drain > 0 {
            segments.push(TraceSegment {
                phase: TracePhase::DrainStall,
                cycles: o.drain,
                repeat: 1,
            });
        }
        self.classes.push(TraceClass {
            b: o.b,
            z: o.z,
            y: o.y,
            x: o.x,
            clip_x: o.clip_x,
            clip_y: o.clip_y,
            multiplicity: o.multiplicity,
            iterations_per_block: o.iterations,
            active_pes: o.active_pes,
            compute_cycles: o.compute_cycles,
            stall_cycles: o.block_stall,
            segments,
        });
        // Exactly the accumulator's operations, in the same order: plain
        // sums where it uses plain sums, saturating where it saturates.
        self.compute_cycles += o.compute_cycles * o.multiplicity;
        self.stall_cycles = self
            .stall_cycles
            .saturating_add(o.block_stall.saturating_mul(o.multiplicity));
        self.blocks += o.multiplicity;
        self.iterations += o.iterations * o.multiplicity;
    }

    /// Seals the trace against the finished stats.
    ///
    /// # Panics
    ///
    /// Panics if the accumulated interval sums disagree with `stats` on any
    /// of `compute_cycles`, `stall_cycles`, `blocks` or `iterations`. This
    /// is the type-layer guarantee that a constructed [`ExecutionTrace`]
    /// can never contradict its [`SimStats`]; because builder and
    /// accumulator share their arithmetic, the condition is unreachable.
    pub(crate) fn finish(self, stats: &SimStats) -> ExecutionTrace {
        let totals = TraceTotals {
            compute_cycles: self.compute_cycles,
            stall_cycles: self.stall_cycles,
            blocks: self.blocks,
            iterations: self.iterations,
        };
        assert_eq!(
            (
                totals.compute_cycles,
                totals.stall_cycles,
                totals.blocks,
                totals.iterations
            ),
            (
                stats.compute_cycles,
                stats.stall_cycles,
                stats.blocks,
                stats.iterations
            ),
            "trace interval sums must reproduce SimStats bit-identically"
        );
        ExecutionTrace {
            classes: self.classes,
            blocks: Vec::new(),
            totals,
        }
    }

    /// Attaches the expanded per-block list (engine-side, after `finish`).
    pub(crate) fn attach_blocks(trace: &mut ExecutionTrace, blocks: Vec<TraceBlock>) {
        trace.blocks = blocks;
    }
}

impl ExecutionTrace {
    /// Renders the trace as a VCD waveform over three signals:
    /// `computing` (1 bit), `dram_stall` (1 bit) and `active_pes` (32-bit
    /// register, nonzero while computing). One time unit is one core cycle.
    ///
    /// Blocks are emitted in execution order. Within a block the
    /// per-iteration compute/load-stall alternation is aggregated into one
    /// compute span followed by one stall span (the JSON segments carry the
    /// per-iteration structure); the block's DRAM first-access latency
    /// opens the block as a stall span. Change count is therefore bounded
    /// by ~4 × [`caps::MAX_TRACE_BLOCKS`].
    ///
    /// Returns `None` when the trace was not expanded
    /// ([`TraceOptions::expand`]) but describes a non-empty grid — VCD
    /// needs the per-block list.
    #[must_use]
    pub fn to_vcd(&self) -> Option<String> {
        if self.blocks.is_empty() && self.totals.blocks > 0 {
            return None;
        }
        let mut out = String::with_capacity(1024 + self.blocks.len() * 48);
        out.push_str("$comment accel_sim execution trace; 1 time unit = 1 core cycle $end\n");
        out.push_str("$timescale 1ns $end\n");
        out.push_str("$scope module accel_sim $end\n");
        out.push_str("$var wire 1 c computing $end\n");
        out.push_str("$var wire 1 s dram_stall $end\n");
        out.push_str("$var reg 32 p active_pes $end\n");
        out.push_str("$upscope $end\n");
        out.push_str("$enddefinitions $end\n");

        // Current signal state; `None` forces the initial dump at #0.
        let mut state: Option<(bool, bool, u64)> = None;
        let mut t: u64 = 0;
        let mut emit = |out: &mut String, t: u64, next: (bool, bool, u64)| {
            if state == Some(next) {
                return;
            }
            out.push_str(&format!("#{t}\n"));
            let (c, s, p) = next;
            if state.map(|(pc, _, _)| pc) != Some(c) {
                out.push_str(if c { "1c\n" } else { "0c\n" });
            }
            if state.map(|(_, ps, _)| ps) != Some(s) {
                out.push_str(if s { "1s\n" } else { "0s\n" });
            }
            if state.map(|(_, _, pp)| pp) != Some(p) {
                out.push_str(&format!("b{p:b} p\n"));
            }
            state = Some(next);
        };

        for block in &self.blocks {
            let class = &self.classes[block.class];
            let latency = class
                .segments
                .iter()
                .find(|seg| seg.phase == TracePhase::DramLatency)
                .map_or(0, TraceSegment::total_cycles);
            let tail_stall = class.stall_cycles.saturating_sub(latency);
            for (computing, stall, pes, dur) in [
                (false, true, 0, latency),
                (true, false, class.active_pes, class.compute_cycles),
                (false, true, 0, tail_stall),
            ] {
                if dur > 0 {
                    emit(&mut out, t, (computing, stall, pes));
                    t = t.saturating_add(dur);
                }
            }
        }
        emit(&mut out, t, (false, false, 0));
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observation() -> ClassObservation {
        ClassObservation {
            b: 1,
            z: 8,
            y: 6,
            x: 6,
            clip_x: 8,
            clip_y: 8,
            multiplicity: 4,
            iterations: 4,
            active_pes: 96,
            compute_cycles: 720,
            compute_per_iteration: 180,
            load_per_iteration: 20,
            drain: 3,
            latency: 100,
            block_stall: 4 * 20 + 3 + 100,
        }
    }

    fn stats_for(o: &ClassObservation) -> SimStats {
        SimStats {
            compute_cycles: o.compute_cycles * o.multiplicity,
            stall_cycles: o.block_stall * o.multiplicity,
            blocks: o.multiplicity,
            iterations: o.iterations * o.multiplicity,
            ..SimStats::default()
        }
    }

    #[test]
    fn builder_totals_match_stats() {
        let o = observation();
        let mut b = TraceBuilder::default();
        b.add(&o);
        let trace = b.finish(&stats_for(&o));
        assert_eq!(trace.classes.len(), 1);
        let class = &trace.classes[0];
        assert_eq!(class.segments.len(), 4);
        let compute: u64 = class
            .segments
            .iter()
            .filter(|s| s.phase == TracePhase::Compute)
            .map(TraceSegment::total_cycles)
            .sum();
        assert_eq!(compute, class.compute_cycles);
        let stall = class
            .segments
            .iter()
            .filter(|s| s.phase != TracePhase::Compute)
            .fold(0u64, |acc, s| acc.saturating_add(s.total_cycles()));
        assert_eq!(stall, class.stall_cycles);
    }

    #[test]
    #[should_panic(expected = "bit-identically")]
    fn inconsistent_stats_refused() {
        let o = observation();
        let mut b = TraceBuilder::default();
        b.add(&o);
        let mut stats = stats_for(&o);
        stats.stall_cycles += 1;
        let _ = b.finish(&stats);
    }

    #[test]
    fn zero_length_segments_omitted() {
        let mut o = observation();
        o.load_per_iteration = 0;
        o.drain = 0;
        o.latency = 0;
        o.block_stall = 0;
        let mut b = TraceBuilder::default();
        b.add(&o);
        let trace = b.finish(&stats_for(&o));
        assert_eq!(trace.classes[0].segments.len(), 1);
        assert_eq!(trace.classes[0].segments[0].phase, TracePhase::Compute);
    }

    #[test]
    fn vcd_has_header_and_changes() {
        let o = observation();
        let mut b = TraceBuilder::default();
        b.add(&o);
        let mut trace = b.finish(&stats_for(&o));
        TraceBuilder::attach_blocks(
            &mut trace,
            (0..4)
                .map(|i| TraceBlock {
                    i0: 0,
                    b: 1,
                    z0: 0,
                    z: 8,
                    y0: 0,
                    y: 6,
                    x0: 6 * i,
                    x: 6,
                    class: 0,
                })
                .collect(),
        );
        let vcd = trace.to_vcd().unwrap();
        assert!(vcd.contains("$timescale"));
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("$var wire 1 c computing $end"));
        // Block 0: stall 100, compute 720, stall 83; block 1's leading
        // latency merges with block 0's tail stall, so its compute span
        // opens at 903 + 100 = 1003.
        assert!(vcd.contains("#0\n"));
        assert!(vcd.contains("#100\n"));
        assert!(vcd.contains("#820\n"));
        assert!(vcd.contains("#1003\n"));
        // Final timestamp: 4 blocks x 903 cycles.
        assert!(vcd.contains("#3612\n"));
        assert!(vcd.contains("b1100000 p"));
    }

    #[test]
    fn unexpanded_trace_has_no_vcd() {
        let o = observation();
        let mut b = TraceBuilder::default();
        b.add(&o);
        let trace = b.finish(&stats_for(&o));
        assert!(trace.to_vcd().is_none());
    }

    #[test]
    fn phases_serialize_snake_case() {
        assert_eq!(
            TracePhase::DramLatency.to_value(),
            serde::Value::String("dram_latency".into())
        );
        assert_eq!(TracePhase::LoadStall.as_str(), "load_stall");
    }
}
