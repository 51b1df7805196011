//! The cycle-level simulation engine.
//!
//! Executes the Fig. 7 loop nest on the Fig. 10 architecture, counting every
//! DRAM/GBuf/GReg/LReg access, every issued PE slot and every cycle,
//! including DRAM stall cycles that prefetching cannot hide. The counting
//! walk and the functional walk share the same block grid and mapping, so
//! the numbers always describe the computation that
//! [`simulate_functional`] actually performs.
//!
//! # Block equivalence classes
//!
//! A block's counts (the internal `BlockCounts`) depend only on its *shape
//! class*
//! `(b', z', y', x', clip_x, clip_y)` — the clamped tile sizes plus the
//! image-clipped input extents — never on its absolute grid position. Along
//! each axis the tile starts advance in fixed steps, so the clamped size
//! takes at most two values (interior, remainder) and the clipped extent at
//! most three in the common case (left-clipped edge, interior run,
//! right-clipped edge); arbitrary padding can add a few more, but never
//! more than the axis's tile count. [`simulate`] therefore collapses each
//! axis into runs of identical shape by run-length math, evaluates
//! `map_block` + `count_block` once per class (the cross product of axis
//! runs), and multiplies by the class multiplicity — O(dozens) mapping
//! walks instead of one per block, which for batch-64 networks removes tens
//! of thousands of redundant factorisation sweeps from the hot path behind
//! `plan`, `/v1/plan` and `/v1/network`.
//!
//! One serial walk of the classes (`walk_classes`) serves both [`simulate`]
//! and [`simulate_traced`]: the trace observes each class the walk has just
//! counted, so the untraced and traced stats come from the same loop. A grid
//! that barely collapses takes the same walk — it never evaluates more
//! classes than the grid has blocks.
//!
//! Aggregation is *integer-exact*: every counter accumulates in `u64`/
//! `u128`, and the floating-point utilization ratios are formed once from
//! the integer sums (`Accumulator::finalize`). Integer addition is
//! associative and multiplication by a multiplicity distributes exactly, so
//! the class walk and the retained serial reference walk
//! ([`simulate_reference`]) produce bit-identical [`SimStats`] — in the
//! spirit of hardware-counter validation work, the class walk is only
//! trusted because it is pinned bit-for-bit against the per-block oracle
//! (the `class_parity` property tests and the `sim_hotpath` bench gate).

use comm_bound::OnChipMemory;
use conv_model::fixed::{Acc32, Q8_8};
use conv_model::{ConvLayer, Tensor4};
use dataflow::Tiling;

use crate::config::ArchConfig;
use crate::mapping::{map_block, Block, MapError, Mapping};
use crate::stats::{SimStats, Utilization};
use crate::trace::{
    caps as trace_caps, ClassObservation, ExecutionTrace, TraceBlock, TraceBuilder, TraceOptions,
};

/// Why a simulation could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A block could not be mapped onto the PE array.
    Unmappable(MapError),
    /// The weight tile exceeds the weight GBuf.
    WeightTileTooLarge {
        /// Channels per tile requested.
        z: usize,
        /// WGBuf capacity in entries.
        capacity: usize,
    },
    /// The input tile (with halo) exceeds the input GBuf.
    InputTileTooLarge {
        /// Words needed.
        needed: usize,
        /// IGBuf capacity in entries.
        capacity: usize,
    },
    /// The architecture fails its structural invariants
    /// ([`ArchConfig::validate`]); the message names the violated one.
    InvalidArch(String),
    /// The tiling has a zero or oversized dimension
    /// ([`Tiling::validate_for`]); the message names the offending field.
    InvalidTiling(String),
    /// A trace request exceeds one of the [`crate::trace::caps`] limits.
    /// Checked from the axis-run cardinalities *before* anything
    /// trace-sized is allocated, so an over-cap request costs O(axis runs).
    TraceTooLarge {
        /// The violated cap's name (`MAX_TRACE_CLASSES` / `MAX_TRACE_BLOCKS`).
        cap_name: &'static str,
        /// How many the request implies.
        have: u128,
        /// The cap's value.
        cap: u128,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Unmappable(e) => write!(f, "unmappable block: {e}"),
            SimError::WeightTileTooLarge { z, capacity } => {
                write!(f, "weight tile z={z} exceeds WGBuf capacity {capacity}")
            }
            SimError::InputTileTooLarge { needed, capacity } => {
                write!(f, "input tile needs {needed} words, IGBuf holds {capacity}")
            }
            SimError::InvalidArch(msg) => write!(f, "invalid architecture: {msg}"),
            SimError::InvalidTiling(msg) => write!(f, "invalid tiling: {msg}"),
            SimError::TraceTooLarge {
                cap_name,
                have,
                cap,
            } => write!(
                f,
                "trace too large: {have} exceeds the trace cap {cap_name} = {cap}; \
                 use a coarser tiling or drop the per-block expansion"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MapError> for SimError {
    fn from(e: MapError) -> Self {
        SimError::Unmappable(e)
    }
}

/// Enumerates the output blocks of the Fig. 7 loop nest for a tiling, in
/// execution order.
///
/// The tiling must satisfy [`Tiling::validate_for`]: a zero dimension would
/// keep a tile start from ever advancing. [`simulate`] and the service
/// boundaries check this and return [`SimError::InvalidTiling`]; here it is
/// a debug assertion so the loop below cannot spin forever in debug builds.
#[must_use]
pub fn block_grid(layer: &ConvLayer, tiling: &Tiling) -> Vec<Block> {
    debug_assert!(
        tiling.validate_for(layer).is_ok(),
        "block_grid requires a validated tiling: {:?}",
        tiling.validate_for(layer)
    );
    let mut blocks = Vec::new();
    let mut i0 = 0;
    while i0 < layer.batch() {
        let b = tiling.b.min(layer.batch() - i0);
        let mut z0 = 0;
        while z0 < layer.out_channels() {
            let z = tiling.z.min(layer.out_channels() - z0);
            let mut y0 = 0;
            while y0 < layer.output_height() {
                let y = tiling.y.min(layer.output_height() - y0);
                let mut x0 = 0;
                while x0 < layer.output_width() {
                    let x = tiling.x.min(layer.output_width() - x0);
                    blocks.push(Block {
                        i0,
                        b,
                        z0,
                        z,
                        y0,
                        y,
                        x0,
                        x,
                    });
                    x0 += tiling.x;
                }
                y0 += tiling.y;
            }
            z0 += tiling.z;
        }
        i0 += tiling.b;
    }
    blocks
}

/// Clipped input extent (words) of a block along one axis: the rows/columns
/// actually fetched from DRAM (padding contributes nothing).
fn clipped_extent(
    o0: usize,
    len: usize,
    stride: usize,
    kernel: usize,
    pad: usize,
    in_dim: usize,
) -> u64 {
    let lo = (o0 * stride) as isize - pad as isize;
    let hi = ((o0 + len - 1) * stride + kernel - 1) as isize - pad as isize;
    let lo = lo.max(0);
    let hi = hi.min(in_dim as isize - 1);
    if hi >= lo {
        (hi - lo + 1) as u64
    } else {
        0
    }
}

/// One run of identically-shaped tiles along a single axis of the block
/// grid: `count` tiles share the clamped size `len` and (for spatial axes)
/// the image-clipped input extent `clip`; `o0` is the first such tile's
/// start offset, used to build a representative [`Block`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AxisRun {
    o0: usize,
    len: usize,
    clip: u64,
    count: u64,
}

/// The tiles of one spatial axis of the block grid, in order, each as a
/// one-tile run. An index axis (batch, output channels) is a unit window
/// with no padding, which makes `clip == len`: only the clamped length
/// matters there, so it has at most two runs (interior, remainder).
fn axis_tiles(
    out_dim: usize,
    tile: usize,
    stride: usize,
    kernel: usize,
    pad: usize,
    in_dim: usize,
) -> impl Iterator<Item = AxisRun> {
    (0..out_dim).step_by(tile).map(move |o0| {
        let len = tile.min(out_dim - o0);
        AxisRun {
            o0,
            len,
            clip: clipped_extent(o0, len, stride, kernel, pad, in_dim),
            count: 1,
        }
    })
}

/// Collapses one axis's tiles into its distinct `(len, clip)` shapes, in
/// order of first occurrence (i.e. of each shape's earliest tile, so
/// iterating runs visits shapes in execution order).
fn axis_runs(tiles: impl Iterator<Item = AxisRun>) -> Vec<AxisRun> {
    let mut runs: Vec<AxisRun> = Vec::new();
    for tile in tiles {
        match runs
            .iter_mut()
            .find(|r| r.len == tile.len && r.clip == tile.clip)
        {
            Some(run) => run.count += 1,
            None => runs.push(tile),
        }
    }
    runs
}

/// The access counts and integer utilization inputs of one block.
///
/// Everything here depends only on the block's *shape class*
/// `(b, z, y, x, clip_x, clip_y)` — never on its absolute grid position —
/// which is what lets [`simulate`] evaluate one representative block per
/// class and multiply by the class multiplicity.
struct BlockCounts {
    dram_input_reads: u64,
    dram_weight_reads: u64,
    dram_output_writes: u64,
    gbuf_input_writes: u64,
    gbuf_input_reads: u64,
    gbuf_weight_writes: u64,
    gbuf_weight_reads: u64,
    greg_input_writes: u64,
    greg_weight_writes: u64,
    lreg_writes: u64,
    useful_macs: u64,
    issued_slots: u64,
    compute_cycles: u64,
    // Integer utilization inputs: the per-block f64 ratios of the original
    // implementation are now formed once from exact integer sums in
    // `Accumulator::finalize`, so aggregation order cannot change a bit.
    /// Psum words resident on chip (`b·z·y·x`).
    psum_words: u64,
    /// Live GBuf entries: `min(igbuf needed, IGBuf) + min(z, WGBuf)`.
    gbuf_used: u64,
    /// Live GReg bytes, clamped to the GReg capacity.
    greg_used_bytes: u64,
    /// PEs active in a pass (`rows_used · cols_used`): the PE-utilization
    /// denominator, since `useful·w/issued = useful/(rows·cols)` exactly.
    pe_denom: u64,
}

fn count_block(
    arch: &ArchConfig,
    layer: &ConvLayer,
    block: &Block,
    mapping: &Mapping,
) -> Result<BlockCounts, SimError> {
    let ci = layer.in_channels() as u64;
    let taps = (layer.kernel_height() * layer.kernel_width()) as u64;
    let pad = layer.padding();

    if block.z > arch.wgbuf_entries {
        return Err(SimError::WeightTileTooLarge {
            z: block.z,
            capacity: arch.wgbuf_entries,
        });
    }
    // Nominal (unclipped) halo of the whole block: what the IGBuf must hold
    // per input channel, and what gets written into it (boundary blocks
    // write a few redundant slots — Table IV's 1.15×).
    let (xh, yh) = layer.input_footprint(block.x, block.y);
    let igbuf_needed = block.b * xh * yh;
    if igbuf_needed > arch.igbuf_entries {
        return Err(SimError::InputTileTooLarge {
            needed: igbuf_needed,
            capacity: arch.igbuf_entries,
        });
    }

    let clip_x = clipped_extent(
        block.x0,
        block.x,
        layer.stride(),
        layer.kernel_width(),
        pad.horizontal,
        layer.in_width(),
    );
    let clip_y = clipped_extent(
        block.y0,
        block.y,
        layer.stride(),
        layer.kernel_height(),
        pad.vertical,
        layer.in_height(),
    );

    let dram_input_reads = block.b as u64 * clip_x * clip_y * ci;
    let dram_weight_reads = block.z as u64 * taps * ci;
    let dram_output_writes = block.psum_words();

    let rows_used = mapping.rows_used() as u64;
    let cols_used = block.z.div_ceil(mapping.zs).min(arch.pe_cols) as u64;
    let input_copies = (arch.pe_cols / arch.group_cols) as u64;
    let weight_copies = (arch.pe_rows / arch.group_rows) as u64;

    let gbuf_input_reads = rows_used * mapping.segment_stream_words as u64 * ci;
    let gbuf_weight_reads = block.z as u64 * taps * ci;

    let pass_cycles = mapping.pass_cycles();
    let compute_cycles = ci * taps * pass_cycles;
    let issued_slots = rows_used * cols_used * pass_cycles * taps * ci;
    let useful_macs = block.psum_words() * taps * ci;

    // Utilization inputs, kept in exact integers (clamps applied here, at
    // block granularity, exactly as the f64 snapshots used to).
    let gbuf_used = (igbuf_needed.min(arch.igbuf_entries) + block.z.min(arch.wgbuf_entries)) as u64;
    let greg_used_bytes = (rows_used * mapping.segment_words as u64 * input_copies
        + weight_copies * block.z as u64)
        * 2;

    Ok(BlockCounts {
        dram_input_reads,
        dram_weight_reads,
        dram_output_writes,
        gbuf_input_writes: block.b as u64 * xh as u64 * yh as u64 * ci,
        gbuf_input_reads,
        gbuf_weight_writes: dram_weight_reads,
        gbuf_weight_reads,
        greg_input_writes: gbuf_input_reads * input_copies,
        greg_weight_writes: weight_copies * block.z as u64 * taps * ci,
        lreg_writes: issued_slots,
        useful_macs,
        issued_slots,
        compute_cycles,
        psum_words: block.psum_words(),
        gbuf_used,
        greg_used_bytes: greg_used_bytes.min(arch.greg_bytes as u64),
        pe_denom: rows_used * cols_used,
    })
}

/// The unhidden DRAM stall of one block, decomposed into the intervals the
/// execution trace reports. [`StallParts::total`] recombines them with the
/// exact operation order the monolithic stall computation always used, so
/// traced and untraced simulations stay bit-identical.
struct StallParts {
    /// Per-iteration unhidden load stall (`transfer_kz - compute_kz`).
    load_per_iteration: u64,
    /// All-iteration load stall (`ci · load_per_iteration`, saturating).
    load: u64,
    /// One-off output write-back (drain) stall.
    drain: u64,
    /// One-off DRAM first-access latency.
    latency: u64,
}

impl StallParts {
    /// Total unhidden stall of the block.
    ///
    /// Saturating: `ArchConfig::validate` caps the bandwidth/frequency
    /// ratio, but a capped-yet-extreme custom configuration (slowest DRAM
    /// against the fastest core) on a huge layer could still push this sum
    /// past u64 — saturate rather than panic in debug builds. Saturating
    /// sums of nonnegative terms equal `min(true sum, u64::MAX)` regardless
    /// of association, so the class path and per-block walks stay
    /// bit-identical.
    fn total(&self) -> u64 {
        self.load
            .saturating_add(self.drain)
            .saturating_add(self.latency)
    }
}

/// Decomposed unhidden DRAM stall cycles of one block.
///
/// Timing: the GBufs double-buffer at iteration (kz) granularity
/// (Section V: "the GBufs are used for prefetching inputs and weights for
/// the subsequent pass"), so each iteration's transfer overlaps that
/// iteration's compute; the unhidden remainder stalls. The output
/// write-back and the first-access latency are charged once per block.
fn stall_parts(arch: &ArchConfig, layer: &ConvLayer, c: &BlockCounts) -> StallParts {
    let words_per_cycle = arch.dram_words_per_cycle();
    let ci = layer.in_channels() as u64;
    let words_per_kz = (c.dram_input_reads + c.dram_weight_reads) / ci;
    let transfer_kz = (words_per_kz as f64 / words_per_cycle).ceil() as u64;
    let compute_kz = c.compute_cycles / ci;
    let writeback = (c.dram_output_writes as f64 / words_per_cycle).ceil() as u64;
    let load_per_iteration = transfer_kz.saturating_sub(compute_kz);
    StallParts {
        load_per_iteration,
        load: ci.saturating_mul(load_per_iteration),
        drain: writeback.saturating_sub(compute_kz),
        latency: arch.dram.latency_cycles,
    }
}

/// Unhidden DRAM stall cycles of one block (see [`stall_parts`]).
fn block_stall(arch: &ArchConfig, layer: &ConvLayer, c: &BlockCounts) -> u64 {
    stall_parts(arch, layer, c).total()
}

/// Exact, order-independent aggregation of [`BlockCounts`].
///
/// Every field accumulates in integer arithmetic (`u64`/`u128`); the
/// floating-point utilization ratios are formed once in `finalize` from
/// the integer sums. Adding a class with multiplicity
/// `m` is therefore *exactly* the same as adding its `m` member blocks one
/// at a time, in any order — which is what makes the class walk and
/// [`simulate_reference`] bit-identical.
#[derive(Default)]
struct Accumulator {
    stats: SimStats,
    /// Σ `psum_words · compute_cycles` (LReg-utilization numerator).
    lreg_num: u128,
    /// Σ `gbuf_used · compute_cycles`.
    gbuf_num: u128,
    /// Σ `greg_used_bytes · compute_cycles`.
    greg_num: u128,
    /// Per-`rows·cols` Σ `useful_macs`: a block's compute-cycle-weighted PE
    /// utilization is `useful·w/issued = useful/(rows·cols)` exactly, so
    /// the weighted sum is a tiny map from denominator to integer
    /// numerator (at most one entry per distinct `z` tile size).
    pe_num: Vec<(u64, u128)>,
}

impl Accumulator {
    /// Adds `mult` blocks of the shape class described by `c`.
    fn add(&mut self, arch: &ArchConfig, layer: &ConvLayer, c: &BlockCounts, mult: u64) {
        let s = &mut self.stats;
        s.dram.input_reads += c.dram_input_reads * mult;
        s.dram.weight_reads += c.dram_weight_reads * mult;
        s.dram.output_writes += c.dram_output_writes * mult;
        s.gbuf.input_writes += c.gbuf_input_writes * mult;
        s.gbuf.input_reads += c.gbuf_input_reads * mult;
        s.gbuf.weight_writes += c.gbuf_weight_writes * mult;
        s.gbuf.weight_reads += c.gbuf_weight_reads * mult;
        s.reg.greg_input_writes += c.greg_input_writes * mult;
        s.reg.greg_weight_writes += c.greg_weight_writes * mult;
        s.reg.lreg_writes += c.lreg_writes * mult;
        s.useful_macs += c.useful_macs * mult;
        s.issued_slots += c.issued_slots * mult;
        s.compute_cycles += c.compute_cycles * mult;
        // Same saturating rationale as `block_stall`: identical for every
        // realistic configuration, panic-free for capped-but-extreme ones.
        s.stall_cycles = s
            .stall_cycles
            .saturating_add(block_stall(arch, layer, c).saturating_mul(mult));
        s.blocks += mult;
        s.iterations += layer.in_channels() as u64 * mult;

        let w = u128::from(c.compute_cycles) * u128::from(mult);
        self.lreg_num += u128::from(c.psum_words) * w;
        self.gbuf_num += u128::from(c.gbuf_used) * w;
        self.greg_num += u128::from(c.greg_used_bytes) * w;
        let macs = u128::from(c.useful_macs) * u128::from(mult);
        match self.pe_num.iter_mut().find(|(d, _)| *d == c.pe_denom) {
            Some((_, n)) => *n += macs,
            None => self.pe_num.push((c.pe_denom, macs)),
        }
    }

    /// Forms the utilization ratios from the integer sums and returns the
    /// finished stats. The division order is fixed (and `pe_num` is sorted
    /// by denominator), so any two accumulators holding the same integer
    /// state finalize to bit-identical floats.
    fn finalize(mut self, arch: &ArchConfig) -> SimStats {
        let util_w = self.stats.compute_cycles as f64;
        if util_w > 0.0 {
            let mut util = Utilization {
                lreg: self.lreg_num as f64 / arch.lreg_total_entries() as f64 / util_w,
                gbuf: self.gbuf_num as f64
                    / (arch.igbuf_entries + arch.wgbuf_entries) as f64
                    / util_w,
                greg: self.greg_num as f64 / arch.greg_bytes as f64 / util_w,
                ..Utilization::default()
            };
            self.pe_num.sort_unstable_by_key(|&(d, _)| d);
            let mut pe = 0.0f64;
            for &(d, macs) in &self.pe_num {
                pe += macs as f64 / d as f64;
            }
            util.pe = pe / util_w;
            let lreg_b = (arch.lreg_total_entries() * 2) as f64;
            let gbuf_b = arch.gbuf_bytes() as f64;
            let greg_b = arch.greg_bytes as f64;
            util.memory_overall = (util.lreg * lreg_b + util.gbuf * gbuf_b + util.greg * greg_b)
                / (lreg_b + gbuf_b + greg_b);
            self.stats.utilization = util;
        }
        self.stats
    }
}

/// Runs the counting simulation of one layer under one tiling.
///
/// Collapses the block grid into shape classes (see the module docs) and
/// evaluates one representative per class, bit-identically to
/// [`simulate_reference`].
///
/// # Errors
///
/// Returns [`SimError::InvalidArch`]/[`SimError::InvalidTiling`] on invalid
/// inputs, and the mapping/capacity errors of the first failing block (in
/// execution order) when a block exceeds the GBufs or cannot be mapped onto
/// the PE array; use `clb_core::plan_for_arch` to obtain a feasible tiling.
pub fn simulate(
    layer: &ConvLayer,
    tiling: &Tiling,
    arch: &ArchConfig,
) -> Result<SimStats, SimError> {
    arch.validate().map_err(SimError::InvalidArch)?;
    tiling
        .validate_for(layer)
        .map_err(SimError::InvalidTiling)?;
    walk_classes(layer, arch, &grid_runs(layer, tiling), |_, _, _| {})
}

/// The tiles of each axis of the block grid under a (validated) tiling, in
/// `(b, z, y, x)` order.
fn grid_tiles(layer: &ConvLayer, tiling: &Tiling) -> [impl Iterator<Item = AxisRun>; 4] {
    let (batch, channels) = (layer.batch(), layer.out_channels());
    [
        axis_tiles(batch, tiling.b, 1, 1, 0, batch),
        axis_tiles(channels, tiling.z, 1, 1, 0, channels),
        axis_tiles(
            layer.output_height(),
            tiling.y,
            layer.stride(),
            layer.kernel_height(),
            layer.padding().vertical,
            layer.in_height(),
        ),
        axis_tiles(
            layer.output_width(),
            tiling.x,
            layer.stride(),
            layer.kernel_width(),
            layer.padding().horizontal,
            layer.in_width(),
        ),
    ]
}

/// The per-axis shape runs of the block grid under a (validated) tiling,
/// in `(b, z, y, x)` order.
fn grid_runs(layer: &ConvLayer, tiling: &Tiling) -> [Vec<AxisRun>; 4] {
    grid_tiles(layer, tiling).map(axis_runs)
}

/// Total blocks of the grid, computed without enumerating it.
fn grid_block_count(layer: &ConvLayer, tiling: &Tiling) -> u128 {
    (layer.batch().div_ceil(tiling.b) as u128)
        * (layer.out_channels().div_ceil(tiling.z) as u128)
        * (layer.output_height().div_ceil(tiling.y) as u128)
        * (layer.output_width().div_ceil(tiling.x) as u128)
}

/// The one walk of the block classes: maps, counts and accumulates each
/// class of the grid's cross product of axis runs, then hands `observe` the
/// class's runs, one member block's counts and the class multiplicity (a
/// no-op for [`simulate`], the trace builder for [`simulate_traced`]).
///
/// Classes are visited in lexicographic `(b, z, y, x)` run order with runs
/// in first-occurrence order, and every error condition depends only on the
/// clamped sizes, so the first error found here is the same error (variant
/// and payload) the per-block walk reports for its first failing block.
fn walk_classes(
    layer: &ConvLayer,
    arch: &ArchConfig,
    [b_runs, z_runs, y_runs, x_runs]: &[Vec<AxisRun>; 4],
    mut observe: impl FnMut([&AxisRun; 4], &BlockCounts, u64),
) -> Result<SimStats, SimError> {
    let mut acc = Accumulator::default();
    for rb in b_runs {
        for rz in z_runs {
            for ry in y_runs {
                for rx in x_runs {
                    let block = Block {
                        i0: rb.o0,
                        b: rb.len,
                        z0: rz.o0,
                        z: rz.len,
                        y0: ry.o0,
                        y: ry.len,
                        x0: rx.o0,
                        x: rx.len,
                    };
                    let mapping = map_block(arch, layer, &block)?;
                    let counts = count_block(arch, layer, &block, &mapping)?;
                    let multiplicity = rb.count * rz.count * ry.count * rx.count;
                    acc.add(arch, layer, &counts, multiplicity);
                    observe([rb, rz, ry, rx], &counts, multiplicity);
                }
            }
        }
    }
    Ok(acc.finalize(arch))
}

/// Runs the counting simulation of one layer under one tiling while
/// recording an [`ExecutionTrace`] of where the cycles go (see
/// [`crate::trace`]).
///
/// The trace builder observes each class in the same walk that feeds the
/// stats accumulator of [`simulate`], so the returned [`SimStats`] are
/// bit-identical to an untraced run and the trace's interval sums
/// reproduce `compute_cycles`, `stall_cycles`, `blocks` and `iterations`
/// bit-identically. With [`TraceOptions::expand`] the class table is
/// additionally expanded into the full per-block list in execution order
/// (required for [`ExecutionTrace::to_vcd`]).
///
/// # Errors
///
/// Same conditions as [`simulate`], plus [`SimError::TraceTooLarge`] when
/// the grid implies more than [`trace::caps::MAX_TRACE_CLASSES`] shape
/// classes, or more than [`trace::caps::MAX_TRACE_BLOCKS`] blocks with
/// `expand` set — checked from the axis-run cardinalities before anything
/// trace-sized is allocated.
///
/// [`trace::caps::MAX_TRACE_CLASSES`]: crate::trace::caps::MAX_TRACE_CLASSES
/// [`trace::caps::MAX_TRACE_BLOCKS`]: crate::trace::caps::MAX_TRACE_BLOCKS
pub fn simulate_traced(
    layer: &ConvLayer,
    tiling: &Tiling,
    arch: &ArchConfig,
    options: &TraceOptions,
) -> Result<(SimStats, ExecutionTrace), SimError> {
    arch.validate().map_err(SimError::InvalidArch)?;
    tiling
        .validate_for(layer)
        .map_err(SimError::InvalidTiling)?;

    let runs = grid_runs(layer, tiling);
    let classes: u128 = runs.iter().map(|axis| axis.len() as u128).product();
    if classes > trace_caps::MAX_TRACE_CLASSES {
        return Err(SimError::TraceTooLarge {
            cap_name: "MAX_TRACE_CLASSES",
            have: classes,
            cap: trace_caps::MAX_TRACE_CLASSES,
        });
    }
    let blocks = grid_block_count(layer, tiling);
    if options.expand && blocks > trace_caps::MAX_TRACE_BLOCKS {
        return Err(SimError::TraceTooLarge {
            cap_name: "MAX_TRACE_BLOCKS",
            have: blocks,
            cap: trace_caps::MAX_TRACE_BLOCKS,
        });
    }

    let ci = layer.in_channels() as u64;
    let mut builder = TraceBuilder::default();
    let stats = walk_classes(
        layer,
        arch,
        &runs,
        |[rb, rz, ry, rx], counts, multiplicity| {
            let parts = stall_parts(arch, layer, counts);
            builder.add(&ClassObservation {
                b: rb.len,
                z: rz.len,
                y: ry.len,
                x: rx.len,
                clip_x: rx.clip,
                clip_y: ry.clip,
                multiplicity,
                iterations: ci,
                active_pes: counts.pe_denom,
                compute_cycles: counts.compute_cycles,
                // Exact: compute cycles are `ci · taps · pass_cycles`.
                compute_per_iteration: counts.compute_cycles / ci,
                load_per_iteration: parts.load_per_iteration,
                drain: parts.drain,
                latency: parts.latency,
                block_stall: parts.total(),
            });
        },
    )?;
    let mut trace = builder.finish(&stats);
    if options.expand {
        TraceBuilder::attach_blocks(&mut trace, expand_blocks(layer, tiling, &runs));
    }
    Ok((stats, trace))
}

/// Expands the class table into the full per-block list, in execution
/// order: one lookup per block, after indexing each axis's tiles by run.
///
/// The walk pushes one class per `(b, z, y, x)` run combination in
/// lexicographic order, and run keys are distinct along each axis, so a
/// block's class index is the mixed-radix number
/// `((ib·nz + iz)·ny + iy)·nx + ix` of the runs its four tiles belong to.
fn expand_blocks(layer: &ConvLayer, tiling: &Tiling, runs: &[Vec<AxisRun>; 4]) -> Vec<TraceBlock> {
    let mut per_axis = runs.iter();
    let [b, z, y, x] = grid_tiles(layer, tiling).map(|tiles| {
        let runs = per_axis.next().expect("one run list per axis");
        tiles
            .map(|t| {
                runs.iter()
                    .position(|r| r.len == t.len && r.clip == t.clip)
                    .expect("every tile belongs to a run of its axis")
            })
            .collect::<Vec<usize>>()
    });
    let [_, nz, ny, nx] = runs.each_ref().map(Vec::len);
    block_grid(layer, tiling)
        .iter()
        .map(|blk| TraceBlock {
            i0: blk.i0,
            b: blk.b,
            z0: blk.z0,
            z: blk.z,
            y0: blk.y0,
            y: blk.y,
            x0: blk.x0,
            x: blk.x,
            class: ((b[blk.i0 / tiling.b] * nz + z[blk.z0 / tiling.z]) * ny + y[blk.y0 / tiling.y])
                * nx
                + x[blk.x0 / tiling.x],
        })
        .collect()
}

/// The retained per-block reference: walks every block of the grid serially
/// in execution order and evaluates each one individually, as the original
/// implementation did.
///
/// This is the oracle the class-based [`simulate`] is pinned against — the
/// property tests assert bit-identical [`SimStats`] (every field, stalls
/// and utilizations included) and the `sim_hotpath` bench proves parity
/// before timing the speedup. Counter models are only trustworthy when
/// checked against a known-ground-truth walk; keep this function honest
/// (no classification, no multiplicities) when changing the simulator.
///
/// One caveat: the final utilization-ratio arithmetic is shared with the
/// fast path through the internal accumulator (bit identity across
/// aggregation orders is impossible otherwise), so *that* stage is not
/// independently witnessed here. The `class_parity` integration tests close
/// the loop with a seed-style per-block f64 re-derivation of the
/// utilizations, pinned against this refactored math to a tight tolerance.
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_reference(
    layer: &ConvLayer,
    tiling: &Tiling,
    arch: &ArchConfig,
) -> Result<SimStats, SimError> {
    arch.validate().map_err(SimError::InvalidArch)?;
    tiling
        .validate_for(layer)
        .map_err(SimError::InvalidTiling)?;
    let mut acc = Accumulator::default();
    for block in block_grid(layer, tiling) {
        let mapping = map_block(arch, layer, &block)?;
        let counts = count_block(arch, layer, &block, &mapping)?;
        acc.add(arch, layer, &counts, 1);
    }
    Ok(acc.finalize(arch))
}

/// Runs the *functional* simulation: identical blocking and mapping, but the
/// MACs are actually performed in Q8.8 with 32-bit accumulation, producing
/// the layer output.
///
/// Returns the output tensor together with the same [`SimStats`] that
/// [`simulate`] reports.
///
/// # Errors
///
/// Same conditions as [`simulate`].
///
/// # Panics
///
/// Panics if the tensor shapes disagree with `layer`.
pub fn simulate_functional(
    layer: &ConvLayer,
    tiling: &Tiling,
    arch: &ArchConfig,
    input: &Tensor4<Q8_8>,
    weights: &Tensor4<Q8_8>,
) -> Result<(Tensor4<Q8_8>, SimStats), SimError> {
    assert_eq!(
        input.shape(),
        (
            layer.batch(),
            layer.in_channels(),
            layer.in_height(),
            layer.in_width()
        ),
        "input tensor shape does not match layer"
    );
    assert_eq!(
        weights.shape(),
        (
            layer.out_channels(),
            layer.in_channels(),
            layer.kernel_height(),
            layer.kernel_width()
        ),
        "weight tensor shape does not match layer"
    );

    let stats = simulate(layer, tiling, arch)?;
    let mut out = Tensor4::zeros(
        layer.batch(),
        layer.out_channels(),
        layer.output_height(),
        layer.output_width(),
    );
    let pad = layer.padding();
    let stride = layer.stride();

    for block in block_grid(layer, tiling) {
        // The block's Psums live in LRegs (Acc32 per slot) for the whole
        // iteration sequence over kz and kernel taps — exactly the OutR
        // schedule of Fig. 7.
        let mut acc = vec![Acc32::ZERO; block.b * block.z * block.y * block.x];
        for kz in 0..layer.in_channels() {
            for ky in 0..layer.kernel_height() {
                for kx in 0..layer.kernel_width() {
                    // One pass: every Psum of the block updated once.
                    let mut slot = 0usize;
                    for ib in 0..block.b {
                        for iz in 0..block.z {
                            for iy in 0..block.y {
                                for ix in 0..block.x {
                                    let oy = block.y0 + iy;
                                    let ox = block.x0 + ix;
                                    let i = block.i0 + ib;
                                    let oz = block.z0 + iz;
                                    let yy = (oy * stride + ky) as isize - pad.vertical as isize;
                                    let xx = (ox * stride + kx) as isize - pad.horizontal as isize;
                                    if yy >= 0
                                        && xx >= 0
                                        && (yy as usize) < layer.in_height()
                                        && (xx as usize) < layer.in_width()
                                    {
                                        let a = input[(i, kz, yy as usize, xx as usize)];
                                        let w = weights[(oz, kz, ky, kx)];
                                        acc[slot] = acc[slot].mac(a, w);
                                    }
                                    slot += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        // Write the finished block back to DRAM (saturating to 16 bits).
        let mut slot = 0usize;
        for ib in 0..block.b {
            for iz in 0..block.z {
                for iy in 0..block.y {
                    for ix in 0..block.x {
                        out[(block.i0 + ib, block.z0 + iz, block.y0 + iy, block.x0 + ix)] =
                            acc[slot].to_q8_8();
                        slot += 1;
                    }
                }
            }
        }
    }
    Ok((out, stats))
}

/// The effective on-chip memory of an architecture as an [`OnChipMemory`],
/// for plugging simulator configs into the analytic bounds.
#[must_use]
pub fn effective_memory(arch: &ArchConfig) -> OnChipMemory {
    OnChipMemory::from_words(arch.effective_onchip_words() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_layer() -> ConvLayer {
        ConvLayer::square(1, 8, 12, 4, 3, 1).unwrap()
    }

    fn small_tiling(layer: &ConvLayer) -> Tiling {
        Tiling::clamped(layer, 1, 8, 6, 6)
    }

    #[test]
    fn block_grid_covers_outputs_exactly() {
        let layer = small_layer();
        let tiling = small_tiling(&layer);
        let blocks = block_grid(&layer, &tiling);
        let total: u64 = blocks.iter().map(Block::psum_words).sum();
        assert_eq!(total, layer.output_words());
    }

    #[test]
    fn block_grid_handles_non_dividing_tiles() {
        let layer = small_layer();
        let tiling = Tiling::clamped(&layer, 1, 5, 5, 5);
        let blocks = block_grid(&layer, &tiling);
        let total: u64 = blocks.iter().map(Block::psum_words).sum();
        assert_eq!(total, layer.output_words());
        // 8 channels in tiles of 5 -> 2 tiles; 12 in tiles of 5 -> 3.
        assert_eq!(blocks.len(), 2 * 3 * 3);
    }

    #[test]
    fn simulation_counts_match_dataflow_model() {
        // The simulator's DRAM counters must equal the analytic Eq. 14
        // traffic for the same tiling.
        let layer = small_layer();
        let tiling = small_tiling(&layer);
        let arch = ArchConfig::example();
        let stats = simulate(&layer, &tiling, &arch).unwrap();
        let analytic = dataflow::our_dataflow_traffic(&layer, &tiling);
        assert_eq!(stats.dram.input_reads, analytic.input_reads);
        assert_eq!(stats.dram.weight_reads, analytic.weight_reads);
        assert_eq!(stats.dram.output_writes, analytic.output_writes);
    }

    #[test]
    fn weights_read_once_from_gbuf() {
        // Table IV: GBuf weight reads == DRAM weight reads (ratio 1.00).
        let layer = small_layer();
        let stats = simulate(&layer, &small_tiling(&layer), &ArchConfig::example()).unwrap();
        assert_eq!(stats.gbuf.weight_reads, stats.dram.weight_reads);
        assert_eq!(stats.gbuf.weight_writes, stats.dram.weight_reads);
    }

    #[test]
    fn gbuf_input_reads_include_halos() {
        // Table IV: input GBuf reads exceed DRAM input reads (halo factor).
        let layer = small_layer();
        let stats = simulate(&layer, &small_tiling(&layer), &ArchConfig::example()).unwrap();
        assert!(stats.gbuf.input_reads >= stats.dram.input_reads);
        // A 6x6 block split across 16 PE rows has a large per-row halo; the
        // network-scale halo factor (~1.7x, Table IV) is checked in the
        // workspace integration tests on realistic layers.
        assert!(stats.gbuf.input_reads < 8 * stats.dram.input_reads);
    }

    #[test]
    fn lreg_writes_at_least_macs() {
        let layer = small_layer();
        let stats = simulate(&layer, &small_tiling(&layer), &ArchConfig::example()).unwrap();
        assert!(stats.reg.lreg_writes >= layer.macs());
        assert_eq!(stats.useful_macs, layer.macs());
    }

    #[test]
    fn functional_matches_acc32_reference() {
        let layer = small_layer();
        let input = Tensor4::from_fn(1, 4, 12, 12, |_, c, h, w| {
            Q8_8::from_f64(((c + h * w) % 7) as f64 * 0.25 - 0.75)
        });
        let weights = Tensor4::from_fn(8, 4, 3, 3, |n, c, h, w| {
            Q8_8::from_f64(((n + c + h + w) % 5) as f64 * 0.125 - 0.25)
        });
        let (out, _) = simulate_functional(
            &layer,
            &small_tiling(&layer),
            &ArchConfig::example(),
            &input,
            &weights,
        )
        .unwrap();

        // Reference: direct Acc32 accumulation in the canonical loop order.
        let pad = layer.padding();
        for i in 0..1 {
            for oz in 0..8 {
                for oy in 0..12 {
                    for ox in 0..12 {
                        let mut acc = Acc32::ZERO;
                        for kz in 0..4 {
                            for ky in 0..3 {
                                for kx in 0..3 {
                                    let yy = (oy + ky) as isize - pad.vertical as isize;
                                    let xx = (ox + kx) as isize - pad.horizontal as isize;
                                    if yy >= 0
                                        && xx >= 0
                                        && (yy as usize) < 12
                                        && (xx as usize) < 12
                                    {
                                        acc = acc.mac(
                                            input[(i, kz, yy as usize, xx as usize)],
                                            weights[(oz, kz, ky, kx)],
                                        );
                                    }
                                }
                            }
                        }
                        assert_eq!(out[(i, oz, oy, ox)], acc.to_q8_8(), "at {oz},{oy},{ox}");
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_weight_tile_rejected() {
        let layer = ConvLayer::square(1, 512, 8, 8, 3, 1).unwrap();
        let tiling = Tiling::clamped(&layer, 1, 512, 2, 2);
        let err = simulate(&layer, &tiling, &ArchConfig::example()).unwrap_err();
        assert!(matches!(err, SimError::WeightTileTooLarge { .. }));
    }

    #[test]
    fn oversized_input_tile_rejected() {
        let layer = ConvLayer::square(1, 8, 64, 8, 3, 1).unwrap();
        let tiling = Tiling::clamped(&layer, 1, 1, 64, 64);
        let err = simulate(&layer, &tiling, &ArchConfig::example()).unwrap_err();
        assert!(matches!(
            err,
            SimError::InputTileTooLarge { .. } | SimError::Unmappable(_)
        ));
    }

    #[test]
    fn stall_cycles_grow_with_slower_dram() {
        let layer = small_layer();
        let tiling = small_tiling(&layer);
        let fast = ArchConfig::example();
        let mut slow = fast;
        slow.dram.bandwidth_bytes_per_s = 1e8; // 64x slower
        let s_fast = simulate(&layer, &tiling, &fast).unwrap();
        let s_slow = simulate(&layer, &tiling, &slow).unwrap();
        assert!(s_slow.stall_cycles > s_fast.stall_cycles);
        assert_eq!(s_slow.compute_cycles, s_fast.compute_cycles);
    }

    #[test]
    fn axis_runs_cover_the_axis() {
        // 56 outputs in tiles of 9, kernel 3, stride 1, pad 1, input 56:
        // left-clipped edge, interior run, and a clipped remainder.
        let runs = axis_runs(axis_tiles(56, 9, 1, 3, 1, 56));
        let total: u64 = runs.iter().map(|r| r.count * r.len as u64).sum();
        assert_eq!(total, 56);
        assert_eq!(
            runs[0],
            AxisRun {
                o0: 0,
                len: 9,
                clip: 10,
                count: 1
            }
        );
        assert_eq!(
            runs[1],
            AxisRun {
                o0: 9,
                len: 9,
                clip: 11,
                count: 5
            }
        );
        assert_eq!(
            runs[2],
            AxisRun {
                o0: 54,
                len: 2,
                clip: 3,
                count: 1
            }
        );
    }

    #[test]
    fn index_runs_have_at_most_two_shapes() {
        let index_runs = |dim, tile| axis_runs(axis_tiles(dim, tile, 1, 1, 0, dim));
        let runs = index_runs(64, 5);
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].len, runs[0].count), (5, 12));
        assert_eq!((runs[1].len, runs[1].count), (4, 1));
        assert_eq!(index_runs(64, 8).len(), 1);
    }

    #[test]
    fn class_path_matches_reference_bitwise() {
        let layer = small_layer();
        for tiling in [
            small_tiling(&layer),
            Tiling::clamped(&layer, 1, 5, 5, 5),
            Tiling::clamped(&layer, 1, 8, 12, 12),
            Tiling::clamped(&layer, 1, 1, 1, 1),
        ] {
            let arch = ArchConfig::example();
            let fast = simulate(&layer, &tiling, &arch).unwrap();
            let slow = simulate_reference(&layer, &tiling, &arch).unwrap();
            assert_eq!(fast, slow, "tiling {tiling}");
            let (uf, us) = (fast.utilization, slow.utilization);
            for (a, b) in [
                (uf.gbuf, us.gbuf),
                (uf.greg, us.greg),
                (uf.lreg, us.lreg),
                (uf.memory_overall, us.memory_overall),
                (uf.pe, us.pe),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "tiling {tiling}");
            }
        }
    }

    #[test]
    fn invalid_arch_names_the_real_cause() {
        let layer = small_layer();
        let tiling = small_tiling(&layer);
        let mut arch = ArchConfig::example();
        arch.group_rows = 5;
        let err = simulate(&layer, &tiling, &arch).unwrap_err();
        let SimError::InvalidArch(msg) = &err else {
            panic!("expected InvalidArch, got {err:?}");
        };
        assert!(msg.contains("group rows 5"), "{msg}");
        assert_eq!(simulate_reference(&layer, &tiling, &arch).unwrap_err(), err);
    }

    #[test]
    fn zero_dimension_tiling_rejected_promptly() {
        let layer = small_layer();
        let arch = ArchConfig::example();
        for tiling in [
            Tiling {
                b: 0,
                z: 8,
                y: 6,
                x: 6,
            },
            Tiling {
                b: 1,
                z: 0,
                y: 6,
                x: 6,
            },
            Tiling {
                b: 1,
                z: 8,
                y: 0,
                x: 6,
            },
            Tiling {
                b: 1,
                z: 8,
                y: 6,
                x: 0,
            },
        ] {
            let err = simulate(&layer, &tiling, &arch).unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidTiling(m) if m.contains("nonzero")),
                "{tiling}: {err}"
            );
        }
        let oversized = Tiling {
            b: 1,
            z: 9,
            y: 6,
            x: 6,
        };
        let err = simulate(&layer, &oversized, &arch).unwrap_err();
        assert!(matches!(&err, SimError::InvalidTiling(m) if m.contains("exceeds")));
    }

    #[test]
    fn former_fallback_grids_match_reference_bitwise() {
        // Grids with `classes · 4 ≥ blocks > 256` once took a per-block
        // thread fan-out instead of the class walk. A 31-wide window with
        // same padding clips the 31 columns (and rows) of a unit tiling to
        // 16 distinct extents: 2 · 16 · 16 = 512 classes over
        // 2 · 31 · 31 = 1,922 blocks. Untraced and traced (expanded) walks
        // must both match the per-block oracle.
        let arch = ArchConfig::example();
        let small = small_layer();
        let wide = ConvLayer::square(1, 3, 31, 1, 31, 1).unwrap();
        for (layer, tiling, classes, blocks) in [
            (small, Tiling::clamped(&small, 1, 3, 2, 2), 8, 108),
            (wide, Tiling::clamped(&wide, 1, 2, 1, 1), 512, 1922),
        ] {
            let reference = simulate_reference(&layer, &tiling, &arch).unwrap();
            assert_eq!(reference.blocks, blocks);
            assert_eq!(simulate(&layer, &tiling, &arch).unwrap(), reference);
            let (stats, trace) =
                simulate_traced(&layer, &tiling, &arch, &TraceOptions { expand: true }).unwrap();
            assert_eq!(stats, reference);
            assert_eq!(trace.classes.len(), classes);
            assert_eq!(trace.blocks.len() as u64, blocks);
        }
    }

    #[test]
    fn class_and_reference_agree_on_errors() {
        // z = 512 > WGBuf: both paths must report the same first error.
        let layer = ConvLayer::square(1, 512, 8, 8, 3, 1).unwrap();
        let tiling = Tiling::clamped(&layer, 1, 512, 2, 2);
        let arch = ArchConfig::example();
        assert_eq!(
            simulate(&layer, &tiling, &arch).unwrap_err(),
            simulate_reference(&layer, &tiling, &arch).unwrap_err()
        );
        // Unmappable: a huge spatial block on implementation 1.
        let layer = ConvLayer::square(3, 256, 56, 128, 3, 1).unwrap();
        let tiling = Tiling::clamped(&layer, 3, 256, 56, 56);
        assert_eq!(
            simulate(&layer, &tiling, &arch).unwrap_err(),
            simulate_reference(&layer, &tiling, &arch).unwrap_err()
        );
    }

    #[test]
    fn utilizations_in_unit_interval() {
        let layer = small_layer();
        let stats = simulate(&layer, &small_tiling(&layer), &ArchConfig::example()).unwrap();
        let u = stats.utilization;
        for v in [u.gbuf, u.greg, u.lreg, u.memory_overall, u.pe] {
            assert!((0.0..=1.0).contains(&v), "utilization out of range: {v}");
        }
        assert!(u.pe > 0.5, "PE utilization should be high, got {}", u.pe);
    }
}
