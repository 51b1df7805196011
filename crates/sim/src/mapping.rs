//! Workload mapping of one output block onto the PE array
//! (Section IV-B, Fig. 8/9).
//!
//! A block of `b'·z'·y'·x'` outputs is mapped so that:
//!
//! * the `q` PE **columns** partition the `z'` output channels — each PE
//!   computes `zs = ⌈z'/q⌉` channels (stride-`q` interleaved, Fig. 11);
//! * the `p` PE **rows** partition the `b'·y'·x'` spatial positions — each
//!   PE row owns an `xs×ys` sub-tile of `⌈b'/pb⌉` images;
//! * every PE therefore produces `positions·zs ≤ r` Psums in its LRegs;
//! * each PE row's GReg segment holds the `xs'·ys'` input halo for its
//!   sub-tile, bounded by the segment capacity.
//!
//! The row-grid factorisation `(pb, py, px)` is chosen to minimise the halo
//! overhead (extra GBuf input reads) among all feasible factorisations.
//!
//! The set of blocks that map is *down-closed*: if a block maps, so does
//! every block no larger in any of `b'`, `z'`, `y'` and `x'`. For a fixed
//! factorisation, `zs`, `⌈b'/pb⌉`, `ys` and `xs` are ceilings of the block
//! sizes, so they never shrink as a block grows; the LReg demand
//! `positions·zs`, the full halo window and the per-kernel-row fallback
//! window are products of them (and of the halo footprints, which grow
//! with `xs` and `ys`). A grid that holds a block therefore holds every
//! smaller one. [`block_fits`] answers the yes/no question with the same
//! per-factorisation test [`map_block`] runs, so a search that grows a
//! block along one axis can stop at the first block that does not map.

use conv_model::ConvLayer;
use serde::{Deserialize, Serialize};

use crate::config::ArchConfig;

/// Clamped sizes and origin of one output block of the Fig. 7 loop nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// First image index.
    pub i0: usize,
    /// Images in this block (`b'`).
    pub b: usize,
    /// First output channel.
    pub z0: usize,
    /// Output channels in this block (`z'`).
    pub z: usize,
    /// First output row.
    pub y0: usize,
    /// Output rows (`y'`).
    pub y: usize,
    /// First output column.
    pub x0: usize,
    /// Output columns (`x'`).
    pub x: usize,
}

impl Block {
    /// Psum words this block keeps on chip.
    #[must_use]
    pub fn psum_words(&self) -> u64 {
        (self.b * self.z * self.y * self.x) as u64
    }
}

/// How one block is executed by the PE array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    /// Channels per PE (`zs`).
    pub zs: usize,
    /// Row-grid factor over images.
    pub pb: usize,
    /// Row-grid factor over output rows.
    pub py: usize,
    /// Row-grid factor over output columns.
    pub px: usize,
    /// Output rows per PE row (`ys`).
    pub ys: usize,
    /// Output columns per PE row (`xs`).
    pub xs: usize,
    /// Images per PE row.
    pub images_per_row: usize,
    /// Spatial positions owned by one PE row (`images_per_row·ys·xs`).
    pub positions: usize,
    /// Input words resident in one PE row's GReg segment at a time.
    ///
    /// When the full `images_per_row·xs'·ys'` window fits the segment, this
    /// is that window (full sliding-window reuse across all `Wk·Hk`
    /// passes). When it does not, the mapping falls back to per-kernel-row
    /// streaming and this holds one kernel row's worth.
    pub segment_words: usize,
    /// Input words streamed from the IGBuf into one segment per input
    /// channel over a whole iteration. Equals `segment_words` with full
    /// window residency; larger under per-kernel-row streaming (cross-row
    /// window reuse is lost).
    pub segment_stream_words: usize,
}

impl Mapping {
    /// PE rows actually used (`pb·py·px`).
    #[must_use]
    pub fn rows_used(&self) -> usize {
        self.pb * self.py * self.px
    }

    /// Cycles of one pass: every PE updates each of its Psums once.
    #[must_use]
    pub fn pass_cycles(&self) -> u64 {
        (self.positions * self.zs) as u64
    }

    /// Psum LReg entries used per PE.
    #[must_use]
    pub fn lregs_used(&self) -> usize {
        self.positions * self.zs
    }
}

/// Why a block cannot be mapped onto the array.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// No row-grid factorisation satisfies the LReg capacity.
    LregOverflow {
        /// Entries needed by the least-demanding factorisation.
        needed: usize,
        /// Entries available per PE.
        available: usize,
    },
    /// The input halo of every feasible sub-tile exceeds the GReg segment.
    SegmentOverflow {
        /// Words needed by the best factorisation.
        needed: usize,
        /// Segment capacity in words.
        available: usize,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::LregOverflow { needed, available } => write!(
                f,
                "block needs {needed} Psum entries per PE but LRegs hold {available}"
            ),
            MapError::SegmentOverflow { needed, available } => write!(
                f,
                "input halo needs {needed} GReg words but segments hold {available}"
            ),
        }
    }
}

impl std::error::Error for MapError {}

/// The row-grid factorisations `(pb, py, px)` of `p` PE rows, `pb` then
/// `py` ascending. Lazy, so [`map_block`] allocates nothing. The order
/// matters: [`map_block`] keeps the first of equal-cost mappings.
fn factor_triples(p: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    divisors(p).flat_map(move |pb| {
        let rest = p / pb;
        divisors(rest).map(move |py| (pb, py, rest / py))
    })
}

/// The divisors of `n`, ascending, by trial division up to `√n`: the small
/// divisors on the way up, then their cofactors on the way back down.
fn divisors(n: usize) -> impl Iterator<Item = usize> {
    let root = n.isqrt();
    let small = (1..=root).filter(move |d| n.is_multiple_of(*d));
    let large = (1..=root)
        .rev()
        .filter(move |d| n.is_multiple_of(*d) && d * d != n)
        .map(move |d| n / d);
    small.chain(large)
}

/// The row-grid factorisations of one PE-row count, enumerated once so a
/// search that asks [`block_fits`] about many blocks on one array does
/// not enumerate them per block.
#[derive(Debug, Clone)]
pub struct RowGrids {
    pe_rows: usize,
    grids: Vec<(usize, usize, usize)>,
}

impl RowGrids {
    /// The factorisations of `pe_rows` rows, in [`map_block`]'s order.
    #[must_use]
    pub fn new(pe_rows: usize) -> Self {
        RowGrids {
            pe_rows,
            grids: factor_triples(pe_rows).collect(),
        }
    }
}

/// Why one row-grid factorisation cannot hold a block.
enum Shortfall {
    /// Psum entries per PE it would need.
    Lregs(usize),
    /// GReg-segment words its smallest resident window would need.
    Segment(usize),
}

/// The LReg and GReg-segment test of one factorisation `(pb, py, px)`,
/// shared by [`map_block`] and [`block_fits`]: the mapping when the block
/// fits, else what it would need.
fn map_on_grid(
    arch: &ArchConfig,
    layer: &ConvLayer,
    block: &Block,
    zs: usize,
    (pb, py, px): (usize, usize, usize),
) -> Result<Mapping, Shortfall> {
    let images_per_row = block.b.div_ceil(pb);
    let ys = block.y.div_ceil(py);
    let xs = block.x.div_ceil(px);
    let positions = images_per_row * ys * xs;
    let lregs = positions * zs;
    if lregs > arch.lreg_entries_per_pe {
        return Err(Shortfall::Lregs(lregs));
    }
    let (xsp, ysp) = layer.input_footprint(xs, ys);
    let window = images_per_row * xsp * ysp;
    let (segment_words, segment_stream_words) = if window <= arch.greg_segment_entries {
        (window, window)
    } else {
        // Per-kernel-row fallback: keep one kernel row's rows resident,
        // re-streaming from the IGBuf for each of the Hk passes.
        let rows_per_ky = (ys - 1) * layer.stride() + 1;
        let per_ky = images_per_row * xsp * rows_per_ky;
        if per_ky > arch.greg_segment_entries {
            return Err(Shortfall::Segment(per_ky));
        }
        (per_ky, layer.kernel_height() * per_ky)
    };
    Ok(Mapping {
        zs,
        pb,
        py,
        px,
        ys,
        xs,
        images_per_row,
        positions,
        segment_words,
        segment_stream_words,
    })
}

/// Maps a block onto the array, minimising halo overhead among feasible
/// row-grid factorisations.
///
/// # Errors
///
/// Returns [`MapError`] when no factorisation fits the LRegs or the GReg
/// segments.
pub fn map_block(arch: &ArchConfig, layer: &ConvLayer, block: &Block) -> Result<Mapping, MapError> {
    let zs = block.z.div_ceil(arch.pe_cols);
    let mut best: Option<(u64, Mapping)> = None;
    let mut least_lregs = usize::MAX;
    let mut least_segment = usize::MAX;

    for grid in factor_triples(arch.pe_rows) {
        let mapping = match map_on_grid(arch, layer, block, zs, grid) {
            Ok(mapping) => mapping,
            Err(Shortfall::Lregs(needed)) => {
                least_lregs = least_lregs.min(needed);
                continue;
            }
            Err(Shortfall::Segment(needed)) => {
                least_segment = least_segment.min(needed);
                continue;
            }
        };
        // Halo overhead: total input words the row segments stream per
        // input channel. Fewer is better; tie-break on fewer wasted Psum
        // slots.
        let cost = (mapping.rows_used() * mapping.segment_stream_words) as u64;
        match &best {
            Some((c, m)) if *c < cost || (*c == cost && m.lregs_used() <= mapping.lregs_used()) => {
            }
            _ => best = Some((cost, mapping)),
        }
    }

    best.map(|(_, m)| m).ok_or(if least_segment < usize::MAX {
        // Some factorisation held the Psums, so its segment is what failed.
        MapError::SegmentOverflow {
            needed: least_segment,
            available: arch.greg_segment_entries,
        }
    } else {
        MapError::LregOverflow {
            needed: least_lregs,
            available: arch.lreg_entries_per_pe,
        }
    })
}

/// True when [`map_block`] would map `block`, without choosing among the
/// factorisations: it stops at the first one that holds the block, and
/// allocates nothing.
///
/// # Panics
///
/// Panics when `grids` was built for another row count than
/// `arch.pe_rows`.
#[must_use]
pub fn block_fits(arch: &ArchConfig, layer: &ConvLayer, grids: &RowGrids, block: &Block) -> bool {
    assert_eq!(grids.pe_rows, arch.pe_rows, "row grids of another array");
    let zs = block.z.div_ceil(arch.pe_cols);
    grids
        .grids
        .iter()
        .any(|&grid| map_on_grid(arch, layer, block, zs, grid).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ConvLayer {
        ConvLayer::square(3, 256, 56, 128, 3, 1).unwrap()
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

    #[test]
    fn small_block_maps() {
        let arch = ArchConfig::example();
        let m = map_block(&arch, &layer(), &block(1, 64, 20, 20)).unwrap();
        assert_eq!(m.zs, 4);
        assert!(m.lregs_used() <= arch.lreg_entries_per_pe);
        assert!(m.segment_words <= arch.greg_segment_entries);
        assert!(m.rows_used() <= arch.pe_rows);
    }

    #[test]
    fn pass_cycles_is_positions_times_zs() {
        let arch = ArchConfig::example();
        let m = map_block(&arch, &layer(), &block(1, 64, 16, 16)).unwrap();
        assert_eq!(m.pass_cycles(), (m.positions * m.zs) as u64);
    }

    #[test]
    fn oversized_block_fails_with_lreg_overflow() {
        let arch = ArchConfig::example();
        // 256 channels (zs=16) × a huge plane cannot fit 128 LRegs/PE.
        let err = map_block(&arch, &layer(), &block(3, 256, 56, 56)).unwrap_err();
        assert!(matches!(err, MapError::LregOverflow { .. }), "{err}");
    }

    #[test]
    fn divisor_walk_matches_the_naive_scan_up_to_the_cap() {
        // The scan the walk replaced: every candidate divisor, in order.
        let naive = |p: usize| {
            let mut triples = Vec::new();
            for pb in (1..=p).filter(|pb| p.is_multiple_of(*pb)) {
                let rest = p / pb;
                for py in (1..=rest).filter(|py| rest.is_multiple_of(*py)) {
                    triples.push((pb, py, rest / py));
                }
            }
            triples
        };
        for p in 1..=crate::caps::MAX_PE_DIM {
            assert!(factor_triples(p).eq(naive(p)), "{p} rows");
        }
    }

    #[test]
    fn factorisations_cover_whole_array() {
        for (pb, py, px) in factor_triples(16) {
            assert_eq!(pb * py * px, 16);
        }
        assert!(factor_triples(16).count() >= 10);
        assert_eq!(RowGrids::new(24).grids.len(), 30);
    }

    #[test]
    fn mapping_prefers_low_halo() {
        // A 16x16 spatial block on 16 rows: the minimal-halo split is 4x4
        // sub-tiles (perimeter/area best for squares).
        let arch = ArchConfig::example();
        let m = map_block(&arch, &layer(), &block(1, 16, 16, 16)).unwrap();
        assert_eq!((m.py, m.px), (4, 4), "mapping {m:?}");
        assert_eq!((m.ys, m.xs), (4, 4));
        // halo 6*6=36 words per segment
        assert_eq!(m.segment_words, 36);
    }

    #[test]
    fn batch_distributes_across_rows() {
        let arch = ArchConfig::example();
        let m = map_block(&arch, &layer(), &block(3, 32, 8, 8)).unwrap();
        // Using pb>1 lets rows share the batch.
        assert!(m.images_per_row <= 3);
        assert!(m.positions * m.zs <= arch.lreg_entries_per_pe);
    }
}
