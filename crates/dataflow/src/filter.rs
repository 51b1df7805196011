//! Admissible per-candidate DRAM floors for staged design-space sweeps.
//!
//! A staged sweep wants to discard a candidate architecture *before*
//! planning and simulating it, which is only sound if the discarding bound
//! is **admissible**: never above what the candidate would actually
//! achieve. The Eq. 15 practical bound is not admissible against the
//! simulator (implementations land a few percent *under* it on some
//! layers), so this module derives its floors from the simulator's own
//! structural constraints instead:
//!
//! * a planned tiling always satisfies `z ≤ wgbuf_entries` (the WGBuf
//!   holds one weight row per output channel of the block) and
//!   `b · x' · y' ≤ igbuf_entries` (the halo-included input slab fits the
//!   IGBuf), where `(x', y')` is [`ConvLayer::input_footprint`];
//! * the DRAM words the simulator counts for that tiling are exactly the
//!   analytic per-term traffic of the paper's dataflow (Eq. 14).
//!
//! Minimizing each traffic term independently over the *relaxed* set
//! `{z ≤ wgbuf} × {b·x'·y' ≤ igbuf}` (a superset of any planner's feasible
//! set) therefore yields a word count no feasible execution on that
//! `(igbuf, wgbuf)` geometry can beat. The floors are exact minima of the
//! individual terms, computed in `O(Y log X)` per distinct buffer geometry
//! from the layer's [`AxisTable`]s — the halo tables every tiling search
//! reads — and cached per geometry by [`FloorCache`] so sweeping 10⁵–10⁶
//! candidates costs hash lookups, not halo sweeps.

use std::collections::HashMap;

use conv_model::ConvLayer;

use crate::engine::AxisTable;

/// An admissible lower bound on the DRAM traffic of any feasible execution
/// of one layer on a buffer geometry, split the way a staged sweep consumes
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramFloor {
    /// Floor on DRAM words *read* (inputs + weights) — the part that must
    /// cross the link before compute can retire, used by cycle floors.
    pub read_words: u64,
    /// Floor on total DRAM words (reads + the exact output write-back).
    pub total_words: u64,
    /// True when even the unit tile violates the IGBuf constraint: **no**
    /// tiling of this layer is feasible on the geometry, so every candidate
    /// sharing it fails with `InputTileTooLarge`.
    pub provably_infeasible: bool,
}

/// Per-layer preprocessing for [`DramFloor`] queries: the layer's axis
/// tables plus the layer constants of the Eq. 14 terms. Build once per
/// layer, query once per distinct buffer geometry.
#[derive(Debug, Clone)]
pub struct LayerFloor {
    batch: u64,
    out_channels: u64,
    in_channels: u64,
    taps: u64,
    output_words: u64,
    x: AxisTable,
    y: AxisTable,
}

impl LayerFloor {
    /// Preprocesses `layer` for floor queries (`O(X·nx + Y·ny)` — every
    /// tile size's summed extent along each axis).
    #[must_use]
    pub fn new(layer: &ConvLayer) -> Self {
        LayerFloor {
            batch: layer.batch() as u64,
            out_channels: layer.out_channels() as u64,
            in_channels: layer.in_channels() as u64,
            taps: (layer.kernel_height() * layer.kernel_width()) as u64,
            output_words: layer.output_words(),
            x: AxisTable::width(layer),
            y: AxisTable::height(layer),
        }
    }

    /// The admissible DRAM floor of this layer on a buffer geometry of
    /// `igbuf_entries` input words and `wgbuf_entries` weight words.
    ///
    /// Each Eq. 14 term is minimized independently over the relaxed
    /// structural set (every feasible tiling satisfies both constraints):
    ///
    /// * inputs — `batch · Ci · ⌈Co/min(Co, wgbuf)⌉ · min{sum_x · sum_y}`
    ///   over `(tx, ty)` with `fx(tx)·fy(ty) ≤ igbuf` (taking `b = 1`,
    ///   which only weakens the constraint; the batch factor is `batch`
    ///   for every tiling);
    /// * weights — `taps · Ci · Co · ⌈B/b*⌉ · ⌈Y/ty*⌉ · ⌈X/tx*⌉` with each
    ///   starred size maximized independently under the IGBuf constraint
    ///   (the others at their unit footprint);
    /// * outputs — the exact `output_words` (written exactly once).
    ///
    /// Saturating arithmetic keeps hostile-but-valid giant layers on the
    /// admissible side (a saturated floor only ever under-states).
    #[must_use]
    pub fn floor(&self, igbuf_entries: usize, wgbuf_entries: usize) -> DramFloor {
        let igbuf = igbuf_entries as u64;
        // The unit tile's footprint along each axis is the kernel extent,
        // the least any block can occupy.
        let (unit_x, unit_y) = (self.x.footprint(1) as u64, self.y.footprint(1) as u64);
        let unit = unit_x.saturating_mul(unit_y);
        if unit > igbuf {
            return DramFloor {
                read_words: 0,
                total_words: 0,
                provably_infeasible: true,
            };
        }

        // Input floor: exact min of sum_x(tx)·sum_y(ty) over pairs with
        // fx(tx)·fy(ty) ≤ igbuf. For each ty, the budget fx(tx) ≤ igbuf/fy
        // covers every affordable tx, and the prefix minimum of sum_x over
        // that range is achieved by one of them — so each product below is
        // attainable and every attainable pair is dominated by one of them.
        let mut min_plane = u64::MAX;
        for ty in 1..=self.y.out_dim() {
            let fy = self.y.footprint(ty) as u64;
            if fy.saturating_mul(unit_x) > igbuf {
                break; // footprints grow with ty: nothing larger fits
            }
            if let Some(sx) = self.x.min_sum_within(igbuf / fy) {
                min_plane = min_plane.min(sx.saturating_mul(self.y.sum(ty)));
            }
        }
        let nz_floor = self
            .out_channels
            .div_ceil(self.out_channels.min((wgbuf_entries as u64).max(1)));
        let input_floor = if min_plane == u64::MAX {
            0 // unreachable given the unit-tile check, but stay conservative
        } else {
            self.batch
                .saturating_mul(self.in_channels)
                .saturating_mul(nz_floor)
                .saturating_mul(min_plane)
        };

        // Weight floor: fewest block visits, each axis maximized alone.
        let b_max = (igbuf / unit).clamp(1, self.batch);
        let ty_max = self.y.max_tile_within(igbuf / unit_x).unwrap_or(1) as u64;
        let tx_max = self.x.max_tile_within(igbuf / unit_y).unwrap_or(1) as u64;
        let weight_floor = self
            .taps
            .saturating_mul(self.in_channels)
            .saturating_mul(self.out_channels)
            .saturating_mul(self.batch.div_ceil(b_max))
            .saturating_mul((self.y.out_dim() as u64).div_ceil(ty_max))
            .saturating_mul((self.x.out_dim() as u64).div_ceil(tx_max));

        let read_words = input_floor.saturating_add(weight_floor);
        DramFloor {
            read_words,
            total_words: read_words.saturating_add(self.output_words),
            provably_infeasible: false,
        }
    }
}

/// Batched, cached floors over a whole workload: one [`LayerFloor`] per
/// layer, with per-geometry results memoized so a sweep over candidates
/// that share buffer sizes computes each halo minimization once.
#[derive(Debug)]
pub struct FloorCache {
    layers: Vec<LayerFloor>,
    memo: HashMap<(usize, usize), Vec<DramFloor>>,
}

impl FloorCache {
    /// Preprocesses every layer of a workload.
    #[must_use]
    pub fn new(layers: &[ConvLayer]) -> Self {
        FloorCache {
            layers: layers.iter().map(LayerFloor::new).collect(),
            memo: HashMap::new(),
        }
    }

    /// Per-layer floors for one buffer geometry, memoized.
    pub fn floors(&mut self, igbuf_entries: usize, wgbuf_entries: usize) -> &[DramFloor] {
        self.memo
            .entry((igbuf_entries, wgbuf_entries))
            .or_insert_with(|| {
                self.layers
                    .iter()
                    .map(|l| l.floor(igbuf_entries, wgbuf_entries))
                    .collect()
            })
    }

    /// Number of distinct geometries memoized so far.
    #[must_use]
    pub fn geometries(&self) -> usize {
        self.memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ConvLayer {
        // VGG-16 conv3_1 shape: 3×3 kernel, stride 1, pad 1.
        ConvLayer::square(3, 128, 56, 256, 3, 1).unwrap()
    }

    #[test]
    fn unit_tile_too_large_is_provably_infeasible() {
        let f = LayerFloor::new(&layer());
        // A 3×3 kernel needs at least 9 input words on chip.
        assert!(f.floor(8, 1 << 20).provably_infeasible);
        assert!(!f.floor(9, 1 << 20).provably_infeasible);
    }

    #[test]
    fn floors_shrink_as_buffers_grow() {
        let f = LayerFloor::new(&layer());
        let small = f.floor(1 << 10, 1 << 6);
        let large = f.floor(1 << 16, 1 << 12);
        assert!(!small.provably_infeasible);
        assert!(large.total_words <= small.total_words);
        assert!(large.read_words <= small.read_words);
        // The output term never shrinks below the exact write-back.
        assert!(large.total_words >= layer().output_words());
    }

    #[test]
    fn giant_buffers_reach_the_compulsory_floor() {
        let l = layer();
        let f = LayerFloor::new(&l);
        let floor = f.floor(1 << 30, 1 << 30);
        // With everything resident, inputs and weights are read once each
        // and outputs written once: the compulsory traffic.
        assert_eq!(
            floor.total_words,
            l.input_words() + l.weight_words() + l.output_words()
        );
    }

    #[test]
    fn summed_extent_matches_brute_force() {
        // 1-wide tiles with pad clip the borders; check one by hand:
        // out=4, tile=1, stride=2, kernel=3, pad=1, in=8.
        // starts 0..3: windows [-1..1]→[0,1], [1..3], [3..5], [5..7]
        // lens: 2,3,3,3 → 11.
        let axis = AxisTable::build(4, 2, 3, 1, 8);
        assert_eq!(axis.sum(1), 11);
        // Full-output tile touches every input row exactly once.
        assert_eq!(axis.sum(4), 8);
    }

    #[test]
    fn cache_memoizes_per_geometry() {
        let layers = vec![layer(), ConvLayer::square(3, 256, 28, 256, 3, 1).unwrap()];
        let mut cache = FloorCache::new(&layers);
        let a = cache.floors(1 << 12, 64).to_vec();
        let b = cache.floors(1 << 12, 64).to_vec();
        assert_eq!(a, b);
        assert_eq!(cache.geometries(), 1);
        cache.floors(1 << 13, 64);
        assert_eq!(cache.geometries(), 2);
        assert_eq!(a.len(), 2);
    }
}
