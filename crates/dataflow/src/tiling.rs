//! The paper's communication-optimal dataflow (Section IV-A, Fig. 6/7).
//!
//! A tiling `{b, z, y, x}` partitions the output images into
//! `b×z×y×x` sub-matrices. Each sub-matrix's partial sums stay on chip while
//! the needed inputs and weights stream from DRAM exactly once, `k = 1` input
//! channel at a time. The DRAM traffic follows Eq. 14; choosing
//! `b·x·y ≈ R·z` and `b·x·y·z ≈ S` reaches the Eq. 15 lower bound.

use comm_bound::OnChipMemory;
use conv_model::ConvLayer;
use serde::{Deserialize, Serialize};

use crate::engine::LayerTables;
use crate::traffic::DramTraffic;

/// Output tiling `{b, z, y, x}` of the paper's dataflow (Fig. 7).
///
/// `b` images × `z` output channels × `y` output rows × `x` output columns
/// of partial sums are kept on chip per block; the inner iteration streams
/// `k = 1` input channel at a time (the paper shows `k` should always be the
/// smallest value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tiling {
    /// Images per block (`b ≤ B`).
    pub b: usize,
    /// Output channels per block (`z ≤ Co`).
    pub z: usize,
    /// Output rows per block (`y ≤ Ho`).
    pub y: usize,
    /// Output columns per block (`x ≤ Wo`).
    pub x: usize,
}

impl Tiling {
    /// Creates a tiling, clamping each size into `1..=dim`.
    #[must_use]
    pub fn clamped(layer: &ConvLayer, b: usize, z: usize, y: usize, x: usize) -> Self {
        Tiling {
            b: b.clamp(1, layer.batch()),
            z: z.clamp(1, layer.out_channels()),
            y: y.clamp(1, layer.output_height()),
            x: x.clamp(1, layer.output_width()),
        }
    }

    /// Partial sums resident on chip per block: `u·z = b·x·y·z` words.
    #[must_use]
    pub fn psum_words(&self) -> u64 {
        self.b as u64 * self.z as u64 * self.y as u64 * self.x as u64
    }

    /// The `u = b·x·y` side of the output block in the converted MM view.
    #[must_use]
    pub fn u(&self) -> u64 {
        self.b as u64 * self.x as u64 * self.y as u64
    }

    /// On-chip words needed by the dataflow with this tiling at `k = 1`:
    /// Psums (`b·x·y·z`) + one channel of inputs (`b·x'·y'`) + one channel of
    /// `z` kernels' weights (`z·Wk·Hk`).
    #[must_use]
    pub fn onchip_words(&self, layer: &ConvLayer) -> u64 {
        let (xp, yp) = layer.input_footprint(self.x, self.y);
        self.psum_words()
            + self.b as u64 * xp as u64 * yp as u64
            + self.z as u64 * layer.kernel_height() as u64 * layer.kernel_width() as u64
    }

    /// True when the tiling fits in `mem` effective on-chip words.
    #[must_use]
    pub fn fits(&self, layer: &ConvLayer, mem: OnChipMemory) -> bool {
        self.onchip_words(layer) as f64 <= mem.words()
    }

    /// Checks that every dimension is usable for blocking `layer`: nonzero
    /// (a zero tile size would make the Fig. 7 block grid empty along that
    /// axis and never advance) and no larger than the corresponding output
    /// dimension (an oversized tile silently behaves like the clamped one,
    /// which is almost always a caller bug).
    ///
    /// The fields are `pub` and [`Deserialize`], so tilings can arrive from
    /// untrusted JSON; every `simulate`/API boundary validates through this
    /// before walking the block grid.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate_for(&self, layer: &ConvLayer) -> Result<(), String> {
        let axes = [
            ("b", self.b, layer.batch(), "batch"),
            ("z", self.z, layer.out_channels(), "output channels"),
            ("y", self.y, layer.output_height(), "output height"),
            ("x", self.x, layer.output_width(), "output width"),
        ];
        for (name, value, dim, what) in axes {
            if value == 0 {
                return Err(format!("tiling dimension {name} must be nonzero"));
            }
            if value > dim {
                return Err(format!(
                    "tiling dimension {name}={value} exceeds the layer's {what} {dim}"
                ));
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for Tiling {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{{b={}, z={}, y={}, x={}}}",
            self.b, self.z, self.y, self.x
        )
    }
}

/// Sum over tile starts of the *input* extent each output tile of size
/// `tile` needs along one axis, accounting for halos, stride, padding and
/// image-boundary clipping (padding zeros are never fetched from DRAM).
pub(crate) fn summed_input_extent(
    out_dim: usize,
    tile: usize,
    stride: usize,
    kernel: usize,
    pad: usize,
    in_dim: usize,
) -> u64 {
    let mut sum = 0u64;
    let mut start = 0usize;
    while start < out_dim {
        let len = tile.min(out_dim - start);
        let lo = (start * stride) as isize - pad as isize;
        let hi = ((start + len - 1) * stride + kernel - 1) as isize - pad as isize;
        let lo = lo.max(0);
        let hi = hi.min(in_dim as isize - 1);
        if hi >= lo {
            sum += (hi - lo + 1) as u64;
        }
        start += tile;
    }
    sum
}

/// Number of tiles along one axis.
pub(crate) fn tile_count(dim: usize, tile: usize) -> u64 {
    dim.div_ceil(tile) as u64
}

/// Exact DRAM traffic of the paper's dataflow (Eq. 14) for a given tiling,
/// including boundary-tile effects.
///
/// For every output block, `Wk·Hk·Ci·z'` weights and `b'·x''·y''·Ci` inputs
/// are read exactly once (`'` marks boundary-clamped tile sizes, `''` the
/// halo extents clipped to the image), and the `b'·z'·x'·y'` outputs are
/// written exactly once at the end.
#[must_use]
pub fn our_dataflow_traffic(layer: &ConvLayer, tiling: &Tiling) -> DramTraffic {
    let ci = layer.in_channels() as u64;
    let kh = layer.kernel_height() as u64;
    let kw = layer.kernel_width() as u64;

    let nb = tile_count(layer.batch(), tiling.b);
    let nz = tile_count(layer.out_channels(), tiling.z);
    let ny = tile_count(layer.output_height(), tiling.y);
    let nx = tile_count(layer.output_width(), tiling.x);

    // Weights: each (z-block) × (spatial & batch block) reads Wk·Hk·Ci·z'.
    // Σ z' over z-blocks = Co.
    let weight_reads = kw * kh * ci * layer.out_channels() as u64 * nb * ny * nx;

    // Inputs: per block b'·x''·y''·Ci; separable over axes.
    let sum_b: u64 = {
        let mut s = 0u64;
        let mut start = 0usize;
        while start < layer.batch() {
            s += tiling.b.min(layer.batch() - start) as u64;
            start += tiling.b;
        }
        s
    };
    let sum_x = summed_input_extent(
        layer.output_width(),
        tiling.x,
        layer.stride(),
        layer.kernel_width(),
        layer.padding().horizontal,
        layer.in_width(),
    );
    let sum_y = summed_input_extent(
        layer.output_height(),
        tiling.y,
        layer.stride(),
        layer.kernel_height(),
        layer.padding().vertical,
        layer.in_height(),
    );
    let input_reads = sum_b * sum_x * sum_y * ci * nz;

    DramTraffic {
        input_reads,
        weight_reads,
        output_reads: 0,
        output_writes: layer.output_words(),
    }
}

/// Closed-form tiling choice from the paper's two optimality conditions
/// (Section IV-C): `b·x·y ≈ R·z` and `b·x·y·z ≈ S`, for the layer `tables`
/// describe.
///
/// Solves `u = √(S·R)`, `z = √(S/R)`, distributes `u` over `{b, y, x}`
/// greedily (whole images first, then square-ish spatial tiles), then shrinks
/// until the `k = 1` working set fits. This is the constructive "our
/// dataflow" configuration; the exhaustive searches
/// ([`search_ours`](crate::search_ours) and the planner's structural
/// search) start from it, over the same `tables`.
#[must_use]
pub fn paper_tiling(tables: &LayerTables, mem: OnChipMemory) -> Tiling {
    let layer = tables.layer();
    let s = mem.words();
    let r = layer.window_reuse();
    let u_target = (s * r).sqrt();
    let z_target = (s / r).sqrt();

    // Candidate grid around the closed-form targets: the optimality
    // conditions are approximate (halos and the k=1 slices consume part of
    // S), so a small local sweep recovers the constant factor.
    let plane = (layer.output_height() * layer.output_width()) as f64;
    let b_hint = ((u_target / plane).floor() as usize).clamp(1, layer.batch());

    // The local sweep evaluates ~hundreds of tilings; the axis tables turn
    // each fit check and traffic count into lookups instead of re-walking
    // the halo sums (`our_dataflow_traffic`) per candidate. The tables
    // compute the same integers — the engine pins the parity — so the
    // chosen tiling is unchanged.
    let factors = [0.5, 0.62, 0.75, 0.85, 0.95, 1.0, 1.1];
    let mut best: Option<(u64, Tiling)> = None;
    for b in 1..=layer.batch().min(b_hint + 1) {
        let side = (u_target / b as f64).sqrt();
        for fy in factors {
            for fx in factors {
                for fz in factors {
                    let t = Tiling::clamped(
                        layer,
                        b,
                        (z_target * fz).round() as usize,
                        (side * fy).round() as usize,
                        (side * fx).round() as usize,
                    );
                    if tables.ours_onchip(&t) as f64 > mem.words() {
                        continue;
                    }
                    let q = tables.ours_traffic(&t).total_words();
                    match best {
                        Some((bq, _)) if bq <= q => {}
                        _ => best = Some((q, t)),
                    }
                }
            }
        }
    }
    best.map(|(_, t)| t)
        .unwrap_or_else(|| Tiling::clamped(layer, 1, 1, 1, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_model::workloads;

    fn layer() -> ConvLayer {
        workloads::vgg16(3).layer(4).unwrap().layer // conv3_1
    }

    #[test]
    fn untiled_layer_reads_everything_once() {
        // Tile = whole layer -> inputs and weights read exactly once.
        let l = layer();
        let t = Tiling::clamped(
            &l,
            l.batch(),
            l.out_channels(),
            l.output_height(),
            l.output_width(),
        );
        let traffic = our_dataflow_traffic(&l, &t);
        assert_eq!(traffic.weight_reads, l.weight_words());
        assert_eq!(traffic.input_reads, l.input_words());
        assert_eq!(traffic.output_writes, l.output_words());
        assert_eq!(traffic.output_reads, 0);
    }

    #[test]
    fn channel_tiling_multiplies_input_reads() {
        let l = layer();
        let full = Tiling::clamped(
            &l,
            l.batch(),
            l.out_channels(),
            l.output_height(),
            l.output_width(),
        );
        let halved = Tiling {
            z: l.out_channels() / 2,
            ..full
        };
        let t_full = our_dataflow_traffic(&l, &full);
        let t_half = our_dataflow_traffic(&l, &halved);
        assert_eq!(t_half.input_reads, 2 * t_full.input_reads);
        assert_eq!(t_half.weight_reads, t_full.weight_reads);
    }

    #[test]
    fn spatial_tiling_multiplies_weight_reads() {
        let l = layer();
        let full = Tiling::clamped(
            &l,
            l.batch(),
            l.out_channels(),
            l.output_height(),
            l.output_width(),
        );
        let split = Tiling {
            x: l.output_width() / 2,
            ..full
        };
        let t_full = our_dataflow_traffic(&l, &full);
        let t_split = our_dataflow_traffic(&l, &split);
        assert_eq!(t_split.weight_reads, 2 * t_full.weight_reads);
        // Inputs grow only by the halo columns.
        assert!(t_split.input_reads > t_full.input_reads);
        assert!(t_split.input_reads < t_full.input_reads * 11 / 10);
    }

    #[test]
    fn summed_extent_no_tiling_covers_input_once() {
        // One tile covering everything: needs the whole (clipped) input.
        let n = summed_input_extent(56, 56, 1, 3, 1, 56);
        assert_eq!(n, 56);
    }

    #[test]
    fn summed_extent_counts_halos() {
        // 56 outputs in tiles of 8, kernel 3, stride 1, no padding, input 58:
        // each of 7 tiles needs 10 columns.
        let n = summed_input_extent(56, 8, 1, 3, 0, 58);
        assert_eq!(n, 70);
    }

    #[test]
    fn summed_extent_clips_padding() {
        // Same but with pad=1 and input 56: first tile starts at -1 (clipped),
        // last tile ends at 57 (clipped), so 2 columns less in total.
        let n = summed_input_extent(56, 8, 1, 3, 1, 56);
        assert_eq!(n, 68);
    }

    #[test]
    fn summed_extent_strided() {
        // 4 outputs, tile 2, stride 2, kernel 3, no pad, input 9:
        // tile 0 covers in[0..=4] (5), tile 1 covers in[4..=8] (5).
        let n = summed_input_extent(4, 2, 2, 3, 0, 9);
        assert_eq!(n, 10);
    }

    #[test]
    fn paper_tiling_respects_memory() {
        let l = layer();
        for kib in [16.0, 66.5, 128.0, 256.0] {
            let mem = OnChipMemory::from_kib(kib);
            let t = paper_tiling(&LayerTables::new(&l), mem);
            assert!(t.fits(&l, mem), "tiling {t} does not fit in {kib} KiB");
        }
    }

    #[test]
    fn paper_tiling_balances_u_and_rz() {
        let l = layer();
        let mem = OnChipMemory::from_kib(66.5);
        let t = paper_tiling(&LayerTables::new(&l), mem);
        let ratio = t.u() as f64 / (l.window_reuse() * t.z as f64);
        assert!(
            (0.4..2.5).contains(&ratio),
            "u should approximate R*z, got ratio {ratio} for {t}"
        );
    }

    #[test]
    fn paper_tiling_near_lower_bound() {
        // The constructed tiling's traffic should be within ~35% of Eq. 15.
        let l = layer();
        let mem = OnChipMemory::from_kib(66.5);
        let t = paper_tiling(&LayerTables::new(&l), mem);
        let q = our_dataflow_traffic(&l, &t).total_words() as f64;
        let bound = comm_bound::practical_dram_words(&l, mem);
        assert!(
            q >= bound * 0.95,
            "traffic below the lower bound?! q={q} bound={bound}"
        );
        assert!(
            q <= bound * 1.35,
            "too far above bound: q={q} bound={bound}"
        );
    }

    #[test]
    fn onchip_words_accounts_for_halo() {
        let l = layer();
        let t = Tiling::clamped(&l, 1, 16, 8, 8);
        let (xp, yp) = l.input_footprint(8, 8);
        assert_eq!(
            t.onchip_words(&l),
            (16 * 8 * 8) + (xp as u64 * yp as u64) + 16 * 9
        );
    }

    #[test]
    fn validate_for_accepts_clamped_tilings() {
        let l = layer();
        for (b, z, y, x) in [(1, 1, 1, 1), (9, 999, 999, 999), (2, 16, 8, 8)] {
            Tiling::clamped(&l, b, z, y, x).validate_for(&l).unwrap();
        }
        let full = Tiling::clamped(
            &l,
            l.batch(),
            l.out_channels(),
            l.output_height(),
            l.output_width(),
        );
        full.validate_for(&l).unwrap();
    }

    #[test]
    fn validate_for_rejects_zero_and_oversized() {
        let l = layer();
        let ok = Tiling::clamped(&l, 1, 8, 8, 8);
        for (bad, needle) in [
            (Tiling { b: 0, ..ok }, "b must be nonzero"),
            (Tiling { z: 0, ..ok }, "z must be nonzero"),
            (Tiling { y: 0, ..ok }, "y must be nonzero"),
            (Tiling { x: 0, ..ok }, "x must be nonzero"),
            (
                Tiling {
                    b: l.batch() + 1,
                    ..ok
                },
                "exceeds",
            ),
            (
                Tiling {
                    z: l.out_channels() + 1,
                    ..ok
                },
                "exceeds",
            ),
            (
                Tiling {
                    y: l.output_height() * 2,
                    ..ok
                },
                "exceeds",
            ),
            (
                Tiling {
                    x: usize::MAX,
                    ..ok
                },
                "exceeds",
            ),
        ] {
            let msg = bad.validate_for(&l).unwrap_err();
            assert!(msg.contains(needle), "{bad}: {msg}");
        }
    }

    #[test]
    fn display_mentions_all_fields() {
        let t = Tiling {
            b: 1,
            z: 2,
            y: 3,
            x: 4,
        };
        assert_eq!(t.to_string(), "{b=1, z=2, y=3, x=4}");
    }
}
