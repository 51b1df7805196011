//! Analytical communication lower bounds (Sections III and IV-C of the paper).
//!
//! The central results reproduced here:
//!
//! * **Theorem 2** (Eq. 13): with `S` words of effective on-chip memory, any
//!   execution of a convolutional layer moves at least
//!   `Ω(#MACs / √(R·S))` words between DRAM and the chip, where
//!   `R = Wk·Hk / D²` is the sliding-window reuse bound. See
//!   [`theorem2_dram_words`].
//! * **Practical bound** (Eq. 15): the tight, constant-bearing form used for
//!   every "Lower bound" curve in the paper's figures —
//!   `Q ≈ 2·#MACs / √(R·S) + |outputs|`. See [`practical_dram_words`].
//! * **GBuf bound** (Section IV-B1): the loaded inputs and weights can be
//!   read from the global buffer exactly once, so the minimum GBuf traffic
//!   equals the DRAM read traffic of inputs and weights. See
//!   [`gbuf_bound_words`].
//! * **Reg bound** (Eq. 16): every MAC writes one partial sum to a register,
//!   so the minimum register traffic is `#MACs` writes. See
//!   [`reg_bound_writes`].
//!
//! All quantities are in 16-bit *words*; multiply by
//! [`conv_model::BYTES_PER_WORD`] (or use the `_bytes` helpers) for the byte
//! volumes plotted in the paper.
//!
//! # Example
//!
//! ```
//! use comm_bound::{practical_dram_words, OnChipMemory};
//! use conv_model::ConvLayer;
//!
//! let layer = ConvLayer::square(3, 256, 56, 128, 3, 1).unwrap();
//! let s = OnChipMemory::from_kib(66.5);
//! let words = practical_dram_words(&layer, s);
//! assert!(words > layer.output_words() as f64);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod hierarchy;

pub use hierarchy::{HierarchyBounds, HierarchyGaps, Level, MeasuredTraffic};

use conv_model::{ConvLayer, BYTES_PER_WORD};
use serde::{Deserialize, Serialize};

/// Effective on-chip memory capacity `S`, counted in 16-bit words.
///
/// The paper defines the *effective* on-chip memory as the maximum on-chip
/// storage holding no duplicated data (Section III). Figures sweep it in
/// kibibytes; the theory wants words. This newtype keeps the two straight.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct OnChipMemory {
    words: f64,
}

impl OnChipMemory {
    /// Capacity from a word count.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not strictly positive.
    #[must_use]
    pub fn from_words(words: f64) -> Self {
        assert!(
            words > 0.0 && words.is_finite(),
            "on-chip memory must be positive, got {words}"
        );
        OnChipMemory { words }
    }

    /// Capacity from kibibytes at 16-bit precision (`1 KiB = 512 words`).
    ///
    /// # Panics
    ///
    /// Panics if `kib` is not strictly positive.
    #[must_use]
    pub fn from_kib(kib: f64) -> Self {
        OnChipMemory::from_words(kib * 1024.0 / BYTES_PER_WORD as f64)
    }

    /// Capacity in words.
    #[must_use]
    pub fn words(&self) -> f64 {
        self.words
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn bytes(&self) -> f64 {
        self.words * BYTES_PER_WORD as f64
    }

    /// Capacity in kibibytes.
    #[must_use]
    pub fn kib(&self) -> f64 {
        self.bytes() / 1024.0
    }
}

impl std::fmt::Display for OnChipMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}KiB", self.kib())
    }
}

/// Theorem 2 (Eq. 13): the asymptotic DRAM lower bound in words,
/// `#MACs / √(R·S)`.
///
/// This is the Ω-form: it captures the asymptotic relation between traffic
/// and on-chip capacity. For plottable, constant-bearing curves use
/// [`practical_dram_words`].
#[must_use]
pub fn theorem2_dram_words(layer: &ConvLayer, mem: OnChipMemory) -> f64 {
    layer.macs() as f64 / (layer.window_reuse() * mem.words()).sqrt()
}

/// The naive (no data reuse) communication volume the paper quotes as the
/// comparison point for Theorem 2: `2·#MACs` words — every MAC reads one
/// input and one weight from DRAM.
#[must_use]
pub fn naive_dram_words(layer: &ConvLayer) -> f64 {
    2.0 * layer.macs() as f64
}

/// The reduction factor `√(R·S)` by which Theorem 2 improves on the naive
/// volume. For `R = 1` (matrix multiplication) this is the classic
/// Hong–Kung `√S`.
#[must_use]
pub fn reduction_factor(layer: &ConvLayer, mem: OnChipMemory) -> f64 {
    (layer.window_reuse() * mem.words()).sqrt()
}

/// Practical DRAM lower bound (Eq. 15) in words:
/// `2·#MACs / √(R·S) + |outputs|`.
///
/// Derived by substituting the optimal tiling (`u·z ≈ S`, `u ≈ R·z`) into the
/// dataflow's traffic expression (Eq. 14): reads of inputs and weights are
/// balanced at `#MACs/√(R·S)` each, and every output is written exactly once.
/// This is the curve labelled "Lower bound" in Fig. 13–15 and Table III.
#[must_use]
pub fn practical_dram_words(layer: &ConvLayer, mem: OnChipMemory) -> f64 {
    2.0 * layer.macs() as f64 / (layer.window_reuse() * mem.words()).sqrt()
        + layer.output_words() as f64
}

/// [`practical_dram_words`] in bytes.
#[must_use]
pub fn practical_dram_bytes(layer: &ConvLayer, mem: OnChipMemory) -> f64 {
    practical_dram_words(layer, mem) * BYTES_PER_WORD as f64
}

/// The ideal (unbounded memory) volume: every input, weight and output moves
/// exactly once. No dataflow can beat this regardless of `S`.
#[must_use]
pub fn ideal_dram_words(layer: &ConvLayer) -> f64 {
    (layer.input_words() + layer.weight_words() + layer.output_words()) as f64
}

/// DRAM lower bound clamped from below by the ideal volume.
///
/// Eq. 15 can fall below the ideal volume when `S` is large enough to hold
/// all inputs or weights (the paper's "ideal case", handled separately in
/// Section III-B); the achievable bound is the max of the two.
#[must_use]
pub fn dram_bound_words(layer: &ConvLayer, mem: OnChipMemory) -> f64 {
    practical_dram_words(layer, mem).max(ideal_dram_words(layer))
}

/// [`dram_bound_words`] in bytes.
#[must_use]
pub fn dram_bound_bytes(layer: &ConvLayer, mem: OnChipMemory) -> f64 {
    dram_bound_words(layer, mem) * BYTES_PER_WORD as f64
}

/// Lower bound on GBuf traffic in words (Section IV-B1 / IV-C).
///
/// Within one iteration the PE array can consume each loaded input and
/// weight exactly once, so the minimum GBuf read volume equals the DRAM read
/// volume of inputs and weights — the first term of Eq. 15. (Psums never
/// touch the GBuf in the optimal mapping.) The same volume is written into
/// the GBuf from DRAM, so total traffic is twice the read volume; this
/// function returns the *read* volume, matching how the paper reports GBuf
/// access against its bound in Table IV.
#[must_use]
pub fn gbuf_bound_words(layer: &ConvLayer, mem: OnChipMemory) -> f64 {
    let input_weight_reads =
        2.0 * layer.macs() as f64 / (layer.window_reuse() * mem.words()).sqrt();
    input_weight_reads.max((layer.input_words() + layer.weight_words()) as f64)
}

/// Lower bound on register traffic (Eq. 16): one LReg write per MAC.
///
/// Partial sums live in PE-local registers and each multiply-accumulate
/// updates exactly one of them; no scheme can write fewer.
#[must_use]
pub fn reg_bound_writes(layer: &ConvLayer) -> u64 {
    layer.macs()
}

/// Breakdown of the practical DRAM bound into its three streams, in words.
///
/// The optimal tiling balances input and weight reads (`bxy ≈ R·z` makes the
/// two loading volumes equal — Section IV-A) and writes outputs once.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramBoundBreakdown {
    /// Input words read from DRAM.
    pub input_reads: f64,
    /// Weight words read from DRAM.
    pub weight_reads: f64,
    /// Output words written to DRAM.
    pub output_writes: f64,
}

impl DramBoundBreakdown {
    /// Computes the balanced breakdown of Eq. 15 for a layer.
    #[must_use]
    pub fn of(layer: &ConvLayer, mem: OnChipMemory) -> Self {
        let half = layer.macs() as f64 / (layer.window_reuse() * mem.words()).sqrt();
        DramBoundBreakdown {
            input_reads: half.max(layer.input_words() as f64),
            weight_reads: half.max(layer.weight_words() as f64),
            output_writes: layer.output_words() as f64,
        }
    }

    /// Total words.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.input_reads + self.weight_reads + self.output_writes
    }
}

/// Per-layer summary of every bound, convenient for reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundSummary {
    /// Effective on-chip memory used for the bounds.
    pub mem_words: f64,
    /// Theorem 2 asymptotic DRAM bound (words).
    pub theorem2_words: f64,
    /// Practical Eq. 15 DRAM bound (words), clamped by the ideal volume.
    pub dram_words: f64,
    /// GBuf read bound (words).
    pub gbuf_words: f64,
    /// Register write bound (writes = MACs).
    pub reg_writes: u64,
    /// Sliding-window reuse R of the layer.
    pub window_reuse: f64,
}

impl BoundSummary {
    /// Computes all bounds for one layer.
    #[must_use]
    pub fn of(layer: &ConvLayer, mem: OnChipMemory) -> Self {
        BoundSummary {
            mem_words: mem.words(),
            theorem2_words: theorem2_dram_words(layer, mem),
            dram_words: dram_bound_words(layer, mem),
            gbuf_words: gbuf_bound_words(layer, mem),
            reg_writes: reg_bound_writes(layer),
            window_reuse: layer.window_reuse(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_model::workloads;

    fn vgg_layer() -> ConvLayer {
        // conv3_1 at batch 3, the paper's workload granularity.
        workloads::vgg16(3).layer(4).unwrap().layer
    }

    #[test]
    fn memory_unit_conversions() {
        let mem = OnChipMemory::from_kib(64.0);
        assert_eq!(mem.words(), 32768.0);
        assert_eq!(mem.bytes(), 65536.0);
        assert_eq!(mem.kib(), 64.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_memory_rejected() {
        let _ = OnChipMemory::from_words(0.0);
    }

    #[test]
    fn theorem2_scales_as_inverse_sqrt_s() {
        let layer = vgg_layer();
        let q1 = theorem2_dram_words(&layer, OnChipMemory::from_kib(16.0));
        let q4 = theorem2_dram_words(&layer, OnChipMemory::from_kib(64.0));
        assert!((q1 / q4 - 2.0).abs() < 1e-12, "4x memory must halve Q");
    }

    #[test]
    fn theorem2_scales_as_inverse_sqrt_r() {
        // Same MAC count, different R: compare a 3x3 stride-1 (R=9) against
        // an equivalent-MM layer with R=1; bound ratio must be 3.
        let conv = ConvLayer::square(1, 64, 56, 64, 3, 1).unwrap();
        let mm = conv_model::workloads::fully_connected(
            1,
            64 * 9, // fold kernel taps into input features
            64 * 56 * 56,
        );
        assert_eq!(conv.macs(), mm.macs());
        let mem = OnChipMemory::from_kib(64.0);
        let ratio = theorem2_dram_words(&mm, mem) / theorem2_dram_words(&conv, mem);
        assert!((ratio - 3.0).abs() < 1e-12);
    }

    #[test]
    fn practical_bound_dominates_theorem2_constant() {
        let layer = vgg_layer();
        let mem = OnChipMemory::from_kib(66.5);
        assert!(practical_dram_words(&layer, mem) > theorem2_dram_words(&layer, mem));
    }

    #[test]
    fn practical_bound_includes_output_writes() {
        let layer = vgg_layer();
        // With enormous memory the read term vanishes and only writes remain.
        let mem = OnChipMemory::from_words(1e18);
        let q = practical_dram_words(&layer, mem);
        assert!((q - layer.output_words() as f64) / q < 1e-3);
    }

    #[test]
    fn clamped_bound_respects_ideal() {
        let layer = vgg_layer();
        let mem = OnChipMemory::from_words(1e18);
        assert_eq!(dram_bound_words(&layer, mem), ideal_dram_words(&layer));
    }

    #[test]
    fn naive_is_2macs() {
        let layer = vgg_layer();
        assert_eq!(naive_dram_words(&layer), 2.0 * layer.macs() as f64);
    }

    #[test]
    fn mm_case_matches_hong_kung() {
        let fc = workloads::fully_connected(8, 1024, 1024);
        let mem = OnChipMemory::from_words(4096.0);
        // R = 1 => reduction factor is sqrt(S).
        assert_eq!(reduction_factor(&fc, mem), 64.0);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let layer = vgg_layer();
        let mem = OnChipMemory::from_kib(66.5);
        let b = DramBoundBreakdown::of(&layer, mem);
        // Balanced reads.
        assert_eq!(b.input_reads, b.weight_reads);
        let expected = practical_dram_words(&layer, mem);
        assert!((b.total() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn gbuf_bound_is_read_part_of_dram_bound() {
        let layer = vgg_layer();
        let mem = OnChipMemory::from_kib(66.5);
        let gbuf = gbuf_bound_words(&layer, mem);
        let dram = practical_dram_words(&layer, mem);
        assert!((gbuf + layer.output_words() as f64 - dram).abs() < 1e-6);
    }

    #[test]
    fn reg_bound_is_macs() {
        let layer = vgg_layer();
        assert_eq!(reg_bound_writes(&layer), layer.macs());
    }

    #[test]
    fn summary_consistent() {
        let layer = vgg_layer();
        let mem = OnChipMemory::from_kib(66.5);
        let s = BoundSummary::of(&layer, mem);
        assert_eq!(s.reg_writes, layer.macs());
        assert_eq!(s.window_reuse, 9.0);
        assert!(s.dram_words >= s.theorem2_words);
    }

    #[test]
    fn bound_monotone_in_memory() {
        let layer = vgg_layer();
        let mut prev = f64::INFINITY;
        for kib in [16.0, 32.0, 64.0, 128.0, 256.0] {
            let q = dram_bound_words(&layer, OnChipMemory::from_kib(kib));
            assert!(q <= prev, "bound must not increase with memory");
            prev = q;
        }
    }

    #[test]
    fn bytes_are_twice_words() {
        let layer = vgg_layer();
        let mem = OnChipMemory::from_kib(66.5);
        assert_eq!(
            dram_bound_bytes(&layer, mem),
            2.0 * dram_bound_words(&layer, mem)
        );
        assert_eq!(
            practical_dram_bytes(&layer, mem),
            2.0 * practical_dram_words(&layer, mem)
        );
    }
}
