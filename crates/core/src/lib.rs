//! The communication-optimal CNN accelerator library — the paper's primary
//! contribution as a reusable API.
//!
//! This crate ties the substrates together into the pipeline every
//! experiment uses:
//!
//! 1. [`planner`] — choose the DRAM-minimal tiling of the paper's dataflow
//!    that is *structurally feasible* on a concrete implementation
//!    (LReg/WGBuf/IGBuf/mapping constraints of Section V);
//! 2. [`accel_sim::simulate`] — count every access and cycle;
//! 3. [`comm_bound`] — evaluate the Theorem 2 / Eq. 15 bounds at the
//!    implementation's effective on-chip memory;
//! 4. [`energy`] — compose the Table II energy breakdown of Fig. 18.
//!
//! # Quickstart
//!
//! ```
//! use clb_core::Accelerator;
//! use conv_model::workloads;
//!
//! // Table I implementation 1: 256 PEs, 64 KB Psums, 66.5 KB effective.
//! let acc = Accelerator::implementation(1);
//! let net = workloads::resnet_bottleneck(1, 14, 64, 16);
//! let report = acc.analyze_network(&net).unwrap();
//! assert!(report.totals.dram.total_words() as f64
//!     >= report.layers.iter().map(|l| l.bounds.dram_words).sum::<f64>() * 0.9);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

/// Caps on user-supplied networks, the model-level analogue of
/// [`accel_sim::caps`] for architectures: any boundary that accepts a full
/// layer list (the service's custom-network requests, network-mode DSE
/// sweeps) checks these *before* constructing a single layer, accumulating
/// the MAC total in `u128` so the check itself cannot overflow.
pub mod network_caps {
    /// Max layers one network may declare. Generous: the deepest preset
    /// (ResNet-50) has 53.
    pub const MAX_NETWORK_LAYERS: usize = 256;
    /// Max total MACs over all layers (batch included), ~1.4×10¹⁴.
    /// Generous: VGG-16 at the max batch of 64 is ~9.8×10¹¹ — two orders
    /// of magnitude of headroom — while staying far enough below
    /// `u64::MAX` that every accepted network's per-layer and total MAC
    /// counts are exactly representable in the `u64` report fields.
    pub const MAX_NETWORK_MACS: u128 = 1 << 47;
}

mod accelerator;
pub mod design;
pub mod dse;
pub mod energy;
pub mod planner;
mod report;

pub use accelerator::Accelerator;
pub use design::{derive_config, optimal_psum_fraction};
pub use dse::{
    candidate_bounds, objective_key, rank_entries, staged_sweep_archs, staged_sweep_archs_network,
    sweep_archs, sweep_archs_network, ArchSweepEntry, CandidateBound, Objective, StagedOutcome,
    StagedProgress, SweepCost,
};
pub use planner::{
    clear_plan_cache, plan_cache_stats, plan_for_arch, tiling_feasible, DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use report::{LayerReport, NetworkReport};

// Re-export the pieces callers need to use the API without importing every
// substrate crate.
pub use accel_sim::{ArchConfig, DramConfig, SimError, SimStats};
pub use comm_bound::{BoundSummary, OnChipMemory};
pub use dataflow::{DataflowKind, DramTraffic, Tiling};
pub use energy_model::{EnergyBreakdown, EnergyParams};
