//! Dataflow traffic models for convolution accelerators.
//!
//! Reproduces Section IV and the Fig. 12/13 comparison of the paper:
//!
//! * [`Tiling`] and [`our_dataflow_traffic`] — the paper's
//!   communication-optimal dataflow (output blocks of `b·z·y·x` partial sums
//!   resident on chip, inputs/weights streamed once, `k = 1`).
//! * [`baselines`] — the seven comparison dataflows (`OutR-A/B`, `WtR-A/B`,
//!   `InR-A/B/C`) with exact traffic formulas.
//! * [`search_dataflow`]/[`search_all`]/[`found_minimum`] — exhaustive
//!   tiling search per dataflow and the paper's "found minimum" oracle
//!   (Section VI-A), over one set of halo tables per layer
//!   ([`LayerTables`]), memoized in a [`Memo`]: the bounded, coalescing
//!   cache type the planner and the analysis service reuse.
//! * [`filter`] — admissible per-candidate DRAM floors for staged
//!   design-space sweeps, read from the same axis tables.
//!
//! # Example
//!
//! ```
//! use comm_bound::OnChipMemory;
//! use conv_model::ConvLayer;
//! use dataflow::search_ours;
//!
//! let layer = ConvLayer::square(3, 256, 56, 128, 3, 1).unwrap();
//! let mem = OnChipMemory::from_kib(66.5);
//! let ours = search_ours(&layer, mem);
//! let bound = comm_bound::dram_bound_bytes(&layer, mem);
//! let achieved = ours.traffic.total_bytes() as f64;
//! assert!(achieved < 1.3 * bound, "dataflow stays near the bound");
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod baselines;
pub mod dse;
pub mod engine;
pub mod filter;
mod lru;
mod memo;
mod nest_counter;
mod search;
mod tiling;
mod traffic;

pub use dse::{grid_points, GridError};
pub use engine::{
    cache_stats, clear_search_cache, found_minimum, search_all, search_dataflow, search_ours,
    DataflowSearches, LayerTables, DEFAULT_SEARCH_CACHE_CAPACITY,
};
pub use filter::{DramFloor, FloorCache, LayerFloor};
pub use memo::{CacheStats, Lookup, Memo};
pub use nest_counter::count_by_execution;
pub use search::{candidates, DataflowChoice};
pub use tiling::{our_dataflow_traffic, paper_tiling, Tiling};
pub use traffic::DramTraffic;

use serde::{Deserialize, Serialize};

/// The dataflows compared in Fig. 12/13 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataflowKind {
    /// The paper's communication-optimal dataflow (Section IV-A).
    Ours,
    /// Output-stationary, one channel plane resident (ShiDianNao-style).
    OutRA,
    /// Output-stationary, all channels of a spatial tile resident.
    OutRB,
    /// Weight-stationary over a `z×k` kernel block, Psums shuttled.
    WtRA,
    /// Weight-stationary over `z` full kernels.
    WtRB,
    /// Input-stationary over a `k·y·x` block, Psums shuttled.
    InRA,
    /// Input-stationary over `k` full channel planes, Psums shuttled.
    InRB,
    /// Input-stationary over an all-channel spatial block.
    InRC,
}

impl DataflowKind {
    /// All eight dataflows, ours first.
    pub const ALL: [DataflowKind; 8] = [
        DataflowKind::Ours,
        DataflowKind::OutRA,
        DataflowKind::OutRB,
        DataflowKind::WtRA,
        DataflowKind::WtRB,
        DataflowKind::InRA,
        DataflowKind::InRB,
        DataflowKind::InRC,
    ];

    /// The name used in the paper's figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DataflowKind::Ours => "Our dataflow",
            DataflowKind::OutRA => "OutR-A",
            DataflowKind::OutRB => "OutR-B",
            DataflowKind::WtRA => "WtR-A",
            DataflowKind::WtRB => "WtR-B",
            DataflowKind::InRA => "InR-A",
            DataflowKind::InRB => "InR-B",
            DataflowKind::InRC => "InR-C",
        }
    }
}

impl std::fmt::Display for DataflowKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_unique() {
        let mut names: Vec<&str> = DataflowKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(DataflowKind::WtRA.to_string(), "WtR-A");
    }
}
