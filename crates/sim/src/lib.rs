//! Cycle-level simulator of the communication-optimal CNN accelerator
//! (Section V, Fig. 10/11 of the paper).
//!
//! The paper evaluates a Verilog implementation synthesised at 65 nm with a
//! cycle-accurate simulator for memory-latency effects; this crate is the
//! Rust substitute (see `DESIGN.md` §2): a behavioural, counter-exact model
//! of the same architecture —
//!
//! * [`ArchConfig`] — the PE array / GReg / GBuf / DRAM configuration,
//!   including the five Table I implementations;
//! * [`mapping`] — the Section IV-B workload mapping onto PE rows/columns;
//! * [`simulate`] — the counting walk: DRAM, GBuf, GReg and LReg access
//!   volumes, cycles (compute + unhidden DRAM stalls), utilizations —
//!   evaluated per block *shape class* in one serial walk (one mapping
//!   walk per class, not per block, whatever the grid), with
//!   [`simulate_reference`] retained as the per-block oracle the class
//!   walk is pinned bit-identical against;
//! * [`simulate_functional`] — the same blocking and mapping actually
//!   computing the convolution in Q8.8 (validated against the reference
//!   loop nest);
//! * [`simulate_traced`] / [`trace`] — the same class walk, observed: an
//!   [`ExecutionTrace`] of per-class stall/compute timelines (JSON- and
//!   VCD-renderable) whose interval sums are pinned bit-identical to the
//!   [`SimStats`] they ship with.
//!
//! # Example
//!
//! ```
//! use accel_sim::{simulate, ArchConfig};
//! use conv_model::ConvLayer;
//! use dataflow::Tiling;
//!
//! let layer = ConvLayer::square(1, 8, 12, 4, 3, 1).unwrap();
//! let tiling = Tiling::clamped(&layer, 1, 8, 6, 6);
//! let stats = simulate(&layer, &tiling, &ArchConfig::example()).unwrap();
//! assert_eq!(stats.useful_macs, layer.macs());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod config;
mod engine;
pub mod mapping;
pub mod microarch;
mod stats;
pub mod trace;

pub use config::{caps, ArchCacheKey, ArchConfig, DramConfig};
pub use engine::{
    block_grid, effective_memory, simulate, simulate_functional, simulate_reference,
    simulate_traced, SimError,
};
pub use stats::{DramCounters, GbufCounters, RegCounters, SimStats, Utilization};
pub use trace::{ExecutionTrace, TraceBlock, TraceClass, TraceOptions, TracePhase, TraceSegment};
