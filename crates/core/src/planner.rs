//! Tiling planner for a concrete accelerator implementation.
//!
//! The abstract dataflow search ([`dataflow::search_ours`]) only respects
//! the total effective memory `S`. A real implementation adds *structural*
//! constraints (Section V): the Psum block must fit the LReg files through a
//! feasible PE mapping, the per-channel weight row must fit the WGBuf, and
//! the per-channel input slice (halo included) must fit the IGBuf. The
//! paper observes this fixed splitting costs only 3–4% extra DRAM traffic
//! (Fig. 14); the workspace tests pin that observation.
//!
//! The sweep *is* the dataflow crate's search engine
//! ([`search_ours_with`]), instantiated with this module's feasibility
//! predicates: traffic is evaluated through precomputed [`LayerTables`],
//! built once per plan and shared with the [`paper_tiling`] seed, the
//! `(b, z)` outer product fans out across threads, the IGBuf/WGBuf
//! constraints (monotone in their parameters) break candidate loops early,
//! and the PE-array mapping check only runs for candidates that could still
//! beat the best feasible tiling found so far. That check is
//! [`block_fits`]: it stops at the first row-grid factorisation that holds
//! the block, over factorisations enumerated once per plan, so it allocates
//! nothing. The blocks that map are down-closed (see
//! [`accel_sim::mapping`]), so the first tiling of an x-run that does not
//! map ends the run. Sharing one orchestration keeps the prune and
//! tie-break semantics of the planner and the abstract search from
//! drifting apart.
//!
//! Results are memoized process-wide in a bounded [`Memo`] keyed by
//! `(layer shape, architecture)` — the same type as the abstract search's
//! memo cache — so long-running embedders (the analysis service's
//! `/v1/plan`, `/v1/network` and `/v1/dse`) replan a given layer ×
//! implementation once, not per cold request; concurrent identical misses
//! wait for one sweep. An entry holds the planned tiling together with its
//! [`accel_sim::simulate`] stats, computed once inside the miss's flight:
//! the stats are a pure function of the key, so a warm
//! [`crate::Accelerator::analyze_layer`] is one lookup and no simulation.
//! [`plan_cache_stats`] and [`clear_plan_cache`] expose and reset the
//! cache.

use std::sync::LazyLock;

use accel_sim::mapping::{block_fits, map_block, Block, RowGrids};
use accel_sim::{ArchCacheKey, ArchConfig, SimError, SimStats};
use comm_bound::OnChipMemory;
use conv_model::ConvLayer;
use dataflow::engine::search_ours_with;
use dataflow::{paper_tiling, LayerTables, Memo, Tiling};

/// True when `tiling` satisfies every structural constraint of `arch`.
#[must_use]
pub fn tiling_feasible(layer: &ConvLayer, tiling: &Tiling, arch: &ArchConfig) -> bool {
    if tiling.z > arch.wgbuf_entries {
        return false;
    }
    let (xh, yh) = layer.input_footprint(tiling.x, tiling.y);
    if tiling.b * xh * yh > arch.igbuf_entries {
        return false;
    }
    // If the full-size block maps, every (smaller) boundary block maps too.
    map_block(arch, layer, &full_block(tiling)).is_ok()
}

/// The full-size output block of `tiling`, at the origin.
fn full_block(tiling: &Tiling) -> Block {
    Block {
        i0: 0,
        b: tiling.b,
        z0: 0,
        z: tiling.z,
        y0: 0,
        y: tiling.y,
        x0: 0,
        x: tiling.x,
    }
}

/// Memo-cache key: the layer shape plus the full architecture identity.
/// [`ArchCacheKey`] is built next to `ArchConfig` by exhaustive
/// destructuring, so a new `ArchConfig` field cannot silently bypass this
/// cache. The DRAM model does not influence planning, but `validate` reads
/// the core frequency, so the whole configuration is keyed for safety —
/// real embedders run a handful of fixed architectures, so the hit rate is
/// unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    layer: ConvLayer,
    arch: ArchCacheKey,
}

/// The bound on the planner memo cache. Entries are a few hundred bytes
/// (a key plus a 208-byte `Result<(Tiling, SimStats), SimError>`; the
/// stats add 144 bytes to an entry, at most ~0.6 MB over 4,096 entries),
/// and real workloads plan at most a few hundred distinct layer ×
/// architecture pairs.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 4096;

/// A planned tiling and its simulated stats, or why the layer has no plan.
type PlanResult = Result<(Tiling, SimStats), SimError>;

static PLANS: LazyLock<Memo<PlanKey, PlanResult>> =
    LazyLock::new(|| Memo::new(DEFAULT_PLAN_CACHE_CAPACITY));

/// Current planner memo-cache statistics — the same [`dataflow::CacheStats`]
/// shape the tiling-search cache reports, counting plans instead of
/// searches.
#[must_use]
pub fn plan_cache_stats() -> dataflow::CacheStats {
    PLANS.stats()
}

/// Empties the planner memo cache and resets its counters (benchmarks use
/// this for cold timings).
pub fn clear_plan_cache() {
    PLANS.clear();
}

/// Chooses the DRAM-minimal tiling of the paper's dataflow that is feasible
/// on `arch`, by exhaustive search seeded with the closed-form choice.
/// Equal-traffic tilings resolve to the smallest `(b, z, y, x)` tuple, the
/// same canonical order the dataflow search engine uses.
///
/// Results (errors included — they are deterministic) are memoized in a
/// process-wide bounded LRU keyed by `(layer shape, architecture)`, with
/// concurrent identical misses coalesced onto one sweep, so warm planning
/// is a hash lookup for any embedder. A miss also simulates the planned
/// tiling once, for the memo, so a warm
/// [`crate::Accelerator::analyze_layer`] simulates nothing.
///
/// # Errors
///
/// Returns [`SimError::InvalidArch`] when `arch` fails its structural
/// invariants, and other [`SimError`]s when no tiling fits — e.g. a layer
/// whose single sliding window (`Hk×Wk` inputs) already exceeds the IGBuf
/// or the GReg segments, such as the weight-gradient convolution of a
/// large feature map. Such layers need a different blocking than the
/// Fig. 7 dataflow provides.
pub fn plan_for_arch(layer: &ConvLayer, arch: &ArchConfig) -> Result<Tiling, SimError> {
    planned_simulation(layer, arch).map(|(tiling, _)| tiling)
}

/// [`plan_for_arch`] together with [`accel_sim::simulate`] of the planned
/// tiling, from one memo lookup: a miss plans and simulates once inside
/// its flight, a hit simulates nothing. The planner only returns tilings
/// that pass every check the simulator makes, so the simulation cannot
/// fail and the memo holds only the planner's own errors.
pub(crate) fn planned_simulation(layer: &ConvLayer, arch: &ArchConfig) -> PlanResult {
    arch.validate().map_err(SimError::InvalidArch)?;
    let key = PlanKey {
        layer: *layer,
        arch: arch.cache_key(),
    };
    let plan_and_simulate = || {
        let tiling = plan_for_arch_uncached(layer, arch)?;
        Ok((tiling, accel_sim::simulate(layer, &tiling, arch)?))
    };
    PLANS.get_or_compute(key, plan_and_simulate, |_| true).0
}

/// The actual planning sweep behind [`plan_for_arch`].
fn plan_for_arch_uncached(layer: &ConvLayer, arch: &ArchConfig) -> Result<Tiling, SimError> {
    let mem = OnChipMemory::from_words(arch.effective_onchip_words() as f64);
    let tables = LayerTables::new(layer);

    // The WGBuf constraint (`z` kernel rows resident) and the IGBuf
    // constraint (`b·x'·y'` halo-included inputs resident) are monotone in
    // every tiling parameter, so they drive the engine's loop breaks. The
    // PE-array mapping check is monotone too (the blocks that map are
    // down-closed) but costs more, so it is the residual predicate, run
    // only for candidates that could still beat the best feasible tiling.
    let monotone_fits = |t: &Tiling| {
        let (xh, yh) = layer.input_footprint(t.x, t.y);
        t.z <= arch.wgbuf_entries && t.b * xh * yh <= arch.igbuf_entries
    };
    let grids = RowGrids::new(arch.pe_rows);
    let mappable = |t: &Tiling| block_fits(arch, layer, &grids, &full_block(t));
    let best = search_ours_with(
        &tables,
        Some(paper_tiling(&tables, mem)),
        Some(arch.wgbuf_entries),
        monotone_fits,
        mappable,
    );

    match best {
        Some(c) => Ok(c.tiling),
        None => {
            // Diagnose with the unit tiling: the most informative error is
            // whatever stops the smallest possible block.
            let unit = Tiling::clamped(layer, 1, 1, 1, 1);
            let (xh, yh) = layer.input_footprint(unit.x, unit.y);
            if xh * yh > arch.igbuf_entries {
                Err(SimError::InputTileTooLarge {
                    needed: xh * yh,
                    capacity: arch.igbuf_entries,
                })
            } else {
                match map_block(arch, layer, &full_block(&unit)) {
                    Err(e) => Err(SimError::Unmappable(e)),
                    Ok(_) => Err(SimError::WeightTileTooLarge {
                        z: 1,
                        capacity: arch.wgbuf_entries,
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_model::workloads;
    use dataflow::our_dataflow_traffic;

    fn layer() -> ConvLayer {
        workloads::vgg16(3).layer(4).unwrap().layer
    }

    #[test]
    fn planned_tiling_is_feasible() {
        for i in 1..=5 {
            let arch = ArchConfig::implementation(i);
            let t = plan_for_arch(&layer(), &arch).unwrap();
            assert!(tiling_feasible(&layer(), &t, &arch), "implementation {i}");
        }
    }

    #[test]
    fn planned_tiling_simulates_cleanly() {
        let arch = ArchConfig::example();
        let t = plan_for_arch(&layer(), &arch).unwrap();
        let stats = accel_sim::simulate(&layer(), &t, &arch).unwrap();
        assert_eq!(stats.useful_macs, layer().macs());
    }

    #[test]
    fn fixed_splitting_costs_little() {
        // Paper Fig. 14: implementations produce 3-4% more DRAM access than
        // the unconstrained dataflow. Allow up to 10%.
        let l = layer();
        let arch = ArchConfig::example();
        let mem = OnChipMemory::from_words(arch.effective_onchip_words() as f64);
        let free = dataflow::search_ours(&l, mem).traffic.total_words() as f64;
        let constrained =
            our_dataflow_traffic(&l, &plan_for_arch(&l, &arch).unwrap()).total_words() as f64;
        let overhead = constrained / free - 1.0;
        assert!(
            (0.0..0.10).contains(&overhead),
            "fixed-splitting overhead should be small, got {overhead:.3}"
        );
    }

    #[test]
    fn planner_is_deterministic_across_thread_counts() {
        // The canonical tie-break makes the result independent of how many
        // workers the sweep fans out to and how they interleave.
        let l = layer();
        let arch = ArchConfig::example();
        let set_threads = |n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .unwrap();
        };
        set_threads(1);
        let reference = plan_for_arch(&l, &arch).unwrap();
        for threads in [2, 4, 8] {
            set_threads(threads);
            assert_eq!(plan_for_arch(&l, &arch).unwrap(), reference);
        }
        set_threads(0); // restore auto for the other tests
    }

    #[test]
    fn plan_cache_hits_on_repeat_plans() {
        // Counters are process-wide and other tests plan concurrently, so
        // only delta properties are asserted, on a layer shape unique to
        // this test.
        let l = workloads::vgg16(5).layer(6).unwrap().layer;
        let arch = ArchConfig::implementation(2);
        let first = plan_for_arch(&l, &arch).unwrap();
        let hits_before = plan_cache_stats().hits;
        let second = plan_for_arch(&l, &arch).unwrap();
        assert_eq!(first, second);
        let stats = plan_cache_stats();
        assert!(stats.hits > hits_before, "warm plan must hit");
        assert!(stats.entries >= 1);
        assert!(stats.capacity >= 1);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn plan_cache_memoizes_errors_truthfully() {
        // A layer whose single window overflows the IGBuf fails the same
        // way warm as cold.
        let l = ConvLayer::square(1, 4, 4, 4, 33, 1).unwrap();
        let arch = ArchConfig::example();
        let cold = plan_for_arch(&l, &arch).unwrap_err();
        let warm = plan_for_arch(&l, &arch).unwrap_err();
        assert_eq!(cold, warm);
    }

    #[test]
    fn invalid_arch_is_not_planned() {
        let mut arch = ArchConfig::example();
        arch.group_cols = 7;
        let err = plan_for_arch(&layer(), &arch).unwrap_err();
        assert!(
            matches!(&err, accel_sim::SimError::InvalidArch(m) if m.contains("group cols 7")),
            "{err:?}"
        );
    }

    #[test]
    fn infeasible_tilings_rejected() {
        let arch = ArchConfig::example();
        let l = layer();
        // z beyond the WGBuf (256 entries).
        assert!(!tiling_feasible(
            &l,
            &Tiling {
                b: 1,
                z: 512,
                y: 4,
                x: 4
            },
            &arch
        ));
        // Input tile beyond the IGBuf: 3 × 58×58 halo ≫ 1024 entries.
        assert!(!tiling_feasible(
            &l,
            &Tiling::clamped(&l, 3, 4, 56, 56),
            &arch
        ));
    }
}
