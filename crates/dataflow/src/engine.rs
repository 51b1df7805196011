//! The shared tiling-search engine: precomputed axis tables, monotonicity
//! pruning, thread fan-out and memoization behind every exhaustive search
//! in the workspace.
//!
//! The paper's evaluation rests on "the tiling sizes of all dataflows are
//! obtained by exhaustive searches" (Section VI-A). The seed implementation
//! did that with a serial quadruple-nested loop that recomputed the per-axis
//! halo sums from scratch at every grid point — and the same loop was
//! copy-pasted into `core::planner`. This module centralizes the search and
//! makes it fast without changing a single chosen tiling:
//!
//! * **Axis tables** ([`AxisTable`]/[`LayerTables`]): `summed_input_extent`
//!   and `tile_count` are functions of *one* axis's tile size only, so they
//!   are precomputed once per layer for every tile size `1..=dim`. The inner
//!   traffic evaluation then is a handful of u64 multiplies. The tables are
//!   dense (not just the candidate grid) so random-sampling DSE reuses them,
//!   and the staged DSE's DRAM floors ([`crate::filter`]) read the same
//!   axis tables. Every search takes its layer's tables from the caller:
//!   one [`LayerTables`] per layer serves a sweep's eight dataflow searches
//!   ([`search_all`]), and the planner's structural search plus its
//!   [`paper_tiling`] seed.
//! * **Pruning**: `onchip_words` of every dataflow is monotone
//!   nondecreasing in each of its parameters (`b/z/k/y/x`), so each sorted
//!   candidate loop breaks at the first infeasible point. On top of that
//!   every sweep skips subtrees whose traffic *floor* is strictly above
//!   the best feasible traffic found so far (ties are still visited, so
//!   the canonical tie-break is unchanged). A floor is the traffic formula
//!   with every axis below the subtree's root at its table minimum: one
//!   tile (`n = 1`) and the smallest summed extent (`Σx''` at
//!   [`AxisTable::min_sum`]). It is admissible because every formula has
//!   nonnegative coefficients in its tile counts and summed extents. The
//!   `Ours` sweep floors each `(b, z)` and `(b, z, y)` subtree; the
//!   baseline sweeps floor each `(z, k)` and `(z, k, y)` subtree, visiting
//!   `z`, `k` and `y` from their largest feasible value down so the
//!   incumbent is near-optimal from the first subtree.
//! * **Parallelism**: the `(b, z)` outer product of the `Ours` sweep and
//!   the planner's structural search fan out across threads (`rayon`
//!   `par_map`); the shared best used for pruning is a relaxed `AtomicU64`,
//!   which only ever prunes strictly-worse subtrees, so the outcome is
//!   deterministic regardless of thread interleaving.
//! * **Memoization**: [`DataflowChoice`] results are cached keyed by
//!   `(DataflowKind, ConvLayer, memory-words bits)`. VGG/ResNet-style
//!   networks repeat layer shapes, and the figure benches re-analyze the
//!   same network at many memory sizes, so across a bench run most searches
//!   are cache hits. The cache is a process-wide [`Memo`]: an LRU bounded
//!   to [`DEFAULT_SEARCH_CACHE_CAPACITY`] entries, so long-running servers
//!   embedding the engine cannot grow it without bound, on which concurrent
//!   identical misses wait for one computation. A lookup that hits builds
//!   no tables. [`cache_stats`]/[`clear_search_cache`] expose and reset the
//!   cache.
//!
//! # Determinism and tie-breaking
//!
//! All searches (including the retained [`naive`] reference) pick the
//! best candidate by the *canonical key* `(total traffic words, b, z, k, y,
//! x)`, a total order: equal-traffic tilings resolve to the smallest
//! parameter tuple. This makes the result independent of enumeration order,
//! which is what lets the engine prune, parallelize and still return
//! bit-identical [`DataflowChoice`]s to the naive quadruple loop — a
//! property the `engine_parity` integration tests pin across all eight
//! dataflow kinds. Between dataflows, [`search_all`] alone breaks ties.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;

use comm_bound::OnChipMemory;
use conv_model::ConvLayer;

use crate::baselines::{
    inr_a_onchip, inr_b_onchip, inr_c_onchip, outr_a_onchip, outr_b_onchip, wtr_a_onchip,
    wtr_b_onchip, BaselineParams,
};
use crate::search::{candidates, dense_candidates, DataflowChoice};
use crate::tiling::{paper_tiling, summed_input_extent, tile_count, Tiling};
use crate::traffic::DramTraffic;
use crate::{CacheStats, DataflowKind, Memo};

// ---------------------------------------------------------------------------
// Canonical best tracking (the one helper that replaces the copy-pasted
// `better` closures of search.rs / dse.rs / planner.rs).
// ---------------------------------------------------------------------------

/// One evaluated search point: a tiling (plus input-channel tile `k` for the
/// baselines that sweep one) and its exact DRAM traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The evaluated tiling (baseline parameters are packed into `z/y/x`
    /// with `b = 1`, as in [`DataflowChoice`]).
    pub tiling: Tiling,
    /// Input-channel tile (1 when the dataflow does not sweep it).
    pub k: usize,
    /// Exact DRAM traffic of this point.
    pub traffic: DramTraffic,
}

impl Candidate {
    /// The canonical comparison key: traffic first, then the smallest
    /// parameter tuple. A total order over distinct search points.
    #[must_use]
    pub fn key(&self) -> (u64, usize, usize, usize, usize, usize) {
        (
            self.traffic.total_words(),
            self.tiling.b,
            self.tiling.z,
            self.k,
            self.tiling.y,
            self.tiling.x,
        )
    }
}

/// Tracks the canonically-best [`Candidate`] seen so far.
///
/// Replaces the per-module `match best { Some((bt, _)) if bt <= t => {} … }`
/// closures: every search site offers candidates and the tracker keeps the
/// one with the smallest [`Candidate::key`]. Because the key is a total
/// order, merging trackers from parallel workers is associative and the
/// final winner does not depend on enumeration or thread order.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestTracker {
    best: Option<Candidate>,
}

impl BestTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        BestTracker::default()
    }

    /// Offers one candidate; keeps it when it beats the current best.
    pub fn offer(&mut self, candidate: Candidate) {
        match &self.best {
            Some(b) if b.key() <= candidate.key() => {}
            _ => self.best = Some(candidate),
        }
    }

    /// Merges another tracker's best into this one.
    pub fn merge(&mut self, other: BestTracker) {
        if let Some(c) = other.best {
            self.offer(c);
        }
    }

    /// The best candidate, if any was feasible.
    #[must_use]
    pub fn into_best(self) -> Option<Candidate> {
        self.best
    }
}

// ---------------------------------------------------------------------------
// Precomputed per-axis lookup tables.
// ---------------------------------------------------------------------------

/// Per-axis lookup tables for one spatial axis of one layer: for every tile
/// size `t` in `1..=out_dim`, the summed clipped input extent `Σx''(t)` (the
/// `sum_x`/`sum_y` factor of Eq. 14), its running minimum over the tile
/// sizes up to `t`, the tile count `⌈dim/t⌉` and the halo footprint
/// `stride·(t−1) + kernel`.
///
/// Built in `O(dim · H(dim)) ≈ O(dim log dim)` and turning every inner-loop
/// traffic evaluation, and every DRAM floor query, into table lookups plus
/// multiplies.
#[derive(Debug, Clone)]
pub struct AxisTable {
    /// `Σ` of per-tile clipped input extents, indexed by `tile − 1`.
    sums: Vec<u64>,
    /// `min(sums[..tile])`, indexed by `tile − 1`.
    prefix_min_sums: Vec<u64>,
    /// `⌈out_dim / tile⌉`, indexed by `tile − 1`.
    counts: Vec<u64>,
    /// Input footprint `stride·(tile−1) + kernel`, indexed by `tile − 1`;
    /// strictly increasing, since `stride ≥ 1`.
    footprints: Vec<usize>,
}

impl AxisTable {
    /// Builds the table for one axis.
    #[must_use]
    pub fn build(out_dim: usize, stride: usize, kernel: usize, pad: usize, in_dim: usize) -> Self {
        let mut sums = Vec::with_capacity(out_dim);
        let mut prefix_min_sums = Vec::with_capacity(out_dim);
        let mut counts = Vec::with_capacity(out_dim);
        let mut footprints = Vec::with_capacity(out_dim);
        let mut running_min = u64::MAX;
        for tile in 1..=out_dim {
            let sum = summed_input_extent(out_dim, tile, stride, kernel, pad, in_dim);
            running_min = running_min.min(sum);
            sums.push(sum);
            prefix_min_sums.push(running_min);
            counts.push(tile_count(out_dim, tile));
            footprints.push(stride * (tile - 1) + kernel);
        }
        AxisTable {
            sums,
            prefix_min_sums,
            counts,
            footprints,
        }
    }

    /// The output-width (x) axis of `layer`.
    pub(crate) fn width(layer: &ConvLayer) -> Self {
        AxisTable::build(
            layer.output_width(),
            layer.stride(),
            layer.kernel_width(),
            layer.padding().horizontal,
            layer.in_width(),
        )
    }

    /// The output-height (y) axis of `layer`.
    pub(crate) fn height(layer: &ConvLayer) -> Self {
        AxisTable::build(
            layer.output_height(),
            layer.stride(),
            layer.kernel_height(),
            layer.padding().vertical,
            layer.in_height(),
        )
    }

    /// `Σ` of clipped input extents for tiles of size `tile`.
    #[must_use]
    pub fn sum(&self, tile: usize) -> u64 {
        self.sums[tile - 1]
    }

    /// `⌈out_dim / tile⌉`.
    #[must_use]
    pub fn count(&self, tile: usize) -> u64 {
        self.counts[tile - 1]
    }

    /// Input footprint (halo included) of a tile of size `tile`.
    #[must_use]
    pub fn footprint(&self, tile: usize) -> usize {
        self.footprints[tile - 1]
    }

    /// The smallest summed extent any tile size achieves on this axis.
    #[must_use]
    pub fn min_sum(&self) -> u64 {
        self.prefix_min_sums.last().copied().unwrap_or(0)
    }

    /// The axis's output extent: the largest tile size.
    pub(crate) fn out_dim(&self) -> usize {
        self.sums.len()
    }

    /// The largest tile size whose footprint is within `budget`, if any.
    pub(crate) fn max_tile_within(&self, budget: u64) -> Option<usize> {
        let n = self.footprints.partition_point(|&f| f as u64 <= budget);
        (n > 0).then_some(n)
    }

    /// The smallest summed extent over tile sizes whose footprint is
    /// within `budget`, if any tile size qualifies.
    pub(crate) fn min_sum_within(&self, budget: u64) -> Option<u64> {
        self.max_tile_within(budget)
            .map(|n| self.prefix_min_sums[n - 1])
    }
}

/// Both spatial axis tables of one layer plus the layer constants the
/// traffic formulas use, so evaluating one tiling is pure arithmetic —
/// and the [`candidates`] grids of every swept dimension. Build it once
/// per layer and hand it to every search of that layer.
#[derive(Debug, Clone)]
pub struct LayerTables {
    /// Output-width (x) axis table.
    pub x: AxisTable,
    /// Output-height (y) axis table.
    pub y: AxisTable,
    layer: ConvLayer,
    taps_ci: u64,
    ci: u64,
    output_words: u64,
    z_cands: Vec<usize>,
    k_cands: Vec<usize>,
    y_cands: Vec<usize>,
    x_cands: Vec<usize>,
    z_dense: Vec<usize>,
    y_dense: Vec<usize>,
    x_dense: Vec<usize>,
}

impl LayerTables {
    /// Builds the tables for `layer`.
    #[must_use]
    pub fn new(layer: &ConvLayer) -> Self {
        LayerTables {
            x: AxisTable::width(layer),
            y: AxisTable::height(layer),
            layer: *layer,
            taps_ci: layer.kernel_width() as u64
                * layer.kernel_height() as u64
                * layer.in_channels() as u64,
            ci: layer.in_channels() as u64,
            output_words: layer.output_words(),
            z_cands: candidates(layer.out_channels()),
            k_cands: candidates(layer.in_channels()),
            y_cands: candidates(layer.output_height()),
            x_cands: candidates(layer.output_width()),
            z_dense: dense_candidates(layer.out_channels()),
            y_dense: dense_candidates(layer.output_height()),
            x_dense: dense_candidates(layer.output_width()),
        }
    }

    /// The layer these tables describe.
    #[must_use]
    pub fn layer(&self) -> &ConvLayer {
        &self.layer
    }

    /// The hoisted [`candidates`] grid for the output-channel (`z`) sweep.
    #[must_use]
    pub fn z_candidates(&self) -> &[usize] {
        &self.z_cands
    }

    /// The hoisted [`candidates`] grid for the input-channel (`k`) sweep.
    #[must_use]
    pub fn k_candidates(&self) -> &[usize] {
        &self.k_cands
    }

    /// The hoisted [`candidates`] grid for the output-height (`y`) sweep.
    #[must_use]
    pub fn y_candidates(&self) -> &[usize] {
        &self.y_cands
    }

    /// The hoisted [`candidates`] grid for the output-width (`x`) sweep.
    #[must_use]
    pub fn x_candidates(&self) -> &[usize] {
        &self.x_cands
    }

    /// The hoisted dense candidate grid (`dense_candidates`) for the `Ours`
    /// output-channel sweep.
    #[must_use]
    pub fn z_candidates_dense(&self) -> &[usize] {
        &self.z_dense
    }

    /// The hoisted dense candidate grid (`dense_candidates`) for the `Ours`
    /// output-height sweep.
    #[must_use]
    pub fn y_candidates_dense(&self) -> &[usize] {
        &self.y_dense
    }

    /// The hoisted dense candidate grid (`dense_candidates`) for the `Ours`
    /// output-width sweep.
    #[must_use]
    pub fn x_candidates_dense(&self) -> &[usize] {
        &self.x_dense
    }

    /// Exact DRAM traffic of the paper's dataflow for `tiling` — the same
    /// integers [`our_dataflow_traffic`](crate::our_dataflow_traffic)
    /// computes, via table lookups instead of per-call halo loops.
    #[must_use]
    pub fn ours_traffic(&self, tiling: &Tiling) -> DramTraffic {
        let nb = tile_count(self.layer.batch(), tiling.b);
        let nz = tile_count(self.layer.out_channels(), tiling.z);
        let ny = self.y.count(tiling.y);
        let nx = self.x.count(tiling.x);
        // Σ of clamped batch-tile sizes is exactly the batch.
        let sum_b = self.layer.batch() as u64;
        DramTraffic {
            input_reads: sum_b * self.x.sum(tiling.x) * self.y.sum(tiling.y) * self.ci * nz,
            weight_reads: self.taps_ci * self.layer.out_channels() as u64 * nb * ny * nx,
            output_reads: 0,
            output_writes: self.output_words,
        }
    }

    /// On-chip words of the paper's dataflow at `k = 1` for `tiling` — the
    /// same integers as [`Tiling::onchip_words`], via footprint lookups.
    #[must_use]
    pub fn ours_onchip(&self, tiling: &Tiling) -> u64 {
        tiling.psum_words()
            + tiling.b as u64
                * self.x.footprint(tiling.x) as u64
                * self.y.footprint(tiling.y) as u64
            + tiling.z as u64 * self.layer.kernel_height() as u64 * self.layer.kernel_width() as u64
    }
}

// ---------------------------------------------------------------------------
// The pruned, parallel `Ours` sweep.
// ---------------------------------------------------------------------------

/// The shared orchestration of every `Ours`-dataflow sweep: `(b, z)` thread
/// fan-out, monotone loop breaks, atomic global-best lower-bound pruning and
/// canonical tie-breaking, parameterized over *what "feasible" means*.
///
/// Call sites supply two predicates, both monotone nonincreasing in each
/// of `b/z/y/x` (growing any parameter can only turn `true` into `false`,
/// so the set of tilings they accept is down-closed):
///
/// * `monotone_fits` is the cheap one. It drives the sorted-candidate loop
///   breaks at every level. The abstract search uses the on-chip working
///   set against total memory `S`; the planner uses the WGBuf/IGBuf
///   structural capacities.
/// * `feasible` is the residual, possibly expensive check, run only for
///   candidates that could still beat the best feasible traffic found so
///   far; the first candidate of an x-run it rejects ends the run. The
///   planner passes the PE-array mapping test (`block_fits`); the abstract
///   search has no residual constraint. A predicate that is not monotone
///   may lose feasible tilings further along an x-run.
///
/// `tables` are the searched layer's, built once by the caller. `z_cap`
/// (when given) truncates the `z` candidate list before fan-out — a hard
/// structural bound like the WGBuf entry count. `seed` (when it passes both
/// predicates) pre-loads the global best so pruning bites from the very
/// first subtree; [`paper_tiling`] over the same `tables` is the usual
/// choice.
///
/// Returns the canonically-best feasible [`Candidate`], or `None` when
/// nothing (seed included) is feasible. Results are deterministic regardless
/// of thread count: equal-traffic tilings resolve by [`Candidate::key`], and
/// the shared best only ever prunes strictly-worse subtrees.
pub fn search_ours_with<M, F>(
    tables: &LayerTables,
    seed: Option<Tiling>,
    z_cap: Option<usize>,
    monotone_fits: M,
    feasible: F,
) -> Option<Candidate>
where
    M: Fn(&Tiling) -> bool + Sync,
    F: Fn(&Tiling) -> bool + Sync,
{
    // The `Ours` sweep uses the midpoint-densified grids; baselines keep
    // the coarser [`candidates`] grid (see [`dense_candidates`]).
    let layer = tables.layer();
    let zs = tables.z_candidates_dense();
    let ys = tables.y_candidates_dense();
    let xs = tables.x_candidates_dense();

    // Outer fan-out: the (b, z) product gives enough chunks to balance
    // across threads while keeping each chunk's y/x sweep cache-friendly.
    let mut items: Vec<(usize, usize)> = Vec::with_capacity(layer.batch() * zs.len());
    for b in 1..=layer.batch() {
        for &z in zs {
            if z_cap.is_some_and(|cap| z > cap) {
                break; // candidates are sorted; larger z never fits
            }
            items.push((b, z));
        }
    }

    // Best feasible traffic seen by any worker, for lower-bound pruning.
    // Relaxed ordering is enough: the value only ever decreases, and a stale
    // read merely prunes less. Seeding it with the constructive paper
    // tiling makes the bound bite from the very first subtree.
    let global_best = AtomicU64::new(u64::MAX);
    let seed_candidate = seed.filter(|s| monotone_fits(s) && feasible(s)).map(|s| {
        let c = Candidate {
            tiling: s,
            k: 1,
            traffic: tables.ours_traffic(&s),
        };
        global_best.store(c.traffic.total_words(), Ordering::Relaxed);
        c
    });

    let trackers = rayon::par_map(&items, |&(b, z)| {
        let mut tracker = BestTracker::new();
        let unit = Tiling { b, z, y: 1, x: 1 };
        // The monotone constraint only tightens in y and x; if the smallest
        // y/x candidate (always 1) does not fit, nothing in this subtree
        // does.
        if !monotone_fits(&unit) {
            return tracker;
        }
        let nb = tile_count(layer.batch(), b);
        let nz = tile_count(layer.out_channels(), z);
        let weight_base = tables.taps_ci * layer.out_channels() as u64 * nb;
        let input_base = layer.batch() as u64 * tables.ci * nz;
        // Floor over every (y, x): n_y, n_x ≥ 1 and Σy'', Σx'' ≥ their
        // axis minima.
        let floor = weight_base
            + input_base * tables.y.min_sum() * tables.x.min_sum()
            + tables.output_words;
        if floor > global_best.load(Ordering::Relaxed) {
            return tracker; // strictly worse than an achieved feasible point
        }
        for &y in ys {
            if !monotone_fits(&Tiling { b, z, y, x: 1 }) {
                break; // larger y only grows the working set
            }
            // Floor over every x: n_x ≥ 1 and Σx'' ≥ its axis minimum.
            let floor = weight_base * tables.y.count(y)
                + input_base * tables.y.sum(y) * tables.x.min_sum()
                + tables.output_words;
            if floor > global_best.load(Ordering::Relaxed) {
                continue; // strictly worse than an achieved feasible point
            }
            for &x in xs {
                let tiling = Tiling { b, z, y, x };
                if !monotone_fits(&tiling) {
                    break;
                }
                let traffic = tables.ours_traffic(&tiling);
                // Strictly worse than an achieved feasible tiling: the
                // residual check cannot change the outcome, skip it.
                if traffic.total_words() > global_best.load(Ordering::Relaxed) {
                    continue;
                }
                if !feasible(&tiling) {
                    break; // `feasible` is monotone: larger x fails too
                }
                tracker.offer(Candidate {
                    tiling,
                    k: 1,
                    traffic,
                });
                global_best.fetch_min(traffic.total_words(), Ordering::Relaxed);
            }
        }
        tracker
    });

    let mut best = BestTracker::new();
    for t in trackers {
        best.merge(t);
    }
    if let Some(c) = seed_candidate {
        best.offer(c);
    }
    best.into_best()
}

/// Exhaustive search over the paper dataflow's `{b, z, y, x}` grid under
/// the total-memory constraint, seeded with [`paper_tiling`] — identical
/// results to [`naive::search_ours`], orders of magnitude faster.
///
/// # Panics
///
/// When `mem` cannot hold the unit tiling `{1, 1, 1, 1}` (see
/// [`search_ours`]).
fn sweep_ours(tables: &LayerTables, mem: OnChipMemory) -> DataflowChoice {
    let mem_words = mem.words();
    let c = search_ours_with(
        tables,
        Some(paper_tiling(tables, mem)),
        None,
        |t| tables.ours_onchip(t) as f64 <= mem_words,
        |_| true,
    )
    .expect("the memory holds the unit tiling, a precondition of every Ours search");
    DataflowChoice {
        kind: DataflowKind::Ours,
        tiling: c.tiling,
        k: c.k,
        traffic: c.traffic,
    }
}

// ---------------------------------------------------------------------------
// Table-driven baseline sweeps.
// ---------------------------------------------------------------------------

/// Which parameters a baseline dataflow sweeps.
pub(crate) fn baseline_sweeps(kind: DataflowKind) -> (bool, bool, bool) {
    match kind {
        DataflowKind::OutRA | DataflowKind::OutRB | DataflowKind::InRC => (false, false, true),
        DataflowKind::WtRA => (true, true, false),
        DataflowKind::WtRB => (true, false, false),
        DataflowKind::InRA => (false, true, true),
        DataflowKind::InRB => (false, true, false),
        DataflowKind::Ours => unreachable!("Ours is not a baseline"),
    }
}

fn baseline_tiling(layer: &ConvLayer, p: &BaselineParams) -> Tiling {
    Tiling {
        b: 1,
        z: p.z.clamp(1, layer.out_channels()),
        y: p.y.clamp(1, layer.output_height()),
        x: p.x.clamp(1, layer.output_width()),
    }
}

/// The two quantities a baseline traffic formula reads from one spatial
/// axis: its tile count `n` and its summed clipped input extent `Σx''`.
#[derive(Debug, Clone, Copy)]
struct AxisTerms {
    count: u64,
    sum: u64,
}

impl AxisTable {
    /// The exact terms of tiles of size `tile`.
    fn terms(&self, tile: usize) -> AxisTerms {
        AxisTerms {
            count: self.count(tile),
            sum: self.sum(tile),
        }
    }

    /// Terms no tile size goes below: one tile, the smallest summed
    /// extent. They make the traffic formulas floors over the whole axis.
    fn floor_terms(&self) -> AxisTerms {
        AxisTerms {
            count: 1,
            sum: self.min_sum(),
        }
    }
}

/// Baseline traffic at tiles `z`/`k` and spatial terms `ty`/`tx`. With the
/// axes' exact [`AxisTable::terms`] it is field-for-field identical to the
/// `baselines::*_traffic` formulas; with [`AxisTable::floor_terms`] on
/// an axis it is a floor over every tile size of that axis, because each
/// formula has nonnegative coefficients in `n_y`, `n_x`, `Σy''` and `Σx''`.
fn baseline_traffic(
    kind: DataflowKind,
    layer: &ConvLayer,
    z: usize,
    k: usize,
    ty: AxisTerms,
    tx: AxisTerms,
) -> DramTraffic {
    let b = layer.batch() as u64;
    let co = layer.out_channels() as u64;
    let ci = layer.in_channels() as u64;
    let taps = (layer.kernel_height() * layer.kernel_width()) as u64;
    let (ny, nx) = (ty.count, tx.count);
    let (sum_y, sum_x) = (ty.sum, tx.sum);
    let out = layer.output_words();
    match kind {
        DataflowKind::OutRA => DramTraffic {
            input_reads: b * co * sum_y * sum_x * ci,
            weight_reads: b * ny * nx * co * taps * ci,
            output_reads: 0,
            output_writes: out,
        },
        DataflowKind::OutRB | DataflowKind::InRC => DramTraffic {
            input_reads: b * sum_y * sum_x * ci,
            weight_reads: b * ny * nx * co * taps * ci,
            output_reads: 0,
            output_writes: out,
        },
        DataflowKind::WtRA => {
            let nz = tile_count(layer.out_channels(), z);
            let nk = tile_count(layer.in_channels(), k);
            DramTraffic {
                input_reads: nz * layer.input_words(),
                weight_reads: layer.weight_words(),
                output_reads: (nk - 1) * out,
                output_writes: nk * out,
            }
        }
        DataflowKind::WtRB => {
            let nz = tile_count(layer.out_channels(), z);
            DramTraffic {
                input_reads: nz * layer.input_words(),
                weight_reads: layer.weight_words(),
                output_reads: 0,
                output_writes: out,
            }
        }
        DataflowKind::InRA => {
            let nk = tile_count(layer.in_channels(), k);
            DramTraffic {
                input_reads: b * sum_y * sum_x * ci,
                weight_reads: b * ny * nx * co * taps * ci,
                output_reads: (nk - 1) * out,
                output_writes: nk * out,
            }
        }
        DataflowKind::InRB => {
            let nk = tile_count(layer.in_channels(), k);
            DramTraffic {
                input_reads: layer.input_words(),
                weight_reads: b * layer.weight_words(),
                output_reads: (nk - 1) * out,
                output_writes: nk * out,
            }
        }
        DataflowKind::Ours => unreachable!("Ours is not a baseline"),
    }
}

fn baseline_onchip(kind: DataflowKind, layer: &ConvLayer, p: &BaselineParams) -> u64 {
    match kind {
        DataflowKind::OutRA => outr_a_onchip(layer, p),
        DataflowKind::OutRB => outr_b_onchip(layer, p),
        DataflowKind::WtRA => wtr_a_onchip(layer, p),
        DataflowKind::WtRB => wtr_b_onchip(layer, p),
        DataflowKind::InRA => inr_a_onchip(layer, p),
        DataflowKind::InRB => inr_b_onchip(layer, p),
        DataflowKind::InRC => inr_c_onchip(layer, p),
        DataflowKind::Ours => unreachable!("Ours is not a baseline"),
    }
}

/// Sweeps one baseline dataflow's parameters with table-driven evaluation,
/// monotone feasibility breaks and traffic-floor pruning — identical
/// results to [`naive::search_baseline`].
fn sweep_baseline(
    kind: DataflowKind,
    tables: &LayerTables,
    mem: OnChipMemory,
) -> Option<DataflowChoice> {
    let layer = tables.layer();
    let mem_words = mem.words();
    let (sweep_z, sweep_k, sweep_xy) = baseline_sweeps(kind);
    let ones = [1usize];
    let zs = if sweep_z {
        tables.z_candidates()
    } else {
        &ones[..]
    };
    let ks = if sweep_k {
        tables.k_candidates()
    } else {
        &ones[..]
    };
    let ys = if sweep_xy {
        tables.y_candidates()
    } else {
        &ones[..]
    };
    let xs = if sweep_xy {
        tables.x_candidates()
    } else {
        &ones[..]
    };

    // Every baseline's onchip model is monotone nondecreasing in each swept
    // parameter (z/k linear terms, y/x through the halo footprint), so the
    // feasible values of each sorted list form a prefix; the checks fix the
    // inner parameters at their minimum candidate, which is always 1.
    let fits = |z: usize, k: usize, y: usize, x: usize| {
        baseline_onchip(kind, layer, &BaselineParams { z, k, y, x }) as f64 <= mem_words
    };
    let traffic = |z: usize, k: usize, ty: AxisTerms, tx: AxisTerms| {
        baseline_traffic(kind, layer, z, k, ty, tx)
    };
    let (floor_y, floor_x) = (tables.y.floor_terms(), tables.x.floor_terms());
    let mut tracker = BestTracker::new();
    let mut best = u64::MAX;
    // Largest feasible z, k and y first; a subtree whose floor is strictly
    // above the best traffic so far cannot hold the canonical winner.
    let z_fit = zs.partition_point(|&z| fits(z, 1, 1, 1));
    for &z in zs[..z_fit].iter().rev() {
        let k_fit = ks.partition_point(|&k| fits(z, k, 1, 1));
        for &k in ks[..k_fit].iter().rev() {
            if traffic(z, k, floor_y, floor_x).total_words() > best {
                continue;
            }
            let y_fit = ys.partition_point(|&y| fits(z, k, y, 1));
            for &y in ys[..y_fit].iter().rev() {
                let ty = tables.y.terms(y);
                if traffic(z, k, ty, floor_x).total_words() > best {
                    continue;
                }
                for &x in xs {
                    if !fits(z, k, y, x) {
                        break;
                    }
                    let p = BaselineParams { z, k, y, x };
                    let candidate = Candidate {
                        tiling: baseline_tiling(layer, &p),
                        k,
                        traffic: traffic(z, k, ty, tables.x.terms(x)),
                    };
                    best = best.min(candidate.traffic.total_words());
                    tracker.offer(candidate);
                }
            }
        }
    }
    tracker.into_best().map(|c| DataflowChoice {
        kind,
        tiling: c.tiling,
        k: c.k,
        traffic: c.traffic,
    })
}

/// One dataflow's sweep over `tables`.
fn sweep(kind: DataflowKind, tables: &LayerTables, mem: OnChipMemory) -> Option<DataflowChoice> {
    match kind {
        DataflowKind::Ours => Some(sweep_ours(tables, mem)),
        other => sweep_baseline(other, tables, mem),
    }
}

// ---------------------------------------------------------------------------
// Memoization.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    kind: DataflowKind,
    /// The normalized layer shape: [`ConvLayer`] is exactly its geometry
    /// (dims, stride, padding), so identical shapes hash identically no
    /// matter which named network layer they came from.
    layer: ConvLayer,
    /// Effective memory in words, keyed by bit pattern so distinct
    /// fractional-KiB configurations (e.g. 66.5 KiB) stay distinct.
    mem_bits: u64,
}

/// The bound on the memo cache. Generous — a full figure-bench run
/// creates a few thousand entries and each entry is ~100 bytes — but finite,
/// so a long-running server embedding the engine cannot grow without bound.
pub const DEFAULT_SEARCH_CACHE_CAPACITY: usize = 65_536;

static SEARCHES: LazyLock<Memo<CacheKey, Option<DataflowChoice>>> =
    LazyLock::new(|| Memo::new(DEFAULT_SEARCH_CACHE_CAPACITY));

/// Current search-cache statistics (process-wide).
#[must_use]
pub fn cache_stats() -> CacheStats {
    SEARCHES.stats()
}

/// Empties the search cache and resets the hit/miss/coalesced/eviction
/// counters (used by benchmarks that need cold-cache timings).
pub fn clear_search_cache() {
    SEARCHES.clear();
}

/// One memoized search of `kind` on `layer`. A miss sweeps the layer's
/// tables, built by the first miss that needs them: lookups that share
/// `tables` share one build, and a hit builds nothing. The sweep runs
/// outside the memo's lock, and concurrent identical misses wait for one
/// computation.
fn lookup(
    kind: DataflowKind,
    layer: &ConvLayer,
    mem: OnChipMemory,
    tables: &OnceCell<LayerTables>,
) -> Option<DataflowChoice> {
    let key = CacheKey {
        kind,
        layer: *layer,
        mem_bits: mem.words().to_bits(),
    };
    let search = || sweep(kind, tables.get_or_init(|| LayerTables::new(layer)), mem);
    SEARCHES.get_or_compute(key, search, |_| true).0
}

/// Memoized, coalescing search of one dataflow: one sweep per `(kind,
/// layer shape, memory)` per process. Concurrent callers never serialize
/// on a search, and a thundering herd of the same query runs the sweep
/// once, not N times. This is the entry point long-running services should
/// call.
///
/// Returns `None` when no parameter choice fits (e.g. `InR-C` needs a full
/// `Ci·Wk·Hk` column resident, which can exceed small memories).
///
/// # Panics
///
/// For [`DataflowKind::Ours`], as [`search_ours`].
#[must_use]
pub fn search_dataflow(
    kind: DataflowKind,
    layer: &ConvLayer,
    mem: OnChipMemory,
) -> Option<DataflowChoice> {
    lookup(kind, layer, mem, &OnceCell::new())
}

/// Exhaustively searches the paper's dataflow tiling `{b, z, y, x}` under
/// the `k = 1` on-chip constraint, seeded with the closed-form
/// [`paper_tiling`] so the result is never worse than the constructive
/// choice. Memoized like [`search_dataflow`].
///
/// # Panics
///
/// When `mem` cannot hold the unit tiling `{1, 1, 1, 1}`, whose working set
/// is `1 + 2·Kh·Kw` words ([`Tiling::fits`]): then no tiling fits. Callers
/// with memory from outside the program check that first.
#[must_use]
pub fn search_ours(layer: &ConvLayer, mem: OnChipMemory) -> DataflowChoice {
    search_dataflow(DataflowKind::Ours, layer, mem).expect("the Ours sweep always returns a tiling")
}

/// Every dataflow's memoized search on one layer, and the paper's "found
/// minimum" among them (Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataflowSearches {
    /// Each kind's [`search_dataflow`] result, in [`DataflowKind::ALL`]
    /// order.
    pub choices: [Option<DataflowChoice>; 8],
    /// The least-traffic choice: the best dataflow with its best tiling.
    /// Ties resolve to the first kind in [`DataflowKind::ALL`], as in the
    /// naive reference.
    pub minimum: DataflowChoice,
}

/// Searches all eight dataflows on `layer`, one memo lookup each. The
/// misses share one [`LayerTables`], built on the first of them, so a cold
/// layer builds its tables once and a warm one not at all.
///
/// # Panics
///
/// As [`search_ours`].
#[must_use]
pub fn search_all(layer: &ConvLayer, mem: OnChipMemory) -> DataflowSearches {
    let tables = OnceCell::new();
    let choices = DataflowKind::ALL.map(|kind| lookup(kind, layer, mem, &tables));
    let minimum = choices
        .iter()
        .flatten()
        .min_by_key(|c| c.traffic.total_words())
        .copied()
        .expect("the Ours sweep always returns a tiling");
    DataflowSearches { choices, minimum }
}

/// The paper's "found minimum" oracle: best dataflow × best tiling over
/// all eight kinds ([`search_all`]'s `minimum`).
///
/// # Panics
///
/// As [`search_ours`].
#[must_use]
pub fn found_minimum(layer: &ConvLayer, mem: OnChipMemory) -> DataflowChoice {
    search_all(layer, mem).minimum
}

// ---------------------------------------------------------------------------
// The retained naive reference.
// ---------------------------------------------------------------------------

/// The unpruned, serial, table-free reference searches.
///
/// These reproduce the seed implementation's quadruple-nested loops
/// verbatim (full candidate grid, per-point `summed_input_extent`
/// recomputation, no caching) — only the best-candidate selection goes
/// through the same canonical [`BestTracker`] as the engine, so the two
/// implementations are comparable point-for-point. The `engine_parity`
/// tests and the `search_hotpath` bench keep the engine honest against
/// this reference.
pub mod naive {
    use super::{
        baseline_onchip, baseline_sweeps, baseline_tiling, candidates, dense_candidates,
        BestTracker, Candidate, ConvLayer, DataflowChoice, DataflowKind, LayerTables, OnChipMemory,
        Tiling,
    };
    use crate::baselines::{
        inr_a_traffic, inr_b_traffic, inr_c_traffic, outr_a_traffic, outr_b_traffic, wtr_a_traffic,
        wtr_b_traffic, BaselineParams,
    };
    use crate::tiling::{our_dataflow_traffic, paper_tiling};

    /// Reference exhaustive search of the paper dataflow's `{b, z, y, x}`.
    #[must_use]
    pub fn search_ours(layer: &ConvLayer, mem: OnChipMemory) -> DataflowChoice {
        let mut tracker = BestTracker::new();
        let seed = paper_tiling(&LayerTables::new(layer), mem);
        if seed.fits(layer, mem) {
            tracker.offer(Candidate {
                tiling: seed,
                k: 1,
                traffic: our_dataflow_traffic(layer, &seed),
            });
        }
        // Same densified `Ours` grid as the engine (see `dense_candidates`),
        // so parity tests compare identical search spaces.
        let zs = dense_candidates(layer.out_channels());
        let ys = dense_candidates(layer.output_height());
        let xs = dense_candidates(layer.output_width());
        for b in 1..=layer.batch() {
            for &z in &zs {
                for &y in &ys {
                    for &x in &xs {
                        let tiling = Tiling { b, z, y, x };
                        if !tiling.fits(layer, mem) {
                            continue;
                        }
                        tracker.offer(Candidate {
                            tiling,
                            k: 1,
                            traffic: our_dataflow_traffic(layer, &tiling),
                        });
                    }
                }
            }
        }
        let c = tracker
            .into_best()
            .expect("the {1,1,1,1} tiling always fits any positive memory");
        DataflowChoice {
            kind: DataflowKind::Ours,
            tiling: c.tiling,
            k: c.k,
            traffic: c.traffic,
        }
    }

    /// Reference exhaustive sweep of one baseline dataflow.
    #[must_use]
    pub fn search_baseline(
        kind: DataflowKind,
        layer: &ConvLayer,
        mem: OnChipMemory,
    ) -> Option<DataflowChoice> {
        if kind == DataflowKind::Ours {
            return Some(search_ours(layer, mem));
        }
        let traffic_fn = match kind {
            DataflowKind::OutRA => outr_a_traffic,
            DataflowKind::OutRB => outr_b_traffic,
            DataflowKind::WtRA => wtr_a_traffic,
            DataflowKind::WtRB => wtr_b_traffic,
            DataflowKind::InRA => inr_a_traffic,
            DataflowKind::InRB => inr_b_traffic,
            DataflowKind::InRC => inr_c_traffic,
            DataflowKind::Ours => unreachable!(),
        };
        let (sweep_z, sweep_k, sweep_xy) = baseline_sweeps(kind);
        let ones = vec![1usize];
        let zs = if sweep_z {
            candidates(layer.out_channels())
        } else {
            ones.clone()
        };
        let ks = if sweep_k {
            candidates(layer.in_channels())
        } else {
            ones.clone()
        };
        let ys = if sweep_xy {
            candidates(layer.output_height())
        } else {
            ones.clone()
        };
        let xs = if sweep_xy {
            candidates(layer.output_width())
        } else {
            ones
        };
        let mut tracker = BestTracker::new();
        for &z in &zs {
            for &k in &ks {
                for &y in &ys {
                    for &x in &xs {
                        let p = BaselineParams { z, k, y, x };
                        if baseline_onchip(kind, layer, &p) as f64 > mem.words() {
                            continue;
                        }
                        tracker.offer(Candidate {
                            tiling: baseline_tiling(layer, &p),
                            k: p.k,
                            traffic: traffic_fn(layer, &p),
                        });
                    }
                }
            }
        }
        tracker.into_best().map(|c| DataflowChoice {
            kind,
            tiling: c.tiling,
            k: c.k,
            traffic: c.traffic,
        })
    }

    /// Reference dispatch between [`search_ours`] and [`search_baseline`].
    #[must_use]
    pub fn search_dataflow(
        kind: DataflowKind,
        layer: &ConvLayer,
        mem: OnChipMemory,
    ) -> Option<DataflowChoice> {
        match kind {
            DataflowKind::Ours => Some(search_ours(layer, mem)),
            other => search_baseline(other, layer, mem),
        }
    }

    /// Reference "found minimum" over all eight dataflows.
    #[must_use]
    pub fn found_minimum(layer: &ConvLayer, mem: OnChipMemory) -> DataflowChoice {
        DataflowKind::ALL
            .iter()
            .filter_map(|&kind| search_dataflow(kind, layer, mem))
            .min_by_key(|c| c.traffic.total_words())
            .expect("Ours is always feasible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_model::workloads;

    fn layer() -> ConvLayer {
        workloads::vgg16(3).layer(4).unwrap().layer
    }

    #[test]
    fn tables_match_direct_evaluation() {
        let l = layer();
        let tables = LayerTables::new(&l);
        for (b, z, y, x) in [(1, 1, 1, 1), (2, 16, 8, 8), (3, 256, 56, 56), (1, 7, 3, 11)] {
            let t = Tiling { b, z, y, x };
            assert_eq!(tables.ours_traffic(&t), crate::our_dataflow_traffic(&l, &t));
            assert_eq!(tables.ours_onchip(&t), t.onchip_words(&l));
        }
    }

    #[test]
    fn tables_match_on_strided_padded_layer() {
        let l = ConvLayer::square(2, 96, 31, 3, 7, 3).unwrap();
        let tables = LayerTables::new(&l);
        for y in 1..=l.output_height() {
            for x in 1..=l.output_width() {
                let t = Tiling { b: 1, z: 8, y, x };
                assert_eq!(
                    tables.ours_traffic(&t),
                    crate::our_dataflow_traffic(&l, &t),
                    "mismatch at y={y} x={x}"
                );
            }
        }
    }

    #[test]
    fn engine_matches_naive_on_vgg_layer() {
        let l = layer();
        let tables = LayerTables::new(&l);
        for kib in [16.0, 66.5, 173.5] {
            let mem = OnChipMemory::from_kib(kib);
            assert_eq!(sweep_ours(&tables, mem), naive::search_ours(&l, mem));
        }
    }

    #[test]
    fn baseline_engine_matches_naive() {
        let l = layer();
        let tables = LayerTables::new(&l);
        let mem = OnChipMemory::from_kib(66.5);
        for kind in DataflowKind::ALL {
            assert_eq!(
                sweep(kind, &tables, mem),
                naive::search_baseline(kind, &l, mem),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn tracker_breaks_ties_canonically() {
        let traffic = DramTraffic {
            input_reads: 10,
            ..DramTraffic::default()
        };
        let big = Candidate {
            tiling: Tiling {
                b: 1,
                z: 2,
                y: 1,
                x: 1,
            },
            k: 1,
            traffic,
        };
        let small = Candidate {
            tiling: Tiling {
                b: 1,
                z: 1,
                y: 9,
                x: 9,
            },
            k: 1,
            traffic,
        };
        let mut a = BestTracker::new();
        a.offer(big);
        a.offer(small);
        let mut b = BestTracker::new();
        b.offer(small);
        b.offer(big);
        assert_eq!(a.into_best(), Some(small));
        assert_eq!(b.into_best(), Some(small));
    }

    #[test]
    fn generic_sweep_matches_specialized_search() {
        // `search_ours_with` with the memory predicate and no residual
        // check must reproduce `sweep_ours` exactly.
        let l = layer();
        let tables = LayerTables::new(&l);
        for kib in [16.0, 66.5] {
            let mem = OnChipMemory::from_kib(kib);
            let mem_words = mem.words();
            let c = search_ours_with(
                &tables,
                Some(paper_tiling(&tables, mem)),
                None,
                |t| tables.ours_onchip(t) as f64 <= mem_words,
                |_| true,
            )
            .unwrap();
            let direct = sweep_ours(&tables, mem);
            assert_eq!(
                (c.tiling, c.k, c.traffic),
                (direct.tiling, direct.k, direct.traffic)
            );
        }
    }

    #[test]
    fn generic_sweep_honors_residual_feasibility() {
        // A residual predicate that rejects everything leaves only `None`;
        // one that rejects the winner changes the choice to a worse
        // feasible point, never to an infeasible one. Residual predicates
        // are monotone, so the winner is excluded by an L-shaped
        // down-closed set: every x on the first row, only x below the
        // winner's on the rows past it. x-runs then end part-way, the best
        // point lies on a row after the first run that ends (ending more
        // than the x-run would lose it), and the choice must be the best
        // point of the filtered grid.
        let l = ConvLayer::square(1, 16, 14, 8, 3, 1).unwrap();
        let tables = LayerTables::new(&l);
        let mem = OnChipMemory::from_kib(24.0);
        let mem_words = mem.words();
        let monotone = |t: &Tiling| tables.ours_onchip(t) as f64 <= mem_words;
        assert!(search_ours_with(&tables, None, None, monotone, |_| false).is_none());
        let unrestricted = search_ours_with(&tables, None, None, monotone, |_| true).unwrap();
        let banned = unrestricted.tiling;
        let l_shape = |t: &Tiling| t.y < 2 || t.x < banned.x;
        let second = search_ours_with(&tables, None, None, monotone, l_shape).unwrap();
        assert_ne!(second.tiling, banned);
        assert!(second.key() > unrestricted.key());

        let mut brute = BestTracker::new();
        for b in 1..=l.batch() {
            for &z in &dense_candidates(l.out_channels()) {
                for &y in &dense_candidates(l.output_height()) {
                    for &x in &dense_candidates(l.output_width()) {
                        let tiling = Tiling { b, z, y, x };
                        if monotone(&tiling) && l_shape(&tiling) {
                            brute.offer(Candidate {
                                tiling,
                                k: 1,
                                traffic: crate::our_dataflow_traffic(&l, &tiling),
                            });
                        }
                    }
                }
            }
        }
        assert_eq!(brute.into_best(), Some(second));
    }

    #[test]
    fn generic_sweep_z_cap_limits_candidates() {
        let l = ConvLayer::square(1, 16, 14, 8, 3, 1).unwrap();
        let tables = LayerTables::new(&l);
        let mem_words = OnChipMemory::from_kib(64.0).words();
        let monotone = |t: &Tiling| tables.ours_onchip(t) as f64 <= mem_words;
        let c = search_ours_with(&tables, None, Some(3), monotone, |_| true).unwrap();
        assert!(c.tiling.z <= 3);
    }

    #[test]
    fn concurrent_identical_queries_are_deterministic() {
        // Fire the same fresh query from many threads: every caller gets a
        // bit-identical answer (the coalescing/caching layers must never
        // change results), and afterwards the entries are resident, so one
        // more call is answered from cache. Sweep-sharing mechanics are
        // pinned in `memo::tests`; global counters are too noisy to
        // assert exact sharing here (other tests search concurrently).
        let l = ConvLayer::square(2, 37, 23, 5, 3, 1).unwrap();
        let mem = OnChipMemory::from_kib(31.5);
        let results: Vec<DataflowChoice> = {
            let mut out = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|_| scope.spawn(|| found_minimum(&l, mem)))
                    .collect();
                for h in handles {
                    out.push(h.join().unwrap());
                }
            });
            out
        };
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        let hits_before = cache_stats().hits;
        assert_eq!(found_minimum(&l, mem), results[0]);
        assert!(cache_stats().hits >= hits_before + 8);
    }

    #[test]
    fn cache_hits_on_repeat_searches() {
        // The cache and its counters are process-wide and other unit tests
        // search concurrently, so only monotone/delta properties are
        // asserted — never absolute counter values. A layer shape no other
        // test uses keeps the second call answerable purely from cache.
        let l = ConvLayer::square(2, 44, 19, 7, 3, 1).unwrap();
        let mem = OnChipMemory::from_kib(47.25);
        let first = found_minimum(&l, mem);
        let hits_before = cache_stats().hits;
        let second = found_minimum(&l, mem);
        let stats = cache_stats();
        assert_eq!(first, second);
        assert!(
            stats.hits >= hits_before + 8,
            "second run must hit all 8 per-kind entries"
        );
        assert!(stats.entries >= 8);
        assert!(stats.hit_rate() > 0.0);
    }
}
