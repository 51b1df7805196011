//! Architecture design-space sweeps — the custom-design "what if" engine.
//!
//! The paper fixes five concrete implementations (Table I), but its
//! analytical model ranks *any* communication-lower-bound-driven design
//! point. Two entry points make that executable:
//!
//! * [`sweep_archs`] evaluates one **layer** on a capped list of candidate
//!   [`ArchConfig`]s through the full plan → simulate → bound → energy
//!   pipeline, fanning candidates across threads (`rayon::par_map`);
//! * [`sweep_archs_network`] evaluates a whole **network** per candidate,
//!   fanning the flat `(candidate × layer)` unit list across threads so an
//!   expensive layer of one candidate never serializes behind another
//!   candidate's cheap layers.
//!
//! Both amortize planning through the process-wide `(layer, arch)` plan
//! cache, which holds each planned tiling with its simulated stats — a
//! warm re-sweep is one cache hit per (candidate, layer), and layers that
//! repeat inside a network (VGG-16 has several identical geometries) are
//! planned and simulated once per candidate.
//!
//! Results are **enumeration-order independent**: duplicate configurations
//! are collapsed (by [`ArchConfig::cache_key`]) and the output is sorted by
//! a canonical total order — feasible candidates first, by
//! `(total cycles, DRAM words, architecture key)`; infeasible ones after,
//! by architecture key — so shuffling the request's candidate list cannot
//! change a single output byte. Per-candidate results are exactly what
//! [`Accelerator::analyze_layer`] / [`Accelerator::analyze_network`]
//! produce, which is what pins each sweep bit-identical to a serial
//! per-candidate oracle loop. The dedup, the sort key and the entry shape
//! are shared between the two modes, so they cannot drift.
//!
//! The staged sweeps ([`staged_sweep_archs`], [`staged_sweep_archs_network`])
//! dedup and order their candidates once, up front. The survivors of each
//! chunk are then evaluated in place: one entry per survivor, in survivor
//! order, handed straight to the frontier with no second dedup or sort.

use std::collections::BTreeMap;

use accel_sim::{ArchCacheKey, ArchConfig, SimError};
use conv_model::workloads::{NamedLayer, Network};
use conv_model::ConvLayer;
use dataflow::FloorCache;
use energy_model::{reg_access_pj, table, EnergyParams};

use crate::accelerator::Accelerator;
use crate::report::{LayerReport, NetworkReport};

/// What a sweep outcome must expose for the canonical result ordering:
/// the headline cycle count, the DRAM traffic, and the energy used by the
/// selectable ranking objectives.
pub trait SweepCost {
    /// Total execution cycles (compute + unhidden stalls).
    fn sweep_cycles(&self) -> u64;
    /// Total DRAM words moved.
    fn sweep_dram_words(&self) -> u64;
    /// Total energy in picojoules.
    fn sweep_energy_pj(&self) -> f64;
}

impl SweepCost for LayerReport {
    fn sweep_cycles(&self) -> u64 {
        self.stats.total_cycles()
    }

    fn sweep_dram_words(&self) -> u64 {
        self.stats.dram.total_words()
    }

    fn sweep_energy_pj(&self) -> f64 {
        self.energy.total_pj()
    }
}

impl SweepCost for NetworkReport {
    fn sweep_cycles(&self) -> u64 {
        self.totals.total_cycles()
    }

    fn sweep_dram_words(&self) -> u64 {
        self.totals.dram.total_words()
    }

    fn sweep_energy_pj(&self) -> f64 {
        self.energy.total_pj()
    }
}

/// One candidate's outcome in an architecture sweep. `R` is the report a
/// feasible candidate produces: [`LayerReport`] for layer sweeps
/// ([`sweep_archs`]), [`NetworkReport`] for network sweeps
/// ([`sweep_archs_network`]).
#[derive(Debug, Clone)]
pub struct ArchSweepEntry<R = LayerReport> {
    /// The evaluated configuration.
    pub arch: ArchConfig,
    /// The full report, or why the candidate cannot run the workload
    /// (e.g. a single sliding window already overflows its IGBuf).
    pub outcome: Result<R, SimError>,
}

/// Collapses exact duplicates (same [`ArchConfig::cache_key`]), keeping the
/// first occurrence of each — shared by both sweep modes so "evaluated
/// once" means the same thing everywhere.
fn dedup_candidates(candidates: &[ArchConfig]) -> Vec<ArchConfig> {
    let mut unique: Vec<ArchConfig> = Vec::with_capacity(candidates.len());
    let mut seen: std::collections::HashSet<ArchCacheKey> =
        std::collections::HashSet::with_capacity(candidates.len());
    for arch in candidates {
        if seen.insert(arch.cache_key()) {
            unique.push(*arch);
        }
    }
    unique
}

/// Evaluates `layer` on every distinct candidate architecture, in parallel,
/// returning canonically-ordered per-candidate results.
///
/// Candidates must already satisfy [`ArchConfig::validate`]; invalid ones
/// are *not* filtered here — they surface as
/// [`SimError::InvalidArch`] outcomes, exactly as a direct
/// [`Accelerator::analyze_layer`] call would report them. Exact duplicates
/// (same [`ArchConfig::cache_key`]) are evaluated once.
///
/// `name` is the layer name echoed in each report (the service uses
/// `"layer"`, matching `/v1/plan`).
#[must_use]
pub fn sweep_archs(
    name: &str,
    layer: &ConvLayer,
    candidates: &[ArchConfig],
) -> Vec<ArchSweepEntry> {
    let mut entries = layer_entries(name, layer, &dedup_candidates(candidates));
    entries.sort_by_key(|entry| objective_key(entry, Objective::Cycles));
    entries
}

/// Evaluates `layer` on each of `archs`, fanned across threads: one entry
/// per candidate, in candidate order.
fn layer_entries(name: &str, layer: &ConvLayer, archs: &[ArchConfig]) -> Vec<ArchSweepEntry> {
    let outcomes = rayon::par_map(archs, |arch| {
        Accelerator::new(*arch).analyze_layer(name, layer)
    });
    archs
        .iter()
        .zip(outcomes)
        .map(|(&arch, outcome)| ArchSweepEntry { arch, outcome })
        .collect()
}

/// Evaluates `network` on every distinct candidate architecture, returning
/// canonically-ordered per-candidate [`NetworkReport`]s.
///
/// The work is fanned as flat `(candidate × layer)` units across the
/// thread pool (not per-candidate with a nested per-layer fan), so load
/// balances across candidates whose layers differ wildly in cost; planning
/// is amortized by the process-wide `(layer, arch)` plan cache, so layer
/// geometries that repeat within the network are planned once per
/// candidate. Per-candidate reports are reassembled in network layer order
/// and aggregated through the same [`NetworkReport::from_layer_reports`]
/// constructor [`Accelerator::analyze_network`] uses
/// (first-error-in-layer-order semantics included), so each entry is
/// structurally bit-identical to a serial per-candidate `analyze_network`
/// oracle call.
#[must_use]
pub fn sweep_archs_network(
    network: &Network,
    candidates: &[ArchConfig],
) -> Vec<ArchSweepEntry<NetworkReport>> {
    let mut entries = network_entries(network, &dedup_candidates(candidates));
    entries.sort_by_key(|entry| objective_key(entry, Objective::Cycles));
    entries
}

/// Evaluates `network` on each of `archs` as flat `(candidate × layer)`
/// units fanned across threads: one entry per candidate, in candidate
/// order.
fn network_entries(network: &Network, archs: &[ArchConfig]) -> Vec<ArchSweepEntry<NetworkReport>> {
    let layers: Vec<&NamedLayer> = network.conv_layers().collect();
    let units: Vec<(usize, usize)> = (0..archs.len())
        .flat_map(|c| (0..layers.len()).map(move |l| (c, l)))
        .collect();
    let results = rayon::par_map(&units, |&(c, l)| {
        Accelerator::new(archs[c]).analyze_layer(&layers[l].name, &layers[l].layer)
    });
    let mut results = results.into_iter();
    archs
        .iter()
        .map(|&arch| {
            // This candidate's slice of the flat unit list, in layer order.
            let mut reports = Vec::with_capacity(layers.len());
            let mut first_error: Option<SimError> = None;
            for _ in 0..layers.len() {
                match results.next().expect("one result per (candidate, layer)") {
                    Ok(report) => reports.push(report),
                    Err(e) => first_error = first_error.or(Some(e)),
                }
            }
            let outcome = match first_error {
                Some(e) => Err(e),
                None => Ok(NetworkReport::from_layer_reports(
                    network.name(),
                    reports,
                    arch.core_freq_hz,
                )),
            };
            ArchSweepEntry { arch, outcome }
        })
        .collect()
}

/// Ranking objective of a staged sweep.
///
/// Scalar objectives (`Cycles`, `Traffic`, `Energy`) keep the global top-K
/// by a total order whose primary component is the named cost; `Pareto`
/// keeps the set of feasible candidates not dominated on
/// `(cycles, DRAM words, energy)`. The legacy `/v1/dse` ordering is exactly
/// [`Objective::Cycles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Fewest total cycles (ties: DRAM words, then architecture key) —
    /// the legacy canonical order.
    Cycles,
    /// Fewest DRAM words (ties: cycles, then architecture key).
    Traffic,
    /// Least energy in pJ (ties: cycles, DRAM words, architecture key).
    Energy,
    /// The non-dominated set over `(cycles, DRAM words, energy)`, listed in
    /// cycle order. Infeasible candidates are never part of a Pareto
    /// frontier.
    Pareto,
}

impl Objective {
    /// Every objective, in documentation order.
    pub const ALL: [Objective; 4] = [
        Objective::Cycles,
        Objective::Traffic,
        Objective::Energy,
        Objective::Pareto,
    ];

    /// Parses the wire spelling (`"cycles" | "traffic" | "energy" |
    /// "pareto"`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cycles" => Some(Objective::Cycles),
            "traffic" => Some(Objective::Traffic),
            "energy" => Some(Objective::Energy),
            "pareto" => Some(Objective::Pareto),
            _ => None,
        }
    }

    /// The wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Objective::Cycles => "cycles",
            Objective::Traffic => "traffic",
            Objective::Energy => "energy",
            Objective::Pareto => "pareto",
        }
    }
}

/// Total energy as an order-preserving integer: `f64::to_bits` is monotone
/// over the non-negative range, so ranking by these bits ranks by energy.
fn energy_bits(pj: f64) -> u64 {
    pj.max(0.0).to_bits()
}

/// Relative slack applied to floating-point floors before integer
/// comparison, so summation-order and rounding noise can never push an
/// otherwise-admissible floor above the true cost.
const FLOAT_SLACK: f64 = 1.0 - 1e-9;

/// The canonical total order under `objective`: feasible before infeasible,
/// then the objective's primary cost, then its tie-breakers, then the
/// architecture's own total order. `Pareto` uses the `Cycles` order for its
/// listing (membership is decided by dominance, not by this key).
#[must_use]
pub fn objective_key<R: SweepCost>(
    entry: &ArchSweepEntry<R>,
    objective: Objective,
) -> (u8, u64, u64, u64, ArchCacheKey) {
    key_of(objective, cost_triple(entry), entry.arch.cache_key())
}

/// The one layout of [`objective_key`], over a `(cycles, DRAM words,
/// energy bits)` triple (`None` for an infeasible candidate) — shared by
/// actual costs and by their floors ([`CandidateBound::floor_key`]), so a
/// floor key orders exactly like the key it bounds.
fn key_of(
    objective: Objective,
    costs: Option<(u64, u64, u64)>,
    key: ArchCacheKey,
) -> (u8, u64, u64, u64, ArchCacheKey) {
    match costs {
        Some((c, d, e)) => match objective {
            Objective::Cycles | Objective::Pareto => (0, c, d, 0, key),
            Objective::Traffic => (0, d, c, 0, key),
            Objective::Energy => (0, e, c, d, key),
        },
        None => (1, 0, 0, 0, key),
    }
}

/// `(cycles, DRAM words, energy bits)` of a feasible entry.
fn cost_triple<R: SweepCost>(entry: &ArchSweepEntry<R>) -> Option<(u64, u64, u64)> {
    entry.outcome.as_ref().ok().map(|r| {
        (
            r.sweep_cycles(),
            r.sweep_dram_words(),
            energy_bits(r.sweep_energy_pj()),
        )
    })
}

/// `a` dominates `b`: no worse on every cost, strictly better on one.
fn dominates(a: (u64, u64, u64), b: (u64, u64, u64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 < b.0 || a.1 < b.1 || a.2 < b.2)
}

/// The unpruned oracle ranking: what a staged sweep must reproduce
/// bit-for-bit from any full sweep's entries.
///
/// Scalar objectives sort by [`objective_key`] and keep the first `top_k`.
/// `Pareto` keeps the feasible non-dominated set, listed in cycle order,
/// truncated to `top_k`.
#[must_use]
pub fn rank_entries<R: SweepCost>(
    entries: Vec<ArchSweepEntry<R>>,
    objective: Objective,
    top_k: usize,
) -> Vec<ArchSweepEntry<R>> {
    let mut ranked = match objective {
        Objective::Pareto => {
            let triples: Vec<Option<(u64, u64, u64)>> = entries.iter().map(cost_triple).collect();
            entries
                .into_iter()
                .enumerate()
                .filter(|(i, _)| match triples[*i] {
                    Some(t) => !triples.iter().flatten().any(|&o| dominates(o, t)),
                    None => false,
                })
                .map(|(_, e)| e)
                .collect()
        }
        _ => entries,
    };
    ranked.sort_by_key(|e| objective_key(e, objective));
    ranked.truncate(top_k);
    ranked
}

/// An admissible lower bound on one candidate's sweep costs, used by the
/// bound stage to discard candidates before planning them.
///
/// Every field under-states (never over-states) what the candidate would
/// actually score. So does every key built from them: the floor of the
/// objective's whole key ([`CandidateBound::floor_key`]) is lexicographically
/// ≤ the candidate's [`objective_key`], because each cost component is a
/// floor and the architecture key is exact; and the floor triple is ≤ the
/// actual `(cycles, DRAM words, energy)` triple componentwise. Discarding a
/// candidate whose floor key is *strictly* above the worst kept key, or
/// whose floor triple some kept triple dominates, is therefore lossless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateBound {
    /// Floor on total cycles (compute floor vs. transfer floor, per layer).
    pub cycles_lb: u64,
    /// Floor on total DRAM words.
    pub dram_lb: u64,
    /// Floor on total energy, as order-preserving [`f64::to_bits`].
    pub energy_lb_bits: u64,
    /// The candidate provably cannot run the workload (a sliding window
    /// overflows its IGBuf, or the configuration fails validation): its
    /// outcome is certain to be an error.
    pub provably_infeasible: bool,
}

impl CandidateBound {
    fn infeasible() -> Self {
        CandidateBound {
            cycles_lb: u64::MAX,
            dram_lb: u64::MAX,
            energy_lb_bits: u64::MAX,
            provably_infeasible: true,
        }
    }

    /// The floor of [`objective_key`] for the candidate whose
    /// [`ArchConfig::cache_key`] is `key`: the same layout over the floors.
    /// A provably infeasible candidate gets its exact key (infeasible, then
    /// the architecture key).
    #[must_use]
    pub fn floor_key(
        &self,
        objective: Objective,
        key: ArchCacheKey,
    ) -> (u8, u64, u64, u64, ArchCacheKey) {
        let floors = (self.cycles_lb, self.dram_lb, self.energy_lb_bits);
        key_of(
            objective,
            (!self.provably_infeasible).then_some(floors),
            key,
        )
    }
}

/// Computes the admissible [`CandidateBound`] of every candidate for a
/// workload, sharing one [`FloorCache`] so candidates that agree on buffer
/// geometry cost a hash lookup each.
///
/// The floors compose the structural DRAM floor
/// ([`dataflow::LayerFloor`]) with simulator identities. A
/// layer's cycles are at least `⌈MACs / PEs⌉` (compute) and at least
/// `reads / link words-per-cycle + DRAM latency` (transfer). Its energy,
/// under the default [`EnergyParams`] every sweep evaluates with, is at
/// least the paper's Fig. 18 "theoretical best" bar at this design's
/// LReg size, plus the LReg leakage over the cycles floor:
///
/// `DRAM floor · DRAM pJ + (1 + other) · MACs · (MAC pJ + LReg access pJ)
/// + cycles floor · LReg bytes · static pJ/byte/cycle`.
///
/// Each term bounds a part of the energy model: MAC energy counts issued
/// slots and LReg dynamic energy counts LReg writes, both `≥ MACs`;
/// leakage runs over total cycles `≥` the cycles floor; and "others"
/// scales a superset of the MAC and LReg parts. The LReg access energy is
/// interpolated once per distinct LReg size.
#[must_use]
pub fn candidate_bounds(layers: &[ConvLayer], candidates: &[ArchConfig]) -> Vec<CandidateBound> {
    let mut cache = FloorCache::new(layers);
    let mut lreg_access_pj: BTreeMap<usize, f64> = BTreeMap::new();
    let params = EnergyParams::default();
    let macs: Vec<u64> = layers.iter().map(ConvLayer::macs).collect();
    let total_macs = macs.iter().fold(0u64, |a, &m| a.saturating_add(m));
    candidates
        .iter()
        .map(|arch| {
            if arch.validate().is_err() {
                return CandidateBound::infeasible();
            }
            let floors = cache.floors(arch.igbuf_entries, arch.wgbuf_entries);
            if floors.iter().any(|f| f.provably_infeasible) {
                return CandidateBound::infeasible();
            }
            let pe = arch.pe_count().max(1) as u64;
            let wpc = arch.dram_words_per_cycle();
            let latency = arch.dram.latency_cycles;
            let mut cycles_lb = 0u64;
            let mut dram_lb = 0u64;
            for (f, &m) in floors.iter().zip(&macs) {
                let compute_lb = m.div_ceil(pe);
                let transfer_lb = if wpc > 0.0 {
                    ((f.read_words as f64 / wpc) * FLOAT_SLACK) as u64
                } else {
                    0
                };
                cycles_lb =
                    cycles_lb.saturating_add(compute_lb.max(transfer_lb.saturating_add(latency)));
                dram_lb = dram_lb.saturating_add(f.total_words);
            }
            let lreg_bytes = arch.lreg_bytes_per_pe();
            let lreg_pj = *lreg_access_pj
                .entry(lreg_bytes)
                .or_insert_with(|| reg_access_pj(lreg_bytes as f64));
            let energy_lb = (dram_lb as f64 * table::DRAM_PJ
                + (1.0 + params.other_fraction) * total_macs as f64 * (table::MAC_PJ + lreg_pj)
                + cycles_lb as f64
                    * (arch.lreg_total_entries() * 2) as f64
                    * params.reg_static_pj_per_byte_cycle)
                * FLOAT_SLACK;
            CandidateBound {
                cycles_lb,
                dram_lb,
                energy_lb_bits: energy_bits(energy_lb),
                provably_infeasible: false,
            }
        })
        .collect()
}

/// A frontier snapshot handed to the progress callback after every chunk
/// that changed the kept set.
#[derive(Debug)]
pub struct StagedProgress<'a, R> {
    /// Candidates decided so far (pruned or evaluated).
    pub processed: usize,
    /// Candidates discarded by the bound stage so far.
    pub pruned: u64,
    /// The kept entries, in the objective's canonical order.
    pub frontier: &'a [ArchSweepEntry<R>],
}

/// The result of a staged sweep: the final frontier plus the funnel counts.
#[derive(Debug)]
pub struct StagedOutcome<R> {
    /// The kept entries — bit-identical to
    /// [`rank_entries`] over the unpruned full sweep.
    pub entries: Vec<ArchSweepEntry<R>>,
    /// Distinct candidates after deduplication.
    pub unique: usize,
    /// Candidates discarded by the bound stage without planning.
    pub pruned: u64,
    /// Candidates that went through plan + simulate.
    pub evaluated: u64,
}

/// The largest evaluation chunk: large enough to keep the thread pool fed
/// by [`sweep_archs`], small enough that the frontier tightens (and prunes
/// more) many times across a big sweep. Chunks grow geometrically from
/// [`FIRST_STAGE_CHUNK`] to this size, so the frontier anchors on a few
/// cheapest-floor candidates before any large batch is planned.
const STAGE_CHUNK: usize = 512;

/// The first evaluation chunk; each later one doubles, up to
/// [`STAGE_CHUNK`].
const FIRST_STAGE_CHUNK: usize = 8;

/// The incremental kept set. Scalar objectives hold at most `top_k` entries
/// sorted by [`objective_key`]; `Pareto` holds the full non-dominated set
/// (truncated only on extraction).
struct Frontier<R> {
    objective: Objective,
    top_k: usize,
    entries: Vec<ArchSweepEntry<R>>,
}

impl<R: SweepCost> Frontier<R> {
    fn new(objective: Objective, top_k: usize) -> Self {
        Frontier {
            objective,
            top_k,
            entries: Vec::new(),
        }
    }

    /// Whether `bound` proves the candidate (whose
    /// [`ArchConfig::cache_key`] is `key`) cannot enter the final kept set.
    /// Lossless by admissibility, and the verdict survives later frontier
    /// evolution:
    ///
    /// * a scalar objective at capacity discards a candidate whose floor
    ///   key is strictly above the worst kept [`objective_key`] — its true
    ///   key is at least its floor key, and the worst kept key only falls;
    /// * `Pareto` discards an infeasible candidate (never on a frontier)
    ///   and a candidate whose floor triple some kept triple dominates —
    ///   that triple then dominates its true costs too, and dominance is
    ///   transitive.
    fn can_prune(&self, bound: &CandidateBound, key: ArchCacheKey) -> bool {
        if self.top_k == 0 {
            return true;
        }
        match self.objective {
            Objective::Pareto => {
                let floors = (bound.cycles_lb, bound.dram_lb, bound.energy_lb_bits);
                bound.provably_infeasible
                    || self
                        .entries
                        .iter()
                        .filter_map(cost_triple)
                        .any(|kept| dominates(kept, floors))
            }
            objective => {
                self.entries.len() == self.top_k
                    && self.entries.last().is_some_and(|worst| {
                        bound.floor_key(objective, key) > objective_key(worst, objective)
                    })
            }
        }
    }

    /// Merges one evaluated entry; returns whether the kept set changed.
    fn insert(&mut self, entry: ArchSweepEntry<R>) -> bool {
        if self.top_k == 0 {
            return false;
        }
        match self.objective {
            Objective::Pareto => {
                let Some(t) = cost_triple(&entry) else {
                    return false;
                };
                if self
                    .entries
                    .iter()
                    .filter_map(cost_triple)
                    .any(|kept| dominates(kept, t))
                {
                    return false;
                }
                self.entries
                    .retain(|kept| !cost_triple(kept).is_some_and(|k| dominates(t, k)));
                let key = objective_key(&entry, Objective::Pareto);
                let at = self
                    .entries
                    .partition_point(|e| objective_key(e, Objective::Pareto) < key);
                self.entries.insert(at, entry);
                true
            }
            objective => {
                let key = objective_key(&entry, objective);
                let at = self
                    .entries
                    .partition_point(|e| objective_key(e, objective) < key);
                if self.entries.len() == self.top_k {
                    if at == self.top_k {
                        return false;
                    }
                    self.entries.pop();
                }
                self.entries.insert(at, entry);
                true
            }
        }
    }

    fn entries(&self) -> &[ArchSweepEntry<R>] {
        &self.entries
    }

    fn into_ranked(mut self) -> Vec<ArchSweepEntry<R>> {
        self.entries.truncate(self.top_k);
        self.entries
    }
}

/// The staged funnel shared by both sweep modes: order candidates by their
/// floor key (cheapest floor first, most likely to anchor the frontier
/// early; provably infeasible candidates last), prune against the
/// frontier, evaluate survivors in geometrically growing chunks through
/// `eval` (which fans across threads and returns one entry per survivor,
/// in survivor order), and merge serially — so the pruned count and every
/// frontier snapshot are deterministic for a given candidate set,
/// independent of thread scheduling.
fn staged_engine<R: SweepCost>(
    unique: Vec<ArchConfig>,
    bounds: Vec<CandidateBound>,
    objective: Objective,
    top_k: usize,
    eval: impl Fn(&[ArchConfig]) -> Vec<ArchSweepEntry<R>>,
    mut progress: impl FnMut(StagedProgress<'_, R>),
) -> StagedOutcome<R> {
    debug_assert_eq!(unique.len(), bounds.len());
    let keys: Vec<ArchCacheKey> = unique.iter().map(ArchConfig::cache_key).collect();
    let mut order: Vec<usize> = (0..unique.len()).collect();
    order.sort_by_cached_key(|&i| bounds[i].floor_key(objective, keys[i]));

    let mut frontier = Frontier::new(objective, top_k);
    let mut pruned = 0u64;
    let mut evaluated = 0u64;
    let mut processed = 0usize;
    let mut rest = &order[..];
    let mut chunk_len = FIRST_STAGE_CHUNK;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(chunk_len.min(rest.len()));
        rest = tail;
        chunk_len = (chunk_len * 2).min(STAGE_CHUNK);
        let mut survivors = Vec::with_capacity(chunk.len());
        for &i in chunk {
            if frontier.can_prune(&bounds[i], keys[i]) {
                pruned += 1;
            } else {
                survivors.push(unique[i]);
            }
        }
        evaluated += survivors.len() as u64;
        let entries = eval(&survivors);
        assert_eq!(entries.len(), survivors.len(), "one result per survivor");
        let mut changed = false;
        for entry in entries {
            changed |= frontier.insert(entry);
        }
        processed += chunk.len();
        if changed {
            progress(StagedProgress {
                processed,
                pruned,
                frontier: frontier.entries(),
            });
        }
    }
    StagedOutcome {
        unique: unique.len(),
        pruned,
        evaluated,
        entries: frontier.into_ranked(),
    }
}

/// Staged layer sweep: [`sweep_archs`] semantics with bound-stage pruning
/// and an incremental top-K frontier.
///
/// The returned entries are **bit-identical** to
/// `rank_entries(sweep_archs(name, layer, candidates), objective, top_k)` —
/// pruning is lossless. `progress` fires after every evaluation chunk that
/// changed the frontier (streaming delivery hooks in here).
pub fn staged_sweep_archs(
    name: &str,
    layer: &ConvLayer,
    candidates: &[ArchConfig],
    objective: Objective,
    top_k: usize,
    progress: impl FnMut(StagedProgress<'_, LayerReport>),
) -> StagedOutcome<LayerReport> {
    let unique = dedup_candidates(candidates);
    let bounds = candidate_bounds(std::slice::from_ref(layer), &unique);
    staged_engine(
        unique,
        bounds,
        objective,
        top_k,
        |archs| layer_entries(name, layer, archs),
        progress,
    )
}

/// Staged network sweep: [`sweep_archs_network`] semantics with bound-stage
/// pruning and an incremental top-K frontier. Per-layer floors are summed,
/// mirroring how [`NetworkReport`] totals sum per-layer costs.
///
/// The returned entries are **bit-identical** to
/// `rank_entries(sweep_archs_network(network, candidates), objective,
/// top_k)`.
pub fn staged_sweep_archs_network(
    network: &Network,
    candidates: &[ArchConfig],
    objective: Objective,
    top_k: usize,
    progress: impl FnMut(StagedProgress<'_, NetworkReport>),
) -> StagedOutcome<NetworkReport> {
    let unique = dedup_candidates(candidates);
    let layers: Vec<ConvLayer> = network.conv_layers().map(|l| l.layer).collect();
    let bounds = candidate_bounds(&layers, &unique);
    staged_engine(
        unique,
        bounds,
        objective,
        top_k,
        |archs| network_entries(network, archs),
        progress,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_model::workloads;

    fn layer() -> ConvLayer {
        workloads::vgg16(3).layer(4).unwrap().layer
    }

    fn table1() -> Vec<ArchConfig> {
        (1..=5).map(ArchConfig::implementation).collect()
    }

    /// The keys of a sweep's canonical order, [`Objective::Cycles`].
    fn cycles_keys<R: SweepCost>(
        entries: &[ArchSweepEntry<R>],
    ) -> Vec<(u8, u64, u64, u64, ArchCacheKey)> {
        entries
            .iter()
            .map(|e| objective_key(e, Objective::Cycles))
            .collect()
    }

    #[test]
    fn sweep_matches_serial_oracle() {
        let archs = table1();
        let sweep = sweep_archs("layer", &layer(), &archs);
        assert_eq!(sweep.len(), 5);
        for entry in &sweep {
            let oracle = Accelerator::new(entry.arch).analyze_layer("layer", &layer());
            match (&entry.outcome, &oracle) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.tiling, b.tiling);
                    assert_eq!(a.stats, b.stats);
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("sweep {a:?} disagrees with oracle {b:?}"),
            }
        }
    }

    #[test]
    fn sweep_is_enumeration_order_independent_and_dedups() {
        let forward = table1();
        let mut shuffled = table1();
        shuffled.reverse();
        shuffled.extend(table1()); // duplicates of every candidate
        let a = sweep_archs("layer", &layer(), &forward);
        let b = sweep_archs("layer", &layer(), &shuffled);
        assert_eq!(a.len(), 5, "duplicates must collapse");
        assert_eq!(b.len(), 5, "duplicates must collapse");
        let (keys_a, keys_b) = (cycles_keys(&a), cycles_keys(&b));
        assert_eq!(keys_a, keys_b);
        assert!(keys_a.windows(2).all(|w| w[0] < w[1]), "strict total order");
    }

    #[test]
    fn invalid_candidates_surface_as_typed_errors() {
        let mut bad = ArchConfig::example();
        bad.group_rows = 7;
        let sweep = sweep_archs("layer", &layer(), &[bad, ArchConfig::example()]);
        assert_eq!(sweep.len(), 2);
        // Canonical order puts the feasible candidate first.
        assert!(sweep[0].outcome.is_ok());
        assert!(
            matches!(&sweep[1].outcome, Err(SimError::InvalidArch(m)) if m.contains("group rows")),
            "{:?}",
            sweep[1].outcome
        );
    }

    #[test]
    fn network_sweep_matches_serial_analyze_network_oracle() {
        let net = workloads::resnet_bottleneck(1, 14, 64, 16);
        let archs = table1();
        let sweep = sweep_archs_network(&net, &archs);
        assert_eq!(sweep.len(), 5);
        for entry in &sweep {
            let oracle = Accelerator::new(entry.arch).analyze_network(&net);
            match (&entry.outcome, &oracle) {
                (Ok(a), Ok(b)) => {
                    // Bit identity at the wire level: the serialized reports
                    // must match byte for byte.
                    assert_eq!(
                        serde_json::to_string_pretty(a).unwrap(),
                        serde_json::to_string_pretty(b).unwrap()
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("sweep {a:?} disagrees with oracle {b:?}"),
            }
        }
    }

    #[test]
    fn network_sweep_dedups_and_orders_canonically() {
        let net = workloads::resnet_bottleneck(1, 14, 64, 16);
        let mut shuffled = table1();
        shuffled.reverse();
        shuffled.extend(table1());
        let a = sweep_archs_network(&net, &table1());
        let b = sweep_archs_network(&net, &shuffled);
        assert_eq!(a.len(), 5, "duplicates must collapse");
        let (keys_a, keys_b) = (cycles_keys(&a), cycles_keys(&b));
        assert_eq!(keys_a, keys_b);
        assert!(keys_a.windows(2).all(|w| w[0] < w[1]), "strict total order");
    }

    #[test]
    fn network_sweep_surfaces_first_layer_error_in_layer_order() {
        // An architecture whose IGBuf cannot hold even one sliding window of
        // the bottleneck's 3×3 layer fails exactly as analyze_network fails.
        let net = workloads::resnet_bottleneck(1, 14, 64, 16);
        let mut tiny = ArchConfig::implementation(1);
        tiny.igbuf_entries = 1;
        let sweep = sweep_archs_network(&net, &[tiny]);
        assert_eq!(sweep.len(), 1);
        let oracle = Accelerator::new(tiny).analyze_network(&net);
        match (&sweep[0].outcome, &oracle) {
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("expected identical errors, got {a:?} vs {b:?}"),
        }
    }
}
