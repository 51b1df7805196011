//! `POST /v1/dse` — the design-space sweep, with one request type
//! ([`DseRequest`]), one run path ([`DseRequest::run`]) and one response
//! type ([`DseResponse`]).
//!
//! A request sweeps its candidate architectures over one of two targets
//! (a layer, or a whole network) in one of two regimes: the legacy sweep
//! evaluates and returns every candidate, the staged one bound-prunes them
//! and keeps a ranked frontier. The four combinations differ only in which
//! `clb_core` sweep runs and which fields the response renders, so all of
//! them — and every delivery of them: the synchronous body, the chunked
//! stream, the job handle and `clb dse` — go through [`DseRequest::run`],
//! the one place that tells a layer from a network.

use accel_sim::ArchConfig;
use clb_core::{ArchSweepEntry, LayerReport, Objective, StagedOutcome, StagedProgress, SweepCost};
use conv_model::workloads::Network;
use conv_model::ConvLayer;
use serde::{Deserialize, Serialize, Serializer, Value};

use super::{
    arch_from_value, check_top_level_keys, get_field, limits, network_by_name, network_from_value,
    optional, render, require, unknown_key, ApiError, Canonical, LayerSpec, LAYER_KEYS,
};
use crate::http::Response;

/// What a `/v1/dse` request sweeps its candidates over: one layer (the
/// layer-spec fields at the top level, the original mode) or a full model
/// (`"target": {"network": "vgg16", "batch": 3}`).
#[derive(Debug, Clone)]
pub enum DseTarget {
    /// A single layer, from the usual top-level layer-spec fields.
    Layer(ConvLayer),
    /// A full model at a batch size — a preset by name or a custom layer
    /// list.
    Network {
        /// The workload (see [`network_by_name`] / [`network_from_value`]).
        net: Network,
        /// The analyzed batch size (echoed in the response).
        batch: usize,
    },
}

/// Parses the sweep target of a `/v1/dse` request: the `target` object when
/// present, the top-level layer-spec fields otherwise. Mixing the two is
/// rejected — a request that names a network *and* spells out layer fields
/// is ambiguous about what it wants swept.
fn parse_dse_target(v: &Value) -> Result<DseTarget, ApiError> {
    let Some(t) = get_field(v, "target")?.filter(|f| !matches!(f, Value::Null)) else {
        return Ok(DseTarget::Layer(LayerSpec::from_value(v)?.to_layer()?));
    };
    for name in LAYER_KEYS {
        if !matches!(get_field(v, name)?, None | Some(Value::Null)) {
            return Err(ApiError::BadRequest(format!(
                "specify either `target` or the layer field `{name}`, not both"
            )));
        }
    }
    if !matches!(t, Value::Object(_)) {
        return Err(ApiError::BadRequest(
            "`target` must be a JSON object".to_string(),
        ));
    }
    if let Some(key) = unknown_key(t, &["network", "batch"]) {
        return Err(ApiError::BadRequest(format!(
            "unknown target field `{key}` (expected network, batch)"
        )));
    }
    if let Some(custom @ Value::Object(_)) = get_field(t, "network")? {
        // As on `/v1/network`: the custom object carries its own batch.
        if !matches!(get_field(t, "batch")?, None | Some(Value::Null)) {
            return Err(ApiError::BadRequest(
                "a custom network object carries its own `batch`; \
                 drop `target.batch`"
                    .to_string(),
            ));
        }
        let (net, batch) = network_from_value(custom).map_err(|e| e.prefixed("target.network"))?;
        return Ok(DseTarget::Network { net, batch });
    }
    let name: String = require(t, "network")?;
    let batch: usize = optional(t, "batch", 3)?;
    let net = network_by_name(&name, batch)?;
    Ok(DseTarget::Network { net, batch })
}

/// The grid axes `/v1/dse` accepts (every sized `ArchConfig` field, in
/// [`archs_from_axes`] order); the clock and DRAM model come from the
/// grid's `base`.
pub const GRID_AXES: [&str; 9] = [
    "pe_rows",
    "pe_cols",
    "group_rows",
    "group_cols",
    "lreg_entries_per_pe",
    "igbuf_entries",
    "wgbuf_entries",
    "greg_bytes",
    "greg_segment_entries",
];

/// Expands per-field value lists (in [`GRID_AXES`] order) into validated
/// candidate architectures over `base` (which supplies the clock and DRAM
/// model), capped at [`limits::MAX_DSE_CANDIDATES`]. Shared by the
/// `/v1/dse` grid path and `clb dse`, so the CLI and the service can never
/// disagree on which field an axis sweeps.
///
/// # Errors
///
/// [`ApiError::Unprocessable`] on empty axes, over-cap cardinality
/// (checked before expansion) and candidates violating
/// [`ArchConfig::validate`] (naming the candidate and the invariant).
pub fn archs_from_axes(
    axes: &[Vec<usize>; 9],
    base: &ArchConfig,
) -> Result<Vec<ArchConfig>, ApiError> {
    archs_from_axes_capped(axes, base, limits::MAX_DSE_CANDIDATES)
}

/// [`archs_from_axes`] under the staged candidate budget
/// ([`limits::MAX_DSE_STAGED_CANDIDATES`]) — the grid expansion behind
/// `clb dse --objective ...`, where the bound stage makes million-point
/// grids affordable.
///
/// # Errors
///
/// Exactly [`archs_from_axes`]'s, with the larger cap.
pub fn archs_from_axes_staged(
    axes: &[Vec<usize>; 9],
    base: &ArchConfig,
) -> Result<Vec<ArchConfig>, ApiError> {
    archs_from_axes_capped(axes, base, limits::MAX_DSE_STAGED_CANDIDATES)
}

/// [`archs_from_axes`] with an explicit candidate budget — when a request
/// also carries an explicit `candidates` list, the grid only gets whatever
/// the list left under [`limits::MAX_DSE_CANDIDATES`].
fn archs_from_axes_capped(
    axes: &[Vec<usize>; 9],
    base: &ArchConfig,
    cap: usize,
) -> Result<Vec<ArchConfig>, ApiError> {
    let points = dataflow::grid_points(axes, cap)
        .map_err(|e| ApiError::Unprocessable(format!("grid: {e}")))?;
    points
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let arch = ArchConfig {
                pe_rows: p[0],
                pe_cols: p[1],
                group_rows: p[2],
                group_cols: p[3],
                lreg_entries_per_pe: p[4],
                igbuf_entries: p[5],
                wgbuf_entries: p[6],
                greg_bytes: p[7],
                greg_segment_entries: p[8],
                ..*base
            };
            arch.validate().map_err(|m| {
                ApiError::Unprocessable(format!("grid candidate #{i}: invalid arch: {m}"))
            })?;
            Ok(arch)
        })
        .collect()
}

fn archs_from_grid(grid: &Value, cap: usize) -> Result<Vec<ArchConfig>, ApiError> {
    if !matches!(grid, Value::Object(_)) {
        return Err(ApiError::BadRequest(
            "`grid` must be a JSON object of axis lists".to_string(),
        ));
    }
    if let Some(key) = unknown_key(grid, &[&["base"], &GRID_AXES[..]].concat()) {
        return Err(ApiError::BadRequest(format!(
            "unknown grid axis `{key}` (expected base or one of {})",
            GRID_AXES.join(", ")
        )));
    }
    let base = match get_field(grid, "base")? {
        None | Some(Value::Null) => ArchConfig::implementation(1),
        Some(b) => arch_from_value(b).map_err(|e| e.prefixed("grid.base"))?,
    };
    let base_axis = |f: fn(&ArchConfig) -> usize| vec![f(&base)];
    let mut axes: [Vec<usize>; 9] = [
        base_axis(|a| a.pe_rows),
        base_axis(|a| a.pe_cols),
        base_axis(|a| a.group_rows),
        base_axis(|a| a.group_cols),
        base_axis(|a| a.lreg_entries_per_pe),
        base_axis(|a| a.igbuf_entries),
        base_axis(|a| a.wgbuf_entries),
        base_axis(|a| a.greg_bytes),
        base_axis(|a| a.greg_segment_entries),
    ];
    for (i, name) in GRID_AXES.iter().enumerate() {
        if let Some(field) = get_field(grid, name)? {
            if !matches!(field, Value::Null) {
                axes[i] = Vec::<usize>::from_value(field).map_err(|e| {
                    ApiError::BadRequest(format!("grid axis `{name}`: {e} (expected a list)"))
                })?;
            }
        }
    }
    archs_from_axes_capped(&axes, &base, cap)
}

fn archs_from_explicit_list(list: &Value, cap: usize) -> Result<Vec<ArchConfig>, ApiError> {
    let items = list.as_array().map_err(|_| {
        ApiError::BadRequest("`candidates` must be an array of arch objects".to_string())
    })?;
    if items.is_empty() {
        return Err(ApiError::Unprocessable(
            "`candidates` must name at least one architecture".to_string(),
        ));
    }
    if items.len() > cap {
        return Err(ApiError::Unprocessable(format!(
            "{} candidates exceed the {cap} cap",
            items.len()
        )));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| arch_from_value(item).map_err(|e| e.prefixed(&format!("candidates[{i}]"))))
        .collect()
}

/// Parses the candidate set of a `/v1/dse` request: an explicit
/// `candidates` list of arch objects, a `grid` of axis lists over a `base`
/// architecture, or **both** — the union, with the grid's budget reduced by
/// the list's length so the combined request stays under `cap`
/// ([`limits::MAX_DSE_CANDIDATES`] on the legacy path,
/// [`limits::MAX_DSE_STAGED_CANDIDATES`] when the request is staged). A
/// candidate named by both forms is one candidate: the sweep dedups by the
/// architecture's total order, so it is planned and simulated exactly once.
fn parse_dse_candidates(v: &Value, cap: usize) -> Result<Vec<ArchConfig>, ApiError> {
    let explicit = get_field(v, "candidates")?.filter(|f| !matches!(f, Value::Null));
    let grid = get_field(v, "grid")?.filter(|f| !matches!(f, Value::Null));
    if explicit.is_none() && grid.is_none() {
        return Err(ApiError::BadRequest(
            "missing `candidates` (list of arch objects) or `grid` (axis lists)".to_string(),
        ));
    }
    let mut archs = match explicit {
        Some(list) => archs_from_explicit_list(list, cap)?,
        None => Vec::new(),
    };
    if let Some(g) = grid {
        archs.extend(archs_from_grid(g, cap - archs.len())?);
    }
    Ok(archs)
}

/// How a staged `/v1/dse` request wants its results delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamMode {
    /// One synchronous JSON response (the default, and what
    /// `"stream": false` spells).
    Sync,
    /// `Transfer-Encoding: chunked`: one single-line frontier snapshot per
    /// improvement, then the full response as the final chunk
    /// (`"stream": true` or `"stream": "chunked"`).
    Chunked,
    /// A resumable job handle: the POST answers immediately with an
    /// acceptance body and `GET /v1/dse/jobs/{id}` polls the sweep
    /// (`"stream": "job"`).
    Job,
}

/// The staged-sweep options of a `/v1/dse` request (`objective`, `top_k`,
/// `stream`). Parsed to `None` when the request carries none of them — the
/// legacy capped-batch path, whose wire bytes are pinned by the golden
/// corpus and must stay untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedOptions {
    /// Ranking objective for the kept frontier.
    pub objective: Objective,
    /// Frontier size, `1..=`[`limits::MAX_DSE_TOP_K`].
    pub top_k: usize,
    /// Delivery transport.
    pub stream: StreamMode,
}

/// Parses the staged fields of a `/v1/dse` body. Absent or `null` fields
/// fall back to defaults; when *all three* are absent the request is a
/// legacy sweep and `Ok(None)` is returned. Wrong JSON types are 400s,
/// well-typed but unknown values (an unrecognized objective or stream
/// mode, an out-of-range `top_k`) are 422s.
///
/// # Errors
///
/// [`ApiError::BadRequest`] / [`ApiError::Unprocessable`] as above.
pub fn parse_staged_options(v: &Value) -> Result<Option<StagedOptions>, ApiError> {
    let objective = get_field(v, "objective")?.filter(|f| !matches!(f, Value::Null));
    let top_k = get_field(v, "top_k")?.filter(|f| !matches!(f, Value::Null));
    let stream = get_field(v, "stream")?.filter(|f| !matches!(f, Value::Null));
    if objective.is_none() && top_k.is_none() && stream.is_none() {
        return Ok(None);
    }
    let objective = match objective {
        None => Objective::Cycles,
        Some(Value::String(name)) => Objective::parse(name).ok_or_else(|| {
            ApiError::Unprocessable(format!(
                "unknown objective `{name}` (expected cycles, traffic, energy or pareto)"
            ))
        })?,
        Some(_) => {
            return Err(ApiError::BadRequest(
                "field `objective` must be a string (cycles, traffic, energy or pareto)"
                    .to_string(),
            ))
        }
    };
    let top_k = match top_k.map(usize::from_value) {
        None => limits::DEFAULT_DSE_TOP_K,
        Some(Ok(k)) if (1..=limits::MAX_DSE_TOP_K).contains(&k) => k,
        Some(Ok(_)) => {
            return Err(ApiError::Unprocessable(format!(
                "top_k must be between 1 and {}",
                limits::MAX_DSE_TOP_K
            )))
        }
        Some(Err(e)) => return Err(ApiError::BadRequest(format!("field `top_k`: {e}"))),
    };
    let stream = match stream {
        None | Some(Value::Bool(false)) => StreamMode::Sync,
        Some(Value::Bool(true)) => StreamMode::Chunked,
        Some(Value::String(mode)) if mode == "chunked" => StreamMode::Chunked,
        Some(Value::String(mode)) if mode == "job" => StreamMode::Job,
        Some(Value::String(other)) => {
            return Err(ApiError::Unprocessable(format!(
                "unknown stream mode `{other}` (expected chunked or job)"
            )))
        }
        Some(_) => {
            return Err(ApiError::BadRequest(
                "field `stream` must be a bool or a string (chunked, job)".to_string(),
            ))
        }
    };
    Ok(Some(StagedOptions {
        objective,
        top_k,
        stream,
    }))
}

/// A cheap peek at a `/v1/dse` body's delivery mode, used by the server to
/// pick a transport *before* dispatch: only the staged fields are parsed.
/// Bodies whose staged fields the parser rejects fall through as
/// [`StreamMode::Sync`] and receive their typed error from the normal
/// dispatch path.
#[must_use]
pub fn stream_mode_hint(v: &Value) -> StreamMode {
    let staged = parse_staged_options(v).ok().flatten();
    staged.map_or(StreamMode::Sync, |o| o.stream)
}

/// The `/v1/dse` request-log fields (`candidates= pruned= kept=
/// objective=`), produced alongside the response and cached with it so
/// coalesced and cache-hit requests log the same sweep funnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DseLogMeta {
    /// Candidates named by the request (before deduplication).
    pub candidates: usize,
    /// Candidates discarded by the bound stage (always 0 on the legacy
    /// path, and on a job acceptance — the job logs its pruning when
    /// polled into the stats counters instead).
    pub pruned: u64,
    /// Result entries returned (the frontier size on the staged path, all
    /// unique candidates on the legacy path, 0 on a job acceptance).
    pub kept: usize,
    /// Ranking objective; `None` on the legacy path, logged as `-`.
    pub objective: Option<Objective>,
}

impl DseLogMeta {
    /// The `objective=` log-field spelling.
    #[must_use]
    pub fn objective_str(&self) -> &'static str {
        self.objective.map_or("-", Objective::as_str)
    }
}

/// One candidate's entry in a [`DseResponse`]: the architecture plus either
/// the full report (with its headline cycle count and time pulled up) or
/// the typed reason the candidate cannot run the target. The report is
/// exactly what `/v1/plan` (layer mode) or `/v1/network` (network mode)
/// returns for this `arch`.
#[derive(Debug, Clone, Serialize)]
pub struct DseEntry<R> {
    /// The evaluated candidate architecture.
    pub arch: ArchConfig,
    /// Total execution cycles, `null` when infeasible.
    pub total_cycles: Option<u64>,
    /// Execution time at the candidate's core clock, `null` when infeasible.
    pub seconds: Option<f64>,
    /// The full report, or `null` when infeasible.
    pub report: Option<R>,
    /// Why the candidate cannot run the target, `null` when feasible.
    pub error: Option<String>,
}

impl<R: SweepCost> From<ArchSweepEntry<R>> for DseEntry<R> {
    fn from(entry: ArchSweepEntry<R>) -> Self {
        let (report, error) = match entry.outcome {
            Ok(report) => (Some(report), None),
            Err(e) => (None, Some(e.to_string())),
        };
        let total_cycles = report.as_ref().map(SweepCost::sweep_cycles);
        DseEntry {
            arch: entry.arch,
            // The cycles / clock quotient `SimStats::seconds` computes.
            seconds: total_cycles.map(|c| c as f64 / entry.arch.core_freq_hz),
            total_cycles,
            report,
            error,
        }
    }
}

/// The `/v1/dse` response, for both targets and both regimes.
///
/// It renders as the target's echo (`layer`, or `network` and `batch`),
/// then — legacy — `submitted`, `unique`, `feasible` and every unique
/// candidate in the canonical order (feasible first by cycles, traffic,
/// then the architecture's total order), or — staged — `objective`,
/// `top_k`, `submitted`, `unique`, `pruned`, `evaluated`, `kept` and the
/// frontier ranked by the objective. A staged response has no `feasible`
/// count: pruned candidates are never planned, so global feasibility is
/// unknowable by design. Duplicates collapse either way, so the bytes do
/// not depend on how the request enumerated its candidates.
#[derive(Debug, Clone)]
pub struct DseResponse<R> {
    /// The target's echo fields, rendered first.
    pub target: Vec<(String, Value)>,
    /// The staged ranking — objective and `top_k` — or `None` on a legacy
    /// sweep.
    pub ranking: Option<(Objective, usize)>,
    /// Candidates named by the request (before deduplication).
    pub submitted: usize,
    /// Distinct candidates swept.
    pub unique: usize,
    /// Candidates discarded by the admissible bound stage (0 on a legacy
    /// sweep). Lossless: a pruned candidate provably cannot enter the kept
    /// frontier.
    pub pruned: u64,
    /// Candidates actually planned and simulated (`unique` on a legacy
    /// sweep).
    pub evaluated: u64,
    /// Per-candidate results: every unique candidate on a legacy sweep,
    /// the ranked frontier (`≤ top_k`) on a staged one.
    pub results: Vec<DseEntry<R>>,
}

impl<R: SweepCost> DseResponse<R> {
    /// Sweeps the candidates — every one through `all` on a legacy request,
    /// the bound-pruned frontier through `ranked` on a staged one — and
    /// shapes the response.
    fn sweep(
        target: Vec<(String, Value)>,
        submitted: usize,
        ranking: Option<(Objective, usize)>,
        all: impl FnOnce() -> Vec<ArchSweepEntry<R>>,
        ranked: impl FnOnce(Objective, usize) -> StagedOutcome<R>,
    ) -> Self {
        let outcome = match ranking {
            None => {
                let entries = all();
                StagedOutcome {
                    unique: entries.len(),
                    pruned: 0,
                    evaluated: entries.len() as u64,
                    entries,
                }
            }
            Some((objective, top_k)) => ranked(objective, top_k),
        };
        DseResponse {
            target,
            ranking,
            submitted,
            unique: outcome.unique,
            pruned: outcome.pruned,
            evaluated: outcome.evaluated,
            results: outcome.entries.into_iter().map(DseEntry::from).collect(),
        }
    }
}

impl<R> DseResponse<R> {
    /// How many returned candidates can run the target.
    #[must_use]
    pub fn feasible(&self) -> usize {
        self.results.iter().filter(|r| r.report.is_some()).count()
    }

    /// The request-log fields of this response.
    #[must_use]
    pub fn log_meta(&self) -> DseLogMeta {
        DseLogMeta {
            candidates: self.submitted,
            pruned: self.pruned,
            kept: self.results.len(),
            objective: self.ranking.map(|(objective, _)| objective),
        }
    }
}

impl<R: Serialize> Serialize for DseResponse<R> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        fn field<S: Serializer>(out: &mut S, name: &str, value: impl Serialize) {
            out.key(name);
            value.serialize(out);
        }
        out.begin_object();
        for (name, value) in &self.target {
            field(out, name, value);
        }
        match self.ranking {
            None => {
                field(out, "submitted", self.submitted);
                field(out, "unique", self.unique);
                field(out, "feasible", self.feasible());
            }
            Some((objective, top_k)) => {
                field(out, "objective", objective.as_str());
                field(out, "top_k", top_k);
                field(out, "submitted", self.submitted);
                field(out, "unique", self.unique);
                field(out, "pruned", self.pruned);
                field(out, "evaluated", self.evaluated);
                field(out, "kept", self.results.len());
            }
        }
        field(out, "results", &self.results);
        out.end_object();
    }
}

/// What a swept report must offer: its sweep cost ranks it, its
/// serialization renders it. Implemented for every such type, among them
/// `LayerReport` (layer sweeps) and `NetworkReport` (network sweeps).
pub trait DseReport: SweepCost + Serialize {}

impl<R: SweepCost + Serialize> DseReport for R {}

/// What a caller does with a sweep, whichever target it ran on: observe
/// each improvement of a staged frontier, then consume the typed response.
/// [`DseRequest::run`] drives it.
pub trait DseSink {
    /// What the sink makes of the finished sweep.
    type Output;
    /// Observes one frontier improvement of a staged sweep.
    fn progress<R: DseReport>(&mut self, _progress: &StagedProgress<'_, R>) {}
    /// Consumes the finished response.
    fn finish<R: DseReport>(self, response: DseResponse<R>) -> Self::Output;
}

/// A validated `/v1/dse` request: what to sweep, over which candidates,
/// and — when any of `objective`, `top_k`, `stream` is present — how to
/// rank and deliver the staged sweep.
#[derive(Debug, Clone)]
pub struct DseRequest {
    /// The layer or network the candidates are swept over.
    pub target: DseTarget,
    /// The candidates, in request order (the sweep deduplicates them).
    pub archs: Vec<ArchConfig>,
    /// The staged options, `None` for a legacy sweep.
    pub staged: Option<StagedOptions>,
}

impl DseRequest {
    /// The top-level keys a `/v1/dse` body may carry, space-separated, in
    /// three groups: the layer spec of layer mode, the target and
    /// candidates, and the keys any of which makes a request staged. Any
    /// other key is a 400: nearly every field is optional, so a typo
    /// (`"objectve"`, `"strid"`) would otherwise silently sweep something
    /// never asked for.
    pub const KEYS: &'static str =
        "co size ci k stride batch target candidates grid objective top_k stream";

    /// Parses and validates a `/v1/dse` body — the only parse a body gets.
    /// The candidate cap is [`limits::MAX_DSE_CANDIDATES`] for a legacy
    /// request and [`limits::MAX_DSE_STAGED_CANDIDATES`] for a staged one
    /// (both guard outside input; a grid's cardinality is checked before it
    /// is expanded).
    ///
    /// # Errors
    ///
    /// Exactly [`dse_response`]'s.
    pub fn from_value(v: &Value) -> Result<Self, ApiError> {
        check_top_level_keys(v, Self::KEYS)?;
        let staged = parse_staged_options(v)?;
        let target = parse_dse_target(v)?;
        let cap = staged.map_or(limits::MAX_DSE_CANDIDATES, |_| {
            limits::MAX_DSE_STAGED_CANDIDATES
        });
        let archs = parse_dse_candidates(v, cap)?;
        Ok(DseRequest {
            target,
            archs,
            staged,
        })
    }

    /// Runs the sweep and hands the response to `sink`: the legacy sweep
    /// through [`clb_core::sweep_archs`] / [`clb_core::sweep_archs_network`]
    /// (deduplicated, thread-fanned, plan-cache amortized), the staged one
    /// through [`clb_core::staged_sweep_archs`] /
    /// [`clb_core::staged_sweep_archs_network`] (bound-pruned, with every
    /// frontier improvement passed to [`DseSink::progress`]).
    pub fn run<S: DseSink>(&self, mut sink: S) -> S::Output {
        let ranking = self.staged.map(|o| (o.objective, o.top_k));
        let submitted = self.archs.len();
        match &self.target {
            DseTarget::Layer(layer) => {
                let response = layer_sweep(layer, submitted, &self.archs, ranking, |p| {
                    sink.progress(&p);
                });
                sink.finish(response)
            }
            DseTarget::Network { net, batch } => {
                let echo = vec![
                    ("network".to_string(), net.name().to_value()),
                    ("batch".to_string(), batch.to_value()),
                ];
                let archs = &self.archs;
                let response = DseResponse::sweep(
                    echo,
                    submitted,
                    ranking,
                    || clb_core::sweep_archs_network(net, archs),
                    |objective, top_k| {
                        clb_core::staged_sweep_archs_network(net, archs, objective, top_k, |p| {
                            sink.progress(&p);
                        })
                    },
                );
                sink.finish(response)
            }
        }
    }
}

/// The layer-target sweep behind [`DseRequest::run`], [`dse_results`] and
/// [`dse_staged_results`].
fn layer_sweep(
    layer: &ConvLayer,
    submitted: usize,
    archs: &[ArchConfig],
    ranking: Option<(Objective, usize)>,
    progress: impl FnMut(StagedProgress<'_, LayerReport>),
) -> DseResponse<LayerReport> {
    DseResponse::sweep(
        vec![("layer".to_string(), layer.to_value())],
        submitted,
        ranking,
        || clb_core::sweep_archs("layer", layer, archs),
        |objective, top_k| {
            clb_core::staged_sweep_archs("layer", layer, archs, objective, top_k, progress)
        },
    )
}

/// The legacy layer-mode sweep behind `/v1/dse`, exposed for callers that
/// hold already validated candidates (such as `perfbench`'s traced
/// replay): evaluates them through [`clb_core::sweep_archs`] —
/// deduplicated, thread-fanned, plan-cache amortized — and shapes the
/// canonical response, which renders byte-identical to the endpoint's.
#[must_use]
pub fn dse_results(
    layer: &ConvLayer,
    submitted: usize,
    archs: &[ArchConfig],
) -> DseResponse<LayerReport> {
    layer_sweep(layer, submitted, archs, None, |_| {})
}

/// The staged layer-mode sweep behind `/v1/dse`, for already validated
/// candidates: bound-prunes through [`clb_core::staged_sweep_archs`] and
/// shapes the ranked frontier, which renders byte-identical to the
/// endpoint's. `progress` observes every frontier improvement (the chunked
/// transport and job polling are built on it); pass `|_| {}` when not
/// streaming.
pub fn dse_staged_results(
    layer: &ConvLayer,
    submitted: usize,
    archs: &[ArchConfig],
    objective: Objective,
    top_k: usize,
    progress: impl FnMut(StagedProgress<'_, LayerReport>),
) -> DseResponse<LayerReport> {
    layer_sweep(layer, submitted, archs, Some((objective, top_k)), progress)
}

/// The service's sink: reports each frontier improvement as `(processed,
/// pruned)`, then renders the body and its request-log fields.
struct Rendered<'a>(&'a mut dyn FnMut(usize, u64));

impl DseSink for Rendered<'_> {
    type Output = Result<(String, DseLogMeta), ApiError>;

    fn progress<R: DseReport>(&mut self, p: &StagedProgress<'_, R>) {
        (self.0)(p.processed, p.pruned);
    }

    fn finish<R: DseReport>(self, response: DseResponse<R>) -> Self::Output {
        Ok((render(&response)?, response.log_meta()))
    }
}

/// The chunked transport's sink: one snapshot line per frontier
/// improvement, then the rendered body.
struct Chunked<'a> {
    emit: &'a mut dyn FnMut(&str),
    top_k: usize,
}

impl DseSink for Chunked<'_> {
    type Output = Result<DseLogMeta, ApiError>;

    fn progress<R: DseReport>(&mut self, p: &StagedProgress<'_, R>) {
        if let Some(line) = snapshot_line(p, self.top_k) {
            (self.emit)(&line);
        }
    }

    fn finish<R: DseReport>(self, response: DseResponse<R>) -> Self::Output {
        (self.emit)(&render(&response)?);
        Ok(response.log_meta())
    }
}

/// One frontier snapshot as a single line of compact JSON (newline
/// terminated), so a chunked-transport client can parse improvement
/// events line by line before the final pretty-printed body arrives.
fn snapshot_line<R: SweepCost>(p: &StagedProgress<'_, R>, top_k: usize) -> Option<String> {
    let frontier: Vec<Value> = p
        .frontier
        .iter()
        .take(top_k)
        .map(|e| {
            let cycles = e.outcome.as_ref().ok().map(SweepCost::sweep_cycles);
            Value::Object(vec![
                ("arch".to_string(), e.arch.to_value()),
                ("total_cycles".to_string(), cycles.to_value()),
            ])
        })
        .collect();
    let snapshot = Value::Object(vec![
        ("processed".to_string(), Value::Number(p.processed as f64)),
        ("pruned".to_string(), Value::Number(p.pruned as f64)),
        ("kept".to_string(), Value::Number(frontier.len() as f64)),
        ("frontier".to_string(), Value::Array(frontier)),
    ]);
    serde_json::to_string(&snapshot).ok().map(|s| s + "\n")
}

/// The chunked-transport sweep. The whole request is validated *before*
/// the first emission, so every error surfaces while the server can still
/// answer with a plain status line; after that, `emit` receives one
/// single-line JSON frontier snapshot per improvement and, last, the exact
/// body the synchronous path would have returned — the final chunk of a
/// stream is byte-identical to the `"stream": false` response.
///
/// # Errors
///
/// Everything [`dse_response`] raises, all before the first `emit` call
/// (the final-body render is the lone post-emission fallible step and
/// cannot fail for shapes that already rendered snapshot lines).
pub fn dse_staged_stream(v: &Value, emit: &mut dyn FnMut(&str)) -> Result<DseLogMeta, ApiError> {
    let request = DseRequest::from_value(v)?;
    let top_k = request.staged.map_or(0, |o| o.top_k);
    request.run(Chunked { emit, top_k })
}

/// [`dse_staged_stream`] collected into a chunk list — what the fixtures,
/// tests and `clb dse --stream` consume; the server writes the same chunks
/// straight to the socket as `Transfer-Encoding: chunked` frames.
///
/// # Errors
///
/// Exactly [`dse_staged_stream`]'s.
pub fn dse_stream_chunks(v: &Value) -> Result<Vec<String>, ApiError> {
    let mut chunks = Vec::new();
    dse_staged_stream(v, &mut |chunk| chunks.push(chunk.to_string()))?;
    Ok(chunks)
}

/// The deterministic job id of a job-mode `/v1/dse` request: 16 hex digits
/// of FNV-1a 64 over the canonicalized (recursively key-sorted, compact)
/// request body. Identical requests — whatever their key order — name the
/// same job, which is what makes re-POSTing an accepted job idempotent.
///
/// # Errors
///
/// [`ApiError::Internal`] if the body cannot be re-serialized (cannot
/// happen for a value that parsed).
pub fn dse_job_id(v: &Value) -> Result<String, ApiError> {
    let canonical = serde_json::to_string(&Canonical(v))
        .map_err(|e| ApiError::Internal(format!("unrenderable job body: {e}")))?;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in "/v1/dse ".bytes().chain(canonical.bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    Ok(format!("{hash:016x}"))
}

/// A validated, not-yet-run job-mode `/v1/dse` request: everything the
/// server needs to accept the job immediately and run the sweep on a
/// background thread. Constructed by [`prepare_dse_job`].
pub struct DseJobSpec {
    /// The deterministic job id (see [`dse_job_id`]).
    pub id: String,
    request: DseRequest,
}

/// Validates a job-mode `/v1/dse` request end to end — staged options,
/// target, candidate expansion — *without* running the sweep, so a bad
/// request is rejected before a job is ever registered.
///
/// # Errors
///
/// Exactly [`dse_response`]'s validation errors.
pub fn prepare_dse_job(v: &Value) -> Result<DseJobSpec, ApiError> {
    let request = DseRequest::from_value(v)?;
    Ok(DseJobSpec {
        id: dse_job_id(v)?,
        request,
    })
}

impl DseJobSpec {
    /// The poll path of this job.
    #[must_use]
    pub fn poll_path(&self) -> String {
        format!("/v1/dse/jobs/{}", self.id)
    }

    /// The deterministic acceptance body the POST answers immediately.
    #[must_use]
    pub fn acceptance_body(&self) -> String {
        let body = Value::Object(vec![
            ("job".to_string(), Value::String(self.id.clone())),
            ("status".to_string(), Value::String("accepted".to_string())),
            ("poll".to_string(), Value::String(self.poll_path())),
        ]);
        serde_json::to_string_pretty(&body).unwrap_or_default()
    }

    /// The request-log fields of the acceptance response.
    #[must_use]
    pub fn meta(&self) -> DseLogMeta {
        DseLogMeta {
            candidates: self.request.archs.len(),
            pruned: 0,
            kept: 0,
            objective: self.request.staged.map(|o| o.objective),
        }
    }

    /// Runs the sweep to completion, reporting `(processed, pruned)`
    /// through `progress` for poll visibility. Returns the final poll
    /// response — the exact synchronous body on success — and the total
    /// pruned count for the stats counters.
    pub fn run(&self, progress: &mut dyn FnMut(usize, u64)) -> (Response, u64) {
        match self.request.run(Rendered(progress)) {
            Ok((body, meta)) => (Response::json(200, body), meta.pruned),
            Err(e) => (e.into_response(), 0),
        }
    }
}

/// The poll body of a still-running DSE job.
#[must_use]
pub fn dse_job_running_body(id: &str, processed: u64, pruned: u64) -> String {
    let body = Value::Object(vec![
        ("job".to_string(), Value::String(id.to_string())),
        ("status".to_string(), Value::String("running".to_string())),
        ("processed".to_string(), Value::Number(processed as f64)),
        ("pruned".to_string(), Value::Number(pruned as f64)),
    ]);
    serde_json::to_string_pretty(&body).unwrap_or_default()
}

/// Handles `POST /v1/dse` — layer mode (top-level layer-spec fields) or
/// network mode (`"target": {"network": ..., "batch": ...}`). Requests
/// carrying any of `objective`, `top_k`, `stream` take the staged
/// bound-pruned path with its [`limits::MAX_DSE_STAGED_CANDIDATES`] cap;
/// requests without them take the legacy evaluate-everything path, whose
/// response bytes and [`limits::MAX_DSE_CANDIDATES`] cap are unchanged.
///
/// # Errors
///
/// [`ApiError::BadRequest`] on malformed bodies (unknown top-level keys,
/// neither of `candidates`/`grid`, ill-typed fields, unknown grid axes,
/// `target` mixed with layer fields); [`ApiError::Unprocessable`] on
/// out-of-limit layers/batches, unknown network names, over-cap candidate
/// counts, invalid candidate architectures (naming the candidate and the
/// violated invariant), unknown objective/stream values and out-of-range
/// `top_k`.
pub fn dse_response(v: &Value) -> Result<String, ApiError> {
    dse_response_with_meta(v).map(|(body, _)| body)
}

/// [`dse_response`] plus the request-log metadata the server attaches to
/// the response (and caches with it, so cache hits log the same funnel).
///
/// # Errors
///
/// Exactly [`dse_response`]'s.
pub fn dse_response_with_meta(v: &Value) -> Result<(String, DseLogMeta), ApiError> {
    if stream_mode_hint(v) == StreamMode::Job {
        // The acceptance body is deterministic, so the pure handler
        // answers job mode too; the server layers the job table and the
        // background thread on top of this.
        let spec = prepare_dse_job(v)?;
        return Ok((spec.acceptance_body(), spec.meta()));
    }
    // Chunked is a transport hint; as a pure function the sweep returns
    // the same final body synchronously.
    DseRequest::from_value(v)?.run(Rendered(&mut |_, _| {}))
}
