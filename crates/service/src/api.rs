//! The JSON API: request schemas, response schemas and the endpoint
//! handlers that map one parsed request body to one response.
//!
//! Every analysis route has one typed request, parsed once from the body
//! ([`Endpoint::from_value`], [`DseRequest::from_value`]), and one run that
//! returns the typed response ([`Endpoint::run`], [`DseRequest::run`]); a
//! handler is parse → run → render. `clb`'s analysis verbs build the same
//! body from their flags and go through the same parse and run, so the CLI
//! prints the service's exact body with `--json true` and inherits its caps
//! and error messages.
//!
//! Handlers are pure functions of the request value — no sockets, no
//! threads — so the integration tests (and the throughput bench baseline)
//! call them directly and compare bytes against what the server returns.
//! Responses reuse the exact report structures of the library
//! ([`LayerReport`], [`NetworkReport`], [`DataflowChoice`]), serialized by
//! the same `serde_json` pretty printer.

use accel_sim::{ArchConfig, DramConfig, ExecutionTrace, SimError, SimStats, TraceOptions};
use clb_core::network_caps;
use clb_core::{Accelerator, LayerReport, NetworkReport, OnChipMemory};
use conv_model::workloads::Network;
use conv_model::{workloads, ConvLayer, Padding};
use dataflow::{search_all, DataflowChoice, DataflowKind, Tiling};
use serde::{Deserialize, Serialize, Serializer, Value};

use crate::http::Response;

mod dse;

pub use dse::*;

/// Upper bounds on request dimensions, so a single hostile query cannot
/// park a worker on an astronomically large search. Generous: the largest
/// real layer in the workload suite (AlexNet conv1, 224×224) fits with
/// room to spare. Architecture fields have their own caps
/// ([`accel_sim::caps`]), enforced by [`ArchConfig::validate`] at every
/// boundary that accepts an `arch` object.
pub mod limits {
    /// Max output channels / input channels.
    pub const MAX_CHANNELS: usize = 4096;
    /// Max spatial output size.
    pub const MAX_SIZE: usize = 1024;
    /// Max kernel size.
    pub const MAX_KERNEL: usize = 32;
    /// Max stride.
    pub const MAX_STRIDE: usize = 16;
    /// Max batch.
    pub const MAX_BATCH: usize = 64;
    /// Max on-chip memory in KiB.
    pub const MAX_MEM_KIB: f64 = 1_048_576.0; // 1 GiB on chip is beyond generous
    /// Max candidate architectures one *legacy* `/v1/dse` sweep may
    /// evaluate (explicit list length, or grid cardinality — checked
    /// before the grid is expanded). Legacy sweeps evaluate every
    /// candidate, so the cap is small.
    pub const MAX_DSE_CANDIDATES: usize = 256;
    /// Max candidates a *staged* `/v1/dse` sweep (any of `objective`,
    /// `top_k`, `stream` present) may stage. The staged engine
    /// bound-prunes before planning, so the cap is ~4000× the legacy one;
    /// grid cardinality is still u128-checked before expansion.
    pub const MAX_DSE_STAGED_CANDIDATES: usize = 1 << 20;
    /// Max frontier size (`top_k`) a staged sweep may keep.
    pub const MAX_DSE_TOP_K: usize = 1024;
    /// Frontier size when a staged request omits `top_k`.
    pub const DEFAULT_DSE_TOP_K: usize = 16;
}

/// A handler-level failure, carrying the response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// The request body is structurally wrong (400).
    BadRequest(String),
    /// The request parsed but names an impossible computation (422).
    Unprocessable(String),
    /// Serialization failed — should not happen (500).
    Internal(String),
}

impl ApiError {
    /// Renders the error as a JSON error response.
    #[must_use]
    pub fn into_response(self) -> Response {
        match self {
            ApiError::BadRequest(m) => Response::error(400, &m),
            ApiError::Unprocessable(m) => Response::error(422, &m),
            ApiError::Internal(m) => Response::error(500, &m),
        }
    }

    /// The same error with `prefix: ` prepended to its message (used to
    /// point at which DSE candidate or grid field was at fault).
    #[must_use]
    fn prefixed(self, prefix: &str) -> ApiError {
        match self {
            ApiError::BadRequest(m) => ApiError::BadRequest(format!("{prefix}: {m}")),
            ApiError::Unprocessable(m) => ApiError::Unprocessable(format!("{prefix}: {m}")),
            ApiError::Internal(m) => ApiError::Internal(format!("{prefix}: {m}")),
        }
    }
}

fn get_field<'a>(v: &'a Value, name: &str) -> Result<Option<&'a Value>, ApiError> {
    match v {
        Value::Object(fields) => Ok(fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, field)| field)),
        _ => Err(ApiError::BadRequest(
            "request body must be a JSON object".to_string(),
        )),
    }
}

/// The first key of the object `v` that is not in `known` (`None` for
/// non-objects, whose shape error the caller reports). Request objects
/// refuse unknown keys with a 400: with most fields optional, a typo would
/// otherwise silently analyze the defaults.
fn unknown_key<'a>(v: &'a Value, known: &[&str]) -> Option<&'a str> {
    let Value::Object(fields) = v else {
        return None;
    };
    fields
        .iter()
        .map(|(key, _)| key.as_str())
        .find(|key| !known.contains(key))
}

/// The layer-spec keys ([`LayerSpec`]'s fields), shared by the layer
/// endpoints and layer-mode `/v1/dse`.
const LAYER_KEYS: [&str; 6] = ["co", "size", "ci", "k", "stride", "batch"];

/// Refuses a request body whose top level carries a key outside `known`
/// (space-separated), with a 400 naming the key. Every endpoint runs it
/// before its other checks: with most fields optional, a typo (`"strid"`)
/// would otherwise silently analyze the default.
fn check_top_level_keys(v: &Value, known: &str) -> Result<(), ApiError> {
    let known: Vec<&str> = known.split(' ').collect();
    match unknown_key(v, &known) {
        None => Ok(()),
        Some(key) => Err(ApiError::BadRequest(format!(
            "unknown field `{key}` (expected one of {})",
            known.join(", ")
        ))),
    }
}

fn require<T: Deserialize>(v: &Value, name: &str) -> Result<T, ApiError> {
    match get_field(v, name)? {
        Some(field) => {
            T::from_value(field).map_err(|e| ApiError::BadRequest(format!("field `{name}`: {e}")))
        }
        None => Err(ApiError::BadRequest(format!(
            "missing required field `{name}`"
        ))),
    }
}

fn optional<T: Deserialize>(v: &Value, name: &str, default: T) -> Result<T, ApiError> {
    match get_field(v, name)? {
        None | Some(Value::Null) => Ok(default),
        Some(field) => {
            T::from_value(field).map_err(|e| ApiError::BadRequest(format!("field `{name}`: {e}")))
        }
    }
}

/// The square-layer geometry shared by `/v1/bound`, `/v1/sweep` and
/// `/v1/plan` — the same flags the CLI verbs take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LayerSpec {
    /// Output channels (required).
    pub co: usize,
    /// Output spatial size (required).
    pub size: usize,
    /// Input channels (required).
    pub ci: usize,
    /// Kernel size (default 3).
    pub k: usize,
    /// Stride (default 1).
    pub stride: usize,
    /// Batch (default 3).
    pub batch: usize,
}

impl LayerSpec {
    /// Parses the spec from a request body, applying the CLI defaults.
    ///
    /// # Errors
    ///
    /// [`ApiError::BadRequest`] on missing/ill-typed fields.
    pub fn from_value(v: &Value) -> Result<Self, ApiError> {
        Ok(LayerSpec {
            co: require(v, "co")?,
            size: require(v, "size")?,
            ci: require(v, "ci")?,
            k: optional(v, "k", 3)?,
            stride: optional(v, "stride", 1)?,
            batch: optional(v, "batch", 3)?,
        })
    }

    /// Validates the limits and constructs the layer.
    ///
    /// # Errors
    ///
    /// [`ApiError::Unprocessable`] when a dimension exceeds [`limits`] or
    /// the geometry is invalid.
    pub fn to_layer(&self) -> Result<ConvLayer, ApiError> {
        let within = self.co <= limits::MAX_CHANNELS
            && self.ci <= limits::MAX_CHANNELS
            && self.size <= limits::MAX_SIZE
            && self.k <= limits::MAX_KERNEL
            && self.stride <= limits::MAX_STRIDE
            && self.batch <= limits::MAX_BATCH;
        if !within {
            return Err(ApiError::Unprocessable(format!(
                "layer dimensions exceed service limits \
                 (co/ci ≤ {}, size ≤ {}, k ≤ {}, stride ≤ {}, batch ≤ {})",
                limits::MAX_CHANNELS,
                limits::MAX_SIZE,
                limits::MAX_KERNEL,
                limits::MAX_STRIDE,
                limits::MAX_BATCH,
            )));
        }
        ConvLayer::square(self.batch, self.co, self.size, self.ci, self.k, self.stride)
            .map_err(|e| ApiError::Unprocessable(e.to_string()))
    }
}

fn parse_mem_kib(v: &Value) -> Result<f64, ApiError> {
    let mem_kib: f64 = optional(v, "mem_kib", 66.5)?;
    if !mem_kib.is_finite() || mem_kib <= 0.0 || mem_kib > limits::MAX_MEM_KIB {
        return Err(ApiError::Unprocessable(format!(
            "mem_kib must be in (0, {}]",
            limits::MAX_MEM_KIB
        )));
    }
    Ok(mem_kib)
}

fn parse_implem(v: &Value) -> Result<usize, ApiError> {
    let implem: usize = optional(v, "implem", 1)?;
    if !(1..=5).contains(&implem) {
        return Err(ApiError::Unprocessable(
            "implem must be 1..=5 (the Table I implementations)".to_string(),
        ));
    }
    Ok(implem)
}

/// Parses a full custom-architecture object. Every field is optional and
/// defaults to the corresponding Table I implementation 1 value, so a
/// what-if request only spells out what it changes:
///
/// ```json
/// {"pe_rows": 24, "pe_cols": 24, "igbuf_entries": 3072,
///  "dram": {"bandwidth_bytes_per_s": 12.8e9}}
/// ```
///
/// The resulting configuration is validated against the structural
/// invariants and the [`accel_sim::caps`] limits before anything touches
/// it, so hostile field values (zero, huge, overflowing, non-finite) come
/// back as a typed 422 naming the violated invariant rather than
/// panicking, hanging or exploding the block grid. Unknown fields are
/// rejected (400): because every field is optional, a typo would otherwise
/// silently evaluate the default architecture and the caller would trust
/// numbers for a design it never specified.
///
/// # Errors
///
/// [`ApiError::BadRequest`] when the value is not an object, a field is
/// ill-typed or unknown; [`ApiError::Unprocessable`] when the
/// configuration fails [`ArchConfig::validate`].
pub fn arch_from_value(v: &Value) -> Result<ArchConfig, ApiError> {
    const ARCH_KEYS: [&str; 11] = [
        "pe_rows",
        "pe_cols",
        "group_rows",
        "group_cols",
        "lreg_entries_per_pe",
        "igbuf_entries",
        "wgbuf_entries",
        "greg_bytes",
        "greg_segment_entries",
        "core_freq_hz",
        "dram",
    ];
    if !matches!(v, Value::Object(_)) {
        return Err(ApiError::BadRequest(
            "`arch` must be a JSON object".to_string(),
        ));
    }
    if let Some(key) = unknown_key(v, &ARCH_KEYS) {
        return Err(ApiError::BadRequest(format!(
            "unknown arch field `{key}` (expected one of {})",
            ARCH_KEYS.join(", ")
        )));
    }
    let base = ArchConfig::implementation(1);
    let dram = match get_field(v, "dram")? {
        None | Some(Value::Null) => base.dram,
        Some(d) => {
            if !matches!(d, Value::Object(_)) {
                return Err(ApiError::BadRequest(
                    "`arch.dram` must be a JSON object".to_string(),
                ));
            }
            if let Some(key) = unknown_key(d, &["bandwidth_bytes_per_s", "latency_cycles"]) {
                return Err(ApiError::BadRequest(format!(
                    "unknown arch.dram field `{key}` \
                     (expected bandwidth_bytes_per_s, latency_cycles)"
                )));
            }
            DramConfig {
                bandwidth_bytes_per_s: optional(
                    d,
                    "bandwidth_bytes_per_s",
                    base.dram.bandwidth_bytes_per_s,
                )?,
                latency_cycles: optional(d, "latency_cycles", base.dram.latency_cycles)?,
            }
        }
    };
    let arch = ArchConfig {
        pe_rows: optional(v, "pe_rows", base.pe_rows)?,
        pe_cols: optional(v, "pe_cols", base.pe_cols)?,
        group_rows: optional(v, "group_rows", base.group_rows)?,
        group_cols: optional(v, "group_cols", base.group_cols)?,
        lreg_entries_per_pe: optional(v, "lreg_entries_per_pe", base.lreg_entries_per_pe)?,
        igbuf_entries: optional(v, "igbuf_entries", base.igbuf_entries)?,
        wgbuf_entries: optional(v, "wgbuf_entries", base.wgbuf_entries)?,
        greg_bytes: optional(v, "greg_bytes", base.greg_bytes)?,
        greg_segment_entries: optional(v, "greg_segment_entries", base.greg_segment_entries)?,
        core_freq_hz: optional(v, "core_freq_hz", base.core_freq_hz)?,
        dram,
    };
    arch.validate()
        .map_err(|m| ApiError::Unprocessable(format!("invalid arch: {m}")))?;
    Ok(arch)
}

/// Which architecture a request names: a Table I preset (`implem`,
/// default 1) or a full custom `arch` object. Every endpoint that accepted
/// an `implem` index accepts the `arch` alternative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArchChoice {
    /// A Table I implementation index (1..=5).
    Implem(usize),
    /// A validated custom architecture.
    Custom(ArchConfig),
}

impl ArchChoice {
    /// The concrete configuration either way.
    #[must_use]
    pub fn arch(&self) -> ArchConfig {
        match self {
            ArchChoice::Implem(i) => ArchConfig::implementation(*i),
            ArchChoice::Custom(a) => *a,
        }
    }
}

/// Parses the `implem`-or-`arch` selection shared by `/v1/plan`,
/// `/v1/simulate` and `/v1/network`.
fn parse_arch_choice(v: &Value) -> Result<ArchChoice, ApiError> {
    match get_field(v, "arch")? {
        None | Some(Value::Null) => Ok(ArchChoice::Implem(parse_implem(v)?)),
        Some(obj) => {
            if !matches!(get_field(v, "implem")?, None | Some(Value::Null)) {
                return Err(ApiError::BadRequest(
                    "specify either `implem` or `arch`, not both".to_string(),
                ));
            }
            Ok(ArchChoice::Custom(arch_from_value(obj)?))
        }
    }
}

/// Parses the memory selection of `/v1/bound` and `/v1/sweep`: either
/// `mem_kib` directly, or an `arch` object whose *effective on-chip
/// memory* (LRegs + GBufs, the paper's `S`) supplies it.
fn parse_mem_choice(v: &Value) -> Result<f64, ApiError> {
    match get_field(v, "arch")? {
        None | Some(Value::Null) => parse_mem_kib(v),
        Some(obj) => {
            if !matches!(get_field(v, "mem_kib")?, None | Some(Value::Null)) {
                return Err(ApiError::BadRequest(
                    "specify either `mem_kib` or `arch`, not both".to_string(),
                ));
            }
            let arch = arch_from_value(obj)?;
            Ok(arch.effective_onchip_bytes() as f64 / 1024.0)
        }
    }
}

fn render<T: Serialize>(value: &T) -> Result<String, ApiError> {
    serde_json::to_string_pretty(value).map_err(|e| ApiError::Internal(e.to_string()))
}

/// A parsed body that renders with every object's keys sorted,
/// recursively, so two spellings of the same JSON value render to the same
/// canonical string (the shim's `Value::Object` preserves client field
/// order) — the basis of the server's response-cache key and of
/// [`dse_job_id`]. It borrows the tree: rendering sorts references to each
/// object's fields and copies nothing.
pub(crate) struct Canonical<'a>(pub(crate) &'a Value);

impl Serialize for Canonical<'_> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        match self.0 {
            Value::Array(items) => {
                out.begin_array();
                for item in items {
                    Canonical(item).serialize(out);
                }
                out.end_array();
            }
            Value::Object(fields) => {
                let mut sorted: Vec<&(String, Value)> = fields.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                out.begin_object();
                for (key, value) in sorted {
                    out.key(key);
                    Canonical(value).serialize(out);
                }
                out.end_object();
            }
            scalar => scalar.serialize(out),
        }
    }
}

/// How `/v1/simulate` and `/v1/plan` render a requested execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The structured [`ExecutionTrace`] under a trailing `trace` field.
    Json,
    /// A VCD waveform string under a trailing `vcd` field (implies the
    /// per-block expansion — a waveform needs a timeline, not a histogram).
    Vcd,
}

/// A parsed `trace` request option: which format, and whether the
/// per-block expansion was asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRequest {
    /// Requested rendering.
    pub format: TraceFormat,
    /// Whether the per-block expansion is on (forced on by VCD).
    pub expand: bool,
}

const TRACE_KEYS: [&str; 2] = ["format", "expand"];

/// Parses the optional `trace` object shared by `/v1/simulate` and
/// `/v1/plan`. Absent or `null` means no trace (the response bytes stay
/// exactly as before the trace feature existed).
fn parse_trace_request(v: &Value) -> Result<Option<TraceRequest>, ApiError> {
    let obj = match get_field(v, "trace")? {
        None | Some(Value::Null) => return Ok(None),
        Some(obj @ Value::Object(_)) => {
            if let Some(key) = unknown_key(obj, &TRACE_KEYS) {
                return Err(ApiError::BadRequest(format!(
                    "unknown `trace` field `{key}` (allowed: {})",
                    TRACE_KEYS.join(", ")
                )));
            }
            obj
        }
        Some(_) => {
            return Err(ApiError::BadRequest(
                "field `trace` must be an object like {\"format\": \"json\"|\"vcd\", \
                 \"expand\": bool}"
                    .to_string(),
            ))
        }
    };
    let format_name: String = optional(obj, "format", "json".to_string())?;
    let format = match format_name.as_str() {
        "json" => TraceFormat::Json,
        "vcd" => TraceFormat::Vcd,
        other => {
            return Err(ApiError::Unprocessable(format!(
                "unknown trace format `{other}` (json|vcd)"
            )))
        }
    };
    let expand: bool = optional(obj, "expand", false)?;
    Ok(Some(TraceRequest {
        format,
        expand: expand || format == TraceFormat::Vcd,
    }))
}

/// A requested execution trace, rendered as the request asked.
#[derive(Debug, Clone)]
pub enum TraceOutput {
    /// The structured trace, rendered under a trailing `trace` field.
    Json(ExecutionTrace),
    /// The VCD waveform, rendered under a trailing `vcd` field.
    Vcd(String),
}

/// A response plus the trace its request asked for. The trace renders as
/// one trailing top-level field — appended rather than an optional field of
/// the response structs, so every untraced response keeps its exact
/// pre-trace wire bytes.
#[derive(Debug, Clone)]
pub struct Traced<T> {
    /// The response proper.
    pub response: T,
    /// The requested trace, `None` when the request asked for none.
    pub trace: Option<TraceOutput>,
}

impl<T: Serialize> Serialize for Traced<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        let Some(trace) = &self.trace else {
            return self.response.serialize(out);
        };
        let mut value = self.response.to_value();
        if let Value::Object(fields) = &mut value {
            fields.push(match trace {
                TraceOutput::Json(trace) => ("trace".to_string(), trace.to_value()),
                TraceOutput::Vcd(vcd) => ("vcd".to_string(), Value::String(vcd.clone())),
            });
        }
        value.serialize(out);
    }
}

/// Runs `plain`, or — when a trace was requested — `traced` under the
/// request's options, rendering the trace as asked. Analysis failures are
/// 422s carrying the simulator's diagnosis (an over-cap trace names the cap,
/// checked before any expansion is allocated).
fn run_traced<T>(
    request: Option<TraceRequest>,
    plain: impl FnOnce() -> Result<T, SimError>,
    traced: impl FnOnce(&TraceOptions) -> Result<(T, ExecutionTrace), SimError>,
) -> Result<(T, Option<TraceOutput>), ApiError> {
    let Some(request) = request else {
        return Ok((plain().map_err(unprocessable)?, None));
    };
    let options = TraceOptions {
        expand: request.expand,
    };
    let (value, trace) = traced(&options).map_err(unprocessable)?;
    let output = match request.format {
        TraceFormat::Json => TraceOutput::Json(trace),
        TraceFormat::Vcd => TraceOutput::Vcd(trace.to_vcd().ok_or_else(|| {
            ApiError::Internal("VCD rendering requires an expanded trace".to_string())
        })?),
    };
    Ok((value, Some(output)))
}

fn unprocessable(e: SimError) -> ApiError {
    ApiError::Unprocessable(e.to_string())
}

/// A `/v1/plan` or `/v1/simulate` response for either architecture choice:
/// the preset wire struct `P`, echoing `implementation`, or its twin `A`,
/// echoing the custom `arch`. Preset responses keep their exact
/// pre-existing bytes.
#[derive(Debug, Clone)]
pub enum Echo<P, A> {
    /// Run on a Table I implementation.
    Implem(P),
    /// Run on a custom architecture.
    Custom(A),
}

impl<P: Serialize, A: Serialize> Serialize for Echo<P, A> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        match self {
            Echo::Implem(preset) => preset.serialize(out),
            Echo::Custom(custom) => custom.serialize(out),
        }
    }
}

/// One analysis route, in the shape every endpoint shares with `/v1/dse`: a
/// body parses once into the typed request ([`Endpoint::from_value`]), the
/// request runs once into the typed response ([`Endpoint::run`]), and the
/// response's serialization is the wire body. `clb`'s analysis verbs build
/// the same body from their flags and make the same two calls, so the CLI
/// and the service share one parser, one set of caps and one vocabulary of
/// errors.
pub trait Endpoint: Sized {
    /// The top-level keys a body may carry, space-separated; any other is a
    /// 400 naming it, checked before anything else.
    const KEYS: &'static str;
    /// The typed response.
    type Response: Serialize;

    /// Parses and validates a body — the only parse it gets.
    ///
    /// # Errors
    ///
    /// [`ApiError::BadRequest`] on unknown keys and missing or ill-typed
    /// fields; [`ApiError::Unprocessable`] on out-of-limit values.
    fn from_value(v: &Value) -> Result<Self, ApiError>;

    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// [`ApiError::Unprocessable`] when the analysis is impossible (no
    /// tiling fits, an infeasible blocking, an over-cap trace).
    fn run(&self) -> Result<Self::Response, ApiError>;
}

/// `POST /v1/bound` — the communication lower bounds of one layer
/// (mirrors `clb bound`).
#[derive(Debug, Clone, Serialize)]
pub struct BoundResponse {
    /// Echo of the analyzed layer.
    pub layer: ConvLayer,
    /// Effective on-chip memory in KiB.
    pub mem_kib: f64,
    /// Multiply-accumulates in the layer.
    pub macs: u64,
    /// Window reuse factor `R`.
    pub window_reuse: f64,
    /// Theorem 2 asymptotic bound, in bytes.
    pub theorem2_bytes: f64,
    /// Eq. 15 practical bound, in bytes.
    pub bound_bytes: f64,
    /// No-reuse (naive) traffic, in bytes.
    pub naive_bytes: f64,
    /// `sqrt(R·S)` reduction factor versus naive.
    pub reduction_factor: f64,
}

/// A parsed `/v1/bound` body: one layer at one on-chip memory size.
#[derive(Debug, Clone, Copy)]
pub struct BoundRequest {
    /// The analyzed layer.
    pub layer: ConvLayer,
    /// On-chip memory in KiB: `mem_kib` (default 66.5), or the effective
    /// on-chip memory (LRegs + GBufs, the paper's `S`) of an `arch` object.
    pub mem_kib: f64,
}

impl Endpoint for BoundRequest {
    const KEYS: &'static str = "co size ci k stride batch mem_kib arch";
    type Response = BoundResponse;

    fn from_value(v: &Value) -> Result<Self, ApiError> {
        check_top_level_keys(v, Self::KEYS)?;
        Ok(BoundRequest {
            layer: LayerSpec::from_value(v)?.to_layer()?,
            mem_kib: parse_mem_choice(v)?,
        })
    }

    fn run(&self) -> Result<BoundResponse, ApiError> {
        let (layer, mem) = (self.layer, OnChipMemory::from_kib(self.mem_kib));
        Ok(BoundResponse {
            layer,
            mem_kib: self.mem_kib,
            macs: layer.macs(),
            window_reuse: layer.window_reuse(),
            theorem2_bytes: comm_bound::theorem2_dram_words(&layer, mem) * 2.0,
            bound_bytes: comm_bound::dram_bound_bytes(&layer, mem),
            naive_bytes: comm_bound::naive_dram_words(&layer) * 2.0,
            reduction_factor: comm_bound::reduction_factor(&layer, mem),
        })
    }
}

/// Handles `POST /v1/bound`: parse → run → render.
///
/// # Errors
///
/// [`ApiError`] on malformed or out-of-limit requests.
pub fn bound_response(v: &Value) -> Result<String, ApiError> {
    render(&BoundRequest::from_value(v)?.run()?)
}

/// One dataflow's entry in a [`SweepResponse`].
#[derive(Debug, Clone, Serialize)]
pub struct SweepEntry {
    /// The dataflow.
    pub kind: DataflowKind,
    /// The paper's figure label for it.
    pub name: String,
    /// Best tiling and traffic, or `null` when infeasible at this memory.
    pub choice: Option<DataflowChoice>,
}

/// `POST /v1/sweep` — every dataflow's best tiling at one memory size
/// (mirrors `clb sweep`).
#[derive(Debug, Clone, Serialize)]
pub struct SweepResponse {
    /// Echo of the analyzed layer.
    pub layer: ConvLayer,
    /// Effective on-chip memory in KiB.
    pub mem_kib: f64,
    /// Eq. 15 practical bound, in bytes.
    pub bound_bytes: f64,
    /// The best dataflow × tiling (the paper's "found minimum").
    pub found_minimum: DataflowChoice,
    /// Per-dataflow results, in [`DataflowKind::ALL`] order.
    pub dataflows: Vec<SweepEntry>,
}

/// A parsed `/v1/sweep` body: the [`BoundRequest`] fields, with memory
/// for at least the paper dataflow's unit tiling.
#[derive(Debug, Clone, Copy)]
pub struct SweepRequest(pub BoundRequest);

impl Endpoint for SweepRequest {
    const KEYS: &'static str = BoundRequest::KEYS;
    type Response = SweepResponse;

    fn from_value(v: &Value) -> Result<Self, ApiError> {
        let request = BoundRequest::from_value(v)?;
        // Below the unit tiling's working set no tiling of the paper's
        // dataflow fits, and its search has no answer.
        let layer = &request.layer;
        let unit = Tiling::clamped(layer, 1, 1, 1, 1);
        if !unit.fits(layer, OnChipMemory::from_kib(request.mem_kib)) {
            let words = unit.onchip_words(layer);
            return Err(ApiError::Unprocessable(format!(
                "mem_kib must be at least {} for this layer: the unit tiling of \
                 the paper's dataflow needs {words} words (1 + 2·Kh·Kw)",
                (words * conv_model::BYTES_PER_WORD) as f64 / 1024.0
            )));
        }
        Ok(SweepRequest(request))
    }

    fn run(&self) -> Result<SweepResponse, ApiError> {
        let BoundRequest { layer, mem_kib } = self.0;
        let mem = OnChipMemory::from_kib(mem_kib);
        let searches = search_all(&layer, mem);
        let dataflows = DataflowKind::ALL
            .iter()
            .zip(searches.choices)
            .map(|(&kind, choice)| SweepEntry {
                kind,
                name: kind.name().to_string(),
                choice,
            })
            .collect();
        Ok(SweepResponse {
            layer,
            mem_kib,
            bound_bytes: comm_bound::dram_bound_bytes(&layer, mem),
            found_minimum: searches.minimum,
            dataflows,
        })
    }
}

/// Handles `POST /v1/sweep`.
///
/// # Errors
///
/// [`ApiError`] on malformed or out-of-limit requests.
pub fn sweep_response(v: &Value) -> Result<String, ApiError> {
    render(&SweepRequest::from_value(v)?.run()?)
}

/// `POST /v1/plan` — plan → simulate → bound → energy for one layer on one
/// Table I implementation (mirrors `clb plan`; the report is the same
/// structure `clb --json` emits).
#[derive(Debug, Clone, Serialize)]
pub struct PlanResponse {
    /// Which Table I implementation analyzed the layer.
    pub implementation: usize,
    /// The full layer report.
    pub report: LayerReport,
}

/// The custom-architecture variant of [`PlanResponse`]: the same report,
/// echoing the full `arch` object instead of a Table I index. Preset
/// (`implem`) requests keep the exact pre-existing [`PlanResponse`] wire
/// bytes.
#[derive(Debug, Clone, Serialize)]
pub struct ArchPlanResponse {
    /// The custom architecture that analyzed the layer.
    pub arch: ArchConfig,
    /// The full layer report.
    pub report: LayerReport,
}

/// A parsed `/v1/plan` body.
#[derive(Debug, Clone, Copy)]
pub struct PlanRequest {
    /// The layer to plan.
    pub layer: ConvLayer,
    /// The Table I preset or custom architecture that runs it.
    pub choice: ArchChoice,
    /// The requested execution trace, if any.
    pub trace: Option<TraceRequest>,
}

impl Endpoint for PlanRequest {
    const KEYS: &'static str = "co size ci k stride batch implem arch trace";
    type Response = Traced<Echo<PlanResponse, ArchPlanResponse>>;

    fn from_value(v: &Value) -> Result<Self, ApiError> {
        check_top_level_keys(v, Self::KEYS)?;
        Ok(PlanRequest {
            layer: LayerSpec::from_value(v)?.to_layer()?,
            choice: parse_arch_choice(v)?,
            trace: parse_trace_request(v)?,
        })
    }

    fn run(&self) -> Result<Self::Response, ApiError> {
        let acc = Accelerator::new(self.choice.arch());
        let (report, trace) = run_traced(
            self.trace,
            || acc.analyze_layer("layer", &self.layer),
            |options| acc.analyze_layer_traced("layer", &self.layer, options),
        )?;
        let response = match self.choice {
            ArchChoice::Implem(implementation) => Echo::Implem(PlanResponse {
                implementation,
                report,
            }),
            ArchChoice::Custom(arch) => Echo::Custom(ArchPlanResponse { arch, report }),
        };
        Ok(Traced { response, trace })
    }
}

/// Handles `POST /v1/plan`.
///
/// # Errors
///
/// [`ApiError`] on malformed or out-of-limit requests, when no tiling of
/// the dataflow fits the implementation/architecture (422), or when a
/// requested trace exceeds the trace caps (422).
pub fn plan_response(v: &Value) -> Result<String, ApiError> {
    render(&PlanRequest::from_value(v)?.run()?)
}

/// `POST /v1/simulate` — the cycle simulator on an *explicit, user-supplied*
/// tiling (mirrors `clb simulate`). Unlike `/v1/plan`, which simulates the
/// planner's choice, this runs any `{b, z, y, x}` blocking the caller asks
/// for — what-if analysis of hand-rolled or externally-planned tilings.
///
/// Request: the layer-spec fields plus `implem` (default 1) and a required
/// `tiling` object `{"b": .., "z": .., "y": .., "x": ..}`. Zero or
/// oversized tiling dimensions are rejected with 422 *before* the block
/// grid is walked ([`Tiling::validate_for`]); structurally infeasible
/// tilings (GBuf overflow, unmappable blocks) also come back as 422 with
/// the simulator's own diagnosis.
#[derive(Debug, Clone, Serialize)]
pub struct SimulateResponse {
    /// Which Table I implementation ran the simulation.
    pub implementation: usize,
    /// Echo of the simulated layer.
    pub layer: ConvLayer,
    /// Echo of the simulated tiling.
    pub tiling: Tiling,
    /// Every counter the simulator collects.
    pub stats: SimStats,
    /// Total execution cycles (compute + unhidden stalls).
    pub total_cycles: u64,
    /// Execution time at the implementation's core clock.
    pub seconds: f64,
}

/// The custom-architecture variant of [`SimulateResponse`], echoing the
/// full `arch` object instead of a Table I index.
#[derive(Debug, Clone, Serialize)]
pub struct ArchSimulateResponse {
    /// The custom architecture that ran the simulation.
    pub arch: ArchConfig,
    /// Echo of the simulated layer.
    pub layer: ConvLayer,
    /// Echo of the simulated tiling.
    pub tiling: Tiling,
    /// Every counter the simulator collects.
    pub stats: SimStats,
    /// Total execution cycles (compute + unhidden stalls).
    pub total_cycles: u64,
    /// Execution time at the architecture's core clock.
    pub seconds: f64,
}

/// A parsed `/v1/simulate` body.
#[derive(Debug, Clone, Copy)]
pub struct SimulateRequest {
    /// The layer to simulate.
    pub layer: ConvLayer,
    /// The Table I preset or custom architecture that runs it.
    pub choice: ArchChoice,
    /// The caller's blocking (`simulate` itself rejects zero or oversized
    /// dimensions before touching the block grid).
    pub tiling: Tiling,
    /// The requested execution trace, if any.
    pub trace: Option<TraceRequest>,
}

impl Endpoint for SimulateRequest {
    const KEYS: &'static str = "co size ci k stride batch implem arch tiling trace";
    type Response = Traced<Echo<SimulateResponse, ArchSimulateResponse>>;

    fn from_value(v: &Value) -> Result<Self, ApiError> {
        check_top_level_keys(v, Self::KEYS)?;
        Ok(SimulateRequest {
            layer: LayerSpec::from_value(v)?.to_layer()?,
            choice: parse_arch_choice(v)?,
            tiling: require(v, "tiling")?,
            trace: parse_trace_request(v)?,
        })
    }

    fn run(&self) -> Result<Self::Response, ApiError> {
        let (layer, tiling, arch) = (self.layer, self.tiling, self.choice.arch());
        let (stats, trace) = run_traced(
            self.trace,
            || accel_sim::simulate(&layer, &tiling, &arch),
            |options| accel_sim::simulate_traced(&layer, &tiling, &arch, options),
        )?;
        let (total_cycles, seconds) = (stats.total_cycles(), stats.seconds(arch.core_freq_hz));
        let response = match self.choice {
            ArchChoice::Implem(implementation) => Echo::Implem(SimulateResponse {
                implementation,
                layer,
                tiling,
                stats,
                total_cycles,
                seconds,
            }),
            ArchChoice::Custom(arch) => Echo::Custom(ArchSimulateResponse {
                arch,
                layer,
                tiling,
                stats,
                total_cycles,
                seconds,
            }),
        };
        Ok(Traced { response, trace })
    }
}

/// Handles `POST /v1/simulate`.
///
/// # Errors
///
/// [`ApiError`] on malformed or out-of-limit requests (400), and on
/// invalid architectures, invalid/zero tilings or simulation-infeasible
/// blockings (422).
pub fn simulate_response(v: &Value) -> Result<String, ApiError> {
    render(&SimulateRequest::from_value(v)?.run()?)
}

/// Builds the named workload at the given batch — the network vocabulary
/// shared by `/v1/network` and network-mode `/v1/dse` (and their CLI
/// mirrors), so the two endpoints can never accept different model names.
///
/// # Errors
///
/// [`ApiError::Unprocessable`] on an unknown name or an out-of-limit batch.
pub fn network_by_name(name: &str, batch: usize) -> Result<Network, ApiError> {
    if !(1..=limits::MAX_BATCH).contains(&batch) {
        return Err(ApiError::Unprocessable(format!(
            "batch must be 1..={}",
            limits::MAX_BATCH
        )));
    }
    match name {
        "vgg16" => Ok(workloads::vgg16(batch)),
        "alexnet" => Ok(workloads::alexnet(batch)),
        "resnet50" => Ok(workloads::resnet50(batch)),
        "inception" => Ok(workloads::inception_module(batch, 28, 192)),
        "fc" => Ok(workloads::fc_stack(batch)),
        other => Err(ApiError::Unprocessable(format!(
            "unknown network `{other}` \
             (vgg16|alexnet|resnet50|inception|fc, or a custom network object)"
        ))),
    }
}

const NETWORK_KEYS: [&str; 3] = ["name", "batch", "layers"];
const NETWORK_LAYER_KEYS: [&str; 9] = [
    "name", "co", "ci", "size", "h", "w", "kernel", "stride", "padding",
];

/// One parsed-but-not-yet-built layer of a custom network: every cap is
/// checked — and the MAC count computed, in `u128` — on these raw numbers
/// *before* a [`ConvLayer`] is constructed, so hostile dimensions can never
/// reach the builder's (or the model's) `usize`/`u64` arithmetic.
#[derive(Debug, Clone)]
struct NetLayerSpec {
    name: String,
    co: usize,
    ci: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: Padding,
}

impl NetLayerSpec {
    /// Parses `layers[index]` of a custom network object. Structural
    /// problems (wrong types, unknown fields, missing geometry) are 400s;
    /// every cap violation is a 422 naming the violated invariant, prefixed
    /// with the layer's position.
    fn from_value(v: &Value, index: usize) -> Result<Self, ApiError> {
        let at = |e: ApiError| e.prefixed(&format!("layers[{index}]"));
        if !matches!(v, Value::Object(_)) {
            return Err(ApiError::BadRequest(format!(
                "layers[{index}] must be a JSON object"
            )));
        }
        if let Some(key) = unknown_key(v, &NETWORK_LAYER_KEYS) {
            return Err(ApiError::BadRequest(format!(
                "layers[{index}]: unknown layer field `{key}` (expected one of {})",
                NETWORK_LAYER_KEYS.join(", ")
            )));
        }
        let name: String = optional(v, "name", format!("conv{}", index + 1)).map_err(at)?;
        let co: usize = require(v, "co").map_err(at)?;
        let ci: usize = require(v, "ci").map_err(at)?;
        let size = get_field(v, "size")?.filter(|f| !matches!(f, Value::Null));
        let h_field = get_field(v, "h")?.filter(|f| !matches!(f, Value::Null));
        let w_field = get_field(v, "w")?.filter(|f| !matches!(f, Value::Null));
        let (h, w) = match (size, h_field.is_some() || w_field.is_some()) {
            (Some(_), true) => {
                return Err(ApiError::BadRequest(format!(
                    "layers[{index}]: specify either `size` or `h`/`w`, not both"
                )))
            }
            (Some(_), false) => {
                let s: usize = require(v, "size").map_err(at)?;
                (s, s)
            }
            (None, _) => {
                if h_field.is_none() || w_field.is_none() {
                    return Err(ApiError::BadRequest(format!(
                        "layers[{index}]: specify the input as `size` \
                         or as both `h` and `w`"
                    )));
                }
                (require(v, "h").map_err(at)?, require(v, "w").map_err(at)?)
            }
        };
        let kernel: usize = optional(v, "kernel", 3).map_err(at)?;
        let stride: usize = optional(v, "stride", 1).map_err(at)?;
        let padding = match get_field(v, "padding")? {
            None | Some(Value::Null) => Padding::same(kernel),
            Some(Value::String(s)) => match s.as_str() {
                "same" => Padding::same(kernel),
                "none" => Padding::none(),
                other => {
                    return Err(ApiError::Unprocessable(format!(
                        "layers[{index}]: unknown padding `{other}` \
                         (same|none|an explicit cell count)"
                    )))
                }
            },
            Some(n @ Value::Number(_)) => {
                let cells = usize::from_value(n).map_err(|e| {
                    ApiError::BadRequest(format!("layers[{index}]: field `padding`: {e}"))
                })?;
                Padding {
                    vertical: cells,
                    horizontal: cells,
                }
            }
            Some(_) => {
                return Err(ApiError::BadRequest(format!(
                    "layers[{index}]: `padding` must be \"same\", \"none\" \
                     or a non-negative integer"
                )))
            }
        };
        let spec = NetLayerSpec {
            name,
            co,
            ci,
            h,
            w,
            kernel,
            stride,
            padding,
        };
        spec.check_caps(index)?;
        Ok(spec)
    }

    /// The limits-style cap checks, each 422 naming the violated invariant.
    /// Runs before [`Self::macs_u128`] so the geometry arithmetic there is
    /// bounded, and before [`Self::build`] so no out-of-cap layer is ever
    /// constructed.
    fn check_caps(&self, index: usize) -> Result<(), ApiError> {
        let bad = |m: String| Err(ApiError::Unprocessable(format!("layers[{index}]: {m}")));
        if !(1..=limits::MAX_CHANNELS).contains(&self.co) {
            return bad(format!("co must be 1..={}", limits::MAX_CHANNELS));
        }
        if !(1..=limits::MAX_CHANNELS).contains(&self.ci) {
            return bad(format!("ci must be 1..={}", limits::MAX_CHANNELS));
        }
        if !(1..=limits::MAX_SIZE).contains(&self.h) || !(1..=limits::MAX_SIZE).contains(&self.w) {
            return bad(format!("input size must be 1..={}", limits::MAX_SIZE));
        }
        if !(1..=limits::MAX_KERNEL).contains(&self.kernel) {
            return bad(format!("kernel must be 1..={}", limits::MAX_KERNEL));
        }
        if !(1..=limits::MAX_STRIDE).contains(&self.stride) {
            return bad(format!("stride must be 1..={}", limits::MAX_STRIDE));
        }
        if self.padding.vertical > limits::MAX_KERNEL
            || self.padding.horizontal > limits::MAX_KERNEL
        {
            return bad(format!("padding must be ≤ {}", limits::MAX_KERNEL));
        }
        let k = self.kernel as u128;
        if k > self.h as u128 + 2 * self.padding.vertical as u128
            || k > self.w as u128 + 2 * self.padding.horizontal as u128
        {
            return bad("kernel does not fit the padded input".to_string());
        }
        Ok(())
    }

    /// Output extent along one axis, in `u128` (capped inputs make the
    /// subtraction safe — [`Self::check_caps`] ran first).
    fn out_extent(input: usize, pad: usize, kernel: usize, stride: usize) -> u128 {
        (input as u128 + 2 * pad as u128 - kernel as u128) / stride as u128 + 1
    }

    /// This layer's MAC count at the given batch, computed in `u128` from
    /// the raw request numbers — never through [`ConvLayer::macs`]'s `u64`
    /// arithmetic.
    fn macs_u128(&self, batch: usize) -> u128 {
        let oh = Self::out_extent(self.h, self.padding.vertical, self.kernel, self.stride);
        let ow = Self::out_extent(self.w, self.padding.horizontal, self.kernel, self.stride);
        batch as u128
            * oh
            * ow
            * self.co as u128
            * self.kernel as u128
            * self.kernel as u128
            * self.ci as u128
    }

    /// Constructs the layer through [`ConvLayer::builder`] — the same path
    /// the presets use, so a custom layer equal to a preset layer is the
    /// *same* [`ConvLayer`] value.
    fn build(&self, batch: usize, index: usize) -> Result<ConvLayer, ApiError> {
        ConvLayer::builder()
            .batch(batch)
            .out_channels(self.co)
            .in_channels(self.ci)
            .input(self.h, self.w)
            .kernel(self.kernel, self.kernel)
            .stride(self.stride)
            .padding(self.padding)
            .build()
            .map_err(|e| ApiError::Unprocessable(format!("layers[{index}]: {e}")))
    }
}

/// Parses a full user-supplied network object — the custom alternative to a
/// preset name, accepted everywhere a preset is (`net` on `/v1/network`,
/// `target.network` on `/v1/dse`, `--net-json` on the CLI):
///
/// ```json
/// {"name": "my-net", "batch": 3,
///  "layers": [{"name": "conv1", "co": 64, "ci": 3, "size": 224},
///             {"co": 64, "ci": 64, "h": 224, "w": 224,
///              "kernel": 3, "stride": 1, "padding": "same"}]}
/// ```
///
/// Per layer, `size` (square) or `h`+`w` give the *input* extent; `kernel`
/// defaults to 3, `stride` to 1 and `padding` to `"same"` — the VGG-style
/// defaults — so a layer list equal to a preset's builds the identical
/// [`Network`] value and therefore byte-identical responses. Every cap
/// (layer count, per-layer dimensions, total MACs) is checked in `u128` on
/// the raw numbers *before* any [`ConvLayer`] is constructed; unknown
/// fields are rejected like [`arch_from_value`] rejects them, because with
/// every geometry field defaulted a typo would silently analyze a different
/// network.
///
/// Returns the network and its batch (the `batch` field lives inside the
/// object so the whole model is one value; default 3).
///
/// # Errors
///
/// [`ApiError::BadRequest`] on structural problems (non-object, unknown or
/// ill-typed fields, missing geometry); [`ApiError::Unprocessable`] on any
/// cap violation, naming the violated invariant.
pub fn network_from_value(v: &Value) -> Result<(Network, usize), ApiError> {
    if !matches!(v, Value::Object(_)) {
        return Err(ApiError::BadRequest(
            "a custom network must be a JSON object \
             {\"name\", \"batch\", \"layers\": [...]}"
                .to_string(),
        ));
    }
    if let Some(key) = unknown_key(v, &NETWORK_KEYS) {
        return Err(ApiError::BadRequest(format!(
            "unknown network field `{key}` (expected one of {})",
            NETWORK_KEYS.join(", ")
        )));
    }
    let name: String = optional(v, "name", "custom".to_string())?;
    let batch: usize = optional(v, "batch", 3)?;
    if !(1..=limits::MAX_BATCH).contains(&batch) {
        return Err(ApiError::Unprocessable(format!(
            "batch must be 1..={}",
            limits::MAX_BATCH
        )));
    }
    let layers = match get_field(v, "layers")? {
        None | Some(Value::Null) => {
            return Err(ApiError::BadRequest(
                "missing required field `layers`".to_string(),
            ))
        }
        Some(Value::Array(layers)) => layers,
        Some(_) => {
            return Err(ApiError::BadRequest(
                "`layers` must be an array of layer objects".to_string(),
            ))
        }
    };
    if layers.is_empty() {
        return Err(ApiError::Unprocessable(
            "a custom network must have at least one layer".to_string(),
        ));
    }
    if layers.len() > network_caps::MAX_NETWORK_LAYERS {
        return Err(ApiError::Unprocessable(format!(
            "layer count {} exceeds the cap of {}",
            layers.len(),
            network_caps::MAX_NETWORK_LAYERS
        )));
    }
    let mut specs: Vec<NetLayerSpec> = Vec::with_capacity(layers.len());
    let mut total_macs: u128 = 0;
    for (index, layer) in layers.iter().enumerate() {
        let spec = NetLayerSpec::from_value(layer, index)?;
        total_macs += spec.macs_u128(batch);
        specs.push(spec);
    }
    if total_macs > network_caps::MAX_NETWORK_MACS {
        return Err(ApiError::Unprocessable(format!(
            "total MACs {} exceed the cap of {} (batch included)",
            total_macs,
            network_caps::MAX_NETWORK_MACS
        )));
    }
    let built: Vec<(String, ConvLayer)> = specs
        .iter()
        .enumerate()
        .map(|(index, s)| Ok((s.name.clone(), s.build(batch, index)?)))
        .collect::<Result<_, ApiError>>()?;
    Ok((Network::new(name, built), batch))
}

/// A parsed `/v1/network` body. `net` names a preset (see
/// [`network_by_name`]) or is a full custom network object (see
/// [`network_from_value`]); a custom layer list equal to a preset's builds
/// the same [`Network`] and so the byte-identical response.
#[derive(Debug, Clone)]
pub struct NetworkRequest {
    /// The workload.
    pub net: Network,
    /// Its batch size (the custom object's own, or the top-level `batch`).
    pub batch: usize,
    /// The Table I preset or custom architecture that runs it.
    pub choice: ArchChoice,
}

impl Endpoint for NetworkRequest {
    const KEYS: &'static str = "net batch implem arch";
    /// The bare report either way: it never echoed the implementation
    /// index, so preset requests keep their exact bytes.
    type Response = NetworkReport;

    fn from_value(v: &Value) -> Result<Self, ApiError> {
        check_top_level_keys(v, Self::KEYS)?;
        if let Some(custom @ Value::Object(_)) = get_field(v, "net")? {
            // The custom object carries its own batch; a second top-level
            // one would silently lose to it.
            if !matches!(get_field(v, "batch")?, None | Some(Value::Null)) {
                return Err(ApiError::BadRequest(
                    "a custom network object carries its own `batch`; \
                     drop the top-level `batch` field"
                        .to_string(),
                ));
            }
            // Same 4xx precedence as the preset path: arch before network.
            let choice = parse_arch_choice(v)?;
            let (net, batch) = network_from_value(custom)?;
            return Ok(NetworkRequest { net, batch, choice });
        }
        let name: String = optional(v, "net", "vgg16".to_string())?;
        let batch: usize = optional(v, "batch", 3)?;
        // Pre-existing 4xx precedence, pinned by clients: batch range
        // first, then the arch object, then the network name
        // (network_by_name re-checks the batch, harmlessly).
        if !(1..=limits::MAX_BATCH).contains(&batch) {
            return Err(ApiError::Unprocessable(format!(
                "batch must be 1..={}",
                limits::MAX_BATCH
            )));
        }
        let choice = parse_arch_choice(v)?;
        let net = network_by_name(&name, batch)?;
        Ok(NetworkRequest { net, batch, choice })
    }

    fn run(&self) -> Result<NetworkReport, ApiError> {
        Accelerator::new(self.choice.arch())
            .analyze_network(&self.net)
            .map_err(unprocessable)
    }
}

/// Handles `POST /v1/network` — whole-network analysis; the body is exactly
/// the [`NetworkReport`] JSON that `clb network --json true` prints.
///
/// # Errors
///
/// [`ApiError`] on malformed requests, unknown network names, custom
/// networks violating [`network_caps`], or unanalyzable layers (422).
pub fn network_response(v: &Value) -> Result<String, ApiError> {
    render(&NetworkRequest::from_value(v)?.run()?)
}

/// Routes one parsed POST body to its endpoint handler and renders the
/// outcome as a [`Response`]. This is the computation the server runs
/// behind the coalescing map and the result cache.
#[must_use]
pub fn dispatch(path: &str, body: &Value) -> Response {
    dispatch_with_meta(path, body).0
}

/// [`dispatch`] plus the `/v1/dse` request-log metadata the server carries
/// alongside the response (`None` for every other endpoint and for DSE
/// errors).
#[must_use]
pub fn dispatch_with_meta(path: &str, body: &Value) -> (Response, Option<DseLogMeta>) {
    let rendered = match path {
        "/v1/dse" => {
            return match dse_response_with_meta(body) {
                Ok((rendered, meta)) => (Response::json(200, rendered), Some(meta)),
                Err(e) => (e.into_response(), None),
            }
        }
        "/v1/bound" => bound_response(body),
        "/v1/sweep" => sweep_response(body),
        "/v1/plan" => plan_response(body),
        "/v1/simulate" => simulate_response(body),
        "/v1/network" => network_response(body),
        other => {
            return (
                Response::error(404, &format!("unknown endpoint `{other}`")),
                None,
            )
        }
    };
    let response = rendered.map_or_else(ApiError::into_response, |body| Response::json(200, body));
    (response, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        )
    }

    fn small_layer_body() -> Value {
        obj(&[
            ("co", Value::Number(16.0)),
            ("size", Value::Number(14.0)),
            ("ci", Value::Number(8.0)),
            ("batch", Value::Number(1.0)),
        ])
    }

    #[test]
    fn layer_spec_applies_defaults() {
        let spec = LayerSpec::from_value(&small_layer_body()).unwrap();
        assert_eq!((spec.k, spec.stride, spec.batch), (3, 1, 1));
        assert_eq!((spec.co, spec.size, spec.ci), (16, 14, 8));
        spec.to_layer().unwrap();
    }

    #[test]
    fn layer_spec_requires_core_dimensions() {
        let err = LayerSpec::from_value(&obj(&[("co", Value::Number(16.0))])).unwrap_err();
        assert!(matches!(err, ApiError::BadRequest(_)));
        let err = LayerSpec::from_value(&Value::Array(vec![])).unwrap_err();
        assert!(matches!(err, ApiError::BadRequest(_)));
    }

    #[test]
    fn layer_spec_rejects_fractional_and_oversized() {
        let mut body = small_layer_body();
        if let Value::Object(fields) = &mut body {
            fields.push(("k".to_string(), Value::Number(2.5)));
        }
        assert!(matches!(
            LayerSpec::from_value(&body).unwrap_err(),
            ApiError::BadRequest(_)
        ));
        let huge = obj(&[
            ("co", Value::Number(1e6)),
            ("size", Value::Number(14.0)),
            ("ci", Value::Number(8.0)),
        ]);
        let err = LayerSpec::from_value(&huge)
            .unwrap()
            .to_layer()
            .unwrap_err();
        assert!(matches!(err, ApiError::Unprocessable(_)));
    }

    #[test]
    fn bound_endpoint_round_trips() {
        let resp = dispatch("/v1/bound", &small_layer_body());
        assert_eq!(resp.status, 200);
        let v: Value = serde_json::from_str(&resp.body).unwrap();
        assert!(v.get_field("bound_bytes").unwrap().as_number().unwrap() > 0.0);
        assert!(v.get_field("reduction_factor").is_ok());
    }

    #[test]
    fn sweep_endpoint_lists_all_dataflows() {
        let resp = dispatch("/v1/sweep", &small_layer_body());
        assert_eq!(resp.status, 200);
        let v: Value = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(
            v.get_field("dataflows").unwrap().as_array().unwrap().len(),
            8
        );
    }

    #[test]
    fn plan_endpoint_matches_direct_library_call() {
        let resp = dispatch("/v1/plan", &small_layer_body());
        assert_eq!(resp.status, 200);
        let layer = ConvLayer::square(1, 16, 14, 8, 3, 1).unwrap();
        let report = Accelerator::implementation(1)
            .analyze_layer("layer", &layer)
            .unwrap();
        let expected = serde_json::to_string_pretty(&PlanResponse {
            implementation: 1,
            report,
        })
        .unwrap();
        assert_eq!(resp.body, expected, "service must be bit-identical");
    }

    fn tiling_value(b: f64, z: f64, y: f64, x: f64) -> Value {
        obj(&[
            ("b", Value::Number(b)),
            ("z", Value::Number(z)),
            ("y", Value::Number(y)),
            ("x", Value::Number(x)),
        ])
    }

    fn simulate_body(tiling: Value) -> Value {
        let mut body = small_layer_body();
        if let Value::Object(fields) = &mut body {
            fields.push(("tiling".to_string(), tiling));
        }
        body
    }

    #[test]
    fn simulate_endpoint_matches_direct_library_call() {
        let resp = dispatch(
            "/v1/simulate",
            &simulate_body(tiling_value(1.0, 8.0, 7.0, 7.0)),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let layer = ConvLayer::square(1, 16, 14, 8, 3, 1).unwrap();
        let tiling = dataflow::Tiling {
            b: 1,
            z: 8,
            y: 7,
            x: 7,
        };
        let arch = accel_sim::ArchConfig::implementation(1);
        let stats = accel_sim::simulate(&layer, &tiling, &arch).unwrap();
        let expected = serde_json::to_string_pretty(&SimulateResponse {
            implementation: 1,
            layer,
            tiling,
            stats,
            total_cycles: stats.total_cycles(),
            seconds: stats.seconds(arch.core_freq_hz),
        })
        .unwrap();
        assert_eq!(resp.body, expected, "service must be bit-identical");
    }

    #[test]
    fn simulate_endpoint_requires_a_tiling() {
        let resp = dispatch("/v1/simulate", &small_layer_body());
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("tiling"), "{}", resp.body);
    }

    #[test]
    fn simulate_endpoint_rejects_zero_and_oversized_tilings() {
        for bad in [
            tiling_value(0.0, 8.0, 7.0, 7.0),
            tiling_value(1.0, 0.0, 7.0, 7.0),
            tiling_value(1.0, 8.0, 0.0, 7.0),
            tiling_value(1.0, 8.0, 7.0, 0.0),
            tiling_value(1.0, 8.0, 7.0, 1000.0),
        ] {
            let resp = dispatch("/v1/simulate", &simulate_body(bad));
            assert_eq!(resp.status, 422, "{}", resp.body);
            assert!(resp.body.contains("tiling"), "{}", resp.body);
        }
    }

    #[test]
    fn simulate_endpoint_surfaces_infeasible_blockings() {
        // z = 16 output channels is fine, but a 14×14 spatial block of all
        // 16 channels at batch 1 still maps; use a full-layer tiling that
        // overflows the IGBuf instead.
        let mut body = obj(&[
            ("co", Value::Number(64.0)),
            ("size", Value::Number(64.0)),
            ("ci", Value::Number(8.0)),
            ("batch", Value::Number(1.0)),
        ]);
        if let Value::Object(fields) = &mut body {
            fields.push(("tiling".to_string(), tiling_value(1.0, 1.0, 64.0, 64.0)));
        }
        let resp = dispatch("/v1/simulate", &body);
        assert_eq!(resp.status, 422, "{}", resp.body);
    }

    #[test]
    fn network_endpoint_rejects_unknown_network() {
        let resp = dispatch(
            "/v1/network",
            &obj(&[("net", Value::String("lenet".into()))]),
        );
        assert_eq!(resp.status, 422);
        assert!(resp.body.contains("custom network"), "{}", resp.body);
    }

    fn custom_layer(co: f64, ci: f64, size: f64) -> Value {
        obj(&[
            ("co", Value::Number(co)),
            ("ci", Value::Number(ci)),
            ("size", Value::Number(size)),
        ])
    }

    fn custom_net(layers: Vec<Value>) -> Value {
        obj(&[
            ("name", Value::String("tiny".into())),
            ("batch", Value::Number(1.0)),
            ("layers", Value::Array(layers)),
        ])
    }

    #[test]
    fn network_endpoint_accepts_a_custom_network() {
        let body = obj(&[("net", custom_net(vec![custom_layer(16.0, 8.0, 14.0)]))]);
        let resp = dispatch("/v1/network", &body);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v: Value = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(v.get_field("network").unwrap().as_str().unwrap(), "tiny");
        assert_eq!(v.get_field("layers").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn custom_network_rejects_top_level_batch() {
        let body = obj(&[
            ("net", custom_net(vec![custom_layer(16.0, 8.0, 14.0)])),
            ("batch", Value::Number(2.0)),
        ]);
        let resp = dispatch("/v1/network", &body);
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("batch"), "{}", resp.body);
    }

    #[test]
    fn custom_network_cap_violations_are_422_naming_the_invariant() {
        // Per-layer dimension over the cap.
        let over_co = obj(&[("net", custom_net(vec![custom_layer(1e9, 8.0, 14.0)]))]);
        let resp = dispatch("/v1/network", &over_co);
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(resp.body.contains("layers[0]"), "{}", resp.body);
        // Layer count over the cap.
        let many: Vec<Value> = (0..network_caps::MAX_NETWORK_LAYERS + 1)
            .map(|_| custom_layer(16.0, 8.0, 14.0))
            .collect();
        let resp = dispatch("/v1/network", &obj(&[("net", custom_net(many))]));
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(resp.body.contains("layer count"), "{}", resp.body);
        // Total MACs over the cap: each layer is in range, the sum is not
        // (64 × 4096×4096 3×3 layers on 128×128 maps ≈ 1.6×10¹⁴ MACs).
        let chunky: Vec<Value> = (0..64)
            .map(|_| custom_layer(4096.0, 4096.0, 128.0))
            .collect();
        let resp = dispatch("/v1/network", &obj(&[("net", custom_net(chunky))]));
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(resp.body.contains("total MACs"), "{}", resp.body);
        // Empty layer list.
        let resp = dispatch("/v1/network", &obj(&[("net", custom_net(vec![]))]));
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(resp.body.contains("at least one layer"), "{}", resp.body);
    }

    #[test]
    fn dse_target_accepts_a_custom_network() {
        let body = obj(&[
            (
                "target",
                obj(&[("network", custom_net(vec![custom_layer(16.0, 8.0, 14.0)]))]),
            ),
            (
                "candidates",
                Value::Array(vec![ArchConfig::implementation(1).to_value()]),
            ),
        ]);
        let resp = dispatch("/v1/dse", &body);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v: Value = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(v.get_field("network").unwrap().as_str().unwrap(), "tiny");
        assert_eq!(v.get_field("batch").unwrap().as_number().unwrap(), 1.0);
    }

    #[test]
    fn dse_target_rejects_batch_next_to_a_custom_network() {
        let body = obj(&[
            (
                "target",
                obj(&[
                    ("network", custom_net(vec![custom_layer(16.0, 8.0, 14.0)])),
                    ("batch", Value::Number(2.0)),
                ]),
            ),
            (
                "candidates",
                Value::Array(vec![ArchConfig::implementation(1).to_value()]),
            ),
        ]);
        let resp = dispatch("/v1/dse", &body);
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("target.batch"), "{}", resp.body);
    }

    #[test]
    fn dse_target_prefixes_custom_network_errors() {
        let body = obj(&[
            (
                "target",
                obj(&[("network", custom_net(vec![custom_layer(0.0, 8.0, 14.0)]))]),
            ),
            (
                "candidates",
                Value::Array(vec![ArchConfig::implementation(1).to_value()]),
            ),
        ]);
        let resp = dispatch("/v1/dse", &body);
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(resp.body.contains("target.network"), "{}", resp.body);
        assert!(resp.body.contains("layers[0]"), "{}", resp.body);
    }

    #[test]
    fn new_presets_are_served() {
        for name in ["inception", "fc"] {
            let resp = dispatch(
                "/v1/network",
                &obj(&[
                    ("net", Value::String(name.into())),
                    ("batch", Value::Number(1.0)),
                ]),
            );
            assert_eq!(resp.status, 200, "{name}: {}", resp.body);
        }
    }

    #[test]
    fn mem_kib_validation() {
        let with_mem = |mem_kib: f64| {
            let mut body = small_layer_body();
            if let Value::Object(fields) = &mut body {
                fields.push(("mem_kib".to_string(), Value::Number(mem_kib)));
            }
            body
        };
        for bad in [0.0, -3.0, f64::INFINITY, limits::MAX_MEM_KIB * 2.0] {
            assert_eq!(
                dispatch("/v1/bound", &with_mem(bad)).status,
                422,
                "mem_kib={bad}"
            );
        }
        // A 3×3 kernel's unit tiling needs 1 + 2·9 = 19 words, 0.037109375
        // KiB: a sweep below that is refused before any search runs, and
        // the bound still answers.
        let tiny = with_mem(0.01);
        let refused = dispatch("/v1/sweep", &tiny);
        assert_eq!(refused.status, 422, "{}", refused.body);
        assert!(
            refused
                .body
                .contains("mem_kib must be at least 0.037109375 for this layer"),
            "{}",
            refused.body
        );
        assert_eq!(dispatch("/v1/bound", &tiny).status, 200);
        assert_eq!(dispatch("/v1/sweep", &with_mem(0.037109375)).status, 200);
    }

    #[test]
    fn implem_validation() {
        let mut body = small_layer_body();
        if let Value::Object(fields) = &mut body {
            fields.push(("implem".to_string(), Value::Number(9.0)));
        }
        assert_eq!(dispatch("/v1/plan", &body).status, 422);
    }

    #[test]
    fn unknown_endpoint_is_404() {
        assert_eq!(dispatch("/v1/nope", &small_layer_body()).status, 404);
    }

    fn with_trace(mut body: Value, trace: Value) -> Value {
        if let Value::Object(fields) = &mut body {
            fields.push(("trace".to_string(), trace));
        }
        body
    }

    #[test]
    fn null_trace_keeps_untraced_bytes() {
        let plain = dispatch(
            "/v1/simulate",
            &simulate_body(tiling_value(1.0, 8.0, 7.0, 7.0)),
        );
        let nulled = dispatch(
            "/v1/simulate",
            &with_trace(simulate_body(tiling_value(1.0, 8.0, 7.0, 7.0)), Value::Null),
        );
        assert_eq!(plain.status, 200);
        assert_eq!(plain.body, nulled.body, "null trace must not alter bytes");
    }

    #[test]
    fn traced_simulate_appends_trace_field_only() {
        let plain = dispatch(
            "/v1/simulate",
            &simulate_body(tiling_value(1.0, 8.0, 7.0, 7.0)),
        );
        let traced = dispatch(
            "/v1/simulate",
            &with_trace(simulate_body(tiling_value(1.0, 8.0, 7.0, 7.0)), obj(&[])),
        );
        assert_eq!(traced.status, 200, "{}", traced.body);
        let plain_v: Value = serde_json::from_str(&plain.body).unwrap();
        let traced_v: Value = serde_json::from_str(&traced.body).unwrap();
        let (Value::Object(plain_fields), Value::Object(traced_fields)) = (&plain_v, &traced_v)
        else {
            panic!("responses must be objects");
        };
        // Same fields in the same order, plus exactly one trailing `trace`.
        assert_eq!(traced_fields.len(), plain_fields.len() + 1);
        for ((pk, pv), (tk, tv)) in plain_fields.iter().zip(traced_fields.iter()) {
            assert_eq!(pk, tk);
            assert_eq!(
                serde_json::to_string_pretty(pv).unwrap(),
                serde_json::to_string_pretty(tv).unwrap()
            );
        }
        assert_eq!(traced_fields.last().unwrap().0, "trace");
        // The appended trace reproduces the stats the response carries.
        let stats = traced_v.get_field("stats").unwrap();
        let totals = traced_v
            .get_field("trace")
            .unwrap()
            .get_field("totals")
            .unwrap();
        for key in ["compute_cycles", "stall_cycles", "blocks", "iterations"] {
            assert_eq!(
                stats.get_field(key).unwrap().as_number(),
                totals.get_field(key).unwrap().as_number(),
                "trace totals must mirror stats `{key}`"
            );
        }
        // Unexpanded traces ship no per-block list.
        let blocks = traced_v
            .get_field("trace")
            .unwrap()
            .get_field("blocks")
            .unwrap();
        assert!(blocks.as_array().unwrap().is_empty());
    }

    #[test]
    fn traced_simulate_vcd_is_wellformed() {
        let traced = dispatch(
            "/v1/simulate",
            &with_trace(
                simulate_body(tiling_value(1.0, 8.0, 7.0, 7.0)),
                obj(&[("format", Value::String("vcd".into()))]),
            ),
        );
        assert_eq!(traced.status, 200, "{}", traced.body);
        let v: Value = serde_json::from_str(&traced.body).unwrap();
        let vcd = v.get_field("vcd").unwrap().as_str().unwrap();
        assert!(vcd.starts_with("$comment"), "VCD must open with a header");
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(
            vcd.lines().any(|l| l.starts_with('#')),
            "VCD must carry at least one timestamped change"
        );
    }

    #[test]
    fn traced_plan_totals_mirror_report_stats() {
        let traced = dispatch("/v1/plan", &with_trace(small_layer_body(), obj(&[])));
        assert_eq!(traced.status, 200, "{}", traced.body);
        let v: Value = serde_json::from_str(&traced.body).unwrap();
        let stats = v.get_field("report").unwrap().get_field("stats").unwrap();
        let totals = v.get_field("trace").unwrap().get_field("totals").unwrap();
        for key in ["compute_cycles", "stall_cycles", "blocks", "iterations"] {
            assert_eq!(
                stats.get_field(key).unwrap().as_number(),
                totals.get_field(key).unwrap().as_number(),
                "plan trace totals must mirror report stats `{key}`"
            );
        }
    }

    #[test]
    fn trace_option_rejects_unknown_keys_and_formats() {
        let body = simulate_body(tiling_value(1.0, 8.0, 7.0, 7.0));
        let unknown_key = dispatch(
            "/v1/simulate",
            &with_trace(body.clone(), obj(&[("fmt", Value::String("vcd".into()))])),
        );
        assert_eq!(unknown_key.status, 400, "{}", unknown_key.body);
        assert!(unknown_key.body.contains("fmt"), "{}", unknown_key.body);
        let unknown_format = dispatch(
            "/v1/simulate",
            &with_trace(
                body.clone(),
                obj(&[("format", Value::String("svg".into()))]),
            ),
        );
        assert_eq!(unknown_format.status, 422, "{}", unknown_format.body);
        assert!(
            unknown_format.body.contains("svg"),
            "{}",
            unknown_format.body
        );
        let not_an_object = dispatch(
            "/v1/simulate",
            &with_trace(body, Value::String("vcd".into())),
        );
        assert_eq!(not_an_object.status, 400, "{}", not_an_object.body);
    }

    #[test]
    fn over_cap_trace_is_422_naming_the_cap() {
        // ~200k blocks under a unit tiling: the expanded trace (VCD forces
        // expansion) must be refused before allocation with the cap named.
        let body = obj(&[
            ("co", Value::Number(64.0)),
            ("size", Value::Number(56.0)),
            ("ci", Value::Number(8.0)),
            ("batch", Value::Number(2.0)),
            ("tiling", tiling_value(1.0, 1.0, 1.0, 1.0)),
        ]);
        let resp = dispatch(
            "/v1/simulate",
            &with_trace(
                body.clone(),
                obj(&[("format", Value::String("vcd".into()))]),
            ),
        );
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(resp.body.contains("MAX_TRACE_BLOCKS"), "{}", resp.body);
        // The same request without the expansion is fine: the class table
        // stays compact however many blocks the grid has.
        let compact = dispatch("/v1/simulate", &with_trace(body, obj(&[])));
        assert_eq!(compact.status, 200, "{}", compact.body);
    }
}
