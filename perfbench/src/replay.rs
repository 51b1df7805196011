//! The traced replay: after each response of the traced run, the body is
//! replayed in this process through each layer's public function, in the
//! server's pipeline order, one timed span per call. The replay renders the
//! server's exact bytes, which proves it did the same work.
//!
//! The replay's process-global caches (search, plan) change the same way
//! the server's do — the same bodies arrive in the same order — but live in
//! another process, so they never warm the server. The server's response
//! cache is mirrored by a map of rendered bodies: a mirrored hit stops after
//! the cache key, as the server does.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use accel_sim::{ArchCacheKey, ArchConfig};
use clb_core::{Accelerator, BoundSummary, EnergyParams, LayerReport, NetworkReport, OnChipMemory};
use clb_service::api::{self, GRID_AXES};
use clb_service::{
    BoundResponse, LayerSpec, PlanResponse, SimulateResponse, SweepEntry, SweepResponse,
    WireResponse,
};
use conv_model::ConvLayer;
use dataflow::{found_minimum, search_dataflow, DataflowKind, Tiling};
use serde::{Deserialize, Serialize, Value};

use crate::workload::Request;

/// The server caches only responses up to this size (`server.rs`).
const MAX_CACHEABLE_BODY_BYTES: usize = 128 * 1024;

/// The layer boundary a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// `http::read_request` over the request bytes.
    Frame,
    /// `serde_json::from_str::<Value>` of the body.
    Parse,
    /// Canonicalising and rendering the body into the response-cache key.
    Key,
    /// Request validation (`LayerSpec`, `arch`/`implem`, network objects,
    /// staged options, grid expansion).
    Validate,
    /// `search_dataflow` × 8 plus `found_minimum` (`/v1/sweep`).
    Search,
    /// `plan_for_arch` that missed the plan cache.
    PlanMiss,
    /// `plan_for_arch` that hit the plan cache.
    PlanHit,
    /// `accel_sim::simulate`.
    Simulate,
    /// `BoundSummary::of` and the Eq. 15 functions.
    Bound,
    /// `clb_core::energy::energy_of`.
    Energy,
    /// `Accelerator::analyze_network` (with plans warm).
    Fanout,
    /// `clb_core::candidate_bounds` over a staged sweep's candidates.
    Floor,
    /// `dse_staged_results` / `dse_results` — the whole sweep.
    Sweep,
    /// `serde_json::to_string_pretty` of the response structure.
    Render,
}

/// One timed call; a request's spans travel together in its [`Replayed`].
/// `nested` marks a replay-only breakdown of work that another span of the
/// same request already covers on the server's path (the serial per-layer
/// pipeline of a network request inside its fan-out, the floor stage inside
/// a staged sweep).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which layer.
    pub layer: Layer,
    /// Duration in nanoseconds.
    pub nanos: u64,
    /// Whether another span of the request already covers this work.
    pub nested: bool,
}

/// The staged-DSE funnel of one replayed sweep.
#[derive(Debug, Clone, Copy)]
pub struct Funnel {
    /// `None` for a legacy sweep.
    pub objective: Option<clb_core::Objective>,
    /// Distinct candidates.
    pub unique: u64,
    /// Candidates the bound stage discarded.
    pub pruned: u64,
    /// Candidates planned and simulated.
    pub evaluated: u64,
}

/// What one replay observed.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    /// The spans, in call order.
    pub spans: Vec<Span>,
    /// The mirrored response cache answered.
    pub hit: bool,
    /// The replay's bytes equal the server's.
    pub matches: bool,
    /// `accel_sim::simulate` calls.
    pub sim_calls: u64,
    /// Σ `SimStats.blocks` over those calls.
    pub sim_blocks: u64,
    /// The DSE funnel, for `/v1/dse`.
    pub funnel: Option<Funnel>,
}

/// Shared replay state: the response-cache mirror and the set of plan
/// keys already planned.
#[derive(Default)]
pub struct Replayer {
    responses: Mutex<HashMap<String, Arc<str>>>,
    plans: Mutex<HashSet<(ConvLayer, ArchCacheKey)>>,
}

fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("a replay thread panicked")
}

struct Recorder<'a> {
    out: &'a mut Replayed,
}

impl Recorder<'_> {
    fn time<R>(&mut self, layer: Layer, nested: bool, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = std::hint::black_box(f());
        self.out.spans.push(Span {
            layer,
            nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            nested,
        });
        result
    }
}

type Fallible<T> = Result<T, String>;

fn api_err(e: api::ApiError) -> String {
    format!("{e:?}")
}

fn field<T: Deserialize>(v: &Value, name: &str) -> Fallible<Option<T>> {
    match v.get_field(name) {
        Ok(Value::Null) | Err(_) => Ok(None),
        Ok(field) => T::from_value(field)
            .map(Some)
            .map_err(|e| format!("{name}: {e}")),
    }
}

/// The server's cache-key canonicalisation (`server.rs`): object keys
/// sorted recursively.
fn canonicalize(value: &Value) -> Value {
    match value {
        Value::Array(items) => Value::Array(items.iter().map(canonicalize).collect()),
        Value::Object(fields) => {
            let mut sorted: Vec<(String, Value)> = fields
                .iter()
                .map(|(k, v)| (k.clone(), canonicalize(v)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(sorted)
        }
        other => other.clone(),
    }
}

impl Replayer {
    /// Replays `request` (whose wire bytes were `wire`) against the server's
    /// `response`.
    ///
    /// # Errors
    ///
    /// When a layer function rejects a body the server accepted.
    pub fn replay(
        &self,
        request: &Request,
        wire: &[u8],
        response: &WireResponse,
    ) -> Fallible<Replayed> {
        let mut out = Replayed::default();
        let mut rec = Recorder { out: &mut out };
        let framed = rec
            .time(Layer::Frame, false, || {
                clb_service::http::read_request(
                    &mut &wire[..],
                    clb_service::http::DEFAULT_MAX_BODY_BYTES,
                )
            })
            .map_err(|e| format!("frame: {}", e.message()))?;
        let text = std::str::from_utf8(&framed.body).map_err(|e| e.to_string())?;
        let parsed: Value = rec
            .time(Layer::Parse, false, || serde_json::from_str::<Value>(text))
            .map_err(|e| format!("parse: {e}"))?;
        let key = rec
            .time(Layer::Key, false, || {
                serde_json::to_string(&canonicalize(&parsed))
            })
            .map(|canonical| format!("{} {canonical}", request.path))
            .map_err(|e| format!("key: {e}"))?;
        if let Some(cached) = locked(&self.responses).get(&key) {
            out.hit = true;
            out.matches = response.status == 200 && **cached == *response.body;
            return Ok(out);
        }
        let rendered = self.compute(request.path, &parsed, &mut rec)?;
        out.matches = response.status == 200 && rendered == response.body;
        if out.matches && rendered.len() <= MAX_CACHEABLE_BODY_BYTES {
            locked(&self.responses).insert(key, Arc::from(rendered));
        }
        Ok(out)
    }

    fn compute(&self, path: &str, v: &Value, rec: &mut Recorder<'_>) -> Fallible<String> {
        match path {
            "/v1/bound" => {
                let (layer, mem_kib) = rec.time(Layer::Validate, false, || layer_and_mem(v))?;
                let mem = OnChipMemory::from_kib(mem_kib);
                let response = rec.time(Layer::Bound, false, || BoundResponse {
                    layer,
                    mem_kib,
                    macs: layer.macs(),
                    window_reuse: layer.window_reuse(),
                    theorem2_bytes: comm_bound::theorem2_dram_words(&layer, mem) * 2.0,
                    bound_bytes: comm_bound::dram_bound_bytes(&layer, mem),
                    naive_bytes: comm_bound::naive_dram_words(&layer) * 2.0,
                    reduction_factor: comm_bound::reduction_factor(&layer, mem),
                });
                render(rec, &response)
            }
            "/v1/sweep" => {
                let (layer, mem_kib) = rec.time(Layer::Validate, false, || layer_and_mem(v))?;
                let mem = OnChipMemory::from_kib(mem_kib);
                let (dataflows, found) = rec.time(Layer::Search, false, || {
                    let dataflows: Vec<SweepEntry> = DataflowKind::ALL
                        .iter()
                        .map(|&kind| SweepEntry {
                            kind,
                            name: kind.name().to_string(),
                            choice: search_dataflow(kind, &layer, mem),
                        })
                        .collect();
                    (dataflows, found_minimum(&layer, mem))
                });
                let bound_bytes = rec.time(Layer::Bound, false, || {
                    comm_bound::dram_bound_bytes(&layer, mem)
                });
                render(
                    rec,
                    &SweepResponse {
                        layer,
                        mem_kib,
                        bound_bytes,
                        found_minimum: found,
                        dataflows,
                    },
                )
            }
            "/v1/plan" => {
                let (layer, implem) = rec.time(Layer::Validate, false, || -> Fallible<_> {
                    let layer = LayerSpec::from_value(v)
                        .and_then(|s| s.to_layer())
                        .map_err(api_err)?;
                    Ok((layer, field(v, "implem")?.unwrap_or(1usize)))
                })?;
                let arch = ArchConfig::implementation(implem);
                let report = self.layer_report(rec, "layer", &layer, &arch, false)?;
                render(
                    rec,
                    &PlanResponse {
                        implementation: implem,
                        report,
                    },
                )
            }
            "/v1/simulate" => {
                let (layer, implem, tiling) =
                    rec.time(Layer::Validate, false, || -> Fallible<_> {
                        let layer = LayerSpec::from_value(v)
                            .and_then(|s| s.to_layer())
                            .map_err(api_err)?;
                        let tiling: Tiling = field(v, "tiling")?.ok_or("missing tiling")?;
                        Ok((layer, field(v, "implem")?.unwrap_or(1usize), tiling))
                    })?;
                let arch = ArchConfig::implementation(implem);
                let stats = rec
                    .time(Layer::Simulate, false, || {
                        accel_sim::simulate(&layer, &tiling, &arch)
                    })
                    .map_err(|e| e.to_string())?;
                rec.out.sim_calls += 1;
                rec.out.sim_blocks += stats.blocks;
                render(
                    rec,
                    &SimulateResponse {
                        implementation: implem,
                        layer,
                        tiling,
                        stats,
                        total_cycles: stats.total_cycles(),
                        seconds: stats.seconds(arch.core_freq_hz),
                    },
                )
            }
            "/v1/network" => {
                let (net, implem) = rec.time(Layer::Validate, false, || -> Fallible<_> {
                    let implem = field(v, "implem")?.unwrap_or(1usize);
                    let net = match v.get_field("net") {
                        Ok(custom @ Value::Object(_)) => {
                            api::network_from_value(custom).map_err(api_err)?.0
                        }
                        _ => {
                            let name: String = field(v, "net")?.unwrap_or_else(|| "vgg16".into());
                            let batch = field(v, "batch")?.unwrap_or(3usize);
                            api::network_by_name(&name, batch).map_err(api_err)?
                        }
                    };
                    Ok((net, implem))
                })?;
                let arch = ArchConfig::implementation(implem);
                // The serial per-layer pipeline first (it also warms any cold
                // plan), then the server's own fan-out over warm plans.
                let layers = net
                    .conv_layers()
                    .map(|n| self.layer_report(rec, &n.name, &n.layer, &arch, true))
                    .collect::<Fallible<Vec<_>>>()?;
                rec.time(Layer::Fanout, false, || {
                    Accelerator::new(arch).analyze_network(&net)
                })
                .map_err(|e| e.to_string())?;
                let report =
                    NetworkReport::from_layer_reports(net.name(), layers, arch.core_freq_hz);
                render(rec, &report)
            }
            "/v1/dse" => self.dse(v, rec),
            other => Err(format!("no replay for {other}")),
        }
    }

    /// Plan → simulate → energy → bound for one layer: the body of
    /// `Accelerator::analyze_layer`, one span per stage.
    fn layer_report(
        &self,
        rec: &mut Recorder<'_>,
        name: &str,
        layer: &ConvLayer,
        arch: &ArchConfig,
        nested: bool,
    ) -> Fallible<LayerReport> {
        let miss = locked(&self.plans).insert((*layer, arch.cache_key()));
        let span = if miss {
            Layer::PlanMiss
        } else {
            Layer::PlanHit
        };
        let tiling = rec
            .time(span, nested, || clb_core::plan_for_arch(layer, arch))
            .map_err(|e| e.to_string())?;
        let stats = rec
            .time(Layer::Simulate, nested, || {
                accel_sim::simulate(layer, &tiling, arch)
            })
            .map_err(|e| e.to_string())?;
        rec.out.sim_calls += 1;
        rec.out.sim_blocks += stats.blocks;
        let energy = rec.time(Layer::Energy, nested, || {
            clb_core::energy::energy_of(&stats, arch, &EnergyParams::default())
        });
        let bounds = rec.time(Layer::Bound, nested, || {
            BoundSummary::of(layer, accel_sim::effective_memory(arch))
        });
        Ok(LayerReport {
            name: name.to_string(),
            layer: *layer,
            tiling,
            stats,
            energy,
            bounds,
        })
    }

    fn dse(&self, v: &Value, rec: &mut Recorder<'_>) -> Fallible<String> {
        let (staged, layer, archs) = rec.time(Layer::Validate, false, || -> Fallible<_> {
            let staged = api::parse_staged_options(v).map_err(api_err)?;
            let layer = LayerSpec::from_value(v)
                .and_then(|s| s.to_layer())
                .map_err(api_err)?;
            let grid = v.get_field("grid").map_err(|e| e.to_string())?;
            let base = ArchConfig::implementation(1);
            let base_values = [
                base.pe_rows,
                base.pe_cols,
                base.group_rows,
                base.group_cols,
                base.lreg_entries_per_pe,
                base.igbuf_entries,
                base.wgbuf_entries,
                base.greg_bytes,
                base.greg_segment_entries,
            ];
            let mut axes: [Vec<usize>; 9] = base_values.map(|b| vec![b]);
            for (axis, name) in axes.iter_mut().zip(GRID_AXES) {
                if let Some(values) = field(grid, name)? {
                    *axis = values;
                }
            }
            // Explicit candidates first, then the grid — the union the
            // server sweeps (its dedup makes repeated points free).
            let mut archs = match v.get_field("candidates") {
                Ok(Value::Array(items)) => items
                    .iter()
                    .map(|item| api::arch_from_value(item).map_err(api_err))
                    .collect::<Fallible<Vec<_>>>()?,
                _ => Vec::new(),
            };
            archs.extend(
                if staged.is_some() {
                    api::archs_from_axes_staged(&axes, &base)
                } else {
                    api::archs_from_axes(&axes, &base)
                }
                .map_err(api_err)?,
            );
            Ok((staged, layer, archs))
        })?;
        match staged {
            Some(opts) => {
                rec.time(Layer::Floor, true, || {
                    clb_core::candidate_bounds(std::slice::from_ref(&layer), &archs)
                });
                let response = rec.time(Layer::Sweep, false, || {
                    clb_service::dse_staged_results(
                        &layer,
                        archs.len(),
                        &archs,
                        opts.objective,
                        opts.top_k,
                        |_| {},
                    )
                });
                rec.out.funnel = Some(Funnel {
                    objective: Some(opts.objective),
                    unique: response.unique as u64,
                    pruned: response.pruned,
                    evaluated: response.evaluated,
                });
                render(rec, &response)
            }
            None => {
                let response = rec.time(Layer::Sweep, false, || {
                    clb_service::dse_results(&layer, archs.len(), &archs)
                });
                rec.out.funnel = Some(Funnel {
                    objective: None,
                    unique: response.unique as u64,
                    pruned: 0,
                    evaluated: response.unique as u64,
                });
                render(rec, &response)
            }
        }
    }
}

fn layer_and_mem(v: &Value) -> Fallible<(ConvLayer, f64)> {
    let layer = LayerSpec::from_value(v)
        .and_then(|s| s.to_layer())
        .map_err(api_err)?;
    Ok((layer, field(v, "mem_kib")?.unwrap_or(66.5)))
}

fn render<T: Serialize>(rec: &mut Recorder<'_>, value: &T) -> Fallible<String> {
    rec.time(Layer::Render, false, || serde_json::to_string_pretty(value))
        .map_err(|e| format!("render: {e}"))
}
