//! Metric assembly and the result line.

use clb_core::Objective;
use clb_service::{CacheStatsResponse, MemoCacheStats};

use crate::process::ProcSample;
use crate::replay::{Layer, Replayed};
use crate::stats::{median_or_zero, quantile_sorted, share};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarises.
    pub samples: u64,
}

impl Metric {
    /// A metric summarising `samples` samples.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: impl TryInto<u64>,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: samples.try_into().unwrap_or(u64::MAX),
        }
    }
}

/// One replayed request of the traced run.
pub struct Traced {
    /// Client-side round trip in nanoseconds.
    pub round_trip_ns: u64,
    /// Request body bytes.
    pub body_bytes: usize,
    /// Response body bytes.
    pub response_bytes: usize,
    /// What the replay saw.
    pub replayed: Replayed,
}

/// Server-side counters at both ends of a window.
pub struct Window {
    /// `/v1/cache_stats` before the first timed request.
    pub stats_before: CacheStatsResponse,
    /// `/v1/cache_stats` after the last.
    pub stats_after: CacheStatsResponse,
    /// `/proc` before.
    pub proc_before: ProcSample,
    /// `/proc` after.
    pub proc_after: ProcSample,
}

impl Window {
    /// Δ of one service counter.
    pub fn service_delta(&self, pick: impl Fn(&clb_service::ServiceStats) -> u64) -> u64 {
        pick(&self.stats_after.service).saturating_sub(pick(&self.stats_before.service))
    }
}

/// `(calls, hits, evictions)` deltas of a memo-cache section; a call is
/// a hit, a miss, or a wait on a concurrent identical miss.
fn memo_delta(before: &MemoCacheStats, after: &MemoCacheStats) -> (u64, u64, u64) {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let coalesced = after.coalesced - before.coalesced;
    (
        hits + misses + coalesced,
        hits,
        after.evictions - before.evictions,
    )
}

fn micros(values: impl Iterator<Item = u64>) -> Vec<f64> {
    values.map(|ns| ns as f64 / 1e3).collect()
}

/// The per-layer metrics of a traced run over `ok` answered requests.
#[must_use]
pub fn per_layer(traced: &[Traced], window: &Window, ok: u64) -> Vec<Metric> {
    let spans = |layer: Layer| -> Vec<f64> {
        micros(
            traced
                .iter()
                .flat_map(|t| &t.replayed.spans)
                .filter(|s| s.layer == layer)
                .map(|s| s.nanos),
        )
    };
    let timed = |name: &'static str, layer: Layer| {
        let v = spans(layer);
        Metric::new(name, median_or_zero(&v), "us", v.len())
    };
    let n = traced.len();

    let overhead: Vec<f64> = traced
        .iter()
        .map(|t| {
            let on_path: u64 = t
                .replayed
                .spans
                .iter()
                .filter(|s| !s.nested)
                .map(|s| s.nanos)
                .sum();
            (t.round_trip_ns as f64 - on_path as f64) / 1e3
        })
        .collect();
    let fanout: Vec<f64> = traced
        .iter()
        .filter_map(|t| {
            let spans = &t.replayed.spans;
            let fan = spans.iter().find(|s| s.layer == Layer::Fanout)?;
            let serial: u64 = spans.iter().filter(|s| s.nested).map(|s| s.nanos).sum();
            Some((fan.nanos as f64 - serial as f64) / 1e3)
        })
        .collect();

    let (plan_calls, plan_hits, plan_evictions) =
        memo_delta(&window.stats_before.plan, &window.stats_after.plan);
    let (search_calls, search_hits, _) =
        memo_delta(&window.stats_before.search, &window.stats_after.search);

    let funnels: Vec<_> = traced.iter().filter_map(|t| t.replayed.funnel).collect();
    let prune_share = |objective: Objective| {
        let of: Vec<_> = funnels
            .iter()
            .filter(|f| f.objective == Some(objective))
            .collect();
        let pruned: u64 = of.iter().map(|f| f.pruned).sum();
        let unique: u64 = of.iter().map(|f| f.unique).sum();
        (share(pruned as f64, unique as f64), of.len())
    };
    let (cycles, n_cycles) = prune_share(Objective::Cycles);
    let (traffic, n_traffic) = prune_share(Objective::Traffic);
    let (energy, n_energy) = prune_share(Objective::Energy);
    let (pareto, n_pareto) = prune_share(Objective::Pareto);

    let hits = window.service_delta(|s| s.responses_cached);
    let cpu = |pick: fn(&ProcSample) -> f64| {
        share(
            (pick(&window.proc_after) - pick(&window.proc_before)) * 1e3,
            ok as f64,
        )
    };
    let sim_calls: u64 = traced.iter().map(|t| t.replayed.sim_calls).sum();
    let response_bytes: usize = traced.iter().map(|t| t.response_bytes).sum();

    vec![
        Metric::new(
            "server.hit_share",
            share(hits as f64, ok as f64),
            "ratio",
            ok as usize,
        ),
        Metric::new("server.overhead_us", median_or_zero(&overhead), "us", n),
        Metric::new(
            "server.shed",
            window.service_delta(|s| s.shed) as f64,
            "count",
            n,
        ),
        timed("http.frame_us", Layer::Frame),
        timed("json.parse_us", Layer::Parse),
        Metric::new("json.parse_scaling", parse_scaling(traced), "ratio", n),
        timed("json.key_us", Layer::Key),
        timed("json.render_us", Layer::Render),
        Metric::new(
            "json.response_kib",
            share(response_bytes as f64 / 1024.0, n as f64),
            "KiB",
            n,
        ),
        timed("api.validate_us", Layer::Validate),
        Metric::new("plan.calls", plan_calls as f64, "count", n),
        Metric::new(
            "plan.hit_share",
            share(plan_hits as f64, plan_calls as f64),
            "ratio",
            plan_calls as usize,
        ),
        Metric::new("plan.evictions", plan_evictions as f64, "count", n),
        timed("plan.us", Layer::PlanMiss),
        Metric::new("search.calls", search_calls as f64, "count", n),
        Metric::new(
            "search.hit_share",
            share(search_hits as f64, search_calls as f64),
            "ratio",
            search_calls as usize,
        ),
        timed("search.us", Layer::Search),
        Metric::new("simulate.calls", sim_calls as f64, "count", n),
        timed("simulate.us", Layer::Simulate),
        Metric::new(
            "simulate.blocks",
            traced.iter().map(|t| t.replayed.sim_blocks).sum::<u64>() as f64,
            "count",
            sim_calls as usize,
        ),
        timed("bound.us", Layer::Bound),
        timed("energy.us", Layer::Energy),
        Metric::new(
            "network.fanout_us",
            median_or_zero(&fanout),
            "us",
            fanout.len(),
        ),
        timed("dse.floor_us", Layer::Floor),
        timed("dse.sweep_us", Layer::Sweep),
        Metric::new(
            "dse.evaluated",
            funnels.iter().map(|f| f.evaluated).sum::<u64>() as f64,
            "count",
            funnels.len(),
        ),
        Metric::new("dse.prune_share.cycles", cycles, "ratio", n_cycles),
        Metric::new("dse.prune_share.traffic", traffic, "ratio", n_traffic),
        Metric::new("dse.prune_share.energy", energy, "ratio", n_energy),
        Metric::new("dse.prune_share.pareto", pareto, "ratio", n_pareto),
        Metric::new(
            "proc.cpu_user_ms_per_req",
            cpu(|p| p.user_s),
            "ms/req",
            ok as usize,
        ),
        Metric::new(
            "proc.cpu_sys_ms_per_req",
            cpu(|p| p.sys_s),
            "ms/req",
            ok as usize,
        ),
        Metric::new("proc.threads", window.proc_after.threads as f64, "count", 1),
    ]
}

/// ns/byte of the JSON parse on the largest tenth of bodies ÷ ns/byte on
/// the smallest tenth (1.0 means linear).
fn parse_scaling(traced: &[Traced]) -> f64 {
    let mut per_byte: Vec<(usize, f64)> = traced
        .iter()
        .filter_map(|t| {
            let parse = t.replayed.spans.iter().find(|s| s.layer == Layer::Parse)?;
            Some((
                t.body_bytes,
                parse.nanos as f64 / t.body_bytes.max(1) as f64,
            ))
        })
        .collect();
    if per_byte.is_empty() {
        return 0.0;
    }
    per_byte.sort_by_key(|&(bytes, _)| bytes);
    let tenth = (per_byte.len() / 10).max(1);
    let median_of = |part: &[(usize, f64)]| {
        let mut v: Vec<f64> = part.iter().map(|&(_, r)| r).collect();
        v.sort_by(f64::total_cmp);
        quantile_sorted(&v, 0.5)
    };
    share(
        median_of(&per_byte[per_byte.len() - tenth..]),
        median_of(&per_byte[..tenth]),
    )
}

/// Prints one human-readable line per metric.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!(
            "{:<28} {:>16.4} {:<7} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                m.name, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}
