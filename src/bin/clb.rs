//! `clb` — command-line interface to the library.
//!
//! ```text
//! clb bound    --co 512 --size 28 --ci 256 [--k 3] [--stride 1] [--batch 3] [--mem-kib 66.5]
//! clb sweep    --co 512 --size 28 --ci 256 ...           # all dataflows at one memory size
//! clb plan     --co 512 --size 28 --ci 256 [--implem 1]  # tiling + simulation on an implementation
//! clb simulate --co 512 --size 28 --ci 256 --tb 1 --tz 16 --ty 14 --tx 14 [--implem 1]
//!              [--trace json|vcd] [--trace-out FILE]
//! clb network  --net vgg16|alexnet|resnet50|inception|fc [--batch 3] [--implem 1] [--json true]
//! clb network  --net-json '{"name":"n","batch":1,"layers":[{"co":64,"ci":3,"size":224}]}'
//! clb dse      --co 512 --size 28 --ci 256 [--pe-rows 16,24,32] [--lreg 64,128] ...
//! clb dse      --net vgg16 [--batch 3] [--pe-rows 16,24,32] ...   # whole-model sweep
//! clb dse      --net-json '<json>' [--pe-rows 16,24,32] ...       # custom-model sweep
//! clb serve    [--port 8080] [--threads 0] [--io-workers 0] [--queue 256] [--result-cache 1024]
//!              [--keepalive-requests 128] [--keepalive-idle-ms 5000] [--max-connections 1024]
//!              [--drain-ms 5000] [--allow-shutdown true] [--log true]
//! ```
//!
//! Every verb that takes `--implem` also takes `--arch '<json>'` — a full
//! custom architecture object (fields default to Table I implementation 1),
//! the CLI mirror of the service's `arch` field. `clb dse` sweeps a grid of
//! candidates (comma-separated axis lists over the `--arch` base).

use std::collections::HashMap;
use std::process::ExitCode;

use clb::core::{Accelerator, Objective, StagedProgress};
use clb::model::workloads;
use clb::prelude::*;
use clb_service::{
    DseReport, DseRequest, DseResponse, DseSink, DseTarget, StagedOptions, StreamMode,
};
use dataflow::{found_minimum, search_dataflow};

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{}`", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value `{v}` for --{key}")),
    }
}

fn api_error_message(e: clb_service::ApiError) -> String {
    match e {
        clb_service::ApiError::BadRequest(m)
        | clb_service::ApiError::Unprocessable(m)
        | clb_service::ApiError::Internal(m) => m,
    }
}

/// Parses `--arch '<json object>'` — the same schema, defaults
/// (implementation 1) and validation as the service's `arch` field, so the
/// CLI and the API accept exactly the same custom architectures.
fn arch_from_flags(
    flags: &HashMap<String, String>,
) -> Result<Option<accel_sim::ArchConfig>, String> {
    let Some(json) = flags.get("arch") else {
        return Ok(None);
    };
    if flags.contains_key("implem") {
        return Err("specify either --implem or --arch, not both".into());
    }
    let v: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("--arch: invalid JSON: {e}"))?;
    clb_service::arch_from_value(&v)
        .map(Some)
        .map_err(|e| format!("--arch: {}", api_error_message(e)))
}

/// The architecture a verb should analyze: `--arch` JSON when given,
/// otherwise the `--implem` preset (default 1). Returns the configuration
/// plus the label the human-readable output prints.
fn arch_choice_from_flags(
    flags: &HashMap<String, String>,
) -> Result<(accel_sim::ArchConfig, String), String> {
    if let Some(arch) = arch_from_flags(flags)? {
        return Ok((arch, "custom architecture".to_string()));
    }
    let implem: usize = get(flags, "implem", 1)?;
    if !(1..=5).contains(&implem) {
        return Err("--implem must be 1..=5".into());
    }
    Ok((
        accel_sim::ArchConfig::implementation(implem),
        format!("implementation {implem}"),
    ))
}

fn layer_from_flags(flags: &HashMap<String, String>) -> Result<ConvLayer, String> {
    let co: usize = get(flags, "co", 0)?;
    let size: usize = get(flags, "size", 0)?;
    let ci: usize = get(flags, "ci", 0)?;
    if co == 0 || size == 0 || ci == 0 {
        return Err("--co, --size and --ci are required".into());
    }
    let k: usize = get(flags, "k", 3)?;
    let stride: usize = get(flags, "stride", 1)?;
    let batch: usize = get(flags, "batch", 3)?;
    ConvLayer::square(batch, co, size, ci, k, stride)
        .map_err(|e| format!("--co/--size/--ci/--k/--stride/--batch: {e}"))
}

/// The memory size `bound`/`sweep` analyze: `--arch`'s effective on-chip
/// memory when given, `--mem-kib` (default 66.5) otherwise.
fn mem_from_flags(flags: &HashMap<String, String>) -> Result<OnChipMemory, String> {
    match arch_from_flags(flags)? {
        Some(arch) => {
            if flags.contains_key("mem-kib") {
                return Err("specify either --mem-kib or --arch, not both".into());
            }
            Ok(OnChipMemory::from_kib(
                arch.effective_onchip_bytes() as f64 / 1024.0,
            ))
        }
        None => Ok(OnChipMemory::from_kib(get(flags, "mem-kib", 66.5)?)),
    }
}

fn cmd_bound(flags: &HashMap<String, String>) -> Result<(), String> {
    let layer = layer_from_flags(flags)?;
    let mem = mem_from_flags(flags)?;
    println!("layer: {layer} (R = {})", layer.window_reuse());
    println!("MACs:  {:.3} G", layer.macs() as f64 / 1e9);
    println!("effective on-chip memory: {mem}");
    println!(
        "Theorem 2 (asymptotic): {:.2} MB",
        clb::bound::theorem2_dram_words(&layer, mem) * 2.0 / 1e6
    );
    println!(
        "Eq. 15 practical bound: {:.2} MB",
        clb::bound::dram_bound_bytes(&layer, mem) / 1e6
    );
    println!(
        "naive (no reuse):       {:.2} MB",
        clb::bound::naive_dram_words(&layer) * 2.0 / 1e6
    );
    println!(
        "reduction factor sqrt(R*S) = {:.1}",
        clb::bound::reduction_factor(&layer, mem)
    );
    Ok(())
}

fn cmd_sweep(flags: &HashMap<String, String>) -> Result<(), String> {
    let layer = layer_from_flags(flags)?;
    let mem = mem_from_flags(flags)?;
    println!("layer: {layer}, memory {mem}\n");
    println!("{:<16} {:>10} {:>12}", "dataflow", "DRAM (MB)", "vs bound");
    let bound = clb::bound::dram_bound_bytes(&layer, mem);
    println!(
        "{:<16} {:>10.2} {:>12}",
        "lower bound",
        bound / 1e6,
        "1.00x"
    );
    let min = found_minimum(&layer, mem);
    println!(
        "{:<16} {:>10.2} {:>11.2}x",
        "found minimum",
        min.traffic.total_bytes() as f64 / 1e6,
        min.traffic.total_bytes() as f64 / bound
    );
    for kind in DataflowKind::ALL {
        match search_dataflow(kind, &layer, mem) {
            Some(c) => println!(
                "{:<16} {:>10.2} {:>11.2}x",
                kind.name(),
                c.traffic.total_bytes() as f64 / 1e6,
                c.traffic.total_bytes() as f64 / bound
            ),
            None => println!("{:<16} {:>10} {:>12}", kind.name(), "-", "infeasible"),
        }
    }
    Ok(())
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), String> {
    let layer = layer_from_flags(flags)?;
    let (arch, label) = arch_choice_from_flags(flags)?;
    let acc = Accelerator::new(arch);
    let report = acc
        .analyze_layer("layer", &layer)
        .map_err(|e| e.to_string())?;
    println!("layer: {layer}");
    println!("{label}: {} PEs", acc.arch().pe_count());
    println!("tiling: {}", report.tiling);
    println!(
        "DRAM:  {:.2} MB ({:+.1}% vs bound)",
        report.stats.dram.total_bytes() as f64 / 1e6,
        (report.dram_vs_bound() - 1.0) * 100.0
    );
    println!(
        "GBuf:  {:.2} MB   Regs: {:.3} G writes",
        report.stats.gbuf.total_bytes() as f64 / 1e6,
        report.stats.reg.total_writes() as f64 / 1e9
    );
    println!(
        "time:  {:.2} ms   energy: {:.2} pJ/MAC   PE util: {:.1}%",
        report.stats.seconds(acc.arch().core_freq_hz) * 1e3,
        report.pj_per_mac(),
        report.stats.utilization.pe * 100.0
    );
    Ok(())
}

/// `clb simulate`: run the cycle simulator on an explicit, user-supplied
/// tiling instead of the planner's choice (the CLI mirror of
/// `POST /v1/simulate`). `--trace json|vcd` additionally records the
/// per-block-class execution trace (VCD always carries the per-block
/// expansion); `--trace-out FILE` writes it to a file instead of stdout.
fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let layer = layer_from_flags(flags)?;
    let (arch, label) = arch_choice_from_flags(flags)?;
    let tiling = dataflow::Tiling {
        b: get(flags, "tb", 0)?,
        z: get(flags, "tz", 0)?,
        y: get(flags, "ty", 0)?,
        x: get(flags, "tx", 0)?,
    };
    // Missing flags default to 0 so one message covers both absence and an
    // explicit zero; oversized dims are diagnosed by `simulate` itself.
    if tiling.b == 0 || tiling.z == 0 || tiling.y == 0 || tiling.x == 0 {
        return Err("--tb, --tz, --ty and --tx are required (nonzero)".into());
    }
    let trace_format = match flags.get("trace").map(String::as_str) {
        None => None,
        Some(format @ ("json" | "vcd")) => Some(format),
        Some(other) => return Err(format!("unknown --trace format `{other}` (json|vcd)")),
    };
    let (stats, trace) = match trace_format {
        None => (
            accel_sim::simulate(&layer, &tiling, &arch).map_err(|e| e.to_string())?,
            None,
        ),
        Some(format) => {
            let options = accel_sim::TraceOptions {
                expand: format == "vcd",
            };
            let (stats, trace) = accel_sim::simulate_traced(&layer, &tiling, &arch, &options)
                .map_err(|e| e.to_string())?;
            (stats, Some((format, trace)))
        }
    };
    println!("layer: {layer}");
    println!("{label}: {} PEs", arch.pe_count());
    println!("tiling: {tiling} ({} blocks)", stats.blocks);
    println!(
        "DRAM:  {:.2} MB   GBuf: {:.2} MB   Regs: {:.3} G writes",
        stats.dram.total_bytes() as f64 / 1e6,
        stats.gbuf.total_bytes() as f64 / 1e6,
        stats.reg.total_writes() as f64 / 1e9
    );
    println!(
        "cycles: {} compute + {} stall = {}",
        stats.compute_cycles,
        stats.stall_cycles,
        stats.total_cycles()
    );
    println!(
        "time:  {:.2} ms   PE util: {:.1}%   memory util: {:.1}%",
        stats.seconds(arch.core_freq_hz) * 1e3,
        stats.utilization.pe * 100.0,
        stats.utilization.memory_overall * 100.0
    );
    if let Some((format, trace)) = trace {
        let payload = if format == "vcd" {
            trace
                .to_vcd()
                .ok_or_else(|| "VCD rendering requires an expanded trace".to_string())?
        } else {
            serde_json::to_string_pretty(&trace).map_err(|e| e.to_string())?
        };
        match flags.get("trace-out") {
            Some(path) => {
                std::fs::write(path, &payload)
                    .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
                println!("trace: {} {} bytes -> {path}", payload.len(), format);
            }
            None => println!("{payload}"),
        }
    }
    Ok(())
}

/// Resolves `--net-json '<json>'` — a full custom network object, the CLI
/// mirror of posting `{"net": {...}}` to `/v1/network` — through the same
/// parser and caps the service uses. Returns `None` when the flag is
/// absent (preset `--net` path). The object carries its own `batch`, so
/// `--batch` (and `--net`) conflict with it.
fn net_from_flags(
    flags: &HashMap<String, String>,
) -> Result<Option<(workloads::Network, usize)>, String> {
    let Some(json) = flags.get("net-json") else {
        return Ok(None);
    };
    if flags.contains_key("net") {
        return Err("specify either --net or --net-json, not both".into());
    }
    if flags.contains_key("batch") {
        return Err("a custom network object carries its own `batch`; drop --batch".into());
    }
    let v: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("--net-json: invalid JSON: {e}"))?;
    clb_service::network_from_value(&v)
        .map(Some)
        .map_err(|e| format!("--net-json: {}", api_error_message(e)))
}

/// The network `network`/`dse` analyze and its batch: the `--net-json`
/// object when given, otherwise the `--net` preset (default `vgg16`) at
/// `--batch` (default 3).
fn network_from_flags(
    flags: &HashMap<String, String>,
) -> Result<(workloads::Network, usize), String> {
    if let Some(custom) = net_from_flags(flags)? {
        return Ok(custom);
    }
    let batch: usize = get(flags, "batch", 3)?;
    let name = flags.get("net").map_or("vgg16", String::as_str);
    let net = clb_service::network_by_name(name, batch).map_err(api_error_message)?;
    Ok((net, batch))
}

fn cmd_network(flags: &HashMap<String, String>) -> Result<(), String> {
    let (net, batch) = network_from_flags(flags)?;
    let (arch, label) = arch_choice_from_flags(flags)?;
    let acc = Accelerator::new(arch);
    let report = acc.analyze_network(&net).map_err(|e| e.to_string())?;

    if get(flags, "json", false)? {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    println!(
        "{} (batch {batch}) on {label}: {:.1} GMACs",
        net.name(),
        net.total_macs() as f64 / 1e9
    );
    println!(
        "{:<12} {:>10} {:>10} {:>9}",
        "layer", "DRAM(MB)", "pJ/MAC", "PE util"
    );
    for l in &report.layers {
        println!(
            "{:<12} {:>10.1} {:>10.2} {:>8.1}%",
            l.name,
            l.stats.dram.total_bytes() as f64 / 1e6,
            l.pj_per_mac(),
            l.stats.utilization.pe * 100.0
        );
    }
    println!(
        "\ntotal: {:.1} MB DRAM, {:.2} pJ/MAC, {:.3} s, {:.2} W",
        report.totals.dram.total_bytes() as f64 / 1e6,
        report.pj_per_mac(),
        report.seconds,
        report.power_w()
    );
    Ok(())
}

/// Parses a comma-separated list flag (`--pe-rows 16,24,32`); absent flags
/// fall back to the single default value.
fn get_list(
    flags: &HashMap<String, String>,
    key: &str,
    default: usize,
) -> Result<Vec<usize>, String> {
    match flags.get(key) {
        None => Ok(vec![default]),
        Some(raw) => {
            let mut values = Vec::new();
            for part in raw.split(',') {
                let v: usize = part
                    .trim()
                    .parse()
                    .map_err(|_| format!("invalid value `{part}` in --{key}"))?;
                values.push(v);
            }
            if values.is_empty() {
                return Err(format!("--{key} needs at least one value"));
            }
            Ok(values)
        }
    }
}

/// The staged-mode CLI flags, mirroring `/v1/dse`'s staged fields: any of
/// `--objective`, `--top-k` or `--stream` switches `clb dse` from the
/// legacy evaluate-everything sweep to the bound-pruned staged engine
/// (larger candidate cap, ranked frontier, optional live progress —
/// `--stream true` is the chunked mode, its snapshots printed as stderr
/// progress lines).
fn staged_flags(flags: &HashMap<String, String>) -> Result<Option<StagedOptions>, String> {
    use clb_service::api::limits;
    if !["objective", "top-k", "stream"]
        .iter()
        .any(|k| flags.contains_key(*k))
    {
        return Ok(None);
    }
    let objective = match flags.get("objective") {
        None => Objective::Cycles,
        Some(name) => Objective::parse(name).ok_or_else(|| {
            format!("unknown --objective `{name}` (expected cycles, traffic, energy or pareto)")
        })?,
    };
    let top_k: usize = get(flags, "top-k", limits::DEFAULT_DSE_TOP_K)?;
    if !(1..=limits::MAX_DSE_TOP_K).contains(&top_k) {
        return Err(format!(
            "--top-k must be between 1 and {}",
            limits::MAX_DSE_TOP_K
        ));
    }
    let stream = if get(flags, "stream", false)? {
        StreamMode::Chunked
    } else {
        StreamMode::Sync
    };
    Ok(Some(StagedOptions {
        objective,
        top_k,
        stream,
    }))
}

/// How `clb dse` presents a sweep: with `--stream true`, one stderr line
/// per frontier improvement (mirroring the fields of the service's chunked
/// snapshots; stderr so `--json true` output stays machine-parsable), then
/// either the exact `/v1/dse` JSON or a results table under `heading`
/// (`macs`, the target's MAC count, turns energy into pJ/MAC).
struct DsePrinter {
    heading: String,
    macs: u64,
    json: bool,
    stream: bool,
}

impl DseSink for DsePrinter {
    type Output = Result<(), String>;

    fn progress<R: DseReport>(&mut self, p: &StagedProgress<'_, R>) {
        if self.stream {
            let kept = p.frontier.len();
            eprintln!("processed={} pruned={} kept={kept}", p.processed, p.pruned);
        }
    }

    fn finish<R: DseReport>(self, response: DseResponse<R>) -> Result<(), String> {
        if self.json {
            let json = serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?;
            println!("{json}");
            return Ok(());
        }
        let funnel = match response.ranking {
            None => format!("{} feasible)", response.feasible()),
            Some((objective, _)) => format!(
                "{} pruned, {} evaluated); top {} by {}",
                response.pruned,
                response.evaluated,
                response.results.len(),
                objective.as_str()
            ),
        };
        println!(
            "{} — {} candidates ({} distinct, {funnel}\n",
            self.heading, response.submitted, response.unique
        );
        println!(
            "{:<10} {:>8} {:>12} {:>12} {:>10} {:>9}",
            "PEs", "eff KiB", "cycles", "DRAM (MB)", "pJ/MAC", "time(ms)"
        );
        for entry in &response.results {
            let pes = format!("{}x{}", entry.arch.pe_rows, entry.arch.pe_cols);
            let eff = entry.arch.effective_onchip_bytes() as f64 / 1024.0;
            match (&entry.report, entry.total_cycles, entry.seconds) {
                (Some(report), Some(cycles), Some(seconds)) => println!(
                    "{pes:<10} {eff:>8.1} {cycles:>12} {:>12.2} {:>10.2} {:>9.2}",
                    (report.sweep_dram_words() * clb::model::BYTES_PER_WORD) as f64 / 1e6,
                    report.sweep_energy_pj() / self.macs as f64,
                    seconds * 1e3
                ),
                _ => println!(
                    "{pes:<10} {eff:>8.1} infeasible: {}",
                    entry.error.as_deref().unwrap_or("unknown")
                ),
            }
        }
        Ok(())
    }
}

/// `clb dse`: sweep a grid of candidate architectures over one layer, or —
/// with `--net`/`--net-json` — over a full model (the CLI mirror of
/// `POST /v1/dse` in both its modes, run through the same
/// [`DseRequest::run`]). The grid axes are comma-separated lists; unlisted
/// axes stay at the base architecture (`--arch` JSON, default Table I
/// implementation 1). `--json true` prints the identical structure the
/// service returns. `--objective`, `--top-k` and `--stream` select the
/// staged engine (the CLI mirror of the same fields on `POST /v1/dse`).
fn cmd_dse(flags: &HashMap<String, String>) -> Result<(), String> {
    let (target, heading, macs) = if flags.contains_key("net") || flags.contains_key("net-json") {
        let layer_flags = ["co", "size", "ci", "k", "stride"];
        if let Some(flag) = layer_flags.iter().find(|f| flags.contains_key(**f)) {
            return Err(format!(
                "specify either a network (--net/--net-json) or the layer \
                 flag --{flag}, not both"
            ));
        }
        let (net, batch) = network_from_flags(flags)?;
        let heading = format!("{} (batch {batch})", net.name());
        let macs = net.total_macs();
        (DseTarget::Network { net, batch }, heading, macs)
    } else {
        let layer = layer_from_flags(flags)?;
        let heading = format!("layer: {layer}");
        (DseTarget::Layer(layer), heading, layer.macs())
    };
    let base = arch_from_flags(flags)?.unwrap_or_else(accel_sim::ArchConfig::example);
    let staged = staged_flags(flags)?;
    let printer = DsePrinter {
        heading,
        macs,
        json: get(flags, "json", false)?,
        stream: staged.is_some_and(|o| o.stream == StreamMode::Chunked),
    };
    let archs = grid_archs_from_flags(flags, &base, staged.is_some())?;
    DseRequest {
        target,
        archs,
        staged,
    }
    .run(printer)
}

/// Expands the `clb dse` grid flags into validated candidates. Axis order
/// is `api::GRID_AXES`; the expansion itself is shared with the service
/// (`api::archs_from_axes`), so `clb dse` and `/v1/dse` can never disagree
/// on which field an axis sweeps. Staged sweeps get the service's larger
/// staged candidate budget, exactly like a staged `/v1/dse` request.
fn grid_archs_from_flags(
    flags: &HashMap<String, String>,
    base: &accel_sim::ArchConfig,
    staged: bool,
) -> Result<Vec<accel_sim::ArchConfig>, String> {
    let axes: [Vec<usize>; 9] = [
        get_list(flags, "pe-rows", base.pe_rows)?,
        get_list(flags, "pe-cols", base.pe_cols)?,
        get_list(flags, "group-rows", base.group_rows)?,
        get_list(flags, "group-cols", base.group_cols)?,
        get_list(flags, "lreg", base.lreg_entries_per_pe)?,
        get_list(flags, "igbuf", base.igbuf_entries)?,
        get_list(flags, "wgbuf", base.wgbuf_entries)?,
        get_list(flags, "greg-bytes", base.greg_bytes)?,
        get_list(flags, "greg-segment", base.greg_segment_entries)?,
    ];
    if staged {
        clb_service::api::archs_from_axes_staged(&axes, base).map_err(api_error_message)
    } else {
        clb_service::api::archs_from_axes(&axes, base).map_err(api_error_message)
    }
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let mut config = clb_service::ServiceConfig {
        port: get(flags, "port", 8080)?,
        threads: get(flags, "threads", 0)?,
        ..Default::default()
    };
    config.io_workers = get(flags, "io-workers", config.io_workers)?;
    config.queue_capacity = get(flags, "queue", config.queue_capacity)?;
    config.result_cache_capacity = get(flags, "result-cache", config.result_cache_capacity)?;
    config.max_body_bytes = get(flags, "max-body", config.max_body_bytes)?;
    config.max_requests_per_connection = get(
        flags,
        "keepalive-requests",
        config.max_requests_per_connection,
    )?;
    config.idle_timeout = std::time::Duration::from_millis(get(
        flags,
        "keepalive-idle-ms",
        config.idle_timeout.as_millis() as u64,
    )?);
    config.max_connections = get(flags, "max-connections", config.max_connections)?;
    config.drain_deadline = std::time::Duration::from_millis(get(
        flags,
        "drain-ms",
        config.drain_deadline.as_millis() as u64,
    )?);
    config.allow_shutdown = get(flags, "allow-shutdown", config.allow_shutdown)?;
    if get(flags, "log", false)? {
        config.log = Some(std::sync::Arc::new(|line: &str| eprintln!("{line}")));
    }
    let search_cache: usize = get(
        flags,
        "search-cache",
        dataflow::DEFAULT_SEARCH_CACHE_CAPACITY,
    )?;
    dataflow::set_search_cache_capacity(search_cache);
    let server = clb_service::Server::bind(config).map_err(|e| e.to_string())?;
    eprintln!(
        "clb-service listening on http://{} (try GET /healthz)",
        server.local_addr().map_err(|e| e.to_string())?
    );
    server.run().map_err(|e| e.to_string())
}

fn usage() -> &'static str {
    "usage: clb <bound|sweep|plan|simulate|network|dse|serve> [--flag value]...\n\
     \n\
     clb bound    --co 512 --size 28 --ci 256 [--k 3] [--stride 1] [--batch 3] [--mem-kib 66.5]\n\
     clb sweep    --co 512 --size 28 --ci 256 [--mem-kib 66.5]\n\
     clb plan     --co 512 --size 28 --ci 256 [--implem 1]\n\
     clb simulate --co 512 --size 28 --ci 256 --tb 1 --tz 16 --ty 14 --tx 14 [--implem 1]\n\
     \\            [--trace json|vcd] [--trace-out FILE]   # execution trace (VCD: GTKWave)\n\
     clb network  --net vgg16|alexnet|resnet50|inception|fc [--batch 3] [--implem 1]\n\
     \\            [--json true]   (or --net-json '<json>': a custom network object)\n\
     clb dse      --co 512 --size 28 --ci 256 [--pe-rows 16,24,32] [--pe-cols ...]\n\
     \\            [--group-rows ...] [--group-cols ...] [--lreg 64,128] [--igbuf ...]\n\
     \\            [--wgbuf ...] [--greg-bytes ...] [--greg-segment ...] [--json true]\n\
     \\            [--objective cycles|traffic|energy|pareto] [--top-k 16] [--stream true]\n\
     \\            (any staged flag switches to the bound-pruned engine: 2^20\n\
     \\            candidate cap, ranked top-k frontier, live progress on stderr)\n\
     clb dse      --net vgg16|alexnet|resnet50|inception|fc [--batch 3]\n\
     \\            [--pe-rows 16,24,32] ...   (or --net-json '<json>')\n\
     \\            (network mode: each candidate evaluated over the whole model;\n\
     \\            takes the same staged flags)\n\
     clb serve    [--port 8080] [--threads 0] [--io-workers 0] [--queue 256]\n\
     \\            [--result-cache 1024] [--search-cache 65536] [--max-body 1048576]\n\
     \\            [--keepalive-requests 128] [--keepalive-idle-ms 5000]\n\
     \\            [--max-connections 1024] [--drain-ms 5000] [--allow-shutdown true]\n\
     \\            [--log true]   (--io-workers: HTTP I/O worker threads; 0 = auto)\n\
     \n\
     global flags:\n\
     --threads N        worker threads (search engine; serve: compute permits; 0 = auto)\n\
     --cache-stats true print search-cache hits/misses after the command\n\
     --arch '<json>'    full custom architecture (any verb that takes --implem;\n\
     \\                  bound/sweep derive the memory size from it; dse uses it\n\
     \\                  as the grid base) — fields default to implementation 1,\n\
     \\                  e.g. '{\"pe_rows\":24,\"pe_cols\":24,\"igbuf_entries\":3072}'\n\
     --net-json '<json>' full custom network (network/dse): {\"name\",\"batch\",\n\
     \\                  \"layers\":[{\"co\",\"ci\",\"size\",...}]} — the CLI mirror of\n\
     \\                  posting a network object; carries its own batch"
}

/// Applies the global engine flags (`--threads`, `--cache-stats`); returns
/// whether cache statistics were requested.
fn apply_engine_flags(flags: &HashMap<String, String>) -> Result<bool, String> {
    let threads: usize = get(flags, "threads", 0)?;
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| format!("--threads: {e}"))?;
    get(flags, "cache-stats", false)
}

fn print_cache_stats() {
    let stats = dataflow::cache_stats();
    eprintln!(
        "search cache: {} hits / {} misses ({:.0}% hit rate, {} entries)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.entries
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = parse_flags(rest).and_then(|flags| {
        let cache_stats = apply_engine_flags(&flags)?;
        let outcome = match cmd.as_str() {
            "bound" => cmd_bound(&flags),
            "sweep" => cmd_sweep(&flags),
            "plan" => cmd_plan(&flags),
            "simulate" => cmd_simulate(&flags),
            "network" => cmd_network(&flags),
            "dse" => cmd_dse(&flags),
            "serve" => cmd_serve(&flags),
            other => Err(format!("unknown command `{other}`\n{}", usage())),
        };
        if cache_stats {
            print_cache_stats();
        }
        outcome
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parse_flags_roundtrip() {
        let args: Vec<String> = ["--co", "64", "--size", "28"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let parsed = parse_flags(&args).unwrap();
        assert_eq!(parsed.get("co").unwrap(), "64");
        assert_eq!(parsed.get("size").unwrap(), "28");
    }

    #[test]
    fn parse_flags_rejects_bare_values() {
        let args: Vec<String> = ["co", "64"].iter().map(ToString::to_string).collect();
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_flags_rejects_missing_value() {
        let args: Vec<String> = ["--co"].iter().map(ToString::to_string).collect();
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn get_uses_default_and_parses() {
        let f = flags(&[("co", "64")]);
        assert_eq!(get::<usize>(&f, "co", 1).unwrap(), 64);
        assert_eq!(get::<usize>(&f, "size", 7).unwrap(), 7);
        let bad = flags(&[("co", "abc")]);
        assert!(get::<usize>(&bad, "co", 1).is_err());
    }

    #[test]
    fn parse_errors_name_the_offending_flag() {
        // Scalar parse failures carry the `--flag` spelling the user typed.
        let err = get::<u16>(&flags(&[("port", "eighty")]), "port", 8080).unwrap_err();
        assert!(err.contains("--port"), "{err}");
        let err = get::<usize>(&flags(&[("threads", "lots")]), "threads", 0).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        let err = get::<usize>(&flags(&[("io-workers", "-1")]), "io-workers", 0).unwrap_err();
        assert!(err.contains("--io-workers"), "{err}");
        // Layer validation failures name the layer flags, not just the cause.
        let zero_k = flags(&[("co", "16"), ("size", "14"), ("ci", "8"), ("k", "0")]);
        let err = layer_from_flags(&zero_k).unwrap_err();
        assert!(err.contains("--k"), "{err}");
    }

    #[test]
    fn json_flag_is_a_parsed_bool_not_a_presence_check() {
        assert!(!get::<bool>(&flags(&[("json", "false")]), "json", false).unwrap());
        assert!(get::<bool>(&flags(&[("json", "true")]), "json", false).unwrap());
        let err = get::<bool>(&flags(&[("json", "yes")]), "json", false).unwrap_err();
        assert!(err.contains("--json"), "{err}");
        // `--json false` must take the human-readable path, and garbage must
        // surface the flag name instead of silently enabling JSON.
        let base = [("net", "alexnet"), ("batch", "1")];
        cmd_network(&flags(&[&base[..], &[("json", "false")]].concat())).unwrap();
        let err = cmd_network(&flags(&[&base[..], &[("json", "maybe")]].concat())).unwrap_err();
        assert!(err.contains("--json"), "{err}");
    }

    #[test]
    fn layer_requires_core_dimensions() {
        assert!(layer_from_flags(&flags(&[("co", "64")])).is_err());
        let ok = layer_from_flags(&flags(&[("co", "64"), ("size", "28"), ("ci", "32")]));
        assert!(ok.is_ok());
        assert_eq!(ok.unwrap().out_channels(), 64);
    }

    #[test]
    fn commands_run_on_valid_input() {
        let f = flags(&[("co", "16"), ("size", "14"), ("ci", "8"), ("batch", "1")]);
        cmd_bound(&f).unwrap();
        cmd_sweep(&f).unwrap();
        cmd_plan(&f).unwrap();
    }

    #[test]
    fn simulate_runs_explicit_tilings_and_rejects_bad_ones() {
        let base = [("co", "16"), ("size", "14"), ("ci", "8"), ("batch", "1")];
        let ok = flags(
            &[
                &base[..],
                &[("tb", "1"), ("tz", "8"), ("ty", "7"), ("tx", "7")],
            ]
            .concat(),
        );
        cmd_simulate(&ok).unwrap();
        // Missing tiling flags.
        let missing = flags(&base);
        assert!(cmd_simulate(&missing).unwrap_err().contains("--tb"));
        // Zero dimension.
        let zero = flags(
            &[
                &base[..],
                &[("tb", "1"), ("tz", "0"), ("ty", "7"), ("tx", "7")],
            ]
            .concat(),
        );
        assert!(cmd_simulate(&zero).is_err());
        // Oversized dimension.
        let oversized = flags(
            &[
                &base[..],
                &[("tb", "1"), ("tz", "8"), ("ty", "99"), ("tx", "7")],
            ]
            .concat(),
        );
        assert!(cmd_simulate(&oversized).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn simulate_traces_to_files_and_rejects_unknown_formats() {
        let base = [("co", "16"), ("size", "14"), ("ci", "8"), ("batch", "1")];
        let tiling = [("tb", "1"), ("tz", "8"), ("ty", "7"), ("tx", "7")];
        let dir = std::env::temp_dir().join(format!("clb-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vcd_path = dir.join("trace.vcd");
        let vcd_flags = flags(
            &[
                &base[..],
                &tiling[..],
                &[("trace", "vcd"), ("trace-out", vcd_path.to_str().unwrap())],
            ]
            .concat(),
        );
        cmd_simulate(&vcd_flags).unwrap();
        let vcd = std::fs::read_to_string(&vcd_path).unwrap();
        assert!(vcd.contains("$enddefinitions $end"), "VCD header missing");
        assert!(vcd.lines().any(|l| l.starts_with('#')), "no VCD changes");
        // JSON trace to a file parses and carries the pinned totals.
        let json_path = dir.join("trace.json");
        let json_flags = flags(
            &[
                &base[..],
                &tiling[..],
                &[
                    ("trace", "json"),
                    ("trace-out", json_path.to_str().unwrap()),
                ],
            ]
            .concat(),
        );
        cmd_simulate(&json_flags).unwrap();
        let parsed: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        assert!(parsed.get_field("totals").is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
        // Unknown formats are refused.
        let bad = flags(&[&base[..], &tiling[..], &[("trace", "svg")]].concat());
        assert!(cmd_simulate(&bad).unwrap_err().contains("json|vcd"));
    }

    #[test]
    fn network_rejects_unknown_name() {
        let f = flags(&[("net", "lenet")]);
        let err = cmd_network(&f).unwrap_err();
        // The refusal carries the full service vocabulary — CLI and
        // endpoint must never drift apart again.
        for name in ["vgg16", "alexnet", "resnet50", "inception", "fc"] {
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn net_json_parses_a_custom_network_through_the_service_caps() {
        const TINY: &str = "{\"name\":\"tiny\",\"batch\":1,\
             \"layers\":[{\"co\":8,\"ci\":3,\"size\":14}]}";
        let (net, batch) = net_from_flags(&flags(&[("net-json", TINY)]))
            .unwrap()
            .unwrap();
        assert_eq!(net.name(), "tiny");
        assert_eq!(batch, 1);
        assert_eq!(net.len(), 1);
        // Absent flag: the preset path.
        assert!(net_from_flags(&flags(&[])).unwrap().is_none());
        // Conflicts: --net and --batch both clash with the object's own fields.
        let err = net_from_flags(&flags(&[("net-json", TINY), ("net", "vgg16")])).unwrap_err();
        assert!(err.contains("--net-json"), "{err}");
        let err = net_from_flags(&flags(&[("net-json", TINY), ("batch", "2")])).unwrap_err();
        assert!(err.contains("--batch"), "{err}");
        // Structural and cap failures surface the service's message under
        // the flag's name.
        let err = net_from_flags(&flags(&[("net-json", "{nope")])).unwrap_err();
        assert!(
            err.contains("--net-json") && err.contains("invalid JSON"),
            "{err}"
        );
        let err =
            net_from_flags(&flags(&[("net-json", "{\"batch\":1,\"layers\":[]}")])).unwrap_err();
        assert!(err.contains("at least one layer"), "{err}");
        // The whole verb paths accept it end to end.
        cmd_network(&flags(&[("net-json", TINY)])).unwrap();
        cmd_dse(&flags(&[("net-json", TINY), ("pe-rows", "16")])).unwrap();
        // Layer flags conflict with --net-json exactly as with --net.
        let err = cmd_dse(&flags(&[("net-json", TINY), ("co", "16")])).unwrap_err();
        assert!(err.contains("either"), "{err}");
    }

    #[test]
    fn arch_flag_parses_validates_and_conflicts() {
        // Valid custom architecture with defaults filled in.
        let f = flags(&[("arch", "{\"pe_rows\":24,\"pe_cols\":24}")]);
        let arch = arch_from_flags(&f).unwrap().unwrap();
        assert_eq!((arch.pe_rows, arch.pe_cols), (24, 24));
        assert_eq!(arch.wgbuf_entries, 256, "unset fields default to impl 1");
        // Invalid JSON and violated invariants are reported.
        assert!(arch_from_flags(&flags(&[("arch", "{nope")]))
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(arch_from_flags(&flags(&[("arch", "{\"pe_rows\":0}")]))
            .unwrap_err()
            .contains("non-empty"));
        // --arch and --implem are mutually exclusive.
        let both = flags(&[("arch", "{}"), ("implem", "2")]);
        assert!(arch_from_flags(&both).unwrap_err().contains("either"));
        // No flag at all means "use --implem".
        assert!(arch_from_flags(&flags(&[])).unwrap().is_none());
    }

    #[test]
    fn verbs_accept_custom_architectures() {
        let base = [
            ("co", "16"),
            ("size", "14"),
            ("ci", "8"),
            ("batch", "1"),
            (
                "arch",
                "{\"pe_rows\":8,\"pe_cols\":8,\"group_rows\":2,\"group_cols\":2}",
            ),
        ];
        cmd_bound(&flags(&base)).unwrap();
        cmd_sweep(&flags(&base)).unwrap();
        cmd_plan(&flags(&base)).unwrap();
        let sim = flags(
            &[
                &base[..],
                &[("tb", "1"), ("tz", "8"), ("ty", "7"), ("tx", "7")],
            ]
            .concat(),
        );
        cmd_simulate(&sim).unwrap();
        // --arch conflicts with --mem-kib on the memory-driven verbs.
        let conflict = flags(&[&base[..], &[("mem-kib", "66.5")]].concat());
        assert!(cmd_bound(&conflict).unwrap_err().contains("either"));
    }

    #[test]
    fn dse_sweeps_a_grid_and_rejects_bad_ones() {
        let base = [("co", "16"), ("size", "14"), ("ci", "8"), ("batch", "1")];
        let ok = flags(&[&base[..], &[("pe-rows", "16,32"), ("lreg", "64,128")]].concat());
        cmd_dse(&ok).unwrap();
        // Malformed list values.
        let bad = flags(&[&base[..], &[("pe-rows", "16,abc")]].concat());
        assert!(cmd_dse(&bad).unwrap_err().contains("invalid value"));
        // A grid whose candidate violates an invariant names it.
        let invalid = flags(&[&base[..], &[("pe-rows", "18")]].concat());
        assert!(cmd_dse(&invalid).unwrap_err().contains("must divide"));
        // Over-cap grids are refused before evaluation.
        let over = flags(
            &[
                &base[..],
                &[
                    ("pe-rows", "4,8,12,16,20,24,28,32"),
                    ("pe-cols", "4,8,12,16,20,24,28,32"),
                    ("lreg", "16,32,64,128,256"),
                ],
            ]
            .concat(),
        );
        assert!(cmd_dse(&over).unwrap_err().contains("cap"));
    }

    #[test]
    fn dse_staged_flags_select_and_validate_the_staged_engine() {
        let base = [("co", "16"), ("size", "14"), ("ci", "8"), ("batch", "1")];
        // Any staged flag runs the staged engine end to end.
        let ranked = flags(
            &[
                &base[..],
                &[
                    ("pe-rows", "16,32"),
                    ("lreg", "64,128"),
                    ("objective", "energy"),
                    ("top-k", "2"),
                ],
            ]
            .concat(),
        );
        cmd_dse(&ranked).unwrap();
        // --stream alone is enough to go staged, and prints progress.
        let streamed = flags(&[&base[..], &[("pe-rows", "16,32"), ("stream", "true")]].concat());
        cmd_dse(&streamed).unwrap();
        // Hostile staged values are refused with the vocabulary.
        let bad_objective = flags(&[&base[..], &[("objective", "latency")]].concat());
        assert!(cmd_dse(&bad_objective)
            .unwrap_err()
            .contains("cycles, traffic, energy or pareto"));
        let bad_top_k = flags(&[&base[..], &[("objective", "cycles"), ("top-k", "0")]].concat());
        assert!(cmd_dse(&bad_top_k).unwrap_err().contains("--top-k"));
        let bad_stream = flags(&[&base[..], &[("stream", "yes")]].concat());
        assert!(cmd_dse(&bad_stream).is_err());
        // A grid over the legacy 256 cap is fine under the staged budget.
        let wide = flags(
            &[
                &base[..],
                &[
                    ("pe-rows", "4,8,12,16,20,24,28,32"),
                    ("pe-cols", "4,8,12,16,20,24,28,32"),
                    ("lreg", "16,32,64,128,256"),
                    ("objective", "cycles"),
                    ("top-k", "1"),
                ],
            ]
            .concat(),
        );
        cmd_dse(&wide).unwrap();
        // Network mode takes the same staged flags.
        let net = flags(&[
            ("net", "alexnet"),
            ("batch", "1"),
            ("pe-rows", "16,32"),
            ("objective", "pareto"),
            ("top-k", "2"),
        ]);
        cmd_dse(&net).unwrap();
    }

    #[test]
    fn dse_network_mode_sweeps_a_model_and_validates_flags() {
        // resnet_bottleneck is not exposed over the name vocabulary, so the
        // cheapest real model is alexnet at batch 1.
        let ok = flags(&[("net", "alexnet"), ("batch", "1"), ("pe-rows", "16,32")]);
        cmd_dse(&ok).unwrap();
        // Unknown model names are refused with the endpoint's vocabulary.
        let bad = flags(&[("net", "lenet")]);
        assert!(cmd_dse(&bad).unwrap_err().contains("vgg16"));
        // Layer flags conflict with --net.
        let mixed = flags(&[("net", "alexnet"), ("co", "16")]);
        assert!(cmd_dse(&mixed).unwrap_err().contains("either"));
        // Out-of-limit batches are refused.
        let over = flags(&[("net", "alexnet"), ("batch", "9999")]);
        assert!(cmd_dse(&over).unwrap_err().contains("batch"));
    }

    #[test]
    fn engine_flags_parse_and_apply() {
        assert!(!apply_engine_flags(&flags(&[])).unwrap());
        assert!(apply_engine_flags(&flags(&[("cache-stats", "true")])).unwrap());
        assert!(!apply_engine_flags(&flags(&[("cache-stats", "false")])).unwrap());
        assert!(apply_engine_flags(&flags(&[("cache-stats", "yes")])).is_err());
        assert!(apply_engine_flags(&flags(&[("threads", "2")])).is_ok());
        assert!(apply_engine_flags(&flags(&[("threads", "x")])).is_err());
        // Leave the global thread count on auto for the other tests.
        apply_engine_flags(&flags(&[("threads", "0")])).unwrap();
        print_cache_stats();
    }
}
