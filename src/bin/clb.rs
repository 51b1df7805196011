//! `clb` — command-line interface to the library.
//!
//! ```text
//! clb bound    --co 512 --size 28 --ci 256 [--k 3] [--stride 1] [--batch 3] [--mem-kib 66.5]
//! clb sweep    --co 512 --size 28 --ci 256 ...           # all dataflows at one memory size
//! clb plan     --co 512 --size 28 --ci 256 [--implem 1]  # tiling + simulation on an implementation
//! clb simulate --co 512 --size 28 --ci 256 --tb 1 --tz 16 --ty 14 --tx 14 [--implem 1]
//! clb network  --net vgg16|alexnet|resnet50|inception|fc [--batch 3] [--implem 1]
//! clb network  --net-json '{"name":"n","batch":1,"layers":[{"co":64,"ci":3,"size":224}]}'
//! clb dse      --co 512 --size 28 --ci 256 [--pe-rows 16,24,32] [--lreg 64,128] ...
//! clb dse      --net vgg16 [--batch 3] [--pe-rows 16,24,32] ...   # whole-model sweep
//! clb dse      --net-json '<json>' [--pe-rows 16,24,32] ...       # custom-model sweep
//! clb serve    [--port 8080] [--threads 0] [--io-workers 0] [--queue 256] [--result-cache 1024]
//!              [--keepalive-requests 128] [--keepalive-idle-ms 5000] [--max-connections 1024]
//!              [--drain-ms 5000] [--allow-shutdown true] [--log true]
//! ```
//!
//! The analysis verbs are the CLI mirror of the service's `/v1/<verb>`
//! routes. Each flag sets one key of the route's JSON body (`FLAG_KEYS`:
//! `--mem-kib` sets `mem_kib`, `--tb` sets `tiling.b`, `--trace` sets
//! `trace.format`, …), and the body goes through the service's own parse
//! and run ([`Endpoint`], [`DseRequest`]), so a verb accepts exactly what
//! its route accepts and fails with the route's error message. A verb
//! prints the route's exact body with `--json true` and a table otherwise.
//! A flag the route has no key for is refused by name; `--json`,
//! `--trace-out`, `--threads` and `--cache-stats` are the CLI's own.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use clb::core::StagedProgress;
use clb::prelude::*;
use clb_service::{
    ArchChoice, BoundRequest, DseReport, DseRequest, DseResponse, DseSink, DseTarget, Echo,
    Endpoint, NetworkRequest, PlanRequest, SimulateRequest, StreamMode, SweepRequest, TraceOutput,
};
use serde_json::Value;

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
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

fn get<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
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

/// How a flag's text becomes a JSON value.
#[derive(Clone, Copy)]
enum Kind {
    /// A number. `nan`, `inf` and negatives pass through for the service
    /// to refuse by name.
    Number,
    /// A string.
    Text,
    /// A JSON document.
    Json,
    /// A comma-separated list of numbers.
    List,
    /// `true`/`false` as a JSON bool, any other word as a string.
    Switch,
}

use Kind::{Json, List, Number, Switch, Text};

/// One flag: its name, the body key it sets (a dotted path into nested
/// objects) and how its text becomes the value.
type FlagKey = (&'static str, &'static str, Kind);

/// The flag→key table of the analysis verbs. A verb accepts a flag when
/// its route knows the key's first segment.
const FLAG_KEYS: [FlagKey; 16] = [
    ("co", "co", Number),
    ("size", "size", Number),
    ("ci", "ci", Number),
    ("k", "k", Number),
    ("stride", "stride", Number),
    ("batch", "batch", Number),
    ("mem-kib", "mem_kib", Number),
    ("implem", "implem", Number),
    ("arch", "arch", Json),
    ("tb", "tiling.b", Number),
    ("tz", "tiling.z", Number),
    ("ty", "tiling.y", Number),
    ("tx", "tiling.x", Number),
    ("trace", "trace.format", Text),
    ("net", "net", Text),
    ("net-json", "net", Json),
];

/// `clb dse`'s keys, read before [`FLAG_KEYS`]: the architecture is the
/// grid's base, a network is the target, and each grid axis takes a list.
const DSE_FLAG_KEYS: [FlagKey; 15] = [
    ("arch", "grid.base", Json),
    ("net", "target.network", Text),
    ("net-json", "target.network", Json),
    ("objective", "objective", Text),
    ("top-k", "top_k", Number),
    ("stream", "stream", Switch),
    ("pe-rows", "grid.pe_rows", List),
    ("pe-cols", "grid.pe_cols", List),
    ("group-rows", "grid.group_rows", List),
    ("group-cols", "grid.group_cols", List),
    ("lreg", "grid.lreg_entries_per_pe", List),
    ("igbuf", "grid.igbuf_entries", List),
    ("wgbuf", "grid.wgbuf_entries", List),
    ("greg-bytes", "grid.greg_bytes", List),
    ("greg-segment", "grid.greg_segment_entries", List),
];

/// The flags that set no body key.
const CLI_ONLY: [&str; 4] = ["json", "trace-out", "threads", "cache-stats"];

/// `raw`, the text of `--flag`, as a JSON value of `kind`.
fn value_of(flag: &str, raw: &str, kind: Kind) -> Result<Value, String> {
    let number = |text: &str| {
        text.trim()
            .parse()
            .map(Value::Number)
            .map_err(|_| format!("invalid value `{text}` for --{flag}"))
    };
    Ok(match kind {
        Number => number(raw)?,
        Text => Value::String(raw.to_string()),
        Json => serde_json::from_str(raw).map_err(|e| format!("--{flag}: invalid JSON: {e}"))?,
        List => Value::Array(raw.split(',').map(number).collect::<Result<_, _>>()?),
        Switch => raw
            .parse()
            .map_or_else(|_| Value::String(raw.to_string()), Value::Bool),
    })
}

/// Sets `path` (`key`, or `object.key`) of the request body `fields` to
/// `value`.
fn insert(fields: &mut Vec<(String, Value)>, path: &str, value: Value) {
    match path.split_once('.') {
        None => fields.push((path.to_string(), value)),
        Some((head, key)) => match fields.iter_mut().find(|(name, _)| name == head) {
            Some((_, Value::Object(inner))) => inner.push((key.to_string(), value)),
            _ => fields.push((
                head.to_string(),
                Value::Object(vec![(key.to_string(), value)]),
            )),
        },
    }
}

/// The request body `flags` spell, as its top-level fields, for a route
/// whose top-level keys are `keys` (space-separated), each flag setting its
/// key through `table` or [`FLAG_KEYS`]; and whether `--json true` asked
/// for the route's exact body instead of the table. A flag the route has no
/// key for, and two flags for one key, are refused by name.
fn request_from_flags(
    flags: &Flags,
    table: &[FlagKey],
    keys: &str,
) -> Result<(Vec<(String, Value)>, bool), String> {
    let json = get(flags, "json", false)?;
    if flags.contains_key("trace-out") && (json || !flags.contains_key("trace")) {
        return Err("--trace-out writes the trace of a table: \
                    it needs --trace json|vcd and no --json true"
            .into());
    }
    let mut names: Vec<&String> = flags
        .keys()
        .filter(|f| !CLI_ONLY.contains(&f.as_str()))
        .collect();
    names.sort();
    let routed =
        |(_, path, _): &&FlagKey| keys.split(' ').any(|k| path.split('.').next() == Some(k));
    let (mut fields, mut set_by) = (Vec::new(), Vec::new());
    for flag in names {
        let known = table
            .iter()
            .chain(&FLAG_KEYS)
            .find(|(name, ..)| name == flag);
        let Some(&(_, path, kind)) = known.filter(routed) else {
            return Err(format!("unknown flag --{flag} for this verb"));
        };
        if let Some((other, _)) = set_by.iter().find(|(_, p)| *p == path) {
            return Err(format!(
                "--{other} and --{flag} both set `{path}`; give one"
            ));
        }
        set_by.push((flag, path));
        insert(&mut fields, path, value_of(flag, &flags[flag], kind)?);
    }
    Ok((fields, json))
}

/// A route's exact body (`serde_json::to_string_pretty` of its response),
/// as `--json true` prints it.
fn render(body: Result<String, serde_json::Error>) -> Result<String, String> {
    body.map(|json| json + "\n").map_err(|e| e.to_string())
}

/// An analysis verb: its flags become the route's body, which parses and
/// runs exactly as the service's would; the output is the rendered body
/// with `--json true`, the verb's `table` otherwise.
fn analyze<E: Endpoint>(
    flags: &Flags,
    table: impl FnOnce(&E, &E::Response) -> Result<String, String>,
) -> Result<String, String> {
    let (fields, json) = request_from_flags(flags, &[], E::KEYS)?;
    let request = E::from_value(&Value::Object(fields)).map_err(api_error_message)?;
    let response = request.run().map_err(api_error_message)?;
    if json {
        render(serde_json::to_string_pretty(&response))
    } else {
        table(&request, &response)
    }
}

fn label(choice: &ArchChoice) -> String {
    match choice {
        ArchChoice::Implem(implem) => format!("implementation {implem}"),
        ArchChoice::Custom(_) => "custom architecture".to_string(),
    }
}

/// Appends a requested trace to a table: printed after it, or written to
/// `--trace-out FILE` with a one-line receipt.
fn with_trace(
    mut table: String,
    trace: Option<&TraceOutput>,
    path: Option<&String>,
) -> Result<String, String> {
    let (format, payload) = match trace {
        None => return Ok(table),
        Some(TraceOutput::Json(trace)) => (
            "json",
            serde_json::to_string_pretty(trace).map_err(|e| e.to_string())?,
        ),
        Some(TraceOutput::Vcd(vcd)) => ("vcd", vcd.clone()),
    };
    match path {
        Some(path) => {
            std::fs::write(path, &payload)
                .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
            table += &format!("trace: {} {format} bytes -> {path}\n", payload.len());
        }
        None => table += &format!("{payload}\n"),
    }
    Ok(table)
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

fn cmd_bound(flags: &Flags) -> Result<String, String> {
    analyze(flags, |_: &BoundRequest, b| {
        let memory = OnChipMemory::from_kib(b.mem_kib);
        let mut out = format!("layer: {} (R = {})\n", b.layer, b.window_reuse);
        out += &format!("MACs:  {:.3} G\n", b.macs as f64 / 1e9);
        out += &format!("effective on-chip memory: {memory}\n");
        out += &format!("Theorem 2 (asymptotic): {:.2} MB\n", b.theorem2_bytes / 1e6);
        out += &format!("Eq. 15 practical bound: {:.2} MB\n", b.bound_bytes / 1e6);
        out += &format!("naive (no reuse):       {:.2} MB\n", b.naive_bytes / 1e6);
        out += &format!("reduction factor sqrt(R*S) = {:.1}\n", b.reduction_factor);
        Ok(out)
    })
}

fn cmd_sweep(flags: &Flags) -> Result<String, String> {
    analyze(flags, |_: &SweepRequest, s| {
        let bound = s.bound_bytes;
        let row = |name: &str, b: u64| {
            format!("{name:<16} {:>10.2} {:>11.2}x\n", mb(b), b as f64 / bound)
        };
        let (memory, lower) = (OnChipMemory::from_kib(s.mem_kib), bound / 1e6);
        let mut out = format!("layer: {}, memory {memory}\n\n", s.layer);
        out += "dataflow          DRAM (MB)     vs bound\n";
        out += &format!("{:<16} {lower:>10.2} {:>12}\n", "lower bound", "1.00x");
        out += &row("found minimum", s.found_minimum.traffic.total_bytes());
        for entry in &s.dataflows {
            out += &match &entry.choice {
                Some(c) => row(&entry.name, c.traffic.total_bytes()),
                None => format!("{:<16} {:>10} {:>12}\n", entry.name, "-", "infeasible"),
            };
        }
        Ok(out)
    })
}

/// The first lines of `plan` and `simulate`: the layer and what ran it.
fn layer_heading(layer: &ConvLayer, choice: &ArchChoice) -> String {
    let pes = choice.arch().pe_count();
    format!("layer: {layer}\n{}: {pes} PEs\n", label(choice))
}

fn cmd_plan(flags: &Flags) -> Result<String, String> {
    analyze(flags, |request: &PlanRequest, answer| {
        let report = match &answer.response {
            Echo::Implem(preset) => &preset.report,
            Echo::Custom(custom) => &custom.report,
        };
        let stats = &report.stats;
        let mut out = layer_heading(&request.layer, &request.choice);
        out += &format!("tiling: {}\n", report.tiling);
        let dram = mb(stats.dram.total_bytes());
        let vs_bound = (report.dram_vs_bound() - 1.0) * 100.0;
        out += &format!("DRAM:  {dram:.2} MB ({vs_bound:+.1}% vs bound)\n");
        let gbuf = mb(stats.gbuf.total_bytes());
        let writes = stats.reg.total_writes() as f64 / 1e9;
        out += &format!("GBuf:  {gbuf:.2} MB   Regs: {writes:.3} G writes\n");
        let ms = stats.seconds(request.choice.arch().core_freq_hz) * 1e3;
        let (pj, pe) = (report.pj_per_mac(), stats.utilization.pe * 100.0);
        out += &format!("time:  {ms:.2} ms   energy: {pj:.2} pJ/MAC   PE util: {pe:.1}%\n");
        with_trace(out, answer.trace.as_ref(), flags.get("trace-out"))
    })
}

/// `clb simulate`: the cycle simulator on an explicit tiling instead of the
/// planner's choice. `--trace json|vcd` also records the execution trace
/// (VCD always carries the per-block expansion), printed after the table or
/// written to `--trace-out FILE`.
fn cmd_simulate(flags: &Flags) -> Result<String, String> {
    analyze(flags, |request: &SimulateRequest, answer| {
        let (stats, total_cycles, seconds) = match &answer.response {
            Echo::Implem(preset) => (&preset.stats, preset.total_cycles, preset.seconds),
            Echo::Custom(custom) => (&custom.stats, custom.total_cycles, custom.seconds),
        };
        let mut out = layer_heading(&request.layer, &request.choice);
        out += &format!("tiling: {} ({} blocks)\n", request.tiling, stats.blocks);
        let (dram, gbuf) = (mb(stats.dram.total_bytes()), mb(stats.gbuf.total_bytes()));
        let writes = stats.reg.total_writes() as f64 / 1e9;
        out += &format!("DRAM:  {dram:.2} MB   GBuf: {gbuf:.2} MB   Regs: {writes:.3} G writes\n");
        let (compute, stall) = (stats.compute_cycles, stats.stall_cycles);
        out += &format!("cycles: {compute} compute + {stall} stall = {total_cycles}\n");
        let (ms, pe) = (seconds * 1e3, stats.utilization.pe * 100.0);
        let memory = stats.utilization.memory_overall * 100.0;
        out += &format!("time:  {ms:.2} ms   PE util: {pe:.1}%   memory util: {memory:.1}%\n");
        with_trace(out, answer.trace.as_ref(), flags.get("trace-out"))
    })
}

fn cmd_network(flags: &Flags) -> Result<String, String> {
    analyze(flags, |request: &NetworkRequest, report| {
        let (name, batch) = (request.net.name(), request.batch);
        let (on, gmacs) = (
            label(&request.choice),
            request.net.total_macs() as f64 / 1e9,
        );
        let mut out = format!("{name} (batch {batch}) on {on}: {gmacs:.1} GMACs\n");
        out += "layer          DRAM(MB)     pJ/MAC   PE util\n";
        for l in &report.layers {
            let dram = mb(l.stats.dram.total_bytes());
            let (pj, pe) = (l.pj_per_mac(), l.stats.utilization.pe * 100.0);
            out += &format!("{:<12} {dram:>10.1} {pj:>10.2} {pe:>8.1}%\n", l.name);
        }
        let (dram, pj) = (mb(report.totals.dram.total_bytes()), report.pj_per_mac());
        let (seconds, watts) = (report.seconds, report.power_w());
        out +=
            &format!("\ntotal: {dram:.1} MB DRAM, {pj:.2} pJ/MAC, {seconds:.3} s, {watts:.2} W\n");
        Ok(out)
    })
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
    type Output = Result<String, String>;

    fn progress<R: DseReport>(&mut self, p: &StagedProgress<'_, R>) {
        if self.stream {
            let kept = p.frontier.len();
            eprintln!("processed={} pruned={} kept={kept}", p.processed, p.pruned);
        }
    }

    fn finish<R: DseReport>(self, response: DseResponse<R>) -> Result<String, String> {
        if self.json {
            return render(serde_json::to_string_pretty(&response));
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
        let (submitted, unique) = (response.submitted, response.unique);
        let mut out = format!(
            "{} — {submitted} candidates ({unique} distinct, {funnel}\n\n",
            self.heading
        );
        out += "PEs         eff KiB       cycles    DRAM (MB)     pJ/MAC  time(ms)\n";
        for entry in &response.results {
            let pes = format!("{}x{}", entry.arch.pe_rows, entry.arch.pe_cols);
            let eff = entry.arch.effective_onchip_bytes() as f64 / 1024.0;
            out += &match (&entry.report, entry.total_cycles, entry.seconds) {
                (Some(report), Some(cycles), Some(seconds)) => format!(
                    "{pes:<10} {eff:>8.1} {cycles:>12} {:>12.2} {:>10.2} {:>9.2}\n",
                    (report.sweep_dram_words() * clb::model::BYTES_PER_WORD) as f64 / 1e6,
                    report.sweep_energy_pj() / self.macs as f64,
                    seconds * 1e3
                ),
                _ => format!(
                    "{pes:<10} {eff:>8.1} infeasible: {}\n",
                    entry.error.as_deref().unwrap_or("unknown")
                ),
            };
        }
        Ok(out)
    }
}

/// `clb dse`: sweep a grid of candidate architectures over one layer, or —
/// with `--net`/`--net-json` — over a full model, through the service's
/// [`DseRequest`]. Unlisted grid axes stay at the base architecture
/// (`--arch`, default Table I implementation 1); `--objective`, `--top-k`
/// and `--stream true` select the staged engine. `--stream job` is refused:
/// jobs live in `clb serve`'s job store.
fn cmd_dse(flags: &Flags) -> Result<String, String> {
    // A network target carries its own batch.
    let network = flags.contains_key("net") || flags.contains_key("net-json");
    let target_batch = network.then_some(("batch", "target.batch", Number));
    let table: Vec<FlagKey> = target_batch.into_iter().chain(DSE_FLAG_KEYS).collect();
    let (mut fields, json) = request_from_flags(flags, &table, DseRequest::KEYS)?;
    if !fields.iter().any(|(key, _)| key == "grid") {
        // No axis and no base: the grid is implementation 1 alone.
        fields.push(("grid".to_string(), Value::Object(Vec::new())));
    }
    let request = DseRequest::from_value(&Value::Object(fields)).map_err(api_error_message)?;
    let stream = request.staged.map(|o| o.stream);
    if stream == Some(StreamMode::Job) {
        return Err("--stream job needs the job store of `clb serve`; \
                    use --stream true for live progress"
            .into());
    }
    let (heading, macs) = match &request.target {
        DseTarget::Layer(layer) => (format!("layer: {layer}"), layer.macs()),
        DseTarget::Network { net, batch } => {
            (format!("{} (batch {batch})", net.name()), net.total_macs())
        }
    };
    request.run(DsePrinter {
        heading,
        macs,
        json,
        stream: stream == Some(StreamMode::Chunked),
    })
}

/// `clb serve`'s own flags; with the engine flags, the only ones it takes.
const SERVE_FLAGS: &str = "port threads cache-stats io-workers queue result-cache max-body \
                           keepalive-requests keepalive-idle-ms max-connections drain-ms \
                           allow-shutdown log search-cache";

/// A thread-count flag (`--threads`, `--io-workers`): 0 (auto) up to
/// [`clb_service::MAX_THREADS`], refused by name above it.
fn thread_count(flags: &Flags, key: &str) -> Result<usize, String> {
    let n: usize = get(flags, key, 0)?;
    if n > clb_service::MAX_THREADS {
        return Err(format!(
            "--{key} {n} exceeds the cap of {} threads",
            clb_service::MAX_THREADS
        ));
    }
    Ok(n)
}

fn cmd_serve(flags: &Flags) -> Result<String, String> {
    let config = serve_config(flags)?;
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
    server.run().map_err(|e| e.to_string())?;
    Ok(String::new())
}

/// `clb serve`'s flags as a [`clb_service::ServiceConfig`], every value
/// checked before anything binds or starts.
fn serve_config(flags: &Flags) -> Result<clb_service::ServiceConfig, String> {
    let known = |flag: &&String| SERVE_FLAGS.split_whitespace().any(|k| k == flag.as_str());
    if let Some(flag) = flags.keys().filter(|f| !known(f)).min() {
        return Err(format!("unknown flag --{flag} for clb serve"));
    }
    let mut config = clb_service::ServiceConfig {
        port: get(flags, "port", 8080)?,
        threads: thread_count(flags, "threads")?,
        io_workers: thread_count(flags, "io-workers")?,
        ..Default::default()
    };
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
    Ok(config)
}

fn usage() -> &'static str {
    "usage: clb <bound|sweep|plan|simulate|network|dse|serve> [--flag value]...\n\
     \n\
     clb bound    --co 512 --size 28 --ci 256 [--k 3] [--stride 1] [--batch 3] [--mem-kib 66.5]\n\
     clb sweep    --co 512 --size 28 --ci 256 [--mem-kib 66.5]\n\
     clb plan     --co 512 --size 28 --ci 256 [--implem 1] [--trace json|vcd]\n\
     clb simulate --co 512 --size 28 --ci 256 --tb 1 --tz 16 --ty 14 --tx 14 [--implem 1]\n\
     \\            [--trace json|vcd] [--trace-out FILE]   # execution trace (VCD: GTKWave)\n\
     clb network  --net vgg16|alexnet|resnet50|inception|fc [--batch 3] [--implem 1]\n\
     \\            (or --net-json '<json>': a custom network object)\n\
     clb dse      --co 512 --size 28 --ci 256 [--pe-rows 16,24,32] [--pe-cols ...]\n\
     \\            [--group-rows ...] [--group-cols ...] [--lreg 64,128] [--igbuf ...]\n\
     \\            [--wgbuf ...] [--greg-bytes ...] [--greg-segment ...]\n\
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
     \\            [--log true]   (--io-workers: HTTP I/O worker threads; 0 = auto;\n\
     \\            at most 1024, as for --threads)\n\
     \n\
     Each analysis verb sends its flags as the body of POST /v1/<verb> through the\n\
     service's parser (docs/API.md, CLI mirror): same caps, same errors.\n\
     \n\
     global flags:\n\
     --json true        print the route's exact JSON body instead of the table\n\
     --threads N        one budget of N compute threads: gate permits plus pool\n\
     \\                  (serve: N concurrent requests; 0 = one per CPU;\n\
     \\                  at most 1024)\n\
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
fn apply_engine_flags(flags: &Flags) -> Result<bool, String> {
    let threads = thread_count(flags, "threads")?;
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

/// Writes a verb's whole output with one write to the locked stdout. A
/// reader that closed the pipe early (`clb sweep … | head -1`) ends the
/// command quietly.
fn write_stdout(out: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("cannot write output: {e}")),
        _ => Ok(()),
    }
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
        let outcome = outcome.and_then(|out| write_stdout(&out));
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
        // Layer validation failures name the offending field: the service's
        // message for a zero kernel names the kernel dimension.
        let zero_k = flags(&[("co", "16"), ("size", "14"), ("ci", "8"), ("k", "0")]);
        let err = cmd_bound(&zero_k).unwrap_err();
        assert!(err.contains("kernel"), "{err}");
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
        let err = cmd_bound(&flags(&[("co", "64")])).unwrap_err();
        assert!(err.contains("`size`"), "{err}");
        let out = cmd_bound(&flags(&[("co", "64"), ("size", "28"), ("ci", "32")])).unwrap();
        assert!(out.starts_with("layer: conv B3x64x28x28 <- Ci32"), "{out}");
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
        assert!(cmd_simulate(&missing).unwrap_err().contains("`tiling`"));
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
        let out = cmd_network(&flags(&[("net-json", TINY)])).unwrap();
        assert!(
            out.starts_with("tiny (batch 1) on implementation 1"),
            "{out}"
        );
        assert_eq!(out.lines().filter(|l| l.starts_with("conv")).count(), 1);
        // Absent flag: the preset path.
        let out = cmd_network(&flags(&[("net", "alexnet"), ("batch", "1")])).unwrap();
        assert!(out.starts_with("AlexNet (batch 1)"), "{out}");
        // Conflicts: --net and --batch both clash with the object's own fields.
        let err = cmd_network(&flags(&[("net-json", TINY), ("net", "vgg16")])).unwrap_err();
        assert!(err.contains("--net-json"), "{err}");
        let err = cmd_network(&flags(&[("net-json", TINY), ("batch", "2")])).unwrap_err();
        assert!(err.contains("batch"), "{err}");
        // Structural and cap failures surface the service's message under
        // the flag's name.
        let err = cmd_network(&flags(&[("net-json", "{nope")])).unwrap_err();
        assert!(
            err.contains("--net-json") && err.contains("invalid JSON"),
            "{err}"
        );
        let empty = "{\"batch\":1,\"layers\":[]}";
        let err = cmd_network(&flags(&[("net-json", empty)])).unwrap_err();
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
        let layer = [("co", "16"), ("size", "14"), ("ci", "8"), ("batch", "1")];
        let with = |extra: &[(&str, &str)]| flags(&[&layer[..], extra].concat());
        // Valid custom architecture with defaults filled in, echoed by the
        // service body.
        let arch = ("arch", "{\"pe_rows\":24,\"pe_cols\":24}");
        let out = cmd_plan(&with(&[arch, ("json", "true")])).unwrap();
        let echo: serde_json::Value = serde_json::from_str(&out).unwrap();
        let echo = echo.get_field("arch").unwrap();
        assert_eq!(
            echo.get_field("pe_rows").unwrap().as_number().unwrap(),
            24.0
        );
        assert_eq!(
            echo.get_field("pe_cols").unwrap().as_number().unwrap(),
            24.0
        );
        let wgbuf = echo
            .get_field("wgbuf_entries")
            .unwrap()
            .as_number()
            .unwrap();
        assert_eq!(wgbuf, 256.0, "unset fields default to impl 1");
        assert!(cmd_plan(&with(&[arch]))
            .unwrap()
            .contains("custom architecture: 576 PEs"));
        // Invalid JSON and violated invariants are reported.
        let err = cmd_plan(&with(&[("arch", "{nope")])).unwrap_err();
        assert!(
            err.contains("--arch") && err.contains("invalid JSON"),
            "{err}"
        );
        let err = cmd_plan(&with(&[("arch", "{\"pe_rows\":0}")])).unwrap_err();
        assert!(
            err.contains("invalid arch: PE array must be non-empty"),
            "{err}"
        );
        // --arch and --implem are mutually exclusive.
        let err = cmd_plan(&with(&[("arch", "{}"), ("implem", "2")])).unwrap_err();
        assert!(err.contains("either") && err.contains("implem") && err.contains("arch"));
        // No flag at all means "use --implem".
        assert!(cmd_plan(&with(&[]))
            .unwrap()
            .contains("implementation 1: 256 PEs"));
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
        assert!(cmd_dse(&bad_top_k).unwrap_err().contains("top_k"));
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
        // Over the cap: refused by name before the pool is resized.
        let before = rayon::current_num_threads();
        let over = (clb_service::MAX_THREADS + 1).to_string();
        let err = apply_engine_flags(&flags(&[("threads", &over)])).unwrap_err();
        assert!(err.contains(&format!("--threads {over}")), "{err}");
        assert_eq!(rayon::current_num_threads(), before);
        // Leave the global thread count on auto for the other tests.
        apply_engine_flags(&flags(&[("threads", "0")])).unwrap();
        print_cache_stats();
    }

    #[test]
    fn serve_refuses_thread_counts_above_the_cap() {
        let over = (clb_service::MAX_THREADS + 1).to_string();
        for flag in ["threads", "io-workers"] {
            let err = serve_config(&flags(&[(flag, &over)])).unwrap_err();
            assert!(err.contains(&format!("--{flag} {over}")), "{err}");
        }
        let cap = clb_service::MAX_THREADS.to_string();
        let config = serve_config(&flags(&[("threads", &cap), ("io-workers", &cap)])).unwrap();
        assert_eq!(config.threads, clb_service::MAX_THREADS);
        assert_eq!(config.io_workers, clb_service::MAX_THREADS);
    }

    #[test]
    fn every_flag_sets_a_key_some_route_knows() {
        let routes = [
            BoundRequest::KEYS,
            SweepRequest::KEYS,
            PlanRequest::KEYS,
            SimulateRequest::KEYS,
            NetworkRequest::KEYS,
        ];
        let head = |path: &str| path.split('.').next().unwrap().to_string();
        for (flag, path, _) in FLAG_KEYS {
            let known = routes
                .iter()
                .any(|keys| keys.split(' ').any(|k| k == head(path)));
            assert!(known, "--{flag} sets `{path}`, which no route knows");
        }
        for (flag, path, _) in DSE_FLAG_KEYS {
            let known = DseRequest::KEYS.split(' ').any(|k| k == head(path));
            assert!(known, "--{flag} sets `{path}`, which /v1/dse does not know");
        }
    }

    #[test]
    fn flags_a_route_has_no_key_for_are_refused_by_name() {
        let layer = [("co", "64"), ("size", "28"), ("ci", "32")];
        let with = |extra: (&str, &str)| flags(&[&layer[..], &[extra]].concat());
        // A typo used to analyze stride 1 without a word.
        let err = cmd_bound(&with(("strid", "2"))).unwrap_err();
        assert!(err.contains("--strid"), "{err}");
        // Real flags of other verbs are refused too, not ignored.
        let err = cmd_plan(&with(("mem-kib", "16"))).unwrap_err();
        assert!(err.contains("--mem-kib"), "{err}");
        let err = cmd_dse(&with(("implem", "2"))).unwrap_err();
        assert!(err.contains("--implem"), "{err}");
        let err = cmd_serve(&flags(&[("prot", "8080")])).unwrap_err();
        assert!(err.contains("--prot"), "{err}");
    }

    #[test]
    fn two_flags_for_one_key_are_refused_naming_both() {
        let net = [("net", "alexnet"), ("net-json", "{\"layers\":[]}")];
        for err in [cmd_network(&flags(&net)), cmd_dse(&flags(&net))].map(Result::unwrap_err) {
            assert!(
                err.contains("--net ") && err.contains("--net-json"),
                "{err}"
            );
        }
        let layer = [("co", "64"), ("size", "28"), ("ci", "32")];
        let both = flags(&[&layer[..], &[("arch", "{}"), ("implem", "2")]].concat());
        let err = cmd_plan(&both).unwrap_err();
        assert!(err.contains("`implem`") && err.contains("`arch`"), "{err}");
    }

    #[test]
    fn trace_out_needs_a_trace_and_the_table() {
        let sim = [
            ("co", "16"),
            ("size", "14"),
            ("ci", "8"),
            ("batch", "1"),
            ("tb", "1"),
            ("tz", "8"),
            ("ty", "7"),
            ("tx", "7"),
        ];
        let path = std::env::temp_dir().join(format!("clb-trace-out-{}", std::process::id()));
        let out = ("trace-out", path.to_str().unwrap());
        // Without --trace there is nothing to write: refused, not ignored.
        let err = cmd_simulate(&flags(&[&sim[..], &[out]].concat())).unwrap_err();
        assert!(err.contains("--trace-out"), "{err}");
        // With --json true the trace is in the body.
        let json = [out, ("trace", "json"), ("json", "true")];
        let err = cmd_simulate(&flags(&[&sim[..], &json].concat())).unwrap_err();
        assert!(err.contains("--trace-out"), "{err}");
        assert!(!path.exists(), "a refused command wrote {}", path.display());
    }

    #[test]
    fn dse_refuses_job_streams() {
        let f = flags(&[
            ("co", "16"),
            ("size", "14"),
            ("ci", "8"),
            ("pe-rows", "16"),
            ("stream", "job"),
        ]);
        let err = cmd_dse(&f).unwrap_err();
        assert!(err.contains("--stream job"), "{err}");
    }
}
