//! # `clb-service` — the analysis pipeline as a long-running HTTP service
//!
//! Every other entry point in this workspace pays full process startup and
//! a cold tiling-search memo cache per query. This crate wraps the
//! plan → simulate → bound → energy pipeline in a persistent,
//! multi-threaded HTTP/JSON server, so repeated and concurrent queries hit
//! warm caches instead: the way HPC sites wrap batch analysis pipelines
//! behind resident services rather than re-launching per request.
//!
//! Built entirely on `std::net` and the workspace's offline `serde` shims —
//! no external dependencies, consistent with the hermetic build.
//!
//! ## Architecture
//!
//! ```text
//! accept loop ──► register + socket timeouts (≤ max_connections; at the
//!     │           cap the oldest idle connection is evicted, all-busy
//!     │           sheds 503), then park on the event tier
//!     ▼
//! epoll poller thread ([`poll::Poller`]): parks idle keep-alive sockets
//!     │  (an open connection costs an fd + a buffer, not a thread),
//!     │  reaps idle timeouts, hands readable sockets to the I/O workers
//!     ▼
//! I/O worker pool (`io_workers` threads): serves requests on one socket
//!     │  until Connection: close, the per-connection request bound, or
//!     │  drain — then re-parks it on the poller
//!     ▼
//! parse HTTP/1.1 + JSON (4xx on bad input; stalls/slow-drips → 408)
//!     │
//! Gate: ≤ threads concurrent analyses + bounded wait room holding
//!     │ parsed-but-unadmitted requests — workers never block here;
//!     │ (full? shed 503 + Retry-After — body already read, socket reusable);
//!     │ background DSE jobs (≤ 8 running) block for a permit instead
//!     ▼
//! request key: route + the body rendered with sorted keys
//!     │
//! response Memo (one lock over a bounded LRU + the computations in
//!     │ flight) ── hit, or wait for an identical computation ──► reply
//!     │ miss: this request computes, for itself and every waiter
//!     ▼
//! api::dispatch ──► clb pipeline (the planner's and the search engine's
//! own Memos underneath)
//! ```
//!
//! Connections are persistent by default (HTTP/1.1 keep-alive per
//! RFC 7230, honored for 1.0 peers too); graceful shutdown drains
//! in-flight requests under a hard deadline. See `docs/OPERATIONS.md` for
//! the lifecycle knobs and counters, and [`chaos`] for the fault-injection
//! toolkit that proves the lifecycle under hostile peers.
//!
//! Responses are **bit-identical** to single-threaded library output: the
//! handlers serialize the same report structures `clb --json true`
//! prints, with the same deterministic field order, and the search engine
//! guarantees thread-count-independent results. The integration tests pin
//! this.
//!
//! ## Quickstart
//!
//! Start the server (any free port; `--threads 0` sizes workers to CPUs):
//!
//! ```text
//! clb serve --port 8080 --threads 0
//! ```
//!
//! Probe it:
//!
//! ```text
//! curl http://127.0.0.1:8080/healthz
//! {"status": "ok"}
//! ```
//!
//! Ask for the communication lower bound of VGG-16 conv4_1 at 66.5 KiB:
//!
//! ```text
//! curl -s -X POST http://127.0.0.1:8080/v1/bound \
//!      -d '{"co":512,"size":28,"ci":256,"mem_kib":66.5}'
//! ```
//!
//! Sweep all eight dataflows, plan a layer on Table I implementation 1,
//! and analyze a full network:
//!
//! ```text
//! curl -s -X POST http://127.0.0.1:8080/v1/sweep \
//!      -d '{"co":512,"size":28,"ci":256}'
//! curl -s -X POST http://127.0.0.1:8080/v1/plan \
//!      -d '{"co":512,"size":28,"ci":256,"implem":1}'
//! curl -s -X POST http://127.0.0.1:8080/v1/network \
//!      -d '{"net":"vgg16","batch":3,"implem":1}'
//! ```
//!
//! Simulate *any* explicit tiling — not just the planner's choice — with
//! the block-class cycle simulator (what-if analysis of hand-rolled or
//! externally-planned blockings):
//!
//! ```text
//! curl -s -X POST http://127.0.0.1:8080/v1/simulate \
//!      -d '{"co":512,"size":28,"ci":256,"batch":1,"implem":1,
//!           "tiling":{"b":1,"z":16,"y":14,"x":14}}'
//! ```
//!
//! The `tiling` object is required; its four dimensions must be nonzero and
//! no larger than the layer's batch/channel/spatial extents (zero or
//! oversized dimensions are rejected with 422 before any simulation work —
//! a zero dimension would otherwise describe a block grid that never
//! advances). Structurally infeasible tilings (GBuf overflow, unmappable
//! blocks) also return 422 carrying the simulator's diagnosis. The response
//! echoes `implementation`, `layer` and `tiling` and carries the full
//! [`accel_sim::SimStats`] counter set plus `total_cycles` and `seconds`.
//!
//! ## Execution traces
//!
//! `/v1/simulate` and `/v1/plan` accept an optional
//! `"trace": {"format": "json"|"vcd", "expand": bool}` object; the
//! response then carries a trailing `trace` (structured
//! [`accel_sim::ExecutionTrace`]: per-class stall/compute timelines whose
//! interval sums are bit-identical to the `stats` in the same response) or
//! `vcd` (waveform text; `jq -r .vcd` extracts it for GTKWave) field.
//! Untraced responses keep their exact pre-trace bytes. Traces past the
//! [`accel_sim::trace::caps`] bounds are refused with a typed 422 naming
//! the cap. See `docs/API.md` § Tracing.
//!
//! ## Custom architectures and design-space sweeps
//!
//! Everywhere a Table I `implem` index is accepted, a full `arch` object
//! is accepted instead (fields optional, defaulting to implementation 1;
//! see [`arch_from_value`]) — the custom-design what-if path:
//!
//! ```text
//! curl -s -X POST http://127.0.0.1:8080/v1/plan \
//!      -d '{"co":512,"size":28,"ci":256,
//!           "arch":{"pe_rows":24,"pe_cols":24,"group_rows":4,"group_cols":4,
//!                   "igbuf_entries":3072}}'
//! ```
//!
//! Hostile configurations (zero, huge, overflowing or non-finite fields)
//! are rejected with a typed 422 naming the violated invariant — the caps
//! live in [`accel_sim::caps`] and are enforced by
//! `ArchConfig::validate` before any planning or simulation touches the
//! configuration.
//!
//! `POST /v1/dse` sweeps a capped set of candidate architectures (explicit
//! `candidates` list, a `grid` of axis values over a `base`, or the
//! deduplicated union of both) over one layer — or, with
//! `"target": {"network": ...}`, over a **full model**, producing one
//! `/v1/network`-identical report per candidate. Work fans across the
//! worker pool (`(candidate × layer)` units in network mode) with planning
//! amortized by the `(layer, arch)` plan cache; results are canonically
//! ordered (feasible first by cycles, traffic, then the architecture's
//! total order), so the response does not depend on candidate enumeration
//! order:
//!
//! ```text
//! curl -s -X POST http://127.0.0.1:8080/v1/dse \
//!      -d '{"co":512,"size":28,"ci":256,
//!           "grid":{"pe_rows":[16,24,32],"lreg_entries_per_pe":[64,128]}}'
//! curl -s -X POST http://127.0.0.1:8080/v1/dse \
//!      -d '{"target":{"network":"vgg16","batch":3},
//!           "grid":{"pe_rows":[16,24,32]}}'
//! ```
//!
//! ## Staged million-candidate sweeps
//!
//! Adding any of `objective`, `top_k`, `stream` to a `/v1/dse` body
//! switches it to the **staged** engine: every candidate first passes a
//! cheap admissible bound stage ([`comm_bound`]-derived floors on cycles,
//! DRAM words and energy), and only candidates whose floor could still
//! beat the current worst kept entry are planned and simulated. Pruning is
//! **lossless** — the kept frontier is bit-identical to ranking the full
//! unpruned sweep — and the candidate cap rises from 256 to 2²⁰
//! ([`api::limits::MAX_DSE_STAGED_CANDIDATES`]). `objective` ranks by
//! `cycles` (default), `traffic`, `energy` or `pareto` (the undominated
//! set over all three); `top_k` bounds the frontier (default 16, max
//! 1024). Delivery is synchronous by default, `"stream": true` (or
//! `"chunked"`) answers with `Transfer-Encoding: chunked` frontier
//! snapshots followed by the final body, and `"stream": "job"` returns a
//! deterministic job handle polled at `GET /v1/dse/jobs/{id}`:
//!
//! ```text
//! curl -s -X POST http://127.0.0.1:8080/v1/dse \
//!      -d '{"target":{"network":"vgg16","batch":3},"objective":"energy",
//!           "top_k":8,"grid":{"pe_rows":[8,16,24,32],
//!           "lreg_entries_per_pe":[32,64,128,256],
//!           "igbuf_entries":[512,1024,2048,3072]}}'
//! curl -sN -X POST http://127.0.0.1:8080/v1/dse \
//!      -d '{"co":512,"size":28,"ci":256,"stream":true,
//!           "grid":{"pe_rows":[8,16,24,32]}}'
//! curl -s -X POST http://127.0.0.1:8080/v1/dse \
//!      -d '{"co":512,"size":28,"ci":256,"stream":"job",
//!           "grid":{"pe_rows":[8,16,24,32]}}'   # → {"job": ..., "poll": ...}
//! ```
//!
//! Requests without the new fields keep the legacy evaluate-everything
//! path byte for byte. See `docs/API.md` § Design-space exploration and
//! `docs/OPERATIONS.md` § Sizing a large sweep.
//!
//! All of it is one code path: a body parses once into a [`DseRequest`]
//! (target, candidates, optional [`StagedOptions`]; unknown top-level keys
//! are a 400), and [`DseRequest::run`] — the only code that tells a layer
//! from a network — hands one generic [`DseResponse`] of [`DseEntry`]
//! rows to a [`DseSink`]: the synchronous body, the chunked stream, the
//! job thread and `clb dse` are four sinks over the same sweep.
//!
//! See `docs/API.md` for the full `arch` schema, the caps and the
//! request/response formats, and `docs/TESTING.md` for the golden
//! regression corpus that pins every endpoint's wire bytes.
//!
//! Watch the caches work (numbers are cumulative since server start):
//!
//! ```text
//! curl http://127.0.0.1:8080/v1/cache_stats
//! ```
//!
//! ## Endpoints
//!
//! | Endpoint | Method | Body | Mirrors |
//! |---|---|---|---|
//! | `/healthz` | GET | — | liveness probe |
//! | `/v1/cache_stats` | GET | — | `clb --cache-stats` |
//! | `/v1/bound` | POST | layer spec + `mem_kib`/`arch` | `clb bound --json true` |
//! | `/v1/sweep` | POST | layer spec + `mem_kib`/`arch` | `clb sweep --json true` |
//! | `/v1/plan` | POST | layer spec + `implem`/`arch` (+ `trace`) | `clb plan --json true` |
//! | `/v1/simulate` | POST | layer spec + `implem`/`arch` + `tiling` (+ `trace`) | `clb simulate --json true` |
//! | `/v1/network` | POST | `net` (preset name or custom object), `batch`, `implem`/`arch` | `clb network --json true` |
//! | `/v1/dse` | POST | layer spec or `target`, + `candidates`/`grid` (+ `objective`/`top_k`/`stream`) | `clb dse --json true` |
//!
//! Each analysis route parses its body once into one typed request
//! ([`Endpoint`] for the first five, [`DseRequest`] for `/v1/dse`) and
//! runs it once; `clb <verb>` builds the same body from its flags and goes
//! through the same parse and run, so it prints the route's exact body with
//! `--json true` and fails with the route's error messages (`docs/API.md`
//! § CLI mirror).
//!
//! Layer spec fields: `co`, `size`, `ci` (required); `k` (3), `stride`
//! (1), `batch` (3), `mem_kib` (66.5) optional with CLI-matching defaults.
//! A body whose top level carries any key its endpoint does not know is a
//! 400 naming the key, checked before anything else (`docs/API.md` lists
//! each endpoint's keys). Errors come back as `{"error": ..., "status": ...}` with a 4xx status:
//! malformed HTTP or JSON → 400, wrong method → 405, a request that stalls
//! or drips past its deadline → 408, oversized body → 413,
//! valid-but-impossible analysis → 422; a saturated server sheds with
//! 503 + `Retry-After` (the request body is still drained first, so the
//! client retries on the same connection). `POST /v1/shutdown` (enabled by
//! `--allow-shutdown`, 403 otherwise) triggers the same graceful drain as
//! stopping the process.
//!
//! ## Request logging
//!
//! `clb serve --log true` (or a [`ServiceConfig::log`] sink) emits one
//! structured line per completed request —
//! `method=POST path=/v1/plan status=200 micros=1234 cache=miss conn=7` —
//! with `cache` reporting how the response-cache layers answered
//! ([`CacheOutcome`]) and `conn` the connection id (lines sharing it were
//! served over one reused keep-alive socket). Each line ends with its
//! route's [`LogTail`]: `/v1/simulate` and `/v1/plan` lines carry a
//! trailing `trace=on|off`, `/v1/network` lines a sanitized `net=<name>`,
//! and answered `/v1/dse` sweeps (and job acceptances) their funnel —
//! ` candidates=N pruned=N kept=N objective=cycles`. The route is derived
//! once per request and decides the tail; the tail is cached with the
//! response, so cache hits and coalesced followers log what the leader
//! logged. Independently of
//! logging, every request feeds a per-route log2 latency histogram;
//! `GET /v1/cache_stats` reports them as a `latency` section
//! ([`RouteLatencyStats`]: count, `p50`/`p99` bucket bounds and exact max
//! in µs per [`LATENCY_ROUTES`] route).
//!
//! ## Embedding
//!
//! ```no_run
//! use clb_service::{Server, ServiceConfig};
//!
//! let server = Server::spawn(ServiceConfig::default())?; // ephemeral port
//! println!("listening on http://{}", server.addr());
//! # let _ = server;
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod api;
pub mod chaos;
pub mod http;
pub mod poll;
pub mod pool;
mod server;

pub use api::{
    arch_from_value, dse_job_id, dse_results, dse_staged_results, dse_stream_chunks,
    network_by_name, network_from_value, parse_staged_options, ApiError, ArchChoice,
    ArchPlanResponse, ArchSimulateResponse, BoundRequest, BoundResponse, DseEntry, DseLogMeta,
    DseReport, DseRequest, DseResponse, DseSink, DseTarget, Echo, Endpoint, LayerSpec,
    NetworkRequest, PlanRequest, PlanResponse, SimulateRequest, SimulateResponse, StagedOptions,
    StreamMode, SweepEntry, SweepRequest, SweepResponse, TraceFormat, TraceOutput, TraceRequest,
    Traced,
};
pub use chaos::{request_bytes, ChaosClient, WireResponse};
pub use http::{HttpError, Request, Response};
pub use pool::{BoundedQueue, Gate, WaitGroup};
pub use server::{
    format_request_log, CacheOutcome, CacheStatsResponse, LogSink, LogTail, MemoCacheStats,
    RouteLatencyStats, RunningServer, Server, ServiceConfig, ServiceStats, StatsHandle, StopHandle,
    LATENCY_ROUTES, MAX_THREADS, RETRY_AFTER_SECS,
};
