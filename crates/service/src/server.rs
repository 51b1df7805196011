//! The TCP server: accept loop, keep-alive connection lifecycle, routing,
//! request coalescing and the bounded response cache.
//!
//! ## Connection lifecycle
//!
//! Connections are readiness-driven, not thread-per-connection: the
//! accept loop registers each socket (bounded by
//! [`ServiceConfig::max_connections`]; past the cap the oldest *idle*
//! connection is evicted, and if every connection is mid-request the new
//! one is shed with `503 + Retry-After`), installs its socket timeouts
//! once, and parks it on the **event tier** — one epoll poller thread
//! ([`crate::poll::Poller`]) plus a small pool of I/O workers
//! ([`ServiceConfig::io_workers`]). A parked connection costs an fd and a
//! buffer; server thread count is independent of open-connection count.
//! Each connection cycles through:
//!
//! 1. **idle phase** — parked on the poller up to
//!    [`ServiceConfig::idle_timeout`] (the poller's timer, not
//!    `SO_RCVTIMEO`) waiting for the first byte of the next request; a
//!    silent peer is reaped (`idle_reaped`), an evicted or draining
//!    connection closes. When bytes arrive the poller deregisters the fd
//!    and hands the connection to an I/O worker;
//! 2. **request phase** — per-read socket timeouts
//!    ([`ServiceConfig::read_timeout`]) and a whole-request deadline
//!    ([`ServiceConfig::request_deadline`]) bound hostile peers: stalls
//!    and slow-drips surface as `408`, truncation as `400`;
//! 3. **admission** — analysis `POST`s take a [`Gate`] permit
//!    ([`ServiceConfig::threads`] concurrent computations) through a
//!    *non-blocking* `try_acquire`: a worker never waits on the gate, so
//!    ungated traffic (health, stats, shutdown) stays admissible under
//!    full compute load. A saturated gate instead **shelves** the framed
//!    request — connection and all — in a bounded wait room
//!    ([`ServiceConfig::queue_capacity`] entries); every permit release
//!    pumps the oldest shelved request back onto a worker. Beyond the
//!    room the request is shed with `503 + Retry-After` — the body was
//!    already read, so the connection stays consistent and the client
//!    retries on the same socket;
//! 4. **response** — written with `Connection: keep-alive` unless the
//!    client asked to close, the per-connection request bound
//!    ([`ServiceConfig::max_requests_per_connection`]) was reached, the
//!    request was unframeable (parse errors poison the byte stream), or
//!    the server is draining. A kept connection goes back to step 1 —
//!    served pipelined bytes first (user-space buffered bytes are
//!    invisible to epoll, so a connection with buffered input is never
//!    parked), then re-parked on the poller.
//!
//! ## Graceful drain
//!
//! [`StopHandle::stop`] (or `POST /v1/shutdown` when enabled) stops the
//! accept loop; idle keep-alive sockets are reaped immediately (their
//! shutdown wakes the poller with EOF), in-flight requests finish with
//! `Connection: close`, and stragglers past
//! [`ServiceConfig::drain_deadline`] are aborted (`drain_aborted`). The
//! event tier itself (poller + workers) is joined after the drain.
//!
//! ## Request path
//!
//! Each request is framed once into a `PendingRequest` carrying its route,
//! derived once from the path; the route alone decides gating, caching,
//! transport, log fields and latency bucket, and every reply — framed or
//! chunked — leaves through one `respond`. Analysis `POST` bodies are
//! parsed once and canonicalized (re-serialized JSON); for a synchronous
//! request the canonical key goes through the **response cache**, a
//! [`Memo`]: a bounded LRU on which concurrent identical requests share
//! one computation — [`api::dispatch`], which runs the actual analysis
//! (and internally hits the planner's and search engine's own memos).
//! Responses over reused connections are byte-identical to one-shot
//! connections: only the `Connection:` header differs.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use std::time::{Duration, Instant};

use dataflow::{Lookup, Memo};
use serde::Value;

use crate::api;
use crate::http::{self, HttpError, Response};
use crate::poll::{peek_ready, Poller, Waker};
use crate::pool::{BoundedQueue, Gate, GatePermit, WaitGroup, WaitGuard};

/// Where structured request-log lines go when logging is enabled: one call
/// per completed request with the formatted line (no trailing newline).
/// `clb serve --log` installs a stderr writer; tests install collectors.
pub type LogSink = Arc<dyn Fn(&str) + Send + Sync>;

/// Seconds advertised in `Retry-After` on every load-shed `503`: the
/// waiting room drains at compute speed, so "immediately, with backoff" is
/// the honest hint.
pub const RETRY_AFTER_SECS: u32 = 1;

/// The largest [`ServiceConfig::threads`] and [`ServiceConfig::io_workers`]
/// that [`Server::bind`] (and so `clb serve`) accepts: the compute pool's
/// own cap, `rayon::MAX_THREADS`. Each counts operating-system threads: the
/// I/O workers start with the server, and `threads − 1` compute-pool
/// helpers start on the first fan-out, so an unbounded value would start
/// that many threads.
pub const MAX_THREADS: usize = rayon::MAX_THREADS;

/// Server configuration. `Default` gives a localhost server on an
/// OS-assigned port with auto-sized workers — every field has a sensible
/// production value except `port`, which tests leave at 0 (ephemeral) and
/// `clb serve` sets from `--port`.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Bind address (default `127.0.0.1`).
    pub host: std::net::IpAddr,
    /// Bind port; 0 asks the OS for an ephemeral port.
    pub port: u16,
    /// Concurrent analysis computations (the [`Gate`] permit count);
    /// 0 means the compute pool's budget, `rayon::current_num_threads()`
    /// (one per available CPU unless `rayon::ThreadPoolBuilder` set it).
    /// Each permit holds one slot of that process-wide budget, whose pool
    /// helpers fan a request out only into free slots; `clb serve
    /// --threads N` sets both to N. [`Server::bind`] refuses a value above
    /// [`MAX_THREADS`].
    pub threads: usize,
    /// I/O worker threads of the event tier — the threads that parse,
    /// route and answer requests on *ready* sockets (idle sockets are
    /// parked on the poller and cost no thread). 0 (the default) sizes
    /// the pool to the compute permit count plus headroom for socket
    /// I/O that blocks outside the [`Gate`]. Clamped to ≥ 1.
    /// [`Server::bind`] refuses a value above [`MAX_THREADS`].
    pub io_workers: usize,
    /// Bound on the wait room of shelved analysis requests — framed
    /// requests that found every `threads` permit busy (overflow is shed
    /// with `503 + Retry-After`). Job-mode `/v1/dse` sweeps are not
    /// bounded by it: their threads wait for a permit.
    pub queue_capacity: usize,
    /// Request-body cap in bytes (oversized requests get 413).
    pub max_body_bytes: usize,
    /// Response-cache bound in entries.
    pub result_cache_capacity: usize,
    /// Per-connection socket read timeout (bounds one silent `read`
    /// mid-request; firing surfaces as `408`).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout — without it a client that
    /// never reads its (large) response would pin a worker on a blocked
    /// `write` forever.
    pub write_timeout: Duration,
    /// Whole-request receive deadline (bounds a slow-drip client that
    /// keeps every individual read under `read_timeout`; firing surfaces
    /// as `408`).
    pub request_deadline: Duration,
    /// How long a keep-alive connection may sit idle *between* requests
    /// before the server reaps it — distinct from `read_timeout`, which
    /// bounds silence *inside* a request.
    pub idle_timeout: Duration,
    /// Requests served per connection before the server closes it
    /// (`Connection: close` on the final response); bounds per-client
    /// resource monopolies. Clamped to ≥ 1.
    pub max_requests_per_connection: usize,
    /// Cap on simultaneously open connections. At the cap, a new
    /// connection evicts the oldest idle one; when every connection is
    /// busy, the new one is shed with `503 + Retry-After`.
    pub max_connections: usize,
    /// Hard drain deadline: on shutdown, in-flight requests get this long
    /// to finish before their sockets are aborted (`drain_aborted`).
    pub drain_deadline: Duration,
    /// Enables `POST /v1/shutdown` (graceful drain over HTTP — the
    /// SIGTERM equivalent for deployments that cannot signal the
    /// process). Disabled by default; the endpoint answers 403 when off.
    pub allow_shutdown: bool,
    /// Structured request logging: one [`format_request_log`] line per
    /// completed request when set (`None` disables, the default).
    pub log: Option<LogSink>,
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("host", &self.host)
            .field("port", &self.port)
            .field("threads", &self.threads)
            .field("io_workers", &self.io_workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("max_body_bytes", &self.max_body_bytes)
            .field("result_cache_capacity", &self.result_cache_capacity)
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("request_deadline", &self.request_deadline)
            .field("idle_timeout", &self.idle_timeout)
            .field(
                "max_requests_per_connection",
                &self.max_requests_per_connection,
            )
            .field("max_connections", &self.max_connections)
            .field("drain_deadline", &self.drain_deadline)
            .field("allow_shutdown", &self.allow_shutdown)
            .field("log", &self.log.is_some())
            .finish()
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            host: std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            port: 0,
            threads: 0,
            io_workers: 0,
            queue_capacity: 256,
            max_body_bytes: http::DEFAULT_MAX_BODY_BYTES,
            result_cache_capacity: 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 128,
            max_connections: 1024,
            drain_deadline: Duration::from_secs(5),
            allow_shutdown: false,
            log: None,
        }
    }
}

/// How the response-cache layers answered one POST request (the `cache=`
/// field of the request log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the response cache.
    Hit,
    /// Shared a concurrent identical computation in flight.
    Coalesced,
    /// Computed fresh.
    Miss,
    /// The caching layers were not consulted (GET endpoints, parse
    /// failures, sheds, errors before dispatch).
    Uncached,
}

impl CacheOutcome {
    /// The log-field spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Coalesced => "coalesced",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Uncached => "-",
        }
    }
}

/// Formats one structured request-log line:
///
/// ```text
/// method=POST path=/v1/plan status=200 micros=1234 cache=miss conn=7 trace=off
/// ```
///
/// Space-separated `key=value` pairs, fixed key order, one line per
/// request; `cache` is a [`CacheOutcome`] spelling and `conn` the server's
/// monotone connection id — consecutive lines sharing a `conn` value were
/// served over one reused keep-alive socket. The line ends with the
/// request's [`LogTail`]: ` trace=on|off` on `/v1/simulate` and `/v1/plan`
/// requests (the endpoints that accept a `trace` option; `on` means the
/// body carried a non-null one), ` net=<name>` on `/v1/network` requests —
/// the preset name (`vgg16` when the body omits `net`), `custom` for a
/// custom network object, or `-` when the body never parsed; the value is
/// sanitized to `[A-Za-z0-9_-]` and at most 32 chars so a hostile preset
/// string cannot forge extra `key=value` pairs — and the sweep funnel
/// ` candidates=N pruned=N kept=N objective=cycles` on answered `/v1/dse`
/// sweeps (legacy sweeps log `objective=-`; rejected DSE requests keep the
/// base shape). A connection aborted before its socket could be configured
/// logs `status=0` with `method=- path=-`. The shape is pinned by an
/// integration test — production log scrapers may rely on it.
#[must_use]
pub fn format_request_log(
    method: &str,
    path: &str,
    status: u16,
    micros: u128,
    cache: CacheOutcome,
    conn: u64,
    tail: &LogTail,
) -> String {
    format!(
        "method={method} path={path} status={status} micros={micros} cache={} conn={conn}{tail}",
        cache.as_str()
    )
}

/// The route-specific end of a request-log line (see
/// [`format_request_log`]), derived from the request's route and parsed
/// body — not from the response — so rejections log the same fields as
/// answers. It is stored with the response, so cache hits and coalesced
/// followers log exactly what the leader logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogTail {
    /// No trailing fields: every route without its own, and `/v1/dse`
    /// requests that were not answered with a sweep.
    None,
    /// ` trace=on|off` — `/v1/simulate` and `/v1/plan`; `on` when the
    /// parsed body carries a non-null `trace` (unparseable bodies log
    /// `off`).
    Trace(bool),
    /// ` net=<name>` — `/v1/network`, already sanitized.
    Net(String),
    /// ` candidates=N pruned=N kept=N objective=...` — an answered
    /// `/v1/dse` sweep or job acceptance.
    Dse(api::DseLogMeta),
}

impl std::fmt::Display for LogTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogTail::None => Ok(()),
            LogTail::Trace(on) => write!(f, " trace={}", if *on { "on" } else { "off" }),
            LogTail::Net(name) => write!(f, " net={name}"),
            LogTail::Dse(meta) => write!(
                f,
                " candidates={} pruned={} kept={} objective={}",
                meta.candidates,
                meta.pruned,
                meta.kept,
                meta.objective_str()
            ),
        }
    }
}

/// The request-log `net=` tag of a `/v1/network` body. Logs the preset
/// name (`vgg16` when the field is absent or null — the handler's
/// default), `custom` for a custom network object, and `-` for bodies that
/// never parsed or carry a non-string, non-object `net`. The name is
/// user-controlled, so it is clamped to `[A-Za-z0-9_-]` (other bytes
/// become `_`) and 32 chars — a space or `=` in a hostile preset string
/// must not forge extra `key=value` pairs in the pinned log shape.
fn net_tag(parsed: Option<&Value>) -> String {
    let Some(Value::Object(fields)) = parsed else {
        return "-".to_string();
    };
    match fields.iter().find(|(k, _)| k == "net").map(|(_, v)| v) {
        None | Some(Value::Null) => "vgg16".to_string(),
        Some(Value::Object(_)) => "custom".to_string(),
        Some(Value::String(name)) => name
            .chars()
            .take(32)
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect(),
        Some(_) => "-".to_string(),
    }
}

/// The fixed route vocabulary of the `latency` section of
/// `GET /v1/cache_stats`: every endpoint the server answers, plus a
/// trailing `other` bucket for 404s/aborts. The list (and its order) is
/// part of the wire shape — all routes always appear, so scrapers see a
/// stable schema even for routes that have served nothing yet.
pub const LATENCY_ROUTES: [&str; 11] = [
    "/healthz",
    "/v1/bound",
    "/v1/sweep",
    "/v1/plan",
    "/v1/simulate",
    "/v1/network",
    "/v1/dse",
    "/v1/dse/jobs",
    "/v1/cache_stats",
    "/v1/shutdown",
    "other",
];

/// The path prefix of a DSE job poll; the job id follows it.
const DSE_JOB_PREFIX: &str = "/v1/dse/jobs/";

/// The route a request path names, derived once per framed request by
/// [`Route::of`] — the one place that maps paths to endpoints. The route
/// alone decides gating and caching ([`Route::is_analysis`]), the
/// transport of a POST ([`Route::Dse`] may stream or run as a job), the
/// log fields ([`Route::log_tail`]) and the latency bucket. Variants are
/// in [`LATENCY_ROUTES`] order, which also holds their labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Healthz,
    Bound,
    Sweep,
    Plan,
    Simulate,
    Network,
    Dse,
    /// `/v1/dse/jobs/{id}` — every job id shares one route (per-id routes
    /// would be unbounded).
    DseJob,
    CacheStats,
    Shutdown,
    /// Any path the server does not serve.
    Other,
}

impl Route {
    const ALL: [Route; LATENCY_ROUTES.len()] = [
        Route::Healthz,
        Route::Bound,
        Route::Sweep,
        Route::Plan,
        Route::Simulate,
        Route::Network,
        Route::Dse,
        Route::DseJob,
        Route::CacheStats,
        Route::Shutdown,
        Route::Other,
    ];

    fn of(path: &str) -> Route {
        if path.starts_with(DSE_JOB_PREFIX) {
            return Route::DseJob;
        }
        Route::ALL
            .into_iter()
            .find(|&route| route != Route::DseJob && route.label() == path)
            .unwrap_or(Route::Other)
    }

    /// The route's [`LATENCY_ROUTES`] label — the path itself for every
    /// served route.
    fn label(self) -> &'static str {
        LATENCY_ROUTES[self as usize]
    }

    /// The analysis endpoints: POST-only, cached, and bounded by the
    /// [`Gate`].
    fn is_analysis(self) -> bool {
        matches!(
            self,
            Route::Bound
                | Route::Sweep
                | Route::Plan
                | Route::Simulate
                | Route::Network
                | Route::Dse
        )
    }

    /// What this route logs after the common fields, read off the parsed
    /// body (`None` when it never parsed). `/v1/dse` logs nothing until a
    /// sweep answers; its funnel then replaces this tail.
    fn log_tail(self, parsed: Option<&Value>) -> LogTail {
        match self {
            Route::Simulate | Route::Plan => LogTail::Trace(parsed.is_some_and(|v| {
                matches!(v, Value::Object(fields)
                    if fields.iter().any(|(k, f)| k == "trace" && !matches!(f, Value::Null)))
            })),
            Route::Network => LogTail::Net(net_tag(parsed)),
            _ => LogTail::None,
        }
    }
}

/// Log2 bucket count of one route histogram: bucket `i` holds requests
/// whose latency has an `i`-bit microsecond value (upper bound
/// `2^i - 1 µs`), so 32 buckets span sub-microsecond to ~35 minutes —
/// beyond any deadline the server allows.
const LATENCY_BUCKETS: usize = 32;

/// The upper bound (inclusive, in µs) of log2 bucket `i` — the value
/// reported as a percentile when the quantile rank lands in that bucket.
fn bucket_upper_micros(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// One route's lock-free latency histogram: log2 buckets of microsecond
/// measurements plus the exact maximum. Recording is two relaxed atomic
/// ops on the hot path; percentiles are derived at snapshot time.
#[derive(Debug, Default)]
struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    max_micros: AtomicU64,
}

impl LatencyHistogram {
    fn record(&self, micros: u128) {
        let micros = u64::try_from(micros).unwrap_or(u64::MAX);
        let bucket = ((u64::BITS - micros.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    fn snapshot(&self, route: &str) -> RouteLatencyStats {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        // The smallest bucket whose cumulative count reaches the 1-based
        // quantile rank; the reported value is that bucket's upper bound
        // (a conservative estimate — never below the true percentile's
        // bucket).
        let quantile = |numerator: u128, denominator: u128| -> u64 {
            if total == 0 {
                return 0;
            }
            let rank = (u128::from(total) * numerator).div_ceil(denominator).max(1);
            let mut cumulative: u128 = 0;
            for (i, &count) in counts.iter().enumerate() {
                cumulative += u128::from(count);
                if cumulative >= rank {
                    return bucket_upper_micros(i);
                }
            }
            bucket_upper_micros(LATENCY_BUCKETS - 1)
        };
        RouteLatencyStats {
            route: route.to_string(),
            count: total,
            p50_micros: quantile(1, 2),
            p99_micros: quantile(99, 100),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// Per-route latency histograms, one per [`LATENCY_ROUTES`] entry.
#[derive(Debug, Default)]
struct LatencyRecorder {
    routes: [LatencyHistogram; LATENCY_ROUTES.len()],
}

impl LatencyRecorder {
    /// Books one request in its route's histogram — 404s and aborted
    /// connections (logged as `-`) in the trailing `other` one.
    fn record(&self, route: Route, micros: u128) {
        self.routes[route as usize].record(micros);
    }

    fn snapshot(&self) -> Vec<RouteLatencyStats> {
        LATENCY_ROUTES
            .iter()
            .zip(&self.routes)
            .map(|(route, histogram)| histogram.snapshot(route))
            .collect()
    }
}

/// Service-level counters, all monotone since server start (except the
/// open-connection gauge, which lives in [`ConnTable`]).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    shed: AtomicU64,
    keepalive_reuses: AtomicU64,
    idle_reaped: AtomicU64,
    drain_aborted: AtomicU64,
    dse_pruned: AtomicU64,
    dse_jobs: AtomicU64,
}

/// Takes a mutex guard even when a panicking handler poisoned the lock.
///
/// The server's shared tables (connections, jobs, the wait room) hold
/// plain data with no invariant spanning a critical section, so a
/// poisoned lock carries no corruption — but propagating the
/// `PoisonError` (the old `.expect(...)` behavior) turned one panicking
/// request into a cascade that killed every subsequent connection and
/// job. Recovery is the correct policy: log the event once per access
/// and keep serving.
fn lock_recover<'a, T>(mutex: &'a Mutex<T>, what: &str) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        eprintln!("clb-service: {what} lock poisoned by a panicking handler; recovering");
        poisoned.into_inner()
    })
}

/// One live connection as the accept loop and reaper see it: a second
/// handle to the socket (so eviction and drain can shut it down from
/// outside its own thread) plus its idle state.
struct ConnEntry {
    stream: TcpStream,
    /// `Some(since)` while the connection sits between requests (the only
    /// state in which it may be evicted); `None` while serving.
    idle_since: Option<Instant>,
}

/// The live-connection registry: the open-connection gauge, the
/// oldest-idle eviction policy, and the drain reaper all operate on this
/// one table.
#[derive(Default)]
struct ConnTable {
    entries: Mutex<HashMap<u64, ConnEntry>>,
    next_id: AtomicU64,
    /// Set once at drain start (under the entries lock): connections
    /// checking in afterwards close instead of idling.
    draining: AtomicBool,
}

impl ConnTable {
    /// Registers a connection (idle until its thread marks it busy),
    /// returning its id. The passed stream must be an independent handle
    /// (`try_clone`) — the table shuts it down to evict or abort.
    fn register(&self, stream: TcpStream) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = lock_recover(&self.entries, "conn table");
        entries.insert(
            id,
            ConnEntry {
                stream,
                idle_since: Some(Instant::now()),
            },
        );
        id
    }

    fn len(&self) -> usize {
        lock_recover(&self.entries, "conn table").len()
    }

    /// Marks a connection idle between requests. Returns `false` when the
    /// server is draining (or the entry is already gone) — the caller
    /// closes instead of waiting for a next request that must not come.
    fn mark_idle(&self, id: u64) -> bool {
        let mut entries = lock_recover(&self.entries, "conn table");
        if self.draining.load(Ordering::Relaxed) {
            return false;
        }
        match entries.get_mut(&id) {
            Some(entry) => {
                entry.idle_since = Some(Instant::now());
                true
            }
            None => false,
        }
    }

    /// Marks a connection busy serving a request. Returns `false` when the
    /// entry was evicted or reaped in the meantime — the caller closes.
    fn mark_busy(&self, id: u64) -> bool {
        let mut entries = lock_recover(&self.entries, "conn table");
        match entries.get_mut(&id) {
            Some(entry) => {
                entry.idle_since = None;
                true
            }
            None => false,
        }
    }

    fn remove(&self, id: u64) {
        lock_recover(&self.entries, "conn table").remove(&id);
    }

    /// Evicts the connection idle the longest: shuts its socket down (its
    /// thread wakes with EOF and exits) and removes it. Returns `false`
    /// when no connection is idle.
    fn evict_oldest_idle(&self) -> bool {
        let mut entries = lock_recover(&self.entries, "conn table");
        let oldest = entries
            .iter()
            .filter_map(|(id, e)| e.idle_since.map(|since| (since, *id)))
            .min_by_key(|(since, _)| *since)
            .map(|(_, id)| id);
        match oldest {
            Some(id) => {
                if let Some(entry) = entries.remove(&id) {
                    let _ = entry.stream.shutdown(std::net::Shutdown::Both);
                }
                true
            }
            None => false,
        }
    }

    /// Starts the drain: flags the table (late `mark_idle` calls now
    /// refuse) and reaps every currently idle connection. Returns how many
    /// were reaped; busy connections stay and finish their request.
    fn begin_drain(&self) -> u64 {
        let mut entries = lock_recover(&self.entries, "conn table");
        self.draining.store(true, Ordering::Relaxed);
        let idle: Vec<u64> = entries
            .iter()
            .filter(|(_, e)| e.idle_since.is_some())
            .map(|(id, _)| *id)
            .collect();
        for id in &idle {
            if let Some(entry) = entries.remove(id) {
                let _ = entry.stream.shutdown(std::net::Shutdown::Both);
            }
        }
        idle.len() as u64
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// The hard-deadline abort: shuts down every remaining socket so
    /// straggler threads unblock and exit. Returns how many were aborted.
    fn abort_all(&self) -> u64 {
        let entries = lock_recover(&self.entries, "conn table");
        for entry in entries.values() {
            let _ = entry.stream.shutdown(std::net::Shutdown::Both);
        }
        entries.len() as u64
    }
}

/// What answering one request produced: the response plus the log tail
/// it logs. Cached and coalesced together, so cache hits and coalesced
/// followers log what the leader logged.
struct Produced {
    response: Response,
    tail: LogTail,
}

impl Produced {
    fn new(response: Response, tail: LogTail) -> Arc<Produced> {
        Arc::new(Produced { response, tail })
    }
}

/// Concurrently running job-mode `/v1/dse` sweeps beyond this are shed
/// with `503 + Retry-After` at acceptance — background sweeps already
/// queue on the [`Gate`] one by one, so a deep job backlog only delays
/// every poll without computing anything sooner.
const MAX_RUNNING_DSE_JOBS: usize = 8;

/// Completed jobs retained for polling. Past the bound the oldest
/// completed job is evicted (its id polls 404); running jobs are never
/// evicted.
const DSE_JOB_RETENTION: usize = 64;

/// One accepted job-mode `/v1/dse` sweep's lifecycle state.
enum JobState {
    /// The background thread is sweeping; polls answer `running` with
    /// live progress read from these shared counters.
    Running {
        processed: Arc<AtomicU64>,
        pruned: Arc<AtomicU64>,
    },
    /// The sweep finished; polls answer the final response verbatim.
    Done(Response),
}

/// What [`JobTable::begin`] decided about a job-mode POST.
enum JobAdmission {
    /// Registered; the caller spawns the sweep thread and feeds these
    /// progress counters.
    New {
        processed: Arc<AtomicU64>,
        pruned: Arc<AtomicU64>,
    },
    /// The id is already registered (running or done) — idempotent
    /// re-POST, nothing to spawn.
    Existing,
    /// [`MAX_RUNNING_DSE_JOBS`] sweeps are already running; shed.
    Saturated,
}

/// The in-memory registry of accepted job-mode `/v1/dse` sweeps, keyed by
/// the deterministic job id ([`api::dse_job_id`]), in acceptance order.
#[derive(Default)]
struct JobTable {
    entries: Mutex<Vec<(String, JobState)>>,
}

impl JobTable {
    fn begin(&self, id: &str) -> JobAdmission {
        let mut entries = lock_recover(&self.entries, "job table");
        if entries.iter().any(|(existing, _)| existing == id) {
            return JobAdmission::Existing;
        }
        let running = entries
            .iter()
            .filter(|(_, state)| matches!(state, JobState::Running { .. }))
            .count();
        if running >= MAX_RUNNING_DSE_JOBS {
            return JobAdmission::Saturated;
        }
        let processed = Arc::new(AtomicU64::new(0));
        let pruned = Arc::new(AtomicU64::new(0));
        entries.push((
            id.to_string(),
            JobState::Running {
                processed: Arc::clone(&processed),
                pruned: Arc::clone(&pruned),
            },
        ));
        JobAdmission::New { processed, pruned }
    }

    fn complete(&self, id: &str, response: Response) {
        let mut entries = lock_recover(&self.entries, "job table");
        if let Some(entry) = entries.iter_mut().find(|(existing, _)| existing == id) {
            entry.1 = JobState::Done(response);
        }
        while entries.len() > DSE_JOB_RETENTION {
            match entries
                .iter()
                .position(|(_, state)| matches!(state, JobState::Done(_)))
            {
                Some(oldest_done) => {
                    entries.remove(oldest_done);
                }
                None => break,
            }
        }
    }

    fn poll(&self, id: &str) -> Option<Response> {
        let entries = lock_recover(&self.entries, "job table");
        entries
            .iter()
            .find(|(existing, _)| existing == id)
            .map(|(_, state)| match state {
                JobState::Running { processed, pruned } => Response::json(
                    200,
                    api::dse_job_running_body(
                        id,
                        processed.load(Ordering::Relaxed),
                        pruned.load(Ordering::Relaxed),
                    ),
                ),
                JobState::Done(response) => response.clone(),
            })
    }
}

/// Everything the request handlers share. `counters`, `gate` and `jobs`
/// sit behind their own `Arc`s because job-mode `/v1/dse` sweeps outlive
/// the connection that accepted them: the background thread keeps these
/// three alive while the rest of the state is only reachable through the
/// connection threads.
struct ServiceState {
    config: ServiceConfig,
    responses: Memo<String, Arc<Produced>>,
    counters: Arc<Counters>,
    latency: LatencyRecorder,
    gate: Arc<Gate>,
    jobs: Arc<JobTable>,
    table: ConnTable,
    /// Framed requests waiting for a [`Gate`] permit, each owning its
    /// connection — the event tier's waiting room holds *connections*,
    /// not blocked worker threads, so compute saturation can never
    /// consume the serving plane. Bounded by
    /// [`ServiceConfig::queue_capacity`]; a request that finds the room
    /// full is shed (`503 + Retry-After`). Entries leave when a permit
    /// release pumps them back onto the worker queue ([`Self::admit_next`]).
    wait_room: Mutex<VecDeque<(Conn, PendingRequest)>>,
    /// The event tier's worker queue, set once at tier startup;
    /// [`Self::admit_next`] pushes re-admissions here from whatever
    /// thread releases a permit (I/O workers and DSE job threads alike).
    ready_queue: OnceLock<Arc<BoundedQueue<Work>>>,
    /// Weak self-handle (set by [`Server::bind`]) so detached DSE job
    /// threads — which deliberately capture only the `Arc`'d slices of
    /// the state — can pump the wait room when their permit releases.
    self_ref: OnceLock<Weak<ServiceState>>,
    /// Set by [`Server::bind`]; lets `POST /v1/shutdown` trigger the same
    /// drain as [`StopHandle::stop`].
    stopper: OnceLock<StopHandle>,
}

/// Wire shape of `GET /v1/cache_stats`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CacheStatsResponse {
    /// Tiling-search memo-cache stats (process-wide).
    pub search: MemoCacheStats,
    /// Planner `(layer, arch)` memo-cache stats (process-wide).
    pub plan: MemoCacheStats,
    /// HTTP-layer stats for this server.
    pub service: ServiceStats,
    /// Per-route latency histograms, one entry per [`LATENCY_ROUTES`]
    /// route in that fixed order (all routes always present).
    pub latency: Vec<RouteLatencyStats>,
}

/// One route's entry in the `latency` section of `GET /v1/cache_stats`:
/// request count and latency percentiles in microseconds, derived from a
/// 32-bucket log2 histogram of the same measurement the request log's
/// `micros=` field reports. Percentiles are bucket upper bounds (so `p50`
/// of a route whose requests all take ~100 µs reads `127`); `max` is
/// exact.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RouteLatencyStats {
    /// The route (a [`LATENCY_ROUTES`] entry).
    pub route: String,
    /// Requests measured.
    pub count: u64,
    /// Median latency in µs (log2-bucket upper bound), 0 when idle.
    pub p50_micros: u64,
    /// 99th-percentile latency in µs (log2-bucket upper bound), 0 when idle.
    pub p99_micros: u64,
    /// Largest single latency in µs (exact), 0 when idle.
    pub max_micros: u64,
}

/// One memo-cache section of [`CacheStatsResponse`] — the `search` (tiling
/// search engine) and `plan` (planner) caches share this shape.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MemoCacheStats {
    /// Lookups answered from the memo cache.
    pub hits: u64,
    /// Lookups computed (cache misses).
    pub misses: u64,
    /// Lookups that shared a concurrent identical computation.
    pub coalesced: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Resident entries.
    pub entries: u64,
    /// The LRU bound.
    pub capacity: u64,
    /// hits / (hits + misses), 0 when idle.
    pub hit_rate: f64,
}

impl From<dataflow::CacheStats> for MemoCacheStats {
    fn from(s: dataflow::CacheStats) -> Self {
        MemoCacheStats {
            hits: s.hits,
            misses: s.misses,
            coalesced: s.coalesced,
            evictions: s.evictions,
            entries: s.entries as u64,
            capacity: s.capacity as u64,
            hit_rate: s.hit_rate(),
        }
    }
}

/// The service section of [`CacheStatsResponse`] — request counters plus
/// the connection-lifecycle counters the keep-alive tier exposes.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServiceStats {
    /// Requests fully processed (any status).
    pub requests: u64,
    /// Requests answered from the response cache.
    pub responses_cached: u64,
    /// Requests that shared a concurrent identical computation.
    pub coalesced: u64,
    /// Requests (or over-cap connections) shed with `503 + Retry-After`.
    pub shed: u64,
    /// Currently open connections (a gauge, not a monotone counter).
    pub connections_open: u64,
    /// Requests served on a reused keep-alive connection (the second and
    /// later requests of each connection).
    pub keepalive_reuses: u64,
    /// Idle keep-alive connections closed by the server: idle-timeout
    /// reaps, oldest-idle evictions at the connection cap, and idle
    /// connections reaped at drain start.
    pub idle_reaped: u64,
    /// In-flight connections aborted at the drain hard deadline.
    pub drain_aborted: u64,
    /// Candidates discarded by the staged `/v1/dse` bound stage, summed
    /// over completed sweeps (synchronous, streamed and job-mode alike).
    pub dse_pruned: u64,
    /// Job-mode `/v1/dse` sweeps accepted (each spawned one background
    /// run; idempotent re-POSTs of an accepted job do not recount).
    pub dse_jobs: u64,
    /// Resident response-cache entries.
    pub response_cache_entries: u64,
    /// Response-cache bound.
    pub response_cache_capacity: u64,
}

/// One live connection as the event tier carries it between the poller
/// and the I/O workers: the socket behind its buffered reader, the
/// per-connection request count (the keep-alive budget survives parking),
/// and the drain guard that keeps [`Server::run`]'s wait-group honest.
/// Dropping a `Conn` closes the socket and releases the guard.
struct Conn {
    id: u64,
    reader: BufReader<TcpStream>,
    /// Requests served so far — `served > 1` counts as a keep-alive reuse.
    served: usize,
    _guard: WaitGuard,
}

impl Conn {
    fn fd(&self) -> RawFd {
        self.reader.get_ref().as_raw_fd()
    }
}

/// One request as far as [`ServiceState::frame`] read it, with its route
/// derived once. A gated request that finds every permit busy is carried
/// verbatim, with its connection, into the wait room and resumed once a
/// permit release pumps it back onto a worker.
struct PendingRequest {
    /// When the bytes started arriving — latency is measured from first
    /// read, so time shelved counts.
    started: Instant,
    /// Method and path as sent; `-` when no head could be read.
    method: String,
    path: String,
    route: Route,
    /// The client asked for a persistent connection (never after a framing
    /// error: the unread rest of the byte stream cannot be trusted).
    keep_alive: bool,
    body: Vec<u8>,
    /// Why the request could not be framed; it is answered with this
    /// error's status and the connection closes.
    refused: Option<HttpError>,
}

impl PendingRequest {
    /// A request whose head never arrived (or a connection aborted before
    /// one could): logged as `method=- path=-`, booked under `other`.
    fn headless(started: Instant, refused: Option<HttpError>) -> PendingRequest {
        PendingRequest {
            started,
            method: "-".to_string(),
            path: "-".to_string(),
            route: Route::Other,
            keep_alive: false,
            body: Vec::new(),
            refused,
        }
    }
}

/// How one request is answered.
enum Reply {
    /// A whole response, written with a `Content-Length`.
    Framed(Arc<Produced>, CacheOutcome),
    /// A chunked-transport `/v1/dse` sweep over this parsed body, written
    /// frame by frame while the permit is held.
    Chunked(Value),
}

impl Reply {
    fn uncached(response: Response, tail: LogTail) -> Reply {
        Reply::Framed(Produced::new(response, tail), CacheOutcome::Uncached)
    }
}

/// One unit of I/O-worker work.
enum Work {
    /// The poller reported this parked connection readable.
    Ready(Conn),
    /// A permit release pumped this shelved request; re-attempt admission.
    Admit(Conn, PendingRequest),
}

impl Work {
    fn conn_id(&self) -> u64 {
        match self {
            Work::Ready(conn) | Work::Admit(conn, _) => conn.id,
        }
    }
}

impl ServiceState {
    fn new(config: ServiceConfig) -> Self {
        let permits = if config.threads == 0 {
            rayon::current_num_threads()
        } else {
            config.threads
        };
        ServiceState {
            responses: Memo::new(config.result_cache_capacity),
            gate: Arc::new(Gate::new(permits)),
            config,
            counters: Arc::new(Counters::default()),
            latency: LatencyRecorder::default(),
            jobs: Arc::new(JobTable::default()),
            table: ConnTable::default(),
            wait_room: Mutex::new(VecDeque::new()),
            ready_queue: OnceLock::new(),
            self_ref: OnceLock::new(),
            stopper: OnceLock::new(),
        }
    }

    /// The event tier's I/O worker count: the configured value (clamped
    /// to ≥ 1), or — for the auto default of 0 — the compute permit
    /// count plus headroom, so every gated computation can proceed while
    /// spare workers keep answering ungated traffic (health, stats,
    /// sheds) and absorbing socket I/O stalls.
    fn io_workers(&self) -> usize {
        if self.config.io_workers == 0 {
            self.gate.permits() + 4
        } else {
            self.config.io_workers.max(1)
        }
    }

    fn service_stats(&self) -> ServiceStats {
        let responses = self.responses.stats();
        ServiceStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            responses_cached: responses.hits,
            coalesced: responses.coalesced,
            shed: self.counters.shed.load(Ordering::Relaxed),
            connections_open: self.table.len() as u64,
            keepalive_reuses: self.counters.keepalive_reuses.load(Ordering::Relaxed),
            idle_reaped: self.counters.idle_reaped.load(Ordering::Relaxed),
            drain_aborted: self.counters.drain_aborted.load(Ordering::Relaxed),
            dse_pruned: self.counters.dse_pruned.load(Ordering::Relaxed),
            dse_jobs: self.counters.dse_jobs.load(Ordering::Relaxed),
            response_cache_entries: responses.entries as u64,
            response_cache_capacity: responses.capacity as u64,
        }
    }

    fn cache_stats_response(&self) -> Response {
        let stats = CacheStatsResponse {
            search: dataflow::cache_stats().into(),
            plan: clb_core::plan_cache_stats().into(),
            service: self.service_stats(),
            latency: self.latency.snapshot(),
        };
        match serde_json::to_string_pretty(&stats) {
            Ok(body) => Response::json(200, body),
            Err(e) => Response::error(500, &e.to_string()),
        }
    }

    /// Answers one framed request from its route. Only the analysis POSTs
    /// read the body ([`Self::post`]); everything else answers from the
    /// route and method alone.
    fn answer(&self, request: &PendingRequest) -> Reply {
        let path = request.path.as_str();
        let response = match (&request.refused, request.method.as_str(), request.route) {
            (Some(e), _, _) => Response::error(e.status(), &e.message()),
            (None, "POST", route) if route.is_analysis() => return self.post(request),
            (None, "GET", Route::Healthz) => Response::json(200, "{\"status\": \"ok\"}"),
            (None, "GET", Route::CacheStats) => self.cache_stats_response(),
            (None, "GET", Route::DseJob) => {
                let id = &path[DSE_JOB_PREFIX.len()..];
                self.jobs.poll(id).unwrap_or_else(|| {
                    Response::error(
                        404,
                        &format!(
                            "no such DSE job `{id}` (the newest {DSE_JOB_RETENTION} \
                             completed jobs are retained)"
                        ),
                    )
                })
            }
            (None, "POST", Route::Shutdown) => self.shutdown_response(),
            (None, _, Route::Other) => Response::error(404, &format!("no such endpoint `{path}`")),
            (None, method, _) => {
                Response::error(405, &format!("method {method} not allowed for {path}"))
            }
        };
        Reply::uncached(response, request.route.log_tail(None))
    }

    /// The analysis POST path; the caller holds a gate permit. The body is
    /// parsed once, then one `match` on the stream mode (always sync off
    /// `/v1/dse`) picks the transport. Sync requests go through the
    /// response memo: the canonical key is the route plus the parsed,
    /// key-sorted, re-serialized body, so whitespace or key-order
    /// differences in client JSON cannot split identical queries, and
    /// responses travel as `Arc<Produced>` — a cache hit clones a pointer
    /// inside the lock, never a multi-kilobyte body.
    fn post(&self, request: &PendingRequest) -> Reply {
        let route = request.route;
        let parsed: Value = match std::str::from_utf8(&request.body)
            .map_err(|_| "request body is not valid UTF-8".to_string())
            .and_then(|text| {
                serde_json::from_str::<Value>(text).map_err(|e| format!("invalid JSON body: {e}"))
            }) {
            Ok(v) => v,
            Err(msg) => return Reply::uncached(Response::error(400, &msg), route.log_tail(None)),
        };
        let mode = match route {
            Route::Dse => api::stream_mode_hint(&parsed),
            _ => api::StreamMode::Sync,
        };
        match mode {
            // Job mode never enters the response memo: an acceptance must
            // register the job and spawn its sweep thread, which the pure
            // dispatch cannot do, and idempotency is keyed on the job id
            // instead of the canonical body.
            api::StreamMode::Job => {
                return Reply::Framed(self.dse_job_response(&parsed), CacheOutcome::Uncached)
            }
            // Streams bypass the memo too: the transport's value is live
            // progress, and the final body is reachable cacheably via the
            // synchronous mode anyway.
            api::StreamMode::Chunked => return Reply::Chunked(parsed),
            api::StreamMode::Sync => {}
        }
        let canonical = match serde_json::to_string(&api::Canonical(&parsed)) {
            Ok(c) => c,
            Err(e) => {
                let response = Response::error(400, &format!("unrenderable JSON body: {e}"));
                return Reply::uncached(response, route.log_tail(Some(&parsed)));
            }
        };
        let key = format!("{} {canonical}", route.label());
        let compute = || {
            let (response, dse) = api::dispatch_with_meta(route.label(), &parsed);
            // The prune counter observes each sweep once, here at compute
            // time — cache hits and coalesced followers reuse the result
            // without re-counting work that never re-ran.
            let tail = match dse {
                Some(meta) => {
                    self.counters
                        .dse_pruned
                        .fetch_add(meta.pruned, Ordering::Relaxed);
                    LogTail::Dse(meta)
                }
                None => route.log_tail(Some(&parsed)),
            };
            Produced::new(response, tail)
        };
        // The response cache is bounded by *entry count*, so one oversized
        // body class (a 256-candidate `/v1/dse` sweep runs to ~0.6 MB;
        // network-mode sweeps ~30 KB *per candidate*, so whole-model
        // sweeps beyond a handful of candidates also land here) could
        // otherwise pin cache_capacity × body_size of memory. Bodies
        // beyond this bound recompute instead — their expensive part (the
        // per-arch planning) is already memoized underneath, and identical
        // concurrent requests still coalesce.
        const MAX_CACHEABLE_BODY_BYTES: usize = 128 * 1024;
        let keep = |produced: &Arc<Produced>| {
            produced.response.status == 200
                && produced.response.body.len() <= MAX_CACHEABLE_BODY_BYTES
        };
        let (produced, lookup) = self.responses.get_or_compute(key, compute, keep);
        let outcome = match lookup {
            Lookup::Hit => CacheOutcome::Hit,
            Lookup::Miss => CacheOutcome::Miss,
            Lookup::Coalesced => CacheOutcome::Coalesced,
        };
        Reply::Framed(produced, outcome)
    }

    /// Accepts (or re-acknowledges) a job-mode `/v1/dse` request: validates
    /// the whole spec up front (a bad request is rejected before a job
    /// exists), registers the deterministic job id, spawns the background
    /// sweep thread and answers the acceptance body immediately.
    /// Re-POSTing an accepted job returns the same acceptance without
    /// spawning anything; past [`MAX_RUNNING_DSE_JOBS`] running sweeps the
    /// job is shed with `503 + Retry-After`.
    fn dse_job_response(&self, parsed: &Value) -> Arc<Produced> {
        let spec = match api::prepare_dse_job(parsed) {
            Ok(spec) => spec,
            Err(e) => return Produced::new(e.into_response(), LogTail::None),
        };
        let accepted = Produced::new(
            Response::json(200, spec.acceptance_body()),
            LogTail::Dse(spec.meta()),
        );
        match self.jobs.begin(&spec.id) {
            JobAdmission::Existing => accepted,
            JobAdmission::Saturated => {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                Produced::new(
                    Response::unavailable(
                        "too many DSE jobs running; retry with backoff",
                        RETRY_AFTER_SECS,
                    ),
                    LogTail::None,
                )
            }
            JobAdmission::New { processed, pruned } => {
                self.counters.dse_jobs.fetch_add(1, Ordering::Relaxed);
                let jobs = Arc::clone(&self.jobs);
                let gate = Arc::clone(&self.gate);
                let counters = Arc::clone(&self.counters);
                // Weak: the job must not keep a stopped server's state
                // alive, but its permit release may be the one a shelved
                // request is waiting for — upgrade to pump the wait room.
                let state = self.self_ref.get().cloned();
                let job_id = spec.id.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("clb-dse-job-{}", &job_id[..8.min(job_id.len())]))
                    .spawn(move || {
                        // The sweep waits for a normal gate permit: background
                        // jobs queue behind interactive requests instead of
                        // oversubscribing the compute pool. At most
                        // `MAX_RUNNING_DSE_JOBS` threads ever wait here, so
                        // the gate needs no waiting room of its own.
                        let permit = gate.acquire();
                        let (response, pruned_total) = spec.run(&mut |done, cut| {
                            processed.store(done as u64, Ordering::Relaxed);
                            pruned.store(cut, Ordering::Relaxed);
                        });
                        drop(permit);
                        counters
                            .dse_pruned
                            .fetch_add(pruned_total, Ordering::Relaxed);
                        jobs.complete(&spec.id, response);
                        if let Some(state) = state.and_then(|weak| weak.upgrade()) {
                            state.admit_next();
                        }
                    });
                if spawned.is_err() {
                    self.jobs.complete(
                        &job_id,
                        Response::error(500, "could not spawn the job thread"),
                    );
                }
                accepted
            }
        }
    }

    /// The drain trigger behind `POST /v1/shutdown` (when enabled): flips
    /// the same stop flag as [`StopHandle::stop`], so the accept loop
    /// begins the graceful drain while this response is still in flight.
    fn shutdown_response(&self) -> Response {
        if !self.config.allow_shutdown {
            return Response::error(
                403,
                "shutdown over HTTP is disabled; start the server with --allow-shutdown",
            );
        }
        match self.stopper.get() {
            Some(stopper) => {
                stopper.stop();
                Response::json(200, "{\"status\": \"draining\"}")
            }
            None => Response::error(500, "server has no stop handle"),
        }
    }

    /// Books one request in its route's latency histogram — logging
    /// enabled or not, they feed `/v1/cache_stats` — and hands its line to
    /// the log sink.
    fn log_request(
        &self,
        request: &PendingRequest,
        status: u16,
        outcome: CacheOutcome,
        conn: u64,
        tail: &LogTail,
    ) {
        let micros = request.started.elapsed().as_micros();
        self.latency.record(request.route, micros);
        if let Some(sink) = &self.config.log {
            sink(&format_request_log(
                &request.method,
                &request.path,
                status,
                micros,
                outcome,
                conn,
                tail,
            ));
        }
    }

    /// Streams one chunked-transport `/v1/dse` sweep onto the socket:
    /// validates the whole request through [`api::dse_staged_stream`] —
    /// errors before the first chunk still answer as a plain framed
    /// response — then writes `Transfer-Encoding: chunked` frames: one per
    /// frontier snapshot, then the final body (byte-identical to the
    /// `"stream": false` response), then the terminal zero chunk. Returns
    /// what the request log records — on success a `200` whose body
    /// already went out chunk by chunk — and whether every write landed.
    fn stream_dse(
        &self,
        mut writer: &TcpStream,
        parsed: &Value,
        keep: bool,
    ) -> (Arc<Produced>, bool) {
        let mut write_ok = true;
        let mut header_sent = false;
        let result = api::dse_staged_stream(parsed, &mut |chunk| {
            if !header_sent {
                header_sent = true;
                let header = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Transfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
                    if keep { "keep-alive" } else { "close" }
                );
                write_ok &= writer.write_all(header.as_bytes()).is_ok();
            }
            if write_ok && !chunk.is_empty() {
                let frame = format!("{:x}\r\n{chunk}\r\n", chunk.len());
                write_ok &= writer.write_all(frame.as_bytes()).is_ok();
            }
        });
        match result {
            Ok(meta) => {
                write_ok &= writer.write_all(b"0\r\n\r\n").is_ok() && writer.flush().is_ok();
                self.counters
                    .dse_pruned
                    .fetch_add(meta.pruned, Ordering::Relaxed);
                let streamed = Response::json(200, String::new());
                (Produced::new(streamed, LogTail::Dse(meta)), write_ok)
            }
            Err(e) if !header_sent => {
                let response = e.into_response();
                let ok = response.write_conn(&mut writer, keep).is_ok();
                (Produced::new(response, LogTail::None), ok)
            }
            Err(e) => {
                // A render failure after snapshots already went out (never
                // seen in practice): terminate the chunked body — the
                // truncated stream is the only honest signal left.
                let _ = writer.write_all(b"0\r\n\r\n");
                (Produced::new(e.into_response(), LogTail::None), false)
            }
        }
    }

    /// Serves a connection the poller reported readable. The readiness
    /// probe is a non-blocking `MSG_PEEK`: if the readiness evaporated
    /// between the epoll report and this call (an eviction/drain race),
    /// a blocking probe would stall this worker for a full
    /// `read_timeout` — the peek re-parks instead. EOF here is the
    /// parked peer hanging up. Runs on an I/O worker thread.
    fn serve_ready(&self, conn: Conn) -> Option<Conn> {
        if conn.reader.buffer().is_empty() {
            match peek_ready(conn.fd()) {
                Ok(0) => {
                    self.finish(conn.id);
                    return None;
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Some(conn),
                Err(_) => {
                    self.finish(conn.id);
                    return None;
                }
            }
        }
        self.serve_conn(conn, None)
    }

    /// The keep-alive serving loop: zero or more complete requests —
    /// starting with `shelved` when [`Self::admit_next`] pumped one off the
    /// wait room — until the socket has no more buffered input (re-park
    /// it — `Some`), the lifecycle ends it (`None`: client close,
    /// `Connection: close`, framing error, request bound, eviction, or
    /// drain), or admission defers it into the gate wait room (`None`; the
    /// connection resumes through another `serve_conn`).
    ///
    /// Admission never blocks: a gated request takes a permit through
    /// `try_acquire`, and one that finds every permit busy is shelved —
    /// connection and all — or, with the wait room full, shed with
    /// `503 + Retry-After`. Its body was already read, so a shed
    /// connection stays consistent for keep-alive reuse.
    fn serve_conn(&self, mut conn: Conn, mut shelved: Option<PendingRequest>) -> Option<Conn> {
        loop {
            let mut request = match shelved.take() {
                // Resumed from the wait room: still marked busy — it was
                // mid-request all along.
                Some(request) => request,
                // Evicted between the bytes arriving and now.
                None if !self.table.mark_busy(conn.id) => break,
                None => self.frame(&mut conn),
            };
            let gated = request.refused.is_none()
                && request.method == "POST"
                && request.route.is_analysis();
            let permit = if gated { self.gate.try_acquire() } else { None };
            let reply = if gated && permit.is_none() {
                match self.shelve(conn, request) {
                    // The wait room owns the connection now.
                    None => return None,
                    Some(given_back) => {
                        (conn, request) = given_back;
                        self.counters.shed.fetch_add(1, Ordering::Relaxed);
                        let shed = Response::unavailable(
                            "server is saturated; retry with backoff",
                            RETRY_AFTER_SECS,
                        );
                        Reply::uncached(shed, request.route.log_tail(None))
                    }
                }
            } else {
                self.answer(&request)
            };
            if !self.respond(&mut conn, &request, reply, permit) || !self.table.mark_idle(conn.id) {
                // Closing, draining, or evicted mid-response.
                break;
            }
            if conn.reader.buffer().is_empty() {
                return Some(conn);
            }
            // Pipelined bytes already buffered in user space are
            // invisible to epoll: serve them now, never park them.
        }
        self.finish(conn.id);
        None
    }

    /// Reads and frames exactly one request: the head, the `100 Continue`
    /// interim response when asked for (only for a body the server will
    /// read) and the body. On success the byte stream is consumed through
    /// the end of the request, so whatever happens next — shelve and shed
    /// included — the connection stays consistent for reuse. A framing
    /// failure (malformed or oversized head or body, stall, deadline,
    /// truncation) comes back as [`PendingRequest::refused`].
    fn frame(&self, conn: &mut Conn) -> PendingRequest {
        let started = Instant::now();
        let deadline = Some(started + self.config.request_deadline);
        let max_body = self.config.max_body_bytes;
        let head = match http::read_head_buffered(&mut conn.reader, deadline) {
            Ok(head) => head,
            Err(e) => return PendingRequest::headless(started, Some(e)),
        };
        // An oversized body is refused unread (413), so it gets no go-ahead.
        let go_ahead = head.expects_continue() && (1..=max_body).contains(&head.content_length);
        let continued = if go_ahead {
            http::write_continue(&mut conn.reader.get_ref())
                .map_err(|e| HttpError::Io(e.to_string()))
        } else {
            Ok(())
        };
        let framed = continued.and_then(|()| {
            http::read_body(&mut conn.reader, head.content_length, max_body, deadline)
        });
        let keep_alive = framed.is_ok() && head.wants_keepalive();
        let (body, refused) = match framed {
            Ok(body) => (body, None),
            Err(e) => (Vec::new(), Some(e)),
        };
        PendingRequest {
            started,
            route: Route::of(&head.path),
            method: head.method,
            path: head.path,
            keep_alive,
            body,
            refused,
        }
    }

    /// The response phase of every request, framed or streamed: request
    /// counters, the keep-alive decision, the permit release, the socket
    /// write and the log line. The permit is released as soon as the
    /// compute is done — before a framed write, after a stream — so the
    /// freed permit pumps the wait room immediately. Returns whether the
    /// connection should be kept alive.
    fn respond(
        &self,
        conn: &mut Conn,
        request: &PendingRequest,
        reply: Reply,
        permit: Option<GatePermit<'_>>,
    ) -> bool {
        conn.served += 1;
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        if conn.served > 1 {
            self.counters
                .keepalive_reuses
                .fetch_add(1, Ordering::Relaxed);
        }
        let keep = request.keep_alive
            && conn.served < self.config.max_requests_per_connection.max(1)
            && !self.table.is_draining();
        let mut writer = conn.reader.get_ref();
        let (produced, outcome, streamed) = match reply {
            Reply::Framed(produced, outcome) => (produced, outcome, None),
            Reply::Chunked(parsed) => {
                let (produced, write_ok) = self.stream_dse(writer, &parsed, keep);
                (produced, CacheOutcome::Uncached, Some(write_ok))
            }
        };
        if let Some(permit) = permit {
            drop(permit);
            self.admit_next();
        }
        let write_ok =
            streamed.unwrap_or_else(|| produced.response.write_conn(&mut writer, keep).is_ok());
        self.log_request(
            request,
            produced.response.status,
            outcome,
            conn.id,
            &produced.tail,
        );
        keep && write_ok
    }

    /// Moves a framed-but-unadmitted request (and its connection) into
    /// the gate wait room. `Some` hands both back when the room is full —
    /// the caller sheds. After a successful shelve the gate is probed
    /// once more: a permit released between the failed `try_acquire` and
    /// the push above pumped an earlier (or empty) room, so without this
    /// re-check the request could strand until the next unrelated
    /// release.
    fn shelve(&self, conn: Conn, pending: PendingRequest) -> Option<(Conn, PendingRequest)> {
        {
            let mut room = lock_recover(&self.wait_room, "gate wait room");
            if room.len() >= self.config.queue_capacity {
                return Some((conn, pending));
            }
            room.push_back((conn, pending));
        }
        if let Some(probe) = self.gate.try_acquire() {
            drop(probe);
            self.admit_next();
        }
        None
    }

    /// Pumps one shelved request back onto the worker queue. Called after
    /// every permit release (gated responses, streams, DSE job threads);
    /// the receiving worker re-attempts `try_acquire` itself, so a permit
    /// taken again in the meantime just re-shelves. A request that cannot
    /// reach the queue (tier gone, queue full) is answered `503`
    /// best-effort and closed — never dropped silently.
    fn admit_next(&self) {
        let popped = lock_recover(&self.wait_room, "gate wait room").pop_front();
        let Some((conn, pending)) = popped else {
            return;
        };
        match self.ready_queue.get() {
            Some(queue) => {
                if let Err(Work::Admit(conn, _)) = queue.try_push(Work::Admit(conn, pending)) {
                    self.shed_unserved(conn);
                }
            }
            None => self.finish(conn.id),
        }
    }

    /// Last-resort shed for a connection that cannot reach a worker:
    /// answer `503 + Retry-After` best-effort and close.
    fn shed_unserved(&self, conn: Conn) {
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
        let mut writer = conn.reader.get_ref();
        let _ = Response::unavailable("server is overloaded; retry with backoff", RETRY_AFTER_SECS)
            .write_conn(&mut writer, false);
        self.finish(conn.id);
    }

    fn finish(&self, conn_id: u64) {
        self.table.remove(conn_id);
    }
}

/// The event tier: one epoll poller thread parking idle connections,
/// plus [`ServiceState::io_workers`] I/O worker threads serving ready
/// ones. Thread count is fixed at startup — open connections add fds,
/// not threads.
///
/// Connections travel a fixed circuit: `park` (accept loop or a worker)
/// → the park channel → the poller registers the fd → readiness or
/// idle-timeout → the poller deregisters and either dispatches the
/// connection onto the bounded queue or reaps it → a worker serves it →
/// back to `park`, closed, or shelved in the gate wait room (from which
/// [`ServiceState::admit_next`] re-queues it). Exactly one stage owns a
/// `Conn` at a time, and its fd is never registered while outside the
/// poller — so a close (which would silently orphan an epoll
/// registration) is always safe.
///
/// The queue holds `2 × max_connections`: evicted connections stay
/// parked (fd registered) until EOF is observed, so during an accept
/// burst at the connection cap the live `Conn` count can briefly exceed
/// `max_connections`. A push that still fails sheds `503` best-effort
/// rather than closing silently.
struct EventTier {
    state: Arc<ServiceState>,
    park_tx: mpsc::Sender<Conn>,
    waker: Waker,
    queue: Arc<BoundedQueue<Work>>,
    stop: Arc<AtomicBool>,
    poller: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl EventTier {
    fn start(state: Arc<ServiceState>) -> std::io::Result<EventTier> {
        let poller = Poller::new()?;
        let waker = poller.waker();
        let (park_tx, park_rx) = mpsc::channel::<Conn>();
        let queue = Arc::new(BoundedQueue::new(
            state.config.max_connections.max(1).saturating_mul(2),
        ));
        // `admit_next` pumps shelved requests back onto this queue from
        // whichever thread releases a gate permit.
        let _ = state.ready_queue.set(Arc::clone(&queue));
        let stop = Arc::new(AtomicBool::new(false));
        let poller_thread = std::thread::Builder::new()
            .name("clb-poller".to_string())
            .spawn({
                let state = Arc::clone(&state);
                let queue = Arc::clone(&queue);
                let stop = Arc::clone(&stop);
                move || run_poller(&state, &poller, &park_rx, &queue, &stop)
            })?;
        let mut workers = Vec::new();
        for i in 0..state.io_workers() {
            workers.push(
                std::thread::Builder::new()
                    .name(format!("clb-io-{i}"))
                    .spawn({
                        let state = Arc::clone(&state);
                        let queue = Arc::clone(&queue);
                        let park_tx = park_tx.clone();
                        let waker = waker.clone();
                        move || run_worker(&state, &queue, &park_tx, &waker)
                    })?,
            );
        }
        Ok(EventTier {
            state,
            park_tx,
            waker,
            queue,
            stop,
            poller: Some(poller_thread),
            workers,
        })
    }

    /// Hands a connection to the poller for its idle phase. A park that
    /// cannot be delivered (the poller is gone — shutdown) closes the
    /// connection instead.
    fn park(&self, conn: Conn) {
        match self.park_tx.send(conn) {
            Ok(()) => self.waker.wake(),
            Err(mpsc::SendError(conn)) => self.state.finish(conn.id),
        }
    }

    /// Stops and joins the tier: the poller first (it drops every still-
    /// parked connection), then the workers (they drain the ready queue —
    /// drain/abort already shut those sockets, so each remaining serve is
    /// a quick EOF), then the gate wait room (no permit release will ever
    /// pump those shelved connections again).
    fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(poller) = self.poller.take() {
            let _ = poller.join();
        }
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        loop {
            let popped = lock_recover(&self.state.wait_room, "gate wait room").pop_front();
            match popped {
                Some((conn, _pending)) => self.state.finish(conn.id),
                None => break,
            }
        }
    }
}

/// The poller thread: parks idle connections on the epoll instance,
/// reaps the ones whose [`ServiceConfig::idle_timeout`] expires, and
/// hands readable ones to the worker queue. Never reads a socket itself,
/// so one slow peer cannot stall the readiness plane.
fn run_poller(
    state: &ServiceState,
    poller: &Poller,
    park_rx: &mpsc::Receiver<Conn>,
    queue: &BoundedQueue<Work>,
    stop: &AtomicBool,
) {
    let mut parked: HashMap<RawFd, (Conn, Instant)> = HashMap::new();
    let mut ready: Vec<RawFd> = Vec::new();
    loop {
        // Intake newly parked connections. Their fds register
        // level-triggered, so bytes that arrived before this point
        // report on the next wait — no lost wakeups.
        while let Ok(conn) = park_rx.try_recv() {
            let fd = conn.fd();
            match poller.add(fd) {
                Ok(()) => {
                    let deadline = Instant::now() + state.config.idle_timeout;
                    parked.insert(fd, (conn, deadline));
                }
                Err(e) => {
                    // Registration failed (fd-watch limit, ...): this
                    // connection cannot be parked, only closed.
                    eprintln!("clb-conn-{}: cannot watch socket ({e}); closing", conn.id);
                    state.finish(conn.id);
                }
            }
        }
        if stop.load(Ordering::Relaxed) {
            for (fd, (conn, _)) in parked.drain() {
                let _ = poller.del(fd);
                state.finish(conn.id);
            }
            return;
        }
        // Sleep until the next readiness, park, stop, or idle deadline.
        let timeout = parked
            .values()
            .map(|(_, deadline)| *deadline)
            .min()
            .map(|deadline| deadline.saturating_duration_since(Instant::now()));
        if let Err(e) = poller.wait(&mut ready, timeout) {
            eprintln!("clb-poller: epoll_wait failed ({e}); backing off");
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        // Dispatch readiness *before* reaping idle deadlines: a request
        // whose bytes arrived just before the deadline must be served,
        // not reaped unanswered.
        for fd in ready.drain(..) {
            if let Some((conn, _)) = parked.remove(&fd) {
                // Deregister *before* the connection leaves this thread:
                // a worker may close the fd, and a close on a registered
                // fd (or its reuse by a new connection) corrupts the
                // interest list.
                let _ = poller.del(fd);
                if let Err(Work::Ready(conn)) = queue.try_push(Work::Ready(conn)) {
                    // Reachable during accept bursts at the connection
                    // cap (evicted connections stay parked until their
                    // EOF is observed): shed, don't close silently.
                    state.shed_unserved(conn);
                }
            }
        }
        // Reap idle timeouts that the readiness pass above did not beat.
        let now = Instant::now();
        let expired: Vec<RawFd> = parked
            .iter()
            .filter(|(_, (_, deadline))| *deadline <= now)
            .map(|(fd, _)| *fd)
            .collect();
        for fd in expired {
            if let Some((conn, _)) = parked.remove(&fd) {
                let _ = poller.del(fd);
                state.counters.idle_reaped.fetch_add(1, Ordering::Relaxed);
                state.finish(conn.id);
            }
        }
    }
}

/// One I/O worker: serves ready connections off the queue, re-parking
/// the survivors. A panicking handler costs its own connection, never
/// the worker (the thread would die with the panic) nor the server (the
/// shared tables recover from the poisoned locks).
fn run_worker(
    state: &ServiceState,
    queue: &BoundedQueue<Work>,
    park_tx: &mpsc::Sender<Conn>,
    waker: &Waker,
) {
    while let Some(work) = queue.pop() {
        let conn_id = work.conn_id();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match work {
            Work::Ready(conn) => state.serve_ready(conn),
            Work::Admit(conn, pending) => state.serve_conn(conn, Some(pending)),
        }));
        match outcome {
            Ok(Some(conn)) => match park_tx.send(conn) {
                Ok(()) => waker.wake(),
                Err(mpsc::SendError(conn)) => state.finish(conn.id),
            },
            Ok(None) => {}
            Err(_) => {
                state.finish(conn_id);
                eprintln!("clb-conn-{conn_id}: handler panicked; connection dropped");
            }
        }
    }
}

/// A bound, not-yet-running analysis server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .finish()
    }
}

impl Server {
    /// Binds the listener (without accepting yet).
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] naming the field, before any
    /// bind, when `config.threads` or `config.io_workers` exceeds
    /// [`MAX_THREADS`]; otherwise propagates the bind failure (e.g. port
    /// already in use).
    pub fn bind(config: ServiceConfig) -> std::io::Result<Server> {
        for (field, n) in [
            ("threads", config.threads),
            ("io_workers", config.io_workers),
        ] {
            if n > MAX_THREADS {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("{field} = {n} exceeds the cap of {MAX_THREADS} threads"),
                ));
            }
        }
        let listener = TcpListener::bind((config.host, config.port))?;
        let server = Server {
            listener,
            state: Arc::new(ServiceState::new(config)),
            stop: Arc::new(AtomicBool::new(false)),
        };
        let _ = server.state.stopper.set(server.stop_handle());
        // Detached DSE job threads outlive request scope but must still
        // pump the gate wait room when their permit releases.
        let _ = server.state.self_ref.set(Arc::downgrade(&server.state));
        Ok(server)
    }

    /// The bound address (useful with ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket-name failure (effectively never).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    #[must_use]
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            stop: Arc::clone(&self.stop),
            addr: self.listener.local_addr().ok(),
        }
    }

    /// A handle onto this server's live counters ([`ServiceStats`]),
    /// usable even after shutdown — drain tests read `drain_aborted`
    /// through it once the server is gone.
    #[must_use]
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Runs the accept loop until [`StopHandle::stop`] is called, then
    /// drains: idle keep-alive connections are reaped immediately,
    /// in-flight requests finish (their responses carry
    /// `Connection: close`), and stragglers past
    /// [`ServiceConfig::drain_deadline`] are aborted.
    ///
    /// Accepted connections join the event tier (one poller thread plus
    /// a fixed I/O worker pool — an idle connection costs an fd, not a
    /// thread); concurrent *compute* is bounded by the [`Gate`], and
    /// total connections by [`ServiceConfig::max_connections`] with
    /// oldest-idle eviction.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop socket failures and event-tier startup
    /// failures (transient per-connection errors are tolerated).
    pub fn run(self) -> std::io::Result<()> {
        let connections = WaitGroup::new();
        let tier = EventTier::start(Arc::clone(&self.state))?;
        for connection in self.listener.incoming() {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            match connection {
                Ok(stream) => {
                    // Connection cap: evict the oldest idle connection, or
                    // shed when everyone is mid-request.
                    if self.state.table.len() >= self.state.config.max_connections.max(1) {
                        if self.state.table.evict_oldest_idle() {
                            self.state
                                .counters
                                .idle_reaped
                                .fetch_add(1, Ordering::Relaxed);
                        } else {
                            self.state.counters.shed.fetch_add(1, Ordering::Relaxed);
                            let mut writer = &stream;
                            let _ = Response::unavailable(
                                "connection limit reached; retry with backoff",
                                RETRY_AFTER_SECS,
                            )
                            .write_conn(&mut writer, false);
                            continue;
                        }
                    }
                    // The table needs its own socket handle to evict or
                    // abort the connection from outside the event tier; a
                    // connection we cannot control that way is not served.
                    let Ok(table_handle) = stream.try_clone() else {
                        continue;
                    };
                    let conn_id = self.state.table.register(table_handle);
                    // The socket timeouts are installed once, here: the
                    // idle phase is bounded by the poller's timer, so the
                    // read timeout can stay put for the connection's whole
                    // life. A connection whose protections cannot be
                    // installed is never served — proceeding without them
                    // would reopen the slowloris hole every knob above
                    // exists to close. Log the abort (status=0), hang up.
                    if let Err(e) = stream
                        .set_read_timeout(Some(self.state.config.read_timeout))
                        .and_then(|()| {
                            stream.set_write_timeout(Some(self.state.config.write_timeout))
                        })
                    {
                        self.state.log_request(
                            &PendingRequest::headless(Instant::now(), None),
                            0,
                            CacheOutcome::Uncached,
                            conn_id,
                            &LogTail::None,
                        );
                        eprintln!(
                            "clb-conn-{conn_id}: socket timeouts unavailable ({e}); \
                             closing unserved"
                        );
                        self.state.finish(conn_id);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    tier.park(Conn {
                        id: conn_id,
                        reader: BufReader::new(stream),
                        served: 0,
                        _guard: connections.enter(),
                    });
                }
                // Transient accept errors (e.g. the peer reset before we
                // got to it) should not kill the server.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {}
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
                Err(e) => {
                    self.drain(&connections);
                    tier.shutdown();
                    return Err(e);
                }
            }
        }
        self.drain(&connections);
        tier.shutdown();
        Ok(())
    }

    /// The graceful drain: reap idle connections, wait for in-flight
    /// requests up to the hard deadline, abort stragglers.
    fn drain(&self, connections: &Arc<WaitGroup>) {
        let reaped = self.state.table.begin_drain();
        self.state
            .counters
            .idle_reaped
            .fetch_add(reaped, Ordering::Relaxed);
        if !connections.wait_timeout(self.state.config.drain_deadline) {
            let aborted = self.state.table.abort_all();
            self.state
                .counters
                .drain_aborted
                .fetch_add(aborted, Ordering::Relaxed);
            // Aborted sockets unblock their threads almost instantly; a
            // short grace keeps the exit orderly without re-opening an
            // unbounded wait.
            let _ = connections.wait_timeout(Duration::from_secs(1));
        }
    }

    /// Binds-and-runs on a background thread, returning once the socket is
    /// accepting. The returned handle stops the server and joins the
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(config: ServiceConfig) -> std::io::Result<RunningServer> {
        let server = Server::bind(config)?;
        let addr = server.local_addr()?;
        let handle = server.stop_handle();
        let stats = server.stats_handle();
        let thread = std::thread::Builder::new()
            .name("clb-accept".to_string())
            .spawn(move || server.run())?;
        Ok(RunningServer {
            addr,
            handle,
            stats,
            thread,
        })
    }
}

/// Stops a running server from any thread.
#[derive(Debug, Clone)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    addr: Option<SocketAddr>,
}

impl StopHandle {
    /// Signals the accept loop to exit, waking it with a no-op connection.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(addr) = self.addr {
            // `accept` only notices the flag when a connection arrives.
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ = s.flush();
            }
        }
    }
}

/// Reads a server's live [`ServiceStats`] without going over HTTP — kept
/// alive by `Arc`, so it keeps working after the server shuts down (the
/// only way to observe `drain_aborted`, which is counted while the HTTP
/// surface is already draining).
#[derive(Clone)]
pub struct StatsHandle {
    state: Arc<ServiceState>,
}

impl std::fmt::Debug for StatsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsHandle").finish()
    }
}

impl StatsHandle {
    /// A point-in-time snapshot of the service counters.
    #[must_use]
    pub fn snapshot(&self) -> ServiceStats {
        self.state.service_stats()
    }
}

/// A server running on a background thread (see [`Server::spawn`]).
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    handle: StopHandle,
    stats: StatsHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl RunningServer {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A counters handle that stays valid after [`shutdown`].
    ///
    /// [`shutdown`]: RunningServer::shutdown
    #[must_use]
    pub fn stats_handle(&self) -> StatsHandle {
        self.stats.clone()
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests (hard
    /// deadline per [`ServiceConfig::drain_deadline`]), join the thread.
    ///
    /// # Errors
    ///
    /// Propagates an accept-loop failure (a panic surfaces as
    /// [`std::io::ErrorKind::Other`]).
    pub fn shutdown(self) -> std::io::Result<()> {
        self.handle.stop();
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poisons `mutex` the way a panicking request handler would: a
    /// thread takes the guard and dies with it held.
    fn poison<T: Send + Sync + 'static>(mutex: &Arc<T>, lock: impl Fn(&T) + Send + 'static) {
        let mutex = Arc::clone(mutex);
        let poisoner = std::thread::spawn(move || lock(&mutex));
        assert!(poisoner.join().is_err(), "the poisoner must panic");
    }

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn default_threads_follow_the_pool_budget() {
        let state = ServiceState::new(ServiceConfig::default());
        assert_eq!(state.gate.permits(), rayon::current_num_threads());
    }

    /// An embedder's over-cap thread count is refused by field name before
    /// the bind, so no listener and no thread is ever started with it.
    #[test]
    fn bind_refuses_thread_counts_above_the_cap() {
        for field in ["threads", "io_workers"] {
            let mut config = ServiceConfig::default();
            match field {
                "threads" => config.threads = MAX_THREADS + 1,
                _ => config.io_workers = MAX_THREADS + 1,
            }
            let Err(err) = Server::bind(config) else {
                panic!("an over-cap {field} was bound");
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert_eq!(
                err.to_string(),
                format!(
                    "{field} = {} exceeds the cap of {MAX_THREADS} threads",
                    MAX_THREADS + 1
                )
            );
        }
    }

    /// The poisoned-lock regression: before lock recovery, one panicking
    /// handler poisoned the connection table and every subsequent
    /// register/mark/evict call died with "conn table poisoned" —
    /// killing all future connections. Now the table keeps working.
    #[test]
    fn conn_table_survives_a_poisoned_lock() {
        let table = Arc::new(ConnTable::default());
        poison(&table, |table: &ConnTable| {
            let _guard = table.entries.lock().unwrap();
            panic!("handler panicked while holding the conn table");
        });
        assert!(
            table.entries.lock().is_err(),
            "the lock must actually be poisoned for this test to bite"
        );

        let (_client, server) = socket_pair();
        let id = table.register(server);
        assert_eq!(table.len(), 1);
        assert!(table.mark_busy(id));
        assert!(table.mark_idle(id));
        assert!(table.evict_oldest_idle());
        assert_eq!(table.len(), 0);
        assert_eq!(table.begin_drain(), 0);
        assert_eq!(table.abort_all(), 0);
    }

    /// `Route` variants index `LATENCY_ROUTES`: each label maps back to its
    /// own variant, and only a path under `/v1/dse/jobs/` is a job poll.
    #[test]
    fn routes_follow_the_latency_label_table() {
        for (i, &route) in Route::ALL.iter().enumerate() {
            assert_eq!(route as usize, i);
            let label = LATENCY_ROUTES[i];
            let expected = if route == Route::DseJob {
                Route::Other
            } else {
                route
            };
            assert_eq!(Route::of(label), expected, "{label}");
        }
        assert_eq!(Route::of("/v1/dse/jobs/0123abcd"), Route::DseJob);
        assert_eq!(Route::of("/v1/dse/jobsX"), Route::Other);
        assert_eq!(Route::of("-"), Route::Other);
    }

    /// Same regression for the DSE job table: a poisoned lock must not
    /// take down job submission, completion, or polling.
    #[test]
    fn job_table_survives_a_poisoned_lock() {
        let jobs = Arc::new(JobTable::default());
        poison(&jobs, |jobs: &JobTable| {
            let _guard = jobs.entries.lock().unwrap();
            panic!("handler panicked while holding the job table");
        });
        assert!(jobs.entries.lock().is_err());

        assert!(matches!(jobs.begin("job-a"), JobAdmission::New { .. }));
        assert!(matches!(jobs.begin("job-a"), JobAdmission::Existing));
        jobs.complete("job-a", Response::json(200, "{}".to_string()));
        let polled = jobs.poll("job-a").expect("completed job must poll");
        assert_eq!(polled.status, 200);
        assert!(jobs.poll("job-b").is_none());
    }
}
