//! `perfbench` — the repository benchmark. Runs the real `clb serve
//! --port 0 --threads 2` as a child process and drives it over loopback
//! with a closed loop on two keep-alive connections (the service's callers
//! are scripts and sweep drivers that each wait for their reply).
//!
//! ```text
//! perfbench --clb target/release/clb --workload warm_hits --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times the workload with tracing off for `--seconds`, cuts
//! the window into slices of a fixed number of completed requests, scales
//! each slice to the reference host speed the [`probe`] measures, and
//! reports the end-to-end metrics as medians over the slices. `--trace 1`
//! sends the workload's first requests (a fixed count), replays each one
//! in this process layer by layer, and reports the per-layer metrics. Either way every response is
//! checked against the in-process `api::dispatch` of its body (a seeded
//! sample on the cold workloads) and the counters that have an exactly
//! known value are checked; any mismatch exits non-zero. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod probe;
mod process;
mod replay;
mod report;
mod stats;
mod workload;

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use serde::Value;

use crate::probe::{Probe, PROBE_EVERY};
use crate::process::{Conn, Server, SERVER_THREADS};
use crate::replay::Replayer;
use crate::report::{Metric, Traced, Window};
use crate::stats::{median_or_zero, quantile, share, Slice};
use crate::workload::{Generator, Request, Workload};

/// Closed-loop clients, one keep-alive connection each.
const CONNECTIONS: usize = 2;

/// Servers started per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

/// Wall-clock cap on the traced run's fixed request count.
const TRACED_CAP: Duration = Duration::from_secs(100);

/// Consecutive transport errors after which a client stops sending.
const MAX_CONSECUTIVE_ERRORS: u32 = 50;

struct Args {
    clb: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --clb <path to clb> --workload \
    warm_hits|cold_layers|network_ingest|dse_sweeps --seed <n> --seconds <n> --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(&flag[2..], value);
            }
            _ => return Err(format!("malformed arguments {raw:?}")),
        }
    }
    let take = |name: &str| flags.get(name).copied().ok_or(format!("missing --{name}"));
    let number = |name: &str| -> Result<u64, String> {
        take(name)?.parse().map_err(|e| format!("--{name}: {e}"))
    };
    let workload = take("workload")?;
    Ok(Args {
        clb: PathBuf::from(take("clb")?),
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: number("seed")?,
        seconds: number("seconds")?.max(1),
        trace: match take("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The replay and the correctness check fan out like the server does.
    rayon::ThreadPoolBuilder::new()
        .num_threads(SERVER_THREADS)
        .build_global()
        .expect("the rayon shim's global configuration cannot fail");
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Request-level outcome of one client, merged over both.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    ok: u64,
    transport_errors: u64,
    shed: u64,
    bad_status: u64,
    mismatched: u64,
    plan_bodies: u64,
    /// `(completion, latency)` of every answered request, in ns; the
    /// completion is measured from the start of the window.
    samples: Vec<(u64, u64)>,
    /// The first response body of every checked request.
    checked: HashMap<Request, String>,
    traced: Vec<Traced>,
    wall: Duration,
}

impl Outcome {
    fn failed(&self) -> u64 {
        self.transport_errors + self.shed + self.bad_status + self.mismatched
    }

    fn check(&mut self, request: Cow<'_, Request>, body: &str) {
        match self.checked.get(&*request) {
            Some(first) => self.mismatched += u64::from(first != body),
            None => {
                self.checked.insert(request.into_owned(), body.to_string());
            }
        }
    }

    fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.transport_errors += other.transport_errors;
        self.shed += other.shed;
        self.bad_status += other.bad_status;
        self.mismatched += other.mismatched;
        self.plan_bodies += other.plan_bodies;
        self.samples.extend(other.samples);
        self.traced.extend(other.traced);
        for (request, body) in other.checked {
            self.check(Cow::Owned(request), &body);
        }
    }
}

/// How a window is measured.
#[derive(Clone, Copy)]
enum Mode {
    /// Timed run: this long.
    Timed(Duration),
    /// Traced run: this many requests, or until [`TRACED_CAP`].
    Traced(u64),
}

/// What the clients of one window share.
struct Shared<'a> {
    /// When the window started.
    origin: Instant,
    server: &'a Server,
    generator: &'a Generator,
    replayer: Option<&'a Replayer>,
    /// The next request index to send.
    next: AtomicU64,
    /// Set when the window ends.
    stop: AtomicBool,
    /// Traced runs: the request count.
    limit: Option<u64>,
    /// Answered requests so far.
    answered: AtomicU64,
    /// After this many answers the server's `VmHWM` is read into `rss_kib`.
    rss_after: u64,
    rss_kib: AtomicU64,
}

/// One closed-loop client: next index, request, wait, repeat.
fn client(shared: &Shared<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut conn: Option<Conn> = None;
    let mut consecutive_errors = 0;
    while !shared.stop.load(Ordering::Relaxed) {
        let index = shared.next.fetch_add(1, Ordering::Relaxed);
        if shared.limit.is_some_and(|count| index >= count) {
            break;
        }
        let request = shared.generator.request(index);
        let wire = request.wire();
        out.attempted += 1;
        let result = match conn.as_mut() {
            Some(c) => Ok(c),
            None => Conn::connect(shared.server.addr()).map(|c| conn.insert(c)),
        }
        .and_then(|c| {
            let started = Instant::now();
            c.round_trip(&wire).map(|r| (r, started.elapsed()))
        });
        let (response, round_trip) = match result {
            Ok(answer) => answer,
            Err(_) => {
                out.transport_errors += 1;
                consecutive_errors += 1;
                if consecutive_errors >= MAX_CONSECUTIVE_ERRORS {
                    break; // the server is gone; the errors already fail the run
                }
                conn = None;
                continue;
            }
        };
        consecutive_errors = 0;
        if !response.keeps_alive() {
            conn = None; // the keep-alive budget is spent: reconnect
        }
        match response.status {
            200 => {}
            503 => {
                out.shed += 1;
                continue;
            }
            _ => {
                out.bad_status += 1;
                continue;
            }
        }
        out.ok += 1;
        out.samples
            .push((nanos(shared.origin.elapsed()), nanos(round_trip)));
        if shared.answered.fetch_add(1, Ordering::Relaxed) + 1 == shared.rss_after {
            if let Ok(sample) = shared.server.proc_sample() {
                shared.rss_kib.store(sample.peak_rss_kib, Ordering::Relaxed);
            }
        }
        out.plan_bodies += u64::from(request.path == "/v1/plan");
        if let Some(replayer) = shared.replayer {
            let replayed = replayer.replay(&request, &wire, &response)?;
            out.mismatched += u64::from(!replayed.matches);
            out.traced.push(Traced {
                round_trip_ns: nanos(round_trip),
                body_bytes: request.body.len(),
                response_bytes: response.body.len(),
                replayed,
            });
        }
        if shared.generator.sampled(index) {
            out.check(request, &response.body);
        }
    }
    Ok(out)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A measured window: the merged client outcomes, the host-speed probes
/// taken during it, and the server's `VmHWM` after the workload's fixed
/// amount of work (`None` if the window ended first).
struct Measured {
    outcome: Outcome,
    probes: Vec<Probe>,
    rss_kib: Option<u64>,
}

/// Runs both clients for one window and merges their outcomes.
fn drive(
    server: &Server,
    generator: &Generator,
    mode: Mode,
    replayer: Option<&Replayer>,
    rss_after: u64,
) -> Result<Measured, String> {
    let shared = Shared {
        origin: Instant::now(),
        server,
        generator,
        replayer,
        next: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        limit: match mode {
            Mode::Timed(_) => None,
            Mode::Traced(count) => Some(count),
        },
        answered: AtomicU64::new(0),
        rss_after,
        rss_kib: AtomicU64::new(0),
    };
    let started = shared.origin;
    let running = AtomicUsize::new(CONNECTIONS);
    let mut probes = Vec::new();
    let outcomes: Vec<Result<Outcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let out = client(&shared);
                    running.fetch_sub(1, Ordering::Relaxed);
                    out
                })
            })
            .collect();
        // This thread probes the host while the clients run.
        loop {
            std::thread::sleep(PROBE_EVERY);
            probes.push(Probe {
                at: nanos(started.elapsed()),
                cpu_ns: probe::probe_ns(),
            });
            let done = match mode {
                Mode::Timed(seconds) => started.elapsed() >= seconds,
                Mode::Traced(_) => {
                    running.load(Ordering::Relaxed) == 0 || started.elapsed() >= TRACED_CAP
                }
            };
            if done {
                break;
            }
        }
        shared.stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect()
    });
    let mut outcome = Outcome::default();
    for client in outcomes {
        outcome.merge(client?);
    }
    outcome.wall = started.elapsed();
    let rss_kib = Some(shared.rss_kib.load(Ordering::Relaxed)).filter(|&kib| kib > 0);
    Ok(Measured {
        outcome,
        probes,
        rss_kib,
    })
}

/// Starts a server and answers every set-up body once, in order, on one
/// connection. Returns the server and the set-up responses.
fn set_up(
    args: &Args,
    generator: &Generator,
) -> Result<(Server, Vec<clb_service::WireResponse>, Duration), String> {
    let started = Instant::now();
    let server = Server::spawn(&args.clb)?;
    let healthy = started.elapsed();
    let mut conn: Option<Conn> = None;
    let mut responses = Vec::with_capacity(generator.setup().len());
    for request in generator.setup() {
        let c = match conn.as_mut() {
            Some(c) => c,
            None => conn.insert(Conn::connect(server.addr()).map_err(|e| e.to_string())?),
        };
        let response = c
            .round_trip(&request.wire())
            .map_err(|e| format!("set-up: {e}"))?;
        if response.status != 200 {
            return Err(format!(
                "set-up body on {} answered {}: {}",
                request.path, response.status, response.body
            ));
        }
        if !response.keeps_alive() {
            conn = None;
        }
        responses.push(response);
    }
    Ok((server, responses, healthy))
}

fn run(args: &Args) -> Result<bool, String> {
    let generator = Generator::new(args.workload, args.seed);
    // Each set-up is timed at the host speed probed just before and after.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut raw_setups = Vec::with_capacity(SETUP_REPEATS);
    let mut healthz = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((server, _)) = live.take() {
            Server::stop(server);
        }
        let before = probe::probe_ns();
        let started = Instant::now();
        let (server, responses, healthy) = set_up(args, &generator)?;
        let took = started.elapsed().as_secs_f64();
        let speed = probe::speed((before + probe::probe_ns()) as f64 / 2.0);
        setups.push(took * speed);
        raw_setups.push(took);
        healthz.push(healthy.as_secs_f64() * speed);
        live = Some((server, responses));
    }
    let (server, setup_responses) = live.expect("at least one set-up");

    let replayer = args.trace.then(Replayer::default);
    if let Some(replayer) = &replayer {
        // Mirror the set-up so the replay's caches match the server's.
        for (request, response) in generator.setup().iter().zip(&setup_responses) {
            let replayed = replayer.replay(request, &request.wire(), response)?;
            if !replayed.matches {
                return Err(format!(
                    "set-up replay differs from the server on {}",
                    request.path
                ));
            }
        }
    }

    let stats_before = server.cache_stats()?;
    let proc_before = server.proc_sample()?;
    let mode = if args.trace {
        Mode::Traced(args.workload.traced_requests())
    } else {
        Mode::Timed(Duration::from_secs(args.seconds))
    };
    let Measured {
        mut outcome,
        probes,
        rss_kib,
    } = drive(
        &server,
        &generator,
        mode,
        replayer.as_ref(),
        args.workload.rss_checkpoint(),
    )?;
    let proc_after = server.proc_sample()?;
    let stats_after = server.cache_stats()?;
    server.stop();
    let window = Window {
        stats_before,
        stats_after,
        proc_before,
        proc_after,
    };

    let mut problems = check_against_dispatch(&mut outcome)?;
    problems.extend(check_counters(args, &outcome, &window));
    let correct = problems.is_empty() && outcome.failed() == 0;

    let raw = stats::slices(&mut outcome.samples, args.workload.slice_requests());
    let speeds: Vec<f64> = raw
        .iter()
        .map(|s| probe::speed_during(&probes, s.start, s.end))
        .collect();
    let scaled: Vec<Slice> = raw.iter().zip(&speeds).map(|(s, &v)| s.scaled(v)).collect();
    let wall = outcome.wall.as_secs_f64();
    println!(
        "workload={} seed={} trace={} connections={CONNECTIONS} server_threads={SERVER_THREADS}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "attempted={} ok={} transport_errors={} shed={} bad_status={} mismatched={} checked_bodies={} wall_s={wall:.4}",
        outcome.attempted,
        outcome.ok,
        outcome.transport_errors,
        outcome.shed,
        outcome.bad_status,
        outcome.mismatched,
        outcome.checked.len(),
    );
    let quartiles = |values: &[f64]| -> String {
        let q: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&q| format!("{:.3}", quantile(values, q).unwrap_or(0.0)))
            .collect();
        q.join("|")
    };
    let raw_rates: Vec<f64> = raw.iter().map(|s| s.rate).collect();
    let scaled_rates: Vec<f64> = scaled.iter().map(|s| s.rate).collect();
    println!(
        "slices={} of {} requests, probes={}; min|q1|median|q3|max of slice req/s raw {} scaled {}, host speed {}",
        raw.len(),
        args.workload.slice_requests(),
        probes.len(),
        quartiles(&raw_rates),
        quartiles(&scaled_rates),
        quartiles(&speeds)
    );
    for problem in &problems {
        println!("CHECK FAILED: {problem}");
    }
    let rss_kib = rss_kib.unwrap_or(window.proc_after.peak_rss_kib);
    let requests = raw.len() * args.workload.slice_requests();
    let mut end_to_end = slice_metrics(
        &scaled,
        ["throughput_rps", "latency_p50_us", "latency_p90_us"],
        requests,
    );
    end_to_end.extend([
        Metric::new("setup_s", median_or_zero(&setups), "s", setups.len()),
        Metric::new("peak_rss_mib", rss_kib as f64 / 1024.0, "MiB", 1),
    ]);
    let mut as_measured = slice_metrics(
        &raw,
        [
            "raw.throughput_rps",
            "raw.latency_p50_us",
            "raw.latency_p90_us",
        ],
        requests,
    );
    as_measured.extend([
        Metric::new(
            "raw.setup_s",
            median_or_zero(&raw_setups),
            "s",
            SETUP_REPEATS,
        ),
        Metric::new("host.speed", median_or_zero(&speeds), "ratio", speeds.len()),
    ]);
    let failed_share = share(outcome.failed() as f64, outcome.attempted as f64);
    let failed_share = Metric::new("failed_share", failed_share, "ratio", outcome.attempted);
    let healthz_s = Metric::new(
        "setup.healthz_s",
        median_or_zero(&healthz),
        "s",
        healthz.len(),
    );
    let reported = if args.trace {
        let per_layer = report::per_layer(&outcome.traced, &window, outcome.ok);
        report::print_table(
            "end to end, traced (the difference from an untraced run is the tracing overhead)",
            &[end_to_end[0].clone(), end_to_end[1].clone(), failed_share],
        );
        report::print_table("as measured", &as_measured);
        report::print_table("per layer", &per_layer);
        per_layer
    } else {
        let mut table = end_to_end.clone();
        table.push(failed_share);
        table.push(healthz_s);
        report::print_table("end to end, at the reference host speed", &table);
        report::print_table("as measured", &as_measured);
        end_to_end
    };
    println!(
        "{}",
        report::result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed(),
            &reported
        )
    );
    Ok(correct)
}

/// Throughput, median and 90th-percentile latency of a window, each the
/// median over its slices, under the given names.
fn slice_metrics(slices: &[Slice], names: [&'static str; 3], requests: usize) -> Vec<Metric> {
    let median =
        |pick: fn(&Slice) -> f64| median_or_zero(&slices.iter().map(pick).collect::<Vec<_>>());
    vec![
        Metric::new(names[0], median(|s| s.rate), "req/s", requests),
        Metric::new(names[1], median(|s| s.p50), "us", requests),
        Metric::new(names[2], median(|s| s.p90), "us", requests),
    ]
}

/// Compares every checked response with the in-process `api::dispatch` of
/// the same body. Mismatches count as failed requests.
fn check_against_dispatch(outcome: &mut Outcome) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    for (request, served) in &outcome.checked {
        let value: Value = serde_json::from_str(&request.body).map_err(|e| e.to_string())?;
        let expected = clb_service::api::dispatch(request.path, &value);
        if expected.status != 200 || expected.body != *served {
            outcome.mismatched += 1;
            if problems.len() < 3 {
                let head: String = request.body.chars().take(120).collect();
                problems.push(format!(
                    "{} {head}… answered differently from api::dispatch",
                    request.path
                ));
            }
        }
    }
    Ok(problems)
}

/// The counters whose exact value the workload determines.
fn check_counters(args: &Args, outcome: &Outcome, window: &Window) -> Vec<String> {
    let mut problems = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            problems.push(format!("{what}: counted {got}, expected {want}"));
        }
    };
    let cached = window.service_delta(|s| s.responses_cached);
    match (args.workload, args.trace) {
        (Workload::WarmHits, _) => {
            expect("Δresponses_cached vs timed POSTs", cached, outcome.ok);
            expect("Δshed", window.service_delta(|s| s.shed), 0);
            expect("Δcoalesced", window.service_delta(|s| s.coalesced), 0);
        }
        (Workload::ColdLayers, _) => {
            let misses = window.stats_after.plan.misses - window.stats_before.plan.misses;
            expect(
                "Δplan misses vs distinct /v1/plan bodies",
                misses,
                outcome.plan_bodies,
            );
        }
        _ => {}
    }
    if args.trace {
        let mirrored = outcome.traced.iter().filter(|t| t.replayed.hit).count() as u64;
        expect("Δresponses_cached vs mirrored hits", cached, mirrored);
    }
    problems
}
