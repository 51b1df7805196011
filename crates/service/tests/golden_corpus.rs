//! The golden end-to-end regression corpus: canonical request/response
//! fixture pairs for every `/v1/*` endpoint on the five Table I presets,
//! checked in under `tests/golden/` and replayed **byte-for-byte** — any
//! wire-format drift (a renamed field, a reordered key, a reformatted
//! float, a changed status code) fails tier-1 instead of being discovered
//! by a production client.
//!
//! Every fixture is replayed two ways in one test:
//!
//! 1. through the pure handlers ([`api::dispatch`]), pinning the handler
//!    layer itself, and
//! 2. over real TCP against a spawned server, pinning the full wire path
//!    (HTTP parsing, canonicalization, caching, serialization).
//!
//! `GET /v1/cache_stats` carries live counters, so its fixture pins the
//! *shape* (the exact key tree with values replaced by their JSON types)
//! rather than bytes.
//!
//! Regenerate the corpus after an intentional format change with
//!
//! ```text
//! CLB_GOLDEN_BLESS=1 cargo test -p clb-service --test golden_corpus
//! ```
//!
//! and review the fixture diff like any other code change. See
//! `docs/TESTING.md`.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;

use accel_sim::ArchConfig;
use clb_service::{api, Server, ServiceConfig};
use serde::{Serialize, Value};

/// One corpus entry, as listed in `tests/golden/manifest.txt`
/// (`case method path status`, space-separated, one per line).
struct Fixture {
    case: String,
    method: String,
    path: String,
    status: u16,
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn read_fixture_file(name: &str) -> String {
    let path = golden_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {} ({e}); bless the corpus", name))
}

fn manifest() -> Vec<Fixture> {
    read_fixture_file("manifest.txt")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut parts = line.split_whitespace();
            let fixture = Fixture {
                case: parts.next().expect("manifest case").to_string(),
                method: parts.next().expect("manifest method").to_string(),
                path: parts.next().expect("manifest path").to_string(),
                status: parts.next().expect("manifest status").parse().unwrap(),
            };
            assert!(parts.next().is_none(), "manifest line has 4 fields: {line}");
            fixture
        })
        .collect()
}

/// The request value's JSON tree with every scalar replaced by its type
/// name — the byte-stable "shape" used for the live-counter endpoint.
fn shape_of(v: &Value) -> Value {
    match v {
        Value::Null => Value::String("null".to_string()),
        Value::Bool(_) => Value::String("bool".to_string()),
        Value::Number(_) => Value::String("number".to_string()),
        Value::String(_) => Value::String("string".to_string()),
        Value::Array(items) => Value::Array(items.iter().map(shape_of).collect()),
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .map(|(k, field)| (k.clone(), shape_of(field)))
                .collect(),
        ),
    }
}

/// Byte-for-byte comparison, as a `Result` so the corruption meta-test can
/// assert the failure path without a panic.
fn verify_bytes(case: &str, what: &str, expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let diverge = expected
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "golden fixture `{case}` drifted ({what}): first divergence at byte {diverge}\n\
         expected: {:?}\n\
         got:      {:?}",
        &expected[diverge.saturating_sub(40)..(diverge + 40).min(expected.len())],
        &got[diverge.saturating_sub(40)..(diverge + 40).min(got.len())],
    ))
}

/// A minimal HTTP/1.1 client: one request, returns (status, body).
fn wire_request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("well-formed response");
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

// ---------------------------------------------------------------------
// Corpus definition (used only when blessing): the canonical requests.
// ---------------------------------------------------------------------

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

/// A mid-size layer every preset plans quickly in debug builds.
fn small_layer() -> Vec<(&'static str, Value)> {
    vec![
        ("co", num(32.0)),
        ("size", num(14.0)),
        ("ci", num(16.0)),
        ("batch", num(2.0)),
    ]
}

/// VGG-16 conv4_1 at the paper's batch 3 — bounds are closed-form, so the
/// big layer costs nothing.
fn conv4_1() -> Vec<(&'static str, Value)> {
    vec![
        ("co", num(512.0)),
        ("size", num(28.0)),
        ("ci", num(256.0)),
        ("batch", num(3.0)),
    ]
}

/// Each preset expressed as a full `arch` object (every field explicit), so
/// `/v1/dse` fixtures sweep exactly the five Table I implementations.
fn preset_archs() -> Vec<Value> {
    (1..=5)
        .map(|i| Serialize::to_value(&ArchConfig::implementation(i)))
        .collect()
}

/// The canonical corpus: `(case, method, path, request)`. Presets appear as
/// `implem` indices (plan/simulate/network), as their derived effective
/// memory (bound/sweep, which take a memory size), and as explicit `arch`
/// candidates (both `/v1/dse` modes).
fn corpus() -> Vec<(String, &'static str, &'static str, Option<Value>)> {
    let mut entries: Vec<(String, &'static str, &'static str, Option<Value>)> = Vec::new();
    for i in 1..=5usize {
        let mem_kib = ArchConfig::implementation(i).effective_onchip_bytes() as f64 / 1024.0;
        let mut bound = conv4_1();
        bound.push(("mem_kib", num(mem_kib)));
        entries.push((
            format!("bound_implem{i}"),
            "POST",
            "/v1/bound",
            Some(obj(bound)),
        ));
        let mut sweep = small_layer();
        sweep.push(("mem_kib", num(mem_kib)));
        entries.push((
            format!("sweep_implem{i}"),
            "POST",
            "/v1/sweep",
            Some(obj(sweep)),
        ));
        let mut plan = small_layer();
        plan.push(("implem", num(i as f64)));
        entries.push((
            format!("plan_implem{i}"),
            "POST",
            "/v1/plan",
            Some(obj(plan)),
        ));
        let mut simulate = small_layer();
        simulate.push(("implem", num(i as f64)));
        simulate.push((
            "tiling",
            obj(vec![
                ("b", num(1.0)),
                ("z", num(8.0)),
                ("y", num(7.0)),
                ("x", num(7.0)),
            ]),
        ));
        entries.push((
            format!("simulate_implem{i}"),
            "POST",
            "/v1/simulate",
            Some(obj(simulate)),
        ));
        entries.push((
            format!("network_implem{i}"),
            "POST",
            "/v1/network",
            Some(obj(vec![
                ("net", Value::String("alexnet".to_string())),
                ("batch", num(1.0)),
                ("implem", num(i as f64)),
            ])),
        ));
    }
    let mut dse_layer = small_layer();
    dse_layer.push(("candidates", Value::Array(preset_archs())));
    entries.push((
        "dse_layer_presets".to_string(),
        "POST",
        "/v1/dse",
        Some(obj(dse_layer)),
    ));
    entries.push((
        "dse_network_presets".to_string(),
        "POST",
        "/v1/dse",
        Some(obj(vec![
            (
                "target",
                obj(vec![
                    ("network", Value::String("alexnet".to_string())),
                    ("batch", num(1.0)),
                ]),
            ),
            ("candidates", Value::Array(preset_archs())),
        ])),
    ));
    // Staged sweeps: pin the bound-pruned, objective-ranked `/v1/dse`
    // wire formats — a layer-mode energy ranking, a network-mode Pareto
    // frontier, and a job-mode acceptance (whose id is a deterministic
    // hash of the canonical body, hence byte-stable).
    let mut dse_energy = small_layer();
    dse_energy.push(("candidates", Value::Array(preset_archs())));
    dse_energy.push(("objective", Value::String("energy".to_string())));
    dse_energy.push(("top_k", num(3.0)));
    entries.push((
        "dse_layer_objective".to_string(),
        "POST",
        "/v1/dse",
        Some(obj(dse_energy)),
    ));
    entries.push((
        "dse_network_objective".to_string(),
        "POST",
        "/v1/dse",
        Some(obj(vec![
            (
                "target",
                obj(vec![
                    ("network", Value::String("alexnet".to_string())),
                    ("batch", num(1.0)),
                ]),
            ),
            ("candidates", Value::Array(preset_archs())),
            ("objective", Value::String("pareto".to_string())),
            ("top_k", num(2.0)),
        ])),
    ));
    let mut dse_job = small_layer();
    dse_job.push(("candidates", Value::Array(preset_archs())));
    dse_job.push(("stream", Value::String("job".to_string())));
    entries.push((
        "dse_layer_job".to_string(),
        "POST",
        "/v1/dse",
        Some(obj(dse_job)),
    ));
    // Execution traces: pin the trace wire formats byte-for-byte — an
    // expanded JSON trace and a VCD waveform on `/v1/simulate`, and a
    // compact (class-only) JSON trace on `/v1/plan`, all on implem 1.
    let tiling = || {
        obj(vec![
            ("b", num(1.0)),
            ("z", num(8.0)),
            ("y", num(7.0)),
            ("x", num(7.0)),
        ])
    };
    let mut trace_json = small_layer();
    trace_json.push(("implem", num(1.0)));
    trace_json.push(("tiling", tiling()));
    trace_json.push(("trace", obj(vec![("expand", Value::Bool(true))])));
    entries.push((
        "simulate_trace_json".to_string(),
        "POST",
        "/v1/simulate",
        Some(obj(trace_json)),
    ));
    let mut trace_vcd = small_layer();
    trace_vcd.push(("implem", num(1.0)));
    trace_vcd.push(("tiling", tiling()));
    trace_vcd.push((
        "trace",
        obj(vec![("format", Value::String("vcd".to_string()))]),
    ));
    entries.push((
        "simulate_trace_vcd".to_string(),
        "POST",
        "/v1/simulate",
        Some(obj(trace_vcd)),
    ));
    let mut plan_trace = small_layer();
    plan_trace.push(("implem", num(1.0)));
    plan_trace.push(("trace", obj(vec![])));
    entries.push((
        "plan_trace_json".to_string(),
        "POST",
        "/v1/plan",
        Some(obj(plan_trace)),
    ));
    // Custom networks: a small two-layer object (200), the same object
    // pushed over the MAC cap (422 — bless records the actual status), and
    // the two presets the vocabulary grew.
    let custom_layer = |co: f64, ci: f64, size: f64| {
        obj(vec![
            ("co", num(co)),
            ("ci", num(ci)),
            ("size", num(size)),
            ("kernel", num(3.0)),
            ("stride", num(1.0)),
        ])
    };
    entries.push((
        "network_custom".to_string(),
        "POST",
        "/v1/network",
        Some(obj(vec![(
            "net",
            obj(vec![
                ("name", Value::String("tiny-2".to_string())),
                ("batch", num(1.0)),
                (
                    "layers",
                    Value::Array(vec![
                        custom_layer(8.0, 3.0, 14.0),
                        custom_layer(16.0, 8.0, 14.0),
                    ]),
                ),
            ]),
        )])),
    ));
    entries.push((
        "network_custom_overcap".to_string(),
        "POST",
        "/v1/network",
        Some(obj(vec![(
            "net",
            obj(vec![
                ("batch", num(64.0)),
                (
                    "layers",
                    Value::Array(
                        (0..64)
                            .map(|_| custom_layer(4096.0, 4096.0, 128.0))
                            .collect(),
                    ),
                ),
            ]),
        )])),
    ));
    for preset in ["inception", "fc"] {
        entries.push((
            format!("network_{preset}"),
            "POST",
            "/v1/network",
            Some(obj(vec![
                ("net", Value::String(preset.to_string())),
                ("batch", num(1.0)),
            ])),
        ));
    }
    entries.push(("cache_stats".to_string(), "GET", "/v1/cache_stats", None));
    entries
}

fn bless() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    let server = Server::spawn(ServiceConfig::default()).expect("bind an ephemeral port");
    let mut manifest_lines = Vec::new();
    for (case, method, path, request) in corpus() {
        let (status, resp) = match &request {
            Some(req) => {
                let body = serde_json::to_string_pretty(req).unwrap();
                std::fs::write(dir.join(format!("{case}.req.json")), &body)
                    .expect("write request fixture");
                let response = api::dispatch(path, req);
                (response.status, response.body)
            }
            None => {
                // Live-counter endpoint: bless the shape, not the bytes.
                let (status, body) = wire_request(server.addr(), method, path, "");
                let parsed: Value = serde_json::from_str(&body).unwrap();
                (
                    status,
                    serde_json::to_string_pretty(&shape_of(&parsed)).unwrap(),
                )
            }
        };
        std::fs::write(dir.join(format!("{case}.resp.json")), &resp)
            .expect("write response fixture");
        manifest_lines.push(format!("{case} {method} {path} {status}"));
    }
    std::fs::write(dir.join("manifest.txt"), manifest_lines.join("\n") + "\n")
        .expect("write manifest");
    server.shutdown().unwrap();
    eprintln!("blessed {} golden fixtures", manifest_lines.len());
}

/// Replays one fixture through the pure handler and over the wire.
fn replay(fixture: &Fixture, addr: std::net::SocketAddr) -> Result<(), String> {
    let expected = read_fixture_file(&format!("{}.resp.json", fixture.case));
    if fixture.method == "GET" {
        let (status, body) = wire_request(addr, &fixture.method, &fixture.path, "");
        if status != fixture.status {
            return Err(format!(
                "golden fixture `{}`: live status {status}, expected {}",
                fixture.case, fixture.status
            ));
        }
        let parsed: Value = serde_json::from_str(&body)
            .map_err(|e| format!("golden fixture `{}`: unparsable body: {e}", fixture.case))?;
        let shape = serde_json::to_string_pretty(&shape_of(&parsed)).unwrap();
        return verify_bytes(&fixture.case, "live shape", &expected, &shape);
    }
    let request_body = read_fixture_file(&format!("{}.req.json", fixture.case));
    let request: Value = serde_json::from_str(&request_body).expect("request fixture parses");

    // 1. The pure handler layer.
    let response = api::dispatch(&fixture.path, &request);
    if response.status != fixture.status {
        return Err(format!(
            "golden fixture `{}`: handler status {}, expected {}",
            fixture.case, response.status, fixture.status
        ));
    }
    verify_bytes(&fixture.case, "pure handler", &expected, &response.body)?;

    // 2. The full wire path against the live server.
    let (status, body) = wire_request(addr, &fixture.method, &fixture.path, &request_body);
    if status != fixture.status {
        return Err(format!(
            "golden fixture `{}`: live status {status}, expected {}",
            fixture.case, fixture.status
        ));
    }
    verify_bytes(&fixture.case, "live server", &expected, &body)
}

fn blessing() -> bool {
    std::env::var("CLB_GOLDEN_BLESS").is_ok_and(|v| v == "1" || v == "true")
}

#[test]
fn golden_corpus_replays_byte_for_byte() {
    if blessing() {
        bless();
        return;
    }
    let fixtures = manifest();
    // Coverage guard: the corpus must keep covering the whole wire surface
    // on all five presets — deleting fixtures is drift too.
    let paths: std::collections::BTreeSet<&str> =
        fixtures.iter().map(|f| f.path.as_str()).collect();
    for endpoint in [
        "/v1/bound",
        "/v1/sweep",
        "/v1/plan",
        "/v1/simulate",
        "/v1/network",
        "/v1/dse",
        "/v1/cache_stats",
    ] {
        assert!(
            paths.contains(endpoint),
            "corpus lost coverage of {endpoint}"
        );
    }
    for prefix in ["bound", "sweep", "plan", "simulate", "network"] {
        for i in 1..=5 {
            let case = format!("{prefix}_implem{i}");
            assert!(
                fixtures.iter().any(|f| f.case == case),
                "corpus lost preset coverage: {case}"
            );
        }
    }
    for case in [
        "dse_layer_presets",
        "dse_network_presets",
        "dse_layer_objective",
        "dse_network_objective",
        "dse_layer_job",
    ] {
        assert!(
            fixtures.iter().any(|f| f.case == case),
            "corpus lost DSE coverage: {case}"
        );
    }
    for case in [
        "simulate_trace_json",
        "simulate_trace_vcd",
        "plan_trace_json",
    ] {
        assert!(
            fixtures.iter().any(|f| f.case == case),
            "corpus lost trace coverage: {case}"
        );
    }

    let server = Server::spawn(ServiceConfig::default()).expect("bind an ephemeral port");
    let mut failures = Vec::new();
    for fixture in &fixtures {
        if let Err(e) = replay(fixture, server.addr()) {
            failures.push(e);
        }
    }
    server.shutdown().unwrap();
    assert!(
        failures.is_empty(),
        "{} of {} golden fixtures drifted:\n{}",
        failures.len(),
        fixtures.len(),
        failures.join("\n")
    );
}

/// Satellite pin: the load-shed `503` wire rendering — status line,
/// `Retry-After` header, connection handling and body — golden-pinned in
/// both connection modes so the retry contract cannot drift silently.
/// (A *live* saturated-gate 503 is asserted in `connection_lifecycle.rs`;
/// this pins the exact bytes, which saturation cannot do deterministically.)
#[test]
fn shed_503_wire_rendering_is_pinned() {
    use clb_service::{Response, RETRY_AFTER_SECS};
    let shed = Response::unavailable("server is saturated; retry with backoff", RETRY_AFTER_SECS);
    let rendered = format!(
        "=== keep-alive ===\n{}\n=== close ===\n{}",
        shed.render(true),
        shed.render(false)
    );
    if blessing() {
        std::fs::write(golden_dir().join("shed_503.http"), &rendered).unwrap();
        return;
    }
    let expected = read_fixture_file("shed_503.http");
    verify_bytes("shed_503", "rendered wire bytes", &expected, &rendered).unwrap();
    // The contract itself, independent of fixture bytes: every shed names
    // its retry hint in both the header and the JSON body.
    assert!(rendered.contains(&format!("Retry-After: {RETRY_AFTER_SECS}\r\n")));
    assert!(rendered.contains("\"retry_after_seconds\""));
}

/// Satellite pin: the chunked-transport `/v1/dse` payload — every frontier
/// snapshot line plus the final body, exactly as the server frames them
/// into `Transfer-Encoding: chunked` — golden-pinned through the pure
/// [`api::dse_stream_chunks`] helper (the wire framing around these bytes
/// is covered by the integration tests; the chunk *contents* are what a
/// streaming client parses). The final chunk must equal the synchronous
/// staged response for the same request, by construction and by pin.
#[test]
fn streamed_dse_chunks_are_pinned() {
    let mut request = small_layer();
    request.push(("candidates", Value::Array(preset_archs())));
    request.push(("objective", Value::String("cycles".to_string())));
    request.push(("top_k", num(3.0)));
    request.push(("stream", Value::Bool(true)));
    let request = obj(request);
    let chunks = api::dse_stream_chunks(&request).expect("streamed sweep succeeds");
    assert!(
        chunks.len() >= 2,
        "a 5-candidate sweep must emit at least one snapshot and the final body"
    );
    let rendered = chunks.join("");
    if blessing() {
        std::fs::write(golden_dir().join("dse_stream_chunks.txt"), &rendered).unwrap();
        return;
    }
    let expected = read_fixture_file("dse_stream_chunks.txt");
    verify_bytes("dse_stream_chunks", "chunk payload", &expected, &rendered).unwrap();
    // The transport contract, independent of fixture bytes: the last chunk
    // is byte-identical to the synchronous response for the same sweep.
    let mut sync_request = request.clone();
    if let Value::Object(fields) = &mut sync_request {
        for (k, v) in fields.iter_mut() {
            if k == "stream" {
                *v = Value::Bool(false);
            }
        }
    }
    let sync = api::dispatch("/v1/dse", &sync_request);
    assert_eq!(sync.status, 200);
    assert_eq!(
        chunks.last().unwrap(),
        &sync.body,
        "final streamed chunk must equal the synchronous staged body"
    );
    // And every snapshot line before it is single-line JSON with the
    // funnel fields.
    for line in &chunks[..chunks.len() - 1] {
        assert!(line.ends_with('\n'), "snapshot lines are newline-framed");
        let parsed: Value = serde_json::from_str(line.trim_end()).expect("snapshot parses");
        for field in ["processed", "pruned", "kept", "frontier"] {
            assert!(
                matches!(&parsed, Value::Object(fields) if fields.iter().any(|(k, _)| k == field)),
                "snapshot line missing `{field}`: {line}"
            );
        }
    }
}

#[test]
fn corrupted_fixture_fails_the_replay() {
    if blessing() {
        return; // fixtures are being rewritten concurrently
    }
    // The corpus only protects anyone if a drifted byte actually fails the
    // suite: corrupt one response in memory and check the comparison trips.
    let fixtures = manifest();
    let post = fixtures
        .iter()
        .find(|f| f.method == "POST")
        .expect("corpus has POST fixtures");
    let pristine = read_fixture_file(&format!("{}.resp.json", post.case));
    let corrupted = pristine.replacen('1', "2", 1);
    assert_ne!(pristine, corrupted, "corruption must change a byte");
    let err = verify_bytes(&post.case, "corruption check", &pristine, &corrupted)
        .expect_err("a corrupted fixture must fail byte comparison");
    assert!(err.contains("drifted"), "{err}");
}
