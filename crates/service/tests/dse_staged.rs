//! The staged `/v1/dse` surface end-to-end: hostile staged options get
//! typed errors, legacy requests stay byte-identical, the funnel accounting
//! holds on the wire, chunked streaming frames the exact sync body, and the
//! job mode runs a full accept → poll → retrieve lifecycle.
//!
//! The lossless-pruning invariant itself (staged frontier ≡ unpruned
//! oracle) is property-tested in `clb-core`'s `staged_dse_parity` suite;
//! this file pins the *service* contract wrapped around that engine.

use std::io::{Read, Write};
use std::net::TcpStream;

use accel_sim::ArchConfig;
use clb_service::{api, Server, ServiceConfig};
use serde::{Serialize, Value};

/// A minimal HTTP/1.1 client: one request, returns (status, raw head, body).
/// Sends `Connection: close` so `read_to_string` delimits the response; the
/// body is de-chunked when the server streamed it.
fn raw_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, String) {
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
    let (head, payload) = raw.split_once("\r\n\r\n").expect("well-formed response");
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    let body = if head.contains("Transfer-Encoding: chunked") {
        dechunk(payload)
    } else {
        payload.to_string()
    };
    (status, head.to_string(), body)
}

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = raw_request(addr, method, path, body);
    (status, body)
}

/// Reassembles a `Transfer-Encoding: chunked` payload, asserting correct
/// framing (hex sizes, CRLF separators, zero-length terminal chunk).
fn dechunk(payload: &str) -> String {
    let mut rest = payload;
    let mut out = String::new();
    loop {
        let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            assert!(
                tail == "\r\n" || tail.is_empty(),
                "terminal chunk must end the stream: {tail:?}"
            );
            return out;
        }
        out.push_str(&tail[..size]);
        assert_eq!(&tail[size..size + 2], "\r\n", "chunk data ends with CRLF");
        rest = &tail[size + 2..];
    }
}

fn preset_candidates() -> String {
    let archs: Vec<Value> = (1..=5)
        .map(|i| Serialize::to_value(&ArchConfig::implementation(i)))
        .collect();
    serde_json::to_string(&Value::Array(archs)).unwrap()
}

/// A small layer-mode request body with the given extra staged fields.
fn staged_body(extra: &str) -> String {
    let sep = if extra.is_empty() { "" } else { "," };
    format!(
        "{{\"co\":32,\"size\":14,\"ci\":16,\"batch\":2,\"candidates\":{}{sep}{extra}}}",
        preset_candidates()
    )
}

fn dispatch(body: &str) -> (u16, String) {
    let parsed: Value = serde_json::from_str(body).unwrap();
    let response = api::dispatch("/v1/dse", &parsed);
    (response.status, response.body)
}

#[test]
fn hostile_staged_options_get_typed_errors() {
    // (body fragment, expected status, expected message fragment)
    let cases: &[(&str, u16, &str)] = &[
        (
            "\"objective\":\"latency\"",
            422,
            "unknown objective `latency` (expected cycles, traffic, energy or pareto)",
        ),
        ("\"objective\":3", 400, "field `objective` must be a string"),
        (
            "\"objective\":[\"cycles\"]",
            400,
            "field `objective` must be a string",
        ),
        ("\"top_k\":0", 422, "top_k must be between 1 and 1024"),
        ("\"top_k\":1025", 422, "top_k must be between 1 and 1024"),
        ("\"top_k\":2.5", 400, "field `top_k`"),
        ("\"top_k\":\"three\"", 400, "field `top_k`"),
        (
            "\"stream\":\"firehose\"",
            422,
            "unknown stream mode `firehose` (expected chunked or job)",
        ),
        (
            "\"stream\":7",
            400,
            "field `stream` must be a bool or a string",
        ),
    ];
    let server = Server::spawn(ServiceConfig::default()).expect("bind an ephemeral port");
    for (extra, want_status, fragment) in cases {
        let body = staged_body(extra);
        // Pure handler and live wire must agree byte-for-byte on the error.
        let (status, pure) = dispatch(&body);
        assert_eq!(status, *want_status, "{extra}: {pure}");
        assert!(pure.contains(fragment), "{extra}: {pure}");
        let (status, wire) = request(server.addr(), "POST", "/v1/dse", &body);
        assert_eq!(status, *want_status, "{extra}: {wire}");
        assert_eq!(wire, pure, "{extra}: wire error must match the handler");
    }
    server.shutdown().unwrap();
}

#[test]
fn unknown_top_level_keys_are_400_naming_the_key() {
    // Nearly every field is optional, so each typo would otherwise pass
    // unnoticed: `objectve` would return the legacy shape under the 256
    // cap, `strid` would sweep stride 1.
    let server = Server::spawn(ServiceConfig::default()).expect("bind an ephemeral port");
    for (extra, key) in [
        ("\"objectve\":\"energy\"", "objectve"),
        ("\"strid\":2", "strid"),
        ("\"top-k\":2", "top-k"),
    ] {
        let body = staged_body(extra);
        let (status, pure) = dispatch(&body);
        assert_eq!(status, 400, "{extra}: {pure}");
        assert!(pure.contains(&format!("unknown field `{key}`")), "{pure}");
        assert!(pure.contains("co, size, ci, k, stride, batch"), "{pure}");
        let (status, wire) = request(server.addr(), "POST", "/v1/dse", &body);
        assert_eq!(
            (status, wire),
            (400, pure),
            "{extra}: wire must match the handler"
        );
        // The streaming and job transports refuse it before anything starts.
        let parsed: Value =
            serde_json::from_str(&staged_body(&format!("{extra},\"stream\":true"))).unwrap();
        assert!(matches!(
            api::dse_stream_chunks(&parsed),
            Err(api::ApiError::BadRequest(_))
        ));
        let job = staged_body(&format!("{extra},\"stream\":\"job\""));
        let (status, _) = request(server.addr(), "POST", "/v1/dse", &job);
        assert_eq!(status, 400, "{extra}: job mode");
    }
    // Network-mode bodies are held to the same vocabulary.
    let network = format!(
        "{{\"target\":{{\"network\":\"alexnet\",\"batch\":1}},\"candidates\":{},\"strid\":2}}",
        preset_candidates()
    );
    let (status, error) = dispatch(&network);
    assert_eq!(status, 400, "{error}");
    assert!(error.contains("unknown field `strid`"), "{error}");
    server.shutdown().unwrap();
}

#[test]
fn legacy_requests_stay_byte_identical_with_null_staged_fields() {
    // All-null staged fields mean "not a staged request": the response must
    // be the legacy shape, byte-identical to a request without the fields.
    let legacy = staged_body("");
    let nulled = staged_body("\"objective\":null,\"top_k\":null,\"stream\":null");
    let (status, want) = dispatch(&legacy);
    assert_eq!(status, 200, "{want}");
    let (status, got) = dispatch(&nulled);
    assert_eq!(status, 200, "{got}");
    assert_eq!(
        got, want,
        "null staged fields must not perturb legacy bytes"
    );
    // Legacy shape marker: per-entry feasibility, no funnel counters.
    assert!(want.contains("\"feasible\""), "{want}");
    assert!(!want.contains("\"pruned\""), "{want}");
}

#[test]
fn staged_funnel_accounting_holds_on_the_wire() {
    let server = Server::spawn(ServiceConfig::default()).expect("bind an ephemeral port");
    let body = staged_body("\"objective\":\"traffic\",\"top_k\":2");
    let (status, wire) = request(server.addr(), "POST", "/v1/dse", &body);
    assert_eq!(status, 200, "{wire}");
    let (_, pure) = dispatch(&body);
    assert_eq!(wire, pure, "wire staged response must match the handler");
    let v: Value = serde_json::from_str(&wire).unwrap();
    let n = |k: &str| v.get_field(k).unwrap().as_number().unwrap() as u64;
    assert_eq!(
        v.get_field("objective").unwrap().as_str().unwrap(),
        "traffic"
    );
    assert_eq!(n("submitted"), 5);
    assert_eq!(n("unique"), 5);
    assert_eq!(n("pruned") + n("evaluated"), n("unique"), "{wire}");
    let results = v.get_field("results").unwrap().as_array().unwrap();
    assert_eq!(results.len() as u64, n("kept"), "{wire}");
    assert!(n("kept") <= 2, "top_k bounds the frontier: {wire}");
    server.shutdown().unwrap();
}

#[test]
fn smaller_top_k_is_a_prefix_of_the_larger_frontier() {
    // Ranking is a total order: the top-2 frontier must be the first two
    // entries of the top-5 frontier, bit-identically.
    for objective in ["cycles", "traffic", "energy", "pareto"] {
        let wide = dispatch(&staged_body(&format!(
            "\"objective\":\"{objective}\",\"top_k\":5"
        )));
        let narrow = dispatch(&staged_body(&format!(
            "\"objective\":\"{objective}\",\"top_k\":2"
        )));
        assert_eq!((wide.0, narrow.0), (200, 200));
        let wide: Value = serde_json::from_str(&wide.1).unwrap();
        let narrow: Value = serde_json::from_str(&narrow.1).unwrap();
        let wide = wide.get_field("results").unwrap().as_array().unwrap();
        let narrow = narrow.get_field("results").unwrap().as_array().unwrap();
        assert_eq!(narrow.len(), 2, "{objective}");
        assert_eq!(
            narrow,
            &wide[..2],
            "{objective}: top-2 must prefix the top-5 ranking"
        );
    }
}

#[test]
fn chunked_streaming_frames_the_exact_sync_body() {
    let server = Server::spawn(ServiceConfig::default()).expect("bind an ephemeral port");
    let body = staged_body("\"objective\":\"cycles\",\"top_k\":3,\"stream\":true");
    let (status, head, streamed) = raw_request(server.addr(), "POST", "/v1/dse", &body);
    assert_eq!(status, 200, "{streamed}");
    assert!(
        head.contains("Transfer-Encoding: chunked"),
        "streamed sweeps use chunked transport: {head}"
    );
    assert!(
        !head.contains("Content-Length"),
        "chunked responses must not declare a length: {head}"
    );
    // The concatenated payload ends with the synchronous staged body for
    // the same request; everything before it is newline-framed snapshots.
    let sync = dispatch(&staged_body(
        "\"objective\":\"cycles\",\"top_k\":3,\"stream\":false",
    ));
    assert_eq!(sync.0, 200);
    assert!(
        streamed.ends_with(&sync.1),
        "streamed payload must end with the sync body"
    );
    let snapshots = &streamed[..streamed.len() - sync.1.len()];
    assert!(!snapshots.is_empty(), "at least one frontier snapshot");
    for line in snapshots.lines() {
        let snap: Value = serde_json::from_str(line).expect("snapshot is single-line JSON");
        for field in ["processed", "pruned", "kept", "frontier"] {
            assert!(
                snap.get_field(field).is_ok(),
                "snapshot missing {field}: {line}"
            );
        }
    }

    // Invalid streamed requests never start a stream: plain framed error.
    let bad = staged_body("\"objective\":\"speed\",\"stream\":true");
    let (status, head, error) = raw_request(server.addr(), "POST", "/v1/dse", &bad);
    assert_eq!(status, 422, "{error}");
    assert!(
        head.contains("Content-Length"),
        "errors are answered as normal framed responses: {head}"
    );
    assert!(error.contains("unknown objective"), "{error}");
    server.shutdown().unwrap();
}

#[test]
fn job_mode_runs_the_full_lifecycle() {
    let server = Server::spawn(ServiceConfig::default()).expect("bind an ephemeral port");
    let addr = server.addr();
    let body = staged_body("\"objective\":\"energy\",\"top_k\":2,\"stream\":\"job\"");

    // Accept: deterministic id, poll path, and idempotent re-submission.
    let (status, accepted) = request(addr, "POST", "/v1/dse", &body);
    assert_eq!(status, 200, "{accepted}");
    let v: Value = serde_json::from_str(&accepted).unwrap();
    assert_eq!(v.get_field("status").unwrap().as_str().unwrap(), "accepted");
    let id = v.get_field("job").unwrap().as_str().unwrap().to_string();
    let poll = v.get_field("poll").unwrap().as_str().unwrap().to_string();
    assert_eq!(poll, format!("/v1/dse/jobs/{id}"));
    let (status, again) = request(addr, "POST", "/v1/dse", &body);
    assert_eq!(status, 200);
    assert_eq!(again, accepted, "re-POSTing the same job is idempotent");

    // Poll until done: the terminal body is the staged sync response.
    let sync = dispatch(&staged_body("\"objective\":\"energy\",\"top_k\":2"));
    assert_eq!(sync.0, 200);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let final_body = loop {
        let (status, body) = request(addr, "GET", &poll, "");
        assert_eq!(status, 200, "{body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        match v
            .get_field("status")
            .map(|s| s.as_str().unwrap().to_string())
        {
            Ok(s) if s == "running" => {
                assert!(v.get_field("processed").is_ok(), "{body}");
                assert!(v.get_field("pruned").is_ok(), "{body}");
            }
            // The terminal poll returns the sweep response itself, which
            // has no `status` field (or a non-progress one): stop.
            _ => break body,
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job did not finish within 60s"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(
        final_body, sync.1,
        "job result must be byte-identical to the synchronous staged sweep"
    );

    // Unknown ids 404 with the retention hint; wrong methods 405.
    let (status, missing) = request(addr, "GET", "/v1/dse/jobs/ffffffffffffffff", "");
    assert_eq!(status, 404, "{missing}");
    assert!(missing.contains("no such DSE job"), "{missing}");
    let (status, _) = request(addr, "POST", &poll, "{}");
    assert_eq!(status, 405);

    // The job shows up in the service counters.
    let (status, stats) = request(addr, "GET", "/v1/cache_stats", "");
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&stats).unwrap();
    let service = v.get_field("service").unwrap();
    assert!(
        service.get_field("dse_jobs").unwrap().as_number().unwrap() >= 1.0,
        "{stats}"
    );
    server.shutdown().unwrap();
}

/// With one compute permit and no wait room, concurrent gated load makes
/// requests shed — but an *accepted* job only ever waits for the permit:
/// every one must end `200`, never as a `503` left in the job table (where
/// an idempotent re-submission would find it for good).
#[test]
fn accepted_jobs_end_200_under_a_saturated_gate() {
    let server = Server::spawn(ServiceConfig {
        threads: 1,
        queue_capacity: 0,
        ..ServiceConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.addr();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let stop = std::sync::atomic::AtomicBool::new(false);
    // Nothing asserts inside the scope: a failure there would leave the
    // load threads spinning and the scope waiting on them forever.
    let finals: Vec<(u16, String)> = std::thread::scope(|scope| {
        // Three clients keep the only permit busy; their sheds are expected.
        for _ in 0..3 {
            scope.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let body = "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}";
                    request(addr, "POST", "/v1/bound", body);
                }
            });
        }
        // Distinct jobs (one per `top_k`), each submitted until accepted,
        // then polled until it leaves `running`.
        let finals = (1..=12)
            .map(|top_k| {
                let body = staged_body(&format!(
                    "\"objective\":\"energy\",\"top_k\":{top_k},\"stream\":\"job\""
                ));
                let mut last = request(addr, "POST", "/v1/dse", &body);
                while last.0 == 503 && std::time::Instant::now() < deadline {
                    last = request(addr, "POST", "/v1/dse", &body);
                }
                let Ok(accepted) = serde_json::from_str::<Value>(&last.1) else {
                    return last;
                };
                let Ok(poll) = accepted.get_field("poll").and_then(Value::as_str) else {
                    return last;
                };
                loop {
                    let polled = request(addr, "GET", poll, "");
                    if !polled.1.contains("\"running\"") || std::time::Instant::now() > deadline {
                        return polled;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            })
            .collect();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        finals
    });
    server.shutdown().unwrap();
    for (status, body) in &finals {
        assert_eq!(*status, 200, "{body}");
        assert!(body.contains("\"evaluated\""), "a finished sweep: {body}");
    }
}

#[test]
fn candidate_caps_differ_between_legacy_and_staged() {
    // A 512-point grid: over the legacy 256 cap, comfortably under the
    // staged 2^20 cap. The same request must flip from 422 to 200 when any
    // staged field is present.
    let grid = "\"grid\":{\"pe_rows\":[8,16,24,32,40,48,56,64],\
                \"pe_cols\":[8,16,24,32,40,48,56,64],\
                \"group_rows\":[1,2],\"group_cols\":[1,2],\
                \"lreg_entries_per_pe\":[32,64]}";
    let legacy = format!("{{\"co\":32,\"size\":14,\"ci\":16,\"batch\":2,{grid}}}");
    let (status, body) = dispatch(&legacy);
    assert_eq!(status, 422, "{body}");
    assert!(
        body.contains("256"),
        "legacy cap named in the error: {body}"
    );

    let staged = format!(
        "{{\"co\":32,\"size\":14,\"ci\":16,\"batch\":2,{grid},\
         \"objective\":\"cycles\",\"top_k\":1}}"
    );
    let (status, body) = dispatch(&staged);
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(
        v.get_field("submitted").unwrap().as_number().unwrap(),
        512.0,
        "{body}"
    );

    // Over the staged cap: rejected before any expansion is allocated
    // (three 2^7 axes make 2^21 grid points, double the 2^20 budget).
    let axis: Vec<String> = (1..=128).map(|i| i.to_string()).collect();
    let axis = axis.join(",");
    let huge = format!(
        "{{\"co\":32,\"size\":14,\"ci\":16,\"batch\":2,\
         \"grid\":{{\"pe_rows\":[{axis}],\"pe_cols\":[{axis}],\
         \"group_rows\":[{axis}]}},\
         \"objective\":\"cycles\"}}"
    );
    let (status, body) = dispatch(&huge);
    assert_eq!(status, 422, "{body}");
    assert!(
        body.contains("grid") || body.contains("cap"),
        "over-cap grid names the budget: {body}"
    );
}
