//! End-to-end tests: a real server on an ephemeral port, real TCP clients.
//!
//! The acceptance property pinned here is the ISSUE's: the server handles
//! ≥ 64 concurrent in-flight requests and every response body is
//! bit-identical to what a direct, single-threaded library call produces.

use std::io::{Read, Write};
use std::net::TcpStream;

use clb_core::Accelerator;
use clb_service::{api, PlanResponse, Server, ServiceConfig};
use conv_model::ConvLayer;
use serde::Value;

/// A minimal HTTP/1.1 client: one request, returns (status, body).
/// Sends `Connection: close` — this suite tests the request surface, not
/// connection reuse (that's `connection_lifecycle.rs`), and `read_to_string`
/// needs the server to close the socket to delimit the response.
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    parse_response(&raw_request(addr, method, path, body))
}

/// [`request`]'s exchange, returning the raw response bytes — for
/// responses without a `Content-Length` (chunked streams).
fn raw_request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

/// Extracts one `key=value` field from a structured request-log line.
fn log_field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split(' ')
        .find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == key).then_some(v)
        })
        .unwrap_or_else(|| panic!("no {key}= field in {line}"))
}

fn parse_response(raw: &str) -> (u16, String) {
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response must have a blank line");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status line has a code")
        .parse()
        .expect("status code is numeric");
    // Content-Length must describe the body exactly.
    let declared: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("response carries Content-Length")
        .parse()
        .unwrap();
    assert_eq!(declared, body.len(), "Content-Length must match the body");
    (status, body.to_string())
}

fn spawn_server() -> clb_service::RunningServer {
    Server::spawn(ServiceConfig::default()).expect("bind an ephemeral port")
}

#[test]
fn healthz_and_cache_stats_respond() {
    let server = spawn_server();
    let (status, body) = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\": \"ok\"}");

    let (status, body) = request(server.addr(), "GET", "/v1/cache_stats", "");
    assert_eq!(status, 200);
    let stats: clb_service::CacheStatsResponse = serde_json::from_str(&body).unwrap();
    assert!(stats.service.requests >= 1);
    server.shutdown().unwrap();
}

#[test]
fn cache_stats_report_per_route_latency_histograms() {
    let server = spawn_server();
    let addr = server.addr();
    let body = "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}";
    for _ in 0..3 {
        let (status, _) = request(addr, "POST", "/v1/bound", body);
        assert_eq!(status, 200);
    }
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, stats_body) = request(addr, "GET", "/v1/cache_stats", "");
    assert_eq!(status, 200);
    server.shutdown().unwrap();

    let stats: clb_service::CacheStatsResponse = serde_json::from_str(&stats_body).unwrap();
    // Every route always appears, in the fixed LATENCY_ROUTES order —
    // including routes that served nothing (stable scrape schema).
    let routes: Vec<&str> = stats.latency.iter().map(|r| r.route.as_str()).collect();
    assert_eq!(routes, clb_service::LATENCY_ROUTES.to_vec());
    let by_route = |route: &str| {
        stats
            .latency
            .iter()
            .find(|r| r.route == route)
            .unwrap()
            .clone()
    };
    let bound = by_route("/v1/bound");
    assert_eq!(bound.count, 3);
    // Percentiles are log2-bucket upper bounds: 2^i - 1 for some i, with
    // p50 <= p99, and the exact max inside the p99 bucket's range or above
    // the p50 bucket's lower bound.
    for p in [bound.p50_micros, bound.p99_micros] {
        assert!((p + 1).is_power_of_two(), "bucket bound: {p}");
    }
    assert!(bound.p50_micros <= bound.p99_micros);
    assert!(bound.max_micros <= 60_000_000, "{}", bound.max_micros);
    // The 404 lands in the trailing `other` bucket; the stats request
    // itself was still in flight when its snapshot was taken.
    assert_eq!(by_route("other").count, 1);
    assert_eq!(by_route("/v1/simulate").count, 0);
    assert_eq!(by_route("/v1/cache_stats").count, 0);
    let total: u64 = stats.latency.iter().map(|r| r.count).sum();
    assert_eq!(total, 4);
}

#[test]
fn latency_histograms_book_unserved_job_paths_as_other() {
    // A known request mix must drive each route's count to an exact value:
    // paths that merely start like the job route are 404s and belong in
    // `other`; only a real poll path counts as `/v1/dse/jobs`.
    let server = spawn_server();
    let addr = server.addr();
    let near_misses = [
        ("GET", "/v1/dse/jobs"),
        ("POST", "/v1/dse/jobs"),
        ("POST", "/v1/dse/jobsX"),
        ("GET", "/v1/dse/jobsfoo/1"),
    ];
    for (method, path) in near_misses {
        let (status, body) = request(addr, method, path, "");
        assert_eq!(status, 404, "{method} {path}: {body}");
    }
    let (status, body) = request(addr, "GET", "/v1/dse/jobs/0123456789abcdef", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("no such DSE job"), "{body}");
    let (status, stats_body) = request(addr, "GET", "/v1/cache_stats", "");
    assert_eq!(status, 200);
    server.shutdown().unwrap();

    let stats: clb_service::CacheStatsResponse = serde_json::from_str(&stats_body).unwrap();
    let count = |route: &str| {
        stats
            .latency
            .iter()
            .find(|r| r.route == route)
            .map(|r| r.count)
            .unwrap()
    };
    assert_eq!(count("other"), near_misses.len() as u64);
    assert_eq!(count("/v1/dse/jobs"), 1);
    let total: u64 = stats.latency.iter().map(|r| r.count).sum();
    assert_eq!(total, near_misses.len() as u64 + 1);
}

#[test]
fn sixty_four_concurrent_requests_are_bit_identical_to_library_output() {
    let server = spawn_server();
    let addr = server.addr();

    // Eight distinct queries across three endpoints; the expected body for
    // each is computed by a direct library call (plan) or the pure handler
    // (bound/sweep) — both are single-threaded reference paths.
    let mut queries: Vec<(&str, String, String)> = Vec::new();
    for (co, size, ci) in [(16, 14, 8), (32, 28, 16), (24, 10, 12)] {
        let body = format!("{{\"co\":{co},\"size\":{size},\"ci\":{ci},\"batch\":1}}");
        let layer = ConvLayer::square(1, co, size, ci, 3, 1).unwrap();
        let report = Accelerator::implementation(1)
            .analyze_layer("layer", &layer)
            .unwrap();
        let expected = serde_json::to_string_pretty(&PlanResponse {
            implementation: 1,
            report,
        })
        .unwrap();
        queries.push(("/v1/plan", body, expected));
    }
    for (co, size, ci) in [(16, 14, 8), (48, 7, 24)] {
        let body = format!("{{\"co\":{co},\"size\":{size},\"ci\":{ci},\"batch\":1}}");
        let parsed: Value = serde_json::from_str(&body).unwrap();
        let expected = api::bound_response(&parsed).unwrap();
        queries.push(("/v1/bound", body.clone(), expected));
        let expected = api::sweep_response(&parsed).unwrap();
        queries.push(("/v1/sweep", body, expected));
    }
    assert_eq!(queries.len(), 7);

    // 64 client threads, each issuing several requests; every in-flight
    // wave covers all queries, so identical requests overlap and exercise
    // the coalescing map and response cache as well as raw concurrency.
    let barrier = std::sync::Barrier::new(64);
    std::thread::scope(|scope| {
        for t in 0..64 {
            let (barrier, queries) = (&barrier, &queries);
            scope.spawn(move || {
                barrier.wait(); // all 64 fire together
                for round in 0..3 {
                    let (path, body, expected) = &queries[(t + round) % queries.len()];
                    let (status, got) = request(addr, "POST", path, body);
                    assert_eq!(status, 200, "{path} {body}");
                    assert_eq!(&got, expected, "response must be bit-identical: {path}");
                }
            });
        }
    });

    // The stats endpoint must show the warm layers actually short-circuited
    // repeated work: 192 requests for 7 distinct queries.
    let (status, body) = request(addr, "GET", "/v1/cache_stats", "");
    assert_eq!(status, 200);
    let stats: clb_service::CacheStatsResponse = serde_json::from_str(&body).unwrap();
    // The stats request itself is only counted after its response renders,
    // so it sees exactly the 192 POSTs.
    assert_eq!(stats.service.requests, 64 * 3);
    assert!(
        stats.service.responses_cached + stats.service.coalesced >= 64 * 3 - 7,
        "identical queries must be coalesced or cached, got {:?}",
        stats.service
    );
    server.shutdown().unwrap();
}

#[test]
fn simulate_endpoint_round_trips_and_validates() {
    let server = spawn_server();
    let addr = server.addr();

    // Valid explicit tiling: the wire response must be bit-identical to the
    // pure handler (which itself is pinned against the library call).
    let valid = "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1,\
                 \"tiling\":{\"b\":1,\"z\":8,\"y\":7,\"x\":7}}";
    let parsed: Value = serde_json::from_str(valid).unwrap();
    let expected = api::simulate_response(&parsed).unwrap();
    let (status, got) = request(addr, "POST", "/v1/simulate", valid);
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, expected);

    // Zero-dimension tilings must come back 422 promptly — before the fix,
    // `block_grid` would spin forever and this request would hang a worker
    // until the read timeout.
    let zero = "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1,\
                \"tiling\":{\"b\":1,\"z\":0,\"y\":7,\"x\":7}}";
    let (status, body) = request(addr, "POST", "/v1/simulate", zero);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("nonzero"), "{body}");

    // Missing tiling object → 400, oversized dimension → 422.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/simulate",
        "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}",
    );
    assert_eq!(status, 400, "{body}");
    let oversized = "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1,\
                     \"tiling\":{\"b\":1,\"z\":8,\"y\":7,\"x\":700}}";
    let (status, body) = request(addr, "POST", "/v1/simulate", oversized);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("exceeds"), "{body}");
    server.shutdown().unwrap();
}

#[test]
fn network_endpoint_matches_direct_network_analysis() {
    let server = spawn_server();
    let expected = {
        let net = conv_model::workloads::alexnet(1);
        let report = Accelerator::implementation(1)
            .analyze_network(&net)
            .unwrap();
        serde_json::to_string_pretty(&report).unwrap()
    };
    let (status, got) = request(
        server.addr(),
        "POST",
        "/v1/network",
        "{\"net\":\"alexnet\",\"batch\":1}",
    );
    assert_eq!(status, 200);
    assert_eq!(got, expected);
    server.shutdown().unwrap();
}

#[test]
fn equivalent_json_bodies_share_one_cache_entry() {
    let server = spawn_server();
    let addr = server.addr();
    // Same query, different formatting and key order.
    let spellings = [
        "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}",
        "{ \"size\": 14, \"ci\": 8, \"co\": 16, \"batch\": 1 }",
    ];
    let (status, first) = request(addr, "POST", "/v1/bound", spellings[0]);
    assert_eq!(status, 200);
    let (_, second) = request(addr, "POST", "/v1/bound", spellings[1]);
    assert_eq!(first, second);
    let (_, body) = request(addr, "GET", "/v1/cache_stats", "");
    let stats: clb_service::CacheStatsResponse = serde_json::from_str(&body).unwrap();
    assert!(
        stats.service.responses_cached >= 1,
        "the re-ordered spelling must hit the canonicalized cache key"
    );
    server.shutdown().unwrap();
}

#[test]
fn http_errors_over_the_wire() {
    let server = spawn_server();
    let addr = server.addr();

    // Unknown endpoint.
    let (status, body) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    assert!(body.contains("\"error\""));

    // Wrong method for a known endpoint.
    let (status, _) = request(addr, "GET", "/v1/plan", "");
    assert_eq!(status, 405);
    let (status, _) = request(addr, "POST", "/healthz", "{}");
    assert_eq!(status, 405);

    // Bad JSON body.
    let (status, _) = request(addr, "POST", "/v1/plan", "{not json");
    assert_eq!(status, 400);

    // Unprocessable layer.
    let (status, _) = request(addr, "POST", "/v1/plan", "{\"co\":0,\"size\":1,\"ci\":1}");
    assert_eq!(status, 422);

    // Declared-oversized payload is refused up front.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /v1/plan HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 413 "), "got: {raw}");

    // A malformed request line never kills the server.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "BLURT\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400 "), "got: {raw}");

    // …and the server still answers.
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown().unwrap();
}

#[test]
fn dse_endpoint_round_trips_a_vgg16_layer_sweep() {
    let server = spawn_server();
    let addr = server.addr();
    // VGG-16 conv4_1 (batch 1 keeps the debug-build sweep quick) over a
    // 2×2 grid of custom candidates: the wire bytes must match the pure
    // handler, which the dse_and_arch tests pin against the serial
    // /v1/plan + /v1/simulate oracle.
    let body = "{\"co\":512,\"size\":28,\"ci\":256,\"batch\":1,\
                \"grid\":{\"pe_rows\":[16,32],\"lreg_entries_per_pe\":[64,128]}}";
    let parsed: Value = serde_json::from_str(body).unwrap();
    let expected = api::dse_response(&parsed).unwrap();
    let (status, got) = request(addr, "POST", "/v1/dse", body);
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, expected, "wire response must be bit-identical");
    let v: Value = serde_json::from_str(&got).unwrap();
    assert_eq!(v.get_field("unique").unwrap().as_number().unwrap(), 4.0);

    // Hostile candidate over the wire: typed 422 naming the invariant.
    let hostile = "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1,\
                   \"candidates\":[{\"pe_rows\":0}]}";
    let (status, body) = request(addr, "POST", "/v1/dse", hostile);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("non-empty"), "{body}");
    server.shutdown().unwrap();
}

#[test]
fn request_log_lines_have_the_pinned_shape() {
    let lines = std::sync::Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
    let sink_lines = std::sync::Arc::clone(&lines);
    let config = ServiceConfig {
        log: Some(std::sync::Arc::new(move |line: &str| {
            sink_lines.lock().unwrap().push(line.to_string());
        })),
        ..ServiceConfig::default()
    };
    let server = Server::spawn(config).expect("bind an ephemeral port");
    let addr = server.addr();

    let body = "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}";
    let (status, _) = request(addr, "POST", "/v1/bound", body);
    assert_eq!(status, 200);
    let (status, _) = request(addr, "POST", "/v1/bound", body); // warm: cache hit
    assert_eq!(status, 200);
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    // The trace-capable endpoints carry a trailing trace= field: `on` when
    // the body holds a non-null `trace`, `off` otherwise.
    let traced = "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1,\
         \"tiling\":{\"b\":1,\"z\":8,\"y\":7,\"x\":7},\"trace\":{}}";
    let (status, _) = request(addr, "POST", "/v1/simulate", traced);
    assert_eq!(status, 200);
    let (status, _) = request(addr, "POST", "/v1/plan", body);
    assert_eq!(status, 200);
    // /v1/network lines end with a net= tag: the preset name, `custom` for
    // a network object, sanitized so hostile names cannot forge extra
    // key=value pairs in the line.
    let (status, _) = request(
        addr,
        "POST",
        "/v1/network",
        "{\"net\":\"alexnet\",\"batch\":1}",
    );
    assert_eq!(status, 200);
    let custom = "{\"net\":{\"name\":\"t\",\"batch\":1,\
         \"layers\":[{\"co\":8,\"ci\":3,\"size\":14}]}}";
    let (status, _) = request(addr, "POST", "/v1/network", custom);
    assert_eq!(status, 200);
    let (status, _) = request(addr, "POST", "/v1/network", "{\"net\":\"a b=c d\"}");
    assert_eq!(status, 422);
    server.shutdown().unwrap();

    let lines = lines.lock().unwrap();
    assert_eq!(lines.len(), 9, "one line per completed request: {lines:?}");
    // Shape: space-separated key=value pairs in fixed order, micros numeric;
    // /v1/simulate and /v1/plan lines end with the extra trace= field,
    // /v1/network lines with the extra net= tag.
    for line in lines.iter() {
        let fields: Vec<(&str, &str)> = line
            .split(' ')
            .map(|kv| kv.split_once('=').expect("key=value"))
            .collect();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
        let path = fields[1].1;
        if path == "/v1/simulate" || path == "/v1/plan" {
            assert_eq!(
                keys,
                ["method", "path", "status", "micros", "cache", "conn", "trace"],
                "{line}"
            );
            assert!(
                matches!(fields[6].1, "on" | "off"),
                "trace must be on|off: {line}"
            );
        } else if path == "/v1/network" {
            assert_eq!(
                keys,
                ["method", "path", "status", "micros", "cache", "conn", "net"],
                "{line}"
            );
        } else {
            assert_eq!(
                keys,
                ["method", "path", "status", "micros", "cache", "conn"],
                "{line}"
            );
        }
        let micros: u64 = fields[3].1.parse().expect("micros numeric");
        assert!(micros < 60_000_000, "{line}");
        fields[2].1.parse::<u16>().expect("status numeric");
        fields[5].1.parse::<u64>().expect("conn numeric");
    }
    assert_eq!(log_field(&lines[4], "trace"), "on", "{}", lines[4]);
    assert_eq!(log_field(&lines[5], "trace"), "off", "{}", lines[5]);
    assert_eq!(log_field(&lines[6], "net"), "alexnet", "{}", lines[6]);
    assert_eq!(log_field(&lines[7], "net"), "custom", "{}", lines[7]);
    // The hostile name still logs — 422, sanitized so the shape holds.
    assert!(lines[8].contains("status=422"), "{}", lines[8]);
    assert_eq!(log_field(&lines[8], "net"), "a_b_c_d", "{}", lines[8]);
    assert_eq!(
        lines[0],
        format!(
            "method=POST path=/v1/bound status=200 {} cache=miss conn={}",
            lines[0].split(' ').nth(3).unwrap(),
            log_field(&lines[0], "conn"),
        )
    );
    assert!(lines[1].contains("cache=hit"), "{}", lines[1]);
    assert!(
        lines[2].starts_with("method=GET path=/healthz status=200"),
        "{}",
        lines[2]
    );
    assert_eq!(log_field(&lines[2], "cache"), "-", "{}", lines[2]);
    assert!(lines[3].contains("status=404"), "{}", lines[3]);
    // Close-per-request clients get a fresh connection id every time.
    let conns: std::collections::BTreeSet<&str> =
        lines.iter().map(|l| log_field(l, "conn")).collect();
    assert_eq!(conns.len(), 9, "{lines:?}");
}

/// Network-mode `/v1/dse` through the request log: the pinned line shape
/// must hold for 200s *and* 422s, and the `cache=` field must report the
/// real outcome — one `miss` leader per burst of identical concurrent
/// sweeps, everyone else `coalesced` (or `hit` once the leader retired),
/// and `miss` every time for uncacheable 422s. Successful sweep lines
/// additionally carry the staged funnel (`candidates= pruned= kept=
/// objective=`); legacy sweeps log `objective=-`, error lines keep the
/// base shape (there is no funnel to report).
#[test]
fn request_log_covers_network_mode_dse() {
    let lines = std::sync::Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
    let sink_lines = std::sync::Arc::clone(&lines);
    let config = ServiceConfig {
        threads: 4,
        log: Some(std::sync::Arc::new(move |line: &str| {
            sink_lines.lock().unwrap().push(line.to_string());
        })),
        ..ServiceConfig::default()
    };
    let server = Server::spawn(config).expect("bind an ephemeral port");
    let addr = server.addr();

    // 422 path: a network-mode request naming an unknown model. Errors are
    // never cached, so both issues must log cache=miss.
    let hostile = "{\"target\":{\"network\":\"lenet\"},\"grid\":{\"pe_rows\":[16]}}";
    for _ in 0..2 {
        let (status, _) = request(addr, "POST", "/v1/dse", hostile);
        assert_eq!(status, 422);
    }

    // 200 path: four identical whole-model sweeps fired together. The
    // candidates are unique to this test, so the leader's cold planning
    // (~hundreds of ms in debug builds) keeps the flight open while the
    // followers arrive — they must share it, not recompute.
    let sweep = "{\"target\":{\"network\":\"vgg16\",\"batch\":3},\
                 \"grid\":{\"pe_rows\":[8,24],\"pe_cols\":[8]}}";
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                barrier.wait();
                let (status, _) = request(addr, "POST", "/v1/dse", sweep);
                assert_eq!(status, 200);
            });
        }
    });

    // A staged sweep logs the requested objective by name.
    let staged = "{\"target\":{\"network\":\"vgg16\",\"batch\":3},\
                  \"grid\":{\"pe_rows\":[8,24],\"pe_cols\":[8]},\
                  \"objective\":\"traffic\",\"top_k\":1}";
    let (status, _) = request(addr, "POST", "/v1/dse", staged);
    assert_eq!(status, 200);
    server.shutdown().unwrap();

    let lines = lines.lock().unwrap();
    assert_eq!(lines.len(), 7, "one line per completed request: {lines:?}");
    // Every line keeps the pinned key order regardless of mode or status:
    // successful sweeps append the staged funnel, errors stay base-shaped.
    for line in lines.iter() {
        let fields: Vec<(&str, &str)> = line
            .split(' ')
            .map(|kv| kv.split_once('=').expect("key=value"))
            .collect();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
        if line.contains("status=200") {
            assert_eq!(
                keys,
                [
                    "method",
                    "path",
                    "status",
                    "micros",
                    "cache",
                    "conn",
                    "candidates",
                    "pruned",
                    "kept",
                    "objective"
                ],
                "{line}"
            );
            fields[6].1.parse::<u64>().expect("candidates numeric");
            fields[7].1.parse::<u64>().expect("pruned numeric");
            fields[8].1.parse::<u64>().expect("kept numeric");
        } else {
            assert_eq!(
                keys,
                ["method", "path", "status", "micros", "cache", "conn"],
                "{line}"
            );
        }
        assert!(line.contains("path=/v1/dse"), "{line}");
    }
    let count = |needle: &str| lines.iter().filter(|l| l.contains(needle)).count();
    assert_eq!(count("status=422"), 2, "{lines:?}");
    assert_eq!(count("status=200"), 5, "{lines:?}");
    // Legacy sweeps have no ranking objective — the funnel logs `-`; the
    // staged sweep names its objective. Both report the 2-candidate grid.
    for line in lines.iter().filter(|l| l.contains("status=200")) {
        assert_eq!(log_field(line, "candidates"), "2", "{line}");
    }
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("status=200") && log_field(l, "objective") == "-")
            .count(),
        4,
        "{lines:?}"
    );
    assert_eq!(log_field(&lines[6], "objective"), "traffic", "{}", lines[6]);
    assert_eq!(log_field(&lines[6], "kept"), "1", "{}", lines[6]);
    // Both 422s recomputed: error responses never enter the cache.
    for line in lines.iter().filter(|l| l.contains("status=422")) {
        assert_eq!(log_field(line, "cache"), "miss", "{line}");
    }
    // The burst shares one computation: exactly one miss; followers either
    // coalesced onto the in-flight leader or (having arrived after it
    // retired) hit the response cache it populated. (The staged sweep on
    // line 6 is a distinct cache key — its own miss — so exclude it.)
    let ok_lines: Vec<&String> = lines[..6]
        .iter()
        .filter(|l| l.contains("status=200"))
        .collect();
    assert_eq!(
        ok_lines
            .iter()
            .filter(|l| log_field(l, "cache") == "miss")
            .count(),
        1,
        "{ok_lines:?}"
    );
    assert!(
        ok_lines
            .iter()
            .all(|l| ["miss", "coalesced", "hit"].contains(&log_field(l, "cache"))),
        "{ok_lines:?}"
    );
    assert!(
        ok_lines
            .iter()
            .any(|l| log_field(l, "cache") == "coalesced"),
        "identical concurrent sweeps must coalesce: {ok_lines:?}"
    );
}

/// The three `/v1/dse` transports through the request log, driven to exact
/// values: a chunked stream, a job acceptance and a chunked request whose
/// staged options are rejected each log one pinned line, and each books
/// exactly one `/v1/dse` latency count.
#[test]
fn request_log_pins_the_dse_transports() {
    let lines = std::sync::Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
    let sink_lines = std::sync::Arc::clone(&lines);
    let config = ServiceConfig {
        log: Some(std::sync::Arc::new(move |line: &str| {
            sink_lines.lock().unwrap().push(line.to_string());
        })),
        ..ServiceConfig::default()
    };
    let server = Server::spawn(config).expect("bind an ephemeral port");
    let addr = server.addr();
    let grid = "\"co\":16,\"size\":14,\"ci\":8,\"batch\":1,\
                \"grid\":{\"pe_rows\":[8,16],\"pe_cols\":[8,16]}";

    let streamed = raw_request(
        addr,
        "POST",
        "/v1/dse",
        &format!("{{{grid},\"top_k\":2,\"stream\":true}}"),
    );
    assert!(streamed.starts_with("HTTP/1.1 200 OK\r\n"), "{streamed}");
    assert!(
        streamed.contains("Transfer-Encoding: chunked\r\n"),
        "{streamed}"
    );
    assert!(streamed.ends_with("\r\n0\r\n\r\n"), "{streamed}");
    let job = format!("{{{grid},\"objective\":\"energy\",\"stream\":\"job\"}}");
    let (status, body) = request(addr, "POST", "/v1/dse", &job);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"accepted\""), "{body}");
    let rejected = format!("{{{grid},\"objective\":\"latency\",\"stream\":true}}");
    let (status, body) = request(addr, "POST", "/v1/dse", &rejected);
    assert_eq!(status, 422, "{body}");
    let (status, stats_body) = request(addr, "GET", "/v1/cache_stats", "");
    assert_eq!(status, 200);
    server.shutdown().unwrap();

    // Every field but the timing and the connection id is exact.
    let lines: Vec<String> = lines
        .lock()
        .unwrap()
        .iter()
        .map(|line| {
            line.split(' ')
                .filter(|kv| !kv.starts_with("micros=") && !kv.starts_with("conn="))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    assert_eq!(
        lines,
        [
            "method=POST path=/v1/dse status=200 cache=- \
             candidates=4 pruned=0 kept=2 objective=cycles",
            "method=POST path=/v1/dse status=200 cache=- \
             candidates=4 pruned=0 kept=0 objective=energy",
            "method=POST path=/v1/dse status=422 cache=miss",
            "method=GET path=/v1/cache_stats status=200 cache=-",
        ]
    );
    let stats: clb_service::CacheStatsResponse = serde_json::from_str(&stats_body).unwrap();
    let dse = stats.latency.iter().find(|r| r.route == "/v1/dse").unwrap();
    assert_eq!(dse.count, 3, "{stats_body}");
}

#[test]
fn graceful_shutdown_joins_cleanly() {
    let server = spawn_server();
    let addr = server.addr();
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown().expect("accept loop exits cleanly");
    // The socket must actually be released.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A connect may still succeed briefly on some platforms (TIME_WAIT
            // accept backlog); what matters is that nobody answers.
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            s.set_read_timeout(Some(std::time::Duration::from_secs(2)))
                .unwrap();
            s.read_to_string(&mut out).unwrap_or(0) == 0
        }
    );
}
