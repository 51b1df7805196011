//! The connection-lifecycle suite: keep-alive semantics, graceful drain,
//! and every fault-injection scenario from the chaos toolkit, asserted
//! against a live server with exact status codes and hard time bounds.
//!
//! The contract under test (see `docs/OPERATIONS.md`):
//!
//! - well-behaved keep-alive peers get byte-identical responses across a
//!   reused socket (the golden corpus replays over ONE connection here);
//! - hostile peers — slow-drip writers, mid-request stalls, mid-request
//!   disconnects, pipelined garbage, stalled readers — get a
//!   deterministic typed response (`408`, `400`) or a clean close within
//!   the configured deadline, never a pinned worker and never a panic;
//! - saturation sheds with `503 + Retry-After` after draining the
//!   request body, so the same socket carries the retry;
//! - shutdown drains in-flight work under a hard deadline and aborts
//!   stragglers, observably (`drain_aborted`).

use std::time::{Duration, Instant};

use clb_service::chaos::{request_bytes, ChaosClient};
use clb_service::{Server, ServiceConfig};
use proptest::prelude::*;

/// Generous client-side read timeout: a scenario that trips this has
/// already failed its server-side deadline assertion.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn spawn(config: ServiceConfig) -> clb_service::RunningServer {
    Server::spawn(config).expect("bind an ephemeral port")
}

/// A config with short, test-friendly deadlines (real defaults are tens of
/// seconds — correct for production, too slow to assert against).
fn quick_config() -> ServiceConfig {
    ServiceConfig {
        read_timeout: Duration::from_millis(400),
        request_deadline: Duration::from_millis(900),
        idle_timeout: Duration::from_millis(600),
        drain_deadline: Duration::from_secs(2),
        ..ServiceConfig::default()
    }
}

/// One-shot reference request on its own `Connection: close` socket.
fn one_shot(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut client = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    client
        .send_all(&request_bytes(method, path, body, false))
        .unwrap();
    let resp = client.read_response().expect("one-shot response");
    (resp.status, resp.body)
}

// ---------------------------------------------------------------------
// Keep-alive happy path
// ---------------------------------------------------------------------

#[test]
fn keepalive_responses_are_byte_identical_to_one_shot_connections() {
    let server = spawn(ServiceConfig::default());
    let addr = server.addr();
    let requests: [(&str, &str, &str); 4] = [
        ("GET", "/healthz", ""),
        (
            "POST",
            "/v1/bound",
            "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}",
        ),
        (
            "POST",
            "/v1/plan",
            "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}",
        ),
        ("GET", "/nope", ""),
    ];
    // References first, each on its own closed connection.
    let expected: Vec<(u16, String)> = requests
        .iter()
        .map(|(m, p, b)| one_shot(addr, m, p, b))
        .collect();
    // Then all four over ONE persistent socket.
    let mut client = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    for (i, (method, path, body)) in requests.iter().enumerate() {
        client
            .send_all(&request_bytes(method, path, body, true))
            .unwrap();
        let resp = client.read_response().expect("keep-alive response");
        assert_eq!(resp.status, expected[i].0, "{path}");
        assert_eq!(resp.body, expected[i].1, "byte parity on reuse: {path}");
        assert!(resp.keeps_alive(), "{path} must keep the connection open");
    }
    let stats = server.stats_handle().snapshot();
    assert!(
        stats.keepalive_reuses >= 3,
        "three reuses on one socket: {stats:?}"
    );
    server.shutdown().unwrap();
}

/// The acceptance criterion verbatim: the golden corpus, replayed over a
/// single persistent socket, must match the checked-in fixtures
/// byte-for-byte (parity with `golden_corpus.rs`, which replays the same
/// fixtures over one-shot connections).
#[test]
fn golden_corpus_replays_over_one_persistent_socket() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let manifest = std::fs::read_to_string(dir.join("manifest.txt")).expect("golden manifest");
    let fixtures: Vec<(String, String, u16)> = manifest
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let case = parts.next()?.to_string();
            let method = parts.next()?;
            let path = parts.next()?.to_string();
            let status: u16 = parts.next()?.parse().ok()?;
            // GET fixtures pin live-counter *shapes*, not bytes — the
            // one-shot corpus covers those; reuse parity is about bodies.
            (method == "POST").then_some((case, path, status))
        })
        .collect();
    assert!(fixtures.len() >= 20, "corpus present: {}", fixtures.len());

    let server = spawn(ServiceConfig::default());
    let mut client = ChaosClient::connect(server.addr(), CLIENT_TIMEOUT);
    for (case, path, status) in &fixtures {
        let request = std::fs::read_to_string(dir.join(format!("{case}.req.json"))).unwrap();
        let expected = std::fs::read_to_string(dir.join(format!("{case}.resp.json"))).unwrap();
        client
            .send_all(&request_bytes("POST", path, &request, true))
            .unwrap();
        let resp = client.read_response().expect(case);
        assert_eq!(resp.status, *status, "{case}");
        assert_eq!(
            resp.body, expected,
            "golden parity over reused socket: {case}"
        );
        assert!(resp.keeps_alive(), "{case}");
    }
    let stats = server.stats_handle().snapshot();
    assert!(
        stats.keepalive_reuses >= fixtures.len() as u64 - 1,
        "{stats:?}"
    );
    server.shutdown().unwrap();
}

#[test]
fn request_bound_closes_the_connection_after_max_requests() {
    let server = spawn(ServiceConfig {
        max_requests_per_connection: 2,
        ..ServiceConfig::default()
    });
    let mut client = ChaosClient::connect(server.addr(), CLIENT_TIMEOUT);
    client
        .send_all(&request_bytes("GET", "/healthz", "", true))
        .unwrap();
    let first = client.read_response().unwrap();
    assert_eq!(first.status, 200);
    assert!(first.keeps_alive());
    client
        .send_all(&request_bytes("GET", "/healthz", "", true))
        .unwrap();
    let second = client.read_response().unwrap();
    assert_eq!(second.status, 200);
    assert!(
        !second.keeps_alive(),
        "the final allowed request must announce the close"
    );
    assert!(client.read_eof().unwrap(), "server closes at the bound");
    server.shutdown().unwrap();
}

#[test]
fn http10_and_explicit_close_are_honored() {
    let server = spawn(ServiceConfig::default());
    let addr = server.addr();
    // HTTP/1.0 without a Connection header defaults to close.
    let mut old = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    old.send_all(b"GET /healthz HTTP/1.0\r\nHost: chaos\r\n\r\n")
        .unwrap();
    let resp = old.read_response().unwrap();
    assert_eq!(resp.status, 200);
    assert!(!resp.keeps_alive());
    assert!(old.read_eof().unwrap());
    // HTTP/1.0 + explicit keep-alive is honored.
    let mut old_keep = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    old_keep
        .send_all(b"GET /healthz HTTP/1.0\r\nHost: chaos\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let resp = old_keep.read_response().unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.keeps_alive());
    // HTTP/1.1 + explicit close closes.
    let mut closer = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    closer
        .send_all(&request_bytes("GET", "/healthz", "", false))
        .unwrap();
    let resp = closer.read_response().unwrap();
    assert!(!resp.keeps_alive());
    assert!(closer.read_eof().unwrap());
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Fault injection: hostile peers
// ---------------------------------------------------------------------

#[test]
fn slow_drip_header_gets_408_within_the_request_deadline() {
    let server = spawn(quick_config());
    let addr = server.addr();
    let started = Instant::now();
    let mut client = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    // Drip a padded request 2 bytes per 100ms: every write is far inside
    // read_timeout (400ms) but the full header would take ~8s — the
    // request deadline (900ms) must cut it off with a typed 408. The drip
    // runs on a second socket handle so this thread reads the response the
    // moment it lands (a later drip write against the closed server socket
    // resets the connection and would discard an unread response).
    let padded = format!(
        "GET /healthz HTTP/1.1\r\nHost: chaos\r\nX-Pad: {}\r\n\r\n",
        "x".repeat(120)
    );
    let answered = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let drip = {
        use std::io::Write as _;
        let mut writer = client.split_writer();
        let answered = std::sync::Arc::clone(&answered);
        std::thread::spawn(move || {
            for piece in padded.as_bytes().chunks(2) {
                if answered.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                if writer
                    .write_all(piece)
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    break; // the server rightfully gave up on us
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };
    let resp = client.read_response().expect("typed timeout response");
    answered.store(true, std::sync::atomic::Ordering::Relaxed);
    drip.join().unwrap();
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert!(!resp.keeps_alive());
    assert!(client.read_eof().unwrap(), "slow-dripper is disconnected");
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "scenario resolves promptly, not at client timeout"
    );
    // The worker is free again: a normal request succeeds immediately.
    assert_eq!(one_shot(addr, "GET", "/healthz", "").0, 200);
    server.shutdown().unwrap();
}

#[test]
fn stall_mid_header_gets_408_within_the_read_timeout() {
    let server = spawn(quick_config());
    let addr = server.addr();
    let mut client = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    client
        .send_all(b"GET /healthz HTTP/1.1\r\nHost: ch")
        .unwrap();
    let started = Instant::now();
    // Total silence mid-header: the per-read timeout (400ms) fires.
    let resp = client.read_response().expect("typed timeout response");
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "408 within the read timeout plus slack, got {:?}",
        started.elapsed()
    );
    assert!(client.read_eof().unwrap());
    server.shutdown().unwrap();
}

#[test]
fn stall_mid_body_gets_408_and_a_clean_close() {
    let server = spawn(quick_config());
    let addr = server.addr();
    let mut client = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    // Head promises 60 body bytes; deliver 10 and go silent.
    client
        .send_all(
            b"POST /v1/bound HTTP/1.1\r\nHost: chaos\r\nContent-Length: 60\r\n\r\n{\"co\":16,",
        )
        .unwrap();
    let started = Instant::now();
    let resp = client.read_response().expect("typed timeout response");
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert!(!resp.keeps_alive(), "a half-read body poisons the framing");
    assert!(client.read_eof().unwrap());
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(one_shot(addr, "GET", "/healthz", "").0, 200);
    server.shutdown().unwrap();
}

#[test]
fn disconnect_after_the_request_line_leaves_the_server_healthy() {
    let server = spawn(quick_config());
    let addr = server.addr();
    for _ in 0..5 {
        let mut client = ChaosClient::connect(addr, CLIENT_TIMEOUT);
        client.send_all(b"POST /v1/plan HTTP/1.1\r\n").unwrap();
        client.disconnect();
    }
    // Give the handlers a beat to observe the EOFs, then demand service.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(one_shot(addr, "GET", "/healthz", "").0, 200);
    // The handler threads unregister asynchronously (the healthz socket
    // above included) — poll briefly rather than racing them.
    let deadline = Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let stats = server.stats_handle().snapshot();
        if stats.connections_open == 0 || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        stats.connections_open, 0,
        "no leaked table entries: {stats:?}"
    );
    server.shutdown().unwrap();
}

#[test]
fn pipelined_garbage_after_a_valid_request_gets_400_then_close() {
    let server = spawn(quick_config());
    let mut client = ChaosClient::connect(server.addr(), CLIENT_TIMEOUT);
    let mut burst = request_bytes("GET", "/healthz", "", true);
    burst.extend_from_slice(b"BLURT BLURT BLURT\r\n\r\n");
    client.send_all(&burst).unwrap();
    let first = client.read_response().expect("valid request answered");
    assert_eq!(first.status, 200);
    assert!(first.keeps_alive(), "the valid half earns a keep-alive");
    let second = client.read_response().expect("garbage gets a typed error");
    assert_eq!(second.status, 400, "{}", second.body);
    assert!(!second.keeps_alive(), "garbage poisons the framing");
    assert!(client.read_eof().unwrap());
    server.shutdown().unwrap();
}

#[test]
fn a_stalled_reader_cannot_pin_the_server() {
    let server = spawn(quick_config());
    let addr = server.addr();
    let mut client = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    // Drain the response one byte at a time. The body is small enough to
    // finish fast; the point is the server never cares about our pace and
    // other clients are served meanwhile.
    client
        .send_all(&request_bytes("GET", "/healthz", "", true))
        .unwrap();
    let resp = client
        .read_response_dribbled(Duration::from_millis(1))
        .expect("dribbled read completes");
    assert_eq!(resp.status, 200);
    assert_eq!(one_shot(addr, "GET", "/healthz", "").0, 200);
    server.shutdown().unwrap();
}

#[test]
fn idle_keepalive_connections_are_reaped_on_the_idle_timeout() {
    let server = spawn(quick_config()); // idle_timeout 600ms
    let mut client = ChaosClient::connect(server.addr(), CLIENT_TIMEOUT);
    client
        .send_all(&request_bytes("GET", "/healthz", "", true))
        .unwrap();
    assert_eq!(client.read_response().unwrap().status, 200);
    let started = Instant::now();
    assert!(
        client.read_eof().expect("reap is a clean close"),
        "idle connection must be reaped"
    );
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(300),
        "not reaped before the idle window: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "reaped promptly: {elapsed:?}"
    );
    let stats = server.stats_handle().snapshot();
    assert!(stats.idle_reaped >= 1, "{stats:?}");
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Connection cap and load shed
// ---------------------------------------------------------------------

#[test]
fn connection_cap_evicts_the_oldest_idle_connection() {
    let server = spawn(ServiceConfig {
        max_connections: 2,
        ..ServiceConfig::default()
    });
    let addr = server.addr();
    let mut oldest = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    oldest
        .send_all(&request_bytes("GET", "/healthz", "", true))
        .unwrap();
    assert_eq!(oldest.read_response().unwrap().status, 200);
    std::thread::sleep(Duration::from_millis(50));
    let mut second = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    second
        .send_all(&request_bytes("GET", "/healthz", "", true))
        .unwrap();
    assert_eq!(second.read_response().unwrap().status, 200);
    // The third connection breaches the cap: the server makes room by
    // evicting `oldest` (idle the longest) and serves the newcomer.
    let (status, _) = one_shot(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(
        oldest.read_eof().expect("eviction is a clean close"),
        "oldest idle connection must be evicted"
    );
    let stats = server.stats_handle().snapshot();
    assert!(stats.idle_reaped >= 1, "{stats:?}");
    server.shutdown().unwrap();
}

#[test]
fn all_busy_connection_cap_sheds_with_retry_after() {
    let server = spawn(ServiceConfig {
        max_connections: 1,
        read_timeout: Duration::from_secs(3),
        request_deadline: Duration::from_secs(3),
        ..ServiceConfig::default()
    });
    let addr = server.addr();
    // Occupy the only slot with a connection stuck mid-body (busy, so it
    // cannot be evicted).
    let mut hog = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    hog.send_all(b"POST /v1/bound HTTP/1.1\r\nHost: chaos\r\nContent-Length: 50\r\n\r\n{")
        .unwrap();
    std::thread::sleep(Duration::from_millis(150)); // let it reach busy
    let mut shed = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    let resp = shed
        .read_response()
        .expect("over-cap connection is answered");
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(
        resp.header("retry-after"),
        Some("1"),
        "every 503 carries Retry-After"
    );
    assert!(resp.body.contains("retry_after_seconds"), "{}", resp.body);
    assert!(!resp.keeps_alive());
    assert!(shed.read_eof().unwrap());
    let stats = server.stats_handle().snapshot();
    assert!(stats.shed >= 1, "{stats:?}");
    server.shutdown().unwrap();
}

/// The pool-overflow scenario end to end: with one compute permit and no
/// waiting room, a second concurrent analysis is shed with
/// `503 + Retry-After` — and because the server drained its body first,
/// the *same socket* carries the retry to a 200.
///
/// No sleep orders the steps: the quick request goes out again and again
/// on one socket, served until the hog holds the permit, shed while it
/// does, and served once more when it is done.
#[test]
fn saturated_gate_sheds_503_with_retry_after_and_the_same_socket_retries() {
    let server = spawn(ServiceConfig {
        threads: 1,
        queue_capacity: 0,
        // However many requests the one quick socket carries.
        max_requests_per_connection: usize::MAX,
        ..ServiceConfig::default()
    });
    let addr = server.addr();
    // A long cold computation to hold the single permit: a whole-model
    // sweep with candidates unique to this test (cold planning keeps the
    // flight open for hundreds of ms even in release builds). A quick
    // request may hold the permit at the instant the hog arrives, so a
    // shed hog asks again.
    let slow_body = "{\"target\":{\"network\":\"vgg16\",\"batch\":3},\
                     \"grid\":{\"pe_rows\":[8,24],\"pe_cols\":[8]}}";
    let hog = std::thread::spawn(move || {
        for _ in 0..1000 {
            let (status, _) = one_shot(addr, "POST", "/v1/dse", slow_body);
            if status != 503 {
                return status;
            }
        }
        503
    });
    let mut client = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    let quick = "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}";
    let mut sheds = 0u32;
    let final_status = loop {
        client
            .send_all(&request_bytes("POST", "/v1/bound", quick, true))
            .unwrap();
        let resp = client.read_response().expect("shed or served, never hung");
        if resp.status == 503 {
            assert_eq!(resp.header("retry-after"), Some("1"), "{:?}", resp.headers);
            assert!(
                resp.keeps_alive(),
                "a shed must leave the connection reusable"
            );
            sheds += 1;
            assert!(sheds < 600, "hog never finished");
            client.stall(Duration::from_millis(50));
            continue;
        }
        if sheds == 0 {
            // Served before the hog took the permit: ask again.
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert!(
                !hog.is_finished(),
                "the hog finished without the saturated gate ever shedding"
            );
            continue;
        }
        break resp.status;
    };
    assert_eq!(final_status, 200, "the same socket carries the retry home");
    assert!(sheds >= 1, "the saturated gate must shed at least once");
    assert_eq!(hog.join().unwrap(), 200);
    let stats = server.stats_handle().snapshot();
    assert!(stats.shed >= u64::from(sheds), "{stats:?}");
    server.shutdown().unwrap();
}

/// Regression for the worker-starvation hazard: gated requests waiting
/// for a compute permit must not occupy I/O worker threads. With one
/// permit and a two-worker pool, one admitted hog plus *more* pending
/// analyses than workers used to park every worker in the gate's
/// waiting room, starving even `/healthz` until the computations
/// finished. Now pending requests wait in the gate wait room without a
/// thread: ungated traffic keeps flowing, and every pending request is
/// pumped to completion once a permit frees — none shed, none lost.
#[test]
fn saturated_gate_does_not_starve_ungated_traffic() {
    let server = spawn(ServiceConfig {
        threads: 1,
        io_workers: 2,
        ..ServiceConfig::default()
    });
    let addr = server.addr();
    // Calibrate one cold whole-model sweep (candidates unique to this
    // request, so nothing below can serve it from a cache).
    let calibrate = Instant::now();
    let (status, _) = one_shot(
        addr,
        "POST",
        "/v1/dse",
        "{\"target\":{\"network\":\"vgg16\",\"batch\":2},\
         \"grid\":{\"pe_rows\":[12,28],\"pe_cols\":[12]}}",
    );
    assert_eq!(status, 200);
    let slow_elapsed = calibrate.elapsed();
    // The hog takes the only permit...
    let hog = std::thread::spawn(move || {
        one_shot(
            addr,
            "POST",
            "/v1/dse",
            "{\"target\":{\"network\":\"vgg16\",\"batch\":7},\
             \"grid\":{\"pe_rows\":[20,44],\"pe_cols\":[20]}}",
        )
    });
    std::thread::sleep(Duration::from_millis(120));
    // ...and more slow analyses than there are I/O workers go pending,
    // each cold (unique batch, PE dims divisible by the default 4x4
    // grouping).
    let pending: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                let body = format!(
                    "{{\"target\":{{\"network\":\"vgg16\",\"batch\":{}}},\
                     \"grid\":{{\"pe_rows\":[{},{}],\"pe_cols\":[20]}}}}",
                    4 + i,
                    20 + 4 * i,
                    36 + 4 * i,
                );
                one_shot(addr, "POST", "/v1/dse", &body)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150)); // let them frame and shelve
                                                    // Ungated traffic must answer promptly even though the gate stays
                                                    // saturated for several more slow computations.
    let probe = Instant::now();
    let (status, _) = one_shot(addr, "GET", "/healthz", "");
    let healthz_elapsed = probe.elapsed();
    assert_eq!(status, 200);
    assert!(
        healthz_elapsed < slow_elapsed.max(Duration::from_millis(250)),
        "healthz took {healthz_elapsed:?} with the gate saturated \
         (one cold sweep computes in {slow_elapsed:?})"
    );
    // Every pending analysis is pumped to completion once the permit
    // frees: the wait room holds them without a thread, and nothing in
    // its default capacity sheds.
    let (status, _) = hog.join().unwrap();
    assert_eq!(status, 200);
    for handle in pending {
        let (status, _) = handle.join().unwrap();
        assert_eq!(status, 200, "shelved requests must complete, not shed");
    }
    let stats = server.stats_handle().snapshot();
    assert_eq!(stats.shed, 0, "{stats:?}");
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------

#[test]
fn shutdown_drains_in_flight_requests_and_reaps_idle_sockets() {
    let server = spawn(ServiceConfig {
        drain_deadline: Duration::from_secs(5),
        ..ServiceConfig::default()
    });
    let addr = server.addr();
    let stats = server.stats_handle();
    // One idle keep-alive socket to be reaped...
    let mut idle = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    idle.send_all(&request_bytes("GET", "/healthz", "", true))
        .unwrap();
    assert_eq!(idle.read_response().unwrap().status, 200);
    // ...and one request in flight when the drain begins.
    let inflight = std::thread::spawn(move || {
        let mut client = ChaosClient::connect(addr, CLIENT_TIMEOUT);
        let request = request_bytes(
            "POST",
            "/v1/bound",
            "{\"co\":24,\"size\":14,\"ci\":12,\"batch\":1}",
            true,
        );
        // Drip the body so the request straddles the shutdown call.
        client
            .send_dripped(&request, 8, Duration::from_millis(20))
            .expect("drain must let the in-flight request finish");
        client.read_response()
    });
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown().expect("accept loop exits cleanly");
    let resp = inflight
        .join()
        .unwrap()
        .expect("in-flight request completes through the drain");
    assert_eq!(resp.status, 200);
    assert!(
        !resp.keeps_alive(),
        "responses during drain announce the close"
    );
    assert!(
        idle.read_eof().unwrap(),
        "idle socket reaped at drain start"
    );
    let snapshot = stats.snapshot();
    assert!(snapshot.idle_reaped >= 1, "{snapshot:?}");
    assert_eq!(snapshot.drain_aborted, 0, "nothing straggled: {snapshot:?}");
    assert_eq!(snapshot.connections_open, 0, "{snapshot:?}");
}

#[test]
fn drain_hard_deadline_aborts_stragglers() {
    let server = spawn(ServiceConfig {
        read_timeout: Duration::from_secs(20),
        request_deadline: Duration::from_secs(20),
        drain_deadline: Duration::from_millis(300),
        ..ServiceConfig::default()
    });
    let addr = server.addr();
    let stats = server.stats_handle();
    // A connection stuck mid-body with a 20s read timeout: it cannot
    // finish inside the 300ms drain window.
    let mut straggler = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    straggler
        .send_all(b"POST /v1/bound HTTP/1.1\r\nHost: chaos\r\nContent-Length: 500\r\n\r\n{")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // reach the body read
    let started = Instant::now();
    server
        .shutdown()
        .expect("accept loop exits despite the straggler");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown returns near the hard deadline, got {:?}",
        started.elapsed()
    );
    let snapshot = stats.snapshot();
    assert!(snapshot.drain_aborted >= 1, "{snapshot:?}");
    // The straggler observes the abort, not a hang.
    assert!(straggler.read_eof().is_ok());
}

#[test]
fn shutdown_endpoint_is_gated_and_drains_when_allowed() {
    // Disabled by default: 403, server keeps serving.
    let server = spawn(ServiceConfig::default());
    let (status, body) = one_shot(server.addr(), "POST", "/v1/shutdown", "{}");
    assert_eq!(status, 403, "{body}");
    assert_eq!(one_shot(server.addr(), "GET", "/healthz", "").0, 200);
    server.shutdown().unwrap();

    // Enabled: 200 + drain; the server stops answering new connections.
    let server = spawn(ServiceConfig {
        allow_shutdown: true,
        drain_deadline: Duration::from_secs(2),
        ..ServiceConfig::default()
    });
    let addr = server.addr();
    let (status, body) = one_shot(addr, "POST", "/v1/shutdown", "{}");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("draining"), "{body}");
    server
        .shutdown()
        .expect("already-draining server joins cleanly");
    // Nobody answers anymore.
    let probe_ok = match std::net::TcpStream::connect(addr) {
        Ok(stream) => {
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let mut reader = std::io::BufReader::new(stream);
            use std::io::Read as _;
            let mut buf = [0u8; 1];
            !matches!(reader.read(&mut buf), Ok(1..))
        }
        Err(_) => true,
    };
    assert!(probe_ok, "a drained server must not serve new connections");
}

// ---------------------------------------------------------------------
// Lifecycle bugfix regressions (PR 9)
// ---------------------------------------------------------------------

/// A log sink that collects every line for later assertions.
fn collector() -> (
    clb_service::LogSink,
    std::sync::Arc<std::sync::Mutex<Vec<String>>>,
) {
    let lines = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink_lines = std::sync::Arc::clone(&lines);
    let sink: clb_service::LogSink = std::sync::Arc::new(move |line: &str| {
        sink_lines.lock().unwrap().push(line.to_string());
    });
    (sink, lines)
}

/// The ignored-`set_read_timeout` regression: a zero `read_timeout` makes
/// `set_read_timeout` fail (`InvalidInput`, before any syscall) — the
/// exact class of sockopt failure the old code discarded with `let _ =`,
/// silently serving the connection without slowloris protection. The
/// sockopt policy demands the opposite: log `status=0` and close the
/// connection unserved. On the pre-fix code this test fails because the
/// request is answered `200`.
#[test]
fn sockopt_failure_closes_the_connection_unserved_with_a_status_zero_log() {
    let (sink, lines) = collector();
    let server = spawn(ServiceConfig {
        read_timeout: Duration::ZERO,
        log: Some(sink),
        ..quick_config()
    });
    let mut client = ChaosClient::connect(server.addr(), CLIENT_TIMEOUT);
    client
        .send_all(&request_bytes("GET", "/healthz", "", true))
        .unwrap();
    assert!(
        client.read_eof().expect("a clean close, not a response"),
        "a connection whose socket timeouts cannot be installed must close unserved"
    );
    let logged = lines.lock().unwrap().join("\n");
    assert!(
        logged.contains("method=- path=- status=0"),
        "the abort must be logged with status=0, got: {logged:?}"
    );
    let stats = server.stats_handle().snapshot();
    assert_eq!(stats.requests, 0, "nothing was served: {stats:?}");
    assert_eq!(stats.connections_open, 0, "no leaked entry: {stats:?}");
    server.shutdown().unwrap();
}

/// The poisoned-lock regression, end to end: a handler that panics
/// mid-request (a panicking log sink stands in for any handler bug)
/// costs its own connection and nothing else — the next connections are
/// served normally and no table entry leaks. Unit tests in the server
/// module pin the lock-recovery itself.
#[test]
fn a_panicking_handler_leaves_the_server_serving() {
    let tripped = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sink_tripped = std::sync::Arc::clone(&tripped);
    let sink: clb_service::LogSink = std::sync::Arc::new(move |_line: &str| {
        if !sink_tripped.swap(true, std::sync::atomic::Ordering::SeqCst) {
            panic!("deliberately panicking handler (chaos)");
        }
    });
    let server = spawn(ServiceConfig {
        log: Some(sink),
        ..ServiceConfig::default()
    });
    let addr = server.addr();
    // First request trips the panic (after its response is written); its
    // connection is dropped by the worker's panic handler.
    let mut victim = ChaosClient::connect(addr, CLIENT_TIMEOUT);
    victim
        .send_all(&request_bytes("GET", "/healthz", "", true))
        .unwrap();
    // Whether or not the response made it out before the panic, the
    // socket must end up closed, not hung.
    let _ = victim.read_response();
    assert!(victim.read_eof().unwrap_or(true));
    assert!(tripped.load(std::sync::atomic::Ordering::SeqCst));
    // The server — including the worker pool and the shared tables — must
    // keep serving new connections afterwards.
    for _ in 0..3 {
        assert_eq!(one_shot(addr, "GET", "/healthz", "").0, 200);
    }
    assert_eq!(
        one_shot(
            addr,
            "POST",
            "/v1/bound",
            "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}"
        )
        .0,
        200
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let stats = server.stats_handle().snapshot();
        if stats.connections_open == 0 || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(stats.connections_open, 0, "no leaked entries: {stats:?}");
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Event-loop cases (PR 9): parked connections under load and drain
// ---------------------------------------------------------------------

/// The event-tier liveness case: one connection busy dripping its body
/// (pinning an I/O worker) plus N idle connections parked on the poller.
/// An idle socket that turns readable mid-way through the busy drain
/// must be served promptly — readiness dispatch cannot sit behind the
/// busy worker. Then a graceful drain reaps every parked socket, lets
/// the busy request finish, and leaves nothing open or aborted.
#[test]
fn idle_parked_connections_are_served_and_drained_alongside_a_busy_one() {
    const N_IDLE: usize = 8;
    let server = spawn(ServiceConfig {
        idle_timeout: Duration::from_secs(30), // parked sockets stay parked
        drain_deadline: Duration::from_secs(5),
        ..ServiceConfig::default()
    });
    let addr = server.addr();
    // N idle keep-alive connections, all parked on the poller.
    let mut idlers: Vec<ChaosClient> = (0..N_IDLE)
        .map(|_| {
            let mut client = ChaosClient::connect(addr, CLIENT_TIMEOUT);
            client
                .send_all(&request_bytes("GET", "/healthz", "", true))
                .unwrap();
            assert_eq!(client.read_response().unwrap().status, 200);
            client
        })
        .collect();
    // One busy connection dripping a request body for a while.
    let busy = std::thread::spawn(move || {
        let mut client = ChaosClient::connect(addr, CLIENT_TIMEOUT);
        let request = request_bytes(
            "POST",
            "/v1/bound",
            "{\"co\":24,\"size\":14,\"ci\":12,\"batch\":1}",
            true,
        );
        client
            .send_dripped(&request, 4, Duration::from_millis(25))
            .expect("the dripped request must be accepted");
        client.read_response()
    });
    std::thread::sleep(Duration::from_millis(100)); // the drip is mid-flight
                                                    // A parked idle socket turns readable now: it must be dispatched and
                                                    // answered while the busy connection still drips.
    let mut woken = idlers.pop().unwrap();
    let asked = Instant::now();
    woken
        .send_all(&request_bytes("GET", "/healthz", "", true))
        .unwrap();
    let resp = woken.read_response().expect("woken idler is served");
    assert_eq!(resp.status, 200);
    assert!(
        asked.elapsed() < Duration::from_secs(2),
        "readiness dispatch must not wait out the busy connection: {:?}",
        asked.elapsed()
    );
    {
        let stats = server.stats_handle().snapshot();
        assert_eq!(
            stats.connections_open,
            N_IDLE as u64 + 1,
            "all parked + busy connections stay open: {stats:?}"
        );
    }
    // Graceful drain with the drip still in flight: parked sockets are
    // reaped immediately, the busy request finishes, nothing is aborted.
    server.shutdown().expect("drain completes");
    let resp = busy
        .join()
        .unwrap()
        .expect("in-flight request survives the drain");
    assert_eq!(resp.status, 200);
    assert!(!resp.keeps_alive(), "drain announces the close");
    for (i, idler) in idlers.iter_mut().enumerate() {
        assert!(
            idler.read_eof().expect("reap is a clean close"),
            "parked connection {i} must be reaped at drain start"
        );
    }
    assert!(
        woken.read_eof().unwrap(),
        "the woken idler is parked again by then and reaped too"
    );
}

// ---------------------------------------------------------------------
// Segmentation proptest (satellite): arbitrary TCP segment boundaries
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two back-to-back valid requests, split across arbitrary segment
    /// boundaries with small pauses, must produce exactly the same two
    /// responses as sequential one-shot connections — the parser state
    /// machine cannot care where TCP fragments the stream.
    #[test]
    fn segmented_keepalive_requests_match_one_shot_responses(
        cuts in prop::collection::vec(1usize..200, 0..8),
        second_is_garbage in prop::bool::ANY,
    ) {
        // Default config: segments pause 5ms, every deadline is seconds
        // away, so the only variable under test is the fragmentation.
        let server = spawn(ServiceConfig::default());
        let addr = server.addr();
        let first_req = ("POST", "/v1/bound", "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}");
        let mut bytes = request_bytes(first_req.0, first_req.1, first_req.2, true);
        let second_req = ("POST", "/v1/plan", "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}");
        if second_is_garbage {
            bytes.extend_from_slice(b"NONSENSE NOISE HTTP/9.9\r\nqqq\r\n\r\n");
        } else {
            bytes.extend_from_slice(&request_bytes(second_req.0, second_req.1, second_req.2, true));
        }
        // References on their own connections.
        let expected_first = one_shot(addr, first_req.0, first_req.1, first_req.2);
        let expected_second = if second_is_garbage {
            None
        } else {
            Some(one_shot(addr, second_req.0, second_req.1, second_req.2))
        };

        // Send the concatenated stream in randomly-cut segments.
        let mut cut_points: Vec<usize> = cuts.iter().map(|c| c % bytes.len()).collect();
        cut_points.sort_unstable();
        cut_points.dedup();
        let mut client = ChaosClient::connect(addr, CLIENT_TIMEOUT);
        let mut sent = 0usize;
        for cut in cut_points.into_iter().filter(|&c| c > 0) {
            client.send_all(&bytes[sent..cut]).unwrap();
            client.stall(Duration::from_millis(5));
            sent = cut;
        }
        client.send_all(&bytes[sent..]).unwrap();

        let first = client.read_response().expect("first response");
        prop_assert_eq!(first.status, expected_first.0);
        prop_assert_eq!(&first.body, &expected_first.1);
        match expected_second {
            Some((status, body)) => {
                let second = client.read_response().expect("second response");
                prop_assert_eq!(second.status, status);
                prop_assert_eq!(&second.body, &body);
            }
            None => {
                let second = client.read_response().expect("garbage answered");
                prop_assert_eq!(second.status, 400);
                prop_assert!(!second.keeps_alive());
                prop_assert!(client.read_eof().unwrap());
            }
        }
        server.shutdown().unwrap();
    }
}

// ---------------------------------------------------------------------
// Interleaved-readiness proptest (PR 9): park/unpark cycles across
// connections preserve byte parity
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Several keep-alive connections issue requests in an arbitrary
    /// interleaving, with stalls between them so each connection is
    /// parked on the poller and re-dispatched many times. Every response
    /// must be byte-identical to the same request on a fresh one-shot
    /// connection: readiness wakeup order, parking, and re-dispatch must
    /// be invisible in the bytes.
    #[test]
    fn interleaved_readiness_wakeups_preserve_byte_parity(
        schedule in prop::collection::vec((0usize..3, 0usize..3, 0u64..30), 4..14),
    ) {
        let server = spawn(ServiceConfig::default());
        let addr = server.addr();
        let requests: [(&str, &str, &str); 3] = [
            ("GET", "/healthz", ""),
            ("POST", "/v1/bound", "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}"),
            ("POST", "/v1/plan", "{\"co\":16,\"size\":14,\"ci\":8,\"batch\":1}"),
        ];
        // References, each on its own closed connection.
        let expected: Vec<(u16, String)> = requests
            .iter()
            .map(|(m, p, b)| one_shot(addr, m, p, b))
            .collect();
        let mut clients: Vec<ChaosClient> = (0..3)
            .map(|_| ChaosClient::connect(addr, CLIENT_TIMEOUT))
            .collect();
        for (conn, req, stall_ms) in schedule {
            let (method, path, body) = requests[req];
            clients[conn]
                .send_all(&request_bytes(method, path, body, true))
                .unwrap();
            let resp = clients[conn].read_response().expect("interleaved response");
            prop_assert_eq!(resp.status, expected[req].0, "{} on conn {}", path, conn);
            prop_assert_eq!(&resp.body, &expected[req].1, "{} on conn {}", path, conn);
            prop_assert!(resp.keeps_alive());
            // Let the connection park on the poller before its next turn.
            if stall_ms > 0 {
                std::thread::sleep(Duration::from_millis(stall_ms));
            }
        }
        server.shutdown().unwrap();
    }
}
