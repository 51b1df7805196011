//! Exact counter values: a known request mix through a live server moves
//! every memo counter of `GET /v1/cache_stats` by exactly the expected
//! amount.
//!
//! This file deliberately holds a single `#[test]`: integration-test files
//! build into their own binary (own process), so the process-wide search
//! and plan memos start cold and nothing else looks them up — each delta
//! below is an exact count, not a lower bound.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;

use clb_service::{CacheStatsResponse, MemoCacheStats, Server, ServiceConfig};

/// One `Connection: close` exchange; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("a complete response");
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
    (status.expect("a status code"), body.to_string())
}

/// A `POST` that must succeed; returns the response body.
fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    let (status, response) = request(addr, "POST", path, body);
    assert_eq!(status, 200, "{path} {body}: {response}");
    response
}

/// A numeric top-level field of a JSON response body.
fn count(body: &str, field: &str) -> u64 {
    let value: serde_json::Value = serde_json::from_str(body).expect("a JSON body");
    let number = value
        .get_field(field)
        .and_then(serde_json::Value::as_number);
    number.unwrap_or_else(|e| panic!("{field} in {body}: {e}")) as u64
}

fn stats(addr: SocketAddr) -> CacheStatsResponse {
    let (status, body) = request(addr, "GET", "/v1/cache_stats", "");
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).expect("cache_stats parses")
}

/// `(hits, misses, coalesced)` added between two snapshots of one memo.
fn delta(before: &MemoCacheStats, after: &MemoCacheStats) -> (u64, u64, u64) {
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.coalesced - before.coalesced,
    )
}

#[test]
fn a_known_request_mix_moves_each_counter_by_its_exact_value() {
    let server = Server::spawn(ServiceConfig::default()).expect("bind an ephemeral port");
    let addr = server.addr();

    // A cold sweep searches each of the eight dataflow kinds once, then
    // `found_minimum` looks all eight up again.
    let sweep = r#"{"co":40,"size":12,"ci":20,"batch":1}"#;
    let cold = stats(addr);
    post(addr, "/v1/sweep", sweep);
    let swept = stats(addr);
    assert_eq!(delta(&cold.search, &swept.search), (8, 8, 0));

    // The same body again is one response hit that looks up no search.
    post(addr, "/v1/sweep", sweep);
    let repeated = stats(addr);
    assert_eq!(
        repeated.service.responses_cached - swept.service.responses_cached,
        1
    );
    assert_eq!(delta(&swept.search, &repeated.search), (0, 0, 0));

    // A cold plan plans its layer exactly once.
    post(addr, "/v1/plan", r#"{"co":24,"size":10,"ci":12,"batch":1}"#);
    let planned = stats(addr);
    assert_eq!(delta(&repeated.plan, &planned.plan), (0, 1, 0));

    // A network whose first two layers are that layer, then a new one:
    // two plan hits and one miss.
    let network = r#"{"net":{"name":"mix","batch":1,"layers":[
        {"co":24,"ci":12,"size":10},{"co":24,"ci":12,"size":10},{"co":16,"ci":12,"size":10}]}}"#;
    post(addr, "/v1/network", network);
    let networked = stats(addr);
    assert_eq!(delta(&planned.plan, &networked.plan), (2, 1, 0));

    // A staged sweep looks up one plan per evaluated candidate: a pruned
    // one costs no lookup. The grid varies only the PE array and the LReg,
    // so every candidate has the same DRAM floor and the traffic order of
    // the floors is the cycles order; the traffic sweep then evaluates
    // candidates the cycles sweep planned, and hits on every one.
    let staged = |objective: &str| {
        format!(
            r#"{{"co":32,"size":14,"ci":16,"batch":1,"objective":"{objective}","top_k":1,
            "grid":{{"pe_rows":[8,16,32],"pe_cols":[8,16,32],"lreg_entries_per_pe":[16,64]}}}}"#
        )
    };
    let by_cycles = post(addr, "/v1/dse", &staged("cycles"));
    let evaluated = count(&by_cycles, "evaluated");
    assert!(count(&by_cycles, "pruned") > 0, "{by_cycles}");
    let swept_cycles = stats(addr);
    assert_eq!(
        delta(&networked.plan, &swept_cycles.plan),
        (0, evaluated, 0)
    );
    let by_traffic = post(addr, "/v1/dse", &staged("traffic"));
    let evaluated = count(&by_traffic, "evaluated");
    let swept_traffic = stats(addr);
    assert_eq!(
        delta(&swept_cycles.plan, &swept_traffic.plan),
        (evaluated, 0, 0)
    );

    // Four clients send one new body at once: one computes it, and the
    // other three are answered by the response memo, cached or coalesced.
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                start.wait();
                post(addr, "/v1/bound", r#"{"co":56,"size":9,"ci":8,"batch":1}"#);
            });
        }
    });
    let burst = stats(addr);
    let shared = |s: &CacheStatsResponse| s.service.responses_cached + s.service.coalesced;
    assert_eq!(shared(&burst) - shared(&swept_traffic), 3);
    server.shutdown().unwrap();
}
