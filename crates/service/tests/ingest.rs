//! Request ingestion: every endpoint refuses an unknown top-level key with
//! a 400 naming it — before any other check, so a typo can never silently
//! analyze a default — and the JSON parse of a body costs time linear in
//! its length.

use std::time::{Duration, Instant};

use clb_service::api;
use serde::Value;

fn dispatch(path: &str, text: &str) -> clb_service::Response {
    let body: Value = serde_json::from_str(text).expect("test bodies are valid JSON");
    api::dispatch(path, &body)
}

/// Asserts that `text` on `path` is a 400 naming `key`.
fn assert_refuses_key(path: &str, text: &str, key: &str) {
    let resp = dispatch(path, text);
    assert_eq!(resp.status, 400, "{path}: {}", resp.body);
    assert!(
        resp.body.contains(&format!("unknown field `{key}`")),
        "{path}: {}",
        resp.body
    );
}

#[test]
fn bound_refuses_a_typo_key() {
    assert_refuses_key(
        "/v1/bound",
        r#"{"co":64,"size":28,"ci":32,"strid":2}"#,
        "strid",
    );
}

#[test]
fn sweep_refuses_a_typo_key() {
    assert_refuses_key(
        "/v1/sweep",
        r#"{"co":64,"size":28,"ci":32,"mem_kb":33.25}"#,
        "mem_kb",
    );
}

#[test]
fn plan_refuses_a_typo_key() {
    assert_refuses_key(
        "/v1/plan",
        r#"{"co":64,"size":28,"ci":32,"batch":1,"implm":2}"#,
        "implm",
    );
}

#[test]
fn simulate_refuses_a_typo_key() {
    assert_refuses_key(
        "/v1/simulate",
        r#"{"co":64,"size":28,"ci":32,"batch":1,"implem":1,
            "tiling":{"b":1,"z":16,"y":14,"x":14},"trce":{"format":"json"}}"#,
        "trce",
    );
}

#[test]
fn network_refuses_a_typo_key() {
    assert_refuses_key("/v1/network", r#"{"net":"alexnet","bacth":1}"#, "bacth");
}

#[test]
fn the_key_check_runs_before_every_other_check() {
    // Missing required fields (400) and out-of-limit values (422) lose to
    // the unknown key.
    assert_refuses_key("/v1/bound", r#"{"strid":2}"#, "strid");
    assert_refuses_key(
        "/v1/plan",
        r#"{"co":999999,"size":28,"ci":32,"implem":9,"x":1}"#,
        "x",
    );
    assert_refuses_key(
        "/v1/simulate",
        r#"{"co":64,"size":28,"ci":32,"tilling":{"b":1,"z":16,"y":14,"x":14}}"#,
        "tilling",
    );
    assert_refuses_key("/v1/network", r#"{"net":"nope","batch":0,"x":1}"#, "x");
    // The keys each endpoint does know stay accepted.
    let known = [
        (
            "/v1/bound",
            r#"{"co":8,"size":7,"ci":8,"k":3,"stride":1,"batch":1,"mem_kib":null,"arch":null}"#,
        ),
        (
            "/v1/sweep",
            r#"{"co":8,"size":7,"ci":8,"k":3,"stride":1,"batch":1,"arch":{}}"#,
        ),
        (
            "/v1/plan",
            r#"{"co":8,"size":7,"ci":8,"k":3,"stride":1,"batch":1,"implem":1,"arch":null,"trace":null}"#,
        ),
        (
            "/v1/simulate",
            r#"{"co":8,"size":7,"ci":8,"k":3,"stride":1,"batch":1,"implem":1,"arch":null,"tiling":{"b":1,"z":8,"y":7,"x":7},"trace":null}"#,
        ),
        (
            "/v1/network",
            r#"{"net":"fc","batch":1,"implem":1,"arch":null}"#,
        ),
    ];
    for (path, text) in known {
        let resp = dispatch(path, text);
        assert_eq!(resp.status, 200, "{path}: {}", resp.body);
    }
}

#[test]
fn a_long_unknown_note_is_refused() {
    let note = "n".repeat(900 << 10);
    let text = format!(r#"{{"co":64,"size":28,"ci":32,"note":"{note}"}}"#);
    assert_refuses_key("/v1/bound", &text, "note");
}

/// A request body of about `len` bytes that is almost all one string: a
/// layer spec plus a long `note` of text with escapes and multi-byte
/// characters mixed in.
fn one_string_body(len: usize) -> String {
    const UNIT: &str = r#"plain ascii text, then an escape \n \" \\ é and é € 𝄞 "#;
    let note = UNIT.repeat(len / UNIT.len() + 1);
    format!(r#"{{"co":64,"size":28,"ci":32,"note":"{note}"}}"#)
}

/// The best of `rounds` parses of `text`, in nanoseconds per byte.
fn parse_ns_per_byte(text: &str, rounds: usize) -> f64 {
    let best = (0..rounds)
        .map(|_| {
            let started = Instant::now();
            let parsed: Value = serde_json::from_str(text).expect("the body parses");
            std::hint::black_box(parsed);
            started.elapsed()
        })
        .min()
        .unwrap_or(Duration::ZERO);
    best.as_nanos() as f64 / text.len() as f64
}

#[test]
fn parse_time_is_linear_in_the_body_length() {
    let small = one_string_body(64 << 10);
    let large = one_string_body(1 << 20);
    let small_rate = parse_ns_per_byte(&small, 16);
    let large_rate = parse_ns_per_byte(&large, 4);
    assert!(
        large_rate <= 3.0 * small_rate,
        "1 MiB body parsed at {large_rate:.2} ns/byte, \
         64 KiB at {small_rate:.2} ns/byte: parsing is not linear"
    );
}
