//! The human-readable output of every `clb` analysis verb, pinned byte for
//! byte. `tests/transcripts/cases.txt` lists one invocation per line — a
//! fixture name, then the arguments, split on whitespace — and
//! `tests/transcripts/<name>.txt` holds its expected stdout. The fixtures
//! were produced by the binary from before the verbs were rebuilt on the
//! service's typed requests, so they also pin that rebuild. The
//! `--cache-stats` lines on stderr are pinned with their exact counts.

use std::path::Path;
use std::process::Command;

#[test]
fn every_invocation_prints_its_fixture() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/transcripts");
    let cases = std::fs::read_to_string(dir.join("cases.txt")).expect("cases.txt");
    let mut checked = 0;
    for line in cases.lines().filter(|l| !l.trim().is_empty()) {
        let mut words = line.split_whitespace();
        let name = words.next().expect("a fixture name");
        let args: Vec<&str> = words.collect();
        let out = Command::new(env!("CARGO_BIN_EXE_clb"))
            .args(&args)
            .output()
            .expect("run clb");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: clb {args:?}: {stderr}");
        let expected = std::fs::read(dir.join(format!("{name}.txt"))).expect("fixture");
        assert!(
            out.stdout == expected,
            "{name}: clb {args:?} printed\n{}\nexpected\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&expected)
        );
        checked += 1;
    }
    assert!(checked >= 12, "only {checked} transcripts");
}

#[test]
fn cache_stats_count_the_memos_each_verb_used() {
    // Each run is a fresh process, so both memos start cold: a sweep runs
    // the eight dataflow searches once and plans nothing; a plan plans its
    // layer once and searches nothing.
    let cases = [
        (
            "sweep",
            "search cache: 0 hits / 8 misses",
            "plan cache: 0 hits / 0 misses",
        ),
        (
            "plan",
            "search cache: 0 hits / 0 misses",
            "plan cache: 0 hits / 1 misses",
        ),
    ];
    for (verb, search, plan) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_clb"))
            .args([verb, "--co", "64", "--size", "28", "--ci", "32"])
            .args(["--batch", "1", "--cache-stats", "true"])
            .output()
            .expect("run clb");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{verb}: {stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 2, "{verb}: {stderr}");
        assert!(lines[0].starts_with(search), "{verb}: {stderr}");
        assert!(lines[1].starts_with(plan), "{verb}: {stderr}");
    }
}
