//! How `clb` ends when it cannot finish normally: a value the service
//! refuses is exit status 1 with the service's message, and a reader that
//! closes stdout early is a quiet exit. Neither may panic.

use std::process::{Command, Stdio};

fn clb(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_clb"));
    command.args(args);
    command
}

#[test]
fn mem_kib_out_of_range_exits_1_with_the_service_message() {
    for verb in ["bound", "sweep"] {
        for mem_kib in ["0", "-5", "nan"] {
            let args = [verb, "--co", "64", "--size", "28", "--ci", "32"];
            let out = clb(&args)
                .args(["--mem-kib", mem_kib])
                .output()
                .expect("run clb");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{verb} {mem_kib}: {stderr}");
            assert!(
                stderr.contains("mem_kib must be in (0, 1048576]"),
                "{verb} {mem_kib}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{verb} {mem_kib}: {stderr}");
        }
    }
}

#[test]
fn a_sweep_below_the_unit_tiling_exits_1_with_the_service_message() {
    // 0.01 KiB is 5 words, less than the 19 a 3×3 kernel's unit tiling
    // needs: no tiling of the paper's dataflow fits, so the sweep is
    // refused before it searches. The bound has no such floor.
    let args = [
        "--co",
        "64",
        "--size",
        "28",
        "--ci",
        "32",
        "--mem-kib",
        "0.01",
    ];
    let out = clb(&["sweep"]).args(args).output().expect("run clb");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("mem_kib must be at least 0.037109375 for this layer"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let bound = clb(&["bound"]).args(args).output().expect("run clb");
    assert!(bound.status.success(), "{:?}", bound.status);
}

#[test]
fn a_closed_stdout_is_a_quiet_exit() {
    // The reader is gone before clb writes, so its one write meets EPIPE
    // every time (`clb sweep … | head -1` on a fast pipe).
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = clb(&[
        "sweep", "--co", "64", "--size", "28", "--ci", "32", "--batch", "1",
    ])
    .stdout(Stdio::from(writer))
    .stderr(Stdio::piped())
    .output()
    .expect("run clb");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
