//! `clb dse … --json true` must print exactly the body `POST /v1/dse`
//! answers for the equivalent request — in all four modes (layer and
//! network target, each legacy and staged). Both go through the same
//! `DseRequest::run`; this pins the flag-to-request translation on top.

use std::process::Command;

use serde_json::Value;

/// Runs `clb dse <args> --json true` and returns stdout without the
/// trailing newline `println!` adds.
fn cli_json(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_clb"))
        .arg("dse")
        .args(args)
        .args(["--json", "true"])
        .output()
        .expect("run clb");
    assert!(
        out.status.success(),
        "clb dse {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout
        .strip_suffix('\n')
        .expect("trailing newline")
        .to_string()
}

fn service_json(body: &str) -> String {
    let v: Value = serde_json::from_str(body).expect("valid request JSON");
    clb_service::api::dse_response(&v).expect("valid request")
}

#[test]
fn cli_json_matches_the_service_byte_for_byte_in_all_four_modes() {
    let layer = ["--co", "16", "--size", "14", "--ci", "8", "--batch", "1"];
    let net = ["--net", "alexnet", "--batch", "1"];
    let cases: [(Vec<&str>, &str); 4] = [
        (
            [&layer[..], &["--pe-rows", "16,32", "--lreg", "64,128"]].concat(),
            r#"{"co":16,"size":14,"ci":8,"batch":1,
                "grid":{"pe_rows":[16,32],"lreg_entries_per_pe":[64,128]}}"#,
        ),
        (
            [
                &layer[..],
                &[
                    "--arch",
                    r#"{"igbuf_entries":1600}"#,
                    "--pe-rows",
                    "8,16,32",
                ],
                &["--objective", "energy", "--top-k", "2"],
            ]
            .concat(),
            r#"{"co":16,"size":14,"ci":8,"batch":1,"objective":"energy","top_k":2,
                "grid":{"base":{"igbuf_entries":1600},"pe_rows":[8,16,32]}}"#,
        ),
        (
            [&net[..], &["--pe-rows", "16,32"]].concat(),
            r#"{"target":{"network":"alexnet","batch":1},"grid":{"pe_rows":[16,32]}}"#,
        ),
        (
            [
                &net[..],
                &[
                    "--pe-rows",
                    "8,16,32",
                    "--objective",
                    "pareto",
                    "--top-k",
                    "2",
                ],
            ]
            .concat(),
            r#"{"target":{"network":"alexnet","batch":1},"objective":"pareto","top_k":2,
                "grid":{"pe_rows":[8,16,32]}}"#,
        ),
    ];
    for (args, body) in cases {
        let cli = cli_json(&args);
        assert_eq!(cli, service_json(body), "clb dse {args:?} vs {body}");
        // Each mode renders its own shape (guards against comparing two
        // copies of one wrong shape).
        let staged = args.contains(&"--objective");
        assert_eq!(cli.contains("\"pruned\""), staged, "{args:?}");
        assert_eq!(cli.contains("\"feasible\""), !staged, "{args:?}");
    }
}
