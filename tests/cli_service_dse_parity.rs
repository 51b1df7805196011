//! `clb <verb> … --json true` must print exactly the body the service
//! answers for the equivalent request. `clb dse` is checked in all four
//! modes (layer and network target, each legacy and staged) against
//! `api::dse_response`; every other analysis verb against `api::dispatch`
//! on its route. Both sides go through the same typed request and run; this
//! pins the flag-to-body translation on top.

use std::process::Command;

use serde_json::Value;

/// Runs `clb <verb> <args> --json true` and returns stdout without the
/// trailing newline the CLI adds.
fn cli_json(verb: &str, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_clb"))
        .arg(verb)
        .args(args)
        .args(["--json", "true"])
        .output()
        .expect("run clb");
    assert!(
        out.status.success(),
        "clb {verb} {args:?}: {}",
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
        let cli = cli_json("dse", &args);
        assert_eq!(cli, service_json(body), "clb dse {args:?} vs {body}");
        // Each mode renders its own shape (guards against comparing two
        // copies of one wrong shape).
        let staged = args.contains(&"--objective");
        assert_eq!(cli.contains("\"pruned\""), staged, "{args:?}");
        assert_eq!(cli.contains("\"feasible\""), !staged, "{args:?}");
    }
}

#[test]
fn every_analysis_verb_prints_its_routes_exact_body() {
    const ARCH: &str = r#"{"pe_rows":8,"pe_cols":8,"group_rows":2,"group_cols":2}"#;
    const TINY: &str = r#"{"name":"tiny","batch":1,"layers":[{"co":8,"ci":3,"size":14},{"co":16,"ci":8,"size":14}]}"#;
    let layer = ["--co", "16", "--size", "14", "--ci", "8", "--batch", "1"];
    let tiling = ["--tb", "1", "--tz", "8", "--ty", "7", "--tx", "7"];
    let sim = [&layer[..], &tiling].concat();
    let layer_body = r#""co":16,"size":14,"ci":8,"batch":1"#;
    let sim_body = format!(r#"{layer_body},"tiling":{{"b":1,"z":8,"y":7,"x":7}}"#);
    let cases: Vec<(&str, Vec<&str>, String)> = vec![
        (
            "bound",
            [&layer[..], &["--mem-kib", "16"]].concat(),
            format!(r#"{{{layer_body},"mem_kib":16}}"#),
        ),
        (
            "bound",
            [&layer[..], &["--arch", ARCH]].concat(),
            format!(r#"{{{layer_body},"arch":{ARCH}}}"#),
        ),
        (
            "sweep",
            [
                "--co", "64", "--size", "28", "--ci", "32", "--k", "5", "--stride", "2",
            ]
            .to_vec(),
            r#"{"co":64,"size":28,"ci":32,"k":5,"stride":2}"#.to_string(),
        ),
        (
            "plan",
            [&layer[..], &["--implem", "2"]].concat(),
            format!(r#"{{{layer_body},"implem":2}}"#),
        ),
        (
            "plan",
            [&layer[..], &["--arch", ARCH]].concat(),
            format!(r#"{{{layer_body},"arch":{ARCH}}}"#),
        ),
        (
            "plan",
            [&layer[..], &["--trace", "json"]].concat(),
            format!(r#"{{{layer_body},"trace":{{"format":"json"}}}}"#),
        ),
        (
            "simulate",
            [&sim[..], &["--implem", "3"]].concat(),
            format!(r#"{{{sim_body},"implem":3}}"#),
        ),
        (
            "simulate",
            [&sim[..], &["--arch", ARCH]].concat(),
            format!(r#"{{{sim_body},"arch":{ARCH}}}"#),
        ),
        (
            "simulate",
            [&sim[..], &["--trace", "json"]].concat(),
            format!(r#"{{{sim_body},"trace":{{"format":"json"}}}}"#),
        ),
        (
            "network",
            ["--net", "alexnet", "--batch", "1"].to_vec(),
            r#"{"net":"alexnet","batch":1}"#.to_string(),
        ),
        (
            "network",
            ["--net-json", TINY, "--implem", "4"].to_vec(),
            format!(r#"{{"net":{TINY},"implem":4}}"#),
        ),
    ];
    for (verb, args, body) in cases {
        let v: Value = serde_json::from_str(&body).expect("valid request JSON");
        let response = clb_service::api::dispatch(&format!("/v1/{verb}"), &v);
        assert_eq!(response.status, 200, "{body}: {}", response.body);
        assert_eq!(
            cli_json(verb, &args),
            response.body,
            "clb {verb} {args:?} vs {body}"
        );
    }
}
