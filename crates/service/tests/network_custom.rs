//! Custom-network acceptance tests:
//!
//! * **Parity** — a custom network object whose layer list equals a
//!   preset's must produce the byte-identical response, on `/v1/network`
//!   and on network-mode `/v1/dse` alike (the tentpole invariant: the
//!   custom path may not fork the analysis pipeline).
//! * **Hostility** — adversarial network objects (type confusion, absurd
//!   dimensions, deep junk) must never panic or hang the pure handlers:
//!   always a typed 4xx.
//! * **Caps** — every violation is a 422 naming the violated invariant,
//!   checked before any layer is constructed.

use clb_service::api::{self, limits};
use conv_model::workloads::{self, Network};
use proptest::prelude::*;
use serde::Value;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

fn s(text: &str) -> Value {
    Value::String(text.to_string())
}

/// Renders a preset's layer list as the equivalent custom-network JSON,
/// spelling every field explicitly (no defaults), purely from the public
/// [`ConvLayer`] accessors — so the test cannot share a code path with the
/// parser it checks.
fn network_json(net: &Network, batch: usize) -> Value {
    let layers: Vec<Value> = net
        .conv_layers()
        .map(|named| {
            let l = &named.layer;
            assert_eq!(
                l.kernel_height(),
                l.kernel_width(),
                "the custom schema only spells square kernels"
            );
            let pad = l.padding();
            assert_eq!(
                pad.vertical, pad.horizontal,
                "the custom schema only spells symmetric padding"
            );
            obj(vec![
                ("name", s(&named.name)),
                ("co", num(l.out_channels() as f64)),
                ("ci", num(l.in_channels() as f64)),
                ("h", num(l.in_height() as f64)),
                ("w", num(l.in_width() as f64)),
                ("kernel", num(l.kernel_width() as f64)),
                ("stride", num(l.stride() as f64)),
                ("padding", num(pad.vertical as f64)),
            ])
        })
        .collect();
    obj(vec![
        ("name", s(net.name())),
        ("batch", num(batch as f64)),
        ("layers", Value::Array(layers)),
    ])
}

/// The tentpole acceptance criterion on `/v1/network`: a custom layer list
/// identical to a preset's produces the byte-identical response bytes.
#[test]
fn custom_network_matches_its_preset_byte_for_byte() {
    for preset in ["vgg16", "alexnet", "inception", "fc"] {
        let net = api::network_by_name(preset, 1).unwrap();
        let preset_req = obj(vec![("net", s(preset)), ("batch", num(1.0))]);
        let custom_req = obj(vec![("net", network_json(&net, 1))]);
        let expected = api::dispatch("/v1/network", &preset_req);
        let got = api::dispatch("/v1/network", &custom_req);
        assert_eq!(expected.status, 200, "{preset}: {}", expected.body);
        assert_eq!(
            got.body, expected.body,
            "{preset}: custom layer list must reproduce the preset bytes"
        );
    }
}

/// The same invariant on network-mode `/v1/dse`: sweeping the custom
/// object equals sweeping the preset, byte for byte.
#[test]
fn custom_network_matches_its_preset_in_dse_network_mode() {
    let grid = obj(vec![("pe_rows", Value::Array(vec![num(16.0), num(32.0)]))]);
    let preset_req = obj(vec![
        (
            "target",
            obj(vec![("network", s("vgg16")), ("batch", num(1.0))]),
        ),
        ("grid", grid.clone()),
    ]);
    let custom_req = obj(vec![
        (
            "target",
            obj(vec![("network", network_json(&workloads::vgg16(1), 1))]),
        ),
        ("grid", grid),
    ]);
    let expected = api::dispatch("/v1/dse", &preset_req);
    let got = api::dispatch("/v1/dse", &custom_req);
    assert_eq!(expected.status, 200, "{}", expected.body);
    assert_eq!(got.body, expected.body);
}

/// Cap violations are 422s naming the violated invariant, and the caps are
/// checked on the raw numbers — dimensions that would overflow `u64` MACs
/// must be refused, not wrapped.
#[test]
fn cap_violations_are_typed_422s() {
    let layer = |co: f64, ci: f64, size: f64| {
        obj(vec![("co", num(co)), ("ci", num(ci)), ("size", num(size))])
    };
    let net = |layers: Vec<Value>| {
        obj(vec![(
            "net",
            obj(vec![("batch", num(1.0)), ("layers", Value::Array(layers))]),
        )])
    };
    let cases: Vec<(Value, &str)> = vec![
        (net(vec![layer(1e9, 3.0, 14.0)]), "co must be"),
        (net(vec![layer(8.0, 0.0, 14.0)]), "ci must be"),
        (net(vec![layer(8.0, 3.0, 1e6)]), "input size must be"),
        (
            net(vec![obj(vec![
                ("co", num(8.0)),
                ("ci", num(3.0)),
                ("size", num(14.0)),
                ("kernel", num(64.0)),
            ])]),
            "kernel must be",
        ),
        (
            net(vec![obj(vec![
                ("co", num(8.0)),
                ("ci", num(3.0)),
                ("size", num(14.0)),
                ("stride", num(64.0)),
            ])]),
            "stride must be",
        ),
        (
            net(vec![obj(vec![
                ("co", num(8.0)),
                ("ci", num(3.0)),
                ("size", num(4.0)),
                ("kernel", num(9.0)),
                ("padding", s("none")),
            ])]),
            "kernel does not fit",
        ),
        (net(vec![]), "at least one layer"),
    ];
    for (body, naming) in cases {
        let response = api::dispatch("/v1/network", &body);
        assert_eq!(response.status, 422, "{}", response.body);
        assert!(
            response.body.contains(naming),
            "422 must name the invariant `{naming}`: {}",
            response.body
        );
    }
    // The aggregate MAC cap: every layer individually inside the per-layer
    // caps, the u128 total over MAX_NETWORK_MACS.
    let big: Vec<Value> = (0..64).map(|_| layer(4096.0, 4096.0, 128.0)).collect();
    let response = api::dispatch("/v1/network", &net(big));
    assert_eq!(response.status, 422, "{}", response.body);
    assert!(response.body.contains("total MACs"), "{}", response.body);
}

/// One strategy for a hostile "layer": each field drawn independently from
/// in-range numbers, absurd numbers, negatives, fractions, wrong types and
/// absence — the cross-product covers type confusion and cap violations in
/// the same shape real clients would send them.
fn hostile_field() -> impl Strategy<Value = Option<Value>> {
    (0usize..7).prop_map(|pick| match pick {
        0 => None,
        1 => Some(num(8.0)),
        2 => Some(num(1e18)),
        3 => Some(num(-3.0)),
        4 => Some(num(2.5)),
        5 => Some(s("huge")),
        6 => Some(Value::Array(vec![num(1.0)])),
        _ => unreachable!(),
    })
}

fn hostile_layer() -> impl Strategy<Value = Value> {
    (
        hostile_field(),
        hostile_field(),
        hostile_field(),
        hostile_field(),
        hostile_field(),
        hostile_field(),
    )
        .prop_map(|(co, ci, size, kernel, stride, padding)| {
            let mut fields = Vec::new();
            let mut push = |key: &str, v: Option<Value>| {
                if let Some(v) = v {
                    fields.push((key.to_string(), v));
                }
            };
            push("co", co);
            push("ci", ci);
            push("size", size);
            push("kernel", kernel);
            push("stride", stride);
            push("padding", padding);
            Value::Object(fields)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hostile layer arrays through the service boundary: whatever the
    /// combination, the pure handler answers — a 200 only when every field
    /// landed in range, otherwise a typed 4xx; never a panic. Both
    /// endpoints that accept network objects are exercised.
    #[test]
    fn hostile_networks_never_panic(
        layers in prop::collection::vec(hostile_layer(), 1..=4),
    ) {
        let network = obj(vec![
            ("batch", num(1.0)),
            ("layers", Value::Array(layers)),
        ]);
        let body = obj(vec![("net", network.clone())]);
        let response = api::dispatch("/v1/network", &body);
        prop_assert!(
            response.status == 200 || (400..=422).contains(&response.status),
            "unexpected status {}: {}", response.status, response.body
        );
        let dse = obj(vec![
            ("target", obj(vec![("network", network)])),
            ("grid", obj(vec![("pe_rows", Value::Array(vec![num(16.0)]))])),
        ]);
        let response = api::dispatch("/v1/dse", &dse);
        prop_assert!(
            response.status == 200 || (400..=422).contains(&response.status),
            "unexpected status {}: {}", response.status, response.body
        );
    }

    /// Type confusion on the *network* object itself: `net` as a number,
    /// string-in-array, deeply nested junk — every non-object spelling that
    /// is not a known preset name is a 4xx, never a panic.
    #[test]
    fn type_confused_network_objects_are_4xx(pick in 0usize..6) {
        let net = match pick {
            0 => num(7.0),
            1 => Value::Array(vec![s("vgg16")]),
            2 => Value::Bool(true),
            3 => obj(vec![("layers", s("conv1"))]),
            4 => obj(vec![("layers", Value::Array(vec![s("conv1")]))]),
            5 => obj(vec![("unknown_field", num(1.0))]),
            _ => unreachable!(),
        };
        let response = api::dispatch("/v1/network", &obj(vec![("net", net)]));
        prop_assert!(
            (400..=422).contains(&response.status),
            "unexpected status {}: {}", response.status, response.body
        );
    }
}

/// Batch caps apply to custom networks exactly as to presets, and the
/// custom object refuses a competing top-level `batch`.
#[test]
fn custom_batch_rules() {
    let layers = Value::Array(vec![obj(vec![
        ("co", num(8.0)),
        ("ci", num(3.0)),
        ("size", num(14.0)),
    ])]);
    let over = obj(vec![(
        "net",
        obj(vec![
            ("batch", num(limits::MAX_BATCH as f64 + 1.0)),
            ("layers", layers.clone()),
        ]),
    )]);
    let response = api::dispatch("/v1/network", &over);
    assert_eq!(response.status, 422, "{}", response.body);
    assert!(response.body.contains("batch must be"), "{}", response.body);

    let conflicted = obj(vec![
        ("net", obj(vec![("batch", num(1.0)), ("layers", layers)])),
        ("batch", num(2.0)),
    ]);
    let response = api::dispatch("/v1/network", &conflicted);
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(
        response.body.contains("drop the top-level"),
        "{}",
        response.body
    );
}
