//! The streaming writer against the tree writer it replaced.
//!
//! `oracle` below is a verbatim copy of the earlier renderer, which walked
//! a finished `Value` tree. Random trees — nested, with empty containers,
//! strings full of quotes, backslashes, control characters and multi-byte
//! UTF-8, integers up to ±2⁵³, fractions and `-0.0` — must render to the
//! same bytes through both, compact and pretty, and must parse back to the
//! tree they came from.

use proptest::prelude::*;
use serde_json::{from_str, to_string, to_string_pretty, Error, Value};

mod oracle {
    use super::{Error, Value};

    pub fn render(value: &Value, indent: Option<usize>) -> Result<String, Error> {
        let mut out = String::new();
        write_value(value, indent, 0, &mut out)?;
        Ok(out)
    }

    fn write_escaped(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write_number(n: f64, out: &mut String) -> Result<(), Error> {
        if !n.is_finite() {
            return Err(Error::custom("cannot serialize non-finite number"));
        }
        if n.fract() == 0.0 && n.abs() < 9.0e15 {
            out.push_str(&format!("{}", n as i64));
        } else {
            out.push_str(&format!("{n:?}"));
        }
        Ok(())
    }

    fn write_value(
        value: &Value,
        indent: Option<usize>,
        depth: usize,
        out: &mut String,
    ) -> Result<(), Error> {
        let (open_sep, item_sep, close_sep, pad, pad_close);
        match indent {
            Some(step) => {
                open_sep = "\n";
                item_sep = ",\n";
                close_sep = "\n";
                pad = " ".repeat(step * (depth + 1));
                pad_close = " ".repeat(step * depth);
            }
            None => {
                open_sep = "";
                item_sep = ",";
                close_sep = "";
                pad = String::new();
                pad_close = String::new();
            }
        }
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(*n, out)?,
            Value::String(s) => write_escaped(s, out),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return Ok(());
                }
                out.push('[');
                out.push_str(open_sep);
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(item_sep);
                    }
                    out.push_str(&pad);
                    write_value(item, indent, depth + 1, out)?;
                }
                out.push_str(close_sep);
                out.push_str(&pad_close);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return Ok(());
                }
                out.push('{');
                out.push_str(open_sep);
                for (i, (key, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(item_sep);
                    }
                    out.push_str(&pad);
                    write_escaped(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(item, indent, depth + 1, out)?;
                }
                out.push_str(close_sep);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
        Ok(())
    }
}

/// Characters the generated strings draw from: plain ASCII, every byte
/// the writer escapes, and one- to four-byte UTF-8.
const CHARS: [char; 20] = [
    'a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', '€', '中', '𝄞', '\u{2028}',
];

fn string(rng: &mut TestRng) -> String {
    let len = rng.below(12) as usize;
    (0..len)
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
        .collect()
}

fn number(rng: &mut TestRng) -> f64 {
    const TWO_53: i64 = 1 << 53;
    match rng.below(7) {
        0 => rng.below(1000) as f64,
        1 => (rng.below(2 * TWO_53 as u64 + 1) as i64 - TWO_53) as f64,
        2 => (rng.below(2_000_001) as f64 - 1_000_000.0) / (1 + rng.below(1000)) as f64,
        3 => -0.0,
        4 => f64::from_bits(rng.next_u64() & !(0x7ff_u64 << 52) | (rng.below(2046) + 1) << 52),
        5 => 9.0e15 * if rng.bool() { 1.0 } else { -1.0 },
        _ => -(rng.below(100) as f64) - 0.5,
    }
}

fn tree(rng: &mut TestRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.bool()),
        2 => Value::Number(number(rng)),
        3 => Value::String(string(rng)),
        4 => Value::Array((0..rng.below(5)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.below(5))
                .map(|_| (string(rng), tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Random `Value` trees up to four containers deep.
struct Trees;

impl Strategy for Trees {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        tree(rng, 4)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streaming_writer_matches_the_tree_writer_and_round_trips(v in Trees) {
        let compact = to_string(&v).unwrap();
        prop_assert_eq!(&compact, &oracle::render(&v, None).unwrap());
        prop_assert_eq!(from_str::<Value>(&compact).unwrap(), v.clone());
        let pretty = to_string_pretty(&v).unwrap();
        prop_assert_eq!(&pretty, &oracle::render(&v, Some(2)).unwrap());
        prop_assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
    }
}

#[test]
fn edge_values_match_the_tree_writer() {
    let cases = [
        Value::Array(vec![]),
        Value::Object(vec![]),
        Value::Array(vec![Value::Array(vec![]), Value::Object(vec![])]),
        Value::Object(vec![(String::new(), Value::Object(vec![]))]),
        Value::Number(-0.0),
        Value::Number(9.0e15),
        Value::Number(8_999_999_999_999_999.0),
        Value::Number(-((1u64 << 53) as f64)),
        Value::Number(5e-324),
        Value::Number(1.7976931348623157e308),
        Value::String("\u{0}\u{1}\u{1f} \"\\ é€𝄞".into()),
    ];
    for v in &cases {
        assert_eq!(to_string(v).unwrap(), oracle::render(v, None).unwrap());
        assert_eq!(
            to_string_pretty(v).unwrap(),
            oracle::render(v, Some(2)).unwrap()
        );
    }
}

#[test]
fn deep_pretty_indentation_matches_the_tree_writer() {
    // Deeper than the writer's padding chunk, so indentation spans chunks.
    let mut v = Value::Array(vec![Value::Number(1.0)]);
    for depth in 0..40 {
        v = Value::Object(vec![(format!("k{depth}"), v), ("x".into(), Value::Null)]);
    }
    assert_eq!(
        to_string_pretty(&v).unwrap(),
        oracle::render(&v, Some(2)).unwrap()
    );
}
