//! Offline stand-in for `serde_json`: JSON rendering and parsing for the
//! [`serde`] shim.
//!
//! Supports the full JSON grammar needed to round-trip every report type in
//! the workspace: objects, arrays, strings (with escapes), numbers, booleans
//! and null. Numbers are parsed into `f64`; integers up to 2⁵³ round-trip
//! exactly, which covers every counter the workspace serializes.
//!
//! **Rendering** ([`to_string`], [`to_string_pretty`]) is one writer that
//! receives the value's [`serde::Serializer`] events and appends JSON text
//! as they arrive: no intermediate [`Value`] tree, no per-value padding or
//! number strings, and string escaping copies every run of bytes that needs
//! no escape in one piece. The text is written into a buffer each thread
//! reuses, and the caller gets an exact-length copy of it. That matters for
//! memory, not only for speed: a long-running server rendering responses of
//! hundreds of KiB into fresh, doubling buffers leaves its worker threads'
//! allocator arenas fragmented and its resident set growing, while one
//! reused buffer per thread (dropped if a render grew it beyond
//! 4 MiB) keeps both flat, and an exact-size result is what a response
//! cache should hold.
//!
//! **Parsing** ([`from_str`]) is linear in the input. The input is a `&str`
//! and therefore already valid UTF-8, so a string's text is copied run by
//! run — everything up to the next `"` or `\` in one `push_str` — and both
//! stop bytes are ASCII, so every run ends on a character boundary. Parsing
//! into [`Value`] hands back the parsed tree itself.

#![deny(missing_docs)]

use std::cell::Cell;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize, Serializer};
pub use serde::{Error, Value};

/// Serializes a value as compact JSON.
///
/// # Errors
///
/// Returns [`Error`] when the value contains a non-finite number.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    render(value, false)
}

/// Serializes a value as human-readable, two-space-indented JSON.
///
/// # Errors
///
/// Returns [`Error`] when the value contains a non-finite number.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    render(value, true)
}

/// The largest render buffer a thread keeps for its next render; a render
/// that grew it beyond this frees it instead.
const MAX_KEPT_BUFFER_BYTES: usize = 4 << 20;

thread_local! {
    /// This thread's render buffer, reused from one render to the next.
    static BUFFER: Cell<String> = const { Cell::new(String::new()) };
}

fn render<T: Serialize + ?Sized>(value: &T, pretty: bool) -> Result<String, Error> {
    // Taking the buffer out of its cell (rather than borrowing it) leaves
    // a render nested inside a `serialize` call a fresh buffer of its own.
    let mut buffer = BUFFER.take();
    buffer.clear();
    let mut writer = JsonWriter {
        out: &mut buffer,
        pretty,
        depth: 0,
        slot: Slot::First,
        error: None,
    };
    value.serialize(&mut writer);
    let result = match writer.error {
        Some(e) => Err(e),
        None => Ok(buffer.as_str().to_owned()),
    };
    if buffer.capacity() <= MAX_KEPT_BUFFER_BYTES {
        BUFFER.set(buffer);
    }
    result
}

/// Where the next event lands relative to the open containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The first item of the innermost open container (or the top-level
    /// value).
    First,
    /// A later item of the innermost open container.
    Next,
    /// The value of the object field whose key was just written.
    Field,
}

/// The JSON writer behind [`to_string`] and [`to_string_pretty`].
struct JsonWriter<'a> {
    out: &'a mut String,
    /// Two-space indentation with one item per line, else compact.
    pretty: bool,
    /// How many containers are open.
    depth: usize,
    slot: Slot,
    /// The first failure (a non-finite number), reported when the render
    /// ends.
    error: Option<Error>,
}

/// An item separator: a comma, a line break and the deepest indentation
/// one `push_str` writes (deeper lines take several).
const SEPARATOR: &str = ",\n                                                                ";

impl JsonWriter<'_> {
    /// Writes what goes before a value or key in the current slot, and
    /// moves on to the next one.
    fn separate(&mut self) {
        let slot = std::mem::replace(&mut self.slot, Slot::Next);
        match slot {
            Slot::Field => {}
            Slot::First if self.depth == 0 => {}
            Slot::First => self.line_break(false),
            Slot::Next => self.line_break(true),
        }
    }

    /// Writes the comma when `comma`, then, in pretty mode, a line break
    /// indented to the open depth.
    fn line_break(&mut self, comma: bool) {
        let from = usize::from(!comma);
        if !self.pretty {
            self.out.push_str(&SEPARATOR[from..1]);
            return;
        }
        let widest = SEPARATOR.len() - 2;
        let mut pad = 2 * self.depth;
        let first = pad.min(widest);
        self.out.push_str(&SEPARATOR[from..2 + first]);
        pad -= first;
        while pad > 0 {
            let n = pad.min(widest);
            self.out.push_str(&SEPARATOR[2..2 + n]);
            pad -= n;
        }
    }

    fn open(&mut self, bracket: char) {
        self.separate();
        self.out.push(bracket);
        self.depth += 1;
        self.slot = Slot::First;
    }

    /// Closes the innermost container; an empty one stays on its line
    /// (`[]`, `{}`).
    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if self.slot != Slot::First {
            self.line_break(false);
        }
        self.out.push(bracket);
        self.slot = Slot::Next;
    }
}

impl Serializer for JsonWriter<'_> {
    fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
    }

    fn bool(&mut self, value: bool) {
        self.separate();
        self.out.push_str(if value { "true" } else { "false" });
    }

    fn number(&mut self, value: f64) {
        self.separate();
        if !value.is_finite() {
            self.error
                .get_or_insert_with(|| Error::custom("cannot serialize non-finite number"));
        } else if value.fract() == 0.0 && value.abs() < 9.0e15 {
            write_integer(value as i64, self.out);
        } else {
            // `{:?}` prints the shortest representation that round-trips.
            write!(self.out, "{value:?}").expect("writing to a String cannot fail");
        }
    }

    fn string(&mut self, value: &str) {
        self.separate();
        write_escaped(value, "\"", self.out);
    }

    fn begin_array(&mut self) {
        self.open('[');
    }

    fn end_array(&mut self) {
        self.close(']');
    }

    fn begin_object(&mut self) {
        self.open('{');
    }

    fn key(&mut self, key: &str) {
        self.separate();
        write_escaped(key, if self.pretty { "\": " } else { "\":" }, self.out);
        self.slot = Slot::Field;
    }

    fn end_object(&mut self) {
        self.close('}');
    }
}

/// Writes an integer's decimal digits (the values `number` sends here are
/// below 9·10¹⁵ in magnitude), two digits per division.
fn write_integer(value: i64, out: &mut String) {
    const PAIRS: [u8; 200] = {
        let mut pairs = [0u8; 200];
        let mut i = 0;
        while i < 100 {
            pairs[2 * i] = b'0' + (i / 10) as u8;
            pairs[2 * i + 1] = b'0' + (i % 10) as u8;
            i += 1;
        }
        pairs
    };
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = value.unsigned_abs();
    while rest >= 10 {
        let pair = 2 * (rest % 100) as usize;
        rest /= 100;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if rest > 0 || start == digits.len() {
        start -= 1;
        digits[start] = b'0' + rest as u8;
    }
    if value < 0 {
        start -= 1;
        digits[start] = b'-';
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Writes `s` as a JSON string — an opening quote, `s` escaped, then
/// `close` (the closing quote, plus the `:` separator after a key) —
/// copying each run of bytes that needs no escape in one piece. Every
/// escaped byte is ASCII, so the runs between them end on character
/// boundaries.
fn write_escaped(s: &str, close: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(byte >> 4)]));
            out.push(char::from(HEX[usize::from(byte & 0xf)]));
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push_str(close);
}

/// Maximum container nesting the parser accepts. Recursive descent uses the
/// call stack, so without a cap a hostile input of `N` opening brackets
/// overflows the stack and aborts the process; 128 levels is far beyond any
/// structure this workspace serializes.
pub const MAX_PARSE_DEPTH: usize = 128;

/// Deserializes a value from JSON text, in time linear in its length.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON, a shape mismatch, or nesting deeper
/// than [`MAX_PARSE_DEPTH`].
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.parse_value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    T::from_owned(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON"))
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn parse_literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_PARSE_DEPTH {
            return Err(Error::custom(format!(
                "JSON nested deeper than {MAX_PARSE_DEPTH} levels"
            )));
        }
        match self.peek()? {
            b'n' => self.parse_literal("null", Value::Null),
            b't' => self.parse_literal("true", Value::Bool(true)),
            b'f' => self.parse_literal("false", Value::Bool(false)),
            b'"' => Ok(Value::String(self.parse_string()?)),
            b'[' => self.parse_array(depth),
            b'{' => self.parse_object(depth),
            _ => self.parse_number(),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // The run up to the next quote or backslash, copied whole; both
            // are ASCII, so the run ends on a character boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::custom("unterminated string"))?;
            s.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(s);
            }
            let esc = *self
                .bytes
                .get(self.pos + 1)
                .ok_or_else(|| Error::custom("unterminated escape"))?;
            self.pos += 2;
            match esc {
                b'"' => s.push('"'),
                b'\\' => s.push('\\'),
                b'/' => s.push('/'),
                b'n' => s.push('\n'),
                b'r' => s.push('\r'),
                b't' => s.push('\t'),
                b'b' => s.push('\u{8}'),
                b'f' => s.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| Error::custom("bad \\u escape"))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| Error::custom("bad \\u escape"))?;
                    self.pos += 4;
                    s.push(
                        char::from_u32(code).ok_or_else(|| Error::custom("bad \\u code point"))?,
                    );
                }
                _ => return Err(Error::custom("unknown escape")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        // The scanned bytes are ASCII, so both ends are character
        // boundaries.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::custom("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            fields.push((key, self.parse_value(depth + 1)?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::custom("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = Value::Object(vec![
            ("name".into(), Value::String("vgg\"16\"".into())),
            (
                "layers".into(),
                Value::Array(vec![Value::Number(3.0), Value::Number(1.5)]),
            ),
            ("ok".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
        ]);
        let compact = to_string(&v).unwrap();
        assert_eq!(from_str::<Value>(&compact).unwrap(), v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
    }

    #[test]
    fn large_integers_stay_exact() {
        let n = (1u64 << 52) + 12345;
        let text = to_string(&n).unwrap();
        assert_eq!(text, format!("{n}"));
        assert_eq!(from_str::<u64>(&text).unwrap(), n);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<u64>("12 garbage").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        // A 300k-bracket body fits any reasonable size cap but would
        // recurse once per bracket; the depth cap must reject it as a
        // parse error, not a process abort.
        let hostile = "[".repeat(300_000);
        assert!(from_str::<Value>(&hostile).is_err());
        let hostile = "{\"a\":".repeat(300_000);
        assert!(from_str::<Value>(&hostile).is_err());
        // Sane nesting stays accepted.
        let fine = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(from_str::<Value>(&fine).is_ok());
    }

    #[test]
    fn non_finite_numbers_fail_the_render() {
        let v = Value::Array(vec![Value::Number(1.0), Value::Number(f64::NAN)]);
        assert!(to_string(&v).is_err());
        assert!(to_string_pretty(&f64::INFINITY).is_err());
        // The failed render leaves the thread's buffer usable.
        assert_eq!(to_string(&[1u8, 2]).unwrap(), "[1,2]");
    }

    #[test]
    fn string_errors_and_escapes_decode() {
        assert!(from_str::<Value>("\"abc").is_err());
        assert!(from_str::<Value>("\"abc\\").is_err());
        assert!(from_str::<Value>("\"\\q\"").is_err());
        let text = "\"a\\\"b\\\\c\\/d\\n\\r\\t\\b\\f\\u00e9\\u20ac é€\"";
        assert_eq!(
            from_str::<Value>(text).unwrap(),
            Value::String("a\"b\\c/d\n\r\t\u{8}\u{c}é€ é€".into())
        );
    }
}
