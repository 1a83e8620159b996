//! A tiny hand-rolled JSON writer, plus a minimal recursive-descent
//! parser for the documents the workspace writes itself.
//!
//! The workspace emits JSON for run summaries, bench reports and DST
//! replay tapes, so a push-style writer is the workhorse. Output is
//! deterministic: fields appear in the order they are written, `f64`s
//! use Rust's shortest round-trip formatting, and non-finite floats
//! serialize as `null` (JSON has no NaN). The only documents read back
//! are the `.tape` files the DST explorer checks in, so [`parse`]
//! covers standard JSON without extensions (no comments, no trailing
//! commas) and stores all numbers as `f64` with an exact-`u64` fast
//! path for integer literals.
//!
//! ```
//! use atp_util::json::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_obj();
//! w.key("name");
//! w.str("ring");
//! w.key("grants");
//! w.u64(3);
//! w.key("latencies");
//! w.begin_arr();
//! w.f64(1.5);
//! w.f64(2.0);
//! w.end_arr();
//! w.end_obj();
//! assert_eq!(w.finish(), r#"{"name":"ring","grants":3,"latencies":[1.5,2]}"#);
//! ```

/// Escape a string for inclusion in a JSON document (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Push-style JSON writer with automatic comma placement.
///
/// Call sequence is the caller's responsibility (a `key` must be
/// followed by exactly one value; containers must be balanced); the
/// writer only tracks where commas go.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: how many items written so far.
    stack: Vec<usize>,
    /// True immediately after `key()` — the next value completes the pair.
    pending_key: bool,
}

impl JsonWriter {
    /// Fresh writer with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    fn before_item(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(count) = self.stack.last_mut() {
            if *count > 0 {
                self.buf.push(',');
            }
            *count += 1;
        }
    }

    /// Open an object (`{`).
    pub fn begin_obj(&mut self) {
        self.before_item();
        self.buf.push('{');
        self.stack.push(0);
    }

    /// Close the innermost object (`}`).
    pub fn end_obj(&mut self) {
        self.stack.pop();
        self.buf.push('}');
    }

    /// Open an array (`[`).
    pub fn begin_arr(&mut self) {
        self.before_item();
        self.buf.push('[');
        self.stack.push(0);
    }

    /// Close the innermost array (`]`).
    pub fn end_arr(&mut self) {
        self.stack.pop();
        self.buf.push(']');
    }

    /// Write an object key; the next value call completes the pair.
    pub fn key(&mut self, k: &str) {
        self.before_item();
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
        self.pending_key = true;
    }

    /// Write a string value.
    pub fn str(&mut self, s: &str) {
        self.before_item();
        self.buf.push('"');
        self.buf.push_str(&escape(s));
        self.buf.push('"');
    }

    /// Write an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.before_item();
        self.buf.push_str(&v.to_string());
    }

    /// Write a signed integer value.
    pub fn i64(&mut self, v: i64) {
        self.before_item();
        self.buf.push_str(&v.to_string());
    }

    /// Write a float value (`null` if not finite).
    pub fn f64(&mut self, v: f64) {
        self.before_item();
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
    }

    /// Write a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.before_item();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Write a `null`.
    pub fn null(&mut self) {
        self.before_item();
        self.buf.push_str("null");
    }

    /// Consume the writer and return the document.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// A parsed JSON value.
///
/// Numbers are kept both ways: `Num(f64)` for the general case and
/// `Int(u64)` when the literal was a plain non-negative integer that
/// fits — tape draws are `u64` and must round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits in `u64`, kept exact.
    Int(u64),
    /// Any other number (negative, fractional, or exponent form).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order (duplicate keys keep the last).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as an exact `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(v) => Some(v),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Parse a JSON document. Rejects trailing garbage after the top-level
/// value; returns a short human-readable error with a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                expect(bytes, pos, b'"')?;
                let key = parse_string_body(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            parse_string_body(bytes, pos).map(Value::Str)
        }
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

/// Parse the body of a string; the opening quote has been consumed.
fn parse_string_body(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogates are not paired up — tape files never
                        // contain them; map to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(format!("control byte in string at {pos}")),
            Some(_) => {
                // Copy one UTF-8 scalar (input is a &str, so this is safe
                // to slice on char boundaries found via the leading byte).
                let start = *pos;
                let mut end = start + 1;
                while end < bytes.len() && bytes[end] & 0xc0 == 0x80 {
                    end += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..end]).map_err(|_| "bad utf-8")?);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad utf-8")?;
    if let Ok(v) = text.parse::<u64>() {
        return Ok(Value::Int(v));
    }
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structures_and_commas() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("a");
        w.begin_obj();
        w.key("x");
        w.u64(1);
        w.key("y");
        w.i64(-2);
        w.end_obj();
        w.key("b");
        w.begin_arr();
        w.bool(true);
        w.null();
        w.str("z");
        w.end_arr();
        w.end_obj();
        assert_eq!(w.finish(), r#"{"a":{"x":1,"y":-2},"b":[true,null,"z"]}"#);
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_arr();
        w.f64(f64::NAN);
        w.f64(f64::INFINITY);
        w.f64(0.5);
        w.end_arr();
        assert_eq!(w.finish(), "[null,null,0.5]");
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("name");
        w.str("quote \" backslash \\ newline \n");
        w.key("tape");
        w.begin_arr();
        w.u64(0);
        w.u64(u64::MAX);
        w.u64(42);
        w.end_arr();
        w.key("ok");
        w.bool(true);
        w.key("none");
        w.null();
        w.end_obj();
        let doc = w.finish();

        let v = parse(&doc).expect("writer output parses");
        assert_eq!(
            v.get("name").and_then(Value::as_str),
            Some("quote \" backslash \\ newline \n")
        );
        let tape: Vec<u64> = v
            .get("tape")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|e| e.as_u64().unwrap())
            .collect();
        assert_eq!(tape, vec![0, u64::MAX, 42]);
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("none"), Some(&Value::Null));
    }

    #[test]
    fn parse_numbers_and_whitespace() {
        let v = parse(" [ 1 , -2.5 , 3e2 , 18446744073709551615 ] ").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0], Value::Int(1));
        assert_eq!(items[1], Value::Num(-2.5));
        assert_eq!(items[2], Value::Num(300.0));
        assert_eq!(items[3], Value::Int(u64::MAX));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "[1] trailing",
            "\"unterminated",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }
}
