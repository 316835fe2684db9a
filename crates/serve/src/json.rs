//! A minimal JSON value, parser and serializer for the wire protocol.
//!
//! The workspace is offline (no crates.io), so the server carries its own
//! ~200-line JSON implementation instead of `serde`. Objects preserve
//! insertion order (`Vec` of pairs, not a map), so serialized responses are
//! byte-deterministic — the property the docs' worked examples and the
//! loopback tests rely on. Parsing is strict on structure (unterminated
//! strings, trailing garbage and bad escapes are errors) and lenient on
//! nothing; numbers are kept as `f64`, which is exact for every integer up
//! to 2^53 − 1 — the range [`Json::as_u64`] accepts, so a request integer
//! above it is rejected rather than rounded.
//!
//! The reader recurses once per array or object level, so a body nesting
//! deeper than [`MAX_DEPTH`] levels is an error, checked before recursing:
//! a worker thread's stack bounds the depth, and a protocol document nests
//! four levels at most.

use std::fmt;
use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// The largest integer [`Json::as_u64`] accepts, 2^53 − 1: every integer up
/// to it parses to exactly its own `f64`, and 2^53 + 1 already parses to
/// 2^53.
const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
    /// A pre-serialized JSON document, emitted verbatim. Producer-only: the
    /// parser never yields this variant. Used to embed certificate artifacts
    /// (already serialized by `graphqe-checker`) without re-parsing them.
    Raw(String),
}

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters after JSON value at byte {pos}"));
        }
        Ok(value)
    }

    /// The value of an object's field, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a number
    /// that is one no greater than 2^53 − 1 (rejects negatives, NaN,
    /// fractions, and integers an `f64` cannot hold exactly: above 2^53 − 1
    /// the parsed value may already differ from the text).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n <= MAX_EXACT_INT as f64 && n.fract() == 0.0).then_some(n as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                // Integers print without a trailing `.0`, like every other
                // JSON emitter (and like the bench reports).
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (index, (key, value)) in fields.iter().enumerate() {
                    if index > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
            Json::Raw(text) => f.write_str(text),
        }
    }
}

/// Convenience constructor for an ordered object.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Convenience constructor for a string value.
pub fn str(value: impl Into<String>) -> Json {
    Json::Str(value.into())
}

/// Convenience constructor for a numeric value.
pub fn num(value: impl Into<f64>) -> Json {
    Json::Num(value.into())
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

/// Parses one value nested inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("JSON nests deeper than {MAX_DEPTH} levels at byte {pos}", pos = *pos))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .ok()
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                        // Surrogate pairs are not reassembled; lone
                        // surrogates degrade to U+FFFD. Query texts are
                        // plain Cypher, so this path is untrodden in
                        // practice.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("invalid escape sequence".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash as one
                // slice. Both stop bytes are ASCII, so the run of the body
                // (which arrived as a `&str`) ends on a character boundary,
                // and each byte is validated once. Raw control characters
                // are accepted, as they always were on the wire.
                let rest = &bytes[*pos..];
                let run =
                    rest.iter().position(|&b| matches!(b, b'"' | b'\\')).unwrap_or(rest.len());
                out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
                *pos += run;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_the_protocol_shapes() {
        let doc = r#"{"pairs":[["MATCH (n) RETURN n","MATCH (m) RETURN m"]],"deadline_ms":250}"#;
        let parsed = Json::parse(doc).unwrap();
        assert_eq!(parsed.get("deadline_ms").unwrap().as_u64(), Some(250));
        let pair = &parsed.get("pairs").unwrap().as_array().unwrap()[0];
        assert_eq!(pair.as_array().unwrap()[0].as_str(), Some("MATCH (n) RETURN n"));
        assert_eq!(Json::parse(&parsed.to_string()).unwrap(), parsed);
    }

    #[test]
    fn serialization_is_ordered_and_escaped() {
        let value = obj(vec![("b", num(1.0)), ("a", str("line\none \"two\""))]);
        assert_eq!(value.to_string(), r#"{"b":1,"a":"line\none \"two\""}"#);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\" 1}", "tru", "1e999", "[] []", "nan"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parses_a_body_at_the_size_limit_in_linear_time() {
        // One string of about 1 MiB (the default `max_body_bytes`), with
        // multibyte characters and a raw control character inside. A parse
        // that re-validates the rest of the body per character holds a
        // worker for tens of seconds here; a linear one takes milliseconds.
        let text = "é😀\u{1}x".repeat(1 << 17);
        let body = format!(r#"{{"pairs":[["{text}","MATCH (m) RETURN m"]]}}"#);
        let start = std::time::Instant::now();
        let parsed = Json::parse(&body).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(10), "{:?}", start.elapsed());
        let pair = &parsed.get("pairs").unwrap().as_array().unwrap()[0];
        assert_eq!(pair.as_array().unwrap()[0].as_str(), Some(text.as_str()));
    }

    /// Runs `body` on a thread with a worker's 2 MiB stack.
    fn on_worker_stack<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(body).unwrap();
        thread.join().unwrap()
    }

    #[test]
    fn nesting_is_bounded_before_recursing() {
        on_worker_stack(|| {
            let nest = |depth: usize| {
                format!(r#"{{"pairs":{}1{}}}"#, "[".repeat(depth - 1), "]".repeat(depth - 1))
            };
            // The object plus MAX_DEPTH - 1 arrays is the deepest body
            // accepted; one more level, or ten thousand, is an error.
            assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
            let error = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert!(error.contains("nests deeper than 64 levels"), "{error}");
            assert!(Json::parse(&nest(10_000)).is_err());
            let objects = format!("{}{}", r#"{"a":"#.repeat(10_000), "}".repeat(10_000));
            assert!(Json::parse(&objects).is_err());
        });
    }

    #[test]
    fn number_accessors_guard_their_domain() {
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("12").unwrap().as_u64(), Some(12));
        // Integers are accepted only while an f64 holds them exactly: 2^53
        // is out, 2^53 + 1 parses to 2^53, and 2^64 would saturate to
        // u64::MAX.
        assert_eq!(Json::parse("9007199254740991").unwrap().as_u64(), Some(9_007_199_254_740_991));
        for out_of_range in ["9007199254740992", "9007199254740993", "18446744073709551616"] {
            assert_eq!(Json::parse(out_of_range).unwrap().as_u64(), None, "{out_of_range}");
        }
        let mut rendered = String::new();
        write!(rendered, "{}", Json::Num(3.0)).unwrap();
        assert_eq!(rendered, "3");
    }
}
