//! Exact (lossless) JSON for certificates: a direct writer and a borrowed
//! tape reader.
//!
//! Certificates must round-trip integers up to the full `i64` range and
//! floating-point values bit-faithfully, so this module deliberately has **no
//! float numbers**: numbers are always integers, and any floating-point
//! datum is carried as a tagged string object (`{"f":"<debug repr>"}`) at the
//! layer above. Fractional and exponent literals are rejected outright, which
//! makes accidental precision loss a hard error instead of a silent drift.
//!
//! **Writing.** The encoder in [`crate::cert`] appends straight into one
//! `String`: member names and punctuation are literal text there, and this
//! module supplies the pieces that need care — escaped strings
//! ([`write_str`]), integers ([`write_int`]) and comma-separated arrays
//! ([`write_array`]). Nothing is built in between, and no whitespace is
//! written.
//!
//! **Reading.** [`Tape::parse`] validates a whole document in one pass into
//! a flat token list, one `Vec` per document. Each array or object token
//! records how many tokens its contents take, so a reader steps over any
//! value in O(1), and the parse keeps its open arrays and objects on a stack
//! instead of recursing. Strings are borrowed from the input unless they
//! contain an escape. The decoders in [`crate::cert`] walk the tape through
//! the [`JsonRef`] view, looking members up by name, so member order,
//! whitespace and unknown members do not matter to them.
//!
//! The reader is strict. It rejects:
//!
//! - numbers that are not integers within `i64` (`1.5`, `1e3`, 2^63);
//! - raw control characters inside strings (only their escapes are JSON);
//! - unpaired `\u` surrogates and unknown escapes;
//! - a member name repeated within one object;
//! - anything but whitespace after the document.

use std::borrow::Cow;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends `s` as a JSON string literal.
///
/// `"` and `\` are escaped, as are control characters: `\n`, `\r` and `\t`
/// by name, the rest as `\u00xx`. Everything else, multibyte characters
/// included, is copied verbatim in runs.
pub fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // `byte` is ASCII, so `i` is a character boundary.
        out.push_str(&s[run..i]);
        run = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends an integer in decimal.
pub fn write_int(out: &mut String, n: i64) {
    let _ = write!(out, "{n}");
}

/// Appends `[item,item,…]`, writing each item with `write`.
pub fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// One value on a [`Tape`]. An array or object is followed by its `len`
/// content tokens: its elements, or its members as alternating name and
/// value tokens.
#[derive(Debug)]
enum Token<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Str(Cow<'a, str>),
    Arr { len: usize },
    Obj { len: usize },
}

/// A validated JSON document: its values as one flat token list, with
/// strings borrowed from the text they were read from.
#[derive(Debug)]
pub struct Tape<'a> {
    tokens: Vec<Token<'a>>,
}

impl<'a> Tape<'a> {
    /// Reads and validates a complete document; trailing non-whitespace is
    /// an error.
    pub fn parse(text: &'a str) -> Result<Tape<'a>, JsonError> {
        // Certificates average about one token per seven bytes.
        let tokens = Vec::with_capacity(text.len() / 6 + 8);
        Reader { text, bytes: text.as_bytes(), pos: 0, tokens }.document()
    }

    /// The document's top-level value.
    pub fn root(&self) -> JsonRef<'_> {
        // A parsed tape holds at least one value.
        read_value(&self.tokens).map_or(JsonRef::Null, |(value, _)| value)
    }
}

/// The value at the front of `tokens`, and the tokens after it and its
/// contents.
fn read_value<'t>(tokens: &'t [Token<'t>]) -> Option<(JsonRef<'t>, &'t [Token<'t>])> {
    let (first, rest) = tokens.split_first()?;
    Some(match first {
        Token::Null => (JsonRef::Null, rest),
        Token::Bool(b) => (JsonRef::Bool(*b), rest),
        Token::Int(n) => (JsonRef::Int(*n), rest),
        Token::Str(s) => (JsonRef::Str(s), rest),
        Token::Arr { len } => {
            let (contents, rest) = rest.split_at(*len);
            (JsonRef::Arr(Elements { rest: contents }), rest)
        }
        Token::Obj { len } => {
            let (contents, rest) = rest.split_at(*len);
            (JsonRef::Obj(Members { rest: contents }), rest)
        }
    })
}

/// A borrowed view of one value of a [`Tape`].
#[derive(Debug, Clone, Copy)]
pub enum JsonRef<'t> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number.
    Int(i64),
    /// A string.
    Str(&'t str),
    /// An array.
    Arr(Elements<'t>),
    /// An object.
    Obj(Members<'t>),
}

impl<'t> JsonRef<'t> {
    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(self) -> Option<i64> {
        match self {
            JsonRef::Int(n) => Some(n),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(self) -> Option<&'t str> {
        match self {
            JsonRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the bool payload, if this is a `Bool`.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            JsonRef::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the elements, if this is an `Arr`.
    pub fn as_array(self) -> Option<Elements<'t>> {
        match self {
            JsonRef::Arr(elements) => Some(elements),
            _ => None,
        }
    }

    /// Returns the members, if this is an `Obj`.
    pub fn as_object(self) -> Option<Members<'t>> {
        match self {
            JsonRef::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Looks up a member of an object by name (names are unique on a tape).
    pub fn get(self, name: &str) -> Option<JsonRef<'t>> {
        self.as_object()?.find(|(key, _)| *key == name).map(|(_, value)| value)
    }
}

/// The elements of an array, in order.
#[derive(Debug, Clone, Copy)]
pub struct Elements<'t> {
    rest: &'t [Token<'t>],
}

impl<'t> Iterator for Elements<'t> {
    type Item = JsonRef<'t>;

    fn next(&mut self) -> Option<JsonRef<'t>> {
        let (value, rest) = read_value(self.rest)?;
        self.rest = rest;
        Some(value)
    }
}

/// The members of an object as `(name, value)` pairs, in document order.
#[derive(Debug, Clone, Copy)]
pub struct Members<'t> {
    rest: &'t [Token<'t>],
}

impl<'t> Iterator for Members<'t> {
    type Item = (&'t str, JsonRef<'t>);

    fn next(&mut self) -> Option<(&'t str, JsonRef<'t>)> {
        let (Token::Str(name), rest) = self.rest.split_first()? else { return None };
        let (value, rest) = read_value(rest)?;
        self.rest = rest;
        Some((name, value))
    }
}

/// A JSON parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The length of the longest prefix of `bytes` free of `"`, `\` and control
/// bytes, found eight bytes at a time.
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // Flags the bytes of `word` below `n` (n <= 0x80). Borrows only run
    // upwards, so the lowest flag always marks a real match.
    let below = |word: u64, n: u64| word.wrapping_sub(ONES * n) & !word & HIGHS;
    let mut run = 0;
    while let Some(chunk) = bytes.get(run..run + 8) {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        let word = u64::from_le_bytes(word);
        let stops = below(word ^ (ONES * u64::from(b'"')), 1)
            | below(word ^ (ONES * u64::from(b'\\')), 1)
            | below(word, 0x20);
        if stops != 0 {
            return run + (stops.trailing_zeros() / 8) as usize;
        }
        run += 8;
    }
    let tail = &bytes[run..];
    run + tail.iter().position(|&b| matches!(b, b'"' | b'\\') || b < 0x20).unwrap_or(tail.len())
}

/// An array or object whose closing bracket has not been read yet.
struct Open {
    /// Its token index.
    token: usize,
    /// For an object, where its member names start on the name stack.
    names: Option<usize>,
}

struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    tokens: Vec<Token<'a>>,
}

impl<'a> Reader<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Reads the whole document. Open arrays and objects live on an explicit
    /// stack, so nesting depth costs heap, not call stack.
    fn document(mut self) -> Result<Tape<'a>, JsonError> {
        let mut open: Vec<Open> = Vec::with_capacity(32);
        // Token indices of the member names of every open object.
        let mut names: Vec<usize> = Vec::with_capacity(32);
        'value: loop {
            self.skip_ws();
            match self.peek() {
                Some(b'[') => {
                    self.pos += 1;
                    open.push(Open { token: self.tokens.len(), names: None });
                    self.tokens.push(Token::Arr { len: 0 });
                    self.skip_ws();
                    if self.peek() != Some(b']') {
                        continue 'value;
                    }
                }
                Some(b'{') => {
                    self.pos += 1;
                    open.push(Open { token: self.tokens.len(), names: Some(names.len()) });
                    self.tokens.push(Token::Obj { len: 0 });
                    self.skip_ws();
                    if self.peek() != Some(b'}') {
                        self.member_name(&mut names)?;
                        continue 'value;
                    }
                }
                _ => self.scalar()?,
            }
            // A value is complete: close what ends here, then find the next
            // value or the end of the document.
            loop {
                self.skip_ws();
                let Some(innermost) = open.last() else { break 'value };
                let in_object = innermost.names.is_some();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        if in_object {
                            self.skip_ws();
                            self.member_name(&mut names)?;
                        }
                        continue 'value;
                    }
                    Some(b']') if !in_object => self.pos += 1,
                    Some(b'}') if in_object => self.pos += 1,
                    _ if in_object => return Err(self.err("expected ',' or '}'")),
                    _ => return Err(self.err("expected ',' or ']'")),
                }
                let Some(closed) = open.pop() else { break 'value };
                let len = self.tokens.len() - closed.token - 1;
                if let Token::Arr { len: slot } | Token::Obj { len: slot } =
                    &mut self.tokens[closed.token]
                {
                    *slot = len;
                }
                if let Some(start) = closed.names {
                    self.check_unique(&mut names[start..])?;
                    names.truncate(start);
                }
            }
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(Tape { tokens: self.tokens })
    }

    /// Reads `"name":` inside an object and records the name's token.
    fn member_name(&mut self, names: &mut Vec<usize>) -> Result<(), JsonError> {
        names.push(self.tokens.len());
        let name = self.string()?;
        self.tokens.push(Token::Str(name));
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.err("expected ':'"));
        }
        self.pos += 1;
        Ok(())
    }

    /// Fails if two of one object's member names (token indices) are equal.
    fn check_unique(&self, names: &mut [usize]) -> Result<(), JsonError> {
        let name = |index: usize| match &self.tokens[index] {
            Token::Str(name) => name.as_ref(),
            _ => "",
        };
        names.sort_unstable_by(|&a, &b| name(a).cmp(name(b)));
        match names.windows(2).find(|pair| name(pair[0]) == name(pair[1])) {
            Some(pair) => Err(self.err(format!("duplicate member name `{}`", name(pair[0])))),
            None => Ok(()),
        }
    }

    fn scalar(&mut self) -> Result<(), JsonError> {
        let token = match self.peek() {
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'"') => Token::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => Token::Int(self.number()?),
            _ => return Err(self.err("expected a JSON value")),
        };
        self.tokens.push(token);
        Ok(())
    }

    fn literal(&mut self, text: &str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(token)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    /// Reads a string literal: borrowed from the input when it has no
    /// escape, decoded into an owned `String` otherwise.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        let mut decoded: Option<String> = None;
        loop {
            // Every stop byte is ASCII, so the run before it ends on a
            // character boundary of the (valid UTF-8) input.
            let start = self.pos;
            self.pos += plain_run(&self.bytes[start..]);
            let text = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(text),
                        Some(mut owned) => {
                            owned.push_str(text);
                            Cow::Owned(owned)
                        }
                    });
                }
                Some(b'\\') => {
                    let owned = decoded.get_or_insert_with(String::new);
                    owned.push_str(text);
                    self.pos += 1;
                    owned.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(esc) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let first = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&first) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let second = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&second) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                } else {
                    first
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.err("truncated \\u escape"));
        };
        let mut value = 0;
        for &digit in digits {
            let nibble =
                char::from(digit).to_digit(16).ok_or_else(|| self.err("invalid \\u escape"))?;
            value = value * 16 + nibble;
        }
        self.pos += 4;
        Ok(value)
    }

    fn number(&mut self) -> Result<i64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("non-integer numbers are not allowed in certificates"));
        }
        self.text[start..self.pos].parse::<i64>().map_err(|_| self.err("integer out of i64 range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Tape<'_>, JsonError> {
        Tape::parse(text)
    }

    fn string(text: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, text);
        out
    }

    #[test]
    fn round_trips_nested_documents() {
        let mut text = String::new();
        text.push_str("{\"a\":");
        write_int(&mut text, -42);
        text.push_str(",\"b\":");
        write_array(&mut text, 0..3, |out, i| match i {
            0 => out.push_str("null"),
            1 => out.push_str("true"),
            _ => write_str(out, "x\"\n"),
        });
        text.push('}');
        assert_eq!(text, r#"{"a":-42,"b":[null,true,"x\"\n"]}"#);

        let tape = parse(&text).unwrap();
        let root = tape.root();
        assert_eq!(root.get("a").and_then(JsonRef::as_int), Some(-42));
        let items: Vec<_> = root.get("b").and_then(JsonRef::as_array).unwrap().collect();
        assert!(matches!(items.as_slice(), [JsonRef::Null, JsonRef::Bool(true), JsonRef::Str(_)]));
        assert_eq!(items[2].as_str(), Some("x\"\n"));
        assert!(root.get("c").is_none());
    }

    #[test]
    fn writes_integers_across_the_i64_range() {
        for n in [0, 7, -7, 10, 1_000_000, i64::MAX, i64::MIN] {
            let mut out = String::new();
            write_int(&mut out, n);
            assert_eq!(out, n.to_string());
            assert_eq!(parse(&out).unwrap().root().as_int(), Some(n));
        }
    }

    #[test]
    fn rejects_floats_and_trailing_garbage() {
        assert!(parse("1.5").is_err());
        assert!(parse("1e3").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("9223372036854775808").is_err());
        assert_eq!(parse("-9223372036854775808").unwrap().root().as_int(), Some(i64::MIN));
    }

    #[test]
    fn parses_escapes_and_surrogate_pairs() {
        let tape = parse("\"\\u00e9\\ud83d\\ude00\\t\\/\"").unwrap();
        assert_eq!(tape.root().as_str(), Some("\u{e9}\u{1F600}\t/"));
        assert!(parse("\"\\ud83d\"").is_err());
        assert!(parse("\"\\ud83d\\u0041\"").is_err());
        assert!(parse("\"\\ude00\"").is_err());
        assert!(parse("\"\\u00g1\"").is_err());
        assert!(parse("\"\\u+041\"").is_err());
        assert!(parse("\"\\q\"").is_err());
        // The writer names \n, \r and \t and spells other controls in hex.
        let controls = "\"\\\n\r\t\u{1}\u{1f}";
        assert_eq!(string(controls), r#""\"\\\n\r\t\u0001\u001f""#);
        assert_eq!(parse(&string(controls)).unwrap().root().as_str(), Some(controls));
    }

    #[test]
    fn parses_raw_multibyte_characters_in_keys_and_values() {
        let text = "{\"é€😀\":\"aé€😀z\",\"k\":[\"😀\",\"€\\n\"]}";
        let tape = parse(text).unwrap();
        let root = tape.root();
        assert_eq!(root.get("é€😀").and_then(JsonRef::as_str), Some("aé€😀z"));
        let items: Vec<_> =
            root.get("k").and_then(JsonRef::as_array).unwrap().map(JsonRef::as_str).collect();
        assert_eq!(items, [Some("😀"), Some("€\n")]);
        // The writer copies multibyte text verbatim.
        assert_eq!(string("aé€😀z"), "\"aé€😀z\"");
        // Raw control characters stay rejected, also after a multibyte run.
        assert!(parse("\"é\u{1}\"").is_err());
        assert!(parse("\"€\n\"").is_err());
    }

    #[test]
    fn strings_are_borrowed_unless_escaped() {
        let tape = parse(r#"["plain","esc\"aped"]"#).unwrap();
        assert!(matches!(&tape.tokens[1], Token::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&tape.tokens[2], Token::Str(Cow::Owned(s)) if s == "esc\"aped"));
    }

    #[test]
    fn containers_skip_their_contents() {
        let tape = parse(r#"[{"a":[1,[2]],"b":{}},3,[]]"#).unwrap();
        let items: Vec<_> = tape.root().as_array().unwrap().collect();
        assert_eq!(items.len(), 3);
        let object = items[0];
        let names: Vec<_> = object.as_object().unwrap().map(|(name, _)| name).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(object.get("b").unwrap().as_object().unwrap().count(), 0);
        assert_eq!(items[1].as_int(), Some(3));
        assert_eq!(items[2].as_array().unwrap().count(), 0);
    }

    #[test]
    fn parses_deep_nesting_without_recursion() {
        let depth = 100_000;
        let text = format!("{}1{}", "[{\"a\":".repeat(depth), "}]".repeat(depth));
        let tape = parse(&text).unwrap();
        assert_eq!(tape.tokens.len(), 3 * depth + 1);
        assert!(parse(&text[..text.len() - 1]).is_err());
    }

    #[test]
    fn rejects_duplicate_member_names() {
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse(r#"{"a":1,"b":{"c":1,"d":2,"c":3}}"#).is_err());
        // An escape does not disguise a repeated name.
        assert!(parse(r#"{"a":1,"\u0061":2}"#).is_err());
        // The same name in different objects is fine.
        assert!(parse(r#"{"a":{"a":1},"b":[{"a":1},{"a":2}]}"#).is_ok());
    }

    #[test]
    fn rejects_malformed_structure() {
        for bad in [
            "",
            "[",
            "]",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{1:2}",
            "[}",
            "{]",
            "\"open",
            "nul",
            "-",
            "[1]]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(parse(" \n[ 1 , { \"a\" : [ ] } ]\t").is_ok());
    }

    #[test]
    fn plain_run_stops_where_a_bytewise_scan_does() {
        // Every stop byte at every offset behind runs of ASCII and of
        // multibyte characters (whose bytes include 0xa2 = 0x80 | '"' and
        // 0xdc = 0x80 | '\\'), so both the eight-byte words and the tail
        // are exercised.
        for filler in ["a", " ", "]", "\u{7f}", "é", "¢", "\u{71c}", "€", "😀"] {
            for len in 0..20 {
                for stop in ["\"", "\\", "\u{0}", "\n", "\u{1f}", ""] {
                    let text = format!("{}{stop}tail", filler.repeat(len));
                    let bytewise = text
                        .bytes()
                        .position(|b| matches!(b, b'"' | b'\\') || b < 0x20)
                        .unwrap_or(text.len());
                    assert_eq!(plain_run(text.as_bytes()), bytewise, "{text:?}");
                }
            }
        }
    }

    #[test]
    fn parses_a_one_mebibyte_string_in_linear_time() {
        // 2^18 four-byte characters: 1 MiB of raw UTF-8 in one value. A
        // parse that re-validates the rest of the document per character
        // takes minutes here; a linear one takes milliseconds.
        let big = "😀".repeat(1 << 18);
        let start = std::time::Instant::now();
        let text = format!("\"{big}\"");
        assert_eq!(parse(&text).unwrap().root().as_str(), Some(big.as_str()));
        assert!(start.elapsed() < std::time::Duration::from_secs(10), "{:?}", start.elapsed());
    }
}
