//! The workspace's one JSON codec: a reader with byte offsets and a
//! writer, shared by the batch manifest, the serve wire, the fault-spec
//! schema and every report emitter (re-exported as `polar_gb::json`).
//!
//! Reader ([`Json::parse`]): a single pass over the bytes that keeps the
//! offset of every value so schema errors can point at the token. It
//! accepts RFC 8259 JSON — the `\" \\ \/ \b \f \n \r \t` escapes and
//! `\uXXXX` with surrogate pairs — and rejects, with a [`JsonError`]
//! naming the byte: a duplicate object key (at the second key), nesting
//! deeper than [`MAX_DEPTH`], a lone surrogate, a number outside the
//! grammar (`-`, `01`) or outside `f64` (`1e999`), and trailing content.
//! Non-negative integers below 2^64 stay exact ([`Json::Int`]); the
//! `as_u32`/`as_u64`/`as_usize` accessors range-check instead of casting.
//!
//! Writer ([`JsonWriter`]): appends to one `String`, escapes through one
//! function, prints integers as integers and non-finite floats as `null`.
//! Whatever the writer emits the reader accepts, and
//! `parse(v.to_string()) == v` for every parsed `v`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest accepted nesting of arrays and objects. Manifests and reports
/// nest four deep; the constant bound turns `[[[[…` into an error at a
/// known offset instead of a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// A rejected document or value: what was wrong, and at which byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the parsed text.
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value. Every variant carries the byte offset of its
/// first character; equality ignores the offsets.
#[derive(Debug, Clone)]
pub enum Json {
    Object(BTreeMap<String, Json>, usize),
    Array(Vec<Json>, usize),
    String(String, usize),
    /// A number token whose value is a non-negative integer below 2^64,
    /// kept exact (`7`, `18446744073709551615`, but also `5.0` and `1e3`).
    Int(u64, usize),
    /// Any other (finite) number.
    Number(f64, usize),
    Bool(bool, usize),
    Null(usize),
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Object(a, _), Json::Object(b, _)) => a == b,
            (Json::Array(a, _), Json::Array(b, _)) => a == b,
            (Json::String(a, _), Json::String(b, _)) => a == b,
            (Json::Int(a, _), Json::Int(b, _)) => a == b,
            (Json::Number(a, _), Json::Number(b, _)) => a == b,
            (Json::Bool(a, _), Json::Bool(b, _)) => a == b,
            (Json::Null(_), Json::Null(_)) => true,
            _ => false,
        }
    }
}

impl Json {
    /// Parse one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return p.fail(p.pos, "trailing content after the JSON value");
        }
        Ok(v)
    }

    /// Byte offset of the value's first character in the parsed text.
    pub fn offset(&self) -> usize {
        match self {
            Json::Object(_, at)
            | Json::Array(_, at)
            | Json::String(_, at)
            | Json::Int(_, at)
            | Json::Number(_, at)
            | Json::Bool(_, at)
            | Json::Null(at) => *at,
        }
    }

    /// An error pointing at this value.
    pub fn error(&self, message: String) -> JsonError {
        JsonError {
            offset: self.offset(),
            message,
        }
    }

    /// Member `key` of an object; `None` for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m, _) => m.get(key),
            _ => None,
        }
    }

    pub fn as_object(&self, what: &str) -> Result<&BTreeMap<String, Json>, JsonError> {
        match self {
            Json::Object(m, _) => Ok(m),
            _ => Err(self.error(format!("{what} must be an object"))),
        }
    }

    pub fn as_array(&self, what: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(v, _) => Ok(v),
            _ => Err(self.error(format!("{what} must be an array"))),
        }
    }

    pub fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Json::String(s, _) => Ok(s),
            _ => Err(self.error(format!("{what} must be a string"))),
        }
    }

    pub fn as_f64(&self, what: &str) -> Result<f64, JsonError> {
        match self {
            Json::Int(n, _) => Ok(*n as f64),
            Json::Number(x, _) => Ok(*x),
            _ => Err(self.error(format!("{what} must be a number"))),
        }
    }

    pub fn as_bool(&self, what: &str) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b, _) => Ok(*b),
            _ => Err(self.error(format!("{what} must be a boolean"))),
        }
    }

    pub fn as_u64(&self, what: &str) -> Result<u64, JsonError> {
        match self {
            Json::Int(n, _) => Ok(*n),
            Json::Number(x, _) => {
                Err(self.error(format!("{what} must be a non-negative integer, got {x}")))
            }
            _ => Err(self.error(format!("{what} must be a non-negative integer"))),
        }
    }

    pub fn as_u32(&self, what: &str) -> Result<u32, JsonError> {
        let n = self.as_u64(what)?;
        u32::try_from(n)
            .map_err(|_| self.error(format!("{what} must be at most {}, got {n}", u32::MAX)))
    }

    pub fn as_usize(&self, what: &str) -> Result<usize, JsonError> {
        let n = self.as_u64(what)?;
        usize::try_from(n)
            .map_err(|_| self.error(format!("{what} must be at most {}, got {n}", usize::MAX)))
    }

    /// Append this value to `w`.
    pub fn write_to(&self, w: &mut JsonWriter) {
        match self {
            Json::Object(m, _) => {
                w.begin_object();
                for (k, v) in m {
                    w.key(k);
                    v.write_to(w);
                }
                w.end_object()
            }
            Json::Array(items, _) => {
                w.begin_array();
                for v in items {
                    v.write_to(w);
                }
                w.end_array()
            }
            Json::String(s, _) => w.str(s),
            Json::Int(n, _) => w.u64(*n),
            Json::Number(x, _) => w.f64(*x),
            Json::Bool(b, _) => w.bool(*b),
            Json::Null(_) => w.null(),
        };
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = JsonWriter::new();
        self.write_to(&mut w);
        f.write_str(&w.finish())
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, offset: usize, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            offset,
            message: message.to_string(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        let at = self.pos;
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                self.fail(at, &format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::String(self.string()?, at)),
            Some(b't') => self.literal("true", Json::Bool(true, at)),
            Some(b'f') => self.literal("false", Json::Bool(false, at)),
            Some(b'n') => self.literal("null", Json::Null(at)),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(c) => self.fail(at, &format!("unexpected byte {:?}", c as char)),
            None => self.fail(at, "unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.fail(self.pos, &format!("expected {word:?}"))
        }
    }

    /// Skip a run of ASCII digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && !leading_zero);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        let token = &self.text[start..self.pos];
        if let (true, Ok(n)) = (ok, token.parse::<u64>()) {
            return Ok(Json::Int(n, start));
        }
        match token.parse::<f64>() {
            Ok(x) if ok && x.is_finite() => {
                // 2^64 as f64; an integral f64 below it converts exactly.
                if (0.0..18_446_744_073_709_551_616.0).contains(&x) && x.fract() == 0.0 {
                    Ok(Json::Int(x as u64, start))
                } else {
                    Ok(Json::Number(x, start))
                }
            }
            _ => self.fail(start, "malformed number"),
        }
    }

    /// Four hex digits at the cursor.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()));
        match digits {
            Some(h) => {
                self.pos += 4;
                Ok(u32::from_str_radix(h, 16).expect("four hex digits"))
            }
            None => self.fail(self.pos, "expected four hex digits after \\u"),
        }
    }

    /// The code point of a `\uXXXX` escape (cursor just past the `u`),
    /// joining a surrogate pair; `at` is the backslash, for errors.
    fn unicode_escape(&mut self, at: usize) -> Result<char, JsonError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text.as_bytes()[self.pos..].starts_with(b"\\u")
        {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return self.fail(at, "lone surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        match char::from_u32(code) {
            Some(c) => Ok(c),
            None => self.fail(at, "lone surrogate in \\u escape"),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash. Both are
            // ASCII, so the slice ends on a character boundary.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            let at = self.pos;
            self.pos += 1;
            match self.text.as_bytes().get(at) {
                None => return self.fail(at, "unterminated string"),
                Some(b'"') => return Ok(out),
                Some(_) => {}
            }
            let Some(esc) = self.peek() else {
                return self.fail(self.pos, "dangling escape");
            };
            self.pos += 1;
            out.push(match esc {
                b'"' | b'\\' | b'/' => esc as char,
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode_escape(at)?,
                _ => return self.fail(self.pos - 1, "unsupported escape sequence"),
            });
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        let at = self.pos;
        self.pos += 1; // '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map, at));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            if self.peek() != Some(b'"') {
                return self.fail(key_at, "expected a string key");
            }
            let key = self.string()?;
            if map.contains_key(&key) {
                return self.fail(key_at, &format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            if self.peek() != Some(b':') {
                return self.fail(self.pos, "expected ':' after key");
            }
            self.pos += 1;
            map.insert(key, self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map, at));
                }
                _ => return self.fail(self.pos, "expected ',' or '}' in object"),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        let at = self.pos;
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items, at));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items, at));
                }
                _ => return self.fail(self.pos, "expected ',' or ']' in array"),
            }
        }
    }
}

/// Streaming JSON writer over one `String`. Commas are placed by the
/// writer; the caller only brackets containers and alternates
/// [`key`](JsonWriter::key) with a value inside objects.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
}

impl JsonWriter {
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// A comma, unless the cursor is at the start of the document or of
    /// a container, or just past a key. (A finished value never ends in
    /// `{`, `[` or `:` — strings end in their closing quote.)
    fn separate(&mut self) {
        if !matches!(self.out.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.out.push(',');
        }
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.separate();
        self.out.push('{');
        self
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.out.push('}');
        self
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.separate();
        self.out.push('[');
        self
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(']');
        self
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        escape_into(&mut self.out, key);
        self.out.push(':');
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.separate();
        escape_into(&mut self.out, s);
        self
    }

    pub fn u64(&mut self, n: u64) -> &mut Self {
        self.separate();
        write!(self.out, "{n}").expect("writing to a String cannot fail");
        self
    }

    /// Shortest round-trip decimal (`0.25`, `-12`, `0.0000001`); `null`
    /// for NaN and the infinities, which JSON cannot spell.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        if !x.is_finite() {
            return self.null();
        }
        self.separate();
        write!(self.out, "{x}").expect("writing to a String cannot fail");
        self
    }

    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.raw(if b { "true" } else { "false" })
    }

    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// A value already rendered by a `JsonWriter` (a nested report).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.separate();
        self.out.push_str(json);
        self
    }

    pub fn finish(self) -> String {
        self.out
    }
}

/// The one string escaper: quotes `s` into `out`. `"` `\` and the C0
/// controls are escaped (`\n` `\r` `\t` by name, the rest as `\u00XX`);
/// everything else, non-ASCII included, is written as is.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
