//! The workspace's one JSON implementation: the single-line object
//! writer every results stream is emitted with, the string escaper, and a
//! recursive-descent parser for reading those streams back.
//!
//! Kept dependency-free on purpose — the workspace must build with zero
//! registry access, so no serde. The writer emits flat objects with keys
//! in insertion order; the parser accepts the full JSON grammar (objects,
//! arrays, strings with escapes, numbers, literals) and keeps numbers as
//! `f64`, which is exact for every integer up to 2^53.

/// An incremental single-line JSON object builder.
///
/// Keys appear in call order. `f64` values are emitted via Rust's
/// shortest-roundtrip formatting; non-finite floats become `null` (JSON
/// has no NaN/Infinity). The methods are `#[inline]` because the
/// emitters live in other crates and the release profile has no LTO.
#[derive(Debug, Clone)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Starts an empty object.
    #[inline]
    pub fn new() -> JsonObj {
        JsonObj { buf: String::from("{") }
    }

    #[inline]
    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Adds a string field (escaped).
    #[inline]
    pub fn str(mut self, k: &str, v: &str) -> JsonObj {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    #[inline]
    pub fn u64(mut self, k: &str, v: u64) -> JsonObj {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a float field (`null` if non-finite).
    #[inline]
    pub fn f64(mut self, k: &str, v: f64) -> JsonObj {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    #[inline]
    pub fn bool(mut self, k: &str, v: bool) -> JsonObj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds an optional unsigned field (`null` when absent).
    #[inline]
    pub fn opt_u64(mut self, k: &str, v: Option<u64>) -> JsonObj {
        self.key(k);
        match v {
            Some(v) => self.buf.push_str(&v.to_string()),
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Adds an optional float field (`null` when absent or non-finite).
    #[inline]
    pub fn opt_f64(self, k: &str, v: Option<f64>) -> JsonObj {
        match v {
            Some(v) => self.f64(k, v),
            None => {
                let mut s = self;
                s.key(k);
                s.buf.push_str("null");
                s
            }
        }
    }

    /// Closes the object and returns the line (no trailing newline).
    #[inline]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> JsonObj {
        JsonObj::new()
    }
}

/// Appends `s` to `buf` with JSON string escaping (no surrounding
/// quotes).
#[inline]
pub fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => buf.push_str(&format!("\\u{:04x}", c as u32)),
            c => buf.push(c),
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
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

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The number as `u64`, if it is a non-negative integer that `f64`
    /// holds exactly (at most 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) => Some(n as u64),
            _ => None,
        }
    }
}

/// Parses one JSON document. Errors carry a byte offset and reason.
pub fn parse(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => Ok(Json::Str(string(b, i)?)),
        Some(b't') => literal(b, i, "true", Json::Bool(true)),
        Some(b'f') => literal(b, i, "false", Json::Bool(false)),
        Some(b'n') => literal(b, i, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        _ => Err(format!("unexpected byte at {i}")),
    }
}

fn literal(b: &[u8], i: &mut usize, text: &str, v: Json) -> Result<Json, String> {
    if b[*i..].starts_with(text.as_bytes()) {
        *i += text.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<Json, String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    while *i < b.len() && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *i += 1;
    }
    std::str::from_utf8(&b[start..*i])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
    *i += 1; // `"`
    let mut out = Vec::new();
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return String::from_utf8(out).map_err(|_| "invalid utf8 in string".into());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let hex = b
                            .get(*i + 1..*i + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(format!("bad \\u escape at byte {i}"))?;
                        // Surrogate pairs don't occur in our own output;
                        // map unpaired surrogates to the replacement char.
                        let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *i += 4;
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
                *i += 1;
            }
            c => {
                out.push(c);
                *i += 1;
            }
        }
    }
    Err("unterminated string".into())
}

fn object(b: &[u8], i: &mut usize) -> Result<Json, String> {
    *i += 1; // `{`
    let mut fields = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected key at byte {i}"));
        }
        let key = string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected `:` at byte {i}"));
        }
        *i += 1;
        let v = value(b, i)?;
        if !fields.iter().any(|(k, _): &(String, Json)| *k == key) {
            fields.push((key, v));
        }
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {i}")),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<Json, String> {
    *i += 1; // `[`
    let mut items = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(value(b, i)?);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {i}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_flat_object_in_key_order() {
        let line = JsonObj::new()
            .str("design", "Bumblebee")
            .u64("cycles", 42)
            .f64("ipc", 1.5)
            .bool("ok", true)
            .opt_u64("faults", None)
            .opt_f64("overfetch", Some(0.25))
            .finish();
        assert_eq!(
            line,
            r#"{"design":"Bumblebee","cycles":42,"ipc":1.5,"ok":true,"faults":null,"overfetch":0.25}"#
        );
    }

    #[test]
    fn escapes_strings_and_rejects_nan() {
        let line = JsonObj::new().str("s", "a\"b\\c\nd").f64("x", f64::NAN).finish();
        assert_eq!(line, r#"{"s":"a\"b\\c\nd","x":null}"#);
    }

    #[test]
    fn empty_object_is_braces() {
        assert_eq!(JsonObj::new().finish(), "{}");
    }

    #[test]
    fn escapes_control_characters_and_passes_non_ascii_through() {
        let line = JsonObj::new().str("s", "bell\u{0007} nul\u{0000} Ünïcode 模块").finish();
        assert_eq!(line, "{\"s\":\"bell\\u0007 nul\\u0000 Ünïcode 模块\"}");
        // Escaped keys too.
        let keyed = JsonObj::new().u64("a\tb", 1).finish();
        assert_eq!(keyed, "{\"a\\tb\":1}");
    }

    #[test]
    fn parse_roundtrips_builder_output() {
        let line = JsonObj::new()
            .str("s", "a\"b\\c\nd\u{0007} Ünïcode 模块\t\r\u{1}")
            .u64("n", 42)
            .f64("x", 1.5)
            .bool("ok", true)
            .opt_u64("gone", None)
            .finish();
        let Json::Obj(fields) = parse(&line).unwrap() else { panic!("not an object") };
        assert_eq!(fields.len(), 5);
        assert_eq!(fields[0].0, "s");
        assert_eq!(fields[0].1.as_str(), Some("a\"b\\c\nd\u{0007} Ünïcode 模块\t\r\u{1}"));
        assert_eq!(fields[1].1.as_u64(), Some(42));
        assert_eq!(fields[2].1.as_f64(), Some(1.5));
        assert_eq!(fields[3].1, Json::Bool(true));
        assert_eq!(fields[4].1, Json::Null);
    }

    #[test]
    fn parse_handles_structure_unicode_escapes_and_rejects_junk() {
        let src = r#"{"a": [1, 2.5, -3], "s": "line\nbreak \"q\" \\", "b": true, "n": null}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("s").unwrap().as_str(), Some("line\nbreak \"q\" \\"));
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
        let v = parse(r#"{ "k" : "Aé" , "v" : -2.5e1 }"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("Aé"));
        assert_eq!(v.get("v").unwrap().as_f64(), Some(-25.0));
        assert_eq!(parse("{}"), Ok(Json::Obj(Vec::new())));
        assert!(parse("").is_err());
        assert!(parse("{\"a\":1").is_err(), "unterminated");
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1, ]").is_err());
        assert!(parse("{\"a\":nul}").is_err());
    }

    #[test]
    fn as_u64_is_exact_up_to_2_pow_53() {
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("9007199254740994").unwrap().as_u64(), None, "past 2^53 f64 is inexact");
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("\"7\"").unwrap().as_u64(), None);
    }
}
