//! Hand-rolled JSON-lines output for machine-readable results.
//!
//! Every figure run writes `results/<figure>.jsonl` next to its text
//! table: one JSON object per line, flat keys, stable key order (the
//! insertion order of the builder). Kept dependency-free on purpose —
//! the workspace must build with zero registry access, so no serde.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// An incremental single-line JSON object builder.
///
/// Keys appear in call order. `f64` values are emitted via Rust's
/// shortest-roundtrip formatting; non-finite floats become `null` (JSON
/// has no NaN/Infinity).
#[derive(Debug, Clone)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> JsonObj {
        JsonObj { buf: String::from("{") }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, k: &str, v: &str) -> JsonObj {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> JsonObj {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a float field (`null` if non-finite).
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
    pub fn bool(mut self, k: &str, v: bool) -> JsonObj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds an optional unsigned field (`null` when absent).
    pub fn opt_u64(mut self, k: &str, v: Option<u64>) -> JsonObj {
        self.key(k);
        match v {
            Some(v) => self.buf.push_str(&v.to_string()),
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Adds an optional float field (`null` when absent or non-finite).
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

/// Appends `s` to `buf` with JSON string escaping.
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

/// A value in a flat JSON line (no nested objects or arrays — all this
/// module ever emits).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, held as `f64` (integers up to 2^53 round-trip exactly).
    Num(f64),
    /// A string, unescaped.
    Str(String),
}

impl JsonValue {
    /// The number, when this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The number as an unsigned integer, when it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::Num(v) if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one flat JSON object line (as produced by [`JsonObj`]) into its
/// key/value pairs in document order. Returns `None` on malformed input or
/// nested structure — this is the read side of the results format, not a
/// general JSON parser.
pub fn parse_flat(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut p = Parser { chars: line.chars().peekable() };
    p.eat('{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.chars.peek() == Some(&'}') {
        p.chars.next();
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.eat(':')?;
            fields.push((key, p.value()?));
            p.skip_ws();
            match p.chars.next()? {
                ',' => continue,
                '}' => break,
                _ => return None,
            }
        }
    }
    p.skip_ws();
    if p.chars.next().is_some() {
        return None;
    }
    Some(fields)
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> Option<()> {
        self.skip_ws();
        (self.chars.next()? == want).then_some(())
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Option<JsonValue> {
        for want in word.chars() {
            if self.chars.next()? != want {
                return None;
            }
        }
        Some(v)
    }

    fn string(&mut self) -> Option<String> {
        if self.chars.next()? != '"' {
            return None;
        }
        let mut s = String::new();
        loop {
            match self.chars.next()? {
                '"' => return Some(s),
                '\\' => match self.chars.next()? {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'b' => s.push('\u{0008}'),
                    'f' => s.push('\u{000c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + self.chars.next()?.to_digit(16)?;
                        }
                        s.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => s.push(c),
            }
        }
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match self.chars.peek()? {
            '"' => Some(JsonValue::Str(self.string()?)),
            't' => self.literal("true", JsonValue::Bool(true)),
            'f' => self.literal("false", JsonValue::Bool(false)),
            'n' => self.literal("null", JsonValue::Null),
            '-' | '0'..='9' => {
                let mut num = String::new();
                while matches!(
                    self.chars.peek(),
                    Some('-' | '+' | '.' | 'e' | 'E' | '0'..='9')
                ) {
                    num.push(self.chars.next().expect("peeked"));
                }
                num.parse().ok().map(JsonValue::Num)
            }
            _ => None,
        }
    }
}

/// Writes `lines` to `dir/<name>.jsonl` (creating `dir` as needed) and
/// returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_jsonl(dir: &Path, name: &str, lines: &[String]) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    let mut body = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        body.push_str(line);
        body.push('\n');
    }
    fs::write(&path, body)?;
    Ok(path)
}

/// The default artifact directory: `$BUMBLEBEE_RESULTS_DIR` or
/// `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("BUMBLEBEE_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
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
    fn parse_flat_roundtrips_builder_output() {
        let line = JsonObj::new()
            .str("s", "a\"b\\c\nd\u{0007} Ünïcode 模块")
            .u64("n", 42)
            .f64("x", 1.5)
            .bool("ok", true)
            .opt_u64("gone", None)
            .finish();
        let fields = parse_flat(&line).unwrap();
        assert_eq!(fields.len(), 5);
        assert_eq!(fields[0].0, "s");
        assert_eq!(fields[0].1.as_str(), Some("a\"b\\c\nd\u{0007} Ünïcode 模块"));
        assert_eq!(fields[1].1.as_u64(), Some(42));
        assert_eq!(fields[2].1.as_f64(), Some(1.5));
        assert_eq!(fields[3].1, JsonValue::Bool(true));
        assert_eq!(fields[4].1, JsonValue::Null);
    }

    #[test]
    fn parse_flat_handles_unicode_escapes_and_rejects_junk() {
        let fields = parse_flat(r#"{ "k" : "Aé" , "v" : -2.5e1 }"#).unwrap();
        assert_eq!(fields[0].1.as_str(), Some("Aé"));
        assert_eq!(fields[1].1.as_f64(), Some(-25.0));
        assert_eq!(parse_flat("{}"), Some(Vec::new()));
        assert!(parse_flat("").is_none());
        assert!(parse_flat("{\"a\":1").is_none(), "unterminated");
        assert!(parse_flat("{\"a\":1} trailing").is_none());
        assert!(parse_flat("{\"a\":{}}").is_none(), "nested objects rejected");
        assert!(parse_flat("{\"a\":[1]}").is_none(), "arrays rejected");
        assert!(parse_flat("{\"a\":nul}").is_none());
    }

    #[test]
    fn write_jsonl_creates_dir_and_file() {
        let dir = std::env::temp_dir().join(format!("jsonl-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path =
            write_jsonl(&dir.join("nested"), "fig8", &["{}".to_string(), "{}".to_string()])
                .unwrap();
        let body = fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{}\n{}\n");
        assert!(path.ends_with("nested/fig8.jsonl"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
