//! A minimal JSON value, parser, and single-line renderer: the ndjson wire
//! protocol and the `deltanet replay --json` report both go through it.
//!
//! The workspace's `serde` is an offline stub, so JSON is written and read
//! by hand here. Integer literals are kept as exact `i128` values — rule
//! ids are `u64` and a float round-trip could silently corrupt them — and
//! only a literal with a fraction or an exponent becomes a [`Json::Float`].
//! Nesting is capped at [`MAX_DEPTH`] so a hostile line is a [`JsonError`],
//! not a stack overflow.
//!
//! The renderer emits one line per value with `"key": value` spacing (a
//! space after `:` and after `,`), so CI can grep for exact `"key": value`
//! fragments in daemon output.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact integer (every number the wire protocol carries).
    Int(i128),
    /// A number written with a fraction or an exponent. Renders in the
    /// shortest form that parses back to the same value; a non-finite
    /// value renders as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience integer constructor.
    pub fn int(n: impl TryInto<i128>) -> Json {
        Json::Int(n.try_into().unwrap_or_else(|_| panic!("int out of range")))
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact integer, if it is one.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|n| u64::try_from(n).ok())
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value on a single line (ndjson framing — no interior
    /// newlines), with `": "` / `", "` spacing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                use std::fmt::Write as _;
                write!(out, "{n}").expect("writing to a String cannot fail");
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
            Json::Float(x) => write_float(*x, out),
        }
    }
}

/// Off the wire protocol's path (it carries integers only), so kept out of
/// line. `{:?}` keeps the `.0` of a whole float, so it parses back as a
/// float and not as an integer.
#[cold]
fn write_float(x: f64, out: &mut String) {
    if x.is_finite() {
        use std::fmt::Write as _;
        write!(out, "{x:?}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // Bulk-copy maximal runs that need no escaping (the common case is an
    // entirely clean string — one memcpy).
    let mut rest = s;
    while let Some(split) = rest.find(|c: char| c == '"' || c == '\\' || (c as u32) < 0x20) {
        out.push_str(&rest[..split]);
        let c = rest[split..]
            .chars()
            .next()
            .expect("split is a char boundary");
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => {
                use std::fmt::Write as _;
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
        }
        rest = &rest[split + c.len_utf8()..];
    }
    out.push_str(rest);
    out.push('"');
}

/// A shorthand for building an object literal in insertion order.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A JSON syntax error with byte position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the input line.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid json at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so without a cap a line of 100 k `[` overflows the stack; the
/// deepest protocol line (a batch of inserts with `sec` intervals) nests 6.
pub const MAX_DEPTH: usize = 64;

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn skip_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.skip_digits() {
            0 => return Err(self.err("expected digits")),
            1 => {}
            _ if self.bytes[int_start] == b'0' => return Err(self.err("leading zero")),
            _ => {}
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return self.float_tail(start);
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| self.err("integer out of range"))
    }

    /// The fraction and/or exponent of a number whose integer part
    /// (`start..pos`) is already scanned. Off the protocol's path: every
    /// number on the wire is an integer.
    #[cold]
    fn float_tail(&mut self, start: usize) -> Result<Json, JsonError> {
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.skip_digits() == 0 {
                return Err(self.err("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.skip_digits() == 0 {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Float(x)),
            _ => Err(self.err("number out of range")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Bulk-copy the run up to the next quote, escape, or control
            // byte (the input is a &str, so slicing at these ASCII bytes
            // stays on char boundaries).
            let run_start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > run_start {
                let run = std::str::from_utf8(&self.bytes[run_start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?;
                out.push_str(run);
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the protocol;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Only control bytes stop the bulk run above; JSON
                    // requires them escaped.
                    return Err(self.err("unescaped control character in string"));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            // Protocol objects are small; a linear scan beats a side table.
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_spacing() {
        let v = obj(vec![
            ("id", Json::int(7u64)),
            ("op", Json::str("insert")),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let line = v.render();
        assert_eq!(line, r#"{"id": 7, "op": "insert", "flags": [true, null]}"#);
        assert_eq!(parse(&line).unwrap(), v);
    }

    #[test]
    fn exact_large_integers() {
        let line = format!("{{\"id\": {}}}", u64::MAX);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_duplicates_and_trailing() {
        assert!(parse(r#"{"x": 1, "x": 2}"#).is_err());
        assert!(parse(r#"{"x": 1} extra"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::int(42u8).render(), "42");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(100.0).render(), "100.0");
        assert_eq!(Json::Float(1e21).render(), "1e21");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::NEG_INFINITY).render(), "null");
    }

    #[test]
    fn number_grammar() {
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(parse("2e-3").unwrap(), Json::Float(0.002));
        assert_eq!(parse("-0.25").unwrap(), Json::Float(-0.25));
        assert_eq!(parse("1E+2").unwrap(), Json::Float(100.0));
        // Only a fraction or an exponent makes a float: ids stay exact.
        assert_eq!(parse("100").unwrap(), Json::Int(100));
        assert_eq!(parse("-0").unwrap(), Json::Int(0));
        assert_eq!(parse("1.5").unwrap().as_int(), None);
        for bad in [
            "1.", ".5", "1e", "1e+", "-", "01", "-01", "1.e3", "1e400", "+1",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let ints = [0, -1, 1 << 53, i128::from(u64::MAX), i128::MIN, i128::MAX];
        let floats = [
            0.1,
            -0.0,
            100.0,
            1.0 / 3.0,
            2.5e-9,
            6.02e23,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        let mut values: Vec<Json> = ints.into_iter().map(Json::Int).collect();
        values.extend(floats.into_iter().map(Json::Float));
        values.push(Json::str("a\"b\\c\n\u{1}é"));
        let nested = obj(vec![
            ("id", Json::int(u64::MAX)),
            ("all", Json::Arr(values.clone())),
            (
                "inner",
                obj(vec![("empty", Json::Arr(vec![])), ("none", Json::Null)]),
            ),
        ]);
        values.push(nested);
        for v in values {
            assert_eq!(parse(&v.render()).unwrap(), v, "via {}", v.render());
        }
    }

    #[test]
    fn nesting_is_capped() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.at, MAX_DEPTH);
        // Mixed nesting counts both kinds of bracket.
        let mixed = format!(
            "{}1{}",
            r#"{"a": ["#.repeat(MAX_DEPTH / 2),
            "]}".repeat(MAX_DEPTH / 2)
        );
        assert!(parse(&mixed).is_ok());
        // Unclosed and far past the cap: an error, not a stack overflow.
        assert!(parse(&"[".repeat(10_000)).is_err());
        assert!(parse(&r#"{"a":"#.repeat(10_000)).is_err());
        // Siblings do not accumulate depth.
        assert!(parse(&format!("[{}]", vec!["[[]]"; 100].join(", "))).is_ok());
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(Json::str("a\"b\nc").render(), r#""a\"b\nc""#);
    }
}
