//! A minimal JSON value, one pull lexer, and a single-line renderer: the
//! ndjson wire protocol and the `deltanet replay --json` report both go
//! through it.
//!
//! The workspace's `serde` is an offline stub, so JSON is written and read
//! by hand here. Integer literals are kept as exact `i128` values — rule
//! ids are `u64` and a float round-trip could silently corrupt them — and
//! only a literal with a fraction or an exponent becomes a [`Json::Float`].
//! Nesting is capped at [`MAX_DEPTH`] so a hostile line is a [`JsonError`],
//! not a stack overflow.
//!
//! There is one grammar. `Lexer` reads a line token by token: keys and
//! strings come back borrowed from the line unless they hold an escape,
//! numbers come back exact, duplicate keys and the depth cap are enforced
//! as the containers are walked, and every error names its byte offset.
//! [`parse`] is a thin tree builder over it; the daemon's request decoder
//! (`proto::parse_request`) drives it straight into a typed request,
//! skipping what it does not need with `Lexer::skip_value`, so no tree is
//! built on the request path.
//!
//! The renderer emits one line per value with `"key": value` spacing (a
//! space after `:` and after `,`), so CI can grep for exact `"key": value`
//! fragments in daemon output. `write_escaped` and `write_u64` are its
//! pieces, shared with the protocol's typed replies, which render in the
//! same spacing without building a [`Json`].

use std::borrow::Cow;
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

/// Appends `n` in decimal, the digits [`Json::Int`] renders, without the
/// formatting machinery.
pub(crate) fn write_u64(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ascii digits"));
}

/// Appends `s` as a quoted JSON string, the bytes [`Json::Str`] renders.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
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

/// How deep arrays and objects may nest. The tree builder recurses once
/// per level, so without a cap a line of 100 k `[` overflows the stack; the
/// deepest protocol line (a batch of inserts with `sec` intervals) nests 6.
pub const MAX_DEPTH: usize = 64;

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut lexer = Lexer::new(input);
    let value = tree(&mut lexer)?;
    lexer.finish()?;
    Ok(value)
}

/// Builds the value the lexer is at; recursion is bounded by [`MAX_DEPTH`],
/// which the lexer enforces as each container opens.
fn tree(lexer: &mut Lexer<'_>) -> Result<Json, JsonError> {
    Ok(match lexer.value()? {
        Token::Null => Json::Null,
        Token::Bool(b) => Json::Bool(b),
        Token::Int(n) => Json::Int(n),
        Token::Float(x) => Json::Float(x),
        Token::Str(s) => Json::Str(s.into_owned()),
        Token::Array => {
            let mut items = Vec::new();
            while lexer.next_item()? {
                items.push(tree(lexer)?);
            }
            Json::Arr(items)
        }
        Token::Object => {
            let mut pairs = Vec::new();
            while let Some(key) = lexer.next_key()? {
                let value = tree(lexer)?;
                pairs.push((key.into_owned(), value));
            }
            Json::Obj(pairs)
        }
    })
}

/// One value's start as [`Lexer::value`] reads it: a whole scalar, or the
/// opening bracket of a container whose members the caller then pulls.
#[derive(Clone, Debug)]
pub(crate) enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal, exact.
    Int(i128),
    /// A literal with a fraction or an exponent.
    Float(f64),
    /// A string, borrowed from the input unless it held an escape.
    Str(Cow<'a, str>),
    /// `[`: pull the items with [`Lexer::next_item`].
    Array,
    /// `{`: pull the keys with [`Lexer::next_key`].
    Object,
}

/// A container the lexer is inside.
struct Open {
    object: bool,
    /// Whether a member has been read (the next one needs a `,`).
    started: bool,
    /// Where this object's keys start in [`Lexer::keys`].
    keys_from: usize,
}

/// The JSON grammar as a pull lexer over one input line.
///
/// Call [`value`](Self::value) for each value. After [`Token::Object`],
/// call [`next_key`](Self::next_key) until it returns `None`, reading (or
/// [skipping](Self::skip_value)) one value after each key; after
/// [`Token::Array`], call [`next_item`](Self::next_item) until it returns
/// `false`, reading one value after each `true`. [`finish`](Self::finish)
/// then rejects trailing characters. The lexer checks that calls follow
/// the input, never the other way round: a caller that skips a value it
/// does not need still gets every syntax error in it.
pub(crate) struct Lexer<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`, innermost last; its length is the
    /// nesting depth.
    open: Vec<Open>,
    /// The keys of every open object, innermost object's last, for the
    /// duplicate check.
    keys: Vec<Cow<'a, str>>,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub(crate) fn new(input: &'a str) -> Lexer<'a> {
        Lexer {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            open: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Out of line: errors are off the path a well-formed line takes.
    #[cold]
    #[inline(never)]
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    /// The length of the run at `pos` whose bytes satisfy `part_of`.
    #[inline]
    fn run_len(&self, part_of: impl Fn(u8) -> bool) -> usize {
        let rest = &self.bytes[self.pos..];
        rest.iter().position(|&b| !part_of(b)).unwrap_or(rest.len())
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    /// Reads the next value: a scalar whole, a container up to and
    /// including its opening bracket.
    #[inline]
    pub(crate) fn value(&mut self) -> Result<Token<'a>, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.open.len() == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.pos += 1;
                let object = open == b'{';
                self.open.push(Open {
                    object,
                    started: false,
                    keys_from: self.keys.len(),
                });
                Ok(if object { Token::Object } else { Token::Array })
            }
            Some(b'"') => Ok(Token::Str(self.string()?)),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Inside an object: the next key, with the `:` after it consumed, or
    /// `None` once the closing `}` is read. A key the object already had
    /// is an error.
    #[inline]
    pub(crate) fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.next_member(b'}', "expected `,` or `}`")? {
            return Ok(None);
        }
        let key = self.string()?;
        let keys_from = self.open.last().map_or(0, |open| open.keys_from);
        // Protocol objects are small; a linear scan beats a side table.
        if self.keys[keys_from..].contains(&key) {
            return Err(self.err(&format!("duplicate key `{key}`")));
        }
        self.keys.push(key.clone());
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Inside an array: `true` when another item follows (read it next),
    /// `false` once the closing `]` is read.
    #[inline]
    pub(crate) fn next_item(&mut self) -> Result<bool, JsonError> {
        self.next_member(b']', "expected `,` or `]`")
    }

    /// Steps over the `,` before a member or reads the closing bracket.
    #[inline]
    fn next_member(&mut self, close: u8, message: &str) -> Result<bool, JsonError> {
        let open = self
            .open
            .last_mut()
            .expect("a member read outside a container");
        debug_assert_eq!(
            open.object,
            close == b'}',
            "member read of the wrong container"
        );
        let started = std::mem::replace(&mut open.started, true);
        self.skip_ws();
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                let open = self.open.pop().expect("checked above");
                self.keys.truncate(open.keys_from);
                Ok(false)
            }
            Some(b',') if started => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            _ if started => Err(self.err(message)),
            _ => Ok(true),
        }
    }

    /// Reads and discards the next value, containers included.
    pub(crate) fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.value()? {
            Token::Array | Token::Object => self.skip_rest(),
            _ => Ok(()),
        }
    }

    /// Reads and discards the rest of the innermost open container,
    /// through its closing bracket. Iterative: the depth cap bounds the
    /// `open` stack, not the call stack.
    pub(crate) fn skip_rest(&mut self) -> Result<(), JsonError> {
        let depth = self.open.len();
        while self.open.len() >= depth {
            let object = self.open.last().expect("inside a container").object;
            let more = if object {
                self.next_key()?.is_some()
            } else {
                self.next_item()?
            };
            if more {
                // A nested container's opening pushes it onto `open`; the
                // loop then walks it like its parent.
                self.value()?;
            }
        }
        Ok(())
    }

    /// After the last value: only whitespace may remain.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos < self.bytes.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    #[inline]
    fn skip_digits(&mut self) -> usize {
        let digits = self.run_len(|b| b.is_ascii_digit());
        self.pos += digits;
        digits
    }

    #[inline]
    fn number(&mut self) -> Result<Token<'a>, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
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
        let digits = &self.bytes[int_start..self.pos];
        if digits.len() <= 18 {
            // Below 10^18: no overflow check needed, no text round-trip.
            let n = digits
                .iter()
                .fold(0i64, |n, d| n * 10 + i64::from(d - b'0'));
            return Ok(Token::Int(i128::from(if negative { -n } else { n })));
        }
        self.wide_int(start)
    }

    /// An integer of 19 digits or more (`start..pos`), checked against the
    /// `i128` range.
    #[inline(never)]
    fn wide_int(&self, start: usize) -> Result<Token<'a>, JsonError> {
        self.text[start..self.pos]
            .parse::<i128>()
            .map(Token::Int)
            .map_err(|_| self.err("integer out of range"))
    }

    /// The fraction and/or exponent of a number whose integer part
    /// (`start..pos`) is already scanned. Off the protocol's path: every
    /// number on the wire is an integer.
    #[cold]
    fn float_tail(&mut self, start: usize) -> Result<Token<'a>, JsonError> {
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
        match self.text[start..self.pos].parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Token::Float(x)),
            _ => Err(self.err("number out of range")),
        }
    }

    /// The run from `pos` up to the next quote, escape, or control byte
    /// (slicing at those ASCII bytes never splits a character).
    #[inline]
    fn run(&mut self) -> &'a str {
        let start = self.pos;
        self.pos += self.run_len(|b| b != b'"' && b != b'\\' && b >= 0x20);
        &self.text[start..self.pos]
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let first = self.run();
        if self.peek() == Some(b'"') {
            // No escape: the string is a slice of the input.
            self.pos += 1;
            return Ok(Cow::Borrowed(first));
        }
        self.escaped_string(first)
    }

    /// The rest of a string whose run so far, `first`, stopped at an escape
    /// or a control byte: the string is rebuilt with its escapes decoded.
    #[inline(never)]
    fn escaped_string(&mut self, first: &str) -> Result<Cow<'a, str>, JsonError> {
        let mut out = String::from(first);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                    // Only control bytes stop a run; JSON requires them
                    // escaped.
                    return Err(self.err("unescaped control character in string"));
                }
            }
            out.push_str(self.run());
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

    /// Duplicates are found on the decoded keys, an escape on either side
    /// included, and skipping a value finds the same error `parse` does.
    #[test]
    fn duplicate_keys_compare_decoded() {
        for line in [
            r#"{"a": 1, "a": 2}"#,
            r#"{"a": 1, "\u0061": 2}"#,
            r#"{"\u0061": 1, "a": 2}"#,
            r#"{"x\/": 1, "y": 2, "x/": 3}"#,
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.message.starts_with("duplicate key"), "{line}: {err}");
            let mut lexer = Lexer::new(line);
            assert_eq!(lexer.skip_value(), Err(err), "{line}");
        }
        for line in [
            r#"{"a\"": 1, "a": 2}"#,
            r#"{"a": {"a": 1}, "b": [{"a": 2}]}"#,
        ] {
            assert!(parse(line).is_ok(), "{line}");
        }
    }
}
