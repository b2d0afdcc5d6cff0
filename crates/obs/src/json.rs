//! A minimal JSON value type, a streaming writer, and a strict parser.
//!
//! Objects preserve insertion order (they are association lists, not
//! maps), which keeps debug dumps and metric reports diffable. The
//! parser is strict: the whole input must be one JSON value, trailing
//! garbage is an error, and duplicate keys are kept as-is (lookups find
//! the first).
//!
//! [`JsonWriter`] writes the same text without building a [`Json`]
//! value: the serve layer's answers and access-log lines go straight
//! into a byte buffer through it. Both print strings and integers with
//! the same two routines (`write_str`, `write_radix`), so a value
//! written either way has the same bytes.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number. Integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered association list).
    Obj(Vec<(String, Json)>),
}

/// A parse failure and the byte offset where it was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Number from any unsigned integer (exact up to 2^53).
    #[must_use]
    pub fn num_u(n: u64) -> Json {
        #[allow(clippy::cast_precision_loss)]
        Json::Num(n as f64)
    }

    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if any.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if any.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if any.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if any.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if any.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends compact JSON text to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from the entire input.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or trailing non-whitespace.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }
}

fn write_num(n: f64, out: &mut String) {
    if n.is_finite() {
        // Integers print without a fractional part.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        if n.fract() == 0.0 && n.abs() < 9.0e15 {
            if n < 0.0 {
                out.push('-');
            }
            write_radix::<10>(n.abs() as u64, out);
        } else {
            let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
        }
    } else {
        out.push_str("null"); // JSON has no NaN/Inf.
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends `n` in base `RADIX` (10 or 16; lowercase digits), without
/// `fmt`. The radix is a constant so each division is one by a constant.
fn write_radix<const RADIX: u64>(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = HEX[(n % RADIX) as usize];
        n /= RADIX;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `s` as a JSON string literal. Each run of bytes that needs no
/// escape is copied with one `push_str`; a run can only end at an ASCII
/// byte, so every cut falls on a char boundary.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes JSON text straight into a `String`, without building a
/// [`Json`] value: the path for documents written on every request.
///
/// The writer tracks one bit of state, whether the next key or value
/// needs a comma before it, so the caller only opens and closes
/// containers and names keys. Strings and integers print exactly as
/// [`Json::write`] prints them. It does not check structure: a key
/// outside an object or an unclosed container is the caller's bug.
///
/// ```
/// use prospector_obs::json::JsonWriter;
///
/// let mut out = String::new();
/// let mut w = JsonWriter::new(&mut out);
/// w.begin_obj();
/// w.key("ok").bool(true);
/// w.key("ids").begin_arr().u64(1).u64(2).end_arr();
/// w.key("name").str("a\"b");
/// w.end_obj();
/// assert_eq!(out, r#"{"ok":true,"ids":[1,2],"name":"a\"b"}"#);
/// ```
pub struct JsonWriter<'a> {
    out: &'a mut String,
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> JsonWriter<'a> {
        JsonWriter { out, comma: false }
    }

    /// Starts a value: a comma first unless it opens a container or
    /// follows a key.
    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        write_str(key, self.out);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.sep();
        self.out.push('{');
        self.comma = false;
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.sep();
        self.out.push('[');
        self.comma = false;
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        write_str(s, self.out);
        self
    }

    /// Writes an integer value, exactly.
    pub fn u64(&mut self, n: u64) -> &mut Self {
        self.sep();
        write_radix::<10>(n, self.out);
        self
    }

    /// Writes `n` as a string of lowercase hex digits without leading
    /// zeros, as `format!("{n:x}")` would.
    pub fn hex(&mut self, n: u64) -> &mut Self {
        self.sep();
        self.out.push('"');
        write_radix::<16>(n, self.out);
        self.out.push('"');
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.sep();
        self.out.push_str("null");
        self
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_owned(), offset: self.pos }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // An escaped high surrogate and an escaped low
                            // one are one scalar beyond the Basic
                            // Multilingual Plane (RFC 8259 §7). A lone
                            // surrogate degrades to the replacement char;
                            // the writer never emits either.
                            let low_follows =
                                self.bytes.get(self.pos + 1..self.pos + 3) == Some(&b"\\u"[..]);
                            if (0xd800..0xdc00).contains(&code) && low_follows {
                                if let Ok(low @ 0xdc00..=0xdfff) = self.hex4(self.pos + 3) {
                                    code = 0x10000 + ((code - 0xd800) << 10 | (low - 0xdc00));
                                    self.pos += 6;
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(0..=0x1f) => return Err(self.err("unescaped control character")),
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    // SAFETY: `bytes` is a `&str`'s bytes and `pos` only
                    // ever advances by whole scalars or ASCII bytes, so
                    // `rest` starts on a char boundary of valid UTF-8.
                    #[allow(unsafe_code)]
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape starting at byte `at`:
    /// exactly four, as `from_str_radix` alone would take a sign
    /// (`\u+041`).
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self.bytes.get(at..at + 4).ok_or_else(|| self.err("truncated \\u escape"))?;
        hex.iter()
            .try_fold(0, |code, &b| char::from(b).to_digit(16).map(|d| code << 4 | d))
            .ok_or_else(|| self.err("bad \\u escape"))
    }

    /// `-? (0 | [1-9] DIGIT*) (. DIGIT+)? ([eE] [+-]? DIGIT+)?`, the
    /// RFC 8259 grammar: `str::parse::<f64>` alone would also take `01`,
    /// `1.` and `.5`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("bad number"))
    }

    /// Consumes `DIGIT+`.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err("bad number"))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj(vec![
            ("name", Json::Str("a\"b\\c\nd".to_owned())),
            ("n", Json::Num(42.0)),
            ("neg", Json::Num(-3.5)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![Json::num_u(1), Json::num_u(2), Json::Str(String::new())])),
            ("nested", Json::obj(vec![("k", Json::Arr(vec![]))])),
        ]);
        let text = v.to_text();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::num_u(7).to_text(), "7");
        assert_eq!(Json::Num(-2.0).to_text(), "-2");
        assert_eq!(Json::Num(1.25).to_text(), "1.25");
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u0041π\" ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap()[1].as_str(), Some("Aπ"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{not json", "[1,]", "{\"a\":}", "nul", "1 2", "{\"a\" 1}", "\"open"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
        // RFC 8259: a `\u` escape is four hex digits, an integer part has
        // no leading zero, a fraction has a digit, and a string holds no
        // raw control character.
        for bad in ["\"\\u+041\"", "01", "1.", "\"a\u{1}b\"", "-01", "-", ".5", "-.5", "1e", "1.e3", "[1.]"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
        for good in ["0", "-0", "0.5", "10", "1e3", "1E+3", "-1.25e-2", "\"\\u00e9\\u001F\""] {
            assert!(Json::parse(good).is_ok(), "`{good}` should parse");
        }
    }

    #[test]
    fn strict_about_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{}").is_ok());
    }

    #[test]
    fn accessors() {
        let v = Json::obj(vec![("a", Json::num_u(3))]);
        assert_eq!(v.get("a").unwrap().as_u64(), Some(3));
        assert!(v.get("b").is_none());
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
    }
}
