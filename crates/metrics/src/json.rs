//! Minimal JSON: one value type, a writer and a matching reader.
//!
//! Experiment results are exported as JSON for external plotting, and the
//! committed baselines (`CAPACITY_baseline.json`, `SCALE_baseline.json`)
//! are read back to gate fresh runs. The data is all tree-shaped numbers
//! and strings, so rather than pull in a serialization framework we provide
//! a small, correct codec: proper string escaping, finite-float handling, a
//! builder API that makes malformed output unrepresentable, and
//! [`Json::parse`], which reads back everything [`Json::render`] writes.

use std::fmt::Write as _;

/// A JSON value: built by emitters, returned by [`Json::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Finite numbers only; NaN/inf are serialized as null per RFC 8259's
    /// refusal to represent them.
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    /// Insertion-ordered object.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build an array of numbers.
    pub fn nums<I: IntoIterator<Item = f64>>(xs: I) -> Json {
        Json::Array(xs.into_iter().map(Json::Num).collect())
    }

    /// Parse one JSON document. Strict: trailing bytes after the value,
    /// bad literals and unterminated strings are errors.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// The key/value pairs of an object, in document order.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Serialize compactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    if *x == x.trunc() && x.abs() < 1e15 {
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Array(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// The value of `key` in a parsed object.
pub fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{key}'"))
}

/// The string value of `key`; any other type is an error.
pub fn get_str<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a str, String> {
    match get(obj, key)? {
        Json::Str(s) => Ok(s),
        _ => Err(format!("field '{key}' must be a string")),
    }
}

/// The finite number value of `key`; any other type is an error.
pub fn get_num(obj: &[(String, Json)], key: &str) -> Result<f64, String> {
    match get(obj, key)? {
        Json::Num(n) if n.is_finite() => Ok(*n),
        Json::Num(_) => Err(format!("field '{key}' must be finite")),
        _ => Err(format!("field '{key}' must be a number")),
    }
}

/// Recursive-descent reader behind [`Json::parse`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(out));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            out.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(out));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(out));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                }
                _ => {
                    // Copy the whole UTF-8 sequence that starts at `b`.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated utf-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad utf-8")?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(3.5).render(), "3.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn string_escaping() {
        let s = Json::Str("a\"b\\c\nd\te\u{1}".into()).render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn nested_structure() {
        let j = Json::obj(vec![
            ("name", "fig1".into()),
            ("clients", Json::nums([60.0, 600.0])),
            (
                "series",
                Json::Array(vec![Json::obj(vec![
                    ("label", "nio-1".into()),
                    ("ok", true.into()),
                ])]),
            ),
        ]);
        assert_eq!(
            j.render(),
            r#"{"name":"fig1","clients":[60,600],"series":[{"label":"nio-1","ok":true}]}"#
        );
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(Json::Str("Barça €".into()).render(), "\"Barça €\"");
    }

    #[test]
    fn large_integers_stay_integral() {
        assert_eq!(Json::Num(123456789.0).render(), "123456789");
        assert_eq!(Json::from(42u64).render(), "42");
    }

    #[test]
    fn parse_reads_whitespace_escapes_and_helpers() {
        let doc = Json::parse(" { \"a\" : [1, -2.5e3, true, null],\n\"s\": \"x\\u0041\\/\\\"\" } ")
            .expect("valid document");
        let obj = doc.as_object().expect("object");
        let a = get(obj, "a").unwrap().as_array().expect("array");
        assert_eq!(
            a,
            [
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]
        );
        assert_eq!(get_str(obj, "s").unwrap(), "xA/\"");
        assert!(get_num(obj, "s").is_err(), "a string is not a number");
        assert!(get(obj, "missing").is_err());
        assert!(doc.as_array().is_none());
        let nan = [("x".to_string(), Json::Num(f64::NAN))];
        assert!(
            get_num(&nan, "x").is_err(),
            "non-finite numbers are rejected"
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "   ",
            "{} x",
            "[1,2]]",
            "tru",
            "nul",
            "\"abc",
            "\"abc\\",
            "[1,2",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
