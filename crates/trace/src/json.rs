//! Minimal JSON support: an escaper/number formatter for the sinks, a
//! small recursive-descent parser used by `trace_check`, the golden-file
//! tests and the CI smoke job, and the printer ([`Json`]'s `Display`)
//! every bench [`crate::Report`] is written with. No external crates —
//! the registry is unreachable in this environment.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Escapes `text` for inclusion inside a JSON string literal (without the
/// surrounding quotes).
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
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
    out
}

/// Formats an `f64` as a JSON value. Non-finite values have no JSON
/// representation and are emitted as `null` (they would otherwise corrupt
/// the whole file — see the NaN-poisoned fault reports in `gpusim`).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// A JSON value, parsed or built. Objects do not preserve insertion
/// order; a `BTreeMap` keeps lookups simple and both comparisons and
/// printed output canonical.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Parses a complete JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The contained object's map, if this is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The contained array, if this is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The contained string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The contained number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The contained bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

/// Integers become [`Json::Num`]; exact up to 2^53, which every count
/// and seed a report carries is below.
macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
json_from_int!(u32, u64, usize, i64);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Prints the value as a JSON document that [`Json::parse`] reads back:
/// two-space indentation, except that an array of scalars (a tile
/// vector) and an object of scalars and such arrays (a table row) stay
/// on one line. Non-finite numbers print as `null` (see [`number`]).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.print(f, 0)
    }
}

impl Json {
    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn is_scalar_or_vector(&self) -> bool {
        match self {
            Json::Arr(items) => items.iter().all(Json::is_scalar),
            Json::Obj(_) => false,
            _ => true,
        }
    }

    fn print(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => f.write_str(&number(*n)),
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
            Json::Arr(items) => {
                let inline = items.iter().all(Json::is_scalar);
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    separate(f, i, inline, depth + 1)?;
                    item.print(f, depth + 1)?;
                }
                close(f, ']', items.is_empty() || inline, depth)
            }
            Json::Obj(map) => {
                let inline = map.values().all(Json::is_scalar_or_vector);
                f.write_char('{')?;
                for (i, (key, value)) in map.iter().enumerate() {
                    separate(f, i, inline, depth + 1)?;
                    write!(f, "\"{}\": ", escape(key))?;
                    value.print(f, depth + 1)?;
                }
                close(f, '}', map.is_empty() || inline, depth)
            }
        }
    }
}

/// What goes before element `index` of a container printed at `depth`.
fn separate(f: &mut fmt::Formatter<'_>, index: usize, inline: bool, depth: usize) -> fmt::Result {
    match (inline, index) {
        (true, 0) => Ok(()),
        (true, _) => f.write_str(", "),
        (false, 0) => write!(f, "\n{:width$}", "", width = 2 * depth),
        (false, _) => write!(f, ",\n{:width$}", "", width = 2 * depth),
    }
}

fn close(f: &mut fmt::Formatter<'_>, bracket: char, inline: bool, depth: usize) -> fmt::Result {
    if !inline {
        write!(f, "\n{:width$}", "", width = 2 * depth)?;
    }
    f.write_char(bracket)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.expect_literal("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.expect_literal("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.expect_literal("null").map(|_| Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.num(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_control() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn number_formats_finite_and_rejects_nan() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn parses_round_trip_document() {
        let doc = r#"{"a": [1, 2.5, -3], "b": "x\"y", "c": true, "d": null, "e": {}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\"y"));
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(3));
        assert_eq!(v.get("c").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("d"), Some(&Json::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{\"a\": ").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn printing_then_parsing_is_a_fixpoint() {
        // Every `escape` arm, nesting both ways, empty containers, and
        // the numbers that print oddly (negative zero, sub-1e-7, > 2^53).
        let doc = Json::object([
            ("text", "quote\" backslash\\ nl\n cr\r tab\t bell\u{7} é".into()),
            ("nums", vec![0.0, -0.0, 1.5, -3.0, 2.5e-9, 1e300, 9007199254740993.0].into()),
            ("rows", vec![Json::object([("k\"ey", 1u64.into())]), Json::Arr(vec![])].into()),
            ("empty", Json::object([])),
            ("flags", vec![Json::Bool(true), Json::Null].into()),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn non_finite_numbers_print_as_null() {
        let doc: Json = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0].into();
        assert_eq!(doc.to_string(), "[null, null, null, 1]");
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back.to_string(), doc.to_string());
    }

    #[test]
    fn rows_and_vectors_stay_on_one_line() {
        let doc = Json::object([
            ("rows", vec![Json::object([("a", 1u64.into()), ("tiles", vec![16u64, 32].into())])].into()),
            ("seed", 7u64.into()),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"rows\": [\n    {\"a\": 1, \"tiles\": [16, 32]}\n  ],\n  \"seed\": 7\n}"
        );
    }

    #[test]
    fn parses_unicode_escapes() {
        let v = Json::parse(r#""A\n""#).unwrap();
        assert_eq!(v.as_str(), Some("A\n"));
    }
}
