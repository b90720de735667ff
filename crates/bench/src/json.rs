//! A minimal JSON value with a pretty printer.
//!
//! The experiment binaries persist machine-readable records under
//! `target/experiments/`. The build environment is offline, so instead of a
//! serde dependency the records are assembled as explicit [`Json`] values —
//! the handful of shapes the experiments need (objects with stable key
//! order, arrays, strings, integers, bools).

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer (the experiments emit no other numbers).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Parses the subset of JSON this module emits (null, booleans, unsigned
    /// integers, strings, arrays, objects). The CI smoke uses this to check
    /// that the persisted experiment records are well-formed without a serde
    /// dependency.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Looks up a key of an object (`None` on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("expected {what} at byte {}", self.pos))
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'0'..=b'9') => self.number(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.seq(b']', |p| p.value()).map(Json::Arr),
            Some(b'{') => self
                .seq(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(":") {
                        return p.fail("':'");
                    }
                    p.skip_ws();
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            _ => self.fail("a JSON value"),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ascii")
            .parse::<u64>()
            .map(Json::U64)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.fail("'\"'");
        }
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.fail("closing '\"'"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("truncated \\u at byte {}", self.pos))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| format!("bad \\u at byte {}", self.pos))?,
                                16,
                            )
                            .map_err(|_| format!("bad \\u at byte {}", self.pos))?;
                            // the printer only emits \u for control chars, so
                            // surrogate pairs never appear
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u at byte {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return self.fail("an escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // consume one UTF-8 scalar
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn seq<T>(
        &mut self,
        close: u8,
        mut elem: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1; // the opening delimiter, checked by the caller
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(elem(self)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(c) if *c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return self.fail(&format!("',' or '{}'", close as char)),
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Writes `value` pretty-printed to `target/experiments/<name>`.
///
/// # Panics
///
/// Panics if the directory or file cannot be written.
pub fn write_experiment(name: &str, value: &Json) {
    std::fs::create_dir_all("target/experiments").expect("create output dir");
    std::fs::write(format!("target/experiments/{name}"), value.pretty())
        .unwrap_or_else(|e| panic!("write {name}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_nested_structures() {
        let v = Json::obj([
            ("name", Json::from("fig\"1\"")),
            ("ok", Json::from(true)),
            ("rows", Json::from_iter([1u64, 2])),
            ("empty", Json::Arr(Vec::new())),
            ("none", Json::Null),
        ]);
        let text = v.pretty();
        assert!(text.contains("\"name\": \"fig\\\"1\\\"\""));
        assert!(text.contains("\"rows\": [\n    1,\n    2\n  ]"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn escapes_control_characters() {
        let Json::Str(_) = Json::from("x") else {
            panic!()
        };
        let text = Json::from("a\n\t\u{1}").pretty();
        assert_eq!(text, "\"a\\n\\t\\u0001\"\n");
    }

    #[test]
    fn parse_round_trips_the_printer() {
        let v = Json::obj([
            ("name", Json::from("fig\"1\"\n µ")),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            ("rows", Json::from_iter([0u64, 18446744073709551615])),
            ("empty_arr", Json::Arr(Vec::new())),
            ("empty_obj", Json::Obj(Vec::new())),
            ("nested", Json::obj([("k", Json::from(3u64))])),
        ]);
        assert_eq!(Json::parse(&v.pretty()), Ok(v.clone()));
        // compact form parses too
        assert_eq!(
            Json::parse(r#"{"a":[1,{"b":false}],"c":"A"}"#),
            Ok(Json::obj([
                (
                    "a",
                    Json::Arr(vec![
                        Json::from(1u64),
                        Json::obj([("b", Json::from(false))])
                    ])
                ),
                ("c", Json::from("A")),
            ]))
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"k\" 1}",
            "1 2",
            "{\"k\":}",
            "[1,]",
            "\"bad \\q escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Json::obj([("rows", Json::from_iter([4u64, 5]))]);
        let rows = v.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[1], Json::U64(5));
        assert_eq!(v.get("missing"), None);
    }
}
