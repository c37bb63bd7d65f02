//! A minimal JSON value: parser and writer.
//!
//! The workspace has no registry access, so the wire format is handled by this module instead
//! of `serde_json`.  It covers exactly what the HTTP front door needs: parsing request bodies
//! and rendering response documents **deterministically** — objects keep insertion order
//! (`Vec` of pairs, not a map), and numbers render via Rust's shortest round-trip `f64`
//! formatting — so equal answers always produce byte-identical documents, which is what the
//! `http_bench` byte-identity assertion relies on.
//!
//! The reader sits on the request path, in front of admission, so its cost is bounded by its
//! input: one pass over the bytes — a string is copied a run at a time, each run validated
//! once — and at most [`MAX_DEPTH`] containers open at once, whatever the document says.
//!
//! The two writing primitives — [`write_number`] and the run-wise string escaper behind
//! [`write_string`] / [`Escaped`] — are shared by `Display for Json` and by the direct answer
//! renderer in [`crate::wire`], which writes the large documents straight into a buffer
//! without building a tree; [`Json::Raw`] carries such a pre-rendered fragment inside a tree.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order for deterministic rendering.
    Obj(Vec<(String, Json)>),
    /// An already rendered value, written verbatim (the producer vouches that it is one valid
    /// JSON value).  Opaque to the accessors, and never produced by [`Json::parse`].
    Raw(String),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object (`None` for absent keys or non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document in one pass (trailing garbage is an error, and so is
    /// nesting arrays and objects deeper than [`MAX_DEPTH`]).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_number(f, *n),
            Json::Str(s) => write_string(f, s),
            Json::Raw(rendered) => f.write_str(rendered),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes a number: `{:?}` is Rust's shortest-round-trip float rendering (integral values
/// still get a `.0` suffix, which keeps the format unambiguous and deterministic); NaN and the
/// infinities have no JSON form and become `null`.
pub fn write_number<W: fmt::Write>(out: &mut W, n: f64) -> fmt::Result {
    if n.is_finite() {
        write!(out, "{n:?}")
    } else {
        out.write_str("null")
    }
}

/// Writes `s` as a quoted JSON string.
pub fn write_string<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    Escaped(&mut *out).write_str(s)?;
    out.write_char('"')
}

/// A `fmt::Write` adaptor that JSON-escapes what passes through it, so a `Display` value can be
/// written into a string literal without an intermediate `String`:
/// `write!(Escaped(&mut out), "{tuple}")`.
///
/// Everything that needs escaping (`"`, `\`, controls below U+0020) is a single ASCII byte, so
/// the scan runs over bytes and the stretches between escapes are copied as whole slices.
pub struct Escaped<W>(pub W);

impl<W: fmt::Write> fmt::Write for Escaped<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut clean_from = 0;
        for (at, byte) in s.bytes().enumerate() {
            if byte >= 0x20 && byte != b'"' && byte != b'\\' {
                continue;
            }
            self.0.write_str(&s[clean_from..at])?;
            clean_from = at + 1;
            match byte {
                b'"' => self.0.write_str("\\\"")?,
                b'\\' => self.0.write_str("\\\\")?,
                b'\n' => self.0.write_str("\\n")?,
                b'\r' => self.0.write_str("\\r")?,
                b'\t' => self.0.write_str("\\t")?,
                control => write!(self.0, "\\u{control:04x}")?,
            }
        }
        self.0.write_str(&s[clean_from..])
    }
}

/// How many arrays and objects [`Json::parse`] lets a document open inside one another.  The
/// reader descends one call per container, so this bounds its stack; nothing the server
/// accepts or emits nests deeper than 8.
pub const MAX_DEPTH: usize = 64;

/// How many bytes of an unparsable digit run an error quotes back: the run can be as long
/// as the body, and the reply to a refused request must not be.
const MAX_NUMBER_ECHO: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The containers open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    /// Reads one array or object, refusing the one that would be open inside [`MAX_DEPTH`]
    /// others.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    /// Reads a string literal.  A `\u` surrogate pair decodes to the one scalar it denotes; a
    /// surrogate without its partner decodes to U+FFFD.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // A run of ordinary characters ends at the next `"` or `\`.  Both are ASCII, so the
            // run is whole characters of the input and is validated and copied once, as a whole.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&byte| byte == b'"' || byte == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
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
                    let mut code = self.hex4(self.pos)?;
                    self.pos += 4;
                    let high = (0xd800..=0xdbff).contains(&code);
                    if high && self.bytes[self.pos..].starts_with(b"\\u") {
                        if let Ok(low @ 0xdc00..=0xdfff) = self.hex4(self.pos + 2) {
                            code = 0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            self.pos += 6;
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape '\\{}'", other as char)),
            }
        }
    }

    /// The value of the four hex digits at `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        // The run is ASCII, so any byte offset cuts it on a character boundary.
        text.parse::<f64>().map(Json::Num).map_err(|_| {
            let (head, more) = match text.get(..MAX_NUMBER_ECHO) {
                Some(head) if head.len() < text.len() => (head, "…"),
                _ => (text, ""),
            };
            format!("bad number '{head}{more}' at byte {start}")
        })
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
            self.skip_ws();
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

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_documents() {
        let doc = Json::obj([
            ("name", Json::Str("q\"1\"\n".into())),
            ("n", Json::Num(2.5)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj([("k", Json::Num(3.0))])),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(text, Json::parse(&text).unwrap().to_string());
    }

    #[test]
    fn escapes_between_runs_and_passes_multibyte_text_through() {
        let text = "\"a\\\u{1}é\u{1f}\n\r\t✓\u{7f}\"";
        let rendered = Json::Str(text.into()).to_string();
        assert_eq!(rendered, "\"\\\"a\\\\\\u0001é\\u001f\\n\\r\\t✓\u{7f}\\\"\"");
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(text));
        assert_eq!(Json::Str(String::new()).to_string(), "\"\"");
    }

    #[test]
    fn raw_fragments_render_verbatim_inside_a_tree() {
        let doc = Json::obj([("a", Json::Raw("{\"k\":[1.5]}".into())), ("b", Json::Null)]);
        assert_eq!(doc.to_string(), "{\"a\":{\"k\":[1.5]},\"b\":null}");
        assert!(doc.get("a").unwrap().get("k").is_none());
    }

    #[test]
    fn rendering_is_deterministic_and_ordered() {
        let doc = Json::obj([("b", Json::Num(1.0)), ("a", Json::Num(0.5))]);
        assert_eq!(doc.to_string(), "{\"b\":1.0,\"a\":0.5}");
    }

    #[test]
    fn rejects_truncated_and_trailing_input() {
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("{\"a\": 1").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v = Json::parse(r#"{"s":"a\tbA","n":-1.5e2}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\tbA"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-150.0));
    }

    #[test]
    fn a_surrogate_pair_is_one_scalar_and_a_lone_surrogate_is_the_replacement_character() {
        let parsed = |text: &str| Json::parse(text).unwrap();
        assert_eq!(parsed(r#""\ud83d\ude00""#).as_str(), Some("\u{1f600}"));
        assert_eq!(parsed(r#""a\uD834\uDD1Eb""#).as_str(), Some("a𝄞b"));
        // Halves that do not meet: each is U+FFFD, and what follows a high one is kept.
        assert_eq!(parsed(r#""\ud83d""#).as_str(), Some("\u{fffd}"));
        assert_eq!(
            parsed(r#""\ude00\ud83d""#).as_str(),
            Some("\u{fffd}\u{fffd}")
        );
        assert_eq!(parsed(r#""\ud83dA""#).as_str(), Some("\u{fffd}A"));
        assert_eq!(parsed(r#""\ud83d\n""#).as_str(), Some("\u{fffd}\n"));
        assert_eq!(
            parsed(r#""\ud83d\ud83d\ude00""#).as_str(),
            Some("\u{fffd}\u{1f600}")
        );
        assert!(Json::parse(r#""\ud83d\uZZZZ""#).is_err());
        assert!(Json::parse(r#""\ud83d\ude0""#).is_err());
    }

    #[test]
    fn nesting_is_bounded_at_64_containers() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&nested(MAX_DEPTH + 1)),
            Err("nesting deeper than 64 at byte 64".into())
        );
        // Unclosed, unbalanced, or a hundred thousand deep: refused at the 65th, not descended.
        assert_eq!(
            Json::parse(&"[".repeat(100_000)),
            Err("nesting deeper than 64 at byte 64".into())
        );
        let objects = "{\"k\":".repeat(100_000);
        assert_eq!(
            Json::parse(&objects),
            Err(format!("nesting deeper than 64 at byte {}", 64 * 5))
        );
        // Depth counts what is open, not what has been seen.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 200].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn an_unparsable_digit_run_is_quoted_in_part_with_its_offset() {
        assert_eq!(
            Json::parse("[1, 1-1]"),
            Err("bad number '1-1' at byte 4".into())
        );
        // A body of digits and signs is refused in a line, not echoed back whole.
        let run = "1-".repeat(50_000);
        let message = Json::parse(&format!("{{\"n\":{run}}}")).unwrap_err();
        assert_eq!(
            message,
            format!("bad number '{}…' at byte 5", &run[..MAX_NUMBER_ECHO])
        );
        assert!(message.len() < 200);
    }

    #[test]
    fn accessors_are_total() {
        let v = Json::parse("[1]").unwrap();
        assert!(v.get("k").is_none());
        assert!(v.as_str().is_none());
        assert_eq!(v.as_arr().unwrap().len(), 1);
        assert!(Json::Null.as_arr().is_none());
    }
}
