//! Minimal hand-rolled JSON: the wire format of the cost-oracle service.
//!
//! The workspace is offline and std-only, so the service cannot lean on
//! `serde`; this module implements exactly the JSON subset the wire
//! protocol needs. Numbers are integers only (`i128` internally, wide
//! enough for both [`Word`](parbounds_models::Word) values and `u64`
//! costs with no rounding); the parser enforces a nesting-depth cap so a
//! hostile frame cannot blow the stack, and decodes in one pass, so its
//! time is linear in the frame however the frame is shaped.

use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// Maximum nesting depth the parser accepts. Legitimate plans nest about
/// seven levels deep; anything past this cap is a hostile or corrupt
/// frame.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value (integer-only numbers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the wire format never uses floats).
    Num(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved so rendering is canonical.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is a number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative number in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) => usize::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON text (no whitespace). Object
    /// field order is preserved, so equal values render identically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte 0x{other:02x} at offset {}",
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "non-integer number at byte {start} (the wire format is integer-only)"
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<i128>()
            .map(Json::Num)
            .map_err(|_| format!("unparsable number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or backslash
            // whole. Both are ASCII, so the run ends on a character
            // boundary, and every byte of the frame is validated once.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| "non-utf8 string")?);
            self.pos += run;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// Decodes the escape whose backslash was just consumed and steps past
    /// it.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self
                    .hex4(self.pos + 1)
                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                self.pos += 4;
                // A high surrogate followed by a low-surrogate escape is one
                // non-BMP scalar; a lone surrogate decodes to U+FFFD.
                let low = if (0xd800..0xdc00).contains(&code)
                    && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                {
                    self.hex4(self.pos + 3)
                        .filter(|low| (0xdc00..0xe000).contains(low))
                } else {
                    None
                };
                let scalar = match low {
                    Some(low) => {
                        self.pos += 6;
                        0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                    }
                    None => code,
                };
                char::from_u32(scalar).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The value of exactly four hex digits starting at byte `at`.
    fn hex4(&self, at: usize) -> Option<u32> {
        self.bytes
            .get(at..at + 4)?
            .iter()
            .try_fold(0, |acc, &b| Some(acc << 4 | char::from(b).to_digit(16)?))
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// FNV-1a, 64-bit: the service's one content hash.
///
/// As a [`Hasher`] it hashes any `#[derive(Hash)]` value field by field,
/// which is how the request cache key and the compiled-plan key address a
/// plan without rendering it. `Hash` feeds integers in native byte order
/// and width, so such a structural key is process-local: it is never
/// persisted or sent.
#[derive(Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The structural FNV-1a hash of `value`.
    pub fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = Fnv1a::default();
        value.hash(&mut h);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash of a byte string. Deterministic across runs and
/// platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let text = r#"{"id":7,"neg":-3,"ok":true,"s":"a\"b\\c\nd","arr":[1,[2,{"x":null}]]}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("neg").and_then(Json::as_i64), Some(-3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\nd"));
        let again = parse(&v.render()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn rejects_hostile_frames() {
        assert!(parse("{\"a\":1}garbage").is_err());
        assert!(parse("1.5").is_err());
        assert!(parse("\"unterminated").is_err());
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn numbers_cover_word_and_cost_ranges() {
        let v = parse(&format!("[{},{}]", i64::MIN, u64::MAX)).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_i64(), Some(i64::MIN));
        assert_eq!(items[1].as_u64(), Some(u64::MAX));
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        // The FNV-1a test vector for "a".
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn unicode_escapes_pair_surrogates_and_take_four_hex_digits() {
        let decode = |text: &str| parse(text).map(|v| v.as_str().map(str::to_string));
        assert_eq!(decode(r#""\ud83d\ude00""#), Ok(Some("😀".to_string())));
        assert_eq!(decode(r#""a\uD83D\uDE00b""#), Ok(Some("a😀b".to_string())));
        // Lone surrogates, and a high surrogate whose next escape is not a
        // low one, stay U+FFFD; the following escape still decodes.
        assert_eq!(decode(r#""\ud83d""#), Ok(Some("\u{fffd}".to_string())));
        assert_eq!(decode(r#""\ude00x""#), Ok(Some("\u{fffd}x".to_string())));
        assert_eq!(
            decode(r#""\ud83d\u0041""#),
            Ok(Some("\u{fffd}A".to_string()))
        );
        assert_eq!(
            decode(r#""\ud83d\ud83d\ude00""#),
            Ok(Some("\u{fffd}😀".to_string()))
        );
        assert_eq!(decode(r#""\u0041\u00e9""#), Ok(Some("Aé".to_string())));
        // Exactly four hex digits: no sign, no short or truncated escape.
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u-041""#).is_err());
        assert!(parse(r#""\u41""#).is_err());
        assert!(parse(r#""\u004"#).is_err());
        assert!(parse(r#""\ud83d\u+e00""#).is_err());
    }

    #[test]
    fn long_strings_round_trip_across_runs_and_escapes() {
        let pieces = [
            "plain ascii run ",
            "Θ(g·log n/(log g))",
            "😀",
            "\"",
            "\\",
            "/",
            "\n",
            "\r",
            "\t",
            "\u{8}",
            "\u{c}",
            "\u{1}",
            "\u{1f}",
        ];
        let mut long = String::new();
        for i in 0..20_000 {
            long.push_str(pieces[i % pieces.len()]);
            long.push_str(pieces[(i * 7 + 3) % pieces.len()]);
        }
        let value = Json::Obj(vec![("s".to_string(), Json::Str(long.clone()))]);
        let text = value.render();
        assert_eq!(parse(&text), Ok(value));
        // The escapes the renderer never emits decode to the same text.
        let mut escaped = String::from("\"");
        for c in long.chars().take(4096) {
            match c {
                '/' => escaped.push_str("\\/"),
                '\u{8}' => escaped.push_str("\\b"),
                '\u{c}' => escaped.push_str("\\f"),
                '😀' => escaped.push_str("\\ud83d\\ude00"),
                'Θ' => escaped.push_str("\\u0398"),
                c => {
                    let quoted = Json::Str(c.to_string()).render();
                    escaped.push_str(&quoted[1..quoted.len() - 1]);
                }
            }
        }
        escaped.push('"');
        let prefix: String = long.chars().take(4096).collect();
        assert_eq!(parse(&escaped), Ok(Json::Str(prefix)));
    }
}
