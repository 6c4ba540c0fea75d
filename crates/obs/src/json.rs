//! Minimal JSON emission and parsing — the workspace's serde stand-in.
//!
//! The result files under `results/` used to be produced with
//! `serde_json`; the workspace now builds hermetically without external
//! crates, so row types implement [`ToJson`] by hand and [`Json::pretty`]
//! renders the same two-space-indented layout
//! `serde_json::to_string_pretty` produced. [`Json::parse`] is the inverse,
//! used by round-trip golden tests and the CI metrics-snapshot check.
//!
//! This module lives in `xquec-obs` so the storage, core, and bench crates
//! can all serialize through it without a dependency cycle.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number (serialized like Rust's shortest float/int form).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Member lookup on an object (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Rejects trailing garbage and nesting deeper
    /// than [`MAX_PARSE_DEPTH`] (the parser recurses per level, so a depth
    /// bound turns a potential stack overflow on adversarial input into an
    /// error). Errors carry the byte offset and a short description.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

/// Maximum container nesting [`Json::parse`] accepts. Profiles and metrics
/// snapshots nest a handful of levels; 128 leaves two orders of magnitude
/// of headroom while keeping the recursive parser's stack usage bounded.
pub const MAX_PARSE_DEPTH: usize = 128;

/// Error from [`Json::parse`]: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &str, message: &'static str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => {
                self.literal("null", "expected null")?;
                Ok(Json::Null)
            }
            Some(b't') => {
                self.literal("true", "expected true")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.literal("false", "expected false")?;
                Ok(Json::Bool(false))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    // Parsing aborts on the first error, so `depth` is only decremented on
    // the success paths; an errored parser is never reused.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[', "expected [")?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{', "expected {")?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected : after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected string")?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.literal("\\u", "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 advanced past the digits already
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing on
                    // a char boundary is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn format_number(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_owned(); // JSON has no NaN/inf
    }
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Conversion into a [`Json`] value (the `Serialize` stand-in).
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_owned())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_matches_serde_layout() {
        let v = Json::Arr(vec![Json::obj(vec![
            ("name", "xmark".to_json()),
            ("bytes", 12usize.to_json()),
            ("ratio", Json::Num(0.5)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
        ])]);
        let expect = "[\n  {\n    \"name\": \"xmark\",\n    \"bytes\": 12,\n    \"ratio\": 0.5,\n    \"ok\": true,\n    \"missing\": null\n  }\n]";
        assert_eq!(v.pretty(), expect);
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(Json::Str("a\"b\\c\nd\u{1}".into()).pretty(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null"), Ok(Json::Null));
        assert_eq!(Json::parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(Json::parse("false"), Ok(Json::Bool(false)));
        assert_eq!(Json::parse("42"), Ok(Json::Num(42.0)));
        assert_eq!(Json::parse("-1.5e2"), Ok(Json::Num(-150.0)));
        assert_eq!(Json::parse("\"hi\""), Ok(Json::Str("hi".into())));
    }

    #[test]
    fn parse_escapes_and_unicode() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd""#),
            Ok(Json::Str("a\"b\\c\nd".into()))
        );
        // Escaped surrogate pair for U+1D11E (musical G clef).
        assert_eq!(
            Json::parse("\"\\ud834\\udd1e\""),
            Ok(Json::Str("\u{1D11E}".into()))
        );
        assert_eq!(Json::parse("\"\\u0041\""), Ok(Json::Str("A".into())));
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(Json::parse("\"héllo\""), Ok(Json::Str("héllo".into())));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse(r#""\ud834""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn pretty_parse_round_trip() {
        let v = Json::obj(vec![
            ("name", "xmark auction".to_json()),
            ("count", 12usize.to_json()),
            ("ratio", Json::Num(0.375)),
            ("tags", Json::Arr(vec!["a".to_json(), "b\n".to_json()])),
            ("nested", Json::obj(vec![("empty_arr", Json::Arr(vec![])), ("null", Json::Null)])),
        ]);
        assert_eq!(Json::parse(&v.pretty()), Ok(v));
    }

    #[test]
    fn parse_number_edge_forms() {
        // Negative zero keeps its sign bit through the f64 parse.
        match Json::parse("-0") {
            Ok(Json::Num(v)) => {
                assert_eq!(v, 0.0);
                assert!(v.is_sign_negative());
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(Json::parse("1e308"), Ok(Json::Num(1e308)));
        // Overflowing exponents saturate to infinity rather than erroring;
        // `pretty` then renders them as null (non-finite policy).
        match Json::parse("1e309") {
            Ok(Json::Num(v)) => assert!(v.is_infinite()),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(Json::parse("0.5e-3"), Ok(Json::Num(0.0005)));
        assert_eq!(Json::parse("-12.25E+1"), Ok(Json::Num(-122.5)));
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("+1").is_err());
        assert!(Json::parse(".5").is_err());
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let nest = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_PARSE_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_PARSE_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        // Objects count against the same budget.
        let objs = format!(
            "{}1{}",
            "{\"k\":[".repeat(MAX_PARSE_DEPTH),
            "]}".repeat(MAX_PARSE_DEPTH)
        );
        assert!(Json::parse(&objs).is_err());
        // Unclosed deep input must error, not overflow the stack.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn sibling_containers_do_not_accumulate_depth() {
        // 500 sibling objects inside one array: depth never exceeds 2.
        let wide = format!("[{}]", vec!["{\"a\":[0]}"; 500].join(","));
        let parsed = Json::parse(&wide).expect("wide document parses");
        match parsed {
            Json::Arr(items) => assert_eq!(items.len(), 500),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn generated_documents_round_trip() {
        // Deterministic LCG so the test is reproducible without a rand dep.
        fn gen(state: &mut u64, depth: usize) -> Json {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = (*state >> 33) % if depth >= 5 { 4 } else { 6 };
            match pick {
                0 => Json::Null,
                1 => Json::Bool(*state & 1 == 0),
                2 => Json::Num(((*state >> 20) as i64 - (1 << 43)) as f64 / 1024.0),
                3 => Json::Str(format!("s{}\n\"\\{}", *state % 100, char::from_u32((*state % 0x1_0000) as u32).unwrap_or('\u{fffd}'))),
                4 => Json::Arr((0..*state % 4).map(|_| gen(state, depth + 1)).collect()),
                _ => Json::Obj((0..*state % 4).map(|i| (format!("k{i}"), gen(state, depth + 1))).collect()),
            }
        }
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..200 {
            let doc = gen(&mut state, 0);
            let text = doc.pretty();
            assert_eq!(Json::parse(&text), Ok(doc), "round trip failed for: {text}");
        }
    }
}
