//! A minimal, dependency-free JSON parser, and the one `f64` formatter
//! the hand-rendered JSON writers share.
//!
//! The hermetic offline build carries no JSON crate, so the trace-analysis
//! CLI reads exported lines back through [`parse`] into a [`Value`] tree,
//! and the telemetry tests and the CI smoke step check exported JSONL with
//! [`validate`] / [`validate_jsonl`], which run the same parser and drop
//! the tree: one grammar, not two.
//!
//! The parser descends one call per nesting level, so it refuses documents
//! nested deeper than [`MAX_DEPTH`]: a line of brackets from a hostile peer
//! must get an error, not overflow the reading thread's stack.

/// A finite `f64` as a JSON number (Rust's shortest round-trip form), and
/// anything else, which JSON cannot carry, as `null`.
#[must_use]
pub fn f64_or_null(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The deepest array/object nesting [`parse`] (and so [`validate`])
/// accepts. Exported lines nest only a few levels.
pub const MAX_DEPTH: usize = 64;

/// Enters one more array/object level at `pos`, or refuses past
/// [`MAX_DEPTH`].
fn nest(depth: usize, pos: usize) -> Result<usize, String> {
    if depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    Ok(depth + 1)
}

/// Validates that `s` is exactly one JSON value (with optional surrounding
/// whitespace).
///
/// # Errors
///
/// Returns the byte offset and a short description of the first syntax
/// error.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// Validates every non-empty line of `s` as standalone JSON and returns
/// the number of lines checked.
///
/// # Errors
///
/// Returns the 1-based line number and the underlying error for the first
/// invalid line.
pub fn validate_jsonl(s: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        n += 1;
    }
    Ok(n)
}

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

fn literal(b: &[u8], pos: usize, lit: &[u8]) -> Result<usize, String> {
    if b[pos..].starts_with(lit) {
        Ok(pos + lit.len())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn string(b: &[u8], pos: usize) -> Result<usize, String> {
    if b.get(pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    let mut i = pos + 1;
    while let Some(&c) = b.get(i) {
        match c {
            b'"' => return Ok(i + 1),
            b'\\' => match b.get(i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                Some(b'u') => {
                    let hex = b.get(i + 2..i + 6).ok_or("truncated \\u escape")?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {i}"));
                    }
                    i += 6;
                }
                _ => return Err(format!("bad escape at byte {i}")),
            },
            0x00..=0x1F => return Err(format!("unescaped control byte at {i}")),
            _ => i += 1,
        }
    }
    Err(format!("unterminated string starting at byte {pos}"))
}

fn number(b: &[u8], mut pos: usize) -> Result<usize, String> {
    let start = pos;
    if b.get(pos) == Some(&b'-') {
        pos += 1;
    }
    let digits = |b: &[u8], mut p: usize| -> usize {
        while p < b.len() && b[p].is_ascii_digit() {
            p += 1;
        }
        p
    };
    let int_end = digits(b, pos);
    if int_end == pos {
        return Err(format!("expected digit at byte {pos}"));
    }
    if b[pos] == b'0' && int_end > pos + 1 {
        return Err(format!("leading zero at byte {pos}"));
    }
    pos = int_end;
    if b.get(pos) == Some(&b'.') {
        let frac_end = digits(b, pos + 1);
        if frac_end == pos + 1 {
            return Err(format!("expected fraction digit at byte {pos}"));
        }
        pos = frac_end;
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(b.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        let exp_end = digits(b, pos);
        if exp_end == pos {
            return Err(format!("expected exponent digit at byte {start}"));
        }
        pos = exp_end;
    }
    Ok(pos)
}

/// A parsed JSON value.
///
/// Objects keep their members in document order as a plain pair list —
/// the exporters emit few, fixed keys per line, so a linear [`Value::get`]
/// beats a map.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The named member of an object (`None` for other variants or a
    /// missing key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions and
    /// out-of-range numbers).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 1.8446744073709552e19 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a signed integer (rejects fractions and out-of-range
    /// numbers).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(v)
                if v.fract() == 0.0
                    && *v >= -9.223372036854776e18
                    && *v <= 9.223372036854776e18 =>
            {
                Some(*v as i64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses `s` as exactly one JSON value (with optional surrounding
/// whitespace) into a [`Value`] tree.
///
/// # Errors
///
/// Returns the byte offset and a short description of the first syntax
/// error.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let pos = skip_ws(b, 0);
    let (v, pos) = parse_value(b, pos, 0)?;
    let pos = skip_ws(b, pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn parse_value(b: &[u8], pos: usize, depth: usize) -> Result<(Value, usize), String> {
    match b.get(pos) {
        Some(b'{') => parse_object(b, pos, nest(depth, pos)?),
        Some(b'[') => parse_array(b, pos, nest(depth, pos)?),
        Some(b'"') => {
            let (s, end) = parse_string(b, pos)?;
            Ok((Value::Str(s), end))
        }
        Some(b't') => literal(b, pos, b"true").map(|end| (Value::Bool(true), end)),
        Some(b'f') => literal(b, pos, b"false").map(|end| (Value::Bool(false), end)),
        Some(b'n') => literal(b, pos, b"null").map(|end| (Value::Null, end)),
        Some(c) if *c == b'-' || c.is_ascii_digit() => {
            let end = number(b, pos)?;
            let text = std::str::from_utf8(&b[pos..end]).map_err(|_| "non-utf8 number")?;
            let v: f64 = text
                .parse()
                .map_err(|_| format!("bad number at byte {pos}"))?;
            Ok((Value::Num(v), end))
        }
        Some(c) => Err(format!("unexpected byte {:?} at {pos}", *c as char)),
        None => Err(format!("unexpected end of input at byte {pos}")),
    }
}

fn parse_object(b: &[u8], mut pos: usize, depth: usize) -> Result<(Value, usize), String> {
    let mut members = Vec::new();
    pos = skip_ws(b, pos + 1); // consume '{'
    if b.get(pos) == Some(&b'}') {
        return Ok((Value::Obj(members), pos + 1));
    }
    loop {
        let (key, end) = parse_string(b, pos).map_err(|e| format!("object key: {e}"))?;
        pos = skip_ws(b, end);
        if b.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        pos = skip_ws(b, pos + 1);
        let (v, end) = parse_value(b, pos, depth)?;
        members.push((key, v));
        pos = skip_ws(b, end);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b'}') => return Ok((Value::Obj(members), pos + 1)),
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], mut pos: usize, depth: usize) -> Result<(Value, usize), String> {
    let mut items = Vec::new();
    pos = skip_ws(b, pos + 1); // consume '['
    if b.get(pos) == Some(&b']') {
        return Ok((Value::Arr(items), pos + 1));
    }
    loop {
        let (v, end) = parse_value(b, pos, depth)?;
        items.push(v);
        pos = skip_ws(b, end);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b']') => return Ok((Value::Arr(items), pos + 1)),
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: usize) -> Result<(String, usize), String> {
    // Validate first so the decode loop below only sees well-formed input.
    let end = string(b, pos)?;
    let body = &b[pos + 1..end - 1];
    let mut out = String::with_capacity(body.len());
    let mut i = 0;
    while i < body.len() {
        if body[i] == b'\\' {
            match body[i + 1] {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = std::str::from_utf8(&body[i + 2..i + 6]).unwrap_or("0");
                    let code = u32::from_str_radix(hex, 16).unwrap_or(0);
                    // Surrogates and other invalid scalars decode to the
                    // replacement character; the exporters never emit them.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    i += 6;
                    continue;
                }
                _ => unreachable!("escape validated above"),
            }
            i += 2;
        } else {
            let ch_len = match body[i] {
                0x00..=0x7F => 1,
                0xC0..=0xDF => 2,
                0xE0..=0xEF => 3,
                _ => 4,
            };
            let ch = std::str::from_utf8(&body[i..i + ch_len])
                .map_err(|_| format!("non-utf8 string at byte {pos}"))?;
            out.push_str(ch);
            i += ch_len;
        }
    }
    Ok((out, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-0.5e+3",
            "1e-10",
            r#"{"a":[1,2.5,{"b":"x\ny"},true,null],"c":"é"}"#,
            r#"  {"padded": [ 1 , 2 ] }  "#,
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "\"unterminated",
            "nul",
            "{} extra",
            "NaN",
        ] {
            assert!(validate(doc).is_err(), "{doc:?} should be invalid");
        }
    }

    #[test]
    fn jsonl_counts_nonempty_lines() {
        assert_eq!(validate_jsonl("{}\n\n[1]\n").unwrap(), 2);
        assert!(validate_jsonl("{}\nbad\n").is_err());
    }

    #[test]
    fn jsonl_truncated_object_reports_its_line() {
        let err = validate_jsonl("{\"a\":1}\n{\"b\":2\n{\"c\":3}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn jsonl_bare_nan_reports_its_line() {
        let err = validate_jsonl("{\"ok\":null}\n{\"v\":NaN}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains('N'), "{err}");
    }

    #[test]
    fn jsonl_unterminated_string_reports_its_line() {
        let err = validate_jsonl("{}\n{}\n{\"name\":\"oops}\n").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("unterminated"), "{err}");
    }

    #[test]
    fn jsonl_accepts_crlf_line_endings() {
        // \r is stripped by str::lines for \r\n endings, and a stray \r
        // inside a line is plain whitespace to the validator either way.
        assert_eq!(validate_jsonl("{\"a\":1}\r\n{\"b\":2}\r\n").unwrap(), 2);
        assert_eq!(validate_jsonl("{\"a\":1}\r\n{\"b\":2}").unwrap(), 2);
        let err = validate_jsonl("{\"a\":1}\r\n{\"b\":\r\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn parse_builds_the_value_tree() {
        let v = parse(r#"{"name":"sim.sent","value":4,"nested":[1,-2.5,null,true],"t":"a\nb"}"#)
            .unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("sim.sent"));
        assert_eq!(v.get("value").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("t").and_then(Value::as_str), Some("a\nb"));
        match v.get("nested") {
            Some(Value::Arr(items)) => {
                assert_eq!(items[0].as_f64(), Some(1.0));
                assert_eq!(items[1].as_f64(), Some(-2.5));
                assert_eq!(items[1].as_u64(), None);
                assert_eq!(items[1].as_i64(), None, "fractions are not integers");
                assert_eq!(items[2], Value::Null);
                assert_eq!(items[3].as_bool(), Some(true));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_decodes_unicode_escapes() {
        let v = parse(r#""café ✓""#).unwrap();
        assert_eq!(v.as_str(), Some("café ✓"));
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        for doc in ["", "{", "[1,]", "NaN", "\"unterminated", "{} extra"] {
            assert!(parse(doc).is_err(), "{doc:?} should fail to parse");
        }
    }

    #[test]
    fn parse_round_trips_exporter_lines() {
        // A realistic exporter line: negative ints, nulls, bools, strings.
        let line = "{\"type\":\"event\",\"tick\":42,\"seq\":3,\"kind\":\"lu_decision\",\"node\":7,\"seq2\":-1,\"sent\":false,\"displacement\":null,\"dth\":38.5}";
        let v = parse(line).unwrap();
        assert_eq!(v.get("tick").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("seq2").and_then(Value::as_i64), Some(-1));
        assert_eq!(v.get("sent").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("displacement"), Some(&Value::Null));
        assert_eq!(v.get("dth").and_then(Value::as_f64), Some(38.5));
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        // serve's 64 KiB query-line cap: the longest line a peer can send.
        let line_cap = 64 * 1024;
        let deep_object = "{\"a\":".repeat(line_cap / 5) + &"}".repeat(line_cap / 5);
        let docs = ["[".repeat(line_cap), deep_object];
        // A stack far below the 2 MiB default: recursion must stop at
        // MAX_DEPTH whatever the input.
        std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(move || {
                for doc in &docs {
                    assert!(validate(doc).unwrap_err().contains("nesting"));
                    assert!(parse(doc).unwrap_err().contains("nesting"));
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn nesting_up_to_the_cap_is_accepted() {
        let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(validate(&at_cap).is_ok());
        assert!(parse(&at_cap).is_ok());
        let past = format!("[{at_cap}]");
        assert!(validate(&past).is_err());
        assert!(parse(&past).is_err());
    }
}
