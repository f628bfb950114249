//! A minimal JSON reader for the repository's own artifacts.
//!
//! The repository writes all artifacts with hand-rolled JSON; this is
//! a small recursive-descent parser for the full JSON value grammar,
//! for the consumers that read one back: the sweep driver's
//! content-addressed cell cache and the standalone repository
//! benchmark. Numbers parse as `f64`
//! (every number those artifacts carry is exactly representable or
//! only compared approximately).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Every document the
/// repository writes is a handful of levels deep; the bound turns a
/// corrupt file full of `[` into an `Err` instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed; trailing
/// garbage and nesting deeper than 128 arrays/objects rejected).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut pos = 0;
    let v = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Parses the value at `*pos`, which sits `depth` arrays/objects deep.
fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", *pos))
        }
        Some(b'{') => parse_obj(s, pos, depth + 1),
        Some(b'[') => parse_arr(s, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(s, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number `{s}` at byte {start}"))
}

fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not emitted by any artifact
                        // writer in this repository; reject them.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u escape {code:04x}"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar straight from the already
                // validated &str: the parser only ever stops on char
                // boundaries, so nothing is re-validated.
                let c = s
                    .get(*pos..)
                    .and_then(|rest| rest.chars().next())
                    .ok_or_else(|| format!("bad string byte {}", *pos))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(s: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let b = s.as_bytes();
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(s, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_obj(s: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let b = s.as_bytes();
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(s, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(s, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e1").unwrap(), Value::Num(-125.0));
        assert_eq!(parse("\"a\\nb\\u0041\"").unwrap(), Value::Str("a\nbA".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse("{\"a\":[1,2,{\"b\":\"x\"}],\"c\":{}}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap(), &Value::Obj(vec![]));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        assert!(parse(&deep).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).unwrap_err().contains("nesting"));
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn parses_a_one_megabyte_string() {
        // Multi-byte scalars throughout, padded to exactly 1 MB.
        let mut body = "aé€".repeat(1 << 17);
        body.push_str(&"x".repeat(1_000_000 - body.len()));
        assert_eq!(body.len(), 1_000_000);
        let v = parse(&format!("{{\"s\":\"{body}\"}}")).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(body.as_str()));
    }

    #[test]
    fn as_u64_is_strict() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn round_trips_own_output() {
        let text = "{\"a\":[1,2.5,{\"b\":\"x\\\"y\"}],\"n\":null,\"t\":true}";
        let expect = Value::Obj(vec![
            (
                "a".to_string(),
                Value::Arr(vec![
                    Value::Num(1.0),
                    Value::Num(2.5),
                    Value::Obj(vec![("b".to_string(), Value::Str("x\"y".to_string()))]),
                ]),
            ),
            ("n".to_string(), Value::Null),
            ("t".to_string(), Value::Bool(true)),
        ]);
        assert_eq!(parse(text).unwrap(), expect);
    }

    #[test]
    fn round_trips_a_realistic_perf_doc_fragment() {
        let text = "{\"schema_version\":1,\"phases\":[{\"phase\":\"sim.run\",\
                    \"median_ns\":123456,\"count\":6,\"items\":12000}]}";
        let v = parse(text).unwrap();
        let phases = v.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases[0].get("median_ns").unwrap().as_u64(), Some(123456));
        let num = |n: f64| Value::Num(n);
        let expect = Value::Obj(vec![
            ("schema_version".to_string(), num(1.0)),
            (
                "phases".to_string(),
                Value::Arr(vec![Value::Obj(vec![
                    ("phase".to_string(), Value::Str("sim.run".to_string())),
                    ("median_ns".to_string(), num(123456.0)),
                    ("count".to_string(), num(6.0)),
                    ("items".to_string(), num(12000.0)),
                ])]),
            ),
        ]);
        assert_eq!(v, expect);
    }
}
