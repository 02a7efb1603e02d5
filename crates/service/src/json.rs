//! Hand-rolled JSON: a value type, a recursive-descent parser and a
//! serializer.
//!
//! The workspace's hermetic build policy (no registry crates) rules out
//! `serde`; the seed repo only had one-way `to_json` emitters. The wire
//! format of `cfmapd` needs round-tripping, so this module implements the
//! subset of JSON the protocol uses — with one deliberate restriction:
//! **numbers are `i64`**. Every quantity in the mapping theory is an
//! integer, floats would import equality headaches into the cache layer,
//! and rejecting `1.5` loudly beats truncating it silently.
//!
//! Objects preserve insertion order (they are association lists, not hash
//! maps), so `parse(serialize(x)) == x` holds structurally, which the
//! testkit property tests in `tests/wire_props.rs` exercise. An object
//! that repeats a key is refused: a reader that kept the first value
//! and one that kept the last would serve different problems.

use std::fmt;

/// A JSON value. Numbers are `i64` by design (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (the only number form the protocol uses).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered association list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (parsed objects hold each key at most once).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Build an array of integers.
    pub fn ints(values: &[i64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Int(v)).collect())
    }

    /// Build an array of integer arrays (a matrix).
    pub fn int_rows(rows: &[Vec<i64>]) -> Json {
        Json::Arr(rows.iter().map(|r| Json::ints(r)).collect())
    }

    /// Serialize to a compact JSON string.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Str(s) => write_string(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.serialize())
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Nesting deeper than this is rejected (stack-overflow guard against
/// adversarial `[[[[…`).
const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0, keys: Vec::new() };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// `(field index, byte offset)` of every key of the objects being
    /// parsed, innermost object last — one buffer for the whole parse.
    keys: Vec<(usize, usize)>,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { offset: self.pos, msg: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        let first_key = self.keys.len();
        loop {
            self.skip_ws();
            self.keys.push((fields.len(), self.pos));
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
                    self.refuse_repeated_keys(&fields, first_key)?;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Fail if the object just parsed into `fields` holds a key twice;
    /// its keys are the entries of `self.keys` from `first_key` on, which
    /// are popped. Sorting the keys and comparing neighbours takes
    /// `O(k log k)` for `k` keys, where a pairwise scan would be quadratic
    /// in a large hostile body. The error points at the earliest second
    /// occurrence in the input and names its key.
    fn refuse_repeated_keys(
        &mut self,
        fields: &[(String, Json)],
        first_key: usize,
    ) -> Result<(), JsonError> {
        let keys = &mut self.keys[first_key..];
        keys.sort_unstable_by(|a, b| fields[a.0].0.cmp(&fields[b.0].0).then(a.0.cmp(&b.0)));
        let repeat = keys
            .windows(2)
            .filter(|pair| fields[pair[0].0].0 == fields[pair[1].0].0)
            .map(|pair| pair[1])
            .min();
        self.keys.truncate(first_key);
        match repeat {
            Some((field, offset)) => Err(JsonError {
                offset,
                msg: format!("repeated object key {:?}", fields[field].0),
            }),
            None => Ok(()),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by \uXXXX with a low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            // hex4 leaves pos on the char *after* the
                            // escape already; skip the shared += 1 below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"))
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    // Decode only the next sequence (≤ 4 bytes) — running
                    // from_utf8 over the whole tail per character made
                    // string parsing O(n²).
                    let end = (self.pos + 4).min(self.bytes.len());
                    let window = &self.bytes[self.pos..end];
                    let valid = match std::str::from_utf8(window) {
                        Ok(s) => s,
                        // A 4-byte window holds any complete UTF-8 char,
                        // so a valid prefix shorter than the window still
                        // contains the char we want; an empty prefix
                        // means the sequence itself is bad or truncated.
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&window[..e.valid_up_to()])
                                .expect("prefix is valid")
                        }
                        Err(_) => return Err(self.err("invalid UTF-8")),
                    };
                    let c = valid.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err(
                "non-integer numbers are not part of the cfmapd wire format",
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| JsonError { offset: start, msg: format!("bad integer {text:?}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Int(0)),
            ("-42", Json::Int(-42)),
            ("9223372036854775807", Json::Int(i64::MAX)),
            ("-9223372036854775808", Json::Int(i64::MIN)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
            assert_eq!(parse(&value.serialize()).unwrap(), value);
        }
    }

    #[test]
    fn nested_structures() {
        let text = r#" {"a": [1, 2, {"b": null}], "c": "x\ny", "d": true} "#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(parse(&v.serialize()).unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let s = Json::Str("quote \" slash \\ newline \n tab \t unicode \u{1F600} nul-ish \u{1}".into());
        assert_eq!(parse(&s.serialize()).unwrap(), s);
    }

    #[test]
    fn surrogate_pair_parses() {
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn long_mixed_width_strings_round_trip() {
        // The windowed char decoder must walk multi-byte sequences of
        // every width, including back-to-back ones and one ending flush
        // with the input (the 4-byte window is then truncated).
        let body: String = "aé€😀".repeat(2000);
        for tail in ["", "é", "€", "😀"] {
            let s = Json::Str(format!("{body}{tail}"));
            assert_eq!(parse(&s.serialize()).unwrap(), s);
        }
    }

    #[test]
    fn floats_are_rejected_loudly() {
        let err = parse("1.5").unwrap_err();
        assert!(err.msg.contains("non-integer"), "{err}");
        assert!(parse("1e3").is_err());
    }

    #[test]
    fn malformed_inputs_error_with_offsets() {
        for bad in ["", "[1,", "{\"a\"}", "tru", "\"unterminated", "[1] junk", "{1: 2}"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert_eq!(parse("  [1, x]").unwrap_err().offset, 6);
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn repeated_keys_are_refused_at_every_depth() {
        let body = r#"{"algorithm":"matmul","mu":[4],"space":[[1,1,-1]],"mu":[9]}"#;
        let err = parse(body).unwrap_err();
        assert_eq!(err.offset, body.rfind("\"mu\"").unwrap(), "{err}");
        assert!(err.msg.contains("\"mu\""), "{err}");
        // Nested objects are checked on their own; the earliest repeat
        // in the input is the one reported.
        let nested = r#"{"a":{"x":1,"y":{"z":1,"z":2},"x":3},"b":{"b":1}}"#;
        let err = parse(nested).unwrap_err();
        assert_eq!(err.offset, nested.find("\"z\":2").unwrap(), "{err}");
        assert!(err.msg.contains("\"z\""), "{err}");
        let siblings = r#"[{"k":1},{"k":1,"j":2,"k":3}]"#;
        let err = parse(siblings).unwrap_err();
        assert_eq!(err.offset, siblings.rfind("\"k\"").unwrap(), "{err}");
        // The same key in sibling or nested objects is no repeat.
        let ok = parse(r#"{"a":{"a":{"a":1}},"b":[{"a":1},{"a":2}]}"#).unwrap();
        assert_eq!(ok.get("b").unwrap().as_arr().unwrap().len(), 2);
        assert!(parse(r#"{"":1,"":2}"#).is_err());
    }

    #[test]
    fn a_mebibyte_of_distinct_keys_parses_in_linearithmic_time() {
        // 71k keys in 1 MiB: a pairwise duplicate scan would make
        // ~2.5·10⁹ comparisons; sorting makes ~1.2·10⁶.
        let mut body = String::from("{");
        let mut n = 0;
        while body.len() < (1 << 20) - 16 {
            if n > 0 {
                body.push(',');
            }
            body.push_str(&format!("\"k{n}\":{n}"));
            n += 1;
        }
        body.push('}');
        let started = std::time::Instant::now();
        let v = parse(&body).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(v.get("k0").and_then(Json::as_i64), Some(0));
        match v {
            Json::Obj(fields) => assert_eq!(fields.len(), n),
            other => panic!("expected an object, got {other:?}"),
        }
        assert!(elapsed < std::time::Duration::from_secs(5), "{n} keys took {elapsed:?}");
        let mut repeated = body.clone();
        repeated.insert_str(repeated.len() - 1, ",\"k7\":0");
        assert!(parse(&repeated).unwrap_err().msg.contains("\"k7\""));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(v.serialize(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn int_helpers() {
        assert_eq!(Json::ints(&[1, -2]).serialize(), "[1,-2]");
        assert_eq!(
            Json::int_rows(&[vec![1, 0], vec![0, 1]]).serialize(),
            "[[1,0],[0,1]]"
        );
    }
}
