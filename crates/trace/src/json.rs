//! A dependency-free parser for the JSON subset the tracer emits.
//!
//! The emitter writes objects, arrays, strings, booleans, `null`, and
//! *integer* numbers only — durations are microsecond counts, sizes are node
//! counts — so integers parse exactly into `i128`, wide enough for any `u64`
//! the emitter produces. Fractional and exponent forms parse into a separate
//! [`JsonValue::Float`] variant (the bench baseline's `wall_s` columns need
//! them); [`JsonValue::as_num`] still answers `None` for floats, so integer
//! consumers such as the trace schema keep their exactness guarantee.

use std::fmt;

/// A parsed JSON value (integer-only numbers; see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number.
    Num(i128),
    /// A fractional or exponent-form number, stored as IEEE-754 bits so the
    /// value type stays `Eq` (bit equality; construct via [`f64::to_bits`],
    /// read via [`JsonValue::as_f64`]).
    Float(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key of an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is a number.
    pub fn as_num(&self) -> Option<i128> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64`, if this is a number of either kind (integers
    /// convert with the usual `i128 → f64` rounding).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n as f64),
            JsonValue::Float(bits) => Some(f64::from_bits(*bits)),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// A parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Escapes `s` as a JSON string literal, quotes included.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse_json(s: &str) -> Result<JsonValue, JsonError> {
    let bytes = s.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'s> {
    bytes: &'s [u8],
    pos: usize,
}

impl<'s> Parser<'s> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn keyword(&mut self, kw: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if float {
            return match text.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(JsonValue::Float(v.to_bits())),
                _ => Err(self.err("invalid number")),
            };
        }
        text.parse::<i128>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not emitted by the tracer;
                            // map unpairable ones to the replacement char.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // at char boundaries is safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_an_event_line() {
        let line = r#"{"ts":12,"ev":"iter","iter":0,"preds_by_fun":{"f":2,"k":0},"neg":-4,"ok":true,"s":"a\"b"}"#;
        let v = parse_json(line).expect("parses");
        assert_eq!(v.get("ts").and_then(JsonValue::as_num), Some(12));
        assert_eq!(v.get("ev").and_then(JsonValue::as_str), Some("iter"));
        assert_eq!(
            v.get("preds_by_fun")
                .and_then(|m| m.get("f"))
                .and_then(JsonValue::as_num),
            Some(2)
        );
        assert_eq!(v.get("neg").and_then(JsonValue::as_num), Some(-4));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\"b"));
    }

    #[test]
    fn escape_then_parse_is_identity() {
        let cases = [
            "",
            "plain",
            "q\"uote",
            "back\\slash",
            "new\nline",
            "\u{1}ctl",
            "ünïcodé",
        ];
        for c in cases {
            let escaped = escape_json(c);
            let v = parse_json(&escaped).expect("parses");
            assert_eq!(v.as_str(), Some(c), "case {c:?}");
        }
    }

    #[test]
    fn floats_parse_but_stay_out_of_as_num() {
        let v = parse_json("1.5").expect("parses");
        assert_eq!(v.as_f64(), Some(1.5));
        assert_eq!(v.as_num(), None, "floats are not trace integers");
        assert_eq!(parse_json("1e3").expect("parses").as_f64(), Some(1000.0));
        assert_eq!(parse_json("-2.25").expect("parses").as_f64(), Some(-2.25));
        assert_eq!(parse_json("7").expect("parses").as_f64(), Some(7.0));
        assert!(parse_json("1.5.2").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2").is_err());
    }

    #[test]
    fn arrays_and_nesting() {
        let v = parse_json(r#"[1,[2,3],{"k":null}]"#).expect("parses");
        let JsonValue::Arr(items) = &v else { panic!() };
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].get("k"), Some(&JsonValue::Null));
    }
}
