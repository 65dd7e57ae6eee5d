//! The harness's JSON: a [`Value`] tree, its renderer and its reader.
//!
//! The harness writes two documents, the `BENCH_fleet.json` trajectory
//! and `results/soak_report.json`, each built as a `Value` tree by hand.
//! Rendering is compact: object keys in insertion order, numbers through
//! their `Display`, non-finite floats as `null`, and strings escaped by
//! [`fiat_telemetry::json_escape`]. The reader takes any RFC 8259 text.
//! `BENCH_fleet.json` comes from outside the program, so the reader
//! refuses nesting deeper than [`MAX_DEPTH`] rather than recursing
//! without bound.

use fiat_telemetry::json_escape;
use std::fmt::Write as _;

/// A JSON value. Objects keep their entries in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Look up a field in an object's entry list.
    pub fn field<'a>(obj: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Append this value's compact JSON to `out`.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => write!(out, "{n}").unwrap(),
            Value::I64(n) => write!(out, "{n}").unwrap(),
            Value::F64(x) if x.is_finite() => write!(out, "{x}").unwrap(),
            Value::F64(_) => out.push_str("null"),
            Value::Str(s) => write!(out, "\"{}\"", json_escape(s)).unwrap(),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Value::Obj(entries) => {
                out.push('{');
                for (i, (k, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write!(out, "\"{}\":", json_escape(k)).unwrap();
                    item.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The
/// harness's documents nest 5 deep (document, `records`, record, `rows`,
/// row).
const MAX_DEPTH: usize = 128;

/// Parse one JSON text: a single value, with optional whitespace around
/// it.
pub fn parse(bytes: &[u8]) -> Result<Value, String> {
    let mut r = Reader { bytes, pos: 0 };
    let value = r.value(0)?;
    r.skip_ws();
    if r.pos != bytes.len() {
        return Err(r.error("trailing characters"));
    }
    Ok(value)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON error: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, then consume `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.bytes.get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    /// One value whose enclosing arrays and objects number `depth`.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.error("expected `,` or `]`"));
                        }
                    }
                }
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        if !self.eat(b':') {
                            return Err(self.error("expected `:`"));
                        }
                        entries.push((key, self.value(depth + 1)?));
                        if self.eat(b'}') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.error("expected `,` or `}`"));
                        }
                    }
                }
                Ok(Value::Obj(entries))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let rest = &self.bytes[self.pos..];
                let (lit, value) = [
                    ("null", Value::Null),
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                ]
                .into_iter()
                .find(|(lit, _)| rest.starts_with(lit.as_bytes()))
                .ok_or_else(|| self.error("unexpected input"))?;
                self.pos += lit.len();
                Ok(value)
            }
        }
    }

    /// A string literal, starting at its opening quote.
    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // A quote or backslash byte is never part of a multi-byte
            // UTF-8 sequence, so each run between them decodes alone.
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.error("invalid UTF-8 in string"))?;
            out.push_str(run);
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    let escape = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    out.push(match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.error("bad escape")),
                    });
                }
            }
        }
    }

    /// The code point after a `\u` (already consumed): four hex digits,
    /// joined with a following `\uXXXX` low surrogate when they name a
    /// high one.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) && self.bytes[self.pos..].starts_with(b"\\u")
        {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("unpaired surrogate"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let digit = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.error("bad \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// A number: `u64` or `i64` when it is an integer that fits, `f64`
    /// otherwise.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.pos += 1;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("bad number"))?;
        let integer = text
            .strip_prefix('-')
            .unwrap_or(text)
            .bytes()
            .all(|b| b.is_ascii_digit());
        let exact = match (integer, text.starts_with('-')) {
            (false, _) => None,
            (true, false) => text.parse().ok().map(Value::U64),
            (true, true) => text.parse().ok().map(Value::I64),
        };
        match exact {
            Some(value) => Ok(value),
            None => text
                .parse()
                .map(Value::F64)
                .map_err(|_| self.error("bad number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_telemetry::MetricRegistry;

    fn render(v: &Value) -> String {
        let mut out = String::new();
        v.write_to(&mut out);
        out
    }

    #[test]
    fn escaped_strings_round_trip() {
        let s = "a\"b\\c\nd\re\tf\u{1}g\u{1f}h/—😀";
        let json = render(&Value::Str(s.into()));
        assert_eq!(json, r#""a\"b\\c\nd\re\tf\u0001g\u001fh/—😀""#);
        assert_eq!(parse(json.as_bytes()), Ok(Value::Str(s.into())));
        // Escapes the renderer never writes still read back.
        assert_eq!(
            parse(br#""\/\b\f\u00e9\ud83d\ude00""#),
            Ok(Value::Str("/\u{8}\u{c}é😀".into()))
        );
        assert!(parse(br#""\ud83d""#).is_err());
        assert!(parse(br#""\ud83d\u0041""#).is_err());
        assert!(parse(br#""\x""#).is_err());
        assert!(parse(b"\"\xff\"").is_err());
    }

    #[test]
    fn negative_and_float_numbers() {
        let v = parse(b"[-3, 2.5, 10, 1e3, -0.5E-1, 18446744073709551616, -9223372036854775809]");
        assert_eq!(
            v,
            Ok(Value::Arr(vec![
                Value::I64(-3),
                Value::F64(2.5),
                Value::U64(10),
                Value::F64(1000.0),
                Value::F64(-0.05),
                Value::F64(18446744073709551616.0),
                Value::F64(-9223372036854775809.0),
            ]))
        );
        let out = Value::Arr(vec![
            Value::F64(1.0),
            Value::F64(0.1),
            Value::F64(f64::NAN),
            Value::F64(f64::INFINITY),
            Value::I64(-3),
            Value::U64(u64::MAX),
        ]);
        assert_eq!(render(&out), "[1,0.1,null,null,-3,18446744073709551615]");
    }

    #[test]
    fn rejects_garbage_and_trailing_input() {
        for bad in [
            &b""[..],
            b"[1, 2",
            b"[1] trailing",
            b"[1,]",
            b"{\"a\" 1}",
            b"{\"a\":1,}",
            b"{1:2}",
            b"nul",
            b"-",
            b"1.2.3",
            b"\"open",
        ] {
            assert!(parse(bad).is_err(), "{}", String::from_utf8_lossy(bad));
        }
        assert_eq!(parse(b" \t\r\n null \n"), Ok(Value::Null));
        assert_eq!(
            parse(b"[true,false]"),
            Ok(Value::Arr(vec![Value::Bool(true), Value::Bool(false)]))
        );
    }

    #[test]
    fn object_keys_keep_document_order() {
        let v = parse(br#"{"b": 1, "a": {"z": [], "y": {}}}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj[0].0, "b");
        assert_eq!(obj[1].0, "a");
        assert_eq!(render(&v), r#"{"b":1,"a":{"z":[],"y":{}}}"#);
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(parse(arrays(MAX_DEPTH).as_bytes()).is_ok());
        assert!(parse(arrays(MAX_DEPTH + 1).as_bytes()).is_err());
        assert!(parse(objects(MAX_DEPTH).as_bytes()).is_ok());
        assert!(parse(objects(MAX_DEPTH + 1).as_bytes()).is_err());
    }

    #[test]
    fn damaged_trajectory_never_panics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
        let doc = std::fs::read(path).unwrap();
        assert!(parse(&doc).is_ok());
        // Every proper prefix that stops before the closing brace is
        // incomplete; any prefix at all must come back without a panic.
        for len in 0..doc.len() {
            let r = parse(&doc[..len]);
            assert!(len + 1 >= doc.len() || r.is_err(), "prefix {len} parsed");
        }
        let mut damaged = doc.clone();
        for &b in b"\0\"\\[{-eu\xff" {
            for i in 0..doc.len() {
                damaged[i] = b;
                let _ = parse(&damaged);
                damaged[i] = doc[i];
            }
        }
    }

    #[test]
    fn reads_the_telemetry_json_exposition() {
        let reg = MetricRegistry::new();
        reg.counter("fiat_test_total", &[("path", "a\\b\"c\nd")])
            .add(3);
        reg.gauge("fiat_test_gauge", &[]).set(-7);
        let hist = reg.histogram("fiat_test_ns", &[("stage", "classify")]);
        hist.record(5);
        hist.record(900);

        let doc = parse(reg.render_json().as_bytes()).unwrap();
        let doc = doc.as_obj().unwrap();
        let only = |family: &str| {
            let samples = Value::field(doc, family).and_then(Value::as_arr).unwrap();
            assert_eq!(samples.len(), 1, "{family}");
            samples[0].as_obj().unwrap().to_vec()
        };
        let str_field = |obj: &[(String, Value)], name: &str| match Value::field(obj, name) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{name}: {other:?}"),
        };

        let counter = only("counters");
        assert_eq!(str_field(&counter, "name"), "fiat_test_total");
        let labels = Value::field(&counter, "labels")
            .and_then(Value::as_obj)
            .unwrap();
        assert_eq!(str_field(labels, "path"), "a\\b\"c\nd");
        assert_eq!(Value::field(&counter, "value"), Some(&Value::U64(3)));

        let gauge = only("gauges");
        assert_eq!(str_field(&gauge, "name"), "fiat_test_gauge");
        assert_eq!(
            Value::field(&gauge, "labels"),
            Some(&Value::Obj(Vec::new()))
        );
        assert_eq!(Value::field(&gauge, "value"), Some(&Value::I64(-7)));

        let histogram = only("histograms");
        assert_eq!(str_field(&histogram, "name"), "fiat_test_ns");
        let labels = Value::field(&histogram, "labels")
            .and_then(Value::as_obj)
            .unwrap();
        assert_eq!(str_field(labels, "stage"), "classify");
        assert_eq!(Value::field(&histogram, "count"), Some(&Value::U64(2)));
        assert_eq!(Value::field(&histogram, "sum"), Some(&Value::U64(905)));
        assert_eq!(Value::field(&histogram, "min"), Some(&Value::U64(5)));
        assert_eq!(Value::field(&histogram, "max"), Some(&Value::U64(900)));
        let buckets = Value::field(&histogram, "buckets")
            .and_then(Value::as_arr)
            .unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[1].as_arr().unwrap()[1], Value::U64(2));
    }
}
