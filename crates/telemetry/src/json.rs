//! The one reader of both artifacts: a strict, single-pass parser for what
//! this crate's writers emit.  Keys, numbers and strings borrow from the
//! text; only a string holding an escape is copied.

use std::borrow::Cow;

use heracles_sim::SimTime;

use crate::trace::write_escaped;

/// The deepest nesting a writer produces: a metrics histogram row.
const MAX_DEPTH: usize = 3;

/// A parsed value; a `Lit` is `true`, `false`, `null` or a finite number.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json<'a> {
    Lit(&'a str),
    Str(Cow<'a, str>),
    Obj(Object<'a>),
}

/// A parsed JSON object: each key once, with its value and the value's
/// byte offset, and the offset of the object's own brace.
#[derive(Debug, Clone, PartialEq)]
pub struct Object<'a> {
    at: usize,
    fields: Vec<(Cow<'a, str>, usize, Json<'a>)>,
}

/// Why a text failed to read, naming the key at fault, and at which byte.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadError {
    at: usize,
    what: String,
}

impl ReadError {
    /// The error, located by line in the multi-line `text` it was read from.
    pub fn in_lines(&self, text: &str) -> String {
        let line = text.bytes().take(self.at).filter(|&b| b == b'\n').count() + 1;
        format!("line {line}: {}", self.what)
    }
}

/// The error, located by byte.
impl From<ReadError> for String {
    fn from(e: ReadError) -> String {
        format!("byte {}: {}", e.at, e.what)
    }
}

impl<'a> Object<'a> {
    /// Parses `text` as one object with only whitespace around it.  A
    /// duplicate key, trailing bytes, an unterminated string, an escape the
    /// writers never emit or a malformed or non-finite number is an error.
    pub fn parse(text: &'a str) -> Result<Object<'a>, ReadError> {
        let mut parser = Parser { text, at: 0 };
        let object = parser.space().object(1)?;
        match parser.space().at < text.len() {
            true => parser.fail("trailing bytes after the object"),
            false => Ok(object),
        }
    }

    pub(crate) fn get(&self, key: &str) -> Option<&Json<'a>> {
        self.fields.iter().find(|(k, ..)| k == key).map(|(.., value)| value)
    }

    /// Whether the object has a `key` field.
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Reads `key` by `read`, or fails naming it: missing, or not `want`.
    fn read<'s, T>(
        &'s self,
        key: &str,
        want: &str,
        read: impl FnOnce(&'s Json<'a>) -> Option<T>,
    ) -> Result<T, ReadError> {
        let Some((_, at, value)) = self.fields.iter().find(|(k, ..)| k == key) else {
            return Err(ReadError { at: self.at, what: format!("missing {key:?}") });
        };
        read(value).ok_or_else(|| ReadError { at: *at, what: format!("{key:?} is not {want}") })
    }

    /// `key` as a whole number.
    pub fn u64(&self, key: &str) -> Result<u64, ReadError> {
        self.read(
            key,
            "a whole number",
            |v| if let Json::Lit(n) = v { n.parse().ok() } else { None },
        )
    }

    /// `key` as a float, `null` read as NaN.
    pub fn f64(&self, key: &str) -> Result<f64, ReadError> {
        self.read(key, "a number", |v| match v {
            Json::Lit("null") => Some(f64::NAN),
            Json::Lit(n) => n.parse().ok(),
            _ => None,
        })
    }

    /// `t`, a trace line's simulated time: a number of seconds, not negative.
    pub(crate) fn time(&self) -> Result<SimTime, ReadError> {
        let secs = |v: &Json| if let Json::Lit(n) = v { n.parse().ok() } else { None };
        self.read("t", "a time", |v| secs(v).filter(|t| *t >= 0.0)).map(SimTime::from_secs_f64)
    }

    /// `key` as a string.
    pub fn str(&self, key: &str) -> Result<&str, ReadError> {
        self.read(key, "a string", |v| if let Json::Str(s) = v { Some(&**s) } else { None })
    }

    /// `key` as an object.
    pub fn obj(&self, key: &str) -> Result<&Object<'a>, ReadError> {
        self.read(key, "an object", |v| if let Json::Obj(o) = v { Some(o) } else { None })
    }
}

/// The cursor over the text being parsed.
struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Parser<'a> {
    fn fail<T>(&self, what: &str) -> Result<T, ReadError> {
        Err(ReadError { at: self.at, what: what.into() })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn space(&mut self) -> &mut Self {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.at += 1;
        }
        self
    }

    /// Steps over `byte`, which must come next.
    fn eat(&mut self, byte: u8) -> Result<(), ReadError> {
        if self.peek() != Some(byte) {
            return self.fail(&format!("expected {:?}", char::from(byte)));
        }
        self.at += 1;
        Ok(())
    }

    /// The object at the cursor, `depth` objects deep.
    fn object(&mut self, depth: usize) -> Result<Object<'a>, ReadError> {
        let at = self.at;
        self.eat(b'{')?;
        let mut fields: Vec<(Cow<'a, str>, usize, Json<'a>)> = Vec::new();
        while self.space().peek() != Some(b'}') {
            if !fields.is_empty() {
                self.eat(b',')?;
            }
            let key_at = self.space().at;
            let key = self.string()?;
            if fields.iter().any(|(k, ..)| *k == key) {
                return Err(ReadError { at: key_at, what: format!("duplicate key {key:?}") });
            }
            self.space().eat(b':')?;
            let value_at = self.space().at;
            let value = match self.peek() {
                Some(b'"') => Json::Str(self.string()?),
                Some(b'{') if depth < MAX_DEPTH => Json::Obj(self.object(depth + 1)?),
                _ => Json::Lit(self.literal()?),
            };
            fields.push((key, value_at, value));
        }
        self.at += 1;
        Ok(Object { at, fields })
    }

    /// The `true`, `false`, `null` or finite number at the cursor.
    fn literal(&mut self) -> Result<&'a str, ReadError> {
        let rest = &self.text[self.at..];
        let lit = &rest[..rest.find([',', '}', ' ', '\n', '\r', '\t']).unwrap_or(rest.len())];
        if !matches!(lit, "true" | "false" | "null") && !is_number(lit) {
            return self.fail("expected a string, a finite number, true, false or null");
        }
        self.at += lit.len();
        Ok(lit)
    }

    /// The string at the cursor, borrowed unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ReadError> {
        let open = self.at;
        self.eat(b'"')?;
        let (mut decoded, mut clean) = (None::<String>, self.at);
        loop {
            match self.peek() {
                None => return Err(ReadError { at: open, what: "unterminated string".into() }),
                Some(b'"') => break,
                Some(b'\\') => {
                    let s = decoded.get_or_insert_with(String::new);
                    s.push_str(&self.text[clean..self.at]);
                    s.push(self.escape()?);
                    clean = self.at;
                }
                Some(0..=0x1f) => return self.fail("raw control character in a string"),
                Some(_) => self.at += 1,
            }
        }
        let run = &self.text[clean..self.at];
        self.at += 1;
        Ok(decoded.map_or(Cow::Borrowed(run), |s| Cow::Owned(s + run)))
    }

    /// The escape at the cursor, if `write_escaped` writes it: the
    /// character it decodes to must escape back to the same text.
    fn escape(&mut self) -> Result<char, ReadError> {
        let rest = &self.text[self.at..];
        let (code, len) = match rest.as_bytes().get(1) {
            Some(b'u') => (rest.get(2..6).and_then(|hex| u32::from_str_radix(hex, 16).ok()), 6),
            Some(b'n') => (Some(0x0a), 2),
            Some(b'r') => (Some(0x0d), 2),
            Some(b't') => (Some(0x09), 2),
            other => (other.map(|&b| u32::from(b)), 2),
        };
        let c = code.and_then(char::from_u32).unwrap_or(char::REPLACEMENT_CHARACTER);
        let mut canonical = String::new();
        write_escaped(&mut canonical, c.encode_utf8(&mut [0; 4]));
        if rest.get(..len) != Some(&canonical) {
            return self.fail("an escape the writers never emit");
        }
        self.at += len;
        Ok(c)
    }
}

/// Whether `lit` is a JSON number, `-?d+(.d+)?([eE][+-]?d+)?`, and finite.
fn is_number(lit: &str) -> bool {
    let unsigned = lit.strip_prefix('-').unwrap_or(lit);
    let (mantissa, exp) = unsigned.split_once(['e', 'E']).unwrap_or((unsigned, "0"));
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
    digits(int) && digits(frac) && digits(exp) && lit.parse::<f64>().is_ok_and(f64::is_finite)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_lines_read_back_typed() {
        let line =
            r#"{"t":12.500000,"scope":"fleet","service":"a\"b","n":1,"neg":-3,"x":null,"ok":true}"#;
        let o = Object::parse(line).unwrap();
        assert_eq!(o.f64("t"), Ok(12.5));
        assert_eq!(o.str("scope"), Ok("fleet"));
        assert_eq!(o.str("service"), Ok("a\"b"));
        assert_eq!(o.u64("n"), Ok(1));
        assert!(o.f64("x").unwrap().is_nan());
        assert_eq!(o.get("neg"), Some(&Json::Lit("-3")));
        assert_eq!(o.get("ok"), Some(&Json::Lit("true")));
        assert!(o.has("ok") && !o.has("missing"));
        assert!(matches!(o.get("scope"), Some(Json::Str(Cow::Borrowed(_)))));
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn every_writer_escape_decodes() {
        let line = "{\"s\":\"a\\\"b\\\\c\\nd\\te\\r\\u0001f\\u001f\"}";
        assert_eq!(Object::parse(line).unwrap().str("s"), Ok("a\"b\\c\nd\te\r\u{1}f\u{1f}"));
    }

    #[test]
    fn typed_reads_name_the_missing_or_mistyped_key() {
        let o = Object::parse(r#"{"n":-1,"s":"x","f":1.5,"o":{}}"#).unwrap();
        assert_eq!(String::from(o.u64("n").unwrap_err()), "byte 5: \"n\" is not a whole number");
        assert_eq!(o.u64("f").unwrap_err().what, "\"f\" is not a whole number");
        assert_eq!(o.f64("s").unwrap_err().what, "\"s\" is not a number");
        assert_eq!(o.str("n").unwrap_err().what, "\"n\" is not a string");
        assert_eq!(o.obj("s").unwrap_err().what, "\"s\" is not an object");
        assert_eq!(String::from(o.f64("joules").unwrap_err()), "byte 0: missing \"joules\"");
        assert_eq!(o.obj("o").unwrap().get("any"), None);
    }

    #[test]
    fn the_metrics_layout_parses_nested() {
        let doc = "{\n  \"h\": {\n    \"row\": {\"count\": 2, \"p99\": 0.5}\n  },\n  \"n\": 1\n}\n";
        let o = Object::parse(doc).unwrap();
        assert_eq!(o.obj("h").unwrap().obj("row").unwrap().u64("count"), Ok(2));
        let err = o.obj("h").unwrap().obj("row").unwrap().f64("p50").unwrap_err();
        assert_eq!(err.in_lines(doc), "line 3: missing \"p50\"");
    }

    #[test]
    fn anything_the_writers_never_write_is_an_error_at_its_byte() {
        for (text, at, what) in [
            (r#"{"a":1,"a":2}"#, 7, "duplicate key \"a\""),
            (r#"{"a":1}x"#, 7, "trailing bytes"),
            (r#"{"a":1}{}"#, 7, "trailing bytes"),
            (r#"{"a":"xy"#, 5, "unterminated string"),
            (r#"{"a":"\q"}"#, 6, "an escape"),
            (r#"{"a":"\u000a"}"#, 6, "an escape"),
            (r#"{"a":"\u+01f"}"#, 6, "an escape"),
            (r#"{"a":"\u001F"}"#, 6, "an escape"),
            (r#"{"a":"\u0041"}"#, 6, "an escape"),
            ("{\"a\":\"\n\"}", 6, "raw control"),
            (r#"{"a":1e999}"#, 5, "finite number"),
            (r#"{"a":NaN}"#, 5, "finite number"),
            (r#"{"a":01.}"#, 5, "finite number"),
            (r#"{"a":.5}"#, 5, "finite number"),
            (r#"{"a":-}"#, 5, "finite number"),
            (r#"{"a":}"#, 5, "finite number"),
            (r#"{"a":[1]}"#, 5, "finite number"),
            (r#"{"a":1"#, 6, "expected ','"),
            (r#"{"a":1,}"#, 7, "expected '\"'"),
            (r#"{"a"1}"#, 4, "expected ':'"),
            (r#"{a:1}"#, 1, "expected '\"'"),
            ("", 0, "expected '{'"),
            (r#"{"a":{"b":{"c":{}}}}"#, 15, "finite number"),
        ] {
            let err = Object::parse(text).unwrap_err();
            assert_eq!(err.at, at, "{text}: {err:?}");
            assert!(err.what.contains(what), "{text}: {err:?}");
        }
    }
}
