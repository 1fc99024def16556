//! The workspace's one JSON reader, behind WAL lines and telemetry
//! traces; each caller maps [`parse`]'s values onto its
//! schema. It reads the JSON grammar and nothing more (bytes after the
//! value are an error), keeps object members in document order, decodes
//! every string escape, keeps each number's literal text so
//! [`Value::as_u64`] and [`Value::as_i64`] read integers exactly, and
//! nests at most four containers. Every failure is a
//! [`CodecError`]: `UnexpectedEof` when the input ends too soon,
//! `BadValue` naming the byte otherwise.

use crate::codec::CodecError;
use std::borrow::Cow;
use std::str::FromStr;

/// Deepest nesting any caller reads: a WAL record nests four deep, a
/// trace line two; a line of a million brackets fails at the fifth.
const MAX_DEPTH: usize = 4;

/// A parsed JSON value, borrowing from the input where it can.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its literal text.
    Num(&'a str),
    /// A string, escapes decoded.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object's members in document order, repeated keys kept.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

/// Parses one JSON document; only whitespace may surround the value.
pub fn parse(text: &str) -> Result<Value<'_>, CodecError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_blanks();
    if p.pos != text.len() {
        return Err(p.fail("trailing bytes after the value"));
    }
    Ok(value)
}

fn mismatch(want: &str, got: &Value<'_>) -> CodecError {
    CodecError::BadValue(format!("expected {want}, got {got:?}"))
}

impl<'a> Value<'a> {
    /// The last member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The last member named `key` of an object; a missing member is an
    /// error.
    pub fn field(&self, key: &str) -> Result<&Value<'a>, CodecError> {
        self.members()?;
        self.get(key)
            .ok_or_else(|| CodecError::BadValue(format!("missing field {key:?}")))
    }

    /// The members of an object, in document order.
    pub fn members(&self) -> Result<&[(Cow<'a, str>, Value<'a>)], CodecError> {
        match self {
            Value::Obj(members) => Ok(members),
            other => Err(mismatch("an object", other)),
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Result<&[Value<'a>], CodecError> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(mismatch("an array", other)),
        }
    }

    /// The decoded text of a string.
    pub fn as_str(&self) -> Result<&str, CodecError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(mismatch("a string", other)),
        }
    }

    /// An integer literal (no fraction or exponent) that fits a `u64`.
    pub fn as_u64(&self) -> Result<u64, CodecError> {
        self.number(true, "a u64")
    }

    /// An integer literal (no fraction or exponent) that fits an `i64`.
    pub fn as_i64(&self) -> Result<i64, CodecError> {
        self.number(true, "an i64")
    }

    /// Any number, rounded to the nearest `f64` — exactly the value for
    /// every literal `f64`'s `Display` writes.
    pub fn as_f64(&self) -> Result<f64, CodecError> {
        self.number(false, "a number")
    }

    /// The literal parsed as `T`. With `integer`, a fraction or exponent
    /// is an error, and so is a literal out of `T`'s range: integers are
    /// never rounded.
    fn number<T: FromStr>(&self, integer: bool, what: &str) -> Result<T, CodecError> {
        match self {
            Value::Num(t) if !(integer && t.contains(['.', 'e', 'E'])) => t
                .parse()
                .map_err(|_| CodecError::BadValue(format!("{t} is not {what}"))),
            other => Err(mismatch(what, other)),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Result<u8, CodecError> {
        let b = self.peek().ok_or(CodecError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// `UnexpectedEof` at the end of the input, else `BadValue(why)`.
    fn fail(&self, why: &str) -> CodecError {
        match self.peek() {
            None => CodecError::UnexpectedEof,
            Some(_) => CodecError::BadValue(format!("{why} at byte {}", self.pos)),
        }
    }

    fn skip_blanks(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` when it comes next, after optional whitespace.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_blanks();
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn require(&mut self, byte: u8) -> Result<(), CodecError> {
        match self.eat(byte) {
            true => Ok(()),
            false => Err(self.fail(&format!("expected {:?}", byte as char))),
        }
    }

    /// Parses the value at the cursor, inside `depth` open containers.
    fn value(&mut self, depth: usize) -> Result<Value<'a>, CodecError> {
        self.skip_blanks();
        match self.peek().ok_or(CodecError::UnexpectedEof)? {
            b'{' | b'[' if depth == MAX_DEPTH => {
                Err(self.fail(&format!("containers nested deeper than {MAX_DEPTH}")))
            }
            b'{' => {
                self.pos += 1;
                let mut members = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_blanks();
                        if self.peek() != Some(b'"') {
                            return Err(self.fail("expected a string key"));
                        }
                        let key = self.string()?;
                        self.require(b':')?;
                        members.push((key, self.value(depth + 1)?));
                        if !self.eat(b',') {
                            self.require(b'}')?;
                            break;
                        }
                    }
                }
                Ok(Value::Obj(members))
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if !self.eat(b',') {
                            self.require(b']')?;
                            break;
                        }
                    }
                }
                Ok(Value::Arr(items))
            }
            b'"' => self.string().map(Value::Str),
            b'-' | b'0'..=b'9' => self.number(),
            _ => {
                let rest = &self.text[self.pos..];
                let (word, value) = [
                    ("null", Value::Null),
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                ]
                .into_iter()
                .find(|(word, _)| rest.starts_with(word))
                .ok_or_else(|| self.fail("expected a value"))?;
                self.pos += word.len();
                Ok(value)
            }
        }
    }

    /// Scans `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Value<'a>, CodecError> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            self.digits()?;
        }
        Ok(Value::Num(&self.text[start..self.pos]))
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), CodecError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        match self.pos > start {
            true => Ok(()),
            false => Err(self.fail("expected a digit")),
        }
    }

    /// Parses the string whose opening quote is at the cursor.
    fn string(&mut self) -> Result<Cow<'a, str>, CodecError> {
        self.pos += 1;
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            match self.next()? {
                b'"' => {
                    let tail = &self.text[run..self.pos - 1];
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(s) => Cow::Owned(s + tail),
                    });
                }
                b'\\' => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos - 1]);
                    s.push(match self.next()? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.fail("unknown escape")),
                    });
                    run = self.pos;
                }
                b if b < 0x20 => return Err(self.fail("unescaped control character")),
                _ => {}
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` is consumed; a high
    /// surrogate must be followed by an escaped low one.
    fn unicode_escape(&mut self) -> Result<char, CodecError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            let low = match self.text[self.pos..].starts_with("\\u") {
                true => {
                    self.pos += 2;
                    self.hex4()?
                }
                false => 0,
            };
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.fail("unpaired surrogate"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.fail("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, CodecError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = char::from(self.next()?).to_digit(16);
            code = code * 16 + digit.ok_or_else(|| self.fail("bad \\u escape"))?;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_kind_of_value_in_document_order() {
        let v = parse(r#" {"b": [1, -2.5e3, true, false, null], "a": {"s": "x\"y"}, "b": 0} "#)
            .unwrap();
        let keys: Vec<&str> = v.members().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["b", "a", "b"]);
        // a repeated key reads as its last member
        assert_eq!(v.field("b").unwrap().as_u64(), Ok(0));
        let first = v.members().unwrap()[0].1.as_array().unwrap();
        assert_eq!(first[1].as_f64(), Ok(-2500.0));
        assert_eq!(
            &first[2..],
            [Value::Bool(true), Value::Bool(false), Value::Null]
        );
        assert_eq!(
            v.field("a").unwrap().field("s").unwrap().as_str(),
            Ok("x\"y")
        );
        assert!(v.field("c").is_err());
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{ }").unwrap(), Value::Obj(vec![]));
    }

    #[test]
    fn integers_read_exactly_or_fail() {
        let num = |t: &'static str| Value::Num(t);
        assert_eq!(num("18446744073709551615").as_u64(), Ok(u64::MAX));
        assert_eq!(num("9007199254740993").as_u64(), Ok((1 << 53) + 1));
        assert_eq!(num("-9223372036854775808").as_i64(), Ok(i64::MIN));
        for bad in ["18446744073709551616", "-1", "1.0", "1e3"] {
            assert!(num(bad).as_u64().is_err(), "{bad}");
        }
        for bad in ["9223372036854775808", "-9223372036854775809", "-1.5"] {
            assert!(num(bad).as_i64().is_err(), "{bad}");
        }
        assert_eq!(
            num("18446744073709551616").as_f64(),
            Ok(18446744073709551616.0)
        );
        assert!(Value::Str("1".into()).as_u64().is_err());
    }

    #[test]
    fn strings_decode_escapes_and_borrow_without_them() {
        let v = parse(r#""plain""#).unwrap();
        assert!(matches!(v, Value::Str(Cow::Borrowed("plain"))));
        let v = parse(r#""a\"\\\/\b\f\n\r\t\u0001é😀z""#).unwrap();
        assert_eq!(v.as_str(), Ok("a\"\\/\u{8}\u{c}\n\r\t\u{1}é😀z"));
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83dx""#,
            r#""\q""#,
            r#""\u12g4""#,
        ] {
            assert!(matches!(parse(bad), Err(CodecError::BadValue(_))), "{bad}");
        }
        assert!(parse("\"a\nb\"").is_err(), "raw control character");
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "{} x",
            "[1,]",
            "[,1]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{1:2}",
            "01",
            "-",
            "1.",
            "1e",
            "+1",
            ".5",
            "nul",
            "[tr",
            "truex",
            "[1 2]",
            "'a'",
            "",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        for cut in [
            "{\"a\":[1,",
            "\"abc",
            "-",
            "1e+",
            "\"\\u00",
            "\"\\ud83d",
            "{\"a\"",
        ] {
            assert_eq!(parse(cut), Err(CodecError::UnexpectedEof), "{cut:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(matches!(
            parse(&nested(MAX_DEPTH + 1)),
            Err(CodecError::BadValue(_))
        ));
        assert!(matches!(
            parse(&"[".repeat(1_000_000)),
            Err(CodecError::BadValue(_))
        ));
    }
}
