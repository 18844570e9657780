//! The workspace's one JSON codec: the string escaper every JSON writer
//! uses ([`push_str`], [`quote`]) and the strict reader every JSON
//! reader uses, as a [`Parser`] cursor or a [`Value`] tree ([`parse`]).
//! Numbers follow the RFC 8259 grammar and keep their source text, so a
//! `u64` reads back exactly; an object refuses a duplicate key; nesting
//! stops at [`MAX_DEPTH`]. Errors say what was expected and found.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest array/object nesting the reader accepts.
pub const MAX_DEPTH: usize = 128;

/// Appends `s` as a JSON string literal: the mandatory escapes, and
/// `\u00XX` for control characters without a short escape.
pub fn push_str(out: &mut String, s: &str) {
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

/// `s` as a JSON string literal (see [`push_str`]).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str(&mut out, s);
    out
}

/// JSON Lines bytes as text; invalid UTF-8 is refused naming the first
/// line that holds it (`line N: not UTF-8`).
pub fn text(bytes: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(bytes).map_err(|e| {
        // `\n` never occurs inside a multi-byte sequence, so the
        // newlines before the first invalid byte number its line.
        let before = &bytes[..e.valid_up_to()];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        format!("line {line}: not UTF-8")
    })
}

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number's source text, checked against the RFC 8259 grammar.
    Number(String),
    /// A decoded string.
    String(String),
    /// An array's elements in order.
    Array(Vec<Value>),
    /// An object's members; keys are unique.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The member `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.get(key),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is an integer token that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(token) if token.bytes().all(|b| b.is_ascii_digit()) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number, if this is one that is finite as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(token) => token.parse().ok().filter(|v: &f64| v.is_finite()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses `text` as exactly one JSON value.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser::new(text);
    let value = p.parse_value()?;
    p.finish()?;
    Ok(value)
}

/// A cursor over JSON text.
#[derive(Default)]
pub struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Self {
            src,
            ..Self::default()
        }
    }

    /// The next character, not consumed.
    #[inline]
    pub fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    /// Consumes and returns the next character.
    #[inline]
    pub fn next_char(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Skips JSON whitespace.
    #[inline]
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.next_char();
        }
    }

    /// Skips whitespace and consumes `c`.
    #[inline]
    pub fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        match self.next_char() {
            Some(got) if got == c => Ok(()),
            Some(got) => Err(format!("expected {c:?}, found {got:?}")),
            None => Err(format!("expected {c:?}, found end of line")),
        }
    }

    /// Refuses anything but whitespace after the value.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(_) => Err("trailing characters after the JSON value".to_string()),
            None => Ok(()),
        }
    }

    /// Reads `open`, then comma-separated items up to `close`, each with
    /// `item`. After an error the cursor is spent.
    #[inline]
    pub fn seq(
        &mut self,
        open: char,
        close: char,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(format!("nested deeper than {MAX_DEPTH} levels"));
        }
        self.skip_ws();
        if self.peek() == Some(close) {
            self.next_char();
            return Ok(());
        }
        self.depth += 1;
        loop {
            item(self)?;
            self.skip_ws();
            match self.next_char() {
                Some(',') => {}
                Some(c) if c == close => break,
                Some(c) => return Err(format!("expected ',' or {close:?}, found {c:?}")),
                None if close == ']' => return Err("unterminated array".to_string()),
                None => return Err("unterminated object".to_string()),
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads one number as a finite `f64`.
    #[inline]
    pub fn parse_number(&mut self) -> Result<f64, String> {
        let token = self.number_token()?;
        let v: f64 = token.parse().map_err(|_| format!("bad number {token:?}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite number {token:?}"));
        }
        Ok(v)
    }

    /// One number token; one running on into more number characters
    /// (`1.5.2`) is refused whole.
    #[inline]
    fn number_token(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        if rest.is_empty() {
            return Err("expected a number, found end of line".to_string());
        }
        let number_byte = |b: &u8| b.is_ascii_digit() || b"+-.eE".contains(b);
        let len = json_number_len(rest.as_bytes());
        if len == 0 || rest.as_bytes().get(len).is_some_and(number_byte) {
            let run = rest.bytes().take_while(number_byte).count();
            return Err(format!("bad number {:?}", &rest[..run]));
        }
        self.pos += len;
        Ok(&rest[..len])
    }

    /// Reads one string, decoding its escapes.
    pub fn parse_string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next_char() {
                Some('"') => return Ok(out),
                Some('\\') => match self.next_char() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => out.push(self.parse_unicode_escape()?),
                    Some(c) => return Err(format!("unsupported escape \\{c}")),
                    None => return Err("unterminated string escape".to_string()),
                },
                Some(c) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` was just read,
    /// joining a UTF-16 surrogate pair written as two escapes.
    fn parse_unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.parse_hex4()?;
        let code = if (0xD800..0xDC00).contains(&unit) && self.src[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("unpaired surrogate \\u{unit:04x}"));
            }
            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
        } else {
            unit
        };
        char::from_u32(code).ok_or_else(|| format!("unpaired surrogate \\u{code:04x}"))
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| "\\u escape needs four hex digits".to_string())?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four ASCII hex digits"))
    }

    /// Reads one value of any kind.
    pub fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => {
                let mut members = BTreeMap::new();
                self.seq('{', '}', |p| {
                    let key = p.parse_string()?;
                    p.expect(':')?;
                    let value = p.parse_value()?;
                    if members.contains_key(&key) {
                        return Err(format!("duplicate key {key:?}"));
                    }
                    members.insert(key, value);
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some('[') => {
                let mut items = Vec::new();
                self.seq('[', ']', |p| {
                    items.push(p.parse_value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some('"') => self.parse_string().map(Value::String),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some('n') => self.literal("null", Value::Null),
            Some('-' | '0'..='9') => Ok(Value::Number(self.number_token()?.to_string())),
            Some(c) => Err(format!("expected a JSON value, found {c:?}")),
            None => Err("expected a JSON value, found end of line".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if !self.src[self.pos..].starts_with(word) {
            return Err(format!("expected {word}"));
        }
        self.pos += word.len();
        Ok(value)
    }
}

/// Length of the RFC 8259 number at the start of `s`, or 0 when there
/// is none: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn json_number_len(s: &[u8]) -> usize {
    let digits = |from: usize| s[from..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut i = usize::from(s.first() == Some(&b'-'));
    let int = digits(i);
    if int == 0 || (int > 1 && s[i] == b'0') {
        return 0;
    }
    i += int;
    if s.get(i) == Some(&b'.') {
        let frac = digits(i + 1);
        if frac == 0 {
            return 0;
        }
        i += 1 + frac;
    }
    if matches!(s.get(i), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(s.get(i + 1), Some(b'+' | b'-')));
        let exp = digits(i + 1 + sign);
        if exp == 0 {
            return 0;
        }
        i += 1 + sign + exp;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Every string `quote` writes parses back to itself,
        /// control characters (written as `\u00XX`) included.
        #[test]
        fn quoted_strings_parse_back(codes in proptest::collection::vec(0u32..0x11_0000, 0..40)) {
            let s: String = codes.into_iter().filter_map(char::from_u32).collect();
            let quoted = quote(&s);
            let parsed = Parser::new(&quoted).parse_string();
            prop_assert_eq!(parsed, Ok(s));
        }
    }

    #[test]
    fn unicode_escapes_decode_and_lone_surrogates_are_rejected() {
        let parse = |src: &str| Parser::new(src).parse_string();
        // Every ASCII character, controls included, survives quoting.
        let ascii: String = (0u8..0x80).map(char::from).collect();
        assert_eq!(parse(&quote(&ascii)), Ok(ascii));
        assert_eq!(
            parse(r#""a\u00e9\u001f\b\f""#),
            Ok("a\u{e9}\u{1f}\u{8}\u{c}".into())
        );
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok("\u{1f600}".into()));
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
            r#""\u12""#,
            r#""\u+abc""#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn values_parse_into_a_tree() {
        let v = parse(
            r#" {"n": 18446744073709551615, "f": -2.5e-3, "s": "a\nb",
                          "a": [true, false, null, []], "o": {}} "#,
        )
        .unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(u64::MAX));
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(-2.5e-3));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\nb"));
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(
            a,
            [
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
                Value::Array(Vec::new())
            ]
        );
        assert_eq!(v.get("o"), Some(&Value::Object(BTreeMap::new())));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("n"), None);
    }

    #[test]
    fn only_integer_tokens_read_as_u64() {
        for (token, want) in [
            ("0", Some(0)),
            ("12", Some(12)),
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("1e3", None),
            ("1.0", None),
            ("-1", None),
            ("-0", None),
        ] {
            assert_eq!(parse(token).unwrap().as_u64(), want, "{token}");
        }
        assert_eq!(parse("1e999").unwrap().as_f64(), None, "not finite");
        assert_eq!(parse("\"12\"").unwrap().as_u64(), None, "a string");
    }

    #[test]
    fn malformed_text_is_refused() {
        for bad in [
            "",
            "   ",
            "12abc",
            "01",
            "+1",
            ".5",
            "1.",
            "1.5.2",
            "tru",
            "nul",
            "truex",
            r#"{"a":1"#,
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            r#"{"a":1 "b":2}"#,
            r#"{a:1}"#,
            r#"{"a":1,"a":2}"#,
            "[1,]",
            "[1 2]",
            "[1",
            r#""abc"#,
            r#"{"a":1} x"#,
            "[] []",
            "'a'",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(
            parse(r#"{"a":1,"a":2}"#).unwrap_err(),
            "duplicate key \"a\""
        );
        assert_eq!(
            parse("{} x").unwrap_err(),
            "trailing characters after the JSON value"
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.starts_with("nested deeper than"), "{err}");
        // Far past the bound, the refusal still comes before the stack
        // runs out.
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn invalid_utf8_names_its_line() {
        assert_eq!(text(b"{}\n[]\n"), Ok("{}\n[]\n"));
        for bad in [&b"[0x\x80]"[..], b"{\"id\":\"\xe2\x82\"}", b"[\xc0\xb1]"] {
            let body = [&b"[1]\r\n\n"[..], bad, b"\n[2]\n"].concat();
            assert_eq!(text(&body).unwrap_err(), "line 3: not UTF-8");
        }
    }
}
