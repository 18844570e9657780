//! The `/classify` wire protocol: JSON Lines in, JSON Lines out.
//!
//! Each request-body line is one series to classify, either a bare
//! number array or an object carrying an optional client id:
//!
//! ```text
//! [0.12, -3.4, 5.0e-1, 7]
//! {"id": "icu-314", "series": [0.12, -3.4]}
//! ```
//!
//! Each response line answers the same-positioned request line:
//!
//! ```text
//! {"label": 2}
//! {"id": "icu-314", "label": 0}
//! ```
//!
//! Whole-request failures (shed, deadline, fault) come back as a single
//! JSON object with an `"error"` field and the HTTP status carries the
//! verdict. The parser is a minimal hand-rolled one — the build is
//! dependency-free by policy — and accepts exactly the subset above:
//! values must be finite JSON numbers, ids JSON strings. Anything else
//! is a parse error naming the line, answered with `400`.
//!
//! `POST /admin/reload` takes an empty body, `{}`, or
//! `{"path": "…"}` (`parse_reload_body`), read with the same string
//! parser; every string [`quote_json`] writes parses back unchanged.

/// One parsed request line: the optional client id and the series.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesRequest {
    /// Client-chosen id echoed into the response line, if any.
    pub id: Option<String>,
    /// The series to classify.
    pub values: Vec<f64>,
}

/// Parses a whole JSONL request body. Blank lines are skipped; an empty
/// body (no series at all) is an error.
pub fn parse_body(body: &[u8]) -> Result<Vec<SeriesRequest>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    if out.is_empty() {
        return Err("empty request: no series lines".to_string());
    }
    Ok(out)
}

/// Parses one request line (bare array or `{"id", "series"}` object).
pub fn parse_line(line: &str) -> Result<SeriesRequest, String> {
    let mut p = Parser { src: line, pos: 0 };
    p.skip_ws();
    let request = match p.peek() {
        Some('[') => SeriesRequest {
            id: None,
            values: p.parse_number_array()?,
        },
        Some('{') => p.parse_request_object()?,
        _ => return Err("expected a JSON array or object".to_string()),
    };
    p.skip_ws();
    if p.peek().is_some() {
        return Err("trailing characters after the JSON value".to_string());
    }
    if request.values.is_empty() {
        return Err("series is empty".to_string());
    }
    Ok(request)
}

/// Renders one response line. `None` labels never happen today, but the
/// signature mirrors the request shape: id echoed when present.
pub fn format_response_line(id: Option<&str>, label: usize) -> String {
    match id {
        Some(id) => format!("{{\"id\":{},\"label\":{label}}}", quote_json(id)),
        None => format!("{{\"label\":{label}}}"),
    }
}

/// Renders the single-object error body used by non-200 responses.
pub fn format_error(code: &str, detail: &str) -> String {
    format!(
        "{{\"error\":{},\"detail\":{}}}\n",
        quote_json(code),
        quote_json(detail)
    )
}

/// Parses a `POST /admin/reload` body: empty (or blank), `{}`, or
/// `{"path": <JSON string>}`. Returns the candidate path the body names,
/// if any; any other body is an error naming the problem.
pub(crate) fn parse_reload_body(body: &[u8]) -> Result<Option<String>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let mut p = Parser { src: text, pos: 0 };
    p.skip_ws();
    if p.peek().is_none() {
        return Ok(None);
    }
    p.expect('{')?;
    p.skip_ws();
    let path = if p.peek() == Some('}') {
        None
    } else {
        let key = p.parse_string()?;
        if key != "path" {
            return Err(format!("unknown key {key:?} (path)"));
        }
        p.expect(':')?;
        let path = p
            .parse_string()
            .map_err(|e| format!("\"path\" must be a JSON string: {e}"))?;
        Some(path)
    };
    p.expect('}')?;
    p.skip_ws();
    if p.peek().is_some() {
        return Err("trailing characters after the JSON value".to_string());
    }
    Ok(path)
}

/// JSON string quoting with the mandatory escapes; control characters
/// without a short escape are written as `\u00XX`.
pub fn quote_json(s: &str) -> String {
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.next();
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        match self.next() {
            Some(got) if got == c => Ok(()),
            Some(got) => Err(format!("expected {c:?}, found {got:?}")),
            None => Err(format!("expected {c:?}, found end of line")),
        }
    }

    fn parse_number_array(&mut self) -> Result<Vec<f64>, String> {
        self.expect('[')?;
        let mut values = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.next();
            return Ok(values);
        }
        loop {
            values.push(self.parse_number()?);
            self.skip_ws();
            match self.next() {
                Some(',') => continue,
                Some(']') => return Ok(values),
                Some(c) => return Err(format!("expected ',' or ']', found {c:?}")),
                None => return Err("unterminated array".to_string()),
            }
        }
    }

    fn parse_number(&mut self) -> Result<f64, String> {
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
        let token = &rest[..len];
        let v: f64 = token.parse().map_err(|_| format!("bad number {token:?}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite number {token:?}"));
        }
        Ok(v)
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                Some('"') => return Ok(out),
                Some('\\') => match self.next() {
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

    fn parse_request_object(&mut self) -> Result<SeriesRequest, String> {
        self.expect('{')?;
        let mut id = None;
        let mut values: Option<Vec<f64>> = None;
        self.skip_ws();
        if self.peek() == Some('}') {
            self.next();
        } else {
            loop {
                let key = self.parse_string()?;
                self.expect(':')?;
                self.skip_ws();
                match key.as_str() {
                    "id" => id = Some(self.parse_string()?),
                    "series" => values = Some(self.parse_number_array()?),
                    other => return Err(format!("unknown key {other:?} (id|series)")),
                }
                self.skip_ws();
                match self.next() {
                    Some(',') => {
                        self.skip_ws();
                        continue;
                    }
                    Some('}') => break,
                    Some(c) => return Err(format!("expected ',' or '}}', found {c:?}")),
                    None => return Err("unterminated object".to_string()),
                }
            }
        }
        Ok(SeriesRequest {
            id,
            values: values.ok_or_else(|| "object is missing \"series\"".to_string())?,
        })
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

    #[test]
    fn bare_arrays_parse() {
        let r = parse_line("[0.5, -1, 2.5e1, 7]").unwrap();
        assert_eq!(r.id, None);
        assert_eq!(r.values, vec![0.5, -1.0, 25.0, 7.0]);
    }

    #[test]
    fn objects_carry_ids() {
        let r = parse_line(r#"{"id": "abc-1", "series": [1, 2, 3]}"#).unwrap();
        assert_eq!(r.id.as_deref(), Some("abc-1"));
        assert_eq!(r.values, vec![1.0, 2.0, 3.0]);
        // Key order is free.
        let r = parse_line(r#"{"series": [4], "id": "z"}"#).unwrap();
        assert_eq!(r.id.as_deref(), Some("z"));
        assert_eq!(r.values, vec![4.0]);
    }

    #[test]
    fn bodies_split_lines_and_skip_blanks() {
        let body = b"[1,2]\n\n{\"series\":[3]}\n";
        let parsed = parse_body(body).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].values, vec![3.0]);
    }

    #[test]
    fn junk_is_rejected_with_line_numbers() {
        assert!(parse_body(b"").is_err());
        assert!(parse_body(b"\n\n").is_err());
        let e = parse_body(b"[1,2]\nnot json\n").unwrap_err();
        assert!(e.starts_with("line 2:"), "{e}");
        assert!(parse_line("[1, 2,]").is_err());
        assert!(parse_line("[]").is_err(), "empty series");
        assert!(parse_line("[1] trailing").is_err());
        assert!(parse_line(r#"{"series": [1], "extra": 3}"#).is_err());
        assert!(parse_line(r#"{"id": "x"}"#).is_err(), "missing series");
        assert!(parse_line("[1e999]").is_err(), "overflow to inf");
        for token in [
            "+1", ".5", "1.", "01", "-.5", "-01", "-", "1e", "1e+", "1.5.2", "1e5.0",
        ] {
            let e = parse_body(format!("[0]\n[{token}]\n").as_bytes()).unwrap_err();
            assert!(e.starts_with("line 2: bad number"), "{token}: {e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Every finite f64, written as `{x:?}`, `{x}` or `{x:e}`,
        /// parses back bit-exactly. A third of the cases clear the
        /// exponent (subnormals) and a third keep only the sign (±0).
        #[test]
        fn finite_floats_round_trip_bit_exactly(bits in 0u64..=u64::MAX, kind in 0u8..3) {
            let bits = match kind {
                0 => bits,
                1 => bits & !(0x7ff << 52),
                _ => bits & (1 << 63),
            };
            let x = f64::from_bits(bits);
            if x.is_finite() {
                for text in [format!("{x:?}"), format!("{x}"), format!("{x:e}")] {
                    let parsed = parse_line(&format!("[{text}]")).unwrap().values[0];
                    prop_assert_eq!(parsed.to_bits(), bits, "{}", text);
                }
            }
        }

        /// Every string `quote_json` writes parses back to itself,
        /// control characters (written as `\u00XX`) included.
        #[test]
        fn quoted_strings_parse_back(codes in proptest::collection::vec(0u32..0x11_0000, 0..40)) {
            let s: String = codes.into_iter().filter_map(char::from_u32).collect();
            let quoted = quote_json(&s);
            let parsed = Parser { src: &quoted, pos: 0 }.parse_string();
            prop_assert_eq!(parsed, Ok(s));
        }
    }

    #[test]
    fn unicode_escapes_decode_and_lone_surrogates_are_rejected() {
        let parse = |src: &str| Parser { src, pos: 0 }.parse_string();
        // Every ASCII character, controls included, survives quoting.
        let ascii: String = (0u8..0x80).map(char::from).collect();
        assert_eq!(parse(&quote_json(&ascii)), Ok(ascii));
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
    fn reload_bodies_are_empty_or_name_a_path() {
        assert_eq!(parse_reload_body(b""), Ok(None));
        assert_eq!(parse_reload_body(b" {} \n"), Ok(None));
        assert_eq!(
            parse_reload_body(br#"{"path": "/m/a\"b\\c.rpm"}"#),
            Ok(Some(r#"/m/a"b\c.rpm"#.to_string()))
        );
        for bad in [
            &br#"{"pth":"x"}"#[..],
            br#"{"path":123}"#,
            b"not json",
            br#"{"path":"a","path":"b"}"#,
            br#"{"path":"a"} x"#,
        ] {
            assert!(
                parse_reload_body(bad).is_err(),
                "{}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn response_lines_echo_ids_with_escaping() {
        assert_eq!(format_response_line(None, 3), "{\"label\":3}");
        assert_eq!(
            format_response_line(Some("a\"b"), 0),
            "{\"id\":\"a\\\"b\",\"label\":0}"
        );
        let err = format_error("deadline_exceeded", "1ms deadline passed");
        assert!(err.contains("\"deadline_exceeded\""), "{err}");
    }

    #[test]
    fn parse_and_format_roundtrip() {
        let line = format_response_line(Some("id-9"), 4);
        // The response line itself is valid JSON by our own parser's
        // standards for objects (different keys, so just sanity-check
        // the quoting survived).
        assert_eq!(line, "{\"id\":\"id-9\",\"label\":4}");
    }
}
