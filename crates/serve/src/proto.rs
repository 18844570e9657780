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
//! verdict. Request lines are read on the workspace's one JSON cursor
//! ([`rpm_obs::json::Parser`]), numbers streaming straight into the
//! series, and only the subset above is accepted: values must be finite
//! JSON numbers, ids JSON strings. Anything else is a parse error naming
//! the line, answered with `400`.
//!
//! `POST /admin/reload` takes an empty body, `{}`, or `{"path": "…"}`
//! (`parse_reload_body`). Every string written here goes through
//! [`rpm_obs::json::quote`] and parses back unchanged.

use rpm_obs::json::{self, Parser, Value};

/// One parsed request line: the optional client id and the series.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesRequest {
    /// Client-chosen id echoed into the response line, if any.
    pub id: Option<String>,
    /// The series to classify.
    pub values: Vec<f64>,
}

/// Parses a whole JSONL request body. Blank lines are skipped; an empty
/// body (no series at all) is an error. A body holding invalid UTF-8 is
/// refused naming the first line that holds it.
pub fn parse_body(body: &[u8]) -> Result<Vec<SeriesRequest>, String> {
    let text = json::text(body)?;
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
    let mut p = Parser::new(line);
    p.skip_ws();
    let request = match p.peek() {
        Some('[') => SeriesRequest {
            id: None,
            values: number_array(&mut p)?,
        },
        Some('{') => request_object(&mut p)?,
        _ => return Err("expected a JSON array or object".to_string()),
    };
    p.finish()?;
    if request.values.is_empty() {
        return Err("series is empty".to_string());
    }
    Ok(request)
}

/// Renders one response line. `None` labels never happen today, but the
/// signature mirrors the request shape: id echoed when present.
pub fn format_response_line(id: Option<&str>, label: usize) -> String {
    match id {
        Some(id) => format!("{{\"id\":{},\"label\":{label}}}", json::quote(id)),
        None => format!("{{\"label\":{label}}}"),
    }
}

/// Renders the single-object error body used by non-200 responses.
pub fn format_error(code: &str, detail: &str) -> String {
    format!(
        "{{\"error\":{},\"detail\":{}}}\n",
        json::quote(code),
        json::quote(detail)
    )
}

/// Parses a `POST /admin/reload` body: empty (or blank), `{}`, or
/// `{"path": <JSON string>}`. Returns the candidate path the body names,
/// if any; any other body is an error naming the problem.
pub(crate) fn parse_reload_body(body: &[u8]) -> Result<Option<String>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.bytes().all(|b| b" \t\r\n".contains(&b)) {
        return Ok(None);
    }
    let Value::Object(mut members) = json::parse(text)? else {
        return Err("expected a JSON object".to_string());
    };
    if let Some(key) = members.keys().find(|key| *key != "path") {
        return Err(format!("unknown key {key:?} (path)"));
    }
    match members.remove("path") {
        None => Ok(None),
        Some(Value::String(path)) => Ok(Some(path)),
        Some(_) => Err("\"path\" must be a JSON string".to_string()),
    }
}

/// The hot loop of `/classify`: numbers stream straight into the series.
fn number_array(p: &mut Parser<'_>) -> Result<Vec<f64>, String> {
    p.expect('[')?;
    let mut values = Vec::new();
    p.skip_ws();
    if p.peek() == Some(']') {
        p.next_char();
        return Ok(values);
    }
    loop {
        values.push(p.parse_number()?);
        p.skip_ws();
        match p.next_char() {
            Some(',') => continue,
            Some(']') => return Ok(values),
            Some(c) => return Err(format!("expected ',' or ']', found {c:?}")),
            None => return Err("unterminated array".to_string()),
        }
    }
}

fn request_object(p: &mut Parser<'_>) -> Result<SeriesRequest, String> {
    let (mut id, mut values) = (None, None);
    p.seq('{', '}', |p| {
        let key = p.parse_string()?;
        p.expect(':')?;
        match key.as_str() {
            "id" => id = Some(p.parse_string()?),
            "series" => values = Some(number_array(p)?),
            other => return Err(format!("unknown key {other:?} (id|series)")),
        }
        Ok(())
    })?;
    Ok(SeriesRequest {
        id,
        values: values.ok_or_else(|| "object is missing \"series\"".to_string())?,
    })
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
        // Invalid UTF-8 names its line too: a stray continuation byte, a
        // truncated sequence at the end of a line, an overlong encoding.
        for bad in [&b"[0x\x80]"[..], b"{\"id\":\"\xe2\x82\"}", b"[\xc0\xb1]"] {
            let body = [&b"[1]\r\n\n"[..], bad, b"\n[2]\n"].concat();
            let e = parse_body(&body).unwrap_err();
            assert_eq!(e, "line 3: not UTF-8");
        }
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
