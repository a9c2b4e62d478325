//! A JSON writer just large enough for the benchmark's records, so the
//! package depends on nothing but `vdb-core` and `std`.

use std::fmt::Write;

/// A JSON string literal.
pub fn string(s: &str) -> String {
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
                // Writing to a String cannot fail.
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `x`. NaN and the infinities have
/// no JSON spelling, and a record holding one would be unreadable, so
/// they are an error naming the field.
pub fn number(field: &str, x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(format!("{x}"))
    } else {
        Err(format!(
            "{field} is {x}: not a finite number, refusing to write it"
        ))
    }
}

/// `{"k": v, ...}` from already-encoded values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `[v, ...]` from already-encoded values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("line\nbreak\ttab\r"), "\"line\\nbreak\\ttab\\r\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("µs ≥ 2×"), "\"µs ≥ 2×\"");
    }

    #[test]
    fn numbers_keep_digits_and_must_be_finite() {
        assert_eq!(number("x", 1.2034).unwrap(), "1.2034");
        assert_eq!(number("x", 3.0).unwrap(), "3");
        assert_eq!(number("x", 0.1 + 0.2).unwrap(), "0.30000000000000004");
        assert!(number("p50_ms", f64::NAN).unwrap_err().contains("p50_ms"));
        assert!(number("qps", f64::INFINITY).is_err());
        assert!(number("qps", f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn objects_and_arrays_compose() {
        let inner = object(&[("value", number("v", 2.5).unwrap()), ("unit", string("ms"))]);
        assert_eq!(inner, "{\"value\": 2.5, \"unit\": \"ms\"}");
        assert_eq!(
            object(&[("m", inner), ("ok", "true".to_string())]),
            "{\"m\": {\"value\": 2.5, \"unit\": \"ms\"}, \"ok\": true}"
        );
        assert_eq!(array(&["1".into(), "2".into()]), "[1, 2]");
        assert_eq!(object(&[]), "{}");
    }
}
