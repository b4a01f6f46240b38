//! A minimal hand-rolled JSON writer.
//!
//! The workspace is fully offline (no serde), so JSON is written by
//! hand; this module centralizes the two pieces that are easy to get
//! wrong — string escaping and float formatting — so [`crate::Profile`]
//! and the rest of the stack emit valid JSON for any query text.

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A quoted, escaped JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Nanoseconds as a fractional-millisecond JSON number (3 decimals —
/// microsecond resolution).
pub fn ns_as_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// A finite f64 as a JSON number (NaN/inf degrade to 0, which JSON
/// cannot represent).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "0.000".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn string_is_quoted() {
        assert_eq!(string("x \"y\""), "\"x \\\"y\\\"\"");
    }

    #[test]
    fn ns_to_ms_keeps_microsecond_resolution() {
        assert_eq!(ns_as_ms(1_234_567), "1.235");
        assert_eq!(ns_as_ms(0), "0.000");
    }

    #[test]
    fn non_finite_numbers_degrade_to_zero() {
        assert_eq!(number(f64::NAN), "0.000");
        assert_eq!(number(f64::INFINITY), "0.000");
        assert_eq!(number(1.5), "1.500");
    }
}
