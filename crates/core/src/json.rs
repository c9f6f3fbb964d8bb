//! JSON string escaping — the one primitive every hand-assembled JSON
//! document in the workspace shares (the lint report, the serving tier's
//! response bodies). There is no serde here; documents are written field
//! by field in a fixed order so their bytes are stable.

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn push_json_str(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_covers_quotes_newlines_and_the_control_set() {
        for (raw, literal) in [
            ("a\"b\\c\nd", "\"a\\\"b\\\\c\\nd\""),
            ("a\"b\\c\nd\te\u{1}", "\"a\\\"b\\\\c\\nd\\te\\u0001\""),
        ] {
            let mut out = String::new();
            push_json_str(&mut out, raw);
            assert_eq!(out, literal);
        }
    }
}
