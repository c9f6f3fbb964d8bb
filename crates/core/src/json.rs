//! JSON string escaping — the one primitive every hand-assembled JSON
//! document in the workspace shares (the lint report, the serving tier's
//! response bodies). There is no serde here; documents are written field
//! by field in a fixed order so their bytes are stable.

/// Appends `s` to `out` as a JSON string literal (quotes included).
///
/// The bytes are scanned once and each run between escapes is copied in one
/// piece — all of `s`, for the names a response body is made of. Every byte
/// that needs escaping is ASCII, so every cut is a character boundary.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => out.push_str(&format!("\\u{b:04x}")),
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The character-by-character escaper `push_json_str` replaced.
    fn reference(out: &mut String, s: &str) {
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

    /// Strings mixing every control character, the two characters JSON
    /// escapes by name, printable ASCII, U+2028 and characters of two,
    /// three and four UTF-8 bytes.
    fn json_text() -> impl Strategy<Value = String> {
        let scalar = |range: std::ops::Range<u32>| range.prop_map(|c| char::from_u32(c).unwrap());
        let c = prop_oneof![
            scalar(0..0x20),
            Just('"'),
            Just('\\'),
            scalar(0x20..0x7f),
            scalar(0x20..0x7f),
            scalar(0x20..0x7f),
            scalar(0x20..0x7f),
            Just('\u{2028}'),
            scalar(0x80..0x800),
            scalar(0xe000..0x10000),
            scalar(0x10000..0x110000),
        ];
        proptest::collection::vec(c, 0..24).prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn escaping_equals_the_char_by_char_reference(s in json_text(), prefix in json_text()) {
            let (mut fast, mut slow) = (prefix.clone(), prefix);
            push_json_str(&mut fast, &s);
            reference(&mut slow, &s);
            prop_assert_eq!(fast, slow);
        }
    }
}
