//! The streaming byte-cursor lexer against the char-based lexer it
//! replaced (kept, as it was, under `reference/`): the same token kinds,
//! texts and positions, or the same error, on arbitrary input.
//!
//! The cursor slices the source at byte offsets, so a character-boundary
//! mistake would be a panic in production; here it is a failed case.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

#[path = "reference/lexer.rs"]
mod reference;

use proptest::prelude::*;
use wfdl_syntax::lexer::{Lexer, Tok};
use wfdl_syntax::{Pos, SyntaxError};

/// A token as both lexers can be compared: kind, text, position.
type Plain = (String, Pos);

fn plain_reference(t: &reference::Token) -> Plain {
    (format!("{:?}", t.tok), t.pos)
}

/// All tokens up to and including `Eof`, or the tokens before the error
/// and the error.
fn streamed(src: &str) -> (Vec<Plain>, Option<SyntaxError>) {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        match lexer.next_token() {
            Ok(t) => {
                // `Name("x")` prints the same for `&str` and `String`.
                out.push((format!("{:?}", t.tok), t.pos));
                if t.tok == Tok::Eof {
                    return (out, None);
                }
            }
            Err(e) => return (out, Some(e)),
        }
    }
}

fn assert_same_tokens(src: &str) -> Result<(), TestCaseError> {
    let (tokens, error) = streamed(src);
    match reference::lex(src) {
        Err(expected) => prop_assert_eq!(error, Some(expected), "error on {:?}", src),
        Ok(expected) => {
            prop_assert_eq!(error, None, "unexpected error on {:?}", src);
            let mut expected: Vec<Plain> = expected.iter().map(plain_reference).collect();
            // The reference's one defect: it does not advance the column
            // through a comment, which only the end-of-input token can
            // show. Its column is the last line's length in characters.
            let last_line = src.rsplit('\n').next().unwrap_or("");
            let eof = expected.last_mut().expect("lexing ends with Eof");
            eof.1.col = last_line.chars().count() as u32 + 1;
            prop_assert_eq!(tokens, expected, "tokens of {:?}", src);
        }
    }
    Ok(())
}

/// Every delimiter and keyword of the language, every kind of line end,
/// and characters of 1–4 bytes from each class the lexer asks about:
/// lowercase, uppercase, digit, whitespace, and none of these.
fn fragment() -> impl Strategy<Value = &'static str> {
    let fragments: Vec<&'static str> = vec![
        "(", ")", ",", ".", "->", "?-", "?", "!", "not", "false", "\"", "%", "//", "/", "-", ">",
        "_", "'", " ", "\t", "\n", "\r\n", "\r", "a", "Z", "9", "p(", "X1", // 1 byte
        "é", "É", "ß", "٣", "\u{a0}", "\u{85}", // 2 bytes
        "中", "Ⅷ", "→", "∀", "\u{2028}", "\u{3000}", // 3 bytes
        "𝔘", "𝔞", "🦀", "𝟗", // 4 bytes
    ];
    (0..fragments.len()).prop_map(move |i| fragments[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn printable_soup(src in "\\PC{0,200}") {
        assert_same_tokens(&src)?;
    }

    #[test]
    fn token_soup(parts in proptest::collection::vec(
        prop_oneof![
            Just("p"), Just("q("), Just("X"), Just(")"), Just(","), Just("->"),
            Just("not "), Just("false"), Just("."), Just("?-"), Just("f("),
            Just("\"s\""), Just("% c\n"), Just("// c"), Just(" "), Just("\n"),
        ],
        0..40,
    )) {
        assert_same_tokens(&parts.concat())?;
    }

    #[test]
    fn multibyte_characters_beside_every_delimiter(
        parts in proptest::collection::vec(fragment(), 0..48)
    ) {
        assert_same_tokens(&parts.concat())?;
    }
}
