//! Tokenizer for the Datalog± surface syntax.
//!
//! Conventions (Prolog-flavoured):
//! * identifiers starting with a lowercase letter or digit are constant /
//!   predicate / function names; `"quoted strings"` are constants too;
//! * identifiers starting with an uppercase letter or `_` are variables;
//! * `%` and `//` start line comments;
//! * `->` separates body and head, `?-` starts a Boolean query, `not` or
//!   `!` negates, `false` is the constraint head, `.` ends a statement.
//!
//! The [`Lexer`] is a cursor over the source's bytes: it yields one token
//! per call, names and variables are slices of the source (a quoted string
//! has no escapes, so it is a slice too), and nothing is allocated. Bytes
//! below `0x80` are their own `char`; anything else is decoded, so the
//! `char` predicates that define the language (`is_alphanumeric`,
//! `is_whitespace`, `is_uppercase`) see exactly the characters of the
//! text, and every [`Pos`] counts columns in characters, not bytes.

use crate::error::{Pos, Result, SyntaxError};
use std::ops::Range;

/// A lexical token; names borrow the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tok<'src> {
    /// Lowercase identifier, number, or quoted string (predicate/constant).
    Name(&'src str),
    /// Uppercase/underscore identifier (variable).
    Var(&'src str),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `,`.
    Comma,
    /// `.`.
    Period,
    /// `->`.
    Arrow,
    /// `?-`.
    QueryArrow,
    /// `?`.
    Question,
    /// `not` / `!`.
    Not,
    /// `false` (constraint head).
    False,
    /// End of input.
    Eof,
}

/// A token with its source position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token<'src> {
    /// The token.
    pub tok: Tok<'src>,
    /// Where it starts.
    pub pos: Pos,
}

/// True iff `name`, written bare, lexes back as the single token
/// `Tok::Name(name)` — what the printer asks before writing a constant
/// (anything else — spaces, a capital first letter, a keyword — is
/// written as a quoted string).
pub fn is_bare_name(name: &str) -> bool {
    let mut lexer = Lexer::new(name);
    lexer.next_token().map(|t| t.tok) == Ok(Tok::Name(name)) && lexer.at == name.len()
}

/// A cursor over the source that yields one [`Token`] per call.
#[derive(Clone, Debug)]
pub struct Lexer<'src> {
    src: &'src str,
    /// Byte offset of the next unread character.
    at: usize,
    line: u32,
    /// Byte offset of the current line's start, plus the UTF-8
    /// continuation bytes read on the line so far: the next character's
    /// column, in characters, is `at - col_base + 1`.
    col_base: usize,
}

impl<'src> Lexer<'src> {
    /// Starts at the beginning of `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer {
            src,
            at: 0,
            line: 1,
            col_base: 0,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: (self.at - self.col_base + 1) as u32,
        }
    }

    /// The character at the cursor and its length in bytes.
    #[inline]
    fn peek_char(&self) -> Option<(char, usize)> {
        let b = *self.src.as_bytes().get(self.at)?;
        if b < 0x80 {
            return Some((b as char, 1));
        }
        // `at` only ever moves by whole characters, so it is a boundary.
        let c = self.src[self.at..].chars().next()?;
        Some((c, c.len_utf8()))
    }

    /// Moves over one character of `len` bytes.
    #[inline]
    fn advance(&mut self, len: usize) {
        self.at += len;
        self.col_base += len - 1;
    }

    /// Moves to `end` (a character boundary on the current line), keeping
    /// the column count in characters.
    fn skip_to(&mut self, end: usize) {
        let skipped = &self.src.as_bytes()[self.at..end];
        self.col_base += skipped.iter().filter(|&&b| b & 0xC0 == 0x80).count();
        self.at = end;
    }

    /// Moves over the whitespace character or the comment that `c` (`len`
    /// bytes, at the cursor) starts; false, moving nothing, if `c` starts
    /// a token or is no character of the language.
    #[inline]
    fn skip_trivia(&mut self, c: char, len: usize) -> bool {
        let bytes = self.src.as_bytes();
        match c {
            '\n' => {
                self.at += 1;
                self.line += 1;
                self.col_base = self.at;
            }
            c if c.is_whitespace() => self.advance(len),
            '%' | '/' if c == '%' || bytes.get(self.at + 1) == Some(&b'/') => {
                // A comment runs to the end of the line.
                let rest = &bytes[self.at..];
                let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
                self.skip_to(self.at + len);
            }
            _ => return false,
        }
        true
    }

    /// The fact path: reads a ground fact `name(name, …, name).` written in
    /// ASCII, with blanks (` `, `\t`) between its tokens, straight off the
    /// bytes; returns its predicate name and position and leaves its
    /// argument names in `args`. It never reports an error: anything else —
    /// a comment, a newline or a non-ASCII character before the `.`, a
    /// quoted name, a variable or `_`-leading name, `not`, `false`, a
    /// function term, no argument, no `.` — is declined with `None` and
    /// the cursor on the statement's first byte, for
    /// [`Lexer::next_token`] to read. Either way the whitespace and
    /// comments before the statement are skipped.
    pub fn fact(&mut self, args: &mut Vec<&'src str>) -> Option<(&'src str, Pos)> {
        while let Some((c, len)) = self.peek_char() {
            if !self.skip_trivia(c, len) {
                break;
            }
        }
        let bytes = self.src.as_bytes();
        let pred = ascii_name(bytes, self.at)?;
        let mut i = skip_blanks(bytes, pred.end);
        if bytes.get(i) != Some(&b'(') {
            return None;
        }
        args.clear();
        loop {
            let arg = ascii_name(bytes, skip_blanks(bytes, i + 1))?;
            i = skip_blanks(bytes, arg.end);
            args.push(&self.src[arg]);
            match bytes.get(i) {
                Some(b',') => {}
                Some(b')') => break,
                _ => return None,
            }
        }
        i = skip_blanks(bytes, i + 1);
        if bytes.get(i) != Some(&b'.') {
            return None;
        }
        let pos = self.pos();
        // Every byte read is ASCII and none is a newline, so the line and
        // the column base stay as they are.
        self.at = i + 1;
        Some((&self.src[pred], pos))
    }

    /// The next token; at the end of the input, [`Tok::Eof`] (again and
    /// again). After an error the cursor is not moved on.
    pub fn next_token(&mut self) -> Result<Token<'src>> {
        let bytes = self.src.as_bytes();
        loop {
            let pos = self.pos();
            let Some((c, len)) = self.peek_char() else {
                return Ok(Token { tok: Tok::Eof, pos });
            };
            let next = bytes.get(self.at + 1).copied();
            let (tok, len) = match c {
                '(' => (Tok::LParen, 1),
                ')' => (Tok::RParen, 1),
                ',' => (Tok::Comma, 1),
                '.' => (Tok::Period, 1),
                '!' => (Tok::Not, 1),
                '-' if next == Some(b'>') => (Tok::Arrow, 2),
                '?' if next == Some(b'-') => (Tok::QueryArrow, 2),
                '?' => (Tok::Question, 1),
                '"' => {
                    // Both terminators are ASCII, so a byte scan cannot
                    // stop inside a character.
                    let body = &bytes[self.at + 1..];
                    let end = match body.iter().position(|&b| b == b'"' || b == b'\n') {
                        None => return Err(SyntaxError::new("unterminated string literal", pos)),
                        Some(i) if body[i] == b'\n' => {
                            return Err(SyntaxError::new("newline inside string literal", pos))
                        }
                        Some(i) => self.at + 1 + i,
                    };
                    let text = &self.src[self.at + 1..end];
                    self.skip_to(end + 1);
                    return Ok(Token {
                        tok: Tok::Name(text),
                        pos,
                    });
                }
                c if c.is_alphanumeric() || c == '_' => {
                    let start = self.at;
                    while let Some((c, len)) = self.peek_char() {
                        if !(c.is_alphanumeric() || c == '_' || c == '\'') {
                            break;
                        }
                        self.advance(len);
                    }
                    let text = &self.src[start..self.at];
                    let tok = match text {
                        "not" => Tok::Not,
                        "false" => Tok::False,
                        _ if c.is_uppercase() || c == '_' => Tok::Var(text),
                        _ => Tok::Name(text),
                    };
                    return Ok(Token { tok, pos });
                }
                c if self.skip_trivia(c, len) => continue,
                other => {
                    return Err(SyntaxError::new(
                        format!("unexpected character `{other}`"),
                        pos,
                    ));
                }
            };
            self.at += len;
            return Ok(Token { tok, pos });
        }
    }
}

/// The bytes from `at` on that are blanks: spaces and tabs.
fn skip_blanks(bytes: &[u8], mut at: usize) -> usize {
    while let Some(b' ' | b'\t') = bytes.get(at) {
        at += 1;
    }
    at
}

/// The ASCII `NAME` starting at `at`: a lowercase letter or a digit, then
/// letters, digits, `_` and `'`; `None` if there is none or it is the
/// keyword `not` or `false`. (A non-ASCII letter after it would continue
/// the name; [`Lexer::fact`] declines every byte after a name but a
/// blank, `(`, `,` and `)`.)
fn ascii_name(bytes: &[u8], at: usize) -> Option<Range<usize>> {
    let first = *bytes.get(at)?;
    if !(first.is_ascii_lowercase() || first.is_ascii_digit()) {
        return None;
    }
    let len = bytes[at..]
        .iter()
        .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_' || b == b'\''))
        .unwrap_or(bytes.len() - at);
    let name = at..at + len;
    (!matches!(&bytes[name.clone()], b"not" | b"false")).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lexer.next_token().unwrap();
            out.push(t.tok);
            if t.tok == Tok::Eof {
                return out;
            }
        }
    }

    #[test]
    fn basic_rule() {
        let ts = toks("p(X) -> q(X).");
        assert_eq!(
            ts,
            vec![
                Tok::Name("p"),
                Tok::LParen,
                Tok::Var("X"),
                Tok::RParen,
                Tok::Arrow,
                Tok::Name("q"),
                Tok::LParen,
                Tok::Var("X"),
                Tok::RParen,
                Tok::Period,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn keywords_and_negation() {
        let ts = toks("p(X), not q(X) -> false.");
        assert!(ts.contains(&Tok::Not));
        assert!(ts.contains(&Tok::False));
        let ts2 = toks("!q(X)");
        assert_eq!(ts2[0], Tok::Not);
    }

    #[test]
    fn comments_are_skipped() {
        let ts = toks("% a comment\np(a). // more\n");
        assert_eq!(ts.len(), 6); // p ( a ) . EOF
    }

    #[test]
    fn query_arrows() {
        assert_eq!(toks("?-")[0], Tok::QueryArrow);
        assert_eq!(toks("?(")[0], Tok::Question);
    }

    #[test]
    fn strings_and_numbers() {
        let ts = toks(r#"p("Hello World", 42)"#);
        assert_eq!(ts[2], Tok::Name("Hello World"));
        assert_eq!(ts[4], Tok::Name("42"));
    }

    #[test]
    fn positions_reported() {
        let mut lexer = Lexer::new("p(a).\nq(");
        let q = loop {
            let t = lexer.next_token().unwrap();
            if t.tok == Tok::Name("q") {
                break t;
            }
        };
        assert_eq!((q.pos.line, q.pos.col), (2, 1));
    }

    #[test]
    fn columns_count_characters_through_comments_and_strings() {
        // The end of input after a comment is where the comment ends.
        let mut lexer = Lexer::new("p(a) % cé");
        let eof = loop {
            let t = lexer.next_token().unwrap();
            if t.tok == Tok::Eof {
                break t;
            }
        };
        assert_eq!((eof.pos.line, eof.pos.col), (1, 10));
        let mut lexer = Lexer::new("\"é→\" x");
        lexer.next_token().unwrap();
        assert_eq!(lexer.next_token().unwrap().pos, Pos { line: 1, col: 6 });
    }

    #[test]
    fn the_fact_path_reads_ascii_facts_and_declines_the_rest() {
        let mut lexer = Lexer::new("% facts\np(a,b ,\tc).\n  q( d ) . r(X).");
        let mut args = Vec::new();
        assert_eq!(lexer.fact(&mut args), Some(("p", Pos { line: 2, col: 1 })));
        assert_eq!(args, ["a", "b", "c"]);
        assert_eq!(lexer.fact(&mut args), Some(("q", Pos { line: 3, col: 3 })));
        assert_eq!(args, ["d"]);
        assert_eq!(lexer.fact(&mut args), None);
        // Declined: the next token is the statement's first.
        let r = lexer.next_token().unwrap();
        assert_eq!((r.tok, r.pos), (Tok::Name("r"), Pos { line: 3, col: 12 }));
        for declined in [
            "p(a)",
            "p().",
            "p(a,).",
            "p(a b).",
            "p(\"a\").",
            "p(é).",
            "pé(a).",
            "p(a\n).",
            "p(a % c\n).",
            "p(f(a)).",
            "p(_a).",
            "P(a).",
            "not(a).",
            "p(false).",
            "p(a) -> q(a).",
            "p(a), q(a).",
            "p\u{2028}(a).",
        ] {
            let mut lexer = Lexer::new(declined);
            assert_eq!(lexer.fact(&mut args), None, "{declined:?}");
            assert_eq!(lexer.at, 0, "{declined:?}");
        }
    }

    #[test]
    fn bad_character_errors() {
        let mut lexer = Lexer::new("p(a) & q(b)");
        let err = loop {
            if let Err(e) = lexer.next_token() {
                break e;
            }
        };
        assert!(err.message.contains('&'));
        assert_eq!(err.pos, Pos { line: 1, col: 6 });
    }

    #[test]
    fn bare_names() {
        for bare in ["a", "k1", "42", "x'", "été", "isAuthorOf"] {
            assert!(is_bare_name(bare), "{bare}");
        }
        for quoted in [
            "",
            "Hello World",
            "X1",
            "_x",
            "not",
            "false",
            "a b",
            "a.b",
            "É",
        ] {
            assert!(!is_bare_name(quoted), "{quoted}");
        }
    }
}
