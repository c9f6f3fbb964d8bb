//! The reference tokenizer: the char-based lexer the frontend used before
//! the streaming byte cursor (`wfdl_syntax::lexer::Lexer`), kept as it was
//! — `Vec<char>`, one `String` per name, column arithmetic by hand — for
//! the differential test to compare against. Its one known defect is kept
//! too: it does not advance the column through a comment.
//!
//! Tokenizer for the Datalog± surface syntax.
//!
//! Conventions (Prolog-flavoured):
//! * identifiers starting with a lowercase letter or digit are constant /
//!   predicate / function names; `"quoted strings"` are constants too;
//! * identifiers starting with an uppercase letter or `_` are variables;
//! * `%` and `//` start line comments;
//! * `->` separates body and head, `?-` starts a Boolean query, `not` or
//!   `!` negates, `false` is the constraint head, `.` ends a statement.

use wfdl_syntax::{Pos, SyntaxError};

type Result<T> = std::result::Result<T, SyntaxError>;

/// A lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Lowercase identifier, number, or quoted string (predicate/constant).
    Name(String),
    /// Uppercase/underscore identifier (variable).
    Var(String),
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// Tokenizes `src` completely.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! push {
        ($tok:expr, $pos:expr) => {
            out.push(Token {
                tok: $tok,
                pos: $pos,
            })
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        let pos = Pos { line, col };
        match c {
            '\n' => {
                line += 1;
                col = 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                col += 1;
                i += 1;
            }
            '%' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '(' => {
                push!(Tok::LParen, pos);
                i += 1;
                col += 1;
            }
            ')' => {
                push!(Tok::RParen, pos);
                i += 1;
                col += 1;
            }
            ',' => {
                push!(Tok::Comma, pos);
                i += 1;
                col += 1;
            }
            '.' => {
                push!(Tok::Period, pos);
                i += 1;
                col += 1;
            }
            '!' => {
                push!(Tok::Not, pos);
                i += 1;
                col += 1;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == '>' => {
                push!(Tok::Arrow, pos);
                i += 2;
                col += 2;
            }
            '?' if i + 1 < bytes.len() && bytes[i + 1] == '-' => {
                push!(Tok::QueryArrow, pos);
                i += 2;
                col += 2;
            }
            '?' => {
                push!(Tok::Question, pos);
                i += 1;
                col += 1;
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                col += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(SyntaxError::new("unterminated string literal", pos));
                    }
                    let c = bytes[i];
                    if c == '"' {
                        i += 1;
                        col += 1;
                        break;
                    }
                    if c == '\n' {
                        return Err(SyntaxError::new("newline inside string literal", pos));
                    }
                    s.push(c);
                    i += 1;
                    col += 1;
                }
                push!(Tok::Name(s), pos);
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut s = String::new();
                while i < bytes.len()
                    && (bytes[i].is_alphanumeric() || bytes[i] == '_' || bytes[i] == '\'')
                {
                    s.push(bytes[i]);
                    i += 1;
                    col += 1;
                }
                let tok = if s == "not" {
                    Tok::Not
                } else if s == "false" {
                    Tok::False
                } else if c.is_uppercase() || c == '_' {
                    Tok::Var(s)
                } else {
                    Tok::Name(s)
                };
                push!(tok, pos);
            }
            other => {
                return Err(SyntaxError::new(
                    format!("unexpected character `{other}`"),
                    pos,
                ));
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        pos: Pos { line, col },
    });
    Ok(out)
}
