//! Recursive-descent parser for the Datalog± surface syntax: pulls tokens
//! from the [`Lexer`] with one token of lookahead and hands out one
//! [`Statement`] at a time.
//!
//! Grammar (statements end with `.`):
//!
//! ```text
//! program    := statement*
//! statement  := fact | rule | query
//! fact       := atom '.'
//! rule       := literal (',' literal)* '->' head '.'
//! head       := 'false' | atom (',' atom)*
//! query      := '?-' literal (',' literal)* '.'
//!             | '?' '(' VAR (',' VAR)* ')' literal (',' literal)* '.'
//! literal    := ('not' | '!')? atom
//! atom       := NAME '(' term (',' term)* ')' | NAME
//! term       := VAR | NAME | NAME '(' term (',' term)* ')'
//! ```

use crate::ast::*;
use crate::error::{Pos, Result, SyntaxError};
use crate::lexer::{Lexer, Tok, Token};

/// Parses a complete source file: every statement of a [`Parser`],
/// collected (for tools and tests; [`crate::load`] lowers each statement
/// as it is produced and keeps none).
pub fn parse(src: &str) -> Result<AstProgram<'_>> {
    let mut parser = Parser::new(src);
    let mut statements = Vec::new();
    while let Some(stmt) = parser.next_statement()? {
        statements.push(stmt);
    }
    Ok(AstProgram { statements })
}

/// Parses a source expected to contain a query statement
/// (`?- ….` or `?(X) … .`), returning the first one.
///
/// Non-query statements are tolerated but at least one query must be
/// present; the "expected a query" error points at the first offending
/// statement's real source position (not a hardcoded 1:1). The whole
/// source must parse: a syntax error after the first query is still an
/// error.
pub fn parse_single_query(src: &str) -> Result<AstQuery<'_>> {
    let mut parser = Parser::new(src);
    let mut query = None;
    let mut first_pos = None;
    while let Some(stmt) = parser.next_statement()? {
        first_pos.get_or_insert(stmt.pos());
        if let (None, Statement::Query(q)) = (&query, stmt) {
            query = Some(q);
        }
    }
    query.ok_or_else(|| {
        SyntaxError::new(
            "expected a query (`?- ….` or `?(X) …  .`)",
            first_pos.unwrap_or(Pos { line: 1, col: 1 }),
        )
    })
}

/// How deep function terms may nest. Only a rule head may hold a function
/// term, and only over variables, so any nesting is an error at lowering
/// already; the parser stops at this depth so that no input, however
/// deep, recurses further (or builds an AST whose drop would).
const MAX_TERM_DEPTH: usize = 64;

/// A streaming parser: [`Parser::next_statement`] reads just far enough
/// into the source to return one statement.
#[derive(Debug)]
pub struct Parser<'src> {
    lexer: Lexer<'src>,
    /// The one token of lookahead, lexed on demand — so that an error in
    /// the text *after* a statement is reported after that statement has
    /// been handed out, not before.
    ahead: Option<Token<'src>>,
    /// An argument buffer handed back by [`Parser::recycle`].
    spare_args: Vec<AstTerm<'src>>,
}

impl<'src> Parser<'src> {
    /// Starts at the beginning of `src`.
    pub fn new(src: &'src str) -> Self {
        Parser {
            lexer: Lexer::new(src),
            ahead: None,
            spare_args: Vec::new(),
        }
    }

    /// Parses the next statement; `None` at the end of the input. After an
    /// error the parser must not be used further.
    pub fn next_statement(&mut self) -> Result<Option<Statement<'src>>> {
        let Token { tok, pos } = self.peek()?;
        let stmt = match tok {
            Tok::Eof => return Ok(None),
            Tok::QueryArrow | Tok::Question => {
                self.bump()?;
                let mut answer_vars = Vec::new();
                if tok == Tok::Question {
                    self.expect(Tok::LParen, "`(` after `?`")?;
                    loop {
                        match self.bump()? {
                            Token {
                                tok: Tok::Var(v), ..
                            } => answer_vars.push(v),
                            t => {
                                return Err(SyntaxError::new("expected an answer variable", t.pos))
                            }
                        }
                        if !self.eat(Tok::Comma)? {
                            break;
                        }
                    }
                    self.expect(Tok::RParen, "`)`")?;
                }
                let body = self.literals()?;
                self.expect(Tok::Period, "`.`")?;
                Statement::Query(AstQuery {
                    answer_vars,
                    body,
                    pos,
                })
            }
            _ => {
                let first = self.literal()?;
                // A fact — one positive literal, then `.` — is by far the
                // most common statement: no literal list is built for it.
                if !first.negated && self.eat(Tok::Period)? {
                    return Ok(Some(Statement::Fact(first.atom)));
                }
                let body = self.more_literals(first)?;
                if !self.eat(Tok::Arrow)? {
                    self.expect(Tok::Period, "`.` or `->`")?;
                    return Err(SyntaxError::new(
                        "a fact must be a single positive atom",
                        pos,
                    ));
                }
                let mut head = Vec::new();
                if !self.eat(Tok::False)? {
                    head.push(self.atom()?);
                    while self.eat(Tok::Comma)? {
                        head.push(self.atom()?);
                    }
                }
                self.expect(Tok::Period, "`.`")?;
                Statement::Rule(AstRule { body, head, pos })
            }
        };
        Ok(Some(stmt))
    }

    /// The fact path at a statement boundary: [`Lexer::fact`], a ground
    /// fact in ASCII read with no token and no AST. On `None` nothing but
    /// whitespace and comments was read, and [`Parser::next_statement`]
    /// reads the statement from its first byte.
    pub fn fact(&mut self, args: &mut Vec<&'src str>) -> Option<(&'src str, Pos)> {
        if self.ahead.is_some() {
            return None;
        }
        self.lexer.fact(args)
    }

    /// Takes back a fact the caller is done with, so that the next atom
    /// reuses its argument buffer: a consumer that recycles every fact
    /// makes the parser allocate nothing per fact.
    pub fn recycle(&mut self, fact: AstAtom<'src>) {
        self.spare_args = fact.args;
    }

    fn peek(&mut self) -> Result<Token<'src>> {
        match self.ahead {
            Some(t) => Ok(t),
            None => {
                let t = self.lexer.next_token()?;
                self.ahead = Some(t);
                Ok(t)
            }
        }
    }

    fn bump(&mut self) -> Result<Token<'src>> {
        let t = self.peek()?;
        self.ahead = None;
        Ok(t)
    }

    /// Consumes the next token iff it is `tok`.
    fn eat(&mut self, tok: Tok<'_>) -> Result<bool> {
        let found = self.peek()?.tok == tok;
        if found {
            self.ahead = None;
        }
        Ok(found)
    }

    fn expect(&mut self, tok: Tok<'_>, what: &str) -> Result<()> {
        if self.eat(tok)? {
            return Ok(());
        }
        let found = self.peek()?;
        Err(SyntaxError::new(
            format!("expected {what}, found {:?}", found.tok),
            found.pos,
        ))
    }

    fn literals(&mut self) -> Result<Vec<AstLiteral<'src>>> {
        let first = self.literal()?;
        self.more_literals(first)
    }

    /// The rest of a comma-separated literal list that starts with `first`.
    fn more_literals(&mut self, first: AstLiteral<'src>) -> Result<Vec<AstLiteral<'src>>> {
        let mut out = vec![first];
        while self.eat(Tok::Comma)? {
            out.push(self.literal()?);
        }
        Ok(out)
    }

    fn literal(&mut self) -> Result<AstLiteral<'src>> {
        let negated = self.eat(Tok::Not)?;
        Ok(AstLiteral {
            atom: self.atom()?,
            negated,
        })
    }

    fn atom(&mut self) -> Result<AstAtom<'src>> {
        let t = self.bump()?;
        // Predicate position is unambiguous, so capitalized names (the
        // description-logic convention: `Article`, `ValidID`, …) are
        // accepted here even though they lex as variables.
        let pred = match t.tok {
            Tok::Name(p) | Tok::Var(p) => p,
            other => {
                return Err(SyntaxError::new(
                    format!("expected a predicate name, found {other:?}"),
                    t.pos,
                ));
            }
        };
        let mut args = std::mem::take(&mut self.spare_args);
        args.clear();
        if self.eat(Tok::LParen)? {
            self.terms_into(&mut args, 0)?;
        }
        Ok(AstAtom {
            pred,
            args,
            pos: t.pos,
        })
    }

    /// `term (',' term)* ')'`, after the opening parenthesis; `depth`
    /// function terms enclose the list.
    fn terms_into(&mut self, args: &mut Vec<AstTerm<'src>>, depth: usize) -> Result<()> {
        loop {
            args.push(self.term(depth)?);
            if !self.eat(Tok::Comma)? {
                break;
            }
        }
        self.expect(Tok::RParen, "`)`")
    }

    /// A term inside `depth` function terms.
    fn term(&mut self, depth: usize) -> Result<AstTerm<'src>> {
        let t = self.bump()?;
        match t.tok {
            Tok::Var(v) => Ok(AstTerm::Var(v)),
            Tok::Name(n) => {
                if self.eat(Tok::LParen)? {
                    if depth == MAX_TERM_DEPTH {
                        return Err(SyntaxError::new(
                            format!("function terms nested more than {MAX_TERM_DEPTH} deep"),
                            t.pos,
                        ));
                    }
                    let mut args = Vec::new();
                    self.terms_into(&mut args, depth + 1)?;
                    Ok(AstTerm::Fn(n, args))
                } else {
                    Ok(AstTerm::Const(n))
                }
            }
            other => Err(SyntaxError::new(
                format!("expected a term, found {other:?}"),
                t.pos,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_fact_rule_query() {
        let src = r#"
            % Example 1 from the paper.
            scientist(john).
            conferencePaper(X) -> article(X).
            scientist(X) -> isAuthorOf(X, Y).
            ?- isAuthorOf(john, X).
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.facts().count(), 1);
        assert_eq!(prog.rules().count(), 2);
        assert_eq!(prog.queries().count(), 1);
    }

    #[test]
    fn parse_negation_and_constraint() {
        let src = "p(X), not q(X) -> r(X).  p(X), r(X) -> false.";
        let prog = parse(src).unwrap();
        let rules: Vec<_> = prog.rules().collect();
        assert!(rules[0].body[1].negated);
        assert!(rules[1].head.is_empty());
    }

    #[test]
    fn parse_functional_head() {
        let src = "r(X,Y,Z) -> r(X,Z,f(X,Y,Z)).";
        let prog = parse(src).unwrap();
        let rule = prog.rules().next().unwrap();
        assert!(matches!(&rule.head[0].args[2], AstTerm::Fn("f", args) if args.len() == 3));
    }

    #[test]
    fn parse_answer_vars() {
        let src = "?(X, Y) p(X, Y), not q(Y).";
        let prog = parse(src).unwrap();
        let q = prog.queries().next().unwrap();
        assert_eq!(q.answer_vars, vec!["X", "Y"]);
        assert_eq!(q.body.len(), 2);
    }

    #[test]
    fn parse_conjunctive_head() {
        let src = "person(X) -> employeeId(X, I), valid(I).";
        let prog = parse(src).unwrap();
        assert_eq!(prog.rules().next().unwrap().head.len(), 2);
    }

    #[test]
    fn nullary_atoms() {
        let src = "go. go -> stop.";
        let prog = parse(src).unwrap();
        assert_eq!(prog.facts().count(), 1);
        assert_eq!(prog.rules().count(), 1);
    }

    #[test]
    fn error_positions() {
        let err = parse("p(X) -> ").unwrap_err();
        assert_eq!(err.pos.line, 1);
        let err2 = parse("p(a)\nq(b).").unwrap_err();
        assert_eq!(err2.pos.line, 2);
    }

    #[test]
    fn nesting_stops_at_the_bound() {
        let nested =
            |depth: usize| format!("p(X) -> q({}X{}).", "f(".repeat(depth), ")".repeat(depth));
        assert!(parse(&nested(MAX_TERM_DEPTH)).is_ok());
        let err = parse(&nested(MAX_TERM_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested"), "{err}");
        // At the term that opens one level too many.
        assert_eq!(err.pos.col as usize, 11 + 2 * MAX_TERM_DEPTH);
    }

    #[test]
    fn negated_fact_rejected() {
        assert!(parse("not p(a).").is_err());
    }
}
