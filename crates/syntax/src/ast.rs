//! Surface-syntax AST, independent of any universe. Every name is a slice
//! of the source text (`'src`), so building it copies no string.

use crate::error::Pos;

/// A parsed term.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AstTerm<'src> {
    /// Variable (uppercase identifier).
    Var(&'src str),
    /// Constant (lowercase identifier, number, or string).
    Const(&'src str),
    /// Function application (Skolem term; heads only).
    Fn(&'src str, Vec<AstTerm<'src>>),
}

/// A parsed atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AstAtom<'src> {
    /// Predicate name.
    pub pred: &'src str,
    /// Arguments.
    pub args: Vec<AstTerm<'src>>,
    /// Source position of the predicate name.
    pub pos: Pos,
}

/// A body literal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AstLiteral<'src> {
    /// The atom.
    pub atom: AstAtom<'src>,
    /// True for `not …`.
    pub negated: bool,
}

/// A parsed rule `body -> head.` — `head` empty means a constraint
/// (`-> false`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AstRule<'src> {
    /// Body literals.
    pub body: Vec<AstLiteral<'src>>,
    /// Head atoms (empty = negative constraint).
    pub head: Vec<AstAtom<'src>>,
    /// Source position of the rule start.
    pub pos: Pos,
}

/// A parsed query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AstQuery<'src> {
    /// Answer variables (empty = Boolean query).
    pub answer_vars: Vec<&'src str>,
    /// Body literals.
    pub body: Vec<AstLiteral<'src>>,
    /// Source position.
    pub pos: Pos,
}

/// A top-level statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Statement<'src> {
    /// A ground fact.
    Fact(AstAtom<'src>),
    /// A rule or constraint.
    Rule(AstRule<'src>),
    /// A query.
    Query(AstQuery<'src>),
}

impl Statement<'_> {
    /// Source position of the statement's start.
    pub fn pos(&self) -> Pos {
        match self {
            Statement::Fact(a) => a.pos,
            Statement::Rule(r) => r.pos,
            Statement::Query(q) => q.pos,
        }
    }
}

/// A parsed source file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AstProgram<'src> {
    /// Statements in source order.
    pub statements: Vec<Statement<'src>>,
}

impl<'src> AstProgram<'src> {
    /// Iterates over the facts.
    pub fn facts(&self) -> impl Iterator<Item = &AstAtom<'src>> {
        self.statements.iter().filter_map(|s| match s {
            Statement::Fact(a) => Some(a),
            _ => None,
        })
    }

    /// Iterates over the rules (and constraints).
    pub fn rules(&self) -> impl Iterator<Item = &AstRule<'src>> {
        self.statements.iter().filter_map(|s| match s {
            Statement::Rule(r) => Some(r),
            _ => None,
        })
    }

    /// Iterates over the queries.
    pub fn queries(&self) -> impl Iterator<Item = &AstQuery<'src>> {
        self.statements.iter().filter_map(|s| match s {
            Statement::Query(q) => Some(q),
            _ => None,
        })
    }
}
