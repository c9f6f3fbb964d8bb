//! # `wfdl-syntax` — surface syntax for guarded normal Datalog±
//!
//! A Prolog-flavoured text format covering everything the paper writes:
//! facts, guarded NTGDs (head-only variables are existential), rules of
//! `Σf` with explicit Skolem terms (as in Example 4), negative constraints
//! (`-> false`), and NBCQs (`?- …` Boolean, `?(X) …` with answers).
//!
//! The frontend is one streaming pass: [`load`] pulls one statement at a
//! time from a [`Parser`] whose tokens and AST borrow the source, lowers
//! it into the universe and drops it — no token vector, no owned AST, no
//! allocation per fact. A ground fact written in ASCII takes the fact path
//! ([`Parser::fact`]): its names go from the bytes to the interner with no
//! token and no AST. Grammar, lifetimes, guarantees and the cost model
//! are in this crate's `src/README.md`.
//!
//! ```
//! use wfdl_core::Universe;
//! let mut universe = Universe::new();
//! let lowered = wfdl_syntax::load(&mut universe, r#"
//!     scientist(john).
//!     scientist(X) -> isAuthorOf(X, Y).   % Y is existential
//!     ?- isAuthorOf(john, X).
//! "#).unwrap();
//! assert_eq!(lowered.program.tgds.len(), 1);
//! assert_eq!(lowered.queries.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod printer;

pub use error::{Pos, SyntaxError};
pub use lower::{load, lower_query, lower_query_frozen, prepare_query, FactInterner, Lowered};
pub use parser::{parse, parse_single_query, Parser};
pub use printer::{
    print_database, print_program, print_query, print_skolem_program, print_skolem_rule, print_tgd,
};
