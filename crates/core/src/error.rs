//! Error types for program construction and validation.

use std::fmt;

/// Errors raised while building or validating terms, atoms, rules and
/// programs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// A predicate was used with a different arity than it was declared with.
    ArityMismatch {
        /// Predicate name.
        predicate: String,
        /// Arity recorded at first use.
        declared: usize,
        /// Arity at the offending use.
        used: usize,
    },
    /// A Skolem function was used with a different arity than declared.
    SkolemArityMismatch {
        /// Function name.
        function: String,
        /// Arity recorded at first use.
        declared: usize,
        /// Arity at the offending use.
        used: usize,
    },
    /// A rule has no positive body atom containing all universal variables.
    NotGuarded {
        /// Human-readable rule rendering, for diagnostics.
        rule: String,
    },
    /// A head variable occurs in no body atom and is not existential, or a
    /// negative body variable occurs in no positive body atom.
    UnsafeRule {
        /// Human-readable rule rendering.
        rule: String,
        /// Description of the offending variable.
        detail: String,
    },
    /// A rule with an empty head (and the program context requires heads).
    EmptyHead,
    /// A rule with an empty positive body; guarded NTGDs require a guard.
    EmptyPositiveBody,
    /// A fact (database atom) contains a variable or a null.
    NonGroundFact {
        /// Human-readable atom rendering.
        atom: String,
    },
    /// An atom id that the universe never issued — the mark of a
    /// [`crate::FactBatch`] built against a different universe.
    UnknownAtom {
        /// The offending id's dense index.
        index: usize,
        /// How many atoms the universe has interned.
        interned: usize,
    },
    /// Too many variables in a single rule for the engine's bitset width.
    TooManyVariables {
        /// Number of variables used.
        used: usize,
        /// Hard cap.
        max: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ArityMismatch {
                predicate,
                declared,
                used,
            } => write!(
                f,
                "predicate `{predicate}` declared with arity {declared} but used with arity {used}"
            ),
            CoreError::SkolemArityMismatch {
                function,
                declared,
                used,
            } => write!(
                f,
                "function `{function}` declared with arity {declared} but used with arity {used}"
            ),
            CoreError::NotGuarded { rule } => write!(
                f,
                "rule is not guarded (no positive body atom contains every universal variable): {rule}"
            ),
            CoreError::UnsafeRule { rule, detail } => {
                write!(f, "unsafe rule ({detail}): {rule}")
            }
            CoreError::EmptyHead => write!(f, "rule head must contain at least one atom"),
            CoreError::EmptyPositiveBody => write!(
                f,
                "guarded rule requires at least one positive body atom to act as guard"
            ),
            CoreError::NonGroundFact { atom } => {
                write!(f, "database facts must be ground and null-free: {atom}")
            }
            CoreError::UnknownAtom { index, interned } => write!(
                f,
                "atom #{index} is not of this universe ({interned} atoms interned): \
                 was the batch built against another one?"
            ),
            CoreError::TooManyVariables { used, max } => {
                write!(f, "rule uses {used} variables, more than the supported {max}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenient result alias for core operations.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;
