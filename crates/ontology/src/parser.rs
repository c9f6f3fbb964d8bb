//! A small text syntax for DL-Lite_{R,⊓,not} ontologies, so TBoxes can be
//! written the way the paper writes them.
//!
//! ```text
//! # Example 2 of the paper (ASCII rendering):
//! Person, Employed, not exists JobSeekerID  <  exists EmployeeID .
//! Person, not Employed, not exists EmployeeID  <  exists JobSeekerID .
//! exists EmployeeID-, not exists JobSeekerID-  <  ValidID .
//!
//! # role inclusion and disjointness:
//! worksFor < affiliatedWith .
//! Employed, Retired < bottom .
//!
//! # ABox assertions:
//! Person(a). Employed(a). worksFor(a, acme).
//! ```
//!
//! Grammar: each statement ends with `.`; `<` reads as `⊑`; `exists R`
//! is `∃R` and `R-` an inverse role; a left side is a comma-separated
//! conjunction of possibly-`not`-prefixed basic concepts; `bottom` (or
//! `⊥`) as the right side makes a disjointness axiom. A statement whose
//! two sides are bare role names is a role inclusion. Lines starting with
//! `#` or `%` are comments.

use crate::dllite::{Basic, ConceptInclusion, ConceptLiteral, Ontology, Rhs, Role, RoleInclusion};
use std::fmt;

/// A parse error with a line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OntologyParseError {
    /// 1-based line where the offending statement starts.
    pub line: u32,
    /// Description.
    pub message: String,
}

impl fmt::Display for OntologyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for OntologyParseError {}

/// Parses an ontology text.
pub fn parse_ontology(src: &str) -> Result<Ontology, OntologyParseError> {
    let mut onto = Ontology::default();
    for_each_statement(src, |stmt, line| parse_statement(stmt, line, &mut onto))?;
    Ok(onto)
}

/// Calls `each` with every `.`-terminated statement of the source —
/// trimmed, comments dropped — and the line its first character is on.
///
/// A statement that sits on one line (every ABox assertion does) is handed
/// out as a slice of `src`; only one that runs over several lines is
/// assembled, without the comments between its parts, in a buffer. Text
/// after the last `.` is not a statement.
fn for_each_statement<E>(
    src: &str,
    mut each: impl FnMut(&str, u32) -> Result<(), E>,
) -> Result<(), E> {
    // The beginning of a statement that started on an earlier line: empty,
    // or text with a non-blank character in it, from line `start_line` on.
    let mut pending = String::new();
    let mut start_line = 0u32;
    for (line, text) in (1u32..).zip(src.lines()) {
        let mut rest = match text.find(['#', '%']) {
            Some(comment) => &text[..comment],
            None => text,
        };
        while let Some(dot) = rest.find('.') {
            let part = &rest[..dot];
            rest = &rest[dot + 1..];
            if pending.is_empty() {
                if !part.trim().is_empty() {
                    each(part.trim(), line)?;
                }
            } else {
                pending.push_str(part);
                each(pending.trim(), start_line)?;
                pending.clear();
            }
        }
        if pending.is_empty() {
            if rest.trim().is_empty() {
                continue;
            }
            start_line = line;
        }
        pending.push_str(rest);
        pending.push('\n');
    }
    Ok(())
}

fn err(line: u32, message: impl Into<String>) -> OntologyParseError {
    OntologyParseError {
        line,
        message: message.into(),
    }
}

fn parse_statement(stmt: &str, line: u32, onto: &mut Ontology) -> Result<(), OntologyParseError> {
    if let Some(idx) = stmt.find('<') {
        let (lhs, rhs) = (stmt[..idx].trim(), stmt[idx + 1..].trim());
        return parse_inclusion(lhs, rhs, line, onto);
    }
    // ABox assertion: Name(args).
    let open = stmt
        .find('(')
        .ok_or_else(|| err(line, format!("cannot parse statement `{stmt}`")))?;
    let close = stmt[open..]
        .rfind(')')
        .map(|i| open + i)
        .ok_or_else(|| err(line, "missing `)` in assertion"))?;
    let name = stmt[..open].trim();
    let mut args = stmt[open + 1..close]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty());
    let n = args.clone().count();
    match (n, args.next(), args.next()) {
        (1, Some(a), _) => onto.abox.concept(name, a),
        (2, Some(a), Some(b)) => onto.abox.role(name, a, b),
        _ => {
            return Err(err(
                line,
                format!("assertions take 1 or 2 arguments, got {n}"),
            ))
        }
    }
    Ok(())
}

fn parse_inclusion(
    lhs: &str,
    rhs: &str,
    line: u32,
    onto: &mut Ontology,
) -> Result<(), OntologyParseError> {
    // Role inclusion: both sides bare role names (no `exists`, no comma,
    // lowercase-initial convention not required — just plain identifiers).
    let lhs_parts: Vec<&str> = lhs.split(',').map(str::trim).collect();
    let simple = |s: &str| !s.contains("exists") && !s.starts_with("not ") && !s.contains(' ');
    if lhs_parts.len() == 1 && simple(lhs_parts[0]) && simple(rhs) && rhs != "bottom" && rhs != "⊥"
    {
        // Heuristic: treat as a role inclusion only when either side has an
        // inverse marker or starts lowercase (role-name convention);
        // otherwise it is an atomic-concept inclusion.
        let looks_role = |s: &str| {
            s.ends_with('-') || s.chars().next().map(|c| c.is_lowercase()).unwrap_or(false)
        };
        if looks_role(lhs_parts[0]) || looks_role(rhs) {
            onto.tbox.roles.push(RoleInclusion {
                sub: parse_role(lhs_parts[0], line)?,
                sup: parse_role(rhs, line)?,
            });
            return Ok(());
        }
    }

    let mut literals = Vec::with_capacity(lhs_parts.len());
    for part in &lhs_parts {
        if part.is_empty() {
            return Err(err(line, "empty conjunct on the left side"));
        }
        let (negated, body) = match part.strip_prefix("not ") {
            Some(rest) => (true, rest.trim()),
            None => (false, *part),
        };
        let basic = parse_basic(body, line)?;
        literals.push(ConceptLiteral { basic, negated });
    }
    if literals.iter().all(|l| l.negated) {
        return Err(err(line, "at least one left conjunct must be positive"));
    }
    let rhs_parsed = if rhs == "bottom" || rhs == "⊥" {
        Rhs::Bottom
    } else {
        if let Some(rest) = rhs.strip_prefix("not ") {
            return Err(err(
                line,
                format!("negation is not allowed on the right side (`not {rest}`)"),
            ));
        }
        Rhs::Basic(parse_basic(rhs, line)?)
    };
    onto.tbox.concepts.push(ConceptInclusion {
        lhs: literals,
        rhs: rhs_parsed,
    });
    Ok(())
}

fn parse_basic(s: &str, line: u32) -> Result<Basic, OntologyParseError> {
    if let Some(role) = s.strip_prefix("exists ") {
        return Ok(Basic::Exists(parse_role(role.trim(), line)?));
    }
    if let Some(role) = s.strip_prefix('∃') {
        return Ok(Basic::Exists(parse_role(role.trim(), line)?));
    }
    if s.contains(' ') {
        return Err(err(line, format!("cannot parse concept `{s}`")));
    }
    Ok(Basic::Atomic(s.to_string()))
}

fn parse_role(s: &str, line: u32) -> Result<Role, OntologyParseError> {
    if s.is_empty() {
        return Err(err(line, "empty role name"));
    }
    if let Some(name) = s.strip_suffix('-') {
        if name.is_empty() {
            return Err(err(line, "empty inverse role name"));
        }
        Ok(Role::Inverse(name.to_string()))
    } else {
        Ok(Role::Direct(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dllite::example2_tbox;

    #[test]
    fn parses_example2_verbatim() {
        let onto = parse_ontology(
            r#"
            # Example 2 of the paper.
            Person, Employed, not exists JobSeekerID < exists EmployeeID .
            Person, not Employed, not exists EmployeeID < exists JobSeekerID .
            exists EmployeeID-, not exists JobSeekerID- < ValidID .
            Person(a). Person(b). Employed(a).
            "#,
        )
        .unwrap();
        assert_eq!(
            onto.tbox,
            crate::dllite::Tbox {
                concepts: example2_tbox().concepts,
                roles: vec![],
            }
        );
        assert_eq!(onto.abox.concept_assertions.len(), 3);
    }

    #[test]
    fn parses_role_inclusion_and_bottom() {
        let onto = parse_ontology(
            r#"
            worksFor < affiliatedWith .
            hasParent < hasChild- .
            Cat, Dog < bottom .
            "#,
        )
        .unwrap();
        assert_eq!(onto.tbox.roles.len(), 2);
        assert_eq!(
            onto.tbox.roles[1].sup,
            Role::Inverse("hasChild".to_string())
        );
        assert_eq!(onto.tbox.concepts.len(), 1);
        assert_eq!(onto.tbox.concepts[0].rhs, Rhs::Bottom);
    }

    #[test]
    fn atomic_concept_inclusion_vs_role_inclusion() {
        // Capitalized names without inverse markers are concepts.
        let onto = parse_ontology("ConferencePaper < Article .").unwrap();
        assert_eq!(onto.tbox.concepts.len(), 1);
        assert!(onto.tbox.roles.is_empty());
    }

    #[test]
    fn rejects_all_negative_lhs() {
        let e = parse_ontology("not Person < Robot .").unwrap_err();
        assert!(e.message.contains("positive"), "{e}");
    }

    #[test]
    fn rejects_negated_rhs() {
        let e = parse_ontology("Person < not Robot .").unwrap_err();
        assert!(e.message.contains("right side"), "{e}");
    }

    #[test]
    fn rejects_bad_assertion_arity() {
        let e = parse_ontology("r(a, b, c).").unwrap_err();
        assert!(e.message.contains("1 or 2"), "{e}");
    }

    #[test]
    fn reports_line_numbers() {
        let e = parse_ontology("Person < Agent .\n\nnot X < Y .").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn unbalanced_parentheses_are_an_error() {
        let e = parse_ontology(")(.").unwrap_err();
        assert!(e.message.contains("missing `)`"), "{e}");
    }

    /// The statement splitter this module had before it stopped copying:
    /// the whole source into a comment-free `cleaned`, then every statement
    /// into a `String` of its own. Kept as the reference.
    fn statements_by_copying(src: &str) -> Vec<(String, u32)> {
        let mut cleaned = String::new();
        for line in src.lines() {
            let line = match line.find(['#', '%']) {
                Some(i) => &line[..i],
                None => line,
            };
            cleaned.push_str(line);
            cleaned.push('\n');
        }
        let mut out = Vec::new();
        let mut start_line = 1u32;
        let mut line = 1u32;
        let mut cur = String::new();
        for c in cleaned.chars() {
            if c == '\n' {
                line += 1;
            }
            if c == '.' {
                if !cur.trim().is_empty() {
                    out.push((cur.trim().to_string(), start_line));
                }
                cur.clear();
                start_line = line;
            } else {
                if cur.trim().is_empty() {
                    start_line = line;
                }
                cur.push(c);
            }
        }
        out
    }

    proptest::proptest! {
        /// Same statements, same start lines — across comments, blank
        /// lines, statements spanning lines, every line ending.
        #[test]
        fn statements_are_the_ones_copying_found(parts in proptest::collection::vec(
            proptest::prop_oneof![
                proptest::strategy::Just("A"), proptest::strategy::Just("r(a, b)"),
                proptest::strategy::Just(" < "), proptest::strategy::Just("."),
                proptest::strategy::Just(" "), proptest::strategy::Just("\n"),
                proptest::strategy::Just("\r\n"), proptest::strategy::Just("\r"),
                proptest::strategy::Just("# c."), proptest::strategy::Just("% c"),
                proptest::strategy::Just("é"), proptest::strategy::Just("\u{2028}"),
            ],
            0..40,
        )) {
            let src = parts.concat();
            let mut found = Vec::new();
            let walked: Result<(), ()> = for_each_statement(&src, |stmt, line| {
                found.push((stmt.to_string(), line));
                Ok(())
            });
            proptest::prop_assert!(walked.is_ok());
            proptest::prop_assert_eq!(found, statements_by_copying(&src), "source {:?}", src);
        }
    }

    #[test]
    fn end_to_end_through_translation() {
        let onto = parse_ontology(
            r#"
            Scientist < exists isAuthorOf .
            ConferencePaper < Article .
            Scientist(john).
            "#,
        )
        .unwrap();
        let mut u = wfdl_core::Universe::new();
        let t = crate::translate(&mut u, &onto).unwrap();
        assert_eq!(t.program.tgds.len(), 2);
        assert_eq!(t.database.len(), 1);
    }
}
