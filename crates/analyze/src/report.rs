//! Diagnostics and report rendering (human text and machine JSON).
//!
//! The JSON writer is hand-rolled (the workspace builds offline with no
//! serde); the shape is documented in `src/README.md` and asserted stable
//! by CI, so treat field names as a public contract.

use std::fmt;
use wfdl_core::json::push_json_str;
use wfdl_core::Span;

/// Stable diagnostic codes. `E…` codes are errors (the program is rejected
/// or outside the supported fragment), `W…` codes are advisory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Parse or lowering error (syntax, unsafe rule, malformed fact, …).
    E001,
    /// Rule outside the guarded fragment (no guard atom).
    E002,
    /// Predicate used with conflicting arities.
    E003,
    /// Recursion through negation (the component is solved by the
    /// alternating-fixpoint path, answers may be `undefined`).
    W001,
    /// Chase-termination risk: cycle through an existential position
    /// (the program is not weakly acyclic).
    W002,
    /// Unused predicate: facts are loaded but no rule or query reads them.
    W003,
    /// Rule unreachable from the EDB: a positive body predicate can never
    /// hold.
    W004,
    /// Derived predicate is never consumed by any rule body or query.
    W005,
    /// Body variable occurs exactly once (possibly a typo; join intended?).
    W006,
    /// Dangerous variable: a null can propagate through this variable into
    /// the head (the rule is warded, not plain Datalog).
    W007,
}

impl Code {
    /// The stable code string, e.g. `"W001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::E001 => "E001",
            Code::E002 => "E002",
            Code::E003 => "E003",
            Code::W001 => "W001",
            Code::W002 => "W002",
            Code::W003 => "W003",
            Code::W004 => "W004",
            Code::W005 => "W005",
            Code::W006 => "W006",
            Code::W007 => "W007",
        }
    }

    /// Default severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::E001 | Code::E002 | Code::E003 => Severity::Error,
            Code::W001 | Code::W002 | Code::W003 | Code::W004 => Severity::Warning,
            Code::W005 | Code::W006 | Code::W007 => Severity::Info,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Diagnostic severity, ordered `Info < Warning < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory note; never affects the exit code.
    Info,
    /// Suspicious but legal; fails `--deny warn`.
    Warning,
    /// The program is rejected or outside the supported fragment.
    Error,
}

impl Severity {
    /// Lowercase name used in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One analyzer finding, anchored to a source span and/or a predicate or
/// rule rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (normally `code.severity()`).
    pub severity: Severity,
    /// Source location, when the anchor was lowered from a `.dl` file.
    pub span: Option<Span>,
    /// Predicate anchor (display name), when the finding is about one.
    pub pred: Option<String>,
    /// Rule anchor (rendered rule or label), when the finding is about one.
    pub rule: Option<String>,
    /// Human-readable explanation, including witnesses (cycles, chains).
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span: None,
            pred: None,
            rule: None,
            message: message.into(),
        }
    }

    /// Anchors the diagnostic to a source span.
    pub fn with_span(mut self, span: Option<Span>) -> Self {
        self.span = span;
        self
    }

    /// Anchors the diagnostic to a predicate.
    pub fn with_pred(mut self, pred: impl Into<String>) -> Self {
        self.pred = Some(pred.into());
        self
    }

    /// Anchors the diagnostic to a rendered rule.
    pub fn with_rule(mut self, rule: impl Into<String>) -> Self {
        self.rule = Some(rule.into());
        self
    }

    /// Renders one `file:line:col: severity[CODE]: message` line.
    pub fn render_text(&self, file: &str) -> String {
        let mut s = String::new();
        match self.span {
            Some(sp) => {
                s.push_str(file);
                s.push(':');
                s.push_str(&sp.to_string());
            }
            None => s.push_str(file),
        }
        s.push_str(": ");
        s.push_str(self.severity.as_str());
        s.push('[');
        s.push_str(self.code.as_str());
        s.push_str("]: ");
        s.push_str(&self.message);
        if let Some(p) = &self.pred {
            s.push_str(&format!(" [pred: {p}]"));
        }
        s
    }
}

/// Serializes one diagnostic as a JSON object.
pub fn diagnostic_json(d: &Diagnostic) -> String {
    let mut s = String::from("{");
    s.push_str(&format!(
        "\"code\":\"{}\",\"severity\":\"{}\"",
        d.code.as_str(),
        d.severity.as_str()
    ));
    if let Some(sp) = d.span {
        s.push_str(&format!(",\"line\":{},\"col\":{}", sp.line, sp.col));
    }
    if let Some(p) = &d.pred {
        s.push_str(",\"pred\":");
        push_json_str(&mut s, p);
    }
    if let Some(r) = &d.rule {
        s.push_str(",\"rule\":");
        push_json_str(&mut s, r);
    }
    s.push_str(",\"message\":");
    push_json_str(&mut s, &d.message);
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn text_rendering_includes_span_and_code() {
        let d = Diagnostic::new(Code::W001, "recursion through negation")
            .with_span(Some(Span { line: 3, col: 7 }))
            .with_pred("win");
        let line = d.render_text("game.dl");
        assert_eq!(
            line,
            "game.dl:3:7: warning[W001]: recursion through negation [pred: win]"
        );
    }

    #[test]
    fn diagnostic_json_shape() {
        let d = Diagnostic::new(Code::W003, "never read").with_pred("p");
        let j = diagnostic_json(&d);
        assert_eq!(
            j,
            "{\"code\":\"W003\",\"severity\":\"warning\",\"pred\":\"p\",\
             \"message\":\"never read\"}"
        );
    }
}
