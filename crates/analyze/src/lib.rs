//! # `wfdl-analyze` — rule-level static analysis for wfdatalog programs
//!
//! Runs over the lowered, skolemized program (`Σf`, *before* the chase) and
//! emits structured diagnostics with real source spans. Four passes:
//!
//! 1. **Stratification** ([`stratify`]): predicate dependency graph, SCCs,
//!    recursion-through-negation detection with witness cycles (`W001`),
//!    and a per-component engine-path prediction.
//! 2. **Fragment classification** ([`fragment`]): per-rule guardedness and
//!    wardedness (affected positions, dangerous variables, wards) and a
//!    program-level class — datalog / guarded / warded / outside (`W007`).
//! 3. **Chase-termination risk** ([`termination`]): weak-acyclicity check
//!    over the existential position graph; programs that can only be
//!    stopped by the depth/atom budget are flagged before solving (`W002`).
//! 4. **Dead code & schema** ([`deadcode`]): unused predicates, rules
//!    unreachable from the EDB, never-consumed derived predicates,
//!    singleton body variables (`W003`–`W006`).
//!
//! Everything is deterministic and runs in `O(program)` (the fixpoints are
//! bounded by position/predicate counts, not by data), so the analyzer is
//! cheap enough to run on every compile. See `src/README.md` for the
//! diagnostic code table and the JSON contract.

#![warn(missing_docs)]

pub mod deadcode;
pub mod fragment;
pub mod graph;
pub mod report;
pub mod slice;
pub mod stratify;
pub mod termination;

pub use fragment::FragmentClass;
pub use report::{Code, Diagnostic, Severity};
pub use slice::ProgramSlice;
pub use stratify::{ComponentClass, ComponentInfo, StratReport};

use report::diagnostic_json;
use wfdl_core::json::push_json_str;
use wfdl_core::{PredId, SkolemProgram, Span, Universe};

/// Everything the analyzer needs about a compiled program.
pub struct AnalysisInput<'a> {
    /// The interned symbol space.
    pub universe: &'a Universe,
    /// The skolemized program `Σf` (including constraint-lowered rules).
    pub program: &'a SkolemProgram,
    /// Predicates with at least one EDB fact.
    pub edb_preds: &'a [PredId],
    /// Predicates read by queries (constraint violation predicates count
    /// as queried: the solver reports their status).
    pub queried_preds: &'a [PredId],
}

/// The complete result of one analyzer run.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Program-level fragment class.
    pub class: FragmentClass,
    /// Stratification report (components in deterministic order).
    pub strata: StratReport,
    /// True iff the chase is guaranteed to terminate (weak acyclicity).
    pub weakly_acyclic: bool,
    /// All diagnostics, ordered by (line, col, code).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of rules analyzed.
    pub num_rules: usize,
}

impl AnalysisReport {
    /// Number of diagnostics at [`Severity::Error`].
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of diagnostics at [`Severity::Warning`].
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of diagnostics at [`Severity::Info`].
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// Highest severity present, or `None` for a clean report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// True iff the report predicts the stratified/definite engine path
    /// (no recursion through negation anywhere).
    pub fn predicts_stratified(&self) -> bool {
        self.strata.stratified
    }

    /// Renders the human-readable text report. Diagnostic lines are
    /// prefixed with `file` (plus `line:col` when the anchor has a span).
    pub fn render_text(&self, file: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_text(file));
            out.push('\n');
        }
        out.push_str(&format!(
            "{file}: class={} stratified={} weakly_acyclic={} \
             rules={} components={} · {} error(s), {} warning(s), {} info(s)\n",
            self.class.as_str(),
            self.strata.stratified,
            self.weakly_acyclic,
            self.num_rules,
            self.strata.components.len(),
            self.errors(),
            self.warnings(),
            self.infos(),
        ));
        out
    }

    /// Renders the machine-readable JSON report (single line, stable field
    /// order; the shape is part of the CLI contract).
    pub fn to_json(&self, file: &str) -> String {
        let mut s = String::from("{\"file\":");
        push_json_str(&mut s, file);
        s.push_str(&format!(",\"class\":\"{}\",", self.class.as_str()));
        s.push_str(&format!(
            "\"stratified\":{},\"weakly_acyclic\":{},\"rules\":{},",
            self.strata.stratified, self.weakly_acyclic, self.num_rules
        ));
        s.push_str(&format!(
            "\"summary\":{{\"errors\":{},\"warnings\":{},\"infos\":{}}},",
            self.errors(),
            self.warnings(),
            self.infos()
        ));
        s.push_str("\"components\":[");
        for (i, c) in self.strata.components.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{{\"class\":\"{}\",\"preds\":[", c.class.as_str()));
            for (j, p) in c.preds.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                push_json_str(&mut s, p);
            }
            s.push_str("]}");
        }
        s.push_str("],\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&diagnostic_json(d));
        }
        s.push_str("]}");
        s
    }
}

/// Runs all four passes over a compiled program.
pub fn analyze(input: &AnalysisInput<'_>) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    let g = graph::PredGraph::build(input.universe.num_preds(), input.program);
    let comp = g.graph.sccs();
    let strata = stratify::run(input.universe, input.program, &g, &comp, &mut diagnostics);
    let frag = fragment::run(input.universe, input.program, &mut diagnostics);
    let term = termination::run(input.universe, input.program, &mut diagnostics);
    deadcode::run(
        input.universe,
        input.program,
        input.edb_preds,
        input.queried_preds,
        &mut diagnostics,
    );
    // Stable presentation order: by source position, then code, then the
    // anchors (span-less diagnostics sort last within their line bucket).
    diagnostics.sort_by(|a, b| {
        let key = |d: &Diagnostic| {
            let (l, c) = d
                .span
                .map_or((u32::MAX, u32::MAX), |s: Span| (s.line, s.col));
            (l, c, d.code, d.pred.clone(), d.message.clone())
        };
        key(a).cmp(&key(b))
    });
    AnalysisReport {
        class: frag.class,
        strata,
        weakly_acyclic: term.weakly_acyclic,
        diagnostics,
        num_rules: input.program.rules.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_core::{HeadTerm, RTerm, RuleAtom, SkolemRule, Universe, Var};

    fn v(i: u32) -> RTerm {
        RTerm::Var(Var::new(i))
    }

    #[test]
    fn empty_program_is_clean_datalog() {
        let u = Universe::new();
        let prog = SkolemProgram::new();
        let report = analyze(&AnalysisInput {
            universe: &u,
            program: &prog,
            edb_preds: &[],
            queried_preds: &[],
        });
        assert_eq!(report.class, FragmentClass::Datalog);
        assert!(report.strata.stratified);
        assert!(report.weakly_acyclic);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.max_severity(), None);
    }

    #[test]
    fn negation_cycle_and_json_shape() {
        let mut u = Universe::new();
        let win = u.pred("win", 1).unwrap();
        let mv = u.pred("move", 2).unwrap();
        // move(X,Y), not win(Y) -> win(X): recursion through negation.
        let rule = SkolemRule::new(
            &u,
            vec![RuleAtom::new(mv, vec![v(0), v(1)])],
            vec![RuleAtom::new(win, vec![v(1)])],
            win,
            vec![HeadTerm::Var(Var::new(0))],
        )
        .unwrap()
        .with_span(wfdl_core::Span { line: 2, col: 1 });
        let prog = SkolemProgram { rules: vec![rule] };
        let report = analyze(&AnalysisInput {
            universe: &u,
            program: &prog,
            edb_preds: &[mv],
            queried_preds: &[win],
        });
        assert!(!report.strata.stratified);
        let w001 = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::W001)
            .expect("negation cycle diagnostic");
        assert_eq!(w001.span, Some(wfdl_core::Span { line: 2, col: 1 }));
        assert!(w001.message.contains("win -not-> win"), "{}", w001.message);
        let json = report.to_json("g.dl");
        assert!(json.contains("\"code\":\"W001\""), "{json}");
        assert!(json.contains("\"class\":\"datalog\""), "{json}");
        assert!(json.contains("\"stratified\":false"), "{json}");
    }
}
