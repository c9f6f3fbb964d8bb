//! Directed tests for the static analyzer (`wfdatalog::analysis`) and the
//! `wfdl lint` front end: one test per diagnostic code asserting the code
//! AND the span it anchors to, plus the CLI contract (classified compile
//! errors, exit codes, JSON stability, zero errors on every bundled
//! program).

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;
use std::sync::Arc;
use wfdatalog::analysis::Code;
use wfdatalog::core::Span;
use wfdatalog::{AnalysisReport, KnowledgeBase};

fn analyze(source: &str) -> Arc<AnalysisReport> {
    KnowledgeBase::from_source(source)
        .expect("program compiles")
        .analyze()
}

/// The first diagnostic with `code`, or a panic listing what was found.
fn find(report: &AnalysisReport, code: Code) -> &wfdatalog::Diagnostic {
    report
        .diagnostics
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("no {code:?} in {:?}", report.diagnostics))
}

#[test]
fn w001_recursion_through_negation_with_witness_and_span() {
    let report = analyze("edge(a,b).\nedge(X,Y), not win(Y) -> win(X).\n");
    assert!(!report.predicts_stratified());
    let d = find(&report, Code::W001);
    assert_eq!(d.span, Some(Span { line: 2, col: 1 }));
    assert!(d.message.contains("win -not-> win"), "{}", d.message);
}

#[test]
fn w002_not_weakly_acyclic_names_the_position_cycle() {
    // p[0] ~∃~> q[1] -> p[0]: fresh nulls can feed themselves forever.
    let report = analyze("p(a).\np(X) -> q(X,Y).\nq(X,Y) -> p(Y).\n");
    assert!(!report.weakly_acyclic);
    let d = find(&report, Code::W002);
    assert_eq!(d.span, Some(Span { line: 2, col: 1 }));
    assert!(d.message.contains("~∃~>"), "{}", d.message);
    assert!(d.message.contains("rule chain"), "{}", d.message);
}

#[test]
fn w003_unused_edb_predicate_is_pred_anchored() {
    let report = analyze("orphan(a).\nedge(a,b).\nedge(X,Y) -> path(X,Y).\n?(X) path(a,X).\n");
    let d = find(&report, Code::W003);
    assert_eq!(d.span, None, "predicate-level lint has no source span");
    assert_eq!(d.pred.as_deref(), Some("orphan"));
    // `path` IS queried, so no W005 alongside.
    assert!(!report.diagnostics.iter().any(|d| d.code == Code::W005));
}

#[test]
fn w004_unreachable_rule_names_the_unpopulatable_predicate() {
    let report = analyze("edge(a,b).\nghost(X) -> foo(X).\n");
    let d = find(&report, Code::W004);
    assert_eq!(d.span, Some(Span { line: 2, col: 1 }));
    assert!(d.message.contains("`ghost`"), "{}", d.message);
}

#[test]
fn w005_derived_but_never_consumed() {
    let report = analyze("edge(a,b).\nedge(X,Y) -> foo(X,Y).\n");
    let d = find(&report, Code::W005);
    assert_eq!(d.span, None);
    assert_eq!(d.pred.as_deref(), Some("foo"));
}

#[test]
fn w006_singleton_body_variable_with_span() {
    let report = analyze("edge(a,b).\nedge(X,Y) -> reached(X).\n?- reached(a).\n");
    let d = find(&report, Code::W006);
    assert_eq!(d.span, Some(Span { line: 2, col: 1 }));
    assert!(d.message.contains("X1"), "{}", d.message);
}

#[test]
fn w007_dangerous_variable_in_the_propagating_rule() {
    // r[1] is affected (existential); in rule 3 `Y` is harmful and reaches
    // the head of `s`: dangerous.
    let report = analyze("p(a).\np(X) -> r(X,Y).\nr(X,Y) -> s(Y).\n?- s(a).\n");
    let d = find(&report, Code::W007);
    assert_eq!(d.span, Some(Span { line: 3, col: 1 }));
    assert!(d.message.contains("dangerous variable"), "{}", d.message);
}

#[test]
fn facade_caches_and_invalidates_the_report() {
    let mut kb = KnowledgeBase::from_source("edge(a,b).\nedge(X,Y) -> path(X,Y).\n").expect("kb");
    let first = kb.analyze();
    let second = kb.analyze();
    assert!(Arc::ptr_eq(&first, &second), "cache hit returns same Arc");
    // Inserting facts for a new predicate changes the EDB-dependent lints.
    kb.insert_from_reader("orphan\tz\n".as_bytes())
        .expect("insert");
    let third = kb.analyze();
    assert!(
        !Arc::ptr_eq(&first, &third),
        "mutation invalidates the cache"
    );
    assert!(third.diagnostics.iter().any(|d| d.code == Code::W003));
    // More facts of predicates that hold facts already change nothing the
    // report reads: it serves on, and equals a fresh analysis.
    kb.insert_from_reader("orphan\ty\nedge\tb\tc\n".as_bytes())
        .expect("insert");
    let fourth = kb.analyze();
    assert!(
        Arc::ptr_eq(&third, &fourth),
        "facts of populated predicates"
    );
    let mut fresh =
        KnowledgeBase::from_source("edge(a,b).\nedge(X,Y) -> path(X,Y).\n").expect("kb");
    fresh
        .insert_from_reader("orphan\tz\norphan\ty\nedge\tb\tc\n".as_bytes())
        .expect("insert");
    assert_eq!(fourth.to_json("kb"), fresh.analyze().to_json("kb"));
    // Emptying a predicate recomputes.
    let mut batch = wfdatalog::FactBatch::new();
    let mut orphan = batch
        .relation(kb.universe_mut(), "orphan", 1)
        .expect("relation");
    orphan.push(&["z"]).expect("z");
    orphan.push(&["y"]).expect("y");
    assert_eq!(kb.retract(batch), 2);
    let fifth = kb.analyze();
    assert!(!Arc::ptr_eq(&fourth, &fifth), "an emptied predicate");
    assert!(!fifth.diagnostics.iter().any(|d| d.code == Code::W003));
}

// ---------------------------------------------------------------------------
// CLI front end (the built `wfdl` binary).
// ---------------------------------------------------------------------------

struct TempProgram {
    path: std::path::PathBuf,
}

impl TempProgram {
    fn new(name: &str, contents: &str) -> TempProgram {
        let path = std::env::temp_dir().join(format!("wfdl-lint-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("write temp program");
        TempProgram { path }
    }

    fn path(&self) -> &str {
        self.path.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempProgram {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn wfdl_lint(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_wfdl"))
        .arg("lint")
        .args(args)
        .output()
        .expect("run wfdl");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("stdout utf-8"),
        String::from_utf8(out.stderr).expect("stderr utf-8"),
    )
}

#[test]
fn e001_parse_error_is_classified_with_its_position() {
    let p = TempProgram::new("e001.dl", "p(a;\n");
    let (code, stdout, _) = wfdl_lint(&[p.path()]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("error[E001]"), "{stdout}");
    assert!(stdout.contains(":1:4:"), "{stdout}");
}

#[test]
fn e002_unguarded_rule_is_classified_with_its_position() {
    let p = TempProgram::new("e002.dl", "p(a).\nq(b).\np(X), q(Y) -> r(X,Y).\n");
    let (code, stdout, _) = wfdl_lint(&[p.path(), "--format", "json"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"code\":\"E002\""), "{stdout}");
    assert!(stdout.contains("\"line\":3,\"col\":1"), "{stdout}");
    assert!(stdout.contains("\"class\":\"unknown\""), "{stdout}");
}

#[test]
fn e003_arity_conflict_is_classified_with_its_position() {
    let p = TempProgram::new("e003.dl", "p(a).\np(a,b).\n");
    let (code, stdout, _) = wfdl_lint(&[p.path()]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("error[E003]"), "{stdout}");
    assert!(stdout.contains(":2:1:"), "{stdout}");
}

#[test]
fn deny_warn_turns_warnings_into_exit_failure() {
    let p = TempProgram::new(
        "deny.dl",
        "edge(a,b).\nedge(X,Y), not win(Y) -> win(X).\n?- win(a).\n",
    );
    let (code, stdout, _) = wfdl_lint(&[p.path()]);
    assert_eq!(code, Some(0), "warnings alone pass: {stdout}");
    assert!(stdout.contains("warning[W001]"), "{stdout}");
    let (code, _, _) = wfdl_lint(&[p.path(), "--deny", "warn"]);
    assert_eq!(code, Some(1), "--deny warn fails on warnings");
}

#[test]
fn json_output_is_stable_and_matches_the_embedded_analyzer() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/programs");
    let mut linted = 0;
    for entry in std::fs::read_dir(dir).expect("programs dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("dl") {
            continue;
        }
        let path_str = path.to_str().expect("utf-8 path");
        let (code, first, stderr) = wfdl_lint(&[path_str, "--format", "json"]);
        // Acceptance: every bundled program classifies with zero errors.
        assert_eq!(code, Some(0), "{path_str}: {first}{stderr}");
        assert!(first.contains("\"summary\":{\"errors\":0,"), "{first}");
        // Byte-stable across runs (the report is part of the CLI contract).
        let (_, second, _) = wfdl_lint(&[path_str, "--format", "json"]);
        assert_eq!(first, second, "{path_str}: lint JSON must be stable");
        // And identical to the embedded analyzer's rendering.
        let source = std::fs::read_to_string(&path).expect("read program");
        let expected = KnowledgeBase::from_source(&source)
            .expect("bundled program compiles")
            .analyze()
            .to_json(path_str);
        assert_eq!(first.trim_end(), expected, "{path_str}");
        linted += 1;
    }
    assert!(linted >= 3, "expected the bundled programs, found {linted}");
}
