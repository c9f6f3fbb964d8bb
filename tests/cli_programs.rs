//! The sample programs shipped in `programs/` keep their advertised
//! behaviour (these are the same files the `wfdl` CLI demonstrates).

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::{KnowledgeBase, Truth, WfsOptions};

fn load_program(name: &str) -> KnowledgeBase {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/programs/");
    let src = std::fs::read_to_string(format!("{path}{name}")).expect("program file exists");
    KnowledgeBase::from_source(&src).expect("program file parses")
}

#[test]
fn example4_program_file() {
    let mut kb = load_program("example4.dl");
    assert_eq!(kb.queries().len(), 3);
    let model = kb.solve_with(WfsOptions::depth(7));
    let expected = [Truth::True, Truth::False, Truth::True];
    assert_eq!(model.source_queries().len(), 3);
    for (q, want) in model.source_queries().iter().zip(expected) {
        assert_eq!(model.ask3_prepared(q), want, "query {q:?}");
    }
}

#[test]
fn employment_program_file() {
    let mut kb = load_program("employment.dl");
    let model = kb.solve_with(WfsOptions::depth(6));
    assert!(model.ask("?- validId(I).").unwrap());
    // b is the only unemployed person.
    let ans = model.answers("?(X) person(X), not employed(X).").unwrap();
    assert_eq!(ans.len(), 1);
    let b = model.universe().lookup_constant("b").unwrap();
    assert!(ans.contains(&[b]));
    // The valid ID is a's; b's job-seeker ID does not validate.
    assert!(model.ask("?- employeeId(a, I), validId(I).").unwrap());
    assert!(!model.ask("?- jobSeekerId(b, I), validId(I).").unwrap());
}

#[test]
fn win_move_program_file() {
    let mut kb = load_program("win_move.dl");
    let model = kb.solve();
    assert!(model.exact());
    // c is won (moves to terminal d), d is lost.
    assert_eq!(model.ask3("?- win(c).").unwrap(), Truth::True);
    assert_eq!(model.ask3("?- win(d).").unwrap(), Truth::False);
    // a and b sit on a draw cycle: undefined.
    assert_eq!(model.ask3("?- win(a).").unwrap(), Truth::Unknown);
    assert_eq!(model.ask3("?- win(b).").unwrap(), Truth::Unknown);
}

/// A depth cap is not a budget trip: it stops the chase short, an atom the
/// chase never derived reads false, and through negation that can turn an
/// answer the wrong way. Fourteen existential hops need more depth than
/// 12 (each hop takes two forest levels), so `--depth 12` answers `ok(a)`
/// true where a complete chase answers false — and its stderr must not
/// call those answers sound. The program is weakly acyclic, so the default
/// run chases it unbounded and answers as the complete chase does.
#[test]
fn a_depth_capped_run_does_not_claim_soundness() {
    let mut src = String::from("p0(a).\n");
    for i in 0..14 {
        src += &format!("p{i}(X) -> e{i}(X, Y).\ne{i}(X, Y) -> p{}(Y).\n", i + 1);
    }
    src += "p14(X) -> reached(c).\np0(X), not reached(c) -> ok(X).\n?- reached(c).\n?- ok(a).\n";
    let path = std::env::temp_dir().join(format!("wfdl-cli-{}-hops.dl", std::process::id()));
    std::fs::write(&path, src).expect("write temp program");
    let run = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_wfdl"))
            .arg("run")
            .arg(&path)
            .args(extra)
            .output()
            .expect("run wfdl");
        assert!(out.status.success(), "{out:?}");
        let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8");
        (text(out.stdout), text(out.stderr))
    };
    let (capped, deep) = (run(&["--depth", "12"]), run(&["--depth", "40"]));
    let default = run(&[]);
    let _ = std::fs::remove_file(&path);
    assert!(capped.1.contains("(depth cap)"), "{}", capped.1);
    assert!(!capped.1.contains("sound"), "{}", capped.1);
    // `reached(c)`, then `ok(a)`: the complete chase's verdicts.
    assert_eq!(deep.0, "query 1: true\nquery 2: false\n");
    assert_eq!(deep.1, "");
    assert_eq!(default.0, "query 1: true\nquery 2: false\n");
    assert_eq!(default.1, "");
}
