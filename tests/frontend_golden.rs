//! The text frontend assigns ids in the order names first appear in the
//! text, and everything downstream (chase order, component numbering, the
//! bit-identity suites) is keyed on those ids. This pins, for every
//! `programs/*.dl` and for two fact-heavy generated texts, what a `load`
//! produces — the rendered program, database and queries, and the atoms,
//! terms and predicates in id order — against a golden recorded on the
//! three-pass frontend (commit `fb20b2e`) that the streaming one replaced.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;
use wfdatalog::syntax::{self, load};
use wfdatalog::{SkolemProgram, Universe};
use wfdl_gen::{chain_database, example4_sigma, winmove_database, winmove_sigma, WinMoveConfig};

/// Everything a `load` of `src` decides, as text.
fn dump(src: &str) -> String {
    let mut u = Universe::new();
    let l = load(&mut u, src).expect("golden sources are valid");
    let mut out = String::from("-- program\n");
    out.push_str(&syntax::print_program(&u, &l.program));
    out.push_str("-- functional\n");
    let functional = SkolemProgram {
        rules: l.functional.clone(),
    };
    out.push_str(&syntax::print_skolem_program(&u, &functional));
    out.push_str("-- database (insertion order)\n");
    for &fact in l.database.facts() {
        writeln!(out, "{}", u.display_atom(fact)).unwrap();
    }
    out.push_str("-- queries\n");
    for q in &l.queries {
        writeln!(out, "{}", syntax::print_query(&u, q)).unwrap();
    }
    out.push_str("-- predicates (id order)\n");
    for p in u.pred_ids() {
        writeln!(out, "{}/{}", u.pred_name(p), u.pred_arity(p)).unwrap();
    }
    out.push_str("-- terms (id order)\n");
    for t in u.terms.ids() {
        writeln!(out, "{}", u.display_term(t)).unwrap();
    }
    out.push_str("-- atoms (id order)\n");
    for a in u.atoms.ids() {
        writeln!(out, "{}", u.display_atom(a)).unwrap();
    }
    out
}

/// FNV-1a, 64 bits: the generated texts' dumps are megabytes, so the
/// golden keeps their length and digest.
fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A generated instance rendered as text: the database (sorted, as
/// `print_database` writes it), then the rules.
fn rendered(u: &Universe, db: &wfdatalog::Database, sigma: &SkolemProgram) -> String {
    let mut text = syntax::print_database(u, db);
    text.push_str(&syntax::print_skolem_program(u, sigma));
    text
}

fn actual() -> String {
    let mut out = String::new();
    for name in ["employment", "example4", "win_move"] {
        let path = format!("{}/programs/{name}.dl", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).expect("program file");
        writeln!(out, "==== programs/{name}.dl").unwrap();
        out.push_str(&dump(&src));
    }

    let mut u = Universe::new();
    let sigma = example4_sigma(&mut u);
    let db = chain_database(&mut u, 2_000);
    let chain = dump(&rendered(&u, &db, &sigma));

    let mut u = Universe::new();
    let sigma = winmove_sigma(&mut u);
    let cfg = WinMoveConfig {
        nodes: 10_000,
        seed: 2013,
        ..WinMoveConfig::default()
    };
    let db = winmove_database(&mut u, &cfg);
    let winmove = dump(&rendered(&u, &db, &sigma));

    for (name, dump) in [("chain 2000", chain), ("winmove 10000", winmove)] {
        writeln!(out, "==== generated {name}").unwrap();
        writeln!(out, "bytes {} fnv64 {:016x}", dump.len(), fnv64(&dump)).unwrap();
    }
    out
}

#[test]
fn loads_match_the_golden() {
    let golden = include_str!("fixtures/frontend_golden.txt");
    let actual = actual();
    if actual != golden {
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "frontend golden differs first at line {}:\n  actual: {:?}\n  golden: {:?}",
            line + 1,
            actual.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}
