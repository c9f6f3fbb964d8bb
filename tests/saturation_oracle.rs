//! Pins chase saturation behavior across refactors: for a battery of
//! random guarded programs, the segment's atom set (with depths/levels),
//! its rule-instance multiset, its `complete` flag, the extracted ground
//! program's shape, and the resulting well-founded model are digested into
//! `tests/fixtures/saturation_oracle.txt`.
//!
//! The fixture was generated by the pre-refactor (hash-map based)
//! saturation; any refactor of `wfdl-chase` must reproduce it bit for bit.
//! Regenerate deliberately with `WFDL_BLESS=1 cargo test --test
//! saturation_oracle` and inspect the diff.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::chase::{ChaseBudget, ChaseSegment};
use wfdatalog::Universe;
use wfdl_gen::{random_database, random_program, RandomConfig, RandomDbConfig};
use wfdl_reference::{StepMode, WpEngine};

const NUM_SEEDS: u64 = 32;

/// FNV-1a, stable and dependency-free.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A canonical, intern-order-independent rendering of everything the chase
/// produces for one workload. Sorted name-based strings, so dense-id and
/// discovery-order changes cannot sneak through while semantic changes
/// cannot hide.
fn canonical_record(seed: u64) -> String {
    let mut u = Universe::new();
    let w = random_program(
        &mut u,
        &RandomConfig {
            seed,
            num_rules: 12,
            negation_prob: 0.5,
            existential_prob: 0.3,
            extra_pos: 1.2,
            ..Default::default()
        },
    );
    let db = random_database(
        &mut u,
        &w,
        &RandomDbConfig {
            num_constants: 6,
            num_facts: 14,
            seed: seed.wrapping_mul(7919).wrapping_add(13),
        },
    );
    let seg = ChaseSegment::build(&mut u, &db, &w.sigma, ChaseBudget::depth(4));

    let mut atoms: Vec<String> = seg
        .atoms()
        .iter()
        .map(|sa| format!("{} d{} l{}", u.display_atom(sa.atom), sa.depth, sa.level))
        .collect();
    atoms.sort();

    let mut insts: Vec<String> = Vec::new();
    for iid in seg.instance_ids() {
        let inst = seg.instance(iid);
        let mut pos: Vec<String> = inst
            .pos
            .iter()
            .map(|&a| u.display_atom(a).to_string())
            .collect();
        pos.sort();
        let mut neg: Vec<String> = inst
            .neg
            .iter()
            .map(|&a| u.display_atom(a).to_string())
            .collect();
        neg.sort();
        insts.push(format!(
            "r{} g={} h={} pos=[{}] neg=[{}]",
            inst.src_rule,
            u.display_atom(inst.guard_atom),
            u.display_atom(inst.head),
            pos.join(","),
            neg.join(",")
        ));
    }
    insts.sort();

    let ground = seg.to_ground_program();
    let res = WpEngine::new(&ground).solve(StepMode::Accelerated);
    let mut model: Vec<String> = seg
        .atoms()
        .iter()
        .map(|sa| format!("{}={:?}", u.display_atom(sa.atom), res.value(sa.atom)))
        .collect();
    model.sort();

    format!(
        "seed={seed}\ncomplete={} pending={}\nground_rules={} ground_atoms={}\n\
         atoms:\n{}\ninstances:\n{}\nmodel:\n{}\n",
        seg.complete,
        seg.pending_at_end,
        ground.num_rules(),
        ground.num_atoms(),
        atoms.join("\n"),
        insts.join("\n"),
        model.join("\n")
    )
}

/// One fixture line per seed: counts in the clear for debuggability, the
/// full canonical record compressed to an FNV digest.
fn fixture_line(seed: u64) -> String {
    let record = canonical_record(seed);
    let atoms = record.matches(" d").count();
    format!("seed {seed:2}: digest {:016x} ({} chars)", fnv1a(&record), record.len())
        // Atom-count suffix keeps eyeballing possible without bloating the file.
        + &format!(" atoms~{atoms}")
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/saturation_oracle.txt")
}

#[test]
fn saturation_matches_pre_refactor_oracle() {
    let lines: Vec<String> = (0..NUM_SEEDS).map(fixture_line).collect();
    let current = lines.join("\n") + "\n";
    let path = fixture_path();
    if std::env::var("WFDL_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("fixture missing — run once with WFDL_BLESS=1 to generate");
    for (i, (got, want)) in current.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "saturation diverged from the pre-refactor oracle on fixture line {i}; \
             full record:\n{}",
            canonical_record(i as u64)
        );
    }
    assert_eq!(
        current.lines().count(),
        expected.lines().count(),
        "fixture line count changed"
    );
}
