//! Agreement between the static analyzer's predictions and what the
//! engine actually does on `crates/gen` workloads:
//!
//! * a program the analyzer calls **stratified** (no `W001`) is solved
//!   entirely on the definite/stratified path — the modular engine runs
//!   zero alternating-fixpoint components;
//! * a program the analyzer calls **weakly acyclic** (no `W002`)
//!   saturates within budget (`exact`), while the flagged chain-of-nulls
//!   family really does run into the atom/depth caps.
//!
//! Both directions use the analyzer as a *sound over-approximation*: the
//! pred-level dependency graph can only over-report recursion, and weak
//! acyclicity can only over-report divergence, so the assertable
//! directions are "predicted clean ⇒ engine clean" and "known-divergent
//! family ⇒ flagged".

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use wfdatalog::analysis::{analyze, AnalysisInput, AnalysisReport, Code};
use wfdatalog::core::{SkolemProgram, Universe};
use wfdatalog::storage::Database;
use wfdatalog::wfs::{solve, WfsOptions};
use wfdl_gen::{
    chain_database, example4_sigma, random_database, random_program, random_stratified_program,
    RandomConfig, RandomDbConfig,
};

/// Runs the analyzer over a generated workload (no queries: generated
/// predicates are all considered consumed via the EDB/body sets only).
fn analyze_workload(universe: &Universe, sigma: &SkolemProgram, db: &Database) -> AnalysisReport {
    let mut seen = vec![false; universe.num_preds()];
    let mut edb_preds = Vec::new();
    for &f in db.facts() {
        let p = universe.atoms.pred(f);
        if !seen[p.index()] {
            seen[p.index()] = true;
            edb_preds.push(p);
        }
    }
    analyze(&AnalysisInput {
        universe,
        program: sigma,
        edb_preds: &edb_preds,
        queried_preds: &[],
    })
}

proptest! {
    /// Lint-stratified ⇒ the modular engine solves every component on the
    /// definite path (zero alternating-fixpoint components).
    #[test]
    fn lint_stratified_programs_take_the_definite_engine_path(seed in 0u64..40) {
        let mut u = Universe::new();
        let w = random_program(
            &mut u,
            &RandomConfig {
                seed,
                num_rules: 12,
                negation_prob: 0.4,
                existential_prob: 0.0,
                ..Default::default()
            },
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig { seed: seed ^ 0x51A7, ..Default::default() },
        );
        let report = analyze_workload(&u, &w.sigma, &db);
        if !report.predicts_stratified() {
            // The negation dice produced a genuine cycle: nothing to check
            // for this case (the vendored proptest has no prop_assume).
            return Ok(());
        }
        let model = solve(&mut u, &db, &w.sigma, WfsOptions::unbounded());
        let stats = model.component_stats().expect("modular engine ran");
        prop_assert_eq!(
            stats.recursive_components, 0,
            "analyzer-stratified program hit the alternating fixpoint (seed {})", seed
        );
    }

    /// The generator's stratified family is always predicted stratified —
    /// the analyzer has no false W001 on programs that are stratified by
    /// construction.
    #[test]
    fn stratified_by_construction_is_never_flagged(seed in 0u64..40) {
        let mut u = Universe::new();
        let w = random_stratified_program(
            &mut u,
            &RandomConfig {
                seed: seed.wrapping_add(7_000),
                num_rules: 12,
                negation_prob: 0.5,
                existential_prob: 0.0,
                ..Default::default()
            },
            3,
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig { seed, ..Default::default() },
        );
        let report = analyze_workload(&u, &w.sigma, &db);
        prop_assert!(
            report.predicts_stratified(),
            "false W001 on a stratified-by-construction program (seed {}): {:?}",
            seed,
            report.diagnostics
        );
    }

    /// Existential-free random programs are trivially weakly acyclic and
    /// saturate exactly even under a tight atom cap's family budget.
    #[test]
    fn datalog_workloads_are_never_termination_flagged(seed in 0u64..40) {
        let mut u = Universe::new();
        let w = random_program(
            &mut u,
            &RandomConfig {
                seed: seed.wrapping_add(11_000),
                num_rules: 12,
                negation_prob: 0.3,
                existential_prob: 0.0,
                ..Default::default()
            },
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig { seed: !seed, ..Default::default() },
        );
        let report = analyze_workload(&u, &w.sigma, &db);
        prop_assert!(report.weakly_acyclic, "no existentials, no special edges");
        prop_assert!(!report.diagnostics.iter().any(|d| d.code == Code::W002));
        let model = solve(&mut u, &db, &w.sigma, WfsOptions::unbounded());
        prop_assert!(model.exact, "datalog saturates without hitting any cap");
    }
}

/// The chain-of-nulls family (paper Example 4): the analyzer flags W002,
/// and the chase really does stop only at the budget — under a small atom
/// cap the model is inexact at every seed count.
#[test]
fn termination_flagged_chain_family_hits_the_caps() {
    for seeds in [1usize, 2, 4] {
        let mut u = Universe::new();
        let sigma = example4_sigma(&mut u);
        let db = chain_database(&mut u, seeds);
        let report = analyze_workload(&u, &sigma, &db);
        assert!(!report.weakly_acyclic, "chain family must be flagged");
        assert!(report.diagnostics.iter().any(|d| d.code == Code::W002));
        let mut options = WfsOptions::depth(64);
        options.budget = options.budget.with_max_atoms(200);
        let model = solve(&mut u, &db, &sigma, options);
        assert!(
            !model.exact,
            "the flagged program must be stopped by the budget, not quiesce ({seeds} seeds)"
        );
    }
}
