//! Goal-directed (sliced) solving vs full solving on the fanout
//! workload: one query touching one branch of a wide program.
//!
//! The scenario the slicer targets: a program with many independent rule
//! cones where a query needs only one of them. `fanout_sigma` has two —
//! a stratified `src → mid → out` pipeline over **all** 8192 groups and
//! a recursive-through-negation `pick/flip/flop` family over a small
//! fraction of them. The one-branch query `?- flip(c0).` slices to the
//! narrow recursive cone, so the sliced solve never chases, grounds, or
//! evaluates the wide stratified fan that dominates the full solve.
//!
//! Legs, per sample (fresh state each time — no warm caches):
//!
//! * **engine**: `wfdl_wfs::solve` vs
//!   `solve_sliced_packaged_budgeted` on a typed fanout universe;
//! * **façade**: `KnowledgeBase::solve` vs `KnowledgeBase::solve_for`
//!   (includes slice computation, query parsing, snapshot repackaging),
//!   and `solve_for` again once that full model exists — which solves
//!   nothing and answers from it (`facade_sliced_after_full_ns`).
//!
//! Output mirrors the other benches: human-readable medians on stdout,
//! machine-readable `BENCH_sliced.json` (path override `WFDL_BENCH_JSON`,
//! sample count `WFDL_BENCH_SAMPLES`).

use std::fmt::Write as _;
use std::time::Instant;
use wfdatalog::{FactBatch, KnowledgeBase, ProgramSlice, SolveBudget, Universe, WfsOptions};
use wfdl_bench::timing::{fmt_ns, median, sample_count};
use wfdl_gen::{fanout_database, fanout_sigma, FanoutConfig};

const GROUPS: usize = 8192;
// 1/32 of the groups carry the recursive cone: the query's branch is
// narrow, the dropped fan is wide — the magic-sets sweet spot.
const RECURSIVE_FRACTION: f64 = 0.03125;
const QUERY: &str = "?- flip(c0).";
const GOAL_PRED: &str = "flip";

/// The fanout program as surface text, for the façade legs (the engine
/// leg uses the typed `fanout_sigma` on a raw universe).
const RULES: &str = "
    src(X), not excl(X) -> mid(X).
    mid(X) -> out(X).
    pick(X), not flop(X) -> flip(X).
    pick(X), not flip(X) -> flop(X).
";

fn config() -> FanoutConfig {
    FanoutConfig {
        groups: GROUPS,
        recursive_fraction: RECURSIVE_FRACTION,
        seed: 2013,
    }
}

/// The fanout EDB through the typed façade path: `src(cᵢ)` for every
/// group, `pick(cᵢ)` for the recursive fraction — same shape as
/// `fanout_database` builds on a raw universe.
fn facade_batch(universe: &mut Universe, cfg: &FanoutConfig) -> FactBatch {
    let recursive = (cfg.groups as f64 * cfg.recursive_fraction) as usize;
    let mut batch = FactBatch::new();
    {
        let mut src = batch.relation(universe, "src", 1).expect("src/1");
        for i in 0..cfg.groups {
            src.push(&[format!("c{i}").as_str()]).expect("row");
        }
    }
    {
        let mut pick = batch.relation(universe, "pick", 1).expect("pick/1");
        for i in 0..recursive {
            pick.push(&[format!("c{i}").as_str()]).expect("row");
        }
    }
    batch
}

struct EngineLeg {
    full_ns: Vec<u64>,
    sliced_ns: Vec<u64>,
    preds_in_slice: usize,
    components_in_slice: usize,
    components_total: usize,
}

/// Engine-level comparison on a raw universe (typed sigma, no parsing).
fn run_engine_leg(samples: usize) -> EngineLeg {
    let options = WfsOptions::unbounded();
    let budget = SolveBudget::unlimited();
    let mut full_ns = Vec::with_capacity(samples);
    let mut sliced_ns = Vec::with_capacity(samples);
    let mut preds_in_slice = 0;
    let mut components_in_slice = 0;
    let mut components_total = 0;
    for sample in 0..samples {
        let mut u = Universe::new();
        let sigma = fanout_sigma(&mut u);
        let db = fanout_database(&mut u, &config());
        let goal = u.lookup_pred(GOAL_PRED).expect("goal pred interned");
        let slice = ProgramSlice::compute(u.num_preds(), &sigma, &[goal]);
        preds_in_slice = slice.preds_in_slice;
        components_in_slice = slice.components_in_slice;
        components_total = slice.components_total;

        let mut u_sliced = u.clone();
        let start = Instant::now();
        let sliced = wfdatalog::wfs::solve_sliced_packaged_budgeted(
            &mut u_sliced,
            &db,
            &sigma,
            options,
            &[],
            &budget,
            &slice.pred_mask,
            None,
        );
        sliced_ns.push(start.elapsed().as_nanos() as u64);

        let start = Instant::now();
        let full = wfdatalog::wfs::solve(&mut u, &db, &sigma, options);
        full_ns.push(start.elapsed().as_nanos() as u64);

        if sample == 0 {
            // Same number of undefined goal-atoms in both models: the
            // slice preserves every verdict over in-slice predicates
            // (each flip/flop pair is a genuine unfounded loop).
            let count_goal = |u: &Universe, m: &wfdatalog::wfs::WellFoundedModel| {
                m.segment
                    .atoms()
                    .iter()
                    .filter(|sa| {
                        u.atoms.pred(sa.atom) == goal
                            && m.value(sa.atom) == wfdatalog::Truth::Unknown
                    })
                    .count()
            };
            let n = count_goal(&u, &full);
            assert!(n > 0, "flip atoms must be undefined");
            assert_eq!(n, count_goal(&u_sliced, &sliced.model));
        }
    }
    EngineLeg {
        full_ns,
        sliced_ns,
        preds_in_slice,
        components_in_slice,
        components_total,
    }
}

/// End-to-end façade comparison: `solve` vs `solve_for` on a fresh
/// knowledge base, then `solve_for` on the solved one; returns the full,
/// the cold sliced and the after-full samples.
fn run_facade_leg(samples: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let cfg = config();
    let mut full_ns = Vec::with_capacity(samples);
    let mut sliced_ns = Vec::with_capacity(samples);
    let mut after_full_ns = Vec::with_capacity(samples);
    for sample in 0..samples {
        let mut kb = KnowledgeBase::from_source(RULES).expect("rules compile");
        let batch = facade_batch(kb.universe_mut(), &cfg);
        kb.insert(batch).expect("facts load");

        let start = Instant::now();
        let sliced = kb.solve_for(QUERY).expect("sliced solve");
        sliced_ns.push(start.elapsed().as_nanos() as u64);
        assert!(sliced.solve_stats().sliced);

        let start = Instant::now();
        let full = kb.solve();
        full_ns.push(start.elapsed().as_nanos() as u64);

        let start = Instant::now();
        let view = kb.solve_for(QUERY).expect("view of the full model");
        after_full_ns.push(start.elapsed().as_nanos() as u64);
        assert!(view.is_sliced() && !view.solve_stats().sliced);

        if sample == 0 {
            let pf = full.prepare(QUERY).expect("prepare");
            for goal_directed in [&sliced, &view] {
                let ps = goal_directed.prepare_sliced(QUERY).expect("prepare sliced");
                assert_eq!(full.ask3_prepared(&pf), goal_directed.ask3_prepared(&ps));
            }
        }
    }
    (full_ns, sliced_ns, after_full_ns)
}

fn main() {
    let samples = sample_count();
    let engine = run_engine_leg(samples);
    let (facade_full, facade_sliced, facade_after_full) = run_facade_leg(samples);

    let e_full = median(engine.full_ns);
    let e_sliced = median(engine.sliced_ns);
    let e_speedup = e_full as f64 / e_sliced as f64;
    let f_full = median(facade_full);
    let f_sliced = median(facade_sliced);
    let f_speedup = f_full as f64 / f_sliced as f64;
    let f_after_full = median(facade_after_full);

    println!(
        "sliced_query/fanout{GROUPS}/engine_full: median {} ({samples} samples)",
        fmt_ns(e_full)
    );
    println!(
        "sliced_query/fanout{GROUPS}/engine_sliced: median {} — {e_speedup:.1}x vs full ({}/{} components in slice)",
        fmt_ns(e_sliced),
        engine.components_in_slice,
        engine.components_total
    );
    println!(
        "sliced_query/fanout{GROUPS}/facade_full: median {} — KnowledgeBase::solve",
        fmt_ns(f_full)
    );
    println!(
        "sliced_query/fanout{GROUPS}/facade_sliced: median {} — {f_speedup:.1}x vs full (solve_for, cold)",
        fmt_ns(f_sliced)
    );
    println!(
        "sliced_query/fanout{GROUPS}/facade_sliced_after_full: median {} — solve_for on the solved knowledge base",
        fmt_ns(f_after_full)
    );

    let mut json = String::from("{\n");
    writeln!(json, "  \"samples\": {samples},").unwrap();
    writeln!(json, "  \"workload\": \"fanout{GROUPS}_one_branch\",").unwrap();
    writeln!(json, "  \"query\": \"{}\",", QUERY.replace('"', "\\\"")).unwrap();
    writeln!(json, "  \"preds_in_slice\": {},", engine.preds_in_slice).unwrap();
    writeln!(
        json,
        "  \"components_in_slice\": {},",
        engine.components_in_slice
    )
    .unwrap();
    writeln!(json, "  \"components_total\": {},", engine.components_total).unwrap();
    writeln!(json, "  \"engine_full_ns\": {e_full},").unwrap();
    writeln!(json, "  \"engine_sliced_ns\": {e_sliced},").unwrap();
    writeln!(json, "  \"engine_speedup\": {e_speedup:.2},").unwrap();
    writeln!(json, "  \"facade_full_ns\": {f_full},").unwrap();
    writeln!(json, "  \"facade_sliced_ns\": {f_sliced},").unwrap();
    writeln!(json, "  \"facade_speedup\": {f_speedup:.2},").unwrap();
    writeln!(json, "  \"facade_sliced_after_full_ns\": {f_after_full}").unwrap();
    json.push_str("}\n");

    wfdl_bench::write_bench_json("BENCH_sliced.json", &json);
}
