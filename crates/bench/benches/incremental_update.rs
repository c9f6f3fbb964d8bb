//! Delta-aware re-solve: full recompute vs incremental solve after a 1%
//! fact delta on the Example 4 chain workload, and after a 0.5% delta at
//! the claims benchmark's scale.
//!
//! The scenario the redesign targets: a knowledge base with a stable rule
//! set and a large, growing extensional database. Per sample we
//!
//! 1. load `SEEDS` chain seeds and solve (untimed warm model);
//! 2. insert a ~1% delta of fresh seeds through the **typed** path
//!    ([`wfdatalog::FactBatch`] / `RelationWriter` — no parser);
//! 3. time the **incremental** re-solve (`solve_resumed`: chase resumed
//!    from the previous frontier, previous model carried over, the delta's
//!    forward cone re-evaluated) against a **full** recompute over the
//!    union database.
//!
//! Both the engine-level comparison (`wfdl_wfs::solve_resumed` vs
//! `wfdl_wfs::solve`) and the end-to-end façade comparison
//! (`KnowledgeBase::solve`, which additionally re-packages the snapshot
//! and indexes) are reported. A third, **claims-scale** leg runs the
//! façade comparison on the claims benchmark's `mixed` program (the chain
//! plus the wide-fanout rules, ≈ 180k atoms), one 173-fact delta after
//! another into the same knowledge base, and reports the resumed solve's
//! four phases from its own [`wfdatalog::SolveStats`]
//! — chase, ground, engine, index — so that an O(program) step creeping
//! back into the resume path moves a gated number. A fourth, **win–move**
//! leg chains 500-move deltas into `wfdl-gen`'s 50,000-position game at
//! the engine level: half the moves leave old positions, so a delta's
//! forward cone reaches far up the game while few of its components change
//! verdict — what a resume pays for the cone it walks and carries rather
//! than for what it evaluates. Output mirrors the other benches:
//! human-readable medians on stdout, machine-readable
//! `BENCH_incremental.json` (override with `WFDL_BENCH_JSON`, sample
//! count with `WFDL_BENCH_SAMPLES`).

use std::fmt::Write as _;
use std::time::Instant;
use wfdatalog::{FactBatch, KnowledgeBase, Universe, WfsOptions};
use wfdl_bench::timing::{fmt_ns, median, sample_count};
use wfdl_gen::{chain_database, example4_sigma, winmove_database, winmove_sigma, WinMoveConfig};

const SEEDS: usize = 256;
const DEPTH: u32 = 8;

/// Example 4's Σ as surface text, for the façade leg (the engine leg uses
/// the typed `example4_sigma` on a raw universe).
const RULES: &str = r#"
    R(X,Y,Z) -> R(X,Z,f(X,Y,Z)).
    R(X,Y,Z), P(X,Y), not Q(Z) -> P(X,Z).
    R(X,Y,Z), not P(X,Y) -> Q(Z).
    R(X,Y,Z), not P(X,Z) -> S(X).
    P(X,Y), not S(X) -> T(X).
"#;

/// The wide-fanout rules the claims benchmark's `mixed` program adds to
/// [`RULES`].
const FANOUT_RULES: &str = r#"
    src(X), not excl(X) -> mid(X).
    mid(X) -> out(X).
    pick(X), not flop(X) -> flip(X).
    pick(X), not flip(X) -> flop(X).
"#;

/// Claims scale: 2,048 chain seeds + 32,768 fanout groups (a quarter with
/// the `flip ⇄ flop` draw) ≈ 180k atoms; the delta is 10 seeds + 122 groups
/// = 173 facts ≈ 0.5 %.
const CLAIMS_SEEDS: usize = 2_048;
const CLAIMS_GROUPS: usize = 32_768;
const CLAIMS_DELTA_SEEDS: usize = 10;
const CLAIMS_DELTA_GROUPS: usize = 122;

fn delta_count() -> usize {
    (SEEDS / 100).max(1)
}

/// Seed facts `{R(cᵢ,cᵢ,dᵢ), P(cᵢ,cᵢ)}` for `range`, via the typed path.
fn seed_batch(universe: &mut Universe, range: std::ops::Range<usize>) -> FactBatch {
    let mut batch = FactBatch::new();
    {
        let mut r = batch.relation(universe, "R", 3).expect("R/3");
        for i in range.clone() {
            let (c, d) = (format!("c{i}"), format!("d{i}"));
            r.push(&[c.as_str(), c.as_str(), d.as_str()]).expect("row");
        }
    }
    {
        let mut p = batch.relation(universe, "P", 2).expect("P/2");
        for i in range {
            let c = format!("c{i}");
            p.push(&[c.as_str(), c.as_str()]).expect("row");
        }
    }
    batch
}

/// Fanout facts `src(gᵢ)` for `range`, plus `pick(gᵢ)` for every fourth.
fn group_batch(universe: &mut Universe, range: std::ops::Range<usize>) -> FactBatch {
    let mut batch = FactBatch::new();
    {
        let mut src = batch.relation(universe, "src", 1).expect("src/1");
        for i in range.clone() {
            src.push(&[format!("g{i}").as_str()]).expect("row");
        }
    }
    {
        let mut pick = batch.relation(universe, "pick", 1).expect("pick/1");
        for i in range.filter(|i| i % 4 == 0) {
            pick.push(&[format!("g{i}").as_str()]).expect("row");
        }
    }
    batch
}

struct EngineLeg {
    full_ns: Vec<u64>,
    inc_ns: Vec<u64>,
    components_reused: usize,
    components: usize,
}

/// Engine-level comparison on a raw universe (typed sigma, no parsing).
fn run_engine_leg(samples: usize) -> EngineLeg {
    let options = WfsOptions::depth(DEPTH);
    let delta_n = delta_count();
    let mut full_ns = Vec::with_capacity(samples);
    let mut inc_ns = Vec::with_capacity(samples);
    let mut components_reused = 0;
    let mut components = 0;
    for sample in 0..samples {
        let mut u = Universe::new();
        let sigma = example4_sigma(&mut u);
        let base = chain_database(&mut u, SEEDS);
        let prev = wfdatalog::wfs::solve(&mut u, &base, &sigma, options);

        let delta = seed_batch(&mut u, SEEDS..SEEDS + delta_n);
        let mut union_db = base.clone();
        for &f in delta.atoms() {
            union_db.insert(&u, f).expect("delta fact is ground");
        }

        let start = Instant::now();
        let (inc_model, stats) =
            wfdatalog::wfs::solve_resumed(&mut u, &prev, &sigma, delta.atoms(), options)
                .expect("resumable");
        inc_ns.push(start.elapsed().as_nanos() as u64);
        assert!(stats.incremental);
        assert!(
            stats.components_reused > 0,
            "chain seeds are independent: untouched components must be reused"
        );
        components_reused = stats.components_reused;

        let start = Instant::now();
        let full_model = wfdatalog::wfs::solve(&mut u, &union_db, &sigma, options);
        full_ns.push(start.elapsed().as_nanos() as u64);
        components = full_model.component_stats().map_or(0, |s| s.components);

        if sample == 0 {
            assert_eq!(
                full_model.counts(),
                inc_model.counts(),
                "incremental and full models must agree"
            );
        }
    }
    EngineLeg {
        full_ns,
        inc_ns,
        components_reused,
        components,
    }
}

/// End-to-end façade comparison: `KnowledgeBase::solve` after `insert`
/// (includes snapshot + index re-packaging) vs a fresh build-and-solve.
fn run_facade_leg(samples: usize) -> (Vec<u64>, Vec<u64>) {
    let delta_n = delta_count();
    let mut full_ns = Vec::with_capacity(samples);
    let mut inc_ns = Vec::with_capacity(samples);
    for sample in 0..samples {
        let mut kb = KnowledgeBase::from_source(RULES)
            .expect("rules compile")
            .with_depth(DEPTH);
        let base = seed_batch(kb.universe_mut(), 0..SEEDS);
        kb.insert(base).expect("base loads");
        let first = kb.solve();
        let delta = seed_batch(kb.universe_mut(), SEEDS..SEEDS + delta_n);
        kb.insert(delta).expect("delta loads");
        let start = Instant::now();
        let second = kb.solve();
        inc_ns.push(start.elapsed().as_nanos() as u64);
        assert!(second.solve_stats().incremental);
        drop(first);

        let mut kb_full = KnowledgeBase::from_source(RULES)
            .expect("rules compile")
            .with_depth(DEPTH);
        let all = seed_batch(kb_full.universe_mut(), 0..SEEDS + delta_n);
        kb_full.insert(all).expect("union loads");
        let start = Instant::now();
        let reference = kb_full.solve();
        full_ns.push(start.elapsed().as_nanos() as u64);
        if sample == 0 {
            assert_eq!(
                reference.render_true(),
                second.render_true(),
                "façade incremental model must agree with scratch"
            );
        }
    }
    (full_ns, inc_ns)
}

/// Medians of the claims-scale leg: the two solves and, for the resumed
/// one, where its own `SolveStats` says the time went and how much of the
/// program it touched.
struct ClaimsLeg {
    atoms: usize,
    delta_facts: usize,
    full_ns: u64,
    inc_ns: u64,
    phases_ns: [u64; 4],
    cone_atoms: usize,
    components_evaluated: usize,
    components: usize,
}

/// Untimed rounds at the head of the claims-scale chain: the first resumed
/// solves of a process pay the allocator's page faults for every large
/// array they copy (≈ 35 → 15 ms over the first four rounds on the
/// recording host); a served knowledge base is past them.
const CLAIMS_WARMUP_ROUNDS: usize = 4;

/// The façade comparison at claims scale, **chained** as a served knowledge
/// base is: one knowledge base takes a fresh 173-fact delta per round, so
/// every timed solve resumes a model that was itself resumed. The full
/// solve it is compared with runs on fresh knowledge bases over the final
/// union (a third as many samples: each loads 180k atoms).
fn run_claims_leg(samples: usize) -> ClaimsLeg {
    let rules = format!("{RULES}{FANOUT_RULES}");
    // Inserts chain seeds `seeds` and fanout groups `groups`; returns the
    // number of facts added.
    let insert =
        |kb: &mut KnowledgeBase, seeds: std::ops::Range<usize>, groups: std::ops::Range<usize>| {
            let chain = seed_batch(kb.universe_mut(), seeds);
            let added = kb.insert(chain).expect("chain loads");
            let fanout = group_batch(kb.universe_mut(), groups);
            added + kb.insert(fanout).expect("fanout loads")
        };
    let fresh = || {
        KnowledgeBase::from_source(&rules)
            .expect("rules compile")
            .with_depth(DEPTH)
    };
    let mut kb = fresh();
    insert(&mut kb, 0..CLAIMS_SEEDS, 0..CLAIMS_GROUPS);
    let mut model = kb.solve();
    let (mut seeds, mut groups) = (CLAIMS_SEEDS, CLAIMS_GROUPS);
    let mut inc_ns = Vec::with_capacity(samples);
    let mut phases: [Vec<u64>; 4] = Default::default();
    let mut delta_facts = 0;
    for round in 0..CLAIMS_WARMUP_ROUNDS + samples {
        delta_facts = insert(
            &mut kb,
            seeds..seeds + CLAIMS_DELTA_SEEDS,
            groups..groups + CLAIMS_DELTA_GROUPS,
        );
        seeds += CLAIMS_DELTA_SEEDS;
        groups += CLAIMS_DELTA_GROUPS;
        let start = Instant::now();
        let next = kb.solve();
        let elapsed = start.elapsed().as_nanos() as u64;
        let stats = next.solve_stats();
        assert!(stats.incremental);
        // The previous model goes when the new one is published.
        model = next;
        if round < CLAIMS_WARMUP_ROUNDS {
            continue;
        }
        inc_ns.push(elapsed);
        let spent = [
            stats.chase_ns,
            stats.ground_ns,
            stats.engine_ns,
            stats.index_ns,
        ];
        for (phase, ns) in phases.iter_mut().zip(spent) {
            phase.push(ns);
        }
    }
    let stats = model.solve_stats();
    let modular = model.model().component_stats().expect("modular engine");

    let mut full_ns = Vec::new();
    for sample in 0..samples.div_ceil(3) {
        let mut kb_full = fresh();
        insert(&mut kb_full, 0..seeds, 0..groups);
        let start = Instant::now();
        let reference = kb_full.solve();
        full_ns.push(start.elapsed().as_nanos() as u64);
        if sample == 0 {
            assert_eq!(
                reference.model().counts(),
                model.model().counts(),
                "claims-scale incremental model must agree with scratch"
            );
        }
    }
    ClaimsLeg {
        atoms: model.model().ground.num_atoms(),
        delta_facts,
        full_ns: median(full_ns),
        inc_ns: median(inc_ns),
        phases_ns: phases.map(median),
        cone_atoms: stats.cone_atoms,
        components_evaluated: stats.components_evaluated,
        components: modular.components,
    }
}

/// Win–move scale: `wfdl-gen`'s random game over 50,000 positions with
/// every move forward (`forward_bias = 1`). Each round adds 500 moves: half
/// out of 125 new positions into the game's own positions, half out of the
/// game's positions to later ones — so no move enters a new position, no
/// cycle forms and no component grows from round to round. A move out of
/// an old position puts everything that reaches it in the cone — about four
/// fifths of the positions — while its verdict flips reach about a
/// thousand components.
const WINMOVE_POSITIONS: usize = 50_000;
const WINMOVE_DELTA_MOVES: usize = 500;
const WINMOVE_NEW_POSITIONS: usize = 125;

/// Medians of the win–move leg: times over every timed round, counts over
/// the resumed ones.
struct WinmoveLeg {
    atoms: usize,
    inc_ns: u64,
    engine_ns: u64,
    cone_atoms: usize,
    cone_components: usize,
    components_evaluated: usize,
    components: usize,
    /// Timed rounds whose resume condensed the program afresh (its
    /// dissolved ordinals had come to outnumber its components).
    afresh_rounds: usize,
}

/// The win–move leg: one cold solve, then chained 500-move deltas through
/// `solve_resumed`, each resuming the model the last one left; the first
/// [`CLAIMS_WARMUP_ROUNDS`] go untimed. The final model is checked against
/// a solve from scratch of the union.
fn run_winmove_leg(samples: usize) -> WinmoveLeg {
    let options = WfsOptions::unbounded();
    let mut u = Universe::new();
    let sigma = winmove_sigma(&mut u);
    let config = WinMoveConfig {
        nodes: WINMOVE_POSITIONS,
        forward_bias: 1.0,
        ..WinMoveConfig::default()
    };
    let mut db = winmove_database(&mut u, &config);
    let mut model = wfdatalog::wfs::solve(&mut u, &db, &sigma, options);
    let mv = u.pred("move", 2).expect("arity");
    // splitmix64: the deltas are the same on every run.
    let mut state = 0x5EED_u64;
    let mut below = |n: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let mut positions = WINMOVE_POSITIONS;
    let (mut inc_ns, mut engine_ns) = (Vec::new(), Vec::new());
    let (mut cone_atoms, mut cone_components, mut evaluated) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..CLAIMS_WARMUP_ROUNDS + samples {
        let old = positions;
        positions += WINMOVE_NEW_POSITIONS;
        let mut delta = Vec::with_capacity(WINMOVE_DELTA_MOVES);
        while delta.len() < WINMOVE_DELTA_MOVES {
            let (from, to) = match delta.len() % 2 {
                0 => (old + below(WINMOVE_NEW_POSITIONS), below(old)),
                _ => {
                    let from = below(WINMOVE_POSITIONS - 1);
                    (from, from + 1 + below(WINMOVE_POSITIONS - 1 - from))
                }
            };
            let (from, to) = (
                u.constant(&format!("n{from}")),
                u.constant(&format!("n{to}")),
            );
            let atom = u.atom(mv, vec![from, to]).expect("arity");
            if db.insert(&u, atom).expect("ground") {
                delta.push(atom);
            }
        }
        let start = Instant::now();
        let (next, stats) = wfdatalog::wfs::solve_resumed(&mut u, &model, &sigma, &delta, options)
            .expect("resumable");
        let elapsed = start.elapsed().as_nanos() as u64;
        assert!(stats.incremental);
        // A resume appends one ordinal per cone component.
        let found = next.result.stages.checked_sub(model.result.stages);
        model = next;
        if round < CLAIMS_WARMUP_ROUNDS {
            continue;
        }
        inc_ns.push(elapsed);
        engine_ns.push(stats.engine_ns);
        if let (Some(_), Some(found)) = (&model.result.cone, found) {
            cone_atoms.push(stats.cone_atoms as u64);
            cone_components.push(found as u64);
            evaluated.push(stats.components_evaluated as u64);
        }
    }
    let fresh = wfdatalog::wfs::solve(&mut u, &db, &sigma, options);
    assert_eq!(
        fresh.counts(),
        model.counts(),
        "win-move incremental model must agree with scratch"
    );
    WinmoveLeg {
        atoms: model.ground.num_atoms(),
        afresh_rounds: samples - cone_atoms.len(),
        inc_ns: median(inc_ns),
        engine_ns: median(engine_ns),
        cone_atoms: median(cone_atoms) as usize,
        cone_components: median(cone_components) as usize,
        components_evaluated: median(evaluated) as usize,
        components: model.component_stats().map_or(0, |s| s.components),
    }
}

fn main() {
    let samples = sample_count();
    let delta_n = delta_count();

    let engine = run_engine_leg(samples);
    let (facade_full, facade_inc) = run_facade_leg(samples);
    let claims = run_claims_leg(samples);
    let winmove = run_winmove_leg(samples);

    let full_m = median(engine.full_ns);
    let inc_m = median(engine.inc_ns);
    let speedup = full_m as f64 / inc_m as f64;
    let f_full_m = median(facade_full);
    let f_inc_m = median(facade_inc);
    let f_speedup = f_full_m as f64 / f_inc_m as f64;

    println!(
        "incremental_update/chain{SEEDS}_depth{DEPTH}/full_solve: median {} ({samples} samples)",
        fmt_ns(full_m)
    );
    println!(
        "incremental_update/chain{SEEDS}_depth{DEPTH}/incremental_solve: median {} — {speedup:.1}x vs full ({} of {} components reused)",
        fmt_ns(inc_m),
        engine.components_reused,
        engine.components
    );
    println!(
        "incremental_update/facade/full: median {} — fresh KnowledgeBase, load + solve",
        fmt_ns(f_full_m)
    );
    println!(
        "incremental_update/facade/incremental: median {} — {f_speedup:.1}x vs full (incl. snapshot repackaging)",
        fmt_ns(f_inc_m)
    );

    let claims_speedup = claims.full_ns as f64 / claims.inc_ns as f64;
    let [chase_ns, ground_ns, engine_ns, index_ns] = claims.phases_ns;
    println!(
        "incremental_update/claims_scale/full: median {} — {} atoms",
        fmt_ns(claims.full_ns),
        claims.atoms
    );
    println!(
        "incremental_update/claims_scale/incremental: median {} — {claims_speedup:.1}x vs full \
         (chase {}, ground {}, engine {}, index {}; cone {} atoms, {} of {} components evaluated)",
        fmt_ns(claims.inc_ns),
        fmt_ns(chase_ns),
        fmt_ns(ground_ns),
        fmt_ns(engine_ns),
        fmt_ns(index_ns),
        claims.cone_atoms,
        claims.components_evaluated,
        claims.components
    );

    println!(
        "incremental_update/winmove/incremental: median {} — engine {}; cone {} atoms in {} components, \
         {} evaluated, of {} components ({} atoms); {} of {samples} rounds condensed afresh",
        fmt_ns(winmove.inc_ns),
        fmt_ns(winmove.engine_ns),
        winmove.cone_atoms,
        winmove.cone_components,
        winmove.components_evaluated,
        winmove.components,
        winmove.atoms,
        winmove.afresh_rounds
    );

    let mut json = String::from("{\n");
    writeln!(json, "  \"samples\": {samples},").unwrap();
    writeln!(json, "  \"workload\": \"chain{SEEDS}_depth{DEPTH}\",").unwrap();
    writeln!(json, "  \"base_facts\": {},", SEEDS * 2).unwrap();
    writeln!(json, "  \"delta_facts\": {},", delta_n * 2).unwrap();
    writeln!(json, "  \"full_solve_ns\": {full_m},").unwrap();
    writeln!(json, "  \"incremental_solve_ns\": {inc_m},").unwrap();
    writeln!(json, "  \"incremental_speedup\": {speedup:.2},").unwrap();
    writeln!(json, "  \"components_total\": {},", engine.components).unwrap();
    writeln!(
        json,
        "  \"components_reused\": {},",
        engine.components_reused
    )
    .unwrap();
    writeln!(json, "  \"facade_full_ns\": {f_full_m},").unwrap();
    writeln!(json, "  \"facade_incremental_ns\": {f_inc_m},").unwrap();
    writeln!(json, "  \"facade_speedup\": {f_speedup:.2},").unwrap();
    writeln!(json, "  \"claims_scale\": {{").unwrap();
    writeln!(
        json,
        "    \"workload\": \"mixed_chain{CLAIMS_SEEDS}_fanout{CLAIMS_GROUPS}_depth{DEPTH}\","
    )
    .unwrap();
    writeln!(json, "    \"atoms\": {},", claims.atoms).unwrap();
    writeln!(json, "    \"delta_facts\": {},", claims.delta_facts).unwrap();
    writeln!(json, "    \"full_solve_ns\": {},", claims.full_ns).unwrap();
    writeln!(json, "    \"incremental_solve_ns\": {},", claims.inc_ns).unwrap();
    writeln!(json, "    \"incremental_speedup\": {claims_speedup:.2},").unwrap();
    writeln!(json, "    \"chase_ns\": {chase_ns},").unwrap();
    writeln!(json, "    \"ground_ns\": {ground_ns},").unwrap();
    writeln!(json, "    \"engine_ns\": {engine_ns},").unwrap();
    writeln!(json, "    \"index_ns\": {index_ns},").unwrap();
    writeln!(json, "    \"cone_atoms\": {},", claims.cone_atoms).unwrap();
    writeln!(
        json,
        "    \"components_evaluated\": {},",
        claims.components_evaluated
    )
    .unwrap();
    writeln!(json, "    \"components_total\": {}", claims.components).unwrap();
    json.push_str("  },\n");
    writeln!(json, "  \"winmove\": {{").unwrap();
    writeln!(
        json,
        "    \"workload\": \"winmove{WINMOVE_POSITIONS}_delta{WINMOVE_DELTA_MOVES}\","
    )
    .unwrap();
    writeln!(json, "    \"atoms\": {},", winmove.atoms).unwrap();
    writeln!(json, "    \"delta_facts\": {WINMOVE_DELTA_MOVES},").unwrap();
    writeln!(json, "    \"incremental_solve_ns\": {},", winmove.inc_ns).unwrap();
    writeln!(json, "    \"engine_ns\": {},", winmove.engine_ns).unwrap();
    writeln!(json, "    \"cone_atoms\": {},", winmove.cone_atoms).unwrap();
    writeln!(
        json,
        "    \"cone_components\": {},",
        winmove.cone_components
    )
    .unwrap();
    writeln!(
        json,
        "    \"components_evaluated\": {},",
        winmove.components_evaluated
    )
    .unwrap();
    writeln!(json, "    \"components_total\": {},", winmove.components).unwrap();
    writeln!(json, "    \"afresh_rounds\": {}", winmove.afresh_rounds).unwrap();
    json.push_str("  }\n}\n");

    wfdl_bench::write_bench_json("BENCH_incremental.json", &json);
}
