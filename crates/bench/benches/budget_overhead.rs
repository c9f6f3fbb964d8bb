//! Ambient cost of the solve-wide budget plumbing: full pipeline solves
//! (chase + modular engine, fresh universe per sample) with no budget vs
//! an ample budget that never trips (far-future deadline + huge memory
//! limit + live cancel token — every trip point pays its real poll).
//!
//! Workloads are the two shapes where per-boundary polling could bite:
//!
//! * `chain256` — Example 4 chains at 256 seeds, depth 8: deep chase with
//!   many rounds, and thousands of singleton components in the engine
//!   (the shape the 64-ordinal poll stride exists for);
//! * `fanout8192` — 8192 independent shallow groups: wide frontiers and
//!   thousands of components per dependency level.
//!
//! Before timing, the budgeted model is asserted bit-identical to the
//! unbudgeted one. Output: human-readable medians with the overhead
//! percentage on stdout, machine-readable `BENCH_robust.json` (override
//! with `WFDL_BENCH_JSON`, sample count with `WFDL_BENCH_SAMPLES`). The
//! `*_ns` medians feed the CI bench-regression gate; `overhead_pct` is
//! the headline number, budgeted for < 2%.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use wfdl_bench::timing::{fmt_ns, median, sample_count};
use wfdl_core::{CancelToken, SkolemProgram, SolveBudget, Universe};
use wfdl_gen::{chain_database, example4_sigma, fanout_database, fanout_sigma, FanoutConfig};
use wfdl_storage::Database;
use wfdl_wfs::{solve, solve_request, SolveRequest, WellFoundedModel, WfsOptions};

/// An ample budget: every trip point does its full check, none ever trips.
fn ample_budget() -> SolveBudget {
    SolveBudget::unlimited()
        .with_deadline_in(Duration::from_secs(24 * 3600))
        .with_cancel(CancelToken::new())
        .with_mem_limit(1 << 42)
}

/// `solve` under a runtime budget.
fn solve_budgeted(
    universe: &mut Universe,
    db: &Database,
    program: &SkolemProgram,
    options: WfsOptions,
    budget: &SolveBudget,
) -> WellFoundedModel {
    let request = SolveRequest {
        program,
        options,
        violations: &[],
        budget,
        base: None,
        new_facts: db.facts(),
        slice: None,
    };
    solve_request(universe, request)
        .expect("the empty model always resumes")
        .model
}

struct Workload {
    name: &'static str,
    setup: fn(&mut Universe) -> (Database, SkolemProgram),
    options: WfsOptions,
}

struct Outcome {
    name: &'static str,
    atoms: usize,
    unbudgeted_ns: u64,
    budgeted_ns: u64,
    overhead_pct: f64,
}

fn run_workload(w: &Workload, samples: usize) -> Outcome {
    // Correctness first: the ample budget must be invisible in the model.
    let (base_atoms, base_render) = {
        let mut u = Universe::new();
        let (db, sigma) = (w.setup)(&mut u);
        let model = solve(&mut u, &db, &sigma, w.options);
        (model.segment.atoms().len(), model.render_true(&u))
    };
    {
        let mut u = Universe::new();
        let (db, sigma) = (w.setup)(&mut u);
        let model = solve_budgeted(&mut u, &db, &sigma, w.options, &ample_budget());
        // chain256 is depth-truncated by design; what must NOT happen is a
        // budget trip.
        assert!(
            !model.outcome.is_budget_trip(),
            "{}: the ample budget tripped ({:?})",
            w.name,
            model.outcome
        );
        assert_eq!(
            model.render_true(&u),
            base_render,
            "{}: the budget perturbed the model",
            w.name
        );
    }

    // The two legs are interleaved sample by sample so slow host drift
    // (thermal, noisy neighbors) hits both measurements equally, and the
    // within-pair order alternates each iteration — the second solve of a
    // pair systematically inherits allocator/page-cache state from the
    // first, which would otherwise masquerade as budget overhead.
    let budget = ample_budget();
    let mut unbudgeted = Vec::with_capacity(samples);
    let mut budgeted = Vec::with_capacity(samples);
    let mut time_one = |use_budget: bool, record: bool| {
        let mut u = Universe::new();
        let (db, sigma) = (w.setup)(&mut u);
        let start = Instant::now();
        let out = if use_budget {
            solve_budgeted(&mut u, &db, &sigma, w.options, &budget)
        } else {
            solve(&mut u, &db, &sigma, w.options)
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        std::hint::black_box(&out);
        if record {
            if use_budget {
                budgeted.push(elapsed);
            } else {
                unbudgeted.push(elapsed);
            }
        }
    };
    // First iteration is an untimed warm-up.
    for i in 0..=samples {
        let budget_first = i % 2 == 0;
        time_one(budget_first, i > 0);
        time_one(!budget_first, i > 0);
    }
    let unbudgeted_ns = median(unbudgeted);
    let budgeted_ns = median(budgeted);
    let overhead_pct = (budgeted_ns as f64 / unbudgeted_ns as f64 - 1.0) * 100.0;
    println!(
        "budget_overhead/{}: unbudgeted {} vs budgeted {} — {overhead_pct:+.2}% ({samples} samples)",
        w.name,
        fmt_ns(unbudgeted_ns),
        fmt_ns(budgeted_ns)
    );
    Outcome {
        name: w.name,
        atoms: base_atoms,
        unbudgeted_ns,
        budgeted_ns,
        overhead_pct,
    }
}

fn main() {
    let samples = sample_count();
    println!("budget_overhead: {samples} samples, fresh universe per sample");

    let workloads = [
        Workload {
            name: "chain256",
            setup: |u| {
                let sigma = example4_sigma(u);
                let db = chain_database(u, 256);
                (db, sigma)
            },
            options: WfsOptions::depth(8),
        },
        Workload {
            name: "fanout8192",
            setup: |u| {
                let sigma = fanout_sigma(u);
                let db = fanout_database(
                    u,
                    &FanoutConfig {
                        groups: 8192,
                        recursive_fraction: 0.25,
                        seed: 2013,
                    },
                );
                (db, sigma)
            },
            options: WfsOptions::unbounded(),
        },
    ];

    let outcomes: Vec<Outcome> = workloads.iter().map(|w| run_workload(w, samples)).collect();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"workloads\": [");
    for (i, o) in outcomes.iter().enumerate() {
        let comma = if i + 1 < outcomes.len() { "," } else { "" };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", o.name);
        let _ = writeln!(json, "      \"atoms\": {},", o.atoms);
        let _ = writeln!(json, "      \"unbudgeted_ns\": {},", o.unbudgeted_ns);
        let _ = writeln!(json, "      \"budgeted_ns\": {},", o.budgeted_ns);
        let _ = writeln!(json, "      \"overhead_pct\": {:.2}", o.overhead_pct);
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    wfdl_bench::write_bench_json("BENCH_robust.json", &json);
}
