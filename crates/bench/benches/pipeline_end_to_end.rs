//! End-to-end pipeline benchmark: parse/translate → skolemize → chase →
//! ground → modular solve, phase-attributed.
//!
//! Unlike the engine-only benches, every sample runs the **whole** pipeline
//! on a fresh universe, so the numbers include interning, chase saturation
//! and ground-program extraction — the phases that dominate end-to-end
//! latency on ontological workloads. Each phase is timed separately within
//! the same run, so a chase-saturation speedup is attributable without
//! cross-bench guesswork.
//!
//! Output:
//! * human-readable per-phase medians on stdout;
//! * machine-readable medians in `BENCH_pipeline.json` (override the path
//!   with `WFDL_BENCH_JSON`, the sample count with `WFDL_BENCH_SAMPLES`),
//!   so future PRs have a perf trajectory to compare against.

use std::fmt::Write as _;
use std::time::Instant;
use wfdl_analyze::{analyze, AnalysisInput};
use wfdl_bench::timing::{fmt_ns, median, sample_count};
use wfdl_chase::{ChaseBudget, ChaseSegment};
use wfdl_core::Universe;
use wfdl_gen::{
    employment_ontology, fanout_database, fanout_sigma, random_ontology, winmove_database,
    EmploymentConfig, FanoutConfig, OntologyConfig, WinMoveConfig,
};
use wfdl_ontology::Ontology;
use wfdl_wfs::ModularEngine;

const PHASES: [&str; 5] = ["frontend", "skolemize", "chase", "ground", "solve"];

/// One pipeline sample: wall-clock per phase, in [`PHASES`] order.
struct Sample {
    phase_ns: [u64; PHASES.len()],
}

impl Sample {
    fn total_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }
}

/// A workload's collected samples plus size counters from the last run.
struct Outcome {
    name: &'static str,
    samples: Vec<Sample>,
    atoms: usize,
    instances: usize,
    ground_rules: usize,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_nanos() as u64)
}

/// The scaled Example 4 chain workload as surface syntax, so the sample
/// pays for a real parse (the other workloads enter via the DL-Lite
/// translation instead).
fn chain_source(num_seeds: usize) -> String {
    let mut src = String::new();
    for i in 0..num_seeds {
        writeln!(src, "r(c{i}, c{i}, d{i}).").unwrap();
        writeln!(src, "p(c{i}, c{i}).").unwrap();
    }
    src.push_str(
        "r(X, Y, Z) -> r(X, Z, f(X, Y, Z)).\n\
         r(X, Y, Z), p(X, Y), not q(Z) -> p(X, Z).\n\
         r(X, Y, Z), not p(X, Y) -> q(Z).\n\
         r(X, Y, Z), not p(X, Z) -> s(X).\n\
         p(X, Y), not s(X) -> t(X).\n",
    );
    src
}

/// A win–move game of `positions` positions (≈ 2 moves each, in the
/// generator's random order) as surface syntax. At 20k facts the text
/// frontend is a third of the sample, which is what this leg is for:
/// `chain` enters 384 facts, and a per-fact frontend cost hides there.
fn winmove_source(positions: usize) -> String {
    let mut u = Universe::new();
    let cfg = WinMoveConfig {
        nodes: positions,
        seed: 2013,
        ..WinMoveConfig::default()
    };
    let db = winmove_database(&mut u, &cfg);
    let mut src = String::new();
    for &fact in db.facts() {
        writeln!(src, "{}.", u.display_atom(fact)).unwrap();
    }
    src.push_str("move(X, Y), not win(Y) -> win(X).\n");
    src
}

/// Runs one parse-entry pipeline sample and returns phase timings plus
/// result sizes.
fn run_source_sample(src: &str, budget: ChaseBudget) -> (Sample, usize, usize, usize) {
    let mut u = Universe::new();
    let (lowered, parse_ns) = time(|| wfdl_syntax::load(&mut u, src).expect("valid source"));
    let (sigma, skolem_ns) = time(|| {
        lowered
            .skolem_program(&mut u)
            .expect("skolemizable program")
    });
    let (seg, chase_ns) = time(|| ChaseSegment::build(&mut u, &lowered.database, &sigma, budget));
    let (ground, ground_ns) = time(|| seg.to_ground_program());
    let (_res, solve_ns) = time(|| ModularEngine::new(&ground).solve());
    (
        Sample {
            phase_ns: [parse_ns, skolem_ns, chase_ns, ground_ns, solve_ns],
        },
        seg.atoms().len(),
        seg.num_instances(),
        ground.num_rules(),
    )
}

/// Runs one ontology-entry pipeline sample (translation plays the frontend
/// role that parsing plays for textual workloads).
fn run_ontology_sample(onto: &Ontology, budget: ChaseBudget) -> (Sample, usize, usize, usize) {
    let mut u = Universe::new();
    let (translated, translate_ns) =
        time(|| wfdl_ontology::translate(&mut u, onto).expect("translation never fails"));
    let (sigma, skolem_ns) = time(|| {
        let (sigma, _viols) =
            wfdl_wfs::lower_with_constraints(&mut u, &translated.program).expect("lowerable");
        sigma
    });
    let (seg, chase_ns) =
        time(|| ChaseSegment::build(&mut u, &translated.database, &sigma, budget));
    let (ground, ground_ns) = time(|| seg.to_ground_program());
    let (_res, solve_ns) = time(|| ModularEngine::new(&ground).solve());
    (
        Sample {
            phase_ns: [translate_ns, skolem_ns, chase_ns, ground_ns, solve_ns],
        },
        seg.atoms().len(),
        seg.num_instances(),
        ground.num_rules(),
    )
}

fn collect(
    name: &'static str,
    samples: usize,
    mut one: impl FnMut() -> (Sample, usize, usize, usize),
) -> Outcome {
    // One untimed warm-up run.
    let _ = one();
    let mut out = Outcome {
        name,
        samples: Vec::with_capacity(samples),
        atoms: 0,
        instances: 0,
        ground_rules: 0,
    };
    for _ in 0..samples {
        let (s, atoms, instances, rules) = one();
        out.samples.push(s);
        out.atoms = atoms;
        out.instances = instances;
        out.ground_rules = rules;
    }
    out
}

/// Measures what `wfdl lint` would add to the compile phase on the widest
/// generated workload: build the fanout-8192 program + database (the
/// compile-side work the analyzer rides on), then run the analyzer over
/// the same lowered program. The analyzer is O(program) — four rules here
/// — so its share must stay far under the 5% acceptance ceiling no matter
/// how many facts the workload carries.
fn lint_overhead(samples: usize) -> String {
    let mut compile: Vec<u64> = Vec::with_capacity(samples);
    let mut lint: Vec<u64> = Vec::with_capacity(samples);
    let cfg = FanoutConfig {
        groups: 8192,
        recursive_fraction: 0.25,
        seed: 2013,
    };
    for i in 0..=samples {
        let mut u = Universe::new();
        let ((sigma, db), compile_ns) = time(|| {
            let sigma = fanout_sigma(&mut u);
            let db = fanout_database(&mut u, &cfg);
            (sigma, db)
        });
        // The analyzer path as `KnowledgeBase::analyze` runs it: collect
        // the EDB predicate set from the fact store, then analyze.
        let (report, lint_ns) = time(|| {
            let mut seen = vec![false; u.num_preds()];
            let mut edb_preds = Vec::new();
            for &f in db.facts() {
                let p = u.atoms.pred(f);
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    edb_preds.push(p);
                }
            }
            analyze(&AnalysisInput {
                universe: &u,
                program: &sigma,
                edb_preds: &edb_preds,
                queried_preds: &[],
            })
        });
        assert!(
            report
                .diagnostics
                .iter()
                .all(|d| d.severity != wfdl_analyze::Severity::Error),
            "fanout workload must lint clean"
        );
        // Iteration 0 is the untimed warm-up.
        if i > 0 {
            compile.push(compile_ns);
            lint.push(lint_ns);
        }
    }
    let med = |v: &mut Vec<u64>| -> u64 {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let compile_med = med(&mut compile);
    let lint_med = med(&mut lint);
    let pct = lint_med as f64 * 100.0 / compile_med.max(1) as f64;
    println!(
        "pipeline_end_to_end/lint_overhead/fanout8192: compile median {}, lint median {} ({pct:.2}% overhead, {samples} samples)",
        fmt_ns(compile_med),
        fmt_ns(lint_med),
    );
    assert!(
        pct < 5.0,
        "lint overhead {pct:.2}% breaches the 5% compile-phase ceiling"
    );
    format!(
        "  \"lint_overhead\": {{\"workload\": \"fanout8192\", \"compile_ns\": {compile_med}, \"lint_ns\": {lint_med}, \"overhead_pct\": {pct:.2}}},\n"
    )
}

fn report(outcomes: &[Outcome], samples: usize, lint_json: &str) {
    let mut json = String::from("{\n");
    writeln!(json, "  \"samples\": {samples},").unwrap();
    json.push_str(lint_json);
    json.push_str("  \"workloads\": [\n");
    for (wi, o) in outcomes.iter().enumerate() {
        println!(
            "pipeline_end_to_end/{}: {} atoms, {} instances, {} ground rules",
            o.name, o.atoms, o.instances, o.ground_rules
        );
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"name\": \"{}\",", o.name).unwrap();
        writeln!(json, "      \"atoms\": {},", o.atoms).unwrap();
        writeln!(json, "      \"instances\": {},", o.instances).unwrap();
        writeln!(json, "      \"ground_rules\": {},", o.ground_rules).unwrap();
        json.push_str("      \"median_ns\": {");
        for (pi, phase) in PHASES.iter().enumerate() {
            let m = median(o.samples.iter().map(|s| s.phase_ns[pi]).collect());
            println!(
                "pipeline_end_to_end/{}/{}: median {} ({} samples)",
                o.name,
                phase,
                fmt_ns(m),
                o.samples.len()
            );
            if pi > 0 {
                json.push_str(", ");
            }
            write!(json, "\"{phase}\": {m}").unwrap();
        }
        let total = median(o.samples.iter().map(Sample::total_ns).collect());
        println!(
            "pipeline_end_to_end/{}/total: median {} ({} samples)",
            o.name,
            fmt_ns(total),
            o.samples.len()
        );
        write!(json, ", \"total\": {total}}}").unwrap();
        json.push('\n');
        if wi + 1 == outcomes.len() {
            json.push_str("    }\n");
        } else {
            json.push_str("    },\n");
        }
    }
    json.push_str("  ]\n}\n");

    wfdl_bench::write_bench_json("BENCH_pipeline.json", &json);
}

fn main() {
    let samples = sample_count();

    let chain_src = chain_source(192);
    // The claims benchmark's `chain_cold` size (115k atoms, 164k instances):
    // per-instance costs in the chase merge and in grounding that hide
    // inside a millisecond at 192 seeds are most of a cold solve here.
    let claims_src = chain_source(4096);
    let winmove_src = winmove_source(10_000);
    let ontogen_cfg = OntologyConfig {
        num_concepts: 14,
        num_roles: 7,
        num_axioms: 60,
        num_role_axioms: 10,
        negation_prob: 0.4,
        exists_prob: 0.4,
        bottom_prob: 0.05,
        num_individuals: 48,
        num_assertions: 360,
        seed: 2013,
    };
    let ontogen = random_ontology(&ontogen_cfg);
    let employment = employment_ontology(&EmploymentConfig {
        num_persons: 384,
        employed_fraction: 0.5,
        seed: 2013,
    });
    // The same ontology at a size where a cost proportional to the atom
    // universe *per recursive component* shows: 4,096 unemployed persons
    // are 4,096 four-atom components recursive through negation, over
    // ~53k atoms. (At 384 persons such a cost hides inside a millisecond.)
    let employment_large = employment_ontology(&EmploymentConfig {
        num_persons: 8192,
        employed_fraction: 0.5,
        seed: 2013,
    });

    let outcomes = vec![
        collect("chain", samples, || {
            run_source_sample(&chain_src, ChaseBudget::depth(8))
        }),
        collect("claims_scale", samples, || {
            run_source_sample(&claims_src, ChaseBudget::depth(8))
        }),
        collect("winmove", samples, || {
            run_source_sample(&winmove_src, ChaseBudget::unbounded())
        }),
        collect("ontogen", samples, || {
            run_ontology_sample(&ontogen, ChaseBudget::depth(4))
        }),
        collect("employment", samples, || {
            run_ontology_sample(&employment, ChaseBudget::depth(6))
        }),
        collect("employment8192", samples, || {
            run_ontology_sample(&employment_large, ChaseBudget::depth(6))
        }),
    ];

    let lint_json = lint_overhead(samples);
    report(&outcomes, samples, &lint_json);
}
