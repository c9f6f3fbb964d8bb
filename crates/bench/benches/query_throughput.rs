//! Query-serving throughput: prepared queries on a shared immutable model
//! vs the old parse-per-ask path, plus thread scaling.
//!
//! The compile → solve → serve redesign exists for one workload shape:
//! *reason once, query many times*. This bench quantifies both halves of
//! the claim on a 1k-query batch over the scaled Example 2 employment
//! ontology:
//!
//! * **prepared vs parse-per-ask** — evaluating the batch through
//!   [`SolvedModel::ask3_prepared`]/[`answers_prepared`] (parse/lower once,
//!   the model's atom index built once at solve time) against the deprecated
//!   `Reasoner::ask`-style loop (re-parse, re-intern and re-index on every
//!   single ask);
//! * **thread scaling** — N threads sharing one `Arc<SolvedModel>`, each
//!   evaluating the full batch; queries/sec should grow with threads since
//!   the serve path takes `&self` and never locks.
//!
//! Output mirrors `pipeline_end_to_end`: human-readable medians on stdout
//! and machine-readable `BENCH_query.json` (override the path with
//! `WFDL_BENCH_JSON`, the sample count with `WFDL_BENCH_SAMPLES`).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use wfdatalog::{KnowledgeBase, PreparedQuery, SolvedModel, WfsOptions};
use wfdl_bench::timing::{fmt_ns, median, sample_count};
use wfdl_gen::{employment_ontology, EmploymentConfig};

const BATCH: usize = 1000;
const DEPTH: u32 = 5;
const PERSONS: usize = 192;
const THREADS: [usize; 3] = [1, 2, 4];

/// The 1k-query batch: per-person ID lookups (Boolean + answer tuples),
/// validity joins with negation, and a few unknown-constant probes that
/// exercise the short-circuit path.
fn query_batch() -> Vec<String> {
    let mut qs = Vec::with_capacity(BATCH);
    let mut i = 0usize;
    while qs.len() < BATCH {
        let person = format!("per{}", i % PERSONS);
        match i % 5 {
            0 => qs.push(format!("?- EmployeeID({person}, X).")),
            1 => qs.push(format!("?- JobSeekerID({person}, X).")),
            2 => qs.push(format!("?- EmployeeID({person}, X), ValidID(X).")),
            3 => qs.push("?(X) Person(X), not Employed(X).".to_owned()),
            _ => qs.push(format!("?- EmployeeID(stranger{i}, X).")),
        }
        i += 1;
    }
    qs
}

/// Evaluates one prepared query (Boolean → ask3, else answers), returning
/// a cheap fingerprint so the work cannot be optimized away.
fn eval_prepared(model: &SolvedModel, q: &PreparedQuery) -> usize {
    if q.is_boolean() {
        model.ask3_prepared(q).is_true() as usize
    } else {
        model.answers_prepared(q).len()
    }
}

/// The historical serving loop (the pre-lifecycle `Reasoner` façade,
/// now deleted): parse, intern and index on every single ask.
fn run_parse_per_ask(samples: usize, queries: &[String]) -> (Vec<u64>, usize) {
    let onto = employment_ontology(&EmploymentConfig {
        num_persons: PERSONS,
        employed_fraction: 0.5,
        seed: 2013,
    });
    let mut universe = wfdatalog::Universe::new();
    let translated =
        wfdatalog::ontology::translate(&mut universe, &onto).expect("ontology compiles");
    let (sigma, _violations) =
        wfdatalog::wfs::lower_with_constraints(&mut universe, &translated.program)
            .expect("constraints lower");
    let model = wfdatalog::wfs::solve(
        &mut universe,
        &translated.database,
        &sigma,
        WfsOptions::depth(DEPTH),
    );
    let mut fingerprint = 0usize;
    let mut times = Vec::with_capacity(samples);
    for i in 0..=samples {
        let start = Instant::now();
        let mut acc = 0usize;
        for q in queries {
            let ast = wfdatalog::syntax::parse_single_query(q).expect("query parses");
            let parsed = wfdatalog::syntax::lower_query(&mut universe, &ast).expect("query lowers");
            if parsed.is_boolean() {
                acc += wfdatalog::query::holds3(&universe, &model, &parsed).is_true() as usize;
            } else {
                acc += wfdatalog::query::answers(&universe, &model, &parsed).len();
            }
        }
        let ns = start.elapsed().as_nanos() as u64;
        // Discard the cold first pass: it uniquely pays for interning the
        // batch's fresh constants into the universe.
        if i > 0 {
            times.push(ns);
        }
        fingerprint = acc;
    }
    (times, fingerprint)
}

struct PreparedOutcome {
    prepare_ns: Vec<u64>,
    eval_ns: Vec<u64>,
    /// Wall-clock per thread count, each thread evaluating the full batch.
    threads_ns: Vec<(usize, Vec<u64>)>,
    fingerprint: usize,
}

fn run_prepared(samples: usize, queries: &[String]) -> PreparedOutcome {
    let onto = employment_ontology(&EmploymentConfig {
        num_persons: PERSONS,
        employed_fraction: 0.5,
        seed: 2013,
    });
    let mut kb = KnowledgeBase::from_ontology(&onto)
        .expect("ontology compiles")
        .with_options(WfsOptions::depth(DEPTH));
    let model = kb.solve();

    // Preparation cost (parse + frozen lowering for the whole batch).
    let mut prepare_ns = Vec::with_capacity(samples);
    let mut prepared: Vec<PreparedQuery> = Vec::new();
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        prepared = queries
            .iter()
            .map(|q| model.prepare(q).expect("query prepares"))
            .collect();
        prepare_ns.push(start.elapsed().as_nanos() as u64);
    }

    // Untimed warm-up pass: warms caches, mirroring the discarded cold
    // pass of the parse-per-ask side.
    let mut fingerprint = 0usize;
    for q in prepared.iter() {
        fingerprint += eval_prepared(&model, q);
    }

    // Single-threaded re-evaluation of the batch.
    let mut eval_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let mut acc = 0usize;
        for q in &prepared {
            acc += eval_prepared(&model, q);
        }
        eval_ns.push(start.elapsed().as_nanos() as u64);
        fingerprint = acc;
    }

    // Thread scaling: each thread evaluates the full batch.
    let prepared = Arc::new(prepared);
    let mut threads_ns = Vec::new();
    for &n in &THREADS {
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let model = Arc::clone(&model);
                    let prepared = Arc::clone(&prepared);
                    std::thread::spawn(move || {
                        let mut acc = 0usize;
                        for q in prepared.iter() {
                            acc += eval_prepared(&model, q);
                        }
                        acc
                    })
                })
                .collect();
            let mut acc = 0usize;
            for h in handles {
                acc += h.join().expect("serving thread panicked");
            }
            times.push(start.elapsed().as_nanos() as u64);
            fingerprint = fingerprint.max(acc / n.max(1));
        }
        threads_ns.push((n, times));
    }

    PreparedOutcome {
        prepare_ns,
        eval_ns,
        threads_ns,
        fingerprint,
    }
}

fn main() {
    let samples = sample_count();
    let queries = query_batch();

    let (old_ns, old_fp) = run_parse_per_ask(samples, &queries);
    let out = run_prepared(samples, &queries);
    assert_eq!(
        old_fp, out.fingerprint,
        "prepared and parse-per-ask paths must agree on the batch"
    );

    let old_m = median(old_ns);
    let prep_m = median(out.prepare_ns);
    let eval_m = median(out.eval_ns);
    let speedup = old_m as f64 / eval_m as f64;
    println!(
        "query_throughput/batch{BATCH}/parse_per_ask: median {} ({samples} samples)",
        fmt_ns(old_m)
    );
    println!(
        "query_throughput/batch{BATCH}/prepare_once: median {} ({samples} samples)",
        fmt_ns(prep_m)
    );
    println!(
        "query_throughput/batch{BATCH}/eval_prepared: median {} ({samples} samples) — {speedup:.1}x vs parse-per-ask",
        fmt_ns(eval_m)
    );

    let mut json = String::from("{\n");
    writeln!(json, "  \"samples\": {samples},").unwrap();
    writeln!(json, "  \"batch\": {BATCH},").unwrap();
    writeln!(
        json,
        "  \"workload\": \"employment{PERSONS}_depth{DEPTH}\","
    )
    .unwrap();
    // Thread scaling is bounded by the machine: on a single-core host the
    // 2/4-thread numbers only measure overlap, not parallelism. The CI
    // bench job runs this on a multicore runner and asserts scaling > 1.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    writeln!(json, "  \"available_parallelism\": {cores},").unwrap();
    writeln!(json, "  \"parse_per_ask_ns\": {old_m},").unwrap();
    writeln!(json, "  \"prepare_once_ns\": {prep_m},").unwrap();
    writeln!(json, "  \"eval_prepared_ns\": {eval_m},").unwrap();
    writeln!(json, "  \"prepared_speedup\": {speedup:.2},").unwrap();
    json.push_str("  \"threads\": [\n");

    let mut qps1 = 0f64;
    for (i, (n, times)) in out.threads_ns.iter().enumerate() {
        let m = median(times.clone());
        let qps = (*n as f64 * BATCH as f64) / (m as f64 / 1e9);
        if *n == 1 {
            qps1 = qps;
        }
        let scaling = if qps1 > 0.0 { qps / qps1 } else { 0.0 };
        println!(
            "query_throughput/threads{n}: median {} — {:.0} queries/sec ({scaling:.2}x vs 1 thread)",
            fmt_ns(m),
            qps
        );
        writeln!(
            json,
            "    {{\"threads\": {n}, \"median_ns\": {m}, \"queries_per_sec\": {qps:.0}, \"scaling\": {scaling:.2}}}{}",
            if i + 1 == out.threads_ns.len() { "" } else { "," }
        )
        .unwrap();
    }
    json.push_str("  ]\n}\n");

    wfdl_bench::write_bench_json("BENCH_query.json", &json);
}
