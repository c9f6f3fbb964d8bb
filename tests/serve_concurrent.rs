//! Concurrent serving: one solved model, many threads, no locks.
//!
//! The serve stage's contract is that a [`SolvedModel`] behind an `Arc`
//! can answer prepared queries from any number of threads through `&self`
//! and agree bit-for-bit with single-threaded evaluation.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Arc, Barrier};
use wfdatalog::{AnswerSet, KnowledgeBase, PreparedQuery, SolvedModel, Truth};

/// Compile-time guarantee: the whole serve surface is thread-shareable.
#[test]
fn solved_model_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SolvedModel>();
    assert_send_sync::<Arc<SolvedModel>>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<AnswerSet>();
}

/// A knowledge base with all three truth values, existential witnesses and
/// constraints — enough surface to make disagreement detectable.
fn staffing_kb() -> KnowledgeBase {
    let mut src = String::new();
    // A chain of departments with mutually-auditing leads (draw cycles →
    // unknowns), cleared staff (certain grants) and embargoes (denials).
    for i in 0..24 {
        src.push_str(&format!(
            "dataset(d{i}). user(u{i}). requested(u{i}, d{i}).\n"
        ));
        if i % 3 == 0 {
            src.push_str(&format!("cleared(u{i}).\n"));
        }
        if i % 4 == 1 {
            src.push_str(&format!("embargoed(d{i}).\n"));
        }
    }
    // Mutual audits in pairs: standing is undefined for both.
    for i in (0..24).step_by(2) {
        let j = i + 1;
        src.push_str(&format!("audits(u{i}, u{j}). audits(u{j}, u{i}).\n"));
    }
    src.push_str(
        "dataset(D) -> steward(D, S).\n\
         requested(U, D), not embargoed(D), not objection(U, D) -> grant(U, D).\n\
         requested(U, D), not waived(U, D) -> objection(U, D).\n\
         requested(U, D), cleared(U) -> waived(U, D).\n\
         audits(U, V), not standing(V) -> standing(U).\n\
         grant(U, D), embargoed(D) -> false.\n",
    );
    KnowledgeBase::from_source(&src).unwrap()
}

/// The query mix every thread evaluates: Boolean, three-valued, answer
/// tuples, negation, and unknown-constant short-circuits.
fn query_sources() -> Vec<String> {
    let mut qs = Vec::new();
    for i in 0..24 {
        qs.push(format!("?- grant(u{i}, d{i})."));
        qs.push(format!("?- standing(u{i})."));
        qs.push(format!("?- steward(d{i}, S)."));
    }
    qs.push("?(U) requested(U, D), not grant(U, D).".to_owned());
    qs.push("?(D) embargoed(D).".to_owned());
    qs.push("?- grant(mallory, d0).".to_owned()); // unknown constant
    qs
}

#[test]
fn four_threads_agree_with_single_threaded_answers() {
    let mut kb = staffing_kb();
    let model: Arc<SolvedModel> = kb.solve();

    let queries: Arc<Vec<PreparedQuery>> = Arc::new(
        query_sources()
            .iter()
            .map(|q| model.prepare(q).unwrap())
            .collect(),
    );

    // Single-threaded reference: three-valued verdicts + answer sets.
    let reference: Vec<(Truth, AnswerSet)> = queries
        .iter()
        .map(|q| (model.ask3_prepared(q), model.answers_prepared(q)))
        .collect();
    // The workload exercises all three truth values.
    for want in [Truth::True, Truth::False, Truth::Unknown] {
        assert!(
            reference.iter().any(|(t, _)| *t == want),
            "workload must exhibit {want:?}"
        );
    }

    let reference = Arc::new(reference);
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let model = Arc::clone(&model);
            let queries = Arc::clone(&queries);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                // Each thread starts at a different offset so the lazy
                // possible-index initialization races across queries.
                for round in 0..4 {
                    for (i, q) in queries.iter().enumerate().skip((t + round) % queries.len()) {
                        let (want3, want_ans) = &reference[i];
                        assert_eq!(model.ask3_prepared(q), *want3, "thread {t} query {i}");
                        assert_eq!(model.answers_prepared(q), *want_ans, "thread {t} query {i}");
                        assert_eq!(
                            model.ask_prepared(q),
                            want3.is_true(),
                            "thread {t} query {i}"
                        );
                    }
                }
                // Batched entry point agrees too.
                let batched = model.answer_all(&queries);
                for (i, ans) in batched.iter().enumerate() {
                    assert_eq!(*ans, reference[i].1, "thread {t} batched query {i}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("serving thread panicked");
    }
}

/// The reads of [`four_threads_agree_with_single_threaded_answers`] meet a
/// model its reference pass has already read. Here they meet a cold one:
/// a model's index builds a predicate's key table on the first lookup
/// that binds an argument of it, so released together onto a model nobody
/// has read, the threads race for exactly those first lookups.
#[test]
fn first_reads_of_a_cold_model_race_and_agree() {
    let mut sources = query_sources();
    // More predicates read by one bound argument, so more tables to race
    // for, in either position.
    for i in [0, 5, 11] {
        sources.push(format!("?(V) audits(u{i}, V)."));
        sources.push(format!("?(U) requested(U, d{i})."));
        sources.push(format!("?(D) requested(u{i}, D), not embargoed(D)."));
    }

    // The reference: an identical model, read by this thread alone.
    let warm = staffing_kb().solve();
    let cold_stats = warm.index_stats();
    assert_eq!(
        cold_stats.key_tables_built, 0,
        "a solve builds no key table"
    );
    let queries: Vec<PreparedQuery> = sources.iter().map(|q| warm.prepare(q).unwrap()).collect();
    let reference: Vec<(Truth, AnswerSet)> = queries
        .iter()
        .map(|q| (warm.ask3_prepared(q), warm.answers_prepared(q)))
        .collect();
    let warm_stats = warm.index_stats();
    assert!(warm_stats.key_tables_built >= 3, "{warm_stats:?}");
    assert!(warm_stats.bytes > cold_stats.bytes);

    for _ in 0..8 {
        let cold = staffing_kb().solve();
        assert_eq!(cold.index_stats(), cold_stats);
        let barrier = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (cold, barrier, queries, reference) = (&cold, &barrier, &queries, &reference);
                s.spawn(move || {
                    barrier.wait();
                    // The same order on every thread: each first bound
                    // lookup is contended.
                    for (i, q) in queries.iter().enumerate() {
                        let (want3, want_ans) = &reference[i];
                        assert_eq!(cold.ask3_prepared(q), *want3, "thread {t} query {i}");
                        assert_eq!(cold.answers_prepared(q), *want_ans, "thread {t} query {i}");
                    }
                });
            }
        });
        // Each table was built once, whoever got there first.
        assert_eq!(cold.index_stats(), warm_stats);
    }
}

#[test]
fn threads_can_prepare_their_own_queries() {
    let mut kb = staffing_kb();
    let model = kb.solve();
    let sources = Arc::new(query_sources());
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let model = Arc::clone(&model);
            let sources = Arc::clone(&sources);
            std::thread::spawn(move || {
                // Parsing + lowering against the frozen snapshot is &self
                // too — threads can prepare independently.
                let mut trues = 0usize;
                for src in sources.iter() {
                    let q = model.prepare(src).unwrap();
                    if model.ask_prepared(&q) {
                        trues += 1;
                    }
                }
                (t, trues)
            })
        })
        .collect();
    let counts: Vec<usize> = threads
        .into_iter()
        .map(|t| t.join().expect("thread panicked").1)
        .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}
