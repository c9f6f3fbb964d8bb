use super::*;
use std::sync::Arc;

#[test]
fn quickstart_flow() {
    let mut kb = KnowledgeBase::from_source(
        r#"
        scientist(john).
        scientist(X) -> isAuthorOf(X, Y).
        "#,
    )
    .unwrap();
    let model = kb.solve();
    assert!(model.ask("?- isAuthorOf(john, X).").unwrap());
    assert!(!model.ask("?- isAuthorOf(X, john).").unwrap());
}

#[test]
fn add_source_accumulates_and_invalidates_cache() {
    let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
    let before = kb.solve();
    assert!(!before.ask("?- q(a).").unwrap());
    kb.add_source("p(X) -> q(X).").unwrap();
    let model = kb.solve();
    assert!(model.ask("?- q(a).").unwrap());
}

#[test]
fn repeated_solve_reuses_cached_artifacts() {
    let mut kb = KnowledgeBase::from_source("p(a). p(X) -> q(X).").unwrap();
    let m1 = kb.solve();
    let m2 = kb.solve();
    assert!(Arc::ptr_eq(&m1, &m2), "no mutation → cached model");
    // Different options recompute…
    let m3 = kb.solve_with(WfsOptions::depth(3));
    assert!(!Arc::ptr_eq(&m1, &m3));
    // …and the default options now miss the (single-entry) cache.
    let m4 = kb.solve();
    assert!(!Arc::ptr_eq(&m1, &m4));
    assert!(m4.ask("?- q(a).").unwrap());
}

#[test]
fn auto_budget_tracks_sources_added_after_builder_calls() {
    // The automatic budget is decided per solve, not at construction:
    // existential rules added later still trigger the depth-12 safety
    // default (an unbounded chase would not terminate here).
    let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
    assert_eq!(kb.effective_options().budget, ChaseBudget::unbounded());
    kb.add_source("p(X) -> q(X, Y). q(X, Y) -> p(Y).").unwrap();
    assert_eq!(kb.effective_options().budget, ChaseBudget::depth(12));
    let model = kb.solve();
    assert!(model.ask("?- q(a, Y).").unwrap());
}

#[test]
fn constraint_status_via_facade() {
    let mut kb = KnowledgeBase::from_source(
        r#"
        cat(tom).
        dog(tom).
        cat(X), dog(X) -> false.
        "#,
    )
    .unwrap();
    let model = kb.solve();
    assert_eq!(model.constraint_status(), &[Truth::True]);
}

#[test]
fn ask3_reports_unknown() {
    let mut kb = KnowledgeBase::from_source(
        r#"
        g(c).
        g(X), not p(X) -> p(X).
        "#,
    )
    .unwrap();
    let model = kb.solve();
    assert_eq!(model.ask3("?- p(c).").unwrap(), Truth::Unknown);
}

#[test]
fn prepared_queries_and_answer_all() {
    let mut kb = KnowledgeBase::from_source(
        r#"
        edge(a,b). edge(b,c). mark(a).
        "#,
    )
    .unwrap();
    let model = kb.solve();
    let q1 = model.prepare("?(X) edge(X, Y).").unwrap();
    let q2 = model.prepare("?(X) edge(X, Y), not mark(X).").unwrap();
    let q3 = model.prepare("?(X) edge(X, never_seen).").unwrap();
    let all = model.answer_all(&[q1.clone(), q2, q3]);
    assert_eq!(all[0].len(), 2);
    assert_eq!(all[1].len(), 1);
    assert!(all[2].is_empty(), "unknown constant → definitely empty");
    // Prepared evaluation agrees with the parse-per-call convenience.
    assert_eq!(
        model.answers("?(X) edge(X, Y).").unwrap(),
        model.answers_prepared(&q1)
    );
}

#[test]
fn unknown_constant_is_definite_not_error() {
    let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
    let model = kb.solve();
    assert!(!model.ask("?- p(zebra).").unwrap());
    assert_eq!(model.ask3("?- p(zebra).").unwrap(), Truth::False);
    // Negated unknown constants are certainly satisfied.
    assert!(model.ask("?- p(X), not p(zebra).").unwrap());
}

#[test]
fn source_queries_are_prepared() {
    let mut kb = KnowledgeBase::from_source("edge(a,b). ?- edge(a, X). ?(X) edge(X, Y).").unwrap();
    let model = kb.solve();
    assert_eq!(model.source_queries().len(), 2);
    assert!(model.ask_prepared(&model.source_queries()[0]));
    assert_eq!(model.answers_prepared(&model.source_queries()[1]).len(), 1);
}

#[test]
fn solved_model_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SolvedModel>();
    assert_send_sync::<KnowledgeBase>();
    assert_send_sync::<PreparedQuery>();
}

#[test]
fn prepare_errors_carry_real_source_positions() {
    let mut kb = KnowledgeBase::from_source("scientist(john).").unwrap();
    let model = kb.solve();
    let err = model.prepare("\n\n   scientist(ada).").unwrap_err();
    let Error::Syntax(e) = err else {
        panic!("expected a syntax error")
    };
    assert!(e.message.contains("expected a query"), "{e}");
    assert_eq!((e.pos.line, e.pos.col), (3, 4), "{e}");
}

// ---- typed ingestion + delta-aware re-solve --------------------------

#[test]
fn typed_insert_takes_incremental_path_and_agrees_with_scratch() {
    const RULES: &str = "edge(X,Y) -> reach(X,Y).
         reach(X,Y) -> covered(Y).
         node(X), not covered(X) -> isolated(X).";
    let mut kb = KnowledgeBase::from_source(RULES).unwrap();
    let mut base = FactBatch::new();
    {
        let mut edges = base.relation(kb.universe_mut(), "edge", 2).unwrap();
        edges.push(&["a", "b"]).unwrap();
        edges.push(&["b", "c"]).unwrap();
    }
    {
        let mut nodes = base.relation(kb.universe_mut(), "node", 1).unwrap();
        for n in ["a", "b", "c", "d"] {
            nodes.push(&[n]).unwrap();
        }
    }
    kb.insert(base).unwrap();
    let first = kb.solve();
    assert!(!first.solve_stats().incremental, "first solve is full");
    assert!(first.ask("?- isolated(d).").unwrap());

    let mut delta = FactBatch::new();
    delta
        .relation(kb.universe_mut(), "edge", 2)
        .unwrap()
        .push(&["c", "d"])
        .unwrap();
    kb.insert(delta).unwrap();
    let second = kb.solve();
    let stats = second.solve_stats();
    assert!(stats.incremental, "insert-only delta resumes");
    assert!(stats.components_reused > 0, "{stats:?}");
    assert!(second.ask("?- covered(d).").unwrap());
    assert!(!second.ask("?- isolated(d).").unwrap());

    // Bit-for-bit agreement with a from-scratch KB over the union.
    let mut scratch = KnowledgeBase::from_source(RULES).unwrap();
    let mut all = FactBatch::new();
    {
        let mut edges = all.relation(scratch.universe_mut(), "edge", 2).unwrap();
        for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
            edges.push(&[x, y]).unwrap();
        }
    }
    {
        let mut nodes = all.relation(scratch.universe_mut(), "node", 1).unwrap();
        for n in ["a", "b", "c", "d"] {
            nodes.push(&[n]).unwrap();
        }
    }
    scratch.insert(all).unwrap();
    let reference = scratch.solve();
    assert_eq!(reference.render_true(), second.render_true());
}

#[test]
fn rejected_batch_is_not_applied_halfway() {
    let mut kb = KnowledgeBase::from_source("p(X) -> q(X, Y). p(a).").unwrap();
    // Intern `p(b)` without inserting it: an id the database lacks.
    let mut stray = FactBatch::new();
    let pb = stray
        .relation(kb.universe_mut(), "p", 1)
        .unwrap()
        .push(&["b"])
        .unwrap();
    let full = kb.solve();
    let sliced = kb.solve_for("?- p(b).").unwrap();
    assert!(!full.ask("?- p(b).").unwrap() && !sliced.ask("?- p(b).").unwrap());
    let with_null = kb
        .universe()
        .atoms
        .ids()
        .find(|&a| !kb.universe().atom_is_constant_free_of_nulls(a))
        .expect("the chase interned q(a, null)");
    assert!(pb < with_null);

    // A batch built against ANOTHER universe: its ids 0..=with_null are
    // null-free facts over there; over here they run from database
    // facts through `p(b)` (new) to an atom with a null (rejected).
    let mut other = Universe::new();
    let mut foreign = FactBatch::new();
    {
        let mut rows = foreign.relation(&mut other, "r", 1).unwrap();
        for i in 0..=with_null.index() {
            rows.push(&[&format!("c{i}")]).unwrap();
        }
    }
    assert!(foreign.atoms().contains(&pb) && foreign.atoms().contains(&with_null));
    let facts_before = kb.database().len();
    let err = kb.insert(foreign).unwrap_err();
    assert!(
        matches!(err, Error::Core(wfdl_core::CoreError::NonGroundFact { .. })),
        "{err}"
    );
    // Nothing of it was applied, so every cache is still right.
    assert_eq!(kb.database().len(), facts_before);
    assert!(!kb.database().contains(pb));
    let full_after = kb.solve();
    let sliced_after = kb.solve_for("?- p(b).").unwrap();
    assert!(Arc::ptr_eq(&full, &full_after), "nothing changed: cached");
    assert_eq!(
        sliced_after.ask("?- p(b).").unwrap(),
        full_after.ask("?- p(b).").unwrap(),
        "solve_for and solve disagree after a rejected batch"
    );

    // An id this universe never issued is an error, not a panic.
    let beyond = kb.universe().atoms.len() + 3;
    let mut rows = FactBatch::new();
    {
        let mut writer = rows.relation(&mut other, "r", 1).unwrap();
        for i in 0..=beyond {
            writer.push(&[&format!("c{i}")]).unwrap();
        }
    }
    let mut out_of_range = FactBatch::new();
    out_of_range
        .push_atom(&other, AtomId::from_index(beyond))
        .unwrap();
    let err = kb.insert(out_of_range).unwrap_err();
    assert!(
        matches!(
            err,
            Error::Core(wfdl_core::CoreError::UnknownAtom { index, .. }) if index == beyond
        ),
        "{err}"
    );
    assert!(Arc::ptr_eq(&full, &kb.solve()));
}

#[test]
fn a_rejected_fact_batch_leaves_the_universe_as_it_was() {
    let mut kb =
        KnowledgeBase::from_source("move(a,b). move(b,c). move(X,Y), not win(Y) -> win(X).")
            .unwrap();
    let symbols = kb.universe().symbols.len();
    // No solved model shares the universe yet. The first line is good
    // and names a new predicate; the second is not.
    assert!(kb.insert_tsv("ghost,x\nmove,junk\n").is_err());
    assert_eq!(kb.universe().symbols.len(), symbols);
    assert_eq!(kb.universe().lookup_pred("ghost"), None);

    kb.solve();
    let (atoms, symbols) = (kb.universe().atoms.len(), kb.universe().symbols.len());
    let unchanged = |kb: &KnowledgeBase| {
        assert_eq!(kb.universe().atoms.len(), atoms);
        assert_eq!(kb.universe().symbols.len(), symbols);
        assert_eq!(kb.universe().lookup_constant("junk"), None);
        assert_eq!(kb.universe().lookup_pred("ghost"), None);
    };
    // The solved model shares it now: a new constant, then a bad line.
    assert!(kb.insert_tsv("move,junk,a\nmove,,\n").is_err());
    unchanged(&kb);
    // A retraction resolves names by lookup: unknown ones list nothing.
    let removed = kb.retract_from_reader("move,junk,a\nghost,x\nmove,a,zz\n".as_bytes());
    assert_eq!(removed.unwrap(), 0);
    unchanged(&kb);
    // And it reports the interning reader's errors, interning nothing.
    let err = kb.retract_from_reader("ghost,x\nghost,x,y\n".as_bytes());
    assert!(
        matches!(err, Err(Error::Syntax(ref e)) if e.pos.line == 2),
        "{err:?}"
    );
    assert!(kb.retract_from_reader("move,a\n".as_bytes()).is_err());
    unchanged(&kb);

    // A good batch still goes in, and still resumes the solve.
    assert_eq!(kb.insert_tsv("move,c,d\n").unwrap(), 1);
    assert_eq!(kb.universe().atoms.len(), atoms + 1, "move(c,d)");
    let model = kb.solve();
    assert!(model.solve_stats().incremental);
    assert!(model.ask("?- win(c).").unwrap());
    assert_eq!(kb.retract_from_reader("move,c,d\n".as_bytes()).unwrap(), 1);
    assert!(!kb.solve().ask("?- win(c).").unwrap());
}

#[test]
fn retraction_falls_back_to_full_recompute() {
    let mut kb = KnowledgeBase::from_source("p(a). p(b). p(X), not q(X) -> r(X).").unwrap();
    let first = kb.solve();
    assert!(first.ask("?- r(a).").unwrap());
    let mut batch = FactBatch::new();
    batch
        .relation(kb.universe_mut(), "p", 1)
        .unwrap()
        .push(&["a"])
        .unwrap();
    assert_eq!(kb.retract(batch), 1);
    let second = kb.solve();
    assert!(!second.solve_stats().incremental, "retraction → full");
    assert!(!second.ask("?- r(a).").unwrap());
    assert!(second.ask("?- r(b).").unwrap());
}

#[test]
fn retracting_a_foreign_batch_removes_only_stored_facts() {
    let mut kb = KnowledgeBase::from_source("p(a). p(b). p(X) -> q(X).").unwrap();
    kb.solve();
    let pa = kb.database().facts()[0];
    // A batch built against ANOTHER universe: its first id coincides
    // with the stored fact `p(a)`, its last is one this universe never
    // issued.
    let beyond = kb.universe().atoms.len() + 3;
    let mut other = Universe::new();
    {
        let mut rows = FactBatch::new();
        let mut writer = rows.relation(&mut other, "r", 1).unwrap();
        for i in 0..=beyond {
            writer.push(&[&format!("c{i}")]).unwrap();
        }
    }
    let mut foreign = FactBatch::new();
    foreign.push_atom(&other, pa).unwrap();
    foreign
        .push_atom(&other, AtomId::from_index(beyond))
        .unwrap();
    // Exactly the stored fact goes, and nothing panics.
    assert_eq!(kb.retract(foreign), 1);
    assert_eq!(kb.database().len(), 1);
    assert!(!kb.database().contains(pa));
    let model = kb.solve();
    assert!(!model.solve_stats().incremental, "retraction → full");
    assert!(!model.ask("?- q(a).").unwrap() && model.ask("?- q(b).").unwrap());
}

#[test]
fn rule_changes_fall_back_to_full_recompute() {
    let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
    kb.solve();
    kb.add_source("p(X) -> q(X).").unwrap();
    let model = kb.solve();
    assert!(!model.solve_stats().incremental);
    assert!(model.ask("?- q(a).").unwrap());
}

#[test]
fn facts_only_add_source_stays_incremental() {
    let mut kb = KnowledgeBase::from_source("p(X) -> q(X). p(a).").unwrap();
    kb.solve();
    kb.add_source("p(b).").unwrap();
    let model = kb.solve();
    assert!(model.solve_stats().incremental, "facts-only source text");
    assert!(model.ask("?- q(b).").unwrap());
}

#[test]
fn tsv_bulk_load_roundtrip() {
    let mut kb = KnowledgeBase::from_source("edge(X,Y) -> reach(X,Y).").unwrap();
    let added = kb
        .insert_tsv(
            "# comment line\n\
             edge\ta\tb\n\
             edge\tb\tc\n\
             \n\
             mark, a\n",
        )
        .unwrap();
    assert_eq!(added, 3);
    let model = kb.solve();
    assert!(model.ask("?- reach(a, b).").unwrap());
    assert!(model.ask("?- mark(a).").unwrap());
    // Arity mismatches carry the offending line number.
    let err = kb.insert_tsv("edge\ta\n").unwrap_err();
    let Error::Syntax(e) = err else {
        panic!("expected a positioned error")
    };
    assert!(e.message.contains("arity"), "{e}");
    assert_eq!(e.pos.line, 1);
}

#[test]
fn lookup_atom_distinguishes_miss_from_arity_bug() {
    let mut kb = KnowledgeBase::from_source("edge(a,b).").unwrap();
    let model = kb.solve();
    assert!(model.lookup_atom("edge", &["a", "b"]).unwrap().is_some());
    // Genuine misses: unknown predicate, unknown constant, or an
    // unmaterialized atom.
    assert!(model.lookup_atom("ghost", &["a"]).unwrap().is_none());
    assert!(model
        .lookup_atom("edge", &["a", "zebra"])
        .unwrap()
        .is_none());
    assert!(model.lookup_atom("edge", &["b", "a"]).unwrap().is_none());
    // Known predicate, wrong width: a schema bug, not a miss.
    let err = model.lookup_atom("edge", &["a"]).unwrap_err();
    let Error::Core(wfdl_core::CoreError::ArityMismatch { declared, used, .. }) = err else {
        panic!("expected an arity mismatch")
    };
    assert_eq!((declared, used), (2, 1));
}

#[test]
fn prepared_queries_survive_universe_growth_via_rebind() {
    let mut kb = KnowledgeBase::from_source("p(X) -> q(X). p(a).").unwrap();
    let first = kb.solve();
    // `b` is unknown at prepare time: definitely empty, shape retained.
    let stale = first.prepare("?- q(b).").unwrap();
    assert!(stale.is_definitely_empty());
    assert!(stale.needs_rebind());

    let mut delta = FactBatch::new();
    delta
        .relation(kb.universe_mut(), "p", 1)
        .unwrap()
        .push(&["b"])
        .unwrap();
    kb.insert(delta).unwrap();
    let second = kb.solve();
    assert!(second.solve_stats().incremental);
    // Un-rebound, the stale short-circuit still answers false…
    assert!(!second.ask_prepared(&stale));
    // …rebinding re-resolves the constant without re-parsing.
    let live = second.rebind(&stale).unwrap();
    assert!(second.ask_prepared(&live));
    // A fully-resolved query needs no rebind and evaluates unchanged
    // against the newer model (dense ids are stable).
    let qa = first.prepare("?- q(a).").unwrap();
    assert!(!qa.needs_rebind());
    assert!(second.ask_prepared(&second.rebind(&qa).unwrap()));
}

#[test]
fn queries_only_change_repackages_without_resolving() {
    let mut kb = KnowledgeBase::from_source("p(a). ?- p(a).").unwrap();
    let first = kb.solve();
    // New query text only: the model is provably unchanged, so the
    // new artifact shares it (and its indexes) instead of re-solving.
    kb.add_source("?- p(b).").unwrap();
    let second = kb.solve();
    assert!(!Arc::ptr_eq(&first, &second));
    assert_eq!(second.source_queries().len(), 2);
    assert!(
        std::ptr::eq(first.model(), second.model()),
        "underlying WellFoundedModel is shared, not recomputed"
    );
    assert!(second.ask_prepared(&second.source_queries()[0]));
    // The query's constant `b` was interned by `add_source`, so the
    // repackaged snapshot resolves it (to a definite miss).
    assert!(!second.ask_prepared(&second.source_queries()[1]));
    // A third solve with nothing new is a plain cache hit.
    let third = kb.solve();
    assert!(Arc::ptr_eq(&second, &third));
}
