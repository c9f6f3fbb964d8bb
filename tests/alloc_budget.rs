//! Allocation budgets for the interning stores, the atom index, the
//! modular engine, the text frontend, a resumed solve and a scan.
//!
//! The stores keep every key in a few copy-on-write chunked pools, so that
//! cloning a universe (the façade's copy-on-write before each mutation,
//! and `solve_for`'s private copy) is a handful of allocations, re-deriving
//! something already interned allocates nothing, and an index is a
//! handful of arrays — its predicate rows; a key table comes with the
//! first read that binds an argument, and a ground ask reads none. The
//! engine evaluates every component in place, in reused buffers, and a cold
//! hand-off builds no occurrence row the engine does not read. The frontend
//! reads a fact as slices of
//! the source text and interns them in place. A solve resumed after a small
//! insert shares the previous model's chunks, copies the ones it writes and
//! works on the delta's forward cone only, and a goal-directed read of a
//! model that is already
//! solved touches none of it. A scan pushes its answers onto one flat array
//! and renders them into one buffer. A timing cannot pin that on a shared
//! host; a count of allocator calls — and of components evaluated — can,
//! exactly.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wfdatalog::chase::ChaseSegment;
use wfdatalog::core::AtomId;
use wfdatalog::core::{HeadTerm, RTerm, RuleAtom, SkolemRule, TermId, Universe, Var};
use wfdatalog::storage::{AtomIndex, GroundProgram, GroundProgramBuilder, GroundRule};
use wfdatalog::wfs::{EngineResult, ModularEngine};
use wfdatalog::KnowledgeBase;

thread_local! {
    // Per thread, so that tests running beside each other (and the test
    // harness itself) do not count into one another. `const` and without a
    // destructor: reading it from the allocator never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every call that obtains memory and the
/// bytes each obtains (a `realloc` obtains its whole new size).
struct Counting;

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Bytes the allocator calls `f` makes on this thread obtain.
fn bytes_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

const ATOMS: usize = 10_000;

const CONSTANTS: usize = 2_500;

/// The `i`-th of `ATOMS` distinct pairs of constants.
fn pair(i: usize) -> (usize, usize) {
    (i % CONSTANTS, i / 4)
}

/// A universe of `ATOMS` distinct atoms `edge(n_a, f(n_a, n_b))` over
/// `CONSTANTS` constants and `ATOMS` nulls: every store is populated.
fn populated() -> Universe {
    let mut u = Universe::new();
    let edge = u.pred("edge", 2).unwrap();
    let f = u.skolem_fn("f", 2).unwrap();
    for i in 0..ATOMS {
        let a = u.constant(&format!("n{}", pair(i).0));
        let b = u.constant(&format!("n{}", pair(i).1));
        let null = u.skolem_term_ref(f, &[a, b]).unwrap();
        u.atom(edge, [a, null]).unwrap();
    }
    assert_eq!(u.atoms.len(), ATOMS);
    u
}

#[test]
fn cloning_a_universe_is_a_handful_of_allocations() {
    let u = populated();
    let (copy, allocations) = allocations_in(|| u.clone());
    assert_eq!(copy.atoms.len(), u.atoms.len());
    assert!(
        allocations <= 32,
        "cloning a universe of {} atoms, {} terms and {} symbols took {allocations} allocations",
        u.atoms.len(),
        u.terms.len(),
        u.symbols.len()
    );
}

#[test]
fn re_interning_allocates_nothing() {
    let mut u = populated();
    let edge = u.lookup_pred("edge").unwrap();
    let f = u.lookup_skolem("f").unwrap();
    let names: Vec<String> = (0..CONSTANTS).map(|i| format!("n{i}")).collect();
    let atoms_before = u.atoms.len();

    let ((), allocations) = allocations_in(|| {
        for i in 0..ATOMS {
            let a = u.constant(&names[pair(i).0]);
            let b = u.constant(&names[pair(i).1]);
            let null = u.skolem_term_ref(f, &[a, b]).unwrap();
            assert_eq!(u.terms.lookup_skolem(f, &[a, b]), Some(null));
            let atom = u.atoms.intern_ref(edge, &[a, null]);
            assert_eq!(u.atoms.lookup(edge, &[a, null]), Some(atom));
        }
    });
    assert_eq!(
        u.atoms.len(),
        atoms_before,
        "everything was interned before"
    );
    assert_eq!(allocations, 0, "re-interning existing keys allocated");

    // The chase's head instantiation, Skolem terms included, through its
    // scratch-buffer entry point: a re-derivation allocates nothing.
    let x = Var::new(0);
    let y = Var::new(1);
    let rule = SkolemRule::new(
        &u,
        vec![RuleAtom::new(edge, vec![RTerm::Var(x), RTerm::Var(y)])],
        vec![],
        edge,
        vec![HeadTerm::Var(x), HeadTerm::Skolem(f, vec![x, y].into())],
    )
    .unwrap();
    let bindings: Vec<[TermId; 2]> = (0..100)
        .map(|i| [u.constant(&names[i]), u.constant(&names[i + 1])])
        .collect();
    let mut scratch = Vec::with_capacity(8);
    let first: Vec<_> = bindings
        .iter()
        .map(|b| rule.instantiate_head_into(&mut u, b, &mut scratch))
        .collect();
    let (again, allocations) = allocations_in(|| {
        let mut same = true;
        for (b, &head) in bindings.iter().zip(&first) {
            same &= rule.instantiate_head_into(&mut u, b, &mut scratch) == head;
        }
        same
    });
    assert!(again, "re-derived heads are the same atoms");
    assert_eq!(allocations, 0, "re-deriving existing heads allocated");
}

#[test]
fn building_an_index_is_a_handful_of_allocations() {
    let u = populated();
    let atoms: Vec<_> = u.atoms.ids().collect();
    let (index, allocations) = allocations_in(|| AtomIndex::build(&u, atoms.iter().copied()));
    assert_eq!(index.len(), atoms.len());
    assert!(
        allocations <= 8,
        "indexing {} atoms took {allocations} allocations",
        atoms.len()
    );
    // The arrays of a build are the predicate rows: the same number of
    // them over a sixteenth of the atoms — and so of the `(position,
    // term)` keys, which no build looks at.
    let few = &atoms[..atoms.len() / 16];
    let (small, of_small) = allocations_in(|| AtomIndex::build(&u, few.iter().copied()));
    assert_eq!((small.len(), of_small), (few.len(), allocations));
    assert_eq!(index.stats().key_tables_built, 0);
    // And from an iterator that cannot say how long it is, as the façade's
    // truth-value filters are.
    let (index, allocations) = allocations_in(|| {
        AtomIndex::build(&u, atoms.iter().copied().filter(|a| a.index() % 2 == 0))
    });
    assert_eq!(index.len(), atoms.len() / 2);
    assert!(
        allocations <= 32,
        "indexing {} filtered atoms took {allocations} allocations",
        index.len()
    );
}

/// `k` independent draws `a ← not b. b ← not a.` — `k` two-atom components
/// recursive through negation — over atom ids from `first` upwards.
fn negative_cycles(k: usize, first: usize) -> GroundProgram {
    let mut b = GroundProgramBuilder::new();
    for i in 0..k {
        let x = AtomId::from_index(first + 2 * i);
        let y = AtomId::from_index(first + 2 * i + 1);
        b.add_rule(GroundRule::new(x, vec![], vec![y]));
        b.add_rule(GroundRule::new(y, vec![], vec![x]));
    }
    b.finish()
}

#[test]
fn recursive_components_allocate_nothing() {
    // Allocator calls of one serial solve over `k` draws whose atoms start
    // at universe id `first`.
    let solve = |k: usize, first: usize| -> usize {
        let program = negative_cycles(k, first);
        let (result, allocations) = allocations_in(|| ModularEngine::new(&program).solve());
        let stats = result.stats.unwrap();
        assert_eq!(stats.recursive_components, k);
        assert_eq!(stats.unknown_atoms, 2 * k);
        allocations
    };
    // 64 times the components: the same arrays, only longer (a `Vec` that
    // grows by doubling accounts for the slack).
    let (small, large) = (solve(64, 0), solve(4_096, 0));
    assert!(
        large <= small + 64,
        "64 recursive components took {small} allocations, 4,096 took {large}"
    );
    // And a component costs what the component costs, not what the atom
    // universe around it does: 100,000 unrelated atoms interned first
    // change nothing.
    assert_eq!(solve(4_096, 100_000), large);
}

/// `k` fact statements `edge(n_a, n_b).` over the fixed pool of
/// `CONSTANTS` names, every fact distinct.
fn fact_text(k: usize) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    for i in 0..k {
        writeln!(text, "edge(n{}, n{}).", i % CONSTANTS, i / CONSTANTS).unwrap();
    }
    text
}

#[test]
fn loading_facts_allocates_nothing_per_fact() {
    // Allocator calls of one `load` of `k` facts into a fresh universe.
    let load = |k: usize| -> usize {
        let text = fact_text(k);
        let mut u = Universe::new();
        let (lowered, allocations) =
            allocations_in(|| wfdatalog::syntax::load(&mut u, &text).unwrap());
        assert_eq!(lowered.database.len(), k);
        allocations
    };
    // The text is scanned in place and its names are interned straight
    // from it: no token, no AST node and no argument vector per fact. What
    // is left grows with the *logarithm* of the fact count — the stores'
    // pools and tables and the database's vectors, doubling.
    let counts: Vec<usize> = [5_000, 10_000, 20_000, 40_000].map(load).to_vec();
    for pair in counts.windows(2) {
        assert!(
            pair[1] <= pair[0] + 32,
            "twice the facts took {} allocations, up from {} (all: {counts:?})",
            pair[1],
            pair[0]
        );
    }

    // The serving path's text entry point: a point ask is parsed from
    // slices of its text; only the prepared query's own shape is built.
    let mut u = Universe::new();
    wfdatalog::syntax::load(&mut u, &fact_text(1_000)).unwrap();
    let (query, allocations) =
        allocations_in(|| wfdatalog::syntax::prepare_query(&u, "?- edge(n1, n0).").unwrap());
    assert!(query.is_boolean());
    assert!(
        allocations <= 24,
        "preparing a point ask took {allocations} allocations"
    );
}

/// Example 4's existential chain over `seeds` seeds plus the wide-fanout
/// rules over `groups` groups, a quarter of them with the `flip ⇄ flop`
/// draw: independent cones, so a small insert reaches a small part.
fn chain_and_fanout(seeds: usize, groups: usize) -> String {
    use std::fmt::Write as _;
    let mut text = String::from(
        "r(X, Y, Z) -> r(X, Z, f(X, Y, Z)).
         r(X, Y, Z), p(X, Y), not q(Z) -> p(X, Z).
         r(X, Y, Z), not p(X, Y) -> q(Z).
         r(X, Y, Z), not p(X, Z) -> s(X).
         p(X, Y), not s(X) -> t(X).
         src(X), not excl(X) -> mid(X).
         mid(X) -> out(X).
         pick(X), not flop(X) -> flip(X).
         pick(X), not flip(X) -> flop(X).\n",
    );
    for i in 0..seeds {
        writeln!(text, "r(c{i}, c{i}, d{i}).\np(c{i}, c{i}).").unwrap();
    }
    for i in 0..groups {
        writeln!(text, "src(g{i}).").unwrap();
        if i % 4 == 0 {
            writeln!(text, "pick(g{i}).").unwrap();
        }
    }
    text
}

#[test]
fn a_small_insert_costs_what_it_touches() {
    // Ten facts — two chain seeds, four fanout groups, two of them picked —
    // into a solved knowledge base of `seeds` + `groups`; returns the
    // resumed solve's allocator calls with its atom and component counts.
    let resume = |seeds: usize, groups: usize| {
        let text = chain_and_fanout(seeds, groups);
        let mut kb = KnowledgeBase::from_source(&text).unwrap().with_depth(8);
        assert!(kb.solve().ask3("?- flip(g0).").unwrap().is_unknown());
        let delta = "r\tx0\tx0\ty0\np\tx0\tx0\nr\tx1\tx1\ty1\np\tx1\tx1\n\
                     src\th0\nsrc\th1\nsrc\th2\nsrc\th3\npick\th0\npick\th1\n";
        assert_eq!(kb.insert_tsv(delta).unwrap(), 10);
        let (model, allocations) = allocations_in(|| kb.solve());
        let stats = model.solve_stats();
        assert!(stats.incremental && model.outcome().truncation().is_some());
        assert!(model.ask("?- t(x1).").unwrap() && model.ask("?- out(h3).").unwrap());
        assert!(model.ask3("?- flop(h1).").unwrap().is_unknown());
        let atoms = model.model().ground.num_atoms();
        let components = stats.components_reused + stats.components_evaluated;
        (allocations, atoms, components, stats)
    };
    let (small, atoms, components, stats) = resume(512, 10_240);
    assert!(atoms >= 50_000, "{atoms} atoms");
    // The engine condensed and evaluated the delta's cone, not the program.
    assert!(stats.cone_atoms * 100 < atoms, "{stats:?} of {atoms} atoms");
    assert!(
        stats.components_evaluated * 100 < components,
        "{stats:?} of {components} components"
    );
    // Twice the knowledge base, the same delta: the same cone, and the same
    // flat arrays copied — only longer. Nothing is allocated per carried
    // atom, per inherited rule or per component.
    let (large, twice, _, stats_twice) = resume(1_024, 20_480);
    assert!(twice >= 100_000, "{twice} atoms");
    assert_eq!(stats_twice.cone_atoms, stats.cone_atoms);
    assert_eq!(stats_twice.components_evaluated, stats.components_evaluated);
    assert_eq!(
        large, small,
        "a 10-fact insert into {atoms} atoms took {small} allocations, into {twice} atoms {large}"
    );
}

/// Bytes a 10-fact chase resume obtained, and a resume and ground hand-off
/// together, on the parent of the copy-on-write arrays (every inherited
/// array copied once), measured with this file's allocator at
/// `chain_and_fanout(512, 10_240)` and at `(1_024, 20_480)`, resuming a
/// model that was itself resumed ([`resumed_twice`]).
const RESUME_BYTES_BEFORE: [usize; 2] = [4_636_447, 9_255_127];
const RESUME_AND_HAND_OFF_BYTES_BEFORE: [usize; 2] = [5_431_427, 10_835_835];

/// The chunked arrays of a chase segment (16) and of a ground program (7).
const CHUNKED_ARRAYS: usize = 23;

/// Ten facts — two chain seeds, four fanout groups, two of them picked —
/// named after `k`.
fn ten_facts(k: usize) -> String {
    format!(
        "r\tx{k}\tx{k}\ty{k}\np\tx{k}\tx{k}\nr\tz{k}\tz{k}\tw{k}\np\tz{k}\tz{k}\n\
         src\th{k}\nsrc\ti{k}\nsrc\tj{k}\nsrc\tk{k}\npick\th{k}\npick\ti{k}\n"
    )
}

/// A solved knowledge base of `seeds` + `groups` that took one 10-fact
/// ingest since its cold solve, and its model: what a served knowledge
/// base looks like after its first ingest.
fn resumed_twice(
    seeds: usize,
    groups: usize,
) -> (KnowledgeBase, std::sync::Arc<wfdatalog::SolvedModel>) {
    let text = chain_and_fanout(seeds, groups);
    let mut kb = KnowledgeBase::from_source(&text).unwrap().with_depth(8);
    kb.solve();
    assert_eq!(kb.insert_tsv(&ten_facts(0)).unwrap(), 10);
    let model = kb.solve();
    assert!(model.solve_stats().incremental);
    (kb, model)
}

/// A resume shares the chunks of the model it extends and copies only the
/// chunks it writes (the first resume after a cold solve copies what it
/// inherits once, as a flat array would; this measures the next one).
/// Twice the knowledge base, the same delta, the same bytes — up to one
/// chunk per array, where the delta's writes happen to land — and at most
/// a fifth of what copying every inherited array obtained, with the
/// hand-off too: its occurrence rows are edited where the new rules land.
#[test]
fn a_resume_copies_what_it_touches() {
    use wfdatalog::core::chunked::CHUNK;
    let resume = |seeds: usize, groups: usize| {
        let (kb, model) = resumed_twice(seeds, groups);
        let (segment, ground) = (&model.model().segment, &model.model().ground);
        assert!(
            segment.atoms().len() >= 30_000,
            "{} atoms",
            segment.atoms().len()
        );
        // The first resume counted the program's body rows; a resume of a
        // resumed model receives them edited.
        assert!(ground.rules_with_pos_local(0).len() <= ground.num_rules());
        let mut universe = kb.universe().clone();
        let batch = wfdatalog::fact_batch_from_separated(&mut universe, &ten_facts(1)).unwrap();
        assert_eq!(batch.len(), 10);
        let mut universes = [universe.clone(), universe];
        let mut resume =
            |k: usize| segment.resume_with(&mut universes[k], kb.sigma(), batch.atoms());
        let (resumed, chase) = bytes_in(|| resume(0).unwrap());
        assert!(resumed.atoms().len() > segment.atoms().len());
        let ((resumed, next), both) = bytes_in(|| {
            let resumed = resume(1).unwrap();
            let next = resumed.to_ground_program_from(ground);
            (resumed, next)
        });
        let owned = resumed.footprint().owned + next.footprint().owned;
        (chase, both, owned)
    };
    let runs = [resume(512, 10_240), resume(1_024, 20_480)];
    for ((chase, both, _), (chase_before, both_before)) in runs.iter().zip(
        RESUME_BYTES_BEFORE
            .iter()
            .zip(RESUME_AND_HAND_OFF_BYTES_BEFORE),
    ) {
        assert!(
            chase * 5 <= *chase_before,
            "a 10-fact resume obtained {chase} bytes, {chase_before} before"
        );
        assert!(
            both * 5 <= both_before,
            "a 10-fact resume and hand-off obtained {both} bytes, {both_before} before"
        );
    }
    // A chunk of the widest element any of the arrays holds.
    let chunk_bytes = CHUNK * 16;
    let [(small_chase, _, small_owned), (large_chase, _, large_owned)] = runs;
    assert!(
        large_chase.abs_diff(small_chase) <= CHUNKED_ARRAYS * chunk_bytes,
        "twice the knowledge base: the resume obtained {small_chase} then {large_chase} bytes"
    );
    assert!(
        large_owned.abs_diff(small_owned) <= CHUNKED_ARRAYS * chunk_bytes,
        "twice the knowledge base: the resume owns {small_owned} then {large_owned} bytes"
    );
}

/// The chunked arrays a resumed hand-off and engine write: the ground
/// program's seven arrays and three kinds of occurrence row, and the
/// engine's component of every atom, component rows and recursive flags.
const HAND_OFF_AND_ENGINE_ARRAYS: usize = 13;

/// A resumed hand-off and engine share what the model they extend holds —
/// the ground program's arrays and occurrence rows, the condensation and
/// the recursive flags — and copy only the chunks the delta's cone writes.
/// Twice the knowledge base, the same 10-fact delta: the bytes obtained
/// differ by at most one chunk per chunked array, plus exactly what the
/// flat one-byte arrays grow by — the verdicts by local id and the
/// interpretation by atom id, copied whole — and the fact bits.
#[test]
fn a_resumed_engine_copies_what_it_touches() {
    use wfdatalog::core::chunked::CHUNK;
    let run = |seeds: usize, groups: usize| {
        let (kb, model) = resumed_twice(seeds, groups);
        let m = model.model();
        let mut universe = kb.universe().clone();
        let batch = wfdatalog::fact_batch_from_separated(&mut universe, &ten_facts(1)).unwrap();
        let resumed = m
            .segment
            .resume_with(&mut universe, kb.sigma(), batch.atoms())
            .unwrap();
        let ((next, result), bytes) = bytes_in(|| {
            let next = resumed.to_ground_program_from(&m.ground);
            let result = ModularEngine::new(&next).solve_incremental(Some((&m.ground, &m.result)));
            (next, result)
        });
        let stats = result.stats.unwrap();
        assert!(stats.cone_atoms * 100 < next.num_atoms(), "{stats:?}");
        assert!(result.memo.is_some() && stats.components_reused > 0);
        (bytes, next.num_atoms(), next.atom_id_bound())
    };
    let (small, atoms, ids) = run(512, 10_240);
    let (large, atoms_twice, ids_twice) = run(1_024, 20_480);
    assert!(
        atoms_twice > atoms * 3 / 2,
        "{atoms} then {atoms_twice} atoms"
    );
    let truth = std::mem::size_of::<wfdatalog::Truth>();
    let words = |n: usize| n.div_ceil(64) * std::mem::size_of::<u64>();
    let flat = (atoms_twice - atoms) * truth + (ids_twice - ids) * truth + words(atoms_twice)
        - words(atoms);
    let chunks = HAND_OFF_AND_ENGINE_ARRAYS * CHUNK * 16;
    assert!(
        large.abs_diff(small + flat) <= chunks,
        "a 10-fact hand-off and engine obtained {small} bytes over {atoms} atoms, \
         {large} over {atoms_twice} (the flat arrays grew by {flat})"
    );
}

/// What the copy-on-write of a universe twice as large may obtain beyond
/// the smaller one's. Its chunk tables hold one entry per chunk, so they
/// grow with the program, and a pool's tail, copied whole, can end anywhere
/// in its last chunk; nothing else it copies depends on the program's size.
/// (A copy of the id tables would grow by more than a megabyte here.)
const UNIVERSE_COPY_SLACK: usize = 64 * 1024;

/// The copy-on-write of a universe a solve froze (the façade's, before each
/// mutation that follows a solve) copies its declarations, its chunk
/// tables, what was interned since it was last copied and its id tables'
/// owned levels; every pool chunk and every id table's base is shared.
/// Twice the knowledge base, the same delta: the copy obtains the same
/// bytes, up to the chunk tables' growth.
#[test]
fn a_frozen_universe_copy_on_write_does_not_grow_with_the_program() {
    let copy = |seeds: usize, groups: usize| {
        let (_kb, model) = resumed_twice(seeds, groups);
        let universe = model.universe();
        let held = universe.footprint();
        // What is neither chunked nor an id table: the declarations.
        let flat = universe.heap_bytes() - held.held;
        let (copy, bytes) = bytes_in(|| universe.clone());
        assert!(
            bytes <= flat + held.owned,
            "a clone of {} atoms obtained {bytes} bytes; declarations {flat}, \
             pools and tables {} ({} owned)",
            universe.atoms.len(),
            held.held,
            held.owned
        );
        // The copy shares nearly all of the universe.
        assert!(copy.footprint().shared() * 10 >= held.held * 9);
        (bytes, universe.atoms.len())
    };
    let (small, atoms) = copy(512, 10_240);
    let (large, atoms_twice) = copy(1_024, 20_480);

    assert!(
        atoms_twice > atoms * 3 / 2,
        "{atoms} then {atoms_twice} atoms"
    );
    assert!(
        large <= small + UNIVERSE_COPY_SLACK,
        "a copy of {atoms} atoms obtained {small} bytes, of {atoms_twice} atoms {large}"
    );
}

/// The atom store keeps one id table per predicate. A frozen universe
/// shares every table's base, so its copy-on-write copies the owned levels
/// of the tables a delta wrote since the freeze (two arrays each), beside
/// the handful of allocations any universe clone makes — not a table per
/// predicate.
#[test]
fn a_frozen_universe_copy_copies_only_the_tables_a_delta_touched() {
    const PREDS: usize = 64;
    const PER_PRED: usize = 1_000;
    const TOUCHED: usize = 3;
    let mut published = Universe::new();
    let names: Vec<TermId> = (0..PER_PRED)
        .map(|i| published.constant(&format!("c{i}")))
        .collect();
    let preds: Vec<_> = (0..PREDS)
        .map(|p| published.pred(&format!("p{p}"), 2).unwrap())
        .collect();
    for &pred in &preds {
        for (i, &c) in names.iter().enumerate() {
            published
                .atom(pred, [c, names[(i + 1) % PER_PRED]])
                .unwrap();
        }
    }
    // Published, then copied for the next mutation, as the façade does.
    published.freeze();
    let mut u = published.clone();
    // Ten new atoms over each of a few predicates: under an eighth of
    // their bases, so the freeze keeps them in the tables' owned levels.
    for &pred in &preds[..TOUCHED] {
        for (i, &c) in names.iter().enumerate().take(10) {
            u.atom(pred, [c, names[(i + 2) % PER_PRED]]).unwrap();
        }
    }
    u.freeze();
    assert_eq!(u.atoms.len(), PREDS * PER_PRED + TOUCHED * 10);

    let held = u.footprint();
    let flat = u.heap_bytes() - held.held;
    let ((copy, bytes), allocations) = allocations_in(|| bytes_in(|| u.clone()));
    assert_eq!(copy.atoms.len(), u.atoms.len());
    assert!(
        allocations <= 32 + 2 * TOUCHED,
        "a clone of {PREDS} predicates' tables, {TOUCHED} of them written since \
         the freeze, took {allocations} allocations"
    );
    assert!(
        bytes <= flat + held.owned,
        "a clone obtained {bytes} bytes; declarations {flat}, pools and tables {} ({} owned)",
        held.held,
        held.owned
    );
    assert!(copy.footprint().shared() * 10 >= held.held * 9);
    drop(published);
}

/// Bytes the cold hand-off and solve of `chain_and_fanout(512, 10_240)`
/// obtained while every program was built with its body occurrence rows
/// and the engine kept a rules-sized slot array, measured with this file's
/// allocator (the same in debug and release builds).
const COLD_HAND_OFF_BYTES_BEFORE: usize = 7_040_564;

/// A cold solve reads no body occurrence row: the hand-off counts the head
/// rows only, and the engine closes each component over rows of its own.
/// The first resume after it counts the previous program's body rows once
/// and hands the extension its spliced copy, so a second resume counts
/// nothing.
#[test]
fn a_cold_hand_off_counts_no_body_rows() {
    let text = chain_and_fanout(512, 10_240);
    let mut kb = KnowledgeBase::from_source(&text).unwrap().with_depth(8);
    let model = kb.solve();
    let segment = &model.model().segment;
    let ((ground, result), obtained) = bytes_in(|| {
        let ground = segment.to_ground_program();
        let result = ModularEngine::new(&ground).solve();
        (ground, result)
    });
    assert!(ground.num_atoms() >= 50_000, "{} atoms", ground.num_atoms());
    assert_eq!(result.stats, model.model().result.stats);
    assert!(
        obtained * 10 <= COLD_HAND_OFF_BYTES_BEFORE * 8,
        "the cold hand-off and solve of {} atoms obtained {obtained} bytes, {COLD_HAND_OFF_BYTES_BEFORE} before ({:.2}×)",
        ground.num_atoms(),
        obtained as f64 / COLD_HAND_OFF_BYTES_BEFORE as f64
    );

    // Two ten-fact resumes of the same shape, chained: chase, ground, engine.
    let mut universe = kb.universe().clone();
    let mut resume = |segment: &ChaseSegment, ground: &GroundProgram, result: &EngineResult, k| {
        let delta = format!(
            "r\tx{k}\tx{k}\ty{k}\np\tx{k}\tx{k}\nr\tz{k}\tz{k}\tw{k}\np\tz{k}\tz{k}\n\
             src\th{k}\nsrc\ti{k}\nsrc\tj{k}\nsrc\tk{k}\npick\th{k}\npick\ti{k}\n"
        );
        let batch = wfdatalog::fact_batch_from_separated(&mut universe, &delta).unwrap();
        assert_eq!(batch.len(), 10);
        bytes_in(|| {
            let segment = segment
                .resume_with(&mut universe, kb.sigma(), batch.atoms())
                .unwrap();
            let next = segment.to_ground_program_from(ground);
            let result = ModularEngine::new(&next).solve_incremental(Some((ground, result)));
            assert!(result.stats.unwrap().cone_atoms * 100 < next.num_atoms());
            (segment, next, result)
        })
    };
    let ((segment, ground, result), first) = resume(segment, &ground, &result, 0);
    let (_, second) = resume(&segment, &ground, &result, 1);
    assert!(
        second <= first,
        "the first resume after a cold solve obtained {first} bytes, the second {second}"
    );
}

/// A resumed hand-off feeds the delta's instances to the ground program
/// straight from the segment's arrays: no rule is boxed and nothing is
/// searched per rule, so 16× the delta costs at most a few more allocator
/// calls (the doubling of a row buffer), not 16× as many.
#[test]
fn a_resumed_hand_off_allocates_nothing_per_rule() {
    let text = chain_and_fanout(512, 10_240);
    let mut kb = KnowledgeBase::from_source(&text).unwrap().with_depth(8);
    let model = kb.solve();
    let (segment, ground) = (&model.model().segment, &model.model().ground);
    // The first resume counts the previous program's body rows once; that
    // count is not what is measured here.
    assert!(ground.rules_with_pos_local(0).len() <= ground.num_rules());
    let hand_off = |seeds: usize| {
        let mut universe = kb.universe().clone();
        let delta: String = (0..seeds)
            .map(|k| format!("r\tx{k}\tx{k}\ty{k}\np\tx{k}\tx{k}\n"))
            .collect();
        let batch = wfdatalog::fact_batch_from_separated(&mut universe, &delta).unwrap();
        let resumed = segment
            .resume_with(&mut universe, kb.sigma(), batch.atoms())
            .unwrap();
        let (next, calls) = allocations_in(|| resumed.to_ground_program_from(ground));
        (next.num_rules() - ground.num_rules(), calls)
    };
    let (few_rules, few) = hand_off(2);
    let (many_rules, many) = hand_off(32);
    assert_eq!(many_rules, 16 * few_rules);
    assert!(
        many <= few + 8,
        "grounding {few_rules} new rules took {few} allocator calls, {many_rules} took {many}"
    );
}

/// A ground ask is one probe of the universe's atom table and one verdict
/// read: it touches no index, so it builds none, and what it allocates —
/// the search's own small scratch vectors — does not know how large the
/// model is.
#[test]
fn ground_asks_read_no_index() {
    let asks = |seeds: usize, groups: usize| {
        let text = chain_and_fanout(seeds, groups);
        let mut kb = KnowledgeBase::from_source(&text).unwrap().with_depth(8);
        let model = kb.solve();
        // True, false, undefined and never-derived atoms, and joins whose
        // later atoms are ground by the time they are reached.
        let queries: Vec<_> = (0..1_000)
            .map(|i| {
                let g = i % 256;
                let text = match i % 5 {
                    0 => format!("?- out(g{g})."),
                    1 => format!("?- flip(g{g})."),
                    2 => format!("?- excl(g{g})."),
                    3 => format!("?- t(c{}).", i % 64),
                    _ => format!("?- src(g{g}), mid(g{g}), not excl(g{g})."),
                };
                model.prepare(&text).unwrap()
            })
            .collect();
        let before = model.index_stats();
        assert_eq!(before.key_tables_built, 0);
        let (verdicts, allocations) = allocations_in(|| {
            let mut verdicts = [0usize; 3];
            for q in &queries {
                verdicts[model.ask3_prepared(q) as usize] += 1;
            }
            verdicts
        });
        assert!(verdicts.iter().all(|&n| n > 0), "{verdicts:?}");
        assert_eq!(model.index_stats(), before, "a ground ask reads no index");
        assert_eq!(model.index_bytes(), before.bytes);
        // One argument bound, one free: that is what an index is for.
        assert!(!model.answers("?(Y) p(c0, Y).").unwrap().is_empty());
        let after = model.index_stats();
        assert_eq!(after.key_tables_built, 1);
        assert!(after.bytes > before.bytes);
        (allocations, verdicts, model.model().ground.num_atoms())
    };
    let (small, verdicts, atoms) = asks(64, 256);
    let (large, same_verdicts, many) = asks(1_024, 4_096);
    assert!(many >= 10 * atoms, "{atoms}, {many} atoms");
    assert_eq!(verdicts, same_verdicts);
    assert_eq!(
        large, small,
        "1,000 ground asks of {atoms} atoms took {small} allocations, of {many} atoms {large}"
    );
    assert!(small <= 4 * 1_000, "{small} allocations in 1,000 asks");
}

/// `solve_for` on a knowledge base whose full model is current solves
/// nothing: it prepares the query, computes the slice and wraps that model
/// — the same few allocations whatever the model's size.
#[test]
fn solve_for_on_a_solved_kb_costs_the_same_at_any_size() {
    let view = |seeds: usize, groups: usize| {
        let text = chain_and_fanout(seeds, groups);
        let mut kb = KnowledgeBase::from_source(&text).unwrap().with_depth(8);
        let full = kb.solve();
        let (view, allocations) = allocations_in(|| kb.solve_for("?- flip(g0).").unwrap());
        assert!(view.is_sliced() && !view.solve_stats().sliced);
        assert!(std::ptr::eq(view.model(), full.model()));
        assert!(view.ask3("?- flip(g0).").unwrap().is_unknown());
        (allocations, full.model().ground.num_atoms())
    };
    let (small, atoms) = view(512, 10_240);
    let (large, twice) = view(1_024, 20_480);
    assert!(
        atoms >= 50_000 && twice >= 2 * atoms - 100,
        "{atoms}, {twice} atoms"
    );
    assert_eq!(
        large, small,
        "solve_for over {atoms} solved atoms took {small} allocations, over {twice} atoms {large}"
    );
    assert!(small <= 64, "a view took {small} allocations");
}

/// A scan costs allocations per read, not per answer: its answers are one
/// flat array and its response body one buffer, each of which doubles its
/// way up. Ten times the answers: at most eight allocations more.
#[test]
fn a_scan_allocates_per_read_not_per_answer() {
    let scan = |n: usize| {
        let text: String = (0..n).map(|i| format!("p(c{i}).\n")).collect();
        let model = KnowledgeBase::from_source(&text).unwrap().solve();
        let q = model.prepare("?(X) p(X).").unwrap();
        let (answers, direct) = allocations_in(|| model.answers_prepared(&q));
        assert_eq!(answers.len(), n);
        let (body, served) = allocations_in(|| {
            wfdatalog::serve::query_response_body(&model, &["?(X) p(X)."]).unwrap()
        });
        assert_eq!(body.matches("[\"c").count(), n);
        (direct, served)
    };
    let (small, large) = (scan(1_000), scan(10_000));
    assert!(
        large.0 <= small.0 + 8,
        "1,000 answers took {} allocations, 10,000 took {}",
        small.0,
        large.0
    );
    assert!(
        large.1 <= small.1 + 8,
        "a body of 1,000 answers took {} allocations, of 10,000 {}",
        small.1,
        large.1
    );
}
