//! Seeded input generators for the four workloads, with the expected
//! answer of every query they emit.
//!
//! The generators live here and not in `wfdl-gen` so that a workload name
//! means one thing forever: a later change to the repository's generators
//! cannot silently resize a benchmark workload. Everything the program
//! under test receives is **text** (a `.dl` source, an ontology text, CSV
//! fact batches, query strings) made from the seed alone; the expected
//! answers come from closed forms over the same generator state (and, for
//! win–move, from [`crate::oracle::solve_game`]) — never from the program.

use crate::oracle::{solve_game, Verdict};
use std::fmt::Write as _;

/// SplitMix64: tiny, seedable, and good enough to draw workloads from.
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair; distinct streams of one
    /// seed are independent, so adding a draw to one generator never
    /// shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A seeded subset of `0..n` holding exactly `k` members, as a mask.
    pub fn subset(&mut self, n: usize, k: usize) -> Vec<bool> {
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        let mut mask = vec![false; n];
        for &i in &order[..k.min(n)] {
            mask[i] = true;
        }
        mask
    }
}

/// The four workloads. Names are part of the benchmark's contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ChainCold,
    WinmoveCold,
    EmploymentServe,
    MixedChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ChainCold,
        Workload::WinmoveCold,
        Workload::EmploymentServe,
        Workload::MixedChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainCold => "chain_cold",
            Workload::WinmoveCold => "winmove_cold",
            Workload::EmploymentServe => "employment_serve",
            Workload::MixedChurn => "mixed_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Chase depth the workload is solved at (`None` = unbounded: the
    /// program has no existentials).
    pub fn depth(self) -> Option<u32> {
        match self {
            Workload::ChainCold | Workload::MixedChurn => Some(8),
            Workload::EmploymentServe => Some(5),
            Workload::WinmoveCold => None,
        }
    }
}

/// What a query must answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Three-valued verdict of a Boolean query.
    Truth(Verdict),
    /// Certain answers of a unary answer query, as an order-independent
    /// digest (see [`AnswerDigest`]).
    Answers(AnswerDigest),
}

/// Tuple count plus the wrapping sum of each tuple's FNV-1a hash: equal
/// iff the answer sets are equal (up to a 2⁻⁶⁴ collision), whatever order
/// the program lists them in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnswerDigest {
    pub count: usize,
    pub sum: u64,
}

impl AnswerDigest {
    pub fn add(&mut self, constant: &str) {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in constant.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    pub fn of<S: AsRef<str>>(constants: impl IntoIterator<Item = S>) -> AnswerDigest {
        let mut d = AnswerDigest::default();
        for c in constants {
            d.add(c.as_ref());
        }
        d
    }
}

/// The digest of the constants `<prefix><i>` for the given `i`s.
fn digest_of(prefix: &str, members: impl IntoIterator<Item = usize>) -> AnswerDigest {
    AnswerDigest::of(members.into_iter().map(|i| format!("{prefix}{i}")))
}

/// The members of a mask that read `want`.
fn where_is(mask: &[bool], want: bool) -> impl Iterator<Item = usize> + '_ {
    (0..mask.len()).filter(move |&i| mask[i] == want)
}

/// One query with its expected answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    pub text: String,
    pub expect: Expect,
}

impl Query {
    fn ask(text: String, verdict: Verdict) -> Query {
        Query {
            text,
            expect: Expect::Truth(verdict),
        }
    }
}

/// How the program text enters the system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Program {
    /// One `.dl` text: facts, rules and the embedded queries.
    Datalog(String),
    /// A DL-Lite ontology text (TBox + ABox) plus the embedded queries as
    /// a separate `.dl` text (the ontology syntax has no query form).
    Ontology { text: String, queries: String },
}

/// One churn round: a fact batch, the reads that follow it, and one
/// goal-directed query. Every read asks about constants of this very
/// batch, so a stale model fails its oracle (read-your-writes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Round {
    pub ingest_csv: String,
    pub facts: usize,
    pub reads: Vec<Vec<Query>>,
    pub sliced: Query,
    /// What [`Inputs::scan`] must answer once this batch is in.
    pub scan_after: Expect,
    /// Entries of [`Inputs::points`] whose verdict this batch changes
    /// (only win–move's: a new move can turn an old position).
    pub flips: Vec<(usize, Verdict)>,
}

/// Everything one run of one workload feeds the program, plus the oracle's
/// expectations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    pub program: Program,
    /// Database facts in the program text.
    pub facts: usize,
    /// Expected answer of each embedded query, in source order.
    pub embedded: Vec<Expect>,
    /// Pool of single-query point lookups for the serve phase.
    pub points: Vec<Query>,
    /// The scan query of the serve phase.
    pub scan: Query,
    pub rounds: Vec<Round>,
}

impl Inputs {
    /// Moves the expectations of the serve-phase queries past churn round
    /// `round`: call once its batch has been acknowledged.
    pub fn advance_past(&mut self, round: usize) {
        let done = &self.rounds[round];
        self.scan.expect = done.scan_after.clone();
        for &(i, verdict) in &done.flips {
            self.points[i].expect = Expect::Truth(verdict);
        }
    }
}

/// Data sizes of one run. `div = 1` is the benchmark; `div = 64` the smoke
/// size used by `--smoke` and the tests.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub div: usize,
}

impl Scale {
    pub const FULL: Scale = Scale { div: 1 };
    pub const SMOKE: Scale = Scale { div: 64 };

    fn of(self, full: usize) -> usize {
        (full / self.div).max(4)
    }
}

/// Point asks embedded in every cold program and sent per churn read.
pub const ASKS: usize = 64;
/// Read requests after each ingest (the first is `first_read_s`).
pub const READS_PER_ROUND: usize = 8;
const POINT_POOL: usize = 4096;
/// A churn batch is this share of the base data (0.5 %).
const BATCH_SHARE: usize = 200;

const CHAIN_RULES: &str = "\
r(X, Y, Z) -> r(X, Z, f(X, Y, Z)).
r(X, Y, Z), p(X, Y), not q(Z) -> p(X, Z).
r(X, Y, Z), not p(X, Y) -> q(Z).
r(X, Y, Z), not p(X, Z) -> s(X).
p(X, Y), not s(X) -> t(X).
";

const FANOUT_RULES: &str = "\
src(X), not excl(X) -> mid(X).
mid(X) -> out(X).
pick(X), not flop(X) -> flip(X).
pick(X), not flip(X) -> flop(X).
";

const EXAMPLE2_TBOX: &str = "\
Person, Employed, not exists JobSeekerID < exists EmployeeID .
Person, not Employed, not exists EmployeeID < exists JobSeekerID .
exists EmployeeID-, not exists JobSeekerID- < ValidID .
";

/// Generates the inputs of `workload` for `seed`, with `rounds` churn
/// rounds. Same arguments, same bytes.
pub fn generate(workload: Workload, seed: u64, scale: Scale, rounds: usize) -> Inputs {
    match workload {
        Workload::ChainCold => chain(seed, scale, rounds),
        Workload::WinmoveCold => winmove(seed, scale, rounds),
        Workload::EmploymentServe => employment(seed, scale, rounds),
        Workload::MixedChurn => mixed(seed, scale, rounds),
    }
}

/// Splits `asks` into [`READS_PER_ROUND`] requests of [`ASKS`] each.
fn reads_of(mut ask: impl FnMut(usize) -> Query) -> Vec<Vec<Query>> {
    (0..READS_PER_ROUND)
        .map(|r| (0..ASKS).map(|i| ask(r * ASKS + i)).collect())
        .collect()
}

// ----------------------------------------------------------------------
// Example 4's chain
// ----------------------------------------------------------------------

/// The four point asks about chain seed `i`, by closed form: `p` holds
/// along the whole chain, so `q` and `s` fail and `t` holds.
fn chain_ask(i: usize, form: usize) -> Query {
    match form % 4 {
        0 => Query::ask(format!("?- t(c{i})."), Verdict::True),
        1 => Query::ask(format!("?- p(c{i}, d{i})."), Verdict::True),
        2 => Query::ask(format!("?- s(c{i})."), Verdict::False),
        _ => Query::ask(format!("?- q(d{i})."), Verdict::False),
    }
}

fn chain_facts(out: &mut String, i: usize) {
    let _ = writeln!(out, "r(c{i}, c{i}, d{i}).\np(c{i}, c{i}).");
}

fn chain_csv(out: &mut String, i: usize) {
    let _ = writeln!(out, "r,c{i},c{i},d{i}\np,c{i},c{i}");
}

fn chain(seed: u64, scale: Scale, rounds: usize) -> Inputs {
    let n = scale.of(4096);
    let batch = (n / BATCH_SHARE).max(2);
    let mut rng = Rng::new(seed, 1);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut text = String::with_capacity(n * 40);
    for &i in &order {
        chain_facts(&mut text, i);
    }
    text.push_str(CHAIN_RULES);
    text.push_str("?(X) t(X).\n?(X) s(X).\n");
    // Every seed's `t` holds, no `s` does.
    let mut holders = digest_of("c", 0..n);
    let scan = Query {
        text: "?(X) t(X).".to_owned(),
        expect: Expect::Answers(holders),
    };
    let mut embedded = vec![
        scan.expect.clone(),
        Expect::Answers(AnswerDigest::default()),
    ];
    for k in 0..ASKS {
        let q = chain_ask(rng.below(n), k);
        let _ = writeln!(text, "{}", q.text);
        embedded.push(q.expect);
    }
    let points = (0..POINT_POOL)
        .map(|k| match k % 10 {
            // Unknown-constant probes: definite `false` without a lookup.
            9 => Query::ask(format!("?- t(z{k})."), Verdict::False),
            m => chain_ask(rng.below(n), [0, 0, 0, 0, 1, 1, 1, 2, 2][m]),
        })
        .collect();
    let rounds = (0..rounds)
        .map(|r| {
            let first = n + r * batch;
            let mut csv = String::new();
            for i in first..first + batch {
                chain_csv(&mut csv, i);
                holders.add(&format!("c{i}"));
            }
            Round {
                ingest_csv: csv,
                facts: 2 * batch,
                // Even asks hit this batch's seeds, odd ones the base.
                reads: reads_of(|k| match k % 2 {
                    0 => chain_ask(first + rng.below(batch), k / 2),
                    _ => chain_ask(rng.below(n), k / 2),
                }),
                sliced: chain_ask(first, 0),
                scan_after: Expect::Answers(holders),
                flips: Vec::new(),
            }
        })
        .collect();
    Inputs {
        program: Program::Datalog(text),
        facts: 2 * n,
        embedded,
        points,
        scan,
        rounds,
    }
}

// ----------------------------------------------------------------------
// Win–move
// ----------------------------------------------------------------------

/// The board is a row of independent regions of `BLOCK` positions whose
/// last `TERMINALS` have no moves. Moves stay inside their region: verdicts
/// then average over a thousand small games instead of hinging on a few
/// late positions of one big one, so the won/lost/drawn shares — and the
/// solve time — barely move from seed to seed.
const BLOCK: usize = 50;
const TERMINALS: usize = 2;

/// A seeded non-terminal position of `range`.
fn draw_source(rng: &mut Rng, range: std::ops::Range<usize>) -> usize {
    loop {
        let a = range.start + rng.below(range.len());
        if a % BLOCK < BLOCK - TERMINALS {
            return a;
        }
    }
}

/// A game under construction: its moves, and the set of them so that no
/// move is drawn twice (the server must acknowledge every fact of a batch
/// as new).
#[derive(Default)]
struct Game {
    moves: Vec<(u32, u32)>,
    seen: std::collections::HashSet<(u32, u32)>,
}

impl Game {
    /// Adds one seeded move out of position `a`: 80 % lead to a
    /// higher-numbered position of the region, the rest anywhere in it —
    /// mostly a DAG, with enough back edges for draw cycles (all three
    /// truth values occur).
    fn add_move(&mut self, rng: &mut Rng, a: usize) -> (u32, u32) {
        let lo = a / BLOCK * BLOCK;
        let hi = lo + BLOCK;
        loop {
            let b = if a + 1 < hi && rng.below(10) < 8 {
                a + 1 + rng.below(hi - a - 1)
            } else {
                lo + rng.below(BLOCK)
            };
            let m = (a as u32, b as u32);
            if self.seen.insert(m) {
                self.moves.push(m);
                return m;
            }
        }
    }
}

fn win_ask(status: &[Verdict], i: usize) -> Query {
    Query::ask(format!("?- win(n{i})."), status[i])
}

fn won_digest(status: &[Verdict]) -> AnswerDigest {
    digest_of(
        "n",
        (0..status.len()).filter(|&i| status[i] == Verdict::True),
    )
}

fn winmove(seed: u64, scale: Scale, rounds: usize) -> Inputs {
    let n = scale.of(50_000).next_multiple_of(BLOCK);
    let batch_positions = (n / BATCH_SHARE).next_multiple_of(BLOCK);
    let mut rng = Rng::new(seed, 2);
    // Every non-terminal position moves at least once (few dead ends, so
    // draws survive); the rest of the 2n moves start anywhere.
    let mut game = Game::default();
    for a in (0..n).filter(|a| a % BLOCK < BLOCK - TERMINALS) {
        game.add_move(&mut rng, a);
    }
    while game.moves.len() < 2 * n {
        let a = draw_source(&mut rng, 0..n);
        game.add_move(&mut rng, a);
    }
    rng.shuffle(&mut game.moves);
    let mut text = String::with_capacity(game.moves.len() * 24);
    for &(a, b) in &game.moves {
        let _ = writeln!(text, "move(n{a}, n{b}).");
    }
    text.push_str("move(X, Y), not win(Y) -> win(X).\n?(X) win(X).\n");
    let status = solve_game(n, &game.moves);
    let mut embedded = vec![Expect::Answers(won_digest(&status))];
    for _ in 0..ASKS {
        let q = win_ask(&status, rng.below(n));
        let _ = writeln!(text, "{}", q.text);
        embedded.push(q.expect);
    }
    // Which position each pool entry asks about (`None`: an unknown
    // constant), to find the entries a later batch flips.
    let asked: Vec<Option<usize>> = (0..POINT_POOL)
        .map(|k| (k % 10 != 9).then(|| rng.below(n)))
        .collect();
    let points: Vec<Query> = asked
        .iter()
        .enumerate()
        .map(|(k, position)| match position {
            None => Query::ask(format!("?- win(z{k})."), Verdict::False),
            Some(i) => win_ask(&status, *i),
        })
        .collect();
    let scan = Query {
        text: "?(X) win(X).".to_owned(),
        expect: Expect::Answers(won_digest(&status)),
    };
    let mut before = status;
    let facts = game.moves.len();
    // Each batch opens new regions and adds moves out of their positions,
    // plus as many out of old positions (which may flip old verdicts — the
    // oracle re-solves the whole game after every batch).
    let mut size = n;
    let rounds = (0..rounds)
        .map(|_| {
            let first = size;
            size += batch_positions;
            let mut csv = String::new();
            // The sliced query asks about the first new position that
            // moves: a position without moves is an unknown constant, which
            // the program answers without solving anything.
            let mut mover = first;
            for k in 0..2 * batch_positions {
                let from = if k % 2 == 0 { first..size } else { 0..first };
                let a = draw_source(&mut rng, from);
                let (a, b) = game.add_move(&mut rng, a);
                let _ = writeln!(csv, "move,n{a},n{b}");
                if k == 0 {
                    mover = a as usize;
                }
            }
            let status = solve_game(size, &game.moves);
            let flips = asked
                .iter()
                .enumerate()
                .filter_map(|(k, position)| {
                    let i = (*position)?;
                    (status[i] != before[i]).then_some((k, status[i]))
                })
                .collect();
            let round = Round {
                ingest_csv: csv,
                facts: 2 * batch_positions,
                reads: reads_of(|k| match k % 2 {
                    0 => win_ask(&status, first + rng.below(batch_positions)),
                    _ => win_ask(&status, rng.below(first)),
                }),
                sliced: win_ask(&status, mover),
                scan_after: Expect::Answers(won_digest(&status)),
                flips,
            };
            before = status;
            round
        })
        .collect();
    Inputs {
        program: Program::Datalog(text),
        facts,
        embedded,
        points,
        scan,
        rounds,
    }
}

// ----------------------------------------------------------------------
// Example 2's employment ontology
// ----------------------------------------------------------------------

/// The asks about person `i`: employed persons get a (valid) employee id,
/// everyone else a job-seeker id.
fn employment_ask(employed: bool, i: usize, form: usize) -> Query {
    let yes = |b: bool| if b { Verdict::True } else { Verdict::False };
    match form % 3 {
        0 => Query::ask(format!("?- EmployeeID(per{i}, X)."), yes(employed)),
        1 => Query::ask(format!("?- JobSeekerID(per{i}, X)."), yes(!employed)),
        _ => Query::ask(
            format!("?- EmployeeID(per{i}, X), ValidID(X)."),
            yes(employed),
        ),
    }
}

fn employment(seed: u64, scale: Scale, rounds: usize) -> Inputs {
    let n = scale.of(16_384);
    let batch = (n / BATCH_SHARE).max(2);
    let mut rng = Rng::new(seed, 3);
    // Exactly half employed: the work is the same for every seed, only
    // who is employed changes.
    let mut employed = rng.subset(n, n / 2);
    let mut text = String::with_capacity(n * 24);
    text.push_str(EXAMPLE2_TBOX);
    for (i, &e) in employed.iter().enumerate() {
        let _ = writeln!(text, "Person(per{i}).");
        if e {
            let _ = writeln!(text, "Employed(per{i}).");
        }
    }
    let names = |mask: &[bool], want: bool| digest_of("per", where_is(mask, want));
    let scan_text = "?(X) Person(X), not Employed(X).";
    let mut queries = format!("{scan_text}\n?(X) EmployeeID(X, Y).\n");
    let mut embedded = vec![
        Expect::Answers(names(&employed, false)),
        Expect::Answers(names(&employed, true)),
    ];
    for k in 0..ASKS {
        let i = rng.below(n);
        let q = employment_ask(employed[i], i, k);
        let _ = writeln!(queries, "{}", q.text);
        embedded.push(q.expect);
    }
    let points = (0..POINT_POOL)
        .map(|k| match k % 10 {
            9 => Query::ask(format!("?- EmployeeID(z{k}, X)."), Verdict::False),
            m => {
                let i = rng.below(n);
                employment_ask(employed[i], i, [0, 0, 0, 0, 1, 1, 1, 2, 2][m])
            }
        })
        .collect();
    let scan = Query {
        text: scan_text.to_owned(),
        expect: Expect::Answers(names(&employed, false)),
    };
    let facts = n + n / 2;
    let mut seekers = names(&employed, false);
    let rounds = (0..rounds)
        .map(|_| {
            let first = employed.len();
            let mut csv = String::new();
            for k in 0..batch {
                let i = first + k;
                let _ = writeln!(csv, "Person,per{i}");
                // Every second newcomer is employed.
                employed.push(k % 2 == 0);
                if k % 2 == 0 {
                    let _ = writeln!(csv, "Employed,per{i}");
                } else {
                    seekers.add(&format!("per{i}"));
                }
            }
            let asks = |k: usize, i: usize| employment_ask(employed[i], i, k / 2);
            Round {
                ingest_csv: csv,
                facts: batch + batch.div_ceil(2),
                reads: reads_of(|k| match k % 2 {
                    0 => asks(k, first + rng.below(batch)),
                    _ => asks(k, rng.below(first)),
                }),
                sliced: employment_ask(true, first, 0),
                scan_after: Expect::Answers(seekers),
                flips: Vec::new(),
            }
        })
        .collect();
    Inputs {
        program: Program::Ontology { text, queries },
        facts,
        embedded,
        points,
        scan,
        rounds,
    }
}

// ----------------------------------------------------------------------
// Chain + fanout under one program
// ----------------------------------------------------------------------

/// The asks about fanout group `i`: `out` always holds, `flip`/`flop` sit
/// on a two-atom negative cycle exactly when the group is picked.
fn fanout_ask(picked: bool, i: usize, form: usize) -> Query {
    let cycle = if picked {
        Verdict::Unknown
    } else {
        Verdict::False
    };
    match form % 4 {
        0 => Query::ask(format!("?- out(g{i})."), Verdict::True),
        1 => Query::ask(format!("?- flip(g{i})."), cycle),
        2 => Query::ask(format!("?- flop(g{i})."), cycle),
        _ => Query::ask(format!("?- excl(g{i})."), Verdict::False),
    }
}

fn mixed(seed: u64, scale: Scale, rounds: usize) -> Inputs {
    let seeds = scale.of(2048);
    let groups = scale.of(32_768);
    let batch_seeds = (seeds / BATCH_SHARE).max(2);
    let batch_groups = (groups / BATCH_SHARE).max(4);
    let mut rng = Rng::new(seed, 4);
    let mut picked = rng.subset(groups, groups / 4);
    let mut order: Vec<usize> = (0..seeds).collect();
    rng.shuffle(&mut order);
    let mut text = String::with_capacity(seeds * 40 + groups * 24);
    for &i in &order {
        chain_facts(&mut text, i);
    }
    for (i, &p) in picked.iter().enumerate() {
        let _ = writeln!(text, "src(g{i}).");
        if p {
            let _ = writeln!(text, "pick(g{i}).");
        }
    }
    text.push_str(CHAIN_RULES);
    text.push_str(FANOUT_RULES);
    let scan_text = "?(X) src(X), not pick(X).";
    let unpicked = |mask: &[bool]| digest_of("g", where_is(mask, false));
    let _ = writeln!(text, "?(X) t(X).\n{scan_text}");
    let mut embedded = vec![
        Expect::Answers(digest_of("c", 0..seeds)),
        Expect::Answers(unpicked(&picked)),
    ];
    // Asks alternate between the two cones.
    let ask = |rng: &mut Rng, picked: &[bool], k: usize, seeds: usize, groups: usize| {
        if k % 2 == 0 {
            chain_ask(rng.below(seeds), k / 2)
        } else {
            let i = rng.below(groups);
            fanout_ask(picked[i], i, k / 2)
        }
    };
    for k in 0..ASKS {
        let q = ask(&mut rng, &picked, k, seeds, groups);
        let _ = writeln!(text, "{}", q.text);
        embedded.push(q.expect);
    }
    let points = (0..POINT_POOL)
        .map(|k| match k % 10 {
            9 => Query::ask(format!("?- out(z{k})."), Verdict::False),
            _ => ask(&mut rng, &picked, k, seeds, groups),
        })
        .collect();
    let scan = Query {
        text: scan_text.to_owned(),
        expect: Expect::Answers(unpicked(&picked)),
    };
    let facts = 2 * seeds + groups + groups / 4;
    let mut plain = unpicked(&picked);
    let mut next_seed = seeds;
    let rounds = (0..rounds)
        .map(|_| {
            let (first_seed, first_group) = (next_seed, picked.len());
            next_seed += batch_seeds;
            let mut csv = String::new();
            for i in first_seed..next_seed {
                chain_csv(&mut csv, i);
            }
            let mut facts = 2 * batch_seeds;
            for k in 0..batch_groups {
                let i = first_group + k;
                let _ = writeln!(csv, "src,g{i}");
                // Every fourth new group is picked, starting with the first.
                picked.push(k % 4 == 0);
                facts += 1;
                if k % 4 == 0 {
                    let _ = writeln!(csv, "pick,g{i}");
                    facts += 1;
                } else {
                    plain.add(&format!("g{i}"));
                }
            }
            Round {
                ingest_csv: csv,
                facts,
                // Asks cycle: new seed, new group, base seed, base group.
                reads: reads_of(|k| match k % 4 {
                    0 => chain_ask(first_seed + rng.below(batch_seeds), k / 4),
                    1 => {
                        let i = first_group + rng.below(batch_groups);
                        fanout_ask(picked[i], i, k / 4)
                    }
                    2 => chain_ask(rng.below(first_seed), k / 4),
                    _ => {
                        let i = rng.below(first_group);
                        fanout_ask(picked[i], i, k / 4)
                    }
                }),
                // The first new group is picked: its flip is undefined,
                // and only the pick/flip/flop cone is needed to say so.
                sliced: fanout_ask(true, first_group, 1),
                scan_after: Expect::Answers(plain),
                flips: Vec::new(),
            }
        })
        .collect();
    Inputs {
        program: Program::Datalog(text),
        facts,
        embedded,
        points,
        scan,
        rounds,
    }
}
