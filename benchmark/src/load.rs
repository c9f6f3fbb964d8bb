//! The closed-loop load generator for the HTTP tier: point lookups, scans
//! and the ingest/read/sliced churn rounds, every response checked against
//! the oracle.
//!
//! A request that fails — non-200, I/O error, wrong answer, stale epoch —
//! is counted in [`Ops::failed`] and contributes **no** latency sample.

use crate::gen::{Query, Round};
use crate::http::Conn;
use crate::json::Json;
use crate::oracle::{check_response, response_epoch};
use crate::stats::Samples;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Discarded warm-up operations before each timed phase.
pub const WARMUP: usize = 2;

/// Operations attempted and failed so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Records one operation; returns whether it succeeded.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }
}

/// Sends `queries` as one `POST` to `path` (one query per line) and
/// checks the response against their oracles — or, with `judge` off, only
/// its status and shape. `Some(epoch)` iff the response passes.
fn read(
    conn: &mut Conn,
    path: &str,
    queries: &[Query],
    judge: bool,
    buffers: &mut (String, String),
) -> Option<u64> {
    let (payload, body) = buffers;
    payload.clear();
    for q in queries {
        payload.push_str(&q.text);
        payload.push('\n');
    }
    match conn.post(path, payload, body) {
        Ok(200) if judge => check_response(body, queries),
        Ok(200) => response_epoch(body, queries.len()),
        _ => None,
    }
}

/// Result of the point-lookup phase.
#[derive(Default)]
pub struct PointPhase {
    /// Per-request latency over all connections and repetitions.
    pub latency: Samples,
    /// Completed requests per second of each repetition.
    pub qps: Vec<f64>,
    pub ops: Ops,
}

/// Point lookups: `conns` keep-alive connections, each sending
/// `requests` single-query requests per repetition, `reps` repetitions,
/// after [`WARMUP`] untimed requests each. Connection `c` walks the pool
/// from its own offset, so the connections never ask the same thing at
/// the same time. Results are added to `phase`.
pub fn point_phase(
    addr: SocketAddr,
    pool: &[Query],
    conns: usize,
    requests: usize,
    reps: usize,
    phase: &mut PointPhase,
) {
    let barrier = Barrier::new(conns);
    let per_conn: Vec<Lookups> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (barrier, first) = (&barrier, c * pool.len() / conns);
                scope.spawn(move || point_connection(addr, pool, first, requests, reps, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    for rep in 0..reps {
        let start = per_conn.iter().map(|c| c.reps[rep].0).min();
        let end = per_conn.iter().map(|c| c.reps[rep].1).max();
        let done: u64 = per_conn.iter().map(|c| c.reps[rep].2).sum();
        if let (Some(start), Some(end)) = (start, end) {
            phase.qps.push(done as f64 / (end - start).as_secs_f64());
        }
    }
    for conn in per_conn {
        phase.latency.0.extend(conn.latency.0);
        phase.ops.add(conn.ops);
    }
}

/// What one connection of the point-lookup phase measured.
struct Lookups {
    latency: Samples,
    /// Start, end and completed requests of each repetition.
    reps: Vec<(Instant, Instant, u64)>,
    ops: Ops,
}

/// One connection's share of [`point_phase`], walking the pool from
/// entry `first`; repetitions start together on `barrier`.
fn point_connection(
    addr: SocketAddr,
    pool: &[Query],
    first: usize,
    requests: usize,
    reps: usize,
    barrier: &Barrier,
) -> Lookups {
    let mut out = Lookups {
        latency: Samples::default(),
        reps: Vec::with_capacity(reps),
        ops: Ops::default(),
    };
    let mut buffers = (String::new(), String::new());
    let mut conn = Conn::open(addr).ok();
    let mut next = first;
    // One lookup: whether it succeeded, and how long it took.
    let mut lookup = || {
        let query = std::slice::from_ref(&pool[next % pool.len()]);
        next += 1;
        let t0 = Instant::now();
        let ok = conn
            .as_mut()
            .and_then(|c| read(c, "/query", query, true, &mut buffers))
            .is_some();
        (ok, t0.elapsed())
    };
    for _ in 0..WARMUP {
        lookup();
    }
    for _ in 0..reps {
        barrier.wait();
        let start = Instant::now();
        let mut done = 0;
        for _ in 0..requests {
            let (ok, elapsed) = lookup();
            if out.ops.record(ok) {
                out.latency.push(elapsed);
                done += 1;
            }
        }
        out.reps.push((start, Instant::now(), done));
    }
    out
}

/// Scans: one connection, `count` requests of the one answer query after
/// [`WARMUP`] untimed ones. Latencies are added to `latency`.
pub fn scan_phase(
    addr: SocketAddr,
    scan: &Query,
    count: usize,
    latency: &mut Samples,
    ops: &mut Ops,
) {
    let mut buffers = (String::new(), String::new());
    let mut conn = Conn::open(addr).ok();
    let query = std::slice::from_ref(scan);
    for i in 0..WARMUP + count {
        let t0 = Instant::now();
        let ok = conn
            .as_mut()
            .and_then(|c| read(c, "/query", query, true, &mut buffers))
            .is_some();
        let elapsed = t0.elapsed();
        if i >= WARMUP && ops.record(ok) {
            latency.push(elapsed);
        }
    }
}

/// Latencies of the churn rounds.
#[derive(Default)]
pub struct ChurnPhase {
    pub ingest: Samples,
    /// The first read after each acknowledged ingest.
    pub first_read: Samples,
    /// The reads after the first one.
    pub warm_read: Samples,
    pub sliced: Samples,
    /// Resident set after each timed round, MiB.
    pub rss_mib: Vec<f64>,
    pub ops: Ops,
}

/// Posts one fact batch; `Some(epoch)` iff the server acknowledged exactly
/// the batch's facts as new.
fn ingest(conn: &mut Conn, round: &Round, body: &mut String) -> Option<u64> {
    match conn.post("/ingest", &round.ingest_csv, body) {
        Ok(200) => {
            let ack = Json::parse(body).ok()?;
            let added = ack.get("added")?.as_f64()? as usize;
            (added == round.facts).then_some(())?;
            ack.get("epoch")?.as_f64().map(|e| e as u64)
        }
        _ => None,
    }
}

/// Churn, phase A: one connection; per round one ingest, then the round's
/// reads, then one sliced query. The first `warmup` rounds are not timed.
/// A read must see the epoch its ingest was acknowledged at (or a later
/// one) *and* answer correctly about the batch's own constants. Results
/// are added to `phase`.
pub fn churn_phase(addr: SocketAddr, rounds: &[Round], warmup: usize, phase: &mut ChurnPhase) {
    let mut buffers = (String::new(), String::new());
    let Ok(mut conn) = Conn::open(addr) else {
        phase.ops.attempted += rounds.len() as u64;
        phase.ops.failed += rounds.len() as u64;
        return;
    };
    for (i, round) in rounds.iter().enumerate() {
        let timed = i >= warmup;
        let mut ops = Ops::default();
        let t0 = Instant::now();
        let acked = ingest(&mut conn, round, &mut buffers.1);
        let elapsed = t0.elapsed();
        if ops.record(acked.is_some()) && timed {
            phase.ingest.push(elapsed);
        }
        for (r, queries) in round.reads.iter().enumerate() {
            let t0 = Instant::now();
            let epoch = read(&mut conn, "/query", queries, true, &mut buffers);
            let elapsed = t0.elapsed();
            let fresh = matches!((epoch, acked), (Some(e), Some(a)) if e >= a);
            if ops.record(fresh) && timed {
                if r == 0 {
                    phase.first_read.push(elapsed);
                } else {
                    phase.warm_read.push(elapsed);
                }
            }
        }
        let t0 = Instant::now();
        let ok = read(
            &mut conn,
            "/query?mode=sliced",
            std::slice::from_ref(&round.sliced),
            true,
            &mut buffers,
        )
        .is_some();
        let elapsed = t0.elapsed();
        if ops.record(ok) && timed {
            phase.sliced.push(elapsed);
        }
        if timed {
            phase.ops.add(ops);
            phase.rss_mib.push(crate::stats::rss_mib());
        }
    }
}

/// Churn, phase B (diagnostic): the same ingests, while a second
/// connection reads the point pool continuously. These reads are checked
/// for status, shape and epoch only: an ingest may legitimately flip the
/// answer about an old constant (win–move), and which side of the swap a
/// concurrent read lands on is not the benchmark's to say. How many reads
/// fit beside the ingests varies from run to run, so the reader counts as
/// **one** operation — failed if any of its reads was — and
/// `ops.attempted` still repeats exactly.
#[derive(Default)]
pub struct ContendedChurn {
    pub ingest: Samples,
    pub read: Samples,
    pub read_qps: f64,
    /// Reads that started after an ingest was acknowledged and still
    /// answered from an older epoch.
    pub stale_reads: u64,
    pub ops: Ops,
}

pub fn contended_churn(addr: SocketAddr, rounds: &[Round], pool: &[Query]) -> ContendedChurn {
    let acked = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let mut out = ContendedChurn::default();
    let reader = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut latency = Samples::default();
            let mut ops = Ops::default();
            let mut stale = 0u64;
            let mut buffers = (String::new(), String::new());
            let mut conn = Conn::open(addr).ok();
            let start = Instant::now();
            let mut next = 0usize;
            while !done.load(Ordering::SeqCst) {
                let query = std::slice::from_ref(&pool[next % pool.len()]);
                next += 1;
                let floor = acked.load(Ordering::SeqCst);
                let t0 = Instant::now();
                let epoch = conn
                    .as_mut()
                    .and_then(|c| read(c, "/query", query, false, &mut buffers));
                let elapsed = t0.elapsed();
                let is_stale = epoch.is_some_and(|e| e < floor);
                stale += u64::from(is_stale);
                if ops.record(epoch.is_some() && !is_stale) {
                    latency.push(elapsed);
                }
                if conn.is_none() {
                    break;
                }
            }
            let qps = (ops.attempted - ops.failed) as f64 / start.elapsed().as_secs_f64();
            (latency, qps, stale, ops)
        });
        let mut body = String::new();
        match Conn::open(addr) {
            Ok(mut conn) => {
                for round in rounds {
                    let t0 = Instant::now();
                    let epoch = ingest(&mut conn, round, &mut body);
                    let elapsed = t0.elapsed();
                    if let Some(e) = epoch {
                        acked.store(e, Ordering::SeqCst);
                    }
                    if out.ops.record(epoch.is_some()) {
                        out.ingest.push(elapsed);
                    }
                }
            }
            Err(_) => {
                out.ops.attempted += rounds.len() as u64;
                out.ops.failed += rounds.len() as u64;
            }
        }
        done.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread panicked")
    });
    let (latency, qps, stale, reads) = reader;
    out.read = latency;
    out.read_qps = qps;
    out.stale_reads = stale;
    out.ops.record(reads.failed == 0);
    out
}
