//! HTTP serving-tier throughput: N keep-alive connections × M prepared
//! queries against a live `wfdatalog::serve` instance, quiet and under
//! ingestion churn.
//!
//! The serving tier exists for the same workload shape as the prepared
//! query path — *reason once, query many times* — but adds the transport
//! and the hot-swap machinery on top. This bench quantifies what that
//! costs and that it scales:
//!
//! * **serial roundtrips** — one connection, one query per request, quiet
//!   server: the end-to-end HTTP tax over the in-process prepared path
//!   (this is the gated leg: serial, machine-shape independent);
//! * **connection scaling** — N connections each sending the full batch
//!   concurrently (the `threads != 1` legs are skipped by the bench gate:
//!   they measure the runner's core count as much as the code);
//! * **ingestion churn** — 4 connections querying while `/ingest`
//!   batches drive incremental re-solves and model hot-swaps; reported as
//!   queries/sec (ungated: churn throughput is load-dependent by design).
//!
//! Output mirrors the other benches: human-readable medians on stdout,
//! machine-readable `BENCH_serve.json` (path override `WFDL_BENCH_JSON`,
//! sample count `WFDL_BENCH_SAMPLES`).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;
use wfdatalog::serve::{start, RunningServer, ServeOptions};
use wfdatalog::KnowledgeBase;
use wfdl_bench::timing::{fmt_ns, median, sample_count};

/// Length of the `edge` chain in the win/move program.
const CHAIN: usize = 512;
/// Requests per connection per sample (one query per request).
const BATCH: usize = 200;
/// Connection counts for the scaling legs.
const CONNS: [usize; 3] = [1, 2, 4];
/// Ingest batches driven during the churn leg.
const CHURN_INGESTS: usize = 8;

/// The win/move game on an `edge` chain: alternating verdicts, all three
/// truth values once the churn triangles (3-cycles → `unknown`) land.
fn program() -> String {
    let mut src = String::with_capacity(CHAIN * 16);
    for i in 0..CHAIN {
        let _ = writeln!(src, "edge(n{i},n{}).", i + 1);
    }
    src.push_str("edge(X,Y), not win(Y) -> win(X).\n");
    src
}

/// One persistent keep-alive connection speaking just enough HTTP/1.1.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Sends one POST and reads the (Content-Length framed) response.
    fn post(&mut self, path: &str, body: &str) -> (u16, String) {
        let req = format!(
            "POST {path} HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(req.as_bytes()).expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line).expect("header line");
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some(v) = trimmed
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = v.parse().expect("content-length value");
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8(body).expect("UTF-8 body"))
    }
}

fn start_server() -> RunningServer {
    let kb = KnowledgeBase::from_source(&program()).expect("program compiles");
    start(
        kb,
        ServeOptions {
            workers: 4,
            ..ServeOptions::default()
        },
    )
    .expect("server starts")
}

/// One batch: `BATCH` single-query requests over one connection,
/// returning elapsed nanoseconds and a fingerprint of the verdicts.
fn run_batch(addr: SocketAddr) -> (u64, usize) {
    let mut conn = Conn::open(addr);
    let start = Instant::now();
    let mut fingerprint = 0usize;
    for i in 0..BATCH {
        let query = format!("?- win(n{}).", i % CHAIN);
        let (status, body) = conn.post("/query", &query);
        assert_eq!(status, 200, "{body}");
        fingerprint += body.contains("\"truth\":\"true\"") as usize;
    }
    (start.elapsed().as_nanos() as u64, fingerprint)
}

fn main() {
    let samples = sample_count();
    let server = start_server();
    let addr = server.addr();

    // Warm-up: first contact faults the model's pages in.
    let (_, warm_fp) = run_batch(addr);

    // Connection-scaling legs on a quiet server (no ingests in flight).
    let mut legs: Vec<(usize, Vec<u64>)> = Vec::new();
    for &n in &CONNS {
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            let handles: Vec<_> = (0..n)
                .map(|_| std::thread::spawn(move || run_batch(addr)))
                .collect();
            for h in handles {
                let (_, fp) = h.join().expect("client thread");
                assert_eq!(fp, warm_fp, "quiet-server verdicts are stable");
            }
            times.push(t0.elapsed().as_nanos() as u64);
        }
        legs.push((n, times));
    }

    // Churn leg: 4 connections querying while ingests re-solve + swap.
    let churn_conns = 4usize;
    let churn_t0 = Instant::now();
    let clients: Vec<_> = (0..churn_conns)
        .map(|_| std::thread::spawn(move || run_batch(addr).0))
        .collect();
    let mut ingest = Conn::open(addr);
    for i in 0..CHURN_INGESTS {
        // A fresh 3-cycle per batch: new constants, so each ingest is an
        // insert-only delta that re-solves incrementally and hot-swaps.
        let batch = format!("edge,c{i}a,c{i}b\nedge,c{i}b,c{i}c\nedge,c{i}c,c{i}a\n");
        let (status, body) = ingest.post("/ingest", &batch);
        assert_eq!(status, 200, "{body}");
    }
    for c in clients {
        c.join().expect("churn client");
    }
    let churn_ns = churn_t0.elapsed().as_nanos() as u64;
    let churn_qps = (churn_conns * BATCH) as f64 / (churn_ns as f64 / 1e9);
    let final_epoch = server.pin_model().0;
    server.shutdown();

    // Report.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"workload\": \"winchain{CHAIN}_http\",");
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    json.push_str("  \"connections\": [\n");
    let mut qps1 = 0f64;
    for (i, (n, times)) in legs.iter().enumerate() {
        let m = median(times.clone());
        let qps = (*n * BATCH) as f64 / (m as f64 / 1e9);
        if *n == 1 {
            qps1 = qps;
        }
        let scaling = if qps1 > 0.0 { qps / qps1 } else { 0.0 };
        println!(
            "serve_load/connections{n}: median {} — {qps:.0} queries/sec ({scaling:.2}x vs 1 connection)",
            fmt_ns(m)
        );
        let _ = writeln!(
            json,
            "    {{\"threads\": {n}, \"median_ns\": {m}, \"queries_per_sec\": {qps:.0}, \"scaling\": {scaling:.2}}}{}",
            if i + 1 == legs.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    println!(
        "serve_load/churn: {} for {} requests across {churn_conns} connections + {CHURN_INGESTS} ingests — {churn_qps:.0} queries/sec, final epoch {final_epoch}",
        fmt_ns(churn_ns),
        churn_conns * BATCH
    );
    let _ = writeln!(
        json,
        "  \"churn\": {{\"connections\": {churn_conns}, \"requests\": {}, \"ingests\": {CHURN_INGESTS}, \"queries_per_sec\": {churn_qps:.0}, \"final_epoch\": {final_epoch}}}",
        churn_conns * BATCH
    );
    json.push_str("}\n");

    wfdl_bench::write_bench_json("BENCH_serve.json", &json);
}
