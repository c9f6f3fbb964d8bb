//! Integration tests for the HTTP serving tier (`wfdatalog::serve`).
//!
//! The load test exercises the tentpole guarantee: N client threads
//! query over HTTP **while** the writer thread ingests fact batches and
//! hot-swaps the model, and every response is bit-identical to what the
//! direct [`SolvedModel`] API renders for the epoch the request pinned.
//! Epochs are deterministic (one bump per solve that ran the engine), so
//! a replica knowledge base fed the same batches in the same order
//! yields the exact expected body for every epoch a client can observe.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wfdatalog::serve::{query_response_body, sliced_query_response_body, start, ServeOptions};
use wfdatalog::KnowledgeBase;

const PROGRAM: &str = "
    edge(a,b). edge(b,c).
    edge(X,Y), not win(Y) -> win(X).
";

/// The query batch every client sends; one query per line, as the
/// endpoint expects.
const QUERIES: [&str; 3] = ["?- win(a).", "?- win(b).", "?(X) win(X)."];

/// One-shot HTTP exchange: sends `request`, reads to EOF (the request
/// asks `Connection: close`), returns `(status, body)`.
fn exchange(addr: SocketAddr, request: &[u8]) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all(request).expect("send request");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("response is UTF-8");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a blank line");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    (status, body.to_owned())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, req.as_bytes())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let req = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    exchange(addr, req.as_bytes())
}

/// Extracts the epoch a response body reports (`{"epoch":N,…`).
fn body_epoch(body: &str) -> u64 {
    let rest = body
        .strip_prefix("{\"epoch\":")
        .unwrap_or_else(|| panic!("body has no epoch prefix: {body}"));
    rest.bytes()
        .take_while(u8::is_ascii_digit)
        .fold(0u64, |n, d| n * 10 + u64::from(d - b'0'))
}

/// Fact batches ingested during the churn test. Each adds new edges, so
/// every ingest actually re-solves and bumps the epoch.
fn churn_batches() -> Vec<String> {
    (0..6)
        .map(|i| format!("edge,m{i},n{i}\nedge,n{i},o{i}\nedge,o{i},m{i}\n"))
        .collect()
}

/// Expected `/query` bodies per epoch, computed through the **direct**
/// API on a replica knowledge base replaying the same ingest history.
fn expected_bodies(batches: &[String]) -> HashMap<u64, String> {
    let mut kb = KnowledgeBase::from_source(PROGRAM).expect("replica program");
    let mut expected = HashMap::new();
    let model = kb.solve();
    expected.insert(
        model.epoch(),
        query_response_body(&model, &QUERIES).expect("replica render"),
    );
    for batch in batches {
        kb.insert_tsv(batch).expect("replica ingest");
        let model = kb.solve();
        expected.insert(
            model.epoch(),
            query_response_body(&model, &QUERIES).expect("replica render"),
        );
    }
    expected
}

/// The tentpole: concurrent clients during ingestion churn, every
/// response bit-identical to the direct API for its pinned epoch, and a
/// graceful shutdown that drains cleanly.
#[test]
fn concurrent_queries_during_ingest_churn_match_direct_api() {
    let batches = churn_batches();
    let expected = Arc::new(expected_bodies(&batches));

    let kb = KnowledgeBase::from_source(PROGRAM).expect("program");
    let server = start(
        kb,
        ServeOptions {
            workers: 4,
            ..ServeOptions::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let (first_epoch, first_model) = server.pin_model();
    assert_eq!(
        expected[&first_epoch],
        query_response_body(&first_model, &QUERIES).expect("render"),
        "replica and served initial models must agree"
    );

    // N clients hammer /query (mixed with /healthz and /stats) while the
    // main thread drives ingests through the writer.
    let stop = Arc::new(AtomicBool::new(false));
    let responses = Arc::new(AtomicUsize::new(0));
    let query_body = QUERIES.join("\n");
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let expected = Arc::clone(&expected);
            let responses = Arc::clone(&responses);
            let query_body = query_body.clone();
            std::thread::spawn(move || {
                let mut rounds = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (status, body) = post(addr, "/query", &query_body);
                    assert_eq!(status, 200, "client {c}: {body}");
                    let epoch = body_epoch(&body);
                    let want = expected
                        .get(&epoch)
                        .unwrap_or_else(|| panic!("client {c}: unexpected epoch {epoch}"));
                    assert_eq!(&body, want, "client {c}: body diverges at epoch {epoch}");
                    responses.fetch_add(1, Ordering::Relaxed);
                    if rounds % 7 == 3 {
                        let (status, health) = get(addr, "/healthz");
                        assert_eq!(status, 200, "client {c}: {health}");
                        assert!(health.contains("\"status\":\"ok\""));
                    }
                    rounds += 1;
                }
            })
        })
        .collect();

    let mut last_epoch = first_epoch;
    for batch in &batches {
        let (status, body) = post(addr, "/ingest", batch);
        assert_eq!(status, 200, "ingest: {body}");
        assert!(body.contains("\"added\":3"), "all 3 facts are new: {body}");
        assert!(
            body.contains("\"incremental\":true"),
            "insert-only delta re-solves incrementally: {body}"
        );
        let epoch = server.pin_model().0;
        assert!(epoch > last_epoch, "each churn batch bumps the epoch");
        last_epoch = epoch;
    }

    // Let the clients observe the final model too, then wind down.
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for client in clients {
        client.join().expect("client thread");
    }
    assert!(
        responses.load(Ordering::Relaxed) >= 4,
        "every client answered at least once during churn"
    );

    // The final published epoch is the replica's final epoch: nothing
    // was lost or reordered across the writer thread.
    let (final_epoch, final_model) = server.pin_model();
    assert_eq!(final_epoch, last_epoch);
    assert_eq!(
        expected[&final_epoch],
        query_response_body(&final_model, &QUERIES).expect("render"),
    );

    // Graceful shutdown: drains, joins the writer, and stops listening.
    server.shutdown();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener is closed after shutdown"
    );
}

/// A query nested deep enough to overflow a recursive parser on a worker
/// thread's stack is a 400, and the server keeps serving.
#[test]
fn a_deeply_nested_query_is_a_400_and_the_server_survives() {
    let kb = KnowledgeBase::from_source(PROGRAM).expect("program");
    let server = start(kb, ServeOptions::default()).expect("server starts");
    let addr = server.addr();

    let depth = 30_000;
    let query = format!("?- win({}a{}).\n", "f(".repeat(depth), ")".repeat(depth));
    assert!(query.len() > 60_000);
    let (status, body) = post(addr, "/query", &query);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nested"), "{body}");

    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let (status, body) = post(addr, "/query", "?- win(a).\n");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn query_errors_report_real_positions() {
    let kb = KnowledgeBase::from_source(PROGRAM).expect("program");
    let server = start(kb, ServeOptions::default()).expect("server starts");
    let addr = server.addr();

    // Second query is malformed: the 400 body names it by index and
    // carries the parser's own line/column inside the query string.
    let (status, body) = post(addr, "/query", "?- win(a).\n?- win(\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"query\":2"), "{body}");
    assert!(body.contains("\"source\":\"?- win(\""), "{body}");
    assert!(body.contains("\"line\":1"), "{body}");
    assert!(body.contains("\"col\":8"), "{body}");

    // Malformed ingest lines carry their 1-based line number.
    let (status, body) = post(addr, "/ingest", "edge,x,y\nedge,,z\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"line\":2"), "{body}");

    // An empty query body is a 400, not a hang or a 200 with nothing.
    let (status, body) = post(addr, "/query", "\n# just a comment\n");
    assert_eq!(status, 400, "{body}");

    // Unknown routes and wrong methods answer without closing the server.
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/query");
    assert_eq!(status, 405);

    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    for key in [
        "\"epoch\":",
        "\"requests\":",
        "\"query_errors\":",
        "\"lint\":",
        "\"model\":",
        "\"universe_bytes\":",
        "\"index_bytes\":",
        "\"solve\":",
        "\"modular\":",
        "\"chase\":",
        "\"relaxations\":",
        "\"index\":{\"bytes\":",
        "\"preds\":",
    ] {
        assert!(body.contains(key), "stats body missing {key}: {body}");
    }
    // Only ground asks so far (`?- win(a).`): no key table of the index
    // has been built. A query binding one of `edge`'s two arguments
    // builds that predicate's, and only that one.
    assert!(body.contains("\"key_tables_built\":0}"), "{body}");
    let (status, answer) = post(addr, "/query", "?(Y) edge(a, Y).\n");
    assert_eq!(status, 200, "{answer}");
    let (_, body) = get(addr, "/stats");
    assert!(body.contains("\"key_tables_built\":1}"), "{body}");
    // The two-move chain is stratified: no component recursive through
    // negation, so no rules in one and no alternating rounds.
    assert!(body.contains("\"rules_in_recursive\":0,"), "{body}");
    assert!(body.contains("\"recursive_rounds\":0}"), "{body}");
    // The byte counts are real: a solved model's stores and index hold
    // something.
    for key in ["\"universe_bytes\":", "\"index_bytes\":"] {
        let digits: String = body[body.find(key).expect("checked above") + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        assert!(digits.parse::<u64>().expect("a number") > 0, "{key} {body}");
    }

    // A draw (p ⇄ q) is one: two rules, settled — as undefined — in the
    // first round.
    let (status, body) = post(addr, "/ingest", "edge,p,q\nedge,q,p\n");
    assert_eq!(status, 200, "{body}");
    let (_, body) = get(addr, "/stats");
    assert!(body.contains("\"recursive\":1,"), "{body}");
    assert!(body.contains("\"rules_in_recursive\":2,"), "{body}");
    assert!(body.contains("\"recursive_rounds\":1}"), "{body}");

    server.shutdown();
}

#[test]
fn lint_route_serves_the_analysis_and_tracks_ingests() {
    let kb = KnowledgeBase::from_source(PROGRAM).expect("program");
    let options = ServeOptions {
        program_name: "churn.dl".to_owned(),
        ..ServeOptions::default()
    };
    let server = start(kb, options).expect("server starts");
    let addr = server.addr();

    // The initial report: the program is recursive through negation
    // (win/edge), so W001 must be present, anchored at the served name.
    let (status, body) = get(addr, "/lint");
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("{\"file\":\"churn.dl\""), "{body}");
    assert!(body.contains("\"code\":\"W001\""), "{body}");
    assert!(body.contains("\"stratified\":false"), "{body}");

    // The report matches what the embedded analyzer renders for the same
    // knowledge base + EDB, byte for byte.
    let mut replica = KnowledgeBase::from_source(PROGRAM).expect("replica");
    assert_eq!(body, replica.analyze().to_json("churn.dl"));

    // Ingesting facts for a brand-new predicate changes the EDB-dependent
    // lints: `orphan` holds facts but nothing reads it → W003 appears.
    let (status, resp) = post(addr, "/ingest", "orphan,x\n");
    assert_eq!(status, 200, "{resp}");
    let (status, body) = get(addr, "/lint");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"code\":\"W003\""), "{body}");
    assert!(body.contains("orphan"), "{body}");

    // Wrong method on the route answers 405, not 404.
    let (status, _) = post(addr, "/lint", "");
    assert_eq!(status, 405);

    server.shutdown();
}

/// `POST /retract` is `/ingest` in reverse: the same body format through
/// the same writer thread, a from-scratch re-solve, a later epoch — and the
/// verdict the ingest flipped is back.
#[test]
fn retract_route_undoes_an_ingest_at_a_later_epoch() {
    let kb = KnowledgeBase::from_source(PROGRAM).expect("program");
    let server = start(kb, ServeOptions::default()).expect("server starts");
    let addr = server.addr();
    let win_c = |addr| {
        let (status, body) = post(addr, "/query", "?- win(c).\n");
        assert_eq!(status, 200, "{body}");
        (body_epoch(&body), body.contains("\"truth\":\"true\""))
    };

    // a → b → c: c cannot move, so it is lost.
    let (before, won) = win_c(addr);
    assert!(!won);

    // A move out of c into a dead end wins c; the re-solve is resumed.
    let (status, body) = post(addr, "/ingest", "edge,c,d\n");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"added\":1,"), "{body}");
    assert!(body.contains("\"incremental\":true,"), "{body}");
    for key in [
        "\"cone_atoms\":",
        "\"components_evaluated\":",
        "\"engine_ns\":",
    ] {
        assert!(body.contains(key), "ingest reply missing {key}: {body}");
    }
    let (ingested, won) = win_c(addr);
    assert!(won && ingested > before);

    // A malformed body is a 400 and applies nothing — not even its
    // well-formed first line.
    let (status, body) = post(addr, "/retract", "edge,c,d\nedge,,z\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"line\":2"), "{body}");
    assert_eq!(win_c(addr), (ingested, true));

    // Retracting the move (a fact that was never there is ignored)
    // recomputes from scratch and publishes the old verdict.
    let (status, body) = post(addr, "/retract", "edge,c,d\nedge,x,y\n");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"removed\":1,"), "{body}");
    assert!(body.contains("\"incremental\":false,"), "{body}");
    assert!(body.contains("\"outcome\":\"complete\""), "{body}");
    assert!(
        body.contains(&format!("\"epoch\":{},", ingested + 1)),
        "{body}"
    );
    assert_eq!(win_c(addr), (ingested + 1, false));

    // The route counts its requests and refuses other methods.
    let (_, stats) = get(addr, "/stats");
    assert!(
        stats.contains("\"retract\":2,\"retract_errors\":1,"),
        "{stats}"
    );
    let (status, _) = get(addr, "/retract");
    assert_eq!(status, 405);

    server.shutdown();
}

/// A batch that answers 400 leaves nothing behind, not even the names its
/// good lines interned: after it and a good batch, a query naming one of
/// them reads exactly as on a replica that never saw the bad batch —
/// unknown constant and all.
#[test]
fn a_rejected_ingest_leaves_no_name_behind() {
    let kb = KnowledgeBase::from_source(PROGRAM).expect("program");
    let server = start(kb, ServeOptions::default()).expect("server starts");
    let addr = server.addr();

    let (status, body) = post(addr, "/ingest", "edge,zz,a\nedge,,\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"line\":2"), "{body}");
    let (status, body) = post(addr, "/retract", "edge,zz,yy\nedge,a\n");
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(addr, "/ingest", "edge,c,d\n");
    assert_eq!(status, 200, "{body}");

    let mut replica = KnowledgeBase::from_source(PROGRAM).expect("replica program");
    replica.solve();
    replica.insert_tsv("edge,c,d\n").expect("replica ingest");
    let want = query_response_body(&replica.solve(), &["?- win(zz)."]).expect("render");
    assert!(want.contains("unknown constant `zz`"), "{want}");
    let (status, got) = post(addr, "/query", "?- win(zz).\n");
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, want);

    server.shutdown();
}

#[test]
fn short_circuited_queries_carry_warnings_naming_the_unknown_symbol() {
    let kb = KnowledgeBase::from_source(PROGRAM).expect("program");
    let server = start(kb, ServeOptions::default()).expect("server starts");
    let addr = server.addr();

    // `zebra` was never interned: the verdict short-circuits to false and
    // the result says why.
    let (status, body) = post(addr, "/query", "?- win(zebra).\n");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"truth\":\"false\""), "{body}");
    assert!(
        body.contains("\"warnings\":[\"unknown constant `zebra`\"]"),
        "{body}"
    );

    // Unknown predicate, non-boolean: empty answers + warning.
    let (status, body) = post(addr, "/query", "?(X) ghost(X).\n");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"answers\":[]"), "{body}");
    assert!(
        body.contains("\"warnings\":[\"unknown predicate `ghost`\"]"),
        "{body}"
    );

    // Fully-resolved queries keep the exact historical shape: no field.
    let (status, body) = post(addr, "/query", "?- win(a).\n");
    assert_eq!(status, 200, "{body}");
    assert!(!body.contains("\"warnings\""), "{body}");

    server.shutdown();
}

/// Two independent rule cones: sliced queries on one must never be
/// forced to evaluate the other.
const TWO_CONE_PROGRAM: &str = "
    edge(a,b). edge(b,c). pick(z).
    edge(X,Y), not win(Y) -> win(X).
    pick(X), not flop(X) -> flip(X).
    pick(X), not flip(X) -> flop(X).
";

#[test]
fn sliced_query_mode_matches_direct_api_and_tracks_ingests() {
    let kb = KnowledgeBase::from_source(TWO_CONE_PROGRAM).expect("program");
    let server = start(kb, ServeOptions::default()).expect("server starts");
    let addr = server.addr();

    // Sliced responses are bit-identical to the direct API on a replica.
    let sliced_queries = "?- win(b).\n?(X) win(X).\n";
    let (status, body) = post(addr, "/query?mode=sliced", sliced_queries);
    assert_eq!(status, 200, "{body}");
    let mut replica = KnowledgeBase::from_source(TWO_CONE_PROGRAM).expect("replica");
    replica.solve(); // the server full-solves at startup; mirror that
    let expected = sliced_query_response_body(&mut replica, &["?- win(b).", "?(X) win(X)."])
        .expect("replica render");
    assert_eq!(body, expected);
    // Every sliced result carries its slice stats: a proper subset of the
    // program (the flip/flop cone stayed out), answered from the model the
    // server solved at start — nothing was solved for it.
    assert!(
        body.contains(
            "\"slice\":{\"slice_components\":2,\"total_components\":4,\"components_reused\":2}"
        ),
        "{body}"
    );
    let (_, stats) = get(addr, "/stats");
    assert!(
        stats.contains(
            "\"query_errors\":0,\"sliced_solved\":0,\"sliced_from_model\":2,\"ingest\":0"
        ),
        "{stats}"
    );

    // The verdicts themselves agree with full mode for in-slice queries.
    let (status, full_body) = post(addr, "/query?mode=full", sliced_queries);
    assert_eq!(status, 200, "{full_body}");
    assert!(body.contains("\"truth\":\"true\""), "{body}");
    assert!(full_body.contains("\"truth\":\"true\""), "{full_body}");

    // An unknown mode is a 400 naming the option, not a silent fallback.
    let (status, err) = post(addr, "/query?mode=eager", "?- win(a).\n");
    assert_eq!(status, 400, "{err}");
    assert!(err.contains("mode=sliced"), "{err}");

    // Sliced queries observe ingested facts: the writer publishes the new
    // model before it acknowledges the ingest, and the sliced line answers
    // from the published model, so the new edge is visible.
    let (status, resp) = post(addr, "/ingest", "edge,c,d\n");
    assert_eq!(status, 200, "{resp}");
    let (status, body) = post(addr, "/query?mode=sliced", "?- win(c).\n");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"truth\":\"true\""), "{body}");

    // Out-of-slice is impossible by construction (the slice is computed
    // from the request's own goals), but a parse error in any line fails
    // the whole batch with a 400 — same contract as full mode.
    let (status, err) = post(addr, "/query?mode=sliced", "?- win(a).\n?- win(.\n");
    assert_eq!(status, 400, "{err}");

    server.shutdown();
}

/// The `sliced_solved` / `sliced_from_model` pair of a `/stats` body.
fn sliced_counters(addr: SocketAddr) -> String {
    let (status, stats) = get(addr, "/stats");
    assert_eq!(status, 200, "{stats}");
    let from = stats.find("\"sliced_solved\":").expect("sliced_solved");
    let to = stats.find(",\"ingest\":").expect("ingest");
    stats[from..to].to_owned()
}

/// The counters count lines *answered*: a batch that answers 400 answered
/// none, not even the well-formed lines before the malformed one.
#[test]
fn a_sliced_batch_that_answers_400_counts_no_line() {
    let kb = KnowledgeBase::from_source(TWO_CONE_PROGRAM).expect("program");
    let server = start(kb, ServeOptions::default()).expect("server starts");
    let addr = server.addr();
    let before = sliced_counters(addr);
    assert_eq!(before, "\"sliced_solved\":0,\"sliced_from_model\":0");
    let (status, err) = post(addr, "/query?mode=sliced", "?- win(a).\n?- win(.\n");
    assert_eq!(status, 400, "{err}");
    assert_eq!(sliced_counters(addr), before);
    server.shutdown();
}

/// A published model cut short by a budget serves no views: the batch goes
/// to the writer, which solves the line's slice — small enough to finish
/// where the whole program did not.
#[test]
fn a_tripped_model_sends_sliced_lines_to_the_writer_to_be_solved() {
    use wfdatalog::core::budget::{FaultKind, FaultPlan, FaultSite};
    use wfdatalog::SolveBudget;

    // The full program's ground condensation has seven components, the
    // `win` slice's five: a trip at ordinal 5 stops the full solve only.
    let tripped = || {
        let mut kb = KnowledgeBase::from_source(TWO_CONE_PROGRAM).expect("program");
        kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
            site: FaultSite::WfsComponent(5),
            kind: FaultKind::TripDeadline,
        }));
        kb
    };
    let server = start(tripped(), ServeOptions::default()).expect("server starts");
    let addr = server.addr();
    assert!(server.pin_model().1.outcome().is_budget_trip());

    // A malformed batch counts no line on this path either.
    let (status, err) = post(addr, "/query?mode=sliced", "?- win(a).\n?- win(.\n");
    assert_eq!(status, 400, "{err}");
    let (status, body) = post(addr, "/query?mode=sliced", "?(X) win(X).\n");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        sliced_counters(addr),
        "\"sliced_solved\":1,\"sliced_from_model\":0"
    );
    assert!(
        body.contains("\"components_reused\":0}"),
        "the slice was solved: {body}"
    );

    let mut replica = tripped();
    assert!(replica
        .try_solve()
        .expect("replica")
        .outcome()
        .is_budget_trip());
    let expected =
        sliced_query_response_body(&mut replica, &["?(X) win(X)."]).expect("replica render");
    assert_eq!(body, expected);
    let slice = replica.solve_for("?(X) win(X).").expect("cached slice");
    assert!(slice.solve_stats().sliced && slice.outcome().is_complete());

    server.shutdown();
}

/// A panic inside a sliced solve is a 500 in `/ingest`'s error shape, not a
/// 400 "malformed query" — and not an unwind that would take the writer
/// thread (which runs exactly this function) down with it: the same
/// knowledge base serves the next request as if nothing had happened.
#[test]
fn sliced_query_engine_panic_is_a_500_and_the_knowledge_base_survives() {
    use wfdatalog::core::budget::{FaultKind, FaultPlan, FaultSite};
    use wfdatalog::SolveBudget;

    let queries = ["?- win(b).", "?(X) win(X)."];
    // No full model to answer from, so the slice has to be solved.
    let mut kb = KnowledgeBase::from_source(TWO_CONE_PROGRAM).expect("program");
    kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
        site: FaultSite::ChaseRound(0),
        kind: FaultKind::Panic,
    }));
    let (status, body) =
        sliced_query_response_body(&mut kb, &queries).expect_err("the sliced solve panics");
    assert_eq!(status, 500);
    assert_eq!(
        body,
        "{\"error\":{\"message\":\"solve worker panicked: \
         injected fault: panic at ChaseRound(0)\"}}"
    );
    // A malformed query is still the caller's fault.
    let (status, _) = sliced_query_response_body(&mut kb, &["?- win(."]).expect_err("parse error");
    assert_eq!(status, 400);

    kb.set_solve_budget(SolveBudget::unlimited());
    let mut replica = KnowledgeBase::from_source(TWO_CONE_PROGRAM).expect("replica");
    assert_eq!(
        sliced_query_response_body(&mut kb, &queries).expect("served after the panic"),
        sliced_query_response_body(&mut replica, &queries).expect("replica render"),
    );
}
