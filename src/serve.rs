//! # `wfdatalog::serve` — the HTTP serving tier
//!
//! The application layer of `wfdl serve`, built on the transport substrate
//! in [`wfdl_serve`]: load a knowledge base, solve once, and serve
//! prepared-query traffic from a shared [`Arc<SolvedModel>`] while fact
//! ingestion hot-swaps the model underneath.
//!
//! ## Endpoints
//!
//! | Route           | Meaning |
//! |-----------------|---------|
//! | `GET /healthz`  | liveness + the currently published model epoch |
//! | `POST /query`   | one query per body line → prepared evaluation against **one** pinned snapshot; malformed queries answer 400 with their real source positions. `POST /query?mode=sliced` answers goal-directedly instead (below) |
//! | `POST /ingest`  | TSV/CSV fact batch (the `--facts` format) → typed insert + incremental re-solve on the writer thread → atomic hot-swap; 400 on a malformed body, nothing applied — no fact, and no name interned |
//! | `POST /retract` | the same body format → retraction of the listed facts (names looked up, never interned) + re-solve **from scratch** on the writer thread → atomic hot-swap; reply `{"removed", "epoch", "incremental": false, …, "outcome"}` — `/ingest`'s reply with `removed` for `added`; 400 on a malformed body, nothing applied |
//! | `GET /lint`     | the static-analysis report for the served program (`wfdatalog::analysis` JSON), recomputed with the model on every ingest — EDB changes flip the data-dependent lints |
//! | `GET /stats`    | solve/modular/chase statistics, model shape, epoch, request counters |
//!
//! ## Threading model
//!
//! Worker threads (the [`wfdl_serve`] pool) are pure readers: a request
//! pins exactly one `(epoch, Arc<SolvedModel>)` pair out of the
//! [`EpochSlot`] — one mutex acquisition for an `Arc` clone — and never
//! touches the [`KnowledgeBase`] again. All mutation is serialized on one
//! dedicated **writer thread** owning the `KnowledgeBase`: `/ingest`
//! requests queue typed fact batches to it (bounded channel =
//! backpressure), the writer inserts, re-solves (incrementally — the
//! façade resumes the chase, carries the previous model over and evaluates
//! only the delta's forward cone), publishes the new model with its bumped
//! [`SolvedModel::epoch`], and only then acknowledges the request.
//! `/retract` takes the same path with a retraction that looks the body's
//! names up and interns none (then [`KnowledgeBase::retract`]), after
//! which the solve recomputes in full. Readers never block on the writer;
//! a solve in progress steals no lock the readers need. The writer only
//! writes: the one read it ever serves is a `mode=sliced` line whose slice
//! must actually be solved (below).
//!
//! Per-re-solve deadlines reuse the solve-budget machinery
//! ([`SolveBudget`]): a deadline-tripped re-solve still publishes — as a
//! sound under-approximation whose outcome the `/ingest` response and
//! `/stats` report — and the next ingest resumes the chase from where it
//! stopped.
//!
//! ## `mode=sliced`
//!
//! `POST /query?mode=sliced` answers each body line from the model of the
//! query-relevant program slice, guarded at the slice's boundary, instead
//! of the published full model: bit-identical answers. A request pins one
//! published model for the whole batch, as plain `/query` does. The writer
//! full-solves at start and after every ingest or retraction, so that model
//! is normally complete, and then it answers every slice of itself:
//! each line is a [view](SolvedModel::view_for) of it, built and evaluated
//! **on the reader thread** — a prepare, a slice computation and an
//! evaluation (`components_reused` = `slice_components` in the result's
//! `"slice"` object, `sliced_from_model` in `/stats`). The line answers
//! against the published snapshot, the one a plain `/query` line reads:
//! it reflects every ingest acknowledged before it (the writer publishes
//! before it acknowledges), and it does not wait for ingests still queued.
//!
//! Only when the pinned model was cut short — a re-solve deadline tripped,
//! the chase hit an atom or instance cap — does the batch go to the
//! **writer thread**, behind any queued ingests, where
//! [`KnowledgeBase::solve_for`] solves each line's slice from nothing under
//! the same fresh deadline window (`components_reused` = 0,
//! `sliced_solved`; a repeated query with unchanged data is answered from
//! that solve's cache): a slice can be small enough to finish where the
//! whole program was not. Either way the response shape is the plain
//! `/query` response with the `"slice"` object appended per result, and
//! the two counters count the lines of batches that answered 200 only.
//!
//! ## `/stats` schema
//!
//! See `crates/serve/src/README.md` for the field-by-field schema of the
//! `/stats` JSON document (`epoch`, `uptime_ms`, `requests`, `model`,
//! `solve`, `modular`, `chase`, `index`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wfdl_core::json::push_json_str;
use wfdl_core::TermNode;
use wfdl_serve::{App, EpochSlot, Method, Request, Response, Server, ServerConfig, Stopper};

use crate::{Error, KnowledgeBase, SolveBudget, SolvedModel};

/// Configuration for [`start`]. `Default` binds an ephemeral localhost
/// port with 4 workers and no re-solve deadline.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` = ephemeral port).
    pub addr: String,
    /// HTTP worker threads.
    pub workers: usize,
    /// Wall-clock budget for each ingest-triggered re-solve (and the
    /// initial solve). `None` = unlimited.
    pub resolve_deadline: Option<Duration>,
    /// Per-request body limit in bytes (queries and fact batches).
    pub max_body_bytes: usize,
    /// Socket read timeout (bounds idle keep-alive connections and the
    /// graceful-drain tail).
    pub read_timeout: Duration,
    /// Bound of the ingest queue between HTTP workers and the writer
    /// thread.
    pub ingest_queue: usize,
    /// Program name used as the `"file"` anchor in the `/lint` report
    /// (purely cosmetic; `wfdl serve` passes the program path).
    pub program_name: String,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            resolve_deadline: None,
            max_body_bytes: 64 * 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            ingest_queue: 16,
            program_name: "<program>".to_owned(),
        }
    }
}

/// Per-endpoint request counters, surfaced by `/stats`.
#[derive(Debug, Default)]
struct Counters {
    healthz: AtomicU64,
    query: AtomicU64,
    query_errors: AtomicU64,
    /// Query lines of answered (200) `mode=sliced` batches answered by a
    /// solved slice (just solved, or that solve's cached model)…
    sliced_solved: AtomicU64,
    /// …and by a view of the full model, with nothing solved.
    sliced_from_model: AtomicU64,
    ingest: AtomicU64,
    ingest_errors: AtomicU64,
    retract: AtomicU64,
    retract_errors: AtomicU64,
    lint: AtomicU64,
    stats: AtomicU64,
    other: AtomicU64,
}

/// What a fact-batch body does to the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FactOp {
    /// `POST /ingest`: insert the facts.
    Insert,
    /// `POST /retract`: remove them.
    Retract,
}

/// One unit of work for the writer thread, which owns the
/// [`KnowledgeBase`]: a fact ingestion or retraction, or a goal-directed
/// query batch whose pinned model cannot serve views (`POST
/// /query?mode=sliced` — sliced solves need `&mut KnowledgeBase`, so they
/// serialize with ingests instead of racing them).
enum WriterJob {
    /// Raw fact-batch body; acknowledged once the new model is published.
    Facts {
        op: FactOp,
        body: Vec<u8>,
        reply: SyncSender<Response>,
    },
    /// Query sources for a goal-directed (sliced) evaluation.
    SlicedQuery {
        queries: Vec<String>,
        reply: SyncSender<Response>,
    },
}

/// The wfdl application: routes requests against the published model.
struct WfdlApp {
    slot: EpochSlot<SolvedModel>,
    /// Pre-rendered `/lint` JSON, republished by the writer thread next to
    /// every model swap (the EDB participates in the data-dependent lints,
    /// so an ingest can change the report). Readers only clone an `Arc`.
    lint: EpochSlot<String>,
    /// Writer entry (ingests + sliced queries that need a solve): `None`
    /// once shutdown began (both answer 503).
    writer: Mutex<Option<SyncSender<WriterJob>>>,
    writer_join: Mutex<Option<JoinHandle<()>>>,
    counters: Counters,
    started: Instant,
}

impl App for WfdlApp {
    fn handle(&self, req: &Request) -> Response {
        // Ignore any query string; routes are exact paths.
        let path = req.path.split('?').next().unwrap_or("");
        match (req.method, path) {
            (Method::Get, "/healthz") => {
                self.counters.healthz.fetch_add(1, Ordering::Relaxed);
                let (epoch, _) = self.slot.load();
                Response::json(200, format!("{{\"status\":\"ok\",\"epoch\":{epoch}}}"))
            }
            (Method::Post, "/query") => {
                self.counters.query.fetch_add(1, Ordering::Relaxed);
                let resp = match req.path.split('?').nth(1) {
                    None | Some("") | Some("mode=full") => self.query(&req.body),
                    Some("mode=sliced") => self.sliced_query(&req.body),
                    Some(other) => Response::json(
                        400,
                        error_body(
                            &format!("unknown query option `{other}` (try `mode=sliced`)"),
                            None,
                        ),
                    ),
                };
                if resp.status != 200 {
                    self.counters.query_errors.fetch_add(1, Ordering::Relaxed);
                }
                resp
            }
            (Method::Post, "/ingest") => {
                self.counters.ingest.fetch_add(1, Ordering::Relaxed);
                let resp = self.apply_facts(FactOp::Insert, &req.body);
                if resp.status != 200 {
                    self.counters.ingest_errors.fetch_add(1, Ordering::Relaxed);
                }
                resp
            }
            (Method::Post, "/retract") => {
                self.counters.retract.fetch_add(1, Ordering::Relaxed);
                let resp = self.apply_facts(FactOp::Retract, &req.body);
                if resp.status != 200 {
                    self.counters.retract_errors.fetch_add(1, Ordering::Relaxed);
                }
                resp
            }
            (Method::Get, "/lint") => {
                self.counters.lint.fetch_add(1, Ordering::Relaxed);
                let (_epoch, report) = self.lint.load();
                Response::json(200, report.as_ref().clone())
            }
            (Method::Get, "/stats") => {
                self.counters.stats.fetch_add(1, Ordering::Relaxed);
                Response::json(200, self.stats_body())
            }
            (_, "/healthz" | "/query" | "/ingest" | "/retract" | "/lint" | "/stats") => {
                self.counters.other.fetch_add(1, Ordering::Relaxed);
                Response::text(405, "method not allowed for this route\n")
            }
            _ => {
                self.counters.other.fetch_add(1, Ordering::Relaxed);
                Response::text(
                    404,
                    "no such route (have: /healthz /query /ingest /retract /lint /stats)\n",
                )
            }
        }
    }

    /// Runs after the pool drained: close the ingest channel and join the
    /// writer, so every acknowledged ingest is fully published.
    fn on_shutdown(&self) {
        drop(self.writer.lock().map(|mut w| w.take()));
        let join = self.writer_join.lock().map(|mut j| j.take());
        if let Ok(Some(join)) = join {
            let _ = join.join();
        }
    }
}

/// Splits a `/query` body into trimmed, non-comment query lines, or the
/// 400 response when the body is unusable.
fn parse_query_lines(body: &[u8]) -> Result<Vec<&str>, Response> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Err(Response::json(
            400,
            error_body("request body is not UTF-8", None),
        ));
    };
    let queries: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with('%'))
        .collect();
    if queries.is_empty() {
        return Err(Response::json(
            400,
            error_body("no queries in request body (one query per line)", None),
        ));
    }
    Ok(queries)
}

impl WfdlApp {
    /// The app serving `model` and its `lint` report, with no writer yet
    /// ([`start`] attaches it).
    fn new(model: Arc<SolvedModel>, lint: String) -> WfdlApp {
        WfdlApp {
            lint: EpochSlot::new(model.epoch(), Arc::new(lint)),
            slot: EpochSlot::new(model.epoch(), model),
            writer: Mutex::new(None),
            writer_join: Mutex::new(None),
            counters: Counters::default(),
            started: Instant::now(),
        }
    }

    /// `POST /query`: evaluate every body line against one pinned model.
    fn query(&self, body: &[u8]) -> Response {
        let queries = match parse_query_lines(body) {
            Ok(q) => q,
            Err(resp) => return resp,
        };
        // Pin exactly one snapshot for the whole request: every query in
        // the batch answers against the same epoch, however many swaps
        // land mid-request.
        let (_epoch, model) = self.slot.load();
        match query_response_body(&model, &queries) {
            Ok(body) => Response::json(200, body),
            Err(body) => Response::json(400, body),
        }
    }

    /// `POST /query?mode=sliced`: pins one model for the whole batch. If it
    /// serves views, every line is answered by a view of it, here on the
    /// reader thread; otherwise the batch goes to the writer thread, which
    /// solves each line's slice. Either way a sliced answer reflects every
    /// ingest acknowledged before it: the writer publishes first.
    fn sliced_query(&self, body: &[u8]) -> Response {
        let queries = match parse_query_lines(body) {
            Ok(q) => q,
            Err(resp) => return resp,
        };
        let (_epoch, model) = self.slot.load();
        if model.serves_views() {
            return match answer_views(&model, &queries, &self.counters) {
                Ok(body) => Response::json(200, body),
                Err(body) => Response::json(400, body),
            };
        }
        let queries: Vec<String> = queries.into_iter().map(str::to_owned).collect();
        self.dispatch_to_writer(|reply| WriterJob::SlicedQuery { queries, reply })
    }

    /// `POST /ingest` / `POST /retract`: hand the batch to the writer
    /// thread and relay its acknowledgement.
    fn apply_facts(&self, op: FactOp, body: &[u8]) -> Response {
        let body = body.to_vec();
        self.dispatch_to_writer(|reply| WriterJob::Facts { op, body, reply })
    }

    /// Queues one job on the writer thread and relays its reply; answers
    /// 503 once shutdown closed the queue.
    fn dispatch_to_writer(&self, job: impl FnOnce(SyncSender<Response>) -> WriterJob) -> Response {
        let sender = match self.writer.lock() {
            Ok(guard) => guard.clone(),
            Err(_) => None,
        };
        let Some(sender) = sender else {
            return Response::json(503, error_body("server is shutting down", None));
        };
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        if sender.send(job(reply_tx)).is_err() {
            return Response::json(503, error_body("server is shutting down", None));
        }
        match reply_rx.recv() {
            Ok(response) => response,
            Err(_) => Response::json(500, error_body("writer thread died mid-request", None)),
        }
    }

    /// `GET /stats`: one JSON view over solve, modular, chase and request
    /// statistics for the currently published model.
    fn stats_body(&self) -> String {
        let (epoch, model) = self.slot.load();
        let (t, f, u) = model.model().counts();
        let ss = model.solve_stats();
        let cs = model.model().segment.stats();
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"epoch\":{epoch},\"uptime_ms\":{},\"requests\":{{\"healthz\":{},\"query\":{},\
             \"query_errors\":{},\"sliced_solved\":{},\"sliced_from_model\":{},\"ingest\":{},\
             \"ingest_errors\":{},\"retract\":{},\"retract_errors\":{},\"lint\":{},\
             \"stats\":{},\"other\":{}}}",
            self.started.elapsed().as_millis(),
            self.counters.healthz.load(Ordering::Relaxed),
            self.counters.query.load(Ordering::Relaxed),
            self.counters.query_errors.load(Ordering::Relaxed),
            self.counters.sliced_solved.load(Ordering::Relaxed),
            self.counters.sliced_from_model.load(Ordering::Relaxed),
            self.counters.ingest.load(Ordering::Relaxed),
            self.counters.ingest_errors.load(Ordering::Relaxed),
            self.counters.retract.load(Ordering::Relaxed),
            self.counters.retract_errors.load(Ordering::Relaxed),
            self.counters.lint.load(Ordering::Relaxed),
            self.counters.stats.load(Ordering::Relaxed),
            self.counters.other.load(Ordering::Relaxed),
        ));
        out.push_str(&format!(
            ",\"model\":{{\"atoms\":{},\"rules\":{},\"true\":{t},\"false\":{f},\"unknown\":{u},\
             \"universe_bytes\":{},\"index_bytes\":{},\"exact\":{},\"outcome\":",
            model.model().segment.atoms().len(),
            model.model().ground.num_rules(),
            model.universe().heap_bytes(),
            model.index_bytes(),
            model.exact(),
        ));
        push_json_str(&mut out, &model.outcome().to_string());
        out.push_str("},\"solve\":{");
        push_solve_stats(&mut out, &ss);
        out.push_str(&format!(",\"sliced\":{}}}", ss.sliced));
        if let Some(ms) = model.model().component_stats() {
            // `components_reused` deliberately matches the `solve` object's
            // key (and the CLI's `% solve:` line): one name for the
            // carried-over counter everywhere.
            out.push_str(&format!(
                ",\"modular\":{{\"components\":{},\"definite\":{},\"recursive\":{},\
                 \"largest\":{},\"components_reused\":{},\
                 \"rules_in_recursive\":{},\"recursive_rounds\":{}}}",
                ms.components,
                ms.definite_components,
                ms.recursive_components,
                ms.largest_component,
                ms.components_reused,
                ms.rules_in_recursive,
                ms.recursive_rounds,
            ));
        }
        out.push_str(&format!(
            ",\"chase\":{{\"rounds\":{},\"frontier_atoms\":{},\"relaxations\":{},\
             \"match_ns\":{},\"merge_ns\":{}}}",
            cs.rounds, cs.frontier_atoms, cs.relaxations, cs.match_ns, cs.merge_ns,
        ));
        let index = model.index_stats();
        out.push_str(&format!(
            ",\"index\":{{\"bytes\":{},\"preds\":{},\"key_tables_built\":{}}}}}",
            index.bytes, index.preds, index.key_tables_built,
        ));
        out
    }
}

/// Renders the `POST /query` response body for a pinned model: the exact
/// bytes the server sends for these query sources at that model's epoch.
///
/// Public so integration tests (and clients embedding the tier) can
/// compute the expected response through the **direct** [`SolvedModel`]
/// API and compare bit-for-bit against what came over HTTP.
///
/// `Ok` is the 200 body; `Err` is the 400 body for the first malformed
/// query, carrying its 1-based index, source text, message and — for
/// syntax errors — the real line/column within the query string.
pub fn query_response_body(model: &SolvedModel, queries: &[&str]) -> Result<String, String> {
    // Prepare everything first: a batch with any malformed query answers
    // 400 as a whole, so clients never see partial evaluation.
    let mut prepared = Vec::with_capacity(queries.len());
    for (i, src) in queries.iter().enumerate() {
        match model.prepare(src) {
            Ok(q) => prepared.push(q),
            Err(e) => return Err(prepare_error_body(i, src, &e)),
        }
    }
    let mut out = String::with_capacity(64 + 48 * queries.len());
    out.push_str(&format!("{{\"epoch\":{},\"results\":[", model.epoch()));
    for (i, (src, q)) in queries.iter().zip(&prepared).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_query_result(&mut out, model, src, q);
        out.push('}');
    }
    out.push_str("]}");
    Ok(out)
}

/// Goal-directed twin of [`query_response_body`]: answers each query
/// through [`KnowledgeBase::solve_for`] instead of a published full model.
/// Same response shape, plus a per-result `"slice"` object: the slice's
/// `slice_components` of the program's `total_components`, and how many of
/// them were answered without solving (`components_reused`: all of them
/// when `solve_for` returned a view of the current full model, `0` when it
/// solved the slice). Public for the same bit-for-bit test contract as
/// [`query_response_body`]: the serving tier renders these bytes — on the
/// reader thread from a view of the pinned model when that model serves
/// views, on the writer thread (which owns the `&mut KnowledgeBase` a
/// solve needs) otherwise.
///
/// `Ok` is the 200 body; `Err` is the status and body of the failure: 400
/// for the first query that fails to parse or prepare, in
/// [`query_response_body`]'s error shape, or 500 when a sliced solve
/// panicked ([`Error::EnginePanic`]), in `/ingest`'s — the knowledge base
/// is untouched by that, and the next request is served normally.
pub fn sliced_query_response_body(
    kb: &mut KnowledgeBase,
    queries: &[&str],
) -> Result<String, (u16, String)> {
    answer_sliced(kb, queries, &Counters::default())
}

/// [`sliced_query_response_body`] on the writer thread, counting each query
/// line into `counters.sliced_solved` / `counters.sliced_from_model` once
/// the whole batch has prepared.
fn answer_sliced(
    kb: &mut KnowledgeBase,
    queries: &[&str],
    counters: &Counters,
) -> Result<String, (u16, String)> {
    // Solve + prepare everything first: a batch with any malformed query
    // answers 400 as a whole, exactly like the full-model path.
    let mut solved = Vec::with_capacity(queries.len());
    for (i, src) in queries.iter().enumerate() {
        let model = kb.solve_for(src).map_err(|e| match e {
            Error::EnginePanic(_) => (500, error_body(&e.to_string(), None)),
            e => (400, prepare_error_body(i, src, &e)),
        })?;
        let q = model
            .prepare_sliced(src)
            .map_err(|e| (400, prepare_error_body(i, src, &e)))?;
        solved.push((model, q));
    }
    for (model, _) in &solved {
        let answered_by = match model.solve_stats().sliced {
            true => &counters.sliced_solved,
            false => &counters.sliced_from_model,
        };
        answered_by.fetch_add(1, Ordering::Relaxed);
    }
    Ok(render_sliced(queries, &solved))
}

/// The reader-thread path of `mode=sliced`, for a pinned `model` that
/// serves views: each line answered by a view of it, rendered exactly as
/// [`sliced_query_response_body`] renders a knowledge base whose current
/// full model `model` is. `Err` is the 400 body of the first malformed
/// line; the lines count into `counters.sliced_from_model` only when none
/// is.
fn answer_views(
    model: &SolvedModel,
    queries: &[&str],
    counters: &Counters,
) -> Result<String, String> {
    let mut views = Vec::with_capacity(queries.len());
    for (i, src) in queries.iter().enumerate() {
        let view = crate::solved_model::slice_view(&model.solved, model.snapshot().clone(), src)
            .map_err(|e| prepare_error_body(i, src, &e))?;
        views.push(view);
    }
    let answered = views.len() as u64;
    counters
        .sliced_from_model
        .fetch_add(answered, Ordering::Relaxed);
    Ok(render_sliced(queries, &views))
}

/// Renders a `mode=sliced` 200 body: each query's result against the
/// goal-directed model that answers it, with its `"slice"` object.
fn render_sliced(
    queries: &[&str],
    answered: &[(Arc<SolvedModel>, crate::PreparedQuery)],
) -> String {
    let epoch = answered.first().map_or(0, |(m, _)| m.epoch());
    let mut out = String::with_capacity(64 + 64 * queries.len());
    out.push_str(&format!("{{\"epoch\":{epoch},\"results\":["));
    for (i, (src, (model, q))) in queries.iter().zip(answered).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_query_result(&mut out, model, src, q);
        let (in_slice, total) = model
            .slice()
            .map_or((0, 0), |s| (s.components_in_slice, s.components_total));
        let reused = if model.solve_stats().sliced {
            0
        } else {
            in_slice
        };
        out.push_str(&format!(
            ",\"slice\":{{\"slice_components\":{in_slice},\"total_components\":{total},\
             \"components_reused\":{reused}}}"
        ));
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// The 400 error body for a query that failed to prepare: 1-based index,
/// source text, message and — for syntax errors — the real line/column
/// within the query string.
fn prepare_error_body(index: usize, src: &str, e: &Error) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"error\":{{\"query\":{},\"source\":",
        index + 1
    ));
    push_json_str(&mut out, src);
    out.push_str(",\"message\":");
    push_json_str(&mut out, &e.to_string());
    if let Error::Syntax(se) = e {
        out.push_str(&format!(",\"line\":{},\"col\":{}", se.pos.line, se.pos.col));
    }
    out.push_str("}}");
    out
}

/// Renders one query's result fields (`"query":…`, `"truth"`/`"answers"`,
/// optional `"warnings"`) into `out`, **without** the enclosing braces —
/// the caller owns the object so it can append mode-specific fields.
fn push_query_result(out: &mut String, model: &SolvedModel, src: &str, q: &crate::PreparedQuery) {
    out.push_str("\"query\":");
    push_json_str(out, src);
    if q.is_boolean() {
        out.push_str(",\"truth\":");
        push_json_str(out, &model.ask3_prepared(q).to_string());
    } else {
        out.push_str(",\"answers\":[");
        let universe = model.universe();
        let answers = model.answers_prepared(q);
        for (j, tuple) in answers.tuples().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            for (k, &term) in tuple.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                // A constant's name goes from the interner straight into
                // the body; only a null needs rendering first.
                match universe.terms.node(term) {
                    TermNode::Const(name) => push_json_str(out, universe.symbols.resolve(name)),
                    TermNode::Skolem { .. } => {
                        push_json_str(out, &universe.display_term(term).to_string());
                    }
                }
            }
            out.push(']');
        }
        out.push(']');
    }
    // A short-circuited verdict (unknown predicate/constant) is easy to
    // misread as "solved and empty": name the unresolved symbols. The
    // field is present only when non-empty, so fully-resolved queries
    // keep their exact historical shape.
    let missing = q.unresolved_symbols(model.universe());
    if !missing.is_empty() {
        out.push_str(",\"warnings\":[");
        for (j, m) in missing.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_json_str(out, &format!("unknown {m}"));
        }
        out.push(']');
    }
}

/// Renders how a solve went — resumed or not, how much of the previous
/// model it carried over, where its time went and what it copied — as JSON
/// object fields
/// (no braces): the part of [`SolveStats`](crate::SolveStats) that `/stats`
/// and the `/ingest` reply share.
fn push_solve_stats(out: &mut String, ss: &crate::SolveStats) {
    out.push_str(&format!(
        "\"incremental\":{},\"components_reused\":{},\"components_evaluated\":{},\
         \"cone_atoms\":{},\"chase_ns\":{},\"ground_ns\":{},\"engine_ns\":{},\"index_ns\":{},\
         \"owned_bytes\":{},\"shared_bytes\":{}",
        ss.incremental,
        ss.components_reused,
        ss.components_evaluated,
        ss.cone_atoms,
        ss.chase_ns,
        ss.ground_ns,
        ss.engine_ns,
        ss.index_ns,
        ss.owned_bytes,
        ss.shared_bytes,
    ));
}

/// A `{"error":{...}}` body with an optional source line number.
fn error_body(message: &str, line: Option<u32>) -> String {
    let mut out = String::from("{\"error\":{\"message\":");
    push_json_str(&mut out, message);
    if let Some(line) = line {
        out.push_str(&format!(",\"line\":{line}"));
    }
    out.push_str("}}");
    out
}

/// The writer thread: owns the [`KnowledgeBase`], serializes every
/// mutation (and every sliced query whose slice must be solved, which
/// needs `&mut` access), and is the only code that publishes into the slot.
fn writer_loop(
    mut kb: KnowledgeBase,
    rx: Receiver<WriterJob>,
    slot: Arc<WfdlApp>,
    resolve_deadline: Option<Duration>,
    program_name: String,
) {
    while let Ok(job) = rx.recv() {
        match job {
            WriterJob::Facts { op, body, reply } => {
                let response =
                    apply_facts(&mut kb, &slot, op, &body, resolve_deadline, &program_name);
                // A dropped reply just means the requesting worker gave up;
                // the ingest itself is already committed and published.
                let _ = reply.send(response);
            }
            WriterJob::SlicedQuery { queries, reply } => {
                // A slice that has to be solved gets the same fresh deadline
                // window an ingest-triggered re-solve would.
                if let Some(d) = resolve_deadline {
                    kb.set_solve_budget(SolveBudget::unlimited().with_deadline_in(d));
                }
                let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
                let response = match answer_sliced(&mut kb, &refs, &slot.counters) {
                    Ok(body) => Response::json(200, body),
                    Err((status, body)) => Response::json(status, body),
                };
                let _ = reply.send(response);
            }
        }
    }
}

/// One ingest or retraction: parse → typed insert / retract → re-solve
/// (resumed after an insert, from scratch after a retraction) → publish.
/// A body that does not parse changes nothing, the universe included: an
/// ingest interns its names only if every line is good, and a retraction
/// looks them up.
fn apply_facts(
    kb: &mut KnowledgeBase,
    app: &WfdlApp,
    op: FactOp,
    body: &[u8],
    resolve_deadline: Option<Duration>,
    program_name: &str,
) -> Response {
    let (what, applied) = match op {
        FactOp::Insert => ("added", kb.insert_from_reader(body)),
        FactOp::Retract => ("removed", kb.retract_from_reader(body)),
    };
    let changed = match applied {
        Ok(n) => n,
        Err(e) => {
            let line = match &e {
                Error::Syntax(se) => Some(se.pos.line),
                _ => None,
            };
            return Response::json(400, error_body(&e.to_string(), line));
        }
    };
    // The deadline is an absolute instant: arm it freshly for each
    // re-solve so every ingest gets the full window.
    if let Some(d) = resolve_deadline {
        kb.set_solve_budget(SolveBudget::unlimited().with_deadline_in(d));
    }
    match kb.try_solve() {
        Ok(model) => {
            // Publish the model first, then the matching lint report: a
            // reader racing the swap sees a coherent model either way, and
            // `/lint` carries the epoch it was computed at.
            app.slot.publish(model.epoch(), Arc::clone(&model));
            let lint = kb.analyze().to_json(program_name);
            app.lint.publish(model.epoch(), Arc::new(lint));
            let ss = model.solve_stats();
            let mut out = String::new();
            out.push_str(&format!(
                "{{\"{what}\":{changed},\"epoch\":{},",
                model.epoch()
            ));
            push_solve_stats(&mut out, &ss);
            out.push_str(",\"outcome\":");
            push_json_str(&mut out, &model.outcome().to_string());
            out.push('}');
            Response::json(200, out)
        }
        // EnginePanic: the knowledge base is documented to stay coherent
        // (next solve recomputes from scratch), so keep serving the last
        // published model and report the failure.
        Err(e) => Response::json(500, error_body(&e.to_string(), None)),
    }
}

/// A running serving tier. Obtain via [`start`]; stop via
/// [`RunningServer::shutdown`] (or a [`Stopper`] from another thread).
pub struct RunningServer {
    server: Server,
    app: Arc<WfdlApp>,
}

impl RunningServer {
    /// The bound socket address (resolves `:0` to the actual port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// A cloneable shutdown trigger for signal handlers / other threads.
    pub fn stopper(&self) -> Stopper {
        self.server.stopper()
    }

    /// Pins the currently published `(epoch, model)` pair — the same
    /// operation a request performs.
    pub fn pin_model(&self) -> (u64, Arc<SolvedModel>) {
        self.app.slot.load()
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, join
    /// the worker pool, then close the ingest queue and join the writer.
    /// Every acknowledged ingest is published before this returns.
    pub fn shutdown(self) {
        self.server.stopper().stop();
        self.server.shutdown();
    }
}

/// Solves the knowledge base once and starts serving it.
///
/// The initial solve honours `options.resolve_deadline` like every
/// ingest-triggered re-solve: a tripped solve serves a sound
/// under-approximation and later ingests resume it.
///
/// # Errors
///
/// [`Error::EnginePanic`] if the initial solve panicked, [`Error::Io`] if
/// the listener could not bind or a service thread could not spawn.
pub fn start(mut kb: KnowledgeBase, options: ServeOptions) -> Result<RunningServer, Error> {
    if let Some(d) = options.resolve_deadline {
        kb.set_solve_budget(SolveBudget::unlimited().with_deadline_in(d));
    }
    let model = kb.try_solve()?;
    let lint = kb.analyze().to_json(&options.program_name);
    let app = Arc::new(WfdlApp::new(model, lint));
    let (tx, rx) = std::sync::mpsc::sync_channel(options.ingest_queue.max(1));
    // These two mutexes were created a few lines up and have never left
    // this thread: poisoning is impossible, but recover instead of unwrap.
    *app.writer.lock().unwrap_or_else(PoisonError::into_inner) = Some(tx);
    let writer_join = {
        let app = Arc::clone(&app);
        let deadline = options.resolve_deadline;
        let name = options.program_name.clone();
        std::thread::Builder::new()
            .name("wfdl-serve-writer".to_owned())
            .spawn(move || writer_loop(kb, rx, app, deadline, name))?
    };
    *app.writer_join
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(writer_join);
    let server = Server::start(
        ServerConfig {
            addr: options.addr.clone(),
            workers: options.workers,
            accept_backlog: 64,
            max_body_bytes: options.max_body_bytes,
            read_timeout: options.read_timeout,
        },
        Arc::clone(&app) as Arc<dyn App>,
    )?;
    Ok(RunningServer { server, app })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_core::budget::{FaultKind, FaultPlan, FaultSite};

    /// Two independent cones: the `win` slice leaves `flip`/`flop` out.
    const PROGRAM: &str = "
        edge(a,b). edge(b,c). pick(z).
        edge(X,Y), not win(Y) -> win(X).
        pick(X), not flop(X) -> flip(X).
        pick(X), not flip(X) -> flop(X).
    ";
    const LINES: [&str; 2] = ["?- win(b).", "?(X) win(X)."];

    /// The app over `kb`'s first solve, in the state shutdown leaves it
    /// in: its writer is gone, so anything sent there answers 503.
    fn app_without_writer(mut kb: KnowledgeBase) -> WfdlApp {
        WfdlApp::new(kb.solve(), String::new())
    }

    fn post_sliced(app: &WfdlApp) -> Response {
        app.handle(&Request {
            method: Method::Post,
            path: "/query?mode=sliced".to_owned(),
            body: LINES.join("\n").into_bytes(),
            close: true,
        })
    }

    #[test]
    fn a_viewable_sliced_read_never_touches_the_writer() {
        let app = app_without_writer(KnowledgeBase::from_source(PROGRAM).unwrap());
        let resp = post_sliced(&app);
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(resp.status, 200, "{body}");
        let mut replica = KnowledgeBase::from_source(PROGRAM).unwrap();
        replica.solve();
        let expected = sliced_query_response_body(&mut replica, &LINES).unwrap();
        assert_eq!(body, expected);
        assert_eq!(app.counters.sliced_from_model.load(Ordering::Relaxed), 2);
        assert_eq!(app.counters.sliced_solved.load(Ordering::Relaxed), 0);

        // A budget-tripped model serves no views: the batch goes to the
        // writer, which is gone.
        let mut kb = KnowledgeBase::from_source(PROGRAM).unwrap();
        kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
            site: FaultSite::ChaseRound(0),
            kind: FaultKind::TripDeadline,
        }));
        let app = app_without_writer(kb);
        assert!(app.slot.load().1.outcome().is_budget_trip());
        assert_eq!(post_sliced(&app).status, 503);
        assert_eq!(app.counters.sliced_from_model.load(Ordering::Relaxed), 0);
    }
}
