//! `wfdl` — command-line well-founded reasoner for guarded normal Datalog±.
//!
//! ```text
//! wfdl run program.dl   [--facts data.tsv …] [--depth N]
//!                       [--deadline-ms N] [--mem-budget BYTES]
//!                       [--model] [--hidden] [--forest N] [--stats]
//! wfdl query program.dl --q '?- win(a).' [--q '?(X) win(X).' …]
//!                       [--facts data.tsv …] [--depth N]
//!                       [--deadline-ms N] [--mem-budget BYTES] [--sliced] [--stats]
//! wfdl check program.dl            # parse + validate only
//! wfdl lint  program.dl [--facts data.tsv …] [--format text|json] [--deny warn]
//! wfdl serve program.dl [--addr HOST:PORT] [--workers N]
//!                       [--facts data.tsv …] [--depth N]
//!                       [--deadline-ms N]
//! ```
//!
//! `--deadline-ms N` bounds the solve's wall-clock time and `--mem-budget
//! BYTES` its working memory. A tripped solve stops at a clean round /
//! component boundary and still answers queries as a sound
//! under-approximation: certain answers stay certain, everything the
//! truncated solve could not decide reads `unknown`. A depth, atom or
//! instance cap is no such trip: it stops the chase, and under negation
//! the answers may change with a deeper or larger one. Either truncation is
//! reported on stderr and as the `% outcome:` line under `--stats`.
//!
//! The program file may contain facts, guarded NTGDs (head-only variables
//! are existential), rules with explicit Skolem terms, negative constraints
//! (`-> false`) and queries (`?- …` / `?(X) …`). `run` answers the file's
//! own queries against the computed model; `query` solves once and answers
//! ad-hoc queries given with `--q` (repeatable) without editing the file,
//! via prepared queries against the frozen model. `query --sliced` solves
//! **goal-directedly**: each query gets a model restricted to its
//! relevance-closed program slice (`KnowledgeBase::solve_for`) — same
//! answers, a fraction of the work when the query touches a small cone of
//! the program. `query --stats` prints `% solve:` / `% slice:` lines.
//!
//! The full flag/exit-code reference lives in `docs/CLI.md`.
//!
//! `--facts <file>` (repeatable) bulk-loads extensional data through the
//! typed, parser-free ingestion path. The format is one fact per line —
//! predicate name then constant arguments, tab-separated (comma-separated
//! on lines without tabs); blank lines and `#`/`%` comment lines are
//! skipped, and a bare predicate name is a nullary fact:
//!
//! ```text
//! # people.tsv (fields tab-separated, or comma-separated as here)
//! person,alice
//! employs,acme,alice
//! ```
//!
//! `lint` runs the static analyzer (`wfdatalog::analysis`) over the lowered
//! program **without solving**: stratification and recursion-through-negation
//! witnesses, fragment classification (datalog / guarded / warded / outside),
//! chase-termination risk (weak acyclicity), and dead-code/schema lints.
//! Diagnostics carry stable `E…`/`W…` codes and real source spans;
//! `--format json` emits the machine-readable report (one JSON object per
//! line, stable field order). Exit code is 0 for a clean or warning-only
//! report, 1 when any error is present (or any warning under `--deny warn`),
//! 2 for usage errors. `--facts` files participate so EDB-dependent lints
//! (unused predicate, unreachable rule) see the real data.
//!
//! `serve` loads the program (plus any `--facts` files), solves once, and
//! serves prepared queries over HTTP until SIGINT/SIGTERM: `GET /healthz`,
//! `POST /query` (one query per body line), `POST /ingest` (a `--facts`
//! format batch → incremental re-solve + atomic model hot-swap), `GET
//! /stats`. `--deadline-ms` bounds each ingest-triggered re-solve; see
//! `wfdatalog::serve` for the threading and failure semantics.

use std::io::Write;
use std::process::ExitCode;
use wfdatalog::chase::ExplicitForest;
use wfdatalog::{KnowledgeBase, SolveBudget, SolvedModel, TruncationReason, Truth};

/// Writes to stdout, treating a closed pipe as a normal end of output:
/// `wfdl run … | head` must exit 0, not panic (the classic Rust `println!`
/// papercut). Other I/O errors are reported and exit nonzero.
fn write_out(args: std::fmt::Arguments) {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if let Err(e) = lock.write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("wfdl: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` routed through [`write_out`].
macro_rules! outln {
    () => { write_out(format_args!("\n")) };
    ($($arg:tt)*) => { write_out(format_args!("{}\n", format_args!($($arg)*))) };
}

/// `print!` routed through [`write_out`].
macro_rules! outp {
    ($($arg:tt)*) => { write_out(format_args!($($arg)*)) };
}

#[derive(Default)]
struct Options {
    command: String,
    file: String,
    depth: Option<u32>,
    show_model: bool,
    show_hidden: bool,
    forest_depth: Option<u32>,
    stats: bool,
    /// Ad-hoc queries for `wfdl query` (repeatable `--q`).
    adhoc_queries: Vec<String>,
    /// Bulk fact files (repeatable `--facts`), loaded via the typed path.
    fact_files: Vec<String>,
    /// Wall-clock deadline for the solve, in milliseconds.
    deadline_ms: Option<u64>,
    /// Memory budget for the solve, in bytes.
    mem_budget: Option<usize>,
    /// Bind address for `wfdl serve` (default `127.0.0.1:8080`).
    addr: Option<String>,
    /// HTTP worker threads for `wfdl serve` (default 4).
    workers: Option<usize>,
    /// Output format for `wfdl lint` (`text` or `json`).
    format: Option<String>,
    /// `wfdl lint --deny warn`: treat warnings as errors for the exit code.
    deny_warn: bool,
    /// `wfdl query --sliced`: goal-directed solve per query
    /// ([`KnowledgeBase::solve_for`]).
    sliced: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: wfdl run <file>   [--facts data.tsv …] [--depth N]\n\
         \x20                     [--deadline-ms N] [--mem-budget BYTES]\n\
         \x20                     [--model] [--hidden] [--forest N] [--stats]\n\
         \x20      wfdl query <file> --q '?- ….' [--q '?(X) … .' …]\n\
         \x20                     [--facts data.tsv …] [--depth N]\n\
         \x20                     [--deadline-ms N] [--mem-budget BYTES] [--sliced] [--stats]\n\
         \x20      wfdl check <file>\n\
         \x20      wfdl lint <file>  [--facts data.tsv …] [--format text|json] [--deny warn]\n\
         \x20      wfdl serve <file> [--addr HOST:PORT] [--workers N]\n\
         \x20                     [--facts data.tsv …] [--depth N]\n\
         \x20                     [--deadline-ms N]\n\
         \x20      (--sliced: goal-directed solve per query — identical answers,\n\
         \x20       only the query-relevant program slice is solved;\n\
         \x20       a deadline/memory-tripped run reports its truncation on\n\
         \x20       stderr and answers as a sound under-approximation;\n\
         \x20       full reference: docs/CLI.md)"
    );
    std::process::exit(2)
}

/// The value of a flag that takes one, or the usage error.
fn value(args: &mut impl Iterator<Item = String>) -> String {
    args.next().unwrap_or_else(|| usage())
}

/// [`value`], parsed as a number.
fn number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    value(args).parse().unwrap_or_else(|_| usage())
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        command: value(&mut args),
        file: value(&mut args),
        ..Options::default()
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--depth" => opts.depth = Some(number(&mut args)),
            "--model" => opts.show_model = true,
            "--hidden" => opts.show_hidden = true,
            "--stats" => opts.stats = true,
            "--sliced" => opts.sliced = true,
            "--forest" => opts.forest_depth = Some(number(&mut args)),
            "--q" => opts.adhoc_queries.push(value(&mut args)),
            "--facts" => opts.fact_files.push(value(&mut args)),
            "--deadline-ms" => opts.deadline_ms = Some(number(&mut args)),
            "--mem-budget" => opts.mem_budget = Some(number(&mut args)),
            "--addr" => opts.addr = Some(value(&mut args)),
            "--workers" => opts.workers = Some(number(&mut args)),
            "--format" => {
                let v = value(&mut args);
                if v != "text" && v != "json" {
                    eprintln!("wfdl: --format takes `text` or `json`, got `{v}`");
                    usage()
                }
                opts.format = Some(v);
            }
            "--deny" => {
                let v = value(&mut args);
                if v != "warn" {
                    eprintln!("wfdl: --deny takes `warn`, got `{v}`");
                    usage()
                }
                opts.deny_warn = true;
            }
            _ => usage(),
        }
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    // Reject flags that the selected subcommand would silently ignore.
    if opts.command != "serve" && (opts.addr.is_some() || opts.workers.is_some()) {
        eprintln!(
            "wfdl {}: --addr/--workers are only valid with `wfdl serve`",
            opts.command
        );
        usage()
    }
    if opts.command != "lint" && (opts.format.is_some() || opts.deny_warn) {
        eprintln!(
            "wfdl {}: --format/--deny are only valid with `wfdl lint`",
            opts.command
        );
        usage()
    }
    if opts.command != "query" && opts.sliced {
        eprintln!(
            "wfdl {}: --sliced is only valid with `wfdl query`",
            opts.command
        );
        usage()
    }
    // What only the solving subcommands take.
    let solve_flags = opts.depth.is_some()
        || opts.show_model
        || opts.show_hidden
        || opts.stats
        || opts.forest_depth.is_some()
        || !opts.adhoc_queries.is_empty()
        || opts.deadline_ms.is_some()
        || opts.mem_budget.is_some();
    match opts.command.as_str() {
        "query" => {
            if opts.show_model || opts.show_hidden || opts.forest_depth.is_some() {
                eprintln!("wfdl query: --model/--hidden/--forest are only valid with `wfdl run`");
                usage()
            }
        }
        "serve" => {
            if opts.show_model || opts.show_hidden || opts.stats || opts.forest_depth.is_some() {
                eprintln!(
                    "wfdl serve: --model/--hidden/--stats/--forest are only valid with `wfdl run`"
                );
                usage()
            }
            if !opts.adhoc_queries.is_empty() {
                eprintln!("wfdl serve: --q is only valid with `wfdl query` (POST /query instead)");
                usage()
            }
            if opts.mem_budget.is_some() {
                eprintln!("wfdl serve: --mem-budget is not supported (use --deadline-ms)");
                usage()
            }
        }
        "lint" => {
            if solve_flags {
                eprintln!("wfdl lint: takes only --facts, --format and --deny (it never solves)");
                usage()
            }
        }
        "check" => {
            if solve_flags || !opts.fact_files.is_empty() {
                eprintln!("wfdl check: takes no flags (it parses and validates only)");
                usage()
            }
        }
        _ => {
            if !opts.adhoc_queries.is_empty() {
                eprintln!("wfdl {}: --q is only valid with `wfdl query`", opts.command);
                usage()
            }
        }
    }
    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read `{}`: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };

    // `lint` owns its compile path: lowering failures become classified
    // E-code diagnostics instead of a bare stderr line.
    if opts.command == "lint" {
        return lint(&opts, &source);
    }

    let mut kb = match KnowledgeBase::from_source(&source) {
        Ok(kb) => kb,
        Err(e) => {
            eprintln!("{}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };

    // Bulk-load extensional data through the typed, parser-free path,
    // streaming straight from the file (same loader as `POST /ingest`).
    for path in &opts.fact_files {
        let file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot read `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = kb.insert_from_reader(std::io::BufReader::new(file)) {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let kb = with_solve_flags(&opts, kb);
    match opts.command.as_str() {
        "check" => {
            outln!(
                "{}: ok — {} rules, {} facts, {} constraints, {} queries",
                opts.file,
                kb.sigma().rules.len(),
                kb.database().len(),
                kb.violations().len(),
                kb.queries().len()
            );
            ExitCode::SUCCESS
        }
        "run" => run(opts, kb),
        "query" => query(opts, kb),
        "serve" => serve(opts, kb),
        _ => usage(),
    }
}

/// Classifies a compile/ingest failure into a stable lint error code:
/// guard violations are `E002`, arity conflicts `E003`, everything else
/// (tokenizer/parser/IO) `E001`.
fn classify_error(message: &str) -> wfdatalog::analysis::Code {
    use wfdatalog::analysis::Code;
    if message.contains("guard") {
        Code::E002
    } else if message.contains("arity") {
        Code::E003
    } else {
        Code::E001
    }
}

/// Renders a lint report that consists of a single error diagnostic (the
/// program failed to compile, so no analysis ran). Mirrors
/// [`wfdatalog::AnalysisReport::to_json`]'s field order with
/// `"class":"unknown"` — the analyzer never saw a lowered program.
fn render_error_report(file: &str, d: &wfdatalog::Diagnostic, json: bool) -> String {
    use wfdatalog::analysis::report::diagnostic_json;
    if json {
        let mut out = String::from("{\"file\":");
        wfdatalog::core::json::push_json_str(&mut out, file);
        out.push_str(&format!(
            ",\"class\":\"unknown\",\"stratified\":false,\
             \"weakly_acyclic\":false,\"rules\":0,\
             \"summary\":{{\"errors\":1,\"warnings\":0,\"infos\":0}},\
             \"components\":[],\"diagnostics\":[{}]}}\n",
            diagnostic_json(d)
        ));
        out
    } else {
        format!(
            "{}\n{file}: class=unknown · 1 error(s), 0 warning(s), 0 info(s)\n",
            d.render_text(file)
        )
    }
}

/// `wfdl lint <file>`: compile (never solve), run the static analyzer,
/// report diagnostics. Exit 0 clean/warnings, 1 on errors (or warnings
/// under `--deny warn`).
fn lint(opts: &Options, source: &str) -> ExitCode {
    use wfdatalog::analysis::Code;
    use wfdatalog::Error;
    let json = opts.format.as_deref() == Some("json");
    // One closure for every compile-path failure: classify, render, exit 1.
    let fail = |path: &str, err: &Error| -> ExitCode {
        let (message, span) = match err {
            Error::Syntax(se) => (
                se.message.clone(),
                Some(wfdatalog::core::Span {
                    line: se.pos.line,
                    col: se.pos.col,
                }),
            ),
            other => (other.to_string(), None),
        };
        let code = classify_error(&message);
        let mut d = wfdatalog::Diagnostic::new(code, message);
        if let Some(span) = span {
            d = d.with_span(Some(span));
        }
        outp!("{}", render_error_report(path, &d, json));
        ExitCode::FAILURE
    };

    let mut kb = match KnowledgeBase::from_source(source) {
        Ok(kb) => kb,
        Err(e) => return fail(&opts.file, &e),
    };
    for path in &opts.fact_files {
        let file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot read `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = kb.insert_from_reader(std::io::BufReader::new(file)) {
            return fail(path, &e);
        }
    }

    let report = kb.analyze();
    if json {
        outln!("{}", report.to_json(&opts.file));
    } else {
        outp!("{}", report.render_text(&opts.file));
    }
    let errors = report.errors() > 0;
    debug_assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| matches!(d.code, Code::E001 | Code::E002 | Code::E003)),
        "analyzer passes emit warnings/infos only; E-codes come from the compile path"
    );
    if errors || (opts.deny_warn && report.warnings() > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `wfdl serve <file>`: solve once, serve HTTP until SIGINT/SIGTERM.
fn serve(opts: Options, kb: KnowledgeBase) -> ExitCode {
    let workers = opts.workers.unwrap_or(4).max(1);
    let serve_options = wfdatalog::serve::ServeOptions {
        addr: opts
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:8080".to_owned()),
        workers,
        resolve_deadline: opts.deadline_ms.map(std::time::Duration::from_millis),
        program_name: opts.file.clone(),
        ..Default::default()
    };
    // Install the handlers before accepting traffic so an early signal
    // cannot fall through to the default (abrupt) disposition.
    wfdl_serve::install_shutdown_signals();
    let server = match wfdatalog::serve::start(kb, serve_options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wfdl serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (epoch, model) = server.pin_model();
    if let Some(reason) = model.outcome().truncation() {
        eprintln!("wfdl serve: initial {}", truncation_notice(reason));
    }
    outln!(
        "wfdl serve: listening on http://{} ({workers} workers, model epoch {epoch})",
        server.addr()
    );
    outln!(
        "wfdl serve: routes: GET /healthz · POST /query · POST /ingest · GET /lint · GET /stats"
    );
    wfdl_serve::wait_for_shutdown();
    eprintln!("wfdl serve: shutdown requested; draining in-flight requests…");
    server.shutdown();
    eprintln!("wfdl serve: drained; bye");
    ExitCode::SUCCESS
}

/// Applies the solve flags to the knowledge base, so every solve it runs
/// uses them — the initial one, each ingest-triggered re-solve of `serve`,
/// each per-query solve of `query --sliced`. Without `--depth` the chase
/// budget stays automatic (unbounded when the program is weakly acyclic,
/// else depth 12).
/// `--deadline-ms` is an absolute instant counted from here (`serve`
/// re-arms it per solve).
fn with_solve_flags(opts: &Options, mut kb: KnowledgeBase) -> KnowledgeBase {
    if let Some(d) = opts.depth {
        kb = kb.with_depth(d);
    }
    let mut budget = SolveBudget::unlimited();
    if let Some(ms) = opts.deadline_ms {
        budget = budget.with_deadline_in(std::time::Duration::from_millis(ms));
    }
    if let Some(bytes) = opts.mem_budget {
        budget = budget.with_mem_limit(bytes);
    }
    kb.with_solve_budget(budget)
}

/// Solves the knowledge base, reporting a truncation on stderr.
fn solve(mut kb: KnowledgeBase) -> std::sync::Arc<SolvedModel> {
    let model = match kb.try_solve() {
        Ok(model) => model,
        Err(e) => {
            eprintln!("wfdl: {e}");
            std::process::exit(1);
        }
    };
    if let Some(reason) = model.outcome().truncation() {
        // Degradation notice goes to stderr: plain stdout stays
        // byte-identical across runs.
        eprintln!("wfdl: {}", truncation_notice(reason));
    }
    model
}

/// The stderr notice of a solve truncated for `reason`, with what its
/// answers are worth: a budget trip keeps every verdict it reached, a cap
/// stops the chase short.
fn truncation_notice(reason: TruncationReason) -> String {
    let caveat = match reason.is_budget_trip() {
        true => "answers are a sound under-approximation",
        false => "answers may change with a deeper or larger chase",
    };
    format!("solve truncated ({reason}); {caveat}")
}

/// Renders the verdict of one prepared query.
fn answer_query(model: &SolvedModel, label: &str, q: &wfdatalog::PreparedQuery) {
    if q.is_boolean() {
        outln!("{label}: {}", model.ask3_prepared(q));
    } else {
        let ans = model.answers_prepared(q);
        outln!("{label}: {} answer(s)", ans.len());
        for tuple in ans.tuples() {
            let rendered: Vec<String> = tuple
                .iter()
                .map(|&t| model.universe().display_term(t).to_string())
                .collect();
            outln!("  ({})", rendered.join(", "));
        }
    }
}

/// Warns on stderr when a query short-circuited on unknown names.
///
/// A query mentioning a name the reasoning session never interned is
/// answered by short-circuit (see `wfdatalog::query::prepared`). That
/// verdict is correct but easy to misread as "solved and empty", so name
/// the unresolved symbols on stderr — stdout stays byte-identical across
/// runs.
fn warn_unresolved(model: &SolvedModel, index: usize, q: &wfdatalog::PreparedQuery) {
    let missing = q.unresolved_symbols(model.universe());
    if !missing.is_empty() {
        eprintln!(
            "wfdl query: warning: query {} mentions unknown {}; positive literals can \
             never match (definitely empty), negated ones are dropped",
            index + 1,
            missing.join(", ")
        );
    }
}

/// `wfdl query <file> --q '…' [--q '…']`: solve once, answer ad-hoc
/// queries against the frozen model. With `--sliced`, solve
/// goal-directedly per query instead ([`query_sliced`]).
fn query(opts: Options, kb: KnowledgeBase) -> ExitCode {
    if opts.adhoc_queries.is_empty() {
        eprintln!("wfdl query: at least one --q '…' is required");
        usage()
    }
    if opts.sliced {
        return query_sliced(opts, kb);
    }
    let model = solve(kb);
    // Prepare everything first so malformed queries fail before output.
    let mut prepared = Vec::with_capacity(opts.adhoc_queries.len());
    for src in &opts.adhoc_queries {
        match model.prepare(src) {
            Ok(q) => prepared.push(q),
            Err(e) => {
                eprintln!("query `{src}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.stats {
        let s = model.solve_stats();
        outln!(
            "% solve: incremental={}, components_reused={}",
            s.incremental,
            s.components_reused
        );
    }
    for (i, q) in prepared.iter().enumerate() {
        warn_unresolved(&model, i, q);
        answer_query(&model, &format!("query {}", i + 1), q);
    }
    ExitCode::SUCCESS
}

/// `wfdl query --sliced`: each query gets its own goal-directed solve
/// over the query-relevant program slice ([`KnowledgeBase::solve_for`]).
/// Answers are bit-identical to the full solve's; `--stats` reports the
/// slice shape and what answered per query as a `% slice:` line.
fn query_sliced(opts: Options, mut kb: KnowledgeBase) -> ExitCode {
    for (i, src) in opts.adhoc_queries.iter().enumerate() {
        let model = match kb.solve_for(src) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("query `{src}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(reason) = model.outcome().truncation() {
            eprintln!("wfdl: {}", truncation_notice(reason));
        }
        let q = match model.prepare_sliced(src) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("query `{src}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let (true, Some(slice)) = (opts.stats, model.slice()) {
            // Read off the model, not assumed: this command never solves
            // the whole program, so nothing but a sliced solve can answer.
            let (reused, answered_by) = match model.solve_stats().sliced {
                true => (0, "a sliced solve"),
                false => (slice.components_in_slice, "the full model"),
            };
            outln!(
                "% slice: {}/{} components, components_reused={reused}, answered by {answered_by}",
                slice.components_in_slice,
                slice.components_total,
            );
        }
        warn_unresolved(&model, i, &q);
        answer_query(&model, &format!("query {}", i + 1), &q);
    }
    ExitCode::SUCCESS
}

fn run(opts: Options, mut kb: KnowledgeBase) -> ExitCode {
    if opts.stats {
        // Pre-solve lint summary (`%`-prefixed, like every other stats
        // line).
        let report = kb.analyze();
        outln!(
            "% lint: class={} stratified={} weakly_acyclic={} · \
             {} error(s), {} warning(s), {} info(s)",
            report.class.as_str(),
            report.predicts_stratified(),
            report.weakly_acyclic,
            report.errors(),
            report.warnings(),
            report.infos()
        );
        for d in report
            .diagnostics
            .iter()
            .filter(|d| d.severity >= wfdatalog::Severity::Warning)
        {
            outln!("% lint: {}", d.render_text(&opts.file));
        }
    }
    let model = solve(kb);
    let universe = model.universe();

    if opts.stats {
        let (t, f, u) = model.model().counts();
        outln!(
            "% segment: {} atoms, {} rule instances, {} stages, exact: {}",
            model.model().segment.atoms().len(),
            model.model().ground.num_rules(),
            model.model().stages(),
            model.exact()
        );
        let cs = model.model().segment.stats();
        outln!(
            "% chase: {} rounds, {} frontier atoms, {} relaxations, merge {:.1}ms",
            cs.rounds,
            cs.frontier_atoms,
            cs.relaxations,
            cs.merge_ns as f64 / 1e6
        );
        outln!("% truth: {t} true, {f} false, {u} unknown");
        outln!("% outcome: {}", model.outcome());
        outln!(
            "% memory: universe_bytes={}, index_bytes={}",
            universe.heap_bytes(),
            model.index_bytes()
        );
        let ss = model.solve_stats();
        outln!(
            "% solve: incremental={}, components_reused={}, owned_bytes={}, shared_bytes={}",
            ss.incremental,
            ss.components_reused,
            ss.owned_bytes,
            ss.shared_bytes
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        outln!(
            "% solve phases: chase {:.3}ms, ground {:.3}ms, engine {:.3}ms, index {:.3}ms; \
             cone_atoms={}, components_evaluated={}",
            ms(ss.chase_ns),
            ms(ss.ground_ns),
            ms(ss.engine_ns),
            ms(ss.index_ns),
            ss.cone_atoms,
            ss.components_evaluated
        );
        if let Some(s) = model.model().component_stats() {
            outln!(
                "% condensation: {} components ({} definite, {} recursive), \
                 largest {}, {} atoms solved recursively, \
                 {} rules in recursive components, {} recursive rounds",
                s.components,
                s.definite_components,
                s.recursive_components,
                s.largest_component,
                s.atoms_in_recursive,
                s.rules_in_recursive,
                s.recursive_rounds
            );
        }
    }

    if let Some(fd) = opts.forest_depth {
        let fd = fd.min(model.model().segment.budget().max_depth);
        let forest = ExplicitForest::unfold(&model.model().segment, fd, 50_000);
        outln!("% chase forest to depth {fd}:");
        outp!("{}", forest.render(universe));
        if forest.hit_node_cap {
            outln!("% … truncated at 50000 nodes");
        }
    }

    if opts.show_model || model.source_queries().is_empty() {
        outln!("% true atoms:");
        for atom in model.model().true_atoms() {
            let pred = universe.atoms.pred(atom);
            if !opts.show_hidden && universe.pred_info(pred).auxiliary {
                continue;
            }
            outln!("{}.", universe.display_atom(atom));
        }
        let unknown: Vec<_> = model.model().unknown_atoms().collect();
        if !unknown.is_empty() {
            outln!("% undefined atoms:");
            for atom in unknown {
                outln!("% {} : unknown", universe.display_atom(atom));
            }
        }
    }

    // Answer the file's queries in order (prepared at solve time).
    for (i, q) in model.source_queries().iter().enumerate() {
        answer_query(&model, &format!("query {}", i + 1), q);
    }
    if opts.stats {
        // After the queries: it is they that build key tables.
        let index = model.index_stats();
        outln!(
            "% index: bytes={}, preds={}, key_tables_built={}",
            index.bytes,
            index.preds,
            index.key_tables_built
        );
    }

    // Constraint report.
    let status = model.constraint_status();
    for (i, s) in status.iter().enumerate() {
        match s {
            Truth::True => outln!("constraint {}: VIOLATED", i + 1),
            Truth::Unknown => outln!("constraint {}: possibly violated", i + 1),
            Truth::False => {}
        }
    }
    if status.iter().any(|s| s.is_true()) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
