//! The traced run: a replica of the solve pipeline that calls each layer's
//! public entry points one by one, with a span around every call.
//!
//! Until the program records its own spans (ROADMAP's `SolveProfile`),
//! this is where per-layer time comes from. The replica calls only
//! layer-boundary functions — the ones listed in the README — and must
//! reach the same true/false/unknown counts as the façade operation it
//! explains; a disagreement is a failed operation.

use crate::facade::{answer_matches, cold_op, compile};
use crate::gen::{generate, Inputs, Program, Query, Round, Scale, Workload};
use crate::json::Json;
use crate::load::{
    churn_phase, contended_churn, point_phase, scan_phase, ChurnPhase, Ops, PointPhase, WARMUP,
};
use crate::run::{serve, Metric, Plan, Report};
use crate::stats::{rss_mib, Samples, Summary};
use crate::trace::Tracer;
use std::time::Instant;
use wfdatalog::serve::query_response_body;
use wfdatalog::{fact_batch_from_reader, KnowledgeBase, SolvedModel};
use wfdl_analyze::ProgramSlice;
use wfdl_chase::{ChaseBudget, ChaseSegment, ChaseStats};
use wfdl_core::{AtomId, PredId, SkolemProgram, SolveBudget, Universe};
use wfdl_storage::{AtomIndex, Database};
use wfdl_wfs::{
    condensation, lower_with_constraints, solve, solve_resumed, solve_sliced_packaged_budgeted,
    ModularEngine, ModularStats, WellFoundedModel, WfsOptions,
};

fn chase_budget(workload: Workload) -> ChaseBudget {
    workload
        .depth()
        .map_or_else(ChaseBudget::unbounded, ChaseBudget::depth)
}

/// What the frontend hands the solve pipeline.
struct Compiled {
    universe: Universe,
    database: Database,
    sigma: SkolemProgram,
    violations: Vec<PredId>,
}

/// Frontend + skolemization, as `KnowledgeBase::from_source` /
/// `from_ontology` run them.
fn frontend(t: &mut Tracer, program: &Program) -> Result<Compiled, String> {
    let mut universe = Universe::new();
    let open = t.enter("frontend", "frontend.load");
    let loaded = match program {
        Program::Datalog(text) => t
            .span("syntax", "syntax.load", || {
                wfdl_syntax::load(&mut universe, text)
            })
            .map(|l| (l.program, l.functional, l.database))
            .map_err(|e| e.to_string()),
        Program::Ontology { text, queries } => (|| {
            let onto = t
                .span("ontology", "ontology.parse", || {
                    wfdl_ontology::parse_ontology(text)
                })
                .map_err(|e| e.to_string())?;
            let translated = t
                .span("ontology", "ontology.translate", || {
                    wfdl_ontology::translate(&mut universe, &onto)
                })
                .map_err(|e| e.to_string())?;
            t.span("syntax", "syntax.load", || {
                wfdl_syntax::load(&mut universe, queries)
            })
            .map_err(|e| e.to_string())?;
            Ok((translated.program, Vec::new(), translated.database))
        })(),
    };
    t.exit(open);
    let (tgds, functional, database) = loaded?;
    let (mut sigma, violations) = t
        .span("core", "core.skolemize", || {
            lower_with_constraints(&mut universe, &tgds)
        })
        .map_err(|e| e.to_string())?;
    sigma.rules.extend(functional);
    Ok(Compiled {
        universe,
        database,
        sigma,
        violations,
    })
}

/// `(true, false, unknown)` over a segment's atoms — what
/// `WellFoundedModel::counts` reports for the façade's model.
fn verdict_counts(
    segment: &ChaseSegment,
    value: impl Fn(AtomId) -> wfdl_core::Truth,
) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for atom in segment.atoms() {
        match value(atom.atom) {
            wfdl_core::Truth::True => counts.0 += 1,
            wfdl_core::Truth::False => counts.1 += 1,
            wfdl_core::Truth::Unknown => counts.2 += 1,
        }
    }
    counts
}

/// Sizes and counters of one cold replica operation.
struct ColdReplica {
    counts: (usize, usize, usize),
    chase: ChaseStats,
    atoms: usize,
    instances: usize,
    ground_rules: usize,
    interned_atoms: usize,
    modular: ModularStats,
}

/// One cold operation, layer by layer. `threads = 1` is the serial
/// pipeline; `0` the shipped default (its chase and engine spans carry an
/// `_auto` suffix so the two never mix).
fn cold_replica(
    t: &mut Tracer,
    workload: Workload,
    inputs: &Inputs,
    threads: usize,
) -> Result<ColdReplica, String> {
    let serial = threads == 1;
    let root = t.enter(
        "replica",
        if serial {
            "replica.cold"
        } else {
            "replica.cold_auto"
        },
    );
    let mut c = frontend(t, &inputs.program)?;
    let budget = chase_budget(workload).with_threads(threads);
    let segment = t.span(
        "chase",
        if serial {
            "chase.build"
        } else {
            "chase.build_auto"
        },
        || ChaseSegment::build(&mut c.universe, &c.database, &c.sigma, budget),
    );
    let chase = segment.stats();
    if serial {
        t.count("chase.match_ns", chase.match_ns as f64);
        t.count("chase.merge_ns", chase.merge_ns as f64);
    }
    let ground = t.span("wfs", "wfs.ground", || segment.to_ground_program());
    let result = t.span(
        "wfs",
        if serial {
            "wfs.engine"
        } else {
            "wfs.engine_auto"
        },
        || ModularEngine::new(&ground).with_threads(threads).solve(),
    );
    // The façade's packaging step with a public entry point of its own.
    t.span("storage", "storage.index", || {
        AtomIndex::build(&c.universe, result.interp.true_atoms())
    });
    t.exit(root);
    Ok(ColdReplica {
        counts: verdict_counts(&segment, |a| result.value(a)),
        chase,
        atoms: segment.atoms().len(),
        instances: segment.num_instances(),
        ground_rules: ground.num_rules(),
        interned_atoms: c.universe.atoms.len(),
        modular: result
            .stats
            .ok_or("the modular engine reported no statistics")?,
    })
}

/// Everything the cold sections measure outside the tracer.
struct ColdSection {
    facade_compile: Samples,
    facade_solve: Samples,
    facade_answer: Samples,
    rss_after_solve_mib: f64,
    /// Replica wall time with spans recorded / not recorded.
    traced_wall: Samples,
    untraced_wall: Samples,
    replica: ColdReplica,
    /// The shipped default's resolved threads: chase shards, engine workers.
    auto_threads: (usize, usize),
}

fn cold_section(
    t: &mut Tracer,
    workload: Workload,
    inputs: &Inputs,
    plan: Plan,
    ops: &mut Ops,
) -> Result<ColdSection, String> {
    let (mut compile_t, mut solve_t, mut answer_t) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut traced_wall, mut untraced_wall) = (Samples::default(), Samples::default());
    let mut rss_after_solve_mib = 0.0;
    let mut replica = None;
    let mut facade_counts = None;
    // Façade operation, replica with spans, replica without, and again:
    // interleaved, and with no model outliving its operation, so that all
    // three meet the same allocator state. (A large live allocation alone
    // shifts the next operation's frontend time by a quarter.) The two
    // replica runs are the same code, so their difference is what span
    // recording costs.
    for i in 0..WARMUP + plan.cold {
        let timed = i >= WARMUP;
        match cold_op(workload, inputs, Some(1)) {
            Ok(op) if timed => {
                ops.record(true);
                compile_t.push(op.compile);
                solve_t.push(op.solve);
                answer_t.push(op.answer);
                rss_after_solve_mib = rss_mib();
                facade_counts = Some(op.counts);
            }
            Err(_) if timed => {
                ops.record(false);
            }
            _ => {}
        }
        for enabled in [true, false] {
            t.enabled = enabled && timed;
            let t0 = Instant::now();
            let outcome = cold_replica(t, workload, inputs, 1)?;
            let elapsed = t0.elapsed();
            if !timed {
                continue;
            }
            if enabled {
                traced_wall.push(elapsed);
                // The replica explains the façade operation only if it
                // reaches the same verdicts.
                ops.record(Some(outcome.counts) == facade_counts);
                replica = Some(outcome);
            } else {
                untraced_wall.push(elapsed);
            }
        }
    }
    let facade_counts = facade_counts.ok_or("every façade cold operation failed")?;
    t.enabled = true;
    let mut auto_threads = (1, 1);
    for _ in 0..plan.cold_auto {
        let outcome = cold_replica(t, workload, inputs, 0)?;
        ops.record(outcome.counts == facade_counts);
        auto_threads = (outcome.chase.effective_threads, outcome.modular.threads);
    }
    Ok(ColdSection {
        facade_compile: compile_t,
        facade_solve: solve_t,
        facade_answer: answer_t,
        rss_after_solve_mib,
        traced_wall,
        untraced_wall,
        replica: replica.ok_or("no traced replica operation ran")?,
        auto_threads,
    })
}

/// `wfs.condense`: the condensation alone. The engine computes it again
/// inside `wfs.engine`, so this is a probe of a part, not an extra layer.
fn condense_probe(
    t: &mut Tracer,
    workload: Workload,
    inputs: &Inputs,
    count: usize,
) -> Result<(), String> {
    t.enabled = false;
    let mut c = frontend(t, &inputs.program)?;
    t.enabled = true;
    let segment = ChaseSegment::build(
        &mut c.universe,
        &c.database,
        &c.sigma,
        chase_budget(workload),
    );
    let ground = segment.to_ground_program();
    for _ in 0..count {
        let root = t.enter("probe", "probe.condense");
        t.span("wfs", "wfs.condense", || condensation(&ground));
        t.exit(root);
    }
    Ok(())
}

/// The query and render layers, called directly on a solved model.
fn query_section(t: &mut Tracer, model: &SolvedModel, inputs: &Inputs, plan: Plan, ops: &mut Ops) {
    for query in inputs.points.iter().cycle().take(plan.points) {
        let root = t.enter("replica", "replica.point");
        let prepared = t.span("syntax", "syntax.prepare_query", || {
            model.prepare(&query.text)
        });
        let ok = prepared.is_ok_and(|p| {
            t.span("query", "query.eval_point", || model.ask3_prepared(&p));
            answer_matches(model, &p, &query.expect)
        });
        let _ = t.span("serve", "serve.render", || {
            query_response_body(model, &[&query.text])
        });
        t.exit(root);
        ops.record(ok);
    }
    for _ in 0..plan.scans {
        let root = t.enter("replica", "replica.scan");
        let ok = model.prepare(&inputs.scan.text).is_ok_and(|p| {
            let answers = t.span("query", "query.eval_scan", || model.answers_prepared(&p));
            t.count("query.answers_per_scan", answers.len() as f64);
            answer_matches(model, &p, &inputs.scan.expect)
        });
        let _ = t.span("serve", "serve.scan_render", || {
            query_response_body(model, &[&inputs.scan.text])
        });
        t.exit(root);
        ops.record(ok);
    }
}

/// Checks the round's first read and its sliced query through the direct
/// API (read-your-writes for the in-process replicas).
fn round_answers_match(model: &SolvedModel, sliced_model: &SolvedModel, round: &Round) -> bool {
    let holds = |m: &SolvedModel, q: &Query| {
        m.prepare(&q.text)
            .is_ok_and(|p| answer_matches(m, &p, &q.expect))
    };
    round.reads[0].iter().all(|q| holds(model, q)) && holds(sliced_model, &round.sliced)
}

/// The churn rounds through the façade, with a span around each façade
/// call `POST /ingest` and `POST /query?mode=sliced` make. Returns each
/// round's verdict counts for the layer replica to match.
fn facade_churn(
    t: &mut Tracer,
    kb: &mut KnowledgeBase,
    rounds: &[Round],
    ops: &mut Ops,
) -> Vec<(usize, usize, usize)> {
    let mut counts = Vec::with_capacity(rounds.len());
    for round in rounds {
        // A server still holds the model it serves while the next one is
        // solved, and lets go of it at the swap.
        let previous = kb.solve();
        let root = t.enter("facade", "facade.ingest");
        // The served model still shares the universe: the first mutation
        // after a solve copies it.
        let universe = t.span("facade", "facade.universe_cow", || kb.universe_mut());
        let batch = t.span("syntax", "syntax.tsv_load", || {
            fact_batch_from_reader(universe, round.ingest_csv.as_bytes())
        });
        let added = batch.and_then(|b| t.span("facade", "facade.insert", || kb.insert(b)));
        let model = t.span("facade", "facade.resolve", || kb.solve());
        t.span("facade", "facade.drop_model", || drop(previous));
        t.span("analyze", "analyze.lint", || {
            kb.analyze().to_json("<program>")
        });
        t.exit(root);

        let root = t.enter("facade", "facade.first_read");
        if let Ok(first) = model.prepare(&round.reads[0][0].text) {
            t.span("query", "query.first_eval", || model.ask3_prepared(&first));
        }
        t.span("facade", "facade.cached_solve", || kb.solve());
        t.exit(root);

        let root = t.enter("facade", "facade.sliced");
        let sliced = t.span("facade", "facade.solve_for", || {
            kb.solve_for(&round.sliced.text)
        });
        let _ = t.span("facade", "facade.solve_for_cached", || {
            kb.solve_for(&round.sliced.text)
        });
        t.exit(root);

        let stats = model.solve_stats();
        let ok = added.is_ok_and(|n| n == round.facts)
            && stats.incremental
            && sliced.is_ok_and(|s| round_answers_match(&model, &s, round));
        ops.record(ok);
        counts.push(model.model().counts());
    }
    counts
}

/// The same rounds against the layers directly: resume the chase, extend
/// the ground program, re-solve with component reuse; slice and solve the
/// slice. Runs at the shipped default thread count, like the server.
fn layer_churn(
    t: &mut Tracer,
    workload: Workload,
    inputs: &Inputs,
    rounds: &[Round],
    expected: &[(usize, usize, usize)],
    ops: &mut Ops,
) -> Result<(), String> {
    t.enabled = false;
    let mut c = frontend(t, &inputs.program)?;
    t.enabled = true;
    let options = WfsOptions {
        budget: chase_budget(workload),
        threads: 0,
        ..WfsOptions::default()
    };
    let mut prev: WellFoundedModel = solve(&mut c.universe, &c.database, &c.sigma, options);
    for (round, expected) in rounds.iter().zip(expected) {
        let batch = fact_batch_from_reader(&mut c.universe, round.ingest_csv.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut delta = Vec::with_capacity(batch.len());
        for &atom in batch.atoms() {
            if c.database
                .insert(&c.universe, atom)
                .map_err(|e| e.to_string())?
            {
                delta.push(atom);
            }
        }

        let root = t.enter("replica", "replica.resolve");
        let (model, _) = t
            .span("wfs", "wfs.resolve", || {
                solve_resumed(&mut c.universe, &prev, &c.sigma, &delta, options)
            })
            .map_err(|e| e.to_string())?;
        if let Some(stats) = model.component_stats() {
            let pct = 100.0 * stats.components_reused as f64 / stats.components.max(1) as f64;
            t.count("wfs.components_reused_pct", pct);
        }
        t.exit(root);
        ops.record(model.counts() == *expected);

        // Two parts of `wfs.resolve` have public entry points of their
        // own; run them again on the previous model (results dropped).
        let root = t.enter("probe", "probe.resume_parts");
        let segment = t
            .span("chase", "chase.resume", || {
                prev.segment.resume_with(&mut c.universe, &c.sigma, &delta)
            })
            .map_err(|e| e.to_string())?;
        t.span("wfs", "wfs.ground_extend", || {
            segment.to_ground_program_from(&prev.ground)
        });
        t.exit(root);
        drop(segment);
        prev = model;

        let goals = wfdl_syntax::prepare_query(&c.universe, &round.sliced.text)
            .map_err(|e| e.to_string())?
            .goal_preds();
        // The sliced chase interns its nulls into a copy, as the façade's.
        let mut scratch = c.universe.clone();
        let root = t.enter("replica", "replica.sliced");
        let slice = t.span("analyze", "analyze.slice", || {
            ProgramSlice::compute(c.universe.num_preds(), &c.sigma, &goals)
        });
        t.count("analyze.slice_preds", slice.preds_in_slice as f64);
        t.span("wfs", "wfs.sliced_solve", || {
            solve_sliced_packaged_budgeted(
                &mut scratch,
                &c.database,
                &c.sigma,
                options,
                &c.violations,
                &SolveBudget::unlimited(),
                &slice.pred_mask,
                Some(&prev),
            )
        });
        t.exit(root);
    }
    Ok(())
}

fn last(values: &[f64]) -> f64 {
    values.last().copied().unwrap_or(0.0)
}

/// The traced run: every per-layer metric. Runs a quarter of the untraced
/// plan's counts.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    scale: Scale,
    full: Plan,
) -> Result<(Report, Tracer), String> {
    let wall = Instant::now();
    let plan = full.quarter();
    let mut ops = Ops::default();
    let mut t = Tracer::default();
    let inputs = generate(workload, seed, scale, plan.generated_rounds());

    let cold = cold_section(&mut t, workload, &inputs, plan, &mut ops)?;
    condense_probe(&mut t, workload, &inputs, plan.cold)?;
    {
        let served = cold_op(workload, &inputs, Some(1))?;
        query_section(&mut t, &served.model, &inputs, plan, &mut ops);
    }

    // The HTTP tier, for the numbers only it can give.
    let server = serve(workload, &inputs)?;
    let addr = server.addr();
    let (mut points, mut churn) = (PointPhase::default(), ChurnPhase::default());
    point_phase(
        addr,
        &inputs.points,
        plan.conns,
        plan.points,
        plan.point_reps,
        &mut points,
    );
    scan_phase(
        addr,
        &inputs.scan,
        plan.scans,
        &mut Samples::default(),
        &mut ops,
    );
    let quiet = WARMUP + plan.rounds;
    churn_phase(addr, &inputs.rounds[..quiet], WARMUP, &mut churn);
    let contended = contended_churn(
        addr,
        &inputs.rounds[quiet..quiet + plan.contended_rounds],
        &inputs.points,
    );
    server.shutdown();
    for phase_ops in [points.ops, churn.ops, contended.ops] {
        ops.add(phase_ops);
    }

    // The same quiet rounds through the façade, then through the layers.
    let mut kb = compile(workload, &inputs.program, None)?;
    kb.solve();
    let counts = facade_churn(&mut t, &mut kb, &inputs.rounds[..quiet], &mut ops);
    drop(kb);
    layer_churn(
        &mut t,
        workload,
        &inputs,
        &inputs.rounds[..quiet],
        &counts,
        &mut ops,
    )?;

    let ns = |name: &str| t.median_ns(name);
    let timing =
        |metric: &'static str, span: &str| Metric::timing(metric, "ns", &t.durations(span));
    let value = Metric::value;
    let r = &cold.replica;
    let facade_ns = cold.facade_compile.median_ns() + cold.facade_solve.median_ns();
    let pipeline_ns = ns("frontend.load")
        + ns("core.skolemize")
        + ns("chase.build")
        + ns("wfs.ground")
        + ns("wfs.engine");
    let ingest_parts_ns = ns("facade.universe_cow")
        + ns("syntax.tsv_load")
        + ns("facade.insert")
        + ns("facade.resolve")
        + ns("facade.drop_model")
        + ns("analyze.lint");
    let point_us = points.latency.median_ns() / 1e3;
    let metrics = vec![
        timing("frontend.load_ns", "frontend.load"),
        value(
            "frontend.facts_per_s",
            "1/s",
            inputs.facts as f64 / (ns("frontend.load") / 1e9),
        ),
        timing("syntax.tsv_load_ns", "syntax.tsv_load"),
        timing("syntax.prepare_query_ns", "syntax.prepare_query"),
        timing("core.skolemize_ns", "core.skolemize"),
        value("core.interned_atoms", "count", r.interned_atoms as f64),
        timing("chase.build_ns", "chase.build"),
        value(
            "chase.match_ns",
            "ns",
            Summary::of(&t.counted("chase.match_ns")).median,
        ),
        value(
            "chase.merge_ns",
            "ns",
            Summary::of(&t.counted("chase.merge_ns")).median,
        ),
        value("chase.rounds", "count", r.chase.rounds as f64),
        value("chase.atoms", "count", r.atoms as f64),
        value("chase.instances", "count", r.instances as f64),
        value(
            "chase.atoms_per_s",
            "1/s",
            r.atoms as f64 / (ns("chase.build") / 1e9),
        ),
        timing("chase.build_auto_ns", "chase.build_auto"),
        value(
            "chase.effective_threads",
            "count",
            cold.auto_threads.0 as f64,
        ),
        timing("chase.resume_ns", "chase.resume"),
        timing("wfs.ground_ns", "wfs.ground"),
        value("wfs.ground_rules", "count", r.ground_rules as f64),
        timing("wfs.ground_extend_ns", "wfs.ground_extend"),
        timing("wfs.condense_ns", "wfs.condense"),
        timing("wfs.engine_ns", "wfs.engine"),
        timing("wfs.engine_auto_ns", "wfs.engine_auto"),
        value("wfs.components", "count", r.modular.components as f64),
        value(
            "wfs.recursive_components",
            "count",
            r.modular.recursive_components as f64,
        ),
        value(
            "wfs.largest_component",
            "count",
            r.modular.largest_component as f64,
        ),
        value("wfs.unknown_atoms", "count", r.modular.unknown_atoms as f64),
        timing("wfs.resolve_ns", "wfs.resolve"),
        value(
            "wfs.components_reused_pct",
            "%",
            Summary::of(&t.counted("wfs.components_reused_pct")).median,
        ),
        timing("wfs.sliced_solve_ns", "wfs.sliced_solve"),
        timing("analyze.lint_ns", "analyze.lint"),
        timing("analyze.slice_ns", "analyze.slice"),
        value(
            "analyze.slice_preds",
            "count",
            last(&t.counted("analyze.slice_preds")),
        ),
        timing("storage.index_ns", "storage.index"),
        Metric::timing("facade.compile_ns", "ns", &cold.facade_compile),
        Metric::timing("facade.solve_ns", "ns", &cold.facade_solve),
        value(
            "facade.tax_pct",
            "%",
            100.0 * (facade_ns / pipeline_ns - 1.0),
        ),
        timing("facade.universe_cow_ns", "facade.universe_cow"),
        timing("facade.insert_ns", "facade.insert"),
        timing("facade.resolve_ns", "facade.resolve"),
        timing("facade.drop_model_ns", "facade.drop_model"),
        value(
            "facade.resolve_tax_pct",
            "%",
            100.0 * (ns("facade.resolve") / ns("wfs.resolve") - 1.0),
        ),
        timing("facade.cached_solve_ns", "facade.cached_solve"),
        timing("facade.solve_for_ns", "facade.solve_for"),
        timing("facade.solve_for_cached_ns", "facade.solve_for_cached"),
        value(
            "facade.rss_after_solve_mib",
            "MiB",
            cold.rss_after_solve_mib,
        ),
        value(
            "facade.rss_growth_mib",
            "MiB",
            last(&churn.rss_mib) - churn.rss_mib.first().copied().unwrap_or(0.0),
        ),
        timing("query.eval_point_ns", "query.eval_point"),
        timing("query.eval_scan_ns", "query.eval_scan"),
        value(
            "query.answers_per_scan",
            "count",
            last(&t.counted("query.answers_per_scan")),
        ),
        timing("query.first_eval_ns", "query.first_eval"),
        Metric::timing("query.answer_embedded_ns", "ns", &cold.facade_answer),
        timing("serve.render_ns", "serve.render"),
        timing("serve.scan_render_ns", "serve.scan_render"),
        Metric::timing("serve.query_p50_us", "us", &points.latency),
        Metric {
            summary: Some(Summary::of(&points.qps)),
            ..value("serve.query_qps", "req/s", Summary::of(&points.qps).median)
        },
        value(
            "serve.transport_us",
            "us",
            point_us - ns("serve.render") / 1e3,
        ),
        value(
            "serve.ingest_overhead_ms",
            "ms",
            (churn.ingest.median_ns() - ingest_parts_ns) / 1e6,
        ),
        value(
            "serve.read_p99_us",
            "us",
            points.latency.quantile(0.99) / 1e3,
        ),
        Metric::timing("serve.warm_read_us", "us", &churn.warm_read),
        Metric::timing("serve.churn_read_p50_us", "us", &contended.read),
        value(
            "serve.churn_read_p99_us",
            "us",
            contended.read.quantile(0.99) / 1e3,
        ),
        value("serve.churn_read_qps", "req/s", contended.read_qps),
        Metric::timing("serve.churn_ingest_p50_ms", "ms", &contended.ingest),
        value("serve.stale_reads", "count", contended.stale_reads as f64),
        value(
            "trace.unattributed_pct",
            "%",
            100.0 * (1.0 - (pipeline_ns + ns("storage.index")) / facade_ns),
        ),
        value(
            "trace.overhead_pct",
            "%",
            100.0 * (cold.traced_wall.median_ns() / cold.untraced_wall.median_ns() - 1.0),
        ),
    ];

    // Layer shares of the façade's compile + solve time; with the tax they
    // sum to 100 %.
    let share = |span: &str| Json::Num((1000.0 * ns(span) / facade_ns).round() / 10.0);
    let shares = Json::obj([
        ("frontend", share("frontend.load")),
        ("skolemize", share("core.skolemize")),
        ("chase", share("chase.build")),
        ("ground", share("wfs.ground")),
        ("engine", share("wfs.engine")),
        (
            "facade_tax",
            Json::Num((1000.0 * (1.0 - pipeline_ns / facade_ns)).round() / 10.0),
        ),
    ]);
    let report = Report {
        workload,
        seed,
        traced: true,
        ops,
        metrics,
        info: vec![
            ("facts", Json::Num(inputs.facts as f64)),
            ("auto_chase_threads", Json::Num(cold.auto_threads.0 as f64)),
            ("auto_engine_threads", Json::Num(cold.auto_threads.1 as f64)),
            ("client_connections", Json::Num(plan.conns as f64)),
            ("spans", Json::Num(t.spans().len() as f64)),
            (
                "verdict_counts",
                Json::Arr(
                    [r.counts.0, r.counts.1, r.counts.2]
                        .map(|n| Json::Num(n as f64))
                        .to_vec(),
                ),
            ),
            ("layer_share_pct_of_facade_compile_and_solve", shares),
        ],
        wall: wall.elapsed(),
    };
    Ok((report, t))
}
