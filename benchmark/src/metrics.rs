//! The benchmark's metric names, units, directions and regression bounds —
//! the same table `BENCHMARK.json` publishes (a test keeps them equal).

use Better::{Higher, Lower};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the baseline's median by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these (untraced run).
///
/// Every bound is the 25 % cap of the benchmark's contract, which asks
/// for three times the spread (interquartile range over median) between
/// identical runs: on the shared 2-core host this was written on, ten
/// such runs spread by up to 10–16 % on every one of these — see "How
/// steady the numbers are" in the README.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("cold_solve_s", "s", Better::Lower, 0.25),
    e2e("cold_solve_auto_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
    e2e("scan_query_s", "s", Better::Lower, 0.25),
    e2e("ingest_s", "s", Better::Lower, 0.25),
    e2e("first_read_s", "s", Better::Lower, 0.25),
    e2e("sliced_query_s", "s", Better::Lower, 0.25),
];

/// A per-layer metric (traced run): no bound, it explains an end-to-end
/// metric instead of gating anything.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload reports every one of these (traced run), in this order.
pub const PER_LAYER: [PerLayer; 66] = [
    layer("frontend.load_ns", "ns", Lower),
    layer("frontend.facts_per_s", "1/s", Higher),
    layer("syntax.tsv_load_ns", "ns", Lower),
    layer("syntax.prepare_query_ns", "ns", Lower),
    layer("core.skolemize_ns", "ns", Lower),
    layer("core.interned_atoms", "count", Lower),
    layer("chase.build_ns", "ns", Lower),
    layer("chase.match_ns", "ns", Lower),
    layer("chase.merge_ns", "ns", Lower),
    layer("chase.rounds", "count", Lower),
    layer("chase.atoms", "count", Lower),
    layer("chase.instances", "count", Lower),
    layer("chase.atoms_per_s", "1/s", Higher),
    layer("chase.build_auto_ns", "ns", Lower),
    layer("chase.effective_threads", "count", Higher),
    layer("chase.resume_ns", "ns", Lower),
    layer("wfs.ground_ns", "ns", Lower),
    layer("wfs.ground_rules", "count", Lower),
    layer("wfs.ground_extend_ns", "ns", Lower),
    layer("wfs.condense_ns", "ns", Lower),
    layer("wfs.engine_ns", "ns", Lower),
    layer("wfs.engine_auto_ns", "ns", Lower),
    layer("wfs.components", "count", Lower),
    layer("wfs.recursive_components", "count", Lower),
    layer("wfs.largest_component", "count", Lower),
    layer("wfs.unknown_atoms", "count", Lower),
    layer("wfs.resolve_ns", "ns", Lower),
    layer("wfs.components_reused_pct", "%", Higher),
    layer("wfs.sliced_solve_ns", "ns", Lower),
    layer("analyze.lint_ns", "ns", Lower),
    layer("analyze.slice_ns", "ns", Lower),
    layer("analyze.slice_preds", "count", Lower),
    layer("storage.index_ns", "ns", Lower),
    layer("facade.compile_ns", "ns", Lower),
    layer("facade.solve_ns", "ns", Lower),
    layer("facade.tax_pct", "%", Lower),
    layer("facade.universe_cow_ns", "ns", Lower),
    layer("facade.insert_ns", "ns", Lower),
    layer("facade.resolve_ns", "ns", Lower),
    layer("facade.drop_model_ns", "ns", Lower),
    layer("facade.resolve_tax_pct", "%", Lower),
    layer("facade.cached_solve_ns", "ns", Lower),
    layer("facade.solve_for_ns", "ns", Lower),
    layer("facade.solve_for_cached_ns", "ns", Lower),
    layer("facade.rss_after_solve_mib", "MiB", Lower),
    layer("facade.rss_growth_mib", "MiB", Lower),
    layer("query.eval_point_ns", "ns", Lower),
    layer("query.eval_scan_ns", "ns", Lower),
    layer("query.answers_per_scan", "count", Lower),
    layer("query.first_eval_ns", "ns", Lower),
    layer("query.answer_embedded_ns", "ns", Lower),
    layer("serve.render_ns", "ns", Lower),
    layer("serve.scan_render_ns", "ns", Lower),
    layer("serve.query_p50_us", "us", Lower),
    layer("serve.query_qps", "req/s", Higher),
    layer("serve.transport_us", "us", Lower),
    layer("serve.ingest_overhead_ms", "ms", Lower),
    layer("serve.read_p99_us", "us", Lower),
    layer("serve.warm_read_us", "us", Lower),
    layer("serve.churn_read_p50_us", "us", Lower),
    layer("serve.churn_read_p99_us", "us", Lower),
    layer("serve.churn_read_qps", "req/s", Higher),
    layer("serve.churn_ingest_p50_ms", "ms", Lower),
    layer("serve.stale_reads", "count", Lower),
    layer("trace.unattributed_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
];
