//! Modular (SCC-condensation) evaluation vs the global fixpoint engines —
//! the headline measurement for the dense-CSR + modular-evaluation
//! refactor, and experiment E7's engine ablation: the same well-founded
//! model computed by the production engine, the definitional `W_P` engine
//! (accelerated and literal stepping), Van Gelder's alternating fixpoint,
//! and the forward-proof `Ŵ_P` engine. Engine time is isolated by chasing
//! and grounding once and timing only the fixpoint computation.
//!
//! Workloads:
//! * `stratified` — a random stratified guarded program (negation across
//!   strata only): every component is definite, so the modular engine does
//!   one linear sweep while the global engines run staged unfounded-set
//!   rounds;
//! * `winmove_dag` — win–move on an acyclic game graph: the alternation
//!   depth (and hence the global engines' stage count) grows with the
//!   longest path, while the condensation stays all-definite;
//! * `winmove512` — the win–move game on a random graph with draw cycles:
//!   the recursive components exist but stay tiny.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfdl_core::Universe;
use wfdl_gen::{
    random_database, random_stratified_program, winmove_database, winmove_sigma, RandomConfig,
    RandomDbConfig, WinMoveConfig,
};
use wfdl_wfs::{
    solve, AlternatingEngine, ForwardEngine, ModularEngine, StepMode, WellFoundedModel, WfsOptions,
    WpEngine,
};

/// The solved workload: its `ground` program feeds the ground-level
/// engines, its `segment` the forward engine.
fn stratified() -> WellFoundedModel {
    let mut u = Universe::new();
    let w = random_stratified_program(
        &mut u,
        &RandomConfig {
            seed: 2,
            num_rules: 32,
            num_preds: 12,
            negation_prob: 0.6,
            existential_prob: 0.0,
            ..Default::default()
        },
        4,
    );
    let db = random_database(
        &mut u,
        &w,
        &RandomDbConfig {
            num_constants: 48,
            num_facts: 2048,
            seed: 9,
        },
    );
    solve(&mut u, &db, &w.sigma, WfsOptions::unbounded())
}

fn winmove(nodes: usize, forward_bias: f64) -> WellFoundedModel {
    let mut u = Universe::new();
    let sigma = winmove_sigma(&mut u);
    let db = winmove_database(
        &mut u,
        &WinMoveConfig {
            nodes,
            out_degree: 2.0,
            forward_bias,
            seed: 3,
        },
    );
    solve(&mut u, &db, &sigma, WfsOptions::unbounded())
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("modular_vs_global");
    group.sample_size(30);

    for (workload, model) in [
        ("stratified", stratified()),
        ("winmove_dag", winmove(2048, 1.0)),
        ("winmove512", winmove(512, 0.5)),
    ] {
        let ground = &model.ground;
        group.bench_with_input(BenchmarkId::new(workload, "modular"), ground, |b, g| {
            b.iter(|| ModularEngine::new(g).solve());
        });
        group.bench_with_input(BenchmarkId::new(workload, "wp"), ground, |b, g| {
            b.iter(|| WpEngine::new(g).solve(StepMode::Accelerated));
        });
        group.bench_with_input(BenchmarkId::new(workload, "wp_literal"), ground, |b, g| {
            b.iter(|| WpEngine::new(g).solve(StepMode::Literal));
        });
        group.bench_with_input(BenchmarkId::new(workload, "alternating"), ground, |b, g| {
            b.iter(|| AlternatingEngine::new(g).solve());
        });
        let segment = &model.segment;
        group.bench_with_input(BenchmarkId::new(workload, "forward"), segment, |b, s| {
            b.iter(|| ForwardEngine::new(s).solve());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
