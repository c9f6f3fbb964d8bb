//! The benchmark's own checks, at smoke size: inputs are a function of the
//! seed, counters repeat exactly, a wrong answer is caught, and the metric
//! tables agree with `BENCHMARK.json`.

use wfdl_benchmark::facade::{cold_op, compile};
use wfdl_benchmark::gen::{generate, Expect, Scale, Workload};
use wfdl_benchmark::json::Json;
use wfdl_benchmark::layers::run_traced;
use wfdl_benchmark::load::{point_phase, PointPhase};
use wfdl_benchmark::metrics::{END_TO_END, PER_LAYER};
use wfdl_benchmark::oracle::Verdict;
use wfdl_benchmark::run::{run_untraced, Plan, Report};

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for workload in Workload::ALL {
        let inputs = |seed| generate(workload, seed, Scale::SMOKE, 4);
        assert!(
            inputs(7) == inputs(7),
            "{}: same seed, different inputs",
            workload.name()
        );
        assert!(
            inputs(7) != inputs(8),
            "{}: the seed changes nothing",
            workload.name()
        );
    }
}

fn names(report: &Report) -> Vec<&'static str> {
    report.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn smoke_runs_are_correct_and_their_counters_repeat_exactly() {
    for workload in Workload::ALL {
        let untraced =
            || run_untraced(workload, 2013, Scale::SMOKE, Plan::smoke()).expect("untraced run");
        let traced = || {
            run_traced(workload, 2013, Scale::SMOKE, Plan::smoke())
                .expect("traced run")
                .0
        };
        let (u1, u2, t1, t2) = (untraced(), untraced(), traced(), traced());
        for report in [&u1, &u2, &t1, &t2] {
            assert_eq!(
                report.ops.failed,
                0,
                "{}: failed operations",
                workload.name()
            );
            assert!(report.ops.attempted > 0);
        }
        assert_eq!(
            names(&u1),
            END_TO_END.map(|m| m.name),
            "untraced runs report the end-to-end table"
        );
        assert_eq!(
            names(&t1),
            PER_LAYER.map(|m| m.name),
            "traced runs report the per-layer table"
        );
        assert_eq!(u1.ops.attempted, u2.ops.attempted);
        assert_eq!(t1.ops.attempted, t2.ops.attempted);
        for counter in [
            "chase.atoms",
            "chase.instances",
            "wfs.components",
            "wfs.unknown_atoms",
        ] {
            let value = t1.metric(counter).expect(counter);
            assert!(value >= 0.0 && value.fract() == 0.0, "{counter} is a count");
            assert_eq!(
                Some(value),
                t2.metric(counter),
                "{}: {counter} differs between runs",
                workload.name()
            );
        }
        // Every timing is a real measurement: nothing reads zero.
        for metric in u1.metrics.iter().chain(&t1.metrics) {
            let is_time = matches!(metric.unit, "s" | "ms" | "us" | "ns");
            assert!(
                !is_time || metric.name.ends_with("overhead_ms") || metric.value > 0.0,
                "{} = {}",
                metric.name,
                metric.value
            );
        }
    }
}

#[test]
fn three_valued_workloads_are_three_valued() {
    for workload in [Workload::WinmoveCold, Workload::MixedChurn] {
        let inputs = generate(workload, 2013, Scale::SMOKE, 0);
        let op = cold_op(workload, &inputs, Some(1)).expect("cold operation");
        let (t, f, u) = op.counts;
        assert!(
            t > 0 && f > 0 && u > 0,
            "{}: verdict counts {:?}",
            workload.name(),
            op.counts
        );
    }
}

#[test]
fn a_wrong_expected_answer_fails_the_operation() {
    for workload in Workload::ALL {
        let mut inputs = generate(workload, 2013, Scale::SMOKE, 0);
        assert!(cold_op(workload, &inputs, Some(1)).is_ok());
        // One embedded ask now expects the opposite.
        let ask = inputs
            .embedded
            .iter_mut()
            .find_map(|e| match e {
                Expect::Truth(v) => Some(v),
                Expect::Answers(_) => None,
            })
            .expect("an embedded ask");
        *ask = if *ask == Verdict::True {
            Verdict::False
        } else {
            Verdict::True
        };
        assert!(
            cold_op(workload, &inputs, Some(1)).is_err(),
            "{}: the oracle let it pass",
            workload.name()
        );
    }
}

#[test]
fn a_wrong_answer_over_http_counts_as_failed_and_gets_no_latency() {
    let workload = Workload::EmploymentServe;
    let mut inputs = generate(workload, 2013, Scale::SMOKE, 0);
    let kb = compile(workload, &inputs.program, None).expect("compiles");
    let server = wfdatalog::serve::start(kb, Default::default()).expect("server starts");
    let addr = server.addr();
    let lookups = |pool: &[_]| {
        let mut phase = PointPhase::default();
        point_phase(addr, pool, 1, 10, 1, &mut phase);
        phase
    };
    let right = lookups(&inputs.points);
    assert_eq!(
        (right.ops.attempted, right.ops.failed, right.latency.0.len()),
        (10, 0, 10)
    );
    // The one connection asks pool entries 2..12 after its two warm-ups.
    inputs.points[5].expect = Expect::Truth(Verdict::Unknown);
    let wrong = lookups(&inputs.points);
    assert_eq!(
        (wrong.ops.attempted, wrong.ops.failed, wrong.latency.0.len()),
        (10, 1, 9)
    );
    server.shutdown();
}

#[test]
fn benchmark_json_publishes_the_tables_the_code_uses() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let rows = |key: &str| doc.get(key).and_then(Json::as_array).expect(key).to_vec();
    let field = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).map(str::to_owned);

    let workloads: Vec<_> = rows("workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(workloads, Workload::ALL.map(|w| Some(w.name().to_owned())));

    let end_to_end = rows("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (row, metric) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(field(row, "name").as_deref(), Some(metric.name));
        assert_eq!(
            field(row, "unit").as_deref(),
            Some(metric.unit),
            "{}",
            metric.name
        );
        assert_eq!(
            field(row, "better").as_deref(),
            Some(metric.better.as_str()),
            "{}",
            metric.name
        );
        assert_eq!(
            row.get("bound").and_then(Json::as_f64),
            Some(metric.bound),
            "{}",
            metric.name
        );
    }
    let per_layer = rows("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (row, metric) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(field(row, "name").as_deref(), Some(metric.name));
        assert_eq!(
            field(row, "unit").as_deref(),
            Some(metric.unit),
            "{}",
            metric.name
        );
        assert_eq!(
            field(row, "better").as_deref(),
            Some(metric.better.as_str()),
            "{}",
            metric.name
        );
    }
}
