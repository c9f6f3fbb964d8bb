//! One run of one workload: the plan (operation counts), the untraced
//! end-to-end run, and the report both kinds of run produce.

use crate::facade::{cold_op, compile};
use crate::gen::{generate, Inputs, Scale, Workload};
use crate::json::Json;
use crate::load::{churn_phase, scan_phase, ChurnPhase, Ops, WARMUP};
use crate::pace::{Kernel, Pace};
use crate::stats::{peak_rss_mib, Samples, Summary};
use std::time::{Duration, Instant};
use wfdatalog::serve::{start, RunningServer, ServeOptions};

/// Operation counts of one run. Counts are fixed per `(workload, seconds)`
/// — never "as many as fit" — so `attempted` and every counter repeat
/// exactly from run to run.
///
/// The untraced run measures in **laps**: each lap runs a slice of every
/// phase. On a shared host interference comes in bursts of seconds; a
/// metric whose samples all sat in one two-second window would be hit
/// entirely or not at all, while samples spread over the whole run always
/// see the same mix.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Times the set-up (input generation, server start) is repeated; the
    /// median is reported.
    pub setups: usize,
    pub laps: usize,
    /// Cold operations at `threads = 1`, per lap.
    pub cold: usize,
    /// Cold operations at the shipped default (`threads` unset), per lap.
    pub cold_auto: usize,
    /// Client connections of the point-lookup phase (traced runs only).
    pub conns: usize,
    /// Point lookups per connection per repetition.
    pub points: usize,
    /// Point-lookup repetitions (`serve.query_qps` is their median).
    pub point_reps: usize,
    /// Scans per lap.
    pub scans: usize,
    /// Timed churn rounds (phase A) per lap.
    pub rounds: usize,
    /// Churn rounds with a concurrent reader (phase B, traced runs only).
    pub contended_rounds: usize,
}

/// Seconds of measuring one lap is sized for, on the 2-core host the
/// counts below were written on.
const LAP_SECONDS: u64 = 4;

impl Plan {
    /// The plan of a full-size run measuring for about `seconds` seconds:
    /// `seconds / 4` laps. Within a lap each workload spends most of its
    /// time on the phase it is named after and keeps just enough of the
    /// others for a steady median.
    pub fn full(workload: Workload, seconds: u64) -> Plan {
        let (cold, cold_auto, scans, rounds) = match workload {
            Workload::ChainCold => (11, 6, 40, 3),
            Workload::WinmoveCold => (4, 3, 10, 2),
            Workload::EmploymentServe => (4, 3, 150, 6),
            Workload::MixedChurn => (3, 2, 10, 8),
        };
        Plan {
            setups: 3,
            laps: seconds.div_ceil(LAP_SECONDS).max(1) as usize,
            cold,
            cold_auto,
            conns: client_connections(),
            points: 6_000,
            point_reps: 5,
            scans,
            rounds,
            contended_rounds: 8,
        }
    }

    /// The smoke plan: every phase, a handful of operations each.
    pub fn smoke() -> Plan {
        Plan {
            setups: 1,
            laps: 2,
            cold: 2,
            cold_auto: 1,
            conns: client_connections(),
            points: 25,
            point_reps: 2,
            scans: 3,
            rounds: 2,
            contended_rounds: 2,
        }
    }

    /// The traced run's plan: one lap holding a quarter of this plan's
    /// cold operations, scans and churn rounds (the point lookups and the
    /// contended rounds only run traced, so they stay whole).
    pub fn quarter(self) -> Plan {
        let q = |per_lap: usize| (self.laps * per_lap).div_ceil(4).max(2);
        Plan {
            laps: 1,
            cold: q(self.cold),
            cold_auto: q(self.cold_auto),
            scans: q(self.scans),
            rounds: q(self.rounds),
            ..self
        }
    }

    /// Churn rounds the generator must emit for a run of this plan and
    /// for the traced run derived from it.
    pub fn generated_rounds(self) -> usize {
        WARMUP + self.laps * self.rounds + self.contended_rounds
    }
}

/// Two connections per core (at most four). With one per core the closed
/// loop is bimodal on this host — 58k or 110k requests/s for a whole run,
/// depending on where the scheduler happened to put the threads, because
/// a core idles between a request and its answer and waking an idle
/// virtual CPU costs as much as serving the request. With two per core
/// there is always a runnable thread and throughput holds within ±5 %.
fn client_connections() -> usize {
    2 * std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Distribution behind the value, when it is a median of samples.
    pub summary: Option<Summary>,
    /// The median as measured, when `value` is calibrated (see
    /// [`crate::pace`]).
    pub raw: Option<f64>,
}

impl Metric {
    pub fn value(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: None,
            raw: None,
        }
    }

    /// The median of nanosecond samples, reported in `unit`
    /// (`s`, `ms`, `us` or `ns`).
    pub fn timing(name: &'static str, unit: &'static str, samples: &Samples) -> Metric {
        let per_ns = match unit {
            "s" => 1e-9,
            "ms" => 1e-6,
            "us" => 1e-3,
            _ => 1.0,
        };
        let summary = samples.summary().scaled(per_ns);
        Metric {
            name,
            unit,
            value: summary.median,
            summary: Some(summary),
            raw: None,
        }
    }

    /// A timing in calibrated `unit`s — divided by the run's pace (see
    /// [`crate::pace`]) — with the median as measured beside it.
    pub fn paced(name: &'static str, unit: &'static str, samples: &Samples, pace: f64) -> Metric {
        let measured = Metric::timing(name, unit, samples);
        Metric {
            value: measured.value / pace,
            summary: measured.summary.map(|s| s.scaled(1.0 / pace)),
            raw: Some(measured.value),
            ..measured
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value".to_owned(), Json::Num(self.value)),
            ("unit".to_owned(), Json::str(self.unit)),
        ];
        if let Some(Json::Obj(summary)) = self.summary.map(Summary::to_json) {
            fields.extend(summary);
        }
        if let Some(raw) = self.raw {
            fields.push(("raw_median".to_owned(), Json::Num(raw)));
        }
        Json::Obj(fields)
    }
}

/// Everything one run reports.
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub ops: Ops,
    pub metrics: Vec<Metric>,
    /// Context that is not a metric: sizes, thread counts, counters.
    pub info: Vec<(&'static str, Json)>,
    pub wall: Duration,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// A run is correct when nothing failed: every response was a 200 with
    /// the oracle's answer, and (traced) the replica agreed with the façade.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The driver's line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.ops.attempted as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The full record kept in `results.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("ops_attempted", Json::Num(self.ops.attempted as f64)),
            ("ops_failed", Json::Num(self.ops.failed as f64)),
            ("wall_s", Json::Num(self.wall.as_secs_f64())),
            ("info", Json::obj(self.info.iter().cloned())),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| (m.name, m.to_json()))),
            ),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        let kind = if self.traced { "traced" } else { "untraced" };
        println!(
            "== {} seed {} ({kind}): {} ops attempted, {} failed, {:.1} s",
            self.workload.name(),
            self.seed,
            self.ops.attempted,
            self.ops.failed,
            self.wall.as_secs_f64()
        );
        for (key, value) in &self.info {
            println!("   {key} = {}", value.render());
        }
        for m in &self.metrics {
            let raw = m
                .raw
                .map_or(String::new(), |r| format!("  (as measured: {r:.4})"));
            match m.summary {
                Some(s) if s.tail_pct > 0.0 => println!(
                    "{:<28} {:>14.4} {:<6} p25 {:.4} p75 {:.4} p{:.4} {:.4} n {}{raw}",
                    m.name, m.value, m.unit, s.p25, s.p75, s.tail_pct, s.tail, s.n
                ),
                Some(s) => println!(
                    "{:<28} {:>14.4} {:<6} p25 {:.4} p75 {:.4} n {}{raw}",
                    m.name, m.value, m.unit, s.p25, s.p75, s.n
                ),
                None => println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit),
            }
        }
    }
}

/// Compiles the program at the shipped defaults and starts serving it;
/// this includes the initial solve.
pub fn serve(workload: Workload, inputs: &Inputs) -> Result<RunningServer, String> {
    let kb = compile(workload, &inputs.program, None)?;
    start(kb, ServeOptions::default()).map_err(|e| e.to_string())
}

/// Sets the run up `plan.setups` times — generate the inputs, start the
/// server — keeping the last set-up and timing each (`setup_s` is their
/// median). A server is shut down before the next one starts.
fn set_up(
    workload: Workload,
    seed: u64,
    scale: Scale,
    plan: Plan,
) -> Result<(Inputs, RunningServer, Samples), String> {
    let mut times = Samples::default();
    let mut kept: Option<(Inputs, RunningServer)> = None;
    for _ in 0..plan.setups.max(1) {
        if let Some((_, previous)) = kept.take() {
            previous.shutdown();
        }
        let t0 = Instant::now();
        let inputs = generate(workload, seed, scale, plan.generated_rounds());
        let server = serve(workload, &inputs)?;
        times.push(t0.elapsed());
        kept = Some((inputs, server));
    }
    let (inputs, server) = kept.expect("at least one set-up");
    Ok((inputs, server, times))
}

/// Runs `warmup` untimed and `count` timed cold operations, adding the
/// timed ones' total times to `samples`. Returns the engine's resolved
/// thread count.
pub fn cold_phase(
    workload: Workload,
    inputs: &Inputs,
    threads: Option<usize>,
    (warmup, count): (usize, usize),
    samples: &mut Samples,
    ops: &mut Ops,
) -> usize {
    let mut resolved = 0;
    for i in 0..warmup + count {
        let outcome = cold_op(workload, inputs, threads);
        if i < warmup {
            continue;
        }
        if let Err(e) = &outcome {
            eprintln!("{}: cold operation failed: {e}", workload.name());
        }
        if let (true, Ok(op)) = (ops.record(outcome.is_ok()), outcome) {
            samples.push(op.total());
            resolved = op.threads;
        }
    }
    resolved
}

/// The untraced run: every end-to-end metric, through the façade and the
/// real HTTP tier. Timings are in calibrated seconds (see [`crate::pace`]).
pub fn run_untraced(
    workload: Workload,
    seed: u64,
    scale: Scale,
    plan: Plan,
) -> Result<Report, String> {
    let wall = Instant::now();
    let mut ops = Ops::default();
    let kernel = Kernel::default();
    let mut pace = Pace::default();

    pace.sample(&kernel);
    let (mut inputs, server, setup) = set_up(workload, seed, scale, plan)?;
    let addr = server.addr();

    let (mut cold, mut cold_auto, mut scan) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut churn = ChurnPhase::default();
    let mut auto_threads = 0;
    let mut next_round = 0;
    for lap in 0..plan.laps {
        // Warm-up operations are paid once, in the first lap.
        let warmup = if lap == 0 { WARMUP } else { 0 };
        pace.sample(&kernel);
        cold_phase(
            workload,
            &inputs,
            Some(1),
            (warmup, plan.cold),
            &mut cold,
            &mut ops,
        );
        pace.sample(&kernel);
        auto_threads = cold_phase(
            workload,
            &inputs,
            None,
            (warmup, plan.cold_auto),
            &mut cold_auto,
            &mut ops,
        );
        pace.sample(&kernel);
        scan_phase(addr, &inputs.scan, plan.scans, &mut scan, &mut ops);
        pace.sample(&kernel);
        let rounds = next_round..next_round + warmup + plan.rounds;
        churn_phase(addr, &inputs.rounds[rounds.clone()], warmup, &mut churn);
        pace.sample(&kernel);
        // The batches change what the next lap's reads must answer.
        rounds.for_each(|r| inputs.advance_past(r));
        next_round += warmup + plan.rounds;
    }
    server.shutdown();
    ops.add(churn.ops);

    let pace = pace.factor();
    let metrics = vec![
        Metric::paced("setup_s", "s", &setup, pace),
        Metric::paced("cold_solve_s", "s", &cold, pace),
        Metric::paced("cold_solve_auto_s", "s", &cold_auto, pace),
        Metric::value("peak_rss_mib", "MiB", peak_rss_mib()),
        Metric::paced("scan_query_s", "s", &scan, pace),
        Metric::paced("ingest_s", "s", &churn.ingest, pace),
        Metric::paced("first_read_s", "s", &churn.first_read, pace),
        Metric::paced("sliced_query_s", "s", &churn.sliced, pace),
    ];
    Ok(Report {
        workload,
        seed,
        traced: false,
        ops,
        metrics,
        info: vec![
            ("facts", Json::Num(inputs.facts as f64)),
            ("laps", Json::Num(plan.laps as f64)),
            ("auto_threads", Json::Num(auto_threads as f64)),
            (
                "available_parallelism",
                Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
            // How much slower than nominal the reference kernel ran.
            ("pace", Json::Num(pace)),
        ],
        wall: wall.elapsed(),
    })
}
