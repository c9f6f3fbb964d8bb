//! The claims benchmark's command line. See `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use wfdl_benchmark::compare::compare;
use wfdl_benchmark::gen::{Scale, Workload};
use wfdl_benchmark::json::Json;
use wfdl_benchmark::layers::run_traced;
use wfdl_benchmark::run::{run_untraced, Plan};

const USAGE: &str = "\
usage: wfdl-benchmark [run] [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
                            [--smoke] [--runs N] [--out DIR]
       wfdl-benchmark compare A.json B.json

run      with --workload: one run of that workload in this process
         (--trace 0: end-to-end metrics, the default; --trace 1: per-layer
         metrics); the last line printed is the result as one JSON object.
         without --workload: every workload, untraced and traced (or only
         the --trace given), each in a child process, --runs times with
         seeds N, N+1, ...; writes DIR/results.json and DIR/trace-*.json
         (DIR defaults to `out`).
compare  two results.json files against the benchmark's bounds; exits
         non-zero if any metric is worse.
workloads: chain_cold winmove_cold employment_serve mixed_churn
defaults: --seed 2013 --seconds 20 --runs 1; --smoke runs at 1/64 size";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
    runs: u64,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 2013,
        seconds: 20,
        trace: None,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--runs" => parsed.runs = number()?.max(1),
            "--trace" => parsed.trace = Some(number()? != 0),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(parsed)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn report_path(dir: &Path, workload: Workload, traced: bool) -> PathBuf {
    dir.join(format!(
        "report-{}-{}.json",
        workload.name(),
        u8::from(traced)
    ))
}

/// One run of one workload, in this process.
fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let (scale, plan) = match args.smoke {
        true => (Scale::SMOKE, Plan::smoke()),
        false => (Scale::FULL, Plan::full(workload, args.seconds)),
    };
    let traced = args.trace.unwrap_or(false);
    let (report, tracer) = if traced {
        let (report, tracer) = run_traced(workload, args.seed, scale, plan)?;
        (report, Some(tracer))
    } else {
        (run_untraced(workload, args.seed, scale, plan)?, None)
    };
    report.print();
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        write(
            &report_path(dir, workload, traced),
            &report.to_json().render(),
        )?;
        if let Some(tracer) = tracer {
            let path = dir.join(format!("trace-{}.json", workload.name()));
            write(&path, &tracer.to_json().render())?;
        }
    }
    // Last line: the result, in the form the benchmark's driver reads.
    println!("{}", report.driver_line());
    Ok(report.correct())
}

/// Every workload, each run in a child process of its own (so that
/// `peak_rss_mib` is the workload's and nothing carries over).
fn run_all(args: &Args) -> Result<bool, String> {
    let dir = args.out.clone().unwrap_or_else(|| PathBuf::from("out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let kinds: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for workload in Workload::ALL {
        let mut reports = [Vec::new(), Vec::new()];
        for run in 0..args.runs {
            for &traced in kinds {
                let mut child = Command::new(&exe);
                child
                    .arg("run")
                    .args(["--workload", workload.name()])
                    .args(["--seed", &(args.seed + run).to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&dir);
                if args.smoke {
                    child.arg("--smoke");
                }
                let status = child
                    .status()
                    .map_err(|e| format!("cannot start a child run: {e}"))?;
                all_correct &= status.success();
                let path = report_path(&dir, workload, traced);
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let _ = std::fs::remove_file(&path);
                reports[usize::from(traced)].push(Json::parse(&text)?);
            }
        }
        let [untraced, traced] = reports;
        per_workload.push((
            workload.name(),
            Json::obj([
                ("untraced", Json::Arr(untraced)),
                ("traced", Json::Arr(traced)),
            ]),
        ));
    }
    let results = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("runs", Json::Num(args.runs as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("all_correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(per_workload)),
        // This benchmark measures; it claims no gain.
        ("claim", Json::Null),
    ]);
    let path = dir.join("results.json");
    write(&path, &results.pretty())?;
    println!(
        "wrote {} (seed {}, {} run(s) per workload, \"claim\": null)",
        path.display(),
        args.seed,
        args.runs
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => (|| {
                let load = |path: &String| {
                    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
                };
                Ok(compare(&load(a)?, &load(b)?) == 0)
            })(),
            _ => Err(USAGE.to_owned()),
        },
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        first => {
            let flags = if first == Some("run") {
                &args[1..]
            } else {
                &args[..]
            };
            parse(flags).and_then(|parsed| match parsed.workload {
                Some(workload) => run_one(&parsed, workload),
                None => run_all(&parsed),
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A failed operation, a wrong answer or a worse metric.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
