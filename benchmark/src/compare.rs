//! `compare A.json B.json`: two sets of runs (two `results.json` files),
//! workload by workload and end-to-end metric by metric, against the
//! benchmark's own regression bounds.
//!
//! Verdicts follow the measuring rules the benchmark was built to:
//! `worse` when B's median is worse than A's by more than the bound;
//! `unresolved` when it is not, but either set's spread between runs
//! (interquartile range over median) is wider than the bound — unless
//! every run of B reads better than every run of A; `ok` otherwise.

use crate::gen::Workload;
use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so a spread computed here is the spread the
/// acceptance check computes. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    Some([1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    }))
}

/// One set's runs of one metric.
struct Side {
    values: Vec<f64>,
    median: f64,
    p25: f64,
    p75: f64,
}

impl Side {
    fn of(values: Vec<f64>) -> Option<Side> {
        let [p25, median, p75] = match quartiles(&values) {
            Some(q) => q,
            None => [*values.first()?; 3],
        };
        Some(Side {
            values,
            median,
            p25,
            p75,
        })
    }

    /// Interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        (self.p75 - self.p25) / self.median
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one metric, and by how much B's median is worse than
/// A's (as a share of A's; negative = better).
fn judge(metric: &EndToEnd, a: &Side, b: &Side) -> (Verdict, f64) {
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (b.median - a.median) / a.median;
    let b_always_better = b
        .values
        .iter()
        .all(|&y| a.values.iter().all(|&x| sign * (y - x) < 0.0));
    let verdict = if worse_by > metric.bound {
        Verdict::Worse
    } else if a.spread().max(b.spread()) > metric.bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// The untraced runs of one workload in a results document.
fn untraced_runs(doc: &Json, workload: Workload) -> &[Json] {
    doc.get("workloads")
        .and_then(|w| w.get(workload.name()))
        .and_then(|w| w.get("untraced"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
}

fn metric_values(runs: &[Json], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| run.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// Share of failed operations over all runs, in percent.
fn failed_pct(runs: &[Json]) -> f64 {
    let sum = |key: &str| -> f64 { runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum() };
    100.0 * sum("ops_failed") / sum("ops_attempted").max(1.0)
}

/// Prints the comparison; returns how many metrics came out `worse`.
pub fn compare(a: &Json, b: &Json) -> usize {
    let mut worse = 0;
    println!(
        "{:<17} {:<18} {:>11} {:>23} {:>11} {:>23} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "[p25, p75]", "B median", "[p25, p75]", "B vs A", "bound"
    );
    for workload in Workload::ALL {
        let (runs_a, runs_b) = (untraced_runs(a, workload), untraced_runs(b, workload));
        for metric in &END_TO_END {
            let sides = (
                Side::of(metric_values(runs_a, metric.name)),
                Side::of(metric_values(runs_b, metric.name)),
            );
            let (Some(sa), Some(sb)) = sides else {
                println!(
                    "{:<17} {:<18} missing from one of the sets",
                    workload.name(),
                    metric.name
                );
                continue;
            };
            let (verdict, worse_by) = judge(metric, &sa, &sb);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<17} {:<18} {:>11.5} {:>23} {:>11.5} {:>23} {:>+6.1}% {:>5.0}%  {}",
                workload.name(),
                metric.name,
                sa.median,
                format!("[{:.5}, {:.5}]", sa.p25, sa.p75),
                sb.median,
                format!("[{:.5}, {:.5}]", sb.p25, sb.p75),
                100.0 * worse_by,
                100.0 * metric.bound,
                verdict.as_str(),
            );
        }
        println!(
            "{:<17} ops_failed         A {:.4}% of {} runs, B {:.4}% of {} runs",
            workload.name(),
            failed_pct(runs_a),
            runs_a.len(),
            failed_pct(runs_b),
            runs_b.len()
        );
    }
    println!("`B vs A`: how much worse B's median is (negative = better). worse: {worse}");
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = &EndToEnd {
            name: "a_time_s",
            unit: "s",
            better: Better::Lower,
            bound: 0.15,
        };
        let steady = [1.00, 1.01, 0.99, 1.00];
        let side = |values: &[f64]| Side::of(values.to_vec()).unwrap();
        let verdict = |a: &[f64], b: &[f64]| judge(lower, &side(a), &side(b)).0;
        assert_eq!(verdict(&steady, &[1.02, 1.03, 1.01, 1.02]), Verdict::Ok);
        assert_eq!(verdict(&steady, &[1.30, 1.31, 1.29, 1.30]), Verdict::Worse);
        // Medians agree, but B's runs are all over the place.
        assert_eq!(
            verdict(&steady, &[0.70, 1.30, 0.80, 1.20]),
            Verdict::Unresolved
        );
        // Wide spread, yet every run of B beats every run of A.
        assert_eq!(
            verdict(&[1.0, 1.4, 1.1, 1.5], &[0.5, 0.9, 0.6, 0.8]),
            Verdict::Ok
        );
        // Higher-is-better metrics flip the sign.
        let higher = EndToEnd {
            better: Better::Higher,
            ..*lower
        };
        let (v, by) = judge(&higher, &side(&[100.0, 101.0]), &side(&[50.0, 51.0]));
        assert_eq!(v, Verdict::Worse);
        assert!(by > 0.4);
    }
}
