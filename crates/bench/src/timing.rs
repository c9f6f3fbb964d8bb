//! Small measurement utilities for the experiments binary and the
//! benches.

use std::time::{Duration, Instant};

/// Runs `f` `runs` times and returns the median wall-clock duration.
pub fn median_time<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(runs >= 1);
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let out = f();
            let dt = start.elapsed();
            std::hint::black_box(out);
            dt
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Samples per measurement: `WFDL_BENCH_SAMPLES` when it is a positive
/// integer, 30 otherwise.
pub fn sample_count() -> usize {
    std::env::var("WFDL_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(30)
}

/// The median of `v` (the upper one of an even count).
pub fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Nanoseconds in the largest unit below them: ns, µs, ms or s.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

/// A measured series: x-values (workload sizes) and y-values (seconds).
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// Workload sizes.
    pub xs: Vec<f64>,
    /// Median runtimes in seconds.
    pub ys: Vec<f64>,
}

impl Series {
    /// Adds a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.xs.push(x);
        self.ys.push(y);
    }

    /// Least-squares slope of `ln y` against `ln x` — the empirical
    /// polynomial degree. Slope ≈ 1 is linear, ≈ 2 quadratic, etc.
    pub fn loglog_slope(&self) -> f64 {
        fit_loglog_slope(&self.xs, &self.ys)
    }
}

/// Least-squares slope of `ln y` vs `ln x`.
pub fn fit_loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_linear_series_is_one() {
        let xs = vec![1.0, 2.0, 4.0, 8.0, 16.0];
        let ys = vec![3.0, 6.0, 12.0, 24.0, 48.0];
        let s = fit_loglog_slope(&xs, &ys);
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn slope_of_quadratic_series_is_two() {
        let xs = vec![1.0, 2.0, 4.0, 8.0];
        let ys: Vec<f64> = xs.iter().map(|x| 0.5 * x * x).collect();
        let s = fit_loglog_slope(&xs, &ys);
        assert!((s - 2.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn median_time_is_positive() {
        let d = median_time(3, || (0..1000).sum::<u64>());
        assert!(d.as_nanos() > 0);
    }
}
