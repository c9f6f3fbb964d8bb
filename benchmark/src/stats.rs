//! Sample summaries and process memory readings.

use crate::json::Json;

/// Median, quartiles and tail of one set of samples (any unit).
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    /// The highest percentile that still has ten samples beyond it
    /// (`100·(1 − 10/n)`), and its value. Zero when `n ≤ 20`: below that
    /// the "tail" would sit at or under the median.
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let quantile = |q: f64| quantile_of_sorted(&sorted, q);
        let (tail_pct, tail) = if n > 20 {
            (100.0 * (1.0 - 10.0 / n as f64), sorted[n - 11])
        } else {
            (0.0, 0.0)
        };
        Summary {
            n,
            median: quantile(0.5),
            p25: quantile(0.25),
            p75: quantile(0.75),
            tail_pct,
            tail,
        }
    }

    /// The summary with every value multiplied by `factor` (unit change).
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            median: self.median * factor,
            p25: self.p25 * factor,
            p75: self.p75 * factor,
            tail: self.tail * factor,
            ..self
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("median", Json::Num(self.median)),
            ("p25", Json::Num(self.p25)),
            ("p75", Json::Num(self.p75)),
            ("tail_pct", Json::Num(self.tail_pct)),
            ("tail", Json::Num(self.tail)),
            ("n", Json::Num(self.n as f64)),
        ])
    }
}

/// Quantile `q` of non-empty sorted samples, by linear interpolation
/// between closest ranks.
fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Nanosecond samples of one timed operation.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, elapsed: std::time::Duration) {
        self.0.push(elapsed.as_nanos() as f64);
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.0)
    }

    pub fn median_ns(&self) -> f64 {
        self.summary().median
    }

    /// Quantile `q` in nanoseconds (0 without samples).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        quantile_of_sorted(&sorted, q)
    }
}

/// A `Vm*` line of `/proc/self/status`, in MiB (0 where `/proc` is absent).
fn status_mib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set of this process so far.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set of this process.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.median, s.p25, s.p75), (4, 2.5, 1.75, 3.25));
        assert_eq!(s.tail_pct, 0.0, "too few samples for a tail");
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
    }
}
