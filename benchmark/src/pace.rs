//! A reference kernel to pace the host by.
//!
//! On the shared host this benchmark was written on, identical runs of a
//! memory-bound operation differ by 15–20 % for minutes at a time: the
//! neighbours' load comes and goes, and no statistic over one run's
//! samples can tell a slow minute from a slow program. So between its
//! phases every run also times a fixed piece of work of the benchmark's
//! own — hashing and probing 300,000 keys, the same kind of work as
//! interning atoms — and divides its timings by how much slower than
//! nominal that kernel ran (the median over the run: bursts of seconds are
//! the medians' business, this is for the slow drift). The kernel knows
//! nothing of the program under test, so a regression in the program shows
//! in full; a slow host mostly cancels.
//!
//! The result is a time in **calibrated seconds**: seconds on a host that
//! runs the kernel in [`NOMINAL_NS`]. Raw medians are reported beside the
//! calibrated ones.

use crate::gen::Rng;
use crate::stats::Samples;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The kernel's duration on this host when it is quiet.
pub const NOMINAL_NS: f64 = 27e6;

/// The kernel feels the neighbours more than the program's operations do
/// (its table misses every cache level): over 40 identical runs taken
/// while the kernel's slowdown ranged from 0.97 to 1.48, dividing by the
/// slowdown to this power left the least spread — 12 % at worst and 5 %
/// on average, against 28 % and 12 % uncalibrated, 16 % and 7 % undamped.
pub const DAMPING: f64 = 0.75;

pub struct Kernel {
    keys: Vec<u64>,
}

impl Default for Kernel {
    fn default() -> Self {
        let mut rng = Rng::new(0x5EED, 0);
        Kernel {
            keys: (0..300_000).map(|_| rng.next_u64()).collect(),
        }
    }
}

impl Kernel {
    /// One pass: insert every key, then probe them in reverse.
    pub fn run(&self) -> Duration {
        let t0 = Instant::now();
        let mut map: HashMap<u64, u32> = HashMap::new();
        for (i, &key) in self.keys.iter().enumerate() {
            map.insert(key, i as u32);
        }
        let sum: u64 = self.keys.iter().rev().map(|key| u64::from(map[key])).sum();
        std::hint::black_box(sum);
        t0.elapsed()
    }
}

/// Kernel timings taken all through one run, between its phases.
#[derive(Default)]
pub struct Pace(Samples);

impl Pace {
    /// Times the kernel once; call between phases.
    pub fn sample(&mut self, kernel: &Kernel) {
        self.0.push(kernel.run());
    }

    /// The run's pace: how much slower than nominal the host ran its
    /// operations — the median kernel time over [`NOMINAL_NS`], damped by
    /// [`DAMPING`] (1 without samples).
    pub fn factor(&self) -> f64 {
        match self.0 .0.len() {
            0 => 1.0,
            _ => (self.0.median_ns() / NOMINAL_NS).powf(DAMPING),
        }
    }
}
