//! # `wfdl-bench` — benchmark harness for the paper's evaluation artifacts
//!
//! The paper is a theory paper: its "evaluation" is a set of complexity
//! theorems, worked examples and one figure. This crate regenerates each of
//! them (experiments E1–E11):
//!
//! * an `experiments` binary that prints the measured tables/series next to
//!   the paper's expected shapes (`cargo run -p wfdl-bench --bin
//!   experiments -- --all`), and
//! * the JSON-emitting benches (`cargo bench`) behind the `BENCH_*.json`
//!   artifacts and the CI regression gate (see `README.md`).

pub mod experiments;
pub mod output;
pub mod timing;

pub use output::write_bench_json;
pub use timing::{fit_loglog_slope, median_time, Series};
