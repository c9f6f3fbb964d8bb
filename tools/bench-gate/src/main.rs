//! `bench-gate` — the CI bench-regression gate.
//!
//! `bench-gate compare --baseline <dir> --current <dir>` walks every
//! `BENCH_*.json` in the baseline directory, pairs it with the same
//! filename under the current directory, and compares every
//! **time-valued** metric (any dotted path with a segment ending in
//! `_ns`; lower is better). A metric that got more than `--tolerance`
//! (default 25%) slower *and* lost more than `--min-abs-ns` (default
//! 100µs, to ignore micro-jitter) fails the gate with a per-metric
//! report. Ratio metrics (speedups, scaling) and multi-thread legs
//! (`threadsN`, `N != 1`: the reader and connection legs of
//! `query_throughput` and `serve_load`) are ignored — they are
//! machine-shape dependent, so comparing them across hosts either fails
//! spuriously or silently masks regressions.
//!
//! The JSON "parser" below covers exactly the dialect our benches emit
//! (objects, arrays, strings without exotic escapes, f64 numbers, bools,
//! null) — the workspace builds offline, so no serde.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// ======================================================================
// Minimal JSON
// ======================================================================

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("{message} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(&format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'"') => out.push('"'),
                        Some(b'/') => out.push('/'),
                        other => {
                            return Err(self.error(&format!("unsupported escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape whole
                    // (multi-byte safe: UTF-8 continuation bytes never
                    // equal `"` or `\`).
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.error("invalid utf-8"))?,
                    );
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content"));
    }
    Ok(v)
}

// ======================================================================
// Metric extraction
// ======================================================================

/// Flattens a bench JSON into `dotted.path → number`. Array elements are
/// keyed by their `name` or `threads` field when present (stable across
/// reordering), by index otherwise.
fn metrics(json: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    walk(json, String::new(), &mut out);
    out
}

fn walk(json: &Json, path: String, out: &mut BTreeMap<String, f64>) {
    match json {
        Json::Num(n) => {
            out.insert(path, *n);
        }
        Json::Obj(fields) => {
            for (k, v) in fields {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                walk(v, sub, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                let key = element_key(v).unwrap_or_else(|| i.to_string());
                walk(v, format!("{path}[{key}]"), out);
            }
        }
        _ => {}
    }
}

fn element_key(v: &Json) -> Option<String> {
    let Json::Obj(fields) = v else { return None };
    for (k, v) in fields {
        match (k.as_str(), v) {
            ("name", Json::Str(s)) => return Some(s.clone()),
            ("threads", Json::Num(n)) => return Some(format!("threads{n}")),
            _ => {}
        }
    }
    None
}

/// A metric is time-valued (lower is better) iff some dotted segment ends
/// in `_ns` — e.g. `full_solve_ns`, `workloads[chain].median_ns.chase`,
/// `legs[threads4].median_ns`.
fn is_time_metric(path: &str) -> bool {
    path.split(['.', '[', ']'])
        .any(|seg| seg.ends_with("_ns") && !seg.is_empty())
}

/// Multi-thread legs (`threadsN` with `N != 1`) are machine-shape
/// dependent — on a host with more cores than the baseline machine they
/// drop far below the snapshot, which would let real parallel regressions
/// hide under the headroom, and on a host with fewer they fail spuriously.
/// The gate therefore only compares single-thread medians.
fn is_machine_shape_dependent(path: &str) -> bool {
    path.split(['.', '[', ']']).any(|seg| {
        seg.strip_prefix("threads")
            .and_then(|n| n.parse::<u64>().ok())
            .is_some_and(|n| n != 1)
    })
}

fn lookup_num(m: &BTreeMap<String, f64>, key: &str) -> Option<f64> {
    m.get(key).copied()
}

// ======================================================================
// Comparison
// ======================================================================

fn load_metrics(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(metrics(&json))
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

fn compare(baseline_dir: &Path, current_dir: &Path, tolerance: f64, min_abs_ns: f64) -> ExitCode {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(baseline_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("bench-gate: cannot list {}: {e}", baseline_dir.display());
            return ExitCode::from(2);
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!(
            "bench-gate: no BENCH_*.json baselines under {}",
            baseline_dir.display()
        );
        return ExitCode::from(2);
    }

    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut skipped_shape = 0usize;
    for file in files {
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        let current_path = current_dir.join(&name);
        if !current_path.exists() {
            eprintln!(
                "bench-gate: {name}: missing under {} — skipped",
                current_dir.display()
            );
            continue;
        }
        let (base, cur) = match (load_metrics(&file), load_metrics(&current_path)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench-gate: {e}");
                return ExitCode::from(2);
            }
        };
        println!("== {name} ==");
        skipped_shape += base
            .keys()
            .filter(|p| is_time_metric(p) && is_machine_shape_dependent(p))
            .count();
        for (path, &b) in base
            .iter()
            .filter(|(p, _)| is_time_metric(p) && !is_machine_shape_dependent(p))
        {
            let Some(c) = lookup_num(&cur, path) else {
                eprintln!("   {path}: gone from current run — skipped");
                continue;
            };
            compared += 1;
            let delta = if b > 0.0 { (c - b) / b * 100.0 } else { 0.0 };
            let regressed = c > b * (1.0 + tolerance) && (c - b) > min_abs_ns;
            let marker = if regressed {
                regressions += 1;
                "REGRESSION"
            } else if delta <= -5.0 {
                "improved"
            } else {
                "ok"
            };
            println!(
                "   {path}: {} -> {} ({delta:+.1}%) {marker}",
                fmt_ns(b),
                fmt_ns(c)
            );
        }
    }
    println!(
        "bench-gate: {compared} metrics compared, {regressions} regression(s) \
         (tolerance {:.0}%, floor {})",
        tolerance * 100.0,
        fmt_ns(min_abs_ns)
    );
    println!(
        "bench-gate: skipped {skipped_shape} machine-shape-dependent metric(s) \
         (threadsN legs, N != 1)"
    );
    if regressions > 0 {
        eprintln!(
            "bench-gate: FAILED — a metric got >{:.0}% slower than its committed baseline; \
             if the slowdown is intended, refresh the baselines \
             (see crates/bench/README.md)",
            tolerance * 100.0
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ======================================================================
// CLI
// ======================================================================

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-gate compare --baseline <dir> --current <dir> \
         [--tolerance 0.25] [--min-abs-ns 100000]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let Some(mode) = it.next() else {
        return usage();
    };
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return usage();
        };
        let Some(value) = it.next() else {
            return usage();
        };
        flags.insert(name.to_string(), value.clone());
    }
    let num = |flags: &BTreeMap<String, String>, key: &str, default: f64| -> Option<f64> {
        match flags.get(key) {
            Some(v) => v.parse().ok(),
            None => Some(default),
        }
    };
    match mode.as_str() {
        "compare" => {
            let (Some(baseline), Some(current)) = (flags.get("baseline"), flags.get("current"))
            else {
                return usage();
            };
            let (Some(tolerance), Some(min_abs)) = (
                num(&flags, "tolerance", 0.25),
                num(&flags, "min-abs-ns", 100_000.0),
            ) else {
                return usage();
            };
            compare(Path::new(baseline), Path::new(current), tolerance, min_abs)
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_flattens_the_bench_dialect() {
        let src = r#"{
            "samples": 30,
            "workloads": [
                {"name": "chain", "median_ns": {"chase": 1500000, "total": 4000000}},
                {"name": "onto", "median_ns": {"chase": 3000000, "total": 9000000}}
            ],
            "legs": [{"threads": 4, "median_ns": 12345, "scaling": 1.62}],
            "note": "free\ntext"
        }"#;
        let m = metrics(&parse_json(src).unwrap());
        assert_eq!(m["samples"], 30.0);
        assert_eq!(m["workloads[chain].median_ns.chase"], 1_500_000.0);
        assert_eq!(m["workloads[onto].median_ns.total"], 9_000_000.0);
        assert_eq!(m["legs[threads4].median_ns"], 12_345.0);
        assert_eq!(m["legs[threads4].scaling"], 1.62);
    }

    #[test]
    fn time_metric_detection() {
        assert!(is_time_metric("full_solve_ns"));
        assert!(is_time_metric("workloads[chain].median_ns.chase"));
        assert!(is_time_metric("legs[threads4].median_ns"));
        assert!(!is_time_metric("samples"));
        assert!(!is_time_metric("legs[threads4].scaling"));
        assert!(!is_time_metric("incremental_speedup"));
        assert!(!is_time_metric("available_parallelism"));
    }

    #[test]
    fn multi_thread_legs_are_not_gated() {
        assert!(is_machine_shape_dependent("legs[threads4].median_ns"));
        assert!(is_machine_shape_dependent("threads[threads2].median_ns"));
        assert!(!is_machine_shape_dependent("legs[threads1].median_ns"));
        assert!(!is_machine_shape_dependent("full_solve_ns"));
        // A workload literally named `threadsafe` must not be excluded.
        assert!(!is_machine_shape_dependent(
            "workloads[threadsafe].median_ns.total"
        ));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
    }
}
