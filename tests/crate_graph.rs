//! The Cargo graph keeps the oracles out of production: `wfdl-reference`
//! may be a normal dependency of `wfdl-bench` only (everyone else names it
//! under `[dev-dependencies]`, which no dependent ever builds), the
//! vendored `criterion` stand-in is gone for good, and the solve path
//! spawns no thread.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The root manifest and every workspace member's, as `(path, text)`.
fn workspace_manifests() -> Vec<(PathBuf, String)> {
    let root_manifest = fs::read_to_string(root().join("Cargo.toml")).unwrap();
    let members = root_manifest
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("a [workspace] members list")
        .0;
    let mut dirs = vec![PathBuf::new()];
    dirs.extend(members.split(',').filter_map(|m| {
        let m = m.trim().trim_matches('"');
        (!m.is_empty()).then(|| PathBuf::from(m))
    }));
    assert!(dirs.len() > 10, "members list parsed: {dirs:?}");
    dirs.into_iter()
        .map(|d| {
            let path = d.join("Cargo.toml");
            let text = fs::read_to_string(root().join(&path))
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path, text)
        })
        .collect()
}

/// `(section, key)` of every `key = value` / `key.sub = value` line.
fn entries(manifest: &str) -> Vec<(String, String)> {
    let mut section = String::new();
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_matches(|c| c == '[' || c == ']').to_string();
        } else if let Some((key, _)) = line.split_once('=') {
            if !line.starts_with('#') {
                let key = key.trim().trim_matches('"');
                let key = key.split('.').next().unwrap_or(key);
                out.push((section.clone(), key.to_string()));
            }
        }
    }
    out
}

fn package_name(manifest: &str) -> String {
    let (_, rest) = manifest.split_once("[package]").expect("a [package]");
    let (_, rest) = rest.split_once("name = \"").expect("a package name");
    rest.split_once('"').unwrap().0.to_string()
}

#[test]
fn only_the_bench_harness_depends_on_the_oracles() {
    let manifests = workspace_manifests();
    let mut dev_users = 0;
    for (path, text) in &manifests {
        let package = package_name(text);
        for (section, key) in entries(text) {
            if key != "wfdl-reference" || section == "workspace.dependencies" {
                continue;
            }
            // `dependencies`, `build-dependencies`, `target.….dependencies`:
            // everything a dependent would build.
            let normal =
                section.ends_with("dependencies") && !section.ends_with("dev-dependencies");
            assert!(
                !normal || package == "wfdl-bench",
                "{}: `{package}` names wfdl-reference under [{section}]; only \
                 [dev-dependencies] (and wfdl-bench) may",
                path.display()
            );
            dev_users += usize::from(!normal);
        }
    }
    // The scan sees what it is meant to police.
    assert!(
        dev_users >= 3,
        "root, wfdl-wfs and wfdl-gen dev-depend on it"
    );
    let bench = manifests
        .iter()
        .find(|(_, text)| package_name(text) == "wfdl-bench")
        .expect("wfdl-bench is a member");
    assert!(entries(&bench.1).contains(&("dependencies".into(), "wfdl-reference".into())));
}

#[test]
fn criterion_is_gone() {
    for (path, text) in workspace_manifests() {
        assert!(
            !text.contains("criterion"),
            "{} mentions criterion",
            path.display()
        );
    }
    let lock = fs::read_to_string(root().join("Cargo.lock")).unwrap();
    assert!(!lock.contains("criterion"), "Cargo.lock lists criterion");
    assert!(!root().join("crates/vendor/criterion").exists());
}

/// Every `.rs` file under `dir` (relative to the root), recursively.
fn rust_sources(dir: &str, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(root().join(dir)).unwrap() {
        let path = entry.unwrap().path();
        let rel = path.strip_prefix(root()).unwrap().to_path_buf();
        if path.is_dir() {
            rust_sources(rel.to_str().unwrap(), out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
}

/// The solve is single-threaded, so its output is a function of its input
/// by construction: the crates on the solve path spawn no thread and wait
/// on nothing. And the inert names the frozen `benchmark/` still compiles
/// against — `with_threads` on `ChaseBudget` / `ModularEngine` /
/// `KnowledgeBase`, `WfsOptions::threads`, `ChaseStats::effective_threads`,
/// `ModularStats::threads`, `SolveStats::threads` — are called and read by
/// nothing else, so they can go the day the benchmark drops them.
#[test]
fn solve_path_is_single_threaded() {
    let mut solve_path = Vec::new();
    for krate in ["core", "storage", "chase", "wfs", "query", "analyze"] {
        rust_sources(&format!("crates/{krate}/src"), &mut solve_path);
    }
    assert!(solve_path.len() > 40, "the scan sees the solve path");
    for path in &solve_path {
        let text = fs::read_to_string(root().join(path)).unwrap();
        for banned in ["thread::scope", "thread::spawn", "Condvar"] {
            assert!(
                !text.contains(banned),
                "{}: `{banned}` on the solve path",
                path.display()
            );
        }
    }

    let mut everything = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "tools"] {
        rust_sources(dir, &mut everything);
    }
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    for path in everything {
        if path.starts_with("crates/vendor") || path.ends_with("crate_graph.rs") {
            continue;
        }
        let text = fs::read_to_string(root().join(&path)).unwrap();
        for name in [".with_threads", ".effective_threads", ".threads"] {
            for (at, _) in text.match_indices(name) {
                let after = text[at + name.len()..].chars().next();
                assert!(
                    after.is_some_and(ident),
                    "{}: `{name}` is kept for benchmark/ only — nothing else may use it",
                    path.display()
                );
            }
        }
    }
}
