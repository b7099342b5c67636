//! `utilcast-lint` — repo-invariant static analysis for the utilcast
//! workspace.
//!
//! The paper's pipeline is an always-on controller loop; PR 1 made it
//! resilient and PR 2 made it bit-identically deterministic across
//! thread counts. This crate *statically enforces* the invariants those
//! properties rest on that the compiler and clippy do not, over every
//! library crate: panic-reachability, NaN-safe float equality,
//! determinism, and hygiene (see [`rules`] for the catalogue and
//! DESIGN.md §9 for the policy). Panic- and stub-freedom at the site
//! (`unwrap`, `panic!`, `todo!`, `dbg!`, ...) are clippy lints that the
//! hygiene rule requires in every library crate root.
//!
//! There is no registry access in the build environment, so the whole
//! stack is hand-rolled and dependency-free: a token-level lexer
//! ([`lexer`]), an item-level recursive-descent parser ([`parser`]),
//! and a cross-crate call-graph layer ([`analysis`]) running three
//! dataflow passes (panic-reachability, determinism taint, arithmetic
//! audit) on top. The `float-eq` and `determinism` token rules run
//! beside them — and parse coverage of the library crates is itself a
//! gated metric.
//!
//! Run it with `cargo run -p utilcast-lint` from anywhere in the repo;
//! `scripts/check.sh` runs it ahead of clippy. `--sarif FILE` also
//! writes a SARIF report.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod lexer;
pub mod output;
pub mod parser;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use analysis::{analyze_sources, AnalysisConfig, AnalysisReport, AnalysisStats};
pub use rules::{check_crate_root, lint_file, Diagnostic, FileOutcome, Rule, CLIPPY_SET};

/// The crates whose `src/` trees must satisfy every rule family.
///
/// `bench` (figure/table binaries) and this crate are tooling, not
/// library code shipped into the controller loop, and are exempt.
pub const LIBRARY_CRATES: &[&str] = &[
    "linalg",
    "clustering",
    "timeseries",
    "core",
    "gaussian",
    "simnet",
    "datasets",
];

/// Aggregate result of a repository scan.
#[derive(Debug, Default)]
pub struct Report {
    /// All surviving violations, sorted by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations silenced by valid `lint:allow` markers.
    pub suppressed: usize,
    /// Call-graph and coverage counters from the AST tier.
    pub stats: AnalysisStats,
}

impl Report {
    /// True when the tree satisfies every invariant.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints one source file (all token-level rule families).
///
/// `file` is the label used in diagnostics; `src` the file contents.
pub fn lint_source(file: &str, src: &str) -> FileOutcome {
    rules::lint_file(file, &lexer::lex(src))
}

/// Scans the whole repository rooted at `root`.
///
/// The full stack runs over `crates/<lib>/src/**/*.rs` for every crate
/// in [`LIBRARY_CRATES`], less the files only `#[cfg(test)]` declarations
/// bring in: token rules, parse-coverage gating, and the three call-graph
/// passes (see [`analysis`]). Hygiene additionally checks each crate root
/// for `#![forbid(unsafe_code)]` and the [`CLIPPY_SET`] lints, and that
/// every directory under `vendor/` is documented in `vendor/README.md`.
///
/// # Errors
///
/// Propagates I/O failures (unreadable files, missing crate dirs) —
/// a repository layout problem is a hard error, not a lint finding.
pub fn lint_repo(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut root_checks: Vec<Diagnostic> = Vec::new();
    for krate in LIBRARY_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let src = fs::read_to_string(&path)?;
            let label = relative_label(root, &path);
            if path.file_name().is_some_and(|n| n == "lib.rs") {
                root_checks.extend(rules::check_crate_root(&label, &lexer::lex(&src)));
            }
            sources.push((label, src));
        }
    }
    let analyzed = analysis::analyze_sources(sources, &AnalysisConfig::default());
    report.diagnostics = analyzed.diagnostics;
    report.suppressed = analyzed.suppressed;
    report.stats = analyzed.stats;
    report.diagnostics.extend(root_checks);
    report.diagnostics.extend(check_vendor_docs(root)?);
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Hygiene: every path dependency vendored under `vendor/` must be
/// named in `vendor/README.md`, so the offline-stub inventory cannot
/// silently drift from reality.
fn check_vendor_docs(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let vendor = root.join("vendor");
    if !vendor.is_dir() {
        return Ok(Vec::new());
    }
    let readme_path = vendor.join("README.md");
    let readme = fs::read_to_string(&readme_path).unwrap_or_default();
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(&vendor)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    let mut diags = Vec::new();
    for name in names {
        if !readme.contains(&name) {
            diags.push(Diagnostic {
                file: "vendor/README.md".to_string(),
                line: 1,
                rule: Rule::Hygiene,
                message: format!(
                    "vendored dependency `{name}` is not documented in vendor/README.md"
                ),
            });
        }
    }
    Ok(diags)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders `path` relative to `root` with forward slashes, for stable
/// diagnostics across platforms.
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Walks upward from `start` to find the workspace root (the directory
/// holding both `Cargo.toml` and `crates/`).
pub fn find_repo_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
