//! CLI entry point: `cargo run -p utilcast-lint [-- OPTIONS [FILES..]]`.
//!
//! With no arguments, runs the full stack (token tier, parse-coverage
//! gate, call-graph passes, hygiene) over the repository's library
//! crates, printing `file:line: [rule] message` per violation and
//! exiting nonzero when any survive. Options:
//!
//! * `--rules` — print the rule catalogue and exit.
//! * `--explain <rule>` — print the long-form description of one rule.
//! * `--root DIR` — analyze the workspace rooted at DIR.
//! * `--sarif FILE` — also write a SARIF report (`-` for stdout).
//! * `FILES..` — lint just those files with the token tier (iteration
//!   helper; the graph passes need the whole workspace).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use utilcast_lint::{find_repo_root, lint_repo, lint_source, output, rules::count_by_rule, Rule};

struct Options {
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
    sarif: Option<PathBuf>,
}

fn main() -> ExitCode {
    let mut opts = Options {
        root: None,
        files: Vec::new(),
        sarif: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rules" => {
                for rule in Rule::ALL {
                    println!("{:<18} {}", rule.id(), rule.summary());
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => match args.next().as_deref().and_then(Rule::from_id) {
                Some(rule) => {
                    println!("{}: {}\n\n{}", rule.id(), rule.summary(), rule.explain());
                    return ExitCode::SUCCESS;
                }
                None => {
                    eprintln!("utilcast-lint: --explain requires a rule id (see --rules)");
                    return ExitCode::FAILURE;
                }
            },
            "--root" => match args.next() {
                Some(dir) => opts.root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("utilcast-lint: --root requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--sarif" => match args.next() {
                Some(p) => opts.sarif = Some(PathBuf::from(p)),
                None => {
                    eprintln!("utilcast-lint: --sarif requires a file path (or `-`)");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: utilcast-lint [--root DIR] [--rules] [--explain RULE]\n\
                     \u{20}                    [--sarif FILE] [FILES..]"
                );
                return ExitCode::SUCCESS;
            }
            other => opts.files.push(PathBuf::from(other)),
        }
    }

    if !opts.files.is_empty() {
        let mut violations = 0usize;
        for path in &opts.files {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("utilcast-lint: cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            let outcome = lint_source(&path.to_string_lossy(), &src);
            for diag in &outcome.diagnostics {
                println!("{diag}");
            }
            violations += outcome.diagnostics.len();
        }
        return summarize(violations, opts.files.len(), 0);
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("utilcast-lint: cannot resolve working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = match opts.root.clone().or_else(|| find_repo_root(&cwd)) {
        Some(r) => r,
        None => {
            eprintln!(
                "utilcast-lint: no workspace root found above {}",
                cwd.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let report = match lint_repo(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("utilcast-lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let stats = &report.stats;
    eprintln!(
        "parse coverage: {:.1}% ({}/{} items) | {} fns, {} edges, {} public APIs | \
         {} loop-bounded + {} assert-guarded sites, {} audited, {} proven seeds",
        stats.coverage_pct(),
        stats.items_parsed,
        stats.items_total,
        stats.fns,
        stats.edges,
        stats.public_apis,
        stats.bounded_indexes,
        stats.assert_sites,
        stats.audited_sites,
        stats.proven_seeds,
    );

    if let Some(path) = &opts.sarif {
        if let Err(e) = write_report(path, &output::to_sarif(&report.diagnostics)) {
            eprintln!("utilcast-lint: cannot write SARIF report: {e}");
            return ExitCode::FAILURE;
        }
    }

    let diagnostics = &report.diagnostics;
    for diag in diagnostics {
        println!("{diag}");
    }
    if !diagnostics.is_empty() {
        let counts = count_by_rule(diagnostics);
        let breakdown: Vec<String> = counts
            .iter()
            .map(|(rule, n)| format!("{n} {rule}"))
            .collect();
        eprintln!("breakdown: {}", breakdown.join(", "));
    }
    summarize(diagnostics.len(), report.stats.files, report.suppressed)
}

/// Writes a rendered report to `path`, with `-` meaning stdout.
fn write_report(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if path.as_os_str() == "-" {
        print!("{text}");
        Ok(())
    } else {
        std::fs::write(path, text)
    }
}

fn summarize(violations: usize, files: usize, suppressed: usize) -> ExitCode {
    if violations == 0 {
        println!(
            "utilcast-lint: clean ({files} file(s) scanned, {suppressed} suppression(s) honored)"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("utilcast-lint: {violations} violation(s) across {files} file(s)");
        ExitCode::FAILURE
    }
}
