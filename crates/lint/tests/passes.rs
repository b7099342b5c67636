//! End-to-end tests for the call-graph passes (panic-reachability,
//! determinism taint, arithmetic audit) driven through
//! [`analyze_sources`] on small fixture workspaces, plus the stale-marker
//! detector and the skipping of test-only module files.

use std::path::Path;

use utilcast_lint::{analyze_sources, AnalysisConfig, AnalysisReport, Rule};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(e) => panic!("fixture {} unreadable: {e}", path.display()),
    }
}

/// Analyzes one fixture as a tiny one-file workspace; `hot` additionally
/// marks it as an arithmetic-audit kernel.
fn analyze(name: &str, hot: bool) -> AnalysisReport {
    let config = if hot {
        AnalysisConfig {
            hot_paths: vec![name.to_string()],
        }
    } else {
        AnalysisConfig::default()
    };
    analyze_sources(vec![(name.to_string(), fixture(name))], &config)
}

#[test]
fn panic_path_reports_the_full_chain() {
    let report = analyze("panic_path_violation.rs", false);
    let paths: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::PanicPath)
        .collect();
    assert_eq!(paths.len(), 1, "got {:?}", report.diagnostics);
    let d = paths[0];
    assert_eq!(d.line, 9, "site line should be the indexing expression");
    assert!(
        d.message.contains("reachable via") && d.message.contains("lookup"),
        "chain missing from {:?}",
        d.message
    );
    assert!(
        d.message.contains("pick"),
        "chain should end at the containing fn: {:?}",
        d.message
    );
    assert_eq!(report.stats.public_apis, 1);
    assert!(report.stats.edges >= 1, "lookup -> pick edge not resolved");
}

#[test]
fn panic_path_honors_fn_scope_audit() {
    let report = analyze("panic_path_allowed.rs", false);
    assert!(
        report.diagnostics.is_empty(),
        "expected clean, got {:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 1);
    assert_eq!(report.stats.audited_sites, 1);
}

#[test]
fn taint_flags_ambient_state_and_unproven_seeds() {
    let report = analyze("taint_violation.rs", false);
    let taints: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::Taint)
        .collect();
    assert_eq!(taints.len(), 2, "got {:?}", report.diagnostics);
    assert!(
        taints
            .iter()
            .any(|d| d.message.contains("env::var") && d.message.contains("SimReport")),
        "ambient-state finding missing: {taints:?}"
    );
    assert!(
        taints
            .iter()
            .any(|d| d.message.contains("not provably derived")),
        "seed-origin finding missing: {taints:?}"
    );
    assert_eq!(report.stats.simreport_fns, 1);
    assert_eq!(report.stats.proven_seeds, 0);
}

#[test]
fn taint_accepts_proven_seed_derivation() {
    let report = analyze("taint_allowed.rs", false);
    assert!(
        report.diagnostics.is_empty(),
        "expected clean, got {:?}",
        report.diagnostics
    );
    assert_eq!(report.stats.simreport_fns, 1);
    assert_eq!(report.stats.proven_seeds, 1);
}

#[test]
fn arith_audit_fires_only_in_hot_kernels() {
    let report = analyze("arith_violation.rs", true);
    let ariths: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::Arith)
        .collect();
    assert!(ariths.len() >= 2, "got {:?}", report.diagnostics);
    assert!(
        ariths
            .iter()
            .any(|d| d.message.contains("cast can truncate")),
        "narrow-cast finding missing: {ariths:?}"
    );
    assert!(
        ariths.iter().any(|d| d.message.contains("unchecked")),
        "offset-arith finding missing: {ariths:?}"
    );

    // The same file analyzed cold produces no arithmetic findings.
    let cold = analyze("arith_violation.rs", false);
    assert!(
        cold.diagnostics.iter().all(|d| d.rule != Rule::Arith),
        "arith audit leaked outside hot paths: {:?}",
        cold.diagnostics
    );
}

#[test]
fn arith_audit_honors_site_markers() {
    let report = analyze("arith_allowed.rs", true);
    assert!(
        report.diagnostics.is_empty(),
        "expected clean, got {:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 3);
}

#[test]
fn stale_markers_are_flagged_not_honored() {
    let report = analyze("stale_allow.rs", false);
    let stale: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::Suppression)
        .collect();
    assert_eq!(stale.len(), 1, "got {:?}", report.diagnostics);
    assert!(
        stale[0].message.contains("stale suppression marker")
            && stale[0].message.contains("panics-everywhere"),
        "unexpected message: {:?}",
        stale[0].message
    );
    assert_eq!(report.suppressed, 0);
}

#[test]
fn coverage_stats_track_every_item() {
    let report = analyze("panic_path_violation.rs", false);
    assert_eq!(report.stats.items_parsed, report.stats.items_total);
    assert!((report.stats.coverage_pct() - 100.0).abs() < f64::EPSILON);
}

/// A one-crate workspace whose root declares `mod helper;` under the
/// given attributes, and whose `helper.rs` (and `helper/inner.rs`) hold
/// a raw float compare.
fn helper_crate(attrs: &str) -> AnalysisReport {
    let sources = vec![
        (
            "crates/demo/src/lib.rs".to_string(),
            format!("{attrs}\nmod helper;\n\npub fn noop() {{}}\n"),
        ),
        (
            "crates/demo/src/helper.rs".to_string(),
            "mod inner;\n\npub fn is_one(x: f64) -> bool {\n    x == 1.0\n}\n".to_string(),
        ),
        (
            "crates/demo/src/helper/inner.rs".to_string(),
            "pub fn is_two(x: f64) -> bool {\n    x == 2.0\n}\n".to_string(),
        ),
    ];
    analyze_sources(sources, &AnalysisConfig::default())
}

#[test]
fn cfg_test_module_files_are_not_library_code() {
    // `#[cfg(test)]` alone and among stacked attributes: the declared file
    // and its submodule directory are test code and lint clean.
    for attrs in [
        "#[cfg(test)]",
        "#[allow(dead_code)]\n#[cfg(test)]\n#[allow(clippy::all)]",
    ] {
        let report = helper_crate(attrs);
        assert!(
            report.diagnostics.is_empty(),
            "{attrs}: expected clean, got {:?}",
            report.diagnostics
        );
        assert_eq!(
            report.stats.files, 1,
            "{attrs}: only lib.rs is library code"
        );
    }

    // The same files declared without the attribute are library code.
    let report = helper_crate("#[allow(dead_code)]");
    let lines: Vec<_> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.rule))
        .collect();
    assert_eq!(
        lines,
        [
            ("crates/demo/src/helper.rs", 4, Rule::FloatEq),
            ("crates/demo/src/helper/inner.rs", 2, Rule::FloatEq),
        ]
    );
    assert_eq!(report.stats.files, 3);
}

/// A `let` whose type ends in `>>` — one token closing two angles — used
/// to leave the type scan two levels deep, so it consumed the rest of the
/// fn body: every later call and index site vanished while parse coverage
/// still read 100 %. The site after it must be seen.
#[test]
fn a_let_whose_type_ends_in_two_angles_keeps_the_rest_of_the_body() {
    for ty in ["Option<Vec<usize>>", "Vec<Vec<f64>>"] {
        let src = format!(
            "pub fn pick(v: &[f64], k: usize) -> f64 {{\n    let o: {ty} = Default::default();\n    \
             drop(o);\n    v[k]\n}}\n"
        );
        let report = analyze_sources(vec![("lib.rs".into(), src)], &AnalysisConfig::default());
        let lines: Vec<(Rule, u32)> = report
            .diagnostics
            .iter()
            .map(|d| (d.rule, d.line))
            .collect();
        assert_eq!(
            lines,
            [(Rule::PanicPath, 4)],
            "{ty}: {:?}",
            report.diagnostics
        );
    }
}

/// A `let` whose end the body scan cannot find is a `parse` finding, and
/// the scan goes on past it instead of swallowing the body.
#[test]
fn a_let_scan_that_runs_off_the_body_is_a_parse_finding() {
    let src =
        "pub fn pick(v: &[f64], k: usize) -> f64 {\n    let o: Wrap<usize = 3;\n    v[k]\n}\n";
    let report = analyze_sources(
        vec![("lib.rs".into(), src.to_string())],
        &AnalysisConfig::default(),
    );
    let lines: Vec<(Rule, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.line))
        .collect();
    assert!(
        lines.contains(&(Rule::Parse, 2)),
        "{:?}",
        report.diagnostics
    );
    assert!(
        lines.contains(&(Rule::PanicPath, 3)),
        "{:?}",
        report.diagnostics
    );
}
