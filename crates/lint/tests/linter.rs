//! End-to-end tests for `utilcast-lint`: every rule family fires on its
//! true-positive fixture, every `lint:allow`-marked counterpart lints
//! clean, and — the invariant this crate exists for — the real library
//! tree under `crates/` has zero unsuppressed violations.

use std::path::Path;

use utilcast_lint::lexer::lex;
use utilcast_lint::{check_crate_root, find_repo_root, lint_repo, lint_source, Rule};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(e) => panic!("fixture {} unreadable: {e}", path.display()),
    }
}

/// Asserts the fixture yields exactly `expect` diagnostics, all of `rule`,
/// at the given lines (ignored when empty, for multi-line constructs).
fn assert_fires(name: &str, rule: Rule, lines: &[u32], expect: usize) {
    let outcome = lint_source(name, &fixture(name));
    let got: Vec<_> = outcome
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.line))
        .collect();
    assert_eq!(
        outcome.diagnostics.len(),
        expect,
        "{name}: expected {expect} diagnostics, got {got:?}"
    );
    for d in &outcome.diagnostics {
        assert_eq!(d.rule, rule, "{name}: unexpected rule in {got:?}");
    }
    for &line in lines {
        assert!(
            outcome.diagnostics.iter().any(|d| d.line == line),
            "{name}: expected a diagnostic on line {line}, got {got:?}"
        );
    }
}

/// Asserts the fixture lints clean while honoring `suppressed` markers.
fn assert_suppressed(name: &str, suppressed: usize) {
    let outcome = lint_source(name, &fixture(name));
    assert!(
        outcome.diagnostics.is_empty(),
        "{name}: expected clean, got {:?}",
        outcome.diagnostics
    );
    assert_eq!(
        outcome.suppressed, suppressed,
        "{name}: wrong suppression count"
    );
}

#[test]
fn float_eq_rule_fires_on_raw_equality() {
    // ==/!= against float literals and f64::NAN; integer equality and
    // epsilon comparisons must not fire.
    assert_fires("float_eq_violation.rs", Rule::FloatEq, &[4, 8, 12], 3);
}

#[test]
fn float_eq_rule_respects_allow_markers() {
    assert_suppressed("float_eq_allowed.rs", 1);
}

#[test]
fn determinism_rule_fires_on_unordered_state() {
    // HashMap (import, signature, construction), Instant::now, and
    // thread_rng; BTreeMap and a passed-in Instant must not fire.
    assert_fires(
        "determinism_violation.rs",
        Rule::Determinism,
        &[3, 6, 8, 16, 21],
        5,
    );
}

#[test]
fn determinism_rule_tracks_aliases_and_wildcards() {
    // A hash container renamed via `use .. as` or a `type` alias, a
    // wildcard std::collections import, and each later alias use — the
    // routes a nondeterministic map could sneak into a shard-merge
    // reduction without a `HashMap` token at the use site.
    assert_fires(
        "determinism_alias_violation.rs",
        Rule::Determinism,
        &[4, 5, 8, 11, 19],
        5,
    );
}

#[test]
fn determinism_rule_respects_allow_markers() {
    // One marker above the import, one covering both mentions on the
    // construction line.
    assert_suppressed("determinism_allowed.rs", 3);
}

#[test]
fn hygiene_rule_requires_forbid_unsafe_in_crate_roots() {
    let bad = fixture("hygiene_violation.rs");
    let diags = check_crate_root("hygiene_violation.rs", &lex(&bad));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, Rule::Hygiene);
    assert!(diags[0].message.contains("forbid(unsafe_code)"));

    let ok = fixture("hygiene_ok.rs");
    let diags = check_crate_root("hygiene_ok.rs", &lex(&ok));
    assert!(
        diags.is_empty(),
        "a root carrying both must pass: {diags:?}"
    );
}

#[test]
fn hygiene_rule_requires_the_clippy_panic_set_in_crate_roots() {
    // Panic- and stub-freedom are clippy's: a crate root that dropped part
    // of the lint set would silently lose those checks.
    let bad = fixture("hygiene_missing_clippy.rs");
    let diags = check_crate_root("hygiene_missing_clippy.rs", &lex(&bad));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, Rule::Hygiene);
    for lint in ["panic", "unreachable", "todo", "unimplemented", "dbg_macro"] {
        assert!(
            diags[0].message.contains(&format!("clippy::{lint}")),
            "missing lint `{lint}` not named: {}",
            diags[0].message
        );
    }
    assert!(!diags[0].message.contains("unwrap_used"));
}

#[test]
fn unused_allow_marker_is_itself_a_diagnostic() {
    let outcome = lint_source(
        "inline.rs",
        "// lint:allow(float-eq): nothing here compares floats\nlet x = 1;\n",
    );
    assert_eq!(outcome.diagnostics.len(), 1, "{:?}", outcome.diagnostics);
    assert_eq!(outcome.diagnostics[0].rule, Rule::Suppression);
}

#[test]
fn repository_lints_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_repo_root(here).expect("workspace root above crates/lint");
    let report = lint_repo(&root).expect("repo scan must not hit I/O errors");
    assert!(report.stats.files > 0, "scan found no source files");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.is_clean(),
        "library crates must lint clean:\n{}",
        rendered.join("\n")
    );
    // The parse-coverage gate: every item in the seven library crates
    // must be covered by the parser (fallback-tier-only files are a
    // regression even when no token rule fires in them).
    assert_eq!(
        report.stats.items_parsed, report.stats.items_total,
        "parse coverage regressed below 100%"
    );
    assert!(report.stats.items_total > 1000, "item census collapsed");
    assert!(
        report.stats.public_apis > 100,
        "public-API census collapsed"
    );
}
