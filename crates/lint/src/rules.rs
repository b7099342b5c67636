//! The rule engine: repo-invariant checks over the token stream.
//!
//! Three rule families guard the invariants the controller pipeline
//! depends on (see `DESIGN.md` §9):
//!
//! * **NaN-safety** (`float-eq`) — no `==`/`!=` against float literals
//!   or `f64::NAN`-style constants (use `total_cmp` or an epsilon
//!   helper). Clippy's `float_cmp` exempts comparisons with zero, which
//!   is what every exact compare in the library crates is.
//! * **determinism** (`determinism`) — no `HashMap`/`HashSet` (including
//!   uses through `as`/`type` aliases and `use std::collections::*`
//!   wildcard imports), `Instant::now`/`SystemTime::now`, `thread_rng`,
//!   or `from_entropy` in library crates: iteration order and wall-clock
//!   reads would break the bit-identical thread-count determinism
//!   established in PR 2 and relied on by the sharded merge paths.
//! * **hygiene** (`hygiene`) — crate roots keep `#![forbid(unsafe_code)]`
//!   and the clippy warn set [`CLIPPY_SET`], and every vendored
//!   dependency is documented (checked at repo level in
//!   [`crate::lint_repo`]).
//!
//! Panic- and stub-freedom (`unwrap`/`expect`, `partial_cmp(..).unwrap()`,
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!`/`dbg!`) are clippy's:
//! the [`CLIPPY_SET`] lints check the same sites with type information.
//!
//! Violations are suppressed only by an inline marker on (or directly
//! above) the offending line:
//!
//! ```text
//! // lint:allow(float-eq): exact-zero config sentinel
//! ```
//!
//! A marker with an unknown rule, a missing justification, or no
//! violation to suppress is itself reported (`suppression`), so every
//! exception stays auditable.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;

use crate::lexer::{Lexed, Token, TokenKind};
use crate::parser::{attr_is_test, matching};

/// A rule family identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// NaN-safety: no raw `==`/`!=` against float literals/constants.
    FloatEq,
    /// Determinism: no hash collections, wall-clock, or entropy sources.
    Determinism,
    /// Hygiene: `#![forbid(unsafe_code)]` and the clippy warn set in
    /// crate roots, vendored deps documented.
    Hygiene,
    /// Meta: malformed or unused `lint:allow` markers.
    Suppression,
    /// Graph pass 1: unaudited panic site reachable from a public API.
    PanicPath,
    /// Graph pass 2: ambient entropy/clock taint on SimReport paths, or
    /// an RNG seed not provably derived from explicit inputs.
    Taint,
    /// Graph pass 3: truncating casts / unchecked offset arithmetic in
    /// the hot kernels.
    Arith,
    /// Meta: an item the parser could not classify (coverage gate).
    Parse,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: &'static [Rule] = &[
        Rule::FloatEq,
        Rule::Determinism,
        Rule::Hygiene,
        Rule::Suppression,
        Rule::PanicPath,
        Rule::Taint,
        Rule::Arith,
        Rule::Parse,
    ];

    /// The identifier used in diagnostics and `lint:allow(...)` markers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::FloatEq => "float-eq",
            Rule::Determinism => "determinism",
            Rule::Hygiene => "hygiene",
            Rule::Suppression => "suppression",
            Rule::PanicPath => "panic-path",
            Rule::Taint => "determinism-taint",
            Rule::Arith => "arith",
            Rule::Parse => "parse",
        }
    }

    /// One-line description for `--rules` output and the docs.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::FloatEq => "no ==/!= against float literals or NAN/INFINITY constants",
            Rule::Determinism => {
                "no HashMap/HashSet (incl. aliases and std::collections::* imports), \
                 Instant::now/SystemTime::now, thread_rng, or from_entropy"
            }
            Rule::Hygiene => {
                "crate roots forbid unsafe_code and warn on the clippy panic set; \
                 vendored deps stay documented"
            }
            Rule::Suppression => "lint:allow markers must be well-formed and actually used",
            Rule::PanicPath => {
                "no unaudited panic site (unwrap/expect, panic-family macro, \
                 unbounded index/slice, fallible integer division) reachable from a public API"
            }
            Rule::Taint => {
                "ambient entropy/clock sources must not reach SimReport-producing paths, \
                 and every RNG seed must provably derive from explicit inputs"
            }
            Rule::Arith => {
                "hot-kernel casts must not truncate and offset arithmetic must use \
                 checked_/wrapping_ forms (or carry a justification)"
            }
            Rule::Parse => "every library-crate item must be classified by the item parser",
        }
    }

    /// Long-form explanation for `--explain <rule>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::FloatEq => {
                "Token tier. `==`/`!=` against float literals or NAN/INFINITY constants \
                 is almost always a precision bug (and `x == f64::NAN` is always false). \
                 Use `total_cmp`, an epsilon helper, or justify the exact compare."
            }
            Rule::Determinism => {
                "Token tier. SimReport bit-identity across thread counts and shard \
                 layouts (PR 2/PR 7) dies the moment iteration order or wall-clock \
                 reads enter a merge path. Hash containers (including `use .. as` \
                 renames, `type` aliases, and `std::collections::*` wildcards), \
                 `Instant::now`, `SystemTime::now`, `thread_rng`, and `from_entropy` \
                 are flagged in library code."
            }
            Rule::Hygiene => {
                "Repo tier. Crate roots must carry `#![forbid(unsafe_code)]` and warn \
                 (or deny) on every clippy lint of the panic set (unwrap_used, \
                 expect_used, panic, unreachable, todo, unimplemented, dbg_macro), \
                 which is how panic- and stub-freedom are enforced; every directory \
                 under vendor/ must be documented in vendor/README.md."
            }
            Rule::Suppression => {
                "Meta. A `// lint:allow(rule): justification` marker must name a \
                 defined rule, carry a non-empty justification, and actually suppress \
                 a violation on the line it binds to. Markers naming rules this linter \
                 does not define are reported as stale."
            }
            Rule::PanicPath => {
                "Graph pass. The analyzer parses every library crate, builds a \
                 cross-crate call graph (method calls resolve by name — a sound \
                 over-approximation), and walks from every public API looking for \
                 transitive paths to a panic site: unwrap/expect, panic-family macros, \
                 index/slice expressions that are not provably loop-bounded, and \
                 integer division with a possibly-zero divisor. Indexing by an active \
                 `for`-range variable (or an affine combination anchored by one, e.g. \
                 `base + j`) is recognized as bounded-by-construction; `assert!`-family \
                 contract checks are exempt. Each diagnostic prints one exemplar call \
                 chain from a public API. Fix: use get()/checked_div and return a typed \
                 error, or audit the site with `// lint:allow(panic-path): <chain + why>` \
                 (a marker above an `fn` signature audits every site in that fn)."
            }
            Rule::Taint => {
                "Graph pass. Ambient nondeterminism sources (`thread_rng`, \
                 `from_entropy`, `Instant::now`, `SystemTime::now`, `env::var`) are \
                 taint roots; the pass reports any root reachable from a \
                 SimReport-producing function, with the call chain. Independently, \
                 every `seed_from_u64`/`from_seed` argument must be provably built \
                 from fn parameters, clean locals, and constants — SplitMix64 streams \
                 derived from an explicit seed pass, ambient entropy fails."
            }
            Rule::Arith => {
                "Graph pass. In the hot kernels (kmeans, linalg kernels, transmit, \
                 frame offsets, simnet transport), `as` casts to narrow integer types, \
                 float-to-int casts, and offset-named locals built with unchecked \
                 `+`/`*` are flagged. Use try_from/round/checked_/wrapping_ forms, or \
                 justify the range with `// lint:allow(arith): <bound>`."
            }
            Rule::Parse => {
                "Meta. The AST passes can only vouch for code the item parser \
                 classified. Parse coverage of the library crates is printed on every \
                 run and gated at 100%: an unclassifiable item is itself a diagnostic. \
                 So is a `let` whose end the body scan cannot find: it is skipped, \
                 where it used to swallow the rest of its fn body unreported."
            }
        }
    }

    /// Parses a marker identifier.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path of the offending file (as given to the engine).
    pub file: String,
    /// 1-based line of the offending token or marker.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The result of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Violations that survived suppression.
    pub diagnostics: Vec<Diagnostic>,
    /// Count of violations silenced by a valid `lint:allow` marker.
    pub suppressed: usize,
}

/// A parsed `lint:allow` marker bound to a source line.
///
/// The `used` flag is a `Cell` because the marker pool is shared across
/// tiers: the token rules claim markers first, then the graph passes
/// (which hold the pool behind a shared reference) claim theirs, and
/// only afterwards are the leftovers reported unused.
#[derive(Debug)]
pub struct Allow {
    /// The rule the marker suppresses.
    pub rule: Rule,
    /// The code line the marker suppresses.
    pub bound_line: u32,
    /// The line the marker itself appears on (for unused reports).
    pub marker_line: u32,
    /// Set once any tier consumes the marker.
    pub used: Cell<bool>,
}

/// Runs the token-level rules (`float-eq`, `determinism`) over one lexed library-crate file and applies the
/// suppression protocol, including the unused-marker report. This is
/// the standalone entry point; [`crate::analysis::analyze_sources`]
/// composes [`token_tier`] with the graph passes instead so markers can
/// be claimed by either tier.
pub fn lint_file(file: &str, lexed: &Lexed) -> FileOutcome {
    let mut outcome = FileOutcome::default();
    let (allows, marker_diags) = collect_allows(file, lexed);
    let (diags, suppressed) = token_tier(file, lexed, &allows);
    outcome.diagnostics = diags;
    outcome.suppressed = suppressed;
    for a in &allows {
        if !a.used.get() {
            outcome.diagnostics.push(Diagnostic {
                file: file.to_string(),
                line: a.marker_line,
                rule: Rule::Suppression,
                message: format!(
                    "unused suppression: no `{}` violation on the line it covers",
                    a.rule
                ),
            });
        }
    }
    outcome.diagnostics.extend(marker_diags);
    outcome.diagnostics.sort_by_key(|d| (d.line, d.rule));
    outcome
}

/// Runs the token-level scans and claims matching markers from the
/// shared pool. Returns the surviving diagnostics plus the number of
/// violations suppressed. Does *not* report unused markers — the caller
/// does that after every tier has had its chance.
pub fn token_tier(file: &str, lexed: &Lexed, allows: &[Allow]) -> (Vec<Diagnostic>, usize) {
    let kept = strip_test_regions(&lexed.tokens);

    let mut raw = Vec::new();
    scan_float_eq(file, &lexed.tokens, &kept, &mut raw);
    scan_determinism(file, &lexed.tokens, &kept, &mut raw);

    let mut out = Vec::new();
    let mut suppressed = 0usize;
    for diag in raw {
        // A marker covers every violation of its rule on the bound line
        // (e.g. `sx == 0.0 || sy == 0.0` is one guard, one justification).
        let allow = allows
            .iter()
            .find(|a| a.rule == diag.rule && a.bound_line == diag.line);
        match allow {
            Some(a) => {
                a.used.set(true);
                suppressed += 1;
            }
            None => out.push(diag),
        }
    }
    (out, suppressed)
}

/// The clippy lints every library crate root must warn (or deny) on:
/// panic-freedom (`unwrap`/`expect`, which covers
/// `partial_cmp(..).unwrap()`, and the panicking macros) and
/// stub-freedom (`todo!`/`unimplemented!` placeholders, `dbg!` prints).
pub const CLIPPY_SET: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "dbg_macro",
];

/// Checks the crate-root hygiene rule: the file's inner attributes must
/// carry `#![forbid(unsafe_code)]` and name every [`CLIPPY_SET`] lint in
/// `#![warn(..)]`/`deny`/`forbid` (an attribute on one item does not
/// cover the crate). Returns one diagnostic per missing requirement.
pub fn check_crate_root(file: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let toks = &lexed.tokens;
    let mut forbids_unsafe = false;
    let mut clippy: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        let level = ["warn", "deny", "forbid"]
            .iter()
            .any(|l| toks[i].is_ident(l));
        let inner = i >= 3
            && toks[i - 3].is_punct("#")
            && toks[i - 2].is_punct("!")
            && toks[i - 1].is_punct("[");
        if !level || !inner || !toks.get(i + 1).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        let args = &toks[i + 2..matching(toks, i + 1, "(", ")")];
        forbids_unsafe |=
            toks[i].is_ident("forbid") && args.iter().any(|t| t.is_ident("unsafe_code"));
        for w in args.windows(3) {
            if w[0].is_ident("clippy") && w[1].is_punct("::") {
                clippy.push(&w[2].text);
            }
        }
    }
    let missing: Vec<&str> = CLIPPY_SET
        .iter()
        .copied()
        .filter(|l| !clippy.contains(l))
        .collect();
    let mut problems = Vec::new();
    if !forbids_unsafe {
        problems.push("crate root is missing #![forbid(unsafe_code)]".to_string());
    }
    if !missing.is_empty() {
        problems.push(format!(
            "crate root does not warn on clippy::{}; panic- and stub-freedom \
             are enforced by these lints",
            missing.join(", clippy::")
        ));
    }
    problems
        .into_iter()
        .map(|message| Diagnostic {
            file: file.to_string(),
            line: 1,
            rule: Rule::Hygiene,
            message,
        })
        .collect()
}

/// How a marker failed to parse.
enum MarkerError {
    /// Syntactically broken (missing parens, empty justification, ...).
    Syntax(String),
    /// Well-formed but names a rule this linter does not define — a
    /// stale marker left behind by a renamed or retired rule.
    Stale(String),
}

/// Parses every `lint:allow(<rule>): <justification>` marker in the
/// file's comments and binds each to the code line it suppresses: the
/// marker's own line when that line holds code, otherwise the next line
/// that does (so a comment-only marker line covers the statement below).
///
/// Every `lint:allow` occurrence in a comment is parsed, not just the
/// first — a stale second marker hiding behind a valid one used to pass
/// silently.
pub fn collect_allows(file: &str, lexed: &Lexed) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut code_lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    code_lines.sort_unstable();
    code_lines.dedup();

    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for comment in &lexed.comments {
        // Each marker's body extends to the next `lint:allow` (or the
        // comment's end), so stacked markers parse independently.
        let positions: Vec<usize> = comment
            .text
            .match_indices("lint:allow")
            .map(|(p, _)| p)
            .collect();
        for (n, &pos) in positions.iter().enumerate() {
            let body_end = positions.get(n + 1).copied().unwrap_or(comment.text.len());
            let rest = &comment.text[pos + "lint:allow".len()..body_end];
            match parse_marker_body(rest) {
                Ok((rules, _justification)) => {
                    let bound = if code_lines.binary_search(&comment.line).is_ok() {
                        Some(comment.line)
                    } else {
                        // First code line strictly after the marker line.
                        let idx = code_lines.partition_point(|&l| l <= comment.line);
                        code_lines.get(idx).copied()
                    };
                    match bound {
                        Some(bound_line) => {
                            for rule in rules {
                                allows.push(Allow {
                                    rule,
                                    bound_line,
                                    marker_line: comment.line,
                                    used: Cell::new(false),
                                });
                            }
                        }
                        None => diags.push(Diagnostic {
                            file: file.to_string(),
                            line: comment.line,
                            rule: Rule::Suppression,
                            message: "suppression marker has no code line to cover".to_string(),
                        }),
                    }
                }
                Err(MarkerError::Stale(id)) => diags.push(Diagnostic {
                    file: file.to_string(),
                    line: comment.line,
                    rule: Rule::Suppression,
                    message: format!(
                        "stale suppression marker: `{id}` is not a rule this linter \
                         defines (known rules: {}); delete or update the marker",
                        known_rule_ids()
                    ),
                }),
                Err(MarkerError::Syntax(reason)) => diags.push(Diagnostic {
                    file: file.to_string(),
                    line: comment.line,
                    rule: Rule::Suppression,
                    message: format!("malformed suppression marker: {reason}"),
                }),
            }
        }
    }
    (allows, diags)
}

/// Comma-joined ids of the rules a marker may name.
fn known_rule_ids() -> String {
    let ids: Vec<&str> = Rule::ALL
        .iter()
        .filter(|r| !matches!(r, Rule::Suppression | Rule::Parse))
        .map(|r| r.id())
        .collect();
    ids.join(", ")
}

/// Parses the part of a marker after `lint:allow`: expects
/// `(<rule>[, <rule>...]): <non-empty justification>`.
fn parse_marker_body(rest: &str) -> Result<(Vec<Rule>, String), MarkerError> {
    let rest = rest.trim_start();
    let Some(inner) = rest.strip_prefix('(') else {
        return Err(MarkerError::Syntax(
            "expected `(` after lint:allow".to_string(),
        ));
    };
    let Some(close) = inner.find(')') else {
        return Err(MarkerError::Syntax("missing `)` in rule list".to_string()));
    };
    let mut rules = Vec::new();
    for id in inner[..close].split(',') {
        let id = id.trim();
        if id.is_empty() {
            return Err(MarkerError::Syntax("empty rule list".to_string()));
        }
        match Rule::from_id(id) {
            // `suppression` and `parse` are meta rules: suppressing the
            // suppressor (or the coverage gate) would defeat the audit.
            Some(Rule::Suppression | Rule::Parse) | None => {
                return Err(MarkerError::Stale(id.to_string()));
            }
            Some(rule) => rules.push(rule),
        }
    }
    if rules.is_empty() {
        return Err(MarkerError::Syntax("empty rule list".to_string()));
    }
    let after = &inner[close + 1..];
    let Some(justification) = after.trim_start().strip_prefix(':') else {
        return Err(MarkerError::Syntax(
            "expected `: <justification>` after rule list".to_string(),
        ));
    };
    let justification = justification.trim();
    if justification.is_empty() {
        return Err(MarkerError::Syntax("empty justification".to_string()));
    }
    Ok((rules, justification.to_string()))
}

/// Returns indices of tokens that are *not* inside test-only items
/// (`#[cfg(test)]` / `#[test]` / `#[bench]` annotated mods, fns, or
/// statements). A `#![cfg(test)]` inner attribute marks the whole file
/// as test code.
fn strip_test_regions(tokens: &[Token]) -> Vec<usize> {
    let mut kept = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        // Inner attribute `#![...]`.
        if tokens[i].is_punct("#")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct("["))
        {
            let close = matching(tokens, i + 2, "[", "]");
            if attr_is_test(&tokens[i + 3..close]) {
                return kept; // whole file is test-only from here on
            }
            for idx in i..=close.min(tokens.len().saturating_sub(1)) {
                kept.push(idx);
            }
            i = close + 1;
            continue;
        }
        // Outer attribute `#[...]`.
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let close = matching(tokens, i + 1, "[", "]");
            if attr_is_test(&tokens[i + 2..close]) {
                i = skip_attributed_item(tokens, close + 1);
                continue;
            }
            for idx in i..=close.min(tokens.len().saturating_sub(1)) {
                kept.push(idx);
            }
            i = close + 1;
            continue;
        }
        kept.push(i);
        i += 1;
    }
    kept
}

/// After a test attribute's closing `]` at `start`, skips any further
/// attributes and then one item: everything up to and including the
/// matching `}` of its first brace block, or a `;` at item depth.
fn skip_attributed_item(tokens: &[Token], start: usize) -> usize {
    let mut j = start;
    // Skip stacked attributes (`#[cfg(test)] #[allow(...)] mod t { .. }`).
    while j < tokens.len()
        && tokens[j].is_punct("#")
        && tokens.get(j + 1).is_some_and(|t| t.is_punct("["))
    {
        j = matching(tokens, j + 1, "[", "]") + 1;
    }
    let mut depth = 0usize;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        } else if t.is_punct(";") && depth == 0 {
            return j + 1;
        }
        j += 1;
    }
    j
}

/// Raw float equality: `==`/`!=` with a float literal or a
/// `f64::NAN`/`INFINITY`/`NEG_INFINITY` constant on either side.
///
/// This is a token-level approximation: comparisons between two float
/// *variables* are invisible to it (no type inference), and a tuple
/// access chain like `x.0.1` lexes as a float literal. Both edges are
/// documented in DESIGN.md §9; the second has a `lint:allow` escape.
fn scan_float_eq(file: &str, tokens: &[Token], kept: &[usize], out: &mut Vec<Diagnostic>) {
    let is_float_const = |pos: usize, side_before: bool| -> bool {
        // Matches `f64 :: NAN`-style paths ending (or starting) at `pos`.
        let konst =
            |t: &Token| t.is_ident("NAN") || t.is_ident("INFINITY") || t.is_ident("NEG_INFINITY");
        let base = |t: &Token| t.is_ident("f64") || t.is_ident("f32");
        if side_before {
            // ... f64 :: NAN ==
            pos >= 2
                && konst(&tokens[kept[pos]])
                && tokens[kept[pos - 1]].is_punct("::")
                && base(&tokens[kept[pos - 2]])
        } else {
            // == f64 :: NAN ...
            pos + 2 < kept.len()
                && base(&tokens[kept[pos]])
                && tokens[kept[pos + 1]].is_punct("::")
                && konst(&tokens[kept[pos + 2]])
        }
    };
    for (pos, &idx) in kept.iter().enumerate() {
        let t = &tokens[idx];
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let prev_float = pos
            .checked_sub(1)
            .is_some_and(|p| tokens[kept[p]].kind == TokenKind::Float || is_float_const(p, true));
        let next_float = kept
            .get(pos + 1)
            .is_some_and(|_| tokens[kept[pos + 1]].kind == TokenKind::Float)
            || is_float_const(pos + 1, false);
        if prev_float || next_float {
            out.push(Diagnostic {
                file: file.to_string(),
                line: t.line,
                rule: Rule::FloatEq,
                message: format!(
                    "raw `{}` against a float; use f64::total_cmp, an epsilon \
                     helper, or justify the exact compare with lint:allow",
                    t.text
                ),
            });
        }
    }
}

/// Determinism rule: flags identifiers whose presence in library code
/// can make controller output depend on hasher seeds, wall-clock time,
/// or OS entropy.
///
/// Beyond the literal `HashMap`/`HashSet` tokens, two smuggling routes
/// are tracked (a hash map iterated inside a merge/reduction path is
/// exactly the bug class the rule exists for, however it got into
/// scope):
///
/// * **renames** — `use std::collections::HashMap as Map;` or
///   `type Labels = HashMap<..>;` bind a new name to a hash container;
///   every later use of the alias is flagged, not just the defining line.
/// * **wildcard imports** — `use std::collections::*;` pulls `HashMap`
///   and `HashSet` into scope with no token naming them; the wildcard
///   import itself is flagged.
fn scan_determinism(file: &str, tokens: &[Token], kept: &[usize], out: &mut Vec<Diagnostic>) {
    // Pass 1: collect hash-container aliases (`HashMap as X`,
    // `type X = HashMap`) and the kept-positions where each alias is
    // *defined* — the definition line already fires via its
    // `HashMap`/`HashSet` token, so only later uses report the alias.
    let mut aliases: Vec<(String, &'static str)> = Vec::new();
    let mut defining: Vec<usize> = Vec::new();
    for (pos, &idx) in kept.iter().enumerate() {
        let t = &tokens[idx];
        let source = if t.is_ident("HashMap") {
            "HashMap"
        } else if t.is_ident("HashSet") {
            "HashSet"
        } else {
            continue;
        };
        // `use ... HashMap as Alias`
        if kept.get(pos + 1).is_some_and(|&k| tokens[k].is_ident("as")) {
            if let Some(&k) = kept.get(pos + 2) {
                if tokens[k].kind == TokenKind::Ident {
                    aliases.push((tokens[k].text.clone(), source));
                    defining.push(pos + 2);
                }
            }
        }
        // `type Alias = HashMap<..>`
        if pos >= 3
            && tokens[kept[pos - 1]].is_punct("=")
            && tokens[kept[pos - 3]].is_ident("type")
            && tokens[kept[pos - 2]].kind == TokenKind::Ident
        {
            aliases.push((tokens[kept[pos - 2]].text.clone(), source));
            defining.push(pos - 2);
        }
    }
    for (pos, &idx) in kept.iter().enumerate() {
        let t = &tokens[idx];
        // `use std::collections::*` (wildcard import of the hash
        // containers without naming them).
        if t.is_ident("collections")
            && kept.get(pos + 1).is_some_and(|&k| tokens[k].is_punct("::"))
            && kept.get(pos + 2).is_some_and(|&k| tokens[k].is_punct("*"))
        {
            out.push(Diagnostic {
                file: file.to_string(),
                line: t.line,
                rule: Rule::Determinism,
                message: "wildcard import of std::collections pulls HashMap/HashSet \
                          into scope unnamed; import ordered containers explicitly"
                    .to_string(),
            });
            continue;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        if let Some((_, source)) = aliases
            .iter()
            .find(|(alias, _)| alias == &t.text)
            .filter(|_| !defining.contains(&pos))
        {
            out.push(Diagnostic {
                file: file.to_string(),
                line: t.line,
                rule: Rule::Determinism,
                message: format!(
                    "`{}` is an alias of `{source}`, whose iteration order is \
                     nondeterministic; use BTreeMap/BTreeSet or an index-keyed Vec",
                    t.text
                ),
            });
            continue;
        }
        let message = match t.text.as_str() {
            "HashMap" | "HashSet" => Some(format!(
                "`{}` iteration order is nondeterministic; use BTreeMap/BTreeSet \
                 or an index-keyed Vec",
                t.text
            )),
            "Instant" | "SystemTime" => {
                let is_now = kept.get(pos + 1).is_some_and(|&k| tokens[k].is_punct("::"))
                    && kept
                        .get(pos + 2)
                        .is_some_and(|&k| tokens[k].is_ident("now"));
                is_now.then(|| {
                    format!(
                        "`{}::now()` reads the wall clock; thread tick indices or \
                         caller-supplied timestamps through instead",
                        t.text
                    )
                })
            }
            "thread_rng" => Some(
                "`thread_rng()` is OS-seeded; use a seeded StdRng passed in by the caller"
                    .to_string(),
            ),
            "from_entropy" => Some(
                "`from_entropy()` is OS-seeded; use SeedableRng::seed_from_u64 with a \
                 caller-supplied seed"
                    .to_string(),
            ),
            _ => None,
        };
        if let Some(message) = message {
            out.push(Diagnostic {
                file: file.to_string(),
                line: t.line,
                rule: Rule::Determinism,
                message,
            });
        }
    }
}

/// Groups diagnostics per file for summary printing.
pub fn count_by_rule(diags: &[Diagnostic]) -> BTreeMap<Rule, usize> {
    let mut map = BTreeMap::new();
    for d in diags {
        *map.entry(d.rule).or_insert(0) += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_file("test.rs", &lex(src)).diagnostics
    }

    fn rules_fired(src: &str) -> Vec<Rule> {
        lint(src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn float_eq_fires_on_literals_and_constants() {
        assert_eq!(
            rules_fired("fn f() { if x == 0.0 {} }"),
            vec![Rule::FloatEq]
        );
        assert_eq!(
            rules_fired("fn f() { if 1.5 != y {} }"),
            vec![Rule::FloatEq]
        );
        assert_eq!(
            rules_fired("fn f() { if x == f64::NAN {} }"),
            vec![Rule::FloatEq]
        );
        assert_eq!(
            rules_fired("fn f() { if f64::NEG_INFINITY == x {} }"),
            vec![Rule::FloatEq]
        );
        assert!(lint("fn f() { if x == 0 {} if n != 10u32 {} }").is_empty());
        assert!(lint("fn f() { if a.total_cmp(&b).is_eq() {} }").is_empty());
    }

    #[test]
    fn determinism_sources_fire() {
        assert_eq!(
            rules_fired("use std::collections::HashMap;"),
            vec![Rule::Determinism]
        );
        assert_eq!(
            rules_fired("fn f() { let t = Instant::now(); }"),
            vec![Rule::Determinism]
        );
        assert_eq!(
            rules_fired("fn f() { let t = std::time::SystemTime::now(); }"),
            vec![Rule::Determinism]
        );
        assert_eq!(
            rules_fired("fn f() { let mut r = rand::thread_rng(); }"),
            vec![Rule::Determinism]
        );
        // Non-clock uses of the same type names stay legal.
        assert!(lint("fn f(deadline: Instant) -> Instant { deadline }").is_empty());
        assert!(lint("use std::collections::BTreeMap;").is_empty());
    }

    #[test]
    fn determinism_tracks_use_renames() {
        // The import fires once (HashMap token) and each later use of the
        // alias fires again — renaming must not launder the container out
        // of a merge path.
        let src = "use std::collections::HashMap as Map;\n\
                   fn merge(counts: Map<u64, usize>) -> usize {\n\
                       counts.len()\n\
                   }";
        let diags = lint(src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == Rule::Determinism));
        assert_eq!(diags[1].line, 2);
        assert!(diags[1].message.contains("alias of `HashMap`"));
        // HashSet renames are tracked the same way.
        let fired = rules_fired("use std::collections::HashSet as Seen;\nfn f(s: Seen<u64>) {}");
        assert_eq!(fired, vec![Rule::Determinism, Rule::Determinism]);
    }

    #[test]
    fn determinism_tracks_type_aliases() {
        let src = "type Labels = HashMap<u64, usize>;\n\
                   fn gather(l: &Labels) -> usize { l.len() }";
        let diags = lint(src);
        // Line 1 fires via the HashMap token; line 2 via the alias.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[1].line, 2);
        assert!(diags[1].message.contains("alias of `HashMap`"));
    }

    #[test]
    fn determinism_flags_collections_wildcard_imports() {
        let fired = rules_fired("use std::collections::*;\nfn f() {}");
        assert_eq!(fired, vec![Rule::Determinism]);
        // Naming ordered containers stays legal; a wildcard elsewhere is
        // not this rule's business.
        assert!(lint("use std::collections::{BTreeMap, BTreeSet};").is_empty());
        assert!(lint("use crate::shard::*;").is_empty());
    }

    #[test]
    fn determinism_alias_definition_fires_once_per_line() {
        // The defining occurrence is not double-reported as an alias use.
        let diags = lint("use std::collections::HashMap as Map;");
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn comments_strings_and_docs_do_not_fire() {
        assert!(lint("// x == 0.0 and Instant::now() and HashMap\nfn f() {}").is_empty());
        assert!(lint("/// Compares `x == 1.0` internally.\nfn f() {}").is_empty());
        assert!(lint("fn f() { let s = \"x == 0.0 or HashMap\"; }").is_empty());
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x == 0.0; HashMap::new(); }\n}";
        assert!(lint(src).is_empty());
        // ... but code *after* the module is still linted.
        let src2 = format!("{src}\nfn tail() {{ y == 1.0; }}");
        assert_eq!(rules_fired(&src2), vec![Rule::FloatEq]);
    }

    #[test]
    fn test_fns_and_stacked_attrs_are_skipped() {
        let src = "#[test]\nfn t() { x == 0.0; }";
        assert!(lint(src).is_empty());
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn helper() { x == 0.0; }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nfn real() { x == 0.0; }";
        assert_eq!(rules_fired(src), vec![Rule::FloatEq]);
    }

    #[test]
    fn inner_cfg_test_skips_whole_file() {
        let src = "#![cfg(test)]\nfn t() { x == 0.0; let m = HashMap::new(); }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn suppression_same_line_and_line_above() {
        let src = "fn f() { x == 0.0; } // lint:allow(float-eq): exact-zero sentinel\n";
        assert!(lint(src).is_empty());
        let src = "// lint:allow(float-eq): exact-zero sentinel\nfn f() { x == 0.0; }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn suppression_reports_used_count() {
        let src = "// lint:allow(float-eq): justified\nfn f() { x == 0.0; }";
        let outcome = lint_file("test.rs", &lex(src));
        assert!(outcome.diagnostics.is_empty());
        assert_eq!(outcome.suppressed, 1);
    }

    #[test]
    fn suppression_is_rule_specific() {
        let src = "// lint:allow(determinism): wrong rule\nfn f() { x == 0.0; }";
        let fired = rules_fired(src);
        // The float-eq fires AND the suppression is reported unused.
        assert!(fired.contains(&Rule::FloatEq));
        assert!(fired.contains(&Rule::Suppression));
    }

    #[test]
    fn malformed_suppressions_are_reported() {
        for bad in [
            "// lint:allow(float-eq)\nfn f() {}",         // no justification
            "// lint:allow(float-eq):   \nfn f() {}",     // empty justification
            "// lint:allow(made-up): because\nfn f() {}", // unknown rule
            "// lint:allow float-eq: because\nfn f() {}", // missing parens
            "// lint:allow(panic): retired rule\nfn f() {}", // clippy's now
        ] {
            let fired = rules_fired(bad);
            assert!(fired.contains(&Rule::Suppression), "{bad}");
        }
    }

    #[test]
    fn multi_rule_suppression() {
        let src = "fn f() { if x == 0.0 { let t = Instant::now(); } } \
                   // lint:allow(float-eq, determinism): both justified here";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn crate_root_hygiene() {
        let clippy = format!("#![warn(clippy::{})]", CLIPPY_SET.join(", clippy::"));
        let ok = format!("#![forbid(unsafe_code)]\n{clippy}\npub fn f() {{}}");
        assert!(check_crate_root("lib.rs", &lex(&ok)).is_empty());
        // Denying the set is at least as strict as warning on it.
        let denied = ok.replace("warn", "deny");
        assert!(check_crate_root("lib.rs", &lex(&denied)).is_empty());
        let diags = check_crate_root("lib.rs", &lex("pub fn f() {}"));
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == Rule::Hygiene));
        // A commented-out attribute does not count, nor does one on an item.
        let commented = format!("// #![forbid(unsafe_code)]\n{clippy}\npub fn f() {{}}");
        assert_eq!(check_crate_root("lib.rs", &lex(&commented)).len(), 1);
        let on_item = ok.replace("#![warn", "#[warn");
        assert_eq!(check_crate_root("lib.rs", &lex(&on_item)).len(), 1);
        // One lint short of the set names the missing lint.
        let short = ok.replace(", clippy::dbg_macro", "");
        let diags = check_crate_root("lib.rs", &lex(&short));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("clippy::dbg_macro"));
    }

    #[test]
    fn diagnostics_point_at_the_right_line() {
        let src = "fn a() {}\nfn b() {\n    x == 0.0;\n}";
        let diags = lint(src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 3);
    }
}
