//! Whole-workspace analysis: cross-crate call graph plus the three
//! dataflow passes (panic-reachability, determinism taint, arithmetic
//! audit) that run on top of the item-level ASTs from [`crate::parser`].
//!
//! The analysis is deliberately a conservative approximation:
//!
//! * **Call resolution** is name-based. Method calls resolve to *every*
//!   workspace method with that name (a sound over-approximation that
//!   also covers `dyn Forecaster` dispatch); unresolved names are
//!   treated as external and non-panicking. Panic *sites* are local
//!   facts, so an extra false edge can only add paths through sites
//!   that are audited anyway — it cannot hide a finding.
//! * **Recognized-safe indexing**: an index that is exactly an active
//!   `for i in a..b` loop variable, or an affine `+`/`*` combination
//!   anchored by one (`base + j`, `r * cols + c`), is classified
//!   bounded-by-construction and counted instead of flagged. The
//!   runtime backstop for this class is the debug_assert contracts from
//!   PR 3 plus the overflow-checked CI test job. Everything else —
//!   literal indices, computed indices outside loops, slices — needs a
//!   typed-error refactor or a `lint:allow(panic-path)` audit.
//! * **Divisions** whose operand types cannot be resolved at the token
//!   level are counted (`unknown_divs`) but not flagged; known-integer
//!   division by a possibly-zero value is flagged.

use std::collections::BTreeMap;

use crate::lexer::{self, Lexed, Token, TokenKind};
use crate::parser::{
    self, EventKind, FnDef, IndexClass, Item, ItemKind, NumClass, ParsedFile, Visibility,
};
use crate::rules::{self, Allow, Diagnostic, Rule};

/// Narrow integer targets whose `as` casts can silently truncate.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Configuration for a workspace analysis.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Label substrings of the hot-kernel files the arithmetic audit
    /// covers (index-carrying integer arithmetic lives here).
    pub hot_paths: Vec<String>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            hot_paths: vec![
                "clustering/src/kmeans.rs".to_string(),
                "linalg/src/kernels.rs".to_string(),
                "linalg/src/simd.rs".to_string(),
                "timeseries/src/lstm.rs".to_string(),
                "core/src/transmit.rs".to_string(),
                "core/src/offset.rs".to_string(),
                "core/src/table.rs".to_string(),
                "simnet/src/transport.rs".to_string(),
            ],
        }
    }
}

/// One source file prepared for analysis.
pub struct FileUnit {
    /// Diagnostic label (repo-relative path).
    pub label: String,
    /// Owning crate (derived from the label, or `local` for fixtures).
    pub crate_name: String,
    /// Token stream.
    pub lexed: Lexed,
    /// Item AST + coverage.
    pub parsed: ParsedFile,
    /// Suppression markers (shared across the token tier and passes).
    pub allows: Vec<Allow>,
    /// True when the arithmetic audit applies to this file.
    pub hot: bool,
}

/// Aggregate counters printed by the CLI alongside the diagnostics.
#[derive(Debug, Default, Clone)]
pub struct AnalysisStats {
    /// Files analyzed (test-only files excluded).
    pub files: usize,
    /// Items attempted / parsed (the coverage gate).
    pub items_total: usize,
    /// Items parsed successfully.
    pub items_parsed: usize,
    /// Functions in the call graph.
    pub fns: usize,
    /// Resolved intra-workspace call edges.
    pub edges: usize,
    /// Public API entry points checked by the panic pass.
    pub public_apis: usize,
    /// Index sites auto-recognized as loop-bounded/affine.
    pub bounded_indexes: usize,
    /// Index/div sites inside `assert!`-family contracts (exempt).
    pub assert_sites: usize,
    /// Divisions with unresolvable operand types (counted, not flagged).
    pub unknown_divs: usize,
    /// Panic sites audited via `lint:allow`.
    pub audited_sites: usize,
    /// SimReport-producing functions checked by the taint pass.
    pub simreport_fns: usize,
    /// RNG constructions whose seed was proven parameter-derived.
    pub proven_seeds: usize,
}

impl AnalysisStats {
    /// Parse coverage in percent (100.0 when nothing failed to parse).
    pub fn coverage_pct(&self) -> f64 {
        if self.items_total == 0 {
            100.0
        } else {
            100.0 * self.items_parsed as f64 / self.items_total as f64
        }
    }
}

/// Result of analyzing a set of sources.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// Surviving diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Violations silenced by valid `lint:allow` markers (all tiers).
    pub suppressed: usize,
    /// Aggregate counters.
    pub stats: AnalysisStats,
}

/// A local panic site inside one function.
#[derive(Debug, Clone)]
struct Site {
    line: u32,
    desc: String,
}

/// An unresolved call reference.
#[derive(Debug, Clone)]
enum CallRef {
    /// `a::b::f(..)` — full path segments.
    Path(Vec<String>),
    /// `.m(..)` — method name only.
    Method(String),
}

/// One function node in the call graph.
struct FnNode {
    unit: usize,
    crate_name: String,
    module: String,
    impl_ty: Option<String>,
    name: String,
    line: u32,
    public: bool,
    is_test: bool,
    ret: String,
    sites: Vec<Site>,
    taint_roots: Vec<Site>,
    seed_issues: Vec<Site>,
    arith: Vec<Site>,
    calls: Vec<CallRef>,
}

impl FnNode {
    /// `crate::module::Type::name` rendering for chain diagnostics.
    fn qname(&self) -> String {
        let mut q = format!("{}::{}", self.crate_name, self.module);
        if let Some(ty) = &self.impl_ty {
            q.push_str("::");
            q.push_str(ty);
        }
        q.push_str("::");
        q.push_str(&self.name);
        q
    }
}

/// Analyzes in-memory sources: token tier, parse coverage, graph passes,
/// and the shared suppression protocol. `lint_repo` feeds it the library
/// crates; fixture tests feed it synthetic files.
///
/// A file that a `#[cfg(test)] mod x;` declaration brings in is test
/// code and is skipped, together with its submodule directory; labels
/// are `/`-separated paths, as `lint_repo` renders them.
pub fn analyze_sources(sources: Vec<(String, String)>, config: &AnalysisConfig) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let mut units: Vec<FileUnit> = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    let files: Vec<(String, Lexed, ParsedFile)> = sources
        .into_iter()
        .map(|(label, src)| {
            let lexed = lexer::lex(&src);
            let parsed = parser::parse_file(&lexed);
            (label, lexed, parsed)
        })
        .collect();
    let mut test_mods: Vec<String> = Vec::new();
    for (label, lexed, parsed) in &files {
        test_file_mods(
            &parsed.items,
            &lexed.tokens,
            &module_dir(label),
            &mut test_mods,
        );
    }
    for (label, lexed, parsed) in files {
        if test_mods
            .iter()
            .any(|m| label == format!("{m}.rs") || label.starts_with(&format!("{m}/")))
        {
            continue;
        }
        let (allows, marker_diags) = rules::collect_allows(&label, &lexed);
        diagnostics.extend(marker_diags);
        let crate_name = crate_of_label(&label);
        let hot = config.hot_paths.iter().any(|h| label.ends_with(h.as_str()));
        units.push(FileUnit {
            label,
            crate_name,
            lexed,
            parsed,
            allows,
            hot,
        });
    }
    report.stats.files = units.len();

    // Tier 1: the token rules (`float-eq`, `determinism`).
    for unit in &units {
        let (diags, _suppressed) = rules::token_tier(&unit.label, &unit.lexed, &unit.allows);
        diagnostics.extend(diags);
    }

    // Parse-coverage gate.
    for unit in &units {
        report.stats.items_total += unit.parsed.coverage.total;
        report.stats.items_parsed += unit.parsed.coverage.parsed;
        for (line, snippet) in &unit.parsed.coverage.failures {
            diagnostics.push(Diagnostic {
                file: unit.label.clone(),
                line: *line,
                rule: Rule::Parse,
                message: format!(
                    "parser could not classify the item starting with `{snippet}`; \
                     the AST passes cannot vouch for this code"
                ),
            });
        }
        for line in &unit.parsed.coverage.unscanned_lets {
            diagnostics.push(Diagnostic {
                file: unit.label.clone(),
                line: *line,
                rule: Rule::Parse,
                message: "the body scan could not find where this `let` ends; \
                          it is skipped, and the AST passes cannot vouch for it"
                    .to_string(),
            });
        }
    }

    // Tier 2: build the graph and run the dataflow passes.
    let mut nodes = flatten_fns(&units, &mut report.stats);
    let edges = resolve_edges(&nodes);
    report.stats.fns = nodes.len();
    report.stats.edges = edges.iter().map(Vec::len).sum();

    diagnostics.extend(panic_pass(&units, &mut nodes, &edges, &mut report.stats));
    diagnostics.extend(taint_pass(&units, &mut nodes, &edges, &mut report.stats));
    diagnostics.extend(arith_pass(&units, &mut nodes, &mut report.stats));

    // Each used marker counts once, whichever tier claimed it.
    report.suppressed = units
        .iter()
        .flat_map(|u| u.allows.iter())
        .filter(|a| a.used.get())
        .count();

    // Unused suppressions, after every tier had its chance to claim one.
    for unit in &units {
        for allow in &unit.allows {
            if !allow.used.get() {
                diagnostics.push(Diagnostic {
                    file: unit.label.clone(),
                    line: allow.marker_line,
                    rule: Rule::Suppression,
                    message: format!(
                        "unused suppression: no `{}` violation on the line it covers",
                        allow.rule
                    ),
                });
            }
        }
    }

    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.diagnostics = diagnostics;
    report
}

/// Collects `<dir><name>` for every file module declared under
/// `#[cfg(test)]` (stacked attributes included) in `items`, a file whose
/// child modules live in `dir` (empty or `/`-terminated). Inline modules
/// are followed into `<dir><name>/`.
fn test_file_mods(items: &[Item], tokens: &[Token], dir: &str, out: &mut Vec<String>) {
    for item in items {
        let ItemKind::Mod(m) = &item.kind else {
            continue;
        };
        let path = format!("{dir}{}", m.name);
        let file_decl = item
            .span
            .1
            .checked_sub(1)
            .and_then(|i| tokens.get(i))
            .is_some_and(|t| t.is_punct(";"));
        if item.cfg_test && file_decl {
            out.push(path);
        } else {
            test_file_mods(&m.items, tokens, &format!("{path}/"), out);
        }
    }
}

/// The directory holding a file's child module files, `/`-terminated
/// unless empty: the file's own directory for `lib.rs`/`main.rs`/`mod.rs`,
/// else `<dir>/<stem>/`.
fn module_dir(label: &str) -> String {
    let stem = label.strip_suffix(".rs").unwrap_or(label);
    let (dir, name) = stem.split_at(stem.rfind('/').map_or(0, |i| i + 1));
    if matches!(name, "lib" | "main" | "mod") {
        dir.to_string()
    } else {
        format!("{stem}/")
    }
}

/// `crates/<name>/src/...` -> `<name>`; anything else -> `local`.
fn crate_of_label(label: &str) -> String {
    let mut parts = label.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_string();
        }
    }
    "local".to_string()
}

/// Walks the item tree of every unit, producing the fn table with local
/// sites, taint roots, and arithmetic findings attached.
fn flatten_fns(units: &[FileUnit], stats: &mut AnalysisStats) -> Vec<FnNode> {
    let mut nodes = Vec::new();
    for (u, unit) in units.iter().enumerate() {
        let module = module_of_label(&unit.label);
        walk_items(
            unit,
            u,
            &unit.parsed.items,
            &module,
            None,
            true,
            false,
            &mut nodes,
            stats,
        );
    }
    nodes
}

fn module_of_label(label: &str) -> String {
    let base = label.rsplit('/').next().unwrap_or(label);
    let stem = base.strip_suffix(".rs").unwrap_or(base);
    if stem == "lib" || stem == "mod" {
        "lib".to_string()
    } else {
        stem.to_string()
    }
}

#[allow(clippy::too_many_arguments)]
fn walk_items(
    unit: &FileUnit,
    u: usize,
    items: &[Item],
    module: &str,
    impl_ty: Option<&str>,
    pub_chain: bool,
    test_chain: bool,
    nodes: &mut Vec<FnNode>,
    stats: &mut AnalysisStats,
) {
    for item in items {
        let item_test = test_chain || item.cfg_test;
        match &item.kind {
            ItemKind::Fn(f) => {
                nodes.push(build_node(
                    unit, u, f, module, impl_ty, pub_chain, item_test, stats,
                ));
            }
            ItemKind::Impl(im) => {
                for f in &im.fns {
                    nodes.push(build_node(
                        unit,
                        u,
                        f,
                        module,
                        Some(&im.ty),
                        pub_chain,
                        item_test || f.cfg_test,
                        stats,
                    ));
                }
            }
            ItemKind::Trait(tr) => {
                for f in &tr.fns {
                    if f.body.is_some() {
                        nodes.push(build_node(
                            unit,
                            u,
                            f,
                            module,
                            Some(&tr.name),
                            pub_chain,
                            item_test || f.cfg_test,
                            stats,
                        ));
                    }
                }
            }
            ItemKind::Mod(m) => {
                let child_pub = pub_chain && item.vis == Visibility::Pub;
                let child_module = format!("{module}::{}", m.name);
                walk_items(
                    unit,
                    u,
                    &m.items,
                    &child_module,
                    impl_ty,
                    child_pub,
                    item_test,
                    nodes,
                    stats,
                );
            }
            _ => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn build_node(
    unit: &FileUnit,
    u: usize,
    f: &FnDef,
    module: &str,
    impl_ty: Option<&str>,
    pub_chain: bool,
    is_test: bool,
    stats: &mut AnalysisStats,
) -> FnNode {
    let mut node = FnNode {
        unit: u,
        crate_name: unit.crate_name.clone(),
        module: module.to_string(),
        impl_ty: impl_ty.map(str::to_string),
        name: f.name.clone(),
        line: f.line,
        public: pub_chain && f.vis == Visibility::Pub && !is_test && !f.cfg_test,
        is_test: is_test || f.cfg_test,
        ret: f.ret.clone(),
        sites: Vec::new(),
        taint_roots: Vec::new(),
        seed_issues: Vec::new(),
        arith: Vec::new(),
        calls: Vec::new(),
    };
    let Some(body) = &f.body else {
        return node;
    };
    if node.is_test {
        return node; // test bodies are outside every invariant
    }
    for ev in &body.events {
        match &ev.kind {
            EventKind::Call { path, args } => {
                let last = path.last().map(String::as_str).unwrap_or("");
                match last {
                    "thread_rng" | "from_entropy" => node.taint_roots.push(Site {
                        line: ev.line,
                        desc: format!("`{last}()` draws OS entropy"),
                    }),
                    "now" => {
                        let qual = path.len().checked_sub(2).map(|i| path[i].as_str());
                        if matches!(qual, Some("Instant" | "SystemTime")) {
                            node.taint_roots.push(Site {
                                line: ev.line,
                                desc: format!(
                                    "`{}::now()` reads the wall clock",
                                    qual.unwrap_or("")
                                ),
                            });
                        }
                    }
                    "var" | "var_os" if path.iter().any(|s| s == "env") => {
                        node.taint_roots.push(Site {
                            line: ev.line,
                            desc: "`env::var` reads ambient process state".to_string(),
                        });
                    }
                    "seed_from_u64" | "from_seed" => {
                        if seed_arg_is_clean(unit, f, body.span, *args) {
                            stats.proven_seeds += 1;
                        } else {
                            node.seed_issues.push(Site {
                                line: ev.line,
                                desc: format!(
                                    "`{last}` seed is not provably derived from an \
                                     explicit seed parameter"
                                ),
                            });
                        }
                    }
                    _ => {}
                }
                node.calls.push(CallRef::Path(path.clone()));
            }
            EventKind::MethodCall { name, .. } => {
                if name == "unwrap" || name == "expect" {
                    node.sites.push(Site {
                        line: ev.line,
                        desc: format!("`.{name}()` panics on the poisoned case"),
                    });
                }
                node.calls.push(CallRef::Method(name.clone()));
            }
            EventKind::MacroUse { name } => {
                if matches!(
                    name.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) {
                    node.sites.push(Site {
                        line: ev.line,
                        desc: format!("`{name}!` aborts the caller"),
                    });
                }
            }
            EventKind::Index {
                class,
                slice,
                in_assert,
                ..
            } => {
                if *in_assert {
                    stats.assert_sites += 1;
                } else {
                    match class {
                        IndexClass::LoopVar | IndexClass::AffineLoop => {
                            stats.bounded_indexes += 1;
                        }
                        IndexClass::Other => node.sites.push(Site {
                            line: ev.line,
                            desc: if *slice {
                                "slice expression can panic out of bounds".to_string()
                            } else {
                                "index expression can panic out of bounds".to_string()
                            },
                        }),
                    }
                }
            }
            EventKind::IntDiv { op, rhs, in_assert } => {
                if *in_assert {
                    stats.assert_sites += 1;
                } else if *rhs != NumClass::NonZeroLit {
                    node.sites.push(Site {
                        line: ev.line,
                        desc: format!("integer `{op}` can panic on a zero divisor"),
                    });
                }
            }
            EventKind::UnknownDiv => stats.unknown_divs += 1,
            EventKind::Cast { to, from } => {
                if unit.hot {
                    let narrow = NARROW_INTS.contains(&to.as_str());
                    let float_to_int =
                        *from == NumClass::Float && INT_TARGETS.contains(&to.as_str());
                    let precision_loss = *from == NumClass::Float && to == "f32";
                    if narrow || float_to_int || precision_loss {
                        node.arith.push(Site {
                            line: ev.line,
                            desc: format!(
                                "`as {to}` cast can truncate; use `try_from`/`round()` \
                                 or justify the range"
                            ),
                        });
                    }
                }
            }
            EventKind::OffsetArith { name } => {
                if unit.hot {
                    node.arith.push(Site {
                        line: ev.line,
                        desc: format!(
                            "offset `{name}` uses unchecked `+`/`*`; use `checked_`/\
                             `wrapping_` forms or justify the bound"
                        ),
                    });
                }
            }
        }
    }
    node
}

const INT_TARGETS: &[&str] = &[
    "usize", "u64", "u32", "u16", "u8", "isize", "i64", "i32", "i16", "i8",
];

/// Seed-origin proof: every identifier in the argument token range must
/// be a fn parameter, `self`, an UPPER_CASE constant, a literal, a path
/// qualifier / callee (followed by `(` or `::`), or a field/method name
/// (preceded by `.`) — i.e. the value is a pure function of explicit
/// inputs, never ambient state.
fn seed_arg_is_clean(
    unit: &FileUnit,
    f: &FnDef,
    span: (usize, usize),
    args: (usize, usize),
) -> bool {
    let tokens = &unit.lexed.tokens;
    let clean = clean_locals(tokens, span, f);
    let (start, end) = args;
    for i in start..end.min(tokens.len()) {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if ident_is_clean(tokens, i, &clean) {
            continue;
        }
        return false;
    }
    true
}

fn ident_is_clean(tokens: &[Token], i: usize, clean: &std::collections::BTreeSet<String>) -> bool {
    let t = &tokens[i];
    let text = t.text.as_str();
    if text == "self" || text == "as" || INT_TARGETS.contains(&text) {
        return true;
    }
    if clean.contains(text) {
        return true;
    }
    if text
        .chars()
        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
    {
        return true; // SCREAMING_CASE constant
    }
    // Callee or path qualifier.
    if tokens
        .get(i + 1)
        .is_some_and(|n| n.is_punct("(") || n.is_punct("::"))
    {
        return true;
    }
    // Field or method segment on an already-vetted base.
    if i > 0 && tokens[i - 1].is_punct(".") {
        return true;
    }
    false
}

/// Locals provably derived from parameters/constants: a single forward
/// pass over `let NAME = init;` statements whose initializer contains
/// only clean identifiers.
fn clean_locals(
    tokens: &[Token],
    span: (usize, usize),
    f: &FnDef,
) -> std::collections::BTreeSet<String> {
    let mut clean: std::collections::BTreeSet<String> =
        f.params.iter().map(|p| p.name.clone()).collect();
    let (start, end) = span;
    let mut i = start;
    while i < end.min(tokens.len()) {
        if tokens[i].is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = tokens.get(j).filter(|t| t.kind == TokenKind::Ident) {
                // Find `=`, then scan the initializer to the `;`.
                let mut k = j + 1;
                let mut depth = 0i32;
                while k < end {
                    match tokens[k].text.as_str() {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" | ">" => depth -= 1,
                        "=" if depth <= 0 => break,
                        ";" if depth <= 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                if tokens.get(k).is_some_and(|t| t.is_punct("=")) {
                    let init_start = k + 1;
                    let mut d = 0i32;
                    let mut m = init_start;
                    let mut all_clean = true;
                    while m < end {
                        let t = &tokens[m];
                        match t.text.as_str() {
                            "(" | "[" | "{" => d += 1,
                            ")" | "]" | "}" => d -= 1,
                            ";" if d <= 0 => break,
                            _ => {}
                        }
                        if t.kind == TokenKind::Ident && !ident_is_clean(tokens, m, &clean) {
                            all_clean = false;
                        }
                        m += 1;
                    }
                    if all_clean {
                        clean.insert(name.text.clone());
                    }
                    i = m;
                    continue;
                }
            }
        }
        i += 1;
    }
    clean
}

/// Builds the adjacency list via name-based resolution.
fn resolve_edges(nodes: &[FnNode]) -> Vec<Vec<usize>> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, n) in nodes.iter().enumerate() {
        if !n.is_test {
            by_name.entry(n.name.as_str()).or_default().push(idx);
        }
    }
    let mut edges = vec![Vec::new(); nodes.len()];
    for (idx, n) in nodes.iter().enumerate() {
        if n.is_test {
            continue;
        }
        let mut out: Vec<usize> = Vec::new();
        for call in &n.calls {
            match call {
                CallRef::Method(name) => {
                    if let Some(cands) = by_name.get(name.as_str()) {
                        out.extend(cands.iter().filter(|&&c| nodes[c].impl_ty.is_some()));
                    }
                }
                CallRef::Path(path) => {
                    let Some(last) = path.last() else { continue };
                    let Some(cands) = by_name.get(last.as_str()) else {
                        continue;
                    };
                    if path.len() == 1 {
                        // Bare call: free fns, nearest scope first.
                        let free: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&c| nodes[c].impl_ty.is_none())
                            .collect();
                        let same_unit: Vec<usize> = free
                            .iter()
                            .copied()
                            .filter(|&c| nodes[c].unit == n.unit)
                            .collect();
                        if !same_unit.is_empty() {
                            out.extend(same_unit);
                        } else {
                            let same_crate: Vec<usize> = free
                                .iter()
                                .copied()
                                .filter(|&c| nodes[c].crate_name == n.crate_name)
                                .collect();
                            if !same_crate.is_empty() {
                                out.extend(same_crate);
                            } else {
                                out.extend(free);
                            }
                        }
                    } else {
                        let qual = path[path.len() - 2].as_str();
                        let crate_qual = qual.strip_prefix("utilcast_").unwrap_or(qual);
                        for &c in cands {
                            let cn = &nodes[c];
                            let hit = cn.impl_ty.as_deref() == Some(qual)
                                || cn.module.ends_with(qual)
                                || cn.crate_name == crate_qual
                                || (qual == "Self" && cn.impl_ty == n.impl_ty)
                                || matches!(qual, "self" | "crate" | "super")
                                    && cn.crate_name == n.crate_name;
                            if hit {
                                out.push(c);
                            }
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        edges[idx] = out;
    }
    edges
}

/// Pass 1 — panic-reachability. Every unaudited local panic site that is
/// reachable from a public API yields one diagnostic carrying an
/// exemplar call chain. Audits bind at the site line or at the
/// containing fn's signature line (covering the whole fn); both take a
/// `panic-path` marker.
fn panic_pass(
    units: &[FileUnit],
    nodes: &mut [FnNode],
    edges: &[Vec<usize>],
    stats: &mut AnalysisStats,
) -> Vec<Diagnostic> {
    // Which fns are reachable from a public API, and through whom?
    let n = nodes.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut reached = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for (idx, node) in nodes.iter().enumerate() {
        if node.public {
            stats.public_apis += 1;
            reached[idx] = true;
            queue.push_back(idx);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &next in &edges[cur] {
            if !reached[next] {
                reached[next] = true;
                parent[next] = Some(cur);
                queue.push_back(next);
            }
        }
    }

    let mut out = Vec::new();
    for idx in 0..n {
        if nodes[idx].sites.is_empty() || !reached[idx] {
            continue;
        }
        let chain = render_chain(nodes, &parent, idx);
        let sites = std::mem::take(&mut nodes[idx].sites);
        let unit = nodes[idx].unit;
        let fn_line = nodes[idx].line;
        for site in sites {
            let audited = claim_allow(
                units,
                unit,
                site.line,
                fn_line,
                &[Rule::PanicPath],
                &[Rule::PanicPath],
            );
            if audited {
                stats.audited_sites += 1;
                continue;
            }
            out.push(Diagnostic {
                file: units[unit].label.clone(),
                line: site.line,
                rule: Rule::PanicPath,
                message: format!("{}; reachable via {chain}", site.desc),
            });
        }
    }
    out
}

/// Pass 2 — determinism taint. Ambient taint roots must be unreachable
/// from SimReport-producing fns, and every RNG construction anywhere in
/// library code must prove its seed derives from explicit inputs.
fn taint_pass(
    units: &[FileUnit],
    nodes: &mut [FnNode],
    edges: &[Vec<usize>],
    stats: &mut AnalysisStats,
) -> Vec<Diagnostic> {
    let n = nodes.len();
    let mut out = Vec::new();

    // Seed-origin issues are unconditional: an unproven seed breaks
    // replay determinism wherever it sits.
    for node in nodes.iter_mut() {
        let issues = std::mem::take(&mut node.seed_issues);
        let unit = node.unit;
        let fn_line = node.line;
        for site in issues {
            let audited = claim_allow(
                units,
                unit,
                site.line,
                fn_line,
                &[Rule::Taint, Rule::Determinism],
                &[Rule::Taint],
            );
            if audited {
                stats.audited_sites += 1;
                continue;
            }
            out.push(Diagnostic {
                file: units[unit].label.clone(),
                line: site.line,
                rule: Rule::Taint,
                message: site.desc.clone(),
            });
        }
    }

    // Ambient roots: reachability from SimReport producers.
    let producers: Vec<usize> = (0..n)
        .filter(|&i| nodes[i].ret.contains("SimReport") && !nodes[i].is_test)
        .collect();
    stats.simreport_fns = producers.len();
    let mut reached = vec![false; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for &p in &producers {
        reached[p] = true;
        queue.push_back(p);
    }
    while let Some(cur) = queue.pop_front() {
        for &next in &edges[cur] {
            if !reached[next] {
                reached[next] = true;
                parent[next] = Some(cur);
                queue.push_back(next);
            }
        }
    }
    for idx in 0..n {
        if nodes[idx].taint_roots.is_empty() || !reached[idx] {
            continue;
        }
        let chain = render_chain(nodes, &parent, idx);
        let roots = std::mem::take(&mut nodes[idx].taint_roots);
        let unit = nodes[idx].unit;
        let fn_line = nodes[idx].line;
        for site in roots {
            let audited = claim_allow(
                units,
                unit,
                site.line,
                fn_line,
                &[Rule::Taint, Rule::Determinism],
                &[Rule::Taint],
            );
            if audited {
                stats.audited_sites += 1;
                continue;
            }
            out.push(Diagnostic {
                file: units[unit].label.clone(),
                line: site.line,
                rule: Rule::Taint,
                message: format!(
                    "{} and taints a SimReport-producing path: {chain}",
                    site.desc
                ),
            });
        }
    }
    out
}

/// Pass 3 — arithmetic audit over the hot-kernel files.
fn arith_pass(
    units: &[FileUnit],
    nodes: &mut [FnNode],
    stats: &mut AnalysisStats,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for node in nodes.iter_mut() {
        let sites = std::mem::take(&mut node.arith);
        let unit = node.unit;
        let fn_line = node.line;
        for site in sites {
            let audited = claim_allow(
                units,
                unit,
                site.line,
                fn_line,
                &[Rule::Arith],
                &[Rule::Arith],
            );
            if audited {
                stats.audited_sites += 1;
                continue;
            }
            out.push(Diagnostic {
                file: units[unit].label.clone(),
                line: site.line,
                rule: Rule::Arith,
                message: site.desc.clone(),
            });
        }
    }
    out
}

/// Tries to consume an allow for a finding: first any of `site_rules`
/// bound to the site line, then any of `fn_rules` bound to the
/// containing fn's signature line (fn-scope audit).
fn claim_allow(
    units: &[FileUnit],
    unit: usize,
    site_line: u32,
    fn_line: u32,
    site_rules: &[Rule],
    fn_rules: &[Rule],
) -> bool {
    let allows = &units[unit].allows;
    for a in allows {
        if a.bound_line == site_line && site_rules.contains(&a.rule) {
            a.used.set(true);
            return true;
        }
    }
    for a in allows {
        if a.bound_line == fn_line && fn_rules.contains(&a.rule) {
            a.used.set(true);
            return true;
        }
    }
    false
}

/// Renders `public_api -> ... -> fn` from the BFS parent links.
fn render_chain(nodes: &[FnNode], parent: &[Option<usize>], mut idx: usize) -> String {
    let mut rev = vec![nodes[idx].qname()];
    while let Some(p) = parent[idx] {
        rev.push(nodes[p].qname());
        idx = p;
    }
    rev.reverse();
    rev.join(" -> ")
}
