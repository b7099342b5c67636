//! A small recursive-descent Rust parser over the [`crate::lexer`]
//! token stream, producing item-level ASTs.
//!
//! The parser recognizes every item form the seven library crates use
//! (fns, impls, traits with default methods, inline mods, use-trees,
//! structs/enums, consts/statics/type aliases) and, inside fn bodies,
//! extracts the *events* the dataflow passes need: calls and method
//! calls, index/slice expressions, integer division, `as` casts, and
//! `for`-range loop bindings. It is not a general Rust frontend —
//! anything it cannot classify is recorded as a coverage failure, and
//! the token-level rule tier (PR 3) remains the fallback for such code.
//! Parse coverage is itself a gated metric: `lint_repo` reports the
//! fraction of items parsed and fails the tree below 100%.
//!
//! Like the lexer, the parser is resilient: malformed input never
//! aborts a scan; it degrades to an `Unknown` item (counted against
//! coverage) and resynchronizes at the next `;` or balanced `}`.

use crate::lexer::{Lexed, Token, TokenKind};

/// Result of parsing one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Item-level parse coverage (recursive, includes nested mod/impl items).
    pub coverage: Coverage,
}

/// Parse-coverage accounting: `parsed / total` is the gated metric.
#[derive(Debug, Default, Clone)]
pub struct Coverage {
    /// Items the parser attempted.
    pub total: usize,
    /// Items it classified successfully.
    pub parsed: usize,
    /// Line + leading-token snippet for every unparsed item.
    pub failures: Vec<(u32, String)>,
    /// Line of every `let` whose type or initializer never reached its
    /// `=` or `;` before the end of the fn body: the body scan skips such
    /// a `let` instead of letting it swallow the rest of the body.
    pub(crate) unscanned_lets: Vec<u32>,
}

impl Coverage {
    fn merge(&mut self, other: &Coverage) {
        self.total += other.total;
        self.parsed += other.parsed;
        self.failures.extend(other.failures.iter().cloned());
    }
}

/// Item visibility, as far as the passes need it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// `pub` — part of the crate's public API surface.
    Pub,
    /// `pub(crate)` / `pub(super)` / `pub(in ..)`.
    Scoped,
    /// No modifier.
    Private,
}

/// One parsed item.
#[derive(Debug)]
pub struct Item {
    /// 1-based line of the item keyword.
    pub line: u32,
    /// Token-index span `[start, end)` in the file's token stream.
    pub span: (usize, usize),
    /// True when a `#[cfg(test)]` / `#[test]` / `#[bench]` attribute
    /// gates the item (stacked attributes included).
    pub cfg_test: bool,
    /// Item visibility.
    pub vis: Visibility,
    /// What the item is.
    pub kind: ItemKind,
}

/// Item classification.
#[derive(Debug)]
pub enum ItemKind {
    /// `use` declaration, flattened to its leaf bindings.
    Use(Vec<UseBinding>),
    /// Free function.
    Fn(FnDef),
    /// `impl` block (inherent or trait).
    Impl(ImplDef),
    /// Trait definition; default methods carry bodies.
    Trait(TraitDef),
    /// Inline or file module declaration.
    Mod(ModDef),
    /// Struct (name only; fields are not analyzed).
    Struct(String),
    /// Enum (name only).
    Enum(String),
    /// `const` item.
    Const(String),
    /// `static` item.
    Static(String),
    /// `type` alias.
    TypeAlias(String),
    /// `extern crate` declaration.
    ExternCrate(String),
    /// `macro_rules!` definition (body skipped).
    MacroDef(String),
    /// Item-position macro invocation such as `proptest! { … }` (body
    /// skipped: the items it expands to are not visible to the parser).
    MacroCall(String),
    /// Anything the parser could not classify (counts against coverage).
    Unknown,
}

/// One leaf binding produced by a use-tree: `use a::b::{c, d as e}` maps
/// to bindings `c -> [a,b,c]` and `e -> [a,b,d]`.
#[derive(Debug, Clone)]
pub struct UseBinding {
    /// Full path segments of the imported name.
    pub path: Vec<String>,
    /// The name the import binds in scope (`as` alias or last segment).
    pub alias: String,
    /// True for `use path::*`.
    pub wildcard: bool,
    /// Line of the binding.
    pub line: u32,
}

/// A function definition (free, impl-associated, or trait-default).
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Visibility of the fn itself.
    pub vis: Visibility,
    /// 1-based line of the `fn` keyword (audit markers bind here).
    pub line: u32,
    /// Declared parameters (excluding `self`).
    pub params: Vec<Param>,
    /// True when the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Raw return-type text (empty for `()`).
    pub ret: String,
    /// Body events; `None` for bodyless trait signatures.
    pub body: Option<Body>,
    /// True when the fn is test-gated.
    pub cfg_test: bool,
}

/// One declared parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (patterns degrade to the last ident before `:`).
    pub name: String,
    /// Raw type text.
    pub ty: String,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplDef {
    /// Simple name of the implementing type (`Matrix` from
    /// `impl<'a> Matrix<'a>`).
    pub ty: String,
    /// Simple trait name for `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// Associated functions.
    pub fns: Vec<FnDef>,
}

/// A trait definition with its methods (default bodies included).
#[derive(Debug)]
pub struct TraitDef {
    /// Trait name.
    pub name: String,
    /// Required + provided methods.
    pub fns: Vec<FnDef>,
}

/// A module: inline (`mod m { .. }`) or file (`mod m;`).
#[derive(Debug)]
pub struct ModDef {
    /// Module name.
    pub name: String,
    /// Items of an inline module (empty for file modules).
    pub items: Vec<Item>,
}

/// Extracted body information.
#[derive(Debug, Default)]
pub struct Body {
    /// Events in source order.
    pub events: Vec<Event>,
    /// Token-index span of the body (between the braces, exclusive).
    pub span: (usize, usize),
}

/// Rough numeric classification used by the division/cast heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumClass {
    /// Provably an integer (typed local/param, int literal, `.len()`).
    Int,
    /// Provably a float (typed local/param, float literal, `as f64`).
    Float,
    /// A nonzero integer literal (division by it cannot panic).
    NonZeroLit,
    /// The integer literal zero.
    ZeroLit,
    /// Unresolvable at the token level.
    Unknown,
}

/// How an index expression relates to enclosing `for`-range loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexClass {
    /// The index is exactly one active `for v in a..b` loop variable.
    LoopVar,
    /// Affine combination (`+`/`*`/`-`) of ints in which at least one
    /// ident is an active for-range loop variable: the flat-buffer
    /// `base + j` / `r * cols + c` idiom.
    AffineLoop,
    /// Anything else — needs an explicit audit.
    Other,
}

/// One body event.
#[derive(Debug)]
pub struct Event {
    /// 1-based source line.
    pub line: u32,
    /// Event payload.
    pub kind: EventKind,
}

/// Body event classification.
#[derive(Debug)]
pub enum EventKind {
    /// Path call `a::b::f(..)`; `path` holds the segments, `args` the
    /// token-index span of the argument list (exclusive of parens).
    Call {
        path: Vec<String>,
        args: (usize, usize),
    },
    /// Method call `.name(..)`.
    MethodCall { name: String, args: (usize, usize) },
    /// Macro invocation `name!(..)`.
    MacroUse { name: String },
    /// Index or slice expression `expr[..]`.
    Index {
        /// Loop-boundedness classification.
        class: IndexClass,
        /// True when the bracket contents contain a range (`a..b`).
        slice: bool,
        /// True when inside an `assert!`-family macro invocation.
        in_assert: bool,
        /// Count of `+`/`*`/`-` operators inside the brackets.
        arith_ops: u32,
    },
    /// `/`, `%`, `/=` or `%=` whose operands resolve to integers.
    IntDiv {
        /// The operator text.
        op: &'static str,
        /// Numeric class of the right-hand side.
        rhs: NumClass,
        /// True when inside an `assert!`-family macro.
        in_assert: bool,
    },
    /// A division whose operand types could not be resolved (counted,
    /// never flagged; documented approximation).
    UnknownDiv,
    /// `expr as Ty` cast between numeric types.
    Cast {
        /// Target type name (`u32`, `f64`, ...).
        to: String,
        /// Source class where resolvable.
        from: NumClass,
    },
    /// `let` of an offset-suggesting name (`idx`, `offset`, `stride`,
    /// ...) whose initializer contains unchecked `+`/`*`.
    OffsetArith {
        /// The binding name.
        name: String,
    },
}

const INT_TYPES: &[&str] = &[
    "usize", "u64", "u32", "u16", "u8", "isize", "i64", "i32", "i16", "i8",
];
const FLOAT_TYPES: &[&str] = &["f64", "f32"];
const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Parses a lexed file into items plus coverage accounting.
pub fn parse_file(lexed: &Lexed) -> ParsedFile {
    let mut p = Parser {
        t: &lexed.tokens,
        i: 0,
        unscanned_lets: Vec::new(),
    };
    let (items, mut coverage) = p.parse_items(lexed.tokens.len());
    coverage.unscanned_lets = p.unscanned_lets;
    ParsedFile { items, coverage }
}

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
    /// [`Coverage::unscanned_lets`], gathered fn body by fn body.
    unscanned_lets: Vec<u32>,
}

impl<'a> Parser<'a> {
    fn peek(&self, off: usize) -> Option<&'a Token> {
        self.t.get(self.i + off)
    }

    fn is_kw(&self, off: usize, kw: &str) -> bool {
        self.peek(off).is_some_and(|t| t.is_ident(kw))
    }

    fn is_punct(&self, off: usize, p: &str) -> bool {
        self.peek(off).is_some_and(|t| t.is_punct(p))
    }

    fn line(&self) -> u32 {
        self.peek(0).map_or(0, |t| t.line)
    }

    /// Parses items until `end` (token index, exclusive) or a stray `}`.
    fn parse_items(&mut self, end: usize) -> (Vec<Item>, Coverage) {
        let mut items = Vec::new();
        let mut coverage = Coverage::default();
        while self.i < end {
            if self.is_punct(0, "}") {
                break;
            }
            let start = self.i;
            let line = self.line();
            // Attributes (outer and inner).
            let mut cfg_test = false;
            let mut saw_inner_cfg_test = false;
            while self.i < end && self.is_punct(0, "#") {
                let inner = self.is_punct(1, "!");
                let open = self.i + if inner { 2 } else { 1 };
                if !self.t.get(open).is_some_and(|t| t.is_punct("[")) {
                    break;
                }
                let close = matching(self.t, open, "[", "]");
                let attr = &self.t[open + 1..close.min(self.t.len())];
                if attr_is_test(attr) {
                    if inner {
                        saw_inner_cfg_test = true;
                    } else {
                        cfg_test = true;
                    }
                }
                self.i = close + 1;
            }
            if saw_inner_cfg_test {
                // `#![cfg(test)]`: the whole enclosing scope is test-only.
                // Consume the rest as an opaque test region.
                self.i = end;
                items.push(Item {
                    line,
                    span: (start, end),
                    cfg_test: true,
                    vis: Visibility::Private,
                    kind: ItemKind::Unknown,
                });
                coverage.total += 1;
                coverage.parsed += 1;
                break;
            }
            if self.i >= end {
                break;
            }
            // Visibility.
            let mut vis = Visibility::Private;
            if self.is_kw(0, "pub") {
                vis = Visibility::Pub;
                self.i += 1;
                if self.is_punct(0, "(") {
                    vis = Visibility::Scoped;
                    self.i = matching(self.t, self.i, "(", ")") + 1;
                }
            }
            // Qualifiers before `fn`.
            let mut qual = 0usize;
            while self.is_kw(qual, "const") && self.is_kw(qual + 1, "fn")
                || self.is_kw(qual, "unsafe")
                || self.is_kw(qual, "async")
                || (self.is_kw(qual, "extern")
                    && self
                        .peek(qual + 1)
                        .is_some_and(|t| t.kind == TokenKind::Str))
            {
                qual += if self.is_kw(qual, "extern") { 2 } else { 1 };
            }
            coverage.total += 1;
            let kind = if self.is_kw(qual, "fn") {
                self.i += qual;
                self.parse_fn(vis, cfg_test).map(ItemKind::Fn)
            } else if self.is_kw(0, "use") {
                self.parse_use().map(ItemKind::Use)
            } else if self.is_kw(0, "impl") {
                let (def, cov) = self.parse_impl(cfg_test);
                coverage.total += cov.total;
                coverage.parsed += cov.parsed;
                coverage.failures.extend(cov.failures);
                def.map(ItemKind::Impl)
            } else if self.is_kw(0, "trait") || (self.is_kw(0, "auto") && self.is_kw(1, "trait")) {
                let (def, cov) = self.parse_trait(cfg_test);
                coverage.merge(&cov);
                def.map(ItemKind::Trait)
            } else if self.is_kw(0, "mod") {
                let (def, cov) = self.parse_mod(cfg_test, end);
                coverage.merge(&cov);
                def.map(ItemKind::Mod)
            } else if self.is_kw(0, "struct") || self.is_kw(0, "union") {
                self.parse_struct().map(ItemKind::Struct)
            } else if self.is_kw(0, "enum") {
                self.parse_enum().map(ItemKind::Enum)
            } else if self.is_kw(0, "const") || self.is_kw(0, "static") {
                let is_const = self.is_kw(0, "const");
                self.parse_terminated_named().map(|n| {
                    if is_const {
                        ItemKind::Const(n)
                    } else {
                        ItemKind::Static(n)
                    }
                })
            } else if self.is_kw(0, "type") {
                self.parse_terminated_named().map(ItemKind::TypeAlias)
            } else if self.is_kw(0, "extern") && self.is_kw(1, "crate") {
                self.i += 2;
                let name = self.take_ident().unwrap_or_default();
                self.skip_to_semi(end);
                Some(ItemKind::ExternCrate(name))
            } else if self.is_kw(0, "macro_rules") && self.is_punct(1, "!") {
                self.i += 2;
                let name = self.take_ident().unwrap_or_default();
                if self.is_punct(0, "{") {
                    self.i = matching(self.t, self.i, "{", "}") + 1;
                }
                Some(ItemKind::MacroDef(name))
            } else if self.peek(0).is_some_and(|t| t.kind == TokenKind::Ident)
                && self.is_punct(1, "!")
            {
                let name = self.take_ident().unwrap_or_default();
                self.i += 1;
                for (open, close) in [("{", "}"), ("(", ")"), ("[", "]")] {
                    if self.is_punct(0, open) {
                        self.i = matching(self.t, self.i, open, close) + 1;
                        break;
                    }
                }
                if self.is_punct(0, ";") {
                    self.i += 1;
                }
                Some(ItemKind::MacroCall(name))
            } else {
                None
            };
            match kind {
                Some(kind) => {
                    coverage.parsed += 1;
                    items.push(Item {
                        line,
                        span: (start, self.i),
                        cfg_test,
                        vis,
                        kind,
                    });
                }
                None => {
                    let snippet = self
                        .peek(0)
                        .map(|t| t.text.clone())
                        .unwrap_or_else(|| "<eof>".to_string());
                    coverage.failures.push((line, snippet));
                    self.recover(end);
                    items.push(Item {
                        line,
                        span: (start, self.i),
                        cfg_test,
                        vis,
                        kind: ItemKind::Unknown,
                    });
                }
            }
            if self.i == start {
                // Safety net: never loop without progress.
                self.i += 1;
            }
        }
        (items, coverage)
    }

    /// Error recovery: skip to the next `;` at depth 0 or past one
    /// balanced brace block, whichever comes first.
    fn recover(&mut self, end: usize) {
        let mut depth = 0usize;
        while self.i < end {
            let t = &self.t[self.i];
            if t.is_punct("{") {
                let close = matching(self.t, self.i, "{", "}");
                self.i = close + 1;
                return;
            }
            if t.is_punct(";") && depth == 0 {
                self.i += 1;
                return;
            }
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth = depth.saturating_sub(1);
            }
            self.i += 1;
        }
    }

    fn take_ident(&mut self) -> Option<String> {
        let t = self.peek(0)?;
        if t.kind == TokenKind::Ident {
            self.i += 1;
            Some(t.text.clone())
        } else {
            None
        }
    }

    /// Skips a generic parameter list starting at `<`.
    fn skip_angles(&mut self) {
        if !self.is_punct(0, "<") {
            return;
        }
        let mut depth = 0i32;
        while self.i < self.t.len() {
            let t = &self.t[self.i];
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
            } else if t.is_punct("<<") {
                depth += 2;
            } else if t.is_punct(">>") {
                depth -= 2;
            }
            self.i += 1;
            if depth <= 0 {
                return;
            }
        }
    }

    /// Collects raw type text until one of `stops` at bracket depth 0.
    fn type_text_until(&mut self, stops: &[&str]) -> String {
        let mut out = String::new();
        let mut angle = 0i32;
        let mut paren = 0i32;
        while self.i < self.t.len() {
            let t = &self.t[self.i];
            if angle <= 0 && paren <= 0 {
                if t.kind == TokenKind::Punct && stops.contains(&t.text.as_str()) {
                    break;
                }
                if t.kind == TokenKind::Ident && stops.contains(&t.text.as_str()) {
                    break;
                }
            }
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                _ => {}
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&t.text);
            self.i += 1;
        }
        out
    }

    fn skip_to_semi(&mut self, end: usize) {
        let mut depth = 0usize;
        while self.i < end {
            let t = &self.t[self.i];
            if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
                depth = depth.saturating_sub(1);
            } else if t.is_punct(";") && depth == 0 {
                self.i += 1;
                return;
            }
            self.i += 1;
        }
    }

    /// `const NAME: .. = ..;` / `static NAME: ..;` / `type NAME = ..;`
    fn parse_terminated_named(&mut self) -> Option<String> {
        self.i += 1; // keyword
        if self.is_kw(0, "mut") {
            self.i += 1;
        }
        let name = self.take_ident()?;
        self.skip_to_semi(self.t.len());
        Some(name)
    }

    fn parse_struct(&mut self) -> Option<String> {
        self.i += 1;
        let name = self.take_ident()?;
        self.skip_angles();
        // `where` clause, tuple body, unit `;`, or brace body.
        loop {
            if self.is_punct(0, ";") {
                self.i += 1;
                return Some(name);
            }
            if self.is_punct(0, "(") {
                self.i = matching(self.t, self.i, "(", ")") + 1;
                continue;
            }
            if self.is_punct(0, "{") {
                self.i = matching(self.t, self.i, "{", "}") + 1;
                return Some(name);
            }
            if self.i >= self.t.len() {
                return Some(name);
            }
            self.i += 1; // where-clause tokens
        }
    }

    fn parse_enum(&mut self) -> Option<String> {
        self.i += 1;
        let name = self.take_ident()?;
        self.skip_angles();
        while self.i < self.t.len() && !self.is_punct(0, "{") {
            self.i += 1;
        }
        if self.is_punct(0, "{") {
            self.i = matching(self.t, self.i, "{", "}") + 1;
        }
        Some(name)
    }

    fn parse_mod(&mut self, cfg_test: bool, end: usize) -> (Option<ModDef>, Coverage) {
        self.i += 1;
        let Some(name) = self.take_ident() else {
            return (None, Coverage::default());
        };
        if self.is_punct(0, ";") {
            self.i += 1;
            return (
                Some(ModDef {
                    name,
                    items: Vec::new(),
                }),
                Coverage::default(),
            );
        }
        if !self.is_punct(0, "{") {
            return (None, Coverage::default());
        }
        let close = matching(self.t, self.i, "{", "}");
        self.i += 1;
        let (items, coverage) = if cfg_test {
            // Test modules are opaque: no analysis, full coverage.
            self.i = close;
            (Vec::new(), Coverage::default())
        } else {
            self.parse_items(close.min(end))
        };
        self.i = close + 1;
        (Some(ModDef { name, items }), coverage)
    }

    fn parse_use(&mut self) -> Option<Vec<UseBinding>> {
        self.i += 1; // use
        let mut bindings = Vec::new();
        self.parse_use_tree(&mut Vec::new(), &mut bindings)?;
        if self.is_punct(0, ";") {
            self.i += 1;
        }
        Some(bindings)
    }

    fn parse_use_tree(
        &mut self,
        prefix: &mut Vec<String>,
        out: &mut Vec<UseBinding>,
    ) -> Option<()> {
        let depth_at_entry = prefix.len();
        loop {
            if self.is_punct(0, "{") {
                self.i += 1;
                loop {
                    if self.is_punct(0, "}") {
                        self.i += 1;
                        break;
                    }
                    self.parse_use_tree(prefix, out)?;
                    if self.is_punct(0, ",") {
                        self.i += 1;
                        continue;
                    }
                    if self.is_punct(0, "}") {
                        self.i += 1;
                        break;
                    }
                    if self.i >= self.t.len() {
                        return None;
                    }
                }
                prefix.truncate(depth_at_entry);
                return Some(());
            }
            if self.is_punct(0, "*") {
                self.i += 1;
                out.push(UseBinding {
                    path: prefix.clone(),
                    alias: "*".to_string(),
                    wildcard: true,
                    line: self.t.get(self.i.saturating_sub(1)).map_or(0, |t| t.line),
                });
                prefix.truncate(depth_at_entry);
                return Some(());
            }
            let line = self.line();
            let seg = self.take_ident()?;
            if self.is_punct(0, "::") {
                prefix.push(seg);
                self.i += 1;
                continue;
            }
            // Leaf, optionally aliased.
            let mut alias = seg.clone();
            if self.is_kw(0, "as") {
                self.i += 1;
                alias = self.take_ident()?;
            }
            let mut path = prefix.clone();
            path.push(seg);
            out.push(UseBinding {
                path,
                alias,
                wildcard: false,
                line,
            });
            prefix.truncate(depth_at_entry);
            return Some(());
        }
    }

    fn parse_trait(&mut self, cfg_test: bool) -> (Option<TraitDef>, Coverage) {
        if self.is_kw(0, "auto") {
            self.i += 1;
        }
        self.i += 1; // trait
        let Some(name) = self.take_ident() else {
            return (None, Coverage::default());
        };
        self.skip_angles();
        while self.i < self.t.len() && !self.is_punct(0, "{") && !self.is_punct(0, ";") {
            self.i += 1; // bounds / where clause
        }
        if self.is_punct(0, ";") {
            self.i += 1;
            return (
                Some(TraitDef {
                    name,
                    fns: Vec::new(),
                }),
                Coverage::default(),
            );
        }
        let close = matching(self.t, self.i, "{", "}");
        self.i += 1;
        let (fns, coverage) = self.parse_assoc_fns(close, cfg_test);
        self.i = close + 1;
        (Some(TraitDef { name, fns }), coverage)
    }

    fn parse_impl(&mut self, cfg_test: bool) -> (Option<ImplDef>, Coverage) {
        self.i += 1; // impl
        self.skip_angles();
        let first = self.type_text_until(&["for", "where", "{"]);
        let mut trait_name = None;
        let mut ty = first.clone();
        if self.is_kw(0, "for") {
            self.i += 1;
            trait_name = Some(simple_type_name(&first));
            ty = self.type_text_until(&["where", "{"]);
        }
        while self.i < self.t.len() && !self.is_punct(0, "{") {
            self.i += 1; // where clause
        }
        if !self.is_punct(0, "{") {
            return (None, Coverage::default());
        }
        let close = matching(self.t, self.i, "{", "}");
        self.i += 1;
        let (fns, coverage) = self.parse_assoc_fns(close, cfg_test);
        self.i = close + 1;
        (
            Some(ImplDef {
                ty: simple_type_name(&ty),
                trait_name,
                fns,
            }),
            coverage,
        )
    }

    /// Parses the associated items of an impl/trait body up to `end`,
    /// returning the fns (other assoc items are parsed and skipped).
    fn parse_assoc_fns(&mut self, end: usize, outer_cfg_test: bool) -> (Vec<FnDef>, Coverage) {
        let mut fns = Vec::new();
        let mut coverage = Coverage::default();
        while self.i < end {
            if self.is_punct(0, "}") {
                break;
            }
            let line = self.line();
            let mut cfg_test = outer_cfg_test;
            while self.is_punct(0, "#") && self.is_punct(1, "[") {
                let close = matching(self.t, self.i + 1, "[", "]");
                if attr_is_test(&self.t[self.i + 2..close.min(self.t.len())]) {
                    cfg_test = true;
                }
                self.i = close + 1;
            }
            let mut vis = Visibility::Private;
            if self.is_kw(0, "pub") {
                vis = Visibility::Pub;
                self.i += 1;
                if self.is_punct(0, "(") {
                    vis = Visibility::Scoped;
                    self.i = matching(self.t, self.i, "(", ")") + 1;
                }
            }
            let mut qual = 0usize;
            while self.is_kw(qual, "const") && self.is_kw(qual + 1, "fn")
                || self.is_kw(qual, "unsafe")
                || self.is_kw(qual, "async")
                || self.is_kw(qual, "default")
            {
                qual += 1;
            }
            if self.is_kw(qual, "fn") {
                self.i += qual;
                coverage.total += 1;
                match self.parse_fn(vis, cfg_test) {
                    Some(f) => {
                        coverage.parsed += 1;
                        fns.push(f);
                    }
                    None => {
                        coverage.failures.push((line, "fn".to_string()));
                        self.recover(end);
                    }
                }
            } else if self.is_kw(0, "const") || self.is_kw(0, "type") {
                coverage.total += 1;
                if self.parse_terminated_named().is_some() {
                    coverage.parsed += 1;
                } else {
                    coverage.failures.push((line, "assoc-item".to_string()));
                    self.recover(end);
                }
            } else {
                coverage.total += 1;
                coverage.failures.push((
                    line,
                    self.peek(0).map_or_else(String::new, |t| t.text.clone()),
                ));
                self.recover(end);
            }
        }
        (fns, coverage)
    }

    /// Parses one fn starting at the `fn` keyword.
    fn parse_fn(&mut self, vis: Visibility, cfg_test: bool) -> Option<FnDef> {
        let line = self.line();
        self.i += 1; // fn
        let name = self.take_ident()?;
        self.skip_angles();
        if !self.is_punct(0, "(") {
            return None;
        }
        let close = matching(self.t, self.i, "(", ")");
        let (params, has_self) = parse_params(&self.t[self.i + 1..close.min(self.t.len())]);
        self.i = close + 1;
        let mut ret = String::new();
        if self.is_punct(0, "->") {
            self.i += 1;
            ret = self.type_text_until(&["where", "{", ";"]);
        }
        if self.is_kw(0, "where") {
            while self.i < self.t.len() && !self.is_punct(0, "{") && !self.is_punct(0, ";") {
                self.i += 1;
            }
        }
        let body = if self.is_punct(0, "{") {
            let body_close = matching(self.t, self.i, "{", "}");
            let span = (self.i + 1, body_close.min(self.t.len()));
            let (events, unscanned) = scan_body(self.t, span.0, span.1, &params);
            self.unscanned_lets.extend(unscanned);
            self.i = body_close + 1;
            Some(Body { events, span })
        } else {
            if self.is_punct(0, ";") {
                self.i += 1;
            }
            None
        };
        Some(FnDef {
            name,
            vis,
            line,
            params,
            has_self,
            ret,
            body,
            cfg_test,
        })
    }
}

/// Splits a parameter list at top-level commas into named params.
fn parse_params(tokens: &[Token]) -> (Vec<Param>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut groups: Vec<(usize, usize)> = Vec::new();
    for (idx, t) in tokens.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "<<" => depth += 2,
            ">>" => depth -= 2,
            "," if depth <= 0 => {
                groups.push((start, idx));
                start = idx + 1;
            }
            _ => {}
        }
    }
    if start < tokens.len() {
        groups.push((start, tokens.len()));
    }
    for (s, e) in groups {
        let group = &tokens[s..e];
        if group.is_empty() {
            continue;
        }
        // `self` receiver in any of its forms.
        let colon = top_level_colon(group);
        if colon.is_none() && group.iter().any(|t| t.is_ident("self")) {
            has_self = true;
            continue;
        }
        let Some(colon) = colon else { continue };
        let name = group[..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokenKind::Ident && !t.is_ident("mut") && !t.is_ident("ref"))
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let ty = group[colon + 1..]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        params.push(Param { name, ty });
    }
    (params, has_self)
}

/// Position of the first `:` at bracket depth 0 (skipping `::`).
fn top_level_colon(tokens: &[Token]) -> Option<usize> {
    let mut depth = 0i32;
    for (idx, t) in tokens.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            ":" if depth <= 0 => return Some(idx),
            _ => {}
        }
    }
    None
}

/// Last path-segment ident of a rendered type (`std :: fmt :: Debug` ->
/// `Debug`, `Box < dyn Forecaster >` -> `Box`).
fn simple_type_name(text: &str) -> String {
    let head = text.split('<').next().unwrap_or(text);
    head.split_whitespace()
        .filter(|s| {
            s.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
        })
        .rfind(|s| !matches!(*s, "dyn" | "impl" | "mut" | "ref"))
        .unwrap_or("")
        .to_string()
}

/// Whether an attribute's tokens mark the item as test-only (the parser
/// and the token tier's test-region stripping share it): `#[test]`,
/// `#[bench]`, `#[cfg(test)]` and variants, the attribute path resolved
/// to its last segment (`tokio::test` -> `test`); `cfg(not(test))` and
/// `#[cfg_attr(..)]` are *kept* (a `cfg_attr`-gated item exists in
/// non-test builds too).
pub(crate) fn attr_is_test(attr: &[Token]) -> bool {
    let Some(first) = attr.first() else {
        return false;
    };
    if first.kind != TokenKind::Ident {
        return false;
    }
    let mut name = first.text.as_str();
    let mut i = 1;
    while attr.get(i).is_some_and(|t| t.is_punct("::"))
        && attr.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
    {
        name = attr[i + 1].text.as_str();
        i += 2;
    }
    match name {
        "test" | "bench" => true,
        "cfg" => {
            if attr.iter().any(|t| t.is_ident("not")) {
                return false;
            }
            attr.iter()
                .any(|t| t.is_ident("test") || t.is_ident("bench") || t.is_ident("doctest"))
        }
        _ => false,
    }
}

/// Index of the closing delimiter matching the opener at `open`
/// (`tokens.len()` when it is unbalanced).
pub(crate) fn matching(tokens: &[Token], open: usize, op: &str, cl: &str) -> usize {
    let mut depth = 0usize;
    for (idx, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(op) {
            depth += 1;
        } else if t.is_punct(cl) {
            depth -= 1;
            if depth == 0 {
                return idx;
            }
        }
    }
    tokens.len()
}

// ---------------------------------------------------------------------
// Body event extraction
// ---------------------------------------------------------------------

/// An active `for v in a..b` loop, valid until token index `end`.
struct ActiveLoop {
    var: String,
    end: usize,
}

/// Extracts the pass-relevant events from a fn body token range, and the
/// lines of the `let`s [`scan_let`] could not bound (each skipped, so the
/// walk goes on through the rest of the body).
fn scan_body(
    tokens: &[Token],
    start: usize,
    end: usize,
    params: &[Param],
) -> (Vec<Event>, Vec<u32>) {
    let mut events = Vec::new();
    let mut unscanned = Vec::new();
    let mut loops: Vec<ActiveLoop> = Vec::new();
    let mut assert_regions: Vec<usize> = Vec::new(); // end indices
    let mut types: std::collections::BTreeMap<String, NumClass> = std::collections::BTreeMap::new();
    for p in params {
        types.insert(p.name.clone(), classify_type(&p.ty));
    }

    let mut i = start;
    while i < end {
        loops.retain(|l| l.end > i);
        assert_regions.retain(|&e| e > i);
        let in_assert = !assert_regions.is_empty();
        let t = &tokens[i];

        if t.kind == TokenKind::Ident {
            let next = tokens.get(i + 1);
            match t.text.as_str() {
                "let" => {
                    let scanned = scan_let(tokens, i, end, &types);
                    if scanned.is_err() {
                        unscanned.push(t.line);
                    }
                    if let Ok(Some((name, class, adv, offset_arith))) = scanned {
                        if offset_arith {
                            events.push(Event {
                                line: t.line,
                                kind: EventKind::OffsetArith { name: name.clone() },
                            });
                        }
                        types.insert(name, class);
                        i += adv;
                        continue;
                    }
                }
                "for" => {
                    if let Some(l) = scan_for(tokens, i, end) {
                        loops.push(l);
                    }
                }
                "while" => {
                    loops.extend(scan_while(tokens, i, end));
                }
                "fn" => {
                    // Nested fn: skip the name so it is not seen as a call.
                    i += 2;
                    continue;
                }
                "as" => {
                    let to = tokens
                        .get(i + 1)
                        .filter(|n| n.kind == TokenKind::Ident)
                        .map(|n| n.text.clone());
                    if let Some(to) = to {
                        if INT_TYPES.contains(&to.as_str()) || FLOAT_TYPES.contains(&to.as_str()) {
                            let from = classify_primary_back(tokens, start, i, &types);
                            events.push(Event {
                                line: t.line,
                                kind: EventKind::Cast { to, from },
                            });
                        }
                    }
                }
                _ => {}
            }
            // Macro invocation.
            if next.is_some_and(|n| n.is_punct("!")) {
                let delim = tokens.get(i + 2);
                let is_invoke =
                    delim.is_some_and(|d| d.is_punct("(") || d.is_punct("[") || d.is_punct("{"));
                if is_invoke {
                    events.push(Event {
                        line: t.line,
                        kind: EventKind::MacroUse {
                            name: t.text.clone(),
                        },
                    });
                    if ASSERT_MACROS.contains(&t.text.as_str()) {
                        let (op, cl) = match tokens[i + 2].text.as_str() {
                            "(" => ("(", ")"),
                            "[" => ("[", "]"),
                            _ => ("{", "}"),
                        };
                        assert_regions.push(matching(tokens, i + 2, op, cl));
                    }
                    i += 2;
                    continue;
                }
            }
            // Call / method call (with optional turbofish).
            let prev = i.checked_sub(1).map(|p| &tokens[p]);
            let is_method = prev.is_some_and(|p| p.is_punct("."));
            let mut call_open = None;
            if next.is_some_and(|n| n.is_punct("(")) {
                call_open = Some(i + 1);
            } else if next.is_some_and(|n| n.is_punct("::"))
                && tokens.get(i + 2).is_some_and(|n| n.is_punct("<"))
            {
                // Turbofish: `ident::<..>(`.
                let close = matching_angle(tokens, i + 2);
                if tokens.get(close + 1).is_some_and(|n| n.is_punct("(")) {
                    call_open = Some(close + 1);
                }
            }
            if let Some(open) = call_open {
                if !prev.is_some_and(|p| p.is_ident("fn")) {
                    let close = matching(tokens, open, "(", ")");
                    let args = (open + 1, close.min(end));
                    if is_method {
                        events.push(Event {
                            line: t.line,
                            kind: EventKind::MethodCall {
                                name: t.text.clone(),
                                args,
                            },
                        });
                    } else {
                        let path = collect_path_back(tokens, start, i);
                        events.push(Event {
                            line: t.line,
                            kind: EventKind::Call { path, args },
                        });
                    }
                }
            }
            i += 1;
            continue;
        }

        // Index / slice expression.
        if t.is_punct("[") {
            let prev = i.checked_sub(1).map(|p| &tokens[p]);
            let indexish = prev.is_some_and(|p| {
                (p.kind == TokenKind::Ident
                    && !p.is_ident("mut")
                    && !p.is_ident("return")
                    && !p.is_ident("in")
                    && !is_keywordish(&p.text))
                    || p.is_punct(")")
                    || p.is_punct("]")
                    || p.is_punct("?")
            });
            if indexish {
                let close = matching(tokens, i, "[", "]");
                let inner = &tokens[i + 1..close.min(end)];
                let (class, slice, arith_ops) = classify_index(inner, &loops, &types);
                events.push(Event {
                    line: t.line,
                    kind: EventKind::Index {
                        class,
                        slice,
                        in_assert,
                        arith_ops,
                    },
                });
            }
            i += 1;
            continue;
        }

        // Integer division / remainder.
        if t.is_punct("/") || t.is_punct("%") || t.is_punct("/=") || t.is_punct("%=") {
            let prev_ok = i.checked_sub(1).map(|p| &tokens[p]).is_some_and(|p| {
                p.kind == TokenKind::Ident
                    || p.kind == TokenKind::Int
                    || p.kind == TokenKind::Float
                    || p.is_punct(")")
                    || p.is_punct("]")
            });
            if prev_ok {
                let rhs = classify_primary_fwd(tokens, i + 1, end, &types);
                let lhs = classify_primary_back(tokens, start, i, &types);
                let op: &'static str = match t.text.as_str() {
                    "/" => "/",
                    "%" => "%",
                    "/=" => "/=",
                    _ => "%=",
                };
                let float = rhs == NumClass::Float || lhs == NumClass::Float;
                let safe_lit = rhs == NumClass::NonZeroLit;
                if !float && !safe_lit {
                    if rhs == NumClass::Unknown && lhs == NumClass::Unknown {
                        events.push(Event {
                            line: t.line,
                            kind: EventKind::UnknownDiv,
                        });
                    } else {
                        events.push(Event {
                            line: t.line,
                            kind: EventKind::IntDiv { op, rhs, in_assert },
                        });
                    }
                }
            }
            i += 1;
            continue;
        }

        i += 1;
    }
    (events, unscanned)
}

fn is_keywordish(text: &str) -> bool {
    matches!(
        text,
        "if" | "else" | "match" | "while" | "loop" | "break" | "continue" | "move" | "as" | "let"
    )
}

/// `let [mut] NAME [: TY] = ...;` — returns (name, class, tokens
/// consumed up to and including `=` or `;`, init-has-offset-arith), or
/// `None` for a pattern binding.
///
/// # Errors
///
/// `Err(())` when the type or the initializer runs to `end` without
/// reaching its `=` or `;` at depth 0: the bracket count has lost its
/// place, and consuming that far would hide the rest of the body.
fn scan_let(
    tokens: &[Token],
    i: usize,
    end: usize,
    types: &std::collections::BTreeMap<String, NumClass>,
) -> Result<Option<(String, NumClass, usize, bool)>, ()> {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let Some(name_tok) = tokens.get(j) else {
        return Ok(None);
    };
    if name_tok.kind != TokenKind::Ident {
        return Ok(None); // pattern binding; leave to the generic walk
    }
    let name = name_tok.text.clone();
    j += 1;
    let mut class = NumClass::Unknown;
    if tokens.get(j).is_some_and(|t| t.is_punct(":")) {
        let ty_start = j + 1;
        let mut depth = 0i32;
        let mut k = ty_start;
        while k < end {
            let t = &tokens[k];
            match t.text.as_str() {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => depth -= 1,
                // `Option<Vec<usize>>` closes two angles with one token.
                "<<" => depth += 2,
                ">>" => depth -= 2,
                "=" | ";" if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        if k >= end {
            return Err(());
        }
        let ty: Vec<&str> = tokens[ty_start..k]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        class = classify_type(&ty.join(" "));
        j = k;
    }
    let mut offset_arith = false;
    if tokens.get(j).is_some_and(|t| t.is_punct("=")) {
        // Inspect the initializer up to the statement `;` at depth 0.
        let init_start = j + 1;
        let mut depth = 0i32;
        let mut k = init_start;
        while k < end {
            let t = &tokens[k];
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        if k >= end {
            return Err(());
        }
        let init = &tokens[init_start..k];
        if class == NumClass::Unknown {
            class = classify_init(init, types);
        }
        let name_lower = name.to_lowercase();
        let offsetish = ["idx", "index", "offset", "off", "base", "stride", "pos"]
            .iter()
            .any(|p| name_lower == *p || name_lower.ends_with(&format!("_{p}")))
            || name_lower.starts_with("base_")
            || name_lower.starts_with("off_");
        // `*`/`+` must be in binary position (after a value token) —
        // a leading `*` is a deref and a leading `+` cannot occur, so
        // `let index = &*index;` is not offset arithmetic.
        let binary_op = |k: usize| {
            k > 0
                && (init[k - 1].kind == TokenKind::Ident
                    || init[k - 1].kind == TokenKind::Int
                    || init[k - 1].is_punct(")")
                    || init[k - 1].is_punct("]"))
        };
        if offsetish
            && init
                .iter()
                .enumerate()
                .any(|(k, t)| (t.is_punct("*") || t.is_punct("+")) && binary_op(k))
            && !init.iter().any(|t| {
                t.kind == TokenKind::Ident
                    && (t.text.starts_with("checked_")
                        || t.text.starts_with("wrapping_")
                        || t.text.starts_with("saturating_"))
            })
        {
            offset_arith = true;
        }
        return Ok(Some((name, class, j + 1 - i, offset_arith)));
    }
    Ok(Some((name, class, j - i, false)))
}

/// Detects `for IDENT in <range-expr> {`, returning the loop binding
/// scoped to the body's closing brace. Only plain-range loops qualify —
/// iterator loops do not bound an index variable.
fn scan_for(tokens: &[Token], i: usize, end: usize) -> Option<ActiveLoop> {
    // `for i in ..` or `for (i, x) in xs.iter().enumerate()` — the
    // tuple's first ident is the index binding.
    let mut after_pat = i + 2;
    let var = match tokens.get(i + 1)? {
        t if t.kind == TokenKind::Ident => t.text.clone(),
        t if t.is_punct("(") => {
            let close = matching(tokens, i + 1, "(", ")");
            after_pat = close + 1;
            tokens[i + 2..close]
                .iter()
                .find(|t| t.kind == TokenKind::Ident && !t.is_ident("mut") && !t.is_ident("ref"))?
                .text
                .clone()
        }
        _ => return None,
    };
    if !tokens.get(after_pat).is_some_and(|t| t.is_ident("in")) {
        return None;
    }
    let mut depth = 0i32;
    let mut bounded = false;
    let mut k = after_pat + 1;
    while k < end {
        let t = &tokens[k];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ".." | "..=" if depth <= 0 => bounded = true,
            // `.enumerate()` binds the first tuple ident to valid indices
            // of the iterated collection.
            "enumerate" if depth <= 0 => bounded = true,
            "{" if depth <= 0 => break,
            _ => {}
        }
        k += 1;
    }
    if k >= end || !bounded {
        return None;
    }
    let body_end = matching(tokens, k, "{", "}");
    Some(ActiveLoop { var, end: body_end })
}

/// `while <cond> {` — every identifier taking part in a `<`/`<=`
/// comparison in the condition is treated as a bounded loop variable for
/// the body (`while r + BLOCK <= rows { a[r * cols] .. }`). The bound is
/// maintained by the loop's own step; the runtime backstop is the
/// debug_assert contracts plus the overflow-checked CI job.
fn scan_while(tokens: &[Token], i: usize, end: usize) -> Vec<ActiveLoop> {
    let mut depth = 0i32;
    let mut k = i + 1;
    let mut vars: Vec<String> = Vec::new();
    while k < end {
        let t = &tokens[k];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "<" | "<=" if depth <= 0 => {
                // Walk back over the left operand collecting its idents.
                let mut b = k;
                while b > i + 1 {
                    let p = &tokens[b - 1];
                    let simple = p.kind == TokenKind::Ident
                        || p.kind == TokenKind::Int
                        || p.is_punct("+")
                        || p.is_punct("-")
                        || p.is_punct("*")
                        || p.is_punct(".")
                        || p.is_punct("(")
                        || p.is_punct(")");
                    if !simple {
                        break;
                    }
                    if p.kind == TokenKind::Ident && !is_keywordish(&p.text) {
                        vars.push(p.text.clone());
                    }
                    b -= 1;
                }
            }
            "{" if depth <= 0 => break,
            ";" => return Vec::new(),
            _ => {}
        }
        k += 1;
    }
    if k >= end || vars.is_empty() {
        return Vec::new();
    }
    let body_end = matching(tokens, k, "{", "}");
    vars.sort_unstable();
    vars.dedup();
    vars.into_iter()
        .map(|var| ActiveLoop { var, end: body_end })
        .collect()
}

/// Classifies a rendered type string numerically.
fn classify_type(ty: &str) -> NumClass {
    let base = ty
        .split_whitespace()
        .find(|s| !matches!(*s, "&" | "mut" | "ref" | "'" | "'_"))
        .unwrap_or("");
    if INT_TYPES.contains(&base) {
        NumClass::Int
    } else if FLOAT_TYPES.contains(&base) {
        NumClass::Float
    } else {
        NumClass::Unknown
    }
}

/// Classifies a `let` initializer by its leading literal / known pattern.
fn classify_init(init: &[Token], types: &std::collections::BTreeMap<String, NumClass>) -> NumClass {
    let Some(first) = init.first() else {
        return NumClass::Unknown;
    };
    match first.kind {
        TokenKind::Float => NumClass::Float,
        TokenKind::Int => NumClass::Int,
        TokenKind::Ident => {
            // `v.len()` or a known-typed local, as long as no float math
            // follows. `x as f64` style init resolves through the cast.
            if init.iter().any(|t| t.is_ident("f64") || t.is_ident("f32")) {
                return NumClass::Float;
            }
            if init
                .iter()
                .any(|t| t.is_ident("len") || t.is_ident("count") || t.is_ident("capacity"))
            {
                return NumClass::Int;
            }
            if init.len() == 1 {
                return types.get(&first.text).copied().unwrap_or(NumClass::Unknown);
            }
            NumClass::Unknown
        }
        _ => NumClass::Unknown,
    }
}

/// Classifies the primary expression starting at `i` (forward): literal,
/// `ident`, `ident.len()`-style chain, or `expr as f64` cast.
fn classify_primary_fwd(
    tokens: &[Token],
    i: usize,
    end: usize,
    types: &std::collections::BTreeMap<String, NumClass>,
) -> NumClass {
    let Some(t) = tokens.get(i).filter(|_| i < end) else {
        return NumClass::Unknown;
    };
    match t.kind {
        TokenKind::Float => NumClass::Float,
        TokenKind::Int => {
            let digits: String = t
                .text
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if digits.trim_start_matches('0').is_empty()
                && !digits.contains(|c: char| c.is_ascii_hexdigit() && !c.is_ascii_digit())
            {
                NumClass::ZeroLit
            } else {
                NumClass::NonZeroLit
            }
        }
        TokenKind::Ident => {
            // Walk the chain: path / field / call segments.
            let mut k = i;
            let mut last_ident = t.text.clone();
            let mut last_is_call = false;
            while k < end {
                let cur = &tokens[k];
                if cur.kind == TokenKind::Ident {
                    last_ident = cur.text.clone();
                    last_is_call = tokens.get(k + 1).is_some_and(|n| n.is_punct("("));
                    k += 1;
                    continue;
                }
                if cur.is_punct(".") || cur.is_punct("::") {
                    k += 1;
                    continue;
                }
                if cur.is_punct("(") {
                    k = matching(tokens, k, "(", ")") + 1;
                    continue;
                }
                if cur.is_punct("[") {
                    k = matching(tokens, k, "[", "]") + 1;
                    continue;
                }
                break;
            }
            // Trailing cast decides the type outright.
            if tokens.get(k).is_some_and(|t| t.is_ident("as")) {
                if let Some(ty) = tokens.get(k + 1) {
                    return classify_type(&ty.text);
                }
            }
            // `.len()`-style calls only — a *local* named `count` is
            // whatever its binding says, not an integer by name.
            if last_is_call && matches!(last_ident.as_str(), "len" | "count" | "capacity") {
                return NumClass::Int;
            }
            if k == i + 1 {
                return types.get(&t.text).copied().unwrap_or(NumClass::Unknown);
            }
            NumClass::Unknown
        }
        _ => NumClass::Unknown,
    }
}

/// Classifies the primary expression ending just before `i` (backward).
fn classify_primary_back(
    tokens: &[Token],
    start: usize,
    i: usize,
    types: &std::collections::BTreeMap<String, NumClass>,
) -> NumClass {
    let Some(p) = i.checked_sub(1).filter(|&p| p >= start) else {
        return NumClass::Unknown;
    };
    let t = &tokens[p];
    match t.kind {
        TokenKind::Float => NumClass::Float,
        TokenKind::Int => NumClass::Int,
        TokenKind::Ident => {
            if matches!(t.text.as_str(), "len" | "count" | "capacity") {
                return NumClass::Int;
            }
            let simple = p == start || {
                let before = &tokens[p - 1];
                !(before.is_punct(".") || before.is_punct("::"))
            };
            if simple {
                types.get(&t.text).copied().unwrap_or(NumClass::Unknown)
            } else {
                NumClass::Unknown
            }
        }
        TokenKind::Punct if t.is_punct(")") => {
            // `v.len()` chain: look for the ident before the call parens.
            let open = (start..p)
                .rev()
                .find(|&k| tokens[k].is_punct("(") && matching(tokens, k, "(", ")") == p);
            if let Some(open) = open {
                if open > start {
                    let callee = &tokens[open - 1];
                    if matches!(callee.text.as_str(), "len" | "count" | "capacity") {
                        return NumClass::Int;
                    }
                }
            }
            NumClass::Unknown
        }
        _ => NumClass::Unknown,
    }
}

/// Classifies an index expression's bracket contents.
fn classify_index(
    inner: &[Token],
    loops: &[ActiveLoop],
    types: &std::collections::BTreeMap<String, NumClass>,
) -> (IndexClass, bool, u32) {
    let slice = inner.iter().any(|t| t.is_punct("..") || t.is_punct("..="));
    let arith_ops = inner
        .iter()
        .filter(|t| t.is_punct("+") || t.is_punct("*") || t.is_punct("-"))
        .count() as u32;
    let is_loop_var = |name: &str| loops.iter().any(|l| l.var == name);
    if inner.len() == 1 && inner[0].kind == TokenKind::Ident && is_loop_var(&inner[0].text) {
        return (IndexClass::LoopVar, slice, arith_ops);
    }
    // Affine: idents, ints, and `+ * - % . :: ( )` only, anchored either
    // by an active loop variable or by a top-level `%` (a remainder is
    // bounded by its divisor; the divisor's zero-risk is reported as its
    // own IntDiv site). Slice bounds (`a..b`) are checked with the same
    // token set — `buf[r * cols..(r + 1) * cols]` with `r` active is the
    // flat-buffer idiom this class exists for.
    let mut has_loop_var = false;
    let mut has_mod = false;
    let mut affine = !inner.is_empty();
    for t in inner {
        match t.kind {
            TokenKind::Ident => {
                if is_loop_var(&t.text) {
                    has_loop_var = true;
                } else if types.get(&t.text) == Some(&NumClass::Float) {
                    affine = false;
                }
                // Other idents (field names, consts, locals) are
                // tolerated as long as an anchor is present.
            }
            TokenKind::Int => {}
            TokenKind::Punct if t.is_punct("%") => has_mod = true,
            TokenKind::Punct
                if matches!(
                    t.text.as_str(),
                    "+" | "*" | "-" | "." | "::" | "(" | ")" | ".." | "..="
                ) => {}
            _ => affine = false,
        }
    }
    if affine && (has_loop_var || has_mod) {
        (IndexClass::AffineLoop, slice, arith_ops)
    } else {
        (IndexClass::Other, slice, arith_ops)
    }
}

/// Collects the `::`-separated path ending at the ident at `i`.
fn collect_path_back(tokens: &[Token], start: usize, i: usize) -> Vec<String> {
    let mut segs = vec![tokens[i].text.clone()];
    let mut k = i;
    while k >= start + 2 && tokens[k - 1].is_punct("::") && tokens[k - 2].kind == TokenKind::Ident {
        segs.push(tokens[k - 2].text.clone());
        k -= 2;
    }
    segs.reverse();
    segs
}

/// Index of the `>` matching the `<` at `open` (angle-depth aware).
fn matching_angle(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (idx, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct(">>") {
            depth -= 2;
        } else if t.is_punct("<<") {
            depth += 2;
        }
        if depth <= 0 {
            return idx;
        }
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&lex(src))
    }

    fn fns(pf: &ParsedFile) -> Vec<&FnDef> {
        let mut out = Vec::new();
        fn walk<'a>(items: &'a [Item], out: &mut Vec<&'a FnDef>) {
            for item in items {
                match &item.kind {
                    ItemKind::Fn(f) => out.push(f),
                    ItemKind::Impl(im) => out.extend(im.fns.iter()),
                    ItemKind::Trait(tr) => out.extend(tr.fns.iter()),
                    ItemKind::Mod(m) => walk(&m.items, out),
                    _ => {}
                }
            }
        }
        walk(&pf.items, &mut out);
        out
    }

    #[test]
    fn parses_free_fn_with_params_and_ret() {
        let pf = parse("pub fn f(a: usize, b: &[f64]) -> Result<f64, Error> { a as f64 }");
        assert_eq!(pf.coverage.total, 1);
        assert_eq!(pf.coverage.parsed, 1);
        let f = &fns(&pf)[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.vis, Visibility::Pub);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "a");
        assert!(f.ret.contains("Result"));
    }

    #[test]
    fn item_position_macro_calls_are_opaque_items() {
        let src = "proptest! { #[test] fn p(x in 0..3) { body(x); } }\n\
                   thread_local!(static N: u8 = 0);\n\
                   fn after() {}";
        let pf = parse(src);
        assert_eq!(pf.coverage.failures, vec![]);
        assert_eq!(pf.coverage.total, 3);
        let calls: Vec<&str> = pf
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::MacroCall(name) => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(calls, ["proptest", "thread_local"]);
        assert_eq!(fns(&pf).len(), 1, "only `after` is a visible fn");
    }

    #[test]
    fn parses_impl_blocks_inherent_and_trait() {
        let src = "impl Matrix { pub fn get(&self) -> f64 { 0.0 } }\n\
                   impl std::fmt::Debug for Matrix { fn fmt(&self) {} }";
        let pf = parse(src);
        assert_eq!(pf.coverage.failures, vec![]);
        let impls: Vec<_> = pf
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Impl(im) => Some(im),
                _ => None,
            })
            .collect();
        assert_eq!(impls.len(), 2);
        assert_eq!(impls[0].ty, "Matrix");
        assert!(impls[0].trait_name.is_none());
        assert_eq!(impls[1].trait_name.as_deref(), Some("Debug"));
        assert!(impls[0].fns[0].has_self);
    }

    #[test]
    fn parses_generic_fns_and_where_clauses() {
        let src = "pub fn mix<R: Rng + ?Sized, T>(rng: &mut R, xs: Vec<Vec<T>>) -> T \
                   where T: Clone { xs[0][0].clone() }";
        let pf = parse(src);
        assert_eq!(pf.coverage.failures, vec![]);
        let f = &fns(&pf)[0];
        assert_eq!(f.name, "mix");
        assert_eq!(f.params.len(), 2);
    }

    #[test]
    fn parses_use_trees_with_aliases_and_groups() {
        let src = "use std::collections::{BTreeMap, HashMap as Map};\nuse crate::kernels::*;";
        let pf = parse(src);
        let mut bindings = Vec::new();
        for item in &pf.items {
            if let ItemKind::Use(b) = &item.kind {
                bindings.extend(b.iter().cloned());
            }
        }
        assert_eq!(bindings.len(), 3);
        assert_eq!(bindings[0].alias, "BTreeMap");
        assert_eq!(bindings[1].alias, "Map");
        assert_eq!(bindings[1].path, vec!["std", "collections", "HashMap"]);
        assert!(bindings[2].wildcard);
    }

    #[test]
    fn parses_trait_with_default_method() {
        let src = "pub trait Forecaster: Send { fn fit(&mut self, xs: &[f64]); \
                   fn name(&self) -> String { String::new() } }";
        let pf = parse(src);
        assert_eq!(pf.coverage.failures, vec![]);
        let tr = match &pf.items[0].kind {
            ItemKind::Trait(t) => t,
            other => panic!("expected trait, got {other:?}"),
        };
        assert_eq!(tr.fns.len(), 2);
        assert!(tr.fns[0].body.is_none());
        assert!(tr.fns[1].body.is_some());
    }

    #[test]
    fn cfg_test_mod_is_opaque_and_fully_covered() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { !!!bad_syntax!!! } }";
        let pf = parse(src);
        assert_eq!(pf.coverage.failures, vec![]);
        assert_eq!(pf.coverage.total, 2);
        assert_eq!(pf.coverage.parsed, 2);
    }

    #[test]
    fn cfg_attr_gated_item_is_still_parsed_as_library_code() {
        let src = "#[cfg_attr(test, allow(dead_code))]\npub fn f(v: &[f64]) -> f64 { v[0] }";
        let pf = parse(src);
        assert_eq!(pf.coverage.failures, vec![]);
        let f = &fns(&pf)[0];
        assert!(!f.cfg_test, "#[cfg_attr] must not test-gate an item");
        assert!(f.body.is_some());
    }

    #[test]
    fn unknown_items_count_against_coverage() {
        let pf = parse("pub fn ok() {}\n@@@ garbage;\nfn also_ok() {}");
        assert_eq!(pf.coverage.parsed, 2);
        assert!(pf.coverage.total > pf.coverage.parsed);
        assert!(!pf.coverage.failures.is_empty());
    }

    #[test]
    fn item_spans_partition_the_token_stream() {
        let src = "use a::b;\npub struct S { x: f64 }\nfn f(n: usize) -> usize { n + 1 }\n\
                   impl S { fn g(&self) {} }";
        let lexed = lex(src);
        let pf = parse_file(&lexed);
        let mut cursor = 0usize;
        for item in &pf.items {
            assert_eq!(item.span.0, cursor, "gap before item at line {}", item.line);
            assert!(item.span.1 > item.span.0);
            cursor = item.span.1;
        }
        assert_eq!(cursor, lexed.tokens.len());
    }

    #[test]
    fn body_events_capture_calls_and_methods() {
        let src = "fn f(v: &[f64]) -> f64 { let s = stats::mean(v); s.max(helper(v)) }";
        let pf = parse(src);
        let body = fns(&pf)[0].body.as_ref().expect("body");
        let calls: Vec<String> = body
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Call { path, .. } => Some(path.join("::")),
                _ => None,
            })
            .collect();
        assert_eq!(calls, vec!["stats::mean", "helper"]);
        assert!(body
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::MethodCall { name, .. } if name == "max")));
    }

    #[test]
    fn turbofish_calls_are_recognized() {
        let src = "fn f() { let v = Vec::<f64>::with_capacity(4); \
                   let s = parse::<u32>(x); let c = it.collect::<Vec<_>>(); }";
        let pf = parse(src);
        let body = fns(&pf)[0].body.as_ref().expect("body");
        let calls: Vec<String> = body
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Call { path, .. } => Some(path.join("::")),
                _ => None,
            })
            .collect();
        assert!(calls.contains(&"parse".to_string()), "{calls:?}");
        assert!(body
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::MethodCall { name, .. } if name == "collect")));
    }

    #[test]
    fn index_classes_track_loop_bounds() {
        let src = "fn f(v: &[f64], n: usize, cols: usize, k: usize) -> f64 {\n\
                   let mut acc = 0.0;\n\
                   for i in 0..n { acc += v[i]; }\n\
                   for r in 0..n { for c in 0..cols { acc += v[r * cols + c]; } }\n\
                   acc + v[k]\n}";
        let pf = parse(src);
        let body = fns(&pf)[0].body.as_ref().expect("body");
        let classes: Vec<IndexClass> = body
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Index { class, .. } => Some(*class),
                _ => None,
            })
            .collect();
        assert_eq!(
            classes,
            vec![
                IndexClass::LoopVar,
                IndexClass::AffineLoop,
                IndexClass::Other
            ]
        );
    }

    #[test]
    fn index_inside_assert_is_marked() {
        let src = "fn f(v: &[f64], i: usize) { debug_assert!(v[i].is_finite()); }";
        let pf = parse(src);
        let body = fns(&pf)[0].body.as_ref().expect("body");
        assert!(body.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::Index {
                in_assert: true,
                ..
            }
        )));
    }

    #[test]
    fn division_classification() {
        // Float division and division by a nonzero literal are silent;
        // dividing by a known-int variable or a `.len()` is an event.
        let src = "fn f(a: f64, b: f64, n: usize, total: usize, v: &[f64]) -> f64 {\n\
                   let x = a / b;\n\
                   let y = total / 2;\n\
                   let z = total / n;\n\
                   let w = total / v.len();\n\
                   x + y as f64 + z as f64 + w as f64\n}";
        let pf = parse(src);
        let body = fns(&pf)[0].body.as_ref().expect("body");
        let divs: Vec<&EventKind> = body
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                k @ EventKind::IntDiv { .. } => Some(k),
                _ => None,
            })
            .collect();
        assert_eq!(divs.len(), 2, "{divs:?}");
    }

    #[test]
    fn casts_record_source_class() {
        let src = "fn f(n: usize, x: f64) { let a = n as u32; let b = x as f64; let c = x as u8; }";
        let pf = parse(src);
        let body = fns(&pf)[0].body.as_ref().expect("body");
        let casts: Vec<(String, NumClass)> = body
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Cast { to, from } => Some((to.clone(), *from)),
                _ => None,
            })
            .collect();
        assert_eq!(casts.len(), 3);
        assert_eq!(casts[0], ("u32".to_string(), NumClass::Int));
        assert_eq!(casts[2], ("u8".to_string(), NumClass::Float));
    }

    #[test]
    fn offset_named_let_with_arith_is_flagged() {
        let src = "fn f(r: usize, cols: usize, c: usize) -> usize { \
                   let base = r * cols; let idx = base + c; idx }";
        let pf = parse(src);
        let body = fns(&pf)[0].body.as_ref().expect("body");
        let offsets: Vec<&str> = body
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::OffsetArith { name } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(offsets, vec!["base", "idx"]);
    }

    #[test]
    fn lifetimes_and_char_literals_in_signatures() {
        let src = "pub fn f<'a>(x: &'a str) -> char { 'x' }";
        let pf = parse(src);
        assert_eq!(pf.coverage.failures, vec![]);
        assert_eq!(fns(&pf)[0].name, "f");
    }

    #[test]
    fn raw_strings_and_nested_comments_do_not_break_items() {
        let src = "fn f() -> &'static str { r#\"a \"quoted\" str\"# }\n\
                   /* outer /* inner */ back at outer */\nfn g() {}";
        let pf = parse(src);
        assert_eq!(pf.coverage.total, 2);
        assert_eq!(pf.coverage.parsed, 2);
    }

    #[test]
    fn const_and_static_and_type_items() {
        let src = "pub const K: usize = 3;\nstatic NAME: &str = \"x\";\n\
                   pub type Pair = (f64, f64);\npub enum E { A, B(u8) }";
        let pf = parse(src);
        assert_eq!(pf.coverage.failures, vec![]);
        assert_eq!(pf.items.len(), 4);
    }
}
