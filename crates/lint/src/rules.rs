//! The rule registry and per-rule token-stream checks.
//!
//! Every rule scans the *significant* token stream of a file (whitespace and
//! comments removed, string/char/raw-string contents opaque), so a mention of
//! `HashMap` in a doc comment or a format string can never trip a rule. Rules
//! are pattern matchers, not type checkers: they encode repo conventions
//! (determinism, checked casts, error routing) precisely enough that every
//! hit is worth a human look, and the suppression syntax exists for the rare
//! deliberate exception.

use std::collections::BTreeSet;

use crate::config::RuleConfig;
use crate::diagnostics::Severity;
use crate::lexer::TokenKind;
use crate::SourceFile;

/// A raw rule hit: a byte offset into the file plus the message. The engine
/// turns it into a full [`crate::diagnostics::Diagnostic`].
#[derive(Debug)]
pub struct RawFinding {
    /// Byte offset of the offending token.
    pub offset: usize,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// Cross-file state shared by rule checks (today: the H1 two-pass set).
#[derive(Debug, Default)]
pub struct RuleContext {
    /// Names of structs whose *declaration* carries `#[must_use]` anywhere in
    /// the checked file set. A `pub fn` returning one of these is `#[must_use]`
    /// by construction (and must NOT also annotate the fn —
    /// `clippy::double_must_use`).
    pub must_use_structs: BTreeSet<String>,
}

/// One named rule: identity, severity, docs and its check function.
pub struct Rule {
    /// Stable id used in output, `lint.toml` and suppressions.
    pub id: &'static str,
    /// Whether an active finding fails the run.
    pub severity: Severity,
    /// One-line summary for `--list-rules`.
    pub summary: &'static str,
    /// Why the rule exists, tied to the repo invariant it protects.
    pub rationale: &'static str,
    /// The token-stream check.
    pub check: fn(&SourceFile, &RuleConfig, &RuleContext) -> Vec<RawFinding>,
}

/// All scanning rules, in reporting order. (`SUP` — malformed suppression —
/// is emitted by the suppression parser in the engine, not by a scan.)
pub fn all() -> &'static [Rule] {
    &[
        Rule {
            id: "D1",
            severity: Severity::Deny,
            summary: "no HashMap/HashSet in deterministic crates",
            rationale: "Hash iteration order varies per process, which breaks the bitwise \
                        report-equivalence guarantee (heap loop vs. reference oracle, cluster \
                        runs across thread counts). Use BTreeMap/BTreeSet or an indexed Vec.",
            check: check_d1,
        },
        Rule {
            id: "D2",
            severity: Severity::Deny,
            summary: "no wall-clock reads",
            rationale: "The simulator owns the virtual clock; an Instant/SystemTime read makes \
                        output depend on host timing. Host-time measurement lives in the \
                        perfbench/ benchmark, outside the linted roots.",
            check: check_d2,
        },
        Rule {
            id: "D3",
            severity: Severity::Deny,
            summary: "no unwrap/expect/panic! in library code",
            rationale: "Library code in crates/core and crates/serve must surface failures as \
                        HermesError so callers (sweeps, the cluster driver) can degrade \
                        gracefully instead of aborting a multi-replica run.",
            check: check_d3,
        },
        Rule {
            id: "S1",
            severity: Severity::Deny,
            summary: "no `as` numeric casts in KV/token accounting",
            rationale: "Silent truncation or precision loss in block/token arithmetic corrupts \
                        the accounting that the equivalence tests certify. Route conversions \
                        through the checked helpers in hermes_core::cast (or try_from).",
            check: check_s1,
        },
        Rule {
            id: "S2",
            severity: Severity::Deny,
            summary: "float accumulation must use the ordered-fold helpers",
            rationale: "Float addition is non-associative; an ad-hoc `.sum::<f64>()`/`.fold(0.0, \
                        ..)` invites order-dependent results when iteration order changes. Fold \
                        through hermes_serve::tallies::{ordered_sum, ordered_mean}.",
            check: check_s2,
        },
        Rule {
            id: "H1",
            severity: Severity::Deny,
            summary: "report/stats returns must be #[must_use]",
            rationale: "A dropped report silently discards the only evidence a simulation ran. \
                        Listed report structs carry #[must_use] at the declaration; pub fns \
                        returning other listed stats types annotate the fn itself.",
            check: check_h1,
        },
    ]
}

/// The rule registry entry for `id`, if any.
pub fn by_id(id: &str) -> Option<&'static Rule> {
    all().iter().find(|r| r.id == id)
}

/// `true` for the primitive numeric type names S1 watches after `as`.
fn is_numeric_type(text: &str) -> bool {
    matches!(
        text,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
    )
}

fn check_d1(file: &SourceFile, _rc: &RuleConfig, _ctx: &RuleContext) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..file.sig_len() {
        if file.sig_kind(i) != TokenKind::Ident {
            continue;
        }
        let text = file.sig_text(i);
        if text == "HashMap" || text == "HashSet" {
            let ordered = if text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            out.push(RawFinding {
                offset: file.sig_tok(i).start,
                message: format!(
                    "`{text}` iterates in nondeterministic order; use `{ordered}` or an \
                     indexed Vec to keep reports bitwise-reproducible"
                ),
            });
        }
    }
    out
}

fn check_d2(file: &SourceFile, _rc: &RuleConfig, _ctx: &RuleContext) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..file.sig_len() {
        if file.sig_kind(i) != TokenKind::Ident {
            continue;
        }
        let text = file.sig_text(i);
        if text == "Instant" || text == "SystemTime" {
            out.push(RawFinding {
                offset: file.sig_tok(i).start,
                message: format!(
                    "`{text}` reads the wall clock; the simulator owns the virtual clock and \
                     real time is only allowed in crates/bench measurement code"
                ),
            });
        }
    }
    out
}

fn check_d3(file: &SourceFile, _rc: &RuleConfig, _ctx: &RuleContext) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..file.sig_len() {
        if file.sig_kind(i) != TokenKind::Ident {
            continue;
        }
        let text = file.sig_text(i);
        // `.unwrap(` / `.expect(` — exact ident match, so `unwrap_or`,
        // `unwrap_or_else` and `expect_err`-free helper names never trip.
        if (text == "unwrap" || text == "expect")
            && i > 0
            && file.sig_text(i - 1) == "."
            && i + 1 < file.sig_len()
            && file.sig_text(i + 1) == "("
        {
            out.push(RawFinding {
                offset: file.sig_tok(i).start,
                message: format!(
                    "`.{text}()` aborts the process; propagate through HermesError (`?`, \
                     `ok_or_else`) or restructure so the state is provably present"
                ),
            });
        }
        // `panic!` — requires the adjacent `!` so `std::panic::catch_unwind`
        // style paths do not trip.
        if text == "panic" && i + 1 < file.sig_len() && file.sig_text(i + 1) == "!" {
            out.push(RawFinding {
                offset: file.sig_tok(i).start,
                message: "`panic!` aborts the process; return a HermesError variant instead"
                    .to_string(),
            });
        }
    }
    out
}

fn check_s1(file: &SourceFile, _rc: &RuleConfig, _ctx: &RuleContext) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..file.sig_len().saturating_sub(1) {
        if file.sig_kind(i) != TokenKind::Ident || file.sig_text(i) != "as" {
            continue;
        }
        if file.sig_kind(i + 1) == TokenKind::Ident && is_numeric_type(file.sig_text(i + 1)) {
            out.push(RawFinding {
                offset: file.sig_tok(i).start,
                message: format!(
                    "`as {}` can silently truncate or lose precision in KV/token accounting; \
                     use the checked helpers in hermes_core::cast (or TryFrom)",
                    file.sig_text(i + 1)
                ),
            });
        }
    }
    out
}

fn check_s2(file: &SourceFile, _rc: &RuleConfig, _ctx: &RuleContext) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..file.sig_len() {
        if file.sig_kind(i) != TokenKind::Ident {
            continue;
        }
        let text = file.sig_text(i);
        // `.sum::<f64>()` / `.product::<f64>()` — tokens: ident :: < f64 >.
        if (text == "sum" || text == "product")
            && i >= 1
            && file.sig_text(i - 1) == "."
            && i + 4 < file.sig_len()
            && file.sig_text(i + 1) == ":"
            && file.sig_text(i + 2) == ":"
            && file.sig_text(i + 3) == "<"
            && matches!(file.sig_text(i + 4), "f64" | "f32")
        {
            out.push(RawFinding {
                offset: file.sig_tok(i).start,
                message: format!(
                    "raw `.{text}::<{}>()` is order-sensitive; accumulate through \
                     hermes_serve::tallies::ordered_sum / ordered_mean",
                    file.sig_text(i + 4)
                ),
            });
        }
        // `.fold(0.0, ..)` / `.fold(-1.5, ..)` / `.fold(0f64, ..)` — a fold
        // whose seed is a float literal is a float accumulation.
        if text == "fold" && i >= 1 && file.sig_text(i - 1) == "." {
            let mut j = i + 1;
            if j < file.sig_len() && file.sig_text(j) == "(" {
                j += 1;
                if j < file.sig_len() && file.sig_text(j) == "-" {
                    j += 1;
                }
                if j < file.sig_len() && file.sig_kind(j) == TokenKind::Number {
                    let n = file.sig_text(j);
                    if n.contains('.') || n.ends_with("f64") || n.ends_with("f32") {
                        out.push(RawFinding {
                            offset: file.sig_tok(i).start,
                            message: "float `.fold(..)` is order-sensitive; accumulate through \
                                      hermes_serve::tallies::ordered_sum / ordered_mean"
                                .to_string(),
                        });
                    }
                }
            }
        }
    }
    out
}

/// H1: walks the file once, tracking brace depth and the enclosing `impl`
/// type (to resolve `-> Self`), and flags (a) declarations of listed structs
/// that lack `#[must_use]` and (b) pub fns returning a listed type where
/// neither the fn nor the returned struct's declaration is `#[must_use]`.
fn check_h1(file: &SourceFile, rc: &RuleConfig, ctx: &RuleContext) -> Vec<RawFinding> {
    let structs: BTreeSet<&str> = rc.structs.iter().map(String::as_str).collect();
    let types: BTreeSet<&str> = rc.types.iter().map(String::as_str).collect();
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut impl_stack: Vec<(Option<String>, usize)> = Vec::new();
    let mut pending_impl: Option<Option<String>> = None;
    for i in 0..file.sig_len() {
        match file.sig_text(i) {
            "{" => {
                depth += 1;
                if let Some(target) = pending_impl.take() {
                    impl_stack.push((target, depth));
                }
            }
            "}" => {
                if impl_stack.last().is_some_and(|(_, d)| *d == depth) {
                    impl_stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            "impl" if file.sig_kind(i) == TokenKind::Ident => {
                pending_impl = Some(impl_target(file, i));
            }
            "struct"
                if file.sig_kind(i) == TokenKind::Ident
                    && i + 1 < file.sig_len()
                    && file.sig_kind(i + 1) == TokenKind::Ident
                    && structs.contains(file.sig_text(i + 1))
                    && !has_must_use_attr(file, i) =>
            {
                out.push(RawFinding {
                    offset: file.sig_tok(i + 1).start,
                    message: format!(
                        "report struct `{}` must carry #[must_use] at its declaration",
                        file.sig_text(i + 1)
                    ),
                });
            }
            "fn" if file.sig_kind(i) == TokenKind::Ident => {
                if !is_pub_item(file, i) {
                    continue;
                }
                let Some((ret, name_offset)) = fn_return_type(file, i) else {
                    continue;
                };
                let ret = if ret == "Self" {
                    match impl_stack.last().and_then(|(t, _)| t.clone()) {
                        Some(name) => name,
                        None => continue,
                    }
                } else {
                    ret
                };
                if !types.contains(ret.as_str()) {
                    continue;
                }
                // Satisfied either by the struct-level annotation (which
                // propagates to every return site) or a fn-level attribute.
                if ctx.must_use_structs.contains(&ret) || has_must_use_attr(file, i) {
                    continue;
                }
                out.push(RawFinding {
                    offset: name_offset,
                    message: format!(
                        "pub fn returning `{ret}` must be #[must_use] (on the fn, or via \
                         #[must_use] on the struct declaration — not both, \
                         clippy::double_must_use)"
                    ),
                });
            }
            _ => {}
        }
    }
    out
}

/// Collect the names of structs declared with `#[must_use]` in `file` — the
/// H1 first pass, run over every checked file before any rule executes.
pub fn collect_must_use_structs(file: &SourceFile, into: &mut BTreeSet<String>) {
    for i in 0..file.sig_len().saturating_sub(1) {
        if file.sig_kind(i) == TokenKind::Ident
            && file.sig_text(i) == "struct"
            && file.sig_kind(i + 1) == TokenKind::Ident
            && has_must_use_attr(file, i)
        {
            into.insert(file.sig_text(i + 1).to_string());
        }
    }
}

/// Visibility / qualifier tokens that may sit between an item's attributes
/// and its `fn` / `struct` keyword (`pub(crate) const unsafe …`).
fn is_item_qualifier(file: &SourceFile, i: usize) -> bool {
    matches!(
        file.sig_text(i),
        "pub"
            | "crate"
            | "super"
            | "self"
            | "in"
            | "const"
            | "async"
            | "unsafe"
            | "extern"
            | "default"
            | "("
            | ")"
    ) || file.sig_kind(i) == TokenKind::Str
}

/// `true` if the item whose keyword sits at significant index `item` is
/// `pub` (including `pub(crate)` / `pub(super)` — restricted visibility still
/// exposes the return value to other modules).
fn is_pub_item(file: &SourceFile, item: usize) -> bool {
    let mut i = item;
    while i > 0 && is_item_qualifier(file, i - 1) {
        if file.sig_text(i - 1) == "pub" {
            return true;
        }
        i -= 1;
    }
    false
}

/// Walk back from the item keyword at significant index `item`, over its
/// qualifiers and then its `#[…]` attribute groups; `true` if any attribute
/// mentions `must_use` (`#[must_use]`, `#[must_use = "…"]`).
fn has_must_use_attr(file: &SourceFile, item: usize) -> bool {
    let mut i = item;
    while i > 0 && is_item_qualifier(file, i - 1) {
        i -= 1;
    }
    // Attribute groups directly above: …, #[attr2], #[attr1], <item>.
    while i >= 1 && file.sig_text(i - 1) == "]" {
        // Find the matching `[` going back.
        let mut depth = 0usize;
        let mut j = i - 1;
        loop {
            match file.sig_text(j) {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return false;
            }
            j -= 1;
        }
        if j == 0 || file.sig_text(j - 1) != "#" {
            return false;
        }
        for k in j..i {
            if file.sig_kind(k) == TokenKind::Ident && file.sig_text(k) == "must_use" {
                return true;
            }
        }
        i = j - 1;
    }
    false
}

/// Skip a balanced `<…>` generic group starting at significant index `open`
/// (which must be `<`); returns the index just past the matching `>`.
/// `>>` lexes as two `>` puncts, so plain counting suffices.
fn skip_angles(file: &SourceFile, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < file.sig_len() {
        match file.sig_text(i) {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            "{" | ";" => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// The type an `impl` block (at significant index `i`) targets: the last
/// path segment of the type after `for` (trait impls) or of the sole type
/// (inherent impls). `None` for shapes we cannot name (`impl<T> Trait for
/// Vec<T>` still resolves to `Vec`; only degenerate headers yield `None`).
fn impl_target(file: &SourceFile, i: usize) -> Option<String> {
    let mut j = i + 1;
    if j < file.sig_len() && file.sig_text(j) == "<" {
        j = skip_angles(file, j)?;
    }
    let mut name = None;
    while j < file.sig_len() {
        match file.sig_text(j) {
            "{" | "where" | ";" => break,
            "for" if file.sig_kind(j) == TokenKind::Ident => {
                name = None;
                j += 1;
            }
            "<" => match skip_angles(file, j) {
                Some(next) => j = next,
                None => break,
            },
            _ => {
                if file.sig_kind(j) == TokenKind::Ident {
                    name = Some(file.sig_text(j).to_string());
                }
                j += 1;
            }
        }
    }
    name
}

/// For the fn at significant index `i` ("fn"), the last path segment of a
/// plain by-value return type, plus the byte offset of the fn's name.
/// `None` when there is no return type or it is a reference / `impl Trait` /
/// tuple / generic wrapper (`Result<…>` resolves to `Result`, which callers
/// then skip because it is not a listed report type).
fn fn_return_type(file: &SourceFile, i: usize) -> Option<(String, usize)> {
    let name_idx = i + 1;
    if name_idx >= file.sig_len() || file.sig_kind(name_idx) != TokenKind::Ident {
        return None;
    }
    let name_offset = file.sig_tok(name_idx).start;
    let mut j = name_idx + 1;
    if j < file.sig_len() && file.sig_text(j) == "<" {
        j = skip_angles(file, j)?;
    }
    if j >= file.sig_len() || file.sig_text(j) != "(" {
        return None;
    }
    // Match the parameter list.
    let mut depth = 0usize;
    while j < file.sig_len() {
        match file.sig_text(j) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j += 1;
    // `-> Type` lexes as Punct("-") Punct(">").
    if j + 1 >= file.sig_len() || file.sig_text(j) != "-" || file.sig_text(j + 1) != ">" {
        return None;
    }
    j += 2;
    if j >= file.sig_len() {
        return None;
    }
    // By-value plain paths only: references, impl Trait, dyn, tuples and
    // slices are out of scope for H1.
    if matches!(file.sig_text(j), "&" | "impl" | "dyn" | "(" | "[") {
        return None;
    }
    let mut name = None;
    while j < file.sig_len() {
        match file.sig_text(j) {
            "<" | "{" | ";" | "where" => break,
            ":" => j += 1,
            _ => {
                if file.sig_kind(j) == TokenKind::Ident {
                    name = Some(file.sig_text(j).to_string());
                } else {
                    break;
                }
                j += 1;
            }
        }
    }
    name.map(|n| (n, name_offset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuleConfig;
    use crate::SourceFile;

    fn file(src: &str) -> SourceFile {
        SourceFile::for_tests("crates/serve/src/x.rs", src)
    }

    fn run(id: &str, src: &str) -> Vec<RawFinding> {
        run_with(id, src, &RuleConfig::default(), &RuleContext::default())
    }

    fn run_with(id: &str, src: &str, rc: &RuleConfig, ctx: &RuleContext) -> Vec<RawFinding> {
        let rule = by_id(id).unwrap();
        (rule.check)(&file(src), rc, ctx)
    }

    #[test]
    fn d1_ignores_strings_and_comments() {
        assert_eq!(run("D1", "// HashMap\nlet s = \"HashSet\";").len(), 0);
        assert_eq!(
            run(
                "D1",
                "use std::collections::HashMap;\nlet m = HashMap::new();"
            )
            .len(),
            2
        );
    }

    #[test]
    fn d3_matches_only_real_calls() {
        assert_eq!(
            run("D3", "x.unwrap_or(0); x.unwrap_or_else(f); unwrap(x);").len(),
            0
        );
        assert_eq!(
            run("D3", "x.unwrap(); y.expect(\"msg\"); panic!(\"no\");").len(),
            3
        );
        assert_eq!(run("D3", "std::panic::catch_unwind(f)").len(), 0);
    }

    #[test]
    fn s1_flags_numeric_as_only() {
        assert_eq!(run("S1", "let x = y as u64; let z = w as f64;").len(), 2);
        assert_eq!(
            run("S1", "use foo as bar; let b: &dyn Any = &x as &dyn Any;").len(),
            0
        );
    }

    #[test]
    fn s2_flags_float_folds() {
        assert_eq!(run("S2", "v.iter().sum::<f64>()").len(), 1);
        assert_eq!(run("S2", "v.iter().fold(0.0, |a, b| a + b)").len(), 1);
        assert_eq!(
            run(
                "S2",
                "v.iter().sum::<u64>(); v.iter().fold(0, |a, b| a + b)"
            )
            .len(),
            0
        );
    }

    #[test]
    fn h1_struct_annotation_satisfies_fn() {
        let rc = RuleConfig {
            structs: vec!["Report".to_string()],
            types: vec!["Report".to_string()],
            ..RuleConfig::default()
        };
        let mut ctx = RuleContext::default();
        // Unannotated struct declaration + unannotated pub fn: two findings.
        let src = "pub struct Report { x: u64 }\n\
                   impl Report { pub fn build() -> Self { Report { x: 0 } } }";
        assert_eq!(run_with("H1", src, &rc, &ctx).len(), 2);
        // Annotated declaration: both findings clear (fn inherits).
        let src = "#[must_use]\npub struct Report { x: u64 }\n\
                   impl Report { pub fn build() -> Self { Report { x: 0 } } }";
        collect_must_use_structs(&file(src), &mut ctx.must_use_structs);
        assert!(ctx.must_use_structs.contains("Report"));
        assert_eq!(run_with("H1", src, &rc, &ctx).len(), 0);
    }

    #[test]
    fn h1_fn_attr_satisfies_and_result_skipped() {
        let rc = RuleConfig {
            types: vec!["Stats".to_string()],
            ..RuleConfig::default()
        };
        let ctx = RuleContext::default();
        assert_eq!(
            run_with(
                "H1",
                "#[must_use]\npub fn mk() -> Stats { Stats }",
                &rc,
                &ctx
            )
            .len(),
            0
        );
        assert_eq!(
            run_with("H1", "pub fn mk() -> Stats { Stats }", &rc, &ctx).len(),
            1
        );
        // Result/Option wrappers and private fns are out of scope.
        assert_eq!(
            run_with(
                "H1",
                "pub fn mk() -> Result<Stats, E> { Ok(Stats) }",
                &rc,
                &ctx
            )
            .len(),
            0
        );
        assert_eq!(
            run_with("H1", "fn mk() -> Stats { Stats }", &rc, &ctx).len(),
            0
        );
    }

    #[test]
    fn h1_resolves_self_through_trait_impls() {
        let rc = RuleConfig {
            types: vec!["Stats".to_string()],
            ..RuleConfig::default()
        };
        let ctx = RuleContext::default();
        // `impl Merge for Stats` — Self resolves to Stats.
        let src = "impl Merge for Stats { pub fn merged(a: &Self) -> Self { a.clone() } }";
        assert_eq!(run_with("H1", src, &rc, &ctx).len(), 1);
        // Other type: no finding.
        let src = "impl Merge for Other { pub fn merged(a: &Self) -> Self { a.clone() } }";
        assert_eq!(run_with("H1", src, &rc, &ctx).len(), 0);
    }
}
