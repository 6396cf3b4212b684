//! `hermes-lint` — workspace-local determinism & safety static analysis.
//!
//! The repo's verification story rests on bitwise determinism: the event-heap
//! simulator must match the reference oracle token-for-token, cluster runs
//! must be byte-identical across thread counts, and every `ServingReport`
//! must serialize identically across runs. This linter turns the conventions
//! that protect those invariants into machine-checked rules (run
//! `hermes-lint --list-rules` for the registry): no hash-ordered containers
//! in deterministic crates (D1), no wall-clock reads (D2), no
//! `unwrap`/`expect`/`panic!` in library code (D3), no `as` numeric casts in
//! KV/token accounting (S1), ordered float folds only (S2), and `#[must_use]`
//! on report-returning APIs (H1).
//!
//! # Worked example
//!
//! ```text
//! $ cargo run -p hermes-lint -- --workspace
//! crates/serve/src/simulator.rs:218:26: deny [D1]: `HashMap` iterates in
//! nondeterministic order; use `BTreeMap` or an indexed Vec to keep reports
//! bitwise-reproducible
//!     | let mut leaders: std::collections::HashMap<&[u64], usize> = ...
//! ```
//!
//! The fix is either the suggested rewrite or — for a deliberate exception —
//! an inline suppression with a mandatory reason, on the offending line or
//! the line directly above it:
//!
//! ```text
//! // hermes-lint: allow(D1, reason = "scratch map, drained in sorted order")
//! ```
//!
//! A suppression without a reason is itself a deny-severity diagnostic
//! (`SUP`) and does not silence anything. Scoping lives in the checked-in
//! `lint.toml`; everything (lexer, TOML-subset config parser, JSON writer) is
//! dependency-free by design, so the linter builds before anything else in
//! the workspace and can never be broken by the vendored dependency stubs.

pub mod config;
pub mod diagnostics;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

use config::{Config, RuleConfig};
use diagnostics::{Diagnostic, Severity};
use lexer::{Token, TokenKind};
use rules::RuleContext;

/// One inline `// hermes-lint: allow(...)` comment.
#[derive(Debug, Clone)]
struct Suppression {
    /// Rule ids the comment names.
    rule_ids: Vec<String>,
    /// The mandatory reason; `None` makes the suppression inert and emits a
    /// `SUP` diagnostic.
    reason: Option<String>,
    /// 1-based line of the comment itself.
    line: usize,
    /// 1-based line of the code the suppression governs (same line for a
    /// trailing comment, the next code line for a comment on its own line).
    target_line: usize,
    /// Byte offset of the comment, for `SUP` diagnostics.
    offset: usize,
}

/// A lexed source file plus the derived facts rules need: significant-token
/// index, line table, `#[cfg(test)]` spans, suppressions, and its
/// test/binary classification.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// The file contents.
    pub src: String,
    /// The complete (lossless) token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant tokens (everything except
    /// whitespace and comments).
    pub sig: Vec<usize>,
    /// Byte offset of the start of each 1-based line.
    line_starts: Vec<usize>,
    /// Byte spans of `#[cfg(test)] mod … { … }` regions.
    pub test_spans: Vec<(usize, usize)>,
    /// Entirely test code: under a `tests/` directory or listed in
    /// `[workspace] test_files` (a `#[cfg(test)] mod …;` declaration in the
    /// parent module).
    pub is_test: bool,
    /// Binary-adjacent code: `main.rs`, `src/bin/`, `examples/`, `benches/`,
    /// `build.rs` — exempted by `library_only` rules.
    pub is_binlike: bool,
    suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Lex and classify one file. `path` must be workspace-relative with
    /// `/` separators.
    pub fn new(path: String, src: String, config: &Config) -> SourceFile {
        let tokens = lexer::lex(&src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let mut line_starts = vec![0];
        line_starts.extend(src.match_indices('\n').map(|(i, _)| i + 1));
        let is_test = path.starts_with("tests/")
            || path.contains("/tests/")
            || config.test_files.iter().any(|f| f == &path);
        let is_binlike = path.starts_with("examples/")
            || path.contains("/examples/")
            || path.starts_with("benches/")
            || path.contains("/benches/")
            || path.contains("/bin/")
            || path.ends_with("/main.rs")
            || path == "main.rs"
            || path.ends_with("build.rs");
        let mut file = SourceFile {
            path,
            src,
            tokens,
            sig,
            line_starts,
            test_spans: Vec::new(),
            is_test,
            is_binlike,
            suppressions: Vec::new(),
        };
        file.test_spans = find_test_spans(&file);
        file.suppressions = parse_suppressions(&file);
        file
    }

    /// Test constructor with an empty config.
    pub fn for_tests(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path.to_string(), src.to_string(), &Config::default())
    }

    /// Number of significant tokens.
    pub fn sig_len(&self) -> usize {
        self.sig.len()
    }

    /// The `i`-th significant token.
    pub fn sig_tok(&self, i: usize) -> &Token {
        &self.tokens[self.sig[i]]
    }

    /// Kind of the `i`-th significant token.
    pub fn sig_kind(&self, i: usize) -> TokenKind {
        self.sig_tok(i).kind
    }

    /// Text of the `i`-th significant token.
    pub fn sig_text(&self, i: usize) -> &str {
        self.sig_tok(i).text(&self.src)
    }

    /// 1-based (line, column) of a byte offset; columns count characters.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = self.line_starts.partition_point(|&start| start <= offset);
        let start = self.line_starts[line - 1];
        let col = self.src[start..offset].chars().count() + 1;
        (line, col)
    }

    /// The trimmed text of a 1-based line.
    pub fn line_text(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(self.src.len(), |&next| next);
        self.src[start..end].trim_end_matches('\n').trim()
    }

    /// `true` if `offset` lies inside a `#[cfg(test)]` region.
    pub fn in_test_span(&self, offset: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(start, end)| start <= offset && offset < end)
    }
}

/// Byte spans of `#[cfg(test)] mod … { … }` regions, found by scanning the
/// significant token stream (attributes and nested braces honoured; a
/// `#[cfg(test)] mod …;` declaration contributes no span here — the file it
/// names belongs in `[workspace] test_files`).
fn find_test_spans(file: &SourceFile) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let n = file.sig_len();
    let mut i = 0;
    while i + 3 < n {
        if !(file.sig_text(i) == "#"
            && file.sig_text(i + 1) == "["
            && file.sig_text(i + 2) == "cfg"
            && file.sig_text(i + 3) == "(")
        {
            i += 1;
            continue;
        }
        // Find the attribute's closing `]` and check the cfg predicate
        // mentions `test` (covers `cfg(test)` and `cfg(all(test, …))`).
        let Some(close) = match_forward(file, i + 1, "[", "]") else {
            i += 1;
            continue;
        };
        let mentions_test = (i + 4..close)
            .any(|k| file.sig_kind(k) == TokenKind::Ident && file.sig_text(k) == "test");
        if !mentions_test {
            i = close + 1;
            continue;
        }
        // Skip any further attribute groups, then expect `mod name {`.
        let mut k = close + 1;
        while k + 1 < n && file.sig_text(k) == "#" && file.sig_text(k + 1) == "[" {
            match match_forward(file, k + 1, "[", "]") {
                Some(end) => k = end + 1,
                None => break,
            }
        }
        if k + 2 < n
            && file.sig_text(k) == "mod"
            && file.sig_kind(k + 1) == TokenKind::Ident
            && file.sig_text(k + 2) == "{"
        {
            if let Some(end) = match_forward(file, k + 2, "{", "}") {
                spans.push((file.sig_tok(i).start, file.sig_tok(end).end));
                i = k + 3;
                continue;
            }
        }
        i = close + 1;
    }
    spans
}

/// Index of the token matching the opener at significant index `open`.
fn match_forward(file: &SourceFile, open: usize, opener: &str, closer: &str) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < file.sig_len() {
        let t = file.sig_text(i);
        if t == opener {
            depth += 1;
        } else if t == closer {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Parse every `// hermes-lint: allow(…)` comment in the file.
fn parse_suppressions(file: &SourceFile) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, tok) in file.tokens.iter().enumerate() {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let text = tok.text(&file.src);
        let Some(body) = text
            .trim_start_matches('/')
            .trim()
            .strip_prefix("hermes-lint:")
        else {
            continue;
        };
        let (line, _) = file.line_col(tok.start);
        let parsed = parse_allow(body.trim());
        // A trailing comment governs its own line; a comment on its own
        // line governs the next line that has significant code.
        let code_before = file.sig.iter().any(|&s| {
            file.tokens[s].start < tok.start && {
                let (l, _) = file.line_col(file.tokens[s].start);
                l == line
            }
        });
        let target_line = if code_before {
            line
        } else {
            file.tokens[idx + 1..]
                .iter()
                .find(|t| {
                    !matches!(
                        t.kind,
                        TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                    )
                })
                .map_or(line + 1, |t| file.line_col(t.start).0)
        };
        let (rule_ids, reason) = parsed.unwrap_or((Vec::new(), None));
        out.push(Suppression {
            rule_ids,
            reason,
            line,
            target_line,
            offset: tok.start,
        });
    }
    out
}

/// Parse `allow(ID, ID, reason = "…")`. Returns `None` on malformed syntax;
/// a missing/empty reason comes back as `reason: None` (both yield `SUP`).
fn parse_allow(body: &str) -> Option<(Vec<String>, Option<String>)> {
    let inner = body.strip_prefix("allow(")?.strip_suffix(')')?;
    let (id_part, reason) = match inner.find("reason") {
        Some(pos) => {
            let tail = inner[pos + "reason".len()..].trim_start();
            let tail = tail.strip_prefix('=')?.trim_start();
            let tail = tail.strip_prefix('"')?;
            let end = tail.rfind('"')?;
            let reason = tail[..end].trim().to_string();
            let reason = if reason.is_empty() {
                None
            } else {
                Some(reason)
            };
            (&inner[..pos], reason)
        }
        None => (inner, None),
    };
    let mut ids = Vec::new();
    for id in id_part.split(',') {
        let id = id.trim();
        if id.is_empty() {
            continue;
        }
        if !id.chars().all(|c| c.is_ascii_alphanumeric()) {
            return None;
        }
        ids.push(id.to_string());
    }
    if ids.is_empty() {
        return None;
    }
    Some((ids, reason))
}

/// `path` is governed by the prefix `scope` ("crates/serve" matches the
/// directory subtree; a full file path matches exactly).
fn path_in(path: &str, scope: &str) -> bool {
    path == scope
        || path
            .strip_prefix(scope)
            .is_some_and(|rest| rest.starts_with('/'))
}

/// Scope test for one rule: inside some `include` prefix, outside every
/// `exclude` prefix.
fn in_scope(path: &str, rc: &RuleConfig) -> bool {
    rc.include.iter().any(|p| path_in(path, p)) && !rc.exclude.iter().any(|p| path_in(path, p))
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Diagnostics that count against the exit code (sorted by location).
    pub active: Vec<Diagnostic>,
    /// Diagnostics silenced by a reasoned suppression.
    pub suppressed: Vec<Diagnostic>,
    /// Number of files checked.
    pub checked_files: usize,
}

impl LintReport {
    /// `true` when any active diagnostic has deny severity.
    pub fn failed(&self) -> bool {
        self.active.iter().any(|d| d.severity == Severity::Deny)
    }
}

/// Run every configured rule over `files`.
pub fn run(files: &[SourceFile], config: &Config) -> LintReport {
    let mut ctx = RuleContext::default();
    for file in files {
        rules::collect_must_use_structs(file, &mut ctx.must_use_structs);
    }
    let mut report = LintReport {
        checked_files: files.len(),
        ..LintReport::default()
    };
    for rule in rules::all() {
        let rc = config.rule(rule.id);
        if rc.include.is_empty() {
            continue;
        }
        for file in files {
            if !in_scope(&file.path, &rc) {
                continue;
            }
            if rc.skip_tests && file.is_test {
                continue;
            }
            if rc.library_only && file.is_binlike {
                continue;
            }
            for finding in (rule.check)(file, &rc, &ctx) {
                if rc.skip_tests && file.in_test_span(finding.offset) {
                    continue;
                }
                let (line, column) = file.line_col(finding.offset);
                let mut diag = Diagnostic {
                    rule: rule.id,
                    severity: rule.severity,
                    path: file.path.clone(),
                    line,
                    column,
                    message: finding.message,
                    snippet: file.line_text(line).to_string(),
                    suppressed_reason: None,
                };
                let reason = file.suppressions.iter().find_map(|s| {
                    (s.target_line == line && s.rule_ids.iter().any(|id| id == rule.id))
                        .then(|| s.reason.clone())
                        .flatten()
                });
                match reason {
                    Some(reason) => {
                        diag.suppressed_reason = Some(reason);
                        report.suppressed.push(diag);
                    }
                    None => report.active.push(diag),
                }
            }
        }
    }
    // Malformed suppressions are themselves deny diagnostics (SUP).
    for file in files {
        for s in &file.suppressions {
            if s.reason.is_some() && !s.rule_ids.is_empty() {
                continue;
            }
            let (line, column) = file.line_col(s.offset);
            report.active.push(Diagnostic {
                rule: "SUP",
                severity: Severity::Deny,
                path: file.path.clone(),
                line,
                column,
                message: "malformed suppression: the reason is mandatory — \
                          `// hermes-lint: allow(ID, reason = \"…\")`"
                    .to_string(),
                snippet: file.line_text(s.line).to_string(),
                suppressed_reason: None,
            });
        }
    }
    let key = |d: &Diagnostic| (d.path.clone(), d.line, d.column, d.rule);
    report.active.sort_by_key(key);
    report.suppressed.sort_by_key(key);
    report
}

/// Recursively collect `.rs` files under `root`'s configured walk roots,
/// skipping `[workspace] exclude` prefixes. Paths come back workspace-
/// relative, `/`-separated, sorted — the walk order is deterministic.
///
/// # Errors
///
/// I/O failures reading a directory, with the offending path named.
pub fn walk_workspace(root: &Path, config: &Config) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for walk_root in &config.roots {
        let dir = root.join(walk_root);
        if dir.is_dir() {
            walk_dir(root, &dir, &config.exclude, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk_dir(
    root: &Path,
    dir: &Path,
    exclude: &[String],
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let rel = relative_path(root, &path);
        if exclude.iter().any(|p| path_in(&rel, p)) {
            continue;
        }
        if path.is_dir() {
            walk_dir(root, &path, exclude, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated (identity if not under `root`).
pub fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_and_snippets() {
        let file = SourceFile::for_tests("x.rs", "let a = 1;\n  let bb = 2;\n");
        assert_eq!(file.line_col(0), (1, 1));
        assert_eq!(file.line_col(11), (2, 1));
        assert_eq!(file.line_col(15), (2, 5)); // 'b' of bb
        assert_eq!(file.line_text(2), "let bb = 2;");
    }

    #[test]
    fn test_spans_cover_cfg_test_mods() {
        let src = "pub fn lib() {}\n\
                   #[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n\
                   pub fn after() {}\n";
        let file = SourceFile::for_tests("crates/core/src/x.rs", src);
        assert_eq!(file.test_spans.len(), 1);
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(file.in_test_span(unwrap_at));
        assert!(!file.in_test_span(src.find("lib").unwrap()));
        assert!(!file.in_test_span(src.find("after").unwrap()));
    }

    #[test]
    fn cfg_feature_mods_are_not_test_spans() {
        let src = "#[cfg(feature = \"reference\")]\nmod reference { fn f() {} }\n";
        let file = SourceFile::for_tests("x.rs", src);
        assert!(file.test_spans.is_empty());
    }

    #[test]
    fn suppression_parsing_trailing_and_standalone() {
        let src = "let m = HashMap::new(); // hermes-lint: allow(D1, reason = \"scratch\")\n\
                   // hermes-lint: allow(D3, S1, reason = \"validated upstream\")\n\
                   let x = v.unwrap();\n\
                   // hermes-lint: allow(D1)\n\
                   let y = 1;\n";
        let file = SourceFile::for_tests("x.rs", src);
        assert_eq!(file.suppressions.len(), 3);
        assert_eq!(file.suppressions[0].target_line, 1);
        assert_eq!(file.suppressions[0].reason.as_deref(), Some("scratch"));
        assert_eq!(file.suppressions[1].target_line, 3);
        assert_eq!(file.suppressions[1].rule_ids, vec!["D3", "S1"]);
        assert!(file.suppressions[2].reason.is_none()); // malformed: no reason
    }

    fn scoped_config(toml: &str) -> Config {
        Config::parse(toml).unwrap()
    }

    #[test]
    fn engine_applies_scope_suppressions_and_sup() {
        let config = scoped_config("[rules.D1]\ninclude = [\"crates/serve\"]\nskip_tests = true\n");
        let src =
            "use std::collections::HashMap; // hermes-lint: allow(D1, reason = \"import only\")\n\
                   let a: HashMap<u32, u32> = HashMap::new();\n\
                   // hermes-lint: allow(D1)\n\
                   let b = HashSet::new();\n\
                   #[cfg(test)]\nmod tests { use std::collections::HashSet; }\n";
        let files = vec![SourceFile::new(
            "crates/serve/src/x.rs".to_string(),
            src.to_string(),
            &config,
        )];
        let report = run(&files, &config);
        // Active: 2×HashMap on line 2 (reasonless allow on line 3 targets
        // line 4, and is itself a SUP), HashSet on line 4, SUP on line 3.
        // Suppressed: the import on line 1. The cfg(test) HashSet is skipped.
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].line, 1);
        let sup: Vec<_> = report.active.iter().filter(|d| d.rule == "SUP").collect();
        assert_eq!(sup.len(), 1);
        let d1: Vec<_> = report.active.iter().filter(|d| d.rule == "D1").collect();
        assert_eq!(d1.len(), 3);
        assert!(report.failed());
    }

    #[test]
    fn out_of_scope_files_untouched() {
        let config = scoped_config("[rules.D1]\ninclude = [\"crates/serve\"]\n");
        let files = vec![SourceFile::new(
            "crates/model/src/x.rs".to_string(),
            "use std::collections::HashMap;".to_string(),
            &config,
        )];
        assert!(!run(&files, &config).failed());
    }

    #[test]
    fn path_prefix_matching_is_component_wise() {
        assert!(path_in("crates/serve/src/kv.rs", "crates/serve"));
        assert!(path_in("crates/serve", "crates/serve"));
        assert!(!path_in("crates/serve2/src/kv.rs", "crates/serve"));
    }
}
