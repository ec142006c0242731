//! The rules engine: applies the configured rules to lexed source files.
//!
//! Three exemption layers, checked in order:
//!
//! 1. **Built-in allow zones** — paths under `tests/`, `benches/`,
//!    `examples/`, `vendor/` and `target/` are never checked by pattern
//!    rules: test scaffolding legitimately unwraps, sleeps and hashes.
//! 2. **In-file test code** — `#[cfg(test)] mod … { … }` bodies are masked
//!    out, so unit tests co-located with hot-path code stay exempt.
//!    `unused-pub` and `qem-lint count` mask every other `#[cfg(test)]`
//!    item too.
//! 3. **Line annotations** — `// lint: allow(<rule>[, <rule>…])` suppresses
//!    the named rules on the comment's line *and* the line after it, so both
//!    trailing and preceding comment styles work.  Every annotation should
//!    carry a justification after the closing parenthesis.

use crate::config::{Config, RuleConfig};
use crate::lexer::{self, Comment, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One diagnostic: `file:line rule message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Rule id.
    pub rule: String,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A compiled deny pattern: a contiguous token sequence.
#[derive(Debug, Clone)]
struct Pattern {
    source: String,
    tokens: Vec<TokenKind>,
}

impl Pattern {
    /// Compile `"std :: fs"` → `[Ident(std), Punct(:), Punct(:), Ident(fs)]`.
    /// A whitespace-separated word of identifier characters matches one
    /// identifier exactly; any other word matches its characters as
    /// consecutive punctuation.
    fn compile(source: &str) -> Pattern {
        let mut tokens = Vec::new();
        for word in source.split_whitespace() {
            let is_ident = word.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && word
                    .chars()
                    .next()
                    .map(|c| c.is_ascii_alphabetic() || c == '_')
                    .unwrap_or(false);
            if is_ident {
                tokens.push(TokenKind::Ident(word.to_string()));
            } else {
                for c in word.chars() {
                    tokens.push(TokenKind::Punct(c));
                }
            }
        }
        Pattern {
            source: source.to_string(),
            tokens,
        }
    }

    fn matches_at(&self, tokens: &[Token], at: usize) -> bool {
        if at + self.tokens.len() > tokens.len() {
            return false;
        }
        self.tokens
            .iter()
            .zip(&tokens[at..])
            .all(|(want, got)| *want == got.kind)
    }
}

/// A compiled rule.
struct CompiledRule {
    config: RuleConfig,
    patterns: Vec<Pattern>,
}

/// The engine: compiled rules plus global skip list.
pub struct Engine {
    skip: Vec<String>,
    rules: Vec<CompiledRule>,
}

/// Directory components that make a path test scaffolding (built-in allow
/// zone for pattern rules).
const SCAFFOLD_DIRS: [&str; 3] = ["tests", "benches", "examples"];

/// Paths never linted at all.
const HARD_SKIP: [&str; 3] = ["target", "vendor", ".git"];

impl Engine {
    /// Compile a parsed config.
    pub fn new(config: &Config) -> Engine {
        Engine {
            skip: config.skip.clone(),
            rules: config
                .rules
                .values()
                .map(|rule| CompiledRule {
                    config: rule.clone(),
                    patterns: rule.deny.iter().map(|p| Pattern::compile(p)).collect(),
                })
                .collect(),
        }
    }

    /// True if `path` (repo-relative, `/`-separated) is excluded from all
    /// linting.
    pub fn skips(&self, path: &str) -> bool {
        HARD_SKIP.iter().any(|dir| first_component_is(path, dir))
            || self.skip.iter().any(|z| zone_matches(z, path))
    }

    /// Lint one file's source text.  `path` must be repo-relative with `/`
    /// separators.
    pub fn check_file(&self, path: &str, source: &str) -> Vec<Finding> {
        if self.skips(path) {
            return Vec::new();
        }
        let lexed = lexer::lex(source);
        let scaffold = is_scaffold(path);
        let test_mask = test_code_mask(&lexed.tokens, false);
        let suppressions = Suppressions::collect(&lexed.comments);
        let mut findings = Vec::new();

        for rule in &self.rules {
            let in_zone = rule.config.zones.iter().any(|z| zone_matches(z, path));
            if !in_zone {
                continue;
            }
            if rule.config.allow.iter().any(|z| zone_matches(z, path)) {
                continue;
            }
            if rule.config.id == "unsafe-hygiene" {
                // Structural: applies to scaffolding too — an unsafe block in
                // a test still needs its SAFETY comment.
                findings.extend(check_unsafe_hygiene(
                    rule,
                    path,
                    &lexed.tokens,
                    &lexed.comments,
                    &suppressions,
                ));
                continue;
            }
            if scaffold {
                continue;
            }
            for (i, token) in lexed.tokens.iter().enumerate() {
                if test_mask[i] {
                    continue;
                }
                for pattern in &rule.patterns {
                    if pattern.matches_at(&lexed.tokens, i)
                        && !suppressions.allows(&rule.config.id, token.line)
                    {
                        findings.push(Finding {
                            file: path.to_string(),
                            line: token.line,
                            rule: rule.config.id.clone(),
                            message: format!(
                                "denied pattern `{}`{}{}",
                                pattern.source,
                                if rule.config.message.is_empty() {
                                    ""
                                } else {
                                    "; "
                                },
                                rule.config.message
                            ),
                        });
                    }
                }
            }
        }
        findings.sort();
        findings.dedup();
        findings
    }

    /// Rule ids and descriptions, for `qem-lint rules`.
    pub fn catalogue(&self) -> Vec<(String, String)> {
        self.rules
            .iter()
            .map(|r| (r.config.id.clone(), r.config.description.clone()))
            .collect()
    }

    /// True if some configured rule's zones cover `path` — used by the
    /// crate-root `#![forbid(unsafe_code)]` audit to know which crates are
    /// in scope.
    pub fn unsafe_hygiene_covers(&self, path: &str) -> bool {
        self.rules
            .iter()
            .filter(|r| r.config.id == "unsafe-hygiene")
            .any(|r| r.config.zones.iter().any(|z| zone_matches(z, path)))
    }

    /// `unused-pub`, one pass over every workspace source: a `pub` item
    /// defined in the rule's zones whose name no production source
    /// (`crates/*/src`, `src/`, `examples/`, every `#[cfg(test)]` item
    /// masked) names as an identifier, apart from the definitions of that
    /// name themselves.  An item declared in an `impl` block can only be
    /// reached as `.name(…)` or `Path::name`, so only a call after `.` —
    /// `name` followed by `(` or `::<` — or a name after `::` uses it: a
    /// local or a field read of the same name does not.  Name-based, so a
    /// same-named item anywhere counts as a use: the rule can miss a dead
    /// item but never lists a live one.  Its blind spot is a method that
    /// production calls by its name only on another type (`to_owned`,
    /// `len`, `report`); renaming one definition at a time in a throwaway
    /// copy of the tree and building the libraries, examples and
    /// `benchmark/` without their tests finds those.
    ///
    /// An `allow(unused-pub)` annotation that suppresses nothing is a
    /// finding too: one whose lines define no `pub` item, one whose item
    /// has a production use, and one whose reason starts with `benchmark`
    /// while no file under `benchmark/src` names its item.
    /// `files` holds (repo-relative path, source) pairs.
    pub fn check_unused_pub(&self, files: &[(String, String)]) -> Vec<Finding> {
        let Some(rule) = self.rules.iter().find(|r| r.config.id == "unused-pub") else {
            return Vec::new();
        };
        let id = rule.config.id.as_str();
        let mut named: BTreeMap<String, usize> = BTreeMap::new();
        let mut defined: BTreeMap<String, usize> = BTreeMap::new();
        // Names called after `.` or named after `::`, the only ways to
        // reach an associated item.
        let mut qualified: BTreeSet<String> = BTreeSet::new();
        let mut benchmark_names: BTreeSet<String> = BTreeSet::new();
        // Per reported file: its definitions and its `unused-pub` annotations.
        let mut reported_files = Vec::new();
        for (path, source) in files {
            let lexed = lexer::lex(source);
            if path.starts_with("benchmark/src/") {
                benchmark_names.extend(lexed.tokens.iter().filter_map(ident).map(str::to_string));
            }
            if !is_production(path) || self.skips(path) {
                continue;
            }
            let test_mask = test_code_mask(&lexed.tokens, true);
            let impl_mask = impl_body_mask(&lexed.tokens);
            let mut definitions = Vec::new();
            for (i, token) in lexed.tokens.iter().enumerate() {
                let Some(name) = ident(token).filter(|_| !test_mask[i]) else {
                    continue;
                };
                *named.entry(name.to_string()).or_default() += 1;
                let punct = |back: usize, c: char| {
                    i.checked_sub(back)
                        .is_some_and(|at| lexed.tokens[at].kind == TokenKind::Punct(c))
                };
                let ahead = |on: usize, c: char| {
                    lexed
                        .tokens
                        .get(i + on)
                        .is_some_and(|t| t.kind == TokenKind::Punct(c))
                };
                let called = ahead(1, '(') || ahead(1, ':') && ahead(2, ':') && ahead(3, '<');
                if punct(1, '.') && called || punct(1, ':') && punct(2, ':') {
                    qualified.insert(name.to_string());
                }
                if let Some(item) = pub_item_name(&lexed.tokens, i) {
                    *defined.entry(item.to_string()).or_default() += 1;
                    definitions.push((token.line, item.to_string(), impl_mask[i]));
                }
            }
            if rule.config.zones.iter().any(|z| zone_matches(z, path))
                && !rule.config.allow.iter().any(|z| zone_matches(z, path))
            {
                reported_files.push((path, definitions, Suppressions::collect(&lexed.comments)));
            }
        }
        let used = |&(_, ref item, associated): &(u32, String, bool)| match associated {
            true => qualified.contains(item),
            false => named.get(item) != defined.get(item),
        };
        let mut findings = Vec::new();
        for (path, definitions, suppressions) in &reported_files {
            let mut report = |line, message| {
                findings.push(Finding {
                    file: path.to_string(),
                    line,
                    rule: id.to_string(),
                    message,
                })
            };
            for definition @ &(line, ref item, _) in definitions {
                if !used(definition) && !suppressions.allows(id, line) {
                    report(
                        line,
                        format!("`{item}` has no caller outside tests and benchmark/"),
                    );
                }
            }
            for &(_, line, ref reason) in suppressions.entries.iter().filter(|e| e.0 == id) {
                let covered: Vec<_> = definitions
                    .iter()
                    .filter(|&&(at, ..)| at == line || at == line + 1)
                    .collect();
                let stale = covered.iter().filter_map(|&definition @ (_, item, _)| {
                    if used(definition) {
                        Some(format!(
                            "`{item}` has a caller outside tests and benchmark/"
                        ))
                    } else if reason.starts_with("benchmark") && !benchmark_names.contains(item) {
                        Some(format!("no file under benchmark/src names `{item}`"))
                    } else {
                        None
                    }
                });
                let nothing = covered
                    .is_empty()
                    .then(|| "it covers no `pub` item".to_string());
                for why in nothing.into_iter().chain(stale) {
                    report(line, format!("stale `allow(unused-pub)`: {why}"));
                }
            }
        }
        findings
    }
}

/// The `qem-lint count` table: for every crate under `crates/*/src`, by
/// directory name, then in total, the lines on which a token outside test
/// code starts (so comments, blank lines and `#[cfg(test)]` items do not
/// count) and the `pub` definitions `unused-pub` reads.  `files` holds
/// (repo-relative path, source) pairs.
pub(crate) fn count(files: &[(String, String)]) -> String {
    let mut crates: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (path, source) in files {
        if !zone_matches("crates/*/src", path) || !is_production(path) {
            continue;
        }
        let lexed = lexer::lex(source);
        let test_mask = test_code_mask(&lexed.tokens, true);
        let mut lines = BTreeSet::new();
        let (line_count, items) = crates
            .entry(path.split('/').nth(1).unwrap_or(""))
            .or_default();
        for (i, token) in lexed
            .tokens
            .iter()
            .enumerate()
            .filter(|&(i, _)| !test_mask[i])
        {
            lines.insert(token.line);
            *items += usize::from(pub_item_name(&lexed.tokens, i).is_some());
        }
        *line_count += lines.len();
    }
    let total = crates
        .values()
        .fold((0, 0), |sum, c| (sum.0 + c.0, sum.1 + c.1));
    let mut table = format!("{:<12} {:>8} {:>5}\n", "crate", "lines", "pub");
    for (name, (lines, items)) in crates.into_iter().chain([("total", total)]) {
        table += &format!("{name:<12} {lines:>8} {items:>5}\n");
    }
    table
}

/// Whether `path` is production source for `unused-pub` and `count`:
/// under `crates/*/src`, `src/` or `examples/`, and in no `tests`
/// directory.
fn is_production(path: &str) -> bool {
    (path.starts_with("src/")
        || path.starts_with("examples/")
        || zone_matches("crates/*/src", path))
        && !path.split('/').any(|c| c == "tests")
}

/// The identifier a token holds, if it is one.
fn ident(token: &Token) -> Option<&str> {
    match &token.kind {
        TokenKind::Ident(name) => Some(name),
        _ => None,
    }
}

/// Item keywords the `unused-pub` rule reads after `pub`.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// If the token at `i` is `pub` followed by an item keyword (`pub const fn`
/// and `pub unsafe fn` included), the item's name.
fn pub_item_name(tokens: &[Token], i: usize) -> Option<&str> {
    let ident = |at: usize| tokens.get(at).and_then(ident);
    if ident(i) != Some("pub") {
        return None;
    }
    let mut at = i + 1;
    if matches!(ident(at), Some("const" | "unsafe")) && ident(at + 1) == Some("fn") {
        at += 1;
    }
    ident(at).filter(|kw| ITEM_KEYWORDS.contains(kw))?;
    ident(at + 1)
}

/// Mask of the bodies of `impl` blocks: the tokens from each block's `{` to
/// its `}`.  An `impl` starts a block only where an item can start — first
/// in the file, after `}`, `;`, `{`, an attribute's `]` or `unsafe` — so
/// `-> impl Trait` and `x: impl Trait` are not blocks.
fn impl_body_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    for (i, token) in tokens.iter().enumerate() {
        let item_start = i == 0
            || matches!(tokens[i - 1].kind, TokenKind::Punct('}' | ';' | '{' | ']'))
            || ident(&tokens[i - 1]) == Some("unsafe");
        if !item_start || ident(token) != Some("impl") {
            continue;
        }
        if let Some(open) = (i..tokens.len()).find(|&at| tokens[at].kind == TokenKind::Punct('{')) {
            mask[open..group_end(tokens, open)].fill(true);
        }
    }
    mask
}

/// `unsafe` tokens need an adjacent `// SAFETY:` comment (same line or one
/// of the three lines above).
fn check_unsafe_hygiene(
    rule: &CompiledRule,
    path: &str,
    tokens: &[Token],
    comments: &[Comment],
    suppressions: &Suppressions,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for token in tokens {
        if token.kind != TokenKind::Ident("unsafe".to_string()) {
            continue;
        }
        if suppressions.allows(&rule.config.id, token.line) {
            continue;
        }
        let justified = comments.iter().any(|c| {
            c.text.contains("SAFETY:")
                && c.line <= token.line
                && token.line.saturating_sub(c.line) <= 3
        });
        if !justified {
            findings.push(Finding {
                file: path.to_string(),
                line: token.line,
                rule: rule.config.id.clone(),
                message: "`unsafe` without an adjacent `// SAFETY:` justification".to_string(),
            });
        }
    }
    findings
}

/// Check a crate root for `#![forbid(unsafe_code)]`.
pub fn has_forbid_unsafe(source: &str) -> bool {
    let lexed = lexer::lex(source);
    let want = [
        TokenKind::Punct('#'),
        TokenKind::Punct('!'),
        TokenKind::Punct('['),
        TokenKind::Ident("forbid".to_string()),
        TokenKind::Punct('('),
        TokenKind::Ident("unsafe_code".to_string()),
        TokenKind::Punct(')'),
        TokenKind::Punct(']'),
    ];
    lexed
        .tokens
        .windows(want.len())
        .any(|w| w.iter().zip(&want).all(|(got, wanted)| got.kind == *wanted))
}

/// True if the file holds any `unsafe` token at all.
pub fn has_unsafe_token(source: &str) -> bool {
    lexer::lex(source)
        .tokens
        .iter()
        .any(|t| t.kind == TokenKind::Ident("unsafe".to_string()))
}

/// Per-line rule suppressions from `// lint: allow(a, b) <reason>` comments.
struct Suppressions {
    /// (rule id, line, reason) triples; an entry on line L covers L and L+1.
    entries: Vec<(String, u32, String)>,
}

impl Suppressions {
    fn collect(comments: &[Comment]) -> Suppressions {
        let mut entries = Vec::new();
        for comment in comments {
            let Some(idx) = comment.text.find("lint: allow(") else {
                continue;
            };
            let rest = &comment.text[idx + "lint: allow(".len()..];
            let Some(end) = rest.find(')') else { continue };
            let reason = rest[end + 1..].trim();
            for rule in rest[..end].split(',') {
                entries.push((rule.trim().to_string(), comment.line, reason.to_string()));
            }
        }
        Suppressions { entries }
    }

    fn allows(&self, rule: &str, line: u32) -> bool {
        self.entries
            .iter()
            .any(|(r, l, _)| r == rule && (line == *l || line == *l + 1))
    }
}

/// Mask of test code: the tokens of every `#[cfg(test)] mod … { … }`, and
/// with `items` those of every other `#[cfg(test)]`-attributed item (a
/// `fn`, a `const`, a `use`, a field…) too.  Pattern rules mask modules
/// only; `unused-pub` and `count` mask every item, so a name used only in
/// a `#[cfg(test)] fn` is not a production use.
fn test_code_mask(tokens: &[Token], items: bool) -> Vec<bool> {
    let cfg_test = Pattern::compile("# [ cfg ( test ) ]");
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        match cfg_test_item_at(&cfg_test, tokens, i, items) {
            Some(end) => {
                mask[i..end].fill(true);
                i = end;
            }
            None => i += 1,
        }
    }
    mask
}

/// If tokens at `i` start `#[cfg(test)]` (the `cfg_test` pattern) on an
/// item — only on a `mod <name> { … }` unless `items` — the index one past
/// the item's last token.  Tolerates further attributes between the cfg
/// and the item.
fn cfg_test_item_at(cfg_test: &Pattern, tokens: &[Token], i: usize, items: bool) -> Option<usize> {
    if !cfg_test.matches_at(tokens, i) {
        return None;
    }
    let kind = |at: usize| tokens.get(at).map(|t| &t.kind);
    // Skip any further `#[…]` attributes.
    let mut j = i + cfg_test.tokens.len();
    while kind(j) == Some(&TokenKind::Punct('#')) {
        j = group_end(tokens, j + 1);
    }
    // mod <name> {  — a `mod name;` declaration has no body to mask.
    let is_mod = kind(j) == Some(&TokenKind::Ident("mod".to_string()))
        && kind(j + 2) == Some(&TokenKind::Punct('{'));
    (items || is_mod).then(|| item_end(tokens, j))
}

/// One past the last token of the item starting at `start`: its `;` or
/// `,`, or the close of its first brace block (with a `;` right after it),
/// whichever comes first outside nested groups.  Never runs past a closing
/// delimiter of the enclosing scope.
fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut j = start;
    while let Some(token) = tokens.get(j) {
        match token.kind {
            TokenKind::Punct('{') => {
                let end = group_end(tokens, j);
                let semi = tokens.get(end).map(|t| &t.kind) == Some(&TokenKind::Punct(';'));
                return end + usize::from(semi);
            }
            TokenKind::Punct('(' | '[') => j = group_end(tokens, j),
            TokenKind::Punct(')' | ']' | '}') => return j,
            TokenKind::Punct(';' | ',') => return j + 1,
            _ => j += 1,
        }
    }
    tokens.len()
}

/// One past the delimiter that closes the group opening at `open`.
fn group_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, token) in tokens.iter().enumerate().skip(open) {
        match token.kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// True if the path sits in a built-in scaffold directory.
fn is_scaffold(path: &str) -> bool {
    path.split('/')
        .any(|component| SCAFFOLD_DIRS.contains(&component))
}

fn first_component_is(path: &str, dir: &str) -> bool {
    path.split('/').next() == Some(dir)
}

/// Zone / allow matching: a pattern without glob characters matches the path
/// itself and anything under it (component-boundary prefix); `*` matches
/// within one component, `**` across components.
pub fn zone_matches(pattern: &str, path: &str) -> bool {
    if !pattern.contains('*') {
        return path == pattern
            || path
                .strip_prefix(pattern)
                .map(|rest| rest.starts_with('/'))
                .unwrap_or(false);
    }
    glob_match(
        &pattern.split('/').collect::<Vec<_>>(),
        &path.split('/').collect::<Vec<_>>(),
    )
}

fn glob_match(pattern: &[&str], path: &[&str]) -> bool {
    match (pattern.first(), path.first()) {
        // An exhausted pattern matched a prefix of the path: zones cover
        // everything under them, so that is a match.
        (None, _) => true,
        (Some(&"**"), _) => {
            glob_match(&pattern[1..], path) || (!path.is_empty() && glob_match(pattern, &path[1..]))
        }
        (Some(p), Some(c)) => component_match(p, c) && glob_match(&pattern[1..], &path[1..]),
        _ => false,
    }
}

fn component_match(pattern: &str, component: &str) -> bool {
    // `*`-only wildcard matching within one path component.
    let parts: Vec<&str> = pattern.split('*').collect();
    if parts.len() == 1 {
        return pattern == component;
    }
    let mut rest = component;
    for (i, part) in parts.iter().enumerate() {
        if i == 0 {
            let Some(r) = rest.strip_prefix(part) else {
                return false;
            };
            rest = r;
        } else if i == parts.len() - 1 {
            return part.is_empty() || rest.ends_with(part);
        } else if let Some(found) = rest.find(part) {
            rest = &rest[found + part.len()..];
        } else {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;

    fn engine(toml: &str) -> Engine {
        Engine::new(&config::parse(toml).expect("config parses"))
    }

    const DETERMINISM: &str = r#"
[rule.no-unordered-collections]
zones = ["crates/demo/src"]
deny = ["HashMap", "HashSet"]
message = "use BTreeMap/BTreeSet"
"#;

    #[test]
    fn fires_on_code_not_on_strings_or_comments() {
        let e = engine(DETERMINISM);
        let source = r#"
// HashMap in a comment
let s = "HashMap in a string";
let m: HashMap<u32, u32> = HashMap::new();
"#;
        let findings = e.check_file("crates/demo/src/lib.rs", source);
        // Two mentions on one line dedup to a single diagnostic.
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
        assert_eq!(findings[0].rule, "no-unordered-collections");
    }

    #[test]
    fn zones_limit_where_rules_fire() {
        let e = engine(DETERMINISM);
        assert!(e
            .check_file("crates/other/src/lib.rs", "let m = HashMap::new();")
            .is_empty());
    }

    #[test]
    fn scaffold_paths_are_exempt() {
        let e = engine(DETERMINISM);
        assert!(e
            .check_file("crates/demo/src/tests/helper.rs", "HashMap::new();")
            .is_empty());
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let e = engine(DETERMINISM);
        let source = r#"
pub fn hot() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _ = HashMap::<u8, u8>::new(); }
}
"#;
        assert!(e.check_file("crates/demo/src/lib.rs", source).is_empty());
    }

    #[test]
    fn annotations_suppress_same_and_next_line() {
        let e = engine(DETERMINISM);
        let trailing =
            "let m = HashMap::new(); // lint: allow(no-unordered-collections) lookup-only";
        assert!(e.check_file("crates/demo/src/lib.rs", trailing).is_empty());
        let preceding =
            "// lint: allow(no-unordered-collections) lookup-only\nlet m = HashMap::new();";
        assert!(e.check_file("crates/demo/src/lib.rs", preceding).is_empty());
        let wrong_rule = "let m = HashMap::new(); // lint: allow(panic-policy)";
        assert_eq!(e.check_file("crates/demo/src/lib.rs", wrong_rule).len(), 1);
    }

    #[test]
    fn multi_token_patterns() {
        let e = engine(
            r#"
[rule.panic-policy]
zones = ["crates/demo/src"]
deny = [". unwrap", "panic !"]
"#,
        );
        let source = "fn f(x: Option<u8>) -> u8 { let y = x.unwrap(); panic!(\"boom\"); }";
        let findings = e.check_file("crates/demo/src/hot.rs", source);
        assert_eq!(findings.len(), 2);
        // `unwrap_or` must not match `. unwrap`.
        let ok = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }";
        assert!(e.check_file("crates/demo/src/hot.rs", ok).is_empty());
    }

    #[test]
    fn unsafe_hygiene_wants_safety_comments() {
        let e = engine(
            r#"
[rule.unsafe-hygiene]
zones = ["crates"]
"#,
        );
        let bad = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(e.check_file("crates/demo/src/lib.rs", bad).len(), 1);
        let good = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}";
        assert!(e.check_file("crates/demo/src/lib.rs", good).is_empty());
    }

    #[test]
    fn forbid_attribute_detection() {
        assert!(has_forbid_unsafe("#![forbid(unsafe_code)]\npub fn f() {}"));
        assert!(!has_forbid_unsafe(
            "//! #![forbid(unsafe_code)] in a doc\npub fn f() {}"
        ));
        assert!(!has_forbid_unsafe("#![deny(unsafe_code)]"));
    }

    #[test]
    fn zone_glob_matching() {
        assert!(zone_matches(
            "crates/netsim/src",
            "crates/netsim/src/engine.rs"
        ));
        assert!(!zone_matches(
            "crates/netsim/src",
            "crates/netsim/srcx/e.rs"
        ));
        assert!(zone_matches("crates/*/src", "crates/quic/src/lib.rs"));
        assert!(zone_matches("**/fixtures", "crates/lint/tests/fixtures"));
        assert!(zone_matches("crates/**", "crates/a/b/c.rs"));
        assert!(!zone_matches("crates/*/src", "crates/quic/benches/b.rs"));
    }
}
