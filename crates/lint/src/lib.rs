//! qem-lint: the workspace invariant checker.
//!
//! The repo's core claims — bit-identical census output at any worker count,
//! golden-report-pinned engine behaviour, fully offline vendored builds —
//! were enforced only *dynamically* (determinism tests, golden reports, a CI
//! shell audit).  This crate enforces them *statically*: a hand-rolled Rust
//! lexer ([`lexer`]) feeds a rules engine ([`rules`]) driven by the committed
//! `lint.toml` ([`config`]), and a vendoring audit ([`vendor`]) ports the CI
//! metadata shell step into tested Rust.  See `DESIGN.md` § static analysis
//! for the rule catalogue and how to add a rule.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod rules;
pub mod vendor;

use rules::{Engine, Finding};
use std::path::{Path, PathBuf};

/// Default config file name, looked up at the repo root.
pub const CONFIG_FILE: &str = "lint.toml";

/// Load `lint.toml` from the repo root and compile it.
pub fn load_engine(repo_root: &Path) -> Result<Engine, String> {
    let path = repo_root.join(CONFIG_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let config = config::parse(&text).map_err(|e| e.to_string())?;
    Ok(Engine::new(&config))
}

/// All `.rs` files under the repo root with their text, as (repo-relative
/// `/`-separated path, source) pairs sorted by path, excluding whatever the
/// engine skips outright.
fn source_files(repo_root: &Path, engine: &Engine) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![repo_root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = relative(repo_root, &path);
            if engine.skips(&rel) {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                files.push(rel);
            }
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|rel| Ok((rel.clone(), std::fs::read_to_string(repo_root.join(&rel))?)))
        .collect()
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run every pattern/structural rule over the workspace sources, plus the
/// cross-file `unused-pub` pass and the crate-root `#![forbid(unsafe_code)]`
/// audit.
pub fn check_workspace(repo_root: &Path, engine: &Engine) -> std::io::Result<Vec<Finding>> {
    let files = source_files(repo_root, engine)?;
    let mut findings: Vec<Finding> = files
        .iter()
        .flat_map(|(rel, source)| engine.check_file(rel, source))
        .collect();
    findings.extend(engine.check_unused_pub(&files));
    findings.extend(check_forbid_unsafe(repo_root, engine)?);
    findings.sort();
    findings.dedup();
    Ok(findings)
}

/// The `qem-lint count` table: non-test lines and `pub` items of every
/// crate under `crates/*/src`, and in total.
pub fn count_workspace(repo_root: &Path, engine: &Engine) -> std::io::Result<String> {
    Ok(rules::count(&source_files(repo_root, engine)?))
}

/// Crate-root audit: a workspace crate whose sources contain no `unsafe`
/// must say so — `#![forbid(unsafe_code)]` in every target root (`lib.rs`,
/// `main.rs`) — so a later `unsafe` is a compile error, not a code review
/// hope.  Crates that *do* contain `unsafe` are covered by the per-block
/// SAFETY-comment rule instead.
pub fn check_forbid_unsafe(repo_root: &Path, engine: &Engine) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for crate_dir in workspace_crate_dirs(repo_root)? {
        let src = crate_dir.join("src");
        let rel_src = relative(repo_root, &src);
        if !engine.unsafe_hygiene_covers(&rel_src) || engine.skips(&rel_src) {
            continue;
        }
        let mut crate_has_unsafe = false;
        let mut stack = vec![src.clone()];
        let mut sources = Vec::new();
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
                    sources.push(path);
                }
            }
        }
        for path in &sources {
            let text = std::fs::read_to_string(path)?;
            if rules::has_unsafe_token(&text) {
                crate_has_unsafe = true;
                break;
            }
        }
        if crate_has_unsafe {
            continue; // per-block SAFETY rule applies instead
        }
        for root in ["lib.rs", "main.rs"] {
            let root_path = src.join(root);
            if !root_path.is_file() {
                continue;
            }
            let text = std::fs::read_to_string(&root_path)?;
            if !rules::has_forbid_unsafe(&text) {
                findings.push(Finding {
                    file: relative(repo_root, &root_path),
                    line: 1,
                    rule: "unsafe-hygiene".to_string(),
                    message: "crate has no unsafe code but its root does not declare \
                              `#![forbid(unsafe_code)]`"
                        .to_string(),
                });
            }
        }
    }
    Ok(findings)
}

/// Directories of workspace member crates (from the root manifest's
/// `members` list) plus the root package itself, excluding `vendor/`.
fn workspace_crate_dirs(repo_root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let manifest = std::fs::read_to_string(repo_root.join("Cargo.toml"))?;
    let mut dirs = Vec::new();
    // The root manifest declares both the workspace and the facade package.
    if manifest.contains("[package]") {
        dirs.push(repo_root.to_path_buf());
    }
    let mut in_members = false;
    for line in manifest.lines() {
        let trimmed = line.split('#').next().unwrap_or("").trim();
        if trimmed.starts_with("members") {
            in_members = true;
        }
        if in_members {
            for piece in trimmed.split('"').skip(1).step_by(2) {
                if !piece.starts_with("vendor/") {
                    dirs.push(repo_root.join(piece));
                }
            }
            if trimmed.contains(']') {
                in_members = false;
            }
        }
    }
    Ok(dirs)
}

/// Locate the repo root from the current directory or `CARGO_MANIFEST_DIR`:
/// the nearest ancestor holding `lint.toml`.
pub fn find_repo_root() -> Option<PathBuf> {
    let start = std::env::current_dir().ok()?;
    let mut dir = Some(start.as_path());
    while let Some(d) = dir {
        if d.join(CONFIG_FILE).is_file() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}
