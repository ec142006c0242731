//! CLI for qem-lint.
//!
//! ```text
//! qem-lint check  [--root DIR]   # run the lint.toml rule set, exit 1 on findings
//! qem-lint vendor [--root DIR]   # offline-vendoring audit, exit 1 on findings
//! qem-lint rules  [--root DIR]   # print the rule catalogue
//! qem-lint count  [--root DIR]   # non-test lines and pub items per crate
//! ```
//!
//! Diagnostics are `file:line rule message`, one per line on stdout, sorted
//! — CI log output is deterministic like everything else here.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut root = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => root = Some(PathBuf::from(dir)),
                    None => return usage("--root needs a directory"),
                }
            }
            "check" | "vendor" | "rules" | "count" if command.is_none() => {
                command = Some(args[i].clone());
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let Some(command) = command else {
        return usage("missing subcommand");
    };

    let root = match root.or_else(qem_lint::find_repo_root) {
        Some(root) => root,
        None => {
            eprintln!("qem-lint: cannot find a repo root holding lint.toml (try --root)");
            return ExitCode::from(2);
        }
    };
    let engine = match qem_lint::load_engine(&root) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("qem-lint: {e}");
            return ExitCode::from(2);
        }
    };

    match command.as_str() {
        "rules" => {
            for (id, description) in engine.catalogue() {
                println!("{id:<28} {description}");
            }
            println!("{:<28} every dependency resolves to vendor/ or a workspace path (run `qem-lint vendor`)", "offline-vendoring");
            ExitCode::SUCCESS
        }
        "check" => report(qem_lint::check_workspace(&root, &engine), "check"),
        "vendor" => report(qem_lint::vendor::audit(&root), "vendor"),
        "count" => match qem_lint::count_workspace(&root, &engine) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("qem-lint count: io error: {e}");
                ExitCode::from(2)
            }
        },
        _ => unreachable!("parsed above"),
    }
}

fn report(findings: std::io::Result<Vec<qem_lint::rules::Finding>>, what: &str) -> ExitCode {
    match findings {
        Ok(findings) if findings.is_empty() => {
            println!("qem-lint {what}: ok");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for finding in &findings {
                println!("{finding}");
            }
            eprintln!("qem-lint {what}: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("qem-lint {what}: io error: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("qem-lint: {problem}");
    eprintln!("usage: qem-lint <check|vendor|rules|count> [--root DIR]");
    ExitCode::from(2)
}
