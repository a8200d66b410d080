//! CLI entry point for the workspace lint pass.
//!
//! ```text
//! cargo run -p cpg-lint [--release] [ROOT]
//! ```
//!
//! `ROOT` defaults to the current directory (the workspace root when run
//! via cargo). Exits non-zero if any rule fires; see the library docs for
//! the rule catalogue.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    match cpg_lint::run(&root) {
        Ok((findings, scanned)) => {
            if scanned == 0 {
                eprintln!(
                    "cpg-lint: scanned no files under {} — wrong root?",
                    root.display()
                );
                ExitCode::FAILURE
            } else if findings.is_empty() {
                println!("cpg-lint: clean ({scanned} files scanned)");
                ExitCode::SUCCESS
            } else {
                for finding in &findings {
                    eprintln!("{finding}");
                }
                eprintln!("cpg-lint: {} violation(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("cpg-lint: cannot scan {}: {error}", root.display());
            ExitCode::FAILURE
        }
    }
}
