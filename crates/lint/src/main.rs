//! The `urb-lint` binary: lints the workspace and reports violations.
//!
//! ```text
//! urb-lint [--root PATH] [--deny-all]
//! ```
//!
//! Diagnostics go to stdout, one per line: `path:line: urb-lint[RULE]
//! message; fix: …` (the shape the repo's GitHub problem matcher parses
//! into annotations). Without `--deny-all` the run is advisory (exit 0);
//! with it, any violation exits 1. Usage or I/O errors, and a root with no
//! simulation crate under it, exit 2.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny_all = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(p) = args.next() else {
                    eprintln!("urb-lint: --root needs a path");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(p);
            }
            "--deny-all" => deny_all = true,
            "--help" | "-h" => {
                println!("usage: urb-lint [--root PATH] [--deny-all]");
                println!();
                println!("rules:");
                for (id, what) in urb_lint::RULES {
                    println!("  {id}  {what}");
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("urb-lint: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let diags = match urb_lint::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("urb-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        eprintln!("urb-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "urb-lint: {} violation(s){}",
            diags.len(),
            if deny_all {
                ""
            } else {
                " (advisory; pass --deny-all to gate)"
            }
        );
        if deny_all {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}
