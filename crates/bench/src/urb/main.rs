//! `urb` — the reproduction's one executable.
//!
//! * `urb exp <name>|list|all` runs rows of [`bench::exp::EXPERIMENTS`];
//!   `all` walks the table in process, and since every row prints its
//!   `=== RUN <name> ===` header first, its stdout *is*
//!   `experiments_output.txt`.
//! * `urb chaos [<campaign>] …` runs a fault-injection campaign
//!   ([`chaos`]).
//! * `urb trace <command> …` records and inspects JSONL telemetry traces
//!   ([`trace`]).
//!
//! A command line the tables cannot resolve — an unknown subcommand,
//! experiment, campaign or flag — prints why and the usage (with the
//! valid names) to stderr and exits 2.

use std::process::ExitCode;

use bench::exp::EXPERIMENTS;

mod chaos;
mod trace;

fn usage() -> String {
    let experiments: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let campaigns: Vec<_> = chaos::CAMPAIGNS[1..].iter().map(|c| c.name).collect();
    format!(
        "usage: urb exp <experiment>|list|all\n       \
         urb chaos [<campaign>] [--seed N] [--runs M] [--strict] [--verbose] [--only RUN] \
         [--json] [--policies a,b,..]\n       \
         urb trace record <out.jsonl> [--seed N] [--degraded]\n       \
         urb trace summary|timeline <trace.jsonl>\n       \
         urb trace diff <a.jsonl> <b.jsonl>\n       \
         urb trace verify <trace.jsonl> [--strict]\n\
         experiments: {}\n\
         campaigns: {} (none: the classic campaign; --json where the campaign writes a \
         report, --policies on a policy sweep)",
        experiments.join(", "),
        campaigns.join(", "),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "exp" => exp(rest),
            "chaos" => chaos::run(rest),
            "trace" => trace::run(rest),
            other => Err(format!("unknown subcommand {other:?}")),
        },
        None => Err("no subcommand".into()),
    };
    result.unwrap_or_else(|why| {
        eprintln!("urb: {why}\n{}", usage());
        ExitCode::from(2)
    })
}

/// The numeric value of `flag`, taken from the rest of the command line.
fn number(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<u64, String> {
    it.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number"))
}

/// `urb exp`: lists the table, or runs one row or all of them. Every row
/// runs even after one fails; the failed ones are listed and the exit
/// code is 1.
fn exp(args: &[String]) -> Result<ExitCode, String> {
    let [name] = args else {
        return Err("exp takes one argument".into());
    };
    let rows = match name.as_str() {
        "list" => {
            for e in &EXPERIMENTS {
                println!("{:<18} {}", e.name, e.title);
            }
            return Ok(ExitCode::SUCCESS);
        }
        "all" => &EXPERIMENTS[..],
        name => EXPERIMENTS
            .iter()
            .find(|e| e.name == name)
            .map(std::slice::from_ref)
            .ok_or_else(|| format!("unknown experiment {name:?}"))?,
    };
    let mut failed = Vec::new();
    for e in rows {
        println!("=== RUN {} ===", e.name);
        if let Err(why) = (e.run)() {
            eprintln!("{}: {why}", e.name);
            failed.push(e.name);
        }
    }
    if failed.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!("failed: {}", failed.join(", "));
    Ok(ExitCode::FAILURE)
}
