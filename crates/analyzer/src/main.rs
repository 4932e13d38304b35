//! The `uniq-analyzer` binary: `uniq-analyzer check [--format json]
//! [--strict] [--root <path>] [--out <file>]`. See the library docs for
//! the rule set. The same `cli::run_check` backs the `uniq analyze` verb.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use uniq_analyzer::cli::{run_check, OPTIONS_HELP};

fn usage() -> String {
    format!(
        "uniq-analyzer — static analysis for the UNIQ workspace\n\
         \n\
         USAGE:\n\
         \x20   uniq-analyzer check [OPTIONS]\n\
         \n\
         OPTIONS:\n\
         {OPTIONS_HELP}\n\
         \n\
         EXIT STATUS:\n\
         \x20   0  no unsuppressed error-severity findings\n\
         \x20   1  findings present\n\
         \x20   2  usage or I/O error"
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => ExitCode::from(run_check(&args[1..], &usage()) as u8),
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n\n{}", usage());
            ExitCode::from(2)
        }
        None => {
            eprintln!("error: missing command (expected `check`)\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}
