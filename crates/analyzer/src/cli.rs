//! The command-line driver, shared between the standalone
//! `uniq-analyzer` binary and the `uniq analyze` verb. Both present the
//! same options and the same 0/1/2 exit contract (0 clean, 1 findings,
//! 2 usage or I/O error), so CI can gate on either entry point.

use std::path::PathBuf;

use crate::diagnostics::{to_json_report, ReportSummary, Severity};
use crate::workspace::{analyze_workspace_with, find_root};

/// The option block shared by both entry points, for embedding in each
/// binary's usage text.
pub const OPTIONS_HELP: &str = "\
\x20   --format <text|json>   output format (default: text)\n\
\x20   --strict               also run audit-level warning rules\n\
\x20   --root <path>          workspace root (default: auto-detect\n\
\x20                          from the current directory)\n\
\x20   --out <file>           also write the JSON findings report\n\
\x20                          (schema 1: summary + findings) there";

/// Wall-time budget of one run, seconds: a run over it warns on stderr.
const BUDGET_SECONDS: f64 = 10.0;

struct Options {
    json: bool,
    strict: bool,
    root: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        strict: false,
        root: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => opts.json = true,
                Some("text") => opts.json = false,
                other => return Err(format!("--format expects text|json, got {other:?}")),
            },
            "--strict" => opts.strict = true,
            "--root" => match it.next() {
                Some(p) => opts.root = Some(PathBuf::from(p)),
                None => return Err("--root expects a path".to_string()),
            },
            "--out" => match it.next() {
                Some(p) => opts.out = Some(PathBuf::from(p)),
                None => return Err("--out expects a path".to_string()),
            },
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// Runs a whole-workspace check from option arguments (everything after
/// the `check`/`analyze` verb). Prints to stdout/stderr and returns the
/// process exit code: 0 clean, 1 findings, 2 usage or I/O error. Parse
/// errors print `usage` after the message.
pub fn run_check(args: &[String], usage: &str) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{usage}");
            return 2;
        }
    };

    let root = match opts
        .root
        .or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd)))
    {
        Some(r) => r,
        None => {
            eprintln!("error: could not locate the workspace root (pass --root)");
            return 2;
        }
    };

    // Self-timed via the obs stopwatch: the analyzer is a CI gate with a
    // wall-time budget, and it confines its clock reads to obs like
    // everyone else.
    let watch = uniq_obs::Stopwatch::start();
    let report = match analyze_workspace_with(&root, opts.strict) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: analysis failed: {e}");
            return 2;
        }
    };
    let elapsed = watch.elapsed_seconds();

    let errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = report.diagnostics.len() - errors;
    let summary = ReportSummary {
        files: report.files_analyzed,
        suppressions: report.suppressions,
        stale_suppressions: report.stale_suppressions,
        strict: opts.strict,
    };

    if let Some(out_path) = &opts.out {
        if let Some(parent) = out_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(out_path, to_json_report(&report.diagnostics, &summary)) {
            eprintln!("error: cannot write {}: {e}", out_path.display());
            return 2;
        }
    }

    if opts.json {
        println!("{}", to_json_report(&report.diagnostics, &summary));
    } else {
        for d in &report.diagnostics {
            println!("{d}");
            for step in &d.trace {
                println!("    trace: {step}");
            }
        }
        println!(
            "uniq-analyzer: {} files, {} suppressions ({} stale), {} errors, {} warnings [{:.2}s]",
            report.files_analyzed,
            report.suppressions,
            report.stale_suppressions,
            errors,
            warnings,
            elapsed
        );
    }

    if elapsed > BUDGET_SECONDS {
        eprintln!(
            "uniq-analyzer: warning: run took {elapsed:.2}s, over the {BUDGET_SECONDS:.0}s budget"
        );
    }

    if errors > 0 {
        1
    } else {
        0
    }
}
