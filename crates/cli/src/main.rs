//! The `uniq` command-line binary. See [`uniq_cli`] for the interface.

#![forbid(unsafe_code)]

use uniq_cli::args::Args;
use uniq_cli::commands;

/// The counting allocator behind `--memprof` — installed unconditionally
/// (recording stays off outside a measurement, costing one relaxed atomic
/// load per allocation on every other run).
#[global_allocator]
static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `trace` and `history` take positional file arguments, which
    // Args::parse rejects by design — they are dispatched on the raw argv.
    // Their exit codes carry gate semantics (0 ok, 1 finding, 2 usage),
    // so they exit directly.
    match raw.first().map(String::as_str) {
        Some("trace") => std::process::exit(commands::trace_cmd(&raw[1..])),
        Some("history") => std::process::exit(commands::history_cmd(&raw[1..])),
        // `store` owns a verb sub-grammar (put/get/ls/verify/export/import)
        // with its own 0/1/2 exit contract, dispatched the same way.
        Some("store") => std::process::exit(commands::store_cmd(&raw[1..])),
        // `analyze` takes the analyzer's own option grammar and shares
        // its 0/1/2 gate contract.
        Some("analyze") => std::process::exit(commands::analyze_cmd(&raw[1..])),
        _ => {}
    }
    let parsed = match Args::parse(&raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::usage());
            std::process::exit(2);
        }
    };
    let result = commands::run(&parsed);
    // Buffered sinks installed process-wide must not lose their tail.
    uniq_obs::flush_global_sink();
    parsed.warn_unused();
    match result {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
