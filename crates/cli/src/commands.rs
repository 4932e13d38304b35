//! CLI subcommand implementations.

use crate::args::Args;
use std::path::Path;
use std::sync::Arc;
use uniq_acoustics::signals::SignalKind;
use uniq_bench::baseline::RunDoc;
use uniq_bench::ledger;
use uniq_core::config::UniqConfig;
use uniq_core::degrade::{DegradationPolicy, FaultHook};
use uniq_core::pipeline::{personalize_faulted_with_retry, personalize_with_retry};
use uniq_faults::FaultPlan;
use uniq_obs::sink::{JsonLinesSink, MultiSink, Sink, StderrSink};
use uniq_profile::{ProfileReport, ProfileSink};
use uniq_store::HrtfArtifact;
use uniq_subjects::Subject;

/// Runs a parsed command under the sinks its flags ask for; returns a
/// human-readable report or an error message.
///
/// - `--trace` streams a live span tree to stderr and ends with the
///   registry table; `--metrics-out FILE` writes every event as JSON lines.
/// - `--profile` appends the registry table to the command's output.
///   `--profile-out FILE` writes the registry as JSON, `--flame-out FILE`
///   as collapsed stacks, `--telemetry-out FILE` as Prometheus text.
/// - `--memprof` runs the command under the counting allocator and
///   appends the per-stage allocation table; `--alloc-out FILE` writes
///   the snapshot JSON, `--alloc-flame-out FILE` bytes-weighted collapsed
///   stacks. With `--profile`, the latency table grows alloc columns and
///   the `--profile-out` JSON an `alloc` section.
///
/// All of them observe one run: none changes the numeric output, and the
/// registry's files are written even when the command fails — the
/// profile of a failed run is evidence.
pub fn run(args: &Args) -> Result<String, String> {
    /// A registry exporter, keyed by its option name, then by the file
    /// path given for it.
    type Export<'a> = (&'a str, fn(&ProfileReport) -> String);
    let trace = args.switch("trace");
    let profile = args.switch("profile");
    let memprof = args.switch("memprof");
    let metrics_out = args.get("metrics-out");
    let mut exports: Vec<Export> = vec![
        ("profile-out", ProfileReport::to_json),
        ("flame-out", ProfileReport::collapsed_stacks),
        ("telemetry-out", ProfileReport::prometheus),
    ];
    if memprof {
        if !uniq_memprof::installed() {
            return Err(
                "--memprof: the counting allocator is not installed in this binary (build the \
                 `uniq` binary, whose main.rs declares it as #[global_allocator])"
                    .to_string(),
            );
        }
        exports.push(("alloc-out", |r| {
            r.alloc.as_ref().map(|a| a.to_json()).unwrap_or_default()
        }));
        exports.push(("alloc-flame-out", ProfileReport::alloc_collapsed_stacks));
    }
    let exports: Vec<Export> = exports
        .into_iter()
        .filter_map(|(key, export)| args.get(key).map(|path| (path, export)))
        .collect();

    // Allocation attribution rides on the span stack, so `--memprof`
    // needs a sink too; the registry is it.
    let registry =
        (trace || profile || memprof || !exports.is_empty()).then(|| Arc::new(ProfileSink::new()));
    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    if trace {
        sinks.push(Arc::new(StderrSink::new()));
    }
    if let Some(path) = metrics_out {
        let sink = JsonLinesSink::create(Path::new(path))
            .map_err(|e| format!("cannot create {path}: {e}"))?;
        sinks.push(Arc::new(sink));
    }
    if let Some(registry) = &registry {
        sinks.push(registry.clone());
    }
    if sinks.is_empty() {
        return dispatch(args);
    }
    let multi = Arc::new(MultiSink::new(sinks));
    let mut alloc = None;
    let result = uniq_obs::with_sink(multi.clone(), || {
        if !memprof {
            return dispatch(args);
        }
        // Measure the dispatch only (sink assembly and report rendering
        // stay out), and emit the summary while the sinks are still
        // installed so the registry carries the alloc aggregates.
        let (result, snap) = uniq_memprof::measure(|| dispatch(args));
        snap.emit_obs_summary();
        alloc = Some(snap);
        result
    });
    // Push buffered sinks (JSON lines) to disk even on error paths.
    multi.flush();
    let Some(registry) = registry else {
        return result;
    };
    let mut report = registry.report();
    if let Some(snap) = alloc {
        report.attach_alloc(snap);
    }
    for (path, export) in exports {
        std::fs::write(Path::new(path), export(&report))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if trace {
        eprintln!("\n{report}");
    }
    let output = result?;
    Ok(if profile {
        format!("{output}\n\n{report}")
    } else if let Some(snap) = &report.alloc {
        format!("{output}\n\n{}", snap.render_table())
    } else {
        output
    })
}

/// `uniq analyze [OPTIONS]`: runs the whole-workspace static analyzer
/// (the same driver as the standalone `uniq-analyzer check`). Exit 0 =
/// clean, 1 = unsuppressed error findings, 2 = usage or I/O error.
pub fn analyze_cmd(args: &[String]) -> i32 {
    let usage = format!(
        "usage: uniq analyze [OPTIONS]\n\nOPTIONS:\n{}",
        uniq_analyzer::cli::OPTIONS_HELP
    );
    uniq_analyzer::cli::run_check(args, &usage)
}

/// Writes `text` and a newline to standard output through one lock and
/// flushes it. A reader that closed the pipe early (`uniq info … | head
/// -1`) no longer wants the rest, so a broken pipe counts as success;
/// `println!` would panic there instead.
///
/// # Errors
/// Any other write failure.
fn print_out(text: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        written => written,
    }
}

/// Prints `text` with `print_out` and returns the exit code `code`; a
/// failed write is named on stderr and returns 1.
pub fn print_then(text: &str, code: i32) -> i32 {
    match print_out(text) {
        Ok(()) => code,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            1
        }
    }
}

/// `uniq trace report FILE`: rebuilds the causal span tree of a
/// `--metrics-out` JSONL file and prints the critical path and per-stage
/// self-time table. Exit 0 = complete tree, 1 = orphaned spans or an
/// unreadable trace, 2 = usage error.
pub fn trace_cmd(args: &[String]) -> i32 {
    const USAGE: &str = "usage: uniq trace report FILE";
    if args.first().map(String::as_str) != Some("report") {
        eprintln!("error: trace supports `report`\n{USAGE}");
        return 2;
    }
    let Some(path) = args.get(1) else {
        eprintln!("error: trace report needs a FILE\n{USAGE}");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return 2;
        }
    };
    match uniq_profile::trace::parse_trace(&text) {
        Ok(tree) => {
            if print_then(&tree.render_report(), 0) != 0 {
                return 1;
            }
            if tree.orphans.is_empty() {
                0
            } else {
                eprintln!(
                    "error: {} orphaned span(s) — broken causality",
                    tree.orphans.len()
                );
                1
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `uniq store <verb> …`: the content-addressed HRTF artifact store.
///
/// Verbs: `put` (personalize a subject and persist the `.uhrtf`
/// artifact), `get` (load by content key), `ls` (index listing),
/// `verify` (deep integrity sweep), `import` (a `.uhrtf` file → the
/// store). Exit 0 = ok, 1 = failure or verification finding, 2 = usage
/// error.
pub fn store_cmd(args: &[String]) -> i32 {
    const USAGE: &str = "usage: uniq store <verb> [options]\n\
         \x20 put    --store DIR --seed N [--anechoic] [--grid DEG] [--snr DB] [--history PATH]\n\
         \x20 get    --store DIR --key KEY [--out FILE.uhrtf]\n\
         \x20 ls     --store DIR\n\
         \x20 verify --store DIR\n\
         \x20 import --store DIR --table FILE.uhrtf";
    let parsed = match Args::parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let result = match parsed.command.as_str() {
        "put" => store_put(&parsed),
        "get" => store_get(&parsed),
        "ls" => store_ls(&parsed),
        "verify" => store_verify(&parsed),
        "import" => store_import(&parsed),
        "help" | "--help" => {
            return print_then(USAGE, 0);
        }
        other => {
            eprintln!("error: unknown store verb {other:?}\n{USAGE}");
            return 2;
        }
    };
    uniq_obs::flush_global_sink();
    parsed.warn_unused();
    match result {
        Ok((report, code)) => print_then(&report, code),
        Err(StoreCmdError::Usage(e)) => {
            eprintln!("error: {e}\n{USAGE}");
            2
        }
        Err(StoreCmdError::Run(e)) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// A store verb's failure, split by exit-code tier: bad invocation (2)
/// vs a runtime/integrity failure (1).
enum StoreCmdError {
    Usage(String),
    Run(String),
}

fn open_store(args: &Args) -> Result<uniq_store::Store, StoreCmdError> {
    let dir = args
        .require("store")
        .map_err(|e| StoreCmdError::Usage(e.to_string()))?;
    uniq_store::Store::open(Path::new(dir)).map_err(|e| StoreCmdError::Run(e.to_string()))
}

fn store_put(args: &Args) -> Result<(String, i32), StoreCmdError> {
    let store = open_store(args)?;
    let usage = |e: crate::args::ArgError| StoreCmdError::Usage(e.to_string());
    let seed = args.get_u64("seed", 42).map_err(usage)?;
    let cfg = pipeline_config(args).map_err(usage)?;
    let subject = Subject::from_seed(seed);
    let sw = uniq_obs::Stopwatch::start();
    let result = personalize_with_retry(&subject, &cfg, seed, 3)
        .map_err(|e| StoreCmdError::Run(format!("personalization failed: {e}")))?;
    let wall_seconds = sw.elapsed_seconds();
    let artifact = HrtfArtifact::from_result(seed, &result, cfg.content_hash(), None);
    let outcome = store
        .put(&artifact)
        .map_err(|e| StoreCmdError::Run(e.to_string()))?;
    let mut lines = vec![
        format!("key {}", outcome.key),
        format!(
            "subject {seed}: fingerprint {:#018x}, config hash {:#018x}, {} bytes{}",
            artifact.subject_fingerprint,
            artifact.config_hash,
            outcome.bytes,
            if outcome.deduped {
                " (deduplicated — content already stored)"
            } else {
                ""
            },
        ),
        format!(
            "store {}: {} artifact(s)",
            store.root().display(),
            store.len()
        ),
    ];
    let mut doc = RunDoc::default();
    doc.raw("meta", "seed", seed.to_string())
        .text(
            "quality",
            "subject_fingerprint",
            &format!("{:#018x}", artifact.subject_fingerprint),
        )
        .text("quality", "store_key", &outcome.key)
        .raw("quality", "store_bytes", outcome.bytes.to_string())
        .num(
            "perf",
            format!(
                "personalize_seconds_t{}",
                uniq_par::pool(cfg.threads).threads()
            ),
            wall_seconds,
        );
    lines.extend(append_history(args, "store-put", &doc).map_err(StoreCmdError::Run)?);
    Ok((lines.join("\n"), 0))
}

fn store_get(args: &Args) -> Result<(String, i32), StoreCmdError> {
    let store = open_store(args)?;
    let key = args
        .require("key")
        .map_err(|e| StoreCmdError::Usage(e.to_string()))?;
    let artifact = store
        .get(key)
        .map_err(|e| StoreCmdError::Run(e.to_string()))?;
    let recomputed = artifact.fingerprint();
    let mut lines = vec![format!(
        "key {key}\n\
         seed {}, config hash {:#018x}, sample rate {} Hz\n\
         near grid: {} angles × {} taps; far grid: {} angles × {} taps\n\
         stamped fingerprint {:#018x}, recomputed {:#018x} ({})",
        artifact.seed,
        artifact.config_hash,
        artifact.sample_rate,
        artifact.near.len(),
        artifact.near.ir_len,
        artifact.far.len(),
        artifact.far.ir_len,
        artifact.subject_fingerprint,
        recomputed,
        if recomputed == artifact.subject_fingerprint {
            "match"
        } else {
            "MISMATCH"
        },
    )];
    if let Some(deg) = &artifact.degradation_json {
        lines.push(format!("degradation report: {deg}"));
    }
    if let Some(out) = args.get("out") {
        let bytes = store
            .get_bytes(key)
            .map_err(|e| StoreCmdError::Run(e.to_string()))?;
        std::fs::write(Path::new(out), bytes)
            .map_err(|e| StoreCmdError::Run(format!("cannot write {out}: {e}")))?;
        lines.push(format!("raw artifact written to {out}"));
    }
    let code = i32::from(recomputed != artifact.subject_fingerprint);
    Ok((lines.join("\n"), code))
}

fn store_ls(args: &Args) -> Result<(String, i32), StoreCmdError> {
    let store = open_store(args)?;
    let entries = store.scan();
    let mut lines = vec![format!(
        "store {}: {} artifact(s), fingerprint {:#018x}",
        store.root().display(),
        entries.len(),
        store.fingerprint(),
    )];
    for e in &entries {
        lines.push(format!(
            "  {}  seed {:>6}  subject {:016x}  config {:016x}  {:>8} bytes",
            e.key, e.seed, e.subject_fingerprint, e.config_hash, e.bytes,
        ));
    }
    Ok((lines.join("\n"), 0))
}

fn store_verify(args: &Args) -> Result<(String, i32), StoreCmdError> {
    let store = open_store(args)?;
    let report = store.verify();
    let mut lines = vec![format!(
        "verified {} artifact(s) in {}",
        report.entries,
        store.root().display(),
    )];
    for (key, err) in &report.failures {
        lines.push(format!("  CORRUPT {key}: {err}"));
    }
    if report.is_clean() {
        lines.push("store verify: ok".into());
        Ok((lines.join("\n"), 0))
    } else {
        lines.push(format!(
            "store verify: {} finding(s)",
            report.failures.len()
        ));
        Ok((lines.join("\n"), 1))
    }
}

fn store_import(args: &Args) -> Result<(String, i32), StoreCmdError> {
    let store = open_store(args)?;
    let path = args
        .require("table")
        .map_err(|e| StoreCmdError::Usage(e.to_string()))?;
    // The file carries its own provenance; one whose stamped fingerprint
    // disagrees with its payload is refused rather than filed.
    let artifact = read_artifact(path).map_err(StoreCmdError::Run)?;
    artifact
        .check_fingerprint()
        .map_err(|e| StoreCmdError::Run(format!("cannot import {path}: {e}")))?;
    let outcome = store
        .put(&artifact)
        .map_err(|e| StoreCmdError::Run(e.to_string()))?;
    Ok((
        format!(
            "imported {path} → key {} ({} bytes{})",
            outcome.key,
            outcome.bytes,
            if outcome.deduped {
                ", deduplicated"
            } else {
                ""
            },
        ),
        0,
    ))
}

/// Appends a finished run's document to the run ledger under `label`
/// when `--history PATH` was given (pass `--history default` for
/// `bench_results/history.jsonl`).
fn append_history(args: &Args, label: &str, doc: &RunDoc) -> Result<Option<String>, String> {
    let Some(path) = args.get("history") else {
        return Ok(None);
    };
    let path = if path == "default" {
        ledger::DEFAULT_HISTORY_FILE
    } else {
        path
    };
    ledger::append(Path::new(path), label, &doc.render())
        .map_err(|e| format!("cannot append to {path}: {e}"))?;
    Ok(Some(format!("ledger record appended to {path}")))
}

fn dispatch(args: &Args) -> Result<String, String> {
    match args.command.as_str() {
        "personalize" => personalize_cmd(args),
        "batch" => batch_cmd(args),
        "info" => info_cmd(args),
        "render" => render_cmd(args),
        "aoa" => aoa_cmd(args),
        "serve" => serve_cmd(args),
        "loadgen" => loadgen_cmd(args),
        "help" | "--help" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// `uniq serve`: a long-running sharded personalization server. Prints
/// the bound address immediately (and to `--addr-file` when given, so
/// scripts binding port 0 can discover it), then blocks until a client
/// sends a protocol `{"type":"shutdown"}` request, drains in-flight
/// work, and reports totals. Exit is always clean (0) after a drain.
fn serve_cmd(args: &Args) -> Result<String, String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let shards = args.get_u64("shards", 2).map_err(|e| e.to_string())? as usize;
    let queue_depth = args.get_u64("queue-depth", 32).map_err(|e| e.to_string())? as usize;
    let base = pipeline_config(args).map_err(|e| e.to_string())?;
    let fault_hook = match args.get("fault-plan") {
        Some(spec) => {
            let fault_seed = args.get_u64("fault-seed", 42).map_err(|e| e.to_string())?;
            let plan =
                FaultPlan::parse(spec, fault_seed).map_err(|e| format!("--fault-plan: {e}"))?;
            Some(Arc::new(plan) as Arc<dyn uniq_core::FaultHook + Send + Sync>)
        }
        None => None,
    };
    let cfg = uniq_serve::ServeConfig {
        shards,
        queue_depth,
        base,
        store_dir: args.get("store").map(std::path::PathBuf::from),
        fault_hook,
    };
    let cached = cfg.store_dir.is_some();

    let sw = uniq_obs::Stopwatch::start();
    let server = uniq_serve::Server::start(addr, cfg).map_err(|e| e.to_string())?;
    let bound = server.local_addr();
    // The address goes out *before* the blocking wait — it is how
    // clients (and the CI smoke) find a port-0 server.
    print_out(&format!(
        "serving on {bound} ({shards} shard(s), queue depth {queue_depth}, cache {})",
        if cached { "on" } else { "off" }
    ))
    .map_err(|e| format!("cannot write to stdout: {e}"))?;
    if let Some(path) = args.get("addr-file") {
        std::fs::write(Path::new(path), format!("{bound}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    server.wait_shutdown_requested();
    let drain = server.shutdown();
    let wall_seconds = sw.elapsed_seconds();

    let stats = drain.stats;
    let fingerprint = uniq_serve::fold_fingerprints(&drain.fingerprints);
    let mut lines = vec![format!(
        "serve drained after {wall_seconds:.3}s: {} request(s), {} ok, {} cached, \
         {} computed, {} shed, {} error(s)\n\
         {} subject(s), population fingerprint {fingerprint:#018x}",
        stats.requests,
        stats.ok,
        stats.cache_hits,
        stats.computed,
        stats.shed,
        stats.errors,
        drain.fingerprints.len(),
    )];
    let mut doc = RunDoc::default();
    doc.raw("serve", "shards", shards.to_string())
        .text("serve", "fingerprint", &format!("{fingerprint:#018x}"))
        .raw("serve", "requests", stats.requests.to_string())
        .raw("serve", "ok", stats.ok.to_string())
        .raw("serve", "cache_hits", stats.cache_hits.to_string())
        .raw("serve", "shed", stats.shed.to_string())
        .raw("serve", "errors", stats.errors.to_string());
    lines.extend(append_history(args, "serve", &doc)?);
    Ok(lines.join("\n"))
}

/// `uniq loadgen`: the deterministic closed-loop load harness. Drives a
/// live server with a seeded subject population and prints throughput
/// plus the p50/p99 request-latency table from `uniq-profile`.
fn loadgen_cmd(args: &Args) -> Result<String, String> {
    let parse_opt_f64 = |key: &str| -> Result<Option<f64>, String> {
        args.get(key)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("bad value {v:?} for --{key}"))
            })
            .transpose()
    };
    let cfg = uniq_serve::LoadgenConfig {
        addr: args.require("addr").map_err(|e| e.to_string())?.to_string(),
        subjects: args.get_u64("subjects", 8).map_err(|e| e.to_string())?,
        seed_base: args.get_u64("seed", 42).map_err(|e| e.to_string())?,
        clients: args.get_u64("clients", 4).map_err(|e| e.to_string())? as usize,
        repeat: args.get_f64("repeat", 0.25).map_err(|e| e.to_string())?,
        grid_step_deg: parse_opt_f64("grid")?,
        snr_db: parse_opt_f64("snr")?,
        anechoic: args.switch("anechoic").then_some(true),
        no_cache: args.switch("no-cache"),
        shutdown_after: args.switch("shutdown"),
    };
    let report = uniq_serve::loadgen::run(&cfg).map_err(|e| e.to_string())?;
    if report.fingerprint_conflicts > 0 {
        return Err(format!(
            "server is non-deterministic: {} fingerprint conflict(s) across {} subject(s)",
            report.fingerprint_conflicts,
            report.fingerprints.len(),
        ));
    }
    let fingerprint = uniq_serve::fold_fingerprints(&report.fingerprints);
    let mut lines = vec![format!(
        "loadgen {} request(s) over {} client(s) in {:.3}s: {} ok, {} cached, \
         {} overloaded, {} error(s)\n\
         {:.2} subjects/s, {:.2} requests/s, latency p50 {:.1}ms p99 {:.1}ms\n\
         {} subject(s), population fingerprint {fingerprint:#018x}",
        report.requests,
        cfg.clients,
        report.wall_seconds,
        report.ok,
        report.cache_hits,
        report.overloaded,
        report.errors,
        report.subjects_per_second,
        report.requests_per_second,
        report.p50_ms,
        report.p99_ms,
        report.fingerprints.len(),
    )];
    lines.push(String::new());
    lines.push(report.profile.render_table());
    let mut doc = RunDoc::default();
    doc.raw("meta", "seed", cfg.seed_base.to_string())
        .raw("meta", "clients", cfg.clients.to_string())
        .raw("serve", "subjects", cfg.subjects.to_string())
        .text("serve", "fingerprint", &format!("{fingerprint:#018x}"))
        .raw("serve", "requests", report.requests.to_string())
        .raw("serve", "cache_hits", report.cache_hits.to_string())
        .raw("serve", "shed", report.overloaded.to_string())
        .num("serve", "subjects_per_second", report.subjects_per_second)
        .num("serve", "p50_ms", report.p50_ms)
        .num("serve", "p99_ms", report.p99_ms);
    lines.extend(append_history(args, "loadgen", &doc)?);
    Ok(lines.join("\n"))
}

/// The usage text.
pub fn usage() -> String {
    "uniq — HRTF personalization (SIGCOMM'21 reproduction)\n\
     \n\
     commands:\n\
     \x20 personalize --seed N --out FILE [--anechoic] [--grid DEG] [--snr DB]\n\
     \x20     run the full pipeline for synthetic subject N, save the table as\n\
     \x20     a .uhrtf file (the bytes store put files for the same flags)\n\
     \x20 personalize --fault-plan SPEC [--fault-seed N] [--fault-retries R]\n\
     \x20             [--no-skip] [--fault-report FILE] [--out FILE] [usual flags]\n\
     \x20     personalize under a deterministic fault plan with graceful\n\
     \x20     degradation (skip/retry corrupted stops, re-weighted fusion);\n\
     \x20     prints the degradation report, optionally as JSON (--fault-report)\n\
     \x20     SPEC: comma-separated name[:param[:param]][@stop][~], e.g.\n\
     \x20     \"drop@2,snr:-12@4,clip:0.35\" — classes: drop truncate clip snr\n\
     \x20     gyro-dropout gyro-sat jitter dup reorder; trailing ~ = transient\n\
     \x20     (heals on retry)\n\
     \x20 batch --subjects N [--seed BASE] [--threads T] [--anechoic] [--grid DEG]\n\
     \x20       [--snr DB] [--scaling T1,T2,..] [--out FILE]\n\
     \x20     personalize N synthetic subjects concurrently (T=0 or unset: auto\n\
     \x20     from UNIQ_THREADS / available parallelism); --scaling re-runs the\n\
     \x20     batch at each pool size and writes a throughput report JSON\n\
     \x20 info --table FILE\n\
     \x20     summarize a saved .uhrtf table\n\
     \x20 render --table FILE --theta DEG --signal noise|music|speech --out FILE.wav\n\
     \x20         [--near] [--duration S] [--seed N]\n\
     \x20     spatialize a test signal through the table, write stereo WAV\n\
     \x20 aoa --table FILE --theta DEG --signal noise|music|speech [--seed N]\n\
     \x20     simulate an unknown ambient source and estimate its direction\n\
     \n\
     persistence:\n\
     \x20 store put --store DIR --seed N [--anechoic] [--grid DEG] [--snr DB]\n\
     \x20     personalize subject N and persist the result as a checksummed\n\
     \x20     .uhrtf artifact, content-addressed and deduplicated\n\
     \x20 store get --store DIR --key KEY [--out F.uhrtf]\n\
     \x20     load an artifact by content key; print provenance + fingerprint\n\
     \x20 store ls --store DIR          list the index (+ store fingerprint)\n\
     \x20 store verify --store DIR      deep integrity sweep (exit 1 on findings)\n\
     \x20 store import --store DIR --table F.uhrtf\n\
     \x20     file a .uhrtf table (e.g. personalize --out) with its own\n\
     \x20     provenance; refused if its fingerprint disagrees with its payload\n\
     \n\
     serving:\n\
     \x20 serve [--addr HOST:PORT] [--shards N] [--queue-depth N] [--store DIR]\n\
     \x20       [--grid DEG] [--snr DB] [--anechoic] [--fault-plan SPEC]\n\
     \x20       [--fault-seed N] [--addr-file FILE] [--history PATH]\n\
     \x20     long-running sharded personalization server (line-delimited JSON\n\
     \x20     over TCP); port 0 binds an ephemeral port, printed immediately and\n\
     \x20     written to --addr-file; --store enables the content-addressed\n\
     \x20     result cache; drains and exits 0 on a protocol shutdown request\n\
     \x20 loadgen --addr HOST:PORT [--subjects N] [--seed BASE] [--clients N]\n\
     \x20         [--repeat R] [--grid DEG] [--snr DB] [--anechoic] [--no-cache]\n\
     \x20         [--shutdown] [--history PATH]\n\
     \x20     seeded closed-loop load generator: N subjects over concurrent\n\
     \x20     clients, fraction R re-requested to exercise the cache; prints\n\
     \x20     throughput + p50/p99 latency; --shutdown stops the server after\n\
     \x20     the run\n\
     \n\
     quality gates:\n\
     \x20 analyze [--strict] [--format text|json] [--out FILE]\n\
     \x20     whole-workspace static analysis: line-local rules plus the\n\
     \x20     call-graph determinism / panic-reachability / lock-order /\n\
     \x20     hot-path-allocation lints (exit 1 on findings)\n\
     \n\
     observability (any command; every flag observes the same run):\n\
     \x20 --trace                live span tree on stderr + the registry table\n\
     \x20 --metrics-out FILE     write spans/metrics/counters as JSON lines\n\
     \x20 --profile              append the registry table: per-stage latency\n\
     \x20                        (count/total/p50/p90/p99/max, per-thread rows),\n\
     \x20                        counters and metrics\n\
     \x20 --profile-out FILE     write the registry as JSON\n\
     \x20 --flame-out FILE       write collapsed-stack flamegraph lines\n\
     \x20 --telemetry-out FILE   write the registry as Prometheus text\n\
     \x20 --memprof              run under the counting allocator and append the\n\
     \x20                        per-stage allocation table; with --profile the\n\
     \x20                        latency table grows alloc columns and the\n\
     \x20                        --profile-out JSON an alloc section\n\
     \x20 --alloc-out FILE       (--memprof) write the allocation snapshot JSON\n\
     \x20 --alloc-flame-out FILE (--memprof) write bytes-weighted collapsed stacks\n\
     \x20 options no command reads are named on stderr as unused\n\
     \n\
     telemetry:\n\
     \x20 trace report FILE\n\
     \x20     rebuild the causal span tree of a --metrics-out file; print the\n\
     \x20     critical path and per-stage self time (exit 1 on orphaned spans)\n\
     \x20 --history PATH         (personalize/batch/serve/loadgen/store put)\n\
     \x20     append the run document to the run ledger (PATH `default` =\n\
     \x20     bench_results/history.jsonl)\n"
        .to_string()
}

fn signal_kind(name: &str) -> Result<SignalKind, String> {
    match name {
        "noise" | "white" | "white-noise" => Ok(SignalKind::WhiteNoise),
        "music" => Ok(SignalKind::Music),
        "speech" => Ok(SignalKind::Speech),
        other => Err(format!(
            "unknown signal kind {other:?} (noise|music|speech)"
        )),
    }
}

/// The pipeline configuration `personalize`, `store put` and `serve`
/// build from `--grid`, `--snr` and `--anechoic`: equal flags give equal
/// configs, so `personalize --out` and `store put` write the same bytes.
fn pipeline_config(args: &Args) -> Result<UniqConfig, crate::args::ArgError> {
    Ok(UniqConfig {
        in_room: !args.switch("anechoic"),
        grid_step_deg: args.get_f64("grid", 5.0)?,
        snr_db: args.get_f64("snr", 35.0)?,
        ..UniqConfig::default()
    })
}

/// `uniq personalize`: the full pipeline for one synthetic subject. With
/// `--fault-plan`, the plan is injected at the signal boundaries (see
/// `uniq-faults`), the run degrades gracefully, and the degradation
/// report joins the output; the table file is then optional.
fn personalize_cmd(args: &Args) -> Result<String, String> {
    let seed = args.get_u64("seed", 42).map_err(|e| e.to_string())?;
    let cfg = pipeline_config(args).map_err(|e| e.to_string())?;
    let fault_plan = args.get("fault-plan");
    let out = match fault_plan {
        Some(_) => args.get("out"),
        None => Some(args.require("out").map_err(|e| e.to_string())?),
    };

    let subject = Subject::from_seed(seed);
    let sw = uniq_obs::Stopwatch::start();
    let (plan, policy) = match fault_plan {
        None => (None, DegradationPolicy::CLEAN),
        Some(spec) => {
            let fault_seed = args
                .get_u64("fault-seed", seed)
                .map_err(|e| e.to_string())?;
            let plan =
                FaultPlan::parse(spec, fault_seed).map_err(|e| format!("--fault-plan: {e}"))?;
            let retries = args
                .get_u64("fault-retries", 1)
                .map_err(|e| e.to_string())? as usize;
            let policy = DegradationPolicy {
                stop_retries: retries,
                skip_failed_stops: !args.switch("no-skip"),
                ..DegradationPolicy::default()
            };
            (Some(plan), policy)
        }
    };
    let hook = plan.as_ref().map(|p| p as &dyn FaultHook);
    let faulted = personalize_faulted_with_retry(&subject, &cfg, seed, hook, &policy, 3)
        .map_err(|e| format!("personalization failed: {e}"))?;
    let result = faulted.result;
    let degradation = hook.map(|_| faulted.degradation);
    if let Some(deg) = &degradation {
        if let Some(path) = args.get("fault-report") {
            std::fs::write(Path::new(path), deg.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    let wall_seconds = sw.elapsed_seconds();

    let errs: Vec<f64> = result
        .localization
        .iter()
        .map(|(t, e)| uniq_geometry::vec2::angle_diff_deg(*t, *e))
        .collect();
    let loc_median = uniq_dsp::stats::median(&errs);
    let mut lines = vec![format!(
        "personalized subject {seed}{} in {} attempt(s)\n\
         fitted head: a={:.3} b={:.3} c={:.3} (residual {:.1}°)\n\
         localization median {loc_median:.1}°",
        fault_plan
            .map(|spec| format!(" under fault plan {spec:?}"))
            .unwrap_or_default(),
        result.attempts,
        result.fusion.head.a,
        result.fusion.head.b,
        result.fusion.head.c,
        result.fusion.mean_residual_deg,
    )];
    if let Some(deg) = &degradation {
        lines.push(deg.to_string());
    }
    if let Some(out) = out {
        let degradation_json = degradation.as_ref().map(|d| d.to_json());
        let artifact =
            HrtfArtifact::from_result(seed, &result, cfg.content_hash(), degradation_json);
        let bytes =
            uniq_store::encode(&artifact).map_err(|e| format!("cannot encode {out}: {e}"))?;
        std::fs::write(Path::new(out), bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
        lines.push(format!(
            "table written to {out} ({} near + {} far angles)",
            result.hrtf.near().len(),
            result.hrtf.far().len(),
        ));
    }
    let threads = uniq_par::pool(cfg.threads).threads();
    let mut doc = RunDoc::default();
    doc.raw("meta", "seed", seed.to_string())
        .raw("meta", "thread_counts", format!("[{threads}]"))
        .text(
            "quality",
            "personalize_fingerprint",
            &format!(
                "{:#018x}",
                uniq_core::batch::result_fingerprint(seed, &result)
            ),
        )
        .num("quality", "localization_median_deg", loc_median)
        .num(
            "quality",
            "fusion_mean_residual_deg",
            result.fusion.mean_residual_deg,
        )
        .num("quality", "radius_m", result.radius_m)
        .raw("quality", "attempts", result.attempts.to_string())
        .num(
            "perf",
            format!("personalize_seconds_t{threads}"),
            wall_seconds,
        );
    let label = match &degradation {
        None => "personalize",
        Some(deg) => {
            doc.num("quality", "mean_stop_quality", deg.mean_quality)
                .text(
                    "quality",
                    "degradation",
                    &format!(
                        "stops {}/{} kept, {} dropped, {} retries, classes [{}]",
                        deg.stops_used,
                        deg.stops_planned,
                        deg.stops_dropped,
                        deg.retries,
                        deg.fault_classes.join(","),
                    ),
                );
            "personalize-faulted"
        }
    };
    lines.extend(append_history(args, label, &doc)?);
    Ok(lines.join("\n"))
}

fn batch_cmd(args: &Args) -> Result<String, String> {
    let subjects = args.get_u64("subjects", 4).map_err(|e| e.to_string())?;
    if subjects == 0 {
        return Err("batch needs at least one subject".into());
    }
    let base = args.get_u64("seed", 42).map_err(|e| e.to_string())?;
    let threads = args.get_u64("threads", 0).map_err(|e| e.to_string())? as usize;
    let grid = args.get_f64("grid", 15.0).map_err(|e| e.to_string())?;
    let snr = args.get_f64("snr", 40.0).map_err(|e| e.to_string())?;
    // Subject-level parallelism only: each worker personalizes whole
    // subjects, so the per-subject pipeline runs sequentially (threads: 1)
    // to avoid oversubscribing the pool.
    let cfg = UniqConfig {
        in_room: !args.switch("anechoic"),
        grid_step_deg: grid,
        snr_db: snr,
        threads: 1,
        ..UniqConfig::default()
    };
    let seeds: Vec<u64> = (0..subjects).map(|i| base.wrapping_add(i)).collect();

    if let Some(list) = args.get("scaling") {
        let counts: Vec<usize> = list
            .split(',')
            .map(|t| t.trim().parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("bad --scaling list {list:?} (want e.g. 1,2,4,8)"))?;
        if counts.is_empty() {
            return Err("--scaling list is empty".into());
        }
        let report = uniq_core::batch::scaling_sweep(&seeds, &cfg, &counts, 3);
        let out = args
            .get("out")
            .unwrap_or("bench_results/batch_scaling.json");
        let path = Path::new(out);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, report.to_json(base))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        let mut lines = vec![format!(
            "batch scaling: {} subjects (seeds {base}..{})",
            report.subjects,
            base.wrapping_add(subjects - 1),
        )];
        let baseline = report.points[0].seconds;
        for p in &report.points {
            lines.push(format!(
                "  threads {:>2}: {:>7.2}s  {:.2} subj/s  speedup {:.2}x",
                p.threads,
                p.seconds,
                p.subjects_per_second,
                baseline / p.seconds.max(1e-12),
            ));
        }
        lines.push(format!(
            "outputs bit-identical across pool sizes: {}",
            if report.deterministic {
                "yes"
            } else {
                "NO — determinism contract violated"
            }
        ));
        lines.push(format!("report written to {out}"));
        return Ok(lines.join("\n"));
    }

    let pool_size = uniq_par::pool(threads).threads();
    let start = std::time::Instant::now();
    let outcomes = uniq_core::batch::personalize_batch(&seeds, &cfg, threads, 3);
    let total = start.elapsed().as_secs_f64();

    let mut lines = vec![format!(
        "batch: {subjects} subject(s) on {pool_size} thread(s)"
    )];
    let mut failed = 0usize;
    for o in &outcomes {
        match &o.result {
            Ok(r) => lines.push(format!(
                "  subject {:>4}: ok   {:.2}s  {} attempt(s), radius {:.2} m",
                o.seed, o.seconds, r.attempts, r.radius_m
            )),
            Err(e) => {
                failed += 1;
                lines.push(format!(
                    "  subject {:>4}: FAIL {:.2}s  {e}",
                    o.seed, o.seconds
                ));
            }
        }
    }
    lines.push(format!(
        "{}/{} succeeded in {total:.2}s ({:.2} subjects/s)",
        outcomes.len() - failed,
        outcomes.len(),
        outcomes.len() as f64 / total.max(1e-12),
    ));
    let mut doc = RunDoc::default();
    doc.raw("meta", "seed", base.to_string())
        .raw("meta", "batch_subjects", subjects.to_string())
        .raw("meta", "thread_counts", format!("[{pool_size}]"))
        .text(
            "quality",
            format!("batch_fingerprint_t{pool_size}"),
            &format!("{:#018x}", uniq_core::batch::hrtf_fingerprint(&outcomes)),
        )
        .raw("quality", "batch_failures", failed.to_string())
        .num(
            "perf",
            format!("batch_subjects_per_second_t{pool_size}"),
            outcomes.len() as f64 / total.max(1e-12),
        );
    lines.extend(append_history(args, "batch", &doc)?);
    Ok(lines.join("\n"))
}

/// Reads and decodes a `.uhrtf` file; every failure reads
/// `cannot load PATH: …`.
fn read_artifact(path: &str) -> Result<HrtfArtifact, String> {
    let bytes = std::fs::read(Path::new(path)).map_err(|e| format!("cannot load {path}: {e}"))?;
    uniq_store::decode(&bytes).map_err(|e| format!("cannot load {path}: {e}"))
}

/// The lookup table in the `.uhrtf` file named by `--table`.
fn load_table(args: &Args) -> Result<uniq_core::hrtf::PersonalHrtf, String> {
    let path = args.require("table").map_err(|e| e.to_string())?;
    read_artifact(path)?
        .to_table()
        .map_err(|e| format!("cannot load {path}: {e}"))
}

fn info_cmd(args: &Args) -> Result<String, String> {
    let t = load_table(args)?;
    let head = t.head();
    Ok(format!(
        "UNIQ HRTF table\n\
         sample rate: {} Hz\n\
         head parameters: a={:.3} m, b={:.3} m, c={:.3} m\n\
         near-field bank: {} angles ({:.0}°..{:.0}°), {} taps per HRIR\n\
         far-field bank:  {} angles",
        t.sample_rate(),
        head.a,
        head.b,
        head.c,
        t.near().len(),
        t.near().angles().first().copied().unwrap_or(0.0),
        t.near().angles().last().copied().unwrap_or(0.0),
        t.near().irs()[0].len(),
        t.far().len(),
    ))
}

/// Most samples a `render`/`aoa` test signal may hold: ten minutes at
/// 48 kHz.
const MAX_SIGNAL_SAMPLES: f64 = 28_800_000.0;

/// The test signal `render` and `aoa` play through a table: `duration`
/// seconds of `kind` at `sample_rate`. Errors unless `duration` is finite
/// and positive and the signal holds at most [`MAX_SIGNAL_SAMPLES`].
fn test_signal(
    kind: SignalKind,
    duration: f64,
    sample_rate: f64,
    seed: u64,
) -> Result<Vec<f64>, String> {
    if !(duration.is_finite() && duration > 0.0) {
        return Err(format!(
            "duration must be a positive number of seconds, got {duration}"
        ));
    }
    let samples = duration * sample_rate;
    if samples.is_nan() || samples > MAX_SIGNAL_SAMPLES {
        return Err(format!(
            "a {duration} s signal at {sample_rate} Hz is {samples:.3e} samples, \
             over the limit of {MAX_SIGNAL_SAMPLES:.0}"
        ));
    }
    Ok(uniq_acoustics::signals::generate(
        kind,
        duration,
        sample_rate,
        seed,
    ))
}

/// `--theta` in degrees (default `default`); any finite angle.
fn theta_arg(args: &Args, default: f64) -> Result<f64, String> {
    let theta = args.get_f64("theta", default).map_err(|e| e.to_string())?;
    if theta.is_finite() {
        Ok(theta)
    } else {
        Err(format!(
            "--theta must be a finite angle in degrees, got {theta}"
        ))
    }
}

fn render_cmd(args: &Args) -> Result<String, String> {
    let t = load_table(args)?;
    let theta = theta_arg(args, 45.0)?;
    let duration = args.get_f64("duration", 1.0).map_err(|e| e.to_string())?;
    let seed = args.get_u64("seed", 7).map_err(|e| e.to_string())?;
    let kind = signal_kind(args.get("signal").unwrap_or("music"))?;
    let out = args.require("out").map_err(|e| e.to_string())?;

    let sig = test_signal(kind, duration, t.sample_rate(), seed)?;
    let rendered = t.synthesize(&sig, theta, !args.switch("near"));
    uniq_render::wav::write_wav(&rendered, t.sample_rate(), Path::new(out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "rendered {:.1}s of {} from θ={theta}° ({}) → {out}",
        duration,
        kind.label(),
        if args.switch("near") {
            "near field"
        } else {
            "far field"
        },
    ))
}

fn aoa_cmd(args: &Args) -> Result<String, String> {
    let t = load_table(args)?;
    let theta = theta_arg(args, 60.0)?;
    let seed = args.get_u64("seed", 11).map_err(|e| e.to_string())?;
    let kind = signal_kind(args.get("signal").unwrap_or("speech"))?;

    // Simulate an ambient source heard through the *table's own* HRTF —
    // the best available stand-in for the real ear signals when only the
    // table file exists.
    let cfg = UniqConfig {
        grid_step_deg: 5.0,
        ..UniqConfig::default()
    };
    let sig = test_signal(kind, 0.4, t.sample_rate(), seed)?;
    let rendered = t.synthesize(&sig, theta, true);
    let rec = uniq_acoustics::measure::BinauralRecording {
        left: rendered.left,
        right: rendered.right,
    };
    let est = uniq_core::aoa::estimate_unknown_source(&rec, t.far(), &cfg);
    Ok(format!(
        "true direction θ={theta}°, estimated θ={est}° (error {:.1}°)",
        uniq_geometry::vec2::angle_diff_deg(est, theta)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use uniq_bench::baseline::compare;
    use uniq_obs::json::Json;

    /// The lib-test binary installs the counting allocator itself (the
    /// `uniq` binary does this in its main.rs) so `--memprof` is testable
    /// through the public entry point.
    #[global_allocator]
    static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();

    /// The allocation counters are process-global: `--memprof` runs in
    /// this binary take turns.
    static MEMPROF: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn argv(s: &str) -> Args {
        let raw: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&raw).unwrap()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("uniq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn unknown_command_shows_usage() {
        let err = run(&argv("frobnicate")).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("personalize"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv("help")).unwrap();
        assert!(out.contains("aoa --table"));
    }

    #[test]
    fn missing_table_reported() {
        let err = run(&argv("info --table /nonexistent/x.uhrtf")).unwrap_err();
        assert!(err.contains("cannot load"));
    }

    /// A two-angle, two-tap artifact that loads as a table.
    fn tiny_artifact() -> HrtfArtifact {
        let grid = uniq_store::Grid {
            angles_deg: vec![0.0, 90.0],
            ir_len: 2,
            irs: vec![(vec![1.0, 0.0], vec![0.5, 0.0]); 2],
        };
        HrtfArtifact {
            seed: 1,
            subject_fingerprint: 0,
            config_hash: 0,
            sample_rate: 48_000.0,
            head: [0.075, 0.1, 0.09],
            radius_m: 0.4,
            attempts: 1,
            localization: Vec::new(),
            near: grid.clone(),
            far: grid,
            degradation_json: None,
        }
    }

    #[test]
    fn checksum_valid_file_with_bad_values_is_an_error_not_a_panic() {
        let good = tiny_artifact();
        let path = temp_path("bad_values.uhrtf");
        let info = format!("info --table {}", path.display());
        let aoa = format!("aoa --table {}", path.display());
        std::fs::write(&path, uniq_store::encode(&good).unwrap()).unwrap();
        assert!(run(&argv(&info)).unwrap().contains("head parameters"));
        // No far entry heard in both ears leaves AoA no template.
        let mut silent_far = good.clone();
        for (_, right) in &mut silent_far.far.irs {
            right.fill(0.0);
        }
        let bad = [
            HrtfArtifact {
                head: [1.0, 0.1, 0.1],
                ..good.clone()
            },
            HrtfArtifact {
                sample_rate: f64::NAN,
                ..good.clone()
            },
            silent_far,
        ];
        for artifact in bad {
            std::fs::write(&path, uniq_store::encode(&artifact).unwrap()).unwrap();
            for cmd in [&info, &aoa] {
                let err = run(&argv(cmd)).unwrap_err();
                assert!(err.starts_with("cannot load"), "{cmd}: {err}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn extreme_snr_is_noise_free_and_a_non_finite_one_is_an_error() {
        // 10^(7000/20) overflows, so the microphone adds no noise.
        let table = temp_path("snr7000.uhrtf");
        let out = run(&argv(&format!(
            "personalize --seed 5 --out {} --anechoic --grid 15 --snr 7000",
            table.display()
        )))
        .expect("a noise-free measurement personalizes");
        assert!(out.contains("table written"));
        std::fs::remove_file(&table).ok();
        for snr in ["nan", "inf"] {
            let err = run(&argv(&format!(
                "personalize --seed 5 --out {} --anechoic --grid 15 --snr {snr}",
                table.display()
            )))
            .unwrap_err();
            assert!(err.contains("snr must be finite"), "{snr}: {err}");
            assert!(!table.exists(), "{snr}: no table may be written");
        }
    }

    #[test]
    fn unusable_durations_angles_and_sample_rates_are_errors_not_panics() {
        let path = temp_path("signal_size.uhrtf");
        let t = path.display();
        let wav = temp_path("signal_size.wav");
        let w = wav.display();
        std::fs::write(&path, uniq_store::encode(&tiny_artifact()).unwrap()).unwrap();
        for duration in ["1e300", "inf", "-1", "nan", "0"] {
            let cmd = format!("render --table {t} --duration {duration} --out {w}");
            let err = run(&argv(&cmd)).unwrap_err();
            assert!(
                err.contains("signal") || err.contains("duration"),
                "{duration}: {err}"
            );
        }
        for theta in ["nan", "inf", "-inf"] {
            for cmd in [
                format!("render --table {t} --theta {theta} --duration 0.01 --out {w}"),
                format!("aoa --table {t} --theta {theta}"),
            ] {
                let err = run(&argv(&cmd)).unwrap_err();
                assert!(
                    err.starts_with("--theta must be a finite angle"),
                    "{cmd}: {err}"
                );
            }
        }
        assert!(!wav.exists(), "no command above may write a WAV");
        let huge_rate = HrtfArtifact {
            sample_rate: 1e300,
            ..tiny_artifact()
        };
        std::fs::write(&path, uniq_store::encode(&huge_rate).unwrap()).unwrap();
        for cmd in [
            format!("aoa --table {t}"),
            format!("render --table {t} --out {w}"),
        ] {
            let err = run(&argv(&cmd)).unwrap_err();
            assert!(err.contains("over the limit"), "{cmd}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_signal_kind_reported() {
        assert!(signal_kind("polka").is_err());
        assert!(signal_kind("noise").is_ok());
    }

    #[test]
    fn full_cli_workflow() {
        // personalize → info → render → aoa, through the public entry.
        let table = temp_path("wf.uhrtf");
        let wav = temp_path("wf.wav");
        let t = table.display();

        let out = run(&argv(&format!(
            "personalize --seed 5 --out {t} --anechoic --grid 15"
        )))
        .expect("personalize");
        assert!(out.contains("table written"));

        let out = run(&argv(&format!("info --table {t}"))).expect("info");
        assert!(out.contains("head parameters"));

        let out = run(&argv(&format!(
            "render --table {t} --theta 60 --signal music --duration 0.2 --out {}",
            wav.display()
        )))
        .expect("render");
        assert!(out.contains("rendered"));
        assert!(wav.exists());

        let out = run(&argv(&format!("aoa --table {t} --theta 60 --signal noise"))).expect("aoa");
        assert!(out.contains("estimated"));

        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&wav).ok();
    }

    #[test]
    fn batch_reports_every_subject() {
        let out = run(&argv(
            "batch --subjects 2 --threads 2 --anechoic --grid 15 --snr 45",
        ))
        .expect("batch");
        assert!(out.contains("subject   42"), "missing subject line: {out}");
        assert!(out.contains("subject   43"), "missing subject line: {out}");
        assert!(out.contains("2/2 succeeded"), "missing summary: {out}");
    }

    #[test]
    fn batch_scaling_writes_deterministic_report() {
        let json = temp_path("scaling.json");
        let out = run(&argv(&format!(
            "batch --subjects 2 --scaling 1,2 --anechoic --grid 15 --snr 45 --out {}",
            json.display()
        )))
        .expect("batch --scaling");
        assert!(
            out.contains("bit-identical across pool sizes: yes"),
            "determinism line missing: {out}"
        );
        let content = std::fs::read_to_string(&json).unwrap();
        assert!(content.contains("\"deterministic\": true"));
        assert!(content.contains("\"threads\": 1"));
        assert!(content.contains("\"threads\": 2"));
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn memprof_flag_appends_alloc_table_and_exports() {
        let _turn = MEMPROF.lock().unwrap_or_else(|e| e.into_inner());
        let table = temp_path("mp.uhrtf");
        let json = temp_path("mp_alloc.json");
        let folded = temp_path("mp_alloc.folded");
        let out = run(&argv(&format!(
            "personalize --seed 6 --out {} --anechoic --grid 15 --memprof --alloc-out {} \
             --alloc-flame-out {}",
            table.display(),
            json.display(),
            folded.display()
        )))
        .expect("memprofed personalize");
        assert!(out.contains("table written"), "command output lost: {out}");
        assert!(out.contains("per-stage allocations:"), "no table: {out}");
        assert!(out.contains("fusion"), "hot stage missing: {out}");
        assert!(!out.contains("per-stage wall clock:"), "{out}");

        let doc = uniq_obs::json::Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert!(doc.get("stages").is_some(), "alloc JSON has no stages");
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_u64()),
            Some(uniq_memprof::ALLOC_SCHEMA_VERSION)
        );

        // Flame lines are `frame[;frame]* bytes` with positive weights.
        let lines = std::fs::read_to_string(&folded).unwrap();
        assert!(!lines.is_empty());
        for line in lines.lines() {
            let (_, value) = line.rsplit_once(' ').expect("line has no value");
            assert!(
                value.parse::<u64>().unwrap() > 0,
                "zero-weight line {line:?}"
            );
        }

        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&json).ok();
        std::fs::remove_file(&folded).ok();
    }

    #[test]
    fn profile_of_failed_command_still_writes_report() {
        let json = temp_path("prof_fail.json");
        // personalize without --out fails; the profile file must exist
        // and parse anyway.
        let err = run(&argv(&format!(
            "personalize --seed 6 --profile --profile-out {}",
            json.display()
        )))
        .unwrap_err();
        assert!(err.contains("out"), "unexpected error: {err}");
        let doc = uniq_obs::json::Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert!(doc.get("schema_version").is_some());
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn faulted_personalize_reports_degradation() {
        let report = temp_path("deg.json");
        let out = run(&argv(&format!(
            "personalize --seed 6 --anechoic --grid 15 --snr 45 \
             --fault-plan drop@2 --fault-report {}",
            report.display()
        )))
        .expect("faulted personalize");
        assert!(out.contains("fault plan"), "no plan echo: {out}");
        assert!(out.contains("degradation:"), "no report: {out}");
        assert!(out.contains("drop"), "fault class missing: {out}");
        assert!(!out.contains("table written"), "no --out given: {out}");
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"stops_dropped\""), "bad report: {json}");
        std::fs::remove_file(&report).ok();
    }

    #[test]
    fn bad_fault_plan_reported() {
        let plan = "personalize --seed 6 --anechoic --grid 15 --fault-plan warp@2";
        for flags in ["", " --profile --trace"] {
            let err = run(&argv(&format!("{plan}{flags}"))).unwrap_err();
            assert!(err.contains("unknown fault class"), "{err}");
        }
    }

    #[test]
    fn fault_options_without_a_plan_are_unused() {
        let args = argv("info --table /nonexistent/x.uhrtf --fault-seed 3 --no-skip");
        assert!(run(&args).is_err());
        assert_eq!(args.unused(), vec!["fault-seed", "no-skip"]);
    }

    #[test]
    fn metrics_out_writes_jsonl_events() {
        let table = temp_path("obs.uhrtf");
        let metrics = temp_path("obs.jsonl");
        let out = run(&argv(&format!(
            "personalize --seed 6 --out {} --anechoic --grid 15 --metrics-out {}",
            table.display(),
            metrics.display()
        )))
        .expect("personalize with metrics");
        assert!(out.contains("table written"));

        let content = std::fs::read_to_string(&metrics).unwrap();
        assert!(content.contains("\"event\":\"span_start\""));
        assert!(content.contains("\"name\":\"personalize\""));
        assert!(content.contains("\"name\":\"fusion.mean_residual_deg\""));
        assert!(content.contains("\"name\":\"personalize.radius_m\""));
        // Every line is a JSON object.
        for line in content.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line {line}"
            );
        }
        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn trace_report_round_trip() {
        let table = temp_path("trace_rt.uhrtf");
        let metrics = temp_path("trace_rt.jsonl");
        run(&argv(&format!(
            "personalize --seed 6 --out {} --anechoic --grid 15 --metrics-out {}",
            table.display(),
            metrics.display()
        )))
        .expect("personalize with metrics");

        // The emitted trace reconstructs with no orphans (exit 0).
        let code = trace_cmd(&["report".to_string(), metrics.display().to_string()]);
        assert_eq!(code, 0, "trace report found orphans or failed to parse");

        // Usage errors are distinguishable from findings.
        assert_eq!(trace_cmd(&[]), 2);
        assert_eq!(trace_cmd(&["report".to_string()]), 2);
        assert_eq!(
            trace_cmd(&["report".to_string(), "/nonexistent/t.jsonl".to_string()]),
            2
        );

        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&metrics).ok();
    }

    /// `name total` rows of the table's `counters:` section.
    fn table_counters(table: &str) -> std::collections::BTreeMap<String, u64> {
        table
            .lines()
            .skip_while(|l| *l != "counters:")
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .map(|l| {
                let (name, total) = l.trim().split_once(' ').unwrap();
                (name.to_string(), total.trim().parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn one_run_composes_every_flag_and_exports_agree() {
        let _turn = MEMPROF.lock().unwrap_or_else(|e| e.into_inner());
        let prom = temp_path("all.prom");
        let json = temp_path("all.json");
        let flame = temp_path("all.folded");
        let args = argv(&format!(
            "personalize --seed 6 --anechoic --grid 15 --snr 45 --trace --profile --memprof \
             --fault-plan drop@2 --telemetry-out {} --profile-out {} --flame-out {}",
            prom.display(),
            json.display(),
            flame.display()
        ));
        let out = run(&args).expect("composed personalize");
        assert!(args.unused().is_empty(), "{:?}", args.unused());
        for needle in [
            "degradation:",
            "per-stage wall clock:",
            "p99",
            "threads:",
            "metrics:",
            "alloc-b",
            "per-stage allocations:",
        ] {
            assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
        }

        // The personalize span count, from each exporter.
        let table_count: u64 = out
            .lines()
            .find_map(|l| {
                let mut cols = l.split_whitespace();
                (cols.next() == Some("personalize")).then(|| cols.next().unwrap().parse().unwrap())
            })
            .expect("personalize row in the table");
        let doc = uniq_obs::json::Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        let json_count = doc
            .get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some("personalize"))
            .and_then(|s| s.get("count").unwrap().as_u64())
            .unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        let prom_value = |series: &str| -> Option<u64> {
            text.lines()
                .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        };
        assert_eq!(table_count, json_count);
        assert_eq!(prom_value("uniq_personalize_ns_count"), Some(json_count));

        // Counter totals, likewise; the fault and alloc counters are in.
        let json_counters: std::collections::BTreeMap<String, u64> = doc
            .get("counters")
            .unwrap()
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u64().unwrap()))
            .collect();
        for name in [
            uniq_obs::names::FAULTS_INJECTED,
            uniq_obs::names::ALLOC_TOTAL_COUNT,
        ] {
            assert!(json_counters.contains_key(name), "{name} missing");
        }
        assert_eq!(table_counters(&out), json_counters);
        for (name, total) in &json_counters {
            let series = format!("uniq_{}", name.replace('.', "_"));
            assert_eq!(prom_value(&series), Some(*total), "{series}");
        }
        assert_eq!(prom_value("uniq_telemetry_dropped_events"), Some(0));
        assert_eq!(doc.get("dropped").unwrap().as_u64(), Some(0));
        assert!(doc.get("alloc").unwrap().get("stages").is_some());

        // The flame (`span;child;leaf self_nanos` lines) names exactly the
        // stages the JSON lists — every pipeline stage among them —
        // rooted at personalize (and the memprof summary span).
        let folded = std::fs::read_to_string(&flame).unwrap();
        let leaves: std::collections::BTreeSet<&str> = folded
            .lines()
            .map(|l| {
                let (path, value) = l.rsplit_once(' ').expect("line has no value");
                value.parse::<u64>().expect("self time not an integer");
                path.rsplit(';').next().unwrap()
            })
            .collect();
        let stages: std::collections::BTreeSet<&str> = doc
            .get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(leaves, stages);
        for required in uniq_obs::names::PIPELINE_STAGES {
            assert!(stages.contains(required), "stage {required} missing");
        }
        assert!(folded.lines().any(|l| l.starts_with("personalize;")));

        for f in [&prom, &json, &flame] {
            std::fs::remove_file(f).ok();
        }
    }

    fn store_argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn store_usage_errors_exit_2() {
        assert_eq!(store_cmd(&[]), 2);
        assert_eq!(store_cmd(&store_argv("frobnicate")), 2);
        assert_eq!(store_cmd(&store_argv("put")), 2); // --store missing
        assert_eq!(store_cmd(&store_argv("get --store /tmp/x")), 2); // --key missing
        assert_eq!(store_cmd(&store_argv("help")), 0);
    }

    #[test]
    fn store_workflow_end_to_end() {
        let root = temp_path("store_wf");
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.display();

        // put, then an identical put that must deduplicate.
        let put = format!("put --store {dir} --seed 6 --anechoic --grid 15 --snr 45");
        assert_eq!(store_cmd(&store_argv(&put)), 0);
        assert_eq!(store_cmd(&store_argv(&put)), 0);
        let store = uniq_store::Store::open(&root).unwrap();
        assert_eq!(store.len(), 1, "identical puts must share one blob");
        let key = store.scan()[0].key.clone();

        // The stored artifact reproduces the in-memory result bit-exactly.
        let cfg = UniqConfig {
            in_room: false,
            grid_step_deg: 15.0,
            snr_db: 45.0,
            ..UniqConfig::default()
        };
        let result = personalize_with_retry(&Subject::from_seed(6), &cfg, 6, 3).unwrap();
        let artifact = store.get(&key).unwrap();
        assert_eq!(
            artifact.fingerprint(),
            uniq_core::batch::result_fingerprint(6, &result)
        );
        drop(store);

        // get / ls / verify all succeed on the clean store.
        assert_eq!(
            store_cmd(&store_argv(&format!("get --store {dir} --key {key}"))),
            0
        );
        assert_eq!(store_cmd(&store_argv(&format!("ls --store {dir}"))), 0);
        assert_eq!(store_cmd(&store_argv(&format!("verify --store {dir}"))), 0);

        // Unknown key is a runtime failure (1), not usage (2).
        assert_eq!(
            store_cmd(&store_argv(&format!(
                "get --store {dir} --key 0123456789abcdef"
            ))),
            1
        );

        // personalize --out with the same flags writes the stored blob
        // byte for byte, so importing it is a dedup hit.
        let file = temp_path("store_wf.uhrtf");
        run(&argv(&format!(
            "personalize --seed 6 --anechoic --grid 15 --snr 45 --out {}",
            file.display()
        )))
        .expect("personalize");
        let out = temp_path("store_wf_get.uhrtf");
        assert_eq!(
            store_cmd(&store_argv(&format!(
                "get --store {dir} --key {key} --out {}",
                out.display()
            ))),
            0
        );
        assert_eq!(std::fs::read(&file).unwrap(), std::fs::read(&out).unwrap());
        let import = format!("import --store {dir} --table {}", file.display());
        assert_eq!(store_cmd(&store_argv(&import)), 0);
        let store = uniq_store::Store::open(&root).unwrap();
        assert_eq!(store.len(), 1, "importing the same bytes must deduplicate");
        drop(store);

        // A file whose stamped fingerprint disagrees with its payload is
        // refused.
        let mut stale = uniq_store::decode(&std::fs::read(&file).unwrap()).unwrap();
        stale.subject_fingerprint ^= 1;
        std::fs::write(&file, uniq_store::encode(&stale).unwrap()).unwrap();
        assert_eq!(store_cmd(&store_argv(&import)), 1);
        assert_eq!(uniq_store::Store::open(&root).unwrap().len(), 1);

        // Flip one payload byte in a blob: verify must find it (exit 1).
        let blob = root.join("blobs").join(format!("{key}.uhrtf"));
        let mut bytes = std::fs::read(&blob).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&blob, bytes).unwrap();
        assert_eq!(store_cmd(&store_argv(&format!("verify --store {dir}"))), 1);

        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&out).ok();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn store_put_appends_ledger_record() {
        let root = temp_path("store_ledger");
        let history = temp_path("store_ledger.jsonl");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::remove_file(&history).ok();
        assert_eq!(
            store_cmd(&store_argv(&format!(
                "put --store {} --seed 6 --anechoic --grid 15 --snr 45 --history {}",
                root.display(),
                history.display()
            ))),
            0
        );
        let text = std::fs::read_to_string(&history).unwrap();
        let entries = ledger::read(&text).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].label, "store-put");
        let quality = entries[0].run.get("quality").unwrap();
        let key = quality.get("store_key").and_then(Json::as_str).unwrap();
        let store = uniq_store::Store::open(&root).unwrap();
        assert!(
            store.get(key).is_ok(),
            "ledger names key {key}, not in the store"
        );
        std::fs::remove_file(&history).ok();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn history_ledger_round_trip_and_gates() {
        let table = temp_path("hist.uhrtf");
        let history = temp_path("hist.jsonl");
        std::fs::remove_file(&history).ok();
        for _ in 0..2 {
            let out = run(&argv(&format!(
                "personalize --seed 6 --out {} --anechoic --grid 15 --history {}",
                table.display(),
                history.display()
            )))
            .expect("personalize with history");
            assert!(out.contains("ledger record appended"), "{out}");
        }

        // Two identical runs: the second judges clean against the first.
        let text = std::fs::read_to_string(&history).unwrap();
        let mut refs = ledger::references(&text, "personalize").unwrap();
        assert_eq!(refs.len(), 2);
        let fresh = refs.pop().unwrap().doc;
        let report = compare(&fresh, &refs).unwrap();
        assert!(report.quality_failures.is_empty(), "{report:?}");

        // A 10% localization drift fails hard.
        let mut drifted = fresh.clone();
        if let Json::Obj(sections) = &mut drifted {
            for (name, section) in sections.iter_mut() {
                if let (true, Json::Obj(members)) = (name == "quality", section) {
                    for (key, value) in members.iter_mut() {
                        if let (true, Json::Num(v)) = (key == "localization_median_deg", value) {
                            *v *= 1.10;
                        }
                    }
                }
            }
        }
        let report = compare(&drifted, &refs).unwrap();
        assert!(
            report
                .quality_failures
                .iter()
                .any(|f| f.contains("quality.localization_median_deg")),
            "{report:?}"
        );

        std::fs::remove_file(&table).ok();
        std::fs::remove_file(&history).ok();
    }
}
