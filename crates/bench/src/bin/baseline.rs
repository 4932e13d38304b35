//! The benchmark-baseline CLI: runs the pinned workload matrix, blesses
//! `BENCH_BASELINE.json`, and compares fresh runs against it (the CI
//! regression gate — see `uniq_bench::baseline` for the contract).
//!
//! ```sh
//! baseline run --out fresh.json        # run the matrix, write the doc
//! baseline bless                       # refresh BENCH_BASELINE.json
//! baseline compare [--baseline BENCH_BASELINE.json] [--history LEDGER]
//!          [--fresh F] [--strict]
//! baseline verify-profile PROFILE.json # stage coverage of a --profile-out file
//! baseline quality-identical A B       # bit-identical quality sections?
//! ```
//!
//! Exit codes: 0 clean (perf warnings allowed unless `--strict`),
//! 1 regression, 2 usage error.

use uniq_bench::baseline::{
    compare, persist_to_store, quality_identical, run_baseline, verify_profile, BaselineSpec,
    Reference, BASELINE_FILE,
};
use uniq_bench::ledger;
use uniq_obs::json::Json;

/// The counting allocator: always installed in this binary (recording is
/// off until a measurement starts, so non-alloc commands pay only a
/// relaxed atomic load per allocation), which is what lets `run`/`bless`
/// emit the baseline document's `alloc` section.
#[global_allocator]
static ALLOC: uniq_memprof::CountingAllocator = uniq_memprof::CountingAllocator::new();

fn usage() -> String {
    "baseline — pinned-workload benchmark baselines and the CI regression gate\n\
     \n\
     commands:\n\
     \x20 run --out FILE                 run the workload matrix, write the document\n\
     \x20 bless                          run the matrix and refresh BENCH_BASELINE.json\n\
     \x20 compare [--baseline FILE] [--history FILE] [--fresh FILE] [--strict]\n\
     \x20                                judge a fresh run (or --fresh file) against the\n\
     \x20                                baseline, the ledger's \"baseline\" runs, or both:\n\
     \x20                                quality drift fails, timing drift warns\n\
     \x20 verify-profile FILE            check a uniq --profile-out file parses and covers\n\
     \x20                                every pipeline stage\n\
     \x20 quality-identical A B          exit 0 iff both documents carry bit-identical\n\
     \x20                                quality and work-counter sections\n\
     \n\
     ledger (run / bless / compare-with-fresh-run):\n\
     \x20 --history PATH                 append the run document to PATH instead of the\n\
     \x20                                default bench_results/history.jsonl (compare\n\
     \x20                                reads its references from PATH first)\n\
     \x20 --no-history                   skip the ledger append\n\
     \n\
     persistence (run / bless):\n\
     \x20 --store DIR                    also personalize the pinned seed single-threaded\n\
     \x20                                and persist the HRTF artifact into the\n\
     \x20                                content-addressed store at DIR\n"
        .to_string()
}

/// Handles `--store DIR` on `run` / `bless`: personalizes the pinned
/// subject and puts the artifact into the store, printing the content
/// key. Re-running unchanged code is a dedup hit, not a new blob.
fn persist_if_requested(opts: &Opts) {
    let Some(dir) = opts.get("store") else {
        return;
    };
    match persist_to_store(&BaselineSpec::pinned(), std::path::Path::new(dir)) {
        Ok((outcome, fingerprint)) => println!(
            "stored baseline HRTF: key {} ({} bytes, {}), fingerprint {:#018x}",
            outcome.key,
            outcome.bytes,
            if outcome.deduped { "deduped" } else { "new" },
            fingerprint,
        ),
        Err(e) => {
            eprintln!("error: cannot persist baseline HRTF to {dir}: {e}");
            std::process::exit(1);
        }
    }
}

/// Appends the run document to the run ledger under the `"baseline"`
/// label (`compare --history` judges against those lines), unless
/// `--no-history` was given.
fn append_ledger(doc: &str, opts: &Opts) {
    if opts.switch("no-history") {
        return;
    }
    let path = opts.get("history").unwrap_or(ledger::DEFAULT_HISTORY_FILE);
    match ledger::append(std::path::Path::new(path), LABEL, doc) {
        Ok(()) => println!("ledger record appended to {path}"),
        Err(e) => eprintln!("warning: cannot append to {path}: {e}"),
    }
}

/// The ledger label of this binary's run documents.
const LABEL: &str = "baseline";

fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    std::process::exit(2);
}

fn read_text(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn read_json(path: &str) -> Json {
    Json::parse(&read_text(path)).unwrap_or_else(|e| {
        eprintln!("error: {path} is not valid JSON: {e}");
        std::process::exit(1);
    })
}

/// `--key value` / `--switch` parser over the tail of the argv.
struct Opts {
    pairs: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Opts {
    fn parse(args: &[String], switches: &[&str]) -> Opts {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if switches.contains(&key) {
                    pairs.push((key.to_string(), None));
                } else {
                    let value = it
                        .next()
                        .unwrap_or_else(|| fail_usage(&format!("--{key} needs a value")));
                    pairs.push((key.to_string(), Some(value.clone())));
                }
            } else {
                positional.push(arg.clone());
            }
        }
        Opts { pairs, positional }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn switch(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, v)| k == key && v.is_none())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        fail_usage("no command");
    };
    match command.as_str() {
        "run" => {
            let opts = Opts::parse(&args[1..], &["no-history"]);
            let out = opts
                .get("out")
                .unwrap_or_else(|| fail_usage("run needs --out FILE"));
            let doc = run_baseline(&BaselineSpec::pinned());
            std::fs::write(out, &doc).unwrap_or_else(|e| {
                eprintln!("error: cannot write {out}: {e}");
                std::process::exit(1);
            });
            println!("baseline written to {out}");
            append_ledger(&doc, &opts);
            persist_if_requested(&opts);
        }
        "bless" => {
            let opts = Opts::parse(&args[1..], &["no-history"]);
            let doc = run_baseline(&BaselineSpec::pinned());
            std::fs::write(BASELINE_FILE, &doc).unwrap_or_else(|e| {
                eprintln!("error: cannot write {BASELINE_FILE}: {e}");
                std::process::exit(1);
            });
            println!("blessed {BASELINE_FILE} — review the diff before committing");
            append_ledger(&doc, &opts);
            persist_if_requested(&opts);
        }
        "compare" => {
            let opts = Opts::parse(&args[1..], &["strict", "no-history"]);
            let mut references = Vec::new();
            if let Some(path) = opts.get("baseline") {
                references.push(Reference {
                    name: path.to_string(),
                    doc: read_json(path),
                });
            }
            if let Some(path) = opts.get("history") {
                let history = ledger::references(&read_text(path), LABEL).unwrap_or_else(|e| {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(1);
                });
                references.extend(history);
            }
            if references.is_empty() {
                fail_usage("compare needs --baseline FILE, --history FILE or both");
            }
            let fresh = match opts.get("fresh") {
                Some(path) => read_json(path),
                None => {
                    println!("running the pinned workload matrix…");
                    let doc = run_baseline(&BaselineSpec::pinned());
                    append_ledger(&doc, &opts);
                    // uniq-analyzer: allow(panic-safety) — run_baseline emits its own JSON; a parse failure is a bug worth a crash
                    Json::parse(&doc).expect("self-emitted baseline JSON")
                }
            };
            let report = compare(&fresh, &references).unwrap_or_else(|e| {
                eprintln!("baseline compare failed: {e}");
                std::process::exit(1);
            });
            for warning in &report.perf_warnings {
                println!("perf warning: {warning}");
            }
            for failure in &report.quality_failures {
                println!("QUALITY REGRESSION: {failure}");
            }
            if report.passes(opts.switch("strict")) {
                println!(
                    "baseline ok against {} reference(s) ({} perf warning(s), 0 quality regressions)",
                    references.len(),
                    report.perf_warnings.len()
                );
            } else {
                println!("baseline comparison FAILED");
                std::process::exit(1);
            }
        }
        "verify-profile" => {
            let opts = Opts::parse(&args[1..], &[]);
            let Some(path) = opts.positional.first() else {
                fail_usage("verify-profile needs a profile JSON file");
            };
            match verify_profile(&read_text(path)) {
                Ok(stages) => println!("profile ok: {} stage(s) covered", stages.len()),
                Err(e) => {
                    eprintln!("profile verification failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "quality-identical" => {
            let opts = Opts::parse(&args[1..], &[]);
            let [a, b] = opts.positional.as_slice() else {
                fail_usage("quality-identical needs two document paths");
            };
            if quality_identical(&read_json(a), &read_json(b)) {
                println!("quality sections are bit-identical");
            } else {
                eprintln!("quality sections DIFFER between {a} and {b}");
                std::process::exit(1);
            }
        }
        "help" | "--help" => println!("{}", usage()),
        other => fail_usage(&format!("unknown command {other:?}")),
    }
}
