//! The repository benchmark: one workload per process, every metric
//! printed by name with its unit, outputs checked for correctness.
//!
//! ```sh
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`, which also writes the span file
//! to `.bench_run/traces/`. Exit codes: 0 ok, 1 wrong output, 2 usage.

mod aoa;
mod inputs;
mod metrics;
mod personalize;
mod pipeline;
mod probes;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Workload;
use trace::Tracer;

const USAGE: &str =
    "usage: benchmark --workload <personalize-paper|serve-open|serve-saturate|aoa-render> \
--seed <u64> [--seconds <s>] [--trace 0|1]";

/// Default length of the timed phase, seconds.
const DEFAULT_SECONDS: f64 = 15.0;
/// Scratch stores and span files, relative to the working directory.
const RUN_DIR: &str = ".bench_run";

/// One run's settings.
#[derive(Debug)]
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Per-process scratch directory, removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    /// How many times to set up; untraced runs report the median. The
    /// traced run sets up once: it reports no set-up time. `aoa-render`
    /// sets up fewer times because its set-up personalizes two listeners.
    pub fn setup_reps(&self) -> usize {
        match (self.tracer.on(), self.workload) {
            (true, _) => 1,
            (false, Workload::AoaRender) => 3,
            (false, _) => 5,
        }
    }
}

/// What a workload measured and found wrong.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the timed phase, seconds.
    pub timed_s: f64,
    /// Correctness failures; any makes the run wrong.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub metrics: Vec<(&'static str, f64)>,
    /// Serve-layer counts for the per-layer metrics (traced runs).
    pub serve: Option<serve::ServeCounts>,
    /// Median stored blob size, MB (traced runs).
    pub blob_mb: Option<f64>,
    /// Peak resident memory, MiB: the median over operations of each one's
    /// peak, or for the serve workloads the peak of the timed phase.
    pub peak_rss_mib: Option<f64>,
}

impl Report {
    /// A run that could not get going: one attempt, failed.
    pub fn broken(problem: String) -> Report {
        Report {
            attempted: 1,
            failed: 1,
            problems: vec![problem],
            ..Report::default()
        }
    }

    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, DEFAULT_SECONDS, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// A JSON number; non-finite values (never expected) become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The per-layer metrics of a traced run; writes the span file.
fn traced_metrics(ctx: &Ctx, report: &mut Report) -> Vec<(&'static str, f64)> {
    let spans = ctx.tracer.spans();
    let timed = spans
        .iter()
        .filter(|s| s.phase == trace::Phase::Timed)
        .count();
    let overhead = timed as f64 * trace::span_cost_ns() / (report.timed_s * 1e9);
    let values = metrics::per_layer(&spans, report, overhead);
    let name = ctx.workload.name();
    let path = PathBuf::from(RUN_DIR)
        .join("traces")
        .join(format!("{name}-seed{}.json", ctx.seed));
    let with_units: Vec<(&str, f64, &str)> = values
        .iter()
        .zip(metrics::PER_LAYER)
        .map(|(&(n, v), (_, unit))| (n, v, unit))
        .collect();
    match trace::write_json(&path, name, ctx.seed, &spans, &with_units) {
        Ok(()) => println!("trace {} spans written to {}", spans.len(), path.display()),
        Err(e) => report.problem(format!("writing {}: {e}", path.display())),
    }
    values
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        scratch: PathBuf::from(RUN_DIR)
            .join("scratch")
            .join(format!("{name}-{}", std::process::id())),
    };
    println!(
        "benchmark workload={name} seed={} seconds={} trace={} available_parallelism={}",
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut report = match ctx.workload {
        Workload::PersonalizePaper => personalize::run(&ctx),
        Workload::ServeOpen => serve::run_open_workload(&ctx),
        Workload::ServeSaturate => serve::run_saturate_workload(&ctx),
        Workload::AoaRender => aoa::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    let (catalogue, values) = if args.trace {
        (&metrics::PER_LAYER[..], traced_metrics(&ctx, &mut report))
    } else {
        (&metrics::END_TO_END[..], report.metrics.clone())
    };

    let mut fields = Vec::new();
    for &(metric, unit) in catalogue {
        let value = values
            .iter()
            .find(|(n, _)| *n == metric)
            .map_or(f64::NAN, |&(_, v)| v);
        if !value.is_finite() {
            report.problem(format!("metric {metric} was not measured"));
        }
        println!("metric {metric} = {value} {unit}");
        fields.push(format!(
            "\"{metric}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        ));
    }
    for p in &report.problems {
        eprintln!("wrong: {p}");
    }
    let correct = report.problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse("--workload serve-open --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeOpen, 3, 10.0, true)
        );
        let a = parse("--seed 3 --workload aoa-render").unwrap();
        assert_eq!((a.seconds, a.trace), (DEFAULT_SECONDS, false));
        for bad in [
            "--workload serve --seed 1",
            "--workload aoa-render",
            "--workload aoa-render --seed x",
            "--workload aoa-render --seed 1 --trace yes",
            "--workload aoa-render --seed 1 --seconds 0",
            "--workload aoa-render --seed 1 --bogus 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad} should be refused");
        }
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(1.2034567891), "1.2034567891");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
