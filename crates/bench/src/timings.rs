//! Wall-clock timing of experiment targets, written as
//! `bench_results/timings.json` (no external dependency): one schema-2
//! object carrying run metadata (seed base, thread count, build id)
//! around the timing entries.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Schema stamp written into `timings.json` (bump on shape changes).
pub const TIMINGS_SCHEMA_VERSION: u64 = 2;

/// Run metadata attached to a timing log: everything needed to judge
/// whether two timing files are comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingMeta {
    /// Base seed of the run's synthetic subjects.
    pub seed: u64,
    /// Worker threads the run used.
    pub threads: usize,
    /// Build identifier (crate version + debug/release) — derived from
    /// the binary itself, no git invocation needed.
    pub build: String,
}

impl TimingMeta {
    /// Metadata describing the current process: crate version,
    /// release/debug flavor, and the process-default thread count.
    pub fn current(seed: u64) -> Self {
        TimingMeta {
            seed,
            threads: uniq_par::default_threads(),
            build: crate::build_id(),
        }
    }
}

/// Collects `(target, seconds)` entries and writes them as JSON.
#[derive(Debug)]
pub struct TimingLog {
    entries: Vec<(String, f64)>,
    meta: TimingMeta,
}

impl TimingLog {
    /// An empty log for a run described by `meta`.
    pub fn new(meta: TimingMeta) -> Self {
        TimingLog {
            entries: Vec::new(),
            meta,
        }
    }

    /// Runs `f`, recording its wall time under `name`. Returns `f`'s
    /// result.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.entries
            .push((name.to_string(), start.elapsed().as_secs_f64()));
        out
    }

    /// The recorded entries, in run order.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }

    /// Renders the log as the schema-2 object.
    pub fn to_json(&self) -> String {
        let mut entries = String::from("[\n");
        for (i, (name, secs)) in self.entries.iter().enumerate() {
            entries.push_str(&format!(
                "    {{\"target\": \"{}\", \"seconds\": {}}}{}\n",
                uniq_obs::sink::json_escape(name),
                uniq_obs::sink::json_number(*secs),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        entries.push_str("  ]");
        format!(
            "{{\n  \"schema_version\": {TIMINGS_SCHEMA_VERSION},\n  \"seed\": {},\n  \
             \"threads\": {},\n  \"build\": \"{}\",\n  \"timings\": {entries}\n}}",
            self.meta.seed,
            self.meta.threads,
            uniq_obs::sink::json_escape(&self.meta.build),
        )
    }

    /// Writes `bench_results/timings.json`, creating the directory if
    /// needed.
    ///
    /// # Panics
    /// Panics on I/O errors (experiments are developer tooling).
    pub fn write(&self) {
        let dir = Path::new(crate::RESULTS_DIR);
        fs::create_dir_all(dir).expect("create bench_results dir");
        let path = dir.join("timings.json");
        let mut file = fs::File::create(&path).expect("create timings.json");
        writeln!(file, "{}", self.to_json()).expect("write timings.json");
        println!("  → wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_profile::json::Json;

    #[test]
    fn records_and_serializes_the_schema_2_object() {
        let mut log = TimingLog::new(TimingMeta::current(5000));
        let v = log.time("fig2", || 41 + 1);
        assert_eq!(v, 42);
        log.time("ablations", || ());
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.entries()[0].0, "fig2");
        assert!(log.entries()[0].1 >= 0.0);

        let doc = Json::parse(&log.to_json()).expect("timings.json parses");
        let field = |name: &str| doc.get(name).unwrap_or_else(|| panic!("no {name}"));
        assert_eq!(
            field("schema_version").as_u64(),
            Some(TIMINGS_SCHEMA_VERSION)
        );
        assert_eq!(field("seed").as_u64(), Some(5000));
        assert_eq!(
            field("threads").as_u64(),
            Some(uniq_par::default_threads() as u64)
        );
        assert_eq!(field("build").as_str(), Some(crate::build_id().as_str()));
        let targets: Vec<&str> = field("timings")
            .as_array()
            .expect("timings is an array")
            .iter()
            .map(|e| e.get("target").and_then(Json::as_str).expect("target"))
            .collect();
        assert_eq!(targets, ["fig2", "ablations"]);
    }

    #[test]
    fn empty_log_is_valid_json() {
        let doc = Json::parse(&TimingLog::new(TimingMeta::current(1)).to_json()).unwrap();
        assert_eq!(
            doc.get("timings")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
    }
}
