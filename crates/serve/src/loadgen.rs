//! Seeded, deterministic closed-loop load generator.
//!
//! Replays a `uniq-subjects` population (seeds `seed_base..seed_base+n`)
//! as traffic against a live server. Clients are closed-loop: each owns
//! one connection and sends its next request only after the previous
//! response arrives, so offered load is bounded by service rate and the
//! harness never measures its own queueing. The schedule is a pure
//! function of the config — subject `i` belongs to client `i %
//! clients`, and each client re-requests the first `ceil(repeat ×
//! share)` of its subjects after the first pass (the repeat ratio that
//! exercises the server's result cache) — so two runs at any concurrency
//! offer byte-identical request streams per client.
//!
//! Latency is measured by wrapping every request in a
//! [`SPAN_LOADGEN_REQUEST`] span
//! under a [`uniq_profile::ProfileSink`]; throughput and p50/p99 come
//! from its report. The profiler *composes* with the ambient sink
//! ([`uniq_obs::ambient_sink`]) instead of shadowing it, so `--trace`
//! and the observability audit still see loadgen spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use uniq_dsp::stats::median;
use uniq_obs::names::SPAN_LOADGEN_REQUEST;
use uniq_obs::sink::{MultiSink, Sink};
use uniq_profile::{ProfileReport, ProfileSink};

use crate::error::ServeError;
use crate::protocol::{self, Response};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Population size (distinct subject seeds).
    pub subjects: u64,
    /// First subject seed.
    pub seed_base: u64,
    /// Concurrent closed-loop clients (≥ 1), each with one connection.
    pub clients: usize,
    /// Repeat ratio `0.0..=1.0`: fraction of each client's subjects
    /// re-requested after the first pass (cache exercise).
    pub repeat: f64,
    /// Per-request grid override, degrees.
    pub grid_step_deg: Option<f64>,
    /// Per-request SNR override, dB.
    pub snr_db: Option<f64>,
    /// Per-request room override.
    pub anechoic: Option<bool>,
    /// Ask the server to skip its result cache.
    pub no_cache: bool,
    /// Send a protocol `shutdown` after the run completes.
    pub shutdown_after: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            subjects: 8,
            seed_base: 42,
            clients: 4,
            repeat: 0.25,
            grid_step_deg: None,
            snr_db: None,
            anechoic: None,
            no_cache: false,
            shutdown_after: false,
        }
    }
}

/// What a load-generation run observed.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests sent.
    pub requests: u64,
    /// `ok` responses.
    pub ok: u64,
    /// Responses flagged `cache_hit`.
    pub cache_hits: u64,
    /// `overloaded` (shed) responses.
    pub overloaded: u64,
    /// Typed error responses.
    pub errors: u64,
    /// Distinct seeds that answered `ok` with conflicting fingerprints —
    /// zero on a deterministic server.
    pub fingerprint_conflicts: u64,
    /// Wall clock of the whole run, seconds.
    pub wall_seconds: f64,
    /// Unique subjects personalized per second of wall clock.
    pub subjects_per_second: f64,
    /// Requests completed per second of wall clock.
    pub requests_per_second: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Median latency of the `ok` replies the pipeline computed (cache
    /// misses), milliseconds; 0 when there were none.
    pub miss_p50_ms: f64,
    /// Median latency of the `ok` replies answered from the store (cache
    /// hits), milliseconds; 0 when there were none.
    pub hit_p50_ms: f64,
    /// seed → result fingerprint of every `ok` response.
    pub fingerprints: BTreeMap<u64, u64>,
    /// The full latency profile (the `loadgen.request` stage).
    pub profile: ProfileReport,
}

#[derive(Default)]
struct ClientTally {
    requests: u64,
    ok: u64,
    cache_hits: u64,
    overloaded: u64,
    errors: u64,
    conflicts: u64,
    fingerprints: BTreeMap<u64, u64>,
    /// Latency of each `ok` reply, milliseconds, misses and hits apart.
    miss_ms: Vec<f64>,
    hit_ms: Vec<f64>,
}

/// The seeds client `client` requests, in order: its share of the
/// population, then the repeated prefix. Pure, so tests can predict the
/// exact request stream.
pub fn client_schedule(cfg: &LoadgenConfig, client: usize) -> Vec<u64> {
    let mut seeds: Vec<u64> = (0..cfg.subjects)
        .filter(|i| (*i as usize) % cfg.clients == client)
        .map(|i| cfg.seed_base + i)
        .collect();
    let repeats = (cfg.repeat.clamp(0.0, 1.0) * seeds.len() as f64).ceil() as usize;
    let prefix: Vec<u64> = seeds.iter().take(repeats).copied().collect();
    seeds.extend(prefix);
    seeds
}

fn request_line(cfg: &LoadgenConfig, seed: u64) -> String {
    let mut line = format!("{{\"type\":\"personalize\",\"seed\":{seed}");
    if let Some(grid) = cfg.grid_step_deg {
        line.push_str(&format!(",\"grid\":{}", uniq_obs::sink::json_number(grid)));
    }
    if let Some(snr) = cfg.snr_db {
        line.push_str(&format!(",\"snr\":{}", uniq_obs::sink::json_number(snr)));
    }
    if let Some(anechoic) = cfg.anechoic {
        line.push_str(&format!(",\"anechoic\":{anechoic}"));
    }
    if cfg.no_cache {
        line.push_str(",\"no_cache\":true");
    }
    line.push('}');
    line
}

fn read_response(
    stream: &mut TcpStream,
    frames: &mut protocol::FrameBuffer,
) -> Result<Response, ServeError> {
    use std::io::Read;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(line) = frames.next_line()? {
            return protocol::parse_response(&line);
        }
        let n = stream.read(&mut chunk).map_err(|e| ServeError::Io {
            op: "read",
            detail: e.to_string(),
        })?;
        if n == 0 {
            return Err(ServeError::Io {
                op: "read",
                detail: "server closed the connection".into(),
            });
        }
        frames.push(&chunk[..n]);
    }
}

fn client_loop(cfg: &LoadgenConfig, client: usize) -> Result<ClientTally, ServeError> {
    let mut stream = TcpStream::connect(&cfg.addr).map_err(|e| ServeError::Io {
        op: "connect",
        detail: format!("{}: {e}", cfg.addr),
    })?;
    stream.set_nodelay(true).map_err(|e| ServeError::Io {
        op: "nodelay",
        detail: e.to_string(),
    })?;
    let mut frames = protocol::FrameBuffer::new(protocol::MAX_LINE_BYTES);
    let mut tally = ClientTally::default();
    for seed in client_schedule(cfg, client) {
        let _span = uniq_obs::span(SPAN_LOADGEN_REQUEST);
        let sw = uniq_obs::Stopwatch::start();
        let mut line = request_line(cfg, seed);
        line.push('\n');
        stream
            .write_all(line.as_bytes())
            .map_err(|e| ServeError::Io {
                op: "write",
                detail: e.to_string(),
            })?;
        tally.requests += 1;
        match read_response(&mut stream, &mut frames)? {
            Response::Personalized(reply) => {
                tally.ok += 1;
                let ms = sw.elapsed_seconds() * 1e3;
                if reply.cache_hit {
                    tally.cache_hits += 1;
                    tally.hit_ms.push(ms);
                } else {
                    tally.miss_ms.push(ms);
                }
                match tally.fingerprints.get(&reply.seed) {
                    Some(prev) if *prev != reply.fingerprint => tally.conflicts += 1,
                    _ => {
                        tally.fingerprints.insert(reply.seed, reply.fingerprint);
                    }
                }
            }
            Response::Overloaded { .. } => tally.overloaded += 1,
            Response::Error { .. } => tally.errors += 1,
            other => {
                return Err(ServeError::BadJson {
                    detail: format!("unexpected response to personalize: {other:?}"),
                })
            }
        }
    }
    Ok(tally)
}

/// Runs the load generation and aggregates the report. Client errors
/// (connect/read/write failures) abort the run with the first error.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, ServeError> {
    if cfg.clients == 0 {
        return Err(ServeError::Config {
            detail: "clients must be >= 1".into(),
        });
    }
    if cfg.subjects == 0 {
        return Err(ServeError::Config {
            detail: "subjects must be >= 1".into(),
        });
    }
    let profile = Arc::new(ProfileSink::new());
    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    if let Some(ambient) = uniq_obs::ambient_sink() {
        sinks.push(ambient);
    }
    sinks.push(profile.clone());
    let multi: Arc<dyn Sink> = Arc::new(MultiSink::new(sinks));

    let sw = uniq_obs::Stopwatch::start();
    let outcomes: Vec<Result<ClientTally, ServeError>> = uniq_obs::with_sink(multi, || {
        let ctx = uniq_obs::capture();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.clients)
                .map(|client| {
                    let ctx = ctx.clone();
                    scope.spawn(move || ctx.run_indexed(client as u64, || client_loop(cfg, client)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(outcome) => outcome,
                    Err(_) => Err(ServeError::Io {
                        op: "client",
                        detail: "client thread panicked".into(),
                    }),
                })
                .collect()
        })
    });
    let wall_seconds = sw.elapsed_seconds();

    let mut total = ClientTally::default();
    for outcome in outcomes {
        let tally = outcome?;
        total.requests += tally.requests;
        total.ok += tally.ok;
        total.cache_hits += tally.cache_hits;
        total.overloaded += tally.overloaded;
        total.errors += tally.errors;
        total.conflicts += tally.conflicts;
        total.miss_ms.extend(tally.miss_ms);
        total.hit_ms.extend(tally.hit_ms);
        for (seed, fp) in tally.fingerprints {
            match total.fingerprints.get(&seed) {
                Some(prev) if *prev != fp => total.conflicts += 1,
                _ => {
                    total.fingerprints.insert(seed, fp);
                }
            }
        }
    }

    if cfg.shutdown_after {
        // Best-effort: the server may already be draining.
        if let Ok(mut stream) = TcpStream::connect(&cfg.addr) {
            let _ = stream.write_all(b"{\"type\":\"shutdown\"}\n");
            let mut frames = protocol::FrameBuffer::new(protocol::MAX_LINE_BYTES);
            let _ = read_response(&mut stream, &mut frames);
        }
    }

    let report = profile.report();
    let (p50_ms, p99_ms) = report
        .stage(SPAN_LOADGEN_REQUEST)
        .map(|s| (s.p50_nanos as f64 / 1e6, s.p99_nanos as f64 / 1e6))
        .unwrap_or((0.0, 0.0));
    let unique = total.fingerprints.len() as f64;
    Ok(LoadgenReport {
        requests: total.requests,
        ok: total.ok,
        cache_hits: total.cache_hits,
        overloaded: total.overloaded,
        errors: total.errors,
        fingerprint_conflicts: total.conflicts,
        wall_seconds,
        subjects_per_second: if wall_seconds > 0.0 {
            unique / wall_seconds
        } else {
            0.0
        },
        requests_per_second: if wall_seconds > 0.0 {
            total.requests as f64 / wall_seconds
        } else {
            0.0
        },
        p50_ms,
        p99_ms,
        miss_p50_ms: median(&total.miss_ms),
        hit_p50_ms: median(&total.hit_ms),
        fingerprints: total.fingerprints,
        profile: report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(subjects: u64, clients: usize, repeat: f64) -> LoadgenConfig {
        LoadgenConfig {
            subjects,
            clients,
            repeat,
            seed_base: 100,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn schedule_partitions_the_population() {
        let c = cfg(8, 3, 0.0);
        let mut all: Vec<u64> = (0..3).flat_map(|i| client_schedule(&c, i)).collect();
        all.sort_unstable();
        assert_eq!(all, (100..108).collect::<Vec<u64>>());
    }

    #[test]
    fn schedule_repeats_a_deterministic_prefix() {
        let c = cfg(8, 2, 0.5);
        let sched = client_schedule(&c, 0);
        // Client 0 owns 100,102,104,106; repeat 0.5 → 2 repeats.
        assert_eq!(sched, vec![100, 102, 104, 106, 100, 102]);
        assert_eq!(client_schedule(&c, 0), sched);
    }

    #[test]
    fn request_lines_carry_only_requested_overrides() {
        let mut c = cfg(1, 1, 0.0);
        assert_eq!(request_line(&c, 5), "{\"type\":\"personalize\",\"seed\":5}");
        c.grid_step_deg = Some(15.0);
        c.anechoic = Some(true);
        c.no_cache = true;
        let line = request_line(&c, 5);
        assert!(line.contains("\"grid\":15"));
        assert!(line.contains("\"anechoic\":true"));
        assert!(line.contains("\"no_cache\":true"));
        // Every generated line must parse under the strict grammar.
        protocol::parse_request(&line).unwrap();
    }
}
