//! The serve workloads: an in-process `uniq_serve::Server` driven over TCP
//! by the benchmark's own load generator, from one process with at most
//! two client threads and two connections.
//!
//! - `serve-open`: seeded Poisson arrivals at a fixed rate. Each connection
//!   writes on schedule and never waits for replies, so a stall shows up as
//!   latency of later requests. Latency is timed from each request's due
//!   time. Every third arrival repeats a subject first requested at least
//!   2 s earlier (a cache hit); the rest are first requests (misses). The
//!   end-to-end latency is that of the misses; hits are a layer metric.
//! - `serve-saturate`: two closed-loop clients over subjects never seen
//!   before, so every request is a miss and the completion rate is the
//!   server's capacity. Each client sends only subjects that hash onto its
//!   own shard: with one request in flight per connection, subjects drawn
//!   regardless of shard would leave a shard idle whenever both land on the
//!   other, and the run would measure the hash's luck, not the server.
//!
//! After the timed phase, both serve the same fixed quality cohort, whose
//! stored results give `hrir_similarity`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use uniq_core::pipeline::personalize_with_retry;
use uniq_serve::protocol::{self, FrameBuffer, Response};
use uniq_serve::{subject_key, ServeConfig, Server, StatsReply};
use uniq_store::{HrtfArtifact, Store};
use uniq_subjects::Subject;

use crate::inputs::{open_schedule, Arrival, SplitMix64, Stream, Subjects, Workload, CONNECTIONS};
use crate::pipeline::{self, serve_config, MAX_ATTEMPTS};
use crate::stats::{describe, mean, median, peak_rss_mib, reset_peak_rss, setup_median};
use crate::trace::{Phase, Scope};
use crate::{probes, Ctx, Report};

/// One shard per client connection (`serve-saturate` gives each client its
/// own shard).
const SHARDS: usize = CONNECTIONS;
const QUEUE_DEPTH: usize = 32;
/// Subjects of the quality cohort, served after the timed phase and
/// compared with ground truth for `hrir_similarity`.
const COHORT: u64 = 8;
/// Served seeds recomputed with the library after the run.
const RECOMPUTED: usize = 2;
/// A reply later than this after its due time fails the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// One request as the load generator saw it.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub arrival: Arrival,
    /// Latency origin: the due time (open loop) or the send time (closed).
    pub due: Instant,
    /// How late the generator wrote the request: after its due time (open
    /// loop) or after the previous reply arrived (closed loop).
    pub lag: Duration,
    pub recv: Instant,
    pub response: Response,
}

impl Outcome {
    fn reply(&self) -> Option<&uniq_serve::PersonalizedReply> {
        match &self.response {
            Response::Personalized(r) => Some(r),
            _ => None,
        }
    }

    fn latency_ms(&self) -> f64 {
        (self.recv - self.due).as_secs_f64() * 1e3
    }
}

/// Counts the serve layer reports beside its spans.
#[derive(Debug, Clone, Copy)]
pub struct ServeCounts {
    pub hit_ratio: f64,
    /// Requests on the busiest shard over the mean per shard.
    pub shard_skew: f64,
    pub shed: u64,
}

struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn {
            stream,
            frames: FrameBuffer::new(protocol::MAX_LINE_BYTES),
        })
    }

    fn send(&mut self, seed: u64) -> Result<(), String> {
        let line = format!("{{\"type\":\"personalize\",\"seed\":{seed}}}\n");
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))
    }

    /// The next reply, or `None` if none arrived by `until`.
    fn recv(&mut self, until: Instant) -> Result<Option<Response>, String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(line) = self.frames.next_line().map_err(|e| e.to_string())? {
                return protocol::parse_response(&line)
                    .map(Some)
                    .map_err(|e| e.to_string());
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(left.max(Duration::from_micros(100))))
                .map_err(|e| format!("timeout: {e}"))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.frames.push(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// Writes `arrivals` on one connection at their due times (relative to
/// `t0`) and reads replies in between, never waiting for one before the
/// next write is due.
fn open_loop(addr: &str, arrivals: &[Arrival], t0: Instant) -> Result<Vec<Outcome>, String> {
    let mut conn = Conn::connect(addr)?;
    let mut sent: Vec<(Instant, Duration)> = Vec::with_capacity(arrivals.len());
    let mut out = Vec::with_capacity(arrivals.len());
    let give_up =
        t0 + Duration::from_secs_f64(arrivals.last().map_or(0.0, |a| a.due_s)) + REPLY_TIMEOUT;
    while out.len() < arrivals.len() {
        let until = match arrivals.get(sent.len()) {
            Some(next) => {
                let due = t0 + Duration::from_secs_f64(next.due_s);
                let now = Instant::now();
                if now >= due {
                    conn.send(next.subject)?;
                    sent.push((due, now - due));
                    continue;
                }
                due
            }
            None if Instant::now() > give_up => return Err("timed out waiting for replies".into()),
            None => Instant::now() + Duration::from_secs(1),
        };
        if let Some(response) = conn.recv(until)? {
            let i = out.len();
            out.push(Outcome {
                arrival: arrivals[i],
                due: sent[i].0,
                lag: sent[i].1,
                recv: Instant::now(),
                response,
            });
        }
    }
    Ok(out)
}

/// One closed-loop client: sends `subjects` one at a time, each after the
/// previous reply, until `deadline`.
fn closed_loop(
    addr: &str,
    subjects: impl Iterator<Item = u64>,
    deadline: Instant,
) -> Result<Vec<Outcome>, String> {
    let mut conn = Conn::connect(addr)?;
    let mut out = Vec::new();
    let mut ready = Instant::now();
    for subject in subjects {
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        conn.send(subject)?;
        let response = conn
            .recv(sent + REPLY_TIMEOUT)?
            .ok_or_else(|| format!("no reply for subject {subject}"))?;
        let recv = Instant::now();
        out.push(Outcome {
            arrival: Arrival {
                due_s: 0.0,
                subject,
                conn: 0,
                repeat: false,
            },
            due: sent,
            lag: sent - ready,
            recv,
            response,
        });
        ready = recv;
    }
    Ok(out)
}

/// Runs one open-loop schedule over its connections; outcomes come back in
/// schedule order.
fn run_open(addr: &str, schedule: &[Arrival], t0: Instant) -> Result<Vec<Outcome>, String> {
    let per_conn: Vec<Vec<Arrival>> = (0..CONNECTIONS)
        .map(|c| schedule.iter().filter(|a| a.conn == c).copied().collect())
        .collect();
    let results: Vec<Result<Vec<Outcome>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|arrivals| s.spawn(move || open_loop(addr, arrivals, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::with_capacity(schedule.len());
    for r in results {
        all.extend(r?);
    }
    all.sort_by_key(|o| o.due);
    Ok(all)
}

/// The shard the server routes `seed` to.
fn shard_of(seed: u64) -> usize {
    (subject_key(seed) % SHARDS as u64) as usize
}

fn start_server(dir: &Path) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    Server::start(
        "127.0.0.1:0",
        ServeConfig {
            shards: SHARDS,
            queue_depth: QUEUE_DEPTH,
            base: serve_config(),
            store_dir: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))
}

/// Set-up: start the server on a fresh store and answer one warm-up
/// request from a subject outside the timed set.
fn set_up(dir: &Path, warm_subject: u64) -> Result<Server, String> {
    let server = start_server(dir)?;
    let mut conn = Conn::connect(&server.local_addr().to_string())?;
    conn.send(warm_subject)?;
    match conn.recv(Instant::now() + REPLY_TIMEOUT)? {
        Some(Response::Personalized(_)) => Ok(server),
        other => Err(format!("warm-up request failed: {other:?}")),
    }
}

/// Serves the fixed quality cohort, all requests at once over both
/// connections. The cohort follows the set-up subject on the fixed stream,
/// so every cohort request is a miss.
fn serve_cohort(addr: &str, subjects: &Subjects) -> Result<Vec<Outcome>, String> {
    let schedule: Vec<Arrival> = (0..COHORT)
        .map(|i| Arrival {
            due_s: 0.0,
            subject: subjects.seed(Stream::Fixed, 1 + i),
            conn: i as usize % CONNECTIONS,
            repeat: false,
        })
        .collect();
    run_open(addr, &schedule, Instant::now())
}

/// Records the serve spans of `outcomes`: `serve.request` from due time to
/// reply, with a `serve.service.hit`/`serve.service.miss` child placed from
/// the reply's `wall_seconds` so that the request's self time is its wait,
/// and a `loadgen.send` span for the generator's lag.
fn record_spans(scope: Scope<'_>, outcomes: &[Outcome]) {
    for (i, o) in outcomes.iter().enumerate() {
        let request = i as u64;
        let id = scope.record("serve.request", 0, request, o.due, o.recv);
        if let Some(reply) = o.reply() {
            let service = Duration::from_secs_f64(reply.wall_seconds).min(o.recv - o.due);
            let name = if reply.cache_hit {
                "serve.service.hit"
            } else {
                "serve.service.miss"
            };
            scope.record(name, id, request, o.recv - service, o.recv);
        }
        scope.record("loadgen.send", 0, request, o.due, o.due + o.lag);
    }
}

fn counts(outcomes: &[Outcome], stats: &StatsReply) -> ServeCounts {
    let ok: Vec<_> = outcomes.iter().filter_map(Outcome::reply).collect();
    let hits = ok.iter().filter(|r| r.cache_hit).count();
    let mut per_shard = [0u64; SHARDS];
    for o in outcomes {
        per_shard[shard_of(o.arrival.subject)] += 1;
    }
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    ServeCounts {
        hit_ratio: hits as f64 / ok.len().max(1) as f64,
        shard_skew: max / (outcomes.len() as f64 / SHARDS as f64),
        shed: stats.shed,
    }
}

/// Correctness problems in the served fingerprints: a subject answered
/// with two different fingerprints, or a served fingerprint that differs
/// from the library recomputation (`recomputed` pairs seed → fingerprint).
pub fn fingerprint_problems(served: &[(u64, u64)], recomputed: &[(u64, u64)]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut first: BTreeMap<u64, u64> = BTreeMap::new();
    for &(seed, fp) in served {
        match first.get(&seed) {
            Some(&prev) if prev != fp => problems.push(format!(
                "subject {seed}: repeat fingerprint {fp:#018x} differs from {prev:#018x}"
            )),
            Some(_) => {}
            None => {
                first.insert(seed, fp);
            }
        }
    }
    for &(seed, fp) in recomputed {
        match first.get(&seed) {
            Some(&served_fp) if served_fp == fp => {}
            Some(&served_fp) => problems.push(format!(
                "subject {seed}: served {served_fp:#018x}, library {fp:#018x}"
            )),
            None => problems.push(format!("subject {seed}: recomputed but never served")),
        }
    }
    problems
}

/// Everything checked and reported after a serve run.
struct Served {
    outcomes: Vec<Outcome>,
    /// The quality cohort's requests, after the timed phase.
    cohort: Vec<Outcome>,
    drain: StatsReply,
    store_dir: PathBuf,
    elapsed_s: f64,
}

/// Shared post-run work: correctness checks, similarity of served results,
/// and (traced) spans and probes.
fn finish(ctx: &Ctx, served: Served, setup_s: f64, report: &mut Report) {
    let Served {
        outcomes,
        cohort,
        drain,
        store_dir,
        elapsed_s,
    } = served;
    let cfg = serve_config();
    let timed = ctx.tracer.scope(Phase::Timed);
    report.attempted = outcomes.len() as u64;
    report.timed_s = elapsed_s;
    let ok: Vec<&Outcome> = outcomes.iter().filter(|o| o.reply().is_some()).collect();
    report.failed = (outcomes.len() - ok.len()) as u64;
    for o in outcomes.iter().filter(|o| o.reply().is_none()).take(3) {
        report.problem(format!("subject {}: {:?}", o.arrival.subject, o.response));
    }
    if drain.shed != 0 || drain.errors != 0 {
        report.problem(format!(
            "server shed {} and failed {} requests",
            drain.shed, drain.errors
        ));
    }
    let scheduled_hits = outcomes.iter().filter(|o| o.arrival.repeat).count();
    let hits = ok
        .iter()
        .filter(|o| o.reply().is_some_and(|r| r.cache_hit))
        .count();
    if hits != scheduled_hits {
        report.problem(format!("{hits} cache hits, {scheduled_hits} scheduled"));
    }

    // Recompute served misses with the library at the server's config.
    let misses: Vec<&Outcome> = ok.iter().copied().filter(|o| !o.arrival.repeat).collect();
    let mut rng = SplitMix64::new(ctx.seed ^ 0x4ec0);
    let mut picks: Vec<&Outcome> = misses.iter().take(1).copied().collect();
    while picks.len() < RECOMPUTED.min(misses.len()) {
        let o = misses[(rng.next_u64() % misses.len() as u64) as usize];
        if !picks.iter().any(|p| p.arrival.subject == o.arrival.subject) {
            picks.push(o);
        }
    }
    let mut recomputed = Vec::new();
    let mut probe_input = None;
    for o in &picks {
        let seed = o.arrival.subject;
        let subject = Subject::from_seed(seed);
        match personalize_with_retry(&subject, &cfg, seed, MAX_ATTEMPTS) {
            Ok(result) => {
                recomputed.push((seed, pipeline::fingerprint(seed, &result, &cfg)));
                probe_input.get_or_insert((subject, seed, result));
            }
            Err(e) => report.problem(format!("recomputing subject {seed}: {e}")),
        }
    }
    let served: Vec<(u64, u64)> = ok
        .iter()
        .filter_map(|o| o.reply().map(|r| (r.seed, r.fingerprint)))
        .collect();
    for p in fingerprint_problems(&served, &recomputed) {
        report.problem(p);
    }

    // Read the cohort's results back from the store for the quality metric.
    let mut artifacts: Vec<HrtfArtifact> = Vec::new();
    let mut similarity = Vec::new();
    match Store::open(&store_dir) {
        Ok(store) => {
            for o in &cohort {
                let Some(reply) = o.reply() else {
                    report.problem(format!(
                        "cohort subject {}: {:?}",
                        o.arrival.subject, o.response
                    ));
                    continue;
                };
                match store
                    .get(&reply.key)
                    .map_err(|e| e.to_string())
                    .and_then(|a| a.to_table().map(|t| (a, t)).map_err(|e| e.to_string()))
                {
                    Ok((artifact, table)) => {
                        similarity.push(pipeline::hrir_similarity(
                            &Subject::from_seed(reply.seed),
                            table.far(),
                            &cfg,
                        ));
                        artifacts.push(artifact);
                    }
                    Err(e) => report.problem(format!("reading served subject {}: {e}", reply.seed)),
                }
            }
        }
        Err(e) => report.problem(format!("reopening the server store: {e}")),
    }

    let latency: Vec<f64> = outcomes.iter().map(Outcome::latency_ms).collect();
    let class = |hit: bool| -> (Vec<f64>, Vec<f64>) {
        ok.iter()
            .filter(|o| o.reply().is_some_and(|r| r.cache_hit == hit))
            .map(|o| {
                (
                    o.latency_ms(),
                    o.reply().map_or(0.0, |r| r.wall_seconds * 1e3),
                )
            })
            .unzip()
    };
    let (miss_ms, miss_service) = class(false);
    let (hit_ms, hit_service) = class(true);
    let throughput = ok.len() as f64 / elapsed_s;
    let lag_max = outcomes
        .iter()
        .map(|o| o.lag.as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    println!(
        "info sent={} ok={} failed={} hits={hits} misses={}",
        outcomes.len(),
        ok.len(),
        report.failed,
        miss_ms.len()
    );
    println!(
        "info failed_ratio={}",
        report.failed as f64 / outcomes.len().max(1) as f64
    );
    describe("request", &latency);
    describe("miss", &miss_ms);
    describe("hit", &hit_ms);
    describe("miss_service", &miss_service);
    describe("hit_service", &hit_service);
    println!("info throughput_per_s={throughput} over {elapsed_s:.3} s; send_lag_max_ms={lag_max}");
    println!(
        "info hrir_similarity={} over {} cohort subjects",
        mean(&similarity),
        similarity.len()
    );

    if ctx.tracer.on() {
        record_spans(timed, &outcomes);
        report.serve = Some(counts(&outcomes, &drain));
        match &probe_input {
            Some((subject, seed, result)) => {
                let input = probes::Input {
                    subject,
                    seed: *seed,
                    cfg: &cfg,
                    result,
                };
                probes::all(ctx, report, &input, &artifacts);
            }
            None => report.problem("no served subject to probe".into()),
        }
    } else {
        report.metric("setup_s", setup_s);
        report.metric("latency_p50_ms", median(&miss_ms));
        report.metric("hrir_similarity", mean(&similarity));
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Set-up repeated `reps` times (the median is reported); the last
/// server is kept running for the timed phase.
fn repeated_setup(ctx: &Ctx, workload: Workload, dir: &Path) -> Result<(Server, f64), String> {
    let subjects = Subjects::new(workload, ctx.seed);
    let mut times = Vec::new();
    let mut server = None;
    for _ in 0..ctx.setup_reps() {
        if let Some(previous) = server.take() {
            Server::shutdown(previous);
        }
        let start = Instant::now();
        server = Some(set_up(dir, subjects.seed(Stream::Fixed, 0))?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((server.expect("at least one set-up"), setup_median(&times)))
}

pub fn run_open_workload(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let dir = ctx.scratch.join("serve-store");
    let (server, setup_s) = match repeated_setup(ctx, Workload::ServeOpen, &dir) {
        Ok(s) => s,
        Err(e) => return Report::broken(e),
    };
    let subjects = Subjects::new(Workload::ServeOpen, ctx.seed);
    let schedule = open_schedule(&subjects, Stream::Timed, ctx.seed, ctx.seconds);
    let addr = server.local_addr().to_string();
    let t0 = Instant::now() + Duration::from_millis(50);
    reset_peak_rss();
    let outcomes = run_open(&addr, &schedule, t0);
    report.peak_rss_mib = Some(peak_rss_mib());
    let elapsed_s = outcomes
        .as_ref()
        .ok()
        .and_then(|o| o.iter().map(|o| o.recv).max())
        .map_or(0.0, |end| (end - t0).as_secs_f64());
    let cohort = serve_cohort(&addr, &subjects);
    let drain = server.shutdown().stats;
    match (outcomes, cohort) {
        (Ok(outcomes), Ok(cohort)) => finish(
            ctx,
            Served {
                outcomes,
                cohort,
                drain,
                store_dir: dir,
                elapsed_s,
            },
            setup_s,
            &mut report,
        ),
        (Err(e), _) | (_, Err(e)) => return Report::broken(e),
    }
    report
}

pub fn run_saturate_workload(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let dir = ctx.scratch.join("serve-store");
    let (server, setup_s) = match repeated_setup(ctx, Workload::ServeSaturate, &dir) {
        Ok(s) => s,
        Err(e) => return Report::broken(e),
    };
    let subjects = Subjects::new(Workload::ServeSaturate, ctx.seed);
    let addr = server.local_addr().to_string();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(ctx.seconds);
    reset_peak_rss();
    let results: Vec<Result<Vec<Outcome>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|c| {
                let (addr, subjects) = (&addr, &subjects);
                s.spawn(move || {
                    // Client `c` sends only subjects of shard `c`, so
                    // both shards stay busy whatever the hash draws.
                    let own = (0..)
                        .map(|k| subjects.seed(Stream::Timed, k))
                        .filter(move |&s| shard_of(s) == c);
                    closed_loop(addr, own, deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    report.peak_rss_mib = Some(peak_rss_mib());
    let cohort = serve_cohort(&addr, &subjects);
    let drain = server.shutdown().stats;
    let mut outcomes = Vec::new();
    for r in results {
        match r {
            Ok(o) => outcomes.extend(o),
            Err(e) => return Report::broken(e),
        }
    }
    let cohort = match cohort {
        Ok(c) => c,
        Err(e) => return Report::broken(e),
    };
    outcomes.sort_by_key(|o| o.due);
    let elapsed_s = outcomes
        .iter()
        .map(|o| o.recv)
        .max()
        .map_or(0.0, |end| (end - t0).as_secs_f64());
    finish(
        ctx,
        Served {
            outcomes,
            cohort,
            drain,
            store_dir: dir,
            elapsed_s,
        },
        setup_s,
        &mut report,
    );
    report
}

/// A short open-loop probe against a fresh server: four new subjects, each
/// requested again a second later on the same connection. Records its
/// spans in the probe phase and returns its counts.
pub fn probe_serve(
    scope: Scope<'_>,
    subjects: &Subjects,
    dir: &Path,
) -> Result<ServeCounts, String> {
    let server = start_server(dir)?;
    let schedule: Vec<Arrival> = (0..8)
        .map(|i| Arrival {
            due_s: if i < 4 {
                0.05 * i as f64
            } else {
                1.0 + 0.05 * (i - 4) as f64
            },
            subject: subjects.seed(Stream::Probe, i % 4),
            conn: (i % 4) as usize % CONNECTIONS,
            repeat: i >= 4,
        })
        .collect();
    let outcomes = run_open(&server.local_addr().to_string(), &schedule, Instant::now());
    let drain = server.shutdown().stats;
    let _ = std::fs::remove_dir_all(dir);
    let outcomes = outcomes?;
    if let Some(bad) = outcomes.iter().find(|o| o.reply().is_none()) {
        return Err(format!("probe request failed: {:?}", bad.response));
    }
    record_spans(scope, &outcomes);
    Ok(counts(&outcomes, &drain))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tampered_fingerprint_fails_the_check() {
        let served = [(1, 0xaa), (2, 0xbb), (1, 0xaa)];
        assert!(fingerprint_problems(&served, &[(1, 0xaa), (2, 0xbb)]).is_empty());
        // A repeat answered with a different fingerprint.
        assert_eq!(
            fingerprint_problems(&[(1, 0xaa), (2, 0xbb), (1, 0xab)], &[]).len(),
            1
        );
        // A served result the library does not reproduce.
        assert_eq!(fingerprint_problems(&served, &[(2, 0xbc)]).len(), 1);
        assert_eq!(fingerprint_problems(&served, &[(3, 0xbb)]).len(), 1);
    }
}
