//! The sharded personalization server.
//!
//! One listener thread accepts TCP connections; each connection gets a
//! handler thread that frames and parses requests. Personalize requests
//! are hashed by subject fingerprint ([`crate::protocol::subject_key`])
//! onto N shard workers, each owning a *bounded* queue — a full queue
//! sheds the request with an explicit `overloaded` response instead of
//! blocking the connection (load shedding beats unbounded latency).
//! Workers run the existing pipeline, consulting a content-addressed
//! result cache (`uniq-store`) keyed by `(subject seed, config content
//! hash)` first, so a repeat personalization is a disk lookup, not a
//! recompute. Same subject → same shard, so concurrent duplicates
//! serialize behind each other and the second becomes a cache hit. A
//! request that panics is answered with a typed `internal` error and the
//! shard keeps serving; the server's locks recover from poisoning.
//!
//! Everything is plain `std`: threads, `TcpListener`, `Mutex`/`Condvar`
//! queues — no async runtime, following the `uniq-par` precedent.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use uniq_core::config::UniqConfig;
use uniq_core::degrade::{DegradationPolicy, FaultHook};
use uniq_core::pipeline::personalize_faulted_with_retry;
use uniq_obs::names::{
    SERVE_CACHE_HITS, SERVE_ERRORS, SERVE_REQUESTS, SERVE_REQUEST_SECONDS, SERVE_SHED,
    SPAN_SERVE_REQUEST,
};
use uniq_obs::ObsContext;
use uniq_store::{Encoded, Store};
use uniq_subjects::Subject;

use crate::error::ServeError;
use crate::protocol::{
    self, DegradationSummary, PersonalizeRequest, PersonalizedReply, Request, StatsReply,
};

/// How often blocked connection reads wake up to check the drain flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Pipeline attempts per request (the first plus two §4.6 retries).
const MAX_ATTEMPTS: usize = 3;

/// Live connections allowed per queue slot. A connection holds at most one
/// request in flight, so `shards × queue_depth` connections keep every
/// queue full; the multiple leaves room for the requests being served and
/// for ping and stats clients.
const CONNECTIONS_PER_SLOT: usize = 4;

/// The most live connections a server with `cfg` accepts: a multiple of
/// its queue slots (at least one slot per shard, so a `queue_depth` of 0
/// still answers pings).
fn max_connections(cfg: &ServeConfig) -> usize {
    CONNECTIONS_PER_SLOT * cfg.shards * cfg.queue_depth.max(1)
}

/// Server configuration. `Default` gives 2 shards, a queue depth of 32,
/// and no store (every request computes).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard worker count (≥ 1). Requests hash onto shards by subject
    /// fingerprint, so a subject's requests always serialize.
    pub shards: usize,
    /// Bounded queue capacity per shard. `0` is legal and sheds every
    /// request — the load-shedding test hook.
    pub queue_depth: usize,
    /// Base pipeline configuration; per-request fields (`grid`, `snr`,
    /// `anechoic`) override it. Workers force `threads = 1` — the server
    /// parallelizes across subjects, not within one.
    pub base: UniqConfig,
    /// Result-cache directory (a `uniq-store` root). `None` disables
    /// caching and persistence.
    pub store_dir: Option<PathBuf>,
    /// Server-level fault hook injected into *every* request's session
    /// (requests may also carry their own `fault_plan`). Faulted requests
    /// bypass the result cache and run under
    /// `DegradationPolicy::default()`.
    pub fault_hook: Option<Arc<dyn FaultHook + Send + Sync>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            queue_depth: 32,
            base: UniqConfig::default(),
            store_dir: None,
            fault_hook: None,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    cache_hits: AtomicU64,
    computed: AtomicU64,
    /// Requests accepted into a shard queue (not on the wire; lets tests
    /// sequence backpressure scenarios without sleeping).
    submitted: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> StatsReply {
        StatsReply {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
        }
    }
}

struct Job {
    req: PersonalizeRequest,
    reply: mpsc::Sender<String>,
}

#[derive(Default)]
struct ShardState {
    jobs: VecDeque<Job>,
    /// Set by the worker on exit; pushes after this are refused, closing
    /// the submit-after-drain race (both sides hold the queue lock).
    closed: bool,
}

struct Shard {
    state: Mutex<ShardState>,
    ready: Condvar,
}

enum SubmitError {
    Full,
    Closed,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            state: Mutex::new(ShardState::default()),
            ready: Condvar::new(),
        }
    }

    fn try_submit(&self, job: Job, depth: usize) -> Result<(), SubmitError> {
        let mut state = lock(&self.state);
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.jobs.len() >= depth {
            return Err(SubmitError::Full);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops the next job; once `draining` is set and the queue is empty,
    /// marks the shard closed and returns `None` (worker exit).
    fn next_job(&self, draining: &AtomicBool) -> Option<Job> {
        let mut state = lock(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if draining.load(Ordering::SeqCst) {
                state.closed = true;
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Inner {
    cfg: ServeConfig,
    counters: Counters,
    shards: Vec<Shard>,
    draining: AtomicBool,
    stop_accept: AtomicBool,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    store: Option<Store>,
    /// seed → result fingerprint of every request answered `ok`, for the
    /// ledger/baseline fold ([`protocol::fold_fingerprints`]).
    fingerprints: Mutex<BTreeMap<u64, u64>>,
    /// Observability context captured at [`Server::start`]: worker and
    /// connection threads re-install the caller's sink so serve spans and
    /// counters land wherever the start site was pointing them.
    ctx: ObsContext,
}

/// A running server. Dropping without [`Server::shutdown`] leaks the
/// listener thread for the process lifetime; call `shutdown` for a clean
/// drain (the CLI and every test do).
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    inner: Arc<Inner>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("shards", &self.shards.len())
            .field("draining", &self.draining)
            .finish()
    }
}

/// What a graceful shutdown drained and flushed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Final counter snapshot.
    pub stats: StatsReply,
    /// seed → result fingerprint of every `ok` response.
    pub fingerprints: BTreeMap<u64, u64>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), spawns
    /// the listener and shard workers, and returns the running server.
    pub fn start(addr: &str, cfg: ServeConfig) -> Result<Server, ServeError> {
        if cfg.shards == 0 {
            return Err(ServeError::Config {
                detail: "shards must be >= 1".into(),
            });
        }
        let store = match &cfg.store_dir {
            Some(dir) => Some(Store::open(dir).map_err(|e| ServeError::Config {
                detail: format!("cannot open store {}: {e}", dir.display()),
            })?),
            None => None,
        };
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Io {
            op: "bind",
            detail: format!("{addr}: {e}"),
        })?;
        let local_addr = listener.local_addr().map_err(|e| ServeError::Io {
            op: "bind",
            detail: e.to_string(),
        })?;

        let inner = Arc::new(Inner {
            shards: (0..cfg.shards).map(|_| Shard::new()).collect(),
            cfg,
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            stop_accept: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            store,
            fingerprints: Mutex::new(BTreeMap::new()),
            ctx: uniq_obs::capture(),
        });

        let workers = (0..inner.cfg.shards)
            .map(|shard| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("serve-shard-{shard}"))
                    .spawn(move || worker_loop(&inner, shard))
                    .expect("spawn shard worker")
            })
            .collect();

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let listener_handle = {
            let inner = inner.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("serve-listener".into())
                .spawn(move || listener_loop(&listener, &inner, &conns))
                .expect("spawn listener")
        };

        Ok(Server {
            local_addr,
            inner,
            listener: Some(listener_handle),
            workers,
            conns,
        })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> StatsReply {
        self.inner.counters.snapshot()
    }

    /// Total requests accepted into a shard queue so far (in-flight,
    /// queued, or completed — everything that was not shed or refused).
    /// Backpressure tests poll this to sequence submissions without
    /// sleeping.
    pub fn submitted(&self) -> u64 {
        self.inner.counters.submitted.load(Ordering::Relaxed)
    }

    /// Blocks until a protocol-level `shutdown` request arrives — the
    /// serve CLI's main loop.
    pub fn wait_shutdown_requested(&self) {
        let mut requested = lock(&self.inner.shutdown_requested);
        while !*requested {
            requested = self
                .inner
                .shutdown_cv
                .wait(requested)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Graceful shutdown: stop admitting work (new connections and new
    /// requests get a typed `shutting_down` response), let every queued
    /// request complete, join all threads, flush the observability sinks,
    /// and return what was drained. No torn artifacts: store writes are
    /// tmp-file + rename, and workers finish their in-flight put before
    /// exiting.
    pub fn shutdown(mut self) -> DrainReport {
        self.inner.draining.store(true, Ordering::SeqCst);
        // Signal under each shard's lock: a worker checks `draining` and
        // starts waiting under that lock, so the wakeup cannot fall
        // between its check and its wait.
        for shard in &self.inner.shards {
            let _state = lock(&shard.state);
            shard.ready.notify_one();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers are done; stop the accept loop (a wake-up connection
        // unblocks the blocking accept) and reap connection handlers.
        self.inner.stop_accept.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.conns).drain(..).collect();
        for conn in handles {
            let _ = conn.join();
        }
        uniq_obs::flush_global_sink();
        DrainReport {
            stats: self.inner.counters.snapshot(),
            fingerprints: lock(&self.inner.fingerprints).clone(),
        }
    }
}

fn listener_loop(
    listener: &TcpListener,
    inner: &Arc<Inner>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if inner.stop_accept.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.stop_accept.load(Ordering::SeqCst) {
            return;
        }
        if inner.draining.load(Ordering::SeqCst) {
            // Refuse, typed: the client learns why instead of seeing a
            // silent RST.
            let mut stream = stream;
            send_line(
                &mut stream,
                &protocol::render_error(&ServeError::ShuttingDown),
            );
            continue;
        }
        // Join the handlers of closed connections first, so a long-running
        // server holds only the live threads and the cap counts only them.
        let mut conns = lock(conns);
        for done in conns.extract_if(.., |conn| conn.is_finished()) {
            let _ = done.join();
        }
        let limit = max_connections(&inner.cfg);
        if conns.len() >= limit {
            let mut stream = stream;
            send_line(
                &mut stream,
                &protocol::render_error(&ServeError::ConnectionLimit { limit }),
            );
            continue;
        }
        // A second handle on the socket, to refuse the connection in a
        // typed line if its handler thread cannot be started.
        let refusal = stream.try_clone();
        let inner = inner.clone();
        let spawned = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || {
                let ctx = inner.ctx.clone();
                ctx.run(|| connection_loop(&inner, stream));
            });
        match spawned {
            Ok(handle) => conns.push(handle),
            Err(e) => {
                if let Ok(mut stream) = refusal {
                    let error = ServeError::Io {
                        op: "spawn",
                        detail: e.to_string(),
                    };
                    send_line(&mut stream, &protocol::render_error(&error));
                }
            }
        }
    }
}

/// Writes one response line, framed with its `\n`, in a single write;
/// returns false when the peer is gone. Two writes would let Nagle hold
/// the second segment until the peer's delayed ACK of the first (~40 ms).
fn send_line(stream: &mut TcpStream, line: &str) -> bool {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    stream.write_all(&frame).is_ok()
}

fn connection_loop(inner: &Arc<Inner>, mut stream: TcpStream) {
    // Replies go out as they are ready: in an open loop a second reply
    // must not queue behind the peer's ACK of the first.
    let _ = stream.set_nodelay(true);
    // Short read timeouts turn the blocking read into a poll so the
    // handler notices a drain even on an idle connection.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut frames = protocol::FrameBuffer::new(protocol::MAX_LINE_BYTES);
    let mut chunk = [0u8; 4096];
    loop {
        // Drain complete frames first, then read more bytes.
        match frames.next_line() {
            Ok(Some(line)) => {
                if !handle_line(inner, &mut stream, &line) {
                    return;
                }
                continue;
            }
            Ok(None) => {}
            Err(e) => {
                inner.counters.errors.fetch_add(1, Ordering::Relaxed);
                uniq_obs::counter(SERVE_ERRORS, 1);
                let closes = e.closes_connection();
                if !send_line(&mut stream, &protocol::render_error(&e)) || closes {
                    return;
                }
                continue;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF: a pending partial frame is a truncated-frame
                // protocol error (nobody left to tell — just count it).
                if frames.finish().is_err() {
                    inner.counters.errors.fetch_add(1, Ordering::Relaxed);
                    uniq_obs::counter(SERVE_ERRORS, 1);
                }
                return;
            }
            Ok(n) => frames.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if inner.draining.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Handles one complete frame; returns false to close the connection.
fn handle_line(inner: &Arc<Inner>, stream: &mut TcpStream, line: &str) -> bool {
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err(e) => {
            inner.counters.errors.fetch_add(1, Ordering::Relaxed);
            uniq_obs::counter(SERVE_ERRORS, 1);
            return send_line(stream, &protocol::render_error(&e)) && !e.closes_connection();
        }
    };
    match request {
        Request::Ping => send_line(stream, &protocol::render_pong()),
        Request::Stats => send_line(stream, &protocol::render_stats(&inner.counters.snapshot())),
        Request::Shutdown => {
            *lock(&inner.shutdown_requested) = true;
            inner.shutdown_cv.notify_all();
            send_line(stream, &protocol::render_shutdown_ack())
        }
        Request::Personalize(req) => {
            inner.counters.requests.fetch_add(1, Ordering::Relaxed);
            uniq_obs::counter(SERVE_REQUESTS, 1);
            if inner.draining.load(Ordering::SeqCst) {
                return send_line(stream, &protocol::render_error(&ServeError::ShuttingDown));
            }
            let shard = (protocol::subject_key(req.seed) % inner.cfg.shards as u64) as usize;
            let (reply_tx, reply_rx) = mpsc::channel();
            match inner.shards[shard].try_submit(
                Job {
                    req,
                    reply: reply_tx,
                },
                inner.cfg.queue_depth,
            ) {
                Ok(()) => {
                    inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
                    match reply_rx.recv() {
                        Ok(response) => send_line(stream, &response),
                        // Worker exited between submit and reply — only
                        // possible mid-drain.
                        Err(_) => {
                            send_line(stream, &protocol::render_error(&ServeError::ShuttingDown))
                        }
                    }
                }
                Err(SubmitError::Full) => {
                    inner.counters.shed.fetch_add(1, Ordering::Relaxed);
                    uniq_obs::counter(SERVE_SHED, 1);
                    send_line(
                        stream,
                        &protocol::render_overloaded(shard, inner.cfg.queue_depth),
                    )
                }
                Err(SubmitError::Closed) => {
                    send_line(stream, &protocol::render_error(&ServeError::ShuttingDown))
                }
            }
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, shard: usize) {
    let ctx = inner.ctx.clone();
    ctx.run_indexed(shard as u64, || {
        while let Some(job) = inner.shards[shard].next_job(&inner.draining) {
            // A panic under `process` fails this request alone: it becomes
            // a typed `internal` reply and the shard keeps serving. Unwind
            // safety holds because the shared state is atomics and
            // poison-tolerant locks ([`lock`]); the request's own state is
            // dropped with the unwind.
            let response = panic::catch_unwind(AssertUnwindSafe(|| process(inner, &job.req)))
                .unwrap_or_else(|payload| {
                    let detail = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    error_reply(inner, &ServeError::Internal { detail })
                });
            // A gone connection is the client's problem, not the worker's.
            let _ = job.reply.send(response);
        }
    });
}

/// Runs one personalize request to a response line: config merge, cache
/// lookup, pipeline run, store put.
fn process(inner: &Arc<Inner>, req: &PersonalizeRequest) -> String {
    let sw = uniq_obs::Stopwatch::start();
    let _span = uniq_obs::span(SPAN_SERVE_REQUEST);

    let mut cfg = inner.cfg.base.clone();
    if let Some(grid) = req.grid_step_deg {
        cfg.grid_step_deg = grid;
    }
    if let Some(snr) = req.snr_db {
        cfg.snr_db = snr;
    }
    if let Some(anechoic) = req.anechoic {
        cfg.in_room = !anechoic;
    }
    // The server parallelizes across subjects (one per shard worker);
    // within one subject the pipeline stays serial. This also makes the
    // config hash independent of the host's pool size (`content_hash`
    // excludes `threads` anyway, but a fixed value keeps the executed
    // pipeline identical across deployments).
    cfg.threads = 1;
    if let Err(e) = cfg.validate() {
        return error_reply(
            inner,
            &ServeError::BadField {
                field: "config",
                detail: e.to_string(),
            },
        );
    }
    let config_hash = cfg.content_hash();

    // A per-request plan takes precedence over the server-level hook.
    let hook: Option<&dyn FaultHook> = match (&req.fault_plan, &inner.cfg.fault_hook) {
        (Some(plan), _) => Some(plan),
        (None, Some(hook)) => Some(hook.as_ref()),
        (None, None) => None,
    };
    // Faulted requests bypass the cache in both directions: degraded
    // results must never masquerade as clean ones under the same
    // (seed, config) key.
    let faulted = hook.is_some();
    let policy = if faulted {
        DegradationPolicy::default()
    } else {
        DegradationPolicy::CLEAN
    };

    if !faulted && !req.no_cache {
        if let Some(store) = &inner.store {
            if let Some(entry) = store.lookup_by_seed(req.seed, config_hash) {
                if let Ok(artifact) = store.get(&entry.key) {
                    inner.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    inner.counters.ok.fetch_add(1, Ordering::Relaxed);
                    uniq_obs::counter(SERVE_CACHE_HITS, 1);
                    record_fingerprint(inner, req.seed, artifact.subject_fingerprint);
                    let wall_seconds = sw.elapsed_seconds();
                    uniq_obs::metric(SERVE_REQUEST_SECONDS, wall_seconds, "s");
                    return protocol::render_personalized(&PersonalizedReply {
                        seed: req.seed,
                        fingerprint: artifact.subject_fingerprint,
                        key: entry.key,
                        cache_hit: true,
                        attempts: 0,
                        radius_m: artifact.radius_m,
                        wall_seconds,
                        degradation: None,
                    });
                }
                // An unreadable cached blob falls through to a recompute;
                // `store verify` will flag the corruption separately.
            }
        }
    }

    let subject = Subject::from_seed(req.seed);
    let run =
        match personalize_faulted_with_retry(&subject, &cfg, req.seed, hook, &policy, MAX_ATTEMPTS)
        {
            Ok(run) => run,
            Err(e) => return pipeline_error(inner, e),
        };
    let result = run.result;
    let degradation = faulted.then_some(run.degradation);

    let degradation_json = degradation.as_ref().map(|d| d.to_json());
    // One pass over the result's banks writes the blob, its payload CRC
    // and the subject fingerprint; no bank is copied into an artifact.
    let blob =
        match Encoded::from_result(req.seed, &result, config_hash, degradation_json.as_deref()) {
            Ok(blob) => blob,
            Err(e) => {
                return error_reply(
                    inner,
                    &ServeError::Pipeline {
                        detail: format!("cannot encode the result: {e}"),
                    },
                );
            }
        };
    let key = match (&inner.store, faulted) {
        // Only clean results enter the cache; see above.
        (Some(store), false) => match store.put_encoded(&blob) {
            Ok(outcome) => outcome.key,
            Err(e) => {
                return error_reply(
                    inner,
                    &ServeError::Pipeline {
                        detail: format!("store put failed: {e}"),
                    },
                );
            }
        },
        _ => uniq_store::content_key(blob.bytes()),
    };
    let fingerprint = blob.subject_fingerprint();

    inner.counters.computed.fetch_add(1, Ordering::Relaxed);
    inner.counters.ok.fetch_add(1, Ordering::Relaxed);
    record_fingerprint(inner, req.seed, fingerprint);
    let wall_seconds = sw.elapsed_seconds();
    uniq_obs::metric(SERVE_REQUEST_SECONDS, wall_seconds, "s");
    protocol::render_personalized(&PersonalizedReply {
        seed: req.seed,
        fingerprint,
        key,
        cache_hit: false,
        attempts: result.attempts as u64,
        radius_m: result.radius_m,
        wall_seconds,
        degradation: degradation.as_ref().map(|d| DegradationSummary {
            mean_quality: d.mean_quality,
            stops_used: d.stops_used as u64,
            stops_planned: d.stops_planned as u64,
            stops_dropped: d.stops_dropped as u64,
            fault_classes: d.fault_classes.join(","),
        }),
    })
}

fn pipeline_error(inner: &Inner, e: uniq_core::pipeline::PersonalizationError) -> String {
    error_reply(
        inner,
        &ServeError::Pipeline {
            detail: e.to_string(),
        },
    )
}

/// Counts a failed request in `serve.errors` and renders its reply line.
fn error_reply(inner: &Inner, e: &ServeError) -> String {
    inner.counters.errors.fetch_add(1, Ordering::Relaxed);
    uniq_obs::counter(SERVE_ERRORS, 1);
    protocol::render_error(e)
}

/// Locks `m`, taking the guard back from a poisoned lock. Everything the
/// server guards (shard queues, the shutdown flag, the fingerprint map,
/// the connection registry) is whole after any single push, pop, insert
/// or store, so one panicking request must not fail every later request
/// that touches the same lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn record_fingerprint(inner: &Arc<Inner>, seed: u64, fingerprint: u64) {
    lock(&inner.fingerprints).insert(seed, fingerprint);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;
    use std::io::{BufRead, BufReader};

    fn poison<T>(m: &Mutex<T>) {
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock();
            panic!("poisoning the lock");
        }));
        assert!(m.is_poisoned());
    }

    #[test]
    fn poisoned_locks_do_not_fail_the_next_request() {
        let server = Server::start(
            "127.0.0.1:0",
            ServeConfig {
                shards: 1,
                base: UniqConfig {
                    in_room: false,
                    snr_db: 45.0,
                    grid_step_deg: 15.0,
                    ..UniqConfig::fast_test()
                },
                ..ServeConfig::default()
            },
        )
        .expect("start server");
        poison(&server.inner.shards[0].state);
        poison(&server.inner.fingerprints);

        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(b"{\"type\":\"personalize\",\"seed\":11}\n")
            .expect("send request");
        let mut line = String::new();
        BufReader::new(&stream)
            .read_line(&mut line)
            .expect("read reply");
        match protocol::parse_response(line.trim_end()) {
            Ok(Response::Personalized(reply)) => assert_eq!(reply.seed, 11),
            other => panic!("expected a personalized reply, got {other:?}"),
        }
        let drain = server.shutdown();
        assert_eq!(drain.stats.ok, 1);
        assert!(drain.fingerprints.contains_key(&11));
    }

    #[test]
    fn closed_connections_release_their_threads() {
        let server = Server::start(
            "127.0.0.1:0",
            ServeConfig {
                shards: 1,
                ..ServeConfig::default()
            },
        )
        .expect("start server");
        const K: usize = 6;
        for _ in 0..K {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            stream
                .write_all(b"{\"type\":\"ping\"}\n")
                .expect("send ping");
            let mut line = String::new();
            BufReader::new(&stream)
                .read_line(&mut line)
                .expect("read reply");
            assert!(line.contains("pong"), "reply: {line}");
            drop(stream);
            // Wait for the handler to see the close, so the next accept
            // finds it finished.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !lock(&server.conns).iter().all(|conn| conn.is_finished()) {
                assert!(std::time::Instant::now() < deadline, "handler never exited");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        // No connection is open, so only the last one's handle may be left.
        assert!(
            lock(&server.conns).len() <= 1,
            "{} handles kept",
            lock(&server.conns).len()
        );
        server.shutdown();
    }
}
