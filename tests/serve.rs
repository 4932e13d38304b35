//! Serve conformance battery: the wire protocol under malformed input,
//! determinism under concurrency, backpressure shedding, and graceful
//! shutdown — every gate the sharded personalization server must hold.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use uniq_acoustics::measure::BinauralRecording;
use uniq_core::batch::result_fingerprint;
use uniq_core::config::UniqConfig;
use uniq_core::degrade::{FaultHook, InjectionSite};
use uniq_core::pipeline::personalize_with_retry;
use uniq_obs::sink::MemorySink;
use uniq_obs::Event;
use uniq_serve::{loadgen, protocol, LoadgenConfig, Response, ServeConfig, Server};
use uniq_subjects::Subject;

/// The fast serve workload config: anechoic, coarse grid, test preset —
/// the battery exercises the server, not HRTF synthesis depth.
fn fast_cfg() -> UniqConfig {
    UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 15.0,
        threads: 1,
        ..UniqConfig::fast_test()
    }
}

fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("uniq_serve_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// One line-delimited protocol client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        stream.set_nodelay(true).expect("set nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    /// Sends one request line, framed with its `\n`, in one write.
    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write line");
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write raw bytes");
    }

    /// Reads one response line; `None` when the server closed the stream.
    fn read_raw(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(_) => None,
        }
    }

    fn read_response(&mut self) -> Response {
        let line = self.read_raw().expect("server closed unexpectedly");
        protocol::parse_response(&line)
            .unwrap_or_else(|e| panic!("unparseable reply {line:?}: {e}"))
    }

    fn expect_error(&mut self, kind: &str) {
        match self.read_response() {
            Response::Error { kind: got, .. } => assert_eq!(got, kind, "wrong error kind"),
            other => panic!("expected {kind} error, got {other:?}"),
        }
    }

    fn personalize(&mut self, seed: u64) {
        self.send(&format!("{{\"type\":\"personalize\",\"seed\":{seed}}}"));
    }
}

fn wait_until(what: &str, mut probe: impl FnMut() -> bool) {
    for _ in 0..2000 {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// The result fingerprint the library path computes for one subject —
/// the number every serve response must reproduce bit for bit.
fn library_fingerprint(seed: u64, cfg: &UniqConfig) -> u64 {
    let subject = Subject::from_seed(seed);
    let result = personalize_with_retry(&subject, cfg, seed, 3).expect("library personalize");
    result_fingerprint(seed, &result)
}

#[test]
fn protocol_conformance_battery() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            shards: 1,
            base: fast_cfg(),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();
    let mut expected_errors = 0u64;

    // Frame-level corruption the connection survives: the frame boundary
    // is known, so the stream resynchronizes and later requests work.
    let mut c = Client::connect(addr);
    c.send_raw(b"\xff\xfe not utf8 \xff\n");
    c.expect_error("invalid_utf8");
    expected_errors += 1;
    c.send("{\"type\":\"ping\" oops");
    c.expect_error("bad_json");
    expected_errors += 1;
    c.send("42");
    c.expect_error("bad_json");
    expected_errors += 1;
    c.send("{\"type\":\"personalize\"}");
    c.expect_error("missing_field");
    expected_errors += 1;
    c.send("{\"type\":\"personalize\",\"seed\":\"banana\"}");
    c.expect_error("bad_field");
    expected_errors += 1;
    c.send("{\"type\":\"personalize\",\"seed\":7,\"bogus\":true}");
    c.expect_error("unknown_field");
    expected_errors += 1;
    c.send("{\"type\":\"frobnicate\"}");
    c.expect_error("unknown_type");
    expected_errors += 1;
    let huge_plan = "x".repeat(protocol::MAX_STRING_BYTES + 1);
    c.send(&format!(
        "{{\"type\":\"personalize\",\"seed\":7,\"fault_plan\":\"{huge_plan}\"}}"
    ));
    c.expect_error("body_too_large");
    expected_errors += 1;
    // A plan that names a real fault class with a non-finite parameter is
    // a typed field error, not a worker panic.
    c.send("{\"type\":\"personalize\",\"seed\":7,\"fault_plan\":\"snr:nan\"}");
    c.expect_error("bad_field");
    expected_errors += 1;

    // Interleaved half-frames: requests split across writes reassemble.
    c.send_raw(b"{\"type\":\"pi");
    std::thread::sleep(Duration::from_millis(20));
    c.send_raw(b"ng\"}\n{\"type\":\"ping\"}\n");
    assert_eq!(c.read_response(), Response::Pong);
    assert_eq!(c.read_response(), Response::Pong);
    drop(c);

    // Oversized frame: no newline within the line limit. Fatal — the
    // stream cannot be resynchronized, so after the typed error the
    // server closes the connection.
    let mut c = Client::connect(addr);
    let oversized = vec![b'a'; protocol::MAX_LINE_BYTES + 1];
    c.send_raw(&oversized);
    c.expect_error("line_too_long");
    expected_errors += 1;
    assert_eq!(
        c.read_raw(),
        None,
        "connection must close after line_too_long"
    );

    // Truncated frame: bytes then EOF without a newline. Nothing to
    // respond to; the server records the error and closes.
    let mut c = Client::connect(addr);
    c.send_raw(b"{\"type\":\"ping\"");
    c.stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    assert_eq!(c.read_raw(), None);
    expected_errors += 1;

    // The server survived all of it, and counted every failure.
    wait_until("error counters to settle", || {
        server.stats().errors == expected_errors
    });
    let mut c = Client::connect(addr);
    c.send("{\"type\":\"stats\"}");
    match c.read_response() {
        Response::Stats(stats) => {
            assert_eq!(stats.errors, expected_errors);
            assert_eq!(stats.requests, 0, "no personalize request was admitted");
            assert_eq!(stats.ok, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    let report = server.shutdown();
    assert_eq!(report.stats.errors, expected_errors);
    assert!(report.fingerprints.is_empty());
}

#[test]
fn extreme_grid_and_snr_get_typed_replies() {
    // Well-formed requests whose values the pipeline cannot run as given:
    // a grid step too fine to enumerate is a config error before any work,
    // and an SNR whose noise amplitude underflows runs noise-free.
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            shards: 1,
            base: fast_cfg(),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let mut c = Client::connect(server.local_addr());
    c.send("{\"type\":\"personalize\",\"seed\":7,\"grid\":1e-300}");
    match c.read_response() {
        Response::Error { kind, message } => {
            assert_eq!(kind, "bad_field", "{message}");
            assert!(message.contains("grid step"), "{message}");
        }
        other => panic!("expected a bad_field error, got {other:?}"),
    }
    c.send("{\"type\":\"personalize\",\"seed\":7,\"snr\":7000}");
    match c.read_response() {
        Response::Personalized(reply) => assert_eq!(reply.seed, 7),
        other => panic!("expected a personalized reply, got {other:?}"),
    }
    let report = server.shutdown();
    assert_eq!(report.stats.errors, 1);
    assert_eq!(report.stats.ok, 1);
}

#[test]
fn random_garbage_never_kills_the_server() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            shards: 1,
            base: fast_cfg(),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    // Seeded xorshift: the byte stream is reproducible run to run.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..40 {
        let mut c = Client::connect(addr);
        let len = (next() % 512 + 1) as usize;
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            let b = (next() % 256) as u8;
            // Bias in some newlines so frames actually complete.
            bytes.push(if b.is_multiple_of(11) { b'\n' } else { b });
        }
        c.send_raw(&bytes);
        c.send_raw(b"\n");
        // Drain whatever comes back until the server goes quiet or
        // closes; every line must parse as a *typed* response — the
        // server never emits garbage, whatever it is fed.
        c.stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("set timeout");
        while let Some(line) = c.read_raw() {
            protocol::parse_response(&line)
                .unwrap_or_else(|e| panic!("round {round}: unparseable reply {line:?}: {e}"));
        }
    }

    // Still alive and well-behaved.
    let mut c = Client::connect(addr);
    c.send("{\"type\":\"ping\"}");
    assert_eq!(c.read_response(), Response::Pong);
    server.shutdown();
}

#[test]
fn sequential_pings_do_not_stall_on_delayed_acks() {
    // A reply that leaves in two segments waits for the client's delayed
    // ACK of the first (~40 ms on Linux) before its `\n` is sent, so 30
    // round trips on one connection would take over a second.
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            shards: 1,
            base: fast_cfg(),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let mut c = Client::connect(server.local_addr());
    let started = Instant::now();
    for _ in 0..30 {
        c.send("{\"type\":\"ping\"}");
        assert_eq!(c.read_response(), Response::Pong);
    }
    let elapsed = started.elapsed();
    server.shutdown();
    assert!(
        elapsed < Duration::from_millis(300),
        "30 sequential pings took {elapsed:?}"
    );
}

#[test]
fn concurrency_preserves_fingerprints_and_cache_skips_fusion() {
    let cfg = fast_cfg();
    let subjects: u64 = 4;
    let seed_base: u64 = 300;
    let library: BTreeMap<u64, u64> = (seed_base..seed_base + subjects)
        .map(|seed| (seed, library_fingerprint(seed, &cfg)))
        .collect();

    // The same population served at 1 and at 16 concurrent clients must
    // produce bit-identical per-subject fingerprints — and they must be
    // the library path's numbers, not merely self-consistent.
    let mut by_concurrency = Vec::new();
    let memory = Arc::new(MemorySink::new());
    for clients in [1usize, 16] {
        let root = scratch(&format!("conc_{clients}"));
        // The server captures the ambient sink at start: every span its
        // workers emit lands in `memory`.
        let server = uniq_obs::with_sink(memory.clone(), || {
            Server::start(
                "127.0.0.1:0",
                ServeConfig {
                    shards: 2,
                    base: cfg.clone(),
                    store_dir: Some(root.clone()),
                    ..ServeConfig::default()
                },
            )
        })
        .expect("start server");
        let report = loadgen::run(&LoadgenConfig {
            addr: server.local_addr().to_string(),
            subjects,
            seed_base,
            clients,
            repeat: 0.0,
            ..LoadgenConfig::default()
        })
        .expect("loadgen run");
        assert_eq!(report.fingerprint_conflicts, 0);
        assert_eq!(report.ok, subjects);

        let fusion_runs_before_repeat = count_spans(&memory, "fusion");
        // Repeat one subject: the response must come from the result
        // store — flagged, zero pipeline attempts, and *no* new fusion
        // span anywhere in the server.
        let mut c = Client::connect(server.local_addr());
        c.personalize(seed_base);
        match c.read_response() {
            Response::Personalized(reply) => {
                assert!(reply.cache_hit, "repeat request must hit the cache");
                assert_eq!(reply.attempts, 0);
                assert_eq!(reply.fingerprint, library[&seed_base]);
                assert!(!reply.key.is_empty(), "cache hit carries the content key");
            }
            other => panic!("expected personalized reply, got {other:?}"),
        }
        assert_eq!(
            count_spans(&memory, "fusion"),
            fusion_runs_before_repeat,
            "a cache hit must not run fusion"
        );

        let drain = server.shutdown();
        assert_eq!(drain.stats.cache_hits, 1);
        assert_eq!(
            drain.fingerprints, library,
            "served fingerprints != library path"
        );
        by_concurrency.push(report.fingerprints);
        let _ = std::fs::remove_dir_all(&root);
    }
    assert_eq!(
        by_concurrency[0], by_concurrency[1],
        "concurrency changed the served results"
    );
}

fn count_spans(memory: &MemorySink, name: &str) -> usize {
    memory
        .events()
        .iter()
        .filter(|e| matches!(e, Event::SpanStart { name: n, .. } if *n == name))
        .count()
}

/// A [`FaultHook`] that blocks every pipeline run at its first recording
/// until the gate opens — the deterministic "slow shard" used to pin
/// requests in flight. It never corrupts anything.
#[derive(Debug)]
struct GateHook {
    open: Mutex<bool>,
    cv: Condvar,
    arrivals: AtomicU64,
}

impl GateHook {
    fn new() -> Arc<GateHook> {
        Arc::new(GateHook {
            open: Mutex::new(false),
            cv: Condvar::new(),
            arrivals: AtomicU64::new(0),
        })
    }

    fn release(&self) {
        *self.open.lock().expect("gate poisoned") = true;
        self.cv.notify_all();
    }

    fn arrivals(&self) -> u64 {
        self.arrivals.load(Ordering::SeqCst)
    }
}

impl FaultHook for GateHook {
    fn corrupt_recording(
        &self,
        _site: InjectionSite,
        _rec: &mut BinauralRecording,
    ) -> Vec<&'static str> {
        self.arrivals.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().expect("gate poisoned");
        while !*open {
            open = self.cv.wait(open).expect("gate poisoned");
        }
        Vec::new()
    }
}

/// A [`FaultHook`] whose first recording panics — a bug deep in the
/// pipeline, reached by one request — and which leaves every later
/// recording untouched.
#[derive(Debug, Default)]
struct PanicOnceHook {
    fired: std::sync::atomic::AtomicBool,
}

impl FaultHook for PanicOnceHook {
    fn corrupt_recording(
        &self,
        _site: InjectionSite,
        _rec: &mut BinauralRecording,
    ) -> Vec<&'static str> {
        if !self.fired.swap(true, Ordering::SeqCst) {
            panic!("injected pipeline panic");
        }
        Vec::new()
    }
}

#[test]
fn a_panicking_request_gets_a_typed_reply_and_the_shard_keeps_serving() {
    let memory = Arc::new(MemorySink::new());
    let server = uniq_obs::with_sink(memory.clone(), || {
        Server::start(
            "127.0.0.1:0",
            ServeConfig {
                shards: 1,
                base: fast_cfg(),
                fault_hook: Some(Arc::new(PanicOnceHook::default())),
                ..ServeConfig::default()
            },
        )
    })
    .expect("start server");
    let mut client = Client::connect(server.local_addr());

    client.personalize(940);
    match client.read_response() {
        Response::Error { kind, message } => {
            assert_eq!(kind, "internal");
            assert!(message.contains("injected pipeline panic"), "{message}");
        }
        other => panic!("expected an internal error, got {other:?}"),
    }
    // Same connection, same (only) shard: the worker survived the unwind.
    client.personalize(941);
    match client.read_response() {
        Response::Personalized(reply) => assert_eq!(reply.seed, 941),
        other => panic!("expected a personalized reply, got {other:?}"),
    }

    let drain = server.shutdown();
    assert_eq!(drain.stats.errors, 1);
    assert_eq!(drain.stats.ok, 1);
    assert_eq!(memory.counter_total(uniq_obs::names::SERVE_ERRORS), 1);
}

#[test]
fn full_queue_sheds_deterministically() {
    let gate = GateHook::new();
    let memory = Arc::new(MemorySink::new());
    let server = uniq_obs::with_sink(memory.clone(), || {
        Server::start(
            "127.0.0.1:0",
            ServeConfig {
                shards: 1,
                queue_depth: 1,
                base: fast_cfg(),
                fault_hook: Some(gate.clone()),
                ..ServeConfig::default()
            },
        )
    })
    .expect("start server");
    let addr = server.local_addr();

    // A: in flight, pinned at the gate. B: fills the depth-1 queue.
    let mut a = Client::connect(addr);
    a.personalize(900);
    wait_until("request A to reach the pipeline", || gate.arrivals() >= 1);
    let mut b = Client::connect(addr);
    b.personalize(901);
    wait_until("request B to be queued", || server.submitted() == 2);

    // C and D arrive at a full queue: shed immediately with the explicit
    // overloaded response — the connection never blocks on a full shard.
    for seed in [902u64, 903] {
        let mut c = Client::connect(addr);
        c.personalize(seed);
        match c.read_response() {
            Response::Overloaded { shard, queue_depth } => {
                assert_eq!(shard, 0);
                assert_eq!(queue_depth, 1);
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
    }
    assert_eq!(server.stats().shed, 2);

    // The pinned requests still complete once the shard unblocks.
    gate.release();
    for client in [&mut a, &mut b] {
        match client.read_response() {
            Response::Personalized(reply) => {
                assert!(!reply.cache_hit);
                assert!(
                    reply.degradation.is_some(),
                    "faulted runs report degradation"
                );
            }
            other => panic!("expected personalized reply, got {other:?}"),
        }
    }

    let drain = server.shutdown();
    assert_eq!(drain.stats.requests, 4);
    assert_eq!(drain.stats.ok, 2);
    assert_eq!(drain.stats.shed, 2);
    // The shed counter the telemetry plane sees agrees with the wire.
    assert_eq!(memory.counter_total(uniq_obs::names::SERVE_SHED), 2);
    assert_eq!(memory.counter_total(uniq_obs::names::SERVE_REQUESTS), 4);
}

/// A global sink that counts flushes — proves shutdown pushes buffered
/// observability output before the process would exit.
#[derive(Debug, Default)]
struct FlushCounter {
    flushes: AtomicU64,
}

impl uniq_obs::sink::Sink for FlushCounter {
    fn on_event(&self, _event: &uniq_obs::Event) {}
    fn flush(&self) {
        self.flushes.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn graceful_shutdown_drains_flushes_and_leaves_no_torn_blobs() {
    let flushes = Arc::new(FlushCounter::default());
    // First caller wins the process-global slot; either way the flush
    // travels through flush_global_sink, which this test owns here.
    uniq_obs::set_global_sink(flushes.clone());
    let flushed_before = flushes.flushes.load(Ordering::SeqCst);

    let gate = GateHook::new();
    let root = scratch("shutdown");
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            shards: 1,
            queue_depth: 8,
            base: fast_cfg(),
            store_dir: Some(root.clone()),
            fault_hook: Some(gate.clone()),
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    // Two requests in flight: A pinned at the gate, B queued behind it.
    let mut a = Client::connect(addr);
    a.personalize(950);
    wait_until("request A to reach the pipeline", || gate.arrivals() >= 1);
    let mut b = Client::connect(addr);
    b.personalize(951);
    wait_until("request B to be queued", || server.submitted() == 2);

    // Shutdown on another thread: it must wait for A and B, not abort them.
    let shutdown = std::thread::spawn(move || server.shutdown());

    // While draining, new connections are refused with a *typed* response
    // — a client sees why, not a bare RST.
    wait_until("drain refusals to begin", || {
        let mut probe = Client::connect(addr);
        probe
            .stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("set timeout");
        match probe.read_raw().map(|l| protocol::parse_response(&l)) {
            Some(Ok(Response::Error { kind, .. })) => kind == "shutting_down",
            _ => false,
        }
    });

    gate.release();
    for client in [&mut a, &mut b] {
        match client.read_response() {
            Response::Personalized(_) => {}
            other => panic!("in-flight request lost to shutdown: {other:?}"),
        }
    }
    let drain = shutdown.join().expect("shutdown thread");
    assert_eq!(drain.stats.ok, 2);
    assert_eq!(drain.stats.requests, 2);
    assert_eq!(drain.fingerprints.len(), 2);
    assert!(
        flushes.flushes.load(Ordering::SeqCst) > flushed_before,
        "shutdown must flush the global sink"
    );

    // Faulted requests bypass the store, so it stayed empty — but intact,
    // with no torn or temporary files left behind.
    let store = uniq_store::Store::open(&root).expect("reopen store");
    assert!(store.verify().is_clean(), "store corrupt after shutdown");
    let mut stray = Vec::new();
    scan_tmp_files(&root, &mut stray);
    assert!(
        stray.is_empty(),
        "temporary files survived shutdown: {stray:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

fn scan_tmp_files(dir: &std::path::Path, hits: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            scan_tmp_files(&path, hits);
        } else if path.to_string_lossy().contains(".tmp") {
            hits.push(path);
        }
    }
}

#[test]
fn two_shards_sustain_throughput_with_latency_profile() {
    let root = scratch("throughput");
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            shards: 2,
            base: fast_cfg(),
            store_dir: Some(root.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let subjects: u64 = 8;
    let report = loadgen::run(&LoadgenConfig {
        addr: server.local_addr().to_string(),
        subjects,
        seed_base: 40,
        clients: 4,
        repeat: 0.25,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");
    let drain = server.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(report.errors, 0);
    assert_eq!(report.overloaded, 0);
    assert_eq!(report.ok, report.requests);
    // Repeats (one per client at ratio 0.25) all come back from the store.
    assert_eq!(report.cache_hits, report.requests - subjects);
    assert_eq!(drain.stats.cache_hits, report.cache_hits);
    // The headline gate: two shards sustain at least 2 subjects/second on
    // the serve workload config.
    assert!(
        report.subjects_per_second >= 2.0,
        "throughput gate failed: {:.2} subjects/s",
        report.subjects_per_second
    );
    // Latency percentiles come from the uniq-profile stage histogram.
    assert!(report.p50_ms > 0.0);
    assert!(report.p99_ms >= report.p50_ms);
    let stage = report
        .profile
        .stage(uniq_obs::names::SPAN_LOADGEN_REQUEST)
        .expect("loadgen.request stage profiled");
    assert_eq!(stage.count, report.requests);
}
