//! Integration tests for the uniq-obs tracing/metrics layer: the pipeline
//! emits the documented span hierarchy and quality metrics, and the
//! instrumentation never changes the numerical output.

use std::sync::Arc;

use uniq_core::config::UniqConfig;
use uniq_core::pipeline::{personalize, personalize_with_retry, PersonalizationResult};
use uniq_obs::sink::{MemorySink, NoopSink};
use uniq_obs::Event;
use uniq_subjects::Subject;

fn obs_cfg() -> UniqConfig {
    UniqConfig {
        in_room: false,
        snr_db: 45.0,
        grid_step_deg: 10.0,
        ..UniqConfig::fast_test()
    }
}

#[test]
fn pipeline_emits_expected_span_hierarchy() {
    let cfg = obs_cfg();
    let subject = Subject::from_seed(70);
    let memory = Arc::new(MemorySink::new());
    uniq_obs::with_sink(memory.clone(), || {
        personalize(&subject, &cfg, 42).expect("pipeline succeeds")
    });

    let tree = memory.span_tree();
    assert!(!tree.is_empty(), "no spans recorded");

    // Root span at depth 0, everything else nested beneath it.
    assert_eq!(tree[0], ("personalize".to_string(), 0));
    for (name, depth) in &tree[1..] {
        assert!(*depth >= 1, "span {name} escaped the personalize root");
    }

    // Stage spans appear, each directly under `personalize`.
    for stage in [
        "session",
        "fusion",
        "nearfield.assemble",
        "nearfield.interpolate",
        "nearfar.convert",
    ] {
        let depth = tree
            .iter()
            .find(|(name, _)| name == stage)
            .unwrap_or_else(|| panic!("missing span {stage}"))
            .1;
        assert_eq!(depth, 1, "span {stage} not nested directly under root");
    }

    // Channel estimation runs once per stop, inside `session`.
    let per_stop: Vec<usize> = tree
        .iter()
        .filter(|(name, _)| name == "channel.estimate")
        .map(|(_, depth)| *depth)
        .collect();
    assert_eq!(per_stop.len(), cfg.stops, "one channel span per stop");
    assert!(per_stop.iter().all(|d| *d == 2));

    // Span timings are recorded and the root dominates its children.
    let root_nanos = memory.span_nanos("personalize");
    assert!(root_nanos > 0);
    assert!(memory.span_nanos("fusion") <= root_nanos);
}

#[test]
fn pipeline_records_quality_metrics() {
    let cfg = obs_cfg();
    let subject = Subject::from_seed(71);
    let memory = Arc::new(MemorySink::new());
    let result = uniq_obs::with_sink(memory.clone(), || {
        personalize_with_retry(&subject, &cfg, 43, 3).expect("pipeline succeeds")
    });

    // Per-stop fusion residuals: one per localized stop, all finite.
    let residuals = memory.metric_values("fusion.stop_residual_deg");
    assert!(!residuals.is_empty());
    assert!(residuals.iter().all(|r| r.is_finite() && *r >= 0.0));
    let mean = memory.metric_values("fusion.mean_residual_deg");
    assert_eq!(mean.len(), 1);

    // First-tap SNR: emitted per ear per stop, positive for a 45 dB setup.
    let snrs = memory.metric_values("channel.first_tap_snr_db");
    assert!(!snrs.is_empty());
    assert!(snrs.iter().all(|s| *s > 0.0), "snrs: {snrs:?}");

    // The estimated radius metric matches the returned result.
    let radius = memory.metric_values("personalize.radius_m");
    assert_eq!(radius.last().copied(), Some(result.radius_m));

    // Attempts metric matches the retry count the caller sees.
    let attempts = memory.metric_values("personalize.attempts");
    assert_eq!(attempts.last().copied(), Some(result.attempts as f64));

    // Interpolation-quality diagnostics are emitted when a sink is active.
    assert!(!memory
        .metric_values("nearfield.interp_tap_dev_mean")
        .is_empty());
}

fn assert_results_identical(a: &PersonalizationResult, b: &PersonalizationResult) {
    assert_eq!(a.radius_m, b.radius_m);
    assert_eq!(a.attempts, b.attempts);
    assert_eq!(a.localization, b.localization);
    assert_eq!(a.fusion.head.a, b.fusion.head.a);
    for (x, y) in a.hrtf.far().irs().iter().zip(b.hrtf.far().irs()) {
        assert_eq!(x.left, y.left);
        assert_eq!(x.right, y.right);
    }
    for (x, y) in a.hrtf.near().irs().iter().zip(b.hrtf.near().irs()) {
        assert_eq!(x.left, y.left);
        assert_eq!(x.right, y.right);
    }
}

#[test]
fn instrumentation_never_changes_the_output() {
    // Observability must observe: identical results with no sink, the
    // no-op sink and the recording sink, bit for bit.
    let cfg = obs_cfg();
    let subject = Subject::from_seed(72);

    let bare = personalize(&subject, &cfg, 44).expect("bare run succeeds");
    let noop = uniq_obs::with_sink(Arc::new(NoopSink), || {
        personalize(&subject, &cfg, 44).expect("noop run succeeds")
    });
    let recorded = uniq_obs::with_sink(Arc::new(MemorySink::new()), || {
        personalize(&subject, &cfg, 44).expect("recorded run succeeds")
    });

    assert_results_identical(&bare, &noop);
    assert_results_identical(&bare, &recorded);
}

#[test]
fn every_emitted_name_is_registered() {
    // Exercise the full instrumented surface — the pipeline (clean and
    // faulted), the batch runner, both AoA estimators, and the render
    // layer — and check that every span, metric and counter name it
    // emits is declared in `uniq_obs::names`. A name minted inline at an
    // instrumentation site would dodge the profiler's stage registry,
    // the telemetry registry (which silently drops unknown names), and
    // the baseline gate.
    let cfg = obs_cfg();
    let memory = Arc::new(MemorySink::new());
    uniq_obs::with_sink(memory.clone(), || {
        let subject = Subject::from_seed(73);
        let result = personalize(&subject, &cfg, 45).expect("pipeline succeeds");

        let batch_cfg = UniqConfig {
            threads: 2,
            ..cfg.clone()
        };
        uniq_core::batch::personalize_batch(&[73, 74], &batch_cfg, 2, 1);
        // An impossible residual bound rejects every gesture, exercising
        // the rejection, retry, and batch-failure counters.
        let failing_cfg = UniqConfig {
            max_fusion_residual_deg: 0.001,
            ..batch_cfg.clone()
        };
        uniq_core::batch::personalize_batch(&[75], &failing_cfg, 1, 2);

        // Faulted run: the degradation path has its own counters.
        let plan = uniq_faults::FaultPlan::parse("drop@2,snr:-9@4", 9).expect("plan parses");
        let policy = uniq_core::degrade::DegradationPolicy::default();
        uniq_core::pipeline::personalize_faulted(&subject, &cfg, 46, &plan, &policy)
            .expect("faulted run succeeds");

        let table = &result.hrtf;
        let sig = uniq_acoustics::signals::generate(
            uniq_acoustics::signals::SignalKind::WhiteNoise,
            0.4,
            table.sample_rate(),
            9,
        );
        let rendered = table.synthesize(&sig, 60.0, true);
        let rec = uniq_acoustics::measure::BinauralRecording {
            left: rendered.left,
            right: rendered.right,
        };
        uniq_core::aoa::estimate_known_source(&rec, &sig, table.far(), &cfg);
        uniq_core::aoa::estimate_unknown_source(&rec, table.far(), &cfg);

        // Render layer: snapshot mix, motion timeline, comparison metrics.
        let sample_rate = table.sample_rate();
        let artifact = uniq_store::HrtfArtifact::from_result(45, &result, cfg.content_hash(), None);
        let engine = uniq_render::BinauralEngine::new(result.hrtf);
        let mut scene = uniq_render::Scene::new();
        scene.add("voice", uniq_geometry::Vec2::new(-2.0, 1.0), 1.0);
        let pose = uniq_render::ListenerPose::default();
        let out = engine.render_scene(&scene, &pose, &sig);
        let poses = uniq_render::motion::turning_head(0.0, 40.0, 4);
        uniq_render::motion::render_with_motion(&engine, &scene, &poses, &sig, 256, 64);
        uniq_render::metrics::compare(&out, &out, sample_rate);

        // Memory profiler: summarizing a snapshot emits the alloc.* span,
        // counters and metrics. (This test binary does not install the
        // counting allocator, so the snapshot is empty — the audit checks
        // names, not values.)
        uniq_memprof::snapshot().emit_obs_summary();

        // Artifact store: put (twice, so the dedup counter fires), get,
        // and a deep verify exercise every store.* span and metric.
        let root = std::env::temp_dir().join(format!("uniq_obs_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = uniq_store::Store::open(&root).expect("open scratch store");
        let outcome = store.put(&artifact).expect("store put");
        assert!(store.put(&artifact).expect("dedup put").deduped);
        store.get(&outcome.key).expect("store get");
        assert!(store.verify().is_clean());
        drop(store);
        let _ = std::fs::remove_dir_all(&root);

        // Serve layer: a live server under loadgen emits the
        // serve.request span, admission/cache counters and the request
        // timing metric, while the harness emits loadgen.request. A
        // malformed line fires serve.errors, and a gated depth-1 queue
        // fires serve.shed deterministically.
        let serve_root =
            std::env::temp_dir().join(format!("uniq_obs_serve_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&serve_root);
        let server = uniq_serve::Server::start(
            "127.0.0.1:0",
            uniq_serve::ServeConfig {
                shards: 1,
                base: cfg.clone(),
                store_dir: Some(serve_root.clone()),
                ..Default::default()
            },
        )
        .expect("start audit server");
        uniq_serve::loadgen::run(&uniq_serve::LoadgenConfig {
            addr: server.local_addr().to_string(),
            subjects: 1,
            seed_base: 73,
            clients: 1,
            repeat: 1.0,
            ..Default::default()
        })
        .expect("audit loadgen");
        send_serve_line(server.local_addr(), "definitely not json");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&serve_root);

        let gate = Arc::new(ObsGateHook::default());
        let gated = uniq_serve::Server::start(
            "127.0.0.1:0",
            uniq_serve::ServeConfig {
                shards: 1,
                queue_depth: 1,
                base: cfg.clone(),
                fault_hook: Some(gate.clone()),
                ..Default::default()
            },
        )
        .expect("start gated server");
        let addr = gated.local_addr();
        // A pinned in flight, B filling the queue, C shed.
        let mut streams = Vec::new();
        streams.push(send_serve_request(addr, 80));
        wait_for("request A to reach the pipeline", || {
            gate.arrivals.load(std::sync::atomic::Ordering::SeqCst) >= 1
        });
        streams.push(send_serve_request(addr, 81));
        wait_for("request B to be queued", || gated.submitted() == 2);
        send_serve_request(addr, 82);
        wait_for("request C to be shed", || gated.stats().shed == 1);
        gate.release();
        drop(streams);
        gated.shutdown();
    });

    let events = memory.events();
    assert!(!events.is_empty(), "no events recorded");
    let mut emitted_spans = std::collections::BTreeSet::new();
    let mut emitted_metrics = std::collections::BTreeSet::new();
    for event in &events {
        match event {
            Event::SpanStart { name, .. } | Event::SpanEnd { name, .. } => {
                emitted_spans.insert(*name);
                assert!(
                    uniq_obs::names::ALL_SPANS.contains(name),
                    "span {name:?} is not in uniq_obs::names::ALL_SPANS"
                );
            }
            Event::Metric { name, .. } | Event::Counter { name, .. } => {
                emitted_metrics.insert(*name);
                assert!(
                    uniq_obs::names::ALL_METRICS.contains(name),
                    "metric/counter {name:?} is not in uniq_obs::names::ALL_METRICS"
                );
            }
        }
    }

    // Reverse audit: every *registered* name is either exercised by the
    // workload above or on the explicit allow-list of names emitted only
    // by machinery this in-process workload cannot reach. A registered
    // name nobody emits is dead weight that silently rots.
    const EMITTED_ELSEWHERE: &[&str] = &[
        // Added by the ProfileSink registry at report time, not via a sink event.
        uniq_obs::names::OBS_TELEMETRY_OVERHEAD_NS,
    ];
    for name in uniq_obs::names::ALL_SPANS {
        assert!(
            emitted_spans.contains(name) || EMITTED_ELSEWHERE.contains(name),
            "registered span {name:?} was never emitted by the audit workload; \
             exercise it here or add it to EMITTED_ELSEWHERE with a reason"
        );
    }
    for name in uniq_obs::names::ALL_METRICS {
        assert!(
            emitted_metrics.contains(name) || EMITTED_ELSEWHERE.contains(name),
            "registered metric {name:?} was never emitted by the audit workload; \
             exercise it here or add it to EMITTED_ELSEWHERE with a reason"
        );
    }
}

/// Polls until `probe` holds — sequences the serve audit workload
/// without sleeping for fixed durations.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    for _ in 0..2000 {
        if probe() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// Writes one raw line to the serve socket and waits for the response
/// line (a typed error for malformed input).
fn send_serve_line(addr: std::net::SocketAddr, line: &str) {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to audit server");
    stream.write_all(line.as_bytes()).expect("write line");
    stream.write_all(b"\n").expect("write newline");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("read reply");
    assert!(!reply.is_empty(), "server closed without responding");
}

/// Fires a personalize request and keeps the connection open so the
/// reply has somewhere to land.
fn send_serve_request(addr: std::net::SocketAddr, seed: u64) -> std::net::TcpStream {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to audit server");
    stream
        .write_all(format!("{{\"type\":\"personalize\",\"seed\":{seed}}}\n").as_bytes())
        .expect("write request");
    stream
}

/// Blocks every pipeline run at its first recording until released — a
/// deterministic way to pin the gated server's single shard so the
/// audit can fill its queue and observe a shed.
#[derive(Debug, Default)]
struct ObsGateHook {
    open: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
    arrivals: std::sync::atomic::AtomicU64,
}

impl ObsGateHook {
    fn release(&self) {
        *self.open.lock().expect("gate poisoned") = true;
        self.cv.notify_all();
    }
}

impl uniq_acoustics::measure::RecordingInjector for ObsGateHook {
    fn corrupt_recording(
        &self,
        _site: uniq_acoustics::measure::InjectionSite,
        _rec: &mut uniq_acoustics::measure::BinauralRecording,
    ) -> Vec<&'static str> {
        self.arrivals
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let mut open = self.open.lock().expect("gate poisoned");
        while !*open {
            open = self.cv.wait(open).expect("gate poisoned");
        }
        Vec::new()
    }
}

impl uniq_imu::gyro::RateInjector for ObsGateHook {
    fn corrupt_rates(&self, _rates_dps: &mut [f64], _dt: f64) -> Vec<&'static str> {
        Vec::new()
    }
}

impl uniq_core::FaultHook for ObsGateHook {}
