//! The serve wire protocol: line-delimited JSON over TCP.
//!
//! One request per line, LF-terminated; one response line per request.
//! Framing is hand-rolled on top of a byte buffer ([`FrameBuffer`]) with
//! a hard line limit, parsing reuses the workspace JSON parser
//! ([`uniq_obs::json::Json`]) — no serde, no async runtime. The grammar
//! is *strict*: unknown fields and unknown request types are typed
//! errors, not silently ignored, so client typos fail loudly instead of
//! producing a default-configured HRTF.
//!
//! Request lines (`type` selects the variant; all other fields typed):
//!
//! ```text
//! {"type":"personalize","seed":7}                      minimal request
//! {"type":"personalize","seed":7,"grid":15.0,
//!  "snr":45.0,"anechoic":true,
//!  "fault_plan":"drop@2","no_cache":true}              full request
//! {"type":"ping"}   {"type":"stats"}   {"type":"shutdown"}
//! ```
//!
//! Response lines carry a `status` of `ok`, `error`, or `overloaded`;
//! see DESIGN.md §16 for the full grammar and the error `kind` table.

use std::collections::BTreeMap;

use uniq_core::batch::FingerprintBuilder;
use uniq_faults::FaultPlan;
use uniq_obs::json::Json;
use uniq_obs::sink::{json_escape, json_number};

use crate::error::ServeError;

/// Hard cap on one frame (request line), bytes. A maximal legitimate
/// request is ~200 bytes; anything near this limit is garbage or abuse.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Cap on one string *field* inside a request (the fault-plan spec) —
/// the body limit beneath the line limit.
pub const MAX_STRING_BYTES: usize = 1024;

/// The subject fingerprint of a request: FNV-1a over the seed's little-
/// endian bytes. This is the *identity* hash requests are sharded by —
/// a pure function of the request, stable across runs and platforms
/// (the result fingerprint, by contrast, exists only after a pipeline
/// run).
pub fn subject_key(seed: u64) -> u64 {
    uniq_obs::fnv1a(&seed.to_le_bytes())
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Personalize one subject (the workload request).
    Personalize(PersonalizeRequest),
    /// Liveness probe; answered inline by the connection handler.
    Ping,
    /// Counter snapshot; answered inline.
    Stats,
    /// Graceful-shutdown signal (the SIGTERM equivalent of the
    /// protocol): the server drains and exits.
    Shutdown,
}

/// The personalize request body. Optional fields override the server's
/// base [`uniq_core::config::UniqConfig`] per request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PersonalizeRequest {
    /// Synthetic-subject seed — the subject's identity.
    pub seed: u64,
    /// Output grid step override, degrees (`grid`).
    pub grid_step_deg: Option<f64>,
    /// Recording SNR override, dB (`snr`).
    pub snr_db: Option<f64>,
    /// Room-acoustics override (`anechoic`: true = free field).
    pub anechoic: Option<bool>,
    /// Fault plan to inject into this request's session, parsed from the
    /// `fault_plan` spec (`uniq_faults::FaultPlan` grammar) and seeded with
    /// the request's seed. Faulted requests bypass the result cache.
    pub fault_plan: Option<FaultPlan>,
    /// Skip the result cache for this request (compute even on a hit).
    pub no_cache: bool,
}

/// Incremental frame assembly over a byte stream: push raw chunks in,
/// pull complete lines out. Enforces the line limit and UTF-8 validity;
/// every violation is a typed [`ServeError`], never a panic. Pure (no
/// I/O), so the corruption battery can drive it directly.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    max: usize,
}

impl FrameBuffer {
    /// An empty buffer with the given line limit.
    pub fn new(max_line_bytes: usize) -> FrameBuffer {
        FrameBuffer {
            buf: Vec::new(),
            max: max_line_bytes,
        }
    }

    /// Appends raw bytes read from the stream.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Extracts the next complete line, if one is buffered. A trailing
    /// `\r` is stripped (CRLF tolerated). Errors when the buffered prefix
    /// exceeds the line limit without a newline ([`ServeError::LineTooLong`],
    /// fatal) or a complete line is not UTF-8 ([`ServeError::InvalidUtf8`],
    /// survivable — the offending frame is consumed).
    pub fn next_line(&mut self) -> Result<Option<String>, ServeError> {
        match self.buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if pos > self.max {
                    return Err(ServeError::LineTooLong { limit: self.max });
                }
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the \n
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                match String::from_utf8(line) {
                    Ok(s) => Ok(Some(s)),
                    Err(e) => Err(ServeError::InvalidUtf8 {
                        valid_up_to: e.utf8_error().valid_up_to(),
                    }),
                }
            }
            None if self.buf.len() > self.max => Err(ServeError::LineTooLong { limit: self.max }),
            None => Ok(None),
        }
    }

    /// Called at EOF: clean if no partial frame is pending.
    pub fn finish(&self) -> Result<(), ServeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ServeError::TruncatedFrame {
                bytes: self.buf.len(),
            })
        }
    }
}

fn field_f64(obj: &[(String, Json)], field: &'static str) -> Result<Option<f64>, ServeError> {
    match obj.iter().find(|(k, _)| k == field) {
        None => Ok(None),
        Some((_, v)) => v.as_f64().map(Some).ok_or(ServeError::BadField {
            field,
            detail: "expected a number".into(),
        }),
    }
}

fn field_bool(obj: &[(String, Json)], field: &'static str) -> Result<Option<bool>, ServeError> {
    match obj.iter().find(|(k, _)| k == field) {
        None => Ok(None),
        Some((_, v)) => v.as_bool().map(Some).ok_or(ServeError::BadField {
            field,
            detail: "expected a boolean".into(),
        }),
    }
}

fn field_str<'a>(
    obj: &'a [(String, Json)],
    field: &'static str,
) -> Result<Option<&'a str>, ServeError> {
    match obj.iter().find(|(k, _)| k == field) {
        None => Ok(None),
        Some((_, v)) => v.as_str().map(Some).ok_or(ServeError::BadField {
            field,
            detail: "expected a string".into(),
        }),
    }
}

/// Parses one request line. Strict: every field must be known to the
/// request type and well-typed, or the result is a typed error.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let doc = Json::parse(line).map_err(|detail| ServeError::BadJson { detail })?;
    let obj = doc.as_object().ok_or(ServeError::BadJson {
        detail: "request is not a JSON object".into(),
    })?;
    let ty = field_str(obj, "type")?.ok_or(ServeError::MissingField { field: "type" })?;
    let known: &[&str] = match ty {
        "personalize" => &[
            "type",
            "seed",
            "grid",
            "snr",
            "anechoic",
            "fault_plan",
            "no_cache",
        ],
        "ping" | "stats" | "shutdown" => &["type"],
        other => {
            return Err(ServeError::UnknownType {
                value: other.to_string(),
            })
        }
    };
    for (key, _) in obj {
        if !known.contains(&key.as_str()) {
            return Err(ServeError::UnknownField { field: key.clone() });
        }
    }
    match ty {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        _ => {
            let seed = obj
                .iter()
                .find(|(k, _)| k == "seed")
                .ok_or(ServeError::MissingField { field: "seed" })?
                .1
                .as_u64()
                .ok_or(ServeError::BadField {
                    field: "seed",
                    detail: "expected an unsigned integer".into(),
                })?;
            let fault_plan = match field_str(obj, "fault_plan")? {
                Some(spec) if spec.len() > MAX_STRING_BYTES => {
                    return Err(ServeError::BodyTooLarge {
                        field: "fault_plan",
                        limit: MAX_STRING_BYTES,
                        bytes: spec.len(),
                    })
                }
                Some(spec) => {
                    Some(
                        FaultPlan::parse(spec, seed).map_err(|e| ServeError::BadField {
                            field: "fault_plan",
                            detail: e.to_string(),
                        })?,
                    )
                }
                None => None,
            };
            Ok(Request::Personalize(PersonalizeRequest {
                seed,
                grid_step_deg: field_f64(obj, "grid")?,
                snr_db: field_f64(obj, "snr")?,
                anechoic: field_bool(obj, "anechoic")?,
                fault_plan,
                no_cache: field_bool(obj, "no_cache")?.unwrap_or(false),
            }))
        }
    }
}

/// Degradation summary carried in a faulted request's response — the
/// per-request quality telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationSummary {
    /// Mean quality over surviving stops.
    pub mean_quality: f64,
    /// Stops that survived into fusion.
    pub stops_used: u64,
    /// Stops the sweep scheduled.
    pub stops_planned: u64,
    /// Stops dropped by the degradation policy.
    pub stops_dropped: u64,
    /// Observed fault classes, comma-joined.
    pub fault_classes: String,
}

/// A successful personalize response.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonalizedReply {
    /// Echo of the request's subject seed.
    pub seed: u64,
    /// The result fingerprint — bit-identical to the library path's
    /// `hrtf_fingerprint` for the same (seed, config).
    pub fingerprint: u64,
    /// Content key of the `.uhrtf` artifact (empty when the server runs
    /// without a store).
    pub key: String,
    /// Whether the response came from the result cache (a store lookup)
    /// instead of a pipeline run.
    pub cache_hit: bool,
    /// Pipeline attempts consumed (0 on a cache hit).
    pub attempts: u64,
    /// Estimated gesture radius, metres.
    pub radius_m: f64,
    /// Worker wall-clock for this request, seconds.
    pub wall_seconds: f64,
    /// Present iff the request ran under fault injection.
    pub degradation: Option<DegradationSummary>,
}

/// Server counter snapshot (the `stats` reply, also embedded in the
/// shutdown acknowledgement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Personalize requests admitted off the wire.
    pub requests: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Requests that ran the pipeline.
    pub computed: u64,
}

/// A parsed response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `{"status":"ok","type":"personalize",...}`
    Personalized(PersonalizedReply),
    /// `{"status":"ok","type":"pong"}`
    Pong,
    /// `{"status":"ok","type":"stats",...}`
    Stats(StatsReply),
    /// `{"status":"ok","type":"shutdown"}` — drain acknowledged.
    ShutdownAck,
    /// `{"status":"error","kind":...,"message":...}`
    Error {
        /// The [`ServeError::kind`] identifier.
        kind: String,
        /// Human-readable diagnostic.
        message: String,
    },
    /// `{"status":"overloaded",...}` — the request was shed.
    Overloaded {
        /// Shard whose queue was full.
        shard: u64,
        /// That queue's capacity.
        queue_depth: u64,
    },
}

/// Renders a successful personalize response line.
pub fn render_personalized(r: &PersonalizedReply) -> String {
    let mut line = format!(
        "{{\"status\":\"ok\",\"type\":\"personalize\",\"seed\":{},\
         \"fingerprint\":\"{:#018x}\",\"key\":\"{}\",\"cache_hit\":{},\
         \"attempts\":{},\"radius_m\":{},\"wall_seconds\":{}",
        r.seed,
        r.fingerprint,
        json_escape(&r.key),
        r.cache_hit,
        r.attempts,
        json_number(r.radius_m),
        json_number(r.wall_seconds),
    );
    if let Some(d) = &r.degradation {
        line.push_str(&format!(
            ",\"degradation\":{{\"mean_quality\":{},\"stops_used\":{},\
             \"stops_planned\":{},\"stops_dropped\":{},\"fault_classes\":\"{}\"}}",
            json_number(d.mean_quality),
            d.stops_used,
            d.stops_planned,
            d.stops_dropped,
            json_escape(&d.fault_classes),
        ));
    }
    line.push('}');
    line
}

/// Renders an error response line from a typed error.
pub fn render_error(e: &ServeError) -> String {
    format!(
        "{{\"status\":\"error\",\"kind\":\"{}\",\"message\":\"{}\"}}",
        e.kind(),
        json_escape(&e.to_string()),
    )
}

/// Renders the load-shed response line.
pub fn render_overloaded(shard: usize, queue_depth: usize) -> String {
    format!("{{\"status\":\"overloaded\",\"shard\":{shard},\"queue_depth\":{queue_depth}}}")
}

/// Renders the ping reply.
pub fn render_pong() -> String {
    "{\"status\":\"ok\",\"type\":\"pong\"}".to_string()
}

fn stats_fields(s: &StatsReply) -> String {
    format!(
        "\"requests\":{},\"ok\":{},\"errors\":{},\"shed\":{},\"cache_hits\":{},\"computed\":{}",
        s.requests, s.ok, s.errors, s.shed, s.cache_hits, s.computed
    )
}

/// Renders the stats reply.
pub fn render_stats(s: &StatsReply) -> String {
    format!(
        "{{\"status\":\"ok\",\"type\":\"stats\",{}}}",
        stats_fields(s)
    )
}

/// Renders the shutdown acknowledgement.
pub fn render_shutdown_ack() -> String {
    "{\"status\":\"ok\",\"type\":\"shutdown\"}".to_string()
}

fn resp_u64(obj: &[(String, Json)], field: &'static str) -> Result<u64, ServeError> {
    obj.iter()
        .find(|(k, _)| k == field)
        .and_then(|(_, v)| v.as_u64())
        .ok_or(ServeError::BadField {
            field,
            detail: "missing or non-integer in response".into(),
        })
}

fn resp_f64(obj: &[(String, Json)], field: &'static str) -> Result<f64, ServeError> {
    obj.iter()
        .find(|(k, _)| k == field)
        .and_then(|(_, v)| v.as_f64())
        .ok_or(ServeError::BadField {
            field,
            detail: "missing or non-numeric in response".into(),
        })
}

/// Parses one response line (the client half of the protocol).
pub fn parse_response(line: &str) -> Result<Response, ServeError> {
    let doc = Json::parse(line).map_err(|detail| ServeError::BadJson { detail })?;
    let obj = doc.as_object().ok_or(ServeError::BadJson {
        detail: "response is not a JSON object".into(),
    })?;
    let status = field_str(obj, "status")?.ok_or(ServeError::MissingField { field: "status" })?;
    match status {
        "overloaded" => Ok(Response::Overloaded {
            shard: resp_u64(obj, "shard")?,
            queue_depth: resp_u64(obj, "queue_depth")?,
        }),
        "error" => Ok(Response::Error {
            kind: field_str(obj, "kind")?
                .ok_or(ServeError::MissingField { field: "kind" })?
                .to_string(),
            message: field_str(obj, "message")?.unwrap_or_default().to_string(),
        }),
        "ok" => {
            let ty = field_str(obj, "type")?.ok_or(ServeError::MissingField { field: "type" })?;
            match ty {
                "pong" => Ok(Response::Pong),
                "shutdown" => Ok(Response::ShutdownAck),
                "stats" => Ok(Response::Stats(StatsReply {
                    requests: resp_u64(obj, "requests")?,
                    ok: resp_u64(obj, "ok")?,
                    errors: resp_u64(obj, "errors")?,
                    shed: resp_u64(obj, "shed")?,
                    cache_hits: resp_u64(obj, "cache_hits")?,
                    computed: resp_u64(obj, "computed")?,
                })),
                "personalize" => {
                    let fp_text =
                        field_str(obj, "fingerprint")?.ok_or(ServeError::MissingField {
                            field: "fingerprint",
                        })?;
                    let fingerprint =
                        u64::from_str_radix(fp_text.strip_prefix("0x").unwrap_or(fp_text), 16)
                            .map_err(|e| ServeError::BadField {
                                field: "fingerprint",
                                detail: e.to_string(),
                            })?;
                    let degradation = match obj.iter().find(|(k, _)| k == "degradation") {
                        None => None,
                        Some((_, v)) => {
                            let d = v.as_object().ok_or(ServeError::BadField {
                                field: "degradation",
                                detail: "expected an object".into(),
                            })?;
                            Some(DegradationSummary {
                                mean_quality: resp_f64(d, "mean_quality")?,
                                stops_used: resp_u64(d, "stops_used")?,
                                stops_planned: resp_u64(d, "stops_planned")?,
                                stops_dropped: resp_u64(d, "stops_dropped")?,
                                fault_classes: field_str(d, "fault_classes")?
                                    .unwrap_or_default()
                                    .to_string(),
                            })
                        }
                    };
                    Ok(Response::Personalized(PersonalizedReply {
                        seed: resp_u64(obj, "seed")?,
                        fingerprint,
                        key: field_str(obj, "key")?.unwrap_or_default().to_string(),
                        cache_hit: field_bool(obj, "cache_hit")?.unwrap_or(false),
                        attempts: resp_u64(obj, "attempts")?,
                        radius_m: resp_f64(obj, "radius_m")?,
                        wall_seconds: resp_f64(obj, "wall_seconds")?,
                        degradation,
                    }))
                }
                other => Err(ServeError::UnknownType {
                    value: other.to_string(),
                }),
            }
        }
        other => Err(ServeError::BadField {
            field: "status",
            detail: format!("unknown status {other:?}"),
        }),
    }
}

/// Folds a per-subject fingerprint map (seed → result fingerprint) into
/// one digest, in ascending seed order — the deterministic identity of a
/// whole served population, used by the serve baseline gate and ledger
/// records.
pub fn fold_fingerprints(fingerprints: &BTreeMap<u64, u64>) -> u64 {
    let mut fold = FingerprintBuilder::new();
    for (&seed, &fp) in fingerprints {
        fold.eat(seed);
        fold.eat(fp);
    }
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_buffer_splits_lines_and_strips_cr() {
        let mut fb = FrameBuffer::new(64);
        fb.push(b"{\"a\":1}\r\n{\"b\":");
        assert_eq!(fb.next_line().unwrap().unwrap(), "{\"a\":1}");
        assert_eq!(fb.next_line().unwrap(), None);
        fb.push(b"2}\n");
        assert_eq!(fb.next_line().unwrap().unwrap(), "{\"b\":2}");
        fb.finish().unwrap();
    }

    #[test]
    fn frame_buffer_enforces_limit_and_utf8() {
        let mut fb = FrameBuffer::new(8);
        fb.push(b"0123456789abcdef");
        assert_eq!(
            fb.next_line().unwrap_err(),
            ServeError::LineTooLong { limit: 8 }
        );
        let mut fb = FrameBuffer::new(64);
        fb.push(b"ab\xff\xfe\n");
        assert!(matches!(
            fb.next_line().unwrap_err(),
            ServeError::InvalidUtf8 { valid_up_to: 2 }
        ));
        // The bad frame was consumed; the stream resynchronizes.
        fb.push(b"{\"type\":\"ping\"}\n");
        assert_eq!(fb.next_line().unwrap().unwrap(), "{\"type\":\"ping\"}");
        fb.push(b"partial");
        assert_eq!(
            fb.finish().unwrap_err(),
            ServeError::TruncatedFrame { bytes: 7 }
        );
    }

    #[test]
    fn parse_request_is_strict() {
        assert!(matches!(
            parse_request("{\"type\":\"personalize\",\"seed\":7}").unwrap(),
            Request::Personalize(PersonalizeRequest { seed: 7, .. })
        ));
        assert_eq!(parse_request("{\"type\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("{\"type\":\"personalize\"}")
                .unwrap_err()
                .kind(),
            "missing_field"
        );
        assert_eq!(
            parse_request("{\"type\":\"personalize\",\"seed\":7,\"grdi\":15}")
                .unwrap_err()
                .kind(),
            "unknown_field"
        );
        assert_eq!(
            parse_request("{\"type\":\"teleport\"}").unwrap_err().kind(),
            "unknown_type"
        );
        assert_eq!(parse_request("[1,2,3]").unwrap_err().kind(), "bad_json");
        assert_eq!(parse_request("{\"type\":").unwrap_err().kind(), "bad_json");
        assert_eq!(
            parse_request("{\"type\":\"personalize\",\"seed\":\"x\"}")
                .unwrap_err()
                .kind(),
            "bad_field"
        );
        let big = format!(
            "{{\"type\":\"personalize\",\"seed\":1,\"fault_plan\":\"{}\"}}",
            "d".repeat(MAX_STRING_BYTES + 1)
        );
        assert_eq!(parse_request(&big).unwrap_err().kind(), "body_too_large");
        assert_eq!(
            parse_request("{\"type\":\"personalize\",\"seed\":1,\"fault_plan\":\"snr:nan\"}")
                .unwrap_err()
                .kind(),
            "bad_field"
        );
    }

    #[test]
    fn responses_round_trip() {
        let reply = PersonalizedReply {
            seed: 7,
            fingerprint: 0x0123_4567_89ab_cdef,
            key: "deadbeefdeadbeef".into(),
            cache_hit: true,
            attempts: 1,
            radius_m: 0.42,
            wall_seconds: 0.001,
            degradation: Some(DegradationSummary {
                mean_quality: 0.9,
                stops_used: 10,
                stops_planned: 12,
                stops_dropped: 2,
                fault_classes: "drop,snr".into(),
            }),
        };
        let line = render_personalized(&reply);
        assert_eq!(
            parse_response(&line).unwrap(),
            Response::Personalized(reply)
        );
        assert_eq!(
            parse_response(&render_overloaded(3, 8)).unwrap(),
            Response::Overloaded {
                shard: 3,
                queue_depth: 8
            }
        );
        match parse_response(&render_error(&ServeError::ShuttingDown)).unwrap() {
            Response::Error { kind, .. } => assert_eq!(kind, "shutting_down"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(parse_response(&render_pong()).unwrap(), Response::Pong);
        let stats = StatsReply {
            requests: 5,
            ok: 4,
            errors: 1,
            shed: 2,
            cache_hits: 3,
            computed: 1,
        };
        assert_eq!(
            parse_response(&render_stats(&stats)).unwrap(),
            Response::Stats(stats)
        );
    }

    #[test]
    fn fingerprint_fold_is_order_independent_by_construction() {
        let mut a = BTreeMap::new();
        a.insert(2u64, 20u64);
        a.insert(1u64, 10u64);
        let mut b = BTreeMap::new();
        b.insert(1u64, 10u64);
        b.insert(2u64, 20u64);
        assert_eq!(fold_fingerprints(&a), fold_fingerprints(&b));
        b.insert(3u64, 30u64);
        assert_ne!(fold_fingerprints(&a), fold_fingerprints(&b));
    }

    #[test]
    fn fingerprint_fold_and_subject_keys_are_pinned() {
        let population: BTreeMap<u64, u64> = [
            (0, 0),
            (6, 0x0123_4567_89ab_cdef),
            (42, u64::MAX),
            (u64::MAX, 7),
        ]
        .into_iter()
        .collect();
        assert_eq!(fold_fingerprints(&population), 0x1cc3_f761_034a_f89e);
        assert_eq!(fold_fingerprints(&BTreeMap::new()), 0xcbf2_9ce4_8422_2325);
        assert_eq!(subject_key(0), 0xa8c7_f832_281a_39c5);
        assert_eq!(subject_key(42), 0xff3a_dd6b_3789_daef);
        assert_eq!(subject_key(u64::MAX), 0x8cf5_1a8b_fca3_883d);
    }
}
