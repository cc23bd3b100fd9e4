//! Typed payloads: what each opcode's frame body means.
//!
//! Requests and responses are plain enums; `encode` produces the payload
//! bytes for a [`Frame`], `decode` interprets a received frame. Input
//! vectors and verdicts use the shared binary helpers in
//! [`napmon_core::wirefmt`]; the stats report rides as JSON (it is an
//! ops-facing document, not a hot-path value).
//!
//! Decoding is strict: a payload must spell exactly one value of the
//! opcode's type, with no trailing bytes — anything else is a typed
//! [`WireError::Malformed`].

use crate::error::{ErrorCode, WireError};
use crate::frame::{Frame, Opcode};
use napmon_core::wirefmt;
use napmon_core::Verdict;
use napmon_obs::ObsReport;
use napmon_registry::{ShadowReport, TenantInfo};
use napmon_serve::ServeReport;

/// A client → server message.
///
/// Work requests (`Query`/`QueryBatch`/`Absorb`) and the per-tenant admin
/// requests carry their tenant in the **frame route**, not the payload —
/// the route is addressing, the payload is content.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Serve one input.
    Query(Vec<f64>),
    /// Serve a batch of inputs.
    QueryBatch(Vec<Vec<f64>>),
    /// Absorb a batch of inputs into the store-backed members.
    Absorb(Vec<Vec<f64>>),
    /// Snapshot serving metrics.
    Stats,
    /// Begin a graceful shutdown.
    Shutdown,
    /// Mount the carried artifact at the routed `(model_id, version)` —
    /// as the shadow candidate when `shadow`, otherwise as active
    /// (hot-swapping any current active).
    Mount {
        /// Mount beside the active engine instead of replacing it.
        shadow: bool,
        /// The serialized [`MonitorArtifact`](napmon_artifact::MonitorArtifact).
        artifact_json: String,
    },
    /// Unmount the routed tenant entirely (drain, then final report).
    Unmount,
    /// Promote the routed tenant's shadow candidate to active.
    Promote,
    /// List every mounted tenant.
    ListTenants,
    /// Snapshot the routed tenant's live shadow diff.
    ShadowStats,
    /// Scrape the server's observability report (metrics registry, text
    /// exposition, slow-request log, recent trace spans).
    Metrics,
}

impl Request {
    /// The opcode carrying this request.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Query(_) => Opcode::Query,
            Request::QueryBatch(_) => Opcode::QueryBatch,
            Request::Absorb(_) => Opcode::Absorb,
            Request::Stats => Opcode::Stats,
            Request::Shutdown => Opcode::Shutdown,
            Request::Mount { .. } => Opcode::Mount,
            Request::Unmount => Opcode::Unmount,
            Request::Promote => Opcode::Promote,
            Request::ListTenants => Opcode::ListTenants,
            Request::ShadowStats => Opcode::ShadowStats,
            Request::Metrics => Opcode::Metrics,
        }
    }

    /// Packages the request as a frame with `request_id`.
    ///
    /// # Errors
    ///
    /// [`WireError::TooLarge`] for a batch over [`MAX_BATCH_INPUTS`]: the
    /// decode side has always refused such frames, so encoding one only
    /// manufactured a guaranteed rejection — and the old `len as u32`
    /// count prefix silently wrapped past `u32::MAX`, corrupting the
    /// payload outright. The same frame cap is now checked before any
    /// bytes are written.
    pub fn into_frame(self, request_id: u64) -> Result<Frame, WireError> {
        let mut payload = Vec::new();
        match &self {
            Request::Query(input) => wirefmt::put_features(&mut payload, input),
            Request::QueryBatch(inputs) | Request::Absorb(inputs) => {
                if inputs.len() > MAX_BATCH_INPUTS {
                    return Err(WireError::TooLarge {
                        what: "batch inputs",
                        len: inputs.len() as u64,
                        limit: MAX_BATCH_INPUTS as u64,
                    });
                }
                encode_inputs(&mut payload, inputs)
            }
            Request::Mount {
                shadow,
                artifact_json,
            } => {
                payload.push(u8::from(*shadow));
                payload.extend_from_slice(artifact_json.as_bytes());
            }
            Request::Stats
            | Request::Shutdown
            | Request::Unmount
            | Request::Promote
            | Request::ListTenants
            | Request::ShadowStats
            | Request::Metrics => {}
        }
        Ok(Frame {
            opcode: self.opcode(),
            request_id,
            trace_id: None,
            route: None,
            payload,
        })
    }

    /// Interprets a received frame as a request.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownOpcode`] for response opcodes (a server only
    /// accepts requests) and [`WireError::Malformed`] /
    /// [`WireError::Truncated`] for payloads that do not spell the
    /// opcode's type exactly.
    pub fn decode(frame: &Frame) -> Result<Self, WireError> {
        let mut bytes = frame.payload.as_slice();
        let request = match frame.opcode {
            Opcode::Query => Request::Query(wirefmt::get_features(&mut bytes)?),
            Opcode::QueryBatch => Request::QueryBatch(decode_inputs(&mut bytes)?),
            Opcode::Absorb => Request::Absorb(decode_inputs(&mut bytes)?),
            Opcode::Stats => Request::Stats,
            Opcode::Shutdown => Request::Shutdown,
            Opcode::Mount => {
                let raw = *bytes.first().ok_or(WireError::Truncated)?;
                let shadow = match raw {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(WireError::Malformed(format!(
                            "unknown mount mode byte {other:#04x} (0 = active, 1 = shadow)"
                        )))
                    }
                };
                let artifact_json = std::str::from_utf8(&bytes[1..])
                    .map_err(|_| WireError::Malformed("mount artifact is not UTF-8".to_string()))?
                    .to_string();
                bytes = &[];
                Request::Mount {
                    shadow,
                    artifact_json,
                }
            }
            Opcode::Unmount => Request::Unmount,
            Opcode::Promote => Request::Promote,
            Opcode::ListTenants => Request::ListTenants,
            Opcode::ShadowStats => Request::ShadowStats,
            Opcode::Metrics => Request::Metrics,
            other => return Err(WireError::UnknownOpcode(other as u8)),
        };
        if !bytes.is_empty() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after a {:?} payload",
                bytes.len(),
                frame.opcode
            )));
        }
        Ok(request)
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One verdict ([`Request::Query`]).
    Verdict(Verdict),
    /// A verdict batch ([`Request::QueryBatch`]).
    Verdicts(Vec<Verdict>),
    /// New patterns stored ([`Request::Absorb`]).
    Absorbed(u64),
    /// Metrics snapshot ([`Request::Stats`]).
    Stats(Box<StatsSnapshot>),
    /// Shutdown acknowledged; the server is draining.
    ShuttingDown,
    /// Mount succeeded ([`Request::Mount`]).
    Mounted,
    /// Unmount succeeded; the retired engine's final report
    /// ([`Request::Unmount`]).
    Unmounted(Box<ServeReport>),
    /// Promotion succeeded; the final shadow diff ([`Request::Promote`]).
    Promoted(Box<ShadowReport>),
    /// Every mounted tenant ([`Request::ListTenants`]).
    TenantList(Vec<TenantInfo>),
    /// A live shadow diff snapshot ([`Request::ShadowStats`]).
    ShadowReport(Box<ShadowReport>),
    /// The observability report ([`Request::Metrics`]).
    Metrics(Box<ObsReport>),
    /// The in-flight budget is exhausted; the request was not served.
    Busy {
        /// Requests in flight when the server refused.
        in_flight: u32,
        /// The configured budget.
        budget: u32,
    },
    /// The request failed.
    Error {
        /// Error category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// The stats payload: the engine's own report plus wire-level gauges.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsSnapshot {
    /// The engine's serving report, read from the same cells the
    /// `Metrics` scrape merges; its `queue_depth` is the shard backlog at
    /// snapshot time.
    pub engine: ServeReport,
    /// Requests the wire layer is serving right now.
    pub wire_in_flight: u32,
    /// The server's in-flight budget.
    pub wire_budget: u32,
    /// Requests refused with `Busy` since the server started — the sum of
    /// every `Busy`-shaped refusal in [`DegradedStats`] (budget, watermark,
    /// and connection-cap), kept as one headline figure for dashboards.
    pub wire_busy_rejections: u64,
    /// The split degradation ledger: which defense refused or evicted what.
    pub degraded: DegradedStats,
}

/// Counters for every load-shedding and eviction decision the server has
/// made — the audit trail of its graceful-degradation ladder. Each counter
/// is one defense; together they account for every request or connection
/// the server turned away rather than served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DegradedStats {
    /// Work requests answered `Busy` because the in-flight budget was
    /// exhausted (the request was fully read; the connection stays open).
    pub busy_budget: u64,
    /// Work requests answered `Busy` because the engine's shard backlog
    /// stood above the queue watermark — shed *before* saturating the
    /// engine, again without disconnecting.
    pub shed_watermark: u64,
    /// Connections refused at accept because the connection cap was
    /// reached (answered with one `Busy` frame, then closed).
    pub refused_connections: u64,
    /// Connections evicted for sitting idle between frames past the idle
    /// deadline (each got a typed `Evicted` error frame first).
    pub evicted_idle: u64,
    /// Connections evicted for stalling mid-frame past the frame deadline
    /// — the slow-loris defense — or for not draining their responses past
    /// the write deadline.
    pub evicted_stalled: u64,
    /// Requests refused with a typed error because their tenant route
    /// named no mounted tenant or version (or was missing / present when
    /// the backend cannot use one). Routing misses are client errors, not
    /// load, but they are counted here so a misconfigured fleet shows up
    /// on the same degradation dashboard.
    pub unknown_tenant: u64,
}

impl DegradedStats {
    /// Total `Busy`-shaped refusals: what [`StatsSnapshot`] reports as the
    /// headline `wire_busy_rejections`.
    pub fn busy_total(&self) -> u64 {
        self.busy_budget + self.shed_watermark + self.refused_connections
    }

    /// Total connections evicted for stalling (idle or mid-frame).
    pub fn evicted_total(&self) -> u64 {
        self.evicted_idle + self.evicted_stalled
    }
}

impl Response {
    /// The opcode carrying this response.
    pub fn opcode(&self) -> Opcode {
        match self {
            Response::Verdict(_) => Opcode::Verdict,
            Response::Verdicts(_) => Opcode::Verdicts,
            Response::Absorbed(_) => Opcode::Absorbed,
            Response::Stats(_) => Opcode::StatsReport,
            Response::ShuttingDown => Opcode::ShuttingDown,
            Response::Mounted => Opcode::Mounted,
            Response::Unmounted(_) => Opcode::Unmounted,
            Response::Promoted(_) => Opcode::Promoted,
            Response::TenantList(_) => Opcode::TenantList,
            Response::ShadowReport(_) => Opcode::ShadowReport,
            Response::Metrics(_) => Opcode::MetricsReport,
            Response::Busy { .. } => Opcode::Busy,
            Response::Error { .. } => Opcode::Error,
        }
    }

    /// Packages the response as a frame echoing `request_id`.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] if the stats report fails to serialize
    /// (never expected; surfaced rather than panicking in the server), and
    /// [`WireError::TooLarge`] for an error message over
    /// [`MAX_ERROR_MESSAGE_BYTES`] — previously `message.len() as u32`
    /// silently wrapped for absurd messages, emitting a corrupt length
    /// prefix.
    pub fn into_frame(self, request_id: u64) -> Result<Frame, WireError> {
        let opcode = self.opcode();
        let mut payload = Vec::new();
        match self {
            Response::Verdict(v) => wirefmt::put_verdict(&mut payload, &v),
            Response::Verdicts(vs) => wirefmt::put_verdicts(&mut payload, &vs),
            Response::Absorbed(n) => wirefmt::put_u64(&mut payload, n),
            Response::Stats(snapshot) => {
                payload = serde_json::to_string(&*snapshot)
                    .map_err(|e| WireError::Malformed(format!("stats serialization: {e}")))?
                    .into_bytes();
            }
            Response::ShuttingDown | Response::Mounted => {}
            Response::Unmounted(report) => {
                payload = encode_json("unmount report", &*report)?;
            }
            Response::Promoted(report) => {
                payload = encode_json("promotion report", &*report)?;
            }
            Response::TenantList(tenants) => {
                payload = encode_json("tenant list", &tenants)?;
            }
            Response::ShadowReport(report) => {
                payload = encode_json("shadow report", &*report)?;
            }
            Response::Metrics(report) => {
                payload = encode_json("metrics report", &*report)?;
            }
            Response::Busy { in_flight, budget } => {
                wirefmt::put_u32(&mut payload, in_flight);
                wirefmt::put_u32(&mut payload, budget);
            }
            Response::Error { code, message } => {
                if message.len() > MAX_ERROR_MESSAGE_BYTES {
                    return Err(WireError::TooLarge {
                        what: "error message bytes",
                        len: message.len() as u64,
                        limit: MAX_ERROR_MESSAGE_BYTES as u64,
                    });
                }
                payload.push(code as u8);
                wirefmt::put_u32(&mut payload, message.len() as u32);
                payload.extend_from_slice(message.as_bytes());
            }
        }
        Ok(Frame {
            opcode,
            request_id,
            trace_id: None,
            route: None,
            payload,
        })
    }

    /// Interprets a received frame as a response.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownOpcode`] for request opcodes and
    /// [`WireError::Malformed`] / [`WireError::Truncated`] for payloads
    /// that do not spell the opcode's type exactly.
    pub fn decode(frame: &Frame) -> Result<Self, WireError> {
        let mut bytes = frame.payload.as_slice();
        let response = match frame.opcode {
            Opcode::Verdict => Response::Verdict(wirefmt::get_verdict(&mut bytes)?),
            Opcode::Verdicts => Response::Verdicts(wirefmt::get_verdicts(&mut bytes)?),
            Opcode::Absorbed => Response::Absorbed(wirefmt::get_u64(&mut bytes)?),
            Opcode::StatsReport => {
                let snapshot: StatsSnapshot =
                    serde_json::from_str(std::str::from_utf8(bytes).map_err(|_| {
                        WireError::Malformed("stats payload is not UTF-8".to_string())
                    })?)
                    .map_err(|e| WireError::Malformed(format!("stats payload: {e}")))?;
                bytes = &[];
                Response::Stats(Box::new(snapshot))
            }
            Opcode::ShuttingDown => Response::ShuttingDown,
            Opcode::Mounted => Response::Mounted,
            Opcode::Unmounted => {
                let report = decode_json("unmount report", bytes)?;
                bytes = &[];
                Response::Unmounted(Box::new(report))
            }
            Opcode::Promoted => {
                let report = decode_json("promotion report", bytes)?;
                bytes = &[];
                Response::Promoted(Box::new(report))
            }
            Opcode::TenantList => {
                let tenants = decode_json("tenant list", bytes)?;
                bytes = &[];
                Response::TenantList(tenants)
            }
            Opcode::ShadowReport => {
                let report = decode_json("shadow report", bytes)?;
                bytes = &[];
                Response::ShadowReport(Box::new(report))
            }
            Opcode::MetricsReport => {
                let report = decode_json("metrics report", bytes)?;
                bytes = &[];
                Response::Metrics(Box::new(report))
            }
            Opcode::Busy => Response::Busy {
                in_flight: wirefmt::get_u32(&mut bytes)?,
                budget: wirefmt::get_u32(&mut bytes)?,
            },
            Opcode::Error => {
                let raw = *bytes.first().ok_or(WireError::Truncated)?;
                bytes = &bytes[1..];
                let code = ErrorCode::from_wire(raw)
                    .ok_or_else(|| WireError::Malformed(format!("unknown error code {raw}")))?;
                let len = wirefmt::get_u32(&mut bytes)? as usize;
                if bytes.len() < len {
                    return Err(WireError::Truncated);
                }
                let message = std::str::from_utf8(&bytes[..len])
                    .map_err(|_| WireError::Malformed("error message is not UTF-8".to_string()))?
                    .to_string();
                bytes = &bytes[len..];
                Response::Error { code, message }
            }
            other => return Err(WireError::UnknownOpcode(other as u8)),
        };
        if !bytes.is_empty() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after a {:?} payload",
                bytes.len(),
                frame.opcode
            )));
        }
        Ok(response)
    }
}

/// Protocol-level cap on inputs per batch frame. A `Vec<Vec<f64>>`
/// spends ~24 bytes of header per element, so a forged count costing only
/// 4 payload bytes each would amplify a frame ~6x into allocator
/// pressure; the cap bounds that before admission or decoding. Clients
/// chunk far below this ([`crate::WireClient`] uses 64-input chunks).
pub const MAX_BATCH_INPUTS: usize = 1 << 16;

/// Cap on an error response's message, far below where `len as u32` would
/// wrap: an error detail is a diagnostic sentence, not a document, and a
/// server echoing unbounded attacker-influenced text back into frames
/// would hand out payload amplification.
pub const MAX_ERROR_MESSAGE_BYTES: usize = 64 << 10;

/// Serializes an ops-facing JSON payload (reports, tenant lists).
fn encode_json<T: serde::Serialize>(what: &str, value: &T) -> Result<Vec<u8>, WireError> {
    Ok(serde_json::to_string(value)
        .map_err(|e| WireError::Malformed(format!("{what} serialization: {e}")))?
        .into_bytes())
}

/// Deserializes an ops-facing JSON payload with typed errors.
fn decode_json<T: for<'de> serde::Deserialize<'de>>(
    what: &str,
    bytes: &[u8],
) -> Result<T, WireError> {
    serde_json::from_str(
        std::str::from_utf8(bytes)
            .map_err(|_| WireError::Malformed(format!("{what} payload is not UTF-8")))?,
    )
    .map_err(|e| WireError::Malformed(format!("{what} payload: {e}")))
}

/// Encodes a batch of input vectors: `u32` count, then each vector with
/// its own length prefix (members of a composed monitor may disagree on
/// dimension only at the engine, which rejects them with a typed error).
fn encode_inputs(out: &mut Vec<u8>, inputs: &[Vec<f64>]) {
    wirefmt::put_u32(out, inputs.len() as u32);
    for input in inputs {
        wirefmt::put_features(out, input);
    }
}

fn decode_inputs(bytes: &mut &[u8]) -> Result<Vec<Vec<f64>>, WireError> {
    let count = wirefmt::get_u32(bytes)? as usize;
    if count > MAX_BATCH_INPUTS {
        return Err(WireError::Malformed(format!(
            "batch of {count} inputs exceeds the {MAX_BATCH_INPUTS}-input frame cap"
        )));
    }
    // Each vector costs at least its 4-byte length prefix.
    if bytes.len() / 4 < count {
        return Err(WireError::Truncated);
    }
    let mut inputs = Vec::with_capacity(count);
    for _ in 0..count {
        inputs.push(wirefmt::get_features(bytes)?);
    }
    Ok(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_core::Violation;

    fn round_trip_request(request: Request) {
        let frame = request.clone().into_frame(77).unwrap();
        assert_eq!(frame.request_id, 77);
        assert!(frame.opcode.is_request());
        assert_eq!(Request::decode(&frame).unwrap(), request);
    }

    fn round_trip_response(response: Response) {
        let frame = response.clone().into_frame(78).unwrap();
        assert_eq!(frame.request_id, 78);
        assert!(!frame.opcode.is_request());
        assert_eq!(Response::decode(&frame).unwrap(), response);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Query(vec![1.0, -2.5]));
        round_trip_request(Request::QueryBatch(vec![vec![0.0; 3], vec![9.0; 3]]));
        round_trip_request(Request::Absorb(vec![vec![1.5; 2]]));
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Mount {
            shadow: false,
            artifact_json: "{\"format\":1}".to_string(),
        });
        round_trip_request(Request::Mount {
            shadow: true,
            artifact_json: String::new(),
        });
        round_trip_request(Request::Unmount);
        round_trip_request(Request::Promote);
        round_trip_request(Request::ListTenants);
        round_trip_request(Request::ShadowStats);
        round_trip_request(Request::Metrics);
    }

    #[test]
    fn mount_mode_byte_is_validated() {
        let mut frame = Request::Mount {
            shadow: false,
            artifact_json: "{}".to_string(),
        }
        .into_frame(1)
        .unwrap();
        frame.payload[0] = 7;
        assert!(matches!(
            Request::decode(&frame),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Verdict(Verdict::ok()));
        round_trip_response(Response::Verdicts(vec![
            Verdict::ok(),
            Verdict::warn(vec![Violation::UnknownPattern {
                word: vec![true, false, true],
            }]),
        ]));
        round_trip_response(Response::Absorbed(42));
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Busy {
            in_flight: 64,
            budget: 64,
        });
        round_trip_response(Response::Error {
            code: ErrorCode::Monitor,
            message: "dimension mismatch".to_string(),
        });
        round_trip_response(Response::Mounted);
        round_trip_response(Response::Unmounted(Box::default()));
        let shadow = ShadowReport {
            model_id: "model-a".to_string(),
            active_version: 1,
            shadow_version: 2,
            mirrored: 100,
            dropped: 3,
            agreements: 96,
            warn_only_active: 1,
            warn_only_shadow: 2,
            detail_mismatch: 1,
            shadow_errors: 0,
            absorbed: 4,
            agreement_rate: 0.96,
            mean_active_ns: 1000.0,
            mean_shadow_ns: 1200.0,
            latency_delta_ns: 200.0,
            latency_delta_p50_ns: 150.0,
            latency_delta_p90_ns: 250.0,
            latency_delta_p99_ns: 400.0,
            latency_delta_p999_ns: 900.0,
            active_latency_ns: {
                let mut h = napmon_obs::HistogramSnapshot::new();
                h.record(1000);
                h
            },
            shadow_latency_ns: {
                let mut h = napmon_obs::HistogramSnapshot::new();
                h.record(1200);
                h
            },
        };
        round_trip_response(Response::Promoted(Box::new(shadow.clone())));
        round_trip_response(Response::ShadowReport(Box::new(shadow)));
        round_trip_response(Response::TenantList(vec![TenantInfo {
            model_id: "model-a".to_string(),
            active_version: 1,
            shadow_version: Some(2),
            queue_depth: 5,
        }]));
        round_trip_response(Response::TenantList(Vec::new()));
        let registry = napmon_obs::MetricsRegistry::new();
        registry.counter("wire.requests.query").add(7);
        registry.histogram("serve.latency_ns").record(1234);
        let slow = napmon_obs::SlowLog::new(4, 10);
        slow.observe(99, "Query", 25_000);
        round_trip_response(Response::Metrics(Box::new(ObsReport::capture(
            registry.snapshot(),
            &slow,
        ))));
    }

    #[test]
    fn stats_round_trip() {
        let degraded = DegradedStats {
            busy_budget: 3,
            shed_watermark: 1,
            refused_connections: 1,
            evicted_idle: 2,
            evicted_stalled: 1,
            unknown_tenant: 4,
        };
        let snapshot = StatsSnapshot {
            engine: ServeReport::default(),
            wire_in_flight: 2,
            wire_budget: 16,
            wire_busy_rejections: degraded.busy_total(),
            degraded,
        };
        assert_eq!(degraded.busy_total(), 5);
        assert_eq!(degraded.evicted_total(), 3);
        round_trip_response(Response::Stats(Box::new(snapshot)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = Request::Stats.into_frame(1).unwrap();
        frame.payload.push(0);
        assert!(matches!(
            Request::decode(&frame),
            Err(WireError::Malformed(_))
        ));
        let mut frame = Response::Absorbed(1).into_frame(1).unwrap();
        frame.payload.push(0);
        assert!(matches!(
            Response::decode(&frame),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn wrong_direction_opcodes_are_rejected() {
        let frame = Response::ShuttingDown.into_frame(1).unwrap();
        assert!(matches!(
            Request::decode(&frame),
            Err(WireError::UnknownOpcode(_))
        ));
        let frame = Request::Shutdown.into_frame(1).unwrap();
        assert!(matches!(
            Response::decode(&frame),
            Err(WireError::UnknownOpcode(_))
        ));
    }

    #[test]
    fn batch_at_the_input_cap_encodes_and_round_trips() {
        let inputs = vec![Vec::new(); MAX_BATCH_INPUTS];
        let frame = Request::QueryBatch(inputs.clone()).into_frame(3).unwrap();
        assert_eq!(
            Request::decode(&frame).unwrap(),
            Request::QueryBatch(inputs)
        );
    }

    #[test]
    fn batch_one_past_the_input_cap_is_too_large() {
        // Before the guard, `inputs.len() as u32` was fine here but the
        // frame was guaranteed to be refused on decode; past u32::MAX the
        // count prefix silently wrapped. Both are now one typed refusal
        // at encode time.
        let inputs = vec![Vec::new(); MAX_BATCH_INPUTS + 1];
        for request in [Request::QueryBatch(inputs.clone()), Request::Absorb(inputs)] {
            let err = request.into_frame(3).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::TooLarge {
                        what: "batch inputs",
                        len,
                        limit,
                    } if len == (MAX_BATCH_INPUTS + 1) as u64 && limit == MAX_BATCH_INPUTS as u64
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn error_message_at_the_cap_encodes_one_past_is_too_large() {
        let at_cap = Response::Error {
            code: ErrorCode::Monitor,
            message: "x".repeat(MAX_ERROR_MESSAGE_BYTES),
        };
        round_trip_response(at_cap);
        let over = Response::Error {
            code: ErrorCode::Monitor,
            message: "x".repeat(MAX_ERROR_MESSAGE_BYTES + 1),
        };
        let err = over.into_frame(4).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::TooLarge {
                    what: "error message bytes",
                    ..
                }
            ),
            "{err}"
        );
    }
}
