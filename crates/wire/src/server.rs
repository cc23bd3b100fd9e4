//! The serving side: a TCP listener over a sharded [`MonitorEngine`] or a
//! multi-tenant [`MonitorRegistry`].
//!
//! **One hop from socket to shard.** A single reactor thread owns every
//! connection on nonblocking sockets (see the [`crate::reactor`] module
//! for the event-loop topology): it accepts, runs each peer's
//! frame-reassembly state machine, decodes the frames and runs the
//! admission ladder. A `Query` or `QueryBatch` frame then goes straight
//! onto the target engine's shard queues through the engine's
//! non-blocking submission; the shard that finishes the frame's last
//! chunk encodes the reply and posts it back to the reactor. That is two
//! thread changes per query frame, and nothing on the reactor waits for
//! a shard. Opcodes that may block or copy every metric cell — `Absorb`
//! (a store write), `Stats`, `Metrics` and the registry admin opcodes —
//! go to one control thread instead. The reactor answers `Shutdown`,
//! `Busy`, routing misses and undecodable frames itself. So an idle
//! connection costs a buffer, not an OS thread, and the server runs on
//! two threads of its own whatever the connection count or core count.
//! At most one frame per connection is in flight at a time, so requests
//! on one connection are served in arrival order and a pipelining client
//! reads responses in the order it wrote requests; concurrency comes
//! from connections, parallelism from the engine's shards.
//!
//! **Two backends, one wire, one front door.** [`WireServer::builder`]
//! takes a typed [`Backend`] — [`Backend::Engine`] serves a single
//! engine, [`Backend::Registry`] serves a [`MonitorRegistry`] and
//! dispatches each work frame by its tenant route (see
//! [`TenantRoute`]). On a registry server a work frame *must* carry a
//! route — an unrouted one is answered with a typed `UnknownTenant`
//! error, as is a routed frame on a single-engine server. Routing misses
//! are accounted in [`DegradedStats::unknown_tenant`]. Registry admin
//! requests (`Mount`, `Unmount`, `Promote`, `ListTenants`,
//! `ShadowStats`) are control plane: they bypass the in-flight work
//! budget so operators can still flip traffic while the data plane is
//! saturated.
//!
//! **Backpressure is a typed response, not dropped bytes.** A global
//! in-flight budget bounds the work admitted across all connections;
//! a request over budget is answered with a `Busy` frame carrying the
//! budget figures, and the bytes already read stay framed — the
//! connection remains usable.
//!
//! **Shutdown drains.** A `Shutdown` request (or [`WireServer::shutdown`])
//! stops accepting and lets every connection finish the frames it has
//! started — in-flight requests are served, responses written, bounded
//! by [`WireConfig::drain_grace`] — before the backend itself drains and
//! reports final metrics. The reactor and the control thread are joined
//! *first*; on a registry backend [`MonitorRegistry::shutdown`] then runs
//! — which also joins the background drainers of engines retired by earlier
//! hot-swaps, so a shutdown that lands mid-swap cannot leak the outgoing
//! engine's worker threads. A client that disconnects mid-request costs
//! nothing: its work completes in the engine and the unsendable reply is
//! dropped.
//!
//! **Degradation is graceful and accounted.** Under pressure the server
//! walks a fixed shedding ladder rather than falling over: connections
//! over the cap are refused at accept time with one `Busy` frame through
//! the nonblocking write path; fully-read requests are shed with `Busy`
//! when the backend's backlog crosses the queue watermark or the
//! in-flight budget is exhausted (never mid-frame — a shed request
//! leaves the connection framed and usable); and peers that stall — idle
//! between frames past [`WireConfig::idle_timeout`], or mid-frame past
//! [`WireConfig::frame_deadline`] (the slow-loris defense) — are evicted
//! by the reactor's timer wheel with a typed `Evicted` error frame.
//! Every one of these decisions increments a counter in
//! [`DegradedStats`], reported by `Stats`.

use crate::codec::{DegradedStats, Request, Response, StatsSnapshot};
use crate::error::{registry_error_code, serve_error_code, ErrorCode, WireError};
use crate::frame::{Frame, Opcode, TenantRoute, ACTIVE_VERSION, DEFAULT_MAX_PAYLOAD};
use crate::reactor::{CompletionQueue, Reactor, Tag, POLL_TICK};
use napmon_artifact::{ArtifactError, MonitorArtifact};
use napmon_core::{ComposedMonitor, Verdict};
use napmon_obs::{Counter, LatencyHistogram, MetricsRegistry, MetricsSnapshot, ObsReport, SlowLog};
use napmon_registry::{MonitorRegistry, RegistryError, RegistryReport};
use napmon_serve::{EngineConfig, MonitorEngine, ServeError, ServeReport};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for a [`WireServer`].
///
/// Non-exhaustive: start from [`WireConfig::default`] and chain the
/// `with_*` setters, so new reactor knobs land without breaking
/// downstream construction sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct WireConfig {
    /// Global budget of requests being served at once (work opcodes:
    /// `Query`, `QueryBatch`, `Absorb`). A request arriving over budget is
    /// answered `Busy`. Zero is treated as one.
    pub max_in_flight: usize,
    /// Cap on live connections. An accept over the cap is answered with
    /// a `Busy` frame and closed. Connections are cheap under the
    /// reactor (a buffer, not a thread), so the cap bounds memory and
    /// file descriptors rather than threads. Zero is treated as one.
    pub max_connections: usize,
    /// Largest payload a frame may declare; a larger declaration fails
    /// typed before any allocation.
    pub max_payload: u32,
    /// How long a connection may keep serving already-started work after
    /// a shutdown is observed, before it is closed mid-stream.
    pub drain_grace: Duration,
    /// How long a connection may sit idle *between* frames before it is
    /// evicted (typed `Evicted` error frame, then close). Bounds how long
    /// a silent peer can hold one of the capped connection slots.
    pub idle_timeout: Duration,
    /// How long a peer may stall *mid-frame* — header or payload started
    /// but not finished — before eviction. This is the slow-loris defense:
    /// trickling one byte per deadline no longer holds a connection slot
    /// forever. Also the write-stall deadline, so a peer that stops
    /// draining its responses is evicted rather than growing the write
    /// queue without bound.
    pub frame_deadline: Duration,
    /// Backend backlog level (in queued micro-batch jobs, the unit of
    /// `MonitorEngine::queue_depth`; summed across tenants on a registry
    /// backend) above which fully-read work requests are shed with `Busy`
    /// instead of queued. Shedding at the wire keeps the engine below
    /// saturation, so already-admitted work keeps its latency. Zero
    /// disables watermark shedding.
    pub queue_watermark: usize,
    /// Requests taking longer than this end-to-end (frame read through
    /// response write) are recorded in the slow-request log scraped by
    /// the `Metrics` opcode. Timings come from the `obs` probe clock
    /// (which reads 0 without the `obs` feature), so the log only
    /// populates with the feature compiled in; untraced requests log
    /// under trace id 0. `Duration::MAX` disables the log.
    pub slow_request_threshold: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 256,
            max_connections: 1024,
            max_payload: DEFAULT_MAX_PAYLOAD,
            drain_grace: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            frame_deadline: Duration::from_secs(10),
            queue_watermark: 4096,
            slow_request_threshold: Duration::from_millis(100),
        }
    }
}

/// Entries the slow-request log retains (last-N, drop-oldest).
pub const SLOW_LOG_CAPACITY: usize = 64;

impl WireConfig {
    /// Sets the global in-flight work budget.
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Sets the live-connection cap.
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections;
        self
    }

    /// Sets the largest payload a frame may declare.
    pub fn with_max_payload(mut self, max_payload: u32) -> Self {
        self.max_payload = max_payload;
        self
    }

    /// Sets the shutdown drain grace.
    pub fn with_drain_grace(mut self, drain_grace: Duration) -> Self {
        self.drain_grace = drain_grace;
        self
    }

    /// Sets the between-frames idle eviction deadline.
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Sets the mid-frame stall (slow-loris) eviction deadline.
    pub fn with_frame_deadline(mut self, frame_deadline: Duration) -> Self {
        self.frame_deadline = frame_deadline;
        self
    }

    /// Sets the backend-backlog shed watermark (0 disables).
    pub fn with_queue_watermark(mut self, queue_watermark: usize) -> Self {
        self.queue_watermark = queue_watermark;
        self
    }

    /// Sets the slow-request log threshold.
    pub fn with_slow_request_threshold(mut self, slow_request_threshold: Duration) -> Self {
        self.slow_request_threshold = slow_request_threshold;
        self
    }

    fn normalized(self) -> Self {
        // Deadlines below the poll granularity cannot be observed.
        Self {
            max_in_flight: self.max_in_flight.max(1),
            max_connections: self.max_connections.max(1),
            idle_timeout: self.idle_timeout.max(POLL_TICK),
            frame_deadline: self.frame_deadline.max(POLL_TICK),
            ..self
        }
    }
}

/// The [`DegradedStats`] ledger, registered in the server's metrics
/// registry under `wire.degraded.*` — one shared set of counters backs
/// both the exact per-server `Stats` snapshot and the `Metrics` scrape.
pub(crate) struct DegradedCounters {
    pub(crate) busy_budget: Counter,
    pub(crate) shed_watermark: Counter,
    pub(crate) refused_connections: Counter,
    pub(crate) evicted_idle: Counter,
    pub(crate) evicted_stalled: Counter,
    pub(crate) unknown_tenant: Counter,
}

impl DegradedCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            busy_budget: registry.counter("wire.degraded.busy_budget"),
            shed_watermark: registry.counter("wire.degraded.shed_watermark"),
            refused_connections: registry.counter("wire.degraded.refused_connections"),
            evicted_idle: registry.counter("wire.degraded.evicted_idle"),
            evicted_stalled: registry.counter("wire.degraded.evicted_stalled"),
            unknown_tenant: registry.counter("wire.degraded.unknown_tenant"),
        }
    }

    fn snapshot(&self) -> DegradedStats {
        DegradedStats {
            busy_budget: self.busy_budget.get(),
            shed_watermark: self.shed_watermark.get(),
            refused_connections: self.refused_connections.get(),
            evicted_idle: self.evicted_idle.get(),
            evicted_stalled: self.evicted_stalled.get(),
            unknown_tenant: self.unknown_tenant.get(),
        }
    }
}

/// Per-request-opcode counters (`wire.requests.*`), resolved once at
/// construction so the hot path never touches the registry's lock.
struct OpcodeCounters {
    query: Counter,
    query_batch: Counter,
    absorb: Counter,
    stats: Counter,
    shutdown: Counter,
    mount: Counter,
    unmount: Counter,
    promote: Counter,
    list_tenants: Counter,
    shadow_stats: Counter,
    metrics: Counter,
}

impl OpcodeCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        let named = |op: Opcode| registry.counter(&format!("wire.requests.{}", op.name()));
        Self {
            query: named(Opcode::Query),
            query_batch: named(Opcode::QueryBatch),
            absorb: named(Opcode::Absorb),
            stats: named(Opcode::Stats),
            shutdown: named(Opcode::Shutdown),
            mount: named(Opcode::Mount),
            unmount: named(Opcode::Unmount),
            promote: named(Opcode::Promote),
            list_tenants: named(Opcode::ListTenants),
            shadow_stats: named(Opcode::ShadowStats),
            metrics: named(Opcode::Metrics),
        }
    }

    /// The counter for a request opcode; `None` for response opcodes
    /// (which never arrive at a server as requests worth counting).
    fn get(&self, opcode: Opcode) -> Option<&Counter> {
        Some(match opcode {
            Opcode::Query => &self.query,
            Opcode::QueryBatch => &self.query_batch,
            Opcode::Absorb => &self.absorb,
            Opcode::Stats => &self.stats,
            Opcode::Shutdown => &self.shutdown,
            Opcode::Mount => &self.mount,
            Opcode::Unmount => &self.unmount,
            Opcode::Promote => &self.promote,
            Opcode::ListTenants => &self.list_tenants,
            Opcode::ShadowStats => &self.shadow_stats,
            Opcode::Metrics => &self.metrics,
            _ => return None,
        })
    }
}

/// The server's observability surface: its own metrics registry (merged
/// with the process-global one at scrape time), the slow-request log, and
/// the pre-resolved hot-path handles.
pub(crate) struct ServerObs {
    pub(crate) registry: MetricsRegistry,
    pub(crate) slow: SlowLog,
    ops: OpcodeCounters,
    /// End-to-end wire latency per request (frame read through response
    /// write), in nanoseconds; zero-valued when the `obs` clock is off.
    pub(crate) request_ns: Arc<LatencyHistogram>,
}

impl ServerObs {
    fn new(config: &WireConfig) -> Self {
        let registry = MetricsRegistry::new();
        let threshold_ns =
            u64::try_from(config.slow_request_threshold.as_nanos()).unwrap_or(u64::MAX);
        Self {
            slow: SlowLog::new(SLOW_LOG_CAPACITY, threshold_ns),
            ops: OpcodeCounters::new(&registry),
            request_ns: registry.histogram("wire.request_ns"),
            registry,
        }
    }
}

/// What a [`WireServer`] dispatches decoded frames into — the typed
/// choice [`WireServer::builder`] is constructed over. Anything that
/// converts into a `Backend` (an engine, an `Arc`'d engine, a registry)
/// can be passed to the builder directly.
#[non_exhaustive]
pub enum Backend {
    /// One engine; every work frame goes to it (tenant routes refused).
    Engine(Arc<MonitorEngine<ComposedMonitor>>),
    /// A multi-tenant registry; work frames dispatch by their route.
    Registry(Arc<MonitorRegistry>),
}

impl Backend {
    /// The backend's total shard backlog, the watermark gate's gauge.
    pub(crate) fn backlog(&self) -> usize {
        match self {
            Backend::Engine(engine) => engine.queue_depth(),
            Backend::Registry(registry) => {
                registry.list().iter().map(|t| t.queue_depth as usize).sum()
            }
        }
    }

    /// The backend's serving cells: the engine's, or the registry's
    /// active engines merged — the same snapshot `Stats` reads.
    fn metrics(&self) -> MetricsSnapshot {
        match self {
            Backend::Engine(engine) => engine.metrics(),
            Backend::Registry(registry) => registry.metrics(),
        }
    }
}

impl From<MonitorEngine<ComposedMonitor>> for Backend {
    fn from(engine: MonitorEngine<ComposedMonitor>) -> Self {
        Backend::Engine(Arc::new(engine))
    }
}

impl From<Arc<MonitorEngine<ComposedMonitor>>> for Backend {
    fn from(engine: Arc<MonitorEngine<ComposedMonitor>>) -> Self {
        Backend::Engine(engine)
    }
}

impl From<Arc<MonitorRegistry>> for Backend {
    fn from(registry: Arc<MonitorRegistry>) -> Self {
        Backend::Registry(registry)
    }
}

impl From<MonitorRegistry> for Backend {
    fn from(registry: MonitorRegistry) -> Self {
        Backend::Registry(Arc::new(registry))
    }
}

/// State shared by the reactor and the control thread.
pub(crate) struct Shared {
    pub(crate) backend: Backend,
    pub(crate) config: WireConfig,
    pub(crate) shutting_down: AtomicBool,
    in_flight: AtomicUsize,
    pub(crate) degraded: DegradedCounters,
    pub(crate) obs: ServerObs,
}

/// A control-plane frame travelling to the control thread: its reply
/// tag, its (already checked) route, and the decoded request.
pub(crate) type ControlJob = (Tag, Option<TenantRoute>, Request);

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Routes one fully read frame, on the reactor. Returns the reply when
    /// the reactor answers the frame itself — an undecodable payload,
    /// `Shutdown`, `Busy`, a routing miss — and `None` once the frame is
    /// handed on: `Query`/`QueryBatch` straight onto the target engine's
    /// shards (the shard finishing the last chunk posts the reply to
    /// `completions`), every other opcode to the control thread. Never
    /// waits on a shard, a drain, the store or an artifact parse.
    pub(crate) fn dispatch(
        &self,
        frame: Frame,
        mut tag: Tag,
        completions: &Arc<CompletionQueue>,
        control: &Sender<ControlJob>,
    ) -> Option<Response> {
        let request = match Request::decode(&frame) {
            Ok(request) => request,
            Err(e) => {
                return Some(Response::Error {
                    code: e.as_code(),
                    message: e.to_string(),
                })
            }
        };
        if let Some(counter) = self.obs.ops.get(frame.opcode) {
            counter.inc();
        }
        if let Err(miss) = self.check_route(&request, frame.route.as_ref()) {
            return Some(miss);
        }
        if let Request::Query(_) | Request::QueryBatch(_) | Request::Absorb(_) = request {
            if let Err(busy) = self.admit() {
                return Some(busy);
            }
            tag.admitted = true;
        }
        let inputs = match request {
            Request::Shutdown => return Some(Response::ShuttingDown),
            Request::Query(input) => vec![input],
            Request::QueryBatch(inputs) => inputs,
            request => {
                if control.send((tag, frame.route, request)).is_err() {
                    // Only a panicked control thread hangs up early.
                    if tag.admitted {
                        self.release();
                    }
                    return Some(serve_error_response(&ServeError::ShardDown));
                }
                return None;
            }
        };
        // The reply closure owns only the completion queue and the tag: it
        // must not keep `Shared` or the backend alive from a shard queue.
        let completions = Arc::clone(completions);
        let on_done = move |result: Result<Vec<Verdict>, ServeError>| {
            let response = match result {
                Ok(mut verdicts) if tag.opcode == Opcode::Query => verdicts.pop().map_or_else(
                    || serve_error_response(&ServeError::ShardDown),
                    Response::Verdict,
                ),
                Ok(verdicts) => Response::Verdicts(verdicts),
                Err(e) => serve_error_response(&e),
            };
            completions.post(tag.reply(response));
        };
        match (&self.backend, frame.route) {
            (Backend::Engine(engine), _) => engine.submit_batch_with(inputs, tag.trace_id, on_done),
            (Backend::Registry(registry), Some(route)) => {
                let routed = registry.query_batch_with(
                    &route.model_id,
                    route.version,
                    inputs,
                    tag.trace_id,
                    on_done,
                );
                if let Err(e) = routed {
                    self.release();
                    return Some(registry_error_response(self, &e));
                }
            }
            (Backend::Registry(_), None) => unreachable!("route checked above"),
        }
        None
    }

    /// The routing check, answered on the reactor. A single-engine server
    /// refuses any tenant route: a client configured for a registry
    /// deployment fails loudly instead of silently landing on the wrong
    /// monitor. A registry server requires a route on every work and
    /// per-tenant admin frame. Misses count in
    /// [`DegradedStats::unknown_tenant`].
    fn check_route(&self, request: &Request, route: Option<&TenantRoute>) -> Result<(), Response> {
        let message = match (&self.backend, route) {
            (Backend::Engine(_), Some(route)) => format!(
                "this server serves a single engine, not tenant {route}; \
                 drop the route or connect to a registry server"
            ),
            (Backend::Registry(_), None)
                if !matches!(
                    request,
                    Request::Stats | Request::Shutdown | Request::Metrics | Request::ListTenants
                ) =>
            {
                format!(
                    "{} frame arrived unrouted on a registry server; \
                     set a tenant route to name the target monitor",
                    request.opcode().name()
                )
            }
            _ => return Ok(()),
        };
        self.degraded.unknown_tenant.inc();
        Err(Response::Error {
            code: ErrorCode::UnknownTenant,
            message,
        })
    }

    /// The admission ladder for a work request, run once the frame is
    /// fully read (a shed never leaves the stream mid-frame): first the
    /// backend's shard backlog against the queue watermark — shedding at
    /// the wire before the engine saturates, so work already queued keeps
    /// its latency — then the wire in-flight budget. On success the
    /// request holds a budget slot until its reply is queued
    /// ([`Shared::release`]); otherwise the `Busy` reply comes back.
    ///
    /// The budget is counted in wire requests only — the engine's shard
    /// backlog is measured in micro-batch *jobs*, a different unit, and
    /// every queued job already belongs to a request holding a slot here,
    /// so gating on it again would refuse legal traffic.
    fn admit(&self) -> Result<(), Response> {
        let watermark = self.config.queue_watermark;
        if watermark > 0 {
            let backlog = self.backend.backlog();
            if backlog > watermark {
                self.degraded.shed_watermark.inc();
                return Err(Response::Busy {
                    in_flight: backlog.min(u32::MAX as usize) as u32,
                    budget: watermark.min(u32::MAX as usize) as u32,
                });
            }
        }
        let budget = self.config.max_in_flight;
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= budget {
            self.release();
            self.degraded.busy_budget.inc();
            return Err(Response::Busy {
                in_flight: prev as u32,
                budget: budget as u32,
            });
        }
        Ok(())
    }

    /// Returns an admitted request's budget slot.
    pub(crate) fn release(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Serves one control-plane frame on the control thread: `Absorb`,
    /// `Stats`, `Metrics` and the registry admin opcodes. These may block
    /// on a store write, a drain or an artifact parse, or copy every
    /// metric cell, so they never run on the reactor. Routes were checked
    /// there.
    fn serve_control(&self, route: Option<TenantRoute>, request: Request) -> Response {
        let registry = match &self.backend {
            Backend::Registry(registry) => registry,
            Backend::Engine(engine) => {
                return match request {
                    Request::Absorb(inputs) => engine
                        .absorb_batch(&inputs)
                        .map(|fresh| Response::Absorbed(fresh as u64))
                        .unwrap_or_else(|e| serve_error_response(&e)),
                    Request::Stats => stats_response(engine.report(), self),
                    Request::Metrics => metrics_response(self),
                    _ => Response::Error {
                        code: ErrorCode::UnsupportedOpcode,
                        message: "registry operation on a single-engine server; \
                                  mount/unmount/promote need a registry backend"
                            .to_string(),
                    },
                };
            }
        };
        let served = match (request, route) {
            (Request::Metrics, _) => Ok(metrics_response(self)),
            (Request::ListTenants, _) => Ok(Response::TenantList(registry.list())),
            // An unrouted Stats merges every tenant's active engine; a
            // routed one reports one mount.
            (Request::Stats, None) => Ok(stats_response(registry.stats(), self)),
            (Request::Stats, Some(route)) => registry
                .resolve(&route.model_id, route.version)
                .map(|mounted| stats_response(mounted.engine().report(), self)),
            // The active route mirrors the absorb to a shadow candidate;
            // a pinned absorb feeds one mount only.
            (Request::Absorb(inputs), Some(route)) if route.version == ACTIVE_VERSION => registry
                .absorb_batch(&route.model_id, inputs)
                .map(|fresh| Response::Absorbed(fresh as u64)),
            (Request::Absorb(inputs), Some(route)) => registry
                .resolve(&route.model_id, route.version)
                .and_then(|mounted| mounted.engine().absorb_batch(&inputs).map_err(Into::into))
                .map(|fresh| Response::Absorbed(fresh as u64)),
            (
                Request::Mount {
                    shadow,
                    artifact_json,
                },
                Some(route),
            ) => MonitorArtifact::from_json_str(&artifact_json)
                .map_err(RegistryError::from)
                .and_then(|artifact| {
                    if shadow {
                        registry.mount_shadow(&route.model_id, route.version, artifact)
                    } else {
                        registry.mount(&route.model_id, route.version, artifact)
                    }
                })
                .map(|()| Response::Mounted),
            (Request::Unmount, Some(route)) => registry
                .unmount(&route.model_id)
                .map(|report| Response::Unmounted(Box::new(report))),
            (Request::Promote, Some(route)) => registry
                .promote(&route.model_id)
                .map(|report| Response::Promoted(Box::new(report))),
            (Request::ShadowStats, Some(route)) => registry
                .shadow_stats(&route.model_id)
                .map(|report| Response::ShadowReport(Box::new(report))),
            (request, _) => unreachable!("{:?} is not a routed control opcode", request.opcode()),
        };
        served.unwrap_or_else(|e| registry_error_response(self, &e))
    }
}

/// The control thread: serves control-plane frames one at a time and
/// posts each reply to the reactor. Exits when the reactor hangs up the
/// job channel.
fn control_loop(shared: &Shared, jobs: &Receiver<ControlJob>, completions: &CompletionQueue) {
    while let Ok((tag, route, request)) = jobs.recv() {
        completions.post(tag.reply(shared.serve_control(route, request)));
    }
}

/// Staged construction for a [`WireServer`]: pick the [`Backend`], tune
/// the [`WireConfig`], bind.
///
/// ```no_run
/// # use napmon_wire::{WireServer, WireConfig};
/// # fn demo(engine: napmon_serve::MonitorEngine<napmon_core::ComposedMonitor>) -> Result<(), napmon_wire::WireError> {
/// let server = WireServer::builder(engine)
///     .config(WireConfig::default().with_max_in_flight(64))
///     .bind("127.0.0.1:0")?;
/// # drop(server); Ok(()) }
/// ```
#[must_use = "a builder does nothing until bound"]
pub struct WireServerBuilder {
    backend: Backend,
    config: WireConfig,
}

impl WireServerBuilder {
    /// Replaces the default [`WireConfig`].
    pub fn config(mut self, config: WireConfig) -> Self {
        self.config = config;
        self
    }

    /// Binds `addr` and starts serving. Bind to port 0 for an
    /// OS-assigned port ([`WireServer::local_addr`] reports it).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the address cannot be bound or the reactor's
    /// wake channel cannot be created.
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<WireServer, WireError> {
        WireServer::bind_backend(addr, self.backend, self.config)
    }
}

/// A live TCP monitoring service over one [`MonitorEngine`] or a
/// [`MonitorRegistry`].
///
/// Construction binds and starts accepting; the server runs until a
/// client sends `Shutdown` or the owner calls [`WireServer::shutdown`].
/// Either way the same drain runs: connections finish their started
/// frames, the backend drains, and the final [`ServeReport`] comes back
/// to the owner.
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    control: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Starts building a server over `backend` — a
    /// [`MonitorEngine`], an `Arc` of one, a [`MonitorRegistry`] `Arc`,
    /// or an explicit [`Backend`].
    pub fn builder(backend: impl Into<Backend>) -> WireServerBuilder {
        WireServerBuilder {
            backend: backend.into(),
            config: WireConfig::default(),
        }
    }

    fn bind_backend(
        addr: impl ToSocketAddrs,
        backend: Backend,
        config: WireConfig,
    ) -> Result<Self, WireError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let config = config.normalized();
        let obs = ServerObs::new(&config);
        let shared = Arc::new(Shared {
            backend,
            config,
            shutting_down: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            degraded: DegradedCounters::new(&obs.registry),
            obs,
        });
        let (control_tx, control_rx) = std::sync::mpsc::channel::<ControlJob>();
        let completions = CompletionQueue::new()?;
        let control = {
            let shared = Arc::clone(&shared);
            let completions = Arc::clone(&completions);
            std::thread::Builder::new()
                .name("napmon-wire-control".to_string())
                .spawn(move || control_loop(&shared, &control_rx, &completions))
                .expect("spawn wire control thread")
        };
        let reactor = Reactor::new(listener, Arc::clone(&shared), control_tx, completions);
        let reactor = std::thread::Builder::new()
            .name("napmon-wire-reactor".to_string())
            .spawn(move || reactor.run())
            .expect("spawn wire reactor");
        Ok(Self {
            addr,
            shared,
            reactor: Some(reactor),
            control: Some(control),
        })
    }

    /// Cold start: loads and validates a [`MonitorArtifact`] file, mounts
    /// it on a fresh engine, and serves it — the whole "deploy a monitor
    /// from one file" path. Store-backed artifacts reattach to their
    /// on-disk segments, so this is also the warm-restart entry point.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] from the load, or [`WireError::Io`] (inside
    /// `ArtifactError::Io`) if the address cannot be bound.
    pub fn serve_artifact_file(
        path: impl AsRef<Path>,
        addr: impl ToSocketAddrs,
        engine_config: EngineConfig,
        wire_config: WireConfig,
    ) -> Result<Self, ArtifactError> {
        let engine = MonitorEngine::from_artifact_file(path, engine_config)?;
        Self::builder(engine)
            .config(wire_config)
            .bind(addr)
            .map_err(|e| match e {
                WireError::Io(io) => ArtifactError::Io(io),
                other => ArtifactError::Io(std::io::Error::other(other.to_string())),
            })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served engine on a single-engine server; `None` on a registry
    /// backend (use [`WireServer::registry`]).
    pub fn engine(&self) -> Option<&MonitorEngine<ComposedMonitor>> {
        match &self.shared.backend {
            Backend::Engine(engine) => Some(engine),
            Backend::Registry(_) => None,
        }
    }

    /// The served registry on a registry server; `None` on a
    /// single-engine backend.
    pub fn registry(&self) -> Option<&Arc<MonitorRegistry>> {
        match &self.shared.backend {
            Backend::Engine(_) => None,
            Backend::Registry(registry) => Some(registry),
        }
    }

    /// Whether a shutdown has been initiated (by a client or the owner).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Blocks until a client initiates shutdown, then drains and returns
    /// the backend's final report (see [`WireServer::shutdown`]).
    pub fn wait(self) -> ServeReport {
        while !self.shared.shutting_down() {
            std::thread::sleep(POLL_TICK);
        }
        self.shutdown()
    }

    /// Graceful shutdown from the owning side: stops accepting, lets every
    /// connection finish its started frames, drains the backend, and
    /// returns the final aggregated report (its `queue_depth` is zero —
    /// the drain guarantee). On a registry backend the report merges every
    /// engine the registry ever ran — live tenants plus hot-swap retirees;
    /// [`WireServer::shutdown_registry`] keeps the per-engine account.
    pub fn shutdown(self) -> ServeReport {
        match self.drain() {
            BackendReport::Single(report) => report,
            BackendReport::Registry(report) => ServeReport::merge(
                report
                    .tenants
                    .into_iter()
                    .chain(report.retired)
                    .map(|outcome| outcome.report),
            ),
        }
    }

    /// [`WireServer::shutdown`] returning the registry's full structured
    /// account (per-tenant and per-retiree drain outcomes). Returns
    /// `None` on a single-engine server — *after* draining it; the server
    /// is down either way.
    pub fn shutdown_registry(self) -> Option<RegistryReport> {
        match self.drain() {
            BackendReport::Single(_) => None,
            BackendReport::Registry(report) => Some(report),
        }
    }

    /// The one drain path: joins the reactor (which exits once every
    /// connection has finished or spent its grace), then the control
    /// thread (the reactor dropping its job channel is its exit signal),
    /// and only then tears the backend down. The ordering is the
    /// thread-leak guarantee for shutdown-during-hot-swap: once both are
    /// joined nothing can still be submitting into an outgoing engine,
    /// and [`MonitorRegistry::shutdown`] joins the background drainers of
    /// every retired engine before returning. Shard work still queued
    /// finishes in the backend's own drain; its reply closures hold only
    /// the completion queue, never `Shared` or the backend.
    fn drain(mut self) -> BackendReport {
        self.shared.shutting_down.store(true, Ordering::Release);
        for thread in [self.reactor.take(), self.control.take()]
            .into_iter()
            .flatten()
        {
            let _ = thread.join();
        }
        // Both server threads have been joined, so this owner holds the
        // last handle at both levels and neither unwrap can fail; the
        // fallbacks snapshot rather than panic in a shutdown path. The
        // registry arm needs no unwrap: `MonitorRegistry::shutdown` takes
        // `&self` and is idempotent, so caller-held clones are fine.
        let WireServer { shared, .. } = self;
        match Arc::try_unwrap(shared) {
            Ok(shared) => match shared.backend {
                Backend::Engine(engine) => {
                    BackendReport::Single(match MonitorEngine::shutdown_shared(engine) {
                        Ok(report) => report,
                        Err(engine) => engine.report(),
                    })
                }
                Backend::Registry(registry) => BackendReport::Registry(registry.shutdown()),
            },
            Err(shared) => match &shared.backend {
                Backend::Engine(engine) => BackendReport::Single(engine.report()),
                Backend::Registry(registry) => BackendReport::Registry(registry.shutdown()),
            },
        }
    }
}

/// What [`WireServer::drain`] tore down.
enum BackendReport {
    Single(ServeReport),
    Registry(RegistryReport),
}

/// Builds the `Metrics` scrape: the server's registry merged with the
/// backend's serving cells and the process-global registry, the text
/// exposition, the slow-request log, and the recent trace spans. Control
/// plane, not data plane — it bypasses the admission ladder so
/// observability answers while the server sheds.
fn metrics_response(shared: &Shared) -> Response {
    let mut metrics = shared.obs.registry.snapshot();
    metrics.merge(&shared.backend.metrics());
    Response::Metrics(Box::new(ObsReport::capture(metrics, &shared.obs.slow)))
}

/// Builds a `Stats` response around the given engine-side report.
fn stats_response(engine: ServeReport, shared: &Shared) -> Response {
    let degraded = shared.degraded.snapshot();
    Response::Stats(Box::new(StatsSnapshot {
        engine,
        wire_in_flight: shared.in_flight.load(Ordering::Acquire) as u32,
        wire_budget: shared.config.max_in_flight as u32,
        wire_busy_rejections: degraded.busy_total(),
        degraded,
    }))
}

fn serve_error_response(e: &napmon_serve::ServeError) -> Response {
    Response::Error {
        code: serve_error_code(e),
        message: e.to_string(),
    }
}

/// Builds the typed error for a registry refusal, counting routing misses
/// in [`DegradedStats::unknown_tenant`].
fn registry_error_response(shared: &Shared, e: &RegistryError) -> Response {
    let code = registry_error_code(e);
    if code == ErrorCode::UnknownTenant {
        shared.degraded.unknown_tenant.inc();
    }
    Response::Error {
        code,
        message: e.to_string(),
    }
}
