//! The sharded online monitoring engine.

use crate::report::{ServeMetrics, ServeReport};
use napmon_artifact::{ArtifactError, MonitorArtifact};
use napmon_core::{ComposedMonitor, Monitor, MonitorError, MonitorSpec, QueryScratch, Verdict};
use napmon_nn::Network;
use napmon_obs::MetricsSnapshot;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Serving error: either the monitor rejected an input, or the target
/// shard is gone (its thread panicked — queries themselves never panic on
/// well-formed inputs).
#[derive(Debug)]
pub enum ServeError {
    /// The monitor rejected the input (dimension mismatch, or a NaN or
    /// infinite coordinate).
    Monitor(MonitorError),
    /// The shard's worker thread is no longer running.
    ShardDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Monitor(e) => write!(f, "monitor error: {e}"),
            ServeError::ShardDown => write!(f, "shard worker is no longer running"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Monitor(e) => Some(e),
            ServeError::ShardDown => None,
        }
    }
}

impl From<MonitorError> for ServeError {
    fn from(e: MonitorError) -> Self {
        ServeError::Monitor(e)
    }
}

/// Engine sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of worker shards (threads). Zero is treated as one.
    pub shards: usize,
    /// Largest per-shard chunk a submitted batch is split into. Zero is
    /// treated as one.
    pub micro_batch: usize,
}

impl Default for EngineConfig {
    /// One shard per available core, 64-request micro-batches.
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            micro_batch: 64,
        }
    }
}

impl EngineConfig {
    /// The default micro-batch size with an explicit shard count.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }

    fn normalized(self) -> Self {
        Self {
            shards: self.shards.max(1),
            micro_batch: self.micro_batch.max(1),
        }
    }
}

/// Trace context riding a job: the request's trace id (0: untraced) and
/// its enqueue timestamp, so the worker can emit a queue-wait span on
/// pickup. Two plain `u64`s — free to carry when tracing is off.
#[derive(Clone, Copy)]
struct TraceCtx {
    id: u64,
    enqueued_ns: u64,
}

impl TraceCtx {
    /// A context for `trace_id`, stamped with the enqueue time when the
    /// request is actually traced (the clock is only read then).
    #[inline]
    fn for_id(trace_id: u64) -> Self {
        TraceCtx {
            id: trace_id,
            enqueued_ns: if trace_id != 0 && napmon_obs::tracing_enabled() {
                napmon_obs::now_ns()
            } else {
                0
            },
        }
    }

    #[inline]
    fn active(self) -> bool {
        self.id != 0 && napmon_obs::tracing_enabled()
    }
}

/// One unit of shard work: a contiguous chunk of a shared batch, whose
/// verdicts fill slot `slot` of the batch's collector.
struct Job {
    inputs: Arc<[Vec<f64>]>,
    range: Range<usize>,
    slot: usize,
    batch: Arc<Collector>,
    trace: TraceCtx,
}

/// A batch's completion callback.
type OnDone = Box<dyn FnOnce(Result<Vec<Verdict>, ServeError>) + Send>;

/// One chunk's verdicts, or the monitor's rejection of one of its inputs.
type ChunkResult = Result<Vec<Verdict>, MonitorError>;

/// Gathers one batch's chunk results and hands them to the submitter's
/// callback when the last reference drops. Every chunk job holds one
/// reference, so the callback runs exactly once, after every chunk was
/// either served or dropped unserved — by a dying shard, or by a queue
/// no shard would accept. An unserved chunk leaves its slot empty and
/// the batch fails with [`ServeError::ShardDown`]; it never hangs.
struct Collector {
    slots: Mutex<Vec<Option<ChunkResult>>>,
    on_done: Mutex<Option<OnDone>>,
}

impl Collector {
    fn fill(self: Arc<Self>, slot: usize, result: ChunkResult) {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)[slot] = Some(result);
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        let slots = std::mem::take(self.slots.get_mut().unwrap_or_else(PoisonError::into_inner));
        let on_done = self
            .on_done
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(on_done) = on_done.take() {
            on_done(in_input_order(slots));
        }
    }
}

/// A batch's verdicts in input order. The first chunk, by input order,
/// that was rejected or went unserved decides the error.
fn in_input_order(slots: Vec<Option<ChunkResult>>) -> Result<Vec<Verdict>, ServeError> {
    let mut verdicts = Vec::new();
    for slot in slots {
        let chunk = slot.ok_or(ServeError::ShardDown)??;
        if verdicts.is_empty() {
            verdicts = chunk;
        } else {
            verdicts.extend(chunk);
        }
    }
    Ok(verdicts)
}

struct Shard {
    tx: mpsc::Sender<Job>,
    handle: JoinHandle<()>,
    /// Chunks enqueued but not yet picked up by the worker. Incremented
    /// before send, decremented by the worker on receive, so it never
    /// underflows.
    depth: Arc<AtomicUsize>,
}

/// A long-lived, sharded monitoring engine.
///
/// Construction spawns the worker shards; they stay hot until
/// [`MonitorEngine::shutdown`] (or drop, which also stops them after
/// draining). The engine is `Sync`: any number of client threads may
/// submit concurrently, and chunks are distributed round-robin.
///
/// Generic over the monitor so purpose-built monitors serve through the
/// same engine; [`ComposedMonitor`] (what [`MonitorSpec::build`] returns)
/// is the default.
///
/// The shards count what they serve into the engine's own
/// `napmon-obs` cells (see [`MonitorEngine::metrics`]).
pub struct MonitorEngine<M: Monitor + Send + Sync + 'static = ComposedMonitor> {
    net: Arc<Network>,
    monitor: Arc<M>,
    config: EngineConfig,
    shards: Vec<Shard>,
    round_robin: AtomicUsize,
    metrics: Arc<ServeMetrics>,
}

impl<M: Monitor + Send + Sync + 'static> MonitorEngine<M> {
    /// Spawns `config.shards` worker threads serving `monitor` over `net`.
    ///
    /// `net` and `monitor` are accepted owned or already shared
    /// (`Arc<...>`) — each shard holds one clone of each `Arc`.
    pub fn new(
        net: impl Into<Arc<Network>>,
        monitor: impl Into<Arc<M>>,
        config: EngineConfig,
    ) -> Self {
        let net = net.into();
        let monitor = monitor.into();
        let config = config.normalized();
        let metrics = Arc::new(ServeMetrics::new());
        let shards = (0..config.shards)
            .map(|id| {
                let (tx, rx) = mpsc::channel();
                let net = Arc::clone(&net);
                let monitor = Arc::clone(&monitor);
                let metrics = Arc::clone(&metrics);
                let depth = Arc::new(AtomicUsize::new(0));
                let worker_depth = Arc::clone(&depth);
                let handle = std::thread::Builder::new()
                    .name(format!("napmon-shard-{id}"))
                    .spawn(move || {
                        run_shard(id, &net, monitor.as_ref(), &metrics, &rx, &worker_depth)
                    })
                    .expect("spawn shard worker");
                Shard { tx, handle, depth }
            })
            .collect();
        Self {
            net,
            monitor,
            config,
            shards,
            round_robin: AtomicUsize::new(0),
            metrics,
        }
    }

    /// The served network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The served monitor.
    pub fn monitor(&self) -> &M {
        &self.monitor
    }

    /// The (normalized) configuration the engine runs with.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Number of live worker shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn next_shard(&self) -> usize {
        self.round_robin.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// Per-shard chunk length for a batch of `n` requests: even across
    /// shards, capped by the configured micro-batch.
    fn chunk_len(&self, n: usize) -> usize {
        n.div_ceil(self.shards.len())
            .clamp(1, self.config.micro_batch)
    }

    /// Serves a whole batch synchronously: micro-batches it across the
    /// shards and blocks until every verdict is back, in input order —
    /// [`MonitorEngine::submit_batch_with`] plus a wait.
    ///
    /// Accepts an owned `Vec<Vec<f64>>` or an already-shared
    /// `Arc<[Vec<f64>]>` — repeated submissions of the same batch (load
    /// replay, benchmarking) should share one `Arc` so no input data is
    /// copied per call.
    ///
    /// # Errors
    ///
    /// [`ServeError::Monitor`] if an input does not match the network or
    /// holds a NaN or infinite coordinate (the whole containing chunk is
    /// rejected, and counts as nothing served), [`ServeError::ShardDown`]
    /// if a worker died before serving its chunk.
    pub fn submit_batch(
        &self,
        inputs: impl Into<Arc<[Vec<f64>]>>,
    ) -> Result<Vec<Verdict>, ServeError> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.submit_batch_with(inputs, 0, move |result| {
            let _ = tx.send(result);
        });
        rx.recv().unwrap_or(Err(ServeError::ShardDown))
    }

    /// Enqueues a whole batch and returns at once: the batch is split
    /// into per-shard chunks, and `on_done` receives the verdicts, in
    /// input order, on the thread that finishes the last chunk (a shard
    /// worker, or the caller's own thread for an empty batch or a dead
    /// engine). It runs exactly once per call, also when a shard dies
    /// with a chunk queued or in hand — then with
    /// [`ServeError::ShardDown`]. Shutdown drains: every chunk enqueued
    /// here is served before [`MonitorEngine::shutdown`] returns.
    ///
    /// `trace_id` (0: untraced) tags the work: when tracing is armed (the
    /// `obs` feature plus `napmon_obs::set_tracing`), every chunk emits
    /// queue-wait and verdict spans under it.
    ///
    /// `on_done` should be brief — it holds the finishing shard — and
    /// must not keep the engine alive (no `Arc` of it), or the engine's
    /// queues would own a handle on the engine itself. It must not panic:
    /// it may run while a dying shard unwinds.
    pub fn submit_batch_with(
        &self,
        inputs: impl Into<Arc<[Vec<f64>]>>,
        trace_id: u64,
        on_done: impl FnOnce(Result<Vec<Verdict>, ServeError>) + Send + 'static,
    ) {
        let inputs: Arc<[Vec<f64>]> = inputs.into();
        let n = inputs.len();
        let chunk = self.chunk_len(n);
        let batch = Arc::new(Collector {
            slots: Mutex::new((0..n.div_ceil(chunk)).map(|_| None).collect()),
            on_done: Mutex::new(Some(Box::new(on_done))),
        });
        let trace = TraceCtx::for_id(trace_id);
        for (slot, start) in (0..n).step_by(chunk).enumerate() {
            let mut job = Job {
                inputs: Arc::clone(&inputs),
                range: start..(start + chunk).min(n),
                slot,
                batch: Arc::clone(&batch),
                trace,
            };
            // A dead shard bounces the send; offer the chunk to every
            // shard once, probing from a single round-robin snapshot so
            // concurrent submitters cannot make the probe revisit the
            // same dead shard. A chunk nobody accepts is dropped here,
            // unserved — never busy-loop on a fully-dead engine.
            let base = self.next_shard();
            for offset in 0..self.shards.len() {
                let shard = &self.shards[(base + offset) % self.shards.len()];
                shard.depth.fetch_add(1, Ordering::Relaxed);
                match shard.tx.send(job) {
                    Ok(()) => break,
                    Err(mpsc::SendError(bounced)) => {
                        shard.depth.fetch_sub(1, Ordering::Relaxed);
                        job = bounced;
                    }
                }
            }
        }
    }

    /// Jobs enqueued but not yet picked up, summed across all shards —
    /// the backlog gauge, read straight from the shard counters. Serving
    /// layers use it for cheap backpressure decisions on every request.
    pub fn queue_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.depth.load(Ordering::Relaxed))
            .sum()
    }

    /// A snapshot of the engine's metric cells: `serve.requests`,
    /// `serve.warnings`, `serve.latency_ns` and `serve.batch_size`. A
    /// shard records a chunk before the chunk's callback runs, so a
    /// batch whose callback has run is counted here.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The engine's metrics read as a report, with the current backlog.
    /// Reads the cells directly; the shard queues carry only chunks.
    pub fn report(&self) -> ServeReport {
        ServeReport::from_metrics(&self.metrics(), self.queue_depth() as u64)
    }

    /// Graceful shutdown: closes every job channel, lets each shard drain
    /// its queue, joins the workers, and returns the final report. Every
    /// submitted batch's callback has run by then.
    pub fn shutdown(mut self) -> ServeReport {
        // Dropping every sender first closes all the channels at once.
        let workers: Vec<_> = self.shards.drain(..).map(|s| (s.handle, s.depth)).collect();
        let mut queued = 0;
        for (handle, depth) in workers {
            let _ = handle.join();
            queued += depth.load(Ordering::Relaxed);
        }
        ServeReport::from_metrics(&self.metrics(), queued as u64)
    }

    /// [`MonitorEngine::shutdown`] through a shared handle: succeeds once
    /// the caller holds the last clone of the `Arc` (every serving thread
    /// has been joined), and hands the still-shared engine back otherwise
    /// — shutting down under a live submitter would strand its requests.
    ///
    /// This is the shutdown path for serving layers (like `napmon-wire`)
    /// that share one engine handle between serving threads.
    ///
    /// # Errors
    ///
    /// Returns `Err(engine)` if other clones of the handle are still
    /// alive.
    pub fn shutdown_shared(engine: Arc<Self>) -> Result<ServeReport, Arc<Self>> {
        Arc::try_unwrap(engine).map(Self::shutdown)
    }
}

impl MonitorEngine<ComposedMonitor> {
    /// Boots an engine straight from a deployment artifact: the embedded
    /// network and monitor are mounted as-is, so the served verdicts are
    /// bit-identical to what the artifact's builder measured.
    ///
    /// The artifact should come from [`MonitorArtifact::load_json`] (which
    /// validates it) or [`MonitorArtifact::build`]; this constructor does
    /// not re-validate.
    pub fn from_artifact(artifact: MonitorArtifact, config: EngineConfig) -> Self {
        let (net, monitor) = artifact.into_parts();
        Self::new(net, monitor, config)
    }

    /// Loads, validates, and mounts an artifact file in one step — the
    /// whole "boot a monitor next to its network in a fresh process" path.
    /// Store-backed artifacts reattach to their segments on disk during
    /// the load, so this is also a warm start for them.
    ///
    /// # Errors
    ///
    /// Any [`MonitorArtifact::load_json`] error: unreadable file, foreign
    /// format version, an artifact whose parts disagree, or a missing /
    /// mismatched pattern store.
    pub fn from_artifact_file(
        path: impl AsRef<Path>,
        config: EngineConfig,
    ) -> Result<Self, ArtifactError> {
        Ok(Self::from_artifact(
            MonitorArtifact::load_json(path)?,
            config,
        ))
    }

    /// Warm-starts an engine straight from pattern-store segments on disk:
    /// the spec is mounted over the member stores under `store_root`
    /// (the `member-NNNN/` layout `napmon-store`'s `StoreProvider`
    /// writes), with **no training data and no rebuild** — every pattern
    /// the monitor admits is read back from the log-structured store.
    ///
    /// The spec must use data-free thresholds (see
    /// [`MonitorSpec::mount_with_sources`]); pattern kinds declare
    /// `PatternBackend::Store`.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] for specs that cannot
    /// mount and [`MonitorError::ExternalSource`] for missing or
    /// mismatched member stores.
    pub fn from_store(
        spec: &MonitorSpec,
        net: impl Into<Arc<Network>>,
        store_root: impl AsRef<Path>,
        config: EngineConfig,
    ) -> Result<Self, MonitorError> {
        let net = net.into();
        let root = store_root.as_ref().to_path_buf();
        let monitor = spec.mount_with_sources(&net, &mut |member: usize, word_bits: usize| {
            napmon_store::open_member_source(&root, member, word_bits)
        })?;
        Ok(Self::new(net, monitor, config))
    }

    /// Absorbs one operational input into the monitor's store-backed
    /// members (see `ComposedMonitor::absorb_operation`): the pattern
    /// becomes a member of the abstraction immediately, visible to every
    /// shard's subsequent queries, with no rebuild — the operation-time
    /// monitor enlargement the original activation-pattern work proposes.
    ///
    /// Runs on the calling thread (absorption is a store write, not shard
    /// work); call [`MonitorEngine::sync_store`] to make a batch of
    /// absorptions durable.
    ///
    /// Returns the number of members that stored a new pattern.
    ///
    /// # Errors
    ///
    /// [`ServeError::Monitor`] if the input is malformed, the monitor is
    /// not store-backed, or the store fails.
    pub fn absorb(&self, input: &[f64]) -> Result<usize, ServeError> {
        self.monitor
            .absorb_operation(&self.net, input)
            .map_err(Into::into)
    }

    /// Absorbs a batch of operational inputs ([`MonitorEngine::absorb`])
    /// and syncs the stores once at the end. Returns the number of new
    /// patterns stored.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MonitorEngine::absorb`].
    pub fn absorb_batch(&self, inputs: &[Vec<f64>]) -> Result<usize, ServeError> {
        let mut fresh = 0;
        for input in inputs {
            fresh += self.absorb(input)?;
        }
        self.sync_store()?;
        Ok(fresh)
    }

    /// Flushes every store-backed member's buffered writes — the
    /// durability point after operation-time absorption.
    ///
    /// # Errors
    ///
    /// [`ServeError::Monitor`] if a store fails.
    pub fn sync_store(&self) -> Result<(), ServeError> {
        self.monitor.commit_external_sources().map_err(Into::into)
    }
}

/// The shard worker loop: one scratch, jobs until the engine closes the
/// channel.
fn run_shard<M: Monitor>(
    id: usize,
    net: &Network,
    monitor: &M,
    metrics: &ServeMetrics,
    rx: &mpsc::Receiver<Job>,
    depth: &AtomicUsize,
) {
    let mut scratch = QueryScratch::new();
    while let Ok(job) = rx.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        let started = queue_wait_span(job.trace, id);
        let len = job.range.len() as u64;
        let first = job.range.start;
        let inputs = &job.inputs[job.range];
        let result = serve_chunk(net, monitor, inputs, first, &mut scratch, metrics);
        verdict_span(job.trace, started, len);
        // The last chunk of the batch runs its callback here.
        job.batch.fill(job.slot, result);
    }
}

/// Emits the queue-wait span for a just-dequeued job (detail = shard id)
/// and returns the pickup timestamp for the matching verdict span. Folds
/// to nothing when the `obs` feature is off.
#[inline]
fn queue_wait_span(trace: TraceCtx, shard: usize) -> u64 {
    if !trace.active() {
        return 0;
    }
    let now = napmon_obs::now_ns();
    napmon_obs::record_span(
        trace.id,
        napmon_obs::SpanKind::QueueWait,
        trace.enqueued_ns,
        now.saturating_sub(trace.enqueued_ns),
        shard as u64,
    );
    now
}

/// Emits the verdict span covering a serve call that started at
/// `started_ns` (detail = number of inputs served).
#[inline]
fn verdict_span(trace: TraceCtx, started_ns: u64, items: u64) {
    if !trace.active() {
        return;
    }
    napmon_obs::record_span(
        trace.id,
        napmon_obs::SpanKind::Verdict,
        started_ns,
        napmon_obs::now_ns().saturating_sub(started_ns),
        items,
    );
}

/// Serves one chunk through the monitor's batch path, where hash-backed
/// pattern monitors answer all memberships through the bit-sliced kernel
/// with the pattern blocks loaded once per chunk. A chunk the monitor
/// rejects records nothing; a served one records once, before its
/// callback can run.
fn serve_chunk<M: Monitor>(
    net: &Network,
    monitor: &M,
    inputs: &[Vec<f64>],
    first: usize,
    scratch: &mut QueryScratch,
    metrics: &ServeMetrics,
) -> ChunkResult {
    check_finite(inputs, first)?;
    let started = Instant::now();
    let mut verdicts = Vec::with_capacity(inputs.len());
    monitor.verdict_batch_scratch(net, inputs, scratch, &mut verdicts)?;
    metrics.record_chunk(started.elapsed(), &verdicts);
    Ok(verdicts)
}

/// Refuses a chunk holding a NaN or infinite coordinate: no monitor may
/// answer one with an all-clear. `first` is the chunk's offset in its
/// batch, so the error names the input by its batch index.
fn check_finite(inputs: &[Vec<f64>], first: usize) -> Result<(), MonitorError> {
    for (i, input) in inputs.iter().enumerate() {
        if let Some(j) = input.iter().position(|v| !v.is_finite()) {
            return Err(MonitorError::NonFinite {
                context: format!("query input {}, coordinate {j} ({})", first + i, input[j]),
            });
        }
    }
    Ok(())
}

/// The engine is shared across client threads; submissions only need `&self`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MonitorEngine>();
};
