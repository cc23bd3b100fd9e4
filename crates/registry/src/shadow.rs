//! Shadow deployment: a candidate engine mounted beside the active one,
//! fed mirrored traffic off the hot path, scored by a verdict diff.
//!
//! The mirror is a bounded `sync_channel` drained by one worker thread.
//! The serving path only ever `try_send`s into it — a full queue drops the
//! mirror job (counted, surfaced in the report) rather than ever blocking
//! a live request on the candidate. The worker replays each mirrored batch
//! through the candidate engine and classifies every verdict pair:
//! agreement, warn-only-active, warn-only-shadow, or detail mismatch
//! (same warning flag, different violation evidence).

use crate::registry::Mounted;
use napmon_core::Verdict;
use napmon_obs::HistogramSnapshot;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One unit of mirrored traffic (or a test barrier).
pub(crate) enum MirrorJob {
    /// A query batch the active engine already answered; the worker
    /// replays it through the candidate and diffs the verdicts.
    Query {
        inputs: Arc<[Vec<f64>]>,
        active: Vec<Verdict>,
        /// Active-engine wall time per input, nanoseconds.
        active_ns: f64,
    },
    /// An absorb batch; replayed so a store-backed candidate keeps pace
    /// with the active monitor's operation-time enlargement.
    Absorb { inputs: Arc<[Vec<f64>]> },
    /// Barrier: the worker answers once every job ahead of it is done.
    Sync(mpsc::Sender<()>),
}

impl MirrorJob {
    /// Inputs this job carries — the weight a drop is counted at.
    fn weight(&self) -> u64 {
        match self {
            MirrorJob::Query { inputs, .. } | MirrorJob::Absorb { inputs } => inputs.len() as u64,
            MirrorJob::Sync(_) => 0,
        }
    }
}

/// Diff counters the mirror worker accumulates.
#[derive(Debug, Default, Clone)]
struct ShadowAccum {
    mirrored: u64,
    agreements: u64,
    warn_only_active: u64,
    warn_only_shadow: u64,
    detail_mismatch: u64,
    shadow_errors: u64,
    absorbed: u64,
    active_ns_total: f64,
    shadow_ns_total: f64,
    /// Per-item active-engine latency distribution over mirrored queries.
    active_latency: HistogramSnapshot,
    /// Per-item candidate latency distribution over the same queries.
    shadow_latency: HistogramSnapshot,
}

/// A send-side handle on the mirror queue: cheap to clone out of the
/// shadow slot so the serving path never holds the slot's lock across a
/// submit.
#[derive(Clone)]
pub(crate) struct MirrorHandle {
    tx: mpsc::SyncSender<MirrorJob>,
    dropped: Arc<AtomicU64>,
}

impl MirrorHandle {
    /// Offers a job to the mirror queue; a full (or closed) queue drops it
    /// and counts the loss. Never blocks.
    pub(crate) fn offer(&self, job: MirrorJob) {
        let weight = job.weight();
        if self.tx.try_send(job).is_err() {
            self.dropped.fetch_add(weight, Ordering::Relaxed);
            #[cfg(feature = "obs")]
            crate::obs::metrics().mirror_dropped.add(weight);
        }
    }

    /// Blocks until every mirror job enqueued before this call is served —
    /// the deterministic settling point tests and reports use.
    pub(crate) fn sync(&self) {
        let (reply, rx) = mpsc::channel();
        // A blocking send is correct here: sync is a control operation,
        // not serving traffic.
        if self.tx.send(MirrorJob::Sync(reply)).is_ok() {
            let _ = rx.recv();
        }
    }
}

/// The candidate mount plus its mirror worker.
pub(crate) struct ShadowState {
    mounted: Arc<Mounted>,
    handle: MirrorHandle,
    accum: Arc<Mutex<ShadowAccum>>,
    worker: JoinHandle<()>,
}

impl ShadowState {
    /// Mounts `candidate` as a shadow and spawns its mirror worker with a
    /// queue of `capacity` jobs.
    pub(crate) fn spawn(candidate: Arc<Mounted>, capacity: usize) -> Self {
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        let accum = Arc::new(Mutex::new(ShadowAccum::default()));
        let worker_mounted = Arc::clone(&candidate);
        let worker_accum = Arc::clone(&accum);
        let worker = std::thread::Builder::new()
            .name("napmon-shadow-mirror".into())
            .spawn(move || run_mirror(&worker_mounted, &rx, &worker_accum))
            .expect("spawn shadow mirror worker");
        Self {
            mounted: candidate,
            handle: MirrorHandle {
                tx,
                dropped: Arc::new(AtomicU64::new(0)),
            },
            accum,
            worker,
        }
    }

    /// The candidate mount.
    pub(crate) fn mounted(&self) -> &Arc<Mounted> {
        &self.mounted
    }

    /// The candidate's version.
    pub(crate) fn version(&self) -> u32 {
        self.mounted.version()
    }

    /// A clonable send-side handle for the serving path.
    pub(crate) fn handle(&self) -> MirrorHandle {
        self.handle.clone()
    }

    /// A live snapshot of the diff so far.
    pub(crate) fn report(&self, model_id: &str, active_version: u32) -> ShadowReport {
        let accum = self
            .accum
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .clone();
        build_report(
            model_id,
            active_version,
            self.version(),
            &accum,
            self.handle.dropped.load(Ordering::Relaxed),
        )
    }

    /// Closes the mirror queue, joins the worker (flushing every mirrored
    /// job), and returns the final report plus the candidate mount.
    pub(crate) fn finish(
        self,
        model_id: &str,
        active_version: u32,
    ) -> (ShadowReport, Arc<Mounted>) {
        let ShadowState {
            mounted,
            handle,
            accum,
            worker,
        } = self;
        let dropped = handle.dropped.load(Ordering::Relaxed);
        drop(handle); // closes the queue once outstanding sends settle
        let _ = worker.join();
        let accum = accum
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .clone();
        let report = build_report(model_id, active_version, mounted.version(), &accum, dropped);
        (report, mounted)
    }
}

fn build_report(
    model_id: &str,
    active_version: u32,
    shadow_version: u32,
    accum: &ShadowAccum,
    dropped: u64,
) -> ShadowReport {
    let mean = |total: f64| {
        if accum.mirrored == 0 {
            0.0
        } else {
            total / accum.mirrored as f64
        }
    };
    let mean_active_ns = mean(accum.active_ns_total);
    let mean_shadow_ns = mean(accum.shadow_ns_total);
    let delta = |q: f64| accum.shadow_latency.quantile(q) - accum.active_latency.quantile(q);
    ShadowReport {
        model_id: model_id.to_string(),
        active_version,
        shadow_version,
        mirrored: accum.mirrored,
        dropped,
        agreements: accum.agreements,
        warn_only_active: accum.warn_only_active,
        warn_only_shadow: accum.warn_only_shadow,
        detail_mismatch: accum.detail_mismatch,
        shadow_errors: accum.shadow_errors,
        absorbed: accum.absorbed,
        agreement_rate: if accum.mirrored == 0 {
            1.0
        } else {
            accum.agreements as f64 / accum.mirrored as f64
        },
        mean_active_ns,
        mean_shadow_ns,
        latency_delta_ns: mean_shadow_ns - mean_active_ns,
        latency_delta_p50_ns: delta(0.50),
        latency_delta_p90_ns: delta(0.90),
        latency_delta_p99_ns: delta(0.99),
        latency_delta_p999_ns: delta(0.999),
        active_latency_ns: accum.active_latency.clone(),
        shadow_latency_ns: accum.shadow_latency.clone(),
    }
}

/// The mirror worker loop: replay, diff, accumulate.
fn run_mirror(mounted: &Mounted, rx: &mpsc::Receiver<MirrorJob>, accum: &Mutex<ShadowAccum>) {
    while let Ok(job) = rx.recv() {
        match job {
            MirrorJob::Query {
                inputs,
                active,
                active_ns,
            } => {
                let n = inputs.len();
                let started = Instant::now();
                let outcome = mounted.engine().submit_batch(Arc::clone(&inputs));
                let shadow_ns = if n == 0 {
                    0.0
                } else {
                    started.elapsed().as_nanos() as f64 / n as f64
                };
                let mut a = accum.lock().unwrap_or_else(|poison| poison.into_inner());
                match outcome {
                    Ok(shadow) => {
                        for (av, sv) in active.iter().zip(&shadow) {
                            a.mirrored += 1;
                            a.active_latency.record_ns(active_ns);
                            a.shadow_latency.record_ns(shadow_ns);
                            match (av.warning, sv.warning) {
                                _ if av == sv => a.agreements += 1,
                                (true, false) => a.warn_only_active += 1,
                                (false, true) => a.warn_only_shadow += 1,
                                // Same warning flag, different evidence.
                                _ => a.detail_mismatch += 1,
                            }
                        }
                        a.active_ns_total += active_ns * n as f64;
                        a.shadow_ns_total += shadow_ns * n as f64;
                    }
                    Err(_) => a.shadow_errors += n as u64,
                }
            }
            MirrorJob::Absorb { inputs } => {
                // The store write runs before the lock: a report never
                // waits on it.
                let absorbed = mounted.engine().absorb_batch(&inputs);
                let mut a = accum.lock().unwrap_or_else(|poison| poison.into_inner());
                match absorbed {
                    Ok(fresh) => a.absorbed += fresh as u64,
                    Err(_) => a.shadow_errors += inputs.len() as u64,
                }
            }
            MirrorJob::Sync(reply) => {
                let _ = reply.send(());
            }
        }
    }
}

/// The verdict diff between an active monitor and its shadow candidate —
/// the evidence a [`promote`](crate::MonitorRegistry::promote) decision is
/// made on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShadowReport {
    /// The tenant the candidate shadows.
    pub model_id: String,
    /// Version serving live traffic while the diff accumulated.
    pub active_version: u32,
    /// The candidate's version.
    pub shadow_version: u32,
    /// Mirrored query inputs the candidate answered.
    pub mirrored: u64,
    /// Mirror jobs dropped because the queue was full (in inputs) — the
    /// price of keeping the mirror off the hot path.
    pub dropped: u64,
    /// Verdict pairs that agreed exactly (flag and evidence).
    pub agreements: u64,
    /// Active warned, candidate did not.
    pub warn_only_active: u64,
    /// Candidate warned, active did not.
    pub warn_only_shadow: u64,
    /// Same warning flag, different violation evidence.
    pub detail_mismatch: u64,
    /// Mirrored inputs the candidate failed to serve (in inputs).
    pub shadow_errors: u64,
    /// New patterns the candidate absorbed from mirrored absorb traffic.
    pub absorbed: u64,
    /// `agreements / mirrored` (`1.0` while nothing is mirrored).
    pub agreement_rate: f64,
    /// Mean active-engine latency over the mirrored queries, nanoseconds.
    pub mean_active_ns: f64,
    /// Mean candidate latency over the mirrored queries, nanoseconds.
    pub mean_shadow_ns: f64,
    /// `mean_shadow_ns - mean_active_ns` (negative: candidate is faster).
    pub latency_delta_ns: f64,
    /// Median latency delta, candidate minus active (quantile bracket
    /// midpoints of the two per-item histograms below).
    pub latency_delta_p50_ns: f64,
    /// 90th-percentile latency delta, candidate minus active.
    pub latency_delta_p90_ns: f64,
    /// 99th-percentile latency delta, candidate minus active.
    pub latency_delta_p99_ns: f64,
    /// 99.9th-percentile latency delta, candidate minus active.
    pub latency_delta_p999_ns: f64,
    /// Per-item active-engine latency histogram over mirrored queries —
    /// means hide tail regressions; the full distribution does not.
    pub active_latency_ns: HistogramSnapshot,
    /// Per-item candidate latency histogram over the same queries.
    pub shadow_latency_ns: HistogramSnapshot,
}

impl ShadowReport {
    /// Total verdict pairs that disagreed, any class.
    pub fn disagreements(&self) -> u64 {
        self.warn_only_active + self.warn_only_shadow + self.detail_mismatch
    }
}

impl std::fmt::Display for ShadowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shadow report: {} v{} vs active v{}: {} mirrored ({} dropped), \
             agreement {:.4} ({} warn-only-active, {} warn-only-shadow, {} detail), \
             latency delta {:+.0}ns mean / {:+.0}ns p50 / {:+.0}ns p99",
            self.model_id,
            self.shadow_version,
            self.active_version,
            self.mirrored,
            self.dropped,
            self.agreement_rate,
            self.warn_only_active,
            self.warn_only_shadow,
            self.detail_mismatch,
            self.latency_delta_ns,
            self.latency_delta_p50_ns,
            self.latency_delta_p99_ns,
        )
    }
}
