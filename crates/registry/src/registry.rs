//! The registry proper: tenant map, atomic hot-swap, drain-safe retirement.

use crate::shadow::{MirrorJob, ShadowReport, ShadowState};
use crate::{valid_tenant_id, RegistryConfig, RegistryError};
use napmon_artifact::MonitorArtifact;
use napmon_core::{ComposedMonitor, MonitorSpec, Verdict};
use napmon_nn::Network;
use napmon_obs::MetricsSnapshot;
use napmon_serve::{MonitorEngine, ServeError, ServeReport};
use napmon_store::StoreProvider;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// One engine mounted under a tenant: the unit the hot-swap pointer flip
/// exchanges. Dispatchers hold an `Arc<Mounted>` for exactly the duration
/// of one enqueue, so `Arc::strong_count == 1` on a retired mount means
/// no new request can reach its engine, and a queue depth of zero then
/// means every enqueued chunk has been picked up.
pub struct Mounted {
    model_id: String,
    version: u32,
    engine: MonitorEngine<ComposedMonitor>,
}

impl Mounted {
    /// The owning tenant's id.
    pub fn model_id(&self) -> &str {
        &self.model_id
    }

    /// The mounted monitor version (`>= 1`; `0` is the wire-level "active"
    /// route sentinel and never mounts).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The engine serving this mount.
    pub fn engine(&self) -> &MonitorEngine<ComposedMonitor> {
        &self.engine
    }
}

/// One tenant: the active mount behind the swap lock, plus an optional
/// shadow candidate.
struct TenantState {
    model_id: String,
    /// The hot-swap point. Writers hold this only for the pointer flip;
    /// readers only long enough to clone the `Arc`.
    active: RwLock<Arc<Mounted>>,
    shadow: Mutex<Option<ShadowState>>,
}

impl TenantState {
    fn active(&self) -> Arc<Mounted> {
        Arc::clone(&self.active.read().unwrap_or_else(PoisonError::into_inner))
    }
}

/// The final account of one retired engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainOutcome {
    /// The tenant the engine served.
    pub model_id: String,
    /// The retired version.
    pub version: u32,
    /// The engine's final report; `queue_depth == 0` unless `timed_out`.
    pub report: ServeReport,
    /// Whether the drain deadline expired before the engine quiesced. A
    /// timed-out drain leaves the engine's worker threads to the process
    /// (they are parked on empty queues, not spinning) rather than tearing
    /// them down under in-flight requests.
    pub timed_out: bool,
}

/// Everything [`MonitorRegistry::shutdown`] tore down.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistryReport {
    /// Active and shadow engines unmounted by the shutdown itself.
    pub tenants: Vec<DrainOutcome>,
    /// Engines retired earlier (hot-swaps, promotes) whose background
    /// drains the shutdown joined.
    pub retired: Vec<DrainOutcome>,
}

impl RegistryReport {
    /// Total requests served across every engine the registry ever ran.
    pub fn total_requests(&self) -> u64 {
        self.tenants
            .iter()
            .chain(&self.retired)
            .map(|o| o.report.requests)
            .sum()
    }
}

/// One row of [`MonitorRegistry::list`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantInfo {
    /// The tenant id.
    pub model_id: String,
    /// Version serving live traffic.
    pub active_version: u32,
    /// Shadow candidate version, if one is attached.
    pub shadow_version: Option<u32>,
    /// The active engine's backlog gauge.
    pub queue_depth: u64,
}

/// A multi-tenant monitor registry: `(model_id, version)` → mounted
/// engine, with atomic hot-swap, drain-safe retirement, and shadow
/// deployment. See the [crate docs](crate) for the lifecycle.
pub struct MonitorRegistry {
    config: RegistryConfig,
    tenants: RwLock<BTreeMap<String, Arc<TenantState>>>,
    retired: Mutex<Vec<JoinHandle<DrainOutcome>>>,
    closed: AtomicBool,
}

impl MonitorRegistry {
    /// An empty registry.
    pub fn new(config: RegistryConfig) -> Self {
        Self {
            config,
            tenants: RwLock::new(BTreeMap::new()),
            retired: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
        }
    }

    /// The configuration the registry runs with.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    fn guard_open(&self) -> Result<(), RegistryError> {
        if self.closed.load(Ordering::Acquire) {
            Err(RegistryError::Closed)
        } else {
            Ok(())
        }
    }

    fn tenant(&self, model_id: &str) -> Result<Arc<TenantState>, RegistryError> {
        self.guard_open()?;
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(model_id)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownTenant(model_id.to_string()))
    }

    fn check_mount(&self, model_id: &str, version: u32) -> Result<(), RegistryError> {
        self.guard_open()?;
        if !valid_tenant_id(model_id) {
            return Err(RegistryError::InvalidTenantId(model_id.to_string()));
        }
        if version == 0 {
            return Err(RegistryError::ReservedVersion);
        }
        Ok(())
    }

    /// Mounts `artifact` as tenant `model_id` at `version`. A fresh tenant
    /// starts serving immediately; an existing tenant is **hot-swapped**:
    /// the pointer flips atomically, in-flight requests finish on the old
    /// engine, and the old engine drains to `queue_depth == 0` in the
    /// background before its workers are torn down.
    ///
    /// # Errors
    ///
    /// [`RegistryError::InvalidTenantId`], [`RegistryError::ReservedVersion`]
    /// (version 0), [`RegistryError::VersionInUse`] if the tenant already
    /// serves or shadows `version`, [`RegistryError::Closed`] after
    /// shutdown.
    pub fn mount(
        &self,
        model_id: &str,
        version: u32,
        artifact: MonitorArtifact,
    ) -> Result<(), RegistryError> {
        self.check_mount(model_id, version)?;
        self.mount_engine(
            model_id,
            version,
            MonitorEngine::from_artifact(artifact, self.config.engine),
        )
    }

    /// [`MonitorRegistry::mount`] over an engine the caller already built
    /// (custom warm-start paths, tests).
    pub fn mount_engine(
        &self,
        model_id: &str,
        version: u32,
        engine: MonitorEngine<ComposedMonitor>,
    ) -> Result<(), RegistryError> {
        self.check_mount(model_id, version)?;
        let mounted = Arc::new(Mounted {
            model_id: model_id.to_string(),
            version,
            engine,
        });
        // Fast path: existing tenant, hot-swap under its own lock.
        if let Some(tenant) = self
            .tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(model_id)
            .cloned()
        {
            return self.swap_active(&tenant, mounted);
        }
        let mut tenants = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        match tenants.get(model_id).cloned() {
            // Lost the race to another mount: swap instead.
            Some(tenant) => {
                drop(tenants);
                self.swap_active(&tenant, mounted)
            }
            None => {
                tenants.insert(
                    model_id.to_string(),
                    Arc::new(TenantState {
                        model_id: model_id.to_string(),
                        active: RwLock::new(mounted),
                        shadow: Mutex::new(None),
                    }),
                );
                Ok(())
            }
        }
    }

    /// Warm-starts tenant `model_id` at `version` straight from its
    /// namespaced pattern-store directory (see
    /// [`MonitorRegistry::tenant_store_dir`]) and mounts it — the
    /// registry-level [`MonitorEngine::from_store`].
    ///
    /// # Errors
    ///
    /// Mount errors as [`MonitorRegistry::mount`], plus
    /// [`RegistryError::NoStoreRoot`] when the registry was configured
    /// without one and [`RegistryError::Monitor`] when the spec cannot
    /// mount over the stores on disk.
    pub fn mount_from_store(
        &self,
        model_id: &str,
        version: u32,
        spec: &MonitorSpec,
        net: impl Into<Arc<Network>>,
    ) -> Result<(), RegistryError> {
        self.check_mount(model_id, version)?;
        let root = self.tenant_store_dir(model_id, version)?;
        let engine = MonitorEngine::from_store(spec, net, root, self.config.engine)?;
        self.mount_engine(model_id, version, engine)
    }

    /// The namespaced store directory for `(model_id, version)`:
    /// `<store_root>/tenant-<id>/v<NNNN>/`, holding the usual
    /// `member-NNNN/` layout underneath. Each mounted version gets its own
    /// namespace so a candidate's stores never alias the active version's
    /// advisory locks during a hot-swap.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NoStoreRoot`] without a configured root,
    /// [`RegistryError::InvalidTenantId`] for ids that cannot name a
    /// directory.
    pub fn tenant_store_dir(&self, model_id: &str, version: u32) -> Result<PathBuf, RegistryError> {
        if !valid_tenant_id(model_id) {
            return Err(RegistryError::InvalidTenantId(model_id.to_string()));
        }
        let root = self
            .config
            .store_root
            .as_deref()
            .ok_or(RegistryError::NoStoreRoot)?;
        Ok(StoreProvider::tenant_dir(root, model_id, version))
    }

    fn swap_active(
        &self,
        tenant: &TenantState,
        mounted: Arc<Mounted>,
    ) -> Result<(), RegistryError> {
        let shadow_version = tenant
            .shadow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(ShadowState::version);
        {
            let mut active = tenant
                .active
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            if active.version == mounted.version || shadow_version == Some(mounted.version) {
                return Err(RegistryError::VersionInUse {
                    model_id: tenant.model_id.clone(),
                    version: mounted.version,
                });
            }
            #[cfg(feature = "obs")]
            let (started, started_ns, version) = (
                std::time::Instant::now(),
                napmon_obs::now_ns(),
                mounted.version,
            );
            let old = std::mem::replace(&mut *active, mounted);
            drop(active);
            #[cfg(feature = "obs")]
            crate::obs::record_flip(started, started_ns, version);
            self.retire(old);
        }
        Ok(())
    }

    /// Mounts `artifact` as a **shadow** candidate beside the tenant's
    /// active engine. Mirrored traffic starts flowing immediately; the
    /// candidate serves no live verdicts until [`MonitorRegistry::promote`].
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`], [`RegistryError::ShadowInUse`] if
    /// a candidate is already attached, [`RegistryError::VersionInUse`] if
    /// `version` is the active version, plus the mount errors of
    /// [`MonitorRegistry::mount`].
    pub fn mount_shadow(
        &self,
        model_id: &str,
        version: u32,
        artifact: MonitorArtifact,
    ) -> Result<(), RegistryError> {
        self.check_mount(model_id, version)?;
        self.mount_shadow_engine(
            model_id,
            version,
            MonitorEngine::from_artifact(artifact, self.config.engine),
        )
    }

    /// [`MonitorRegistry::mount_shadow`] over a prebuilt engine.
    pub fn mount_shadow_engine(
        &self,
        model_id: &str,
        version: u32,
        engine: MonitorEngine<ComposedMonitor>,
    ) -> Result<(), RegistryError> {
        self.check_mount(model_id, version)?;
        let tenant = self.tenant(model_id)?;
        let mut shadow = tenant.shadow.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = shadow.as_ref() {
            return Err(RegistryError::ShadowInUse {
                model_id: model_id.to_string(),
                shadow_version: existing.version(),
            });
        }
        if tenant.active().version == version {
            return Err(RegistryError::VersionInUse {
                model_id: model_id.to_string(),
                version,
            });
        }
        let mounted = Arc::new(Mounted {
            model_id: model_id.to_string(),
            version,
            engine,
        });
        *shadow = Some(ShadowState::spawn(mounted, self.config.mirror_capacity));
        Ok(())
    }

    /// Resolves `(model_id, version)` to its mount; version `0` means "the
    /// active version". A pinned version resolves the active or the shadow
    /// mount — this is how a candidate is queried directly (differential
    /// tests, canary probes) without waiting for promotion.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`] / [`RegistryError::UnknownVersion`].
    pub fn resolve(&self, model_id: &str, version: u32) -> Result<Arc<Mounted>, RegistryError> {
        let tenant = self.tenant(model_id)?;
        let active = tenant.active();
        if version == 0 || active.version == version {
            return Ok(active);
        }
        let shadow = tenant.shadow.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(state) = shadow.as_ref() {
            if state.version() == version {
                return Ok(Arc::clone(state.mounted()));
            }
        }
        Err(RegistryError::UnknownVersion {
            model_id: model_id.to_string(),
            version,
        })
    }

    /// The active mount plus a mirror handle when a shadow is attached.
    fn route(
        &self,
        model_id: &str,
    ) -> Result<(Arc<Mounted>, Option<crate::shadow::MirrorHandle>), RegistryError> {
        let tenant = self.tenant(model_id)?;
        let active = tenant.active();
        let mirror = tenant
            .shadow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(ShadowState::handle);
        Ok((active, mirror))
    }

    /// Serves a batch on the tenant's active engine, mirroring it to the
    /// shadow candidate when one is attached, and blocks for the verdicts
    /// — [`MonitorRegistry::query_batch_with`] on the active route plus a
    /// wait. Share an `Arc<[Vec<f64>]>` across repeated submissions to
    /// avoid copies.
    ///
    /// # Errors
    ///
    /// Routing errors plus [`RegistryError::Serve`] from the engine.
    pub fn query_batch(
        &self,
        model_id: &str,
        inputs: impl Into<Arc<[Vec<f64>]>>,
    ) -> Result<Vec<Verdict>, RegistryError> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.query_batch_with(model_id, 0, inputs, 0, move |result| {
            let _ = tx.send(result);
        })?;
        Ok(rx.recv().unwrap_or(Err(ServeError::ShardDown))?)
    }

    /// Routes a batch to `(model_id, version)` and returns at once; the
    /// engine's [`MonitorEngine::submit_batch_with`] runs `on_done` with
    /// the verdicts when the last chunk is served. Version 0 serves the
    /// active mount and, when a shadow candidate is attached, mirrors the
    /// answered batch to it (off the hot path: a full mirror queue drops
    /// the job) before `on_done` runs. A pinned version serves that one
    /// mount — active or shadow — with no mirroring: the direct-candidate
    /// path differential tests compare mirrored verdicts against.
    ///
    /// The mount's `Arc` is held only for the enqueue, so a retired
    /// engine's drainer sees chunks still queued through its queue depth.
    ///
    /// # Errors
    ///
    /// Routing errors ([`RegistryError::UnknownTenant`],
    /// [`RegistryError::UnknownVersion`], [`RegistryError::Closed`]) come
    /// back at once and `on_done` never runs; serving errors go to
    /// `on_done`.
    pub fn query_batch_with(
        &self,
        model_id: &str,
        version: u32,
        inputs: impl Into<Arc<[Vec<f64>]>>,
        trace_id: u64,
        on_done: impl FnOnce(Result<Vec<Verdict>, ServeError>) + Send + 'static,
    ) -> Result<(), RegistryError> {
        let (mounted, mirror) = if version == 0 {
            self.route(model_id)?
        } else {
            (self.resolve(model_id, version)?, None)
        };
        let inputs: Arc<[Vec<f64>]> = inputs.into();
        let Some(mirror) = mirror else {
            mounted.engine.submit_batch_with(inputs, trace_id, on_done);
            return Ok(());
        };
        let started = Instant::now();
        let mirrored = Arc::clone(&inputs);
        mounted
            .engine
            .submit_batch_with(inputs, trace_id, move |result| {
                if let Ok(verdicts) = &result {
                    let active_ns =
                        started.elapsed().as_nanos() as f64 / mirrored.len().max(1) as f64;
                    mirror.offer(MirrorJob::Query {
                        inputs: mirrored,
                        active: verdicts.clone(),
                        active_ns,
                    });
                }
                on_done(result);
            });
        Ok(())
    }

    /// Absorbs a batch into the tenant's active store-backed monitor and
    /// mirrors the batch to the shadow candidate (which absorbs it too, so
    /// a store-backed candidate keeps pace). Returns the active monitor's
    /// count of new patterns.
    ///
    /// # Errors
    ///
    /// Routing errors plus [`RegistryError::Serve`] from the engine.
    pub fn absorb_batch(
        &self,
        model_id: &str,
        inputs: impl Into<Arc<[Vec<f64>]>>,
    ) -> Result<usize, RegistryError> {
        let (active, mirror) = self.route(model_id)?;
        let inputs: Arc<[Vec<f64>]> = inputs.into();
        let fresh = active.engine.absorb_batch(&inputs)?;
        if let Some(mirror) = mirror {
            mirror.offer(MirrorJob::Absorb { inputs });
        }
        Ok(fresh)
    }

    /// A live snapshot of the shadow diff.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`] / [`RegistryError::NoShadow`].
    pub fn shadow_stats(&self, model_id: &str) -> Result<ShadowReport, RegistryError> {
        let tenant = self.tenant(model_id)?;
        let active_version = tenant.active().version;
        let shadow = tenant.shadow.lock().unwrap_or_else(PoisonError::into_inner);
        shadow
            .as_ref()
            .map(|state| state.report(model_id, active_version))
            .ok_or_else(|| RegistryError::NoShadow(model_id.to_string()))
    }

    /// Blocks until every mirror job enqueued before this call is served —
    /// the settling point that makes shadow reports deterministic in tests.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`] / [`RegistryError::NoShadow`].
    pub fn shadow_sync(&self, model_id: &str) -> Result<(), RegistryError> {
        let tenant = self.tenant(model_id)?;
        // Wait outside the shadow slot's lock: routing takes it per query.
        let mirror = tenant
            .shadow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(ShadowState::handle)
            .ok_or_else(|| RegistryError::NoShadow(model_id.to_string()))?;
        mirror.sync();
        Ok(())
    }

    /// Promotes the shadow candidate to active: detaches the mirror,
    /// flushes it (the returned report covers every mirrored job), flips
    /// the active pointer atomically, and retires the old engine in the
    /// background — in-flight requests finish on the engine they started
    /// on, and the retired engine drains to `queue_depth == 0` before its
    /// workers are torn down. The flip itself is a pointer swap; live
    /// traffic never waits on the flush.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`] / [`RegistryError::NoShadow`].
    pub fn promote(&self, model_id: &str) -> Result<ShadowReport, RegistryError> {
        let tenant = self.tenant(model_id)?;
        let state = tenant
            .shadow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .ok_or_else(|| RegistryError::NoShadow(model_id.to_string()))?;
        // New queries stop mirroring the moment the slot is empty; the
        // flush below only waits on jobs already queued.
        let active_version = tenant.active().version;
        let (report, candidate) = state.finish(model_id, active_version);
        #[cfg(feature = "obs")]
        let (started, started_ns, version) = (
            std::time::Instant::now(),
            napmon_obs::now_ns(),
            candidate.version,
        );
        let old = {
            let mut active = tenant
                .active
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *active, candidate)
        };
        #[cfg(feature = "obs")]
        crate::obs::record_flip(started, started_ns, version);
        self.retire(old);
        Ok(report)
    }

    /// Abandons the shadow candidate without promoting it: detaches and
    /// flushes the mirror, returns the final diff report, and retires the
    /// candidate engine.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`] / [`RegistryError::NoShadow`].
    pub fn drop_shadow(&self, model_id: &str) -> Result<ShadowReport, RegistryError> {
        let tenant = self.tenant(model_id)?;
        let state = tenant
            .shadow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .ok_or_else(|| RegistryError::NoShadow(model_id.to_string()))?;
        let active_version = tenant.active().version;
        let (report, candidate) = state.finish(model_id, active_version);
        self.retire(candidate);
        Ok(report)
    }

    /// Unmounts a tenant entirely: removes it from the routing table,
    /// retires its shadow (if any), drains the active engine to
    /// `queue_depth == 0`, and returns the engine's final report.
    /// Blocks for up to the configured drain timeout.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`].
    pub fn unmount(&self, model_id: &str) -> Result<ServeReport, RegistryError> {
        let tenant = {
            let mut tenants = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
            tenants
                .remove(model_id)
                .ok_or_else(|| RegistryError::UnknownTenant(model_id.to_string()))?
        };
        // Flush the mirror outside the shadow slot's lock: routing takes it.
        let shadow = tenant
            .shadow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(state) = shadow {
            let (_report, candidate) = state.finish(model_id, tenant.active().version);
            self.retire(candidate);
        }
        let active = self.take_active(tenant);
        let outcome = drain_mounted(active, &self.config);
        Ok(outcome.report)
    }

    /// Waits out transient routing references on a removed tenant and
    /// extracts its active mount.
    fn take_active(&self, tenant: Arc<TenantState>) -> Arc<Mounted> {
        // Dispatchers hold the `Arc<TenantState>` only between the routing
        // lookup and cloning the active `Arc<Mounted>`; spin briefly until
        // this handle is the last one, then move the mount out.
        let started = Instant::now();
        let mut tenant = tenant;
        loop {
            match Arc::try_unwrap(tenant) {
                Ok(state) => {
                    return state
                        .active
                        .into_inner()
                        .unwrap_or_else(PoisonError::into_inner)
                }
                Err(shared) => {
                    if started.elapsed() >= self.config.drain_timeout {
                        // Fall back to a clone: the lingering holder keeps
                        // the mount's refcount up, which the drain below
                        // observes and times out on honestly.
                        return shared.active();
                    }
                    tenant = shared;
                    std::thread::sleep(self.config.drain_poll);
                }
            }
        }
    }

    /// Hands a replaced mount to a background drainer thread.
    fn retire(&self, old: Arc<Mounted>) {
        let config = self.config.clone();
        let handle = std::thread::Builder::new()
            .name("napmon-registry-drain".into())
            .spawn(move || drain_mounted(old, &config))
            .expect("spawn registry drainer");
        self.retired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle);
    }

    /// Joins drainers that already finished and returns their outcomes;
    /// never blocks on a drain still in progress.
    pub fn reap_retired(&self) -> Vec<DrainOutcome> {
        let mut retired = self.retired.lock().unwrap_or_else(PoisonError::into_inner);
        let mut done = Vec::new();
        let mut pending = Vec::new();
        for handle in retired.drain(..) {
            if handle.is_finished() {
                if let Ok(outcome) = handle.join() {
                    done.push(outcome);
                }
            } else {
                pending.push(handle);
            }
        }
        *retired = pending;
        done
    }

    /// Retired engines whose background drain has not finished yet.
    pub fn pending_retired(&self) -> usize {
        self.retired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|h| !h.is_finished())
            .count()
    }

    /// One row per tenant, ordered by id.
    pub fn list(&self) -> Vec<TenantInfo> {
        let tenants = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        tenants
            .values()
            .map(|tenant| {
                let active = tenant.active();
                TenantInfo {
                    model_id: tenant.model_id.clone(),
                    active_version: active.version,
                    shadow_version: tenant
                        .shadow
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .as_ref()
                        .map(ShadowState::version),
                    queue_depth: active.engine.queue_depth() as u64,
                }
            })
            .collect()
    }

    /// Every tenant's **active** engine (shadow engines are operational
    /// plumbing, not serving capacity).
    fn actives(&self) -> Vec<Arc<Mounted>> {
        let tenants = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        tenants.values().map(|t| t.active()).collect()
    }

    /// The merged metric cells of every tenant's active engine — the
    /// snapshot both [`MonitorRegistry::stats`] and the wire `Metrics`
    /// scrape read.
    pub fn metrics(&self) -> MetricsSnapshot {
        merged_metrics(&self.actives())
    }

    /// A serving report across every tenant's active engine, read from
    /// one merged snapshot of their metric cells.
    pub fn stats(&self) -> ServeReport {
        let actives = self.actives();
        let queued = actives.iter().map(|m| m.engine.queue_depth() as u64).sum();
        ServeReport::from_metrics(&merged_metrics(&actives), queued)
    }

    /// Tears the whole registry down: refuses new work, unmounts every
    /// tenant (shadows first, then actives, each drained to
    /// `queue_depth == 0`), joins every background drainer, and returns
    /// the full account. Idempotent — a second call returns an empty
    /// report.
    pub fn shutdown(&self) -> RegistryReport {
        self.closed.store(true, Ordering::Release);
        let tenants: Vec<Arc<TenantState>> = {
            let mut map = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *map).into_values().collect()
        };
        let mut drained = Vec::new();
        for tenant in tenants {
            let shadow = tenant
                .shadow
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(state) = shadow {
                let model_id = tenant.model_id.clone();
                let (_report, candidate) = state.finish(&model_id, tenant.active().version);
                drained.push(drain_mounted(candidate, &self.config));
            }
            let active = self.take_active(tenant);
            drained.push(drain_mounted(active, &self.config));
        }
        let retired = {
            let mut handles = self.retired.lock().unwrap_or_else(PoisonError::into_inner);
            handles
                .drain(..)
                .filter_map(|h| h.join().ok())
                .collect::<Vec<_>>()
        };
        RegistryReport {
            tenants: drained,
            retired,
        }
    }
}

impl Drop for MonitorRegistry {
    fn drop(&mut self) {
        if !self.closed.load(Ordering::Acquire) {
            self.shutdown();
        }
    }
}

fn merged_metrics(mounts: &[Arc<Mounted>]) -> MetricsSnapshot {
    let mut merged = MetricsSnapshot::default();
    for mounted in mounts {
        merged.merge(&mounted.engine.metrics());
    }
    merged
}

/// Waits for a retired mount to quiesce — no dispatcher holds it
/// (`Arc::strong_count == 1`) and its queue is empty — then shuts the
/// engine down and reports. On deadline expiry the engine is left running
/// (its threads park on empty queues) and the report says so.
fn drain_mounted(mounted: Arc<Mounted>, config: &RegistryConfig) -> DrainOutcome {
    let started = Instant::now();
    let mut timed_out = false;
    loop {
        if Arc::strong_count(&mounted) == 1 && mounted.engine.queue_depth() == 0 {
            break;
        }
        if started.elapsed() >= config.drain_timeout {
            timed_out = true;
            break;
        }
        std::thread::sleep(config.drain_poll);
    }
    match Arc::try_unwrap(mounted) {
        Ok(owned) => DrainOutcome {
            model_id: owned.model_id,
            version: owned.version,
            report: owned.engine.shutdown(),
            timed_out,
        },
        Err(shared) => DrainOutcome {
            model_id: shared.model_id.clone(),
            version: shared.version,
            report: shared.engine.report(),
            timed_out: true,
        },
    }
}
