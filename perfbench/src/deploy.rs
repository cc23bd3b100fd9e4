//! Building monitor versions, packaging them as artifacts, serving them
//! over loopback, and the reference verdicts every wire verdict is checked
//! against.

use crate::inputs::{network, watched_neurons, Inputs, Workload};
use napmon_artifact::MonitorArtifact;
use napmon_core::{
    AnyMonitor, ComposedMonitor, IntervalPatternMonitor, Monitor, MonitorSpec, PatternMonitor,
    QueryScratch, Verdict,
};
use napmon_nn::Network;
use napmon_registry::{MonitorRegistry, RegistryConfig};
use napmon_store::StoreProvider;
use napmon_wire::{TenantRoute, WireClient, WireServer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The tenant every query frame is routed to.
pub const TENANT: &str = "main";
/// `ood_tolerant`'s second tenant, which takes the `absorb_batch` stream.
pub const WRITER: &str = "writer";
/// Words per sealed store segment: small enough that the `ood_tolerant`
/// pattern set spans several segments.
pub const SEGMENT_WORDS: usize = 1024;

/// Builds the versions of one workload's monitor.
pub struct Deployer {
    pub workload: Workload,
    pub net: Network,
    pub spec: MonitorSpec,
    work: PathBuf,
    dirs: usize,
}

impl Deployer {
    pub fn new(workload: Workload, work: &Path) -> Self {
        let net = network();
        let spec = workload.spec(&watched_neurons(&net));
        Self {
            workload,
            net,
            spec,
            work: work.to_path_buf(),
            dirs: 0,
        }
    }

    /// A fresh path under the run's work directory.
    pub fn fresh_path(&mut self, stem: &str) -> PathBuf {
        self.dirs += 1;
        self.work.join(format!("{stem}-{}", self.dirs))
    }

    /// Runs the robust construction over `train` (into a fresh store for
    /// store-backed workloads).
    pub fn build(&mut self, train: &[Vec<f64>]) -> BenchResult<ComposedMonitor> {
        Ok(if self.workload.store_backed() {
            let root = self.fresh_path("store");
            let mut provider = StoreProvider::new(root).segment_capacity(SEGMENT_WORDS);
            self.spec
                .build_with_sources(&self.net, train, &mut provider)?
        } else {
            self.spec.build(&self.net, train)?
        })
    }

    /// Packages `monitor` as artifact JSON. The artifact is dropped before
    /// returning, which releases a store-backed monitor's store.
    pub fn artifact_json(
        &self,
        monitor: ComposedMonitor,
        trained_on: usize,
    ) -> BenchResult<String> {
        let artifact =
            MonitorArtifact::from_parts(self.spec.clone(), self.net.clone(), monitor, trained_on)?;
        Ok(artifact.to_json_string()?)
    }
}

/// In-process reference verdicts of `monitor` for every frame, through
/// `Monitor::verdict_batch_scratch`.
pub fn references(
    monitor: &ComposedMonitor,
    net: &Network,
    frames: &[Vec<Vec<f64>>],
) -> BenchResult<Vec<Vec<Verdict>>> {
    let mut scratch = QueryScratch::new();
    let mut refs = Vec::with_capacity(frames.len());
    for frame in frames {
        let mut out = Vec::new();
        monitor.verdict_batch_scratch(net, frame, &mut scratch, &mut out)?;
        refs.push(out);
    }
    Ok(refs)
}

/// The single member of a single-boundary monitor, seen through the
/// abstraction and membership calls its family exposes.
pub enum Member<'a> {
    Pattern(&'a PatternMonitor),
    Interval(&'a IntervalPatternMonitor),
}

impl<'a> Member<'a> {
    pub fn of(monitor: &'a ComposedMonitor) -> Self {
        let member: &AnyMonitor = monitor.as_single().expect("single-boundary monitor");
        if let Some(pattern) = member.as_pattern() {
            Member::Pattern(pattern)
        } else {
            Member::Interval(member.as_interval().expect("pattern or interval monitor"))
        }
    }

    pub fn extractor(&self) -> &napmon_core::FeatureExtractor {
        match self {
            Member::Pattern(m) => m.extractor(),
            Member::Interval(m) => m.extractor(),
        }
    }

    pub fn abstract_into(&self, features: &[f64], word: &mut napmon_bdd::BitWord) {
        match self {
            Member::Pattern(m) => m.abstract_into(features, word),
            Member::Interval(m) => m.abstract_into(features, word),
        }
    }

    /// Exact (τ = 0) or Hamming-tolerant membership, as the monitor
    /// answers it.
    pub fn contains(&self, word: &napmon_bdd::BitWord) -> bool {
        match self {
            Member::Pattern(m) if m.hamming_tolerance() > 0 => {
                m.contains_within_packed(word, m.hamming_tolerance())
            }
            Member::Pattern(m) => m.contains_packed(word),
            Member::Interval(m) => m.contains_packed(word),
        }
    }

    pub fn tau(&self) -> usize {
        match self {
            Member::Pattern(m) => m.hamming_tolerance(),
            Member::Interval(_) => 0,
        }
    }

    /// Distinct patterns the monitor admits.
    pub fn patterns(&self) -> f64 {
        match self {
            Member::Pattern(m) => m.pattern_count(),
            Member::Interval(m) => m.pattern_count(),
        }
    }
}

/// The versions a tenant may be serving, with each version's reference
/// verdicts. A verdict is correct when it equals the reference of some
/// version between the one active when the frame was sent and the newest
/// one published when its answer came back (the torn-verdict rule).
#[derive(Default)]
pub struct Versions {
    refs: RwLock<Vec<Arc<Vec<Vec<Verdict>>>>>,
    active: AtomicU32,
    newest: AtomicU32,
}

impl Versions {
    /// Version 1 serving `refs`.
    pub fn first(refs: Vec<Vec<Verdict>>) -> Self {
        let versions = Self::default();
        versions.publish(1, refs);
        versions.promoted(1);
        versions
    }

    /// Makes version `version`'s references known before it can serve.
    pub fn publish(&self, version: u32, refs: Vec<Vec<Verdict>>) {
        let mut all = self.refs.write().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(all.len() + 1, version as usize, "versions publish in order");
        all.push(Arc::new(refs));
        self.newest.store(version, Ordering::SeqCst);
    }

    /// Records that `version` now serves every new frame.
    pub fn promoted(&self, version: u32) {
        self.active.store(version, Ordering::SeqCst);
    }

    pub fn active(&self) -> u32 {
        self.active.load(Ordering::SeqCst)
    }

    pub fn newest(&self) -> u32 {
        self.newest.load(Ordering::SeqCst)
    }

    /// The reference verdicts of `version` for every frame.
    pub fn all(&self, version: u32) -> Arc<Vec<Vec<Verdict>>> {
        let all = self.refs.read().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&all[version as usize - 1])
    }

    /// The reference verdicts of `version` for `frame`.
    pub fn reference(&self, version: u32, frame: usize) -> Vec<Verdict> {
        let all = self.refs.read().unwrap_or_else(PoisonError::into_inner);
        all[version as usize - 1][frame].clone()
    }

    /// Whether `got` matches some version in `oldest..=newest`.
    pub fn matches(&self, oldest: u32, newest: u32, frame: usize, got: &[Verdict]) -> bool {
        let all = self.refs.read().unwrap_or_else(PoisonError::into_inner);
        (oldest..=newest).any(|v| all[v as usize - 1][frame] == got)
    }
}

/// A registry-backed wire server on an ephemeral loopback port, with the
/// repository's default configuration.
pub fn serve() -> BenchResult<WireServer> {
    let registry = Arc::new(MonitorRegistry::new(RegistryConfig::default()));
    Ok(WireServer::builder(registry).bind("127.0.0.1:0")?)
}

/// A client routed to the active version of `tenant`.
pub fn client(server: &WireServer, tenant: &str) -> BenchResult<WireClient> {
    Ok(WireClient::connect(server.local_addr())?.with_route(TenantRoute::active(tenant)))
}

/// One timed set-up: training data in hand to the first verdict served.
pub struct SetUp {
    pub server: WireServer,
    /// Set-up time, excluding the reference verdicts computed inside it.
    pub secs: f64,
    /// Version 1's reference verdicts, when asked for.
    pub refs: Option<Vec<Vec<Verdict>>>,
}

/// Robust build → artifact → bind → mount over the wire → first verdict.
pub fn set_up(dep: &mut Deployer, inputs: &Inputs, with_refs: bool) -> BenchResult<SetUp> {
    let started = Instant::now();
    let train = &inputs.versions[0];
    let monitor = dep.build(train)?;
    let mut excluded = 0.0;
    let refs = if with_refs {
        let t = Instant::now();
        let refs = references(&monitor, &dep.net, &inputs.frames)?;
        excluded = t.elapsed().as_secs_f64();
        Some(refs)
    } else {
        None
    };
    let json = dep.artifact_json(monitor, train.len())?;
    let server = serve()?;
    let mut admin = WireClient::connect(server.local_addr())?;
    admin.set_route(Some(TenantRoute::pinned(TENANT, 1)));
    admin.mount_artifact(false, &json)?;
    client(&server, TENANT)?.query_batch(&inputs.frames[0])?;
    Ok(SetUp {
        server,
        secs: started.elapsed().as_secs_f64() - excluded,
        refs,
    })
}
