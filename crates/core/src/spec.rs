//! Declarative monitor specifications: the spec-first build pipeline.
//!
//! A [`MonitorSpec`] is a fully serializable, versioned description of an
//! entire monitor build — which boundary (or boundaries) of the network to
//! watch, which monitor family ([`MonitorKind`]), whether to use the robust
//! construction of §III-B ([`RobustConfig`]), how members compose
//! ([`Composition`]), and whether construction may use all cores. It is
//! the one construction API, and it is *data*: it can be written to disk,
//! reviewed, diffed, shipped to another machine, and rebuilt — or embedded
//! in a `napmon-artifact` file next to the monitor it produced, so the
//! deployed abstraction is always traceable to the exact configuration
//! that built it.
//!
//! [`MonitorSpec::build`] runs the paper's construction loop and returns a
//! [`ComposedMonitor`] — single-boundary, multi-layer voted, or per-class —
//! which is itself serializable and mountable on the `napmon-serve` engine.
//! Builds, mounts and artifact checks read each member's boundary from
//! [`MonitorSpec::watched`]; queries and absorption route through the
//! composite, and the multi-layer vote is taken in its batch path.
//!
//! Every invariant of a spec is checked *up front* by
//! [`MonitorSpec::validate`] / [`MonitorSpec::validate_for`]: a spec
//! deserialized from an untrusted file fails with a typed
//! [`MonitorError`] instead of panicking deep inside construction.
//!
//! # Example
//!
//! ```
//! use napmon_core::{Monitor, MonitorKind, MonitorSpec};
//! use napmon_absint::Domain;
//! use napmon_nn::{Activation, LayerSpec, Network};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Network::seeded(7, 4, &[
//!     LayerSpec::dense(8, Activation::Relu),
//!     LayerSpec::dense(2, Activation::Identity),
//! ]);
//! let train: Vec<Vec<f64>> = (0..32)
//!     .map(|i| (0..4).map(|j| ((i + j) % 8) as f64 / 8.0).collect())
//!     .collect();
//!
//! // The whole build, declared as data.
//! let spec = MonitorSpec::new(2, MonitorKind::pattern()).robust(0.05, 0, Domain::Box);
//! let monitor = spec.build(&net, &train)?;
//! for v in &train {
//!     assert!(!monitor.warns(&net, v)?);
//! }
//! # Ok(())
//! # }
//! ```

use crate::builder::{AnyMonitor, MonitorKind, RobustConfig};
use crate::error::MonitorError;
use crate::feature::{check_input_dim, rows, FeatureExtractor};
use crate::minmax::MinMaxMonitor;
use crate::monitor::{Monitor, QueryScratch, Verdict};
use crate::pattern::{
    check_bits, check_threshold_lists, PatternBackend, PatternMonitor, ThresholdPolicy,
};
use crate::perturb::perturbation_estimates;
use crate::source::{SharedPatternSource, SourceDescriptor, SourceProvider};
use napmon_absint::{propagate::Propagator, BoxBounds, Domain};
use napmon_nn::{ForwardScratch, Network};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The spec schema version this crate reads and writes.
pub const MONITOR_SPEC_VERSION: u32 = 1;

/// One watched network boundary: the paper's `G^k`, optionally restricted
/// to a neuron subset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchedLayer {
    /// Monitored boundary index (`1..=net.num_layers()`).
    pub layer: usize,
    /// Monitored neuron indices; `None` watches the whole boundary.
    pub neurons: Option<Vec<usize>>,
}

impl WatchedLayer {
    /// Watches every neuron of boundary `layer`.
    pub fn whole(layer: usize) -> Self {
        Self {
            layer,
            neurons: None,
        }
    }

    /// Watches only the given neuron indices of boundary `layer`.
    pub fn subset(layer: usize, neurons: Vec<usize>) -> Self {
        Self {
            layer,
            neurons: Some(neurons),
        }
    }
}

/// How per-layer verdicts combine into one decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Vote {
    /// Warn if *any* member warns (most sensitive; unions the evidence).
    Any,
    /// Warn only if *all* members warn (most conservative).
    All,
    /// Warn if at least `k` members warn.
    AtLeast(usize),
}

impl Vote {
    /// [`MonitorError::InvalidConfig`] unless `members` members can meet
    /// the vote: at least one member, and `AtLeast(k)` with
    /// `1 <= k <= members`.
    fn check(self, members: usize) -> Result<(), MonitorError> {
        if members == 0 {
            return Err(MonitorError::InvalidConfig(
                "a multi-layer vote needs at least one member".into(),
            ));
        }
        match self {
            Vote::AtLeast(k) if k == 0 || k > members => Err(MonitorError::InvalidConfig(format!(
                "vote AtLeast({k}) with {members} members"
            ))),
            _ => Ok(()),
        }
    }

    /// Whether `warnings` warning members out of `members` make a warning.
    fn decide(self, warnings: usize, members: usize) -> bool {
        match self {
            Vote::Any => warnings > 0,
            Vote::All => warnings == members,
            Vote::AtLeast(k) => warnings >= k,
        }
    }
}

/// How member monitors compose into the deployed decision: which
/// boundary each member watches ([`MonitorSpec::watched`]), and how the
/// built [`ComposedMonitor`] routes inputs and combines verdicts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Composition {
    /// One monitor over one boundary (the paper's default setup).
    Single,
    /// One member per watched boundary, combined by a [`Vote`].
    MultiLayer {
        /// The voting rule combining per-boundary verdicts.
        vote: Vote,
    },
    /// One member per output class; queries dispatch on the predicted
    /// class (the DATE 2019 setup).
    PerClass {
        /// Number of classes (one member monitor each).
        num_classes: usize,
    },
}

/// A declarative, versioned description of an entire monitor build.
///
/// See the [module docs](self) for the deployment story. Construct with
/// [`MonitorSpec::new`] (or [`MonitorSpec::multi_layer`]) and refine with
/// the chainable setters; every field is also public, so a spec can be
/// assembled literally or deserialized from JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorSpec {
    /// Spec schema version ([`MONITOR_SPEC_VERSION`]).
    pub version: u32,
    /// The watched boundary (or boundaries, for multi-layer composition).
    pub layers: Vec<WatchedLayer>,
    /// The monitor family and its parameters.
    pub kind: MonitorKind,
    /// Robust-construction parameters; `None` builds the standard monitor.
    pub robust: Option<RobustConfig>,
    /// How members compose into the deployed decision.
    pub composition: Composition,
    /// Parallelism hint: with 64 or more training samples, construction
    /// splits the training set across all cores, and each runs the batched
    /// forward pass and perturbation estimates on its slice, over one
    /// shared propagator. The monitor is the same bits either way.
    pub parallel: bool,
}

impl MonitorSpec {
    /// A single-boundary spec watching all of boundary `layer`.
    pub fn new(layer: usize, kind: MonitorKind) -> Self {
        Self {
            version: MONITOR_SPEC_VERSION,
            layers: vec![WatchedLayer::whole(layer)],
            kind,
            robust: None,
            composition: Composition::Single,
            parallel: false,
        }
    }

    /// A multi-layer spec: one member per watched boundary, combined by
    /// `vote`.
    pub fn multi_layer(layers: Vec<WatchedLayer>, kind: MonitorKind, vote: Vote) -> Self {
        Self {
            version: MONITOR_SPEC_VERSION,
            layers,
            kind,
            robust: None,
            composition: Composition::MultiLayer { vote },
            parallel: false,
        }
    }

    /// Restricts the (single) watched boundary to the given neurons.
    pub fn with_neurons(mut self, neurons: Vec<usize>) -> Self {
        if let Some(first) = self.layers.first_mut() {
            first.neurons = Some(neurons);
        }
        self
    }

    /// Switches to the robust construction of §III-B.
    pub fn robust(mut self, delta: f64, kp: usize, domain: Domain) -> Self {
        self.robust = Some(RobustConfig { delta, kp, domain });
        self
    }

    /// Same as [`MonitorSpec::robust`] with a pre-assembled config.
    pub fn robust_config(mut self, config: RobustConfig) -> Self {
        self.robust = Some(config);
        self
    }

    /// Switches to per-class composition with `num_classes` classes.
    pub fn per_class(mut self, num_classes: usize) -> Self {
        self.composition = Composition::PerClass { num_classes };
        self
    }

    /// Sets the construction parallelism hint.
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// Checks every network-independent invariant of the spec.
    ///
    /// This is the guard that makes deserialized specs safe: a malformed
    /// file — unknown version, zero watched layers, interval `bits` out of
    /// range, explicit thresholds whose count disagrees with `2^bits − 1`,
    /// negative or non-finite `delta`, `kp` not below every watched layer,
    /// a vote demanding more members than exist — fails here with a typed
    /// [`MonitorError`] instead of panicking inside construction.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] describing the first
    /// violated invariant.
    pub fn validate(&self) -> Result<(), MonitorError> {
        if self.version != MONITOR_SPEC_VERSION {
            return Err(MonitorError::InvalidConfig(format!(
                "unsupported spec version {} (this build reads version {MONITOR_SPEC_VERSION})",
                self.version
            )));
        }
        if self.layers.is_empty() {
            return Err(MonitorError::InvalidConfig("spec watches no layers".into()));
        }
        for watched in &self.layers {
            if watched.layer == 0 {
                return Err(MonitorError::InvalidConfig(
                    "boundary 0 (the raw input) cannot be monitored".into(),
                ));
            }
            if let Some(neurons) = &watched.neurons {
                if neurons.is_empty() {
                    return Err(MonitorError::InvalidConfig(format!(
                        "boundary {}: neuron subset is empty",
                        watched.layer
                    )));
                }
            }
        }
        match &self.composition {
            Composition::Single | Composition::PerClass { .. } => {
                if self.layers.len() != 1 {
                    return Err(MonitorError::InvalidConfig(format!(
                        "{} composition watches exactly one boundary, got {}",
                        match self.composition {
                            Composition::PerClass { .. } => "per-class",
                            _ => "single",
                        },
                        self.layers.len()
                    )));
                }
                if let Composition::PerClass { num_classes } = self.composition {
                    if num_classes == 0 {
                        return Err(MonitorError::InvalidConfig(
                            "per-class composition needs num_classes >= 1".into(),
                        ));
                    }
                }
            }
            Composition::MultiLayer { vote } => vote.check(self.layers.len())?,
        }
        self.validate_kind()?;
        if let Some(r) = &self.robust {
            if r.delta < 0.0 || !r.delta.is_finite() {
                return Err(MonitorError::InvalidConfig(format!(
                    "delta must be finite and non-negative, got {}",
                    r.delta
                )));
            }
            if let Some(min_layer) = self.layers.iter().map(|w| w.layer).min() {
                if r.kp >= min_layer {
                    return Err(MonitorError::InvalidConfig(format!(
                        "robust config needs kp < monitored layer: kp={}, layer={min_layer}",
                        r.kp
                    )));
                }
            }
        }
        Ok(())
    }

    /// The family-specific half of [`MonitorSpec::validate`].
    fn validate_kind(&self) -> Result<(), MonitorError> {
        if let MonitorKind::MinMax { gamma } = self.kind {
            if gamma < 0.0 || !gamma.is_finite() {
                return Err(MonitorError::InvalidConfig(format!(
                    "gamma must be finite and non-negative, got {gamma}"
                )));
            }
        }
        let Some(params) = self.kind.pattern_params() else {
            return Ok(());
        };
        check_bits(params.bits)?;
        match params.policy {
            ThresholdPolicy::Sign | ThresholdPolicy::Mean if params.bits != 1 => {
                Err(MonitorError::InvalidConfig(format!(
                    "{:?} policy requires bits = 1, got {}",
                    params.policy, params.bits
                )))
            }
            ThresholdPolicy::Explicit(lists) => {
                check_threshold_lists(params.bits, lists.iter().map(Vec::as_slice))
            }
            _ => Ok(()),
        }
    }

    /// Checks the spec against a concrete network: boundary indices in
    /// range, neuron subsets within the boundary width, explicit threshold
    /// lists matching the monitored dimension.
    ///
    /// Runs [`MonitorSpec::validate`] first, so one call covers both
    /// halves — this is what `napmon-artifact` calls on load.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] or
    /// [`MonitorError::DimensionMismatch`] describing the first violated
    /// invariant.
    pub fn validate_for(&self, net: &Network) -> Result<(), MonitorError> {
        self.validate()?;
        for watched in &self.layers {
            if watched.layer > net.num_layers() {
                return Err(MonitorError::InvalidConfig(format!(
                    "monitored boundary {} out of range 1..={}",
                    watched.layer,
                    net.num_layers()
                )));
            }
            let width = net.dim_at(watched.layer);
            let dim = match &watched.neurons {
                None => width,
                Some(neurons) => {
                    for &n in neurons {
                        if n >= width {
                            return Err(MonitorError::InvalidConfig(format!(
                                "neuron {n} out of range for layer width {width}"
                            )));
                        }
                    }
                    let mut seen = std::collections::HashSet::new();
                    neurons.iter().filter(|n| seen.insert(**n)).count()
                }
            };
            let policy = self.kind.pattern_params().map(|p| p.policy);
            if let Some(ThresholdPolicy::Explicit(lists)) = policy {
                if lists.len() != dim {
                    return Err(MonitorError::DimensionMismatch {
                        context: format!("explicit thresholds at boundary {}", watched.layer),
                        expected: dim,
                        actual: lists.len(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Runs the construction loop of §III-A/B and returns the composed
    /// monitor.
    ///
    /// Per-class composition labels each training sample with the
    /// network's *predicted* class (the deployment-faithful choice: in
    /// operation the dispatch uses predictions too); use
    /// [`MonitorSpec::build_with_labels`] to train against ground-truth
    /// labels instead.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::EmptyTrainingSet`] for empty data,
    /// [`MonitorError::DimensionMismatch`] for malformed samples,
    /// [`MonitorError::NonFinite`] for a sample with a NaN or infinite
    /// coordinate, and [`MonitorError::InvalidConfig`] for any violated
    /// spec invariant.
    pub fn build(&self, net: &Network, data: &[Vec<f64>]) -> Result<ComposedMonitor, MonitorError> {
        self.build_impl(net, data, None, None)
    }

    /// Like [`MonitorSpec::build`], with explicit per-sample class labels
    /// for per-class composition (`labels[i]` is the class of `data[i]`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MonitorSpec::build`], plus
    /// [`MonitorError::InvalidConfig`] when labels are out of range or a
    /// class has no samples.
    pub fn build_with_labels(
        &self,
        net: &Network,
        data: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<ComposedMonitor, MonitorError> {
        self.build_impl(net, data, Some(labels), None)
    }

    /// Runs the construction loop with every pattern-set member backed by
    /// an external [`crate::PatternSource`] from `provider` — the
    /// store-backed build.
    ///
    /// The provider is asked for one source per member (member index `0`
    /// for single composition, the boundary position for multi-layer, the
    /// class index for per-class), at the member's packed word width; the
    /// training patterns are absorbed *into the sources*, so the monitor's
    /// word set lives wherever the provider put it (e.g. the
    /// `napmon-store` segments on disk). Pattern-kind specs must declare
    /// [`PatternBackend::Store`] so the spec stays an honest description
    /// of the deployment; interval monitors are store-backed whenever a
    /// provider is given (their `MonitorKind` carries no backend field).
    /// Min-max specs have no pattern set and are rejected.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MonitorSpec::build`], plus
    /// [`MonitorError::InvalidConfig`] for kind/backend disagreements and
    /// [`MonitorError::ExternalSource`] for provider or store failures.
    pub fn build_with_sources(
        &self,
        net: &Network,
        data: &[Vec<f64>],
        provider: &mut dyn SourceProvider,
    ) -> Result<ComposedMonitor, MonitorError> {
        self.build_impl(net, data, None, Some(provider))
    }

    /// Mounts the spec over *already-populated* external sources without
    /// any training data: the warm-start path, where every pattern the
    /// monitor admits comes from the store segments the provider opens.
    ///
    /// Because there is no data to resolve data-dependent thresholds
    /// from, the spec's policy must be data-free
    /// ([`ThresholdPolicy::Sign`] or [`ThresholdPolicy::Explicit`]);
    /// min-max specs cannot mount (their bounds have no external store).
    /// Member `samples()` counters start at zero — provenance lives with
    /// the artifact that built the store, not the mount.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] for invalid specs,
    /// data-dependent policies, or min-max kinds, and
    /// [`MonitorError::ExternalSource`] for provider failures.
    pub fn mount_with_sources(
        &self,
        net: &Network,
        provider: &mut dyn SourceProvider,
    ) -> Result<ComposedMonitor, MonitorError> {
        self.validate_for(net)?;
        let members = (0..)
            .map_while(|i| self.watched(i))
            .enumerate()
            .map(|(member, watched)| mount_member(net, watched, &self.kind, member, provider))
            .collect::<Result<_, _>>()?;
        Ok(self.compose(members))
    }

    /// The shared construction path behind `build*`: optional explicit
    /// labels (per-class), optional external sources. Member `i` is built
    /// over [`MonitorSpec::watched`]`(i)` from the whole training set, or
    /// from class `i`'s samples under per-class composition.
    fn build_impl(
        &self,
        net: &Network,
        data: &[Vec<f64>],
        labels: Option<&[usize]>,
        mut provider: Option<&mut dyn SourceProvider>,
    ) -> Result<ComposedMonitor, MonitorError> {
        self.validate_for(net)?;
        check_training_data(net, data)?;
        let classes = match self.composition {
            Composition::PerClass { num_classes } => {
                Some(partition_by_class(net, data, labels, num_classes)?)
            }
            _ => None,
        };
        let mut members = Vec::new();
        for (member, watched) in (0..).map_while(|i| self.watched(i)).enumerate() {
            let data = classes.as_ref().map_or(data, |classes| &classes[member]);
            members.push(build_member(
                net,
                self,
                watched,
                data,
                member,
                provider.as_deref_mut(),
            )?);
        }
        Ok(self.compose(members))
    }

    /// The boundary member `member` watches: `layers[member]` under
    /// multi-layer composition, `layers[0]` for the one single member and
    /// for every class of a per-class composition; `None` past the last
    /// member. Builds, mounts and the artifact checks all read the
    /// member-to-boundary mapping from here.
    pub fn watched(&self, member: usize) -> Option<&WatchedLayer> {
        match self.composition {
            Composition::MultiLayer { .. } => self.layers.get(member),
            Composition::Single if member == 0 => self.layers.first(),
            Composition::PerClass { num_classes } if member < num_classes => self.layers.first(),
            _ => None,
        }
    }

    /// Wraps built or mounted members (in member order) in the spec's
    /// composition.
    fn compose(&self, mut members: Vec<AnyMonitor>) -> ComposedMonitor {
        match self.composition {
            Composition::Single => {
                ComposedMonitor::Single(members.pop().expect("a single composition has one member"))
            }
            Composition::MultiLayer { vote } => ComposedMonitor::MultiLayer { members, vote },
            Composition::PerClass { .. } => ComposedMonitor::PerClass { monitors: members },
        }
    }
}

/// Splits the training set by class: `labels[i]` is the class of
/// `data[i]`, or the network's predicted class when no labels are given.
/// Runs after the data checks, since `predict_class` panics on a
/// wrong-dimension sample and malformed input must surface as the typed
/// error the build methods document.
fn partition_by_class(
    net: &Network,
    data: &[Vec<f64>],
    labels: Option<&[usize]>,
    num_classes: usize,
) -> Result<Vec<Vec<Vec<f64>>>, MonitorError> {
    let labels = match labels {
        Some(labels) => labels.to_vec(),
        None => data.iter().map(|x| net.predict_class(x)).collect(),
    };
    if labels.len() != data.len() {
        return Err(MonitorError::DimensionMismatch {
            context: "per-class labels".into(),
            expected: data.len(),
            actual: labels.len(),
        });
    }
    let mut classes = vec![Vec::new(); num_classes];
    for (v, &c) in data.iter().zip(&labels) {
        let class = classes.get_mut(c).ok_or_else(|| {
            MonitorError::InvalidConfig(format!("label {c} out of range 0..{num_classes}"))
        })?;
        class.push(v.clone());
    }
    match classes.iter().position(Vec::is_empty) {
        Some(c) => Err(MonitorError::InvalidConfig(format!(
            "class {c} has no training samples"
        ))),
        None => Ok(classes),
    }
}

/// Shared training-data checks: non-empty, every sample matching the
/// network input dimension and finite.
fn check_training_data(net: &Network, data: &[Vec<f64>]) -> Result<(), MonitorError> {
    if data.is_empty() {
        return Err(MonitorError::EmptyTrainingSet);
    }
    for (i, v) in data.iter().enumerate() {
        check_input(net, v, &format!("training sample {i}"))?;
    }
    Ok(())
}

/// One network input must have the input dimension and only finite
/// coordinates: a NaN or infinite coordinate would absorb nonsense (a
/// build silently loosened, a pattern nobody saw), so it is refused typed.
fn check_input(net: &Network, input: &[f64], context: &str) -> Result<(), MonitorError> {
    check_input_dim(net, input, context)?;
    match input.iter().position(|v| !v.is_finite()) {
        Some(j) => Err(MonitorError::NonFinite {
            context: format!("{context}, coordinate {j} ({})", input[j]),
        }),
        None => Ok(()),
    }
}

/// Resolves the external source backing one member, if the kind/provider
/// combination calls for one; rejects the combinations that cannot work.
fn member_source<P: SourceProvider + ?Sized>(
    kind: &MonitorKind,
    member: usize,
    dim: usize,
    provider: Option<&mut P>,
) -> Result<Option<SharedPatternSource>, MonitorError> {
    let Some(params) = kind.pattern_params() else {
        return match provider {
            Some(_) => Err(MonitorError::InvalidConfig(
                "min-max monitors have no pattern set to externalize; \
                 remove the source provider or change the kind"
                    .into(),
            )),
            None => Ok(None),
        };
    };
    match (params.backend, provider) {
        (Some(backend), Some(_)) if backend != PatternBackend::Store => {
            Err(MonitorError::InvalidConfig(format!(
                "sources were provided but the spec declares backend {backend:?}; \
                 declare PatternBackend::Store"
            )))
        }
        (_, Some(provider)) => provider.open_source(member, dim * params.bits).map(Some),
        (Some(PatternBackend::Store), None) => Err(MonitorError::InvalidConfig(
            "PatternBackend::Store needs a source provider; build with \
             MonitorSpec::build_with_sources (or mount_with_sources)"
                .into(),
        )),
        _ => Ok(None),
    }
}

/// Builds member `member` of `spec` over the boundary it watches: the
/// §III-A/B construction loop. `provider`, when given, supplies the
/// external source its pattern set is absorbed into.
fn build_member<P: SourceProvider + ?Sized>(
    net: &Network,
    spec: &MonitorSpec,
    watched: &WatchedLayer,
    data: &[Vec<f64>],
    member: usize,
    provider: Option<&mut P>,
) -> Result<AnyMonitor, MonitorError> {
    let kind = &spec.kind;
    let fx = FeatureExtractor::new(net, watched.layer)?;
    let fx = match &watched.neurons {
        None => fx,
        Some(neurons) => fx.with_neurons(neurons.clone())?,
    };
    let source = member_source(kind, member, fx.dim(), provider)?;
    let name = |i: usize| match spec.composition {
        Composition::PerClass { .. } => format!("training sample {i} of class {member}"),
        _ => format!("training sample {i}"),
    };
    let (features, bounds) = compute_samples(net, &fx, spec.robust, spec.parallel, data, &name)?;
    if let MonitorKind::MinMax { gamma } = *kind {
        let mut m = MinMaxMonitor::empty(fx);
        match &bounds {
            Some(bs) => bs.iter().for_each(|b| m.absorb_bounds(b)),
            None => features.iter().for_each(|f| m.absorb_point(f)),
        }
        if gamma > 0.0 {
            m.enlarge(gamma);
        }
        return Ok(AnyMonitor::MinMax(m));
    }
    let params = kind
        .pattern_params()
        .expect("every kind but min-max is a pattern kind");
    let lists = params.policy.resolve(fx.dim(), params.bits, &features)?;
    let mut m = match source {
        Some(source) => PatternMonitor::with_source(fx, params.bits, lists, source)?,
        None => {
            let backend = params.backend.unwrap_or(PatternBackend::Bdd);
            PatternMonitor::empty(fx, params.bits, lists, backend)?
        }
    };
    m.set_hamming_tolerance(params.hamming);
    match &bounds {
        Some(bs) => bs.iter().try_for_each(|b| m.absorb_bounds(b))?,
        None => features.iter().try_for_each(|f| m.absorb_point(f))?,
    }
    m.commit_source()?;
    Ok(AnyMonitor::Pattern(m))
}

/// Mounts one member over an already-populated external source (no
/// training data; see [`MonitorSpec::mount_with_sources`]).
fn mount_member(
    net: &Network,
    watched: &WatchedLayer,
    kind: &MonitorKind,
    member: usize,
    provider: &mut dyn SourceProvider,
) -> Result<AnyMonitor, MonitorError> {
    let Some(params) = kind.pattern_params() else {
        return Err(MonitorError::InvalidConfig(
            "min-max monitors keep their bounds in the artifact, not a pattern \
             store; load them through napmon-artifact instead of mounting"
                .into(),
        ));
    };
    if let Some(backend) = params.backend.filter(|b| *b != PatternBackend::Store) {
        return Err(MonitorError::InvalidConfig(format!(
            "mounting needs backend PatternBackend::Store, spec declares {backend:?}"
        )));
    }
    let fx = FeatureExtractor::new(net, watched.layer)?;
    let fx = match &watched.neurons {
        None => fx,
        Some(neurons) => fx.with_neurons(neurons.clone())?,
    };
    let policy = params.policy;
    let lists = policy
        .resolve(fx.dim(), params.bits, &[])
        .map_err(|e| match e {
            MonitorError::EmptyTrainingSet => MonitorError::InvalidConfig(format!(
                "{policy:?} thresholds need training data; warm starts require a \
             data-free policy (Sign or Explicit)"
            )),
            other => other,
        })?;
    let source = provider.open_source(member, fx.dim() * params.bits)?;
    let mut m = PatternMonitor::with_source(fx, params.bits, lists, source)?;
    m.set_hamming_tolerance(params.hamming);
    Ok(AnyMonitor::Pattern(m))
}

/// The construction loop's per-sample features and, when robust,
/// projected perturbation estimates.
type Samples = (Vec<Vec<f64>>, Option<Vec<BoxBounds>>);

/// Training samples per batch of the construction loop: one batch's
/// forward pass and perturbation estimates are held at full layer width.
const BUILD_BATCH: usize = 256;

/// Per-sample features and (when robust) perturbation estimates, both
/// projected to the monitored neurons, in sample order; `name(i)` names
/// sample `i` in an error. With `parallel` (and enough samples), each
/// core runs the batched path on its own slice of `data`, all over one
/// shared [`Propagator`]. Fails with [`MonitorError::NonFinite`] for the
/// first finite sample whose forward pass overflows.
fn compute_samples(
    net: &Network,
    fx: &FeatureExtractor,
    robust: Option<RobustConfig>,
    parallel: bool,
    data: &[Vec<f64>],
    name: &(dyn Fn(usize) -> String + Sync),
) -> Result<Samples, MonitorError> {
    let prop = robust.map(|r| Propagator::new(net, r.domain));
    let robust = robust.zip(prop.as_ref());
    let parts = if !parallel || data.len() < 64 {
        vec![sample_slice(net, fx, robust, data, name)]
    } else {
        let threads = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(4);
        let chunk_size = data.len().div_ceil(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = data
                .chunks(chunk_size)
                .enumerate()
                .map(|(t, chunk)| {
                    s.spawn(move || {
                        sample_slice(net, fx, robust, chunk, &|i| name(t * chunk_size + i))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    let (mut features, mut bounds) = (Vec::new(), Vec::new());
    for part in parts {
        let (f, b) = part?;
        features.extend(f);
        bounds.extend(b);
    }
    Ok((features, robust.map(|_| bounds)))
}

/// [`compute_samples`] on one slice of the training set, [`BUILD_BATCH`]
/// samples at a time: one batched forward pass for the features (which
/// refuses an overflow) and, when robust, one batched perturbation
/// estimate. `name(i)` names the slice's sample `i`.
fn sample_slice(
    net: &Network,
    fx: &FeatureExtractor,
    robust: Option<(RobustConfig, &Propagator<'_>)>,
    data: &[Vec<f64>],
    name: &dyn Fn(usize) -> String,
) -> Result<(Vec<Vec<f64>>, Vec<BoxBounds>), MonitorError> {
    let (mut features, mut bounds) = (Vec::with_capacity(data.len()), Vec::new());
    let (mut forward, mut flat) = (ForwardScratch::new(), Vec::new());
    for (b, batch) in data.chunks(BUILD_BATCH).enumerate() {
        let first = b * BUILD_BATCH;
        fx.features_batch_named(net, batch, &mut forward, &mut flat, |i| name(first + i))?;
        features.extend(rows(&flat, fx.dim(), batch.len()).map(<[f64]>::to_vec));
        if let Some((r, prop)) = robust {
            let pe = perturbation_estimates(prop, batch, r.kp, fx.layer(), r.delta, &mut forward)
                .expect("validated robust config");
            bounds.extend(pe.iter().map(|pe| fx.project_bounds(pe)));
        }
    }
    Ok((features, bounds))
}

/// A deployable monitor of any composition, as produced by
/// [`MonitorSpec::build`]: single-boundary, multi-layer voted, or
/// per-class dispatched. Serializable as a unit, so a whole deployment —
/// not just one member abstraction — round-trips through a
/// `napmon-artifact` file.
///
/// An input reaches every member, or under per-class composition the
/// predicted class's member; the multi-layer vote is taken once, in
/// [`Monitor::verdict_batch_scratch`], and a single composite query is a
/// one-row batch. A composite that cannot answer — a multi-layer member
/// list that is empty or cannot meet its vote, a per-class list without
/// the predicted class — refuses queries with
/// [`MonitorError::InvalidConfig`], never with an all-clear.
// One `ComposedMonitor` exists per deployment (not per request), so the
// size skew between a composite's `Vec` indirection and an inline
// single-boundary monitor is irrelevant; boxing would only add a pointer
// chase to the query hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ComposedMonitor {
    /// One monitor over one boundary.
    Single(AnyMonitor),
    /// One member per boundary, combined by a vote.
    MultiLayer {
        /// The member monitors, in the spec's boundary order.
        members: Vec<AnyMonitor>,
        /// The voting rule combining per-boundary verdicts.
        vote: Vote,
    },
    /// One member per output class, dispatched on the predicted class.
    PerClass {
        /// The member monitors, indexed by class.
        monitors: Vec<AnyMonitor>,
    },
}

impl ComposedMonitor {
    /// The single-boundary monitor, if that is what was built.
    pub fn as_single(&self) -> Option<&AnyMonitor> {
        match self {
            ComposedMonitor::Single(m) => Some(m),
            _ => None,
        }
    }

    /// The member monitors: one for `Single`, one per boundary for
    /// `MultiLayer`, one per class for `PerClass`.
    pub fn members(&self) -> &[AnyMonitor] {
        match self {
            ComposedMonitor::Single(m) => std::slice::from_ref(m),
            ComposedMonitor::MultiLayer { members, .. } => members,
            ComposedMonitor::PerClass { monitors } => monitors,
        }
    }

    /// Mutable access to the member monitors, in [`ComposedMonitor::members`]
    /// order.
    fn members_mut(&mut self) -> &mut [AnyMonitor] {
        match self {
            ComposedMonitor::Single(m) => std::slice::from_mut(m),
            ComposedMonitor::MultiLayer { members, .. } => members,
            ComposedMonitor::PerClass { monitors } => monitors,
        }
    }

    /// The composition this monitor has, in the spec's terms (a per-class
    /// monitor declares as many classes as it has members).
    pub fn composition(&self) -> Composition {
        match self {
            ComposedMonitor::Single(_) => Composition::Single,
            ComposedMonitor::MultiLayer { vote, .. } => Composition::MultiLayer { vote: *vote },
            ComposedMonitor::PerClass { monitors } => Composition::PerClass {
                num_classes: monitors.len(),
            },
        }
    }

    /// The members `input` reaches, as a range of
    /// [`ComposedMonitor::members`]: every member of a single or
    /// multi-layer monitor, the predicted class's member of a per-class
    /// one. The class prediction runs in `forward`.
    fn route(
        &self,
        net: &Network,
        input: &[f64],
        forward: &mut ForwardScratch,
    ) -> Result<Range<usize>, MonitorError> {
        let ComposedMonitor::PerClass { monitors } = self else {
            return Ok(0..self.members().len());
        };
        check_input_dim(net, input, "per-class query input")?;
        let out = net.forward_prefix_into(input, net.num_layers(), forward);
        let class = napmon_tensor::vector::argmax(out);
        if class >= monitors.len() {
            return Err(MonitorError::InvalidConfig(format!(
                "predicted class {class} has no monitor ({} classes)",
                monitors.len()
            )));
        }
        Ok(class..class + 1)
    }

    /// Per member (in [`ComposedMonitor::members`] order): the descriptor
    /// of its external pattern source, or `None` for in-memory members.
    /// This is how an artifact (and an operator) reads the store-backed
    /// composition off a deployed monitor.
    pub fn external_descriptors(&self) -> Vec<Option<SourceDescriptor>> {
        self.members()
            .iter()
            .map(|m| m.external_descriptor().cloned())
            .collect()
    }

    /// Whether any member is store-backed but detached (fresh from
    /// deserialization, awaiting
    /// [`ComposedMonitor::attach_external_sources`]).
    pub fn needs_sources(&self) -> bool {
        self.members().iter().any(AnyMonitor::needs_source)
    }

    /// Reattaches live sources to every store-backed member: `resolve` is
    /// called once per such member with its index (in
    /// [`ComposedMonitor::members`] order) and recorded descriptor, and
    /// must reopen the source it points to. Returns the number of members
    /// attached.
    ///
    /// # Errors
    ///
    /// Propagates `resolve` failures and word-width mismatches.
    pub fn attach_external_sources(
        &mut self,
        resolve: &mut dyn FnMut(
            usize,
            &SourceDescriptor,
        ) -> Result<SharedPatternSource, MonitorError>,
    ) -> Result<usize, MonitorError> {
        let mut attached = 0;
        for (i, member) in self.members_mut().iter_mut().enumerate() {
            if let Some(descriptor) = member.external_descriptor().cloned() {
                member.attach_source(resolve(i, &descriptor)?)?;
                attached += 1;
            }
        }
        Ok(attached)
    }

    /// Flushes every store-backed member's buffered writes (no-op for
    /// in-memory members) — the durability point after operation-time
    /// absorption.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if a store fails.
    pub fn commit_external_sources(&self) -> Result<(), MonitorError> {
        self.members()
            .iter()
            .try_for_each(AnyMonitor::commit_source)
    }

    /// Absorbs one operational input into the store-backed members it
    /// reaches through `&self` — the serving engine's enlargement path.
    /// Single and multi-layer compositions absorb into every member;
    /// per-class absorbs into the predicted class's member (the members a
    /// query of the same input consults). The new patterns are visible to
    /// every subsequent query on any clone of the monitor, with no
    /// rebuild.
    ///
    /// Returns the number of members that stored a *new* pattern.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::NonFinite`] for an input with a NaN or
    /// infinite coordinate (nothing is absorbed),
    /// [`MonitorError::ExternalSource`] if no touched member is
    /// store-backed (in-memory monitors need
    /// [`ComposedMonitor::absorb_mut`]), plus any extraction or store
    /// error.
    pub fn absorb_operation(&self, net: &Network, input: &[f64]) -> Result<usize, MonitorError> {
        check_input(net, input, "absorb input")?;
        let reached = self.route(net, input, &mut ForwardScratch::new())?;
        let mut fresh = 0;
        for member in &self.members()[reached] {
            fresh += usize::from(member.absorb_input_shared(net, input)?);
        }
        Ok(fresh)
    }

    /// Absorbs one operational input into the members it reaches through
    /// `&mut self`, for any backend: in-memory members fold the pattern
    /// into their BDD/hash set (and count it as a sample), store-backed
    /// members append to their source. The `&self` counterpart for serving
    /// is [`ComposedMonitor::absorb_operation`].
    ///
    /// # Errors
    ///
    /// [`MonitorError::NonFinite`] for an input with a NaN or infinite
    /// coordinate (nothing is absorbed), plus any extraction or store
    /// error.
    pub fn absorb_mut(&mut self, net: &Network, input: &[f64]) -> Result<(), MonitorError> {
        check_input(net, input, "absorb input")?;
        let reached = self.route(net, input, &mut ForwardScratch::new())?;
        self.members_mut()[reached]
            .iter_mut()
            .try_for_each(|member| member.absorb_input_mut(net, input))
    }
}

impl Monitor for ComposedMonitor {
    /// The *primary* extractor: the single member's, the first boundary's
    /// (multi-layer), or class 0's (per-class). Composite monitors watch
    /// more than this one extractor describes — use
    /// [`ComposedMonitor::members`] for the full picture.
    ///
    /// # Panics
    ///
    /// Panics for a composite with no members.
    fn extractor(&self) -> &FeatureExtractor {
        self.members()[0].extractor()
    }

    /// Feature-level verdict.
    ///
    /// # Panics
    ///
    /// Panics for composite (multi-layer / per-class) monitors: their
    /// decision needs the full network input, not one feature vector. Use
    /// [`Monitor::verdict_scratch`] (or any other input-level query), which
    /// works for every composition.
    fn verdict_features_scratch(&self, features: &[f64], scratch: &mut QueryScratch) -> Verdict {
        match self {
            ComposedMonitor::Single(m) => m.verdict_features_scratch(features, scratch),
            _ => panic!(
                "composite monitors have no single feature vector; \
                 query with verdict()/verdict_scratch() on the network input"
            ),
        }
    }

    fn verdict_scratch(
        &self,
        net: &Network,
        input: &[f64],
        scratch: &mut QueryScratch,
    ) -> Result<Verdict, MonitorError> {
        if let ComposedMonitor::Single(m) = self {
            return m.verdict_scratch(net, input, scratch);
        }
        let mut out = Vec::with_capacity(1);
        self.verdict_batch_scratch(net, &[input.to_vec()], scratch, &mut out)?;
        Ok(out.pop().expect("one verdict per input"))
    }

    /// The batch path of every composition: a single monitor runs its own
    /// (the bit-sliced kernel for hash-set members); every multi-layer
    /// member answers the whole batch on its own batch path, and row `i`
    /// warns when the vote over the members' row-`i` verdicts says so,
    /// with the warning members' evidence in member order; a per-class
    /// monitor routes each input to its predicted class's member.
    fn verdict_batch_scratch(
        &self,
        net: &Network,
        inputs: &[Vec<f64>],
        scratch: &mut QueryScratch,
        out: &mut Vec<Verdict>,
    ) -> Result<(), MonitorError> {
        match self {
            ComposedMonitor::Single(m) => m.verdict_batch_scratch(net, inputs, scratch, out),
            ComposedMonitor::MultiLayer { members, vote } => {
                out.clear();
                vote.check(members.len())?;
                let mut rows = vec![(0, Vec::new()); inputs.len()];
                let mut answers = Vec::with_capacity(inputs.len());
                for member in members {
                    member.verdict_batch_scratch(net, inputs, scratch, &mut answers)?;
                    for ((warnings, evidence), answer) in rows.iter_mut().zip(answers.drain(..)) {
                        if answer.warning {
                            *warnings += 1;
                            evidence.extend(answer.violations);
                        }
                    }
                }
                out.extend(rows.into_iter().map(|(warnings, evidence)| {
                    if vote.decide(warnings, members.len()) {
                        Verdict::warn(evidence)
                    } else {
                        Verdict::ok()
                    }
                }));
                Ok(())
            }
            ComposedMonitor::PerClass { monitors } => {
                out.clear();
                let routed = inputs.iter().try_for_each(|input| {
                    let class = self.route(net, input, &mut scratch.forward)?.start;
                    out.push(monitors[class].verdict_scratch(net, input, scratch)?);
                    Ok(())
                });
                if routed.is_err() {
                    out.clear();
                }
                routed
            }
        }
    }
}

impl std::fmt::Display for ComposedMonitor {
    /// A one-line composition card wrapping the member cards.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposedMonitor::Single(m) => write!(f, "{m}"),
            ComposedMonitor::MultiLayer { members, vote } => write!(
                f,
                "multi-layer monitor ({} members, vote {vote:?})",
                members.len()
            ),
            ComposedMonitor::PerClass { monitors } => {
                write!(f, "per-class monitor ({} classes)", monitors.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBackend;
    use napmon_nn::{Activation, LayerSpec};
    use napmon_tensor::Prng;

    fn net() -> Network {
        Network::seeded(
            23,
            3,
            &[
                LayerSpec::dense(8, Activation::Relu),
                LayerSpec::dense(4, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        )
    }

    fn train_data(n: usize) -> Vec<Vec<f64>> {
        let mut rng = Prng::seed(99);
        (0..n).map(|_| rng.uniform_vec(3, -0.5, 0.5)).collect()
    }

    #[test]
    fn spec_serde_round_trip_preserves_build() {
        let net = net();
        let data = train_data(32);
        let spec = MonitorSpec::new(4, MonitorKind::interval(2))
            .robust(0.03, 0, Domain::Box)
            .with_neurons(vec![0, 2]);
        let json = serde_json::to_string(&spec).unwrap();
        let back: MonitorSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        let a = spec.build(&net, &data).unwrap();
        let b = back.build(&net, &data).unwrap();
        let mut rng = Prng::seed(6);
        for _ in 0..32 {
            let probe = rng.uniform_vec(3, -2.0, 2.0);
            assert_eq!(
                a.verdict(&net, &probe).unwrap(),
                b.verdict(&net, &probe).unwrap()
            );
        }
    }

    #[test]
    fn validate_rejects_malformed_specs() {
        // Unknown version.
        let mut spec = MonitorSpec::new(2, MonitorKind::pattern());
        spec.version = 99;
        assert!(spec.validate().is_err());
        // No layers.
        let mut spec = MonitorSpec::new(2, MonitorKind::pattern());
        spec.layers.clear();
        assert!(spec.validate().is_err());
        // Boundary 0.
        assert!(MonitorSpec::new(0, MonitorKind::pattern())
            .validate()
            .is_err());
        // Empty neuron subset.
        assert!(MonitorSpec::new(2, MonitorKind::pattern())
            .with_neurons(vec![])
            .validate()
            .is_err());
        // Interval bits out of range.
        assert!(MonitorSpec::new(2, MonitorKind::interval(0))
            .validate()
            .is_err());
        assert!(MonitorSpec::new(2, MonitorKind::interval(9))
            .validate()
            .is_err());
        // Explicit thresholds disagreeing with bits.
        let bad = MonitorKind::interval_with(
            2,
            ThresholdPolicy::Explicit(vec![vec![0.0]]), // needs 3 per neuron
        );
        assert!(MonitorSpec::new(2, bad).validate().is_err());
        // Sign policy on a multi-bit monitor.
        let bad = MonitorKind::interval_with(2, ThresholdPolicy::Sign);
        assert!(MonitorSpec::new(2, bad).validate().is_err());
        // Negative / non-finite delta.
        assert!(MonitorSpec::new(2, MonitorKind::pattern())
            .robust(-0.1, 0, Domain::Box)
            .validate()
            .is_err());
        assert!(MonitorSpec::new(2, MonitorKind::pattern())
            .robust(f64::NAN, 0, Domain::Box)
            .validate()
            .is_err());
        // kp not below the watched layer.
        assert!(MonitorSpec::new(2, MonitorKind::pattern())
            .robust(0.1, 2, Domain::Box)
            .validate()
            .is_err());
        // Vote arity.
        let spec = MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::min_max(),
            Vote::AtLeast(3),
        );
        assert!(spec.validate().is_err());
        // Per-class with zero classes.
        assert!(MonitorSpec::new(2, MonitorKind::pattern())
            .per_class(0)
            .validate()
            .is_err());
        // Negative gamma.
        assert!(MonitorSpec::new(2, MonitorKind::min_max_enlarged(-1.0))
            .validate()
            .is_err());
        // The good spec still validates.
        assert!(MonitorSpec::new(2, MonitorKind::pattern())
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_for_checks_network_dimensions() {
        let net = net();
        // Boundary out of range (network has 5 layers incl. activations).
        let spec = MonitorSpec::new(99, MonitorKind::pattern());
        assert!(spec.validate_for(&net).is_err());
        // Neuron index out of range for the boundary width.
        let spec = MonitorSpec::new(4, MonitorKind::pattern()).with_neurons(vec![99]);
        assert!(spec.validate_for(&net).is_err());
        // Explicit threshold count vs monitored dimension.
        let spec = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(
                ThresholdPolicy::Explicit(vec![vec![0.0]]),
                PatternBackend::Bdd,
                0,
            ),
        );
        assert!(spec.validate_for(&net).is_err());
        // A good spec passes.
        assert!(MonitorSpec::new(4, MonitorKind::pattern())
            .validate_for(&net)
            .is_ok());
    }

    #[test]
    fn deserialized_malformed_spec_fails_with_typed_error_not_panic() {
        let json = r#"{
            "version": 1,
            "layers": [{"layer": 2, "neurons": null}],
            "kind": {"IntervalPattern": {"bits": 3, "policy": {"Explicit": [[0.0, 1.0]]}}},
            "robust": null,
            "composition": "Single",
            "parallel": false
        }"#;
        let spec: MonitorSpec = serde_json::from_str(json).unwrap();
        let net = net();
        let err = spec.build(&net, &train_data(8)).unwrap_err();
        assert!(matches!(err, MonitorError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn multi_layer_spec_builds_voted_monitor() {
        let net = net();
        let data = train_data(40);
        let spec = MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::min_max(),
            Vote::Any,
        );
        let m = spec.build(&net, &data).unwrap();
        assert_eq!(m.composition(), spec.composition);
        assert_eq!(m.members().len(), 2);
        for x in &data {
            assert!(!m.warns(&net, x).unwrap());
        }
        assert!(m.warns(&net, &[100.0, -100.0, 100.0]).unwrap());
    }

    #[test]
    fn per_class_build_returns_typed_error_on_malformed_samples() {
        let net = net(); // 3-dimensional input
        let spec = MonitorSpec::new(4, MonitorKind::pattern()).per_class(2);
        // Wrong-dimension sample must be the documented typed error, not a
        // panic inside predict_class.
        let err = spec.build(&net, &[vec![0.0; 5]]).unwrap_err();
        assert!(
            matches!(err, MonitorError::DimensionMismatch { .. }),
            "{err}"
        );
        assert!(matches!(
            spec.build(&net, &[]),
            Err(MonitorError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn per_class_spec_builds_with_predicted_labels() {
        let net = net();
        let data = train_data(60);
        let spec = MonitorSpec::new(4, MonitorKind::pattern()).per_class(2);
        let m = spec.build(&net, &data).unwrap();
        assert_eq!(m.composition(), Composition::PerClass { num_classes: 2 });
        for x in &data {
            assert!(!m.warns(&net, x).unwrap());
        }
    }

    #[test]
    fn composed_monitor_batch_matches_sequential() {
        let net = net();
        let data = train_data(40);
        let spec = MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::pattern(),
            Vote::Any,
        );
        let m = spec.build(&net, &data).unwrap();
        let mut rng = Prng::seed(17);
        let probes: Vec<Vec<f64>> = (0..50).map(|_| rng.uniform_vec(3, -2.0, 2.0)).collect();
        let batch = m.query_batch(&net, &probes).unwrap();
        for (p, v) in probes.iter().zip(&batch) {
            assert_eq!(m.verdict(&net, p).unwrap(), *v);
        }
    }

    #[test]
    #[should_panic(expected = "no single feature vector")]
    fn composite_feature_level_query_panics_with_guidance() {
        let net = net();
        let data = train_data(16);
        let spec = MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::min_max(),
            Vote::Any,
        );
        let m = spec.build(&net, &data).unwrap();
        m.verdict_features_scratch(&[0.0; 8], &mut QueryScratch::new());
    }

    fn memory_provider() -> impl SourceProvider {
        |_member: usize, word_bits: usize| {
            Ok(crate::source::shared_source(
                crate::source::MemoryPatternSource::new(word_bits),
            ))
        }
    }

    #[test]
    fn store_backed_builds_match_in_memory_bit_for_bit() {
        let net = net();
        let data = train_data(48);
        let probes: Vec<Vec<f64>> = {
            let mut rng = Prng::seed(41);
            (0..64).map(|_| rng.uniform_vec(3, -2.0, 2.0)).collect()
        };
        for robust in [false, true] {
            for (in_mem_kind, stored_kind) in [
                (
                    MonitorKind::pattern(),
                    MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
                ),
                (MonitorKind::interval(2), MonitorKind::interval(2)),
            ] {
                let mut reference = MonitorSpec::new(4, in_mem_kind);
                let mut stored = MonitorSpec::new(4, stored_kind);
                if robust {
                    reference = reference.robust(0.02, 0, Domain::Box);
                    stored = stored.robust(0.02, 0, Domain::Box);
                }
                let a = reference.build(&net, &data).unwrap();
                let b = stored
                    .build_with_sources(&net, &data, &mut memory_provider())
                    .unwrap();
                assert_eq!(
                    a.query_batch(&net, &probes).unwrap(),
                    b.query_batch(&net, &probes).unwrap(),
                    "robust={robust}"
                );
            }
        }
    }

    #[test]
    fn store_backed_multi_layer_and_per_class_compose() {
        let net = net();
        let data = train_data(60);
        let multi = MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::interval(2),
            Vote::Any,
        )
        .build_with_sources(&net, &data, &mut memory_provider())
        .unwrap();
        assert_eq!(
            multi.external_descriptors().iter().flatten().count(),
            2,
            "both members are store-backed"
        );
        let per_class = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
        )
        .per_class(2)
        .build_with_sources(&net, &data, &mut memory_provider())
        .unwrap();
        assert_eq!(per_class.external_descriptors().iter().flatten().count(), 2);
        for x in &data {
            assert!(!multi.warns(&net, x).unwrap());
            assert!(!per_class.warns(&net, x).unwrap());
        }
    }

    #[test]
    fn source_kind_mismatches_are_typed() {
        let net = net();
        let data = train_data(16);
        // Store backend without sources.
        let spec = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
        );
        assert!(matches!(
            spec.build(&net, &data).unwrap_err(),
            MonitorError::InvalidConfig(_)
        ));
        // Sources with a non-store pattern backend.
        let spec = MonitorSpec::new(4, MonitorKind::pattern());
        assert!(spec
            .build_with_sources(&net, &data, &mut memory_provider())
            .is_err());
        // Sources with min-max.
        let spec = MonitorSpec::new(4, MonitorKind::min_max());
        assert!(spec
            .build_with_sources(&net, &data, &mut memory_provider())
            .is_err());
    }

    #[test]
    fn mount_requires_data_free_policies() {
        let net = net();
        // Quantile thresholds need data: mount must refuse.
        let spec = MonitorSpec::new(4, MonitorKind::interval(2));
        let err = spec
            .mount_with_sources(&net, &mut memory_provider())
            .unwrap_err();
        assert!(matches!(err, MonitorError::InvalidConfig(_)), "{err}");
        // Sign thresholds mount fine (empty set: everything warns).
        let spec = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
        );
        let m = spec
            .mount_with_sources(&net, &mut memory_provider())
            .unwrap();
        assert!(m.warns(&net, &[0.1, 0.2, 0.3]).unwrap());
        // Min-max cannot mount.
        let spec = MonitorSpec::new(4, MonitorKind::min_max());
        assert!(spec
            .mount_with_sources(&net, &mut memory_provider())
            .is_err());
    }

    #[test]
    fn operation_time_absorption_enlarges_the_monitor() {
        let net = net();
        let data = train_data(32);
        let spec = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
        );
        let m = spec
            .build_with_sources(&net, &data, &mut memory_provider())
            .unwrap();
        // Find an input the monitor warns on.
        let mut rng = Prng::seed(77);
        let novel = loop {
            let probe = rng.uniform_vec(3, -3.0, 3.0);
            if m.warns(&net, &probe).unwrap() {
                break probe;
            }
        };
        // Shared absorption (through &self, as the serving engine does)
        // makes it a member without a rebuild.
        assert_eq!(m.absorb_operation(&net, &novel).unwrap(), 1);
        assert!(!m.warns(&net, &novel).unwrap());
        assert_eq!(m.absorb_operation(&net, &novel).unwrap(), 0, "dedup");
        m.commit_external_sources().unwrap();
        // In-memory monitors take the &mut path instead.
        let mut in_mem = MonitorSpec::new(4, MonitorKind::pattern())
            .build(&net, &data)
            .unwrap();
        assert!(in_mem.absorb_operation(&net, &novel).is_err());
        in_mem.absorb_mut(&net, &novel).unwrap();
        assert!(!in_mem.warns(&net, &novel).unwrap());
    }

    #[test]
    fn non_finite_training_and_absorb_inputs_are_refused_typed() {
        let net = net();
        let clean = train_data(32);
        let refused = |built: Result<ComposedMonitor, MonitorError>, label: &str| match built {
            Err(MonitorError::NonFinite { context }) => {
                assert!(
                    context.contains("training sample 5, coordinate 1"),
                    "{label}: {context}"
                )
            }
            other => panic!("{label}: expected NonFinite, got {other:?}"),
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = clean.clone();
            data[5][1] = bad;
            let labels = vec![0; data.len()];
            for kind in [
                MonitorKind::min_max(),
                MonitorKind::pattern(),
                MonitorKind::interval(2),
            ] {
                for robust in [false, true] {
                    for per_class in [false, true] {
                        let mut spec = MonitorSpec::new(4, kind.clone());
                        if robust {
                            spec = spec.robust(0.02, 0, Domain::Box);
                        }
                        if per_class {
                            spec = spec.per_class(1);
                        }
                        let label = format!("{kind:?} robust={robust} per_class={per_class}");
                        refused(spec.build(&net, &data), &label);
                        refused(spec.build_with_labels(&net, &data, &labels), &label);
                    }
                }
            }
            let stored = MonitorSpec::new(
                4,
                MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
            );
            let built = stored.build_with_sources(&net, &data, &mut memory_provider());
            refused(built, "store-backed");
        }

        // Absorption refuses the input and absorbs nothing, in memory and
        // through a store.
        let counts = |m: &ComposedMonitor| {
            let member = m.as_single().unwrap();
            (member.samples(), member.pattern_count())
        };
        let input = vec![0.1, f64::NAN, 0.2];
        for kind in [MonitorKind::min_max(), MonitorKind::pattern()] {
            let mut in_memory = MonitorSpec::new(4, kind).build(&net, &clean).unwrap();
            let before = (
                counts(&in_memory),
                in_memory.query_batch(&net, &clean).unwrap(),
            );
            let err = in_memory.absorb_mut(&net, &input).unwrap_err();
            assert!(matches!(err, MonitorError::NonFinite { .. }), "{err}");
            let after = (
                counts(&in_memory),
                in_memory.query_batch(&net, &clean).unwrap(),
            );
            assert_eq!(before, after);
        }
        let stored = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
        )
        .build_with_sources(&net, &clean, &mut memory_provider())
        .unwrap();
        let before = counts(&stored);
        for input in [
            vec![f64::INFINITY, 0.0, 0.0],
            vec![0.0, 0.0, f64::NEG_INFINITY],
        ] {
            let err = stored.absorb_operation(&net, &input).unwrap_err();
            assert!(matches!(err, MonitorError::NonFinite { .. }), "{err}");
        }
        assert_eq!(counts(&stored), before);
    }

    /// A finite training sample whose forward pass overflows is refused,
    /// naming the sample and the boundary, for every kind, standard and
    /// robust, single and per-class, serial and parallel. On net A, ReLU
    /// maps the NaN of `inf - inf` to 0.0, so the feature looks ordinary;
    /// on net B, the feature is `+inf`, which would loosen a min-max
    /// monitor or break a pattern monitor's thresholds.
    #[test]
    fn overflowing_training_samples_are_refused_typed() {
        use napmon_nn::{Activation, Dense, Layer};
        use napmon_tensor::Matrix;
        let dense = |rows: &[&[f64]]| {
            let bias = vec![0.0; rows.len()];
            Layer::Dense(Dense::new(Matrix::from_rows(rows), bias).unwrap())
        };
        let relu = Layer::Activation(Activation::Relu);
        let a = vec![
            dense(&[&[1.0, 1.0], &[1.0, 1.0]]),
            relu.clone(),
            dense(&[&[1.0, -1.0]]),
            relu.clone(),
        ];
        let b = vec![
            dense(&[&[1.0, 1.0], &[1.0, -1.0]]),
            relu,
            dense(&[&[1.0, 1.0]]),
        ];
        let data: Vec<Vec<f64>> = (0..70)
            .map(|i| match i {
                50 => vec![f64::MAX, f64::MAX],
                _ => vec![0.25 * (i % 3) as f64, 0.5],
            })
            .collect();
        for (layers, watched) in [(a, 4), (b, 2)] {
            let net = Network::from_layers(2, layers).unwrap();
            for kind in [
                MonitorKind::min_max(),
                MonitorKind::pattern(),
                MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::HashSet, 0),
                MonitorKind::interval(2),
            ] {
                for (robust, per_class, parallel) in
                    (0..8).map(|m| (m & 1 > 0, m & 2 > 0, m & 4 > 0))
                {
                    let mut spec = MonitorSpec::new(watched, kind.clone()).parallel(parallel);
                    if robust {
                        spec = spec.robust(0.01, 0, Domain::Box);
                    }
                    if per_class {
                        spec = spec.per_class(1);
                    }
                    let label = format!(
                        "boundary {watched}, {kind:?}, robust={robust}, \
                         per_class={per_class}, parallel={parallel}"
                    );
                    match spec.build(&net, &data) {
                        Err(MonitorError::NonFinite { context }) => assert!(
                            context
                                .contains("boundary 1 of the forward pass of training sample 50"),
                            "{label}: {context}"
                        ),
                        other => panic!("{label}: expected NonFinite, got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn display_names_the_composition() {
        let net = net();
        let data = train_data(24);
        let single = MonitorSpec::new(4, MonitorKind::min_max())
            .build(&net, &data)
            .unwrap();
        assert!(single.to_string().contains("min-max"));
        let multi = MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::min_max(),
            Vote::All,
        )
        .build(&net, &data)
        .unwrap();
        assert!(multi.to_string().contains("multi-layer"));
        let pc = MonitorSpec::new(4, MonitorKind::min_max())
            .per_class(2)
            .build(&net, &data)
            .unwrap();
        assert!(pc.to_string().contains("per-class"));
    }

    /// Composite monitors written by the two wrapper types the composite
    /// variants replaced (a min-max and a hash-set pattern member under
    /// `AtLeast(1)`, and a per-class pair of hash-set pattern members),
    /// with their answers to 24 probes: one character per probe, `.` for an
    /// all-clear and the violation count for a warning.
    const MULTI_LAYER: &str = r#"{"MultiLayer":{"members":[{"MinMax":{"extractor":{"layer":2,"layer_dim":3,"neurons":null},"hi":[0.41896203190111125,0.7403137984347928,2.077713182141434],"lo":[0.0,0.0,0.0],"samples":12}},{"Pattern":{"extractor":{"layer":3,"layer_dim":2,"neurons":null},"hamming_tolerance":0,"samples":12,"store":{"Hash":[[false,false],[true,true]]},"thresholds":[0.0,0.0]}}],"vote":{"AtLeast":1}}}"#;
    const MULTI_LAYER_ANSWERS: &str = ".1.2..2212.1.112..222112";
    const PER_CLASS: &str = r#"{"PerClass":{"monitors":[{"Pattern":{"extractor":{"layer":2,"layer_dim":3,"neurons":null},"hamming_tolerance":0,"samples":5,"store":{"Hash":[[false,false,false],[true,false,true]]},"thresholds":[0.0,0.0,0.0]}},{"Pattern":{"extractor":{"layer":2,"layer_dim":3,"neurons":null},"hamming_tolerance":0,"samples":7,"store":{"Hash":[[false,true,false]]},"thresholds":[0.0,0.0,0.0]}}]}}"#;
    const PER_CLASS_ANSWERS: &str = "..11.1.1...1..........1.";

    #[test]
    fn committed_composite_layouts_parse_answer_and_write_back() {
        let net = Network::seeded(
            30,
            2,
            &[
                LayerSpec::dense(3, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        let mut rng = Prng::seed(33);
        let probes: Vec<Vec<f64>> = (0..24).map(|_| rng.uniform_vec(2, -3.0, 3.0)).collect();
        for (json, answers) in [
            (MULTI_LAYER, MULTI_LAYER_ANSWERS),
            (PER_CLASS, PER_CLASS_ANSWERS),
        ] {
            let monitor: ComposedMonitor = serde_json::from_str(json).unwrap();
            assert_eq!(serde_json::to_string(&monitor).unwrap(), json);
            let batch = monitor.query_batch(&net, &probes).unwrap();
            let got: String = batch
                .iter()
                .map(|v| match v.violations.len() {
                    _ if !v.warning => '.',
                    n => char::from_digit(n as u32, 10).unwrap(),
                })
                .collect();
            assert_eq!(got, answers, "{json}");
            for (probe, v) in probes.iter().zip(&batch) {
                assert_eq!(monitor.verdict(&net, probe).unwrap(), *v);
            }
        }
    }
}
