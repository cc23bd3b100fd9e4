//! Versioned monitor artifacts: build once, save, load, serve anywhere.
//!
//! The paper's monitors exist to run *in operation time* next to a
//! deployed network — but an abstraction that lives only in the process
//! that built it cannot be deployed. A [`MonitorArtifact`] is the missing
//! unit of deployment: one versioned, self-contained file carrying
//!
//! 1. the [`MonitorSpec`] that describes the build (reviewable, diffable),
//! 2. the exact [`Network`] the monitor was built against,
//! 3. the built [`ComposedMonitor`] itself (BDD arenas and all), and
//! 4. [`BuildStats`] — training-set size, layer widths, pattern counts —
//!    so an operator can sanity-check what they are about to mount.
//!
//! The flow is build → [`MonitorArtifact::save_json`] → ship → load in a
//! fresh process ([`MonitorArtifact::load_json`]) → mount on the serving
//! engine (`MonitorEngine::from_artifact` in `napmon-serve`). Loading
//! re-validates everything — format version, spec invariants, and the
//! dimensional agreement between spec, network, and monitor — and fails
//! with a typed [`ArtifactError`] rather than panicking on a malformed or
//! foreign file. Verdicts after a round trip are bit-identical to the
//! in-memory original (pinned by this crate's differential tests).
//!
//! # Format guarantees
//!
//! - [`FORMAT_VERSION`] is bumped on any incompatible schema change; a
//!   reader rejects files from other versions with
//!   [`ArtifactError::UnsupportedVersion`] instead of misreading them.
//! - Within a version, `save_json` → `load_json` is lossless: the loaded
//!   monitor answers every `query_batch` bit-identically to the saved one.
//!
//! # Example
//!
//! ```
//! use napmon_artifact::MonitorArtifact;
//! use napmon_core::{Monitor, MonitorKind, MonitorSpec};
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
//! let spec = MonitorSpec::new(2, MonitorKind::pattern());
//! let artifact = MonitorArtifact::build(spec, &net, &train)?;
//! let json = artifact.to_json_string()?;
//!
//! // ... ship the file; in a fresh process:
//! let loaded = MonitorArtifact::from_json_str(&json)?;
//! assert!(!loaded.monitor().warns(loaded.network(), &train[0])?);
//! # Ok(())
//! # }
//! ```

pub mod error;

pub use error::ArtifactError;

use napmon_core::{
    AnyMonitor, ComposedMonitor, Composition, Monitor, MonitorKind, MonitorSpec, PatternBackend,
};
use napmon_nn::Network;
use serde::{Deserialize, Serialize, Value};
use std::path::Path;

/// The artifact schema version this crate reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Provenance figures recorded at build time: what the monitor was built
/// from, and how big the result is. Checked against the embedded network
/// on load, and displayed to operators before mounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildStats {
    /// Number of training samples the construction loop absorbed.
    pub train_size: usize,
    /// Width of every network boundary (`dims()[k]` = width at boundary
    /// `k`); must match the embedded network on load.
    pub layer_widths: Vec<usize>,
    /// Monitored feature dimension of each member monitor.
    pub monitored_dims: Vec<usize>,
    /// Samples absorbed by each member monitor.
    pub member_samples: Vec<usize>,
    /// Distinct patterns admitted by each member monitor. `None` for the
    /// min-max family (no pattern count) and for store-backed members:
    /// their live count moves with operation-time absorption, so a figure
    /// frozen at build time would go stale — scrape the store itself
    /// instead.
    pub pattern_counts: Vec<Option<f64>>,
}

impl BuildStats {
    /// Computes the stats of a built monitor.
    fn collect(net: &Network, monitor: &ComposedMonitor, train_size: usize) -> Self {
        let members = monitor.members();
        Self {
            train_size,
            layer_widths: net.dims(),
            monitored_dims: members.iter().map(|m| m.extractor().dim()).collect(),
            member_samples: members.iter().map(|m| m.samples()).collect(),
            pattern_counts: members
                .iter()
                .map(|m| {
                    if m.external_descriptor().is_some() {
                        None
                    } else {
                        m.pattern_count()
                    }
                })
                .collect(),
        }
    }
}

/// A versioned, self-contained monitor deployment: spec + network +
/// built monitor + build stats. See the [module docs](self).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitorArtifact {
    /// Artifact schema version ([`FORMAT_VERSION`]).
    pub format_version: u32,
    /// The declarative build description.
    pub spec: MonitorSpec,
    /// The network the monitor was built against (and must run next to).
    pub network: Network,
    /// The built monitor.
    pub monitor: ComposedMonitor,
    /// Build provenance.
    pub stats: BuildStats,
}

impl MonitorArtifact {
    /// Builds the spec against `net` and `train` and packages the result.
    ///
    /// Per-class specs are trained against the network's predicted labels
    /// (see [`MonitorSpec::build`]); use
    /// [`MonitorArtifact::build_with_labels`] for ground-truth labels.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Monitor`] for any spec or training-data
    /// problem.
    pub fn build(
        spec: MonitorSpec,
        net: &Network,
        train: &[Vec<f64>],
    ) -> Result<Self, ArtifactError> {
        let monitor = spec.build(net, train)?;
        Ok(Self::assemble(spec, net.clone(), monitor, train.len()))
    }

    /// Like [`MonitorArtifact::build`] with explicit per-sample class
    /// labels for per-class composition.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MonitorArtifact::build`].
    pub fn build_with_labels(
        spec: MonitorSpec,
        net: &Network,
        train: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<Self, ArtifactError> {
        let monitor = spec.build_with_labels(net, train, labels)?;
        Ok(Self::assemble(spec, net.clone(), monitor, train.len()))
    }

    /// Builds a *store-backed* artifact: the pattern sets are absorbed
    /// into external sources from `provider` (see
    /// [`MonitorSpec::build_with_sources`]), and the artifact records only
    /// the source descriptors — the file stays small no matter how many
    /// patterns the store holds, and loading it reattaches to the same
    /// store (with dimension cross-checks).
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Monitor`] for any spec, training-data, or
    /// source problem.
    pub fn build_with_sources(
        spec: MonitorSpec,
        net: &Network,
        train: &[Vec<f64>],
        provider: &mut dyn napmon_core::SourceProvider,
    ) -> Result<Self, ArtifactError> {
        let monitor = spec.build_with_sources(net, train, provider)?;
        Ok(Self::assemble(spec, net.clone(), monitor, train.len()))
    }

    /// Packages an already-built monitor with its spec and network,
    /// validating that the parts agree.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Monitor`] or [`ArtifactError::Mismatch`]
    /// if the parts are inconsistent.
    pub fn from_parts(
        spec: MonitorSpec,
        network: Network,
        monitor: ComposedMonitor,
        train_size: usize,
    ) -> Result<Self, ArtifactError> {
        let artifact = Self::assemble(spec, network, monitor, train_size);
        artifact.validate()?;
        Ok(artifact)
    }

    fn assemble(
        spec: MonitorSpec,
        network: Network,
        monitor: ComposedMonitor,
        train_size: usize,
    ) -> Self {
        let stats = BuildStats::collect(&network, &monitor, train_size);
        Self {
            format_version: FORMAT_VERSION,
            spec,
            network,
            monitor,
            stats,
        }
    }

    /// The declarative build description.
    pub fn spec(&self) -> &MonitorSpec {
        &self.spec
    }

    /// The embedded network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The built monitor.
    pub fn monitor(&self) -> &ComposedMonitor {
        &self.monitor
    }

    /// Build provenance.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Decomposes the artifact into the network and monitor — the two
    /// parts a serving engine mounts.
    pub fn into_parts(self) -> (Network, ComposedMonitor) {
        (self.network, self.monitor)
    }

    /// Full consistency check: spec invariants against the embedded
    /// network, plus dimensional agreement between spec, network, monitor,
    /// and stats. Called automatically on every load.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::UnsupportedVersion`] for a foreign format
    /// version, [`ArtifactError::Monitor`] for spec violations, and
    /// [`ArtifactError::Mismatch`] when the parts disagree.
    pub fn validate(&self) -> Result<(), ArtifactError> {
        if self.format_version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: self.format_version,
                supported: FORMAT_VERSION,
            });
        }
        self.spec.validate_for(&self.network)?;
        self.validate_composition()?;
        self.validate_members()?;
        // Stats are pure provenance derived from network + monitor, so the
        // strongest check is simply recomputing them: any tampered width,
        // sample count, or pattern count fails equality.
        let expected = BuildStats::collect(&self.network, &self.monitor, self.stats.train_size);
        if self.stats != expected {
            return Err(ArtifactError::Mismatch(format!(
                "stats disagree with the embedded network and monitor: \
                 recorded {:?}, recomputed {expected:?}",
                self.stats
            )));
        }
        Ok(())
    }

    /// The monitor's composition must be the one the spec declares.
    fn validate_composition(&self) -> Result<(), ArtifactError> {
        match (&self.spec.composition, &self.monitor) {
            (Composition::Single, ComposedMonitor::Single(_)) => Ok(()),
            (Composition::MultiLayer { vote }, ComposedMonitor::MultiLayer(m)) => {
                if m.num_members() != self.spec.layers.len() {
                    return Err(ArtifactError::Mismatch(format!(
                        "spec watches {} boundaries but the monitor has {} members",
                        self.spec.layers.len(),
                        m.num_members()
                    )));
                }
                if m.vote() != *vote {
                    return Err(ArtifactError::Mismatch(format!(
                        "the monitor votes {:?} but the spec says {vote:?}",
                        m.vote()
                    )));
                }
                Ok(())
            }
            (Composition::PerClass { num_classes }, ComposedMonitor::PerClass(m)) => {
                if m.num_classes() != *num_classes {
                    return Err(ArtifactError::Mismatch(format!(
                        "spec declares {num_classes} classes but the monitor has {}",
                        m.num_classes()
                    )));
                }
                Ok(())
            }
            (composition, monitor) => Err(ArtifactError::Mismatch(format!(
                "spec composition {composition:?} does not match the built monitor ({monitor})"
            ))),
        }
    }

    /// Every member monitor must watch a boundary the embedded network
    /// actually has, at the width the network actually produces, with the
    /// family and parameters the spec declares.
    fn validate_members(&self) -> Result<(), ArtifactError> {
        let members = self.monitor.members();
        for (i, member) in members.iter().enumerate() {
            // Single/per-class members all watch layers[0]; multi-layer
            // member i watches layers[i].
            let watched = match self.spec.composition {
                Composition::MultiLayer { .. } => &self.spec.layers[i],
                _ => &self.spec.layers[0],
            };
            let fx = member.extractor();
            if fx.layer() != watched.layer {
                return Err(ArtifactError::Mismatch(format!(
                    "member {i} watches boundary {} but the spec says {}",
                    fx.layer(),
                    watched.layer
                )));
            }
            let width = self.network.dim_at(watched.layer);
            if fx.layer_dim() != width {
                return Err(ArtifactError::Mismatch(format!(
                    "member {i} was built for boundary width {} but the network's \
                     boundary {} is {width} wide",
                    fx.layer_dim(),
                    watched.layer
                )));
            }
            check_member_parameters(i, &self.spec.kind, member)?;
            // External sources must be dimensioned for exactly this
            // member's packed word width — a store swapped in from a
            // different monitor fails here instead of answering nonsense.
            if let (AnyMonitor::Pattern(m), Some(descriptor)) =
                (member, member.external_descriptor())
            {
                let word_bits = m.extractor().dim() * m.bits();
                if descriptor.word_bits != word_bits {
                    return Err(ArtifactError::Mismatch(format!(
                        "member {i} needs {word_bits}-bit pattern words but its external \
                         source `{}` holds {}-bit words",
                        descriptor.path, descriptor.word_bits
                    )));
                }
            }
        }
        Ok(())
    }

    /// Reopens and reattaches the external pattern store behind every
    /// store-backed member, cross-checking word widths. Called
    /// automatically by [`MonitorArtifact::from_json_str`] /
    /// [`MonitorArtifact::load_json`]; useful directly only for monitors
    /// deserialized by hand. Returns the number of members reattached.
    ///
    /// Store paths are reopened exactly as recorded (relative paths
    /// resolve against the current working directory).
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Store`] if a store cannot be reopened,
    /// and [`ArtifactError::Monitor`] for non-persistent source kinds or
    /// width mismatches.
    pub fn reattach_stores(&mut self) -> Result<usize, ArtifactError> {
        if !self.monitor.needs_sources() {
            return Ok(0);
        }
        // Open every referenced store first, so store failures surface as
        // the typed [`ArtifactError::Store`] rather than being flattened
        // through the attach callback's monitor-level error type.
        let mut sources = Vec::new();
        for (member, descriptor) in self.monitor.external_descriptors().iter().enumerate() {
            let Some(descriptor) = descriptor else {
                sources.push(None);
                continue;
            };
            if descriptor.kind != "napmon-store" {
                return Err(ArtifactError::Mismatch(format!(
                    "member {member} references source kind `{}`, which is not \
                     persistent and cannot be reopened",
                    descriptor.kind
                )));
            }
            let store = napmon_store::PatternStore::open(&descriptor.path)?;
            sources.push(Some(store.into_shared()));
        }
        let attached = self
            .monitor
            .attach_external_sources(&mut |member, descriptor| {
                sources[member].take().ok_or_else(|| {
                    napmon_core::MonitorError::ExternalSource(format!(
                        "no store opened for member {member} (`{}`)",
                        descriptor.path
                    ))
                })
            })?;
        Ok(attached)
    }

    /// Serializes the artifact to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Serde`] if serialization fails.
    pub fn to_json_string(&self) -> Result<String, ArtifactError> {
        Ok(serde_json::to_string(self)?)
    }

    /// Deserializes and fully validates an artifact from a JSON string.
    ///
    /// The `format_version` field is peeked *before* the full decode, so a
    /// file written by a newer format fails with the typed
    /// [`ArtifactError::UnsupportedVersion`] — not with whatever parse
    /// error its changed schema would otherwise produce.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Serde`] for malformed JSON,
    /// [`ArtifactError::UnsupportedVersion`] for foreign versions, and any
    /// [`MonitorArtifact::validate`] error for inconsistent contents.
    pub fn from_json_str(json: &str) -> Result<Self, ArtifactError> {
        let value: Value = serde_json::from_str(json)?;
        let found = match &value["format_version"] {
            Value::Number(n) => {
                n.as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| {
                        ArtifactError::Mismatch("format_version is not a small integer".into())
                    })?
            }
            Value::Null => {
                return Err(ArtifactError::Mismatch(
                    "missing format_version field".into(),
                ))
            }
            _ => {
                return Err(ArtifactError::Mismatch(
                    "format_version is not a number".into(),
                ))
            }
        };
        if found != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found,
                supported: FORMAT_VERSION,
            });
        }
        // Decode from the already-parsed tree: artifacts carry whole BDD
        // arenas, and a second text parse would double the replica
        // cold-start cost that `load_json` exists to bound.
        let mut artifact: Self = serde::from_value(value)
            .map_err(|e| ArtifactError::Serde(serde::de::Error::custom(e)))?;
        // Store-backed members decode detached; reopen their stores from
        // the recorded paths before validating, so validation exercises
        // the live word sets too.
        artifact.reattach_stores()?;
        artifact.validate()?;
        Ok(artifact)
    }

    /// Saves the artifact as JSON at `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failure or
    /// [`ArtifactError::Serde`] if serialization fails.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // A store-backed artifact is only as durable as its store: flush
        // buffered appends so the file never references words that a
        // crash could still lose.
        self.monitor.commit_external_sources()?;
        std::fs::write(path, self.to_json_string()?)?;
        Ok(())
    }

    /// Loads and fully validates an artifact previously written by
    /// [`MonitorArtifact::save_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] if the file cannot be read, plus any
    /// [`MonitorArtifact::from_json_str`] error.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json_str(&json)
    }
}

/// Member `i` must be of the family the spec declares, carry the
/// parameters it declares, and hold one per-neuron entry per monitored
/// neuron. Deserialization checks none of this, and a member that breaks
/// it would warn where it should not (a tampered vote or Hamming
/// tolerance), panic on its first query (a short threshold list) or
/// answer with a threshold no build can produce (a NaN or infinite one).
fn check_member_parameters(
    i: usize,
    kind: &MonitorKind,
    member: &AnyMonitor,
) -> Result<(), ArtifactError> {
    let dim = member.extractor().dim();
    let mismatch = |what: String| Err(ArtifactError::Mismatch(format!("member {i} {what}")));
    match (member, kind.pattern_params()) {
        (AnyMonitor::MinMax(m), None) => {
            if m.lo().len() != dim || m.hi().len() != dim {
                let (lo, hi) = (m.lo().len(), m.hi().len());
                return mismatch(format!("has {lo}/{hi} bounds for {dim} neurons"));
            }
        }
        (AnyMonitor::Pattern(m), Some(declared)) => {
            if m.bits() != declared.bits {
                let (got, bits) = (m.bits(), declared.bits);
                return mismatch(format!(
                    "uses {got} bits per neuron but the spec says {bits}"
                ));
            }
            // Interval kinds declare no backend: they build a BDD, or
            // the provider's store.
            let got = m.backend();
            let backend_ok = match declared.backend {
                Some(backend) => got == backend,
                None => got != PatternBackend::HashSet,
            };
            if !backend_ok {
                let backend = declared.backend;
                return mismatch(format!(
                    "stores patterns in {got:?} but the spec declares {backend:?}"
                ));
            }
            if m.hamming_tolerance() != declared.hamming {
                let (got, hamming) = (m.hamming_tolerance(), declared.hamming);
                return mismatch(format!(
                    "tolerates {got} flipped bits but the spec says {hamming}"
                ));
            }
            if let Err(e) = m.check_thresholds() {
                return mismatch(format!("has malformed thresholds: {e}"));
            }
        }
        _ => return mismatch(format!("family does not match the spec kind {kind:?}")),
    }
    Ok(())
}

impl std::fmt::Display for MonitorArtifact {
    /// A deployment card: format version, monitor card, and provenance.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "artifact v{}: {} (trained on {} samples, network {} -> {})",
            self.format_version,
            self.monitor,
            self.stats.train_size,
            self.network.input_dim(),
            self.network.output_dim(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_core::{Monitor, MonitorKind};
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
    fn build_records_stats() {
        let net = net();
        let data = train_data(32);
        let artifact =
            MonitorArtifact::build(MonitorSpec::new(4, MonitorKind::pattern()), &net, &data)
                .unwrap();
        assert_eq!(artifact.format_version, FORMAT_VERSION);
        assert_eq!(artifact.stats.train_size, 32);
        assert_eq!(artifact.stats.layer_widths, net.dims());
        assert_eq!(artifact.stats.monitored_dims, vec![4]);
        assert_eq!(artifact.stats.member_samples, vec![32]);
        assert!(artifact.stats.pattern_counts[0].unwrap() >= 1.0);
        assert!(artifact.validate().is_ok());
        assert!(artifact.to_string().contains("artifact v1"));
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let net = net();
        let data = train_data(32);
        let artifact =
            MonitorArtifact::build(MonitorSpec::new(4, MonitorKind::interval(2)), &net, &data)
                .unwrap();
        let json = artifact.to_json_string().unwrap();
        let loaded = MonitorArtifact::from_json_str(&json).unwrap();
        assert_eq!(artifact.spec, loaded.spec);
        assert_eq!(artifact.network, loaded.network);
        assert_eq!(artifact.stats, loaded.stats);
        let mut rng = Prng::seed(3);
        for _ in 0..64 {
            let probe = rng.uniform_vec(3, -2.0, 2.0);
            assert_eq!(
                artifact.monitor.verdict(&artifact.network, &probe).unwrap(),
                loaded.monitor.verdict(&loaded.network, &probe).unwrap()
            );
        }
    }

    #[test]
    fn bumped_format_version_is_rejected_typed() {
        let net = net();
        let artifact = MonitorArtifact::build(
            MonitorSpec::new(4, MonitorKind::min_max()),
            &net,
            &train_data(8),
        )
        .unwrap();
        let json = artifact.to_json_string().unwrap();
        let bumped = json.replacen("\"format_version\":1", "\"format_version\":2", 1);
        assert_ne!(json, bumped, "version field not found in serialized form");
        match MonitorArtifact::from_json_str(&bumped) {
            Err(ArtifactError::UnsupportedVersion {
                found: 2,
                supported,
            }) => {
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn missing_version_field_is_rejected() {
        assert!(matches!(
            MonitorArtifact::from_json_str("{}"),
            Err(ArtifactError::Mismatch(_))
        ));
        assert!(matches!(
            MonitorArtifact::from_json_str("not json"),
            Err(ArtifactError::Serde(_))
        ));
    }

    #[test]
    fn mismatched_network_is_rejected_typed() {
        let net = net();
        let data = train_data(16);
        let mut artifact =
            MonitorArtifact::build(MonitorSpec::new(4, MonitorKind::pattern()), &net, &data)
                .unwrap();
        // Swap in a network whose monitored boundary has a different width.
        artifact.network = Network::seeded(
            5,
            3,
            &[
                LayerSpec::dense(6, Activation::Relu),
                LayerSpec::dense(5, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        let json = artifact.to_json_string().unwrap();
        let err = MonitorArtifact::from_json_str(&json).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Mismatch(_)),
            "expected Mismatch, got {err:?}"
        );
    }

    #[test]
    fn tampered_spec_is_rejected_typed() {
        let net = net();
        let data = train_data(16);
        let mut artifact =
            MonitorArtifact::build(MonitorSpec::new(4, MonitorKind::interval(2)), &net, &data)
                .unwrap();
        // Declare a different bit width than the monitor was built with.
        artifact.spec.kind = MonitorKind::interval(3);
        let json = artifact.to_json_string().unwrap();
        let err = MonitorArtifact::from_json_str(&json).unwrap_err();
        assert!(matches!(err, ArtifactError::Mismatch(_)), "{err:?}");
    }

    #[test]
    fn store_backed_artifact_round_trips_through_the_store() {
        use napmon_core::{PatternBackend, ThresholdPolicy};
        let dir =
            std::env::temp_dir().join(format!("napmon_artifact_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let net = net();
        let data = train_data(40);
        let spec = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
        );
        let mut provider = napmon_store::StoreProvider::new(dir.join("stores"));
        let artifact =
            MonitorArtifact::build_with_sources(spec, &net, &data, &mut provider).unwrap();
        // Store-backed members record no frozen pattern count.
        assert_eq!(artifact.stats.pattern_counts, vec![None]);
        let path = dir.join("artifact.json");
        artifact.save_json(&path).unwrap();
        // The artifact itself is small: it references the store, it does
        // not embed the word set.
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("napmon-store"), "{json}");

        let mut rng = Prng::seed(9);
        let probes: Vec<Vec<f64>> = (0..64).map(|_| rng.uniform_vec(3, -2.0, 2.0)).collect();
        let expected: Vec<_> = probes
            .iter()
            .map(|p| artifact.monitor.verdict(&artifact.network, p).unwrap())
            .collect();
        // Store opens are exclusive: a second handle on a live store is a
        // typed error, not silent aliasing.
        match MonitorArtifact::load_json(&path) {
            Err(ArtifactError::Store(napmon_store::StoreError::Locked(_))) => {}
            other => panic!("expected Locked while the builder holds the store, got {other:?}"),
        }
        // Drop the builder's handle ("process exit") and reload: the
        // artifact reattaches the segments and answers bit-identically.
        drop(artifact);
        let loaded = MonitorArtifact::load_json(&path).unwrap();
        assert!(!loaded.monitor().needs_sources(), "load reattaches");
        for (p, want) in probes.iter().zip(&expected) {
            assert_eq!(loaded.monitor.verdict(&loaded.network, p).unwrap(), *want);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_store_fails_load_typed() {
        use napmon_core::{PatternBackend, ThresholdPolicy};
        let dir = std::env::temp_dir().join(format!(
            "napmon_artifact_missing_store_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let net = net();
        let spec = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
        );
        let mut provider = napmon_store::StoreProvider::new(dir.join("stores"));
        let artifact =
            MonitorArtifact::build_with_sources(spec, &net, &train_data(8), &mut provider).unwrap();
        let json = artifact.to_json_string().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let err = MonitorArtifact::from_json_str(&json).unwrap_err();
        assert!(matches!(err, ArtifactError::Store(_)), "{err:?}");
    }

    #[test]
    fn from_parts_validates() {
        let net = net();
        let data = train_data(16);
        let spec = MonitorSpec::new(4, MonitorKind::pattern());
        let monitor = spec.build(&net, &data).unwrap();
        assert!(MonitorArtifact::from_parts(spec.clone(), net.clone(), monitor, 16).is_ok());
        // Wrong composition: claim per-class over a single monitor.
        let single = spec.build(&net, &data).unwrap();
        let bad_spec = spec.per_class(2);
        assert!(matches!(
            MonitorArtifact::from_parts(bad_spec, net, single, 16),
            Err(ArtifactError::Mismatch(_))
        ));
    }
}
