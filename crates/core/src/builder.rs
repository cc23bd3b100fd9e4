//! What a monitor build is made of: the families a
//! [`MonitorSpec`](crate::MonitorSpec) can build ([`MonitorKind`]), the
//! robust-construction parameters ([`RobustConfig`]), and the
//! single-boundary monitor a build produces ([`AnyMonitor`]).
//!
//! The paper's construction loop is
//!
//! ```text
//! M ← M0
//! for v_tr ∈ Dtr:  M ← M ⊎ ab(G^k(v_tr))                 (standard)
//! for v_tr ∈ Dtr:  M ← M ⊎_R ab_R(pe^G_k(v_tr, kp, Δ))   (robust)
//! ```
//!
//! and it lives in [`crate::spec`]: the declarative
//! [`MonitorSpec`](crate::MonitorSpec) is the one construction API,
//! because a spec can be serialized, shipped, and rebuilt.

use crate::error::MonitorError;
use crate::feature::FeatureExtractor;
use crate::minmax::MinMaxMonitor;
use crate::monitor::{Monitor, QueryScratch, Verdict};
use crate::pattern::{PatternBackend, PatternMonitor, ThresholdPolicy};
use napmon_absint::Domain;
use napmon_nn::Network;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Robust-construction parameters: perturbation budget `Δ`, injection
/// boundary `kp`, and the abstract domain computing Definition 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustConfig {
    /// Per-dimension perturbation bound `Δ ≥ 0`.
    pub delta: f64,
    /// Boundary where perturbation is injected (`0` = input layer).
    pub kp: usize,
    /// Abstract domain for the perturbation estimate.
    pub domain: Domain,
}

/// Which monitor family to build.
///
/// Marked `#[non_exhaustive]`: future format versions may add families
/// without breaking downstream matches, which is what lets a serialized
/// [`MonitorSpec`](crate::MonitorSpec) stay forward-compatible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MonitorKind {
    /// Per-neuron min/max bounds, optionally bloated by `gamma` (the
    /// baseline enlargement of Henzinger et al.).
    MinMax {
        /// Post-construction symmetric enlargement factor (`0` = none).
        gamma: f64,
    },
    /// Boolean on-off patterns: the pattern monitor at `B = 1`.
    Pattern {
        /// Threshold selection (must resolve to one threshold per neuron).
        policy: ThresholdPolicy,
        /// Pattern-set storage.
        backend: PatternBackend,
        /// Query-time Hamming tolerance.
        hamming: usize,
    },
    /// Multi-bit interval patterns (§III-C): the pattern monitor at
    /// `B = bits`.
    IntervalPattern {
        /// Bits per neuron.
        bits: usize,
        /// Threshold selection (must resolve to `2^bits − 1` per neuron).
        policy: ThresholdPolicy,
    },
}

impl MonitorKind {
    /// Plain min-max monitor.
    pub fn min_max() -> Self {
        MonitorKind::MinMax { gamma: 0.0 }
    }

    /// Min-max monitor bloated by `gamma` after construction.
    pub fn min_max_enlarged(gamma: f64) -> Self {
        MonitorKind::MinMax { gamma }
    }

    /// On-off pattern monitor with sign thresholds in a BDD.
    pub fn pattern() -> Self {
        MonitorKind::Pattern {
            policy: ThresholdPolicy::Sign,
            backend: PatternBackend::Bdd,
            hamming: 0,
        }
    }

    /// On-off pattern monitor with explicit configuration.
    pub fn pattern_with(policy: ThresholdPolicy, backend: PatternBackend, hamming: usize) -> Self {
        MonitorKind::Pattern {
            policy,
            backend,
            hamming,
        }
    }

    /// Interval pattern monitor with quantile thresholds.
    pub fn interval(bits: usize) -> Self {
        MonitorKind::IntervalPattern {
            bits,
            policy: ThresholdPolicy::Quantiles,
        }
    }

    /// Interval pattern monitor with explicit configuration.
    pub fn interval_with(bits: usize, policy: ThresholdPolicy) -> Self {
        MonitorKind::IntervalPattern { bits, policy }
    }

    /// The pattern family's parameters; `None` for min-max. An on-off
    /// kind is the `B = 1` pattern monitor, an interval kind the
    /// `B = bits` one.
    pub fn pattern_params(&self) -> Option<PatternParams<'_>> {
        match self {
            MonitorKind::MinMax { .. } => None,
            MonitorKind::Pattern {
                policy,
                backend,
                hamming,
            } => Some(PatternParams {
                bits: 1,
                policy,
                backend: Some(*backend),
                hamming: *hamming,
            }),
            MonitorKind::IntervalPattern { bits, policy } => Some(PatternParams {
                bits: *bits,
                policy,
                backend: None,
                hamming: 0,
            }),
        }
    }
}

/// What a pattern kind declares ([`MonitorKind::pattern_params`]).
#[derive(Debug, Clone, Copy)]
pub struct PatternParams<'a> {
    /// Bits per neuron `B`.
    pub bits: usize,
    /// Threshold selection (must resolve to `2^B − 1` per neuron).
    pub policy: &'a ThresholdPolicy,
    /// Pattern-set storage; `None` for interval kinds, which carry no
    /// backend field: a BDD, or the provider's store when built with
    /// sources.
    pub backend: Option<PatternBackend>,
    /// Query-time Hamming tolerance.
    pub hamming: usize,
}

/// A single-boundary monitor of any family, as built for one member of a
/// [`MonitorSpec`](crate::MonitorSpec).
///
/// Serializes as `{"MinMax": …}`, `{"Pattern": …}` for a 1-bit pattern
/// monitor or `{"Interval": …}` for a multi-bit one (each tag with its
/// layout, see [`crate::pattern`]); reads all three.
#[derive(Debug, Clone)]
pub enum AnyMonitor {
    /// Min-max monitor.
    MinMax(MinMaxMonitor),
    /// Pattern monitor (on-off at `B = 1`, interval above).
    Pattern(PatternMonitor),
}

impl Serialize for AnyMonitor {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::Error;
        let (tag, value) = match self {
            AnyMonitor::MinMax(m) => ("MinMax", serde::to_value(m)),
            AnyMonitor::Pattern(m) if m.bits() == 1 => ("Pattern", serde::to_value(m)),
            AnyMonitor::Pattern(m) => ("Interval", serde::to_value(m)),
        };
        let mut map = serde::Map::new();
        map.insert(tag.to_string(), value.map_err(S::Error::custom)?);
        serializer.serialize_value(serde::Value::Object(map))
    }
}

impl<'de> Deserialize<'de> for AnyMonitor {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let single_key = || D::Error::custom("expected single-key object for enum AnyMonitor");
        let serde::Value::Object(map) = deserializer.deserialize_value()? else {
            return Err(single_key());
        };
        let mut entries = map.into_iter();
        let (Some((tag, value)), None) = (entries.next(), entries.next()) else {
            return Err(single_key());
        };
        match tag.as_str() {
            "MinMax" => serde::from_value(value).map(AnyMonitor::MinMax),
            "Pattern" | "Interval" => serde::from_value(value).map(AnyMonitor::Pattern),
            other => Err(serde::ValueError(format!(
                "unknown variant `{other}` of AnyMonitor"
            ))),
        }
        .map_err(D::Error::custom)
    }
}

impl AnyMonitor {
    /// The min-max monitor, if that is what was built.
    pub fn as_min_max(&self) -> Option<&MinMaxMonitor> {
        match self {
            AnyMonitor::MinMax(m) => Some(m),
            _ => None,
        }
    }

    /// The pattern monitor (any bit width), if that is what was built.
    pub fn as_pattern(&self) -> Option<&PatternMonitor> {
        match self {
            AnyMonitor::Pattern(m) => Some(m),
            _ => None,
        }
    }

    /// The pattern monitor if it has more than one bit per neuron. Kept
    /// only because the benchmark package (`perfbench/`) still calls it;
    /// it goes when that package next changes.
    pub fn as_interval(&self) -> Option<&PatternMonitor> {
        self.as_pattern().filter(|m| m.bits() > 1)
    }

    /// Fraction of the abstract pattern space the monitor admits, when the
    /// family has a meaningful notion of coverage (pattern monitors only).
    pub fn coverage(&self) -> Option<f64> {
        self.as_pattern().map(PatternMonitor::coverage)
    }

    /// Number of training samples absorbed during construction.
    pub fn samples(&self) -> usize {
        match self {
            AnyMonitor::MinMax(m) => m.samples(),
            AnyMonitor::Pattern(m) => m.samples(),
        }
    }

    /// Number of distinct abstract patterns admitted, when the family
    /// counts patterns (pattern monitors only).
    pub fn pattern_count(&self) -> Option<f64> {
        self.as_pattern().map(PatternMonitor::pattern_count)
    }

    /// The descriptor of the monitor's external pattern source, when its
    /// word set is store-backed.
    pub fn external_descriptor(&self) -> Option<&crate::source::SourceDescriptor> {
        self.as_pattern()
            .and_then(PatternMonitor::external_descriptor)
    }

    /// Whether the monitor is store-backed but detached (fresh from
    /// deserialization).
    pub fn needs_source(&self) -> bool {
        self.as_pattern().is_some_and(PatternMonitor::needs_source)
    }

    /// Reattaches a live source to a store-backed monitor.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] for a non-store-backed
    /// monitor, or [`MonitorError::DimensionMismatch`] on word-width
    /// disagreement.
    pub fn attach_source(
        &mut self,
        source: crate::source::SharedPatternSource,
    ) -> Result<(), MonitorError> {
        match self {
            AnyMonitor::MinMax(_) => Err(MonitorError::ExternalSource(
                "min-max monitors have no pattern source".into(),
            )),
            AnyMonitor::Pattern(m) => m.attach_source(source),
        }
    }

    /// Flushes a store-backed monitor's buffered writes (no-op otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the store fails.
    pub fn commit_source(&self) -> Result<(), MonitorError> {
        self.as_pattern()
            .map_or(Ok(()), PatternMonitor::commit_source)
    }

    /// Runs `net` on `input` and absorbs the resulting pattern into the
    /// monitor's external source through `&self` (operation-time
    /// enlargement; store-backed monitors only). Returns `true` if the
    /// pattern was new.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] for a malformed input
    /// and [`MonitorError::ExternalSource`] for in-memory backends or
    /// store failures.
    pub fn absorb_input_shared(&self, net: &Network, input: &[f64]) -> Result<bool, MonitorError> {
        let features = self.extractor().features(net, input)?;
        self.absorb_features_shared(&features)
    }

    /// Feature-level form of [`AnyMonitor::absorb_input_shared`], for
    /// callers that already ran the forward pass (multi-layer absorption
    /// shares one pass across members, exactly like the query path).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] for in-memory backends or
    /// store failures.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn absorb_features_shared(&self, features: &[f64]) -> Result<bool, MonitorError> {
        match self {
            AnyMonitor::MinMax(_) => Err(MonitorError::ExternalSource(
                "min-max monitors have no pattern source to absorb into".into(),
            )),
            AnyMonitor::Pattern(m) => m.absorb_features_shared(features),
        }
    }

    /// Runs `net` on `input` and absorbs the resulting pattern through
    /// `&mut self`, for any backend (min-max widens its bounds, pattern
    /// monitors fold the word into their set).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] for a malformed input
    /// and [`MonitorError::ExternalSource`] for store failures.
    pub fn absorb_input_mut(&mut self, net: &Network, input: &[f64]) -> Result<(), MonitorError> {
        let features = self.extractor().features(net, input)?;
        self.absorb_features_mut(&features)
    }

    /// Feature-level form of [`AnyMonitor::absorb_input_mut`].
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] for store failures.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn absorb_features_mut(&mut self, features: &[f64]) -> Result<(), MonitorError> {
        match self {
            AnyMonitor::MinMax(m) => {
                m.absorb_point(features);
                Ok(())
            }
            AnyMonitor::Pattern(m) => m.absorb_point(features),
        }
    }
}

impl Monitor for AnyMonitor {
    fn extractor(&self) -> &FeatureExtractor {
        match self {
            AnyMonitor::MinMax(m) => m.extractor(),
            AnyMonitor::Pattern(m) => m.extractor(),
        }
    }

    fn verdict_features_scratch(&self, features: &[f64], scratch: &mut QueryScratch) -> Verdict {
        match self {
            AnyMonitor::MinMax(m) => m.verdict_features_scratch(features, scratch),
            AnyMonitor::Pattern(m) => m.verdict_features_scratch(features, scratch),
        }
    }

    fn verdict_batch_scratch(
        &self,
        net: &Network,
        inputs: &[Vec<f64>],
        scratch: &mut QueryScratch,
        out: &mut Vec<Verdict>,
    ) -> Result<(), MonitorError> {
        match self {
            AnyMonitor::MinMax(m) => m.verdict_batch_scratch(net, inputs, scratch, out),
            AnyMonitor::Pattern(m) => m.verdict_batch_scratch(net, inputs, scratch, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ComposedMonitor, MonitorSpec};
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

    /// The single member of a single-composition build.
    fn build(spec: &MonitorSpec, net: &Network, data: &[Vec<f64>]) -> AnyMonitor {
        spec.build(net, data).unwrap().as_single().cloned().unwrap()
    }

    #[test]
    fn validation_catches_bad_inputs() {
        let net = net();
        let spec = MonitorSpec::new(2, MonitorKind::min_max());
        assert!(matches!(
            spec.build(&net, &[]),
            Err(MonitorError::EmptyTrainingSet)
        ));
        assert!(spec.build(&net, &[vec![0.0]]).is_err());
        let bad_robust = spec.clone().robust(0.1, 2, Domain::Box);
        assert!(bad_robust.build(&net, &train_data(4)).is_err());
        let neg_delta = spec.robust(-0.1, 0, Domain::Box);
        assert!(neg_delta.build(&net, &train_data(4)).is_err());
        let neg_gamma = MonitorSpec::new(2, MonitorKind::min_max_enlarged(-1.0));
        assert!(neg_gamma.build(&net, &train_data(4)).is_err());
    }

    #[test]
    fn standard_monitors_accept_training_data() {
        let net = net();
        let data = train_data(64);
        for kind in [
            MonitorKind::min_max(),
            MonitorKind::pattern(),
            MonitorKind::interval(2),
        ] {
            let m = MonitorSpec::new(4, kind.clone())
                .build(&net, &data)
                .unwrap();
            for x in &data {
                assert!(
                    !m.warns(&net, x).unwrap(),
                    "{kind:?} warned on its own training data"
                );
            }
        }
    }

    #[test]
    fn robust_monitors_accept_training_data_and_perturbations() {
        let net = net();
        let data = train_data(32);
        let delta = 0.03;
        let mut rng = Prng::seed(7);
        for kind in [
            MonitorKind::min_max(),
            MonitorKind::pattern(),
            MonitorKind::interval(2),
        ] {
            let m = MonitorSpec::new(4, kind.clone())
                .robust(delta, 0, Domain::Box)
                .build(&net, &data)
                .unwrap();
            // Lemma 1: Δ-close inputs never warn.
            for x in data.iter().take(16) {
                for _ in 0..8 {
                    let pert: Vec<f64> =
                        x.iter().map(|&v| v + rng.uniform(-delta, delta)).collect();
                    assert!(!m.warns(&net, &pert).unwrap(), "{kind:?} violated Lemma 1");
                }
            }
        }
    }

    #[test]
    fn robust_pattern_admits_no_fewer_patterns_than_standard() {
        let net = net();
        let data = train_data(48);
        let standard = MonitorSpec::new(4, MonitorKind::pattern());
        let robust = standard.clone().robust(0.05, 0, Domain::Box);
        let (s, r) = (build(&standard, &net, &data), build(&robust, &net, &data));
        assert!(r.pattern_count() >= s.pattern_count());
    }

    #[test]
    fn parallel_equals_serial() {
        let net = net();
        let data = train_data(200);
        let serial = MonitorSpec::new(4, MonitorKind::min_max()).robust(0.02, 0, Domain::Box);
        let parallel = serial.clone().parallel(true);
        let (s, p) = (build(&serial, &net, &data), build(&parallel, &net, &data));
        let (s, p) = (s.as_min_max().unwrap(), p.as_min_max().unwrap());
        assert_eq!(s.lo(), p.lo());
        assert_eq!(s.hi(), p.hi());
    }

    #[test]
    fn neuron_subset_restricts_dimension() {
        let net = net();
        let spec = MonitorSpec::new(4, MonitorKind::min_max()).with_neurons(vec![0, 2]);
        let m = spec.build(&net, &train_data(16)).unwrap();
        assert_eq!(m.extractor().dim(), 2);
    }

    #[test]
    fn enlarged_min_max_accepts_more() {
        let net = net();
        let data = train_data(32);
        let plain = build(&MonitorSpec::new(4, MonitorKind::min_max()), &net, &data);
        let bloated = build(
            &MonitorSpec::new(4, MonitorKind::min_max_enlarged(0.5)),
            &net,
            &data,
        );
        let (p, b) = (plain.as_min_max().unwrap(), bloated.as_min_max().unwrap());
        assert!(b.mean_width() > p.mean_width());
    }

    #[test]
    fn per_class_build_and_dispatch() {
        let net = net(); // 2 output classes
        let data = train_data(40);
        let labels: Vec<usize> = data.iter().map(|x| net.predict_class(x)).collect();
        // Guard: both classes must be populated for this seed.
        assert!(labels.contains(&0) && labels.contains(&1));
        let pc = MonitorSpec::new(4, MonitorKind::pattern())
            .per_class(2)
            .build_with_labels(&net, &data, &labels)
            .unwrap();
        assert!(matches!(pc, ComposedMonitor::PerClass(_)));
        for x in &data {
            assert!(!pc.warns(&net, x).unwrap());
        }
    }

    #[test]
    fn per_class_validates_labels() {
        let net = net();
        let data = train_data(8);
        let spec = MonitorSpec::new(4, MonitorKind::pattern()).per_class(2);
        let short = spec.build_with_labels(&net, &data, &[0; 7]).unwrap_err();
        assert!(
            matches!(short, MonitorError::DimensionMismatch { .. }),
            "{short}"
        );
        let out_of_range = spec.build_with_labels(&net, &data, &[5; 8]).unwrap_err();
        assert!(
            matches!(out_of_range, MonitorError::InvalidConfig(_)),
            "{out_of_range}"
        );
        // Class 1 gets no samples.
        let empty_class = spec.build_with_labels(&net, &data, &[0; 8]).unwrap_err();
        assert!(
            matches!(empty_class, MonitorError::InvalidConfig(_)),
            "{empty_class}"
        );
    }
}

impl std::fmt::Display for AnyMonitor {
    /// A one-line "monitor card" for experiment logs: family, monitored
    /// boundary and width, samples absorbed, and coverage when meaningful.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fx = self.extractor();
        match self {
            AnyMonitor::MinMax(m) => write!(
                f,
                "min-max monitor @ boundary {} ({} neurons, {} samples, mean width {:.4})",
                fx.layer(),
                fx.dim(),
                m.samples(),
                m.mean_width()
            ),
            AnyMonitor::Pattern(m) => {
                let family = match m.bits() {
                    1 => "pattern".to_string(),
                    bits => format!("{bits}-bit interval"),
                };
                write!(
                    f,
                    "{family} monitor @ boundary {} ({} neurons, {} samples, {} patterns, \
                     coverage {:.2e})",
                    fx.layer(),
                    fx.dim(),
                    m.samples(),
                    m.pattern_count(),
                    m.coverage()
                )
            }
        }
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use napmon_nn::{Activation, LayerSpec};
    use napmon_tensor::Prng;

    #[test]
    fn monitor_cards_name_family_and_boundary() {
        let net = Network::seeded(7, 3, &[LayerSpec::dense(6, Activation::Relu)]);
        let mut rng = Prng::seed(8);
        let data: Vec<Vec<f64>> = (0..16).map(|_| rng.uniform_vec(3, -1.0, 1.0)).collect();
        let card = |kind| {
            let spec = crate::MonitorSpec::new(2, kind);
            spec.build(&net, &data).unwrap().to_string()
        };
        assert!(card(MonitorKind::min_max()).starts_with("min-max monitor @ boundary 2"));
        let pm = card(MonitorKind::pattern());
        assert!(pm.contains("pattern monitor @ boundary 2"));
        assert!(pm.contains("coverage"));
        assert!(card(MonitorKind::interval(2)).starts_with("2-bit interval monitor"));
    }
}
