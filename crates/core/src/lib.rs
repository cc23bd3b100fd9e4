//! Provably-robust runtime monitors of neuron activation patterns.
//!
//! This crate is the primary contribution of *"Provably-Robust Runtime
//! Monitoring of Neuron Activation Patterns"* (Cheng, DATE 2021). A monitor
//! watches the neuron values of one network boundary (`G^k` in the paper's
//! notation) and answers, per operational input, *"is this activation
//! pattern consistent with anything seen over the training set?"* — a
//! warning means provably **no** training input produced a close-by
//! feature vector, which is the sound out-of-distribution signal the paper
//! builds on.
//!
//! Two monitor families are provided, each in a *standard* and a *robust*
//! construction:
//!
//! | family | abstraction | reference |
//! |---|---|---|
//! | [`MinMaxMonitor`] | per-neuron `[min, max]` over the training set | Henzinger et al., ECAI 2020 |
//! | [`PatternMonitor`] | `B`-bit interval words (`B = 1`: Boolean on/off words) in a BDD, hash set or external store | **this paper**, §III-C (`B = 1`: Cheng et al., DATE 2019) |
//!
//! The *robust* construction (§III-B) replaces each training feature vector
//! with the **perturbation estimate** of Definition 1
//! ([`perturbation_estimate`]): a sound per-neuron enclosure of every value
//! the monitored layer can take when the input (or an intermediate layer
//! `kp`) is perturbed by at most `Δ` per dimension. The abstraction then
//! absorbs the whole enclosure — min-max bounds widen, pattern symbols
//! become symbol *ranges* (a Boolean bit becomes a don't-care) — so that, by
//! construction:
//!
//! > **Lemma 1.** If the robust monitor warns on `v_op`, then no training
//! > input `v_tr` satisfies `|G^{kp}_j(v_op) − G^{kp}_j(v_tr)| ≤ Δ` for all
//! > `j`.
//!
//! Equivalently: inputs `Δ`-close to the training data (at boundary `kp`)
//! never warn, which is exactly the false-positive mechanism the paper
//! eliminates. Property tests in this crate check Lemma 1 directly.
//!
//! # Example
//!
//! A [`MonitorSpec`] declares the whole build as serializable data
//! (family, boundary, robustness, composition), and
//! [`MonitorSpec::build`] runs the paper's construction loop. Every
//! monitor answers through the [`Monitor`] trait: one input
//! ([`Monitor::verdict`], or [`Monitor::verdict_scratch`] with reused
//! buffers) or one batch ([`Monitor::query_batch`], or
//! [`Monitor::verdict_batch_scratch`]).
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
//! // Robust on-off monitor at the post-ReLU boundary (layer 2),
//! // tolerating Δ=0.05 input perturbation — declared as data.
//! let spec = MonitorSpec::new(2, MonitorKind::pattern()).robust(0.05, 0, Domain::Box);
//! let monitor = spec.build(&net, &train)?;
//!
//! // Lemma 1: training inputs (and anything Δ-close) never warn.
//! for v in &train {
//!     assert!(!monitor.warns(&net, v)?);
//! }
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod error;
pub mod feature;
pub mod minmax;
pub mod monitor;
pub mod multi;
pub mod pattern;
pub mod per_class;
pub mod perturb;
pub mod score;
mod sliced;
pub mod source;
pub mod spec;
pub mod wirefmt;

pub use builder::{AnyMonitor, MonitorKind, RobustConfig};
pub use error::MonitorError;
pub use feature::FeatureExtractor;
pub use minmax::MinMaxMonitor;
pub use monitor::{Monitor, QueryScratch, Verdict, Violation};
pub use multi::{MultiLayerMonitor, Vote};
pub use pattern::{IntervalPatternMonitor, PatternBackend, PatternMonitor, ThresholdPolicy};
pub use per_class::PerClassMonitor;
pub use perturb::perturbation_estimate;
pub use score::ScoredMonitor;
pub use source::{
    shared_source, ExternalHandle, MemoryPatternSource, PatternSource, SharedPatternSource,
    SourceDescriptor, SourceProvider,
};
pub use spec::{ComposedMonitor, Composition, MonitorSpec, WatchedLayer, MONITOR_SPEC_VERSION};

/// The multi-bit (§III-C) cases of [`PatternMonitor`]: symbols, Figure 1's
/// robust encodings, threshold policies and the store-backed interval
/// layout. The module keeps the name the interval family had, and with it
/// the names of these tests.
#[cfg(test)]
mod interval_pattern {
    mod tests {
        use crate::source::{shared_source, MemoryPatternSource};
        use crate::{FeatureExtractor, PatternBackend, PatternMonitor, ThresholdPolicy};
        use napmon_absint::BoxBounds;
        use napmon_nn::{Activation, LayerSpec, Network};

        fn extractor(width: usize) -> FeatureExtractor {
            let net = Network::seeded(3, 2, &[LayerSpec::dense(width, Activation::Relu)]);
            FeatureExtractor::new(&net, 2).unwrap()
        }

        fn bdd(width: usize, bits: usize, thresholds: Vec<Vec<f64>>) -> PatternMonitor {
            PatternMonitor::empty(extractor(width), bits, thresholds, PatternBackend::Bdd).unwrap()
        }

        fn two_bit_monitor() -> PatternMonitor {
            // One neuron with thresholds c1=0, c2=1, c3=2.
            bdd(1, 2, vec![vec![0.0, 1.0, 2.0]])
        }

        fn stored(width: usize, bits: usize, thresholds: Vec<Vec<f64>>) -> PatternMonitor {
            let source = shared_source(MemoryPatternSource::new(width * bits));
            PatternMonitor::with_source(extractor(width), bits, thresholds, source).unwrap()
        }

        fn contains(m: &PatternMonitor, features: &[f64]) -> bool {
            m.contains_packed(&m.abstract_bitword(features))
        }

        #[test]
        fn construction_validates_inputs() {
            let empty = |width, bits, thresholds| {
                PatternMonitor::empty(extractor(width), bits, thresholds, PatternBackend::Bdd)
            };
            assert!(empty(1, 0, vec![vec![]]).is_err());
            assert!(empty(1, 9, vec![vec![0.0; 511]]).is_err());
            assert!(empty(1, 2, vec![vec![0.0, 1.0]]).is_err());
            assert!(empty(1, 2, vec![vec![2.0, 1.0, 0.0]]).is_err());
            assert!(empty(1, 2, vec![vec![0.0, f64::NAN, 2.0]]).is_err());
            assert!(empty(2, 2, vec![vec![0.0, 1.0, 2.0]]).is_err());
            assert_eq!(two_bit_monitor().thresholds(), &[0.0, 1.0, 2.0]);
        }

        #[test]
        fn symbols_follow_paper_table() {
            let m = two_bit_monitor();
            // Paper's 2-bit encoding: 11 iff v > c3; 00 iff v <= c1.
            assert_eq!(m.symbol(0, 3.0), 3); // > c3 -> 11
            assert_eq!(m.symbol(0, 1.5), 2); // c2 < v <= c3 -> 10
            assert_eq!(m.symbol(0, 2.0), 2); // v == c3 stays 10 (paper: c3 >= v >= c2)
            assert_eq!(m.symbol(0, 0.5), 1); // c1 < v < c2 -> 01
            assert_eq!(m.symbol(0, 0.0), 0); // v == c1 -> 00 (paper: otherwise)
            assert_eq!(m.symbol(0, -1.0), 0);
        }

        #[test]
        fn figure_1_robust_encoding_all_ten_cases() {
            let m = two_bit_monitor();
            let cases: Vec<((f64, f64), Vec<u16>)> = vec![
                ((2.5, 3.0), vec![3]),           // l > c3:              {11}
                ((1.2, 1.8), vec![2]),           // c2 <= l <= u <= c3:  {10}
                ((0.3, 0.7), vec![1]),           // c1 < l <= u < c2:    {01}
                ((-1.0, -0.5), vec![0]),         // u <= c1:             {00}
                ((-0.5, 0.5), vec![0, 1]),       // straddles c1:        {00,01}
                ((0.5, 1.5), vec![1, 2]),        // straddles c2:        {01,10}
                ((1.5, 2.5), vec![2, 3]),        // straddles c3:        {10,11}
                ((-0.5, 1.5), vec![0, 1, 2]),    // c1 and c2:           {00,01,10}
                ((0.5, 2.5), vec![1, 2, 3]),     // c2 and c3:           {01,10,11}
                ((-0.5, 2.5), vec![0, 1, 2, 3]), // everything
            ];
            for ((l, u), expected) in cases {
                let got: Vec<u16> = m.symbol_range(0, l, u).collect();
                assert_eq!(got, expected, "interval [{l}, {u}]");
            }
        }

        #[test]
        fn absorbed_points_are_members() {
            let mut m = two_bit_monitor();
            m.absorb_point(&[1.5]).unwrap(); // symbol 10
            assert!(contains(&m, &[1.2]));
            assert!(!contains(&m, &[0.5]));
            assert!(!contains(&m, &[2.5]));
            assert_eq!(m.pattern_count(), 1.0);
        }

        #[test]
        fn robust_absorption_admits_the_whole_range() {
            let mut m = two_bit_monitor();
            m.absorb_bounds(&BoxBounds::new(vec![0.5], vec![1.5]))
                .unwrap(); // {01, 10}
            assert!(contains(&m, &[0.7]));
            assert!(contains(&m, &[1.3]));
            assert!(!contains(&m, &[-1.0]));
            assert!(!contains(&m, &[5.0]));
            assert_eq!(m.pattern_count(), 2.0);
        }

        #[test]
        fn multi_neuron_product_set() {
            let mut m = bdd(2, 2, vec![vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0]]);
            m.absorb_bounds(&BoxBounds::new(vec![0.5, -1.0], vec![1.5, 0.5]))
                .unwrap();
            // Neuron 0: {01,10}; neuron 1: {00,01} -> 4 words.
            assert_eq!(m.pattern_count(), 4.0);
            assert!(contains(&m, &[0.7, -0.2]));
            assert!(contains(&m, &[1.2, 0.3]));
            assert!(!contains(&m, &[1.2, 1.2]));
        }

        #[test]
        fn one_bit_monitor_degenerates_to_on_off() {
            let mut m = bdd(2, 1, vec![vec![0.0], vec![0.0]]);
            m.absorb_point(&[1.0, -1.0]).unwrap(); // word 1 0
            assert!(contains(&m, &[0.5, -0.5]));
            assert!(!contains(&m, &[0.5, 0.5]));
        }

        #[test]
        fn three_bit_monitor_resolves_finer() {
            let thresholds: Vec<f64> = (1..8).map(|i| i as f64).collect(); // 1..7
            let mut m = bdd(1, 3, vec![thresholds]);
            m.absorb_point(&[3.5]).unwrap(); // symbol = #{c < 3.5} = 3
            assert!(contains(&m, &[3.2]));
            assert!(!contains(&m, &[4.2]));
            assert_eq!(m.symbol(0, 3.5), 3);
        }

        #[test]
        fn quantile_policy_resolves_ascending_thresholds() {
            let features: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 42.0]).collect();
            let lists = ThresholdPolicy::Quantiles.resolve(2, 2, &features).unwrap();
            assert_eq!(lists.len(), 2);
            assert_eq!(lists[0].len(), 3);
            assert!(lists[0].windows(2).all(|w| w[0] < w[1]));
            // Constant column: nudged apart but still ascending.
            assert!(lists[1].windows(2).all(|w| w[0] < w[1]));
        }

        #[test]
        fn sign_and_mean_policies_only_one_bit() {
            let features = vec![vec![1.0], vec![3.0]];
            assert!(ThresholdPolicy::Sign.resolve(1, 2, &features).is_err());
            assert!(ThresholdPolicy::Mean.resolve(1, 2, &features).is_err());
            assert_eq!(
                ThresholdPolicy::Sign.resolve(1, 1, &features).unwrap(),
                vec![vec![0.0]]
            );
            assert_eq!(
                ThresholdPolicy::Mean.resolve(1, 1, &features).unwrap(),
                vec![vec![2.0]]
            );
        }

        #[test]
        fn explicit_policy_is_validated() {
            let ok = ThresholdPolicy::Explicit(vec![vec![0.0, 1.0, 2.0]]);
            assert!(ok.resolve(1, 2, &[]).is_ok());
            let wrong_len = ThresholdPolicy::Explicit(vec![vec![0.0]]);
            assert!(wrong_len.resolve(1, 2, &[]).is_err());
            let not_ascending = ThresholdPolicy::Explicit(vec![vec![1.0, 0.5, 2.0]]);
            assert!(not_ascending.resolve(1, 2, &[]).is_err());
        }

        #[test]
        fn external_store_matches_bdd_semantics() {
            let thresholds = vec![vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0]];
            let mut bdd_backed = bdd(2, 2, thresholds.clone());
            let mut store_backed = stored(2, 2, thresholds);
            for m in [&mut bdd_backed, &mut store_backed] {
                m.absorb_point(&[1.5, 0.5]).unwrap();
                m.absorb_bounds(&BoxBounds::new(vec![0.5, -1.0], vec![1.5, 0.5]))
                    .unwrap();
            }
            assert_eq!(bdd_backed.pattern_count(), store_backed.pattern_count());
            assert_eq!(bdd_backed.samples(), store_backed.samples());
            assert!((bdd_backed.coverage() - store_backed.coverage()).abs() < 1e-12);
            for a in [-1.0, 0.5, 1.2, 1.5, 2.5, 3.0] {
                for b in [-1.0, 0.5, 1.2, 2.5] {
                    assert_eq!(
                        contains(&bdd_backed, &[a, b]),
                        contains(&store_backed, &[a, b]),
                        "features [{a}, {b}]"
                    );
                    let word = bdd_backed.abstract_bitword(&[a, b]);
                    assert_eq!(
                        bdd_backed.contains_within_packed(&word, 1),
                        store_backed.contains_within_packed(&word, 1),
                        "hamming around [{a}, {b}]"
                    );
                }
            }
        }

        #[test]
        fn external_serde_is_descriptor_only_and_bdd_form_is_compatible() {
            // BDD-backed: field layout unchanged (bdd + root inline).
            let mut m = two_bit_monitor();
            m.absorb_point(&[1.5]).unwrap();
            let json = serde_json::to_string(&m).unwrap();
            assert!(
                json.contains("\"bdd\"") && json.contains("\"root\""),
                "{json}"
            );
            let back: PatternMonitor = serde_json::from_str(&json).unwrap();
            assert!(contains(&back, &[1.2]));
            assert_eq!(back.samples(), 1);
            // Store-backed: descriptor only, reattachable after decode.
            let ext = stored(1, 2, vec![vec![0.0, 1.0, 2.0]]);
            let json = serde_json::to_string(&ext).unwrap();
            assert!(
                json.contains("\"external\"") && !json.contains("\"bdd\""),
                "{json}"
            );
            let mut back: PatternMonitor = serde_json::from_str(&json).unwrap();
            assert!(back.needs_source());
            back.attach_source(shared_source(MemoryPatternSource::new(2)))
                .unwrap();
            assert!(!back.needs_source());
            assert!(back
                .attach_source(shared_source(MemoryPatternSource::new(5)))
                .is_err());
        }

        #[test]
        fn shared_absorption_is_external_only() {
            let m = two_bit_monitor();
            assert!(m.absorb_features_shared(&[1.5]).is_err());
            let ext = stored(1, 2, vec![vec![0.0, 1.0, 2.0]]);
            assert!(ext.absorb_features_shared(&[1.5]).unwrap());
            assert!(contains(&ext, &[1.2]));
            assert_eq!(ext.samples(), 0);
        }

        #[test]
        fn footnote_3_minmax_generalization() {
            // c3 = max visited, c2 = min visited, c1 = -inf stand-in: interval
            // monitors generalize min-max monitors (paper footnote 3).
            let (lo, hi) = (-0.5, 2.5);
            let mut m = bdd(1, 2, vec![vec![-1e300, lo, hi]]);
            // Everything strictly inside (min, max] maps to symbol 10.
            m.absorb_bounds(&BoxBounds::new(vec![lo + 1e-9], vec![hi]))
                .unwrap();
            assert_eq!(m.pattern_count(), 1.0);
            assert!(contains(&m, &[0.0])); // inside (min, max]
            assert!(!contains(&m, &[3.0])); // above max -> 11
            assert!(!contains(&m, &[-0.7])); // below min -> 01
        }
    }
}
