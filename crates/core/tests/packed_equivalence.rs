//! Differential tests: the packed `BitWord` query pipeline must be
//! bit-for-bit equivalent to a reference `Vec<bool>` implementation of the
//! seed's semantics — on every storage backend, across randomized monitors,
//! thresholds, training sets, and probes (seeded RNG, fully reproducible).
//!
//! The reference implementation below deliberately mirrors the *old* code:
//! explicit `Vec<bool>` words, explicit don't-care expansion, linear
//! Hamming scans. If the packed pipeline ever diverges from it, these tests
//! localize the disagreement to a concrete word.

use napmon_bdd::BitWord;
use napmon_core::{
    shared_source, FeatureExtractor, MemoryPatternSource, Monitor, MonitorKind, MonitorSpec,
    PatternBackend, PatternMonitor, QueryScratch,
};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_tensor::Prng;
use std::collections::HashSet;

/// Reference (seed-era) pattern store: unpacked words, SipHash set.
struct ReferenceStore {
    thresholds: Vec<f64>,
    words: HashSet<Vec<bool>>,
}

impl ReferenceStore {
    fn new(thresholds: Vec<f64>) -> Self {
        Self {
            thresholds,
            words: HashSet::new(),
        }
    }

    fn abstract_word(&self, features: &[f64]) -> Vec<bool> {
        features
            .iter()
            .zip(&self.thresholds)
            .map(|(v, c)| v > c)
            .collect()
    }

    fn absorb_point(&mut self, features: &[f64]) {
        let word = self.abstract_word(features);
        self.words.insert(word);
    }

    /// `word2set` by explicit enumeration, as the seed's hash backend did.
    fn absorb_cube(&mut self, cube: &[Option<bool>]) {
        let free: Vec<usize> = cube
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_none())
            .map(|(i, _)| i)
            .collect();
        for mask in 0u64..(1u64 << free.len()) {
            let mut w: Vec<bool> = cube.iter().map(|l| l.unwrap_or(false)).collect();
            for (bit, &pos) in free.iter().enumerate() {
                w[pos] = (mask >> bit) & 1 == 1;
            }
            self.words.insert(w);
        }
    }

    fn contains_word(&self, word: &[bool]) -> bool {
        self.words.contains(word)
    }

    fn contains_within(&self, word: &[bool], tau: usize) -> bool {
        self.words
            .iter()
            .any(|w| w.iter().zip(word).filter(|(a, b)| a != b).count() <= tau)
    }
}

/// Every backend: in memory as a BDD or a hash set, and behind an
/// external (in-memory) pattern source.
const BACKENDS: [PatternBackend; 3] = [
    PatternBackend::Bdd,
    PatternBackend::HashSet,
    PatternBackend::Store,
];

fn monitor_pair(
    dim: usize,
    thresholds: &[f64],
    backend: PatternBackend,
) -> (Network, PatternMonitor) {
    // The network only anchors the extractor's dimension; queries below go
    // through `*_features` / packed words directly.
    let net = Network::seeded(7, 2, &[LayerSpec::dense(dim, Activation::Relu)]);
    let fx = FeatureExtractor::new(&net, 2).unwrap();
    let lists: Vec<Vec<f64>> = thresholds.iter().map(|&c| vec![c]).collect();
    let m = match backend {
        PatternBackend::Store => {
            let source = shared_source(MemoryPatternSource::new(dim));
            PatternMonitor::with_source(fx, 1, lists, source)
        }
        backend => PatternMonitor::empty(fx, 1, lists, backend),
    };
    (net, m.unwrap())
}

fn random_cube(rng: &mut Prng, dim: usize, max_free: usize) -> Vec<Option<bool>> {
    let free = rng.sample_indices(dim, max_free.min(dim));
    (0..dim)
        .map(|i| {
            if free.contains(&i) {
                None
            } else {
                Some(rng.chance(0.5))
            }
        })
        .collect()
}

/// The cube an interval `[lo, hi]` abstracts to under thresholds `c`.
fn cube_of_bounds(lo: &[f64], hi: &[f64], thresholds: &[f64]) -> Vec<Option<bool>> {
    thresholds
        .iter()
        .enumerate()
        .map(|(j, &c)| {
            if lo[j] > c {
                Some(true)
            } else if hi[j] <= c {
                Some(false)
            } else {
                None
            }
        })
        .collect()
}

#[test]
fn abstract_word_matches_reference_on_randomized_inputs() {
    let mut rng = Prng::seed(1001);
    for trial in 0..50 {
        // Dimensions crossing the 64-bit limb boundary matter most.
        let dim = 1 + rng.index(100);
        let thresholds = rng.uniform_vec(dim, -1.0, 1.0);
        let (_, m) = monitor_pair(dim, &thresholds, PatternBackend::Bdd);
        let reference = ReferenceStore::new(thresholds);
        for _ in 0..20 {
            let features = rng.uniform_vec(dim, -2.0, 2.0);
            let expected = reference.abstract_word(&features);
            let packed = m.abstract_bitword(&features);
            assert_eq!(packed.to_bools(), expected, "trial {trial} (packed)");
            let mut scratch_word = BitWord::default();
            m.abstract_into(&features, &mut scratch_word);
            assert_eq!(scratch_word, packed, "trial {trial} (scratch reuse)");
        }
    }
}

#[test]
fn membership_matches_reference_across_both_backends() {
    let mut rng = Prng::seed(1002);
    for trial in 0..30 {
        let dim = 1 + rng.index(80);
        let thresholds = rng.uniform_vec(dim, -1.0, 1.0);
        for backend in BACKENDS {
            let (_, mut m) = monitor_pair(dim, &thresholds, backend);
            let mut reference = ReferenceStore::new(thresholds.clone());
            let mut stored_features = Vec::new();
            for _ in 0..1 + rng.index(30) {
                let features = rng.uniform_vec(dim, -2.0, 2.0);
                m.absorb_point(&features).unwrap();
                reference.absorb_point(&features);
                stored_features.push(features);
            }
            // Probes: fresh random points plus stored points (guaranteed
            // members) plus near-misses of stored points.
            let mut probes: Vec<Vec<f64>> =
                (0..20).map(|_| rng.uniform_vec(dim, -2.0, 2.0)).collect();
            probes.extend(stored_features.iter().cloned());
            for f in stored_features.iter().take(5) {
                let mut near = f.clone();
                let flip = rng.index(dim);
                near[flip] = -near[flip] + 0.1;
                probes.push(near);
            }
            for probe in &probes {
                let word = reference.abstract_word(probe);
                let packed = m.abstract_bitword(probe);
                assert_eq!(
                    m.contains_packed(&BitWord::from_bools(&word)),
                    reference.contains_word(&word),
                    "{backend:?} trial {trial} word {word:?}"
                );
                assert_eq!(
                    m.contains_packed(&packed),
                    reference.contains_word(&word),
                    "{backend:?} trial {trial} packed {packed:?}"
                );
            }
        }
    }
}

#[test]
fn hamming_tolerance_matches_reference_across_both_backends() {
    let mut rng = Prng::seed(1003);
    for trial in 0..20 {
        let dim = 2 + rng.index(40);
        let thresholds = rng.uniform_vec(dim, -1.0, 1.0);
        for backend in BACKENDS {
            let (_, mut m) = monitor_pair(dim, &thresholds, backend);
            let mut reference = ReferenceStore::new(thresholds.clone());
            for _ in 0..1 + rng.index(15) {
                let features = rng.uniform_vec(dim, -2.0, 2.0);
                m.absorb_point(&features).unwrap();
                reference.absorb_point(&features);
            }
            for _ in 0..15 {
                let probe = rng.uniform_vec(dim, -2.0, 2.0);
                let word = reference.abstract_word(&probe);
                let packed = BitWord::from_bools(&word);
                for tau in 0..4 {
                    let expected = reference.contains_within(&word, tau);
                    assert_eq!(
                        m.contains_within_packed(&packed, tau),
                        expected,
                        "{backend:?} trial {trial} tau {tau} (packed)"
                    );
                }
            }
        }
    }
}

#[test]
fn robust_cube_insertion_matches_reference_expansion() {
    let mut rng = Prng::seed(1004);
    for trial in 0..20 {
        let dim = 2 + rng.index(24);
        // Thresholds at 0 so cubes can be steered through interval bounds.
        let thresholds = vec![0.0; dim];
        for backend in BACKENDS {
            let (_, mut m) = monitor_pair(dim, &thresholds, backend);
            let mut reference = ReferenceStore::new(thresholds.clone());
            for _ in 0..1 + rng.index(8) {
                let cube = random_cube(&mut rng, dim, 6);
                // Realize the cube as interval bounds: determined bits get a
                // definite sign, don't-cares straddle the threshold.
                let (lo, hi): (Vec<f64>, Vec<f64>) = cube
                    .iter()
                    .map(|l| match l {
                        Some(true) => (0.5, 1.0),
                        Some(false) => (-1.0, -0.5),
                        None => (-0.5, 0.5),
                    })
                    .unzip();
                assert_eq!(
                    cube_of_bounds(&lo, &hi, &thresholds),
                    cube,
                    "cube realization"
                );
                m.absorb_bounds(&napmon_absint::BoxBounds::new(lo, hi))
                    .unwrap();
                reference.absorb_cube(&cube);
            }
            assert_eq!(
                m.pattern_count(),
                reference.words.len() as f64,
                "{backend:?} trial {trial} pattern count"
            );
            for _ in 0..30 {
                let word: Vec<bool> = (0..dim).map(|_| rng.chance(0.5)).collect();
                assert_eq!(
                    m.contains_packed(&BitWord::from_bools(&word)),
                    reference.contains_word(&word),
                    "{backend:?} trial {trial} word {word:?}"
                );
            }
        }
    }
}

#[test]
fn interval_monitor_packed_encoding_matches_unpacked_symbols() {
    let mut rng = Prng::seed(1005);
    for _ in 0..20 {
        let dim = 1 + rng.index(20);
        let bits = 1 + rng.index(3);
        let per_neuron = (1usize << bits) - 1;
        let thresholds: Vec<Vec<f64>> = (0..dim)
            .map(|_| {
                let mut t = rng.uniform_vec(per_neuron, -1.0, 1.0);
                t.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
                for i in 1..t.len() {
                    if t[i] <= t[i - 1] {
                        t[i] = t[i - 1] + 1e-9;
                    }
                }
                t
            })
            .collect();
        let net = Network::seeded(7, 2, &[LayerSpec::dense(dim, Activation::Relu)]);
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        let mut m = PatternMonitor::empty(fx, bits, thresholds, PatternBackend::Bdd).unwrap();
        let train: Vec<Vec<f64>> = (0..10).map(|_| rng.uniform_vec(dim, -2.0, 2.0)).collect();
        for f in &train {
            m.absorb_point(f).unwrap();
        }
        for _ in 0..30 {
            let probe = rng.uniform_vec(dim, -2.0, 2.0);
            // Reference encoding: symbols flattened MSB-first, as the seed
            // implementation did.
            let reference: Vec<bool> = (0..dim)
                .map(|j| m.symbol(j, probe[j]))
                .flat_map(|s| (0..bits).rev().map(move |b| (s >> b) & 1 == 1))
                .collect();
            let packed = m.abstract_bitword(&probe);
            assert_eq!(packed.to_bools(), reference);
            assert_eq!(
                m.contains_packed(&BitWord::from_bools(&reference)),
                m.contains_packed(&packed)
            );
        }
    }
}

#[test]
fn query_batch_agrees_with_sequential_verdicts() {
    let net = Network::seeded(
        51,
        4,
        &[
            LayerSpec::dense(24, Activation::Relu),
            LayerSpec::dense(12, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(1006);
    let train: Vec<Vec<f64>> = (0..96).map(|_| rng.uniform_vec(4, -0.5, 0.5)).collect();
    let probes: Vec<Vec<f64>> = (0..200).map(|_| rng.uniform_vec(4, -1.5, 1.5)).collect();
    for kind in [
        MonitorKind::min_max(),
        MonitorKind::pattern(),
        MonitorKind::pattern_with(
            napmon_core::ThresholdPolicy::Mean,
            PatternBackend::HashSet,
            1,
        ),
        MonitorKind::interval(2),
    ] {
        let m = MonitorSpec::new(4, kind.clone())
            .build(&net, &train)
            .unwrap();
        let sequential: Vec<_> = probes.iter().map(|x| m.verdict(&net, x).unwrap()).collect();
        let batch = m.query_batch(&net, &probes).unwrap();
        assert_eq!(batch, sequential, "{kind:?} batch != sequential");
        // Scratch-path single queries agree too.
        let mut scratch = QueryScratch::new();
        for (x, expected) in probes.iter().zip(&sequential) {
            let got = m.verdict_scratch(&net, x, &mut scratch).unwrap();
            assert_eq!(&got, expected, "{kind:?} scratch verdict");
        }
    }
}

/// The bit-sliced batch kernel engages for hash-backed monitors with
/// `tau > 0`; pin it against per-input verdicts at widths that cross the
/// 64-bit limb boundary and at every tau the kernel's counter planes cover.
#[test]
fn sliced_batch_kernel_agrees_with_sequential_across_limb_boundary() {
    let mut rng = Prng::seed(1009);
    for width in [63, 64, 65, 100] {
        let net = Network::seeded(
            60 + width as u64,
            4,
            &[
                LayerSpec::dense(width, Activation::Relu),
                LayerSpec::dense(3, Activation::Identity),
            ],
        );
        let train: Vec<Vec<f64>> = (0..300).map(|_| rng.uniform_vec(4, -0.5, 0.5)).collect();
        let probes: Vec<Vec<f64>> = (0..150).map(|_| rng.uniform_vec(4, -1.5, 1.5)).collect();
        for tau in 1..4usize {
            let m = MonitorSpec::new(
                2,
                MonitorKind::pattern_with(
                    napmon_core::ThresholdPolicy::Mean,
                    PatternBackend::HashSet,
                    tau,
                ),
            )
            .build(&net, &train)
            .unwrap();
            let sequential: Vec<_> = probes.iter().map(|x| m.verdict(&net, x).unwrap()).collect();
            let batch = m.query_batch(&net, &probes).unwrap();
            assert_eq!(batch, sequential, "width {width} tau {tau}");
        }
    }
}

#[test]
fn batch_apis_propagate_dimension_errors() {
    let net = Network::seeded(51, 4, &[LayerSpec::dense(8, Activation::Relu)]);
    let mut rng = Prng::seed(1007);
    let train: Vec<Vec<f64>> = (0..16).map(|_| rng.uniform_vec(4, -0.5, 0.5)).collect();
    let m = MonitorSpec::new(2, MonitorKind::pattern())
        .build(&net, &train)
        .unwrap();
    let bad = vec![vec![0.0; 4], vec![0.0; 3]];
    assert!(m.query_batch(&net, &bad).is_err());
}

#[test]
fn multi_layer_and_per_class_batches_agree_with_sequential() {
    let net = Network::seeded(
        52,
        3,
        &[
            LayerSpec::dense(10, Activation::Relu),
            LayerSpec::dense(6, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(1008);
    let train: Vec<Vec<f64>> = (0..64).map(|_| rng.uniform_vec(3, -0.5, 0.5)).collect();
    let probes: Vec<Vec<f64>> = (0..120).map(|_| rng.uniform_vec(3, -1.5, 1.5)).collect();

    let member = |layer, kind| {
        let spec = MonitorSpec::new(layer, kind);
        spec.build(&net, &train)
            .unwrap()
            .as_single()
            .cloned()
            .unwrap()
    };
    let members = vec![
        member(2, MonitorKind::pattern()),
        member(4, MonitorKind::min_max()),
    ];
    let mm = napmon_core::ComposedMonitor::MultiLayer(napmon_core::MultiLayerMonitor::new(
        members,
        napmon_core::Vote::Any,
    ));
    let sequential: Vec<_> = probes
        .iter()
        .map(|x| mm.verdict(&net, x).unwrap())
        .collect();
    assert_eq!(mm.query_batch(&net, &probes).unwrap(), sequential);

    let labels: Vec<usize> = train.iter().map(|x| net.predict_class(x)).collect();
    if labels.contains(&0) && labels.contains(&1) {
        let pc = MonitorSpec::new(4, MonitorKind::pattern())
            .per_class(2)
            .build_with_labels(&net, &train, &labels)
            .unwrap();
        let sequential: Vec<_> = probes
            .iter()
            .map(|x| pc.verdict(&net, x).unwrap())
            .collect();
        assert_eq!(pc.query_batch(&net, &probes).unwrap(), sequential);
    }
}
