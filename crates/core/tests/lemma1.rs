//! Property tests for the paper's Lemma 1 — the provable-robustness claim.
//!
//! Lemma 1: if a robust monitor `M⟨G,k,kp,Δ⟩` warns on `v_op`, then there is
//! **no** training input `v_tr` with `|G^{kp}_j(v_op) − G^{kp}_j(v_tr)| ≤ Δ`
//! for all `j`. We test the contrapositive, which is how the guarantee is
//! used in practice: any operational input that *is* `Δ`-close (at boundary
//! `kp`) to some training input must not trigger a warning.

use napmon_absint::Domain;
use napmon_core::{Monitor, MonitorKind, MonitorSpec, QueryScratch, Vote, WatchedLayer};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_tensor::Prng;
use proptest::prelude::*;

fn network(seed: u64) -> Network {
    Network::seeded(
        seed,
        3,
        &[
            LayerSpec::dense(10, Activation::Relu),
            LayerSpec::dense(6, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    )
}

fn training_set(seed: u64, n: usize) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(seed);
    (0..n).map(|_| rng.uniform_vec(3, -1.0, 1.0)).collect()
}

/// All monitor kinds exercised against Lemma 1.
fn kinds() -> Vec<MonitorKind> {
    vec![
        MonitorKind::min_max(),
        MonitorKind::pattern(),
        MonitorKind::interval(2),
        MonitorKind::interval(3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Perturbation at the input layer (kp = 0): for every monitor family,
    /// every Δ-bounded input perturbation of a training point is accepted.
    #[test]
    fn lemma1_input_layer_perturbations(
        net_seed in 0u64..500,
        data_seed in 0u64..500,
        delta in 0.001f64..0.2,
        pick in 0usize..24,
        dir in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        let net = network(net_seed);
        let data = training_set(data_seed, 24);
        for kind in kinds() {
            let monitor = MonitorSpec::new(4, kind.clone()).robust(delta, 0, Domain::Box).build(&net, &data)
                .unwrap();
            let base = &data[pick % data.len()];
            let v_op: Vec<f64> = base.iter().zip(&dir).map(|(b, d)| b + d * delta).collect();
            prop_assert!(
                !monitor.warns(&net, &v_op).unwrap(),
                "{kind:?} warned on a Δ-close input (Δ = {delta})"
            );
        }
    }

    /// Lemma 1 through composites (kp = 0): a robust multi-layer monitor
    /// over boundaries 2 and 4 never warns on a Δ-close probe, under any
    /// vote, through `warns` and `query_batch`; a far-out probe (an
    /// infinite coordinate) warns, so a composite that never warns fails. A per-class monitor joins only
    /// for probes whose predicted class is their training point's: a
    /// perturbation that flips the predicted class routes to another
    /// class's member, and Lemma 1 promises nothing there.
    #[test]
    fn lemma1_holds_through_composites(
        net_seed in 0u64..500,
        data_seed in 0u64..500,
        delta in 0.001f64..0.2,
        pick in 0usize..24,
        dir in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        let net = network(net_seed);
        let data = training_set(data_seed, 24);
        let base = &data[pick % data.len()];
        let v_op: Vec<f64> = base.iter().zip(&dir).map(|(b, d)| b + d * delta).collect();
        // Farther than any Δ from every training point, whatever the
        // kind: a finite probe far out can still share a training point's
        // pattern, since sign words are scale-invariant.
        let far = vec![0.0, f64::INFINITY, 0.0];
        let same_class = net.predict_class(&v_op) == net.predict_class(base);
        for kind in kinds() {
            let mut composites = Vec::new();
            for vote in [Vote::Any, Vote::All, Vote::AtLeast(1)] {
                let layers = vec![WatchedLayer::whole(2), WatchedLayer::whole(4)];
                let spec = MonitorSpec::multi_layer(layers, kind.clone(), vote);
                let monitor = spec.robust(delta, 0, Domain::Box).build(&net, &data).unwrap();
                composites.push((format!("{vote:?}"), monitor, true));
            }
            // Skipped when the training set predicts one class only.
            let per_class = MonitorSpec::new(4, kind.clone()).robust(delta, 0, Domain::Box);
            if let Ok(monitor) = per_class.per_class(2).build(&net, &data) {
                composites.push(("per-class".to_string(), monitor, same_class));
            }
            for (label, monitor, promised) in composites {
                let batch = monitor.query_batch(&net, &[v_op.clone(), far.clone()]).unwrap();
                if promised {
                    prop_assert!(
                        !monitor.warns(&net, &v_op).unwrap() && !batch[0].warning,
                        "{kind:?} {label} warned on a Δ-close input (Δ = {delta})"
                    );
                }
                prop_assert!(
                    monitor.warns(&net, &far).unwrap() && batch[1].warning,
                    "{kind:?} {label} let a far-out input through"
                );
            }
        }
    }

    /// Perturbation at a hidden boundary (kp = 2): closeness is measured in
    /// feature space `G^{kp}`; we construct v_op = v_tr (exactly Δ-close for
    /// any Δ) plus check feature-space-perturbed queries via the feature
    /// interface.
    #[test]
    fn lemma1_hidden_boundary_perturbations(
        net_seed in 0u64..500,
        data_seed in 0u64..500,
        delta in 0.001f64..0.1,
        pick in 0usize..16,
        dir_seed in 0u64..1000,
    ) {
        let net = network(net_seed);
        let data = training_set(data_seed, 16);
        let kp = 2usize;
        let k = 4usize;
        for kind in kinds() {
            let monitor = MonitorSpec::new(k, kind.clone()).robust(delta, kp, Domain::Box).build(&net, &data)
                .unwrap();
            // Perturb the layer-kp image directly and push it to layer k:
            // this is exactly the v̆ of Definition 1.
            let mut rng = Prng::seed(dir_seed);
            let at_kp = net.forward_prefix(&data[pick % data.len()], kp);
            let perturbed: Vec<f64> = at_kp.iter().map(|&v| v + rng.uniform(-delta, delta)).collect();
            let features = net.forward_range(&perturbed, kp, k);
            prop_assert!(
                !monitor.verdict_features_scratch(&features, &mut QueryScratch::new()).warning,
                "{kind:?} warned on a feature-space Δ-close point"
            );
        }
    }

    /// Monotonicity in Δ: a monitor built with a larger Δ accepts
    /// everything a smaller-Δ monitor accepts.
    #[test]
    fn robust_monitors_are_monotone_in_delta(
        net_seed in 0u64..200,
        data_seed in 0u64..200,
        d_small in 0.001f64..0.05,
        growth in 1.5f64..4.0,
        probe in proptest::collection::vec(-1.5f64..1.5, 3),
    ) {
        let net = network(net_seed);
        let data = training_set(data_seed, 16);
        let d_large = d_small * growth;
        for kind in kinds() {
            let small = MonitorSpec::new(4, kind.clone()).robust(d_small, 0, Domain::Box).build(&net, &data)
                .unwrap();
            let large = MonitorSpec::new(4, kind.clone()).robust(d_large, 0, Domain::Box).build(&net, &data)
                .unwrap();
            // If the small monitor accepts, the large one must too.
            if !small.warns(&net, &probe).unwrap() {
                prop_assert!(
                    !large.warns(&net, &probe).unwrap(),
                    "{kind:?} not monotone in Δ"
                );
            }
        }
    }

    /// Standard monitors are a special case: robust construction with
    /// Δ = 0 accepts exactly what the standard construction accepts
    /// (up to the outward rounding absorbed into the abstraction).
    #[test]
    fn zero_delta_matches_standard_on_training_data(
        net_seed in 0u64..200,
        data_seed in 0u64..200,
    ) {
        let net = network(net_seed);
        let data = training_set(data_seed, 16);
        for kind in kinds() {
            let standard = MonitorSpec::new(4, kind.clone()).build(&net, &data).unwrap();
            let zero = MonitorSpec::new(4, kind.clone()).robust(0.0, 0, Domain::Box).build(&net, &data)
                .unwrap();
            for x in &data {
                prop_assert!(!standard.warns(&net, x).unwrap());
                prop_assert!(!zero.warns(&net, x).unwrap());
            }
        }
    }
}

/// Lemma 1 with the tighter domains: the guarantee is domain-independent.
#[test]
fn lemma1_holds_for_all_domains() {
    let net = network(77);
    let data = training_set(78, 12);
    let delta = 0.05;
    let mut rng = Prng::seed(79);
    for domain in Domain::ALL {
        let monitor = MonitorSpec::new(4, MonitorKind::pattern())
            .robust(delta, 0, domain)
            .build(&net, &data)
            .unwrap();
        for base in &data {
            for _ in 0..5 {
                let v_op: Vec<f64> = base
                    .iter()
                    .map(|&b| b + rng.uniform(-delta, delta))
                    .collect();
                assert!(
                    !monitor.warns(&net, &v_op).unwrap(),
                    "{domain} violated Lemma 1"
                );
            }
        }
    }
}

/// The robustness/selectivity trade-off direction: robust monitors accept a
/// superset of the standard monitor's accepted patterns.
#[test]
fn robust_accepts_superset_of_standard() {
    let net = network(101);
    let data = training_set(102, 32);
    let mut rng = Prng::seed(103);
    for kind in kinds() {
        let standard = MonitorSpec::new(4, kind.clone())
            .build(&net, &data)
            .unwrap();
        let robust = MonitorSpec::new(4, kind.clone())
            .robust(0.08, 0, Domain::Box)
            .build(&net, &data)
            .unwrap();
        for _ in 0..200 {
            let probe = rng.uniform_vec(3, -2.0, 2.0);
            if !standard.warns(&net, &probe).unwrap() {
                assert!(
                    !robust.warns(&net, &probe).unwrap(),
                    "{kind:?}: robust warned where standard accepted"
                );
            }
        }
    }
}
