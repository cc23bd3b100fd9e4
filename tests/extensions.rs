//! Integration tests for the extension features: monitor persistence,
//! quantitative scores with ROC analysis, and multi-layer voting monitors.

use napmon::absint::Domain;
use napmon::core::{
    AnyMonitor, ComposedMonitor, Monitor, MonitorKind, MonitorSpec, QueryScratch, ScoredMonitor,
    Vote, WatchedLayer,
};
use napmon::eval::{auc, roc, scores};
use napmon::nn::{Activation, LayerSpec, Network};
use napmon::tensor::Prng;

#[allow(clippy::type_complexity)]
fn setup() -> (Network, Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let net = Network::seeded(
        91,
        3,
        &[
            LayerSpec::dense(12, Activation::Relu),
            LayerSpec::dense(6, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(92);
    let train: Vec<Vec<f64>> = (0..128).map(|_| rng.uniform_vec(3, -0.5, 0.5)).collect();
    let test: Vec<Vec<f64>> = (0..64).map(|_| rng.uniform_vec(3, -0.5, 0.5)).collect();
    let ood: Vec<Vec<f64>> = (0..64).map(|_| rng.uniform_vec(3, 2.0, 4.0)).collect();
    (net, train, test, ood)
}

/// The single-boundary monitor `spec` builds over `train`.
fn single(spec: MonitorSpec, net: &Network, train: &[Vec<f64>]) -> AnyMonitor {
    spec.build(net, train)
        .unwrap()
        .as_single()
        .cloned()
        .unwrap()
}

#[test]
fn monitors_round_trip_through_json() {
    let (net, train, test, _) = setup();
    for kind in [
        MonitorKind::min_max(),
        MonitorKind::pattern(),
        MonitorKind::interval(2),
    ] {
        let spec = MonitorSpec::new(4, kind).robust(0.02, 0, Domain::Box);
        let monitor = single(spec, &net, &train);
        let json = serde_json::to_string(&monitor).unwrap();
        let back: AnyMonitor = serde_json::from_str(&json).unwrap();
        for x in train.iter().chain(&test) {
            assert_eq!(
                monitor.warns(&net, x).unwrap(),
                back.warns(&net, x).unwrap()
            );
        }
    }
}

#[test]
fn deserialized_pattern_monitor_keeps_absorbing() {
    // The rebuilt BDD unique table must stay consistent: inserting after a
    // round trip behaves like inserting into the original.
    let (net, train, _, _) = setup();
    let monitor = single(
        MonitorSpec::new(4, MonitorKind::pattern()),
        &net,
        &train[..64],
    );
    let json = serde_json::to_string(&monitor).unwrap();
    let back: AnyMonitor = serde_json::from_str(&json).unwrap();
    let (mut orig, mut copy) = (
        monitor.as_pattern().unwrap().clone(),
        back.as_pattern().unwrap().clone(),
    );
    for x in &train[64..] {
        let f = orig.extractor().features(&net, x).unwrap();
        orig.absorb_point(&f).unwrap();
        copy.absorb_point(&f).unwrap();
    }
    assert_eq!(orig.pattern_count(), copy.pattern_count());
}

#[test]
fn quantitative_scores_yield_high_auc_on_far_ood() {
    use napmon::core::{PatternBackend, ThresholdPolicy};
    let (net, train, test, ood) = setup();
    // Mean thresholds: sign thresholds degenerate on post-ReLU layers.
    let pattern = MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0);
    // Continuous min-max distances separate sharply; Hamming distances over
    // a 6-neuron pattern space are coarse, so the bar is lower there.
    for (kind, min_auc) in [
        (MonitorKind::min_max(), 0.9),
        (pattern, 0.55),
        (MonitorKind::interval(2), 0.55),
    ] {
        let monitor = single(MonitorSpec::new(4, kind.clone()), &net, &train);
        let neg = scores(&monitor, &net, &test);
        let pos = scores(&monitor, &net, &ood);
        let curve = roc(&neg, &pos);
        let area = auc(&curve);
        assert!(area > min_auc, "{kind:?}: auc {area} <= {min_auc}");
    }
}

#[test]
fn scores_refine_the_binary_verdict() {
    let (net, train, _, _) = setup();
    let monitor = single(MonitorSpec::new(4, MonitorKind::min_max()), &net, &train);
    let mut rng = Prng::seed(93);
    let mut scratch = QueryScratch::new();
    for _ in 0..200 {
        let probe = rng.uniform_vec(3, -2.0, 2.0);
        let features = monitor.extractor().features(&net, &probe).unwrap();
        assert_eq!(
            monitor
                .verdict_features_scratch(&features, &mut scratch)
                .warning,
            monitor.score_features(&features) > 0.0
        );
    }
}

#[test]
fn multi_layer_vote_reduces_false_positives() {
    let (net, train, test, ood) = setup();
    let voted = |vote| {
        let layers = vec![WatchedLayer::whole(2), WatchedLayer::whole(4)];
        let spec = MonitorSpec::multi_layer(layers, MonitorKind::pattern(), vote);
        spec.build(&net, &train).unwrap()
    };
    let (any, all) = (voted(Vote::Any), voted(Vote::All));

    let rate = |mm: &ComposedMonitor, xs: &[Vec<f64>]| -> f64 {
        xs.iter().filter(|x| mm.warns(&net, x).unwrap()).count() as f64 / xs.len() as f64
    };
    // ALL-votes warn on a subset of what ANY-votes warn on.
    assert!(rate(&all, &test) <= rate(&any, &test) + 1e-12);
    assert!(rate(&all, &ood) <= rate(&any, &ood) + 1e-12);
    // Training data stays silent under both.
    assert_eq!(rate(&any, &train), 0.0);
}

#[test]
fn multi_layer_serde_round_trip() {
    let (net, train, test, _) = setup();
    let m2 = single(MonitorSpec::new(2, MonitorKind::min_max()), &net, &train);
    let m4 = single(MonitorSpec::new(4, MonitorKind::interval(2)), &net, &train);
    let mm = ComposedMonitor::MultiLayer {
        members: vec![m2, m4],
        vote: Vote::AtLeast(1),
    };
    let json = serde_json::to_string(&mm).unwrap();
    let back: ComposedMonitor = serde_json::from_str(&json).unwrap();
    for x in &test {
        assert_eq!(mm.warns(&net, x).unwrap(), back.warns(&net, x).unwrap());
    }
}
