//! The `napmon` facade re-exports every subsystem; these tests pin the
//! public paths a downstream user would import.

use napmon::absint::{propagate_bounds, BoxBounds, Domain, Interval, Simplex, StarSet, Zonotope};
use napmon::bdd::{to_dot, Bdd};
use napmon::core::{
    perturbation_estimate, FeatureExtractor, MinMaxMonitor, Monitor, MonitorKind, MonitorSpec,
    PatternMonitor, ThresholdPolicy,
};
use napmon::data::{
    gaussian::GaussianClusters, shapes::ShapesConfig, Dataset, Image, OodScenario, TrackConfig,
    TrackSampler,
};
use napmon::eval::{warn_rate, Table};
use napmon::nn::{Activation, Conv2d, Dense, Layer, LayerSpec, MaxPool2d, Network};
use napmon::tensor::{vector, Matrix, Prng};

#[test]
fn every_major_type_is_reachable_through_the_facade() {
    // tensor
    let m = Matrix::identity(2);
    assert_eq!(vector::dot(&m.matvec(&[1.0, 2.0]), &[1.0, 0.0]), 1.0);
    let mut rng = Prng::seed(0);

    // nn
    let net = Network::seeded(1, 2, &[LayerSpec::dense(3, Activation::Relu)]);
    assert_eq!(net.output_dim(), 3);
    let _: (
        &[Layer],
        Option<&Dense>,
        Option<&Conv2d>,
        Option<&MaxPool2d>,
    ) = (net.layers(), None, None, None);

    // absint
    let iv = Interval::new(0.0, 1.0);
    assert!(iv.contains(0.5));
    let b = BoxBounds::from_center_radius(&[0.0, 0.0], 0.1);
    let out = propagate_bounds(&net, 0, net.num_layers(), &b, Domain::Box);
    assert_eq!(out.dim(), 3);
    let _z = Zonotope::from_box(&b);
    let _s = StarSet::from_box(&b);
    let lp = Simplex::new(1).less_equal(&[1.0], 1.0);
    assert!((lp.maximize(&[1.0]).unwrap().objective - 1.0).abs() < 1e-9);

    // bdd
    let mut bdd = Bdd::new(2);
    let x = bdd.var(0);
    assert!(to_dot(&bdd, x).contains("digraph"));

    // core
    let fx = FeatureExtractor::new(&net, 1).unwrap();
    let _mm = MinMaxMonitor::empty(fx.clone());
    let bdd = napmon::core::PatternBackend::Bdd;
    let _pm = PatternMonitor::empty(fx.clone(), 1, vec![vec![0.0]; 3], bdd).unwrap();
    let _im = PatternMonitor::empty(fx, 2, vec![vec![0.0, 1.0, 2.0]; 3], bdd).unwrap();
    let pe = perturbation_estimate(&net, &[0.1, 0.2], 0, 1, 0.05, Domain::Box).unwrap();
    assert_eq!(pe.dim(), 3);

    // data
    let img = Image::filled(2, 2, 0.5);
    assert_eq!(img.pixels().len(), 4);
    let mut sampler = TrackSampler::new(TrackConfig::default(), 1);
    let ds: Dataset = sampler.dataset(4);
    assert_eq!(ds.len(), 4);
    let _ = OodScenario::Dark.apply(&img, &mut rng);
    let g = GaussianClusters::ring(3, 2, 2.0, 0.1);
    assert_eq!(g.num_classes(), 3);
    let shapes = ShapesConfig::default();
    assert_eq!(shapes.input_dim(), 144);

    // eval
    let data: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 8.0, 0.1]).collect();
    let monitor = MonitorSpec::new(
        1,
        MonitorKind::pattern_with(ThresholdPolicy::Mean, napmon::core::PatternBackend::Bdd, 0),
    )
    .build(&net, &data)
    .unwrap();
    assert_eq!(warn_rate(&monitor, &net, &data), 0.0);
    let mut table = Table::new(vec!["k".into(), "v".into()]);
    table.row(vec!["a".into(), "b".into()]);
    assert!(table.to_string().contains('a'));
    let _ = monitor.verdict(&net, &data[0]).unwrap();
}

#[test]
fn gaussian_per_class_monitoring_detects_phantom_cluster() {
    // A compact end-to-end classification scenario entirely through the
    // facade: per-class monitors on Gaussian clusters flag samples from an
    // unseen cluster at a far higher rate than in-distribution data.
    use napmon::nn::{Loss, Optimizer, Trainer};
    let g = GaussianClusters::ring(3, 2, 4.0, 0.3);
    let mut rng = Prng::seed(37);
    let train = g.dataset(120, &mut rng);
    let test = g.dataset(40, &mut rng);
    let ood = g.ood_inputs(120, &mut rng);

    let mut net = Network::seeded(
        8,
        2,
        &[
            LayerSpec::dense(16, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    );
    Trainer::new(Loss::SoftmaxCrossEntropy, Optimizer::adam(0.01))
        .epochs(30)
        .run(&mut net, &train.inputs, &train.targets, 3);

    let labels = train.labels.as_ref().unwrap();
    let pc = MonitorSpec::new(net.penultimate_boundary(), MonitorKind::min_max())
        .per_class(3)
        .build_with_labels(&net, &train.inputs, labels)
        .unwrap();

    let rate = |xs: &[Vec<f64>]| warn_rate(&pc, &net, xs);
    let fp = rate(&test.inputs);
    let det = rate(&ood);
    assert!(det > fp, "detection {det} should exceed FP {fp}");
    assert!(det > 0.5, "phantom cluster detection too low: {det}");
}
