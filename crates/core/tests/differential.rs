//! Differential tests: every batched query path must be **bit-identical**
//! to the sequential scratch loop ([`Monitor::verdict_scratch`], one input
//! at a time through one scratch).
//!
//! Covers all monitor families × pattern backends (standard and robust
//! construction), so a row-stitching bug in a batch kernel — or any
//! scratch-reuse bug that lets one query's state leak into the next —
//! cannot land silently.

use napmon_absint::Domain;
use napmon_core::{
    perturbation_estimate, shared_source, ComposedMonitor, MemoryPatternSource, Monitor,
    MonitorError, MonitorKind, MonitorSpec, PatternBackend, QueryScratch, SharedPatternSource,
    ThresholdPolicy, Verdict, Violation, Vote,
};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_tensor::Prng;

fn net() -> Network {
    Network::seeded(
        77,
        5,
        &[
            LayerSpec::dense(14, Activation::Relu),
            LayerSpec::dense(8, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    )
}

fn train_data(n: usize) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(500);
    (0..n).map(|_| rng.uniform_vec(5, -0.8, 0.8)).collect()
}

/// Mixed traffic: in-distribution probes plus out-of-distribution outliers,
/// so both the all-clear and the warning (evidence-building) paths run.
fn probes(n: usize) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(900);
    (0..n)
        .map(|i| {
            if i % 5 == 4 {
                rng.uniform_vec(5, 5.0, 9.0)
            } else {
                rng.uniform_vec(5, -1.0, 1.0)
            }
        })
        .collect()
}

/// Every MonitorKind × PatternBackend combination.
fn all_kinds() -> Vec<(String, MonitorKind)> {
    let mut kinds = vec![
        ("min-max".to_string(), MonitorKind::min_max()),
        (
            "min-max gamma=0.1".to_string(),
            MonitorKind::min_max_enlarged(0.1),
        ),
        ("interval 2-bit".to_string(), MonitorKind::interval(2)),
        ("interval 3-bit".to_string(), MonitorKind::interval(3)),
    ];
    for backend in [PatternBackend::Bdd, PatternBackend::HashSet] {
        for hamming in [0usize, 1] {
            kinds.push((
                format!("pattern {backend:?} hamming={hamming}"),
                MonitorKind::pattern_with(ThresholdPolicy::Mean, backend, hamming),
            ));
        }
    }
    kinds
}

/// The reference: one scratch, one thread, one query at a time.
fn sequential_reference<M: Monitor + ?Sized>(
    monitor: &M,
    net: &Network,
    inputs: &[Vec<f64>],
) -> Vec<Verdict> {
    let mut scratch = QueryScratch::new();
    inputs
        .iter()
        .map(|x| monitor.verdict_scratch(net, x, &mut scratch).unwrap())
        .collect()
}

#[test]
fn batch_verdicts_are_bit_identical_to_sequential() {
    let net = net();
    let train = train_data(128);
    let inputs = probes(120);
    for robust in [false, true] {
        for (name, kind) in all_kinds() {
            let mut spec = MonitorSpec::new(4, kind);
            if robust {
                spec = spec.robust(0.03, 0, Domain::Box);
            }
            let monitor = spec.build(&net, &train).unwrap();
            assert_eq!(
                monitor.query_batch(&net, &inputs).unwrap(),
                sequential_reference(&monitor, &net, &inputs),
                "{name} (robust: {robust}): query_batch diverged"
            );
        }
    }
}

/// An independent reference for composites, rebuilt from the members'
/// own single verdicts: a multi-layer row warns when the vote over its
/// warning members says so, with their evidence in member order; a
/// per-class row is the predicted class's member verdict. Compared with
/// `query_batch` for mixed-kind members under every vote, and for
/// per-class monitors.
#[test]
fn composite_verdicts_match_a_reference_built_from_member_verdicts() {
    let net = net();
    let train = train_data(128);
    let inputs = probes(120);
    let member = |layer, kind| {
        let spec = MonitorSpec::new(layer, kind).robust(0.03, 0, Domain::Box);
        spec.build(&net, &train)
            .unwrap()
            .as_single()
            .cloned()
            .unwrap()
    };
    let pattern = MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::HashSet, 0);
    let members = vec![
        member(2, pattern.clone()),
        member(4, MonitorKind::min_max()),
        member(4, MonitorKind::interval(2)),
    ];
    let votes = [
        Vote::Any,
        Vote::All,
        Vote::AtLeast(1),
        Vote::AtLeast(2),
        Vote::AtLeast(3),
    ];
    for vote in votes {
        let expected: Vec<Verdict> = inputs
            .iter()
            .map(|x| {
                let warned: Vec<Verdict> = members
                    .iter()
                    .map(|m| m.verdict(&net, x).unwrap())
                    .filter(|v| v.warning)
                    .collect();
                let needed = match vote {
                    Vote::Any => 1,
                    Vote::All => members.len(),
                    Vote::AtLeast(k) => k,
                };
                if warned.len() >= needed {
                    Verdict::warn(warned.into_iter().flat_map(|v| v.violations).collect())
                } else {
                    Verdict::ok()
                }
            })
            .collect();
        assert!(expected.iter().any(|v| v.warning), "{vote:?}: no warnings");
        assert!(
            expected.iter().any(|v| !v.warning),
            "{vote:?}: all warnings"
        );
        let composite = ComposedMonitor::MultiLayer {
            members: members.clone(),
            vote,
        };
        assert_eq!(
            composite.query_batch(&net, &inputs).unwrap(),
            expected,
            "{vote:?}"
        );
    }

    // Round-robin training labels populate every class; queries still
    // route on the predicted class.
    let labels: Vec<usize> = (0..train.len()).map(|i| i % 3).collect();
    let per_class = MonitorSpec::new(4, pattern)
        .per_class(3)
        .build_with_labels(&net, &train, &labels)
        .unwrap();
    let expected: Vec<Verdict> = inputs
        .iter()
        .map(|x| {
            let class = net.predict_class(x);
            per_class.members()[class].verdict(&net, x).unwrap()
        })
        .collect();
    assert!(expected.iter().any(|v| v.warning) && expected.iter().any(|v| !v.warning));
    assert_eq!(per_class.query_batch(&net, &inputs).unwrap(), expected);
}

/// The on-off monitor is the 1-bit interval monitor: with the same explicit
/// thresholds, `interval_with(1, ..)` and `pattern_with(..)` build monitors
/// that agree verdict for verdict and pattern for pattern, in a BDD and
/// behind an external source, standard and robust.
#[test]
fn one_bit_interval_kind_is_the_on_off_monitor() {
    let net = net();
    let train = train_data(128);
    let inputs = probes(120);
    let mean = MonitorSpec::new(
        4,
        MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0),
    )
    .build(&net, &train)
    .unwrap();
    let lists: Vec<Vec<f64>> = mean.members()[0]
        .as_pattern()
        .unwrap()
        .thresholds()
        .iter()
        .map(|&c| vec![c])
        .collect();
    let explicit = || ThresholdPolicy::Explicit(lists.clone());
    let mut memory =
        |_member: usize, word_bits: usize| -> Result<SharedPatternSource, MonitorError> {
            Ok(shared_source(MemoryPatternSource::new(word_bits)))
        };
    for robust in [false, true] {
        for backend in [PatternBackend::Bdd, PatternBackend::Store] {
            let mut interval = MonitorSpec::new(4, MonitorKind::interval_with(1, explicit()));
            let mut on_off = MonitorSpec::new(4, MonitorKind::pattern_with(explicit(), backend, 0));
            if robust {
                interval = interval.robust(0.03, 0, Domain::Box);
                on_off = on_off.robust(0.03, 0, Domain::Box);
            }
            let (interval, on_off) = match backend {
                PatternBackend::Store => (
                    interval.build_with_sources(&net, &train, &mut memory),
                    on_off.build_with_sources(&net, &train, &mut memory),
                ),
                _ => (interval.build(&net, &train), on_off.build(&net, &train)),
            };
            let (interval, on_off) = (interval.unwrap(), on_off.unwrap());
            let label = format!("{backend:?} (robust: {robust})");
            let count = |m: &ComposedMonitor| m.members()[0].pattern_count().unwrap();
            assert!(
                count(&on_off) > 1.0,
                "{label}: a trivial monitor proves nothing"
            );
            assert_eq!(count(&interval), count(&on_off), "{label}: pattern counts");
            let verdicts = on_off.query_batch(&net, &inputs).unwrap();
            assert!(verdicts.iter().any(|v| v.warning), "{label}: no warnings");
            assert!(verdicts.iter().any(|v| !v.warning), "{label}: all warnings");
            assert_eq!(
                interval.query_batch(&net, &inputs).unwrap(),
                verdicts,
                "{label}: verdicts"
            );
        }
    }
}

/// Single-boundary monitors over every batch path, robust (Box, `Δ`) or
/// standard (`None`): pattern monitors on the hash, BDD and
/// external-source backends (one on a neuron subset), an interval-pattern
/// monitor and a min-max monitor (the trait's default batch path).
fn singles(
    net: &Network,
    train: &[Vec<f64>],
    delta: Option<f64>,
) -> Vec<(String, ComposedMonitor)> {
    let robust = |spec: MonitorSpec| match delta {
        Some(delta) => spec.robust(delta, 0, Domain::Box),
        None => spec,
    };
    let pattern = |backend| MonitorKind::pattern_with(ThresholdPolicy::Mean, backend, 0);
    let specs = [
        (
            "pattern hash",
            MonitorSpec::new(4, pattern(PatternBackend::HashSet)),
        ),
        (
            "pattern bdd",
            MonitorSpec::new(4, pattern(PatternBackend::Bdd)),
        ),
        (
            "pattern hash, neuron subset",
            MonitorSpec::new(4, pattern(PatternBackend::HashSet)).with_neurons(vec![6, 0, 3]),
        ),
        (
            "interval 2-bit",
            MonitorSpec::new(4, MonitorKind::interval(2)),
        ),
        ("min-max", MonitorSpec::new(4, MonitorKind::min_max())),
    ];
    let mut monitors: Vec<(String, ComposedMonitor)> = specs
        .into_iter()
        .map(|(name, spec)| (name.to_string(), robust(spec).build(net, train).unwrap()))
        .collect();
    let mut memory =
        |_member: usize, word_bits: usize| -> Result<SharedPatternSource, MonitorError> {
            Ok(shared_source(MemoryPatternSource::new(word_bits)))
        };
    let external = robust(MonitorSpec::new(4, pattern(PatternBackend::Store)))
        .build_with_sources(net, train, &mut memory)
        .unwrap();
    monitors.push(("pattern external source".to_string(), external));
    let construction = if delta.is_some() {
        "robust"
    } else {
        "standard"
    };
    for (name, _) in &mut monitors {
        *name = format!("{construction} {name}");
    }
    monitors
}

/// A batch of 23 rows (five blocks of four plus a remainder of three)
/// mixing Δ-ball samples around training points with all-NaN, all-±inf
/// and single-non-finite-entry rows, plus far-out finite rows so that
/// warnings (and their evidence) sit among the all-clears.
fn mixed_rows(train: &[Vec<f64>], delta: f64) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(4242);
    (0..23)
        .map(|i| {
            let base = &train[(i * 7) % train.len()];
            let mut x: Vec<f64> = base
                .iter()
                .map(|v| v + rng.uniform(-delta, delta))
                .collect();
            match i % 6 {
                1 => x = vec![f64::NAN; x.len()],
                2 if i % 4 == 0 => x = rng.uniform_vec(x.len(), 5.0, 9.0),
                3 => {
                    x = vec![
                        if i % 4 == 3 {
                            f64::INFINITY
                        } else {
                            f64::NEG_INFINITY
                        };
                        x.len()
                    ]
                }
                5 => {
                    let at = rng.index(x.len());
                    x[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i / 6];
                }
                _ => {}
            }
            x
        })
        .collect()
}

fn dimension_mismatch(err: MonitorError) -> (usize, usize) {
    match err {
        MonitorError::DimensionMismatch {
            expected, actual, ..
        } => (expected, actual),
        other => panic!("expected a dimension mismatch, got {other}"),
    }
}

#[test]
fn batch_rows_stay_independent_of_non_finite_neighbours() {
    let net = net();
    let delta = 0.03;
    let train = train_data(64);
    let inputs = mixed_rows(&train, delta);
    let monitors = [
        singles(&net, &train, None),
        singles(&net, &train, Some(delta)),
    ];
    for (name, monitor) in monitors.into_iter().flatten() {
        let (mut scratch, mut solo) = (QueryScratch::new(), QueryScratch::new());
        let mut out = Vec::new();
        monitor
            .verdict_batch_scratch(&net, &inputs, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.len(), inputs.len(), "{name}");
        for (i, x) in inputs.iter().enumerate() {
            let alone = monitor.verdict_scratch(&net, x, &mut solo).unwrap();
            assert_eq!(
                out[i], alone,
                "{name}: row {i} differs from its solo verdict"
            );
            // A non-finite row fails closed, naming its first bad
            // coordinate.
            if let Some(coordinate) = x.iter().position(|v| !v.is_finite()) {
                let non_finite = Verdict::warn(vec![Violation::NonFinite { coordinate }]);
                assert_eq!(alone, non_finite, "{name}: row {i}");
            }
        }
    }
}

#[test]
fn wrong_length_row_anywhere_fails_like_the_per_input_loop() {
    let net = net();
    let delta = 0.03;
    let train = train_data(64);
    let inputs = mixed_rows(&train, delta);
    for (name, monitor) in singles(&net, &train, Some(delta)) {
        for at in [0, 5, 12, inputs.len()] {
            let mut batch = inputs.clone();
            // A malformed row is an error even when it is non-finite too.
            let fill = if at % 2 == 0 { 0.5 } else { f64::NAN };
            batch.insert(at, vec![fill; 4]);
            // A later malformed row must not be the one reported.
            batch.push(vec![0.5; 9]);
            let mut scratch = QueryScratch::new();
            let looped = batch
                .iter()
                .map(|x| monitor.verdict_scratch(&net, x, &mut scratch))
                .find_map(Result::err)
                .expect("the per-input loop rejects the batch");
            let mut out = Vec::new();
            let batched = monitor
                .verdict_batch_scratch(&net, &batch, &mut scratch, &mut out)
                .unwrap_err();
            assert_eq!(
                dimension_mismatch(batched),
                dimension_mismatch(looped),
                "{name}: bad row at {at}"
            );
        }
    }
}

/// Training-set sizes on both sides of the box kernel's 8-lane chunk and
/// of the 64-sample threshold where the `parallel` hint engages.
const BUILD_SIZES: [usize; 6] = [1, 7, 8, 9, 17, 69];

/// The robust build, pinned independently of the batched bounds kernel: a
/// robust min-max monitor's bounds are, bit for bit, the hull of the
/// projected one-point `perturbation_estimate`s of its training samples,
/// for every domain, at the input and a hidden boundary, serial and
/// parallel, at every size.
#[test]
fn robust_min_max_build_is_the_hull_of_one_point_estimates() {
    let net = net();
    let (layer, neurons, delta) = (4, vec![5, 0, 3], 0.02);
    for n in BUILD_SIZES {
        let train = train_data(n);
        for domain in Domain::ALL {
            for kp in [0, 2] {
                let mut lo = vec![f64::INFINITY; neurons.len()];
                let mut hi = vec![f64::NEG_INFINITY; neurons.len()];
                for x in &train {
                    let pe = perturbation_estimate(&net, x, kp, layer, delta, domain).unwrap();
                    for (j, &i) in neurons.iter().enumerate() {
                        lo[j] = lo[j].min(pe.lo()[i]);
                        hi[j] = hi[j].max(pe.hi()[i]);
                    }
                }
                for parallel in [false, true] {
                    let spec = MonitorSpec::new(layer, MonitorKind::min_max())
                        .with_neurons(neurons.clone())
                        .robust(delta, kp, domain)
                        .parallel(parallel);
                    let built = spec.build(&net, &train).unwrap();
                    let m = built.as_single().and_then(|m| m.as_min_max()).unwrap();
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let at = format!("{domain}, kp={kp}, parallel={parallel}, {n} samples");
                    assert_eq!(bits(m.lo()), bits(&lo), "lo: {at}");
                    assert_eq!(bits(m.hi()), bits(&hi), "hi: {at}");
                }
            }
        }
    }
}

/// A robust pattern build writes the same bytes with the `parallel` hint
/// as without it, for hash-set and BDD on-off monitors and the BDD
/// interval monitor at B = 2.
#[test]
fn robust_pattern_builds_serialize_alike_serial_and_parallel() {
    let net = net();
    let kinds = [
        MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::HashSet, 0),
        MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0),
        MonitorKind::interval(2),
    ];
    for n in BUILD_SIZES {
        let train = train_data(n);
        for kind in &kinds {
            let spec = MonitorSpec::new(4, kind.clone()).robust(0.03, 0, Domain::Box);
            let bytes = |spec: &MonitorSpec| {
                serde_json::to_string(&spec.build(&net, &train).unwrap()).unwrap()
            };
            assert_eq!(
                bytes(&spec),
                bytes(&spec.clone().parallel(true)),
                "{kind:?}, {n} samples"
            );
        }
    }
}
