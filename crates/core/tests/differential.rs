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
    shared_source, ComposedMonitor, MemoryPatternSource, Monitor, MonitorError, MonitorKind,
    MonitorSpec, PatternBackend, QueryScratch, SharedPatternSource, ThresholdPolicy, Verdict,
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

/// Robust (Box, Δ) single-boundary monitors over every batch path: pattern
/// monitors on the hash, BDD and external-source backends (one on a
/// neuron subset), an interval-pattern monitor and a min-max monitor (the
/// trait's default batch path).
fn robust_singles(net: &Network, train: &[Vec<f64>], delta: f64) -> Vec<(String, ComposedMonitor)> {
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
        .map(|(name, spec)| {
            let spec = spec.robust(delta, 0, Domain::Box);
            (name.to_string(), spec.build(net, train).unwrap())
        })
        .collect();
    let mut memory =
        |_member: usize, word_bits: usize| -> Result<SharedPatternSource, MonitorError> {
            Ok(shared_source(MemoryPatternSource::new(word_bits)))
        };
    let external = MonitorSpec::new(4, pattern(PatternBackend::Store))
        .robust(delta, 0, Domain::Box)
        .build_with_sources(net, train, &mut memory)
        .unwrap();
    monitors.push(("pattern external source".to_string(), external));
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
    for (name, monitor) in robust_singles(&net, &train, delta) {
        let (mut scratch, mut solo) = (QueryScratch::new(), QueryScratch::new());
        let mut out = Vec::new();
        monitor
            .verdict_batch_scratch(&net, &inputs, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.len(), inputs.len(), "{name}");
        // Only finite rows are pinned: what a non-finite row gets is the
        // fail-closed policy's business, not the batch's.
        for (i, x) in inputs.iter().enumerate() {
            if x.iter().all(|v| v.is_finite()) {
                let alone = monitor.verdict_scratch(&net, x, &mut solo).unwrap();
                assert_eq!(
                    out[i], alone,
                    "{name}: row {i} differs from its solo verdict"
                );
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
    for (name, monitor) in robust_singles(&net, &train, delta) {
        for at in [0, 5, 12, inputs.len()] {
            let mut batch = inputs.clone();
            batch.insert(at, vec![0.5; 4]);
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
