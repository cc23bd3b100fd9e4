//! Functional tests of the sharded engine: verdict parity with the batch
//! APIs, metrics, error surfacing (non-finite ingest included), concurrent
//! clients, and drain-on-shutdown semantics.

use napmon_absint::Domain;
use napmon_core::{
    AnyMonitor, ComposedMonitor, FeatureExtractor, Monitor, MonitorError, MonitorKind, MonitorSpec,
    PatternBackend, QueryScratch, ThresholdPolicy, Verdict,
};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_registry::{MonitorRegistry, RegistryConfig, RegistryError};
use napmon_serve::{EngineConfig, MonitorEngine, ServeError};
use napmon_tensor::Prng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

fn fixture(kind: MonitorKind) -> (Network, ComposedMonitor, Vec<Vec<f64>>) {
    let net = Network::seeded(
        42,
        6,
        &[
            LayerSpec::dense(16, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(7);
    let train: Vec<Vec<f64>> = (0..96).map(|_| rng.uniform_vec(6, -1.0, 1.0)).collect();
    let monitor = MonitorSpec::new(2, kind).build(&net, &train).unwrap();
    (net, monitor, train)
}

fn probes(n: usize) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(1234);
    (0..n).map(|_| rng.uniform_vec(6, -1.5, 1.5)).collect()
}

type Outcome = Result<Vec<napmon_core::Verdict>, ServeError>;

/// Submits through the non-blocking primitive; the receiver yields the
/// outcome once the engine runs the callback.
fn submit_with<M: Monitor + Send + Sync + 'static>(
    engine: &MonitorEngine<M>,
    inputs: Vec<Vec<f64>>,
) -> mpsc::Receiver<Outcome> {
    let (tx, rx) = mpsc::channel();
    engine.submit_batch_with(inputs, 0, move |outcome| {
        let _ = tx.send(outcome);
    });
    rx
}

#[test]
fn batch_verdicts_match_sequential_for_all_shard_counts() {
    let (net, monitor, _) = fixture(MonitorKind::pattern_with(
        ThresholdPolicy::Mean,
        PatternBackend::Bdd,
        0,
    ));
    let inputs = probes(97); // odd size: uneven chunks
    let expected = monitor.query_batch(&net, &inputs).unwrap();
    for shards in [1usize, 2, 4] {
        let engine = MonitorEngine::new(
            net.clone(),
            monitor.clone(),
            EngineConfig {
                shards,
                micro_batch: 13,
            },
        );
        let got = engine.submit_batch(inputs.clone()).unwrap();
        assert_eq!(got, expected, "{shards} shards");
        let report = engine.shutdown();
        assert_eq!(report.requests, inputs.len() as u64);
    }
}

#[test]
fn single_submits_match_direct_verdicts() {
    let (net, monitor, _) = fixture(MonitorKind::min_max());
    let engine = MonitorEngine::new(net.clone(), monitor.clone(), EngineConfig::with_shards(2));
    for input in probes(20) {
        let direct = monitor.verdict(&net, &input).unwrap();
        let served = engine.submit_batch(vec![input]).unwrap();
        assert_eq!(served, vec![direct]);
    }
    let report = engine.shutdown();
    assert_eq!(report.requests, 20);
}

#[test]
fn report_observes_the_stream_without_stopping_it() {
    let (net, monitor, train) = fixture(MonitorKind::pattern());
    let engine = MonitorEngine::new(net, monitor, EngineConfig::with_shards(2));
    assert_eq!(engine.report().requests, 0);
    engine.submit_batch(train.clone()).unwrap();
    let mid = engine.report();
    assert_eq!(mid.requests, train.len() as u64);
    // Training data never warns on its own monitor.
    assert_eq!(mid.warnings, 0);
    assert_eq!(mid.warn_rate, 0.0);
    assert!(mid.latency_ns.mean() > 0.0);
    // The engine still serves after a snapshot.
    engine.submit_batch(train.clone()).unwrap();
    let report = engine.shutdown();
    assert_eq!(report.requests, 2 * train.len() as u64);
}

/// A monitor that records the name of every thread that serves it.
struct ThreadRecorder {
    fx: FeatureExtractor,
    threads: Mutex<BTreeSet<String>>,
}

impl Monitor for ThreadRecorder {
    fn extractor(&self) -> &FeatureExtractor {
        &self.fx
    }

    fn verdict_features_scratch(&self, _features: &[f64], _scratch: &mut QueryScratch) -> Verdict {
        let name = std::thread::current()
            .name()
            .unwrap_or_default()
            .to_string();
        self.threads.lock().unwrap().insert(name);
        Verdict::ok()
    }
}

/// Both shards carry load: one batch on a 2-shard engine runs on both
/// `napmon-shard-*` threads.
#[test]
fn a_batch_runs_on_every_shard() {
    let (net, _, _) = fixture(MonitorKind::min_max());
    let monitor = Arc::new(ThreadRecorder {
        fx: FeatureExtractor::new(&net, 2).unwrap(),
        threads: Mutex::new(BTreeSet::new()),
    });
    let engine: MonitorEngine<ThreadRecorder> =
        MonitorEngine::new(net, Arc::clone(&monitor), EngineConfig::with_shards(2));
    assert_eq!(engine.submit_batch(probes(16)).unwrap().len(), 16);
    engine.shutdown();
    let threads = monitor.threads.lock().unwrap();
    let expected: BTreeSet<String> = ["napmon-shard-0", "napmon-shard-1"]
        .into_iter()
        .map(String::from)
        .collect();
    assert_eq!(*threads, expected);
}

#[test]
fn warn_rate_counts_out_of_distribution_traffic() {
    let (net, monitor, train) = fixture(MonitorKind::min_max());
    let engine = MonitorEngine::new(net, monitor, EngineConfig::with_shards(2));
    let far: Vec<Vec<f64>> = (0..10).map(|i| vec![50.0 + i as f64; 6]).collect();
    let verdicts = engine.submit_batch(far).unwrap();
    assert!(verdicts.iter().all(|v| v.warning));
    engine.submit_batch(train).unwrap();
    let report = engine.shutdown();
    assert_eq!(report.warnings, 10);
    assert!((report.warn_rate - 10.0 / report.requests as f64).abs() < 1e-12);
}

#[test]
fn malformed_inputs_surface_as_monitor_errors() {
    let (net, monitor, _) = fixture(MonitorKind::min_max());
    let engine = MonitorEngine::new(net, monitor, EngineConfig::with_shards(2));
    match engine.submit_batch(vec![vec![1.0, 2.0]]) {
        Err(ServeError::Monitor(MonitorError::DimensionMismatch { .. })) => {}
        other => panic!("expected dimension mismatch, got {other:?}"),
    }
    let mut batch = probes(8);
    batch[5] = vec![0.0; 2];
    assert!(matches!(
        engine.submit_batch(batch),
        Err(ServeError::Monitor(MonitorError::DimensionMismatch { .. }))
    ));
    // Rejected requests are not counted as served. The batch splits into
    // chunks [0..4] and [4..8]; the monitor rejects the second chunk whole
    // (it holds the malformed index 5), so exactly 4 requests were served.
    let report = engine.shutdown();
    assert_eq!(report.requests, 4);
}

/// Engine ingest fails closed on non-finite rows: a NaN or infinite
/// coordinate, in every position or in one, rejects its chunk with a
/// typed `NonFinite` error naming the input and the coordinate. This
/// holds for min-max and on-off monitors, standard and robust, through
/// the engine and through the registry, and a rejected chunk counts as
/// nothing served.
#[test]
fn non_finite_queries_are_refused_typed() {
    let (net, _, train) = fixture(MonitorKind::min_max());
    let specs = [
        ("min-max", MonitorSpec::new(2, MonitorKind::min_max())),
        (
            "robust min-max",
            MonitorSpec::new(2, MonitorKind::min_max()).robust(0.03, 0, Domain::Box),
        ),
        ("on-off", MonitorSpec::new(2, MonitorKind::pattern())),
        (
            "robust on-off",
            MonitorSpec::new(2, MonitorKind::pattern()).robust(0.03, 0, Domain::Box),
        ),
    ];
    for (name, spec) in specs {
        let monitor = spec.build(&net, &train).unwrap();
        let config = EngineConfig::with_shards(2);
        let engine = MonitorEngine::new(net.clone(), monitor.clone(), config);
        let registry = MonitorRegistry::new(RegistryConfig::with_engine(config));
        registry
            .mount_engine(
                "tenant",
                1,
                MonitorEngine::new(net.clone(), monitor, config),
            )
            .unwrap();
        let mut calls = 0;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut one = train[3].clone();
            one[4] = bad;
            for (coordinate, input) in [(0, vec![bad; 6]), (4, one)] {
                // Chunks [0..4] and [4..8]: the bad input 5 lands in the second.
                let mut batch = probes(8);
                batch[5] = input;
                let expected = format!("query input 5, coordinate {coordinate} ({bad})");
                match engine.submit_batch(batch.clone()) {
                    Err(ServeError::Monitor(MonitorError::NonFinite { context })) => {
                        assert_eq!(context, expected, "{name}")
                    }
                    other => panic!("{name}: {bad} served by the engine: {other:?}"),
                }
                match registry.query_batch("tenant", batch) {
                    Err(RegistryError::Serve(ServeError::Monitor(MonitorError::NonFinite {
                        context,
                    }))) => assert_eq!(context, expected, "{name}"),
                    other => panic!("{name}: {bad} served by the registry: {other:?}"),
                }
                calls += 1;
            }
        }
        // Only each batch's clean first chunk was served and counted.
        assert_eq!(engine.shutdown().requests, 4 * calls, "{name}");
        assert_eq!(registry.stats().requests, 4 * calls, "{name}");
    }
}

#[test]
fn concurrent_clients_share_one_engine() {
    let (net, monitor, _) = fixture(MonitorKind::pattern());
    let inputs = probes(64);
    let expected = monitor.query_batch(&net, &inputs).unwrap();
    let engine = MonitorEngine::new(net, monitor, EngineConfig::with_shards(4));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let engine = &engine;
                let inputs = inputs.clone();
                scope.spawn(move || engine.submit_batch(inputs).unwrap())
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), expected);
        }
    });
    let report = engine.shutdown();
    assert_eq!(report.requests, 3 * 64);
}

#[test]
fn shutdown_drains_pending_async_batches() {
    let (net, monitor, _) = fixture(MonitorKind::pattern());
    let inputs = probes(200);
    let expected = monitor.query_batch(&net, &inputs).unwrap();
    let engine = MonitorEngine::new(net, monitor, EngineConfig::with_shards(2));
    // Enqueue without collecting, then shut down immediately: the jobs are
    // in flight (queued or being served) when the channels close.
    let pending = submit_with(&engine, inputs);
    let report = engine.shutdown();
    // Shutdown drained everything...
    assert_eq!(report.requests, 200);
    // ...and the callback had already run by the time it returned.
    assert_eq!(pending.try_recv().unwrap().unwrap(), expected);
}

#[test]
fn empty_batch_is_served_without_work() {
    let (net, monitor, _) = fixture(MonitorKind::min_max());
    let engine = MonitorEngine::new(net, monitor, EngineConfig::default());
    assert!(engine.submit_batch(Vec::new()).unwrap().is_empty());
    // No chunk to serve: the callback runs on the submitting thread.
    let pending = submit_with(&engine, Vec::new());
    assert!(pending.try_recv().unwrap().unwrap().is_empty());
    assert_eq!(engine.shutdown().requests, 0);
}

#[test]
fn degenerate_configs_are_normalized() {
    let (net, monitor, _) = fixture(MonitorKind::min_max());
    let engine = MonitorEngine::new(
        net,
        monitor,
        EngineConfig {
            shards: 0,
            micro_batch: 0,
        },
    );
    assert_eq!(engine.shards(), 1);
    assert_eq!(engine.config().micro_batch, 1);
    let verdicts = engine.submit_batch(probes(5)).unwrap();
    assert_eq!(verdicts.len(), 5);
    engine.shutdown();
}

/// A monitor whose query path panics: the only way a shard dies.
struct PanickingMonitor(napmon_core::FeatureExtractor);

impl Monitor for PanickingMonitor {
    fn extractor(&self) -> &napmon_core::FeatureExtractor {
        &self.0
    }

    fn verdict_features_scratch(
        &self,
        _features: &[f64],
        _scratch: &mut napmon_core::QueryScratch,
    ) -> napmon_core::Verdict {
        panic!("synthetic shard failure");
    }
}

#[test]
fn dead_engine_reports_shard_down_instead_of_hanging() {
    let (net, _, _) = fixture(MonitorKind::min_max());
    let fx = napmon_core::FeatureExtractor::new(&net, 2).unwrap();
    let engine = MonitorEngine::new(net, PanickingMonitor(fx), EngineConfig::with_shards(2));
    let calls: Vec<Arc<AtomicUsize>> = (0..4).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let submit = |i: usize, inputs: Vec<Vec<f64>>| {
        let (tx, rx) = mpsc::channel();
        let count = Arc::clone(&calls[i]);
        engine.submit_batch_with(inputs, 0, move |outcome| {
            count.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(outcome);
        });
        rx.recv().expect("the callback ran")
    };
    // Each well-formed submission kills the shard that serves it; the
    // chunk it dropped mid-serve still completes the submission.
    for i in 0..2 {
        assert!(matches!(
            submit(i, vec![vec![0.0; 6]]),
            Err(ServeError::ShardDown)
        ));
    }
    // With every shard dead, submissions must fail fast — not busy-loop.
    assert!(matches!(
        submit(2, vec![vec![0.0; 6]]),
        Err(ServeError::ShardDown)
    ));
    assert!(matches!(submit(3, probes(32)), Err(ServeError::ShardDown)));
    assert!(matches!(
        engine.submit_batch(probes(32)),
        Err(ServeError::ShardDown)
    ));
    let report = engine.shutdown();
    assert_eq!(report.requests, 0);
    // Exactly once per submission: never lost, never repeated.
    for (i, count) in calls.iter().enumerate() {
        assert_eq!(count.load(Ordering::SeqCst), 1, "submission {i}");
    }
}

#[test]
fn shared_arcs_are_accepted_and_exposed() {
    let (net, monitor, _) = fixture(MonitorKind::interval(2));
    let net = Arc::new(net);
    let monitor = Arc::new(monitor);
    let engine: MonitorEngine = MonitorEngine::new(
        Arc::clone(&net),
        Arc::clone(&monitor),
        EngineConfig::with_shards(1),
    );
    assert_eq!(engine.network().input_dim(), net.input_dim());
    let member = engine
        .monitor()
        .as_single()
        .and_then(AnyMonitor::as_pattern);
    assert_eq!(member.map(|m| m.bits()), Some(2));
    let v = engine.submit_batch(vec![vec![0.0; 6]]).unwrap();
    assert_eq!(v, vec![monitor.verdict(&net, &[0.0; 6]).unwrap()]);
    engine.shutdown();
}

#[test]
fn engine_boots_from_artifact_file_with_identical_verdicts() {
    use napmon_artifact::{ArtifactError, MonitorArtifact};

    let (net, _, train) = fixture(MonitorKind::min_max());
    let spec = MonitorSpec::new(2, MonitorKind::interval(2));
    let artifact = MonitorArtifact::build(spec, &net, &train).unwrap();
    let expected = artifact
        .monitor()
        .query_batch(artifact.network(), &probes(40))
        .unwrap();

    let dir = std::env::temp_dir().join("napmon_serve_artifact_test");
    let path = dir.join("monitor.artifact.json");
    artifact.save_json(&path).unwrap();

    // Fresh mount: only the file crosses the boundary.
    let engine = MonitorEngine::from_artifact_file(&path, EngineConfig::with_shards(2)).unwrap();
    let got = engine.submit_batch(probes(40)).unwrap();
    assert_eq!(got, expected);
    let report = engine.shutdown();
    assert_eq!(report.requests, 40);

    // A missing file is a typed error, not a panic.
    assert!(matches!(
        MonitorEngine::from_artifact_file(dir.join("nope.json"), EngineConfig::with_shards(1)),
        Err(ArtifactError::Io(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// The full persistence loop on the engine: build store-backed, serve,
/// absorb operation-time traffic, shut down, warm-start a second engine
/// from the segments on disk, and observe identical (enlarged) verdicts —
/// no rebuild anywhere.
#[test]
fn store_backed_engine_absorbs_and_warm_starts() {
    use napmon_core::MonitorSpec;
    use napmon_store::StoreProvider;

    let dir = std::env::temp_dir().join(format!("napmon_serve_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let net = Network::seeded(
        42,
        6,
        &[
            LayerSpec::dense(16, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(7);
    let train: Vec<Vec<f64>> = (0..96).map(|_| rng.uniform_vec(6, -1.0, 1.0)).collect();
    let spec = MonitorSpec::new(
        2,
        MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
    );
    let monitor = spec
        .build_with_sources(&net, &train, &mut StoreProvider::new(&dir))
        .unwrap();

    let engine = MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(2));
    // Training traffic is clean; find some warning traffic.
    let ood: Vec<Vec<f64>> = {
        let mut rng = Prng::seed(99);
        (0..32).map(|_| rng.uniform_vec(6, -3.0, 3.0)).collect()
    };
    let before = engine.submit_batch(ood.clone()).unwrap();
    assert!(before.iter().any(|v| v.warning), "need some novel traffic");

    // Absorb the novel traffic: every shard sees the enlargement at once.
    let fresh = engine.absorb_batch(&ood).unwrap();
    assert!(fresh > 0);
    let after = engine.submit_batch(ood.clone()).unwrap();
    assert!(
        after.iter().all(|v| !v.warning),
        "absorbed traffic is clean"
    );
    let expected: Vec<bool> = engine
        .submit_batch(probes(64))
        .unwrap()
        .iter()
        .map(|v| v.warning)
        .collect();
    engine.shutdown();

    // A fresh process: warm start from the segments, zero training data.
    let warm = MonitorEngine::from_store(&spec, net, &dir, EngineConfig::with_shards(2)).unwrap();
    let served: Vec<bool> = warm
        .submit_batch(probes(64))
        .unwrap()
        .iter()
        .map(|v| v.warning)
        .collect();
    assert_eq!(served, expected, "warm start drifted from the live engine");
    let absorbed = warm.submit_batch(ood).unwrap();
    assert!(absorbed.iter().all(|v| !v.warning), "absorptions persisted");
    warm.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Queue depth: visible while jobs wait, zero after a draining shutdown.
#[test]
fn queue_depth_reports_and_drains_to_zero() {
    let (net, monitor, _) = fixture(MonitorKind::pattern_with(
        ThresholdPolicy::Mean,
        PatternBackend::Bdd,
        0,
    ));
    let engine = MonitorEngine::new(net, monitor, EngineConfig::with_shards(2));
    let pending = submit_with(&engine, probes(200));
    let report = engine.shutdown();
    assert_eq!(report.queue_depth, 0, "shutdown must drain the queues");
    assert_eq!(pending.try_recv().unwrap().unwrap().len(), 200);
}
