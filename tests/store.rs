//! Differential acceptance tests for the persistent pattern store:
//! store-backed monitors must return bit-identical verdicts to their
//! in-memory counterparts across every monitor kind × standard/robust ×
//! single/multi-layer composition — including after operation-time
//! absorption and a full close/reopen cycle — and a store with a torn
//! tail must reopen cleanly, losing only the torn record.

use napmon::absint::Domain;
use napmon::core::{
    ComposedMonitor, Monitor, MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy, Vote,
    WatchedLayer,
};
use napmon::nn::{Activation, LayerSpec, Network};
use napmon::serve::{EngineConfig, MonitorEngine};
use napmon::store::{PatternStore, StoreConfig, StoreProvider};
use napmon::tensor::Prng;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("napmon_e2e_store_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

fn data(seed: u64, n: usize, span: f64) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(seed);
    (0..n).map(|_| rng.uniform_vec(3, -span, span)).collect()
}

fn warnings(m: &ComposedMonitor, net: &Network, probes: &[Vec<f64>]) -> Vec<bool> {
    m.query_batch(net, probes)
        .unwrap()
        .iter()
        .map(|v| v.warning)
        .collect()
}

/// Every kind × standard/robust × single/multi-layer: the store-backed
/// build answers bit-identically to the in-memory reference, both before
/// and after absorb + reopen. (Min-max has no pattern set; its row checks
/// that the in-memory build is unaffected by the machinery, keeping the
/// kind matrix complete.)
#[test]
fn store_backed_verdicts_are_bit_identical_across_the_matrix() {
    let net = net();
    let train = data(99, 48, 0.5);
    let probes = data(7, 96, 2.0);
    let absorbs = data(13, 12, 2.5);

    // (label, in-memory kind, store-backed kind). `None` marks kinds with
    // no pattern set to externalize.
    let kinds: Vec<(&str, MonitorKind, Option<MonitorKind>)> = vec![
        (
            "pattern",
            MonitorKind::pattern(),
            Some(MonitorKind::pattern_with(
                ThresholdPolicy::Sign,
                PatternBackend::Store,
                0,
            )),
        ),
        (
            "pattern-hamming1",
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::HashSet, 1),
            Some(MonitorKind::pattern_with(
                ThresholdPolicy::Sign,
                PatternBackend::Store,
                1,
            )),
        ),
        (
            "interval-2bit",
            MonitorKind::interval(2),
            Some(MonitorKind::interval(2)),
        ),
        ("min-max", MonitorKind::min_max(), None),
    ];
    let compositions: Vec<(&str, Vec<WatchedLayer>, Option<Vote>)> = vec![
        ("single", vec![WatchedLayer::whole(4)], None),
        (
            "multi-layer",
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            Some(Vote::Any),
        ),
    ];

    for (kind_name, mem_kind, store_kind) in &kinds {
        for robust in [false, true] {
            for (comp_name, layers, vote) in &compositions {
                let ctx = format!("{kind_name}/{comp_name}/robust={robust}");
                let make_spec = |kind: MonitorKind| {
                    let mut spec = match vote {
                        None => MonitorSpec::new(layers[0].layer, kind),
                        Some(vote) => MonitorSpec::multi_layer(layers.clone(), kind, *vote),
                    };
                    if robust {
                        spec = spec.robust(0.02, 0, Domain::Box);
                    }
                    spec
                };
                let mut reference = make_spec(mem_kind.clone()).build(&net, &train).unwrap();
                let Some(store_kind) = store_kind else {
                    // No pattern set: just pin that the reference behaves.
                    assert!(
                        !warnings(&reference, &net, &train).iter().any(|w| *w),
                        "{ctx}"
                    );
                    continue;
                };
                let dir = tmp(&format!("{kind_name}_{comp_name}_{robust}"));
                let spec = make_spec(store_kind.clone());
                let stored = spec
                    .build_with_sources(&net, &train, &mut StoreProvider::new(&dir))
                    .unwrap();

                // 1. Bit-identical verdicts after construction.
                assert_eq!(
                    stored.query_batch(&net, &probes).unwrap(),
                    reference.query_batch(&net, &probes).unwrap(),
                    "{ctx}: construction differs"
                );

                // 2. Absorb the same operation-time traffic on both sides
                //    (shared path for the store, &mut path in memory).
                for x in &absorbs {
                    stored.absorb_operation(&net, x).unwrap();
                    reference.absorb_mut(&net, x).unwrap();
                }
                stored.commit_external_sources().unwrap();
                assert_eq!(
                    stored.query_batch(&net, &probes).unwrap(),
                    reference.query_batch(&net, &probes).unwrap(),
                    "{ctx}: absorption diverged"
                );

                // 3. Reopen in a "fresh process": persist the thresholds
                //    through an artifact (which references the store by
                //    path), load it back — the artifact reattaches the
                //    segments on disk — and require bit-identical
                //    verdicts again.
                let artifact = napmon::artifact::MonitorArtifact::from_parts(
                    spec.clone(),
                    net.clone(),
                    stored,
                    train.len(),
                )
                .unwrap();
                let path = dir.join("artifact.json");
                artifact.save_json(&path).unwrap();
                drop(artifact);
                let reopened = napmon::artifact::MonitorArtifact::load_json(&path).unwrap();
                assert_eq!(
                    reopened.monitor().query_batch(&net, &probes).unwrap(),
                    reference.query_batch(&net, &probes).unwrap(),
                    "{ctx}: reopen diverged"
                );
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}

/// Crash safety at the acceptance level: tear the store's tail
/// mid-record, reopen, and verify the survivors answer exactly as an
/// in-memory monitor holding the intact prefix.
#[test]
fn torn_segment_tail_reopens_cleanly_with_prefix_semantics() {
    let dir = tmp("torn");
    let bits = 16;
    let mut store = PatternStore::create(&dir, StoreConfig::new(bits)).unwrap();
    let words: Vec<napmon::bdd::BitWord> = (0..40u64)
        .map(|i| napmon::bdd::BitWord::from_fn(bits, |j| (i >> (j % 6)) & 1 == 1))
        .collect();
    let fresh = store.append_batch(&words).unwrap();
    drop(store);

    // Crash mid-append: the last record is torn.
    let tail = dir.join("tail.log");
    let len = std::fs::metadata(&tail).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&tail)
        .unwrap()
        .set_len(len - 7)
        .unwrap();

    let store = PatternStore::open(&dir).unwrap();
    assert_eq!(store.len(), fresh - 1, "exactly the torn record is lost");
    // Every fully-committed word is still a member; and the store keeps
    // accepting appends after recovery.
    let mut survivors = 0;
    for w in &words {
        if store.contains(w) {
            survivors += 1;
        }
    }
    assert_eq!(survivors as u64, fresh - 1);
    let mut store = store;
    store.append_batch(&words).unwrap();
    assert_eq!(store.len(), fresh, "recovered store absorbs the tail again");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The serve-side loop at facade level: store-backed engine verdicts stay
/// identical to the in-memory engine, then absorption + warm restart keep
/// the enlarged abstraction without a rebuild.
#[test]
fn engine_round_trip_through_the_store_matches_in_memory_engine() {
    let dir = tmp("engine");
    let network = net();
    let train = data(5, 64, 0.5);
    let probes = data(31, 80, 2.0);

    let mem_monitor = MonitorSpec::new(4, MonitorKind::pattern())
        .build(&network, &train)
        .unwrap();
    let spec = MonitorSpec::new(
        4,
        MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
    );
    let stored_monitor = spec
        .build_with_sources(&network, &train, &mut StoreProvider::new(&dir))
        .unwrap();

    let mem_engine = MonitorEngine::new(network.clone(), mem_monitor, EngineConfig::with_shards(2));
    let store_engine = MonitorEngine::new(
        network.clone(),
        stored_monitor,
        EngineConfig::with_shards(2),
    );
    let a = mem_engine.submit_batch(probes.clone()).unwrap();
    let b = store_engine.submit_batch(probes.clone()).unwrap();
    assert_eq!(a, b, "engines disagree before absorption");
    mem_engine.shutdown();

    // Absorb every warning probe, sync, shut down, warm start: the
    // enlarged set must persist.
    store_engine.absorb_batch(&probes).unwrap();
    let enlarged = store_engine.submit_batch(probes.clone()).unwrap();
    assert!(enlarged.iter().all(|v| !v.warning));
    store_engine.shutdown();

    let warm =
        MonitorEngine::from_store(&spec, network, &dir, EngineConfig::with_shards(2)).unwrap();
    let after = warm.submit_batch(probes).unwrap();
    assert_eq!(after, enlarged, "warm restart lost absorbed patterns");
    warm.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Store-backed tolerant verdicts through the facade: with a store whose
/// words span sealed segments and the tail, `query_batch` (one store
/// batch per chunk) answers exactly as one input at a time does, and as
/// the hash backend does.
#[test]
fn store_backed_tolerant_batches_match_single_verdicts_and_the_hash_backend() {
    let train = data(3, 200, 1.0);
    // Jittered training points (a few flipped signs) and far points.
    let mut rng = Prng::seed(77);
    let mut probes: Vec<Vec<f64>> = train
        .iter()
        .step_by(3)
        .map(|x| x.iter().map(|v| v + rng.uniform(-0.05, 0.05)).collect())
        .collect();
    probes.extend(data(8, 60, 3.0));
    for width in [63usize, 64, 65, 100] {
        let network = Network::seeded(
            41,
            3,
            &[
                LayerSpec::dense(width, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        for tau in [1usize, 2, 3] {
            let ctx = format!("width {width}, tau {tau}");
            let dir = tmp(&format!("tolerant_{width}_{tau}"));
            let kind = |backend| MonitorKind::pattern_with(ThresholdPolicy::Sign, backend, tau);
            let hash = MonitorSpec::new(2, kind(PatternBackend::HashSet))
                .build(&network, &train)
                .unwrap();
            let stored = MonitorSpec::new(2, kind(PatternBackend::Store))
                .build_with_sources(
                    &network,
                    &train,
                    &mut StoreProvider::new(&dir).segment_capacity(48),
                )
                .unwrap();
            let member = StoreProvider::member_dir(&dir, 0);
            let segments = std::fs::read_dir(&member)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().path().extension() == Some("seg".as_ref()))
                .count();
            let tail_bytes = std::fs::metadata(member.join("tail.log")).unwrap().len();
            assert!(
                segments >= 2 && tail_bytes > 16,
                "{ctx}: {segments} segments"
            );

            let batch = stored.query_batch(&network, &probes).unwrap();
            let single: Vec<_> = probes
                .iter()
                .map(|x| stored.verdict(&network, x).unwrap())
                .collect();
            assert_eq!(batch, single, "{ctx}: batch differs from single verdicts");
            assert_eq!(
                batch,
                hash.query_batch(&network, &probes).unwrap(),
                "{ctx}: store differs from the hash backend"
            );
            let warned = batch.iter().filter(|v| v.warning).count();
            assert!(
                warned > 0 && warned < probes.len(),
                "{ctx}: {warned} warnings"
            );
            drop(stored);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
