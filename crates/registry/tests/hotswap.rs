//! Registry lifecycle under load: atomic hot-swap, drain-safe retirement,
//! shadow differential correctness, and per-version store namespacing.
//!
//! The headline test runs continuous query traffic across **100 promote
//! flips** and requires zero errors and zero torn batches: every batch's
//! verdicts are bit-identical to exactly one of the two engine builds,
//! never a mix, and every retired engine reaches `queue_depth == 0`
//! before its workers come down.

use napmon_core::{ComposedMonitor, MonitorKind, MonitorSpec, Verdict};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_registry::{MonitorRegistry, RegistryConfig, RegistryError};
use napmon_serve::{EngineConfig, MonitorEngine};
use napmon_tensor::Prng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const INPUT_DIM: usize = 6;

fn network() -> Network {
    Network::seeded(
        501,
        INPUT_DIM,
        &[
            LayerSpec::dense(16, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    )
}

/// Training data plus probes straddling the distribution, so both verdict
/// branches occur.
fn traffic() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut rng = Prng::seed(77);
    let train: Vec<Vec<f64>> = (0..128)
        .map(|_| rng.uniform_vec(INPUT_DIM, -1.0, 1.0))
        .collect();
    let probes: Vec<Vec<f64>> = (0..48)
        .map(|i: usize| {
            if i.is_multiple_of(3) {
                rng.uniform_vec(INPUT_DIM, -2.5, 2.5)
            } else {
                train[i % train.len()].clone()
            }
        })
        .collect();
    (train, probes)
}

/// Two monitors that genuinely disagree: A sees the whole training set, B
/// only half, so B warns on patterns A considers known.
fn monitors(net: &Network, train: &[Vec<f64>]) -> (ComposedMonitor, ComposedMonitor) {
    let spec = MonitorSpec::new(2, MonitorKind::pattern());
    let a = spec.build(net, train).expect("build monitor A");
    let b = spec
        .build(net, &train[..train.len() / 2])
        .expect("build monitor B");
    (a, b)
}

fn engine(net: &Network, monitor: ComposedMonitor) -> MonitorEngine<ComposedMonitor> {
    MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(1))
}

/// 100 promote flips under continuous query load: every served batch is
/// bit-identical to one of the two builds (no torn swap ever mixes
/// engines within a batch), no request errors, and every retired engine
/// drains to `queue_depth == 0` before teardown.
#[test]
fn hundred_promote_flips_under_load_are_atomic_and_drain_safe() {
    const FLIPS: u32 = 100;
    const LOADERS: usize = 3;

    let net = network();
    let (train, probes) = traffic();
    let (monitor_a, monitor_b) = monitors(&net, &train);

    // Reference verdicts for each build, computed off the registry.
    let reference = |monitor: ComposedMonitor| -> Vec<Verdict> {
        let engine = engine(&net, monitor);
        let verdicts = engine
            .submit_batch(probes.clone())
            .expect("reference batch");
        engine.shutdown();
        verdicts
    };
    let expected_a = reference(monitor_a.clone());
    let expected_b = reference(monitor_b.clone());
    assert_ne!(
        expected_a, expected_b,
        "fixture must distinguish the two builds or a torn swap is invisible"
    );

    let registry = Arc::new(MonitorRegistry::new(RegistryConfig::with_engine(
        EngineConfig::with_shards(1),
    )));
    registry
        .mount_engine("prod", 1, engine(&net, monitor_a.clone()))
        .expect("mount v1");

    let stop = Arc::new(AtomicBool::new(false));
    let torn = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let inputs: Arc<[Vec<f64>]> = Arc::from(probes.clone());

    let loaders: Vec<_> = (0..LOADERS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let torn = Arc::clone(&torn);
            let errors = Arc::clone(&errors);
            let served = Arc::clone(&served);
            let inputs = Arc::clone(&inputs);
            let expected_a = expected_a.clone();
            let expected_b = expected_b.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match registry.query_batch("prod", Arc::clone(&inputs)) {
                        Ok(verdicts) => {
                            if verdicts != expected_a && verdicts != expected_b {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    // Alternate the two builds through shadow → promote, 100 times.
    for flip in 0..FLIPS {
        let version = flip + 2;
        let monitor = if flip.is_multiple_of(2) {
            monitor_b.clone()
        } else {
            monitor_a.clone()
        };
        registry
            .mount_shadow_engine("prod", version, engine(&net, monitor))
            .unwrap_or_else(|e| panic!("mount shadow v{version}: {e}"));
        let report = registry
            .promote("prod")
            .unwrap_or_else(|e| panic!("promote v{version}: {e}"));
        assert_eq!(report.shadow_version, version);
    }

    stop.store(true, Ordering::Relaxed);
    for loader in loaders {
        loader.join().expect("loader thread");
    }

    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "hot-swaps surfaced errors"
    );
    assert_eq!(
        torn.load(Ordering::Relaxed),
        0,
        "a batch mixed verdicts from two engines: the swap tore"
    );
    assert!(
        served.load(Ordering::Relaxed) > u64::from(FLIPS),
        "load must actually overlap the flips"
    );

    // Every promote retired one engine; each drains to an empty queue and
    // none hit the drain deadline.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut outcomes = Vec::new();
    while outcomes.len() < FLIPS as usize {
        outcomes.extend(registry.reap_retired());
        assert!(
            std::time::Instant::now() < deadline,
            "retired engines never finished draining ({}/{FLIPS})",
            outcomes.len()
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(registry.pending_retired(), 0);
    for outcome in &outcomes {
        assert!(
            !outcome.timed_out,
            "v{} drain timed out instead of quiescing",
            outcome.version
        );
        assert_eq!(
            outcome.report.queue_depth, 0,
            "v{} retired with queued work",
            outcome.version
        );
    }

    // The survivor is the last-promoted version and still serves.
    let tenants = registry.list();
    assert_eq!(tenants.len(), 1);
    assert_eq!(tenants[0].active_version, FLIPS + 1);
    assert_eq!(tenants[0].shadow_version, None);

    let report = registry.shutdown();
    assert_eq!(report.tenants.len(), 1);
    assert_eq!(report.tenants[0].report.queue_depth, 0);
    assert!(!report.tenants[0].timed_out);
}

/// The shadow differential: mirrored verdicts are **bit-identical** to
/// submitting the same inputs directly to the candidate engine. The
/// mirror's per-class disagreement counts must equal a recomputation from
/// direct pinned-version submissions on both engines.
#[test]
fn shadow_report_matches_direct_candidate_submission_bit_for_bit() {
    let net = network();
    let (train, probes) = traffic();
    let (monitor_a, monitor_b) = monitors(&net, &train);

    let registry = MonitorRegistry::new(RegistryConfig::with_engine(EngineConfig::with_shards(2)));
    registry
        .mount_engine("diff", 1, engine(&net, monitor_a))
        .expect("mount active");
    registry
        .mount_shadow_engine("diff", 2, engine(&net, monitor_b))
        .expect("mount shadow");

    // Live traffic: answered by the active engine, mirrored to the shadow.
    let inputs: Arc<[Vec<f64>]> = Arc::from(probes.clone());
    let live = registry
        .query_batch("diff", Arc::clone(&inputs))
        .expect("live batch");
    for probe in probes.iter().take(8) {
        registry
            .query_batch("diff", vec![probe.clone()])
            .expect("live query");
    }
    registry.shadow_sync("diff").expect("mirror settled");
    let report = registry.shadow_stats("diff").expect("shadow stats");

    // Direct pinned-version submissions: the ground truth the mirror must
    // reproduce exactly.
    let direct = |version: u32| {
        let mounted = registry.resolve("diff", version).expect("pinned mount");
        mounted.engine().submit_batch(Arc::clone(&inputs))
    };
    let direct_active = direct(1).expect("direct active");
    let direct_shadow = direct(2).expect("direct shadow");
    assert_eq!(
        live, direct_active,
        "live traffic must come off the active engine"
    );

    // Recompute the diff classes from the direct verdict pairs. The first
    // 8 probes were additionally mirrored once more as one-row batches.
    let mut agreements = 0u64;
    let mut warn_only_active = 0u64;
    let mut warn_only_shadow = 0u64;
    let mut detail_mismatch = 0u64;
    let mut tally = |av: &Verdict, sv: &Verdict| match (av.warning, sv.warning) {
        _ if av == sv => agreements += 1,
        (true, false) => warn_only_active += 1,
        (false, true) => warn_only_shadow += 1,
        _ => detail_mismatch += 1,
    };
    for (av, sv) in direct_active.iter().zip(&direct_shadow) {
        tally(av, sv);
    }
    for (av, sv) in direct_active.iter().zip(&direct_shadow).take(8) {
        tally(av, sv);
    }

    let mirrored = (probes.len() + 8) as u64;
    assert_eq!(report.mirrored, mirrored);
    assert_eq!(
        report.dropped, 0,
        "an unconstrained mirror queue dropped jobs"
    );
    assert_eq!(report.shadow_errors, 0);
    assert_eq!(report.agreements, agreements);
    assert_eq!(report.warn_only_active, warn_only_active);
    assert_eq!(report.warn_only_shadow, warn_only_shadow);
    assert_eq!(report.detail_mismatch, detail_mismatch);
    assert!(
        report.disagreements() > 0 && report.agreements > 0,
        "fixture must exercise both agreement and disagreement"
    );
    let rate = agreements as f64 / mirrored as f64;
    assert!((report.agreement_rate - rate).abs() < 1e-12);

    // Promote: the final report covers the same mirrored jobs, and the
    // candidate's verdicts now serve live — bit-identical to the direct
    // submissions made while it was still a shadow.
    let promoted = registry.promote("diff").expect("promote");
    assert_eq!(promoted.mirrored, mirrored);
    assert_eq!(promoted.agreements, agreements);
    let after = registry
        .query_batch("diff", Arc::clone(&inputs))
        .expect("post-promote batch");
    assert_eq!(
        after, direct_shadow,
        "promotion changed the candidate's verdicts"
    );
    assert!(matches!(
        registry.shadow_stats("diff"),
        Err(RegistryError::NoShadow(_))
    ));
    registry.shutdown();
}

/// Store-backed mounts: each `(tenant, version)` gets its own namespaced
/// directory, so an active engine and its candidate hold advisory locks
/// on disjoint stores and can absorb concurrently mid-rollout.
#[test]
fn store_backed_versions_mount_side_by_side_without_lock_aliasing() {
    use napmon_core::{PatternBackend, ThresholdPolicy};
    use napmon_store::StoreProvider;

    let root = std::env::temp_dir().join(format!("napmon_registry_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let net = network();
    let (train, _) = traffic();
    let spec = MonitorSpec::new(
        2,
        MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
    );
    let registry = MonitorRegistry::new(
        RegistryConfig::with_engine(EngineConfig::with_shards(1)).store_root(&root),
    );

    // Seed both versions' stores, releasing the builders' locks before
    // the registry mounts over the same directories.
    let v1_dir = registry.tenant_store_dir("resnet", 1).expect("v1 dir");
    let v2_dir = registry.tenant_store_dir("resnet", 2).expect("v2 dir");
    assert_ne!(v1_dir, v2_dir, "versions must not share a namespace");
    assert!(v1_dir.ends_with("tenant-resnet/v0001"));
    assert!(v2_dir.ends_with("tenant-resnet/v0002"));
    {
        spec.build_with_sources(&net, &train, &mut StoreProvider::new(&v1_dir))
            .expect("seed v1 store");
        spec.build_with_sources(&net, &train[..64], &mut StoreProvider::new(&v2_dir))
            .expect("seed v2 store");
    }

    // Active v1 and shadow v2 hold their stores open at the same time —
    // only possible because the namespaces are disjoint.
    registry
        .mount_from_store("resnet", 1, &spec, net.clone())
        .expect("mount v1 from store");
    let candidate = MonitorEngine::from_store(
        &spec,
        net.clone(),
        registry.tenant_store_dir("resnet", 2).expect("v2 dir"),
        EngineConfig::with_shards(1),
    )
    .expect("open v2 from store");
    registry
        .mount_shadow_engine("resnet", 2, candidate)
        .expect("mount shadow v2");

    // Absorb novel traffic: the active store grows, and the mirrored
    // absorb keeps the candidate's (separate) store in step.
    let ood: Vec<Vec<f64>> = {
        let mut rng = Prng::seed(99);
        (0..32)
            .map(|_| rng.uniform_vec(INPUT_DIM, -3.0, 3.0))
            .collect()
    };
    let fresh = registry
        .absorb_batch("resnet", ood.clone())
        .expect("absorb into active");
    assert!(fresh > 0, "novel traffic must enlarge the active store");
    registry.shadow_sync("resnet").expect("mirror settled");
    let report = registry.shadow_stats("resnet").expect("shadow stats");
    assert!(
        report.absorbed > 0,
        "mirrored absorb never reached the candidate store"
    );

    registry.promote("resnet").expect("promote v2");
    let absorbed_clean = registry
        .query_batch("resnet", ood)
        .expect("post-promote batch");
    assert!(
        absorbed_clean.iter().all(|v| !v.warning),
        "candidate lost the absorbed patterns across promotion"
    );

    // On-disk layout: one member tree per version namespace.
    for dir in [&v1_dir, &v2_dir] {
        assert!(
            dir.join("member-0000").is_dir(),
            "missing member store under {}",
            dir.display()
        );
    }

    let report = registry.unmount("resnet").expect("unmount");
    assert_eq!(report.queue_depth, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// Every refusal is a typed error: reserved/invalid ids and versions,
/// double mounts, missing shadows, unknown routes, and a closed registry.
#[test]
fn refusals_are_typed() {
    let net = network();
    let (train, probes) = traffic();
    let (monitor_a, monitor_b) = monitors(&net, &train);

    let registry = MonitorRegistry::new(RegistryConfig::with_engine(EngineConfig::with_shards(1)));
    assert!(matches!(
        registry.mount_engine("m", 0, engine(&net, monitor_a.clone())),
        Err(RegistryError::ReservedVersion)
    ));
    assert!(matches!(
        registry.mount_engine(".hidden", 1, engine(&net, monitor_a.clone())),
        Err(RegistryError::InvalidTenantId(_))
    ));
    assert!(matches!(
        registry.tenant_store_dir("m", 1),
        Err(RegistryError::NoStoreRoot)
    ));

    registry
        .mount_engine("m", 1, engine(&net, monitor_a.clone()))
        .expect("mount");
    assert!(matches!(
        registry.mount_engine("m", 1, engine(&net, monitor_b.clone())),
        Err(RegistryError::VersionInUse { version: 1, .. })
    ));
    assert!(matches!(
        registry.promote("m"),
        Err(RegistryError::NoShadow(_))
    ));
    assert!(matches!(
        registry.query_batch("nope", vec![probes[0].clone()]),
        Err(RegistryError::UnknownTenant(_))
    ));
    // A routing miss comes back at once; the callback never runs.
    assert!(matches!(
        registry.query_batch_with("m", 9, probes.clone(), 0, |_| {
            panic!("a refused route must not reach the engine")
        }),
        Err(RegistryError::UnknownVersion { version: 9, .. })
    ));

    registry
        .mount_shadow_engine("m", 2, engine(&net, monitor_b.clone()))
        .expect("mount shadow");
    assert!(matches!(
        registry.mount_shadow_engine("m", 3, engine(&net, monitor_b.clone())),
        Err(RegistryError::ShadowInUse {
            shadow_version: 2,
            ..
        })
    ));
    // A pinned route reaches the shadow directly; the shadow's version is
    // also refused for a second active mount.
    assert!(registry
        .resolve("m", 2)
        .expect("pinned shadow")
        .engine()
        .submit_batch(probes.clone())
        .is_ok());
    assert!(matches!(
        registry.mount_engine("m", 2, engine(&net, monitor_a.clone())),
        Err(RegistryError::VersionInUse { version: 2, .. })
    ));

    let dropped = registry.drop_shadow("m").expect("drop shadow");
    assert_eq!(dropped.shadow_version, 2);

    registry.shutdown();
    assert!(matches!(
        registry.query_batch("m", vec![probes[0].clone()]),
        Err(RegistryError::Closed)
    ));
    assert!(matches!(
        registry.mount_engine("m", 5, engine(&net, monitor_a)),
        Err(RegistryError::Closed)
    ));
    // Shutdown is idempotent.
    let again = registry.shutdown();
    assert!(again.tenants.is_empty() && again.retired.is_empty());
}
