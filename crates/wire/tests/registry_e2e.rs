//! Multi-tenant serving over the wire: registry-backed servers, tenant
//! routing, the admin control plane, and the hot-swap/shutdown contracts
//! under real sockets and seeded network faults.
//!
//! The invariants pinned here:
//!
//! - Routed verdicts served through a registry backend are
//!   **bit-identical** to direct engine submission, per tenant.
//! - Route mismatches are typed both ways: unrouted work on a registry
//!   server and routed work on a single-engine server both yield
//!   `ErrorCode::UnknownTenant` (counted in `DegradedStats`), and admin
//!   opcodes on a single-engine server yield `UnsupportedOpcode`.
//! - `promote` is verdict-transparent under a seeded fault schedule: a
//!   client riding kills and stalls sees old-build or new-build verdicts,
//!   never a torn mix, never an untyped failure.
//! - Shutting the server down **mid-swap** leaks no worker threads: the
//!   registry's background drainers and mirror workers are all joined
//!   before `shutdown_registry` returns.
//! - A v1 peer is refused with a typed error naming both versions.

use napmon_artifact::MonitorArtifact;
use napmon_core::{ComposedMonitor, MonitorKind, MonitorSpec, Verdict};
use napmon_faultline::{FaultProxy, ProxyPlan};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_registry::{MonitorRegistry, RegistryConfig};
use napmon_serve::{EngineConfig, MonitorEngine};
use napmon_tensor::Prng;
use napmon_wire::{
    ClientConfig, ErrorCode, Frame, Opcode, Response, RetryPolicy, TenantRoute, WireClient,
    WireError, WireServer, DEFAULT_MAX_PAYLOAD, LEGACY_WIRE_PROTOCOL_VERSION,
};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

const INPUT_DIM: usize = 6;

fn fixture() -> (Network, Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let net = Network::seeded(
        501,
        INPUT_DIM,
        &[
            LayerSpec::dense(16, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(77);
    let train: Vec<Vec<f64>> = (0..128)
        .map(|_| rng.uniform_vec(INPUT_DIM, -1.0, 1.0))
        .collect();
    let probes: Vec<Vec<f64>> = (0..48)
        .map(|i| {
            if i % 3 == 0 {
                rng.uniform_vec(INPUT_DIM, -2.5, 2.5)
            } else {
                train[i % train.len()].clone()
            }
        })
        .collect();
    (net, train, probes)
}

fn spec() -> MonitorSpec {
    MonitorSpec::new(2, MonitorKind::pattern())
}

/// Monitor A sees the whole training set, monitor B half of it — two
/// builds whose verdicts genuinely differ on the probe traffic.
fn monitors(net: &Network, train: &[Vec<f64>]) -> (ComposedMonitor, ComposedMonitor) {
    let a = spec().build(net, train).expect("build monitor A");
    let b = spec()
        .build(net, &train[..train.len() / 2])
        .expect("build monitor B");
    (a, b)
}

fn engine(net: &Network, monitor: ComposedMonitor) -> MonitorEngine<ComposedMonitor> {
    MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(1))
}

fn artifact_json(net: &Network, monitor: ComposedMonitor, trained_on: usize) -> String {
    MonitorArtifact::from_parts(spec(), net.clone(), monitor, trained_on)
        .expect("pack artifact")
        .to_json_string()
        .expect("encode artifact")
}

fn reference(net: &Network, monitor: ComposedMonitor, probes: &[Vec<f64>]) -> Vec<Verdict> {
    let engine = engine(net, monitor);
    let verdicts = engine.submit_batch(probes.to_vec()).expect("reference");
    engine.shutdown();
    verdicts
}

fn registry_server() -> WireServer {
    WireServer::builder(Arc::new(MonitorRegistry::new(RegistryConfig::with_engine(
        EngineConfig::with_shards(1),
    ))))
    .bind("127.0.0.1:0")
    .expect("bind registry server")
}

/// Mount, route, serve: two tenants mounted over the wire, each client's
/// verdicts bit-identical to direct engine submission; the mismatch cases
/// are typed `UnknownTenant` and land in the degradation ledger.
#[test]
fn routed_tenants_serve_bit_identical_and_mismatches_are_typed() {
    let (net, train, probes) = fixture();
    let (monitor_a, monitor_b) = monitors(&net, &train);
    let expected_a = reference(&net, monitor_a.clone(), &probes);
    let expected_b = reference(&net, monitor_b.clone(), &probes);
    assert_ne!(expected_a, expected_b, "builds must be distinguishable");

    let server = registry_server();
    let addr = server.local_addr();

    // The control plane: mount each tenant at the version the client's
    // pinned route names.
    let mut admin = WireClient::connect(addr).expect("connect admin");
    admin.set_route(Some(TenantRoute::pinned("alpha", 1)));
    admin
        .mount_artifact(false, &artifact_json(&net, monitor_a, train.len()))
        .expect("mount alpha v1");
    admin.set_route(Some(TenantRoute::pinned("beta", 1)));
    admin
        .mount_artifact(false, &artifact_json(&net, monitor_b, train.len() / 2))
        .expect("mount beta v1");

    let tenants = admin.list_tenants().expect("list tenants");
    assert_eq!(
        tenants
            .iter()
            .map(|t| (t.model_id.as_str(), t.active_version, t.shadow_version))
            .collect::<Vec<_>>(),
        vec![("alpha", 1, None), ("beta", 1, None)]
    );

    // The data plane: each tenant's client follows the active route and
    // gets its own build's verdicts, bit for bit — concurrently.
    let handles: Vec<_> = [("alpha", expected_a.clone()), ("beta", expected_b.clone())]
        .into_iter()
        .map(|(tenant, expected)| {
            let probes = probes.clone();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr)
                    .expect("connect")
                    .with_route(TenantRoute::active(tenant));
                let verdicts = client.query_batch(&probes).expect("routed batch");
                assert_eq!(verdicts, expected, "tenant {tenant} drifted");
                for (probe, want) in probes.iter().zip(&expected).take(6) {
                    let got = client.query(probe).expect("routed query");
                    assert_eq!(&got, want, "tenant {tenant} single query drifted");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("tenant client");
    }

    // A pinned route addresses the same mount directly.
    let mut pinned = WireClient::connect(addr)
        .expect("connect")
        .with_route(TenantRoute::pinned("alpha", 1));
    assert_eq!(
        pinned.query_batch(&probes).expect("pinned batch"),
        expected_a
    );

    // Mismatches: unrouted work on a registry server, and a route naming
    // nobody — both typed UnknownTenant on a connection that survives.
    let mut stray = WireClient::connect(addr).expect("connect");
    match stray.query(&probes[0]) {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::UnknownTenant);
            assert!(message.contains("unrouted"), "{message}");
        }
        other => panic!("expected typed UnknownTenant, got {other:?}"),
    }
    stray.set_route(Some(TenantRoute::active("nobody")));
    match stray.query_batch(&probes) {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::UnknownTenant);
            assert!(message.contains("nobody"), "{message}");
        }
        other => panic!("expected typed UnknownTenant, got {other:?}"),
    }
    stray.set_route(None);
    let stats = stray.stats().expect("unrouted stats still serves");
    assert_eq!(
        stats.degraded.unknown_tenant, 2,
        "route mismatches must land in the degradation ledger"
    );
    // The merged report covers both tenants' batches (plus their queries).
    assert!(stats.engine.requests >= 2 * (probes.len() as u64 + 6));

    // Unmount one tenant over the wire; its route goes dark, typed.
    admin.set_route(Some(TenantRoute::active("beta")));
    let report = admin.unmount().expect("unmount beta");
    assert_eq!(report.queue_depth, 0);
    match admin.query(&probes[0]) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownTenant),
        other => panic!("expected typed UnknownTenant after unmount, got {other:?}"),
    }

    let report = server.shutdown_registry().expect("registry report");
    assert_eq!(report.tenants.len(), 1, "only alpha was still mounted");
    for outcome in report.tenants.iter().chain(&report.retired) {
        assert!(
            !outcome.timed_out,
            "{} v{} drain timed out",
            outcome.model_id, outcome.version
        );
        assert_eq!(outcome.report.queue_depth, 0);
    }
}

/// A `Mount` whose artifact holds a malformed network gets a typed error
/// reply, and the control plane that decoded it keeps serving: `Stats`
/// still answers, nothing was mounted, and a well-formed mount still
/// lands and serves.
#[test]
fn a_malformed_mount_is_refused_and_the_control_plane_keeps_serving() {
    let (net, train, probes) = fixture();
    let (monitor_a, _) = monitors(&net, &train);
    let expected = reference(&net, monitor_a.clone(), &probes);
    let good = artifact_json(&net, monitor_a, train.len());
    // The first dense layer's 16x6 weights claim a seventeenth row.
    let bad = good.replacen("\"rows\":16", "\"rows\":17", 1);
    assert_ne!(bad, good);

    let server = registry_server();
    let mut admin = WireClient::connect(server.local_addr()).expect("connect admin");
    admin.set_route(Some(TenantRoute::pinned("alpha", 1)));
    match admin.mount_artifact(false, &bad) {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Registry);
            assert!(
                message.contains("matrix of 17x6 holds 96 values"),
                "{message}"
            );
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    admin.set_route(None);
    let stats = admin.stats().expect("stats after the refused mount");
    assert_eq!(stats.engine.requests, 0);
    assert!(admin.list_tenants().expect("list tenants").is_empty());

    admin.set_route(Some(TenantRoute::pinned("alpha", 1)));
    admin.mount_artifact(false, &good).expect("mount alpha v1");
    assert_eq!(admin.query_batch(&probes).expect("served"), expected);
    server.shutdown_registry().expect("registry report");
}

/// One metrics system across tenants: the `Metrics` scrape merges the
/// same cells of every active engine that unrouted `Stats` reads, and a
/// routed `Stats` reads one tenant's share of them.
#[test]
fn metrics_scrape_and_stats_read_the_same_cells_across_tenants() {
    let (net, train, probes) = fixture();
    let (monitor_a, monitor_b) = monitors(&net, &train);
    let server = registry_server();
    let registry = server.registry().expect("registry backend");
    registry
        .mount_engine("alpha", 1, engine(&net, monitor_a))
        .expect("mount alpha");
    registry
        .mount_engine("beta", 1, engine(&net, monitor_b))
        .expect("mount beta");
    let addr = server.local_addr();

    let (mut n, mut k) = (0, 0);
    for (tenant, served) in [("alpha", probes.len()), ("beta", 30)] {
        let mut client = WireClient::connect(addr)
            .expect("connect")
            .with_route(TenantRoute::active(tenant));
        let verdicts = client.query_batch(&probes[..served]).expect("routed batch");
        let warned = verdicts.iter().filter(|v| v.warning).count() as u64;
        let routed = client.stats().expect("routed stats").engine;
        assert_eq!((routed.requests, routed.warnings), (served as u64, warned));
        n += served as u64;
        k += warned;
    }
    assert!(
        k > 0 && k < n,
        "fixture must exercise both verdict branches"
    );

    let mut admin = WireClient::connect(addr).expect("connect");
    let stats = admin.stats().expect("unrouted stats");
    let scrape = admin.metrics().expect("metrics");
    assert_eq!((stats.engine.requests, stats.engine.warnings), (n, k));
    let counters = &scrape.metrics.counters;
    assert_eq!(
        (counters["serve.requests"], counters["serve.warnings"]),
        (n, k)
    );
    let histograms = &scrape.metrics.histograms;
    assert_eq!(histograms["serve.latency_ns"], stats.engine.latency_ns);
    assert_eq!(histograms["serve.batch_size"], stats.engine.batch_sizes);
    server.shutdown();
}

/// The other direction of the route mismatch: a single-engine server
/// refuses routed work with typed `UnknownTenant` (counted), and refuses
/// the admin opcodes with `UnsupportedOpcode` — it has no registry.
#[test]
fn single_engine_servers_refuse_routes_and_admin_opcodes_typed() {
    let (net, train, probes) = fixture();
    let (monitor_a, _) = monitors(&net, &train);
    let server = WireServer::builder(engine(&net, monitor_a.clone()))
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    let mut client = WireClient::connect(addr)
        .expect("connect")
        .with_route(TenantRoute::active("alpha"));
    match client.query(&probes[0]) {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::UnknownTenant);
            assert!(message.contains("single engine"), "{message}");
        }
        other => panic!("expected typed UnknownTenant, got {other:?}"),
    }
    // The route check comes first: even an admin frame, when routed, is a
    // routing miss on this backend. Unrouted admin frames expose the real
    // refusal — no registry behind this server.
    client.set_route(None);
    match client.mount_artifact(false, &artifact_json(&net, monitor_a, train.len())) {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::UnsupportedOpcode);
            assert!(message.contains("registry"), "{message}");
        }
        other => panic!("expected typed UnsupportedOpcode, got {other:?}"),
    }
    match client.list_tenants() {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnsupportedOpcode),
        other => panic!("expected typed UnsupportedOpcode, got {other:?}"),
    }

    // The connection survived every refusal, and the ledger counted the
    // routed ones.
    let verdict = client.query(&probes[0]).expect("still serving");
    let _ = verdict;
    let stats = client.stats().expect("stats");
    assert_eq!(stats.degraded.unknown_tenant, 1);
    server.shutdown();
}

/// Promotion is verdict-transparent under seeded network faults: while
/// the active mount flips between two builds behind a `FaultProxy`
/// killing and stalling the connection, every served batch is
/// bit-identical to one of the two builds — never torn, never untyped.
#[test]
fn promote_is_verdict_transparent_under_seeded_faults() {
    const FLIPS_PER_SEED: u32 = 10;
    let seeds: Vec<u64> = match std::env::var("NAPMON_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(seed) => vec![seed],
        None => vec![
            0xDA7E_2021_0000_0001,
            0xC0FF_EE00_0000_0002,
            0x5EED_0000_0000_0006,
        ],
    };

    let (net, train, probes) = fixture();
    let (monitor_a, monitor_b) = monitors(&net, &train);
    let expected_a = reference(&net, monitor_a.clone(), &probes);
    let expected_b = reference(&net, monitor_b.clone(), &probes);
    assert_ne!(expected_a, expected_b, "builds must be distinguishable");

    let server = registry_server();
    let registry = Arc::clone(server.registry().expect("registry backend"));
    registry
        .mount_engine("prod", 1, engine(&net, monitor_a.clone()))
        .expect("mount v1");

    let mut version = 1u32;
    let mut total_kills = 0u64;
    for seed in seeds {
        eprintln!("fault schedule seed: {seed:#x}");
        let proxy =
            FaultProxy::spawn(server.local_addr(), ProxyPlan::seeded(seed)).expect("spawn proxy");
        let config = ClientConfig::default()
            .with_read_timeout(Some(Duration::from_millis(500)))
            .with_retry(RetryPolicy {
                max_attempts: 12,
                initial_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(20),
                budget: Duration::from_secs(60),
                jitter_seed: Some(seed),
            });
        let mut client = WireClient::connect_with(proxy.addr(), config)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: connect through proxy: {e}"))
            .with_route(TenantRoute::active("prod"));

        for flip in 0..FLIPS_PER_SEED {
            version += 1;
            let monitor = if version.is_multiple_of(2) {
                monitor_b.clone()
            } else {
                monitor_a.clone()
            };
            registry
                .mount_shadow_engine("prod", version, engine(&net, monitor))
                .unwrap_or_else(|e| panic!("seed {seed:#x}: shadow v{version}: {e}"));
            registry
                .promote("prod")
                .unwrap_or_else(|e| panic!("seed {seed:#x}: promote v{version}: {e}"));

            let verdicts = client
                .query_batch(&probes)
                .unwrap_or_else(|e| panic!("seed {seed:#x} flip {flip}: batch under faults: {e}"));
            assert!(
                verdicts == expected_a || verdicts == expected_b,
                "seed {seed:#x} flip {flip}: verdicts match neither build — torn swap"
            );
        }
        total_kills += proxy.stats().kills;
        drop(client);
    }
    assert!(
        total_kills > 0,
        "committed seeds never killed a connection; the schedule is not exercising faults"
    );

    let report = server.shutdown_registry().expect("registry report");
    for outcome in report.tenants.iter().chain(&report.retired) {
        assert!(!outcome.timed_out, "v{} drain timed out", outcome.version);
    }
}

/// A v1 peer on a real socket is refused with a typed error naming both
/// its version and ours — the cross-version contract from
/// `frame_props.rs`, proven end-to-end against a registry server.
#[test]
fn v1_clients_get_a_typed_rejection_naming_both_versions() {
    let server = registry_server();

    let mut v1_frame = Frame::empty(Opcode::Stats, 3).encode().expect("encode");
    v1_frame[4..6].copy_from_slice(&LEGACY_WIRE_PROTOCOL_VERSION.to_le_bytes());
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(&v1_frame).expect("write v1 frame");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read reply");
    let (frame, _) = Frame::decode(&reply, DEFAULT_MAX_PAYLOAD).expect("typed error frame back");
    assert_eq!(frame.opcode, Opcode::Error);
    match Response::decode(&frame).expect("decodes") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::UnsupportedVersion);
            assert!(
                message.contains("v1") && message.contains("v2"),
                "the rejection must name both versions: {message}"
            );
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    server.shutdown_registry();
}
