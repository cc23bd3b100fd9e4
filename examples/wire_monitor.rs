//! Networked monitoring, end to end:
//!
//! 1. the *training side* builds a store-backed monitor, packages it as a
//!    versioned artifact file, and walks away;
//! 2. the *operations side* cold-starts a [`WireServer`] from nothing but
//!    that file and a port;
//! 3. N concurrent clients submit traffic over loopback TCP — and their
//!    verdicts are asserted **bit-identical** to a direct in-process
//!    `MonitorEngine::submit_batch` on the same build;
//! 4. novel traffic is *absorbed over the wire*: the store grows, every
//!    shard (and every client) sees the enlarged abstraction immediately;
//! 5. the operations client stamps a trace id on its traffic and scrapes
//!    the server's metrics over the same protocol — counters (the
//!    engine's `serve.*` cells, the same ones `Stats` reads), text
//!    exposition, slow-request log, and (with `--features obs`) the
//!    recorded span chains;
//! 6. a client asks for graceful shutdown; the server drains (final queue
//!    depth: zero) and reports;
//! 7. a warm restart boots a second server straight from the store
//!    segments on disk — the absorbed patterns survived.
//!
//! Run with `cargo run --release --example wire_monitor`, or with
//! `--features obs` to arm the hot-path probes. Set `NAPMON_OBS_OUT=dir`
//! to write the scraped exposition and slow-request log to files (CI
//! uploads these as build artifacts).

use napmon::artifact::MonitorArtifact;
use napmon::core::{Monitor, MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy};
use napmon::nn::{Activation, LayerSpec, Network};
use napmon::serve::{EngineConfig, MonitorEngine};
use napmon::store::StoreProvider;
use napmon::tensor::Prng;
use napmon::wire::{
    ClientConfig, RetryPolicy, WireClient, WireConfig, WireServer, WIRE_PROTOCOL_VERSION,
};

const CLIENTS: usize = 4;
const INPUT_DIM: usize = 4;

/// Every client in this example speaks through the standard retry
/// policy: a transient `Busy` from an over-budget server (or a dropped
/// connection) is backed off and retried, not treated as fatal — only a
/// `RetriesExhausted` would surface.
fn resilient_client(addr: std::net::SocketAddr) -> Result<WireClient, napmon::wire::WireError> {
    WireClient::connect_with(
        addr,
        ClientConfig::default().with_retry(RetryPolicy::standard()),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Arm request tracing for the whole run. Without `--features obs` this
    // is a no-op shim and every probe below compiles to nothing; the
    // metrics scrape itself still works (counters are always live).
    napmon::obs::set_tracing(true);
    let dir = std::env::temp_dir().join(format!("napmon_wire_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_root = dir.join("patterns");
    let artifact_path = dir.join("monitor.artifact.json");

    // ---- Training side: build, package, leave ---------------------------
    let net = Network::seeded(
        2024,
        INPUT_DIM,
        &[
            LayerSpec::dense(24, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(11);
    let train: Vec<Vec<f64>> = (0..256)
        .map(|_| rng.uniform_vec(INPUT_DIM, -1.0, 1.0))
        .collect();
    let spec = MonitorSpec::new(
        2,
        MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
    );
    let monitor = spec.build_with_sources(&net, &train, &mut StoreProvider::new(&store_root))?;
    let artifact = MonitorArtifact::from_parts(spec.clone(), net.clone(), monitor, train.len())?;
    artifact.save_json(&artifact_path)?;

    // Reference verdicts for the bit-identical check: mixed traffic,
    // answered by the builder's own monitor before it leaves the process.
    let probes: Vec<Vec<f64>> = (0..192)
        .map(|i| {
            if i % 3 == 0 {
                rng.uniform_vec(INPUT_DIM, -2.5, 2.5)
            } else {
                train[i % train.len()].clone()
            }
        })
        .collect();
    let reference = artifact.monitor().query_batch(&net, &probes)?;
    let reference_warned = reference.iter().filter(|v| v.warning).count();
    println!(
        "built    {artifact}\n         reference: {reference_warned}/{} probes warn",
        probes.len()
    );
    // Store opens are exclusive: release the builder's handle before the
    // server reopens the segments.
    drop(artifact);

    // ---- Operations side: cold start from the file ----------------------
    let server = WireServer::serve_artifact_file(
        &artifact_path,
        "127.0.0.1:0",
        EngineConfig::with_shards(2),
        // Loopback requests finish in microseconds; a 10us threshold
        // makes the slow-request log observably populate (with the
        // probes compiled out, timings read zero and nothing is slow).
        WireConfig::default().with_slow_request_threshold(std::time::Duration::from_micros(10)),
    )?;
    let addr = server.local_addr();
    println!("serving  wire protocol v{WIRE_PROTOCOL_VERSION} on {addr} (2 shards)");

    // N concurrent clients: everyone must see exactly the builder's
    // verdicts, over TCP, interleaved on one engine.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let probes = probes.clone();
            let reference = reference.clone();
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = resilient_client(addr).map_err(|e| e.to_string())?;
                let verdicts = client.query_batch(&probes).map_err(|e| e.to_string())?;
                if verdicts != reference {
                    return Err(format!("client {id}: wire verdicts drifted"));
                }
                Ok(())
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread")?;
    }
    println!(
        "queried  {CLIENTS} concurrent clients x {} probes — all bit-identical to the direct engine",
        probes.len()
    );

    // ---- Absorb over the wire -------------------------------------------
    // The operator stamps a trace id on everything it sends; the server
    // echoes it back on every response, and — with the probes armed —
    // records the request's span chain under that id.
    const OPERATOR_TRACE: u64 = 0x0B5E_4E0A_B1E0_0050;
    let mut operator = resilient_client(addr)?.with_trace_id(OPERATOR_TRACE);
    let novel: Vec<Vec<f64>> = (0..48)
        .map(|_| rng.uniform_vec(INPUT_DIM, -2.5, 2.5))
        .collect();
    let before = operator.query_batch(&novel)?;
    let warned_before = before.iter().filter(|v| v.warning).count();
    let fresh = operator.absorb_batch(&novel)?;
    let after = operator.query_batch(&novel)?;
    assert!(
        after.iter().all(|v| !v.warning),
        "absorbed traffic must be clean"
    );
    println!(
        "absorbed {fresh} new patterns over the wire \
         ({warned_before}/{} warned before, 0 after — no rebuild, every shard sees them)",
        novel.len()
    );

    // ---- Stats + graceful shutdown, both over the wire ------------------
    let stats = operator.stats()?;
    println!(
        "stats    {} requests served, warn rate {:.4}, wire budget {} \
         (busy rejections: {}, shed: {}, evicted: {})",
        stats.engine.requests,
        stats.engine.warn_rate,
        stats.wire_budget,
        stats.degraded.busy_total(),
        stats.degraded.shed_watermark,
        stats.degraded.evicted_total()
    );

    // ---- Observability scrape, over the same protocol -------------------
    assert_eq!(
        operator.last_trace_id(),
        Some(OPERATOR_TRACE),
        "the server must echo the operator's trace id"
    );
    let obs = operator.metrics()?;
    // One metrics system: the scrape's serving counters are the cells
    // `Stats` read, and no traffic ran in between.
    assert_eq!(
        obs.metrics.counters.get("serve.requests"),
        Some(&stats.engine.requests),
        "the scrape and Stats must read the same cells"
    );
    let operator_spans = obs
        .spans
        .iter()
        .filter(|s| s.trace_id == OPERATOR_TRACE)
        .count();
    println!(
        "scraped  obs report v{}: {} counters, {} spans under the operator's \
         trace id, {} slow requests (probes {})",
        obs.schema_version,
        obs.metrics.counters.len(),
        operator_spans,
        obs.slow_requests.len(),
        if cfg!(feature = "obs") { "on" } else { "off" }
    );
    if let Some(out) = std::env::var_os("NAPMON_OBS_OUT") {
        let out = std::path::PathBuf::from(out);
        std::fs::create_dir_all(&out)?;
        std::fs::write(out.join("metrics.prom"), &obs.exposition)?;
        std::fs::write(
            out.join("slow_requests.json"),
            serde_json::to_string_pretty(&obs.slow_requests)?,
        )?;
        println!("wrote    {} (exposition + slow-request log)", out.display());
    }
    operator.shutdown_server()?;
    let report = server.wait();
    assert_eq!(report.queue_depth, 0, "drain left queued work");
    println!(
        "drained  graceful shutdown: {} requests total, queue depth {}",
        report.requests, report.queue_depth
    );

    // ---- Warm restart from the store ------------------------------------
    // A second server boots from the same artifact file; the store-backed
    // members reattach to the segments on disk, absorbed patterns
    // included. No training data, no rebuild.
    let warm = WireServer::serve_artifact_file(
        &artifact_path,
        "127.0.0.1:0",
        EngineConfig::with_shards(2),
        WireConfig::default(),
    )?;
    let mut client = resilient_client(warm.local_addr())?;
    let served = client.query_batch(&novel)?;
    assert!(
        served.iter().all(|v| !v.warning),
        "absorbed patterns must survive the restart"
    );
    // The original reference traffic still answers bit-identically on
    // every pattern the builder knew (absorption only enlarges).
    let replay = client.query_batch(&probes)?;
    for (wire, direct) in replay.iter().zip(&reference) {
        if !direct.warning {
            assert!(!wire.warning, "warm restart lost a builder pattern");
        }
    }
    client.shutdown_server()?;
    warm.wait();
    println!("restart  warm server from disk: absorbed patterns intact");

    // Boot-from-store also works without the artifact file at all.
    let from_store =
        MonitorEngine::from_store(&spec, net, &store_root, EngineConfig::with_shards(1))?;
    assert!(from_store.submit_batch(novel)?.iter().all(|v| !v.warning));
    from_store.shutdown();

    std::fs::remove_dir_all(&dir).ok();
    println!("ok");
    Ok(())
}
