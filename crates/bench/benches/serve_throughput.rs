//! Throughput of the sharded online monitoring engine.
//!
//! Serves the same in-distribution workload through `napmon-serve` engines
//! with 1, 2, and 4 shards and records requests/sec per configuration,
//! plus a direct single-thread `query_batch` baseline (no channels, no
//! threads) so the serving overhead is visible. Results land in
//! `BENCH_serve.json` at the workspace root.
//!
//! Shard scaling is hardware-bound: on an N-core machine the expected
//! 4-shard/1-shard ratio is `min(4, N)` minus channel overhead, and on a
//! single core it is ~1.0 by construction — the JSON records the measuring
//! machine's `threads` so readers can judge the rows. Set
//! `NAPMON_BENCH_SMOKE=1` to run a seconds-long smoke pass that still
//! writes the full JSON schema (CI validates it).

use napmon_core::{Monitor, MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_registry::{MonitorRegistry, RegistryConfig};
use napmon_serve::{EngineConfig, MonitorEngine};
use napmon_tensor::Prng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const TRAIN_SIZE: usize = 256;
const BATCH_SIZE: usize = 512;
const INPUT_DIM: usize = 16;
const NEURONS: usize = 64;
const MICRO_BATCH: usize = 64;
/// Hot-swap flips measured for the registry flip-latency figure.
const FLIP_COUNT: usize = 16;

fn smoke() -> bool {
    std::env::var_os("NAPMON_BENCH_SMOKE").is_some()
}

/// Wall-clock budget per measured configuration.
fn measure_secs() -> f64 {
    if smoke() {
        0.05
    } else {
        1.0
    }
}

#[derive(Serialize)]
struct ShardRow {
    shards: usize,
    /// Requests/sec through `submit_batch` (channels + workers).
    qps: f64,
    /// This row's qps over the 1-shard row's.
    speedup_vs_1shard: f64,
    /// Mean in-shard latency per request (ns), from the engine's own
    /// online metrics.
    mean_latency_ns: f64,
    /// Warn rate over the measured stream (0.0 for this in-distribution
    /// workload).
    warn_rate: f64,
    /// Requests served during measurement.
    requests: u64,
}

#[derive(Serialize)]
struct ObsOverhead {
    /// Requests/sec through a 1-shard engine with tracing disarmed.
    qps_uninstrumented: f64,
    /// Requests/sec through the same engine with tracing armed and every
    /// batch submitted under a minted trace id (the worst-case probe
    /// path: clock reads + span records on every micro-batch).
    qps_instrumented: f64,
    /// `qps_uninstrumented / qps_instrumented` — 1.0 means free;
    /// `validate_bench` gates this at ≤ 1.05 on non-smoke runs.
    ratio: f64,
    /// Whether the binary was built with the `obs` feature (probe shims
    /// compile to no-ops otherwise, so the ratio prices nothing).
    probes_enabled: bool,
}

#[derive(Serialize)]
struct Report {
    threads: usize,
    train_size: usize,
    batch_size: usize,
    input_dim: usize,
    neurons: usize,
    micro_batch: usize,
    /// Direct `query_batch` on the caller thread: the no-engine baseline.
    direct_qps: f64,
    rows: Vec<ShardRow>,
    speedup_4shard_vs_1shard: f64,
    /// Requests/sec through `MonitorRegistry::query_batch` (tenant lookup
    /// + pointer load on top of a 1-shard engine, no shadow attached).
    registry_dispatch_qps: f64,
    /// 1-shard engine qps over `registry_dispatch_qps`: the price of the
    /// registry's routing layer as a within-run ratio (~1.0 expected).
    registry_dispatch_overhead: f64,
    /// 1-shard engine qps over the registry's qps *with one shadow
    /// candidate attached and mirroring*. The shadow contract is ≤ 1.10
    /// where the mirror can run on its own core; `validate_bench` gates
    /// it threads-aware.
    registry_shadow_overhead: f64,
    /// Mean `promote()` wall time (µs) over hot-swap flips: detach the
    /// mirror, flush it, flip the active pointer, hand the old engine to
    /// the background drainer.
    registry_flip_latency_us: f64,
    /// Cost of the observability probes on the serving hot path, measured
    /// in one binary via the runtime tracing toggle.
    obs_overhead: ObsOverhead,
    smoke: bool,
    notes: String,
}

/// Measures `registry.query_batch` throughput over the shared batch for
/// the configured window, subtracting `warmup` requests already counted.
fn measure_registry_qps(registry: &MonitorRegistry, shared: &std::sync::Arc<[Vec<f64>]>) -> f64 {
    // Warm-up batch grows shard scratch buffers, same as the engine rows.
    registry
        .query_batch("bench", std::sync::Arc::clone(shared))
        .unwrap();
    let start = Instant::now();
    let mut served = 0u64;
    while start.elapsed().as_secs_f64() < measure_secs() {
        black_box(
            registry
                .query_batch("bench", std::sync::Arc::clone(shared))
                .unwrap(),
        );
        served += BATCH_SIZE as u64;
    }
    served as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let net = Network::seeded(
        2024,
        INPUT_DIM,
        &[
            LayerSpec::dense(NEURONS, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(55);
    let train: Vec<Vec<f64>> = (0..TRAIN_SIZE)
        .map(|_| rng.uniform_vec(INPUT_DIM, -1.0, 1.0))
        .collect();
    let monitor = MonitorSpec::new(
        2,
        MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::HashSet, 0),
    )
    .build(&net, &train)
    .unwrap();

    // Steady-state operation: in-distribution probes, membership hits, no
    // warning evidence to build. Shared as one `Arc` so the measured loops
    // pay a refcount bump per batch, not a per-request clone — the same
    // zero-copy resubmission a replaying client would use.
    let mut probes: Vec<Vec<f64>> = (0..BATCH_SIZE)
        .map(|i| train[i % TRAIN_SIZE].clone())
        .collect();
    rng.shuffle(&mut probes);
    let shared: std::sync::Arc<[Vec<f64>]> = probes.clone().into();

    // Direct single-thread baseline: no channels, no worker threads.
    let direct_start = Instant::now();
    let mut direct_served = 0u64;
    while direct_start.elapsed().as_secs_f64() < measure_secs() {
        black_box(monitor.query_batch(&net, &probes).unwrap());
        direct_served += BATCH_SIZE as u64;
    }
    let direct_qps = direct_served as f64 / direct_start.elapsed().as_secs_f64();
    println!("direct query_batch baseline {direct_qps:>12.0} req/s");

    let mut rows: Vec<ShardRow> = Vec::new();
    for &shards in &SHARD_COUNTS {
        let engine = MonitorEngine::new(
            net.clone(),
            monitor.clone(),
            EngineConfig {
                shards,
                micro_batch: MICRO_BATCH,
            },
        );
        // Warm-up: grow every shard's scratch buffers. (Its 512 requests
        // also sit in the final report's latency/warn-rate stream — a
        // <0.1% share of the measured traffic — while `requests` below is
        // measurement-only.)
        engine.submit_batch(std::sync::Arc::clone(&shared)).unwrap();
        let baseline = engine.report();

        let start = Instant::now();
        while start.elapsed().as_secs_f64() < measure_secs() {
            black_box(engine.submit_batch(std::sync::Arc::clone(&shared)).unwrap());
        }
        let elapsed = start.elapsed().as_secs_f64();
        let report = engine.shutdown();
        let served = report.requests - baseline.requests;
        let qps = served as f64 / elapsed;
        let speedup = rows.first().map_or(1.0, |first: &ShardRow| qps / first.qps);
        println!(
            "{shards} shard(s) {qps:>12.0} req/s  ({speedup:>5.2}x vs 1 shard)  \
             mean in-shard latency {:>7.0}ns",
            report.latency_ns.mean(),
        );
        rows.push(ShardRow {
            shards,
            qps,
            speedup_vs_1shard: speedup,
            mean_latency_ns: report.latency_ns.mean(),
            warn_rate: report.warn_rate,
            requests: served,
        });
    }

    let speedup_4shard_vs_1shard = rows
        .iter()
        .find(|r| r.shards == 4)
        .map_or(0.0, |r| r.speedup_vs_1shard);

    // Registry dispatch: the same workload behind a `MonitorRegistry`,
    // so the delta prices the routing layer (tenant lookup +
    // active-pointer load) and then the shadow mirror. The registry
    // serves `ComposedMonitor` engines, so the overhead baseline is a
    // fresh 1-shard engine over the composed build of the same spec —
    // like-for-like, measured in the same run; both overheads are
    // within-run ratios and survive hardware changes in compare mode.
    let shard_config = EngineConfig {
        shards: 1,
        micro_batch: MICRO_BATCH,
    };
    let composed = MonitorSpec::new(
        2,
        MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::HashSet, 0),
    )
    .build(&net, &train)
    .unwrap();
    let fresh_engine = || MonitorEngine::new(net.clone(), composed.clone(), shard_config);
    let baseline_engine = fresh_engine();
    baseline_engine
        .submit_batch(std::sync::Arc::clone(&shared))
        .unwrap();
    let start = Instant::now();
    let mut served = 0u64;
    while start.elapsed().as_secs_f64() < measure_secs() {
        black_box(
            baseline_engine
                .submit_batch(std::sync::Arc::clone(&shared))
                .unwrap(),
        );
        served += BATCH_SIZE as u64;
    }
    let engine_1shard_qps = served as f64 / start.elapsed().as_secs_f64();
    baseline_engine.shutdown();
    let registry = MonitorRegistry::new(RegistryConfig::with_engine(shard_config));
    registry.mount_engine("bench", 1, fresh_engine()).unwrap();
    let registry_dispatch_qps = measure_registry_qps(&registry, &shared);
    let registry_dispatch_overhead = engine_1shard_qps / registry_dispatch_qps;
    println!(
        "registry dispatch     {registry_dispatch_qps:>12.0} req/s  \
         ({registry_dispatch_overhead:>5.2}x the 1-shard engine)"
    );

    registry
        .mount_shadow_engine("bench", 2, fresh_engine())
        .unwrap();
    let shadow_qps = measure_registry_qps(&registry, &shared);
    let registry_shadow_overhead = engine_1shard_qps / shadow_qps;
    println!(
        "registry + 1 shadow   {shadow_qps:>12.0} req/s  \
         ({registry_shadow_overhead:>5.2}x the 1-shard engine)"
    );

    // Flip latency: promote the standing shadow, then keep re-shadowing
    // and promoting. Each `promote` detaches + flushes the mirror, flips
    // the active pointer, and hands the retiree to the background
    // drainer; retirees are reaped as we go so the flip mill does not
    // stack idle engines.
    let mut flip_ns = 0u128;
    for flip in 0..FLIP_COUNT {
        if flip > 0 {
            registry
                .mount_shadow_engine("bench", flip as u32 + 2, fresh_engine())
                .unwrap();
        }
        let start = Instant::now();
        black_box(registry.promote("bench").unwrap());
        flip_ns += start.elapsed().as_nanos();
        registry.reap_retired();
    }
    let registry_flip_latency_us = flip_ns as f64 / FLIP_COUNT as f64 / 1_000.0;
    println!(
        "hot-swap flip latency {registry_flip_latency_us:>12.1} us mean over {FLIP_COUNT} promotes"
    );
    registry.shutdown();

    // Obs-probe overhead: one engine, one workload, toggled at runtime.
    // Both legs run the same submission code and differ only in the trace
    // id. The uninstrumented leg runs with tracing disarmed and id 0
    // (probes read the flag and fold away); the instrumented leg arms
    // tracing and submits every batch under a minted trace id, so each
    // micro-batch pays the queue-wait and verdict span records — the
    // worst-case probe cost.
    let obs_engine = fresh_engine();
    obs_engine
        .submit_batch(std::sync::Arc::clone(&shared))
        .unwrap();
    let leg = |traced: bool| {
        napmon_obs::set_tracing(traced);
        let start = Instant::now();
        let mut served = 0u64;
        while start.elapsed().as_secs_f64() < measure_secs() {
            let trace_id = if traced {
                napmon_obs::mint_trace_id()
            } else {
                0
            };
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            obs_engine.submit_batch_with(std::sync::Arc::clone(&shared), trace_id, move |v| {
                let _ = tx.send(v);
            });
            black_box(rx.recv().unwrap().unwrap());
            served += BATCH_SIZE as u64;
        }
        served as f64 / start.elapsed().as_secs_f64()
    };
    let qps_uninstrumented = leg(false);
    let qps_instrumented = leg(true);
    napmon_obs::set_tracing(false);
    obs_engine.shutdown();
    let obs_overhead = ObsOverhead {
        qps_uninstrumented,
        qps_instrumented,
        ratio: qps_uninstrumented / qps_instrumented,
        probes_enabled: cfg!(feature = "obs"),
    };
    println!(
        "obs probes            {qps_instrumented:>12.0} req/s traced  \
         ({:>5.3}x the untraced {qps_uninstrumented:>12.0} req/s, probes {})",
        obs_overhead.ratio,
        if obs_overhead.probes_enabled {
            "on"
        } else {
            "off"
        },
    );

    let threads = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let report = Report {
        threads,
        train_size: TRAIN_SIZE,
        batch_size: BATCH_SIZE,
        input_dim: INPUT_DIM,
        neurons: NEURONS,
        micro_batch: MICRO_BATCH,
        direct_qps,
        rows,
        speedup_4shard_vs_1shard,
        registry_dispatch_qps,
        registry_dispatch_overhead,
        registry_shadow_overhead,
        registry_flip_latency_us,
        obs_overhead,
        smoke: smoke(),
        // The machine shape lives in the structured `threads` field only —
        // prose copies of it went stale whenever the file was regenerated
        // on different hardware.
        notes: format!(
            "in-distribution workload (all probes hit the pattern set); \
             shard scaling and shadow-mirror overhead are bounded by the \
             measuring machine's cores (see the `threads` field); smoke = {}",
            smoke()
        ),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap()).unwrap();
    println!("\n4-shard vs 1-shard speedup: {speedup_4shard_vs_1shard:.2}x (on {threads} core(s))");
    println!("wrote {path}");
}
