//! Throughput of the networked serving layer over loopback TCP.
//!
//! Boots a `WireServer` (2 engine shards) on 127.0.0.1 and measures
//! requests/sec through 1, 2, and 4 concurrent `WireClient`s pipelining
//! batches, against a direct in-process `submit_batch` baseline measured
//! in the same run — the gap between the two is the price of the network
//! boundary (framing, syscalls, loopback). Per-row round-trip latency is
//! the client-observed mean per pipelined batch.
//!
//! Results land in `BENCH_wire.json` at the workspace root. Client
//! scaling is hardware-bound exactly like shard scaling: the JSON records
//! the measuring machine's `threads`. Set `NAPMON_BENCH_SMOKE=1` for a
//! seconds-long smoke pass writing the full schema (CI validates and
//! regression-gates it; latency fields are informational on smoke runs).
//!
//! A final pass measures the reactor's scaling claim directly: 1-client
//! throughput while a herd of idle connections stays attached, plus the
//! `napmon-wire-*` thread count observed with the herd held — the
//! evidence that connections are reactor state, not threads.

use napmon_core::{MonitorKind, MonitorSpec};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_serve::{EngineConfig, MonitorEngine};
use napmon_tensor::Prng;
use napmon_wire::{WireClient, WireConfig, WireServer};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const CLIENT_COUNTS: [usize; 3] = [1, 2, 4];
/// Idle connections held during the high-connection pass (the reactor's
/// e2e contract is ≥1024; smoke runs hold a token herd for schema
/// coverage without the dial-up time).
const IDLE_CONNS_FULL: usize = 1024;
const IDLE_CONNS_SMOKE: usize = 128;
const TRAIN_SIZE: usize = 256;
const BATCH_SIZE: usize = 512;
const INPUT_DIM: usize = 16;
const NEURONS: usize = 64;
const SHARDS: usize = 2;

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
struct ClientRow {
    clients: usize,
    /// Requests/sec across all clients through the wire.
    qps: f64,
    /// This row's qps over the 1-client row's.
    speedup_vs_1client: f64,
    /// Client-observed mean round trip for one pipelined batch
    /// (micro-seconds). Informational on smoke runs.
    batch_rtt_us: f64,
    /// Requests served during measurement.
    requests: u64,
    /// `Busy`-shaped refusals during the row (budget + watermark +
    /// connection cap). Zero on a healthy run: the bench never
    /// oversubscribes the default budget.
    degraded_busy: u64,
    /// Requests shed at the queue watermark during the row.
    degraded_shed: u64,
    /// Connections evicted (idle or stalled) during the row.
    degraded_evicted: u64,
}

#[derive(Serialize)]
struct HighConnRow {
    /// Idle connections held open for the whole measured window.
    idle_conns: usize,
    /// `napmon-wire-*` threads (reactor plus one control thread) observed via
    /// `/proc/self/task` while the herd was attached; 0 where `/proc`
    /// is unavailable. The reactor contract is that this figure does
    /// not scale with `idle_conns`.
    wire_threads: usize,
    /// 1-client wire qps measured with the herd attached.
    qps_1client: f64,
    /// direct_qps over `qps_1client`: the network boundary's cost while
    /// a thousand idle peers sit on the same reactor.
    overhead_vs_direct: f64,
}

#[derive(Serialize)]
struct Report {
    threads: usize,
    train_size: usize,
    batch_size: usize,
    input_dim: usize,
    neurons: usize,
    shards: usize,
    smoke: bool,
    /// Direct in-process `submit_batch` on the same engine shape: the
    /// no-network baseline.
    direct_qps: f64,
    /// direct_qps over the 1-client wire qps: what the network boundary
    /// costs.
    wire_overhead_1client: f64,
    rows: Vec<ClientRow>,
    /// The idle-herd pass: throughput and thread count with ~1k
    /// connections held open.
    high_connection: HighConnRow,
    /// `high_connection.overhead_vs_direct`, lifted to the top level so
    /// the compare gate can ceiling it like `wire_overhead_1client`.
    high_conn_overhead: f64,
    notes: String,
}

fn build_engine(net: &Network, train: &[Vec<f64>]) -> MonitorEngine<napmon_core::ComposedMonitor> {
    let spec = MonitorSpec::new(2, MonitorKind::pattern());
    let monitor = spec.build(net, train).expect("build monitor");
    MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(SHARDS))
}

/// Threads currently named with the given prefix (`comm` truncates to 15
/// bytes, so match on prefixes). 0 on platforms without `/proc`.
fn threads_with_prefix(prefix: &str) -> usize {
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    entries
        .filter_map(|entry| {
            let comm = entry.ok()?.path().join("comm");
            let name = std::fs::read_to_string(comm).ok()?;
            name.trim().starts_with(prefix).then_some(())
        })
        .count()
}

/// The idle-herd pass: dial ~1k connections, leave them attached, and
/// measure 1-client throughput plus the wire thread count beside them.
fn measure_high_connection(
    net: &Network,
    train: &[Vec<f64>],
    probes: &[Vec<f64>],
    direct_qps: f64,
) -> HighConnRow {
    let idle_conns = if smoke() {
        IDLE_CONNS_SMOKE
    } else {
        IDLE_CONNS_FULL
    };
    let server = WireServer::builder(build_engine(net, train))
        .config(
            WireConfig::default()
                .with_max_connections(idle_conns + 8)
                // Idle eviction must not thin the herd mid-measurement.
                .with_idle_timeout(std::time::Duration::from_secs(300)),
        )
        .bind("127.0.0.1:0")
        .expect("bind server");
    let addr = server.local_addr();

    let mut herd: Vec<std::net::TcpStream> = Vec::with_capacity(idle_conns);
    while herd.len() < idle_conns {
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => herd.push(stream),
            // A full accept backlog refuses the dial; pace and retry.
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(2)),
        }
    }
    let wire_threads = threads_with_prefix("napmon-wire");

    let mut client = WireClient::connect(addr).expect("connect beside the herd");
    client.query_batch(probes).expect("warm-up batch");
    let start = Instant::now();
    let mut served = 0u64;
    while start.elapsed().as_secs_f64() < measure_secs() {
        black_box(client.query_batch(probes).expect("wire batch"));
        served += probes.len() as u64;
    }
    let qps_1client = served as f64 / start.elapsed().as_secs_f64();
    drop(herd);
    server.shutdown();
    let overhead_vs_direct = direct_qps / qps_1client;
    println!(
        "{idle_conns} idle conns {qps_1client:>12.0} req/s  \
         ({overhead_vs_direct:.2}x vs direct, {wire_threads} wire thread(s))"
    );
    HighConnRow {
        idle_conns,
        wire_threads,
        qps_1client,
        overhead_vs_direct,
    }
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
    let mut probes: Vec<Vec<f64>> = (0..BATCH_SIZE)
        .map(|i| train[i % TRAIN_SIZE].clone())
        .collect();
    rng.shuffle(&mut probes);

    // Direct baseline: same engine shape, no network.
    let direct = build_engine(&net, &train);
    let shared: std::sync::Arc<[Vec<f64>]> = probes.clone().into();
    direct
        .submit_batch(std::sync::Arc::clone(&shared))
        .expect("warm-up");
    let start = Instant::now();
    let mut direct_served = 0u64;
    while start.elapsed().as_secs_f64() < measure_secs() {
        black_box(
            direct
                .submit_batch(std::sync::Arc::clone(&shared))
                .expect("direct batch"),
        );
        direct_served += BATCH_SIZE as u64;
    }
    let direct_qps = direct_served as f64 / start.elapsed().as_secs_f64();
    direct.shutdown();
    println!("direct submit_batch baseline {direct_qps:>12.0} req/s");

    let mut rows: Vec<ClientRow> = Vec::new();
    for &clients in &CLIENT_COUNTS {
        let server = WireServer::builder(build_engine(&net, &train))
            .bind("127.0.0.1:0")
            .expect("bind server");
        let addr = server.local_addr();
        let secs = measure_secs();

        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let probes = probes.clone();
                std::thread::spawn(move || {
                    let mut client = WireClient::connect(addr).expect("connect");
                    // Warm-up round trip (grows scratches and buffers).
                    client.query_batch(&probes).expect("warm-up batch");
                    let start = Instant::now();
                    let mut served = 0u64;
                    let mut batches = 0u64;
                    while start.elapsed().as_secs_f64() < secs {
                        black_box(client.query_batch(&probes).expect("wire batch"));
                        served += probes.len() as u64;
                        batches += 1;
                    }
                    (served, batches, start.elapsed())
                })
            })
            .collect();
        let mut served = 0u64;
        let mut batches = 0u64;
        let mut elapsed = 0.0f64;
        for worker in workers {
            let (s, b, e) = worker.join().expect("client thread");
            served += s;
            batches += b;
            elapsed = elapsed.max(e.as_secs_f64());
        }
        // The degradation ledger for the row: a healthy saturation run
        // sheds nothing, and the committed report pins that.
        let degraded = WireClient::connect(addr)
            .expect("stats connect")
            .stats()
            .expect("stats")
            .degraded;
        server.shutdown();
        let qps = served as f64 / elapsed;
        let batch_rtt_us = if batches == 0 {
            0.0
        } else {
            elapsed * 1e6 * clients as f64 / batches as f64
        };
        let speedup = rows
            .first()
            .map_or(1.0, |first: &ClientRow| qps / first.qps);
        println!(
            "{clients} client(s) {qps:>12.0} req/s  ({speedup:>5.2}x vs 1 client)  \
             batch rtt {batch_rtt_us:>8.0}us"
        );
        rows.push(ClientRow {
            clients,
            qps,
            speedup_vs_1client: speedup,
            batch_rtt_us,
            requests: served,
            degraded_busy: degraded.busy_total(),
            degraded_shed: degraded.shed_watermark,
            degraded_evicted: degraded.evicted_total(),
        });
    }

    let high_connection = measure_high_connection(&net, &train, &probes, direct_qps);

    let threads = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let wire_overhead_1client = rows.first().map_or(0.0, |r| direct_qps / r.qps);
    let high_conn_overhead = high_connection.overhead_vs_direct;
    let report = Report {
        threads,
        train_size: TRAIN_SIZE,
        batch_size: BATCH_SIZE,
        input_dim: INPUT_DIM,
        neurons: NEURONS,
        shards: SHARDS,
        smoke: smoke(),
        direct_qps,
        wire_overhead_1client,
        rows,
        high_connection,
        high_conn_overhead,
        notes: "loopback TCP, pipelined batches, in-distribution workload; \
                client scaling is bounded by the measuring machine's cores \
                (see the `threads` field)"
            .to_string(),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap()).unwrap();
    println!(
        "\nnetwork boundary costs {wire_overhead_1client:.2}x vs direct (1 client, {threads} core(s))"
    );
    println!("wrote {path}");
}
