//! The reactor's scaling contract: connections are a buffer, not a
//! thread.
//!
//! Holds over a thousand concurrent idle connections against one server
//! and proves, by enumerating `/proc/self/task`, that the wire layer
//! still runs on exactly two threads — the reactor and the control
//! thread — while every one of those connections remains live and
//! servable. Also
//! pins the accept-path refusal contract: a connection over the cap is
//! answered with exactly one typed `Busy` frame through the nonblocking
//! write path, counted exactly once in
//! `DegradedStats::refused_connections`.
//!
//! This test lives in its own binary on purpose: it counts threads by
//! name, which only works when no sibling test is spinning its own
//! servers in the same process.

use napmon_core::{MonitorKind, MonitorSpec};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_serve::{EngineConfig, MonitorEngine};
use napmon_tensor::Prng;
use napmon_wire::{
    Frame, Opcode, Response, WireClient, WireConfig, WireServer, DEFAULT_MAX_PAYLOAD,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const INPUT_DIM: usize = 4;
const IDLE_CONNS: usize = 1100;

fn engine(net: &Network, train: &[Vec<f64>]) -> MonitorEngine<napmon_core::ComposedMonitor> {
    let spec = MonitorSpec::new(2, MonitorKind::pattern());
    let monitor = spec.build(net, train).expect("build monitor");
    MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(1))
}

fn fixture() -> (Network, Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let net = Network::seeded(
        404,
        INPUT_DIM,
        &[
            LayerSpec::dense(12, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(31);
    let train: Vec<Vec<f64>> = (0..64)
        .map(|_| rng.uniform_vec(INPUT_DIM, -1.0, 1.0))
        .collect();
    let probes: Vec<Vec<f64>> = (0..8)
        .map(|_| rng.uniform_vec(INPUT_DIM, -2.0, 2.0))
        .collect();
    (net, train, probes)
}

/// Threads currently named with the given prefix. `comm` truncates
/// names to 15 bytes, so the prefix must fit (and callers match on
/// prefixes, never whole names).
#[cfg(target_os = "linux")]
fn threads_with_prefix(prefix: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|entry| {
            let comm = entry.ok()?.path().join("comm");
            let name = std::fs::read_to_string(comm).ok()?.trim().to_string();
            name.starts_with(prefix).then_some(name)
        })
        .collect()
}

/// ≥1024 concurrent idle connections, all live, on a wire thread count
/// that never moves — the reactor owns them all, query frames go straight
/// to the engine's shards, and one control thread serves the rest.
#[test]
fn holds_1024_idle_connections_on_constant_wire_threads() {
    let (net, train, probes) = fixture();
    let server = WireServer::builder(engine(&net, &train))
        .config(
            WireConfig::default()
                .with_max_connections(4096)
                // Idle eviction must not fire while the herd sits.
                .with_idle_timeout(Duration::from_secs(120)),
        )
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    // Baseline thread count once the server settles: freshly spawned
    // threads name themselves on their own schedule, so poll until two
    // consecutive samples agree on a nonzero count.
    #[cfg(target_os = "linux")]
    let wire_threads_before = {
        let mut last = 0usize;
        loop {
            let count = threads_with_prefix("napmon-wire").len();
            if count > 0 && count == last {
                break count;
            }
            last = count;
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    // The herd: every connection dials, proves liveness with one served
    // request, then sits idle. Connects pace themselves against the
    // accept backlog — a refused dial retries rather than failing the
    // herd.
    let mut herd: Vec<TcpStream> = Vec::with_capacity(IDLE_CONNS);
    while herd.len() < IDLE_CONNS {
        match TcpStream::connect(addr) {
            Ok(stream) => herd.push(stream),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Liveness sample across the herd (first, spread, and last — the
    // last connected after every other one was already held open).
    let stats_frame = stats_frame();
    for i in (0..IDLE_CONNS).step_by(97).chain([IDLE_CONNS - 1]) {
        let stream = &mut herd[i];
        stream.write_all(&stats_frame).expect("write stats");
        let response = read_frame(stream);
        assert_eq!(response.opcode, Opcode::StatsReport, "conn {i} not served");
    }

    // The scaling claim: the wire layer added no threads for a thousand
    // peers. (The reactor and the control thread, both napmon-wire-*.)
    #[cfg(target_os = "linux")]
    {
        let wire_threads = threads_with_prefix("napmon-wire");
        assert_eq!(
            wire_threads.len(),
            wire_threads_before,
            "wire thread count moved with connection count: {wire_threads:?}"
        );
        assert_eq!(
            wire_threads.len(),
            2,
            "the wire layer is the reactor plus one control thread: {wire_threads:?}"
        );
    }

    // The herd is genuinely concurrent load, not sequential: a fresh
    // client is still served while all of it stays connected.
    let mut client = WireClient::connect(addr).expect("connect beside the herd");
    client.query(&probes[0]).expect("served beside the herd");
    drop(herd);
    client.shutdown_server().expect("shutdown");
    let report = server.wait();
    assert_eq!(report.queue_depth, 0, "drain left queued work");
}

/// A minimal raw-wire `Stats` request, bypassing `WireClient` so one
/// plain `TcpStream` per herd member is enough.
fn stats_frame() -> Vec<u8> {
    Frame::empty(Opcode::Stats, 1)
        .encode()
        .expect("encode stats frame")
}

/// Reads exactly one frame off the stream (header, then payload).
fn read_frame(stream: &mut TcpStream) -> Frame {
    let mut buf = vec![0u8; napmon_wire::HEADER_LEN];
    stream.read_exact(&mut buf).expect("frame header");
    let declared = u32::from_le_bytes(buf[16..20].try_into().expect("fixed slice")) as usize;
    buf.resize(napmon_wire::HEADER_LEN + declared, 0);
    stream
        .read_exact(&mut buf[napmon_wire::HEADER_LEN..])
        .expect("frame payload");
    let (frame, consumed) = Frame::decode(&buf, DEFAULT_MAX_PAYLOAD).expect("decodes");
    assert_eq!(consumed, buf.len());
    frame
}

/// Refusals at the connection cap: one typed `Busy` frame with the cap
/// figures, request id 0 (no frame was ever read), a clean EOF after it
/// — and `refused_connections` counts each refusal exactly once.
#[test]
fn accept_refusals_speak_busy_and_count_exactly_once() {
    let (net, train, probes) = fixture();
    let server = WireServer::builder(engine(&net, &train))
        .config(WireConfig::default().with_max_connections(1))
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    // The slot holder: a served client pins the one connection.
    let mut holder = WireClient::connect(addr).expect("connect");
    holder.query(&probes[0]).expect("served");

    for expected_refusals in 1..=2u64 {
        let mut refused = TcpStream::connect(addr).expect("tcp connect");
        let mut reply = Vec::new();
        refused.read_to_end(&mut reply).expect("read refusal");
        let (frame, consumed) = Frame::decode(&reply, DEFAULT_MAX_PAYLOAD).expect("framed refusal");
        assert_eq!(consumed, reply.len(), "exactly one frame, then EOF");
        assert_eq!(frame.opcode, Opcode::Busy);
        assert_eq!(frame.request_id, 0, "no request was read to correlate");
        match Response::decode(&frame).expect("decodes") {
            Response::Busy { in_flight, budget } => {
                assert_eq!(in_flight, 1, "serving connections at refusal time");
                assert_eq!(budget, 1, "the connection cap");
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        let stats = holder.stats().expect("stats");
        assert_eq!(
            stats.degraded.refused_connections, expected_refusals,
            "refusal must count exactly once"
        );
    }

    // The refusal left the holder untouched.
    holder.query(&probes[0]).expect("slot holder still served");
    server.shutdown();
}
