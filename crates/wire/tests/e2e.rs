//! End-to-end wire serving over loopback.
//!
//! The contract mirrored from `tests/serve.rs`, now with a network in the
//! middle: verdicts served over the wire are **bit-identical** to direct
//! `MonitorEngine::submit_batch` calls, N concurrent clients interleave
//! safely on one engine, malformed peers get typed errors (and never
//! crash the server), overload gets typed `Busy`, and a graceful shutdown
//! drains every in-flight request — the final report's queue depth is
//! zero and every request is accounted for.

use napmon_core::{ComposedMonitor, MonitorKind, MonitorSpec};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_serve::{EngineConfig, MonitorEngine};
use napmon_tensor::Prng;
use napmon_wire::{
    ErrorCode, Frame, Opcode, Request, Response, WireClient, WireConfig, WireError, WireServer,
    DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC,
};
use std::io::{Read, Write};

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
    // Probes straddling the training distribution, so both verdict
    // branches occur on the wire.
    let probes: Vec<Vec<f64>> = (0..160)
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

/// Reads exactly one frame off a raw stream (header, then payload).
fn read_frame(stream: &mut std::net::TcpStream) -> Frame {
    let mut buf = vec![0u8; HEADER_LEN];
    stream.read_exact(&mut buf).expect("frame header");
    let declared = u32::from_le_bytes(buf[16..20].try_into().expect("fixed slice")) as usize;
    buf.resize(HEADER_LEN + declared, 0);
    stream
        .read_exact(&mut buf[HEADER_LEN..])
        .expect("frame payload");
    Frame::decode(&buf, DEFAULT_MAX_PAYLOAD).expect("decodes").0
}

fn engine(net: &Network, train: &[Vec<f64>], shards: usize) -> MonitorEngine<ComposedMonitor> {
    let spec = MonitorSpec::new(2, MonitorKind::pattern());
    let monitor = spec.build(net, train).expect("build monitor");
    MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(shards))
}

/// Wire verdicts must be bit-identical to direct engine submission, for
/// N concurrent clients sharing one server.
#[test]
fn concurrent_wire_clients_match_direct_engine_bit_for_bit() {
    const CLIENTS: usize = 4;
    let (net, train, probes) = fixture();

    // The reference: a direct engine, no network.
    let spec = MonitorSpec::new(2, MonitorKind::pattern());
    let monitor = spec.build(&net, &train).expect("build monitor");
    let direct = MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(2));
    let expected = direct.submit_batch(probes.clone()).expect("direct batch");
    direct.shutdown();
    let warned = expected.iter().filter(|v| v.warning).count();
    assert!(
        warned > 0 && warned < probes.len(),
        "fixture must exercise both verdict branches ({warned}/{})",
        probes.len()
    );

    let server = WireServer::builder(engine(&net, &train, 2))
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    let worker = |client_id: usize| {
        let probes = probes.clone();
        let expected = expected.clone();
        move || {
            let mut client = WireClient::connect(addr).expect("connect");
            // Pipelined batch…
            let verdicts = client.query_batch(&probes).expect("wire batch");
            assert_eq!(verdicts, expected, "client {client_id}: batch drifted");
            // …and single-shot queries agree with it.
            for (probe, want) in probes.iter().zip(&expected).take(8) {
                let got = client.query(probe).expect("wire query");
                assert_eq!(&got, want, "client {client_id}: single query drifted");
            }
        }
    };
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| std::thread::spawn(worker(i)))
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    // Stats ride the same protocol and account for all served traffic.
    let mut client = WireClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    let per_client = probes.len() as u64 + 8;
    assert_eq!(stats.engine.requests, CLIENTS as u64 * per_client);
    assert_eq!(
        stats.wire_budget,
        WireConfig::default().max_in_flight as u32
    );

    let report = server.shutdown();
    assert_eq!(report.requests, CLIENTS as u64 * per_client);
    assert_eq!(report.queue_depth, 0, "drain left queued work");
}

/// One metrics system: the `Metrics` scrape's `serve.*` cells are the
/// ones `Stats` reads, so both replies count the same N verdicts and k
/// warnings.
#[test]
fn metrics_scrape_and_stats_read_the_same_cells() {
    let (net, train, probes) = fixture();
    let server = WireServer::builder(engine(&net, &train, 2))
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let mut served = client.query_batch(&probes).expect("wire batch");
    served.push(client.query(&probes[0]).expect("wire query"));
    let n = served.len() as u64;
    let k = served.iter().filter(|v| v.warning).count() as u64;
    assert!(
        k > 0 && k < n,
        "fixture must exercise both verdict branches"
    );

    let stats = client.stats().expect("stats");
    let scrape = client.metrics().expect("metrics");
    assert_eq!((stats.engine.requests, stats.engine.warnings), (n, k));
    let counters = &scrape.metrics.counters;
    assert_eq!(
        (counters["serve.requests"], counters["serve.warnings"]),
        (n, k)
    );
    let histograms = &scrape.metrics.histograms;
    assert_eq!(histograms["serve.latency_ns"], stats.engine.latency_ns);
    assert_eq!(histograms["serve.batch_size"], stats.engine.batch_sizes);
    assert!(scrape.exposition.contains(&format!("serve_requests {n}\n")));
    server.shutdown();
}

/// A client-initiated shutdown drains in-flight pipelined work: every
/// request enqueued before the shutdown is served and answered, and the
/// final report shows empty queues (the `tests/serve.rs` guarantee, over
/// the wire).
#[test]
fn client_shutdown_drains_in_flight_requests() {
    let (net, train, probes) = fixture();
    let server = WireServer::builder(engine(&net, &train, 2))
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    // One client pipelines a large batch; another asks for shutdown while
    // that batch is (potentially) still being served. The channel makes
    // the ordering honest: the prober's connection is accepted (its first
    // query answered) and its batch frames written before the shutdown
    // request is sent — so the batch is genuinely in flight, and the
    // drain must serve it. The prober speaks raw frames so that "written"
    // is observable: `write_all` returns before the signal goes out.
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let prober = {
        let probes = probes.clone();
        std::thread::spawn(move || {
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let first = Request::Query(probes[0].clone()).into_frame(0).unwrap();
            stream
                .write_all(&first.encode().unwrap())
                .expect("write query");
            match Response::decode(&read_frame(&mut stream)).expect("decodes") {
                Response::Verdict(_) => {}
                other => panic!("connection accepted: expected a verdict, got {other:?}"),
            }
            // Every batch frame leaves in one write, so no frame trails
            // the signal in the client's send buffer.
            let chunks: Vec<&[Vec<f64>]> = probes.chunks(64).collect();
            let mut batch = Vec::new();
            for (id, chunk) in chunks.iter().enumerate() {
                let frame = Request::QueryBatch(chunk.to_vec())
                    .into_frame(id as u64 + 1)
                    .unwrap();
                batch.extend(frame.encode().unwrap());
            }
            stream.write_all(&batch).expect("write batch");
            ready_tx.send(()).expect("signal");
            let mut verdicts = Vec::with_capacity(probes.len());
            for id in 1..=chunks.len() as u64 {
                let frame = read_frame(&mut stream);
                assert_eq!(frame.request_id, id, "replies out of request order");
                match Response::decode(&frame).expect("decodes") {
                    Response::Verdicts(mut chunk) => verdicts.append(&mut chunk),
                    other => panic!("batch served in full: got {other:?}"),
                }
            }
            verdicts
        })
    };
    let mut killer = WireClient::connect(addr).expect("connect");
    ready_rx.recv().expect("prober ready");
    killer.shutdown_server().expect("shutdown acknowledged");

    // The batch client observes full service: its frames arrived before
    // the drain began — never a partial answer.
    let verdicts = prober.join().expect("prober thread");
    assert_eq!(verdicts.len(), probes.len());

    let report = server.wait();
    assert_eq!(report.queue_depth, 0, "drain left queued work");
    assert!(report.requests >= probes.len() as u64);

    // The server is gone: new connections are refused or die unserved.
    match WireClient::connect(addr) {
        Err(_) => {}
        Ok(mut client) => {
            assert!(client.query(&probes[0]).is_err(), "server still serving");
        }
    }
}

/// Malformed frames and payloads get typed errors; the connection (and
/// the server) survives what the protocol allows it to.
#[test]
fn malformed_peers_get_typed_errors_not_a_dead_server() {
    let (net, train, probes) = fixture();
    let server = WireServer::builder(engine(&net, &train, 1))
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    // Raw socket speaking garbage: the server answers a typed error frame
    // and closes.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(b"GET / HTTP/1.1\r\nHost: napmon\r\n\r\n")
        .expect("write");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read reply");
    let (frame, _) = Frame::decode(&reply, DEFAULT_MAX_PAYLOAD).expect("typed error frame back");
    assert_eq!(frame.opcode, Opcode::Error);

    // A version from the future: typed rejection naming the supported one.
    let mut future = Frame::empty(Opcode::Stats, 9).encode().unwrap();
    future[4..6].copy_from_slice(&7u16.to_le_bytes());
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(&future).expect("write");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read reply");
    let (frame, _) = Frame::decode(&reply, DEFAULT_MAX_PAYLOAD).expect("typed error frame back");
    assert_eq!(frame.opcode, Opcode::Error);
    match Response::decode(&frame).expect("decodes") {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::UnsupportedVersion);
            assert!(
                message.contains("v7") && message.contains("v2"),
                "{message}"
            );
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    assert_eq!(&reply[..4], &MAGIC, "error frames are themselves framed");

    // A well-framed but wrong-dimension input: a Monitor error response,
    // after which the same connection keeps serving.
    let mut client = WireClient::connect(addr).expect("connect");
    match client.query(&[1.0, 2.0]) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Monitor),
        other => panic!("expected a typed monitor error, got {other:?}"),
    }
    let verdict = client.query(&probes[0]).expect("connection still usable");
    let _ = verdict;

    // Absorb on a non-store-backed monitor: typed, not fatal.
    match client.absorb_batch(&probes[..2]) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Monitor),
        other => panic!("expected a typed monitor error, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.queue_depth, 0);
}

/// A well-formed frame followed by garbage in the same write: the frame
/// is answered first, then the typed error, then the hangup. A stream
/// poisoned by a bad header never strands a frame parsed ahead of it.
#[test]
fn a_frame_ahead_of_garbage_is_answered_before_the_error() {
    let (net, train, _) = fixture();
    let server = WireServer::builder(engine(&net, &train, 1))
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let mut bytes = Request::Stats.into_frame(1).unwrap().encode().unwrap();
    bytes.extend_from_slice(b"GET / HTTP/1.1\r\nHost: napmon\r\n\r\n");
    raw.write_all(&bytes).expect("write");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply)
        .expect("both replies, then EOF — not a stall");
    let (first, used) = Frame::decode(&reply, DEFAULT_MAX_PAYLOAD).expect("first reply");
    assert_eq!((first.opcode, first.request_id), (Opcode::StatsReport, 1));
    let (second, rest) = Frame::decode(&reply[used..], DEFAULT_MAX_PAYLOAD).expect("error reply");
    assert_eq!(second.opcode, Opcode::Error);
    assert_eq!(used + rest, reply.len(), "nothing after the error frame");
    server.shutdown();
}

/// Non-finite inputs fail closed at the wire. A min-max monitor cannot
/// be trusted with them (in process it lets all-NaN and all-+inf inputs
/// pass without a warning), so every work opcode carrying one gets a
/// typed `Malformed` error — no verdict, no absorbed pattern — and the
/// connection keeps serving.
#[test]
fn non_finite_inputs_are_refused_typed_on_a_min_max_engine() {
    let (net, train, probes) = fixture();
    let monitor = MonitorSpec::new(2, MonitorKind::min_max())
        .build(&net, &train)
        .expect("build monitor");
    let engine = MonitorEngine::new(net, monitor, EngineConfig::with_shards(1));
    let server = WireServer::builder(engine)
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let mut one_nan = probes[0].clone();
    one_nan[INPUT_DIM / 2] = f64::NAN;
    let refused = |outcome: Result<_, WireError>, what: &str| match outcome {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Malformed, "{what}"),
        Ok(_) => panic!("{what}: a non-finite input was served"),
        Err(other) => panic!("{what}: expected a typed Malformed error, got {other:?}"),
    };
    for input in [
        vec![f64::NAN; INPUT_DIM],
        vec![f64::INFINITY; INPUT_DIM],
        vec![f64::NEG_INFINITY; INPUT_DIM],
        one_nan,
    ] {
        refused(client.query(&input).map(drop), "query");
        refused(
            client
                .query_batch(&[probes[0].clone(), input.clone()])
                .map(drop),
            "query batch",
        );
        refused(client.absorb_batch(&[input]).map(drop), "absorb");
    }
    client.query(&probes[0]).expect("connection still usable");

    let report = server.shutdown();
    assert_eq!(report.requests, 1, "a non-finite input reached the engine");
}

/// A shard that dies serving a frame still completes the frame. The
/// monitor comes back from serde with one threshold removed — serde skips
/// the artifact validation — so the first query panics inside the
/// abstraction and kills the shard serving it. Every `QueryBatch` then
/// gets a typed `ShardDown` error (a chunk the dying shard dropped, or one
/// no live shard would take), none hangs, and shutdown returns.
#[test]
fn a_shard_dying_mid_frame_answers_shard_down_typed() {
    let (net, train, probes) = fixture();
    let monitor = MonitorSpec::new(2, MonitorKind::pattern())
        .build(&net, &train)
        .expect("build monitor");
    let json = serde_json::to_string(&monitor).expect("encode monitor");
    let at = json.find("\"thresholds\":[").expect("pattern thresholds") + "\"thresholds\":[".len();
    let comma = at + json[at..].find(',').expect("more than one threshold");
    let tampered: ComposedMonitor =
        serde_json::from_str(&format!("{}{}", &json[..at], &json[comma + 1..]))
            .expect("decode tampered monitor");
    let engine = MonitorEngine::new(net, tampered, EngineConfig::with_shards(2));
    let server = WireServer::builder(engine)
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    // One frame per call, split across both shards: the first kills them
    // both mid-chunk, the later ones find no live shard at all.
    for round in 0..4 {
        match client.query_batch(&probes[..32]) {
            Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ShardDown),
            other => panic!("round {round}: expected a typed ShardDown, got {other:?}"),
        }
    }
    // Pipelined frames behind one another: every one is answered.
    match client.query_batch(&probes) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ShardDown),
        other => panic!("expected a typed ShardDown, got {other:?}"),
    }
    let stats = client.stats().expect("the connection stays framed");
    assert_eq!(stats.wire_in_flight, 0, "a dead frame kept its budget slot");

    let report = server.shutdown();
    assert_eq!(report.requests, 0);
}

/// Over-budget traffic is refused with a typed `Busy` carrying the
/// budget figures — backpressure is a response, not dropped bytes.
#[test]
fn over_budget_requests_get_typed_busy() {
    let (net, train, probes) = fixture();
    // A budget of 1 with 2 competing clients: the loser of the race gets
    // Busy. Force the race by pipelining from both sides.
    let server = WireServer::builder(engine(&net, &train, 1))
        .config(WireConfig::default().with_max_in_flight(1))
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    let mut saw_busy = false;
    'outer: for _ in 0..20 {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let probes = probes.clone();
                std::thread::spawn(move || {
                    let mut client = WireClient::connect(addr).expect("connect");
                    client.query_batch(&probes)
                })
            })
            .collect();
        for handle in handles {
            match handle.join().expect("client thread") {
                Ok(verdicts) => assert_eq!(verdicts.len(), probes.len()),
                Err(WireError::Busy { budget, .. }) => {
                    assert_eq!(budget, 1);
                    saw_busy = true;
                }
                Err(other) => panic!("expected service or Busy, got {other:?}"),
            }
        }
        if saw_busy {
            break 'outer;
        }
    }
    assert!(saw_busy, "two pipelining clients never hit a budget of 1");

    let stats = WireClient::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    assert!(stats.wire_busy_rejections > 0);
    server.shutdown();
}
