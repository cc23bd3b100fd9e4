//! End-to-end online serving: the full pipeline from synthetic race-track
//! data through training to a live sharded engine, through the `napmon`
//! facade.

use napmon::core::{MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy};
use napmon::data::racetrack::TrackConfig;
use napmon::eval::experiment::{Experiment, RacetrackConfig};
use napmon::eval::warn_rate;
use napmon::serve::{EngineConfig, MonitorEngine};

fn small_config() -> RacetrackConfig {
    RacetrackConfig {
        train_size: 120,
        test_size: 120,
        ood_size: 40,
        hidden: vec![16, 8],
        epochs: 4,
        track: TrackConfig {
            height: 8,
            width: 8,
            ..TrackConfig::default()
        },
        ..RacetrackConfig::default()
    }
}

#[test]
fn two_shard_engine_matches_batch_evaluation_and_drains_on_shutdown() {
    // Train the waypoint regressor and build its operation-time monitor.
    let exp = Experiment::prepare(small_config());
    let net = exp.network();
    let monitor = MonitorSpec::new(
        exp.monitored_boundary(),
        MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0),
    )
    .build(net, &exp.train_data().inputs)
    .expect("build monitor");

    // The offline reference: batch evaluation over the in-ODD test set.
    let batch_rate = warn_rate(&monitor, net, &exp.test_data().inputs);

    // The online engine: two shards serving the same traffic.
    let engine = MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(2));
    let verdicts = engine
        .submit_batch(exp.test_data().inputs.clone())
        .expect("serve test traffic");
    let served_rate = verdicts.iter().filter(|v| v.warning).count() as f64 / verdicts.len() as f64;

    // Queries never mutate the monitor, so the online warn rate is not
    // merely close to the batch one — it is identical.
    assert!(
        (served_rate - batch_rate).abs() < 1e-12,
        "online warn rate {served_rate} != batch warn rate {batch_rate}"
    );

    // Enqueue more traffic asynchronously and shut down immediately: the
    // engine must drain every in-flight request, and its final report must
    // account for all of them.
    let (tx, in_flight) = std::sync::mpsc::channel();
    engine.submit_batch_with(exp.train_data().inputs.clone(), 0, move |verdicts| {
        let _ = tx.send(verdicts);
    });
    let report = engine.shutdown();
    let total = exp.test_data().inputs.len() + exp.train_data().inputs.len();
    assert_eq!(report.requests, total as u64, "shutdown lost requests");

    // The drained verdicts were delivered by the time shutdown returned,
    // and training traffic never warns on its own monitor.
    let drained = in_flight
        .try_recv()
        .expect("delivered before shutdown returned")
        .expect("drained batch");
    assert_eq!(drained.len(), exp.train_data().inputs.len());
    assert!(drained.iter().all(|v| !v.warning));

    // Cross-check: the report's stream-side warning count agrees with
    // the verdicts the clients saw.
    let warned = verdicts.iter().filter(|v| v.warning).count() as u64;
    assert_eq!(report.warnings, warned);
    assert_eq!(report.queue_depth, 0, "engine retired with queued work");

    // Ops scrape these reports: the whole report (queue depth included)
    // must survive a JSON round trip bit-identically.
    let json = serde_json::to_string(&report).expect("report serializes");
    assert!(json.contains("\"queue_depth\""), "{json}");
    let scraped: napmon::serve::ServeReport =
        serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(scraped, report);
}
