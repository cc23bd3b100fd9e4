//! Differential round-trip suite: every monitor kind × backend ×
//! standard/robust × composition must give **bit-identical** `query_batch`
//! verdicts after save → load, and malformed files must fail with typed
//! errors (never panic).

use napmon_absint::Domain;
use napmon_artifact::{ArtifactError, MonitorArtifact, FORMAT_VERSION};
use napmon_core::{
    ComposedMonitor, Monitor, MonitorKind, MonitorSpec, PatternBackend, RobustConfig,
    ThresholdPolicy, Vote, WatchedLayer,
};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_tensor::Prng;
use serde_json::Value;

fn net() -> Network {
    Network::seeded(
        42,
        6,
        &[
            LayerSpec::dense(16, Activation::Relu),
            LayerSpec::dense(8, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    )
}

fn train_data(n: usize) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(7);
    (0..n).map(|_| rng.uniform_vec(6, -1.0, 1.0)).collect()
}

/// The differential probe corpus: in-distribution, boundary, and far-OOD
/// inputs, so both verdict branches (and the Hamming-tolerant paths) are
/// exercised.
fn probe_corpus() -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(1234);
    let mut probes: Vec<Vec<f64>> = (0..60).map(|_| rng.uniform_vec(6, -1.0, 1.0)).collect();
    probes.extend((0..30).map(|_| rng.uniform_vec(6, -3.0, 3.0)));
    probes.extend((0..10).map(|_| rng.uniform_vec(6, -50.0, 50.0)));
    probes
}

/// Every monitor family/backend configuration in the matrix.
fn all_kinds() -> Vec<(&'static str, MonitorKind)> {
    vec![
        ("min-max", MonitorKind::min_max()),
        ("min-max+gamma", MonitorKind::min_max_enlarged(0.25)),
        (
            "pattern/bdd",
            MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0),
        ),
        (
            "pattern/hash",
            MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::HashSet, 0),
        ),
        (
            "pattern/bdd+hamming",
            MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 1),
        ),
        (
            "pattern/hash+hamming",
            MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::HashSet, 1),
        ),
        ("interval-2bit", MonitorKind::interval(2)),
        ("interval-3bit", MonitorKind::interval(3)),
    ]
}

fn robust_variants() -> Vec<(&'static str, Option<RobustConfig>)> {
    vec![
        ("standard", None),
        (
            "robust",
            Some(RobustConfig {
                delta: 0.02,
                kp: 0,
                domain: Domain::Box,
            }),
        ),
    ]
}

/// Saves, reloads, and checks verdict identity on the corpus through the
/// batch path of the reloaded monitor.
fn assert_roundtrip_identical(label: &str, artifact: &MonitorArtifact) {
    let probes = probe_corpus();
    let expected = artifact
        .monitor()
        .query_batch(artifact.network(), &probes)
        .unwrap_or_else(|e| panic!("{label}: query failed: {e}"));
    let json = artifact.to_json_string().unwrap();
    let loaded = MonitorArtifact::from_json_str(&json)
        .unwrap_or_else(|e| panic!("{label}: reload failed: {e}"));
    let got = loaded
        .monitor()
        .query_batch(loaded.network(), &probes)
        .unwrap();
    assert_eq!(got, expected, "{label}: verdicts drifted across round trip");
    // The corpus must exercise both branches somewhere; warn-only or
    // ok-only corpora would make the identity check vacuous.
    assert!(expected.iter().any(|v| v.warning), "{label}: no warnings");
    assert!(expected.iter().any(|v| !v.warning), "{label}: all warnings");
}

#[test]
fn single_monitors_roundtrip_bit_identical_all_kinds_and_backends() {
    let net = net();
    let data = train_data(64);
    for (kind_name, kind) in all_kinds() {
        for (mode, robust) in robust_variants() {
            let mut spec = MonitorSpec::new(4, kind.clone());
            if let Some(r) = robust {
                spec = spec.robust_config(r);
            }
            let artifact = MonitorArtifact::build(spec, &net, &data).unwrap();
            assert_roundtrip_identical(&format!("{kind_name}/{mode}/single"), &artifact);
        }
    }
}

#[test]
fn multi_layer_monitors_roundtrip_bit_identical() {
    let net = net();
    let data = train_data(48);
    for vote in [Vote::Any, Vote::All, Vote::AtLeast(1)] {
        for (mode, robust) in robust_variants() {
            let mut spec = MonitorSpec::multi_layer(
                vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
                MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0),
                vote,
            );
            if let Some(r) = robust {
                spec = spec.robust_config(r);
            }
            let artifact = MonitorArtifact::build(spec, &net, &data).unwrap();
            assert_roundtrip_identical(&format!("multi/{vote:?}/{mode}"), &artifact);
        }
    }
}

#[test]
fn per_class_monitors_roundtrip_bit_identical() {
    let net = net();
    let data = train_data(96);
    for (mode, robust) in robust_variants() {
        let mut spec = MonitorSpec::new(4, MonitorKind::interval(2)).per_class(3);
        if let Some(r) = robust {
            spec = spec.robust_config(r);
        }
        let artifact = MonitorArtifact::build(spec, &net, &data).unwrap();
        assert_roundtrip_identical(&format!("per-class/{mode}"), &artifact);
    }
}

#[test]
fn neuron_subset_monitors_roundtrip_bit_identical() {
    let net = net();
    let data = train_data(48);
    // A 3-bit interval monitor keeps 3 watched neurons discriminative
    // enough that the corpus hits both verdict branches.
    let spec = MonitorSpec::new(4, MonitorKind::interval(3)).with_neurons(vec![0, 3, 5]);
    let artifact = MonitorArtifact::build(spec, &net, &data).unwrap();
    assert_roundtrip_identical("subset", &artifact);
}

#[test]
fn bumped_format_version_is_rejected_for_every_composition() {
    let net = net();
    let data = train_data(32);
    let specs = vec![
        MonitorSpec::new(
            4,
            MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0),
        ),
        MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::min_max(),
            Vote::Any,
        ),
        MonitorSpec::new(4, MonitorKind::min_max()).per_class(3),
    ];
    for spec in specs {
        let artifact = MonitorArtifact::build(spec, &net, &data).unwrap();
        let json = artifact.to_json_string().unwrap();
        let bumped = json.replacen(
            &format!("\"format_version\":{FORMAT_VERSION}"),
            &format!("\"format_version\":{}", FORMAT_VERSION + 1),
            1,
        );
        assert_ne!(json, bumped);
        assert!(matches!(
            MonitorArtifact::from_json_str(&bumped),
            Err(ArtifactError::UnsupportedVersion { .. })
        ));
    }
}

#[test]
fn mismatched_network_dimensions_are_rejected_typed() {
    let net = net();
    let data = train_data(32);
    let artifact =
        MonitorArtifact::build(MonitorSpec::new(4, MonitorKind::interval(2)), &net, &data).unwrap();

    // A network with different widths at the monitored boundary.
    let narrow = Network::seeded(
        9,
        6,
        &[
            LayerSpec::dense(10, Activation::Relu),
            LayerSpec::dense(5, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    );
    let mut tampered = artifact.clone();
    tampered.network = narrow;
    let err = MonitorArtifact::from_json_str(&tampered.to_json_string().unwrap()).unwrap_err();
    assert!(matches!(err, ArtifactError::Mismatch(_)), "{err:?}");

    // A shallower network missing the monitored boundary entirely.
    let shallow = Network::seeded(9, 6, &[LayerSpec::dense(4, Activation::Identity)]);
    let mut tampered = artifact.clone();
    tampered.network = shallow;
    let err = MonitorArtifact::from_json_str(&tampered.to_json_string().unwrap()).unwrap_err();
    assert!(matches!(err, ArtifactError::Monitor(_)), "{err:?}");
}

#[test]
fn corrupted_spec_fields_fail_typed_never_panic() {
    let net = net();
    let data = train_data(24);
    let artifact =
        MonitorArtifact::build(MonitorSpec::new(4, MonitorKind::interval(2)), &net, &data).unwrap();
    let json = artifact.to_json_string().unwrap();

    // Corrupt the robust delta into NaN territory via a direct field edit.
    let mut tampered = artifact.clone();
    tampered.spec.robust = Some(RobustConfig {
        delta: f64::NAN,
        kp: 0,
        domain: Domain::Box,
    });
    assert!(MonitorArtifact::from_json_str(&tampered.to_json_string().unwrap()).is_err());

    // Corrupt the stats: wrong layer widths.
    let mut tampered = artifact.clone();
    tampered.stats.layer_widths = vec![1, 2, 3];
    assert!(matches!(
        MonitorArtifact::from_json_str(&tampered.to_json_string().unwrap()),
        Err(ArtifactError::Mismatch(_))
    ));

    // Corrupt the stats: fabricated provenance values (validation
    // recomputes stats from the embedded parts, so any drift fails).
    let mut tampered = artifact.clone();
    tampered.stats.member_samples = vec![999_999];
    assert!(matches!(
        MonitorArtifact::from_json_str(&tampered.to_json_string().unwrap()),
        Err(ArtifactError::Mismatch(_))
    ));
    let mut tampered = artifact.clone();
    tampered.stats.pattern_counts = vec![Some(1.0)];
    assert!(matches!(
        MonitorArtifact::from_json_str(&tampered.to_json_string().unwrap()),
        Err(ArtifactError::Mismatch(_))
    ));

    // Truncated file.
    assert!(MonitorArtifact::from_json_str(&json[..json.len() / 2]).is_err());
}

/// Loads `artifact` after `edit` has rewritten the JSON value at `path`
/// (object keys, or array positions in decimal).
fn load_tampered(
    artifact: &MonitorArtifact,
    path: &[&str],
    edit: impl FnOnce(&mut Value),
) -> Result<MonitorArtifact, ArtifactError> {
    let mut json: Value = serde_json::from_str(&artifact.to_json_string().unwrap()).unwrap();
    let mut at = &mut json;
    for key in path {
        at = match at {
            Value::Object(map) => map.get_mut(*key),
            Value::Array(items) => items.get_mut(key.parse::<usize>().unwrap()),
            _ => None,
        }
        .unwrap_or_else(|| panic!("no `{key}` on the path {path:?}"));
    }
    edit(at);
    MonitorArtifact::from_json_str(&serde_json::to_string(&json).unwrap())
}

fn assert_mismatch(label: &str, loaded: Result<MonitorArtifact, ArtifactError>) {
    match loaded {
        Err(ArtifactError::Mismatch(_)) => {}
        Err(other) => panic!("{label}: expected a mismatch, got {other:?}"),
        Ok(_) => panic!("{label}: the tampered artifact loaded"),
    }
}

fn pop(value: &mut Value) {
    let Value::Array(items) = value else {
        panic!("expected an array, got {value:?}")
    };
    items.pop();
}

#[test]
fn tampered_vote_is_rejected_typed() {
    let spec = MonitorSpec::multi_layer(
        vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
        MonitorKind::min_max(),
        Vote::Any,
    );
    let artifact = MonitorArtifact::build(spec, &net(), &train_data(32)).unwrap();
    // At least 99 of 2 members never warns.
    let never = serde_json::from_str(r#"{"AtLeast":99}"#).unwrap();
    let loaded = load_tampered(&artifact, &["monitor", "MultiLayer", "vote"], |vote| {
        *vote = never
    });
    assert_mismatch("vote", loaded);
}

#[test]
fn composite_member_lists_off_the_spec_are_rejected_typed() {
    let (net, data) = (net(), train_data(96));
    let layers = vec![WatchedLayer::whole(2), WatchedLayer::whole(4)];
    let specs = [
        MonitorSpec::multi_layer(layers, MonitorKind::min_max(), Vote::Any),
        MonitorSpec::new(4, MonitorKind::min_max()).per_class(3),
    ];
    for spec in specs {
        let artifact = MonitorArtifact::build(spec, &net, &data).unwrap();
        // One member short, and none at all. The stats are cut to match,
        // so only the composition check can refuse the file.
        for keep in [1, 0] {
            let mut tampered = artifact.clone();
            match &mut tampered.monitor {
                ComposedMonitor::MultiLayer { members, .. } => members.truncate(keep),
                ComposedMonitor::PerClass { monitors } => monitors.truncate(keep),
                ComposedMonitor::Single(_) => unreachable!("composite specs"),
            }
            let stats = &mut tampered.stats;
            stats.monitored_dims.truncate(keep);
            stats.member_samples.truncate(keep);
            stats.pattern_counts.truncate(keep);
            let label = format!("{} with {keep} members", artifact.monitor);
            let loaded = MonitorArtifact::from_json_str(&tampered.to_json_string().unwrap());
            assert_mismatch(&label, loaded);
        }
    }
}

#[test]
fn tampered_hamming_tolerance_is_rejected_typed() {
    let kind = MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::HashSet, 0);
    let artifact =
        MonitorArtifact::build(MonitorSpec::new(4, kind), &net(), &train_data(32)).unwrap();
    let path = ["monitor", "Single", "Pattern", "hamming_tolerance"];
    let loaded = load_tampered(&artifact, &path, |tau| {
        *tau = serde_json::from_str("8").unwrap()
    });
    assert_mismatch("hamming tolerance", loaded);
}

#[test]
fn per_neuron_arrays_off_the_monitored_width_are_rejected_typed() {
    let (net, data) = (net(), train_data(32));
    let build = |kind| MonitorArtifact::build(MonitorSpec::new(4, kind), &net, &data).unwrap();
    let min_max = build(MonitorKind::min_max());
    for bound in ["lo", "hi"] {
        let loaded = load_tampered(&min_max, &["monitor", "Single", "MinMax", bound], pop);
        assert_mismatch(bound, loaded);
    }
    let pattern = build(MonitorKind::pattern_with(
        ThresholdPolicy::Mean,
        PatternBackend::Bdd,
        0,
    ));
    let path = ["monitor", "Single", "Pattern", "thresholds"];
    assert_mismatch("pattern thresholds", load_tampered(&pattern, &path, pop));
    let first = [&path[..], &["0"]].concat();
    for token in ["NaN", "Infinity", "-Infinity"] {
        let set = |c: &mut Value| *c = serde_json::from_str(token).unwrap();
        let label = format!("pattern threshold {token}");
        assert_mismatch(&label, load_tampered(&pattern, &first, set));
    }

    let interval = build(MonitorKind::interval(2));
    let lists = ["monitor", "Single", "Interval", "thresholds"];
    assert_mismatch("interval lists", load_tampered(&interval, &lists, pop));
    let first = [&lists[..], &["0"]].concat();
    assert_mismatch("short list", load_tampered(&interval, &first, pop));
    let descending = |list: &mut Value| {
        let Value::Array(items) = list else {
            panic!("expected a threshold list")
        };
        items.reverse();
    };
    assert_mismatch("descending", load_tampered(&interval, &first, descending));
    let at = [&first[..], &["1"]].concat();
    let nan = |c: &mut Value| *c = serde_json::from_str("NaN").unwrap();
    assert_mismatch("non-finite", load_tampered(&interval, &at, nan));
}
