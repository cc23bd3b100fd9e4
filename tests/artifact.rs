//! Facade-level artifact tests: every committed golden file loads,
//! matches a fresh deterministic build bit-for-bit (verdicts and bytes),
//! and mounts on the serving engine; malformed files fail typed at every
//! entry point.

use napmon::artifact::{ArtifactError, MonitorArtifact, FORMAT_VERSION};
use napmon::core::Monitor;
use napmon::serve::{EngineConfig, MonitorEngine};
use napmon_bench::golden;
use serde_json::Value;
use std::collections::BTreeMap;

/// A JSON object's fields.
type Json = BTreeMap<String, Value>;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_artifact.json");

#[test]
fn committed_golden_artifact_loads_and_matches_fresh_build() {
    let probes = golden::probes();
    for fixture in golden::fixtures() {
        let file = fixture.file;
        let loaded = MonitorArtifact::load_json(fixture.path())
            .unwrap_or_else(|e| panic!("{file} must load under the current format version: {e}"));
        assert_eq!(loaded.format_version, FORMAT_VERSION);
        let fresh = fixture.build();
        assert_eq!(loaded.spec(), fresh.spec(), "{file}");
        assert_eq!(loaded.network(), fresh.network(), "{file}");
        assert_eq!(loaded.stats(), fresh.stats(), "{file}");
        assert_eq!(
            loaded
                .monitor()
                .query_batch(loaded.network(), &probes)
                .unwrap(),
            fresh
                .monitor()
                .query_batch(fresh.network(), &probes)
                .unwrap(),
            "{file}: golden verdicts must be bit-identical to a fresh build"
        );
        let committed = std::fs::read_to_string(fixture.path()).unwrap();
        assert!(
            fresh.to_json_string().unwrap() == committed,
            "{file}: a fresh build must serialize to the committed bytes"
        );
        // Load-then-save writes the same layout back. A hash set's words
        // come out in the loaded set's iteration order, so compare them
        // as sets.
        let resaved = loaded.to_json_string().unwrap();
        assert_eq!(canonical(&resaved), canonical(&committed), "{file}");
    }
}

/// `json` parsed, with the word list of every hash-set store sorted.
fn canonical(json: &str) -> serde_json::Value {
    fn sort_hash_words(value: &mut serde_json::Value) {
        match value {
            serde_json::Value::Object(map) => {
                for (key, inner) in map.iter_mut() {
                    if let (true, serde_json::Value::Array(words)) = (key == "Hash", &mut *inner) {
                        words.sort_by_cached_key(|w| serde_json::to_string(w).unwrap());
                    }
                    sort_hash_words(inner);
                }
            }
            serde_json::Value::Array(items) => items.iter_mut().for_each(sort_hash_words),
            _ => {}
        }
    }
    let mut value = serde_json::from_str(json).unwrap();
    sort_hash_words(&mut value);
    value
}

#[test]
fn golden_artifact_serves_through_the_engine() {
    let probes = golden::probes();
    for fixture in golden::fixtures() {
        let loaded = MonitorArtifact::load_json(fixture.path()).unwrap();
        let expected = loaded
            .monitor()
            .query_batch(loaded.network(), &probes)
            .unwrap();
        let engine = MonitorEngine::from_artifact(loaded, EngineConfig::with_shards(2));
        let served = engine.submit_batch(probes.clone()).unwrap();
        assert_eq!(served, expected, "{}", fixture.file);
        engine.shutdown();
    }
}

#[test]
fn golden_artifact_with_bumped_version_is_rejected() {
    let json = std::fs::read_to_string(GOLDEN_PATH).unwrap();
    let bumped = json.replacen(
        &format!("\"format_version\":{FORMAT_VERSION}"),
        &format!("\"format_version\":{}", FORMAT_VERSION + 41),
        1,
    );
    assert_ne!(json, bumped);
    match MonitorArtifact::from_json_str(&bumped) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 41);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// The golden artifact with its network's JSON edited by `edit`.
fn golden_with_network(edit: impl FnOnce(&mut Json)) -> String {
    with_network(&std::fs::read_to_string(GOLDEN_PATH).unwrap(), edit)
}

/// The artifact `json` with its network's JSON edited by `edit`.
fn with_network(json: &str, edit: impl FnOnce(&mut Json)) -> String {
    let mut artifact: Value = serde_json::from_str(json).unwrap();
    let Value::Object(fields) = &mut artifact else {
        panic!("an artifact is an object")
    };
    let Some(Value::Object(network)) = fields.get_mut("network") else {
        panic!("an artifact holds a network")
    };
    edit(network);
    serde_json::to_string(&artifact).unwrap()
}

/// The fields of the dense layer at `index` in a network's JSON.
fn dense_layer(network: &mut Json, index: usize) -> &mut Json {
    let Some(Value::Array(layers)) = network.get_mut("layers") else {
        panic!("a network holds layers")
    };
    match &mut layers[index] {
        Value::Object(layer) => match layer.get_mut("Dense") {
            Some(Value::Object(dense)) => dense,
            _ => panic!("layer {index} is not dense"),
        },
        _ => panic!("layer {index} is not dense"),
    }
}

/// The weight matrix fields of the dense layer at `index`.
fn weights(network: &mut Json, index: usize) -> &mut Json {
    match dense_layer(network, index).get_mut("weights") {
        Some(Value::Object(weights)) => weights,
        _ => panic!("a dense layer holds weights"),
    }
}

/// Sets `field` of a JSON object to the number `value`.
fn set_number(object: &mut Json, field: &str, value: usize) {
    object.insert(
        field.into(),
        serde_json::from_str(&value.to_string()).unwrap(),
    );
}

/// Drops the last entry of the array `field` of a JSON object.
fn drop_last(object: &mut Json, field: &str) {
    let Some(Value::Array(values)) = object.get_mut(field) else {
        panic!("`{field}` is an array")
    };
    values.pop();
}

/// A network whose shapes do not hold together is refused as the file is
/// read, with a typed error, before anything can run it: a matrix one
/// value short, a bias one value short, a weight matrix reshaped against
/// its bias, and an input width the first layer does not take. The golden
/// network is 8 → dense 12x8 → ReLU → dense 3x12.
#[test]
fn malformed_networks_are_refused_typed_at_load() {
    assert_refused(
        |n| drop_last(weights(n, 0), "data"),
        "matrix of 12x8 holds 95 values",
    );
    assert_refused(
        |n| drop_last(dense_layer(n, 0), "bias"),
        "shape mismatch in dense bias: expected 12, got 11",
    );
    assert_refused(
        |n| {
            set_number(weights(n, 0), "rows", 8);
            set_number(weights(n, 0), "cols", 12);
        },
        "shape mismatch in dense bias: expected 8, got 12",
    );
    assert_refused(
        |n| {
            set_number(weights(n, 2), "rows", 4);
            set_number(weights(n, 2), "cols", 9);
        },
        "shape mismatch in dense bias: expected 4, got 3",
    );
    assert_refused(
        |n| set_number(n, "input_dim", 7),
        "shape mismatch in layer 1 (7 input): expected 8, got 7",
    );
    // The edits above change nothing else: the untouched file loads.
    MonitorArtifact::from_json_str(&golden_with_network(|_| {})).unwrap();
}

/// Asserts that the golden artifact, its network edited by `edit`, fails
/// to load with a serde error reading `message`.
fn assert_refused(edit: impl FnOnce(&mut Json), message: &str) {
    refused(&golden_with_network(edit), message);
}

/// Asserts that the artifact `json` fails to load with a serde error
/// reading `message`.
fn refused(json: &str, message: &str) {
    match MonitorArtifact::from_json_str(json) {
        Err(ArtifactError::Serde(e)) => assert!(e.to_string().contains(message), "{e}"),
        other => panic!("{message}: expected a Serde error, got {other:?}"),
    }
}

/// A conv → max-pool → dense artifact (1×6×6 input, two 3×3 kernels at
/// stride 1 and padding 1, 2×2 pooling) and a dense → batch-norm → ReLU
/// artifact (4 → 3), as JSON.
fn layered_artifacts() -> [String; 2] {
    use napmon::core::{MonitorKind, MonitorSpec};
    use napmon::nn::{network::NetworkBuilder, Activation, BatchNorm1d, Dense, Layer, Network};
    use napmon::tensor::{init::Init, Prng};
    let mut rng = Prng::seed(3);
    let conv = NetworkBuilder::image(3, 1, 6, 6)
        .conv(2, 3, 1, 1, Activation::Relu)
        .and_then(|b| b.maxpool(2, 2))
        .unwrap()
        .dense(3, Activation::Identity)
        .build()
        .unwrap();
    let norm = Network::from_layers(
        4,
        vec![
            Layer::Dense(Dense::seeded(&mut rng, 4, 3, Init::HeNormal)),
            Layer::BatchNorm(BatchNorm1d::new(vec![1.5, 0.5, 2.0], vec![0.1, -0.2, 0.0]).unwrap()),
            Layer::Activation(Activation::Relu),
        ],
    )
    .unwrap();
    [(conv, 3), (norm, 3)].map(|(net, layer)| {
        let train: Vec<Vec<f64>> = (0..8)
            .map(|_| rng.uniform_vec(net.input_dim(), -1.0, 1.0))
            .collect();
        let spec = MonitorSpec::new(layer, MonitorKind::min_max());
        let artifact = MonitorArtifact::build(spec, &net, &train).unwrap();
        artifact.to_json_string().unwrap()
    })
}

/// The fields of the first `kind` layer (`"Conv2d"`, `"MaxPool2d"`,
/// `"BatchNorm"`) in a network's JSON.
fn layer_of<'a>(network: &'a mut Json, kind: &str) -> &'a mut Json {
    let Some(Value::Array(layers)) = network.get_mut("layers") else {
        panic!("a network holds layers")
    };
    layers
        .iter_mut()
        .find_map(|layer| match layer {
            Value::Object(layer) => match layer.get_mut(kind) {
                Some(Value::Object(fields)) => Some(fields),
                _ => None,
            },
            _ => None,
        })
        .unwrap_or_else(|| panic!("the network has a {kind} layer"))
}

/// Convolution, pooling and batch-norm layers load through their
/// constructors' checks, so a malformed one is a typed error at load, not
/// a short vector or a panic on the first query: a batch-norm shift one
/// value short, conv weights reshaped against their geometry, a stride of
/// 0, and a pooling window larger than its input.
#[test]
fn malformed_conv_pool_and_norm_layers_are_refused_typed_at_load() {
    let [conv, norm] = layered_artifacts();
    refused(
        &with_network(&norm, |n| drop_last(layer_of(n, "BatchNorm"), "shift")),
        "shape mismatch in batch norm shift: expected 3, got 2",
    );
    refused(
        &with_network(&conv, |n| {
            let Some(Value::Object(weights)) = layer_of(n, "Conv2d").get_mut("weights") else {
                panic!("a convolution holds weights")
            };
            set_number(weights, "rows", 1);
            set_number(weights, "cols", 18);
        }),
        "conv2d: 1x18 weights and 2 biases for 2 output channels",
    );
    refused(
        &with_network(&conv, |n| set_number(layer_of(n, "Conv2d"), "stride", 0)),
        "conv2d: kernel and stride must be positive",
    );
    refused(
        &with_network(&conv, |n| set_number(layer_of(n, "MaxPool2d"), "stride", 0)),
        "maxpool2d: pool and stride must be positive",
    );
    refused(
        &with_network(&conv, |n| set_number(layer_of(n, "MaxPool2d"), "pool", 7)),
        "maxpool2d: window 7 larger than input 6x6",
    );
    // Unedited, both load.
    for json in [&conv, &norm] {
        MonitorArtifact::from_json_str(json).unwrap();
    }
}
