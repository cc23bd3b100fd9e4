//! Facade-level artifact tests: every committed golden file loads,
//! matches a fresh deterministic build bit-for-bit (verdicts and bytes),
//! and mounts on the serving engine; malformed files fail typed at every
//! entry point.

use napmon::artifact::{ArtifactError, MonitorArtifact, FORMAT_VERSION};
use napmon::core::Monitor;
use napmon::serve::{EngineConfig, MonitorEngine};
use napmon_bench::golden;

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
