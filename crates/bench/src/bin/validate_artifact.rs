//! CI gate for the committed golden artifacts.
//!
//! For every fixture in `napmon_bench::golden::fixtures()` (each a file
//! under `tests/` at the workspace root), loads the committed file with
//! the full typed validation path (`MonitorArtifact::load_json`),
//! rebuilds the same deterministic fixture from source, and fails
//! (non-zero exit) unless
//!
//! 1. the committed file still loads under the current
//!    `FORMAT_VERSION` and validation rules,
//! 2. the loaded monitor's verdicts on the golden probe corpus are
//!    **bit-identical** to the freshly built monitor's, and
//! 3. the fresh build serializes to exactly the committed bytes.
//!
//! Together these catch accidental format breaks (a schema change that
//! silently orphans deployed artifacts), semantic drift (a construction
//! change that would make reloaded monitors disagree with newly built
//! ones) and layout drift (a writer that no longer produces the files
//! deployed readers hold).
//!
//! After an *intentional* format bump, regenerate the files:
//!
//! ```text
//! NAPMON_REGEN_GOLDEN=1 cargo run -p napmon-bench --bin validate_artifact
//! ```

use napmon_bench::golden;
use napmon_core::Monitor;

fn main() {
    // Both compatibility surfaces, on the record in every CI log: the
    // artifact schema this build reads/writes, and the full set of wire
    // protocol versions it accepts. The set is read from the wire crate
    // rather than hardcoded — a hardcoded "v1" survived the v2 bump here
    // once already — and the rejected legacy epoch is named so a log
    // reader knows what v1 peers will be told.
    let supported = napmon_wire::SUPPORTED_WIRE_PROTOCOL_VERSIONS
        .iter()
        .map(|v| format!("v{v}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "compatibility: artifact format v{}, wire protocol versions [{supported}] \
         (v{} peers get a typed UnsupportedVersion rejection)",
        napmon_artifact::FORMAT_VERSION,
        napmon_wire::LEGACY_WIRE_PROTOCOL_VERSION,
    );

    let regen = std::env::var_os("NAPMON_REGEN_GOLDEN").is_some();
    let probes = golden::probes();
    for fixture in golden::fixtures() {
        let file = fixture.path();
        let path = file.display();
        let fresh = fixture.build();
        if regen {
            fresh.save_json(&file).expect("write golden artifact");
            println!("regenerated {path}");
            println!("  {fresh}");
            continue;
        }

        let loaded = napmon_artifact::MonitorArtifact::load_json(&file).unwrap_or_else(|e| {
            panic!(
                "golden artifact at {path} no longer loads: {e}\n\
                     (if the format changed intentionally, bump FORMAT_VERSION and \
                     regenerate with NAPMON_REGEN_GOLDEN=1)"
            )
        });
        assert_eq!(loaded.spec(), fresh.spec(), "{path}: spec drifted");
        assert_eq!(loaded.network(), fresh.network(), "{path}: network drifted");
        assert_eq!(loaded.stats(), fresh.stats(), "{path}: build stats drifted");

        let expected = fresh
            .monitor()
            .query_batch(fresh.network(), &probes)
            .expect("fresh golden monitor queries");
        let got = loaded
            .monitor()
            .query_batch(loaded.network(), &probes)
            .expect("loaded golden monitor queries");
        assert_eq!(got, expected, "{path}: verdicts drifted from a fresh build");
        let committed = std::fs::read_to_string(&file).expect("read golden artifact");
        assert!(
            fresh.to_json_string().expect("serialize fresh build") == committed,
            "{path}: a fresh build no longer serializes to the committed bytes"
        );
        let warnings = expected.iter().filter(|v| v.warning).count();
        assert!(
            warnings > 0 && warnings < probes.len(),
            "{path}: the golden probe corpus must exercise both verdict branches \
             ({warnings}/{} warned)",
            probes.len()
        );
        println!(
            "golden artifact ok: {path}: {} probes bit-identical ({warnings} warnings), \
             committed bytes reproduced, {loaded}",
            probes.len(),
        );
    }
}
