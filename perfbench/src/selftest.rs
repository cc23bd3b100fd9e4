//! The benchmark's own tests: seeded inputs repeat, every metric the runs
//! print is declared in `BENCHMARK.json` (and every declared one is
//! printed), and a short pass of each workload completes correctly.

use crate::inputs::{Inputs, Workload};
use crate::{run, Args, Outcome, Work};

/// The metric names `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn printed(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.iter().map(|m| m.name.to_string()).collect()
}

fn short(workload: Workload, trace: bool) -> Outcome {
    let args = Args {
        workload,
        seed: 3,
        seconds: 1.0,
        trace,
    };
    let work = Work::create(&args).expect("work directory");
    let outcome = run(&args, &work.0).expect("short pass completes");
    assert!(
        outcome.violations().is_empty(),
        "{}: {:?}",
        workload.name(),
        outcome.violations()
    );
    outcome
}

fn short_passes(workload: Workload) {
    let first = short(workload, false);
    let again = short(workload, false);
    assert_eq!(first.warn_rate, again.warn_rate);
    assert_eq!(first.lemma_warnings, again.lemma_warnings);
    assert_eq!(first.ledger.mismatches, again.ledger.mismatches);
    assert_eq!(printed(&first), declared("end_to_end"));
    let traced = short(workload, true);
    assert_eq!(traced.warn_rate, first.warn_rate);
    assert_eq!(printed(&traced), declared("per_layer"));
}

#[test]
fn same_seed_same_inputs() {
    for workload in Workload::ALL {
        assert_eq!(Inputs::generate(workload, 7), Inputs::generate(workload, 7));
        assert_ne!(
            Inputs::generate(workload, 7).frames,
            Inputs::generate(workload, 8).frames
        );
    }
}

#[test]
fn drive_indist_short_pass() {
    short_passes(Workload::DriveIndist);
}

#[test]
fn ood_tolerant_short_pass() {
    short_passes(Workload::OodTolerant);
}

#[test]
fn rollout_short_pass() {
    short_passes(Workload::Rollout);
}
