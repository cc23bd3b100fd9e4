//! Experiment harness for the `napmon` reproduction.
//!
//! Wires the substrate crates together into the paper's experiments
//! (`paper_tables all --full` prints every table):
//!
//! - [`experiment`] — the end-to-end race-track pipeline (E1/F2): sample
//!   ODD data, train the waypoint regressor, build standard and robust
//!   monitors, measure false-positive and detection rates.
//! - [`sweep`] — the ablations: Δ sweeps (A1), perturbation boundary `kp`
//!   (A2), bits per neuron (A3), abstract-domain tightness/runtime (A4).
//! - [`metrics`] — warning-rate measurement.
//! - [`table`] — fixed-width ASCII tables matching the output of the
//!   `paper_tables` binary.
//! - [`report`] — JSON export of experiment results.
//!
//! The library defaults are deliberately small so the test suite stays
//! fast; the `napmon-bench` binaries override them with paper-scale
//! settings.

pub mod experiment;
pub mod metrics;
pub mod report;
pub mod shapes_experiment;
pub mod sweep;
pub mod table;

pub use experiment::{Experiment, MonitorRow, RacetrackConfig};
pub use metrics::{auc, roc, scores, warn_rate, RocPoint};
pub use shapes_experiment::{ShapesExperiment, ShapesExperimentConfig};
pub use table::Table;
