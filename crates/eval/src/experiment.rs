//! The end-to-end race-track experiment (E1/F2 of `paper_tables all --full`).

use crate::metrics::{mean_query_nanos, warn_rate};
use napmon_absint::Domain;
use napmon_artifact::{ArtifactError, MonitorArtifact};
use napmon_core::{AnyMonitor, MonitorKind, MonitorSpec, RobustConfig};
use napmon_data::ood::OodScenario;
use napmon_data::racetrack::{TrackConfig, TrackSampler};
use napmon_data::Dataset;
use napmon_nn::{Activation, LayerSpec, Loss, Network, Optimizer, Trainer};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Configuration of the race-track pipeline.
///
/// The defaults are test-sized; `RacetrackConfig::paper_scale()` matches
/// the settings `paper_tables all --full` runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RacetrackConfig {
    /// Master seed (data, init, training, evaluation all derive from it).
    pub seed: u64,
    /// Renderer/ODD settings.
    pub track: TrackConfig,
    /// Training-set size (the paper's `Dtr`).
    pub train_size: usize,
    /// Held-out in-ODD test-set size (false-positive measurement).
    pub test_size: usize,
    /// Out-of-ODD samples per scenario (detection measurement).
    pub ood_size: usize,
    /// Hidden dense layer widths (all ReLU) before the 2-dim output.
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Which OOD scenarios to evaluate.
    pub scenarios: Vec<OodScenario>,
}

impl Default for RacetrackConfig {
    fn default() -> Self {
        Self {
            seed: 2021,
            track: TrackConfig::default(),
            train_size: 256,
            test_size: 256,
            ood_size: 64,
            hidden: vec![32, 16],
            epochs: 8,
            scenarios: OodScenario::PAPER.to_vec(),
        }
    }
}

impl RacetrackConfig {
    /// The full-scale configuration `paper_tables all --full` runs.
    ///
    /// Sized for a small CI machine: large enough that sub-percent
    /// false-positive rates are measurable (4000 held-out frames resolve
    /// 0.025%), small enough that the whole table suite regenerates in
    /// minutes on two cores.
    pub fn paper_scale() -> Self {
        Self {
            train_size: 3000,
            test_size: 4000,
            ood_size: 1000,
            hidden: vec![64, 32],
            epochs: 20,
            scenarios: OodScenario::ALL.to_vec(),
            ..Self::default()
        }
    }
}

/// One evaluated monitor: rates, capacity and cost figures.
#[derive(Debug, Clone, Serialize)]
pub struct MonitorRow {
    /// Human-readable monitor description.
    pub name: String,
    /// False-positive rate on held-out in-ODD data.
    pub fp_rate: f64,
    /// Detection rate per OOD scenario (scenario name → rate).
    pub detection: BTreeMap<String, f64>,
    /// Pattern-space coverage for pattern-family monitors.
    pub coverage: Option<f64>,
    /// Construction wall-clock seconds.
    pub build_seconds: f64,
    /// Mean query latency in nanoseconds.
    pub query_nanos: f64,
}

impl MonitorRow {
    /// Mean detection rate across scenarios.
    pub fn mean_detection(&self) -> f64 {
        if self.detection.is_empty() {
            return 0.0;
        }
        self.detection.values().sum::<f64>() / self.detection.len() as f64
    }
}

/// A prepared experiment: trained perception network plus evaluation data.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: RacetrackConfig,
    net: Network,
    train: Dataset,
    test: Dataset,
    ood: BTreeMap<OodScenario, Vec<Vec<f64>>>,
    train_loss: f64,
    test_loss: f64,
}

impl Experiment {
    /// Samples the datasets, trains the waypoint regressor, and stages the
    /// OOD scenarios.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero sizes, no hidden
    /// layers).
    pub fn prepare(config: RacetrackConfig) -> Self {
        assert!(
            config.train_size > 0 && config.test_size > 0 && config.ood_size > 0,
            "zero-sized dataset"
        );
        assert!(!config.hidden.is_empty(), "need at least one hidden layer");

        let mut sampler = TrackSampler::new(config.track, config.seed);
        let train = sampler.dataset(config.train_size);
        let test = sampler.dataset(config.test_size);

        // OOD: corrupt freshly sampled in-ODD frames.
        let mut ood = BTreeMap::new();
        for &scenario in &config.scenarios {
            let mut inputs = Vec::with_capacity(config.ood_size);
            for _ in 0..config.ood_size {
                let (img, _, _) = sampler.sample();
                let corrupted = scenario.apply(&img, sampler.rng_mut());
                inputs.push(corrupted.into_pixels());
            }
            ood.insert(scenario, inputs);
        }

        // Train the perception network.
        let mut specs: Vec<LayerSpec> = config
            .hidden
            .iter()
            .map(|&w| LayerSpec::dense(w, Activation::Relu))
            .collect();
        specs.push(LayerSpec::dense(2, Activation::Identity));
        let mut net = Network::seeded(config.seed ^ 0xDA7E, config.track.input_dim(), &specs);
        let trainer = Trainer::new(Loss::Mse, Optimizer::adam(0.003))
            .batch_size(32)
            .epochs(config.epochs);
        let report = trainer.run(
            &mut net,
            &train.inputs,
            &train.targets,
            config.seed ^ 0x7EAC,
        );
        let test_loss = trainer.evaluate(&net, &test.inputs, &test.targets);

        Self {
            config,
            net,
            train,
            test,
            ood,
            train_loss: report.final_loss(),
            test_loss,
        }
    }

    /// The trained perception network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The training dataset (`Dtr`).
    pub fn train_data(&self) -> &Dataset {
        &self.train
    }

    /// The held-out in-ODD test dataset.
    pub fn test_data(&self) -> &Dataset {
        &self.test
    }

    /// OOD inputs per scenario.
    pub fn ood_inputs(&self) -> &BTreeMap<OodScenario, Vec<Vec<f64>>> {
        &self.ood
    }

    /// Final training loss (sanity signal for the perception substrate).
    pub fn train_loss(&self) -> f64 {
        self.train_loss
    }

    /// Held-out test loss.
    pub fn test_loss(&self) -> f64 {
        self.test_loss
    }

    /// The experiment configuration.
    pub fn config(&self) -> &RacetrackConfig {
        &self.config
    }

    /// The monitored boundary: just before the output affine map, i.e. the
    /// last hidden representation (the paper's "close-to-output layer").
    pub fn monitored_boundary(&self) -> usize {
        self.net.penultimate_boundary()
    }

    /// Builds and evaluates one monitor; `robust = None` gives the
    /// standard construction.
    pub fn run_monitor(
        &self,
        name: &str,
        kind: MonitorKind,
        robust: Option<RobustConfig>,
    ) -> MonitorRow {
        let spec = self.monitor_spec(kind, robust);
        let start = Instant::now();
        let monitor = spec
            .build(&self.net, &self.train.inputs)
            .expect("valid experiment configuration");
        let build_seconds = start.elapsed().as_secs_f64();

        let fp_rate = warn_rate(&monitor, &self.net, &self.test.inputs);
        let mut detection = BTreeMap::new();
        for (scenario, inputs) in &self.ood {
            detection.insert(
                scenario.name().to_string(),
                warn_rate(&monitor, &self.net, inputs),
            );
        }
        let query_nanos = mean_query_nanos(
            &monitor,
            &self.net,
            &self.test.inputs[..self.test.inputs.len().min(256)],
        );
        MonitorRow {
            name: name.to_string(),
            fp_rate,
            detection,
            coverage: monitor.as_single().and_then(AnyMonitor::coverage),
            build_seconds,
            query_nanos,
        }
    }

    /// The spec every experiment monitor is built from (by
    /// [`Experiment::run_monitor`] and [`Experiment::build_artifact`]).
    pub fn monitor_spec(&self, kind: MonitorKind, robust: Option<RobustConfig>) -> MonitorSpec {
        let mut spec = MonitorSpec::new(self.monitored_boundary(), kind).parallel(true);
        if let Some(r) = robust {
            spec = spec.robust_config(r);
        }
        spec
    }

    /// Packages one evaluated monitor as a deployable artifact: the
    /// trained perception network, the spec, and the monitor built from
    /// the experiment's training set — ready for
    /// `MonitorEngine::from_artifact` in a fresh process.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] if the spec is invalid for the trained
    /// network (does not happen for the kinds in
    /// [`Experiment::monitor_families`]).
    pub fn build_artifact(
        &self,
        kind: MonitorKind,
        robust: Option<RobustConfig>,
    ) -> Result<MonitorArtifact, ArtifactError> {
        MonitorArtifact::build(
            self.monitor_spec(kind, robust),
            &self.net,
            &self.train.inputs,
        )
    }

    /// Builds an artifact and writes it to `path` in one step.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Experiment::build_artifact`], plus
    /// [`ArtifactError::Io`] on filesystem failure.
    pub fn export_artifact(
        &self,
        kind: MonitorKind,
        robust: Option<RobustConfig>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<MonitorArtifact, ArtifactError> {
        let artifact = self.build_artifact(kind, robust)?;
        artifact.save_json(path)?;
        Ok(artifact)
    }

    /// The monitor families evaluated in Section IV, with the threshold
    /// choices that make each family meaningful on a post-ReLU feature
    /// layer: sign thresholds degenerate there (all values are
    /// non-negative), so the on-off family uses the "average of all
    /// visited values" option the DATE 2019 construction names explicitly.
    pub fn monitor_families() -> Vec<(&'static str, MonitorKind)> {
        use napmon_core::{PatternBackend, ThresholdPolicy};
        vec![
            ("min-max", MonitorKind::min_max()),
            (
                "pattern",
                MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0),
            ),
            ("interval-2bit", MonitorKind::interval(2)),
        ]
    }

    /// The standard-vs-robust comparison of the paper's Section IV: every
    /// monitor family, standard and robust at the given `Δ`.
    pub fn standard_vs_robust(&self, delta: f64, domain: Domain) -> Vec<MonitorRow> {
        let robust = RobustConfig {
            delta,
            kp: 0,
            domain,
        };
        let mut rows = Vec::new();
        for (family, kind) in Self::monitor_families() {
            rows.push(self.run_monitor(&format!("{family} (standard)"), kind.clone(), None));
            rows.push(self.run_monitor(
                &format!("{family} (robust Δ={delta})"),
                kind,
                Some(robust),
            ));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Experiment {
        Experiment::prepare(RacetrackConfig {
            train_size: 48,
            test_size: 48,
            ood_size: 16,
            hidden: vec![12, 8],
            epochs: 3,
            track: TrackConfig {
                height: 8,
                width: 8,
                ..TrackConfig::default()
            },
            ..RacetrackConfig::default()
        })
    }

    #[test]
    fn artifact_export_round_trips_through_disk() {
        use napmon_core::Monitor;
        let e = tiny();
        let dir = std::env::temp_dir().join("napmon_eval_artifact_test");
        let path = dir.join("monitor.artifact.json");
        let (_, kind) = &Experiment::monitor_families()[1];
        let artifact = e.export_artifact(kind.clone(), None, &path).unwrap();
        let loaded = MonitorArtifact::load_json(&path).unwrap();
        assert_eq!(loaded.network(), e.network());
        for x in e.test_data().inputs.iter().take(32) {
            assert_eq!(
                artifact.monitor().verdict(e.network(), x).unwrap(),
                loaded.monitor().verdict(loaded.network(), x).unwrap()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preparation_trains_a_usable_network() {
        let e = tiny();
        assert!(e.train_loss().is_finite());
        assert!(e.test_loss().is_finite());
        assert_eq!(e.network().input_dim(), 64);
        assert_eq!(e.network().output_dim(), 2);
        assert_eq!(e.ood_inputs().len(), 3);
    }

    #[test]
    fn monitored_boundary_is_last_hidden() {
        let e = tiny();
        // Layers: D R D R D -> boundary 4 (after the second ReLU).
        assert_eq!(e.monitored_boundary(), 4);
    }

    #[test]
    fn run_monitor_produces_sane_rates() {
        let e = tiny();
        let row = e.run_monitor("minmax", MonitorKind::min_max(), None);
        assert!((0.0..=1.0).contains(&row.fp_rate));
        assert_eq!(row.detection.len(), 3);
        for r in row.detection.values() {
            assert!((0.0..=1.0).contains(r));
        }
        assert!(row.build_seconds >= 0.0);
        assert!(row.query_nanos > 0.0);
        assert!(row.coverage.is_none());
    }

    #[test]
    fn robust_monitor_fp_not_worse_than_standard() {
        let e = tiny();
        let rows = e.standard_vs_robust(0.02, Domain::Box);
        assert_eq!(rows.len(), 6);
        for pair in rows.chunks(2) {
            assert!(
                pair[1].fp_rate <= pair[0].fp_rate + 1e-12,
                "{}: robust fp {} > standard fp {}",
                pair[1].name,
                pair[1].fp_rate,
                pair[0].fp_rate
            );
        }
    }

    #[test]
    fn pattern_rows_report_coverage() {
        let e = tiny();
        let row = e.run_monitor("pattern", MonitorKind::pattern(), None);
        let cov = row.coverage.expect("pattern coverage");
        assert!((0.0..=1.0).contains(&cov));
        assert!(row.mean_detection() >= 0.0);
    }

    #[test]
    fn preparation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.network(), b.network());
        assert_eq!(a.train_data(), b.train_data());
    }
}
