//! The three workloads: their fixed design (monitor, rates, latency limit)
//! and their seeded inputs, all generated before any timing starts.

use napmon_absint::Domain;
use napmon_core::{MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy};
use napmon_data::{OodScenario, TrackConfig, TrackSampler};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_tensor::Prng;

/// Seed of the network weights. Fixed, so every workload seed monitors the
/// same network; `--seed` varies only the data.
const NET_SEED: u64 = 2021;
/// Width of both hidden ReLU layers.
const HIDDEN: usize = 64;
/// The watched boundary: the output of the last hidden layer.
pub const LAYER: usize = 2;
/// Neurons watched at [`LAYER`]. The seeded network has neurons that never
/// fire on track frames; their outward-rounded bounds straddle every
/// threshold and would turn each robust cube into a `2^k` hash expansion,
/// so the monitor watches the first `WATCHED` neurons that do fire.
const WATCHED: usize = 48;
/// Seed of the calibration frames that pick the watched neurons.
const CALIBRATION_SEED: u64 = 0xCA1B;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DriveIndist,
    OodTolerant,
    Rollout,
}

/// The fixed parameters of a workload (recorded in `perfbench/DESIGN.md`).
#[derive(Debug, Clone, Copy)]
pub struct Design {
    /// Inputs per `query_batch` frame.
    pub frame_inputs: usize,
    /// Frames in the pre-generated pool the load generator cycles through.
    pub pool_frames: usize,
    /// Open-loop rate the latency percentiles are measured at (frames/s).
    pub nominal_fps: f64,
    /// Open-loop rates probed for `slo_rate_fps` (frames/s, ascending).
    pub ladder_fps: &'static [f64],
    /// Latency limit on `frame_p99_us` (µs).
    pub limit_us: f64,
    /// Training samples per monitor version.
    pub train_size: usize,
    /// Perturbation budget Δ of the robust construction.
    pub delta: f64,
    /// Query-time Hamming tolerance τ.
    pub tau: usize,
    /// Monitor versions rolled out per run (beyond the first).
    pub rollouts: usize,
    /// `absorb_batch` frames/s streamed to the second tenant.
    pub write_fps: f64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DriveIndist,
        Workload::OodTolerant,
        Workload::Rollout,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DriveIndist => "drive_indist",
            Workload::OodTolerant => "ood_tolerant",
            Workload::Rollout => "rollout",
        }
    }

    pub fn design(self) -> Design {
        match self {
            Workload::DriveIndist => Design {
                frame_inputs: 8,
                pool_frames: 512,
                nominal_fps: 2000.0,
                ladder_fps: &[1000.0, 2000.0, 4000.0, 8000.0, 16000.0],
                limit_us: 2000.0,
                train_size: 512,
                delta: 0.0005,
                tau: 0,
                rollouts: 15,
                write_fps: 0.0,
            },
            Workload::OodTolerant => Design {
                frame_inputs: 16,
                pool_frames: 256,
                nominal_fps: 250.0,
                ladder_fps: &[125.0, 250.0, 500.0, 1000.0, 2000.0],
                limit_us: 5000.0,
                train_size: 1024,
                delta: 0.0005,
                tau: 2,
                rollouts: 15,
                write_fps: 50.0,
            },
            Workload::Rollout => Design {
                frame_inputs: 8,
                pool_frames: 256,
                nominal_fps: 250.0,
                ladder_fps: &[125.0, 250.0, 500.0, 1000.0, 2000.0],
                limit_us: 5000.0,
                train_size: 32,
                delta: 0.001,
                tau: 0,
                rollouts: 64,
                write_fps: 0.0,
            },
        }
    }

    /// Whether the monitor's pattern set lives in a `napmon-store`.
    pub fn store_backed(self) -> bool {
        self == Workload::OodTolerant
    }

    /// The monitor spec every version of this workload is built from.
    pub fn spec(self, watched: &[usize]) -> MonitorSpec {
        let design = self.design();
        let kind = match self {
            Workload::DriveIndist => {
                MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::HashSet, 0)
            }
            Workload::OodTolerant => {
                MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Store, design.tau)
            }
            Workload::Rollout => MonitorKind::interval(2),
        };
        let domain = match self {
            Workload::Rollout => Domain::Zonotope,
            _ => Domain::Box,
        };
        MonitorSpec::new(LAYER, kind)
            .with_neurons(watched.to_vec())
            .robust(design.delta, 0, domain)
    }
}

/// The perception network: 16×16 frames → 64 → 64 → 2, seeded, untrained.
pub fn network() -> Network {
    let track = TrackConfig::default();
    Network::seeded(
        NET_SEED,
        track.input_dim(),
        &[
            LayerSpec::dense(HIDDEN, Activation::Relu),
            LayerSpec::dense(HIDDEN, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    )
}

/// The watched neurons: the first [`WATCHED`] neurons of [`LAYER`] that
/// fire on at least a tenth of a fixed calibration set.
pub fn watched_neurons(net: &Network) -> Vec<usize> {
    let mut sampler = TrackSampler::new(TrackConfig::default(), CALIBRATION_SEED);
    let frames: Vec<Vec<f64>> = (0..256).map(|_| sampler.sample().0.into_pixels()).collect();
    let mut fired = vec![0usize; HIDDEN];
    for frame in &frames {
        for (count, value) in fired.iter_mut().zip(net.forward_prefix(frame, LAYER)) {
            *count += usize::from(value > 0.0);
        }
    }
    let watched: Vec<usize> = (0..HIDDEN)
        .filter(|&j| fired[j] * 10 >= frames.len())
        .take(WATCHED)
        .collect();
    assert!(
        watched.len() >= WATCHED / 2,
        "too few live neurons to watch"
    );
    watched
}

/// Every input one run uses, generated from the seed before timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Training sets: `versions[0]` builds the first monitor, each later
    /// entry the next rolled-out version.
    pub versions: Vec<Vec<Vec<f64>>>,
    /// Lemma 1 probes per version: points inside the Δ-ball of that
    /// version's training points.
    pub lemma: Vec<Vec<Vec<f64>>>,
    /// The query frames the load generator cycles through.
    pub frames: Vec<Vec<Vec<f64>>>,
    /// `ood_tolerant` only: the second tenant's training set.
    pub writer_train: Vec<Vec<f64>>,
    /// `ood_tolerant` only: the `absorb_batch` frames streamed to the
    /// second tenant.
    pub writes: Vec<Vec<Vec<f64>>>,
}

/// Lemma 1 probes drawn per version.
const LEMMA_PROBES: usize = 256;

fn render(sampler: &mut TrackSampler) -> Vec<f64> {
    sampler.sample().0.into_pixels()
}

fn render_ood(sampler: &mut TrackSampler, scenario: OodScenario) -> Vec<f64> {
    let (img, _, _) = sampler.sample();
    scenario.apply(&img, sampler.rng_mut()).into_pixels()
}

/// A point drawn uniformly from the Δ-ball (L∞) around `center`.
fn in_ball(center: &[f64], delta: f64, rng: &mut Prng) -> Vec<f64> {
    center
        .iter()
        .map(|x| x + rng.uniform(-delta, delta))
        .collect()
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let design = workload.design();
        let mut sampler = TrackSampler::new(TrackConfig::default(), seed);
        let mut rng = Prng::seed(seed ^ 0x5EED_F00D);
        let versions: Vec<Vec<Vec<f64>>> = (0..=design.rollouts)
            .map(|_| {
                (0..design.train_size)
                    .map(|_| render(&mut sampler))
                    .collect()
            })
            .collect();
        let lemma = versions
            .iter()
            .map(|train| {
                (0..LEMMA_PROBES)
                    .map(|_| in_ball(&train[rng.index(train.len())], design.delta, &mut rng))
                    .collect()
            })
            .collect();
        let mut scenario = OodScenario::ALL.iter().copied().cycle();
        let frames = (0..design.pool_frames)
            .map(|_| {
                (0..design.frame_inputs)
                    .map(|i| match workload {
                        // Lighting jitter inside the Δ-ball of a training
                        // image: every verdict is a guaranteed exact hit.
                        Workload::DriveIndist => {
                            let train = &versions[0];
                            in_ball(&train[rng.index(train.len())], design.delta, &mut rng)
                        }
                        // Half held-out ODD frames, half corrupted frames.
                        Workload::OodTolerant if i % 2 == 1 => {
                            render_ood(&mut sampler, scenario.next().expect("cycle"))
                        }
                        // One corrupted frame in four.
                        Workload::Rollout if i % 4 == 3 => {
                            render_ood(&mut sampler, scenario.next().expect("cycle"))
                        }
                        _ => render(&mut sampler),
                    })
                    .collect()
            })
            .collect();
        let (writer_train, writes) = if workload == Workload::OodTolerant {
            let train = (0..design.train_size / 4)
                .map(|_| render(&mut sampler))
                .collect();
            let writes = (0..design.pool_frames)
                .map(|_| {
                    (0..design.frame_inputs)
                        .map(|_| render_ood(&mut sampler, scenario.next().expect("cycle")))
                        .collect()
                })
                .collect();
            (train, writes)
        } else {
            (Vec::new(), Vec::new())
        };
        Self {
            versions,
            lemma,
            frames,
            writer_train,
            writes,
        }
    }
}
