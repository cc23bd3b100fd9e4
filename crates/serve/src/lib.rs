//! Long-lived, sharded serving of activation-pattern monitors.
//!
//! The paper's monitors run *in operation time* next to a deployed DNN:
//! every inference is checked against the frozen abstraction, indefinitely.
//! The batch APIs in `napmon-core` answer "what are the verdicts for this
//! input set?"; this crate answers the serving question — "keep a monitor
//! hot and answer submissions as they arrive, at production rates".
//!
//! [`MonitorEngine`] owns a [`Network`](napmon_nn::Network) and a monitor
//! behind `Arc` and fans submissions out to a fixed set of worker *shards*
//! over `std::sync::mpsc` channels. Each shard is one OS thread holding one
//! [`QueryScratch`](napmon_core::QueryScratch) for its whole lifetime, so
//! the steady-state query path — forward pass, abstraction, membership —
//! touches the heap exactly never per request (verified by the allocation-
//! counting test in `tests/alloc.rs`). Batches are micro-batched: a
//! submission is split into per-shard chunks so channel traffic is
//! O(shards), not O(requests).
//!
//! There is one submission path. [`MonitorEngine::submit_batch_with`]
//! enqueues the chunks and returns at once; the shard that finishes the
//! last chunk hands the verdicts to the caller's callback, so a serving
//! layer (the wire reactor) never parks a thread on a batch. A single
//! query is a one-row batch, and [`MonitorEngine::submit_batch`] is the
//! blocking wrapper.
//!
//! Each engine counts what it serves into its own `napmon-obs` metrics
//! registry: `serve.requests` and `serve.warnings` counters, and
//! `serve.latency_ns` (per item) and `serve.batch_size` histograms. A
//! shard records each served chunk once; [`MonitorEngine::metrics`]
//! snapshots the cells (the wire `Metrics` scrape merges this snapshot),
//! [`MonitorEngine::report`] reads them as a [`ServeReport`] without
//! touching the shard queues, and [`MonitorEngine::shutdown`] closes the
//! channels, drains every queued job, and returns the final report.
//! Chunk ingest refuses NaN and infinite coordinates with
//! `MonitorError::NonFinite`. With the `obs` feature enabled a
//! submission's trace id makes every chunk emit queue-wait and verdict
//! spans into `napmon-obs`'s per-thread trace rings.
//!
//! # Example
//!
//! ```
//! use napmon_core::{MonitorKind, MonitorSpec};
//! use napmon_nn::{Activation, LayerSpec, Network};
//! use napmon_serve::{EngineConfig, MonitorEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Network::seeded(7, 4, &[
//!     LayerSpec::dense(8, Activation::Relu),
//!     LayerSpec::dense(2, Activation::Identity),
//! ]);
//! let train: Vec<Vec<f64>> = (0..32)
//!     .map(|i| (0..4).map(|j| ((i + j) % 8) as f64 / 8.0).collect())
//!     .collect();
//! let monitor = MonitorSpec::new(2, MonitorKind::pattern()).build(&net, &train)?;
//!
//! let engine = MonitorEngine::new(net, monitor, EngineConfig::with_shards(2));
//! let verdicts = engine.submit_batch(train.clone())?;
//! assert!(verdicts.iter().all(|v| !v.warning));
//! let report = engine.shutdown();
//! assert_eq!(report.requests, 32);
//! # Ok(())
//! # }
//! ```

pub mod engine;
pub mod report;

pub use engine::{EngineConfig, MonitorEngine, ServeError};
pub use report::ServeReport;
