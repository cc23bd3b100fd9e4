//! Networked monitoring: the sharded engine behind a TCP boundary.
//!
//! The paper's monitors run *in operation* beside a deployed DNN; after
//! `napmon-serve` they run hot and sharded — but only inside the process
//! that mounted them. This crate is the network boundary that turns the
//! library into a deployable service: a length-prefixed, versioned binary
//! frame protocol (pure `std::net`, no async runtime) carrying the
//! engine's whole serving surface — `Query`, `QueryBatch`, `Absorb`
//! (operation-time monitor enlargement over the wire), `Stats`, and
//! graceful `Shutdown` — plus, since protocol v2, tenant-routed frames
//! and the registry control plane (`Mount`, `Unmount`, `Promote`,
//! `ListTenants`, `ShadowStats`) over a
//! [`MonitorRegistry`](napmon_registry::MonitorRegistry) backend
//! ([`Backend::Registry`]).
//!
//! The server's I/O core is an event-driven reactor (see the
//! [`reactor`]-module topology diagram): one thread owns every
//! connection on nonblocking sockets, so an idle connection costs a
//! buffer rather than an OS thread. Query frames go from the reactor
//! straight to the engine's shards, and the shard finishing a frame posts
//! its reply back; everything else goes to one control thread. Two
//! server threads, on any host. Construction goes through
//! [`WireServer::builder`], which takes either backend.
//!
//! ```text
//! clients (any host)                      monitoring service
//! ┌───────────────┐  framed TCP  ┌─────────────────────────────────┐
//! │ WireClient    │ ───────────► │ WireServer                      │
//! │  query_batch  │   NAPW v2    │  reactor + control thread       │
//! │  absorb_batch │ ◄─────────── │  global in-flight budget (Busy) │
//! │  stats        │  [routed]    │  MonitorEngine: N shards        │
//! │  mount/promote│              │  — or MonitorRegistry: tenants  │
//! └───────────────┘              └─────────────────────────────────┘
//! ```
//!
//! Design invariants, pinned by this crate's tests:
//!
//! - **No panic on any byte string.** The frame decoder and every payload
//!   decoder are total: arbitrary input yields a value or a typed
//!   [`WireError`] (`tests/frame_props.rs` fuzzes this).
//! - **Backpressure is typed.** Over-budget requests get a `Busy`
//!   response with the budget figures; bytes are never dropped and the
//!   connection stays framed.
//! - **Wire verdicts are bit-identical** to direct
//!   [`MonitorEngine::submit_batch`](napmon_serve::MonitorEngine::submit_batch)
//!   calls on the same engine — the wire encoding of a
//!   [`Verdict`](napmon_core::Verdict) is lossless (`tests/e2e.rs`).
//! - **Shutdown drains.** In-flight requests are served and answered
//!   before the engine's final report (queue depth zero) comes back.
//!
//! # Example
//!
//! ```
//! use napmon_core::{MonitorKind, MonitorSpec};
//! use napmon_nn::{Activation, LayerSpec, Network};
//! use napmon_serve::{EngineConfig, MonitorEngine};
//! use napmon_wire::{WireClient, WireConfig, WireServer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Network::seeded(7, 4, &[
//!     LayerSpec::dense(8, Activation::Relu),
//!     LayerSpec::dense(2, Activation::Identity),
//! ]);
//! let train: Vec<Vec<f64>> = (0..32)
//!     .map(|i| (0..4).map(|j| ((i + j) % 8) as f64 / 8.0).collect())
//!     .collect();
//! let spec = MonitorSpec::new(2, MonitorKind::pattern());
//! let monitor = spec.build(&net, &train)?;
//!
//! let engine = MonitorEngine::new(net, monitor, EngineConfig::with_shards(2));
//! let server = WireServer::builder(engine)
//!     .config(WireConfig::default())
//!     .bind("127.0.0.1:0")?;
//!
//! let mut client = WireClient::connect(server.local_addr())?;
//! let verdicts = client.query_batch(&train)?;
//! assert!(verdicts.iter().all(|v| !v.warning));
//! client.shutdown_server()?;
//! let report = server.wait();
//! assert_eq!(report.queue_depth, 0);
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod codec;
pub mod error;
pub mod frame;
mod poll;
pub mod reactor;
pub mod server;

pub use client::{ClientConfig, RetryPolicy, WireClient};
pub use codec::{
    DegradedStats, Request, Response, StatsSnapshot, MAX_BATCH_INPUTS, MAX_ERROR_MESSAGE_BYTES,
};
pub use error::{ErrorCode, WireError};
pub use frame::{
    valid_tenant_id, Frame, FrameHeader, Opcode, TenantRoute, ACTIVE_VERSION, DEFAULT_MAX_PAYLOAD,
    FLAG_ROUTED, FLAG_TRACED, HEADER_LEN, KNOWN_FLAGS, LEGACY_WIRE_PROTOCOL_VERSION, MAGIC,
    SUPPORTED_WIRE_PROTOCOL_VERSIONS, TENANT_ID_MAX_BYTES, WIRE_PROTOCOL_VERSION,
};
pub use server::{Backend, WireConfig, WireServer, WireServerBuilder, SLOW_LOG_CAPACITY};
