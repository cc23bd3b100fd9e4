//! Persistent log-structured storage for activation-pattern word sets.
//!
//! The paper builds its monitors offline and queries them in operation
//! time — but every pattern store in the sibling crates lives in process
//! RAM: a deployment cannot hold million-input pattern sets, survive a
//! restart without a full rebuild, or grow its abstraction from
//! operation-time traffic the way the original activation-pattern
//! monitoring line of work proposes when enlarging monitors with newly
//! observed patterns. This crate is that missing persistence layer: an
//! append-only, log-structured on-disk store of packed
//! [`napmon_bdd::BitWord`]s, built on `std::fs` alone (the build
//! environment vendors no rocksdb/mmap crates — see the workspace
//! vendoring policy in the repository README).
//!
//! # Design
//!
//! A [`PatternStore`] directory holds three kinds of file:
//!
//! | file | role |
//! |---|---|
//! | `MANIFEST.json` | atomic catalog of sealed segments (tmp + rename swap) |
//! | `segment-NNNNNNNN.seg` | immutable sorted word block + Bloom filter + checksum |
//! | `tail.log` | active append log, per-record checksums, torn tail dropped on open |
//!
//! Appends deduplicate, buffer through the tail log
//! ([`PatternStore::commit`] is the durability point), and auto-seal into
//! sorted segments; [`PatternStore::compact`] merges everything into one
//! segment. Exact membership is Bloom-filter → binary search; Hamming-ball
//! membership runs through a prefix-partitioned index over each sealed
//! segment (per-partition AND/OR masks prune by a distance lower bound)
//! into the bit-sliced batch kernel of [`napmon_bdd::BitSliceSet`].
//! Crash safety comes from the two-phase commit: segment files are
//! written and fsynced *before* the manifest swap makes them visible, and
//! files the manifest does not name are ignored.
//!
//! # Monitors on top
//!
//! [`PatternStore`] implements [`napmon_core::PatternSource`], so pattern
//! monitors of any bit width `B` (on-off at `B = 1`, the multi-bit
//! interval monitor above) can delegate their set of packed `B·d`-bit
//! words to a store handle (`PatternMonitor::with_source`, spec-level
//! `MonitorSpec::build_with_sources`), serving engines can absorb
//! operation-time patterns into it without a rebuild, and a fresh process
//! can warm-start from the segments on disk
//! (`MonitorSpec::mount_with_sources`, `MonitorEngine::from_store`).
//! [`StoreProvider`] maps composed monitors onto a `member-NNNN/`
//! directory layout under one root.
//!
//! # Observability
//!
//! With the `obs` feature on, the store publishes `store.*` metrics into
//! the process-wide [`napmon_obs::global`] registry — append/seal/compact
//! latency histograms, fresh/duplicate counters, and Bloom-filter
//! hit/miss/false-positive counters — and emits seal/compact trace spans
//! when tracing is enabled (see the `obs` module). Without the feature no
//! probe code is compiled at all, so the hot membership path carries zero
//! instrumentation cost.
//!
//! ```
//! use napmon_bdd::BitWord;
//! use napmon_store::{PatternStore, StoreConfig};
//!
//! # fn main() -> Result<(), napmon_store::StoreError> {
//! let dir = std::env::temp_dir().join(format!("napmon_store_doc_{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut store = PatternStore::create(&dir, StoreConfig::new(3))?;
//! store.append(&BitWord::from_bools(&[true, false, true]))?;
//! store.commit()?; // durable from here on
//! drop(store);
//!
//! // A fresh process reopens the same set from disk.
//! let store = PatternStore::open(&dir)?;
//! assert!(store.contains(&BitWord::from_bools(&[true, false, true])));
//! assert!(store.contains_within(&BitWord::from_bools(&[true, true, true]), 1)?);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

pub mod bloom;
mod checksum;
pub mod error;
mod faults;
pub mod manifest;
#[cfg(feature = "obs")]
mod obs;
pub mod segment;
mod store;
mod tail;

pub use bloom::BloomFilter;
pub use error::StoreError;
pub use manifest::{Manifest, SegmentMeta, MANIFEST_VERSION};
pub use store::{open_member_source, PatternStore, StoreConfig, StoreProvider, StoreStats};
