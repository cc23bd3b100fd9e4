//! Multi-tenant monitor registry: many `(model_id, version)` mounts served
//! through one routing table, with atomic hot-swap and shadow deployment.
//!
//! One [`MonitorEngine`](napmon_serve::MonitorEngine) serves one monitor
//! forever; a production service fronts many models whose monitors roll
//! forward without dropping traffic. [`MonitorRegistry`] is that layer:
//!
//! ```text
//!                    MonitorRegistry
//!   model_id ─────► TenantState ──► active: Arc<Mounted>  ──► engine v3
//!                        │
//!                        └────────► shadow: ShadowState   ──► engine v4
//!                                       (mirror queue, verdict diff)
//! ```
//!
//! **Hot-swap** is an arc-swap-style pointer flip behind a `RwLock`: the
//! writer holds the lock only to exchange the `Arc<Mounted>`, readers only
//! to clone it, so the flip never stalls the serving path. In-flight
//! requests finish on the engine they resolved (a dispatcher holds its
//! `Arc` while it enqueues), and the replaced engine is handed to a
//! background drainer that waits for `Arc::strong_count == 1` **and**
//! `queue_depth == 0` before shutting the engine down, which lets its
//! shards finish the chunks in hand — retirement never cancels work.
//!
//! **Shadow deployment** mounts a candidate beside the active engine.
//! Live queries are answered by the active engine and mirrored into a
//! bounded queue (`try_send` — a full queue drops the mirror job, never
//! blocks the request); a worker replays them on the candidate and
//! accumulates a [`ShadowReport`]: agreement rate, per-class disagreement
//! counts, latency delta. An explicit [`MonitorRegistry::promote`] flushes
//! the mirror, returns the final report, and performs the atomic flip.
//!
//! **Store namespacing:** store-backed mounts live under
//! `<store_root>/tenant-<id>/v<NNNN>/member-NNNN/`, one namespace per
//! mounted version, so a candidate's pattern stores never alias the active
//! version's advisory locks mid-swap.
//!
//! The wire layer (`napmon-wire`) exposes all of this remotely: protocol
//! v2 frames carry a tenant route and the admin opcodes map one-to-one
//! onto the registry's mount/promote/unmount surface.

#[cfg(feature = "obs")]
mod obs;
pub mod registry;
pub mod shadow;

pub use registry::{DrainOutcome, MonitorRegistry, Mounted, RegistryReport, TenantInfo};
pub use shadow::ShadowReport;

use napmon_artifact::ArtifactError;
use napmon_core::MonitorError;
use napmon_serve::{EngineConfig, ServeError};
use std::path::PathBuf;
use std::time::Duration;

/// Longest tenant id the registry (and the wire route encoding) accepts.
pub const TENANT_ID_MAX_BYTES: usize = 64;

/// Whether `id` can name a tenant: 1–[`TENANT_ID_MAX_BYTES`] bytes of
/// `[A-Za-z0-9._-]`, starting with an alphanumeric. The charset keeps ids
/// path-safe — a tenant id becomes a `tenant-<id>/` store directory — and
/// the leading-alphanumeric rule rules out `.`-led and `-`-led names.
pub fn valid_tenant_id(id: &str) -> bool {
    let mut bytes = id.bytes();
    let Some(first) = bytes.next() else {
        return false;
    };
    first.is_ascii_alphanumeric()
        && id.len() <= TENANT_ID_MAX_BYTES
        && bytes.all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

/// Registry sizing and policy.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Engine sizing every mount is created with.
    pub engine: EngineConfig,
    /// Root directory for per-tenant namespaced pattern stores; `None`
    /// disables the store-backed mount paths.
    pub store_root: Option<PathBuf>,
    /// Mirror queue capacity (in jobs) for shadow candidates.
    pub mirror_capacity: usize,
    /// How often a drainer re-checks a retiring engine.
    pub drain_poll: Duration,
    /// How long a drain may take before giving up (the engine is then left
    /// parked rather than torn down under in-flight work).
    pub drain_timeout: Duration,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            store_root: None,
            mirror_capacity: 1024,
            drain_poll: Duration::from_millis(1),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

impl RegistryConfig {
    /// Defaults with an explicit engine sizing.
    pub fn with_engine(engine: EngineConfig) -> Self {
        Self {
            engine,
            ..Self::default()
        }
    }

    /// Sets the store root for namespaced store-backed mounts.
    pub fn store_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.store_root = Some(root.into());
        self
    }
}

/// Everything the registry can refuse or fail with.
#[derive(Debug)]
#[non_exhaustive]
pub enum RegistryError {
    /// No tenant with this id is mounted.
    UnknownTenant(String),
    /// The tenant exists but serves neither this version as active nor as
    /// shadow.
    UnknownVersion {
        /// The tenant.
        model_id: String,
        /// The version that resolved nowhere.
        version: u32,
    },
    /// The version is already mounted (active or shadow) for this tenant.
    VersionInUse {
        /// The tenant.
        model_id: String,
        /// The already-mounted version.
        version: u32,
    },
    /// Version 0 is the "active" route sentinel and cannot be mounted.
    ReservedVersion,
    /// The id cannot name a tenant (see [`valid_tenant_id`]).
    InvalidTenantId(String),
    /// No shadow candidate is attached to this tenant.
    NoShadow(String),
    /// A shadow candidate is already attached.
    ShadowInUse {
        /// The tenant.
        model_id: String,
        /// The attached candidate's version.
        shadow_version: u32,
    },
    /// The registry has no configured store root.
    NoStoreRoot,
    /// The registry has been shut down.
    Closed,
    /// The engine refused or failed the submission.
    Serve(ServeError),
    /// Monitor construction or mounting failed.
    Monitor(MonitorError),
    /// Artifact loading or validation failed.
    Artifact(ArtifactError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownTenant(id) => write!(f, "unknown tenant {id:?}"),
            RegistryError::UnknownVersion { model_id, version } => {
                write!(f, "tenant {model_id:?} has no mounted version {version}")
            }
            RegistryError::VersionInUse { model_id, version } => {
                write!(f, "tenant {model_id:?} already mounts version {version}")
            }
            RegistryError::ReservedVersion => {
                write!(f, "version 0 is reserved to route to the active version")
            }
            RegistryError::InvalidTenantId(id) => write!(
                f,
                "invalid tenant id {id:?}: need 1-{TENANT_ID_MAX_BYTES} bytes of \
                 [A-Za-z0-9._-] starting alphanumeric"
            ),
            RegistryError::NoShadow(id) => write!(f, "tenant {id:?} has no shadow candidate"),
            RegistryError::ShadowInUse {
                model_id,
                shadow_version,
            } => write!(
                f,
                "tenant {model_id:?} already shadows version {shadow_version}"
            ),
            RegistryError::NoStoreRoot => {
                write!(f, "registry configured without a store root")
            }
            RegistryError::Closed => write!(f, "registry is shut down"),
            RegistryError::Serve(e) => write!(f, "serve error: {e}"),
            RegistryError::Monitor(e) => write!(f, "monitor error: {e}"),
            RegistryError::Artifact(e) => write!(f, "artifact error: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Serve(e) => Some(e),
            RegistryError::Monitor(e) => Some(e),
            RegistryError::Artifact(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for RegistryError {
    fn from(e: ServeError) -> Self {
        RegistryError::Serve(e)
    }
}

impl From<MonitorError> for RegistryError {
    fn from(e: MonitorError) -> Self {
        RegistryError::Monitor(e)
    }
}

impl From<ArtifactError> for RegistryError {
    fn from(e: ArtifactError) -> Self {
        RegistryError::Artifact(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_id_charset() {
        for ok in ["a", "model-a", "resnet50.v2", "A_b-3", &"x".repeat(64)] {
            assert!(valid_tenant_id(ok), "{ok:?} should be valid");
        }
        for bad in [
            "",
            ".",
            "..",
            ".hidden",
            "-rf",
            "_x",
            "a/b",
            "a b",
            "a\0b",
            "ä",
            &"x".repeat(65),
        ] {
            assert!(!valid_tenant_id(bad), "{bad:?} should be invalid");
        }
    }
}
