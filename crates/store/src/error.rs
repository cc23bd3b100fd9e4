//! Error surface of the pattern store.

use std::fmt;
use std::path::PathBuf;

/// Errors raised while opening, appending to, or compacting a
/// [`PatternStore`](crate::PatternStore).
///
/// Marked `#[non_exhaustive]`: future store format versions may add
/// variants without breaking downstream matches.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Filesystem access failed.
    Io(std::io::Error),
    /// A store file exists but fails its integrity checks (bad magic,
    /// length, or checksum, or a word with a bit set past the width). The torn *tail* of the append log is not an
    /// error — it is dropped on open — but a corrupt sealed segment or
    /// manifest is.
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// What failed.
        detail: String,
    },
    /// The store exists but disagrees with the caller (word width, format
    /// version).
    Mismatch(String),
    /// No store exists at the given directory.
    Missing(PathBuf),
    /// Another live [`PatternStore`](crate::PatternStore) (this process
    /// or another) holds the store open. Two handles on one directory
    /// would each buffer appends and index words independently —
    /// silent-corruption territory — so opens are exclusive, enforced
    /// with an OS advisory lock that dies with its holder (a crashed
    /// process never wedges the store).
    Locked(PathBuf),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o failed: {e}"),
            StoreError::Corrupt { file, detail } => {
                write!(f, "store file {} is corrupt: {detail}", file.display())
            }
            StoreError::Mismatch(msg) => write!(f, "store mismatch: {msg}"),
            StoreError::Missing(dir) => {
                write!(f, "no pattern store at {}", dir.display())
            }
            StoreError::Locked(dir) => {
                write!(
                    f,
                    "pattern store at {} is already open elsewhere",
                    dir.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Store failures surface to monitor callers as the core error type.
impl From<StoreError> for napmon_core::MonitorError {
    fn from(e: StoreError) -> Self {
        napmon_core::MonitorError::ExternalSource(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StoreError::Corrupt {
            file: PathBuf::from("/tmp/x.seg"),
            detail: "checksum".into(),
        };
        assert!(e.to_string().contains("x.seg"));
        assert!(StoreError::Missing(PathBuf::from("/tmp/d"))
            .to_string()
            .contains("no pattern store"));
        let m: napmon_core::MonitorError = StoreError::Mismatch("w".into()).into();
        assert!(m.to_string().contains("store mismatch"));
    }
}
