//! Typed errors of the checkpoint layer.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Everything that can go wrong saving or loading a checkpoint.
///
/// The variants separate the three responses a caller needs: `Io` means
/// the directory is unwritable or full (degrade and stop checkpointing),
/// `Corrupt`/`Mismatch` mean the file on disk cannot be trusted
/// (recompute the phase), and `Decode` means a payload did not round-trip
/// (also recompute — it is a corruption that passed the container CRC,
/// which the container makes practically impossible, or a version skew).
#[derive(Debug)]
pub enum CkptError {
    /// A filesystem operation failed.
    Io {
        /// What was being attempted (`"create dir"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The file exists but fails structural or checksum validation.
    Corrupt {
        /// The checkpoint file.
        path: PathBuf,
        /// What check failed.
        detail: String,
    },
    /// The file is valid but was written for a different configuration,
    /// input, or phase than the one resuming.
    Mismatch {
        /// The checkpoint file.
        path: PathBuf,
        /// Which fingerprint disagreed.
        detail: String,
    },
    /// A record's payload bytes did not decode as the expected type.
    Decode {
        /// What failed to decode.
        detail: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { op, path, source } => {
                write!(f, "checkpoint {op} failed for {}: {source}", path.display())
            }
            CkptError::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint {}: {detail}", path.display())
            }
            CkptError::Mismatch { path, detail } => {
                write!(f, "stale checkpoint {}: {detail}", path.display())
            }
            CkptError::Decode { detail } => write!(f, "checkpoint payload decode failed: {detail}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_path_and_detail() {
        let e = CkptError::Corrupt {
            path: PathBuf::from("/x/phase_00.ckpt"),
            detail: "file CRC mismatch".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("phase_00.ckpt"));
        assert!(s.contains("file CRC mismatch"));
    }

    #[test]
    fn io_errors_chain_their_source() {
        let e = CkptError::Io {
            op: "write",
            path: PathBuf::from("/x"),
            source: io::Error::new(io::ErrorKind::StorageFull, "disk full"),
        };
        assert!(std::error::Error::source(&e).is_some());
    }
}
