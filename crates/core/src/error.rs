//! Error type for GPUfs operations.

use std::fmt;

use gpusim::MemError;
use hostfs::FsError;

/// Errors returned by the GPUfs GPU-side API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpufsError {
    /// The host file system rejected the operation.
    Host(FsError),
    /// GPU global memory could not hold the buffer cache.
    DeviceMemory(MemError),
    /// The GPU buffer cache could not reclaim enough frames: every
    /// candidate page is pinned by running threadblocks.
    CacheExhausted {
        /// Frames requested.
        requested: usize,
    },
    /// The file descriptor was already closed by this threadblock (its
    /// per-block reference was consumed).
    StaleDescriptor,
    /// Write attempted on a file opened read-only.
    ReadOnly(String),
    /// Read attempted on a file opened with `O_GWRONCE`, whose pages are
    /// never fetched from the host (paper §3.2).
    WriteOnce(String),
    /// `gmmap` requested a zero-length mapping.
    EmptyMapping,
    /// The host daemon is stopped.
    DaemonStopped,
    /// Operation not permitted for the file's open mode (e.g. `gmsync` on
    /// an `O_NOSYNC` temporary file).
    InvalidMode(&'static str),
    /// A configuration was refused: a mount's [`crate::GpufsConfig`]
    /// broke one of its rules, or a fleet builder was asked for a fleet
    /// it cannot build. The text names the rule.
    InvalidConfig(&'static str),
}

impl fmt::Display for GpufsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpufsError::Host(e) => write!(f, "host file system error: {e}"),
            GpufsError::DeviceMemory(e) => write!(f, "gpu memory error: {e}"),
            GpufsError::CacheExhausted { requested } => {
                write!(
                    f,
                    "gpu buffer cache exhausted: could not reclaim {requested} frame(s)"
                )
            }
            GpufsError::StaleDescriptor => write!(f, "file descriptor already closed"),
            GpufsError::ReadOnly(p) => write!(f, "file is open read-only: {p}"),
            GpufsError::WriteOnce(p) => write!(f, "file is open write-once (O_GWRONCE): {p}"),
            GpufsError::EmptyMapping => write!(f, "gmmap of zero bytes"),
            GpufsError::DaemonStopped => write!(f, "gpufs host daemon is not running"),
            GpufsError::InvalidMode(what) => write!(f, "operation invalid for open mode: {what}"),
            GpufsError::InvalidConfig(why) => write!(f, "configuration refused: {why}"),
        }
    }
}

impl std::error::Error for GpufsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GpufsError::Host(e) => Some(e),
            GpufsError::DeviceMemory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FsError> for GpufsError {
    fn from(e: FsError) -> Self {
        GpufsError::Host(e)
    }
}

impl From<MemError> for GpufsError {
    fn from(e: MemError) -> Self {
        GpufsError::DeviceMemory(e)
    }
}

/// Result alias for GPUfs operations.
pub type GpufsResult<T> = Result<T, GpufsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_errors_wrap_with_source() {
        use std::error::Error;
        let e = GpufsError::from(FsError::NotFound("/x".into()));
        assert!(e.to_string().contains("/x"));
        assert!(e.source().is_some());
    }

    #[test]
    fn display_is_informative() {
        assert!(GpufsError::CacheExhausted { requested: 3 }
            .to_string()
            .contains('3'));
        assert!(GpufsError::ReadOnly("/f".into()).to_string().contains("/f"));
        assert_eq!(
            GpufsError::InvalidConfig("page size must be a power of two").to_string(),
            "configuration refused: page size must be a power of two"
        );
    }
}
