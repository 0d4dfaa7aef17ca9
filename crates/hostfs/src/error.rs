//! Error type for host file-system operations.

use std::fmt;

/// Errors returned by [`crate::HostFs`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound(String),
    /// Path already exists (exclusive create).
    AlreadyExists(String),
    /// Expected a file, found a directory.
    IsADirectory(String),
    /// Expected a directory along the path, found a file.
    NotADirectory(String),
    /// Directory still has entries.
    DirectoryNotEmpty(String),
    /// The open mode forbids the attempted access (e.g. writing through a
    /// read-only descriptor — the host OS "denies writes of dirty blocks
    /// back to the host file system if the GPUfs application has opened the
    /// file read-only", paper §4.5).
    PermissionDenied(String),
    /// Unknown or already-closed file descriptor.
    BadDescriptor(u64),
    /// Path is not absolute or contains empty components.
    InvalidPath(String),
    /// Write attempted on a synthetic (generated-content) file that was
    /// created immutable.
    ImmutableFile(String),
    /// A storage peer broke the wire protocol: a frame that does not
    /// decode, or a response whose shape does not answer the request. The
    /// local file system never produces this; it exists so a misbehaving
    /// peer fails one call instead of the process.
    Protocol(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::AlreadyExists(p) => write!(f, "file exists: {p}"),
            FsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::DirectoryNotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::PermissionDenied(p) => write!(f, "permission denied: {p}"),
            FsError::BadDescriptor(fd) => write!(f, "bad file descriptor: {fd}"),
            FsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            FsError::ImmutableFile(p) => write!(f, "immutable synthetic file: {p}"),
            FsError::Protocol(what) => write!(f, "storage protocol violation: {what}"),
        }
    }
}

impl std::error::Error for FsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = FsError::NotFound("/a/b".into());
        assert_eq!(e.to_string(), "no such file or directory: /a/b");
        let e = FsError::BadDescriptor(42);
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(FsError::BadDescriptor(1), FsError::BadDescriptor(1));
        assert_ne!(FsError::BadDescriptor(1), FsError::BadDescriptor(2));
    }
}
