//! Host operating-system file-system substrate for the GPUfs reproduction.
//!
//! The GPUfs paper runs its host side on Linux: the VFS, an ext-family file
//! system on a 7200 RPM disk, the kernel page cache, and a modified WRAPFS
//! stackable module that interposes on file operations to drive GPU cache
//! invalidation (§4.4). This crate rebuilds those pieces:
//!
//! * [`HostFs`] — a POSIX-like in-memory file system: inodes, directories,
//!   open-file descriptors with access modes, `pread`/`pwrite`/`fsync`/
//!   `truncate`/`unlink`/`stat`, plus crash semantics (non-synced writes are
//!   lost on [`HostFs::crash`], matching the paper's failure model in §3.3).
//! * A **page cache** with LRU replacement whose capacity is computed
//!   dynamically against a [`simtime::ByteLedger`] shared with pinned GPU
//!   buffers — so `cudaHostMalloc`-style allocations crowd the cache out,
//!   the mechanism behind the disk-bound regime of Figure 8.
//! * A **disk model** (seek + streaming bandwidth as a serial device)
//!   charging virtual time for cache misses and write-back.
//! * [`Consistency`] — the WRAPFS-like interposition layer: per-file
//!   generation numbers that the GPUfs host daemon consults on `gopen` to
//!   decide whether a GPU's cached copy of a closed file is stale.
//!
//! All timed operations take the caller's current virtual time and return
//! the completion time alongside the result.
//!
//! # Example
//!
//! ```
//! use hostfs::{HostFs, OpenFlags};
//!
//! let fs = HostFs::new(Default::default());
//! fs.create("/data.bin", &[1, 2, 3, 4]).unwrap();
//! let (fd, _t) = fs.open("/data.bin", OpenFlags::read_only(), 0).unwrap();
//! let mut buf = [0u8; 4];
//! let (n, _t) = fs.pread(fd, 0, &mut buf, 0).unwrap();
//! assert_eq!((n, buf), (4, [1, 2, 3, 4]));
//! ```

mod consistency;
mod disk;
mod error;
mod fs;
mod inode;
mod pagecache;

pub use consistency::{Consistency, FileGeneration, FileSnapshot};
pub use disk::DiskModel;
pub use error::FsError;
pub use fs::{HostFd, HostFs, HostFsConfig, Metadata, OpenFlags};
pub use inode::{Blocks, FileBody, FileKind, Ino};
pub use pagecache::{CacheStats, PageCache};

/// Result alias for host file-system operations.
pub type FsResult<T> = Result<T, FsError>;
