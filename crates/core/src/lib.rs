//! # GPUfs: a file system API for GPU kernels
//!
//! Rust reproduction of *GPUfs: Integrating a File System with GPUs*
//! (Silberstein, Ford, Keidar, Witchel — ASPLOS 2013).
//!
//! GPUfs lets data-parallel GPU code open, read, write, map, and
//! synchronize host files directly from a running kernel, with a
//! GPU-resident buffer cache, a weak locality-optimized consistency
//! model, and a GPU-to-CPU RPC protocol served by a host daemon.
//!
//! ## Layers (paper Figure 2)
//!
//! The crate is organized module-per-layer (see ARCHITECTURE.md for the
//! full map):
//!
//! * **GPU-side library** — [`GpuFsMount`] (composition glue) and the
//!   `g*` calls ([`GpuFsMount::open`], [`GpuFsMount::read`],
//!   [`GpuFsMount::write`], [`GpuFsMount::mmap`], [`GpuFsMount::fsync`],
//!   ...), the open/closed file tables, and the buffer cache in
//!   [`cache`] — paging (with batched multi-page readahead RPCs on
//!   sequential access), reclaim, and diff-based bulk write-back
//!   (batched multi-page `WritePages` RPCs, the write-side mirror).
//! * **Communication layer** — the RPC hub in [`rpc`] (GPU as client),
//!   which serves each request on the calling threadblock's thread
//!   through the host daemon of the [`GpufsHost`]. The daemon's workers
//!   are a virtual-time pool (`GpufsConfig::daemon_workers`; `1` is the
//!   paper prototype's single-threaded event loop), and its staged I/O
//!   engine streams each batched RPC in chunks so host file I/O overlaps
//!   the in-flight DMA (`GpufsConfig::io_chunk_pages`; `0` is the
//!   serialized engine).
//! * **Consistency layer** — generation-based lazy invalidation against
//!   the WRAPFS-like registry in [`hostfs`].
//! * **Cluster layer** — [`cluster`]: a [`GpuFleet`] of N mounts over
//!   one shared host FS and registry (the paper's §6 multi-GPU
//!   experiments), with a work-distribution scheduler ([`WorkQueue`]:
//!   static sharding or work stealing) and fleet-level close-to-open
//!   auditing/stress machinery.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use gpusim::{Gpu, GpuSpec, Grid};
//! use hostfs::{HostFs, HostFsConfig};
//! use gpufs::{GOpenMode, GpufsConfig, GpufsHost};
//!
//! // Host setup: file system, one GPU, the GPUfs daemon, one mount.
//! let fs = Arc::new(HostFs::new(HostFsConfig::default()));
//! fs.create("/input", b"hello from the host").unwrap();
//! let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
//! let host = GpufsHost::new(Arc::clone(&fs), vec![Arc::clone(&gpu)]);
//! let mount = host.mount(0, GpufsConfig::small_test()).unwrap();
//!
//! // A self-contained GPU kernel reads the file — no CPU-side
//! // application code beyond the launch itself.
//! gpu.launch(Grid::new(1, 32), 0, |blk| {
//!     let fd = mount.open(blk, "/input", GOpenMode::ReadOnly).unwrap();
//!     let mut buf = [0u8; 32];
//!     let n = mount.read(blk, &fd, 0, &mut buf).unwrap();
//!     assert_eq!(&buf[..n], b"hello from the host");
//!     mount.close(blk, fd).unwrap();
//! });
//! ```

#[cfg(test)]
mod allocations;
mod api;
mod backoff;
pub mod cache;
pub mod cluster;
mod config;
mod daemon;
mod error;
mod mount;
mod ofile;
pub mod remote;
pub mod rpc;
mod table;
#[cfg(test)]
pub(crate) mod testrig;

pub use api::{GFd, GMap, GStat};
pub use cluster::{
    CoherenceOp, FileCoherence, FleetBuilder, FleetView, GpuFleet, HostFleet, HostFleetBuilder,
    ScheduleReport, ShardStrategy, WorkItem, WorkQueue,
};
pub use config::{GOpenMode, GpufsConfig, LANE_STRIPES};
pub use daemon::{DaemonStats, GpufsHost};
pub use error::{GpufsError, GpufsResult};
pub use mount::GpuFsMount;
pub use remote::{HostCacheStats, HostPageCache, HostProxy, ServerStats, StorageServer, WireStats};
pub use table::{GFile, Tables};
