//! A discrete-GPU execution model.
//!
//! This crate stands in for the NVIDIA Fermi GPUs (TESLA C2075) of the
//! GPUfs paper. It reproduces the *execution-model* properties that GPUfs's
//! design responds to (paper §2):
//!
//! * **Threadblock scheduling is non-preemptive and nondeterministic.**
//!   A kernel's threadblocks are dispatched onto multiprocessor (MP) slots
//!   in shuffled order; once running, a block occupies its slot until it
//!   finishes. Blocks are backed by real OS threads, so synchronization
//!   between concurrently running blocks (spinlocks, lock-free structures,
//!   reference counts) is exercised under genuine races.
//! * **Global memory is a shared arena** ([`Gpu::global`]) with an
//!   allocator; per-block **scratchpad** memory models the on-die shared
//!   memory used by the paper's `gread`-into-scratchpad workloads.
//! * **Data movement costs virtual time.** Each GPU owns full-duplex DMA
//!   engines over a modeled PCIe link ([`Gpu::dma`]); pinned host buffers
//!   ([`HostPinned`]) register with a [`simtime::ByteLedger`] so they exert
//!   the host-memory pressure behind Figure 8's disk-bound regime.
//!
//! The simulator does not interpret SIMT instructions. Within a block,
//! application "threads" run as a sequential loop ([`BlockCtx::threads`])
//! for correctness, and compute/memory time is charged explicitly through
//! the block's virtual clock. What runs truly concurrently — and what
//! GPUfs's data structures must survive — are the threadblocks themselves.
//!
//! # Example: launch a kernel that fills an array
//!
//! ```
//! use gpusim::{Gpu, GpuSpec, Grid};
//!
//! let gpu = Gpu::new(0, GpuSpec::small_test());
//! let buf = gpu.global().alloc(1024).unwrap();
//! let result = gpu.launch(Grid::new(4, 32), 0, |blk| {
//!     let chunk = 1024 / blk.grid().blocks;
//!     let off = blk.block_id() * chunk;
//!     let data = vec![blk.block_id() as u8; chunk];
//!     blk.gpu().global().write(buf + off, &data);
//! });
//! assert!(result.end > 0);
//! let mut out = vec![0u8; 1024];
//! gpu.global().read(buf, &mut out);
//! assert_eq!(out[0], 0);
//! assert_eq!(out[1023], 3);
//! ```

mod dma;
mod launch;
mod mem;
mod pinned;
mod spec;

pub use dma::DmaEngines;
pub use launch::{BlockCtx, Grid, KernelResult, WarpCtx};
pub use mem::{DevPtr, GlobalMem, MemError};
pub use pinned::HostPinned;
pub use spec::GpuSpec;

use simtime::Timings;

/// Identifier of one GPU in a multi-GPU system.
pub type GpuId = usize;

/// One simulated discrete GPU: spec, global memory, and its PCIe DMA link.
#[derive(Debug)]
pub struct Gpu {
    id: GpuId,
    spec: GpuSpec,
    global: GlobalMem,
    dma: DmaEngines,
}

impl Gpu {
    /// Create a GPU with the platform-default [`Timings`].
    #[must_use]
    pub fn new(id: GpuId, spec: GpuSpec) -> Self {
        Self::with_timings(id, spec, &Timings::default())
    }

    /// Create a GPU whose DMA link is calibrated from `timings`.
    #[must_use]
    pub fn with_timings(id: GpuId, spec: GpuSpec, timings: &Timings) -> Self {
        let global = GlobalMem::new(spec.memory_bytes);
        let dma = DmaEngines::from_timings(timings);
        Self {
            id,
            spec,
            global,
            dma,
        }
    }

    /// This GPU's identifier.
    #[must_use]
    pub fn id(&self) -> GpuId {
        self.id
    }

    /// Hardware description.
    #[must_use]
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The GPU's global memory.
    #[must_use]
    pub fn global(&self) -> &GlobalMem {
        &self.global
    }

    /// The GPU's PCIe DMA engines.
    #[must_use]
    pub fn dma(&self) -> &DmaEngines {
        &self.dma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four GPUs built the way a fleet builds them keep their positional ids.
    #[test]
    fn cluster_of_four() {
        let gpus: Vec<Gpu> = (0..4)
            .map(|id| Gpu::with_timings(id, GpuSpec::small_test(), &Timings::default()))
            .collect();
        assert_eq!(gpus.len(), 4);
        for (i, gpu) in gpus.iter().enumerate() {
            assert_eq!(gpu.id(), i);
        }
    }

    /// Each GPU's DMA link is calibrated from its own timings, not a shared one.
    #[test]
    fn heterogeneous_cluster_keeps_per_gpu_timings() {
        let slow = Timings {
            pcie_mb_s: 2000.0,
            ..Timings::default()
        };
        let gpus = [
            Gpu::with_timings(0, GpuSpec::small_test(), &Timings::default()),
            Gpu::with_timings(1, GpuSpec::small_test(), &slow),
        ];
        assert_eq!(gpus[0].timings().pcie_mb_s, 5731.0);
        assert_eq!(gpus[1].timings().pcie_mb_s, 2000.0);
    }
}
