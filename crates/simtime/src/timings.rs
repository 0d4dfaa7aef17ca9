//! Device timing calibration.
//!
//! Default values reproduce the evaluation platform of the paper (§5): a
//! SuperMicro server with PCIe 2.0 (5731 MB/s effective, the red line in
//! Figure 4), NVIDIA TESLA C2075 GPUs (GDDR5), and a 500 GB 7200 RPM disk
//! measuring 6600 MB/s cached and 132 MB/s raw reads under `hdparm`.

use crate::Nanos;

/// Calibrated timing constants for the simulated platform.
///
/// Benchmarks that need a component "excluded" (Figure 5 removes DMA time
/// and/or CPU file I/O time) build a modified copy with the relevant costs
/// zeroed via [`Timings::without_dma`] / [`Timings::without_host_io`].
#[derive(Debug, Clone, PartialEq)]
pub struct Timings {
    /// Effective PCIe bandwidth per direction for pinned-memory DMA, MB/s
    /// (paper: 5731 MB/s).
    pub pcie_mb_s: f64,
    /// Effective PCIe bandwidth when the source is pageable host memory
    /// (the driver staging copy roughly halves throughput; this is what
    /// limits the paper's 2100 MB/s whole-file-transfer baseline).
    pub pcie_pageable_mb_s: f64,
    /// Per-DMA-transaction setup cost (driver + doorbell + descriptor).
    pub dma_setup_ns: Nanos,
    /// CPU-side cost of submitting one *continuation chunk* of an
    /// already-set-up scatter-gather transaction (append descriptors +
    /// ring the doorbell — no driver mapping, so far cheaper than
    /// [`Timings::dma_setup_ns`]). Charged to the daemon worker's clock
    /// per extra chunk when a batched RPC is streamed through the
    /// pipelined I/O engine.
    pub dma_chunk_ns: Nanos,
    /// Host page-cache streaming read bandwidth, MB/s (paper: 6600 MB/s).
    pub host_cached_mb_s: f64,
    /// Raw disk streaming bandwidth, MB/s (paper: 132 MB/s).
    pub disk_mb_s: f64,
    /// Disk seek + rotational latency per discontiguous access.
    pub disk_seek_ns: Nanos,
    /// Host per-syscall overhead for pread/pwrite (enter + find page).
    pub host_syscall_ns: Nanos,
    /// GPU global-memory bandwidth, MB/s (GDDR5 on the C2075: ~144 GB/s).
    pub gpu_mem_mb_s: f64,
    /// Host DRAM copy bandwidth, MB/s.
    pub host_mem_mb_s: f64,
    /// One-way latency for the GPU to post an RPC slot and the polling CPU
    /// daemon to notice it over write-shared memory.
    pub rpc_poll_ns: Nanos,
    /// One-way latency for the CPU daemon's completion write to become
    /// visible to the spinning GPU threadblock.
    pub rpc_complete_ns: Nanos,
    /// Fixed CPU-side cost to decode and dispatch one RPC request.
    pub rpc_dispatch_ns: Nanos,
    /// GPUfs library software cost per buffer-cache page operation on the
    /// GPU (radix lookup, fpage init, refcounting), charged per page.
    pub gpufs_page_op_ns: Nanos,
    /// GPUfs cost of a *warm* lock-free lookup hit (seqlock reads +
    /// refcount), much cheaper than a full page operation.
    pub gpufs_hit_ns: Nanos,
    /// GDDR access latency charged once per coalesced block copy, on both
    /// GPUfs reads and raw-memory baselines (Figure 7 normalization).
    pub gpu_mem_latency_ns: Nanos,
    /// Time the locked (non-lock-free) radix traversal holds the tree
    /// lock per access; the locked variant of Figure 7 serializes on it.
    pub radix_lock_hold_ns: Nanos,
    /// Cost of one GPU kernel launch as seen from the host.
    pub kernel_launch_ns: Nanos,
    /// Round-trip latency of one host↔storage-server network exchange
    /// (request on the wire to response on the wire, excluding
    /// serialization time, which the bandwidth terms cover). Modeled the
    /// way PCIe setup cost is: a fixed per-exchange charge split evenly
    /// across the two directions. Default approximates a switched
    /// datacenter link (~30 µs RTT).
    pub net_rtt_ns: Nanos,
    /// Per-direction bandwidth of the host↔storage-server link, MB/s.
    /// Default approximates 100 GbE payload throughput. As with every
    /// other bandwidth knob, `0.0` means the transfer is free
    /// ([`crate::bw_time_ns`] returns 0) — the exclusion convention
    /// [`Timings::without_net`] relies on.
    pub net_mb_s: f64,
}

impl Default for Timings {
    fn default() -> Self {
        Self {
            pcie_mb_s: 5731.0,
            pcie_pageable_mb_s: 3100.0,
            dma_setup_ns: 25_000,
            dma_chunk_ns: 2_000,
            host_cached_mb_s: 6600.0,
            disk_mb_s: 132.0,
            disk_seek_ns: 8_000_000,
            host_syscall_ns: 2_500,
            gpu_mem_mb_s: 144_000.0,
            host_mem_mb_s: 20_000.0,
            rpc_poll_ns: 4_000,
            rpc_complete_ns: 3_000,
            rpc_dispatch_ns: 1_000,
            gpufs_page_op_ns: 3_500,
            gpufs_hit_ns: 150,
            gpu_mem_latency_ns: 600,
            radix_lock_hold_ns: 60,
            kernel_launch_ns: 7_000,
            net_rtt_ns: 30_000,
            net_mb_s: 11_600.0,
        }
    }
}

impl Timings {
    /// Platform defaults matching the paper's testbed.
    #[must_use]
    pub fn paper_platform() -> Self {
        Self::default()
    }

    /// Copy with all PCIe DMA costs removed (Figure 5, "CPU DMA excluded").
    #[must_use]
    pub fn without_dma(&self) -> Self {
        Self {
            pcie_mb_s: 0.0,
            pcie_pageable_mb_s: 0.0,
            dma_setup_ns: 0,
            dma_chunk_ns: 0,
            ..self.clone()
        }
    }

    /// Copy with all host file I/O costs removed (Figure 5, "CPU file I/O
    /// excluded"): page-cache reads, disk, and syscall overhead are free.
    #[must_use]
    pub fn without_host_io(&self) -> Self {
        Self {
            host_cached_mb_s: 0.0,
            disk_mb_s: 0.0,
            disk_seek_ns: 0,
            host_syscall_ns: 0,
            ..self.clone()
        }
    }

    /// Copy with both DMA and host file I/O removed (Figure 5, rightmost
    /// series): what remains is RPC traffic plus GPUfs buffer-cache code.
    #[must_use]
    pub fn rpc_and_cache_only(&self) -> Self {
        self.without_dma().without_host_io()
    }

    /// Copy with the host↔storage network made free: zero round-trip
    /// latency and free transfers. A proxy-backed daemon under this copy
    /// must time identically to a daemon holding the file system
    /// directly.
    #[must_use]
    pub fn without_net(&self) -> Self {
        Self {
            net_rtt_ns: 0,
            net_mb_s: 0.0,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bw_time_ns;

    #[test]
    fn defaults_match_paper_measurements() {
        let t = Timings::paper_platform();
        assert_eq!(t.pcie_mb_s, 5731.0);
        assert_eq!(t.host_cached_mb_s, 6600.0);
        assert_eq!(t.disk_mb_s, 132.0);
    }

    #[test]
    fn exclusion_copies_zero_the_right_components() {
        let t = Timings::default();
        let no_dma = t.without_dma();
        assert_eq!(no_dma.pcie_mb_s, 0.0);
        assert_eq!(no_dma.dma_setup_ns, 0);
        assert_eq!(no_dma.dma_chunk_ns, 0);
        // Host I/O untouched.
        assert_eq!(no_dma.host_cached_mb_s, t.host_cached_mb_s);

        let no_io = t.without_host_io();
        assert_eq!(no_io.disk_mb_s, 0.0);
        assert_eq!(no_io.host_syscall_ns, 0);
        assert_eq!(no_io.pcie_mb_s, t.pcie_mb_s);

        let bare = t.rpc_and_cache_only();
        assert_eq!(bare.pcie_mb_s, 0.0);
        assert_eq!(bare.disk_mb_s, 0.0);
        // RPC and GPUfs software costs always remain.
        assert!(bare.rpc_poll_ns > 0);
        assert!(bare.gpufs_page_op_ns > 0);

        let no_net = t.without_net();
        assert_eq!(no_net.net_rtt_ns, 0);
        assert_eq!(no_net.net_mb_s, 0.0);
        // Everything host-local untouched.
        assert_eq!(no_net.pcie_mb_s, t.pcie_mb_s);
        assert_eq!(no_net.host_cached_mb_s, t.host_cached_mb_s);
    }

    #[test]
    fn zeroed_bandwidth_means_free_transfer() {
        let t = Timings::default().without_dma();
        assert_eq!(bw_time_ns(1 << 30, t.pcie_mb_s), 0);
    }
}
