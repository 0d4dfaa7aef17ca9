//! Figure 4: sequential read throughput as a function of page size.
//!
//! A 1.8 GB file (scaled) is read three ways with a warm host page cache:
//! (a) from the GPU kernel via GPUfs (`gmmap` of consecutive pages) — at
//! readahead window 1 on the paper prototype's daemon (strictly on-demand
//! paging, one DMA per RPC: the paper's curve) and at window 8 on the
//! default engine (batched multi-page RPC), (b) a hand-written CUDA pipeline
//! moving chunks the size of a GPUfs page through pinned staging buffers,
//! and (c) one whole-file read plus one (pageable-memory) transfer. The
//! red reference line is the maximum achievable PCIe bandwidth,
//! 5731 MB/s.

use std::sync::Arc;

use gpufs::GpufsConfig;
use gpufs_bench::{banner, fig4_gpufs_phase, human_size, rig, PAGE_SIZES, SCALE};
use gpusim::HostPinned;
use hostfs::OpenFlags;
use simtime::{bw_time_ns, throughput_mb_s, Clock, Timings};

/// Paper file: 1.8 GB.
const FILE_BYTES: u64 = (1800 << 20) / SCALE;
const FILE_PATH: &str = "/seq.bin";

fn cuda_pipeline_phase(page: usize) -> f64 {
    let t = Timings::default();
    let r = rig(1, 64 << 20, 8 << 30, &t);
    r.fs.create_synthetic(FILE_PATH, FILE_BYTES, 4).unwrap();
    let _ = r.fs.read_whole(FILE_PATH, 0).unwrap();
    r.fs.reset_device_time();

    let mut cpu = Clock::new();
    let (fd, topen) = r.fs.open(FILE_PATH, OpenFlags::read_only(), 0).unwrap();
    cpu.wait_until(topen);
    // Two pinned staging buffers: pread chunk, enqueue async DMA, move on.
    let mut staging = [
        HostPinned::new_accounted(page, Arc::clone(r.fs.mem())),
        HostPinned::new_accounted(page, Arc::clone(r.fs.mem())),
    ];
    let mut end = cpu.now();
    let mut off = 0u64;
    let mut i = 0usize;
    while off < FILE_BYTES {
        let n = (page as u64).min(FILE_BYTES - off) as usize;
        let (got, tr) =
            r.fs.pread(fd, off, &mut staging[i].as_mut()[..n], cpu.now())
                .unwrap();
        cpu.wait_until(tr);
        let xfer = r.gpus[0].dma().h2d().transfer(cpu.now(), got as u64);
        end = end.max(xfer.end);
        off += got as u64;
        i ^= 1;
    }
    r.fs.close(fd).unwrap();
    throughput_mb_s(FILE_BYTES, end)
}

fn whole_file_phase() -> f64 {
    let t = Timings::default();
    let r = rig(1, 64 << 20, 8 << 30, &t);
    r.fs.create_synthetic(FILE_PATH, FILE_BYTES, 4).unwrap();
    let _ = r.fs.read_whole(FILE_PATH, 0).unwrap();
    r.fs.reset_device_time();

    let mut cpu = Clock::new();
    let (_data, tr) = r.fs.read_whole(FILE_PATH, cpu.now()).unwrap();
    cpu.wait_until(tr);
    // One cudaMemcpy from pageable memory: no overlap with the read, and
    // the staging copy limits effective bandwidth.
    let end = cpu.now() + bw_time_ns(FILE_BYTES, t.pcie_pageable_mb_s);
    throughput_mb_s(FILE_BYTES, end)
}

fn main() {
    banner(
        "Figure 4 — sequential read throughput vs page size",
        &format!(
            "file = {} MB (paper: 1800 MB, scale 1/{SCALE}), warm host cache, 28 threadblocks\n\
             paper reference points: GPUfs ~500 MB/s @16K rising to ~5400 MB/s @16M;\n\
             whole-file transfer 2100 MB/s; max PCIe 5731 MB/s.\n\
             readahead axis: w=1 reproduces the paper's on-demand paging on the prototype's\n\
             daemon (io_chunk_pages = 0: every fault its own DMA transaction); w=8 batches\n\
             8 pages per RPC on the default engine (one round-trip, setups shared on the ring)",
            FILE_BYTES >> 20
        ),
    );
    let whole = whole_file_phase();
    println!(
        "{:>10} {:>16} {:>16} {:>16} {:>20}",
        "page", "GPUfs w=1 (MB/s)", "GPUfs w=8 (MB/s)", "pipeline (MB/s)", "whole-file (MB/s)"
    );
    let engine = GpufsConfig::default().io_chunk_pages;
    for &page in PAGE_SIZES {
        let gpufs_w1 = fig4_gpufs_phase(FILE_BYTES, page, 1, 0);
        let gpufs_w8 = fig4_gpufs_phase(FILE_BYTES, page, 8, engine);
        let pipeline = cuda_pipeline_phase(page);
        println!(
            "{:>10} {:>16.0} {:>16.0} {:>16.0} {:>20.0}",
            human_size(page as u64),
            gpufs_w1,
            gpufs_w8,
            pipeline,
            whole
        );
    }
    println!(
        "\nmax PCIe bandwidth line: {:.0} MB/s",
        Timings::default().pcie_mb_s
    );
}
