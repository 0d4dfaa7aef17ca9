//! Quickstart: a self-contained GPU kernel that reads, transforms, and
//! writes host files through GPUfs — no CPU-side application code beyond
//! the kernel launch, the paper's headline programming-model win.
//!
//! RPC audit: the example prints the live read/write round-trip
//! counters. Measured (4 blocks, 4 KB pages): the shared 32-byte input
//! costs **2 page faults but only 1 `ReadPages` RPC** — all four blocks
//! coalesce onto one descriptor and one fetched page, and the
//! `O_GWRONCE` output page is the second fault, zero-filled with no host
//! traffic. The write side is an honest null for batching: **4 dirty
//! pages ship in 4 `WritePages` RPCs** (before/after equal), because
//! each block's own `gfsync` finds exactly the one shared output page
//! its write just re-dirtied — a batch of one per sync, the same cost as
//! per-page write-back. Multi-page dirty sets are where batching wins;
//! the benchmark's `write_back` workload measures that
//! (`cache.pages_per_write_rpc` in its `--trace 1` sheet).
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use gpufs::{GOpenMode, GpufsConfig, GpufsHost};
use gpusim::{Gpu, GpuSpec, Grid};
use hostfs::{HostFs, HostFsConfig};

fn main() {
    // ---- Host setup: a file system, one GPU, the GPUfs daemon. --------
    let fs = Arc::new(HostFs::new(HostFsConfig::default()));
    fs.create("/input.txt", b"GPUs deserve a file system too.\n")
        .expect("create input");
    let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
    let host = GpufsHost::new(Arc::clone(&fs), vec![Arc::clone(&gpu)]);
    let mount = host
        .mount(0, GpufsConfig::small_test())
        .expect("mount gpufs");

    // ---- The entire application: one GPU kernel. ----------------------
    // Four threadblocks each read the input and write an uppercased copy
    // of one slice into a shared write-once output file.
    let input_len = fs.stat("/input.txt").expect("stat").size as usize;
    let result = gpu.launch(Grid::new(4, 32), 0, |blk| {
        let fd_in = mount.open(blk, "/input.txt", GOpenMode::ReadOnly).unwrap();
        let fd_out = mount
            .open(blk, "/output.txt", GOpenMode::WriteOnce)
            .unwrap();

        let nb = blk.grid().blocks;
        let span = input_len.div_ceil(nb);
        let off = blk.block_id() * span;
        let len = span.min(input_len.saturating_sub(off));
        if len > 0 {
            let mut buf = vec![0u8; len];
            let n = mount.read(blk, &fd_in, off as u64, &mut buf).unwrap();
            for b in &mut buf[..n] {
                b.make_ascii_uppercase();
            }
            mount.write(blk, &fd_out, off as u64, &buf[..n]).unwrap();
        }
        // gclose does not write back; gfsync propagates this block's
        // dirty pages to the host (decoupled close/sync, paper §3.2).
        mount.fsync(blk, &fd_out).unwrap();
        mount.close(blk, fd_out).unwrap();
        mount.close(blk, fd_in).unwrap();
    });

    // ---- Back on the host: the file is just... there. ------------------
    let (out, _) = fs
        .read_whole("/output.txt", result.end)
        .expect("read output");
    println!(
        "GPU kernel finished in {:.1} us of device time",
        result.elapsed() as f64 / 1e3
    );
    println!("host sees: {}", String::from_utf8_lossy(&out).trim_end());
    assert_eq!(out, b"GPUS DESERVE A FILE SYSTEM TOO.\n");
    println!(
        "buffer cache: {} misses, {} lock-free hits",
        mount.counters().misses.get(),
        mount.counters().lockfree_accesses.get()
    );
    // RPC audit: four blocks share one input page (one fault, one
    // ReadPages round-trip — open coalescing and the shared buffer cache
    // at work) and co-produce one output page, each syncing it once.
    let c = mount.counters();
    println!(
        "read path:  {} page fault(s), {} ReadPages RPC(s) \
         (the O_GWRONCE output page zero-fills with no host traffic)",
        c.misses.get(),
        c.read_rpcs.get(),
    );
    println!(
        "write path: {} dirty page(s) shipped in {} WritePages RPC(s) \
         (per-page write-back would have issued {})",
        c.pages_per_write_rpc.get(),
        c.write_rpcs.get(),
        c.writebacks.get(),
    );
}
