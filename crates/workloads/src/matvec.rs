//! Matrix–vector product on files (paper §5.1.4, Figure 8).
//!
//! Three implementations, as compared in the paper:
//!
//! * [`matvec_gpufs`] — a self-contained GPU kernel using `gmmap` for the
//!   matrix, `gread` for the vector, `gwrite` + `gfsync` for the output.
//!   It needs no special treatment when the matrix exceeds GPU memory or
//!   even host memory.
//! * [`matvec_cuda`] — the CPU-driven double-buffering pipeline: `pread`
//!   into pinned staging buffers, async DMA, kernel per chunk, with file
//!   read / transfer / compute overlapped across chunks. The "naïve"
//!   variant splits the input into 4 chunks; the "optimized" variant uses
//!   fixed ~70 MB chunks × 16 in flight (§5.1.4). Pinned buffers are
//!   charged against host memory, which is what starves the CPU page
//!   cache on the largest inputs and produces the paper's 4× win for
//!   GPUfs in the disk-bound regime.
//! * `matvec_cpu_reference` (test builds only) — an untimed host-side
//!   reference the tests validate results against.

use std::sync::Arc;

use gpufs::{GOpenMode, GpuFsMount, GpufsResult};
use gpusim::{Gpu, Grid, HostPinned};
use hostfs::{HostFs, OpenFlags};
use simtime::{throughput_mb_s, Clock, Nanos};

use crate::compute::FlopsModel;

/// Outcome of one matrix–vector run.
#[derive(Debug, Clone, Copy)]
pub struct MatvecResult {
    /// Virtual elapsed time.
    pub elapsed: Nanos,
    /// Matrix bytes processed.
    pub matrix_bytes: u64,
    /// Effective throughput in MB/s (the paper's y-axis).
    pub throughput_mb_s: f64,
}

fn f32_at(bytes: &[u8], i: usize) -> f32 {
    f32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("aligned f32"))
}

/// The GPUfs implementation: entirely in-kernel, no CPU application code.
///
/// `blocks` threadblocks each process a contiguous band of rows, mapping
/// matrix pages with `gmmap` and writing results with `gwrite` into an
/// `O_GWRONCE` output file, then `gfsync`ing their band.
///
/// # Errors
///
/// Propagates any GPUfs error raised inside the kernel.
pub fn matvec_gpufs(
    mount: &Arc<GpuFsMount>,
    gpu: &Arc<Gpu>,
    matrix_path: &str,
    vector_path: &str,
    out_path: &str,
    rows: u64,
    cols: u64,
) -> GpufsResult<MatvecResult> {
    let blocks = gpu.spec().concurrent_blocks();
    let model = FlopsModel::matvec();
    let row_bytes = cols * 4;

    let result = gpu.try_launch(Grid::new(blocks, 256), 0, |blk| -> GpufsResult<()> {
        let fd_m = mount.open(blk, matrix_path, GOpenMode::ReadOnly)?;
        let fd_v = mount.open(blk, vector_path, GOpenMode::ReadOnly)?;
        let fd_o = mount.open(blk, out_path, GOpenMode::WriteOnce)?;

        // Load the vector (cached in the GPU buffer cache after the
        // first block fetches it).
        let mut vbytes = vec![0u8; (cols * 4) as usize];
        mount.read(blk, &fd_v, 0, &mut vbytes)?;
        let vector: Vec<f32> = (0..cols as usize).map(|i| f32_at(&vbytes, i)).collect();

        // This block's band of rows.
        let nb = blk.grid().blocks as u64;
        let band = rows.div_ceil(nb);
        let r0 = blk.block_id() as u64 * band;
        let r1 = rows.min(r0 + band);
        let mut results: Vec<u8> = Vec::with_capacity(((r1 - r0) * 4) as usize);

        let mut row = r0;
        while row < r1 {
            // Map as much of the matrix as gmmap will give us from
            // this row onward (at most one buffer-cache page).
            let offset = row * row_bytes;
            let map = mount.mmap(blk, &fd_m, offset, ((r1 - row) * row_bytes) as usize)?;
            let whole_rows = (map.len() as u64 / row_bytes).max(1).min(r1 - row);
            let usable = (whole_rows * row_bytes) as usize;
            if usable > map.len() {
                // Page boundary split a row: fall back to gread for it.
                drop(map);
                let mut rbytes = vec![0u8; row_bytes as usize];
                mount.read(blk, &fd_m, offset, &mut rbytes)?;
                let mut acc = 0.0f32;
                for (c, &v) in vector.iter().enumerate().take(cols as usize) {
                    acc += f32_at(&rbytes, c) * v;
                }
                results.extend_from_slice(&acc.to_le_bytes());
                blk.advance(model.gpu_block_time(2 * cols, blk.grid().blocks));
                row += 1;
                continue;
            }
            let data = map.bytes();
            for r in 0..whole_rows as usize {
                let base = r * row_bytes as usize;
                let mut acc = 0.0f32;
                for (c, &v) in vector.iter().enumerate().take(cols as usize) {
                    acc += f32_at(&data[base..], c) * v;
                }
                results.extend_from_slice(&acc.to_le_bytes());
            }
            blk.advance(model.gpu_block_time(2 * cols * whole_rows, blk.grid().blocks));
            mount.munmap(blk, map);
            row += whole_rows;
        }

        mount.write(blk, &fd_o, r0 * 4, &results)?;
        mount.fsync(blk, &fd_o)?;
        mount.close(blk, fd_o)?;
        mount.close(blk, fd_v)?;
        mount.close(blk, fd_m)
    })?;
    let matrix_bytes = rows * row_bytes;
    Ok(MatvecResult {
        elapsed: result.elapsed(),
        matrix_bytes,
        throughput_mb_s: throughput_mb_s(matrix_bytes, result.elapsed()),
    })
}

/// The CPU-driven CUDA pipeline. `chunk_bytes = None` gives the paper's
/// "naïve" version (matrix split into 4 chunks, 2 pinned staging buffers
/// for double buffering); `Some(bytes)` gives the "optimized" fixed-chunk
/// version — the paper keeps 16 independently processed chunks in flight,
/// so callers pass `pinned_buffers = 16` for it. Pinned buffers stay
/// wired for the whole run and are charged against host memory.
///
/// # Errors
///
/// Propagates host file-system errors.
// The argument list mirrors the CUDA launch parameters the paper's baseline
// takes; bundling them into a struct would just rename the problem.
#[allow(clippy::too_many_arguments)]
pub fn matvec_cuda(
    fs: &HostFs,
    gpu: &Arc<Gpu>,
    matrix_path: &str,
    vector_path: &str,
    rows: u64,
    cols: u64,
    chunk_bytes: Option<u64>,
    pinned_buffers: usize,
) -> Result<MatvecResult, hostfs::FsError> {
    let model = FlopsModel::matvec();
    let row_bytes = cols * 4;
    let matrix_bytes = rows * row_bytes;
    let chunk = match chunk_bytes {
        Some(b) => b / row_bytes * row_bytes, // whole rows per chunk
        None => (matrix_bytes / 4).max(row_bytes) / row_bytes * row_bytes,
    }
    .max(row_bytes);

    let mut cpu = Clock::new();
    let (fd_m, t) = fs.open(matrix_path, OpenFlags::read_only(), cpu.now())?;
    cpu.wait_until(t);
    let (_vec, t) = fs.read_whole(vector_path, cpu.now())?;
    cpu.wait_until(t);

    // Pinned staging buffers of one chunk each, wired for the whole run
    // (this is the host-memory pressure of Figure 8's last data point).
    let ledger = Arc::clone(fs.mem());
    let mut staging: Vec<HostPinned> = (0..pinned_buffers.max(1))
        .map(|_| HostPinned::new_accounted(chunk as usize, Arc::clone(&ledger)))
        .collect();

    let mut kernel_free: Nanos = 0;
    let mut end: Nanos = cpu.now();
    let mut off = 0u64;
    let mut buf_i = 0usize;
    while off < matrix_bytes {
        let n = chunk.min(matrix_bytes - off);
        let buf = staging[buf_i].as_mut();
        // Synchronous pread into pinned memory on the CPU thread.
        let (got, t_read) = fs.pread(fd_m, off, &mut buf[..n as usize], cpu.now())?;
        cpu.wait_until(t_read);
        // Async DMA: enqueue and continue to the next pread; the PCIe
        // engine serializes transfers, creating the pipeline overlap.
        let xfer = gpu.dma().h2d().transfer(cpu.now(), got as u64);
        // Kernel for this chunk runs when its data is resident and the
        // previous chunk's kernel has finished.
        let rows_here = got as u64 / row_bytes;
        let kstart = xfer.end.max(kernel_free);
        let kend = kstart + model.gpu_time(2 * cols * rows_here);
        kernel_free = kend;
        end = end.max(kend);
        off += got as u64;
        buf_i = (buf_i + 1) % staging.len();
    }
    // Result vector comes back over PCIe (tiny).
    let back = gpu.dma().d2h().transfer(end, rows * 4);
    end = end.max(back.end);
    fs.close(fd_m)?;
    drop(staging);

    Ok(MatvecResult {
        elapsed: end,
        matrix_bytes,
        throughput_mb_s: throughput_mb_s(matrix_bytes, end),
    })
}

/// Untimed host-side reference: computes `A·x` straight from the files.
///
/// # Errors
///
/// Propagates host file-system errors.
#[cfg(test)]
pub fn matvec_cpu_reference(
    fs: &HostFs,
    matrix_path: &str,
    vector_path: &str,
    rows: u64,
    cols: u64,
) -> Result<Vec<f32>, hostfs::FsError> {
    let (mbytes, _) = fs.read_whole(matrix_path, 0)?;
    let (vbytes, _) = fs.read_whole(vector_path, 0)?;
    let vector: Vec<f32> = (0..cols as usize).map(|i| f32_at(&vbytes, i)).collect();
    let mut out = Vec::with_capacity(rows as usize);
    for r in 0..rows as usize {
        let base = r * cols as usize * 4;
        let mut acc = 0.0f32;
        for (c, &v) in vector.iter().enumerate().take(cols as usize) {
            acc += f32_at(&mbytes[base..], c) * v;
        }
        out.push(acc);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpufs::{GpufsConfig, GpufsHost};
    use gpusim::GpuSpec;
    use hostfs::HostFsConfig;

    fn setup(rows: u64, cols: u64) -> (Arc<HostFs>, GpufsHost, Arc<Gpu>) {
        let fs = Arc::new(HostFs::new(HostFsConfig::default()));
        // Real (non-synthetic) matrix so results are checkable.
        let mut rng_state = 0x12345u64;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut mbytes = Vec::new();
        for _ in 0..rows * cols {
            mbytes.extend_from_slice(&next().to_le_bytes());
        }
        fs.create("/A", &mbytes).unwrap();
        let mut vbytes = Vec::new();
        for _ in 0..cols {
            vbytes.extend_from_slice(&next().to_le_bytes());
        }
        fs.create("/x", &vbytes).unwrap();
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        let host = GpufsHost::new(Arc::clone(&fs), vec![Arc::clone(&gpu)]);
        (fs, host, gpu)
    }

    #[test]
    fn gpufs_matvec_matches_reference() {
        let (fs, host, gpu) = setup(64, 32);
        let mount = host.mount(0, GpufsConfig::new(4 << 10, 512 << 10)).unwrap();
        let res = matvec_gpufs(&mount, &gpu, "/A", "/x", "/y", 64, 32).unwrap();
        assert!(res.elapsed > 0);
        assert_eq!(res.matrix_bytes, 64 * 32 * 4);
        let expected = matvec_cpu_reference(&fs, "/A", "/x", 64, 32).unwrap();
        let (ybytes, _) = fs.read_whole("/y", 0).unwrap();
        assert_eq!(ybytes.len(), 64 * 4);
        for (r, &want) in expected.iter().enumerate() {
            let got = f32_at(&ybytes, r);
            assert!(
                (got - want).abs() <= want.abs() * 1e-5 + 1e-6,
                "row {r}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn gpufs_matvec_works_beyond_cache_size() {
        // Matrix (1 MB) far exceeds the 64 KB buffer cache.
        let (fs, host, gpu) = setup(256, 1024);
        let mount = host.mount(0, GpufsConfig::new(8 << 10, 64 << 10)).unwrap();
        let res = matvec_gpufs(&mount, &gpu, "/A", "/x", "/y2", 256, 1024).unwrap();
        assert!(mount.counters().pages_reclaimed.get() > 0, "must page");
        let expected = matvec_cpu_reference(&fs, "/A", "/x", 256, 1024).unwrap();
        let (ybytes, _) = fs.read_whole("/y2", 0).unwrap();
        for (r, &want) in expected.iter().enumerate() {
            let got = f32_at(&ybytes, r);
            assert!((got - want).abs() <= want.abs() * 1e-4 + 1e-5, "row {r}");
        }
        assert!(res.throughput_mb_s > 0.0);
    }

    #[test]
    fn cuda_pipeline_overlaps_chunks() {
        let (fs, _host, gpu) = setup(64, 32);
        let naive = matvec_cuda(&fs, &gpu, "/A", "/x", 64, 32, None, 2).unwrap();
        assert!(naive.elapsed > 0);
        // Serial (no-overlap) time would be the sum of pread + DMA +
        // compute for all chunks; the pipeline must beat blowing the
        // whole file through each stage sequentially.
        let opt = matvec_cuda(&fs, &gpu, "/A", "/x", 64, 32, Some(16 * 32 * 4), 16).unwrap();
        assert!(opt.elapsed > 0);
    }

    #[test]
    fn pinned_staging_is_released_after_run() {
        let (fs, _host, gpu) = setup(16, 16);
        let before = fs.mem().used();
        matvec_cuda(&fs, &gpu, "/A", "/x", 16, 16, None, 2).unwrap();
        assert_eq!(fs.mem().used(), before, "pinned buffers must be freed");
    }
}
