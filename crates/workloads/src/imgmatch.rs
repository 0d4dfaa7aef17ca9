//! Approximate image matching against prioritized databases
//! (paper §5.2.1, Tables 2 and 3).
//!
//! Query images are matched against several databases that must be
//! scanned in a fixed priority order; only the first match counts. Which
//! database pages are needed depends on earlier results, which is exactly
//! the dynamic, data-dependent working set that is painful without GPUfs:
//! the GPUfs kernel simply `gread`s database images into scratchpad
//! memory and stops as soon as its queries are satisfied.
//!
//! The match metric is Euclidean distance under a threshold; the
//! generator plants byte-exact copies (distance 0), and non-planted
//! images are offset so they can never match (see [`crate::corpus`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpufs::{GOpenMode, GpuFsMount, GpufsResult};
use gpusim::{Gpu, Grid};
use hostfs::HostFs;
use simtime::Nanos;

use crate::compute::FlopsModel;
use crate::corpus::ImageDataset;
use crate::cpu::CpuExecutor;

/// Packed "no match" sentinel in the results array.
pub(crate) const NO_MATCH: u64 = u64::MAX;

/// Outcome of one image-matching run.
#[derive(Debug, Clone)]
pub struct ImgMatchResult {
    /// Virtual elapsed time (slowest GPU / core).
    pub elapsed: Nanos,
    /// Per query: `(db, slot)` of the first match, in priority order.
    pub matches: Vec<Option<(usize, usize)>>,
    /// Number of queries that found a match.
    pub queries_matched: usize,
}

pub(crate) fn unpack(v: u64) -> Option<(usize, usize)> {
    if v == NO_MATCH {
        None
    } else {
        Some(((v >> 32) as usize, (v & 0xffff_ffff) as usize))
    }
}

pub(crate) fn pack(db: usize, slot: usize) -> u64 {
    ((db as u64) << 32) | slot as u64
}

/// Squared Euclidean distance with a cheap first-element reject: the
/// generator separates non-matching images by ≥1.0 in every element, so
/// one subtraction usually suffices. The *time model* still charges the
/// full scan — real hardware computes all elements in parallel lanes.
pub(crate) fn matches_query(img: &[f32], query: &[f32], threshold_sq: f32) -> bool {
    let d0 = img[0] - query[0];
    if d0 * d0 > threshold_sq {
        return false;
    }
    let mut acc = 0.0f32;
    for (a, b) in img.iter().zip(query) {
        let d = a - b;
        acc += d * d;
        if acc > threshold_sq {
            return false;
        }
    }
    true
}

pub(crate) fn f32_slice(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

/// The GPUfs implementation across one or more GPUs (Table 3 splits the
/// query list equally among up to 4 GPUs).
///
/// # Errors
///
/// Propagates GPUfs errors raised inside any kernel.
///
/// # Panics
///
/// Panics if `mounts` and `gpus` lengths differ or are empty.
pub fn imgmatch_gpufs(
    mounts: &[Arc<GpuFsMount>],
    gpus: &[Arc<Gpu>],
    ds: &ImageDataset,
    threshold: f32,
) -> GpufsResult<ImgMatchResult> {
    assert_eq!(mounts.len(), gpus.len(), "one mount per GPU");
    assert!(!gpus.is_empty(), "need at least one GPU");
    let n_gpus = gpus.len();
    let per_gpu = ds.n_queries.div_ceil(n_gpus);
    let results: Vec<AtomicU64> = (0..ds.n_queries)
        .map(|_| AtomicU64::new(NO_MATCH))
        .collect();
    let failure: parking_lot::Mutex<Option<gpufs::GpufsError>> = parking_lot::Mutex::new(None);

    let ends: Vec<Nanos> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_gpus)
            .map(|g| {
                let mount = Arc::clone(&mounts[g]);
                let gpu = Arc::clone(&gpus[g]);
                let results = &results;
                let failure = &failure;
                s.spawn(move || {
                    let q0 = g * per_gpu;
                    let q1 = ds.n_queries.min(q0 + per_gpu);
                    if q0 >= q1 {
                        return 0;
                    }
                    let blocks = gpu.spec().concurrent_blocks();
                    let res = gpu.launch(Grid::new(blocks, 512), 0, |blk| {
                        let r = run_block(&mount, blk, ds, threshold, q0, q1, results);
                        if let Err(e) = r {
                            failure.lock().get_or_insert(e);
                        }
                    });
                    res.end
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gpu thread"))
            .collect()
    });
    if let Some(e) = failure.into_inner() {
        return Err(e);
    }
    let matches: Vec<Option<(usize, usize)>> = results
        .iter()
        .map(|r| unpack(r.load(Ordering::Relaxed)))
        .collect();
    let queries_matched = matches.iter().flatten().count();
    Ok(ImgMatchResult {
        elapsed: ends.into_iter().max().unwrap_or(0),
        matches,
        queries_matched,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_block(
    mount: &Arc<GpuFsMount>,
    blk: &mut gpusim::BlockCtx<'_>,
    ds: &ImageDataset,
    threshold: f32,
    q0: usize,
    q1: usize,
    results: &[AtomicU64],
) -> GpufsResult<()> {
    let model = FlopsModel::imgmatch();
    let dim = ds.dim;
    let ib = ds.image_bytes();
    let threshold_sq = threshold * threshold;

    // Static split of this GPU's queries across threadblocks.
    let nb = blk.grid().blocks;
    let span = (q1 - q0).div_ceil(nb);
    let my_q0 = q0 + blk.block_id() * span;
    let my_q1 = q1.min(my_q0 + span);
    if my_q0 >= my_q1 {
        return Ok(());
    }

    // Load this block's queries.
    let fd_q = mount.open(blk, &ds.query_path, GOpenMode::ReadOnly)?;
    let mut qbytes = vec![0u8; (my_q1 - my_q0) * ib];
    mount.read(blk, &fd_q, (my_q0 * ib) as u64, &mut qbytes)?;
    mount.close(blk, fd_q)?;
    let queries: Vec<Vec<f32>> = qbytes.chunks_exact(ib).map(f32_slice).collect();
    let mut unmatched: Vec<usize> = (0..queries.len()).collect();

    // Scan databases in priority order; stop as soon as this block's
    // queries are all matched (the data-dependent early exit).
    // gread 32 KB at a time into on-die scratchpad, as in §5.1.2.
    let chunk_imgs = (32 << 10) / ib.max(1);
    for (db_idx, db_path) in ds.db_paths.iter().enumerate() {
        if unmatched.is_empty() {
            break;
        }
        let fd = mount.open(blk, db_path, GOpenMode::ReadOnly)?;
        let db_images = ds.db_sizes[db_idx];
        let mut img = 0usize;
        while img < db_images && !unmatched.is_empty() {
            let n = chunk_imgs.max(1).min(db_images - img);
            let need = n * ib;
            let off = (img * ib) as u64;
            {
                let scratch = blk.scratch();
                debug_assert!(need <= scratch.len(), "chunk fits scratchpad");
            }
            let mut chunk = vec![0u8; need];
            let got = mount.read(blk, &fd, off, &mut chunk)?;
            debug_assert_eq!(got, need);
            // Charge the full comparison cost for this chunk at the
            // per-block share of the GPU's sustained rate.
            let flops = (n as u64) * (unmatched.len() as u64) * (dim as u64) * 2;
            blk.advance(model.gpu_block_time(flops, nb));
            for i in 0..n {
                let image = f32_slice(&chunk[i * ib..(i + 1) * ib]);
                unmatched.retain(|&q| {
                    if matches_query(&image, &queries[q], threshold_sq) {
                        results[my_q0 + q].store(pack(db_idx, img + i), Ordering::Relaxed);
                        false
                    } else {
                        true
                    }
                });
            }
            img += n;
        }
        mount.close(blk, fd)?;
    }
    Ok(())
}

/// The OpenMP-style CPU baseline: `cores` threads split the queries
/// statically and scan the databases through the host file system.
///
/// # Errors
///
/// Propagates host file-system errors.
pub fn imgmatch_cpu(
    fs: &HostFs,
    cores: usize,
    ds: &ImageDataset,
    threshold: f32,
) -> Result<ImgMatchResult, hostfs::FsError> {
    let model = FlopsModel::imgmatch();
    let cpu = CpuExecutor::new(cores);
    let ib = ds.image_bytes();
    let threshold_sq = threshold * threshold;
    let results: Vec<AtomicU64> = (0..ds.n_queries)
        .map(|_| AtomicU64::new(NO_MATCH))
        .collect();
    let err: parking_lot::Mutex<Option<hostfs::FsError>> = parking_lot::Mutex::new(None);

    let end = cpu.parallel(0, |core| {
        let span = ds.n_queries.div_ceil(cores);
        let my_q0 = core.core_id() * span;
        let my_q1 = ds.n_queries.min(my_q0 + span);
        if my_q0 >= my_q1 {
            return;
        }
        let mut work = || -> Result<(), hostfs::FsError> {
            let (qbytes, t) = fs.read_whole(&ds.query_path, core.now())?;
            core.wait_until(t);
            let queries: Vec<Vec<f32>> = qbytes[my_q0 * ib..my_q1 * ib]
                .chunks_exact(ib)
                .map(f32_slice)
                .collect();
            let mut unmatched: Vec<usize> = (0..queries.len()).collect();
            for (db_idx, db_path) in ds.db_paths.iter().enumerate() {
                if unmatched.is_empty() {
                    break;
                }
                let (fd, t) = fs.open(db_path, hostfs::OpenFlags::read_only(), core.now())?;
                core.wait_until(t);
                let db_images = ds.db_sizes[db_idx];
                let chunk_imgs = ((256 << 10) / ib).max(1);
                let mut img = 0usize;
                let mut chunk = vec![0u8; chunk_imgs * ib];
                while img < db_images && !unmatched.is_empty() {
                    let n = chunk_imgs.min(db_images - img);
                    let (got, t) =
                        fs.pread(fd, (img * ib) as u64, &mut chunk[..n * ib], core.now())?;
                    core.wait_until(t);
                    debug_assert_eq!(got, n * ib);
                    let flops = (n as u64) * (unmatched.len() as u64) * (ds.dim as u64) * 2;
                    core.advance(model.cpu_core_time(flops));
                    for i in 0..n {
                        let image = f32_slice(&chunk[i * ib..(i + 1) * ib]);
                        unmatched.retain(|&q| {
                            if matches_query(&image, &queries[q], threshold_sq) {
                                results[my_q0 + q].store(pack(db_idx, img + i), Ordering::Relaxed);
                                false
                            } else {
                                true
                            }
                        });
                    }
                    img += n;
                }
                fs.close(fd)?;
            }
            Ok(())
        };
        if let Err(e) = work() {
            err.lock().get_or_insert(e);
        }
    });
    if let Some(e) = err.into_inner() {
        return Err(e);
    }
    let matches: Vec<Option<(usize, usize)>> = results
        .iter()
        .map(|r| unpack(r.load(Ordering::Relaxed)))
        .collect();
    let queries_matched = matches.iter().flatten().count();
    Ok(ImgMatchResult {
        elapsed: end,
        matches,
        queries_matched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{gen_image_dataset, ImageDatasetConfig};
    use gpufs::{GpufsConfig, GpufsHost};
    use gpusim::GpuSpec;
    use hostfs::HostFsConfig;

    fn dataset(fs: &HostFs, match_fraction: f64, early: bool) -> ImageDataset {
        gen_image_dataset(
            fs,
            &ImageDatasetConfig {
                dir: "/img".into(),
                db_sizes: vec![40, 30, 50],
                n_queries: 24,
                dim: 64,
                match_fraction,
                plant_in_first_db_prefix: early,
                seed: 11,
            },
        )
    }

    fn rig(n_gpus: usize) -> (Arc<HostFs>, GpufsHost, Vec<Arc<Gpu>>) {
        let fs = Arc::new(HostFs::new(HostFsConfig::default()));
        let gpus: Vec<Arc<Gpu>> = (0..n_gpus)
            .map(|i| Arc::new(Gpu::new(i, GpuSpec::small_test())))
            .collect();
        let host = GpufsHost::new(Arc::clone(&fs), gpus.clone());
        (fs, host, gpus)
    }

    #[test]
    fn gpu_results_match_planting_exactly() {
        let (fs, host, gpus) = rig(1);
        let ds = dataset(&fs, 0.6, false);
        let mount = host.mount(0, GpufsConfig::new(4 << 10, 1 << 20)).unwrap();
        let res = imgmatch_gpufs(&[mount], &gpus, &ds, 0.5).unwrap();
        assert_eq!(
            res.matches, ds.planted,
            "every planted query found, nothing else"
        );
        assert_eq!(res.queries_matched, ds.planted.iter().flatten().count());
        assert!(res.elapsed > 0);
    }

    #[test]
    fn cpu_and_gpu_agree() {
        let (fs, host, gpus) = rig(1);
        let ds = dataset(&fs, 0.4, false);
        let mount = host.mount(0, GpufsConfig::new(4 << 10, 1 << 20)).unwrap();
        let gpu_res = imgmatch_gpufs(&[mount], &gpus, &ds, 0.5).unwrap();
        let cpu_res = imgmatch_cpu(&fs, 8, &ds, 0.5).unwrap();
        assert_eq!(gpu_res.matches, cpu_res.matches);
        assert_eq!(cpu_res.matches, ds.planted);
    }

    #[test]
    fn multi_gpu_covers_all_queries() {
        let (fs, host, gpus) = rig(4);
        let ds = dataset(&fs, 0.5, false);
        let mounts: Vec<_> = (0..4)
            .map(|g| host.mount(g, GpufsConfig::new(4 << 10, 1 << 20)).unwrap())
            .collect();
        let res = imgmatch_gpufs(&mounts, &gpus, &ds, 0.5).unwrap();
        assert_eq!(res.matches, ds.planted);
        // Read-only: results live in GPU memory, so no GPU writes back.
        for (g, mount) in mounts.iter().enumerate() {
            assert_eq!(mount.counters().write_rpcs.get(), 0, "gpu {g} wrote back");
            assert_eq!(host.stats_for(g).bytes_d2h.get(), 0, "gpu {g} moved D2H");
        }
    }

    #[test]
    fn no_match_scan_is_slower_than_early_exit() {
        let (fs, host, gpus) = rig(1);
        let none = dataset(&fs, 0.0, false);
        let mount = host.mount(0, GpufsConfig::new(8 << 10, 2 << 20)).unwrap();
        let slow = imgmatch_gpufs(&[Arc::clone(&mount)], &gpus, &none, 0.5).unwrap();
        assert_eq!(slow.queries_matched, 0);

        let (fs2, host2, gpus2) = rig(1);
        let early = gen_image_dataset(
            &fs2,
            &ImageDatasetConfig {
                dir: "/img".into(),
                db_sizes: vec![40, 30, 50],
                n_queries: 24,
                dim: 64,
                match_fraction: 1.0,
                plant_in_first_db_prefix: true,
                seed: 11,
            },
        );
        let mount2 = host2.mount(0, GpufsConfig::new(8 << 10, 2 << 20)).unwrap();
        let fast = imgmatch_gpufs(&[mount2], &gpus2, &early, 0.5).unwrap();
        assert_eq!(fast.queries_matched, 24);
        assert!(
            fast.elapsed < slow.elapsed,
            "early exit {} must beat full scan {}",
            fast.elapsed,
            slow.elapsed
        );
    }
}
