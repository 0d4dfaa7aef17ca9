//! Distributed image search across any [`FleetView`] (paper §6).
//!
//! The paper's headline multi-GPU experiment shards one shared set of
//! image-database files across up to 8 GPUs, every GPU running its own
//! buffer cache over the common host file system. This driver is that
//! experiment over the cluster layer: database files are file-grained
//! jobs dealt to per-GPU shards (every chunk of one file starts on that
//! file's shard), threadblocks pull chunks from the fleet's
//! [`WorkQueue`], and — under [`ShardStrategy::WorkStealing`] — a GPU
//! whose shard runs dry steals chunks from the slowest shard instead of
//! idling, which is what balances skewed match costs.
//!
//! Unlike the single-GPU [`crate::imgmatch`] (which scans databases in
//! priority order per *query* and exits early), the distributed search
//! is **exhaustive over its shard**: every database image is compared
//! against every query, and a query's reported match is the
//! highest-priority `(db, slot)` found anywhere in the fleet — so the
//! result is independent of how work was distributed, which the tests
//! exploit: static sharding and work stealing must produce identical
//! matches, differing only in time and steal counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpufs::cluster::{FleetView, ShardStrategy, WorkQueue};
use gpufs::{GOpenMode, GpuFsMount, GpufsResult};
use gpusim::{launch_fleet, Gpu, Grid};
use simtime::Nanos;

use crate::compute::FlopsModel;
use crate::corpus::ImageDataset;
use crate::imgmatch::{f32_slice, matches_query, pack, unpack, NO_MATCH};

/// One work item: a chunk of one database file.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    db: usize,
    img0: usize,
    n_imgs: usize,
}

/// Outcome of one [`cluster_search`] run.
#[derive(Debug, Clone)]
pub struct ClusterSearchOutcome {
    /// Virtual elapsed time of the whole fleet (slowest GPU).
    pub elapsed: Nanos,
    /// Per-GPU virtual end times.
    pub per_gpu_elapsed: Vec<Nanos>,
    /// Per query: the highest-priority `(db, slot)` holding an exact
    /// copy, fleet-wide.
    pub matches: Vec<Option<(usize, usize)>>,
    /// Work items each GPU processed (its shard plus anything stolen).
    pub items_per_gpu: Vec<usize>,
    /// Items that migrated between shards (0 under static sharding).
    pub steals: u64,
    /// Total database bytes scanned (the whole corpus, exactly once).
    pub bytes_scanned: u64,
}

/// Run the distributed image search: shard `ds`'s database files across
/// the fleet in chunks of `chunk_imgs` images, distribute them under
/// `strategy`, and compare every database image against every query.
///
/// Generic over [`FleetView`], so the same driver runs a single-host
/// [`gpufs::GpuFleet`] or a cross-host [`gpufs::HostFleet`] — GPUs are
/// named by the view's global index either way.
///
/// # Errors
///
/// Propagates GPUfs errors raised inside any kernel.
///
/// # Panics
///
/// Panics if the fleet is empty or `chunk_imgs` is zero.
pub fn cluster_search(
    fleet: &impl FleetView,
    ds: &ImageDataset,
    threshold: f32,
    chunk_imgs: usize,
    strategy: ShardStrategy,
) -> GpufsResult<ClusterSearchOutcome> {
    assert!(!fleet.is_empty(), "need at least one GPU");
    assert!(chunk_imgs > 0, "chunks must hold at least one image");
    let n_gpus = fleet.len();
    let n_dbs = ds.db_paths.len();

    // File-grained sharding, chunk-grained items: every chunk of file
    // `db` starts on the shard the *file* is dealt to, so a static run
    // keeps whole files on one GPU while stealing migrates single chunks.
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut assignments: Vec<usize> = Vec::new();
    for (db, &size) in ds.db_sizes.iter().enumerate() {
        let shard = db * n_gpus / n_dbs.max(1);
        let mut img0 = 0;
        while img0 < size {
            let n_imgs = chunk_imgs.min(size - img0);
            chunks.push(Chunk { db, img0, n_imgs });
            assignments.push(shard);
            img0 += n_imgs;
        }
    }
    let queue = WorkQueue::with_assignments(&assignments, n_gpus, strategy);

    let ib = ds.image_bytes();
    let threshold_sq = threshold * threshold;
    let model = FlopsModel::imgmatch();
    let results: Vec<AtomicU64> = (0..ds.n_queries)
        .map(|_| AtomicU64::new(NO_MATCH))
        .collect();
    let items_done: Vec<AtomicU64> = (0..n_gpus).map(|_| AtomicU64::new(0)).collect();
    let gpus: Vec<&Gpu> = (0..n_gpus).map(|g| &**fleet.gpu(g)).collect();
    let mounts: Vec<&Arc<GpuFsMount>> = (0..n_gpus).map(|g| fleet.mount(g)).collect();
    let grids: Vec<Grid> = gpus
        .iter()
        .map(|gpu| Grid::new(gpu.spec().concurrent_blocks(), 512))
        .collect();

    // Claims follow virtual time (see `launch_fleet`): a block claims an
    // item only once no live block of the fleet is virtually behind it,
    // so items go to the virtually least-loaded block — the greedy
    // work-conserving schedule a real fleet exhibits.
    let per_gpu_elapsed = launch_fleet(&gpus, &grids, |g, blk| -> GpufsResult<()> {
        let mount = mounts[g];
        // Every block matches the full query set.
        let fd_q = mount.open(blk, &ds.query_path, GOpenMode::ReadOnly)?;
        let mut qbytes = vec![0u8; ds.n_queries * ib];
        mount.read(blk, &fd_q, 0, &mut qbytes)?;
        mount.close(blk, fd_q)?;
        let queries: Vec<Vec<f32>> = qbytes.chunks_exact(ib).map(f32_slice).collect();
        // Decoded: the raw bytes would otherwise live as long as the
        // block does.
        drop(qbytes);
        let nb = blk.grid().blocks;
        loop {
            blk.pace(0);
            let Some(item) = queue.next(g) else { break };
            let c = chunks[item.index];
            let fd = mount.open(blk, &ds.db_paths[c.db], GOpenMode::ReadOnly)?;
            let mut buf = vec![0u8; c.n_imgs * ib];
            let got = mount.read(blk, &fd, (c.img0 * ib) as u64, &mut buf)?;
            debug_assert_eq!(got, c.n_imgs * ib);
            mount.close(blk, fd)?;
            let flops = (c.n_imgs as u64) * (ds.n_queries as u64) * (ds.dim as u64) * 2;
            blk.advance(model.gpu_block_time(flops, nb));
            for i in 0..c.n_imgs {
                let image = f32_slice(&buf[i * ib..(i + 1) * ib]);
                for (q, query) in queries.iter().enumerate() {
                    if matches_query(&image, query, threshold_sq) {
                        // Highest-priority match wins, whichever GPU
                        // finds it first.
                        results[q].fetch_min(pack(c.db, c.img0 + i), Ordering::Relaxed);
                    }
                }
            }
            items_done[g].fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    })?;

    let matches: Vec<Option<(usize, usize)>> = results
        .iter()
        .map(|r| unpack(r.load(Ordering::Relaxed)))
        .collect();
    Ok(ClusterSearchOutcome {
        elapsed: per_gpu_elapsed.iter().copied().max().unwrap_or(0),
        per_gpu_elapsed,
        matches,
        items_per_gpu: items_done
            .iter()
            .map(|c| c.load(Ordering::Relaxed) as usize)
            .collect(),
        steals: queue.steals(),
        bytes_scanned: ds.db_sizes.iter().map(|&s| (s * ib) as u64).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{gen_image_dataset, ImageDatasetConfig};
    use gpufs::cluster::{FleetBuilder, HostFleet};
    use gpufs::GpufsConfig;
    use gpusim::GpuSpec;
    use hostfs::HostFs;

    fn fleet(n: usize, fs: &Arc<HostFs>) -> gpufs::cluster::GpuFleet {
        FleetBuilder::new(n)
            .spec(GpuSpec::small_test())
            .config(GpufsConfig::new(8 << 10, 2 << 20))
            .host_fs(Arc::clone(fs))
            .build()
            .unwrap()
    }

    fn dataset(fs: &HostFs, db_sizes: Vec<usize>) -> ImageDataset {
        let ds = gen_image_dataset(
            fs,
            &ImageDatasetConfig {
                dir: "/cimg".into(),
                db_sizes,
                n_queries: 16,
                dim: 64,
                match_fraction: 0.5,
                plant_in_first_db_prefix: false,
                seed: 23,
            },
        );
        // Warm the shared host page cache so time comparisons between
        // runs measure distribution policy, not first-touch disk cost.
        for path in ds.db_paths.iter().chain([&ds.query_path]) {
            let _ = fs.read_whole(path, 0).expect("warm cache");
        }
        fs.reset_device_time();
        ds
    }

    /// Search `fleet` with work stealing and check what holds on any
    /// fleet shape: exactly the planted copies, every chunk once, and no
    /// GPU ships a `WritePages` RPC (the corpus is read-only).
    fn search_read_only(fleet: &impl FleetView, ds: &ImageDataset) {
        let out = cluster_search(fleet, ds, 0.5, 8, ShardStrategy::WorkStealing).unwrap();
        assert_eq!(out.matches, ds.planted, "exhaustive search = planting");
        assert_eq!(
            out.items_per_gpu.iter().sum::<usize>(),
            ds.db_sizes.iter().map(|s| s.div_ceil(8)).sum::<usize>(),
            "every chunk processed exactly once"
        );
        assert_eq!(out.bytes_scanned, 140 * 64 * 4);
        assert!(out.elapsed > 0);
        for g in 0..fleet.len() {
            assert_eq!(fleet.mount(g).counters().write_rpcs.get(), 0, "gpu {g}");
        }
    }

    #[test]
    fn cluster_search_finds_exactly_the_planted_copies() {
        // One host with two GPUs.
        let fs = Arc::new(HostFs::new(hostfs::HostFsConfig::default()));
        let ds = dataset(&fs, vec![40, 30, 50, 20]);
        let fleet = fleet(2, &fs);
        search_read_only(&fleet, &ds);
        assert_eq!(fleet.host_for(0).stats().bytes_d2h.get(), 0);

        // Two hosts of one GPU each, behind proxies over one storage
        // server: every wire round-trip is one frame the server served.
        let hosts = HostFleet::builder(2, 1)
            .spec(GpuSpec::small_test())
            .config(GpufsConfig::new(8 << 10, 2 << 20))
            .host_cache_pages(64)
            .build()
            .unwrap();
        let ds = dataset(hosts.fs(), vec![40, 30, 50, 20]);
        search_read_only(&hosts, &ds);
        for h in 0..2 {
            assert_eq!(hosts.host_stats(h).bytes_d2h.get(), 0, "host {h}");
        }
        let round_trips: u64 = (0..2).map(|h| hosts.proxy(h).wire().wire_rpcs.get()).sum();
        assert!(round_trips > 0);
        assert_eq!(round_trips, hosts.server().stats().frames.get());
    }

    #[test]
    fn static_and_stealing_agree_on_matches() {
        let fs = Arc::new(HostFs::new(hostfs::HostFsConfig::default()));
        let ds = dataset(&fs, vec![120, 10, 10, 10]);
        // Fresh fleets so buffer caches start cold in both runs.
        let st = cluster_search(&fleet(2, &fs), &ds, 0.5, 4, ShardStrategy::Static).unwrap();
        let ws = cluster_search(&fleet(2, &fs), &ds, 0.5, 4, ShardStrategy::WorkStealing).unwrap();
        assert_eq!(st.matches, ws.matches, "distribution never changes results");
        assert_eq!(st.steals, 0, "static never steals");
        assert_eq!(st.matches, ds.planted);
    }

    #[test]
    fn stealing_rebalances_a_skewed_corpus() {
        // Files 0..2 (dealt to GPU 0) hold ~14x the images of files 2..4
        // (GPU 1): a static shard leaves GPU 1 idle while GPU 0 grinds.
        let fs = Arc::new(HostFs::new(hostfs::HostFsConfig::default()));
        let ds = dataset(&fs, vec![140, 140, 10, 10]);
        let st = cluster_search(&fleet(2, &fs), &ds, 0.5, 4, ShardStrategy::Static).unwrap();
        let ws = cluster_search(&fleet(2, &fs), &ds, 0.5, 4, ShardStrategy::WorkStealing).unwrap();
        assert!(ws.steals > 0, "the idle GPU must steal");
        assert!(
            ws.elapsed < st.elapsed,
            "stealing ({}) must beat static sharding ({}) on skew",
            ws.elapsed,
            st.elapsed
        );
        // Static: GPU 1 processed only its own 6 chunks; stealing: more.
        assert_eq!(st.items_per_gpu[1], 6);
        assert!(ws.items_per_gpu[1] > 6);
    }
}
