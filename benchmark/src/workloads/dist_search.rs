//! `dist_search` — the only workload that leaves the host.
//!
//! 2 hosts × 2 GPUs, each host behind a `HostProxy` with a 4096-page host
//! cache, talking to one storage server over the "lan" link of
//! `Timings::paper_platform` (30 µs round trip, 11 600 MB/s). The
//! repository's own driver, `workloads::cluster::cluster_search`, shards
//! 16 image databases (752–784 one-KB images each, seeded) over the four GPUs in
//! 16-image work items under work stealing and matches every image
//! against 64 queries. 64 KB pages, 32 MB GPU caches, warm storage-side
//! page cache, cold GPU and host caches (a fresh fleet per iteration).
//!
//! The driver owns the kernel, so single g* calls cannot be timed from
//! outside. `host_ops_per_s` counts images scanned; `virt_op_*` is the
//! virtual cost of one work item (open, read, close, match) on each GPU —
//! its elapsed time over the items it processed. Four GPUs give four
//! samples, so here `virt_op_p50_us` is the median GPU's cost and
//! `virt_op_p99_us` the slowest GPU's — the one that sets the fleet's
//! time — not percentiles of calls.
//!
//! Oracle: the match list equals `imgmatch_cpu`'s, computed at setup.

use std::sync::Arc;

use gpufs::{GpufsConfig, HostFleet, ShardStrategy};
use hostfs::HostFs;
use simtime::Timings;
use workloads::cluster::cluster_search;
use workloads::corpus::{gen_image_dataset, ImageDataset, ImageDatasetConfig};
use workloads::imgmatch::imgmatch_cpu;

use super::{append_spans, Workload};
use crate::record::{HostTimer, IterOut, Observe, Phases};
use crate::rig::{c2075, fill_local_layers, paper_fs, read_remote_layers, LocalCounts};
use crate::stats::{median, Rng};

const HOSTS: usize = 2;
const GPUS_PER_HOST: usize = 2;
const THRESHOLD: f32 = 0.5;
const CHUNK_IMAGES: usize = 16;

pub struct DistSearch {
    fs: Arc<HostFs>,
    ds: ImageDataset,
    /// What `imgmatch_cpu` found: per query, the database and slot of its
    /// planted copy.
    expect: Vec<Option<(usize, usize)>>,
}

impl DistSearch {
    pub fn new(seed: u64, smoke: bool) -> Self {
        // Database sizes are part of the seeded input: a uniform corpus
        // would take the same virtual time whatever the images hold.
        let (dbs, least, span) = if smoke { (4, 48, 9) } else { (16, 752, 33) };
        let mut rng = Rng::new(seed, 6);
        let db_sizes: Vec<usize> = (0..dbs).map(|_| least + rng.below(span) as usize).collect();
        let fs = paper_fs(&Timings::paper_platform());
        let ds = gen_image_dataset(
            &fs,
            &ImageDatasetConfig {
                dir: "/dbs".into(),
                db_sizes,
                n_queries: 64,
                dim: 256,
                match_fraction: 0.5,
                plant_in_first_db_prefix: false,
                seed,
            },
        );
        // The CPU baseline reads every file through the host file system:
        // the reference answer and the warm page cache in one pass.
        let expect = imgmatch_cpu(&fs, 2, &ds, THRESHOLD)
            .expect("cpu baseline")
            .matches;
        for path in ds.db_paths.iter().chain([&ds.query_path]) {
            let _ = fs.read_whole(path, 0).expect("warm host cache");
        }
        Self { fs, ds, expect }
    }
}

impl Workload for DistSearch {
    fn iterate(&mut self, obs: &Observe) -> IterOut {
        let mut out = IterOut::default();
        let mut ph = Phases::new(obs);
        self.fs.reset_device_time();
        let fleet = ph.time("fleet_build", || {
            HostFleet::builder(HOSTS, GPUS_PER_HOST)
                .spec(c2075(256 << 20))
                .timings(Timings::paper_platform())
                .config(GpufsConfig::new(64 << 10, 32 << 20))
                .storage_fs(Arc::clone(&self.fs))
                .host_cache_pages(4096)
                .build()
                .expect("benchmark geometry mounts")
        });
        let hosts: Vec<_> = (0..HOSTS).map(|h| fleet.fleet(h).host_for(0)).collect();
        for h in &hosts {
            h.set_tracing(obs.traced);
        }

        let timer = HostTimer::start();
        let found = ph.time("cluster_search", || {
            cluster_search(
                &fleet,
                &self.ds,
                THRESHOLD,
                CHUNK_IMAGES,
                ShardStrategy::WorkStealing,
            )
        });
        out.timed = timer.stop();
        let images: usize = self.ds.db_sizes.iter().sum();
        out.ops_override = Some(images as u64);
        match found {
            Ok(found) => {
                out.virt_ns = found.elapsed;
                out.bytes = found.bytes_scanned;
                if found.matches != self.expect {
                    out.failed += 1;
                }
                // Four GPUs are four samples: no percentile but the
                // median and the maximum means anything.
                let per_item: Vec<f64> = found
                    .per_gpu_elapsed
                    .iter()
                    .zip(&found.items_per_gpu)
                    .map(|(&ns, &items)| ns as f64 / items.max(1) as f64)
                    .collect();
                let slowest = per_item.iter().copied().fold(0.0, f64::max);
                out.op_cost_override = Some((median(&per_item), slowest));
                out.sheet.insert("cluster.steals", found.steals as f64);
                let mean = found.per_gpu_elapsed.iter().sum::<u64>() as f64
                    / found.per_gpu_elapsed.len() as f64;
                out.sheet
                    .insert("cluster.gpu_imbalance", found.elapsed as f64 / mean);
            }
            Err(_) => out.failed += images as u64,
        }

        let mounts: Vec<_> = (0..HOSTS)
            .flat_map(|h| fleet.fleet(h).mounts().iter().map(Arc::as_ref))
            .collect();
        let counts = LocalCounts::read(&mounts, &hosts);
        fill_local_layers(
            &mut out.sheet,
            &counts,
            mounts.len(),
            &self.fs,
            out.virt_ns,
            out.bytes,
        );
        read_remote_layers(&mut out.sheet, &fleet, out.virt_ns);
        if obs.traced {
            for (h, host) in hosts.iter().enumerate() {
                append_spans(&mut out.virt_spans, host.tracer().snapshot(), h);
            }
        }
        ph.finish(&mut out);
        out
    }
}
