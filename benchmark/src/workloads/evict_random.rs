//! `evict_random` — the working set is four times the program's cache.
//!
//! Closed loop, 28 clients: each block issues 2048 page-aligned 16 KB
//! `gread`s at offsets drawn from a Zipf(0.9) popularity over the 4096
//! pages of a 64 MB file (popular pages scattered by a seeded
//! permutation), against 16 KB pages and a 16 MB GPU cache — 1024
//! frames. Default daemon (one channel, one worker), no readahead, warm
//! host page cache, cold GPU cache.
//!
//! About two reads in five miss, every miss is a single-page
//! `ReadPages` round-trip, and once the 1024 frames are full every miss
//! reclaims one: `cache::{reclaim,frames}` and RPC latency decide the result, the
//! bandwidth layers idle.

use std::sync::Arc;

use gpufs::{GOpenMode, GpufsConfig};
use gpusim::Grid;
use hostfs::HostFs;
use simtime::Timings;

use super::{checksum, finish_rig, Workload};
use crate::record::{Call, HostTimer, IterOut, Logs, Observe, Phases};
use crate::rig::{paper_fs, Rig, BLOCKS};
use crate::stats::{Rng, Zipf};

const PATH: &str = "/big.bin";
const PAGE: usize = 16 << 10;

pub struct EvictRandom {
    fs: Arc<HostFs>,
    cfg: GpufsConfig,
    /// `reads[block]`: the pages the block reads, in order.
    reads: Vec<Vec<u32>>,
    /// Checksum of every page, from `HostFs::read_whole`.
    page_sums: Vec<u64>,
}

impl EvictRandom {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (file_bytes, cache_bytes, per_block) = if smoke {
            (4 << 20, 1 << 20, 64)
        } else {
            (64 << 20, 16 << 20, 2048)
        };
        let fs = paper_fs(&Timings::paper_platform());
        fs.create_synthetic(PATH, file_bytes, seed)
            .expect("create input");
        let (data, _) = fs.read_whole(PATH, 0).expect("warm host cache");
        let page_sums: Vec<u64> = data.chunks(PAGE).map(checksum).collect();

        let mut rng = Rng::new(seed, 4);
        let mut page_of_rank: Vec<u32> = (0..page_sums.len() as u32).collect();
        rng.shuffle(&mut page_of_rank);
        let zipf = Zipf::new(page_sums.len(), 0.9);
        let reads = (0..BLOCKS)
            .map(|_| {
                (0..per_block)
                    .map(|_| page_of_rank[zipf.sample(&mut rng)])
                    .collect()
            })
            .collect();
        Self {
            fs,
            cfg: GpufsConfig::new(PAGE, cache_bytes),
            reads,
            page_sums,
        }
    }
}

impl Workload for EvictRandom {
    fn iterate(&mut self, obs: &Observe) -> IterOut {
        let mut out = IterOut::default();
        let mut ph = Phases::new(obs);
        self.fs.reset_device_time();
        let rig = Rig::new(&self.fs, &self.cfg, &mut ph);
        let logs = Logs::new(BLOCKS);
        let mount = &rig.mount;
        let timer = HostTimer::start();
        let res = ph.time_with("launch", |obs| {
            rig.gpu.launch(Grid::new(BLOCKS, 256), 0, |blk| {
                let mut log = logs.of(blk.block_id());
                let Some(fd) = log.call(obs, Call::Gopen, blk, |b| {
                    mount.open(b, PATH, GOpenMode::ReadOnly)
                }) else {
                    return;
                };
                let mut buf = vec![0u8; PAGE];
                for &page in &self.reads[blk.block_id()] {
                    let off = u64::from(page) * PAGE as u64;
                    match log.call(obs, Call::Gread, blk, |b| mount.read(b, &fd, off, &mut buf)) {
                        Some(got)
                            if got == PAGE && checksum(&buf) == self.page_sums[page as usize] =>
                        {
                            log.bytes += PAGE as u64;
                        }
                        Some(_) => log.failed += 1,
                        None => {}
                    }
                }
                log.call(obs, Call::Gclose, blk, |b| mount.close(b, fd));
            })
        });
        out.timed = timer.stop();
        out.virt_ns = res.elapsed();
        logs.drain_into(&mut out);
        finish_rig(&mut out, &rig, &self.fs, obs);
        ph.finish(&mut out);
        out
    }
}
