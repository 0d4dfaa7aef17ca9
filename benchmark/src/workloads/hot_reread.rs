//! `hot_reread` — the paper's Figure 7 / Table 2 path.
//!
//! One mount (64 KB pages, 64 MB cache) lives for the whole run. Setup
//! faults a 32 MB file in with an untimed one-block pass; every timed
//! launch starts at the previous launch's virtual end, so the pages'
//! ready stamps are in every block's past and nothing but the hit
//! protocol is measured. Closed loop, 28 clients: each block re-reads
//! the whole region with `gread`s of 2–6 KB (seeded, 4 KB on average,
//! starting at a seeded rotation so the blocks do not march in step),
//! then walks it once more page by page with `gmmap`/`gmunmap`.
//!
//! Nothing below the cache may do any work here: `cache.misses`,
//! `rpc.requests` and `daemon.bytes_h2d` are zero in the timed region.

use std::sync::Arc;

use gpufs::{GOpenMode, GpufsConfig};
use gpusim::Grid;
use hostfs::HostFs;
use simtime::{Nanos, Timings};

use super::{call_sizes, checksum, Workload};
use crate::record::{Call, HostTimer, IterOut, Logs, Observe, Phases};
use crate::rig::{fill_local_layers, paper_fs, LocalCounts, Rig, BLOCKS};
use crate::stats::Rng;

const PATH: &str = "/hot.bin";
const PAGE: usize = 64 << 10;
const CALL_BYTES: usize = 4 << 10;

pub struct HotReread {
    fs: Arc<HostFs>,
    rig: Rig,
    region: u64,
    /// Virtual time the next launch starts at.
    clock: Nanos,
    /// Call sizes covering the region once, shared by all blocks.
    calls: Vec<u32>,
    /// File offset of each call.
    offsets: Vec<u64>,
    /// `start[block]`: index in `calls` a block begins at.
    start: Vec<usize>,
    /// Checksum of the whole region: what any order of reads covering it
    /// once must sum to.
    expect_sum: u64,
    /// First word of every page, for the `gmmap` pass.
    page_heads: Vec<[u8; 8]>,
}

impl HotReread {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let region: u64 = if smoke { 2 << 20 } else { 32 << 20 };
        let fs = paper_fs(&Timings::paper_platform());
        fs.create_synthetic(PATH, region, seed)
            .expect("create input");
        let (data, _) = fs.read_whole(PATH, 0).expect("warm host cache");
        let expect_sum = checksum(&data);
        let page_heads = data
            .chunks(PAGE)
            .map(|p| p[..8].try_into().expect("pages hold 8 bytes"))
            .collect();

        let mut rng = Rng::new(seed, 2);
        let calls = call_sizes(&mut rng, CALL_BYTES, region);
        let offsets = calls
            .iter()
            .scan(0u64, |off, &n| {
                let at = *off;
                *off += u64::from(n);
                Some(at)
            })
            .collect();
        let start = (0..BLOCKS)
            .map(|_| rng.below(calls.len() as u64) as usize)
            .collect();

        let cfg = GpufsConfig::new(PAGE, 64 << 20);
        let rig = Rig::untraced(&fs, &cfg);
        // The warm pass: one block faults every page in. Its file stays
        // open in no block afterwards — the timed launches revive it from
        // the closed-file table, as the paper's reopen path does.
        let mount = &rig.mount;
        let warm = rig.gpu.launch(Grid::new(1, 256), 0, |blk| {
            let fd = mount
                .open(blk, PATH, GOpenMode::ReadOnly)
                .expect("warm open");
            let mut off = 0u64;
            while off < region {
                let map = mount.mmap(blk, &fd, off, PAGE).expect("warm fault");
                off += map.len() as u64;
                mount.munmap(blk, map);
            }
            mount.close(blk, fd).expect("warm close");
        });
        Self {
            fs,
            clock: warm.end,
            rig,
            region,
            calls,
            offsets,
            start,
            expect_sum,
            page_heads,
        }
    }
}

impl Workload for HotReread {
    fn iterate(&mut self, obs: &Observe) -> IterOut {
        let mut out = IterOut::default();
        let mut ph = Phases::new(obs);
        self.fs.reset_device_time();
        self.rig.host.set_tracing(obs.traced);
        let before = LocalCounts::read(&[&self.rig.mount], &[&self.rig.host]);
        let logs = Logs::new(BLOCKS);
        let mount = &self.rig.mount;
        let timer = HostTimer::start();
        let res = ph.time_with("launch", |obs| {
            self.rig
                .gpu
                .launch(Grid::new(BLOCKS, 256), self.clock, |blk| {
                    let mut log = logs.of(blk.block_id());
                    let Some(fd) = log.call(obs, Call::Gopen, blk, |b| {
                        mount.open(b, PATH, GOpenMode::ReadOnly)
                    }) else {
                        return;
                    };
                    let mut buf = vec![0u8; CALL_BYTES * 3 / 2];
                    let mut sum = 0u64;
                    let n_calls = self.calls.len();
                    let first = self.start[blk.block_id()];
                    for i in (first..n_calls).chain(0..first) {
                        let n = self.calls[i] as usize;
                        match log.call(obs, Call::Gread, blk, |b| {
                            mount.read(b, &fd, self.offsets[i], &mut buf[..n])
                        }) {
                            Some(got) if got == n => {
                                sum = sum.wrapping_add(checksum(&buf[..n]));
                                log.bytes += n as u64;
                            }
                            Some(_) => log.failed += 1,
                            None => {}
                        }
                    }
                    if sum != self.expect_sum {
                        log.failed += 1;
                    }
                    for (page, head) in self.page_heads.iter().enumerate() {
                        let off = (page * PAGE) as u64;
                        let want = PAGE.min((self.region - off) as usize);
                        if let Some(map) =
                            log.call(obs, Call::Gmmap, blk, |b| mount.mmap(b, &fd, off, PAGE))
                        {
                            if map.len() != want
                                || map.file_offset() != off
                                || map.bytes()[..8] != head[..]
                            {
                                log.failed += 1;
                            }
                            log.bytes += map.len() as u64;
                            mount.munmap(blk, map);
                        }
                    }
                    log.call(obs, Call::Gclose, blk, |b| mount.close(b, fd));
                })
        });
        out.timed = timer.stop();
        out.virt_ns = res.elapsed();
        self.clock = res.end;
        logs.drain_into(&mut out);
        let counts = LocalCounts::read(&[mount], &[&self.rig.host]).since(&before);
        fill_local_layers(&mut out.sheet, &counts, 1, &self.fs, out.virt_ns, out.bytes);
        if obs.traced {
            out.virt_spans = self.rig.host.tracer().snapshot();
        }
        ph.finish(&mut out);
        out
    }
}
