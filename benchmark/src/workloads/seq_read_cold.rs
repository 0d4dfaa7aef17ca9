//! `seq_read_cold` — the paper's Figure 4 path.
//!
//! Closed loop, 28 clients: each threadblock `gread`s its own 1/28 slice
//! of one file front to back in calls of 32–96 KB (seeded, 64 KB on
//! average, so about 65 calls a block and 1800 an iteration). 64 KB pages, GPU cache
//! larger than the file, readahead 8, 4 RPC channels × 2 daemon workers,
//! host page cache warm, GPU cache cold (a fresh mount per iteration).
//! Slices are not page-aligned, so neighbouring blocks share a boundary
//! page — one faults it, the other finds it (or waits for it).

use std::sync::Arc;

use gpufs::{GOpenMode, GpufsConfig};
use gpusim::Grid;
use hostfs::HostFs;
use simtime::Timings;

use super::{call_sizes, checksum, finish_rig, Workload};
use crate::record::{Call, HostTimer, IterOut, Logs, Observe, Phases};
use crate::rig::{paper_fs, Rig, BLOCKS, SCALE};
use crate::stats::Rng;

const PATH: &str = "/seq.bin";
const PAGE: usize = 64 << 10;
const CALL_BYTES: usize = 64 << 10;

pub struct SeqReadCold {
    fs: Arc<HostFs>,
    cfg: GpufsConfig,
    /// Bytes per block slice (a multiple of 8, for the checksum words).
    slice: u64,
    /// `slice_of[block]`: which slice a block reads (seeded shuffle).
    slice_of: Vec<usize>,
    /// `calls[block]`: the sizes of the block's `gread`s, in order.
    calls: Vec<Vec<u32>>,
    /// Expected checksum per slice, from `HostFs::read_whole`.
    expect: Vec<u64>,
}

impl SeqReadCold {
    pub fn new(seed: u64, smoke: bool) -> Self {
        // The paper's 1.8 GB file, scaled: 112.5 MB.
        let file_bytes: u64 = if smoke { 4 << 20 } else { (1800 << 20) / SCALE };
        let fs = paper_fs(&Timings::paper_platform());
        fs.create_synthetic(PATH, file_bytes, seed)
            .expect("create input");
        // Reading it once warms the host page cache and yields the bytes
        // the verification table is built from.
        let (data, _) = fs.read_whole(PATH, 0).expect("warm host cache");
        let slice = file_bytes / BLOCKS as u64 / 8 * 8;
        let expect = (0..BLOCKS)
            .map(|s| checksum(&data[s * slice as usize..(s + 1) * slice as usize]))
            .collect();
        let mut slice_of: Vec<usize> = (0..BLOCKS).collect();
        let mut rng = Rng::new(seed, 1);
        rng.shuffle(&mut slice_of);
        let calls = (0..BLOCKS)
            .map(|_| call_sizes(&mut rng, CALL_BYTES, slice))
            .collect();
        let cache = (file_bytes as usize + 16 * PAGE).next_power_of_two();
        let cfg = GpufsConfig::new(PAGE, cache)
            .with_readahead(8)
            .with_concurrency(4, 2);
        Self {
            fs,
            cfg,
            slice,
            slice_of,
            calls,
            expect,
        }
    }
}

impl Workload for SeqReadCold {
    fn iterate(&mut self, obs: &Observe) -> IterOut {
        let mut out = IterOut::default();
        let mut ph = Phases::new(obs);
        self.fs.reset_device_time();
        let rig = Rig::new(&self.fs, &self.cfg, &mut ph);
        let logs = Logs::new(BLOCKS);
        let (mount, slice) = (&rig.mount, self.slice);
        let timer = HostTimer::start();
        let res = ph.time_with("launch", |obs| {
            rig.gpu.launch(Grid::new(BLOCKS, 256), 0, |blk| {
                let mut log = logs.of(blk.block_id());
                let which = self.slice_of[blk.block_id()];
                let Some(fd) = log.call(obs, Call::Gopen, blk, |b| {
                    mount.open(b, PATH, GOpenMode::ReadOnly)
                }) else {
                    return;
                };
                let base = which as u64 * slice;
                let mut buf = vec![0u8; CALL_BYTES * 3 / 2];
                let (mut off, mut sum) = (0u64, 0u64);
                for &n in &self.calls[blk.block_id()] {
                    let n = n as usize;
                    match log.call(obs, Call::Gread, blk, |b| {
                        mount.read(b, &fd, base + off, &mut buf[..n])
                    }) {
                        Some(got) if got == n => sum = sum.wrapping_add(checksum(&buf[..n])),
                        // A short read is a wrong answer; a failed one was
                        // counted already. Either way, stop this block.
                        Some(_) => {
                            log.failed += 1;
                            break;
                        }
                        None => break,
                    }
                    log.bytes += n as u64;
                    off += n as u64;
                }
                if sum != self.expect[which] {
                    log.failed += 1;
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
