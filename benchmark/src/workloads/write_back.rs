//! `write_back` — the write side beside the reads.
//!
//! Each iteration runs two phases over a fresh host file system, each on
//! its own fresh mount (64 KB pages), 28 clients, closed loop:
//!
//! * `once` — blocks `gwrite` disjoint 1/28 slices of a new 32 MB
//!   `O_GWRONCE` file in sub-page calls of 8–24 KB (seeded, 16 KB on
//!   average), then `gfsync` under the default synchronous write-back,
//!   then `gclose`.
//! * `rmw` — a mount with `with_async_writeback(1024, 32)`; blocks open an
//!   existing 32 MB file read-write and, page by page across their slice,
//!   `gread` their part of the page and overwrite its middle quarter,
//!   then `gfsync` and `gclose`. Slices are not page-aligned, so
//!   neighbouring blocks share a boundary page and write disjoint parts
//!   of it — the diff-merge case.
//!
//! Oracles: after each phase the host image equals, byte for byte, the
//! image computed at setup (shared boundary pages included); and a
//! second `gfsync` of the finished write-once file ships nothing
//! (`cache.write_rpcs` unchanged).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gpufs::{GOpenMode, GpufsConfig};
use gpusim::Grid;
use hostfs::HostFs;
use simtime::Timings;

use super::{append_spans, call_sizes, Workload};
use crate::record::{row, Call, HostTimer, IterOut, Logs, Observe, Phases};
use crate::rig::{fill_local_layers, paper_fs, LocalCounts, Rig, BLOCKS};
use crate::stats::Rng;

const ONCE: &str = "/once.bin";
const RMW: &str = "/rmw.bin";
const PAGE: usize = 64 << 10;
const CALL_BYTES: usize = 16 << 10;

/// One step of a block's read-modify-write walk: read `[read_at,
/// read_at + read_len)`, then overwrite `[write_at, write_at +
/// write_len)` inside it.
#[derive(Clone, Copy)]
struct Step {
    read_at: u64,
    read_len: usize,
    write_at: u64,
    write_len: usize,
}

pub struct WriteBack {
    /// Bytes per block slice.
    slice: u64,
    /// What the blocks write; also the finished image of the once file.
    payload: Vec<u8>,
    /// `calls[block]`: sizes of the block's `gwrite`s in the once phase.
    calls: Vec<Vec<u32>>,
    /// Initial content of the rmw file.
    base: Vec<u8>,
    /// `steps[block]`: the block's read-modify-write walk.
    steps: Vec<Vec<Step>>,
    /// The rmw file after every block's overwrites.
    expect_rmw: Vec<u8>,
    once_cfg: GpufsConfig,
    rmw_cfg: GpufsConfig,
}

fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

impl WriteBack {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let file_bytes: u64 = if smoke { 2 << 20 } else { 32 << 20 };
        let slice = file_bytes / BLOCKS as u64 / 8 * 8;
        let total = (slice * BLOCKS as u64) as usize;
        let mut rng = Rng::new(seed, 3);
        let payload = random_bytes(&mut rng, total);
        let base = random_bytes(&mut rng, total);
        let calls = (0..BLOCKS)
            .map(|_| call_sizes(&mut rng, CALL_BYTES, slice))
            .collect();

        let mut expect_rmw = base.clone();
        let steps: Vec<Vec<Step>> = (0..BLOCKS as u64)
            .map(|b| {
                let (lo, hi) = (b * slice, (b + 1) * slice);
                let mut walk = Vec::new();
                let mut at = lo;
                while at < hi {
                    let page_end = (at / PAGE as u64 + 1) * PAGE as u64;
                    let len = (page_end.min(hi) - at) as usize;
                    // The middle quarter of this block's part of the page,
                    // on 8-byte boundaries.
                    let write_at = at + (len as u64 * 3 / 8) / 8 * 8;
                    let write_len = (len / 4 / 8 * 8).max(8).min(len);
                    walk.push(Step {
                        read_at: at,
                        read_len: len,
                        write_at,
                        write_len,
                    });
                    let w = write_at as usize;
                    expect_rmw[w..w + write_len].copy_from_slice(&payload[w..w + write_len]);
                    at += len as u64;
                }
                walk
            })
            .collect();

        Self {
            slice,
            payload,
            calls,
            base,
            steps,
            expect_rmw,
            once_cfg: GpufsConfig::new(PAGE, (2 * total).next_power_of_two()),
            // Read-write pages keep a pristine copy beside the working
            // one, so the cache holds the file twice over.
            rmw_cfg: GpufsConfig::new(PAGE, (4 * total).next_power_of_two())
                .with_async_writeback(1024, 32),
        }
    }

    fn once_phase(&self, fs: &Arc<HostFs>, ph: &mut Phases<'_>, out: &mut IterOut) -> Rig {
        let rig = Rig::new(fs, &self.once_cfg, ph);
        let logs = Logs::new(BLOCKS);
        let mount = &rig.mount;
        let timer = HostTimer::start();
        let res = ph.time_with("launch_once", |obs| {
            rig.gpu.launch(Grid::new(BLOCKS, 256), 0, |blk| {
                let mut log = logs.of(blk.block_id());
                let Some(fd) = log.call(obs, Call::Gopen, blk, |b| {
                    mount.open(b, ONCE, GOpenMode::WriteOnce)
                }) else {
                    return;
                };
                let mut off = blk.block_id() as u64 * self.slice;
                for &n in &self.calls[blk.block_id()] {
                    let src = &self.payload[off as usize..off as usize + n as usize];
                    match log.call(obs, Call::Gwrite, blk, |b| mount.write(b, &fd, off, src)) {
                        Some(put) if put == src.len() => log.bytes += put as u64,
                        Some(_) => log.failed += 1,
                        None => {}
                    }
                    off += u64::from(n);
                }
                log.call(obs, Call::Gfsync, blk, |b| mount.fsync(b, &fd));
                log.call(obs, Call::Gclose, blk, |b| mount.close(b, fd));
            })
        });
        out.timed += timer.stop();
        out.virt_ns += res.elapsed();
        let before = out.bytes;
        logs.drain_into(out);
        out.sheet.insert(
            "cache.writeback.once_mb_s",
            simtime::throughput_mb_s(out.bytes - before, res.elapsed()),
        );

        ph.time("verify_once", || {
            if fs.read_whole(ONCE, 0).map(|(img, _)| img).ok().as_deref() != Some(&self.payload[..])
            {
                out.failed += 1;
            }
            // Everything is on the host: syncing again must ship nothing.
            let shipped = |m: &gpufs::GpuFsMount| row(&m.counters().snapshot(), "write_rpcs");
            let was = shipped(mount);
            let synced = AtomicBool::new(false);
            rig.gpu.launch(Grid::new(1, 256), res.end, |blk| {
                let again = mount.open(blk, ONCE, GOpenMode::WriteOnce).and_then(|fd| {
                    mount.fsync(blk, &fd)?;
                    mount.close(blk, fd)
                });
                synced.store(again.is_ok(), Ordering::Relaxed);
            });
            if !synced.into_inner() || shipped(mount) != was {
                out.failed += 1;
            }
        });
        rig
    }

    fn rmw_phase(&self, fs: &Arc<HostFs>, ph: &mut Phases<'_>, out: &mut IterOut) -> Rig {
        let rig = Rig::new(fs, &self.rmw_cfg, ph);
        let logs = Logs::new(BLOCKS);
        let mount = &rig.mount;
        let timer = HostTimer::start();
        let res = ph.time_with("launch_rmw", |obs| {
            rig.gpu.launch(Grid::new(BLOCKS, 256), 0, |blk| {
                let mut log = logs.of(blk.block_id());
                let Some(fd) = log.call(obs, Call::Gopen, blk, |b| {
                    mount.open(b, RMW, GOpenMode::ReadWrite)
                }) else {
                    return;
                };
                let mut buf = vec![0u8; PAGE];
                for st in &self.steps[blk.block_id()] {
                    let got = log.call(obs, Call::Gread, blk, |b| {
                        mount.read(b, &fd, st.read_at, &mut buf[..st.read_len])
                    });
                    // A block reads only bytes it alone writes, and only
                    // before it writes them: they are the file's initial
                    // content whatever its neighbours are doing.
                    let r = st.read_at as usize;
                    if got.is_some()
                        && (got != Some(st.read_len)
                            || buf[..st.read_len] != self.base[r..r + st.read_len])
                    {
                        log.failed += 1;
                    }
                    log.bytes += got.unwrap_or(0) as u64;
                    let w = st.write_at as usize;
                    let src = &self.payload[w..w + st.write_len];
                    match log.call(obs, Call::Gwrite, blk, |b| {
                        mount.write(b, &fd, st.write_at, src)
                    }) {
                        Some(put) if put == src.len() => log.bytes += put as u64,
                        Some(_) => log.failed += 1,
                        None => {}
                    }
                }
                log.call(obs, Call::Gfsync, blk, |b| mount.fsync(b, &fd));
                log.call(obs, Call::Gclose, blk, |b| mount.close(b, fd));
            })
        });
        out.timed += timer.stop();
        out.virt_ns += res.elapsed();
        let before = out.bytes;
        logs.drain_into(out);
        out.sheet.insert(
            "cache.writeback.rmw_mb_s",
            simtime::throughput_mb_s(out.bytes - before, res.elapsed()),
        );
        ph.time("verify_rmw", || {
            if fs.read_whole(RMW, 0).map(|(img, _)| img).ok().as_deref()
                != Some(&self.expect_rmw[..])
            {
                out.failed += 1;
            }
        });
        rig
    }
}

impl Workload for WriteBack {
    fn iterate(&mut self, obs: &Observe) -> IterOut {
        let mut out = IterOut::default();
        let mut ph = Phases::new(obs);
        let fs = ph.time("corpus", || {
            let fs = paper_fs(&Timings::paper_platform());
            fs.create(RMW, &self.base).expect("create rmw input");
            let _ = fs.read_whole(RMW, 0).expect("warm host cache");
            fs.reset_device_time();
            fs
        });
        let once = self.once_phase(&fs, &mut ph, &mut out);
        let rmw = self.rmw_phase(&fs, &mut ph, &mut out);

        let counts = LocalCounts::read(&[&once.mount, &rmw.mount], &[&once.host, &rmw.host]);
        fill_local_layers(&mut out.sheet, &counts, 1, &fs, out.virt_ns, out.bytes);
        if obs.traced {
            append_spans(&mut out.virt_spans, once.host.tracer().snapshot(), 0);
            append_spans(&mut out.virt_spans, rmw.host.tracer().snapshot(), 1);
        }
        ph.finish(&mut out);
        out
    }
}
