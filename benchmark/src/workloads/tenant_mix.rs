//! `tenant_mix` — an open loop on the *virtual* clock.
//!
//! `workloads::traffic::synthesize_trace` (seeded) lays sessions of three
//! tenants on the virtual timeline — a point-lookup *victim* (2 blocks,
//! a 3-file hot index), a sequential-scan *hog* (8 blocks, ten times the
//! data), a *logger* (2 blocks, fresh write-once files, `gfsync` before
//! close) — over 4 KB pages and a 72-frame cache shared by all three,
//! with weights `[8, 1, 2]`, admission caps `[0, 4, 0]` and frame quotas
//! `[48, 8, 16]`. Sessions are due at their synthesized arrival whatever
//! the system is doing; a block that is late runs its backlog back to
//! back.
//!
//! The trace is replayed by the benchmark's own loop — the same
//! clock-board pacing as `traffic::replay` (a block may run at most
//! `pace_lag_ns` of virtual time ahead of the slowest live block, so
//! virtually-concurrent requests really do queue together at the hub),
//! but with raw samples instead of histogram buckets, each session timed
//! from its *due* arrival, and the start lateness reported.
//!
//! `virt_op_*` is the victim's data calls: what the tenant knobs protect.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpufs::{FleetBuilder, GpuFleet, GpufsConfig};
use gpusim::{BlockCtx, Grid};
use hostfs::HostFs;
use simtime::Timings;
use workloads::traffic::{
    materialize_corpus, synthesize_trace, Op, TenantClass, TenantLoad, Trace, TrafficConfig,
};

use super::{checksum, Workload};
use crate::record::{clamp_u32, Call, Extra, HostTimer, IterOut, Logs, Observe, Phases};
use crate::rig::{c2075, fill_local_layers, paper_fs, LocalCounts};
use crate::stats::Rng;

const PAGE: usize = 4 << 10;
const VICTIM: usize = 0;

/// The workload, set up.
pub struct TenantMix {
    trace: Trace,
    cfg: GpufsConfig,
    /// What logger sessions write, chunk after chunk: also the expected
    /// content of every log file.
    log_payload: Vec<u8>,
    /// `chunk_sums[file][chunk]`: checksum of each 4 KB chunk of each
    /// corpus file, read back through `HostFs::read_whole` at setup.
    chunk_sums: Vec<Vec<u64>>,
}

fn fleet_over(fs: &Arc<HostFs>, cfg: &GpufsConfig) -> GpuFleet {
    FleetBuilder::new(1)
        .spec(c2075(256 << 20))
        .timings(Timings::paper_platform())
        .config(cfg.clone())
        .host_fs(Arc::clone(fs))
        .build()
        .expect("benchmark geometry mounts")
}

/// Frame quotas of the victim and the scan hog; the logger's is a
/// parameter, and the cache holds exactly the three together.
const VICTIM_QUOTA: usize = 48;
const SCAN_QUOTA: usize = 8;

/// Pages a logger session writes, and the logger's frame quota, in the
/// workload as benchmarked. Reclaim evicts in batches of 8 and makes a
/// tenant over its quota evict its own pages first, closed files before
/// open ones: with two logger blocks mid-session holding 8 dirty pages,
/// a quota of 16 means a logger over quota always has a batch of clean
/// pages of closed log files to give, and the pages being written are
/// left alone. 1800 replays at this geometry passed every oracle.
pub const LOGGER_PAGES: usize = 4;
pub const LOGGER_QUOTA: usize = 16;

impl TenantMix {
    #[must_use]
    pub fn new(seed: u64, smoke: bool) -> Self {
        Self::with_logger(seed, smoke, LOGGER_PAGES, LOGGER_QUOTA)
    }

    /// The workload with `logger_pages`-page logger sessions under a
    /// logger quota of `logger_quota` frames. When the quota does not
    /// cover the pages in flight plus a reclaim batch, the logger's own
    /// dirty pages are reclaimed under it, and now and then a log file
    /// holds a wrong or all-zero 4 KB page after its `gfsync` — one
    /// replay in 50 at 8 pages against a quota of 8 (the geometry the
    /// issue named, with 4 pages: one in 700): a defect of the program
    /// this benchmark may not fix, while a workload must be one on which
    /// nothing fails. `tests/known_defects.rs` keeps that geometry
    /// runnable.
    ///
    /// # Panics
    ///
    /// Panics if the corpus cannot be materialized — a geometry bug in
    /// the benchmark.
    #[must_use]
    pub fn with_logger(seed: u64, smoke: bool, logger_pages: usize, logger_quota: usize) -> Self {
        // The recorded tail experiment's mix, every session count scaled
        // so one replay is a fraction of a second of host time.
        let k = if smoke { 1 } else { 32 };
        let traffic = TrafficConfig {
            seed,
            dir: "/mix".into(),
            n_files: 64,
            file_bytes: 64 << 10,
            zipf_s: 0.3,
            op_bytes: PAGE,
            pace_lag_ns: 200_000,
            tenants: vec![
                TenantLoad {
                    class: TenantClass::PointLookup,
                    blocks: 2,
                    sessions: 400 * k,
                    arrival_gap_ns: 20_000,
                    burst_sessions: 8,
                    off_gap_ns: 100_000,
                    ops_per_session: 8,
                    hot_files: 3,
                },
                TenantLoad {
                    class: TenantClass::Scan,
                    blocks: 8,
                    sessions: 48 * k,
                    arrival_gap_ns: 5_000,
                    burst_sessions: 16,
                    off_gap_ns: 50_000,
                    ops_per_session: 16,
                    hot_files: 0,
                },
                TenantLoad {
                    class: TenantClass::Logger,
                    blocks: 2,
                    sessions: 32 * k,
                    arrival_gap_ns: 100_000,
                    burst_sessions: 4,
                    off_gap_ns: 400_000,
                    ops_per_session: logger_pages,
                    hot_files: 0,
                },
            ],
        };
        let trace = synthesize_trace(&traffic, 1);
        let frames = VICTIM_QUOTA + SCAN_QUOTA + logger_quota;
        let cfg = GpufsConfig::new(PAGE, frames * PAGE)
            .with_tenant_weights(vec![8, 1, 2])
            .with_tenant_admission(vec![0, 4, 0])
            .with_tenant_quotas(vec![VICTIM_QUOTA, SCAN_QUOTA, logger_quota]);

        // Materialize once here to learn what the corpus holds; every
        // iteration materializes the same bytes again on its own fresh
        // file system.
        let fs = paper_fs(&Timings::paper_platform());
        materialize_corpus(&fleet_over(&fs, &cfg), &trace).expect("materialize corpus");
        let chunk_sums = trace
            .files
            .iter()
            .map(|path| {
                let (data, _) = fs.read_whole(path, 0).expect("read corpus file");
                data.chunks(PAGE).map(checksum).collect()
            })
            .collect();

        let mut rng = Rng::new(seed, 5);
        let log_payload = (0..logger_pages * PAGE)
            .map(|_| rng.next_u64() as u8)
            .collect();
        Self {
            trace,
            cfg,
            log_payload,
            chunk_sums,
        }
    }

    /// Index of corpus file `path` (`<dir>/fNNNN`).
    fn file_index(path: &str) -> Option<usize> {
        path.rsplit_once("/f")?.1.parse().ok()
    }
}

impl Workload for TenantMix {
    fn iterate(&mut self, obs: &Observe) -> IterOut {
        let mut out = IterOut::default();
        let mut ph = Phases::new(obs);
        let (fs, fleet) = ph.time("corpus", || {
            let fs = paper_fs(&Timings::paper_platform());
            let fleet = fleet_over(&fs, &self.cfg);
            materialize_corpus(&fleet, &self.trace).expect("materialize corpus");
            for path in &self.trace.files {
                let _ = fs.read_whole(path, 0).expect("warm host cache");
            }
            fs.reset_device_time();
            (fs, fleet)
        });
        let host = fleet.host_for(0);
        host.set_tracing(obs.traced);
        let mount = fleet.mount(0);
        let (sessions, tenant_of) = (&self.trace.blocks[0], &self.trace.tenant_of[0]);
        for (slot, &t) in tenant_of.iter().enumerate() {
            mount.set_tenant(slot, t);
        }
        let blocks = sessions.len();
        let lag = self.trace.config.pace_lag_ns;
        let clock_board: Vec<AtomicU64> = (0..blocks).map(|_| AtomicU64::new(0)).collect();
        let logs = Logs::new(blocks);

        let timer = HostTimer::start();
        let res = ph.time_with("launch", |obs| {
            fleet.gpu(0).launch(Grid::new(blocks, 128), 0, |blk| {
                let me = blk.block_id();
                let mut log = logs.of(me);
                // Publish my clock and wait until no live block is more
                // than `lag` of virtual time behind me.
                let pace = |blk: &mut BlockCtx<'_>| loop {
                    let now = blk.now();
                    clock_board[me].store(now, Ordering::Release);
                    let behind = clock_board.iter().enumerate().any(|(s, c)| {
                        s != me && c.load(Ordering::Acquire).saturating_add(lag) < now
                    });
                    if !behind {
                        break;
                    }
                    std::thread::yield_now();
                };
                let victim = tenant_of[me] == VICTIM;
                let mut buf = vec![0u8; PAGE];
                for sess in &sessions[me] {
                    blk.wait_until(sess.arrival);
                    pace(blk);
                    log.extra[Extra::Lateness as usize].push(clamp_u32(blk.now() - sess.arrival));
                    let Some(fd) = log.call(obs, Call::Gopen, blk, |b| {
                        mount.open(b, &sess.path, sess.mode)
                    }) else {
                        continue;
                    };
                    let sums = Self::file_index(&sess.path).map(|f| &self.chunk_sums[f]);
                    for op in &sess.ops {
                        pace(blk);
                        let before = blk.now();
                        match *op {
                            Op::Read { offset, len } => {
                                let got = log.call(obs, Call::Gread, blk, |b| {
                                    mount.read(b, &fd, offset, &mut buf[..len])
                                });
                                let want = sums.map(|s| s[offset as usize / PAGE]);
                                if got.is_some()
                                    && (got != Some(len) || Some(checksum(&buf[..len])) != want)
                                {
                                    log.failed += 1;
                                }
                                log.bytes += got.unwrap_or(0) as u64;
                            }
                            Op::Write { offset, len } => {
                                let src = &self.log_payload[offset as usize..offset as usize + len];
                                let put = log.call(obs, Call::Gwrite, blk, |b| {
                                    mount.write(b, &fd, offset, src)
                                });
                                if put.is_some() && put != Some(len) {
                                    log.failed += 1;
                                }
                                log.bytes += put.unwrap_or(0) as u64;
                            }
                        }
                        if victim {
                            log.extra[Extra::Ops as usize].push(clamp_u32(blk.now() - before));
                        }
                    }
                    if sess.fsync {
                        log.call(obs, Call::Gfsync, blk, |b| mount.fsync(b, &fd));
                    }
                    pace(blk);
                    log.call(obs, Call::Gclose, blk, |b| mount.close(b, fd));
                    if victim {
                        log.extra[Extra::Session as usize]
                            .push(clamp_u32(blk.now() - sess.arrival));
                    }
                }
                // Park the clock: a finished block must never hold the
                // others' pacing line.
                clock_board[me].store(u64::MAX, Ordering::Release);
            })
        });
        out.timed = timer.stop();
        out.virt_ns = res.elapsed();
        logs.drain_into(&mut out);
        out.op_samples_override = Some(std::mem::take(&mut out.extra[Extra::Ops as usize]));

        ph.time("verify", || {
            for sess in sessions.iter().flatten().filter(|s| s.fsync) {
                let written: usize = sess.ops.len() * PAGE;
                if fs
                    .read_whole(&sess.path, 0)
                    .map(|(img, _)| img)
                    .ok()
                    .as_deref()
                    != Some(&self.log_payload[..written])
                {
                    out.failed += 1;
                }
            }
        });
        let counts = LocalCounts::read(&[mount], &[host]);
        fill_local_layers(&mut out.sheet, &counts, 1, &fs, out.virt_ns, out.bytes);
        if obs.traced {
            out.virt_spans = host.tracer().snapshot();
        }
        ph.finish(&mut out);
        out
    }
}
