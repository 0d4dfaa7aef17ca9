//! Trace-driven multi-tenant traffic: synthesizer + replayer (ROADMAP
//! item 2, the tail-latency axis).
//!
//! Every recorded GPUfs number so far is a single-workload throughput
//! sweep; this module measures what the paper's machinery — the RPC
//! layer, a daemon worker pool, a shared buffer cache (§4.2–§4.3) —
//! does to *tail* latency when many uncoordinated sessions contend:
//!
//! * [`synthesize_trace`] builds a deterministic, seedable trace: a
//!   generated file corpus with **Zipfian popularity**, **bursty on/off
//!   session arrivals** placed on the virtual clock, and mixed tenant
//!   classes ([`TenantClass::Scan`], [`TenantClass::PointLookup`],
//!   [`TenantClass::Logger`]). The same seed reproduces the same trace
//!   byte for byte.
//! * [`replay`] drives a [`GpuFleet`] with the trace — every threadblock
//!   replays its assigned sessions at their arrival times, paced by the
//!   same virtual clock board as [`crate::cluster`] so contention is
//!   arbitrated in virtual order, not by the OS thread race — and
//!   records per-request fault latency into per-tenant [`Histogram`]s
//!   (p50/p99/p999) plus a Jain fairness index.
//!
//! The per-tenant knobs under test live in `gpufs`:
//! `GpufsConfig::tenant_weights` (weighted RPC dispatch),
//! `tenant_admission` (in-flight caps), and `tenant_frame_quotas`
//! (cache partitioning). The replayer tags each block's slot with its
//! tenant via `GpuFsMount::set_tenant`, so those mechanisms see exactly
//! the traffic the trace describes.

use std::sync::Arc;

use gpufs::cluster::GpuFleet;
use gpufs::{GOpenMode, GpufsResult};
use gpusim::Grid;
use obs::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtime::{ClockBoard, Nanos};

/// Service class of one tenant's sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantClass {
    /// Read-heavy scan: each session streams a popular file sequentially
    /// in `op_bytes` chunks.
    Scan,
    /// Random-read point lookup: each session issues `ops_per_session`
    /// single-chunk reads at random offsets of a popular file.
    PointLookup,
    /// Write-heavy logger: each session appends `ops_per_session` chunks
    /// to its own fresh log file and fsyncs before closing.
    Logger,
}

/// Offered load of one tenant class.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// What the tenant's sessions do.
    pub class: TenantClass,
    /// Threadblocks dedicated to this tenant, dealt round-robin across
    /// the fleet's GPUs.
    pub blocks: usize,
    /// Sessions to synthesize for this tenant.
    pub sessions: usize,
    /// Mean virtual gap between session arrivals inside a burst.
    pub arrival_gap_ns: Nanos,
    /// Sessions per on-burst before the tenant goes quiet.
    pub burst_sessions: usize,
    /// Virtual quiet gap between bursts (0 = open-loop Poisson-ish).
    pub off_gap_ns: Nanos,
    /// Data operations per session.
    pub ops_per_session: usize,
    /// Restrict this tenant's file draws to the `hot_files` most popular
    /// ranks (`0` = the whole corpus). A point-lookup tenant serving a
    /// small hot index sets this to a handful, which gives it a resident
    /// working set a cache partition can actually protect.
    pub hot_files: usize,
}

impl TenantLoad {
    /// A small default load of `class`: useful as a starting point that
    /// callers override field by field.
    #[must_use]
    pub fn of(class: TenantClass) -> Self {
        Self {
            class,
            blocks: 2,
            sessions: 32,
            arrival_gap_ns: 50_000,
            burst_sessions: 8,
            off_gap_ns: 400_000,
            ops_per_session: 8,
            hot_files: 0,
        }
    }
}

/// Shape of a synthesized trace.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Seed of every random choice (popularity, offsets, jitter).
    pub seed: u64,
    /// Directory the corpus and log files live under.
    pub dir: String,
    /// Files in the read corpus.
    pub n_files: usize,
    /// Bytes per corpus file.
    pub file_bytes: u64,
    /// Zipf skew exponent of file popularity (0 = uniform; 1 ≈ classic
    /// web skew: rank-r file drawn with weight `1/r^s`).
    pub zipf_s: f64,
    /// Bytes per data operation (read or write chunk).
    pub op_bytes: usize,
    /// Pacing slack: how far (virtual ns) a block may run ahead of the
    /// slowest live block before waiting at the clock board. `0` is
    /// strict lock-step — fully deterministic, but requests reach the
    /// daemon one at a time in virtual order, so dispatch policy never
    /// gets a choice. A burst-sized window lets virtually-concurrent
    /// requests queue together at the hub (bounded skew, as on real
    /// hardware), which is what scheduling experiments need.
    pub pace_lag_ns: Nanos,
    /// The tenant mix.
    pub tenants: Vec<TenantLoad>,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            dir: "/traffic".into(),
            n_files: 64,
            file_bytes: 64 << 10,
            zipf_s: 1.0,
            op_bytes: 8 << 10,
            pace_lag_ns: 0,
            tenants: vec![
                TenantLoad::of(TenantClass::Scan),
                TenantLoad::of(TenantClass::PointLookup),
            ],
        }
    }
}

/// One data operation of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read `len` bytes at `offset`.
    Read {
        /// File offset of the read.
        offset: u64,
        /// Bytes to read.
        len: usize,
    },
    /// Write `len` bytes at `offset`.
    Write {
        /// File offset of the write.
        offset: u64,
        /// Bytes to write.
        len: usize,
    },
}

/// One open→operate→close session of the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// Tenant that issued the session.
    pub tenant: usize,
    /// Virtual arrival time: the replayer waits until this instant
    /// before opening (a late block just runs it back to back —
    /// backlog, as in a real replay).
    pub arrival: Nanos,
    /// Path of the file the session touches.
    pub path: String,
    /// Open mode ([`GOpenMode::ReadOnly`] for readers,
    /// [`GOpenMode::WriteOnce`] for logger sessions).
    pub mode: GOpenMode,
    /// Whether to `gfsync` before closing (logger sessions).
    pub fsync: bool,
    /// The session's data operations, in order.
    pub ops: Vec<Op>,
}

/// A synthesized trace: corpus + per-block session scripts.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The config the trace was synthesized from.
    pub config: TrafficConfig,
    /// Corpus file paths (rank order: `files[0]` is the most popular).
    pub files: Vec<String>,
    /// `blocks[gpu][slot]` = the session list block `slot` of GPU `gpu`
    /// replays, sorted by arrival.
    pub blocks: Vec<Vec<Vec<Session>>>,
    /// `tenant_of[gpu][slot]` = tenant the block is dedicated to.
    pub tenant_of: Vec<Vec<usize>>,
}

impl Trace {
    /// Total sessions across all blocks.
    #[cfg(test)]
    #[must_use]
    pub fn num_sessions(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|g| g.iter().map(Vec::len))
            .sum()
    }
}

/// Synthesize the deterministic trace `cfg` describes for an `n_gpus`
/// fleet: Zipf-popular corpus, bursty per-tenant arrivals, per-class op
/// scripts, sessions dealt round-robin over each tenant's blocks.
///
/// # Panics
///
/// Panics on an empty tenant mix, zero blocks/files, or `op_bytes = 0`.
#[must_use]
pub fn synthesize_trace(cfg: &TrafficConfig, n_gpus: usize) -> Trace {
    assert!(n_gpus > 0, "need at least one GPU");
    assert!(!cfg.tenants.is_empty(), "need at least one tenant");
    assert!(cfg.n_files > 0 && cfg.op_bytes > 0, "degenerate corpus");
    let files: Vec<String> = (0..cfg.n_files)
        .map(|i| format!("{}/f{i:04}", cfg.dir))
        .collect();
    // Zipf inverse-CDF table over popularity ranks.
    let mut cum: Vec<f64> = Vec::with_capacity(cfg.n_files);
    let mut acc = 0.0f64;
    for rank in 1..=cfg.n_files {
        acc += 1.0 / (rank as f64).powf(cfg.zipf_s);
        cum.push(acc);
    }

    // Dedicate each tenant's blocks round-robin across GPUs first, so
    // block slots are stable no matter the tenant mix order.
    let mut tenant_of: Vec<Vec<usize>> = vec![Vec::new(); n_gpus];
    let mut home: Vec<Vec<(usize, usize)>> = Vec::new(); // per tenant: (gpu, slot)
    for (t, load) in cfg.tenants.iter().enumerate() {
        assert!(load.blocks > 0, "tenant {t} has no blocks");
        let mut slots = Vec::with_capacity(load.blocks);
        for b in 0..load.blocks {
            let gpu = b % n_gpus;
            slots.push((gpu, tenant_of[gpu].len()));
            tenant_of[gpu].push(t);
        }
        home.push(slots);
    }
    let mut blocks: Vec<Vec<Vec<Session>>> = tenant_of
        .iter()
        .map(|g| vec![Vec::new(); g.len()])
        .collect();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Zipf draw, optionally truncated to a tenant's `hot_files` top
    // ranks (the truncated cumulative table renormalizes itself).
    let zipf = |rng: &mut StdRng, hot: usize| -> usize {
        let k = if hot == 0 {
            cfg.n_files
        } else {
            hot.min(cfg.n_files)
        };
        let u: f64 = rng.gen_range(0.0..cum[k - 1]);
        cum[..k].partition_point(|&c| c < u).min(k - 1)
    };
    let pages = |bytes: u64, op: usize| (bytes / op.max(1) as u64).max(1);

    for (t, load) in cfg.tenants.iter().enumerate() {
        let mut clock: Nanos = 0;
        let mut in_burst = 0usize;
        for s in 0..load.sessions {
            if load.burst_sessions > 0 && in_burst == load.burst_sessions {
                // Off period: the tenant goes quiet, with ±50% jitter so
                // bursts of different tenants don't phase-lock.
                let jitter = rng.gen_range(0.5..1.5);
                clock += (load.off_gap_ns as f64 * jitter) as Nanos;
                in_burst = 0;
            }
            let jitter = rng.gen_range(0.5..1.5);
            clock += (load.arrival_gap_ns as f64 * jitter) as Nanos;
            in_burst += 1;

            let (path, mode, fsync, ops) = match load.class {
                TenantClass::Scan => {
                    let file = zipf(&mut rng, load.hot_files);
                    let n = load
                        .ops_per_session
                        .min(pages(cfg.file_bytes, cfg.op_bytes) as usize)
                        .max(1);
                    let ops = (0..n)
                        .map(|k| Op::Read {
                            offset: (k * cfg.op_bytes) as u64,
                            len: cfg.op_bytes,
                        })
                        .collect();
                    (files[file].clone(), GOpenMode::ReadOnly, false, ops)
                }
                TenantClass::PointLookup => {
                    let file = zipf(&mut rng, load.hot_files);
                    let span = pages(cfg.file_bytes, cfg.op_bytes);
                    let ops = (0..load.ops_per_session.max(1))
                        .map(|_| Op::Read {
                            offset: rng.gen_range(0..span) * cfg.op_bytes as u64,
                            len: cfg.op_bytes,
                        })
                        .collect();
                    (files[file].clone(), GOpenMode::ReadOnly, false, ops)
                }
                TenantClass::Logger => {
                    let ops = (0..load.ops_per_session.max(1))
                        .map(|k| Op::Write {
                            offset: (k * cfg.op_bytes) as u64,
                            len: cfg.op_bytes,
                        })
                        .collect();
                    let path = format!("{}/log_t{t}_s{s:05}", cfg.dir);
                    (path, GOpenMode::WriteOnce, true, ops)
                }
            };
            let (gpu, slot) = home[t][s % home[t].len()];
            blocks[gpu][slot].push(Session {
                tenant: t,
                arrival: clock,
                path,
                mode,
                fsync,
                ops,
            });
        }
    }
    for g in &mut blocks {
        for b in g.iter_mut() {
            b.sort_by_key(|s| s.arrival);
        }
    }
    Trace {
        config: cfg.clone(),
        files,
        blocks,
        tenant_of,
    }
}

/// Tail-latency digest of one tenant after a replay.
#[derive(Debug, Clone)]
pub struct TenantTail {
    /// Requests completed (opens + data ops + closes).
    pub ops: u64,
    /// Bytes moved by the tenant's data ops.
    pub bytes: u64,
    /// Median request latency (virtual ns).
    pub p50: u64,
    /// 99th-percentile request latency (virtual ns).
    pub p99: u64,
    /// 99.9th-percentile request latency (virtual ns).
    pub p999: u64,
    /// Mean request latency (virtual ns).
    pub mean: f64,
    /// Worst request latency (virtual ns).
    pub max: u64,
}

/// Outcome of [`replay`].
#[derive(Debug, Clone)]
pub struct TrafficOutcome {
    /// Virtual end time of the slowest GPU.
    pub elapsed: Nanos,
    /// Per-tenant tail digests, indexed by tenant id.
    pub per_tenant: Vec<TenantTail>,
    /// Jain fairness index over per-tenant mean *service rates*
    /// (completed requests per virtual second): 1 = perfectly even,
    /// `1/n` = one tenant served exclusively.
    pub fairness: f64,
    /// Total requests completed.
    pub total_ops: u64,
    /// Total bytes moved by data ops.
    pub total_bytes: u64,
    /// Aggregate data throughput in MB/s of virtual time.
    pub throughput_mb_s: f64,
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` (1 for an empty or uniform
/// population).
#[must_use]
fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 == 0.0 {
        1.0
    } else {
        s * s / (xs.len() as f64 * s2)
    }
}

/// Create the read corpus `trace` expects on `fleet`'s host file system
/// (deterministic synthetic content, seeded per file).
///
/// # Errors
///
/// Propagates host-FS errors (out of memory, duplicate create).
pub fn materialize_corpus(fleet: &GpuFleet, trace: &Trace) -> GpufsResult<()> {
    fleet
        .fs()
        .mkdir_p(&trace.config.dir)
        .map_err(gpufs::GpufsError::Host)?;
    for (i, path) in trace.files.iter().enumerate() {
        fleet
            .fs()
            .create_synthetic(path, trace.config.file_bytes, trace.config.seed ^ i as u64)
            .map_err(gpufs::GpufsError::Host)?;
    }
    Ok(())
}

/// Replay `trace` against `fleet`, one OS thread per GPU, one launched
/// threadblock per trace block, paced on the shared virtual clock board
/// (see [`crate::cluster`] for why un-paced replay measures the OS
/// scheduler instead of the virtual timeline). Each block tags its slot
/// with its tenant, waits for each session's arrival, executes the
/// session, and records one latency sample per request (open, data op,
/// close) into its tenant's histogram.
///
/// # Errors
///
/// Propagates the first GPUfs error any session hits.
///
/// # Panics
///
/// Panics if `trace` names more GPUs than `fleet` has.
pub fn replay(fleet: &GpuFleet, trace: &Trace) -> GpufsResult<TrafficOutcome> {
    assert!(
        trace.blocks.len() <= fleet.len(),
        "trace spans {} GPUs, fleet has {}",
        trace.blocks.len(),
        fleet.len()
    );
    let n_gpus = trace.blocks.len();
    let n_tenants = trace.config.tenants.len();

    let block_base: Vec<usize> = (0..n_gpus)
        .scan(0usize, |acc, g| {
            let base = *acc;
            *acc += trace.blocks[g].len();
            Some(base)
        })
        .collect();
    let total_blocks: usize = trace.blocks.iter().map(Vec::len).sum();
    let board = ClockBoard::new(total_blocks);
    let failure: parking_lot::Mutex<Option<gpufs::GpufsError>> = parking_lot::Mutex::new(None);
    // Per-block histogram + byte counter, merged per tenant after the
    // join: blocks never share a sample sink, so recording needs no lock.
    let sinks: parking_lot::Mutex<Vec<(usize, Histogram, u64)>> =
        parking_lot::Mutex::new(Vec::new());

    let per_gpu_elapsed: Vec<Nanos> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_gpus)
            .map(|g| {
                let mount = Arc::clone(fleet.mount(g));
                let gpu = Arc::clone(fleet.gpu(g));
                let (board, block_base) = (&board, &block_base);
                let (failure, sinks) = (&failure, &sinks);
                s.spawn(move || {
                    let blocks = trace.blocks[g].len();
                    if blocks == 0 {
                        return 0;
                    }
                    for (slot, &t) in trace.tenant_of[g].iter().enumerate() {
                        mount.set_tenant(slot, t);
                    }
                    let res = gpu.launch(Grid::new(blocks, 128), 0, |blk| {
                        let my_slot = block_base[g] + blk.block_id();
                        // Parks the block's clock however it exits, so a
                        // finished (or failed) block never holds the
                        // fleet's pacing line.
                        let _seat = board.seat(my_slot);
                        let sessions = &trace.blocks[g][blk.block_id()];
                        let tenant = trace.tenant_of[g][blk.block_id()];
                        let mut hist = Histogram::new();
                        let mut bytes = 0u64;
                        let lag = trace.config.pace_lag_ns;
                        let pace = |blk: &mut gpusim::BlockCtx<'_>| {
                            board.pace(my_slot, blk.now(), lag);
                        };
                        let mut work = |blk: &mut gpusim::BlockCtx<'_>| -> GpufsResult<()> {
                            let mut buf = vec![0u8; trace.config.op_bytes];
                            for sess in sessions {
                                blk.wait_until(sess.arrival);
                                pace(blk);
                                let t0 = blk.now();
                                let fd = mount.open(blk, &sess.path, sess.mode)?;
                                hist.record(blk.now() - t0);
                                for op in &sess.ops {
                                    pace(blk);
                                    let t0 = blk.now();
                                    match *op {
                                        Op::Read { offset, len } => {
                                            let n =
                                                mount.read(blk, &fd, offset, &mut buf[..len])?;
                                            bytes += n as u64;
                                        }
                                        Op::Write { offset, len } => {
                                            mount.write(blk, &fd, offset, &buf[..len])?;
                                            bytes += len as u64;
                                        }
                                    }
                                    hist.record(blk.now() - t0);
                                }
                                if sess.fsync {
                                    mount.fsync(blk, &fd)?;
                                }
                                pace(blk);
                                let t0 = blk.now();
                                mount.close(blk, fd)?;
                                hist.record(blk.now() - t0);
                            }
                            Ok(())
                        };
                        if let Err(e) = work(blk) {
                            failure.lock().get_or_insert(e);
                        }
                        sinks.lock().push((tenant, hist, bytes));
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

    let mut hists: Vec<Histogram> = (0..n_tenants).map(|_| Histogram::new()).collect();
    let mut bytes: Vec<u64> = vec![0; n_tenants];
    for (t, h, b) in sinks.into_inner() {
        hists[t].merge(&h);
        bytes[t] += b;
    }
    let elapsed = per_gpu_elapsed.iter().copied().max().unwrap_or(0).max(1);
    let per_tenant: Vec<TenantTail> = hists
        .iter()
        .zip(&bytes)
        .map(|(h, &b)| TenantTail {
            ops: h.count(),
            bytes: b,
            p50: h.quantile(0.50),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            mean: h.mean(),
            max: h.max(),
        })
        .collect();
    let rates: Vec<f64> = per_tenant
        .iter()
        .map(|t| t.ops as f64 / elapsed as f64)
        .collect();
    let total_ops = per_tenant.iter().map(|t| t.ops).sum();
    let total_bytes = bytes.iter().sum();
    Ok(TrafficOutcome {
        elapsed,
        fairness: jain_index(&rates),
        per_tenant,
        total_ops,
        total_bytes,
        throughput_mb_s: total_bytes as f64 / (1 << 20) as f64 / (elapsed as f64 / 1e9),
    })
}

/// Synthesize, materialize, and replay in one call.
///
/// # Errors
///
/// Propagates corpus-creation and replay errors.
pub fn run_traffic(fleet: &GpuFleet, cfg: &TrafficConfig) -> GpufsResult<TrafficOutcome> {
    let trace = synthesize_trace(cfg, fleet.len());
    materialize_corpus(fleet, &trace)?;
    replay(fleet, &trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpufs::cluster::FleetBuilder;
    use gpufs::GpufsConfig;
    use gpusim::GpuSpec;

    fn small_cfg() -> TrafficConfig {
        TrafficConfig {
            seed: 7,
            n_files: 8,
            file_bytes: 32 << 10,
            op_bytes: 4 << 10,
            tenants: vec![
                TenantLoad {
                    blocks: 2,
                    sessions: 6,
                    ops_per_session: 4,
                    ..TenantLoad::of(TenantClass::Scan)
                },
                TenantLoad {
                    blocks: 2,
                    sessions: 6,
                    ops_per_session: 4,
                    ..TenantLoad::of(TenantClass::PointLookup)
                },
                TenantLoad {
                    blocks: 1,
                    sessions: 3,
                    ops_per_session: 4,
                    ..TenantLoad::of(TenantClass::Logger)
                },
            ],
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn traces_are_deterministic_and_complete() {
        let cfg = small_cfg();
        let a = synthesize_trace(&cfg, 2);
        let b = synthesize_trace(&cfg, 2);
        assert_eq!(a.blocks, b.blocks, "same seed, same trace");
        assert_eq!(a.num_sessions(), 15, "every session dealt to a block");
        // Arrivals are sorted per block and sessions carry their tenant.
        for (g, gpu) in a.blocks.iter().enumerate() {
            for (s, block) in gpu.iter().enumerate() {
                assert!(block.windows(2).all(|w| w[0].arrival <= w[1].arrival));
                assert!(block.iter().all(|x| x.tenant == a.tenant_of[g][s]));
            }
        }
        let c = synthesize_trace(
            &TrafficConfig {
                seed: 8,
                ..cfg.clone()
            },
            2,
        );
        assert_ne!(a.blocks, c.blocks, "different seed, different trace");
    }

    #[test]
    fn zipf_skews_popularity_toward_low_ranks() {
        let cfg = TrafficConfig {
            n_files: 32,
            zipf_s: 1.2,
            tenants: vec![TenantLoad {
                sessions: 400,
                ..TenantLoad::of(TenantClass::PointLookup)
            }],
            ..TrafficConfig::default()
        };
        let trace = synthesize_trace(&cfg, 1);
        let top: Vec<&str> = trace.files[..4].iter().map(String::as_str).collect();
        let hits = trace.blocks[0]
            .iter()
            .flatten()
            .filter(|s| top.contains(&s.path.as_str()))
            .count();
        assert!(
            hits > 160,
            "top 4 of 32 files must draw well over uniform share (got {hits}/400)"
        );
    }

    // The histogram's own quantile/merge tests live with the type in
    // `obs::hist`; here it is only re-exported.

    #[test]
    fn jain_index_ranges() {
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert!((jain_index(&[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replay_serves_every_session_and_attributes_tenants() {
        let fleet = FleetBuilder::new(2)
            .spec(GpuSpec::small_test())
            .config(GpufsConfig::new(4 << 10, 1 << 20))
            .build()
            .unwrap();
        let cfg = small_cfg();
        let out = run_traffic(&fleet, &cfg).unwrap();
        // Every session contributes open + ops + close samples.
        let expected: u64 = synthesize_trace(&cfg, 2)
            .blocks
            .iter()
            .flatten()
            .flatten()
            .map(|s| 2 + s.ops.len() as u64)
            .sum();
        assert_eq!(out.total_ops, expected);
        assert_eq!(out.per_tenant.len(), 3);
        assert!(out.per_tenant.iter().all(|t| t.ops > 0));
        assert!(out.per_tenant.iter().all(|t| t.p50 <= t.p99));
        assert!(out.per_tenant.iter().all(|t| t.p99 <= t.p999));
        assert!(out.fairness > 0.0 && out.fairness <= 1.0);
        assert!(out.elapsed > 0 && out.throughput_mb_s > 0.0);
        // The logger tenant moved write bytes.
        assert_eq!(out.per_tenant[2].bytes, 3 * 4 * (4 << 10));
    }
}
