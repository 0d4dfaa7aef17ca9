//! GPU→CPU remote procedure calls (paper §4.3).
//!
//! The GPU is the *client*: threadblocks post requests into FIFO queues
//! in write-shared memory and spin until the host daemon acknowledges
//! completion — reversing the usual GPU-as-coprocessor roles. The host
//! cannot be signalled (no GPU-initiated interrupts, no PCIe atomics), so
//! the daemon polls.
//!
//! In this simulator that exchange costs what it costs in *virtual* time
//! only. `RpcHub::call` serves the request on the calling threadblock's
//! own thread, through the daemon's one serve path, and charges the
//! poll-notice latency on arrival, the dispatch on the daemon's worker
//! pool, and the completion-visibility latency on the way back. The
//! daemon's workers are a [`simtime::WorkerPool`] of `daemon_workers`
//! servers, so what each request waits for is decided there. No worker
//! thread, request queue or reply channel stands between a block and its
//! answer: a block waits only at a `Gate` — for a turn, which paces the
//! real threads the way the daemon's worker threads once did, and for
//! its tenant's admission slot if the tenant is capped. A freed turn or
//! slot goes to the waiting block whose request was issued earliest in
//! virtual time, as the daemon polling the paper's queue would find it;
//! a free one, and a block not yet waiting, still go in real order. This
//! is the shape of a synchronous device call made in the caller's
//! context, like rCore's `Device::read_at` (SNIPPETS.md №3).
//!
//! ## Multi-tenancy
//!
//! Every request carries a [`TenantId`] — a small integer naming the
//! service class of the session that issued it. Three per-tenant
//! mechanisms hang off it, all off by default (empty vectors in
//! [`crate::GpufsConfig`]), and all decided in virtual time:
//!
//! * **Weighted service** (`tenant_weights`): the daemon's worker pool
//!   shares its servers by start-time fair queueing keyed by tenant
//!   ([`simtime::WorkerPool::weighted`]), so a bursty tenant's backlog
//!   does not queue a light tenant's requests behind it.
//! * **Admission control** (`tenant_admission`): a tenant may have at most
//!   its cap of requests unfinished at any virtual instant. A request
//!   that would exceed it starts when the tenant's earliest unfinished
//!   request completes, and counts one [`RpcHub::tenant_stalls`].
//!   Admission goes in issue order: a freed slot goes to the waiting
//!   request issued earliest.
//! * Cache partitioning lives client-side (see `cache/reclaim.rs`), not
//!   here.
//!
//! ## Shutdown
//!
//! Closing the hub is one flag. A call that finds it set fails with
//! [`GpufsError::DaemonStopped`]; a call already past the check is served
//! to completion on its own thread. No threadblock can be left waiting on
//! a request nobody will answer, because nobody but the caller answers.

use std::sync::atomic::{AtomicBool, Ordering};

use gpusim::{DevPtr, GpuId};
use hostfs::{FsError, HostFd, Ino};
use parking_lot::Mutex;
use simtime::{ClockBoard, Nanos, Timings};

use crate::error::{GpufsError, GpufsResult};

/// Service class of one GPUfs session. Tenant ids index the
/// `tenant_weights` / `tenant_admission` / `tenant_frame_quotas` vectors
/// of [`crate::GpufsConfig`]. An id is clamped once, where it enters:
/// [`crate::GpuFsMount::set_tenant`] maps one past the configured tenant
/// count to the last tenant. Every layer below indexes by it directly,
/// and the per-tenant readers panic past the count.
pub type TenantId = usize;

/// One page descriptor inside a [`Request::ReadPages`] batch.
#[derive(Debug, Clone, Copy)]
pub struct PageRead {
    /// File offset of the page.
    pub offset: u64,
    /// Bytes to read (one buffer-cache page or less).
    pub len: usize,
    /// Destination frame in GPU global memory.
    pub dst: DevPtr,
}

/// One page descriptor inside a [`Request::WritePages`] batch: the dirty
/// byte extents of one buffer-cache page, produced by the GPU-side diff
/// (against the pristine copy, or against zeros for `O_GWRONCE` files),
/// so only modified bytes travel (paper §3.1).
#[derive(Debug, Clone)]
pub struct PageWrite {
    /// Source frame in GPU global memory (page base).
    pub src: DevPtr,
    /// File offset of the page start.
    pub page_offset: u64,
    /// Modified extents, as `(offset_in_page, len)` pairs.
    pub extents: Vec<(u32, u32)>,
}

/// A metadata operation: the half of the request boundary that names a
/// file, not its pages. The hub, the daemon's storage seam and the wire
/// all carry it as it is, and it is answered by a [`MetaOk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaOp {
    /// Open (and possibly create) a host file.
    Open {
        /// Absolute path on the host file system.
        path: String,
        /// Whether the GPU open mode implies write access.
        write: bool,
        /// Create the file if missing.
        create: bool,
        /// Truncate on open.
        truncate: bool,
    },
    /// Close a host descriptor.
    Close {
        /// Host descriptor from a previous [`MetaOp::Open`].
        fd: HostFd,
    },
    /// Flush the host file to stable storage.
    Fsync {
        /// Host descriptor.
        fd: HostFd,
    },
    /// Remove a file from the host namespace.
    Unlink {
        /// Absolute path.
        path: String,
    },
    /// Truncate the host file.
    Truncate {
        /// Host descriptor.
        fd: HostFd,
        /// New size in bytes.
        size: u64,
    },
    /// Query file metadata by path.
    Stat {
        /// Absolute path.
        path: String,
    },
}

impl MetaOp {
    /// The op's name, then its span names at the hub, the daemon and the
    /// storage server (span labels are `&'static str`, so each prefix is
    /// baked per op).
    pub(crate) fn names(&self) -> [&'static str; 4] {
        match self {
            MetaOp::Open { .. } => ["Open", "rpc:Open", "serve:Open", "server:Open"],
            MetaOp::Close { .. } => ["Close", "rpc:Close", "serve:Close", "server:Close"],
            MetaOp::Fsync { .. } => ["Fsync", "rpc:Fsync", "serve:Fsync", "server:Fsync"],
            MetaOp::Unlink { .. } => ["Unlink", "rpc:Unlink", "serve:Unlink", "server:Unlink"],
            MetaOp::Truncate { .. } => [
                "Truncate",
                "rpc:Truncate",
                "serve:Truncate",
                "server:Truncate",
            ],
            MetaOp::Stat { .. } => ["Stat", "rpc:Stat", "serve:Stat", "server:Stat"],
        }
    }

    /// Whether `ok` is the shape of answer this op gets: `Opened` for an
    /// open, `Stat` for a stat, `Done` for the rest.
    pub(crate) fn fits(&self, ok: &MetaOk) -> bool {
        match self {
            MetaOp::Open { .. } => matches!(ok, MetaOk::Opened { .. }),
            MetaOp::Stat { .. } => matches!(ok, MetaOk::Stat { .. }),
            _ => matches!(ok, MetaOk::Done),
        }
    }
}

/// The answer to a [`MetaOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaOk {
    /// Result of [`MetaOp::Open`].
    Opened {
        /// Host descriptor for subsequent data requests.
        fd: HostFd,
        /// Host inode number (keys the closed-file table).
        ino: Ino,
        /// File size at open time (fixed for the whole GPU open, paper
        /// Table 1: `gfstat` reflects size at first `gopen`).
        size: u64,
        /// Host consistency generation at open time.
        generation: u64,
    },
    /// Metadata from [`MetaOp::Stat`].
    Stat {
        /// Inode number.
        ino: Ino,
        /// Size in bytes.
        size: u64,
        /// Whether the file is writable at host level.
        writable: bool,
        /// Host consistency generation (the lazy-invalidation probe that
        /// the WRAPFS character device answers in the paper, §4.4).
        generation: u64,
    },
    /// Operation with no payload completed.
    Done,
}

/// A request from a GPU threadblock to the host daemon.
#[derive(Debug, Clone)]
pub enum Request {
    /// A metadata operation.
    Meta(MetaOp),
    /// Read a batch of pages of one file into GPU memory in a single
    /// daemon round-trip: the daemon preads every descriptor into staging
    /// and ships the whole batch with *one* scatter-gather DMA charge.
    /// A single page miss is the batch of one; readahead widens the batch
    /// so host round-trips amortize over many pages (paper Fig. 4's
    /// pread/DMA pipelining, taken one step further).
    ReadPages {
        /// Host descriptor.
        fd: HostFd,
        /// Pages to fetch, in ascending file order.
        pages: Vec<PageRead>,
        /// Which GPU's DMA engine to use.
        gpu: GpuId,
    },
    /// Write the dirty extents of a batch of pages of one file back to
    /// the host in a single daemon round-trip: all extents are gathered
    /// with *one* scatter-gather D2H DMA charge, then written to the host
    /// file. The write-back mirror of [`Request::ReadPages`] — a single
    /// page sync is the batch of one; `gfsync`/eviction widen the batch
    /// (the paper's diff-based *bulk* write-back, §3.1/§4.3).
    WritePages {
        /// Host descriptor.
        fd: HostFd,
        /// Pages to write back, in ascending file order.
        pages: Vec<PageWrite>,
        /// Which GPU's DMA engine to use.
        gpu: GpuId,
    },
}

impl Request {
    /// The client-side span name for this request's round-trip.
    pub(crate) fn rpc_span_name(&self) -> &'static str {
        match self {
            Request::Meta(op) => op.names()[1],
            Request::ReadPages { .. } => "rpc:ReadPages",
            Request::WritePages { .. } => "rpc:WritePages",
        }
    }

    /// The daemon-side span name for serving this request.
    pub(crate) fn serve_span_name(&self) -> &'static str {
        match self {
            Request::Meta(op) => op.names()[2],
            Request::ReadPages { .. } => "serve:ReadPages",
            Request::WritePages { .. } => "serve:WritePages",
        }
    }
}

/// Successful response payloads.
#[derive(Debug, Clone)]
pub enum RespOk {
    /// The answer to a [`Request::Meta`].
    Meta(MetaOk),
    /// Per-page byte counts transferred by a [`Request::ReadPages`] batch.
    Read {
        /// Bytes actually read per descriptor, in request order (short at
        /// EOF).
        ns: Vec<usize>,
    },
    /// Bytes written back.
    Wrote {
        /// Bytes written.
        n: usize,
        /// Host consistency generation after the writes (lets the GPU's
        /// cache track its own propagated changes).
        generation: u64,
    },
}

/// What a request's answer is: the response and the virtual time the
/// daemon finished with it.
pub(crate) type Served = (Result<RespOk, FsError>, Nanos);

/// The daemon's serve path as the hub calls it: `(request, tenant, gpu,
/// issue time)`. It runs on the calling thread.
type ServeFn = dyn Fn(&Request, TenantId, GpuId, Nanos) -> Served + Send + Sync;

/// At most `k` calls hold a slot at once. A freed slot goes to the
/// waiting caller whose request was issued earliest in virtual time (the
/// earlier arrival on a tie) — the paper's polled queue (§4.3) among the
/// callers that queue here — and a free slot to whoever asks. Each slot
/// remembers the virtual time it frees at, and a call that takes it starts
/// no earlier. The hub keeps one gate for the daemon's turns and one per
/// capped tenant; ARCHITECTURE.md ("RPC layer") says why.
#[derive(Debug)]
struct Gate {
    slots: Mutex<Slots>,
    /// Callers waiting for a slot, by issue time. A freed slot is handed
    /// over with [`ClockBoard::notify_first`]: a caller it picked holds it.
    waiting: ClockBoard,
}

#[derive(Debug)]
struct Slots {
    /// Free slots, each the virtual time it frees at.
    free: Vec<Nanos>,
    /// Slots handed to waiters that have not yet woken to claim them.
    /// When several wait here, the first waiter to wake takes the one
    /// that frees first, whichever pass picked it.
    handed: Vec<Nanos>,
}

impl Gate {
    fn new(k: usize) -> Self {
        Self {
            slots: Mutex::new(Slots {
                free: vec![0; k],
                handed: Vec::new(),
            }),
            waiting: ClockBoard::new(0),
        }
    }

    /// Take a slot for a request issued at `issue`, waiting for one to be
    /// freed if all are held. Returns when the request may start — later
    /// than `issue` if the slot frees later — and the pass holding the
    /// slot, which frees at virtual time 0 unless its holder says when.
    fn take(&self, issue: Nanos) -> (Nanos, Pass<'_>) {
        let mut slots = self.slots.lock();
        let frees_at = match earliest(&mut slots.free) {
            Some(at) => at,
            None => {
                let waiter = self.waiting.waiter(issue);
                drop(slots);
                while !waiter.wait(|| false) {}
                // The pass that picked this waiter left its slot here.
                earliest(&mut self.slots.lock().handed).unwrap_or_default()
            }
        };
        let pass = Pass {
            gate: self,
            frees_at: 0,
        };
        (issue.max(frees_at), pass)
    }
}

/// Take the earliest of `times` out.
fn earliest(times: &mut Vec<Nanos>) -> Option<Nanos> {
    let (i, _) = times.iter().enumerate().min_by_key(|&(_, at)| at)?;
    Some(times.swap_remove(i))
}

/// One call's slot at a [`Gate`]; dropping it frees the slot at
/// `frees_at`, straight to the earliest-issued waiter if there is one.
struct Pass<'a> {
    gate: &'a Gate,
    frees_at: Nanos,
}

impl Drop for Pass<'_> {
    fn drop(&mut self) {
        let mut slots = self.gate.slots.lock();
        if self.gate.waiting.notify_first() {
            slots.handed.push(self.frees_at);
        } else {
            slots.free.push(self.frees_at);
        }
    }
}

/// The hub between the GPUs' threadblocks and the host daemon.
///
/// One hub serves all GPUs of a host. A call runs the daemon's serve path
/// on the calling thread (see the module docs), so one block's requests
/// are FIFO because they are synchronous, and different blocks' requests
/// meet in the daemon's virtual-time resources.
pub struct RpcHub {
    serve: Box<ServeFn>,
    /// Turns at the daemon: one per worker, never fewer than two. A turn
    /// records no time, so it never delays a request in virtual time.
    turns: Gate,
    /// Per-tenant admission caps, a slot per request the tenant may have
    /// unfinished at once; `None` = unlimited.
    admission: Vec<Option<Gate>>,
    /// Calls that started later than issued because of their tenant's
    /// cap, per tenant.
    stalls: Vec<obs::Counter>,
    closed: AtomicBool,
}

impl std::fmt::Debug for RpcHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcHub")
            .field("tenants", &self.stalls.len())
            .field("admission", &self.admission)
            .field("closed", &self.closed)
            .finish_non_exhaustive()
    }
}

impl RpcHub {
    /// An open hub over the daemon's serve path `serve` for a daemon of
    /// `workers` workers, distinguishing `tenants` tenant classes, with
    /// per-tenant admission caps (`0`/missing = unlimited).
    pub(crate) fn new(
        workers: usize,
        tenants: usize,
        admission: &[usize],
        serve: impl Fn(&Request, TenantId, GpuId, Nanos) -> Served + Send + Sync + 'static,
    ) -> Self {
        Self {
            serve: Box::new(serve),
            turns: Gate::new(workers.max(2)),
            admission: (0..tenants)
                .map(|t| match admission.get(t) {
                    Some(&cap) if cap > 0 => Some(Gate::new(cap)),
                    _ => None,
                })
                .collect(),
            stalls: (0..tenants).map(|_| obs::Counter::new()).collect(),
            closed: AtomicBool::new(false),
        }
    }

    /// Number of tenant classes this hub distinguishes (≥ 1).
    #[must_use]
    pub fn num_tenants(&self) -> usize {
        self.stalls.len()
    }

    /// Calls of `tenant` whose start its admission cap delayed.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is not below [`RpcHub::num_tenants`].
    #[must_use]
    pub fn tenant_stalls(&self, tenant: TenantId) -> u64 {
        self.stalls[tenant].get()
    }

    /// Serve a request from `tenant` on GPU `gpu` on the calling thread.
    ///
    /// `issue` is the client's virtual time when it posted the request.
    /// The returned time is when the completion became visible to the GPU.
    pub(crate) fn call(
        &self,
        tenant: TenantId,
        gpu: GpuId,
        issue: Nanos,
        timings: &Timings,
        req: Request,
    ) -> GpufsResult<(RespOk, Nanos)> {
        if self.closed.load(Ordering::Acquire) {
            return Err(GpufsError::DaemonStopped);
        }
        debug_assert!(tenant < self.num_tenants(), "set_tenant clamps every id");
        // The round-trip runs the host's side of the request, which takes
        // the host file system's locks; a shim lock held across it stalls
        // every thread that wants that lock for a full host round-trip.
        // Lockcheck flags exactly that.
        let (result, visible) = parking_lot::lockcheck::blocking_region("rpc-roundtrip", || {
            // A capped tenant's slot frees when its call's completion is
            // visible; an uncapped call takes no admission lock at all.
            let (start, mut admitted) = match &self.admission[tenant] {
                Some(gate) => {
                    let (start, pass) = gate.take(issue);
                    if start > issue {
                        self.stalls[tenant].incr();
                    }
                    (start, Some(pass))
                }
                None => (issue, None),
            };
            let (_, turn) = self.turns.take(start);
            let (result, end) = (self.serve)(&req, tenant, gpu, start);
            drop(turn);
            let visible = end + timings.rpc_complete_ns;
            if let Some(pass) = &mut admitted {
                pass.frees_at = visible;
            }
            (result, visible)
        });
        match result {
            Ok(ok) => Ok((ok, visible)),
            Err(e) => Err(GpufsError::Host(e)),
        }
    }

    /// Close the hub: every later call fails with
    /// [`GpufsError::DaemonStopped`]. Calls already being served finish.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Condvar;
    use std::sync::Arc;

    /// A hub whose serve path answers `Done` 100 ns after it starts.
    fn fake_hub(tenants: usize, admission: &[usize]) -> RpcHub {
        RpcHub::new(1, tenants, admission, |_, _, _, start| {
            (Ok(RespOk::Meta(MetaOk::Done)), start + 100)
        })
    }

    #[test]
    fn call_roundtrips_through_a_fake_daemon() {
        let hub = fake_hub(1, &[]);
        let t = Timings::default();
        let (ok, visible) = hub
            .call(0, 0, 1_000, &t, Request::Meta(MetaOp::Fsync { fd: 3 }))
            .expect("call should succeed");
        assert!(matches!(ok, RespOk::Meta(MetaOk::Done)));
        assert_eq!(visible, 1_100 + t.rpc_complete_ns);
    }

    #[test]
    fn tenancy_defaults_reproduce_the_fair_hub() {
        // No caps: every call starts when issued, whatever else is in
        // flight, and nothing ever stalls.
        let hub = RpcHub::new(1, 1, &[], |_, tenant, _, start| {
            assert_eq!(tenant, 0);
            (Ok(RespOk::Meta(MetaOk::Done)), start)
        });
        assert_eq!(hub.num_tenants(), 1);
        let t = Timings::default();
        for issue in [0, 0, 5, 5, 3] {
            let (_, visible) = hub
                .call(0, 0, issue, &t, Request::Meta(MetaOp::Fsync { fd: 1 }))
                .unwrap();
            assert_eq!(visible, issue + t.rpc_complete_ns);
        }
        assert_eq!(hub.tenant_stalls(0), 0);
    }

    #[test]
    fn closed_hub_rejects_calls() {
        let hub = fake_hub(1, &[]);
        hub.close();
        let err = hub.call(
            0,
            0,
            0,
            &Timings::default(),
            Request::Meta(MetaOp::Fsync { fd: 1 }),
        );
        assert!(matches!(err, Err(GpufsError::DaemonStopped)));
    }

    #[test]
    fn weighted_hub_roundtrips_under_concurrency() {
        // The serve path draws from a weighted pool, as the daemon's does:
        // every concurrent call is answered, and the pool accepted all of
        // their work.
        let pool = Arc::new(simtime::WorkerPool::weighted(1, &[4, 1]));
        let served = Arc::clone(&pool);
        let hub = RpcHub::new(2, 2, &[], move |_, tenant, _, start| {
            (
                Ok(RespOk::Meta(MetaOk::Done)),
                served.acquire_for(tenant, start, 100).end,
            )
        });
        std::thread::scope(|s| {
            for slot in 0..8usize {
                let hub = &hub;
                s.spawn(move || {
                    let t = Timings::default();
                    for _ in 0..16 {
                        let (ok, _) = hub
                            .call(slot % 2, 0, 0, &t, Request::Meta(MetaOp::Fsync { fd: 1 }))
                            .unwrap();
                        assert!(matches!(ok, RespOk::Meta(MetaOk::Done)));
                    }
                });
            }
        });
        assert_eq!(pool.busy_ns(), 8 * 16 * 100);
    }

    #[test]
    fn admission_cap_bounds_inflight_and_counts_stalls() {
        // Tenant 0 capped at 2 unfinished requests, four callers issuing
        // at the same virtual instants: at no virtual instant are more
        // than two of its requests between start and completion, so some
        // calls start late and count as stalls. Tenant 1 is uncapped.
        let windows = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&windows);
        let hub = RpcHub::new(4, 2, &[2, 0], move |_, tenant, _, start| {
            if tenant == 0 {
                log.lock().push(start);
            }
            (Ok(RespOk::Meta(MetaOk::Done)), start + 1_000)
        });
        let t = Timings::default();
        let done = std::thread::scope(|s| {
            let callers: Vec<_> = (0..4)
                .map(|_| {
                    let (hub, t) = (&hub, &t);
                    s.spawn(move || {
                        (0..24u64)
                            .map(|i| {
                                let (_, visible) = hub
                                    .call(0, 0, i * 100, t, Request::Meta(MetaOp::Fsync { fd: 1 }))
                                    .unwrap();
                                hub.call(1, 0, i * 100, t, Request::Meta(MetaOp::Fsync { fd: 1 }))
                                    .unwrap();
                                visible
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            callers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect::<Vec<_>>()
        });
        let starts = windows.lock().clone();
        assert_eq!(starts.len(), 4 * 24);
        let finish = 1_000 + t.rpc_complete_ns;
        for &at in starts.iter().chain(&done) {
            let unfinished = starts.iter().filter(|&&s| s <= at && at < s + finish);
            assert!(unfinished.count() <= 2, "tenant 0 over its cap at {at}");
        }
        assert!(
            hub.tenant_stalls(0) > 0,
            "4 callers against a cap of 2 stall"
        );
        assert_eq!(hub.tenant_stalls(1), 0, "uncapped tenant never stalls");
        let admission = hub.admission[0].as_ref().unwrap();
        assert!(idle(admission, 2), "every slot released");
    }

    #[test]
    fn out_of_range_tenant_clamps_to_last() {
        // `set_tenant` is the one clamp: a block assigned tenant 9 of a
        // two-tenant mount issues its requests as tenant 1, so they land
        // on the last tenant's sheets, and the hub indexes no further.
        let config = crate::GpufsConfig::small_test().with_tenant_admission(vec![0, 2]);
        let fs = Arc::new(hostfs::HostFs::new(hostfs::HostFsConfig::default()));
        fs.create("/t", &[7u8; 4096]).unwrap();
        let gpu = Arc::new(gpusim::Gpu::new(0, gpusim::GpuSpec::small_test()));
        let host = crate::GpufsHost::with_config(fs, vec![Arc::clone(&gpu)], &config);
        let mount = host.mount(0, config).unwrap();
        mount.set_tenant(0, 9);
        assert_eq!(mount.tenant_of(0), 1, "clamped where it is stored");
        gpu.launch(gpusim::Grid::new(1, 32), 0, |blk| {
            let fd = mount
                .open(blk, "/t", crate::GOpenMode::ReadOnly)
                .expect("clamped, not out of bounds");
            mount.close(blk, fd).unwrap();
        });
        assert_eq!(host.stats_for_tenant(1).opens.get(), 1);
        assert_eq!(host.stats_for_tenant(0).requests.get(), 0);
        assert_eq!(host.hub().tenant_stalls(1), 0);
    }

    #[test]
    fn calls_racing_shutdown_complete_or_error_but_never_hang() {
        // Callers hammer the hub while it closes mid-flight. Every call
        // must resolve — served, or rejected by the closed flag — and
        // once a call is rejected every later one is too.
        for _ in 0..20 {
            let hub = Arc::new(fake_hub(1, &[1]));
            let callers: Vec<_> = (0..8)
                .map(|_| {
                    let hub = Arc::clone(&hub);
                    std::thread::spawn(move || {
                        let t = Timings::default();
                        (0..16)
                            .map(|_| hub.call(0, 0, 0, &t, Request::Meta(MetaOp::Fsync { fd: 1 })))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            hub.close();
            for c in callers {
                let outcomes = c.join().unwrap();
                let served = outcomes.iter().take_while(|r| r.is_ok()).count();
                for r in &outcomes[served..] {
                    assert!(
                        matches!(r, Err(GpufsError::DaemonStopped)),
                        "call must complete or error, got {r:?}"
                    );
                }
            }
            let admission = hub.admission[0].as_ref().unwrap();
            assert!(idle(admission, 1), "admission balanced");
        }
    }

    /// Whether all `k` of `gate`'s slots are free and nobody waits.
    fn idle(gate: &Gate, k: usize) -> bool {
        gate.slots.lock().free.len() == k && gate.waiting.is_empty()
    }

    /// The request whose serve panics once let go.
    const PANICS: HostFd = HostFd::MAX;

    /// A one-tenant hub whose serves wait for the test: each logs its
    /// request's `(start, fd)`, then holds its turn and its slot until
    /// [`Held::release`] lets one serve go.
    struct Held {
        hub: RpcHub,
        releases: Arc<(Mutex<usize>, Condvar)>,
        log: Arc<Mutex<Vec<(Nanos, HostFd)>>>,
    }

    impl Held {
        fn new(workers: usize, admission: &[usize]) -> Self {
            let releases = Arc::new((Mutex::new(0usize), Condvar::new()));
            let log = Arc::new(Mutex::new(Vec::new()));
            let (held, served) = (Arc::clone(&releases), Arc::clone(&log));
            let hub = RpcHub::new(workers, 1, admission, move |req, _, _, start| {
                let Request::Meta(MetaOp::Fsync { fd }) = *req else {
                    unreachable!("only fsyncs are posted")
                };
                served.lock().push((start, fd));
                let (left, released) = &*held;
                let mut left = left.lock();
                while *left == 0 {
                    released.wait(&mut left);
                }
                *left -= 1;
                drop(left);
                assert_ne!(fd, PANICS, "the daemon fails serving this request");
                (Ok(RespOk::Meta(MetaOk::Done)), start)
            });
            Self { hub, releases, log }
        }

        /// An fsync of `fd` issued at `issue`, visible as its serve ends.
        fn call(&self, issue: Nanos, fd: HostFd) -> GpufsResult<(RespOk, Nanos)> {
            let t = Timings {
                rpc_complete_ns: 0,
                ..Timings::default()
            };
            self.hub
                .call(0, 0, issue, &t, Request::Meta(MetaOp::Fsync { fd }))
        }

        fn release(&self) {
            *self.releases.0.lock() += 1;
            self.releases.1.notify_one();
        }

        fn started(&self, n: usize) {
            while self.log.lock().len() < n {
                std::thread::yield_now();
            }
        }

        /// With `holders` calls holding `gate`'s every slot, queue callers
        /// at it in real order with issue times 300, 100, 200 and then 100
        /// again, let the serves go one by one, and return the queued
        /// requests' `(start, fd)` in the order they were served.
        fn queue_at(&self, gate: &Gate, holders: usize) -> Vec<(Nanos, HostFd)> {
            std::thread::scope(|s| {
                for fd in 0..holders as HostFd {
                    s.spawn(move || self.call(0, fd).unwrap());
                }
                self.started(holders);
                for (i, (issue, fd)) in [(300, 2), (100, 3), (200, 4), (100, 5)]
                    .into_iter()
                    .enumerate()
                {
                    s.spawn(move || self.call(issue, fd).unwrap());
                    while gate.waiting.len() < i + 1 {
                        std::thread::yield_now();
                    }
                }
                for n in holders + 1..=holders + 4 {
                    self.release();
                    self.started(n);
                }
                (0..holders).for_each(|_| self.release());
            });
            self.log.lock()[holders..].to_vec()
        }
    }

    #[test]
    fn a_freed_turn_goes_to_the_earliest_issued_waiter() {
        // Two turns, both taken: each freed turn must go to the
        // earliest-issued waiter, the earlier arrival first on a tie.
        let held = Held::new(2, &[]);
        let order = held.queue_at(&held.hub.turns, 2);
        assert_eq!(order, [(100, 3), (100, 5), (200, 4), (300, 2)]);
    }

    #[test]
    fn a_freed_admission_slot_goes_to_the_earliest_issued_waiter() {
        // A cap-1 tenant whose slot is taken: the freed slot goes the
        // same way, and each request starts when its slot frees or when
        // it was issued, whichever is later.
        let held = Held::new(2, &[1]);
        let order = held.queue_at(held.hub.admission[0].as_ref().unwrap(), 1);
        assert_eq!(order, [(100, 3), (100, 5), (200, 4), (300, 2)]);
    }

    #[test]
    fn a_panicking_serve_releases_its_turn_and_its_admission_slot() {
        // A cap-1 tenant's serve panics while three callers on other
        // threads wait for its slot: its turn and its slot go on to them,
        // every one of their calls completes, and nobody is left waiting.
        let held = Held::new(1, &[1]);
        let admission = held.hub.admission[0].as_ref().unwrap();
        std::thread::scope(|s| {
            let held = &held;
            let crashed = s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| held.call(0, PANICS)))
            });
            held.started(1);
            let callers: Vec<_> = [100, 200, 300]
                .into_iter()
                .map(|issue| s.spawn(move || held.call(issue, 1)))
                .collect();
            while admission.waiting.len() < 3 {
                std::thread::yield_now();
            }
            (0..4).for_each(|_| held.release());
            assert!(crashed.join().unwrap().is_err(), "the first serve panics");
            for c in callers {
                assert!(matches!(
                    c.join().unwrap(),
                    Ok((RespOk::Meta(MetaOk::Done), _))
                ));
            }
        });
        assert!(idle(&held.hub.turns, 2) && idle(admission, 1));
    }

    #[test]
    fn host_error_surfaces_to_caller() {
        let hub = RpcHub::new(1, 1, &[], |_, _, _, start| {
            (Err(FsError::NotFound("/gone".into())), start)
        });
        let err = hub.call(
            0,
            0,
            0,
            &Timings::default(),
            Request::Meta(MetaOp::Stat {
                path: "/gone".into(),
            }),
        );
        assert!(matches!(err, Err(GpufsError::Host(FsError::NotFound(_)))));
    }
}
