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
//! answer: a block waits only for a turn, which paces the real threads
//! the way the daemon's worker threads once did (see `Turns`). A freed
//! turn goes to the waiting block whose request was issued earliest in
//! virtual time, as the daemon polling the paper's queue would find it;
//! a free turn, and a block not yet waiting, still go in real order.
//! This is the shape of a synchronous device call made in the caller's
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
use std::sync::Arc;

use gpusim::{DevPtr, GpuId};
use hostfs::{FsError, HostFd, Ino};
use parking_lot::{Condvar, Mutex};
use simtime::{ClockBoard, Nanos, Timings};

use crate::error::{GpufsError, GpufsResult};

/// Service class of one GPUfs session. Tenant ids index the
/// `tenant_weights` / `tenant_admission` / `tenant_frame_quotas` vectors
/// of [`crate::GpufsConfig`]; ids beyond the configured tenant count are
/// clamped to the last tenant.
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

/// A request from a GPU threadblock to the host daemon.
#[derive(Debug, Clone)]
pub enum Request {
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
        /// Host descriptor from a previous [`Request::Open`].
        fd: HostFd,
    },
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

impl Request {
    /// The request's stable kind name — span labels and wire diagnostics.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::Open { .. } => "Open",
            Request::Close { .. } => "Close",
            Request::ReadPages { .. } => "ReadPages",
            Request::WritePages { .. } => "WritePages",
            Request::Fsync { .. } => "Fsync",
            Request::Unlink { .. } => "Unlink",
            Request::Truncate { .. } => "Truncate",
            Request::Stat { .. } => "Stat",
        }
    }

    /// The client-side span name for this request's round-trip (span
    /// labels must be `&'static str`, so the prefix is baked per kind).
    pub(crate) fn rpc_span_name(&self) -> &'static str {
        match self {
            Request::Open { .. } => "rpc:Open",
            Request::Close { .. } => "rpc:Close",
            Request::ReadPages { .. } => "rpc:ReadPages",
            Request::WritePages { .. } => "rpc:WritePages",
            Request::Fsync { .. } => "rpc:Fsync",
            Request::Unlink { .. } => "rpc:Unlink",
            Request::Truncate { .. } => "rpc:Truncate",
            Request::Stat { .. } => "rpc:Stat",
        }
    }
}

/// Successful response payloads.
#[derive(Debug, Clone)]
pub enum RespOk {
    /// Result of [`Request::Open`].
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
    /// Metadata from [`Request::Stat`].
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

/// What a request's answer is: the response and the virtual time the
/// daemon finished with it.
pub(crate) type Served = (Result<RespOk, FsError>, Nanos);

/// The daemon's serve path as the hub calls it: `(request, tenant, gpu,
/// issue time)`. It runs on the calling thread.
type ServeFn = dyn Fn(&Request, TenantId, GpuId, Nanos) -> Served + Send + Sync;

/// One tenant's admission cap, kept in virtual time: a slot per request
/// the tenant may have unfinished at once, each holding the virtual time
/// its last request completed, or `None` while that request is being
/// served.
#[derive(Debug)]
struct Admission {
    slots: Mutex<Vec<Option<Nanos>>>,
    freed: Condvar,
}

/// An admission slot taken by one call; dropping it records when the
/// call's request completed and frees the slot from then on.
struct Slot<'a> {
    admission: &'a Admission,
    index: usize,
    done: Nanos,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.admission.slots.lock()[self.index] = Some(self.done);
        self.admission.freed.notify_one();
    }
}

/// Turns at the daemon, handed out in issue order: at most `turns` calls
/// are being served at once, and when a turn frees it goes to the waiting
/// caller whose request was issued earliest in virtual time (the earlier
/// arrival on a tie) — the paper's polled queue (§4.3) among the callers
/// that queue here. A free turn still goes to whoever asks. One turn per
/// daemon worker, never fewer than two; ARCHITECTURE.md ("RPC layer")
/// says why turns keep the modelled numbers put and why the floor is two.
#[derive(Debug)]
struct Turns {
    turns: usize,
    queue: Mutex<TurnQueue>,
}

#[derive(Debug)]
struct TurnQueue {
    serving: usize,
    /// Callers waiting for a turn, by issue time. A freed turn is granted
    /// with [`ClockBoard::notify_first`]: a caller it picked holds a turn.
    /// Shared so a caller can wait on it without holding this lock.
    waiting: Arc<ClockBoard>,
}

impl Turns {
    fn new(workers: usize) -> Self {
        Self {
            turns: workers.max(2),
            queue: Mutex::new(TurnQueue {
                serving: 0,
                waiting: Arc::new(ClockBoard::new(0)),
            }),
        }
    }

    /// Wait for a turn for a request issued at `start`; it ends when the
    /// returned guard drops.
    fn take(&self, start: Nanos) -> Turn<'_> {
        let mut q = self.queue.lock();
        if q.serving < self.turns {
            q.serving += 1;
            return Turn(self);
        }
        let board = Arc::clone(&q.waiting);
        let waiter = board.waiter(start);
        drop(q);
        while !waiter.wait(|| false) {}
        Turn(self)
    }
}

/// One call's turn at the daemon; dropping it hands the turn to the
/// earliest-issued waiter, if any.
struct Turn<'a>(&'a Turns);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        let mut q = self.0.queue.lock();
        if !q.waiting.notify_first() {
            q.serving -= 1;
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
    turns: Turns,
    /// Tenant classes this hub distinguishes (≥ 1).
    tenants: usize,
    /// Per-tenant admission caps; `None` = unlimited.
    admission: Vec<Option<Admission>>,
    /// Calls that started later than issued because of their tenant's
    /// cap, per tenant.
    stalls: Vec<obs::Counter>,
    closed: AtomicBool,
}

impl std::fmt::Debug for RpcHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcHub")
            .field("tenants", &self.tenants)
            .field("admission", &self.admission)
            .field("closed", &self.closed)
            .finish_non_exhaustive()
    }
}

impl RpcHub {
    /// An open hub over the daemon's serve path `serve` for a daemon of
    /// `workers` workers, distinguishing at least `tenants` tenant
    /// classes, with per-tenant admission caps (`0`/missing = unlimited).
    pub(crate) fn new(
        workers: usize,
        tenants: usize,
        admission: &[usize],
        serve: impl Fn(&Request, TenantId, GpuId, Nanos) -> Served + Send + Sync + 'static,
    ) -> Self {
        let tenants = tenants.max(admission.len()).max(1);
        Self {
            serve: Box::new(serve),
            turns: Turns::new(workers),
            tenants,
            admission: (0..tenants)
                .map(|t| match admission.get(t) {
                    Some(&cap) if cap > 0 => Some(Admission {
                        slots: Mutex::new(vec![Some(0); cap]),
                        freed: Condvar::new(),
                    }),
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
        self.tenants
    }

    /// Calls of `tenant` whose start its admission cap delayed.
    #[must_use]
    pub fn tenant_stalls(&self, tenant: TenantId) -> u64 {
        self.stalls[tenant.min(self.tenants - 1)].get()
    }

    /// Take one of `tenant`'s admission slots for a request issued at
    /// `issue`. Returns when the request may start — later than `issue`
    /// when all the tenant's slots are still busy then — and the slot, or
    /// `(issue, None)` for an uncapped tenant.
    ///
    /// The slot that frees first in virtual time is taken. Only when every
    /// slot's request is still being served on some thread, so that no
    /// free time is known yet, does the caller wait for one to finish.
    fn admit(&self, tenant: TenantId, issue: Nanos) -> (Nanos, Option<Slot<'_>>) {
        let Some(admission) = &self.admission[tenant] else {
            return (issue, None);
        };
        let mut slots = admission.slots.lock();
        let (free_at, index) = loop {
            let known = slots.iter().enumerate();
            if let Some(first) = known.filter_map(|(i, s)| s.map(|t| (t, i))).min() {
                break first;
            }
            admission.freed.wait(&mut slots);
        };
        slots[index] = None;
        let start = issue.max(free_at);
        if start > issue {
            self.stalls[tenant].incr();
        }
        let slot = Slot {
            admission,
            index,
            done: start,
        };
        (start, Some(slot))
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
        let tenant = tenant.min(self.tenants - 1);
        // The round-trip runs the host's side of the request, which takes
        // the host file system's locks; a shim lock held across it stalls
        // every thread that wants that lock for a full host round-trip.
        // Lockcheck flags exactly that.
        let (result, visible) = parking_lot::lockcheck::blocking_region("rpc-roundtrip", || {
            let (start, mut slot) = self.admit(tenant, issue);
            let turn = self.turns.take(start);
            let (result, end) = (self.serve)(&req, tenant, gpu, start);
            drop(turn);
            let visible = end + timings.rpc_complete_ns;
            if let Some(slot) = &mut slot {
                slot.done = visible;
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
    use std::sync::Arc;

    /// A hub whose serve path answers `Done` 100 ns after it starts.
    fn fake_hub(tenants: usize, admission: &[usize]) -> RpcHub {
        RpcHub::new(1, tenants, admission, |_, _, _, start| {
            (Ok(RespOk::Done), start + 100)
        })
    }

    #[test]
    fn call_roundtrips_through_a_fake_daemon() {
        let hub = fake_hub(1, &[]);
        let t = Timings::default();
        let (ok, visible) = hub
            .call(0, 0, 1_000, &t, Request::Fsync { fd: 3 })
            .expect("call should succeed");
        assert!(matches!(ok, RespOk::Done));
        assert_eq!(visible, 1_100 + t.rpc_complete_ns);
    }

    #[test]
    fn tenancy_defaults_reproduce_the_fair_hub() {
        // No caps: every call starts when issued, whatever else is in
        // flight, and nothing ever stalls.
        let hub = RpcHub::new(1, 1, &[], |_, tenant, _, start| {
            assert_eq!(tenant, 0);
            (Ok(RespOk::Done), start)
        });
        assert_eq!(hub.num_tenants(), 1);
        let t = Timings::default();
        for issue in [0, 0, 5, 5, 3] {
            let (_, visible) = hub.call(0, 0, issue, &t, Request::Fsync { fd: 1 }).unwrap();
            assert_eq!(visible, issue + t.rpc_complete_ns);
        }
        assert_eq!(hub.tenant_stalls(0), 0);
        assert_eq!(fake_hub(1, &[0, 2]).num_tenants(), 2, "caps widen tenancy");
    }

    #[test]
    fn closed_hub_rejects_calls() {
        let hub = fake_hub(1, &[]);
        hub.close();
        let err = hub.call(0, 0, 0, &Timings::default(), Request::Fsync { fd: 1 });
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
            (Ok(RespOk::Done), served.acquire_for(tenant, start, 100).end)
        });
        std::thread::scope(|s| {
            for slot in 0..8usize {
                let hub = &hub;
                s.spawn(move || {
                    let t = Timings::default();
                    for _ in 0..16 {
                        let (ok, _) = hub
                            .call(slot % 2, 0, 0, &t, Request::Fsync { fd: 1 })
                            .unwrap();
                        assert!(matches!(ok, RespOk::Done));
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
            (Ok(RespOk::Done), start + 1_000)
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
                                    .call(0, 0, i * 100, t, Request::Fsync { fd: 1 })
                                    .unwrap();
                                hub.call(1, 0, i * 100, t, Request::Fsync { fd: 1 })
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
        let slots = hub.admission[0].as_ref().unwrap().slots.lock();
        assert!(slots.iter().all(Option::is_some), "every slot released");
    }

    #[test]
    fn out_of_range_tenant_clamps_to_last() {
        let hub = RpcHub::new(1, 2, &[], |_, tenant, _, start| {
            assert_eq!(tenant, 1, "clamped before it reaches the daemon");
            (Ok(RespOk::Done), start)
        });
        let t = Timings::default();
        let (ok, _) = hub
            .call(99, 0, 0, &t, Request::Fsync { fd: 1 })
            .expect("clamped, not out of bounds");
        assert!(matches!(ok, RespOk::Done));
        assert_eq!(hub.tenant_stalls(99), 0);
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
                            .map(|_| hub.call(0, 0, 0, &t, Request::Fsync { fd: 1 }))
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
            let slots = hub.admission[0].as_ref().unwrap().slots.lock();
            assert!(slots.iter().all(Option::is_some), "admission balanced");
        }
    }

    #[test]
    fn a_freed_turn_goes_to_the_earliest_issued_waiter() {
        // Two turns, each serve held until the test releases it. With both
        // turns taken, callers queue in real order with issue times 300,
        // 100, 200 and then 100 again; each freed turn must go to the
        // earliest-issued waiter, the earlier arrival first on a tie.
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        let held = Arc::clone(&gate);
        let log = Arc::new(Mutex::new(Vec::new()));
        let served = Arc::clone(&log);
        let hub = RpcHub::new(2, 1, &[], move |req, _, _, start| {
            let Request::Fsync { fd } = req else {
                unreachable!("only fsyncs are posted")
            };
            served.lock().push((start, *fd));
            let (releases, released) = &*held;
            let mut left = releases.lock();
            while *left == 0 {
                released.wait(&mut left);
            }
            *left -= 1;
            (Ok(RespOk::Done), start)
        });
        let release = || {
            *gate.0.lock() += 1;
            gate.1.notify_one();
        };
        let started = |n: usize| {
            while log.lock().len() < n {
                std::thread::yield_now();
            }
        };
        let queued = |n: usize| {
            while hub.turns.queue.lock().waiting.len() < n {
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            let call = |issue: Nanos, fd: HostFd| {
                let hub = &hub;
                s.spawn(move || {
                    hub.call(0, 0, issue, &Timings::default(), Request::Fsync { fd })
                        .unwrap();
                });
            };
            call(0, 0);
            call(0, 1);
            started(2);
            for (i, (issue, fd)) in [(300, 2), (100, 3), (200, 4), (100, 5)]
                .into_iter()
                .enumerate()
            {
                call(issue, fd);
                queued(i + 1);
            }
            for n in 3..=6 {
                release();
                started(n);
            }
            release();
            release();
        });
        let order = log.lock()[2..].to_vec();
        assert_eq!(order, [(100, 3), (100, 5), (200, 4), (300, 2)]);
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
            Request::Stat {
                path: "/gone".into(),
            },
        );
        assert!(matches!(err, Err(GpufsError::Host(FsError::NotFound(_)))));
    }
}
