//! The GPU-side GPUfs mount: composition glue for the layered stack.
//!
//! A [`GpuFsMount`] owns one GPU's GPUfs instance and wires the paper's
//! layers together (Figure 2):
//!
//! * the **API layer** in [`crate::api`] — `gopen`/`gread`/`gwrite`/
//!   `gmmap`/`gfsync`/… entry points and the [`crate::GFd`] /
//!   [`crate::GMap`] / [`crate::GStat`] handle types;
//! * **open-file state** in [`crate::ofile`] — open/close coalescing and
//!   the open/closed file tables of [`crate::table`];
//! * the **buffer cache** in [`crate::cache`] — paging
//!   ([`crate::cache::paging`]), frame reclaim
//!   ([`crate::cache::reclaim`]), and diff-based write-back
//!   ([`crate::cache::writeback`]) over the raw data array and per-file
//!   radix trees;
//! * the **RPC hub** in [`crate::rpc`] to the host daemon of
//!   [`crate::daemon`].
//!
//! This file deliberately holds no file-system logic: only the struct,
//! its constructor, read-only accessors, and the one RPC helper every
//! layer above shares. Kernels call the `g*` API through the mount,
//! passing their [`BlockCtx`] so GPUfs can charge virtual time and honour
//! the prototype's threadblock-granularity calling convention: a call is
//! made once per threadblock, at the same point, with the same arguments
//! (paper §4).
//!
//! No daemon threads run on the GPU: paging and write-back happen on the
//! calling threadblock ("GPUfs code hijacking the calling thread to
//! perform paging", §4.2), preserving the pay-as-you-go principle of §3.4.
//! That includes the dirty-page cap: the `gwrite` that reaches it drains
//! the cache itself (`cache/flusher.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gpusim::{BlockCtx, Gpu};
use simtime::Timings;

use crate::cache::{CacheCounters, FrameArena, FrameIdx};
use crate::config::{GpufsConfig, CACHE_SHARDS, LANE_STRIPES};
use crate::daemon::GpufsHost;
use crate::error::GpufsResult;
use crate::rpc::{Request, RespOk, RpcHub, TenantId};
use crate::table::Tables;

/// Size of the per-mount slot→tenant map. Threadblock slots map to a
/// tenant through `slot % TENANT_SLOT_MAP`, so any realistic grid gets a
/// stable per-slot assignment without unbounded storage.
const TENANT_SLOT_MAP: usize = 1024;

/// Mount-wide dirty-page accounting shared by the write path, the
/// dirty-page cap, and the write-back, reclaim and discard paths.
///
/// `pages` counts buffer-cache pages whose `PFrame::dirty` bit is set; it
/// moves on exactly the transitions that flip that bit (arm on write,
/// clear on gather, re-arm on a failed write-back batch, clear on
/// discard), so `pages == 0` means no page in the cache carries
/// unwritten data.
#[derive(Debug, Default)]
pub(crate) struct DirtyLedger {
    pub(crate) pages: AtomicUsize,
}

/// One GPU's GPUfs instance (see module docs).
pub struct GpuFsMount {
    pub(crate) gpu: Arc<Gpu>,
    /// This mount's identity in the host consistency registry. Defaults
    /// to the GPU id; cross-host fleets override it so two hosts' GPU 0s
    /// register as distinct cachers (the GPU id stays positional — DMA
    /// engines, stat sheets — while this is the coherence name).
    pub(crate) coherence_id: usize,
    pub(crate) hub: Arc<RpcHub>,
    /// The host's span tracer (cloned handle): the `g*` entry points
    /// open their trace roots on it.
    pub(crate) tracer: obs::Tracer,
    pub(crate) timings: Timings,
    pub(crate) config: GpufsConfig,
    pub(crate) frames: FrameArena,
    pub(crate) tables: Tables,
    /// The aggregate cache sheet: a read-only [`CacheCounters::sum_of`]
    /// view over every leaf stripe. Writing it panics — updates go
    /// through [`GpuFsMount::count_for`] to the faulting lane's stripe,
    /// and this view reads through to those cells.
    pub(crate) counters: CacheCounters,
    /// Per-tenant sheets: read-only sum views, each over its tenant's
    /// `LANE_STRIPES` leaf stripes (single-tenant mounts have exactly
    /// one, and the aggregate view equals it).
    pub(crate) tenant_counters: Vec<CacheCounters>,
    /// The leaf sheets — the only cache counters ever written — one per
    /// `(tenant, lane % LANE_STRIPES)`, so concurrent threadblocks bump
    /// cells of their own instead of one shared per-tenant line.
    stripes: Vec<CacheCounters>,
    /// Slot→tenant assignment (`slot % TENANT_SLOT_MAP`), default all
    /// tenant 0. Kernels partition their blocks with
    /// [`GpuFsMount::set_tenant`] before faulting.
    tenant_of_slot: Box<[AtomicUsize]>,
    /// The consistency layer's per-file generation table, exported by the
    /// host into write-shared memory. Reading it costs one PCIe access
    /// and no daemon round-trip, which is what keeps closed-file-table
    /// revival cheap (paper §4.1: reopen must avoid CPU communication).
    pub(crate) host_fs: Arc<hostfs::HostFs>,
    /// Dirty-page ledger the dirty-page cap is held against.
    pub(crate) dirty: DirtyLedger,
    /// Where a block waiting for another block parks (ARCHITECTURE.md,
    /// "Waiting").
    pub(crate) waits: simtime::ClockBoard,
}

impl std::fmt::Debug for GpuFsMount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuFsMount")
            .field("gpu", &self.gpu.id())
            .field("page_size", &self.config.page_size)
            .field("frames", &self.frames.num_frames())
            .field("free_frames", &self.frames.free_frames())
            .finish()
    }
}

impl GpufsHost {
    /// Create a GPUfs mount on GPU `gpu_id` with `config`.
    ///
    /// Allocates the raw data array in the GPU's global memory.
    ///
    /// # Errors
    ///
    /// Fails if the GPU cannot hold the configured buffer cache, or if
    /// the mount's host-side knobs ([`GpufsConfig::daemon_workers`],
    /// [`GpufsConfig::io_chunk_pages`], the tenant weights and caps)
    /// disagree with the daemon this host was started with — all are
    /// daemon state, so a config that names different values would be a
    /// silent no-op; build the host with [`GpufsHost::with_config`]
    /// instead.
    pub fn mount(&self, gpu_id: usize, config: GpufsConfig) -> GpufsResult<Arc<GpuFsMount>> {
        self.mount_with_coherence_id(gpu_id, config, gpu_id)
    }

    /// [`GpufsHost::mount`] with an explicit consistency-registry
    /// identity. Cross-host fleets use this to keep every mount's
    /// registration unique when positional GPU ids repeat per host.
    pub(crate) fn mount_with_coherence_id(
        &self,
        gpu_id: usize,
        config: GpufsConfig,
        coherence_id: usize,
    ) -> GpufsResult<Arc<GpuFsMount>> {
        // Workers, the I/O engine's settings and the tenant weights and
        // caps were fixed when the host started — and the
        // daemon's per-tenant stat sheets must cover every tenant this
        // mount will name.
        if !config.fits_daemon(self.daemon_key()) || config.num_tenants() > self.hub().num_tenants()
        {
            return Err(crate::error::GpufsError::InvalidMode(
                "mount daemon_workers/io_chunk_pages/tenant_weights/\
                 tenant_admission do not match the host daemon \
                 (build the host with GpufsHost::with_config)",
            ));
        }
        let gpu = Arc::clone(&self.gpus()[gpu_id]);
        let frames = FrameArena::with_quotas(
            gpu.global(),
            config.page_size,
            config.num_frames(),
            CACHE_SHARDS,
            config.num_tenants(),
            &config.tenant_frame_quotas,
        )?;
        let stripes: Vec<CacheCounters> = (0..config.num_tenants() * LANE_STRIPES)
            .map(|_| CacheCounters::new())
            .collect();
        // Tenant sheets and the aggregate are sum views over the stripes
        // (one write path), and every view registers with the host's
        // metrics registry under its place in the label hierarchy.
        let tenant_counters: Vec<CacheCounters> = stripes
            .chunks(LANE_STRIPES)
            .map(|leaves| CacheCounters::sum_of(&leaves.iter().collect::<Vec<_>>()))
            .collect();
        let counters = CacheCounters::sum_of(&tenant_counters.iter().collect::<Vec<_>>());
        let gpu_label = obs::Labels::gpu(gpu_id as u32);
        for (t, sheet) in tenant_counters.iter().enumerate() {
            sheet.register(self.registry(), gpu_label.with_tenant(t as u32));
        }
        counters.register(self.registry(), gpu_label);
        Ok(Arc::new(GpuFsMount {
            timings: gpu.timings().clone(),
            hub: Arc::clone(self.hub()),
            tracer: self.tracer().clone(),
            gpu,
            coherence_id,
            config,
            frames,
            tables: Tables::new(),
            counters,
            tenant_counters,
            stripes,
            tenant_of_slot: (0..TENANT_SLOT_MAP).map(|_| AtomicUsize::new(0)).collect(),
            host_fs: Arc::clone(self.fs()),
            dirty: DirtyLedger::default(),
            waits: simtime::ClockBoard::new(0),
        }))
    }
}

impl GpuFsMount {
    /// Buffer-cache page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.config.page_size
    }

    /// Buffer-cache activity counters.
    #[must_use]
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Buffer-cache activity counters attributed to `tenant` alone
    /// (clamped to the last tenant): a read-only sum view over the
    /// tenant's lane stripes. Summing over every tenant reproduces
    /// [`GpuFsMount::counters`] counter for counter.
    #[must_use]
    pub fn tenant_counters(&self, tenant: TenantId) -> &CacheCounters {
        &self.tenant_counters[tenant.min(self.tenant_counters.len() - 1)]
    }

    /// Tenant classes this mount distinguishes (≥ 1).
    #[must_use]
    pub fn num_tenants(&self) -> usize {
        self.tenant_counters.len()
    }

    /// Assign threadblock slot `slot` (modulo the slot-map size) to
    /// `tenant`. Every fault, RPC, and cache counter of that slot is
    /// attributed — and scheduled — as that tenant from then on. Slots
    /// default to tenant 0, and a `tenant` past [`Self::num_tenants`]
    /// maps to the last tenant: this is the one store, so it clamps once.
    pub fn set_tenant(&self, slot: usize, tenant: TenantId) {
        let tenant = tenant.min(self.num_tenants() - 1);
        self.tenant_of_slot[slot % TENANT_SLOT_MAP].store(tenant, Ordering::Relaxed);
    }

    /// The tenant threadblock slot `slot` is assigned to.
    #[must_use]
    pub fn tenant_of(&self, slot: usize) -> TenantId {
        let tenant = self.tenant_of_slot[slot % TENANT_SLOT_MAP].load(Ordering::Relaxed);
        debug_assert!(tenant < self.num_tenants(), "set_tenant clamps every store");
        tenant
    }

    /// Apply one counter update to `lane`'s leaf stripe of its tenant —
    /// the single attribution path. Lanes share a stripe only modulo
    /// [`LANE_STRIPES`], so a hit writes no line the other resident
    /// blocks write. The tenant and aggregate sheets are sum views over
    /// the stripes, so they reflect this write with no second bump (and
    /// would panic if one were attempted).
    pub(crate) fn count_for(&self, lane: usize, f: impl Fn(&CacheCounters)) {
        f(&self.stripes[self.tenant_of(lane) * LANE_STRIPES + lane % LANE_STRIPES]);
    }

    /// Frames currently free in the raw data array.
    #[must_use]
    pub fn free_frames(&self) -> usize {
        self.frames.free_frames()
    }

    /// Every frame attached to a page of a cached file — open or parked
    /// — with each page's pristine copy, in no particular order. On a
    /// quiescent mount (no kernel running) the frame ledger is
    /// `attached_frames().len() + free_frames() == num_frames` with no
    /// frame listed twice; test oracles check exactly that.
    #[must_use]
    pub fn attached_frames(&self) -> Vec<FrameIdx> {
        let mut attached = Vec::new();
        let mut files = self.tables.closed_files();
        files.extend(self.tables.open_files_by_eviction_priority());
        for file in files {
            file.tree().for_each_page(|_, fp| {
                if let Some(frame) = fp.frame() {
                    attached.push(frame);
                    attached.extend(self.frames.pframe(frame).pristine_frame());
                }
            });
        }
        attached
    }

    /// The GPU this mount serves.
    #[must_use]
    pub fn gpu(&self) -> &Arc<Gpu> {
        &self.gpu
    }

    /// This mount's identity in the host consistency registry (the GPU
    /// id, unless a cross-host fleet assigned a globally unique one).
    #[must_use]
    pub fn coherence_id(&self) -> usize {
        self.coherence_id
    }

    /// Issue one RPC to the host daemon as the calling threadblock's
    /// tenant and synchronize the block's clock to the
    /// completion-visibility time.
    ///
    /// The daemon serves it on this thread (see [`crate::rpc`]): blocks
    /// can have requests in flight simultaneously, while one block's own
    /// synchronous calls stay FIFO.
    pub(crate) fn rpc(&self, blk: &mut BlockCtx<'_>, req: Request) -> GpufsResult<RespOk> {
        // The span opens before the call so the daemon's serve span nests
        // under this round-trip. A failed call drops the guard without
        // emitting.
        let sp = obs::span(req.rpc_span_name());
        let issued = blk.now();
        let (ok, t) = self.hub.call(
            self.tenant_of(blk.block_id()),
            self.gpu.id(),
            issued,
            &self.timings,
            req,
        )?;
        blk.wait_until(t);
        sp.finish(issued, blk.now());
        Ok(ok)
    }

    /// Return `frame` to shard `hint`'s freelist, settling its dirty bit
    /// against the mount ledger first — the single exit point for frames
    /// whose contents are being discarded. `FrameArena::release` wipes the
    /// page metadata, so the bit must be read here, before the handoff.
    pub(crate) fn retire_frame(&self, hint: usize, frame: FrameIdx) {
        if self
            .frames
            .pframe(frame)
            .dirty
            .swap(false, Ordering::AcqRel)
        {
            self.dirty.pages.fetch_sub(1, Ordering::AcqRel);
        }
        self.release_frame(hint, frame);
    }

    /// Free `frame` into shard `hint` and wake the blocks waiting for one.
    pub(crate) fn release_frame(&self, hint: usize, frame: FrameIdx) {
        self.frames.release(hint, frame);
        self.waits.notify_all();
    }
}
