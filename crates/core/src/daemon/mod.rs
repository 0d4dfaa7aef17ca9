//! The CPU-side GPUfs daemon (paper §4, "communication layer").
//!
//! In the paper a pool of user-level threads in the host application polls
//! the RPC channels and serves file requests against the host file system,
//! initiating DMA transfers directly to or from GPU buffer-cache pages.
//! Here the daemon's work for a request runs on the calling threadblock's
//! own thread (`RpcHub::call` in [`crate::rpc`]), and its workers exist
//! only as a virtual-time pool and as turns at the hub: a freed turn goes
//! to the waiting caller whose request was issued earliest in virtual
//! time. The module splits along the daemon's concerns:
//!
//! * **`mod.rs` (this file)** — [`GpufsHost`] lifecycle, the entry of the
//!   serve path (`Daemon::serve`), and [`DaemonStats`].
//! * **[`backing`]** — the storage seam: the `Backing` trait a request is
//!   served against, and its implementation on [`HostFs`]. A proxy-backed
//!   host serves against the [`HostProxy`]'s implementation instead
//!   (`remote/client.rs`); nothing above the seam can tell which.
//! * **[`handlers`]** — the one dispatch match every request enters: a
//!   metadata operation ([`crate::rpc::MetaOp`]) is one `Backing::meta`
//!   call.
//! * **[`pipeline`]** — the staged, chunked I/O engine behind the two
//!   bulk-data requests, the only one in the tree. A batched `ReadPages`
//!   is streamed in chunks of [`crate::GpufsConfig::io_chunk_pages`]: the
//!   engine stages chunk *k+1* (`Backing::read_chunk`) while the
//!   scatter-gather DMA of chunk *k* is in flight, so host file I/O and
//!   PCIe transfer overlap *inside* one RPC (the paper's Figure 5
//!   pipelining), not just across RPCs. `WritePages` is symmetric: the
//!   D2H gather of chunk *k+1* overlaps the write-out of chunk *k*.
//! * **[`lane`]** — stage 2 of that engine: the chain of DMA
//!   reservations of one transaction. The first chunk shipped pays the
//!   DMA setup — unless the engine's descriptor ring is still running
//!   when the chunk is ready, in which case it is appended; appended and
//!   later chunks cost a cheap CPU-side submit instead.
//!
//! The daemon has a single worker by default — the paper restricts
//! GPU-related CPU load to one core — and scales with
//! [`crate::GpufsConfig::daemon_workers`]. Contention between
//! concurrently served requests is arbitrated by the shared `simtime`
//! resources underneath — the host file system's disk/page-cache devices,
//! the per-direction PCIe [`simtime::BandwidthResource`]s, and the
//! workers' own CPU time, a [`simtime::WorkerPool`] of `daemon_workers`
//! servers every request draws its dispatch, file-I/O and DMA-submit
//! costs from ([`ServeCtx`]), shared between tenants by their
//! [`crate::GpufsConfig::tenant_weights`] — not by the real thread count
//! or the real order threads happen to run in.

pub(crate) mod backing;
mod handlers;
mod lane;
mod pipeline;

use std::cell::Cell;
use std::sync::Arc;

use gpusim::{Gpu, GpuId};
use hostfs::HostFs;
use obs::{Counter, Labels, Registry, Tracer};
use simtime::{bw_time_ns, Clock, Nanos, Timings, WorkerPool};

use self::backing::Backing;
use crate::config::GpufsConfig;
use crate::remote::HostProxy;
use crate::rpc::{Request, RpcHub, Served, TenantId};

/// Activity counters of the host daemon.
#[derive(Debug, Default)]
pub struct DaemonStats {
    /// RPC requests served.
    pub requests: Counter,
    /// Bytes moved host→device.
    pub bytes_h2d: Counter,
    /// Bytes moved device→host.
    pub bytes_d2h: Counter,
    /// Open requests forwarded to the host FS.
    pub opens: Counter,
    /// `ReadPages` requests that carried more than one page (the batches
    /// readahead produces; a plain miss is a batch of one and not counted).
    pub batched_rpcs: Counter,
    /// Total pages carried by those multi-page requests. Divide by
    /// [`DaemonStats::batched_rpcs`] for the mean batch width.
    pub pages_per_rpc: Counter,
    /// `WritePages` requests that carried more than one page (the batches
    /// bulk write-back produces; a single-page sync is a batch of one and
    /// not counted) — the write-side mirror of
    /// [`DaemonStats::batched_rpcs`].
    pub batched_write_rpcs: Counter,
    /// Total pages carried by those multi-page write requests. Divide by
    /// [`DaemonStats::batched_write_rpcs`] for the mean batch width.
    pub pages_per_write_rpc: Counter,
    /// H2D scatter-gather DMA chunks issued by the read pipeline. Equals
    /// the `ReadPages` count when the engine is serialized
    /// (`io_chunk_pages = 0`: one transaction, one chunk per RPC) and
    /// grows with the pipeline depth otherwise.
    pub read_dma_chunks: Counter,
    /// D2H gather chunks issued by the write pipeline — the write-side
    /// mirror of [`DaemonStats::read_dma_chunks`].
    pub write_dma_chunks: Counter,
    /// H2D scatter-gather transactions that paid the engine's setup.
    /// Equals the data-moving `ReadPages` count on the serialized engine
    /// (`io_chunk_pages = 0`, one one-shot transaction per RPC) and on an
    /// unloaded one; falls below it when a batch's first chunk finds the
    /// engine's descriptor ring still running and joins it
    /// (`daemon/lane.rs`). The gap is the setups saved.
    pub h2d_setups: Counter,
    /// D2H gather transactions that paid setup — the write-side mirror of
    /// [`DaemonStats::h2d_setups`].
    pub d2h_setups: Counter,
}

impl DaemonStats {
    /// A read-only sum view over `parts`: each field aggregates the
    /// matching field of every part. The host-wide aggregate, the per-GPU
    /// and per-tenant breakdowns, and a fleet's per-host rollups are all
    /// views built this way over the per-`(gpu, tenant)` leaf sheets —
    /// one write path, so the books cannot drift.
    #[must_use]
    pub fn sum_of<'a>(parts: impl IntoIterator<Item = &'a DaemonStats> + Clone) -> Self {
        let field =
            |f: fn(&DaemonStats) -> &Counter| Counter::sum(parts.clone().into_iter().map(f));
        Self {
            requests: field(|s| &s.requests),
            bytes_h2d: field(|s| &s.bytes_h2d),
            bytes_d2h: field(|s| &s.bytes_d2h),
            opens: field(|s| &s.opens),
            batched_rpcs: field(|s| &s.batched_rpcs),
            pages_per_rpc: field(|s| &s.pages_per_rpc),
            batched_write_rpcs: field(|s| &s.batched_write_rpcs),
            pages_per_write_rpc: field(|s| &s.pages_per_write_rpc),
            read_dma_chunks: field(|s| &s.read_dma_chunks),
            write_dma_chunks: field(|s| &s.write_dma_chunks),
            h2d_setups: field(|s| &s.h2d_setups),
            d2h_setups: field(|s| &s.d2h_setups),
        }
    }

    /// Register every field with `registry` under `labels`, prefixed
    /// `daemon_` (the same cells — the registry adds names, not copies).
    pub fn register(&self, registry: &Registry, labels: Labels) {
        for (name, counter) in self.fields() {
            registry.register(name, labels, counter);
        }
    }

    fn fields(&self) -> [(&'static str, &Counter); 12] {
        [
            ("daemon_requests", &self.requests),
            ("daemon_bytes_h2d", &self.bytes_h2d),
            ("daemon_bytes_d2h", &self.bytes_d2h),
            ("daemon_opens", &self.opens),
            ("daemon_batched_rpcs", &self.batched_rpcs),
            ("daemon_pages_per_rpc", &self.pages_per_rpc),
            ("daemon_batched_write_rpcs", &self.batched_write_rpcs),
            ("daemon_pages_per_write_rpc", &self.pages_per_write_rpc),
            ("daemon_read_dma_chunks", &self.read_dma_chunks),
            ("daemon_write_dma_chunks", &self.write_dma_chunks),
            ("daemon_h2d_setups", &self.h2d_setups),
            ("daemon_d2h_setups", &self.d2h_setups),
        ]
    }

    /// Every counter as a `(name, value)` row — the registry names
    /// without `daemon_`, the one list tests iterate so a newly added
    /// counter cannot silently escape the per-GPU / per-tenant
    /// sum-to-aggregate invariant.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.fields()
            .iter()
            .map(|&(name, counter)| (&name["daemon_".len()..], counter.get()))
            .collect()
    }
}

/// What one served request carries to every place that counts or charges
/// on its behalf.
///
/// *Counts* land on the single per-`(gpu, tenant)` *leaf* sheet of the
/// requesting GPU and issuing tenant. The host-wide aggregate and the
/// per-GPU / per-tenant breakdowns are [`DaemonStats::sum_of`] views over
/// these leaves, so the one write [`ServeCtx::on`] makes here is visible
/// on every sheet by construction — which is what makes
/// [`GpufsHost::stats_for`] and [`GpufsHost::stats_for_tenant`]
/// trustworthy when several mounts (or tenant classes) share one daemon.
///
/// *CPU charges* — time a daemon worker spends computing, as opposed to
/// blocked on a disk, a link or a DMA landing — are drawn from the host's
/// [`WorkerPool`] as the request's tenant: [`ServeCtx::cpu`] and
/// [`ServeCtx::file_io`]. While the pool has spare capacity a draw costs
/// exactly what advancing the clock would; once requests ask for more CPU
/// than `daemon_workers` workers have, the draw waits its turn and the
/// wait lands on the request's clock (and in its `serve:*` span as
/// `queue_ns`).
pub(crate) struct ServeCtx<'a> {
    leaf: &'a DaemonStats,
    tenant: TenantId,
    pub(crate) engine: &'a Engine,
    /// Time this request has waited for a worker so far.
    queue_ns: Cell<Nanos>,
    /// Pool time this request has drawn so far.
    cpu_ns: Cell<Nanos>,
}

/// The per-host half of every [`ServeCtx`]: the I/O engine's settings and
/// the CPU time of the daemon workers that run it.
#[derive(Debug)]
pub(crate) struct Engine {
    workers: WorkerPool,
    pub(crate) timings: Timings,
    /// Chunk size in pages; `0` is the serialized engine on the paper
    /// prototype's one-DMA-per-RPC path, the DMA ring's ablation.
    pub(crate) io_chunk_pages: usize,
}

impl ServeCtx<'_> {
    /// Apply one counter update to the request's leaf sheet (every
    /// aggregate view reads through to it).
    pub(crate) fn on(&self, f: impl Fn(&DaemonStats)) {
        f(self.leaf);
    }

    /// Spend `ns` of a worker's CPU time on `clock`.
    pub(crate) fn cpu(&self, clock: &mut Clock, ns: Nanos) {
        let issued = clock.now();
        clock.advance(ns);
        self.draw(clock, issued, ns);
    }

    /// Account the CPU half of file-system calls that were issued at
    /// `issued` and whose completion `clock` has already waited for: per
    /// call, the syscall plus the page-cache copy of the bytes it moved.
    /// (The other half — a disk access, the storage server's link — is
    /// waiting and holds no worker.)
    pub(crate) fn file_io(
        &self,
        clock: &mut Clock,
        issued: Nanos,
        call_bytes: impl Iterator<Item = usize>,
    ) {
        let t = &self.engine.timings;
        let cpu = call_bytes
            .map(|n| t.host_syscall_ns + bw_time_ns(n as u64, t.host_cached_mb_s))
            .sum();
        self.draw(clock, issued, cpu);
    }

    /// Draw `cpu` ns from the pool for work `clock` has already been
    /// advanced over since `issued`: if no worker was free at `issued`
    /// the work began that much later, and so does everything after it.
    fn draw(&self, clock: &mut Clock, issued: Nanos, cpu: Nanos) {
        if cpu == 0 {
            // Costs excluded from the model (Figure 5) wait for nobody.
            return;
        }
        let queued = self
            .engine
            .workers
            .acquire_for(self.tenant, issued, cpu)
            .start
            - issued;
        clock.advance(queued);
        self.queue_ns.set(self.queue_ns.get() + queued);
        self.cpu_ns.set(self.cpu_ns.get() + cpu);
    }
}

/// The GPUfs host side: file system, GPUs, RPC hub, and the daemon the
/// hub serves through.
///
/// The daemon runs no threads of its own: every request is served on the
/// thread that calls. Dropping a `GpufsHost` closes its hub.
#[derive(Debug)]
pub struct GpufsHost {
    fs: Arc<HostFs>,
    gpus: Vec<Arc<Gpu>>,
    hub: Arc<RpcHub>,
    /// The per-`(gpu, tenant)` leaf sheets, indexed `[gpu][tenant]` —
    /// the only daemon stats ever written. Everything below is a
    /// [`DaemonStats::sum_of`] view over this grid.
    cell_stats: Vec<Vec<Arc<DaemonStats>>>,
    /// Host-wide aggregate: a sum view over the whole leaf grid.
    stats: Arc<DaemonStats>,
    /// Per-GPU breakdown of [`GpufsHost::stats`], indexed by GPU id: when
    /// several mounts share this daemon, each request is attributed to
    /// the GPU that issued it (the call names it), so fleets can tell
    /// which GPU generated which RPC traffic. A sum view over the GPU's
    /// row of the leaf grid.
    per_gpu_stats: Vec<Arc<DaemonStats>>,
    /// Per-tenant breakdown of [`GpufsHost::stats`], indexed by
    /// [`crate::rpc::TenantId`] — the multi-tenant mirror of the per-GPU
    /// sheets (single-tenant hosts have exactly one, equal to the
    /// aggregate). A sum view over the tenant's column of the leaf grid.
    per_tenant_stats: Vec<Arc<DaemonStats>>,
    /// The host's metrics registry: every daemon leaf sheet, aggregate
    /// view, and mount cache sheet registers here under hierarchical
    /// labels.
    registry: Arc<Registry>,
    /// The host's span tracer (off by default; see [`GpufsHost::set_tracing`]).
    tracer: Tracer,
    /// The I/O engine's settings and the workers' CPU pool, shared with
    /// the hub's serve path.
    engine: Arc<Engine>,
    /// The configuration this host was started with: the daemon runs its
    /// host-side knobs, and `mount` validates against it.
    config: GpufsConfig,
    /// When set, this daemon is the host side of a cross-host fleet:
    /// the serve path's `Backing` is the proxy (host cache, then the wire)
    /// instead of the file system. `fs` then aliases the storage server's
    /// file system — kept for mount probing, seeding, and auditing,
    /// exactly the WRAPFS-device view the paper's consistency layer
    /// assumes.
    proxy: Option<Arc<HostProxy>>,
}

impl GpufsHost {
    /// Start the host daemon serving `gpus` against `fs` in the paper
    /// prototype's shape — one worker — with the default pipelined I/O
    /// engine.
    #[must_use]
    pub fn new(fs: Arc<HostFs>, gpus: Vec<Arc<Gpu>>) -> Self {
        Self::with_config(fs, gpus, &GpufsConfig::default())
    }

    /// Start the host daemon with the host-side knobs of `config`
    /// ([`GpufsConfig::daemon_workers`], [`GpufsConfig::io_chunk_pages`]
    /// and the tenant weights and caps).
    #[must_use]
    pub fn with_config(fs: Arc<HostFs>, gpus: Vec<Arc<Gpu>>, config: &GpufsConfig) -> Self {
        Self::build(fs, gpus, config, None)
    }

    /// Start a *proxy-backed* host daemon: every request is served over
    /// `proxy`'s wire boundary against the remote [`StorageServer`]
    /// (with the proxy's host-local page cache in front), never against
    /// a local file system. [`GpufsHost::fs`] returns the server's file
    /// system — the shared WRAPFS-device view mounts probe and audits
    /// read.
    ///
    /// [`StorageServer`]: crate::remote::StorageServer
    #[must_use]
    pub fn with_proxy(proxy: Arc<HostProxy>, gpus: Vec<Arc<Gpu>>, config: &GpufsConfig) -> Self {
        let fs = Arc::clone(proxy.server().fs());
        Self::build(fs, gpus, config, Some(proxy))
    }

    fn build(
        fs: Arc<HostFs>,
        gpus: Vec<Arc<Gpu>>,
        config: &GpufsConfig,
        proxy: Option<Arc<HostProxy>>,
    ) -> Self {
        let registry = Arc::new(Registry::new());
        let tracer = Tracer::new();
        // One leaf sheet per (gpu, tenant) cell — the single write path —
        // and sum views for every rollup anyone reads.
        let n_tenants = config.num_tenants();
        let cell_stats: Vec<Vec<Arc<DaemonStats>>> = (0..gpus.len())
            .map(|g| {
                (0..n_tenants)
                    .map(|t| {
                        let leaf = Arc::new(DaemonStats::default());
                        leaf.register(&registry, Labels::gpu(g as u32).with_tenant(t as u32));
                        leaf
                    })
                    .collect()
            })
            .collect();
        let stats = Arc::new(DaemonStats::sum_of(
            cell_stats.iter().flatten().map(Arc::as_ref),
        ));
        stats.register(&registry, Labels::none());
        // Device occupancy, read from the devices themselves: accepted
        // service time including setup (a PCIe direction's DMA setup, the
        // disk's seeks). Over the elapsed virtual time it says how busy a
        // device was; against `daemon_bytes_*` at a link's bandwidth it
        // says how much of that was setup.
        for (g, gpu) in gpus.iter().enumerate() {
            let (h2d, d2h) = (Arc::clone(gpu), Arc::clone(gpu));
            let labels = Labels::gpu(g as u32);
            registry.probe("pcie_h2d_busy_ns", labels, move || h2d.dma().busy_ns().0);
            registry.probe("pcie_d2h_busy_ns", labels, move || d2h.dma().busy_ns().1);
        }
        let disk = Arc::clone(&fs);
        registry.probe("disk_busy_ns", Labels::none(), move || disk.disk_busy_ns());
        if let Some(proxy) = &proxy {
            let (up, down) = (Arc::clone(proxy), Arc::clone(proxy));
            registry.probe("net_up_busy_ns", Labels::none(), move || {
                up.link_busy_ns().0
            });
            registry.probe("net_down_busy_ns", Labels::none(), move || {
                down.link_busy_ns().1
            });
        }
        let engine = Arc::new(Engine {
            workers: WorkerPool::weighted(config.daemon_workers, &config.tenant_weights),
            timings: fs.timings().clone(),
            io_chunk_pages: config.io_chunk_pages,
        });
        // The same for the daemon's workers: CPU time drawn, summed over
        // the pool. Over `elapsed × daemon_workers` it is their occupancy.
        let cpu = Arc::clone(&engine);
        registry.probe("daemon_worker_busy_ns", Labels::none(), move || {
            cpu.workers.busy_ns()
        });
        let per_gpu_stats: Vec<Arc<DaemonStats>> = cell_stats
            .iter()
            .map(|row| Arc::new(DaemonStats::sum_of(row.iter().map(Arc::as_ref))))
            .collect();
        let per_tenant_stats: Vec<Arc<DaemonStats>> = (0..n_tenants)
            .map(|t| {
                Arc::new(DaemonStats::sum_of(
                    cell_stats.iter().map(move |row| row[t].as_ref()),
                ))
            })
            .collect();
        // What requests are served against: the proxy if this is the host
        // side of a cross-host fleet, else the file system itself.
        let daemon = Daemon {
            backing: match &proxy {
                Some(proxy) => Arc::clone(proxy) as _,
                None => Arc::clone(&fs) as _,
            },
            gpus: gpus.clone(),
            cells: cell_stats.clone(),
            engine: Arc::clone(&engine),
        };
        let hub = Arc::new(RpcHub::new(
            config.daemon_workers,
            n_tenants,
            &config.tenant_admission,
            move |req: &Request, tenant, gpu, issue| daemon.serve(req, tenant, gpu, issue),
        ));
        Self {
            fs,
            gpus,
            hub,
            cell_stats,
            stats,
            per_gpu_stats,
            per_tenant_stats,
            registry,
            tracer,
            engine,
            config: config.clone(),
            proxy,
        }
    }

    /// The host file system.
    #[must_use]
    pub fn fs(&self) -> &Arc<HostFs> {
        &self.fs
    }

    /// The GPUs served by this daemon.
    #[must_use]
    pub fn gpus(&self) -> &[Arc<Gpu>] {
        &self.gpus
    }

    /// The RPC hub (used by mounts to issue calls).
    #[must_use]
    pub fn hub(&self) -> &Arc<RpcHub> {
        &self.hub
    }

    /// The host proxy this daemon serves through, when it is the host
    /// side of a cross-host fleet (`None` for a local daemon).
    #[must_use]
    pub fn proxy(&self) -> Option<&Arc<HostProxy>> {
        self.proxy.as_ref()
    }

    /// Daemon activity counters (aggregated over every GPU this daemon
    /// serves). See [`GpufsHost::stats_for`] for
    /// the per-GPU breakdown.
    #[must_use]
    pub fn stats(&self) -> &DaemonStats {
        &self.stats
    }

    /// Daemon activity counters attributed to GPU `gpu_id` alone. Each
    /// served request lands on both the aggregate sheet and the sheet of
    /// the GPU that issued it, so summing `stats_for` over every GPU
    /// reproduces [`GpufsHost::stats`] counter for counter.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_id` is not a GPU of this host.
    #[must_use]
    pub fn stats_for(&self, gpu_id: usize) -> &DaemonStats {
        &self.per_gpu_stats[gpu_id]
    }

    /// Daemon activity counters attributed to `tenant` alone. Summing
    /// over every tenant reproduces [`GpufsHost::stats`] counter for
    /// counter.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is not below [`GpufsHost::num_tenants`].
    #[must_use]
    pub fn stats_for_tenant(&self, tenant: crate::rpc::TenantId) -> &DaemonStats {
        &self.per_tenant_stats[tenant]
    }

    /// Daemon activity counters attributed to one `(gpu, tenant)` cell —
    /// the leaf sheets every view above is summed from.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_id` is not a GPU of this host or `tenant` is not
    /// below [`GpufsHost::num_tenants`].
    #[must_use]
    pub fn stats_for_cell(&self, gpu_id: usize, tenant: crate::rpc::TenantId) -> &DaemonStats {
        &self.cell_stats[gpu_id][tenant]
    }

    /// Tenant classes this host's daemon distinguishes (≥ 1).
    #[must_use]
    pub fn num_tenants(&self) -> usize {
        self.per_tenant_stats.len()
    }

    /// The host's metrics registry: every daemon and mount counter sheet,
    /// keyed `name{host=..,gpu=..,tenant=..}`, snapshottable in one call.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The host's span tracer. Spans are collected only after
    /// [`GpufsHost::set_tracing`]`(true)`; drain them with
    /// [`Tracer::snapshot`].
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Turn span tracing on or off. Off (the default) is time-transparent:
    /// virtual results are bit-identical to a build without tracing (the
    /// `trace_equiv` integration test pins this).
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// See the `config` field.
    pub(crate) fn config(&self) -> &GpufsConfig {
        &self.config
    }

    /// Size of the (virtual-time) worker pool this host was started with.
    #[must_use]
    pub fn daemon_workers(&self) -> usize {
        self.config.daemon_workers
    }

    /// Chunk size (in buffer-cache pages) of the pipelined I/O engine
    /// this host was started with; `0` is the serialized engine.
    #[must_use]
    pub fn io_chunk_pages(&self) -> usize {
        self.engine.io_chunk_pages
    }

    /// Stop the daemon. Idempotent. Calls arriving after it fail with
    /// [`crate::GpufsError::DaemonStopped`]; a request already being served
    /// finishes on its caller's thread, so no threadblock is ever left
    /// waiting on an unanswered request.
    pub fn shutdown(&mut self) {
        self.hub.close();
    }
}

impl Drop for GpufsHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the hub serves requests through: the host's storage, the GPUs'
/// DMA engines, the leaf stat sheets and the I/O engine.
struct Daemon {
    backing: Arc<dyn Backing>,
    gpus: Vec<Arc<Gpu>>,
    cells: Vec<Vec<Arc<DaemonStats>>>,
    engine: Arc<Engine>,
}

impl Daemon {
    /// Serve one request of `tenant` from GPU `gpu`, issued at `issue`,
    /// on the calling thread. Returns the response and the virtual time
    /// the daemon finished with it.
    fn serve(&self, req: &Request, tenant: TenantId, gpu: GpuId, issue: Nanos) -> Served {
        debug_assert!(tenant < self.cells[gpu].len(), "set_tenant clamps every id");
        let ctx = ServeCtx {
            leaf: &self.cells[gpu][tenant],
            tenant,
            engine: &self.engine,
            queue_ns: Cell::new(0),
            cpu_ns: Cell::new(0),
        };
        ctx.on(|s| s.requests.incr());
        // Each request is timed from its own issue point: poll-notice
        // latency, then dispatch — the first CPU time it draws from the
        // worker pool, so a request no worker is free for waits here —
        // then the host file system and DMA engines. All of it is
        // arbitrated in virtual time, which keeps the result independent
        // of which real thread serves the request and when.
        let timings = &self.engine.timings;
        let mut clock = Clock::starting_at(issue + timings.rpc_poll_ns);
        ctx.cpu(&mut clock, timings.rpc_dispatch_ns);
        // The caller's RPC span is this thread's current scope, so the
        // serve span (and any span it forwards over the wire) nests
        // under it.
        let sp = obs::span(req.serve_span_name());
        let serve_start = clock.now();
        let (result, end) = handlers::serve(&*self.backing, &self.gpus, &ctx, &mut clock, req);
        sp.finish_attrs(
            serve_start,
            end,
            &[
                ("queue_ns", ctx.queue_ns.get()),
                ("cpu_ns", ctx.cpu_ns.get()),
            ],
        );
        (result, end)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::rpc::{Request, RespOk};
    use gpusim::GpuSpec;
    use hostfs::HostFsConfig;
    use simtime::{Nanos, Timings};

    pub(crate) fn host() -> GpufsHost {
        pool(1)
    }

    /// A host whose daemon has `workers` workers.
    pub(crate) fn pool(workers: usize) -> GpufsHost {
        let fs = Arc::new(HostFs::new(HostFsConfig::default()));
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        let config = crate::config::GpufsConfig::default().with_concurrency(1, workers);
        GpufsHost::with_config(fs, vec![gpu], &config)
    }

    /// A single-worker host serving `n` GPUs.
    pub(crate) fn host_gpus(n: usize) -> GpufsHost {
        let fs = Arc::new(HostFs::new(HostFsConfig::default()));
        let gpus = (0..n)
            .map(|i| Arc::new(Gpu::new(i, GpuSpec::small_test())))
            .collect();
        GpufsHost::new(fs, gpus)
    }

    /// A single-worker host whose I/O engine chunks at `io_chunk_pages`
    /// (`0` = serialized).
    pub(crate) fn host_chunked(io_chunk_pages: usize) -> GpufsHost {
        let fs = Arc::new(HostFs::new(HostFsConfig::default()));
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        let config = crate::config::GpufsConfig::default().with_io_chunk(io_chunk_pages);
        GpufsHost::build(fs, vec![gpu], &config, None)
    }

    /// [`host_chunked`] behind a storage server on a free link, host cache
    /// off: the same engine, its chunks served over the wire.
    pub(crate) fn host_chunked_proxied(io_chunk_pages: usize) -> GpufsHost {
        let fs = Arc::new(HostFs::new(HostFsConfig {
            timings: Timings::default().without_net(),
            ..HostFsConfig::default()
        }));
        let server = Arc::new(crate::remote::StorageServer::new(fs));
        let proxy = Arc::new(HostProxy::new(server, 0));
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        let config = crate::config::GpufsConfig::default().with_io_chunk(io_chunk_pages);
        GpufsHost::with_proxy(proxy, vec![gpu], &config)
    }

    pub(crate) fn call(h: &GpufsHost, req: Request) -> crate::error::GpufsResult<(RespOk, Nanos)> {
        h.hub().call(0, 0, 0, &Timings::default(), req)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{call, pool};
    use super::*;
    use crate::error::{GpufsError, GpufsResult};
    use crate::rpc::{MetaOk, MetaOp, Request, RespOk};
    use gpusim::GpuSpec;
    use hostfs::HostFsConfig;
    use simtime::Timings;

    #[test]
    fn shutdown_is_idempotent_and_rejects_later_calls() {
        let mut h = testutil::host();
        h.shutdown();
        h.shutdown();
        let err = call(&h, Request::Meta(MetaOp::Stat { path: "/".into() }));
        assert!(matches!(err, Err(crate::error::GpufsError::DaemonStopped)));

        // Shut a multi-worker daemon down while requests are in flight
        // from many client threads. Every call must resolve — served
        // before the close, or rejected after it.
        let mut h = pool(3);
        h.fs().create("/inflight", &[1u8; 64]).unwrap();
        let outcomes = std::thread::scope(|s| {
            let clients: Vec<_> = (0..8)
                .map(|_| {
                    let hub = Arc::clone(h.hub());
                    s.spawn(move || {
                        let t = Timings::default();
                        let mut oks = 0u32;
                        let mut stopped = 0u32;
                        for _ in 0..50 {
                            match hub.call(
                                0,
                                0,
                                0,
                                &t,
                                Request::Meta(MetaOp::Stat {
                                    path: "/inflight".into(),
                                }),
                            ) {
                                Ok((RespOk::Meta(MetaOk::Stat { size, .. }), _)) => {
                                    assert_eq!(size, 64);
                                    oks += 1;
                                }
                                Err(crate::error::GpufsError::DaemonStopped) => stopped += 1,
                                other => panic!("unexpected outcome: {other:?}"),
                            }
                        }
                        (oks, stopped)
                    })
                })
                .collect();
            // Let some requests through, then close under load.
            std::thread::yield_now();
            h.shutdown();
            h.shutdown(); // still idempotent with calls in flight
            clients
                .into_iter()
                .map(|c| c.join().unwrap())
                .collect::<Vec<_>>()
        });
        let served: u32 = outcomes.iter().map(|(o, _)| o).sum();
        let rejected: u32 = outcomes.iter().map(|(_, r)| r).sum();
        assert_eq!(served + rejected, 8 * 50, "every call resolved");
        assert!(matches!(
            call(&h, Request::Meta(MetaOp::Stat { path: "/".into() })),
            Err(crate::error::GpufsError::DaemonStopped)
        ));
    }

    #[test]
    fn stats_are_attributed_per_gpu_and_sum_to_the_aggregate() {
        use crate::rpc::PageRead;
        let h = testutil::host_gpus(2);
        h.fs()
            .create("/attr", &(0u32..8192).map(|i| i as u8).collect::<Vec<_>>())
            .unwrap();
        let t = Timings::default();
        let open = |write: bool| {
            let (ok, _) = h
                .hub()
                .call(
                    0,
                    0,
                    0,
                    &t,
                    Request::Meta(MetaOp::Open {
                        path: "/attr".into(),
                        write,
                        create: false,
                        truncate: false,
                    }),
                )
                .unwrap();
            let RespOk::Meta(MetaOk::Opened { fd, .. }) = ok else {
                panic!()
            };
            fd
        };
        let fd = open(false);
        // GPU 0 reads three pages, GPU 1 reads one: the call's GPU id
        // decides which breakdown sheet each request lands on.
        for (gpu, reads) in [(0usize, 3u64), (1, 1)] {
            for i in 0..reads {
                let dst = h.gpus()[gpu].global().alloc(512).unwrap();
                let (_, _) = h
                    .hub()
                    .call(
                        0,
                        gpu,
                        0,
                        &t,
                        Request::ReadPages {
                            fd,
                            pages: vec![PageRead {
                                offset: i * 512,
                                len: 512,
                                dst,
                            }],
                            gpu,
                        },
                    )
                    .unwrap();
            }
        }
        let (g0, g1, all) = (h.stats_for(0), h.stats_for(1), h.stats());
        assert_eq!(g0.bytes_h2d.get(), 3 * 512);
        assert_eq!(g1.bytes_h2d.get(), 512);
        assert_eq!(all.bytes_h2d.get(), 4 * 512);
        // The open went to GPU 0's sheet (its call named GPU 0).
        assert_eq!((g0.opens.get(), g1.opens.get()), (1, 0));
        // Every counter sums across GPUs to the aggregate.
        assert_eq!(g0.requests.get() + g1.requests.get(), all.requests.get());
        assert_eq!(
            g0.read_dma_chunks.get() + g1.read_dma_chunks.get(),
            all.read_dma_chunks.get()
        );
    }

    #[test]
    fn stats_are_attributed_per_tenant_and_sum_to_the_aggregate() {
        use crate::config::GpufsConfig;
        use crate::rpc::PageRead;
        let fs = Arc::new(HostFs::new(hostfs::HostFsConfig::default()));
        let gpu = Arc::new(Gpu::new(0, gpusim::GpuSpec::small_test()));
        let cfg = GpufsConfig::default().with_tenant_weights(vec![2, 1]);
        let h = GpufsHost::with_config(fs, vec![gpu], &cfg);
        assert_eq!(h.num_tenants(), 2);
        h.fs()
            .create(
                "/shared",
                &(0u32..4096).map(|i| i as u8).collect::<Vec<_>>(),
            )
            .unwrap();
        let t = Timings::default();
        let (ok, _) = h
            .hub()
            .call(
                0,
                0,
                0,
                &t,
                Request::Meta(MetaOp::Open {
                    path: "/shared".into(),
                    write: false,
                    create: false,
                    truncate: false,
                }),
            )
            .unwrap();
        let RespOk::Meta(MetaOk::Opened { fd, .. }) = ok else {
            panic!()
        };
        // Tenant 0 reads three pages, tenant 1 reads one: the call's
        // tenant tag decides which breakdown sheet each request lands on.
        for (tenant, reads) in [(0usize, 3u64), (1, 1)] {
            for i in 0..reads {
                let dst = h.gpus()[0].global().alloc(512).unwrap();
                h.hub()
                    .call(
                        tenant,
                        0,
                        0,
                        &t,
                        Request::ReadPages {
                            fd,
                            pages: vec![PageRead {
                                offset: i * 512,
                                len: 512,
                                dst,
                            }],
                            gpu: 0,
                        },
                    )
                    .unwrap();
            }
        }
        let (t0, t1, all) = (h.stats_for_tenant(0), h.stats_for_tenant(1), h.stats());
        assert_eq!(t0.bytes_h2d.get(), 3 * 512);
        assert_eq!(t1.bytes_h2d.get(), 512);
        // The open was tagged tenant 0.
        assert_eq!((t0.opens.get(), t1.opens.get()), (1, 0));
        // Every counter row sums across tenant sheets to the aggregate —
        // iterated over the snapshot so a future counter can't escape.
        for (i, (name, total)) in all.snapshot().into_iter().enumerate() {
            assert_eq!(
                t0.snapshot()[i].1 + t1.snapshot()[i].1,
                total,
                "tenant sheets must sum to the aggregate for `{name}`"
            );
        }
        // An out-of-range tenant id is clamped once, where `set_tenant`
        // stores it: the block's open lands on the last tenant's sheet.
        let (before, opens) = (t1.requests.get(), all.opens.get());
        let mount = h
            .mount(0, GpufsConfig::small_test().with_tenant_weights(vec![2, 1]))
            .unwrap();
        mount.set_tenant(0, 9);
        h.gpus()[0].launch(gpusim::Grid::new(1, 32), 0, |blk| {
            let fd = mount
                .open(blk, "/shared", crate::GOpenMode::ReadOnly)
                .unwrap();
            mount.close(blk, fd).unwrap();
        });
        assert_eq!(all.opens.get(), opens + 1);
        assert_eq!(h.stats_for_tenant(1).opens.get(), 1);
        assert!(h.stats_for_tenant(1).requests.get() > before);
    }

    #[test]
    fn mount_rejects_mismatched_concurrency_config() {
        use crate::config::GpufsConfig;
        let h = pool(3);
        assert_eq!(h.daemon_workers(), 3);
        // A config naming a different worker count would be a silent
        // no-op (the daemon already exists): mount must reject it.
        let err = h.mount(0, GpufsConfig::small_test());
        assert!(matches!(err, Err(GpufsError::InvalidConfig(_))));
        let ok = h.mount(0, GpufsConfig::small_test().with_concurrency(4, 3));
        assert!(ok.is_ok(), "the channel count is no daemon state");
        // The I/O-engine chunk size is host-side state too: a config
        // disagreeing with the running daemon is rejected, not ignored.
        let err = h.mount(
            0,
            GpufsConfig::small_test()
                .with_concurrency(4, 3)
                .with_io_chunk(0),
        );
        assert!(matches!(err, Err(GpufsError::InvalidConfig(_))));
        // And the config path agrees with itself end to end.
        let fs = Arc::new(HostFs::new(hostfs::HostFsConfig::default()));
        let gpu = Arc::new(Gpu::new(0, gpusim::GpuSpec::small_test()));
        let cfg = GpufsConfig::small_test()
            .with_concurrency(2, 2)
            .with_io_chunk(0);
        let h2 = GpufsHost::with_config(fs, vec![gpu], &cfg);
        assert_eq!(h2.io_chunk_pages(), 0);
        assert!(h2.mount(0, cfg).is_ok());
    }

    /// Mount `config` on a fresh one-GPU host started with `host`.
    fn mount_on(host: &GpufsConfig, config: GpufsConfig) -> GpufsResult<()> {
        let fs = Arc::new(HostFs::new(HostFsConfig::default()));
        let gpu = Arc::new(Gpu::new(0, GpuSpec::small_test()));
        GpufsHost::with_config(fs, vec![gpu], host)
            .mount(0, config)
            .map(drop)
    }

    /// Whether `r` is a refusal whose message contains `why`.
    fn refused(r: GpufsResult<()>, why: &str) -> bool {
        matches!(r, Err(GpufsError::InvalidConfig(msg)) if msg.contains(why))
    }

    #[test]
    fn mount_refuses_a_zero_window_a_zero_pool_and_unordered_dirty_marks() {
        // Each config is mounted on a host started with it, so only the
        // field's own rule can refuse it.
        for config in [
            GpufsConfig::small_test().with_readahead(0),
            GpufsConfig::small_test().with_concurrency(4, 0),
        ] {
            assert!(refused(mount_on(&config, config.clone()), "at least 1"));
        }
        let config = GpufsConfig::small_test().with_async_writeback(8, 8);
        assert!(refused(
            mount_on(&config, config.clone()),
            "dirty_low_pages"
        ));
        let config = GpufsConfig::small_test().with_async_writeback(8, 7);
        assert_eq!(mount_on(&config, config.clone()), Ok(()));
    }

    #[test]
    fn every_non_empty_tenant_vector_names_every_tenant() {
        let config = GpufsConfig::small_test()
            .with_tenant_weights(vec![3, 1])
            .with_tenant_admission(vec![0, 4, 2]);
        assert!(refused(mount_on(&config, config.clone()), "tenant vector"));
        let config = GpufsConfig::small_test()
            .with_tenant_weights(vec![3, 1])
            .with_tenant_admission(vec![0, 4])
            .with_tenant_quotas(vec![8, 8]);
        assert_eq!(mount_on(&config, config.clone()), Ok(()));
        let config = GpufsConfig::small_test().with_tenant_admission(vec![0, 4, 2]);
        assert_eq!(
            mount_on(&config, config.clone()),
            Ok(()),
            "empty vectors name none"
        );
    }

    #[test]
    fn a_mount_names_no_more_tenants_than_its_host() {
        // Frame quotas are client-side, but their count sizes the host's
        // hub and stat sheets: a default host has one tenant.
        let two = GpufsConfig::small_test().with_tenant_quotas(vec![8, 8]);
        let r = mount_on(&GpufsConfig::default(), two.clone());
        assert!(refused(r.clone(), "num_tenants()"), "{r:?}");
        assert!(refused(r, "frame quotas"));
        assert_eq!(mount_on(&two, two.clone()), Ok(()));
        // Fewer tenants than the host is fine: ids stay in range.
        assert_eq!(mount_on(&two, GpufsConfig::small_test()), Ok(()));
    }

    #[test]
    fn worker_pool_serves_concurrent_clients_correctly() {
        use crate::rpc::PageRead;
        let h = pool(3);
        h.fs()
            .create("/pool", &(0u32..4096).map(|i| i as u8).collect::<Vec<_>>())
            .unwrap();
        let (ok, _) = call(
            &h,
            Request::Meta(MetaOp::Open {
                path: "/pool".into(),
                write: false,
                create: false,
                truncate: false,
            }),
        )
        .unwrap();
        let RespOk::Meta(MetaOk::Opened { fd, .. }) = ok else {
            panic!()
        };
        std::thread::scope(|s| {
            for slot in 0..8usize {
                let h = &h;
                s.spawn(move || {
                    let t = Timings::default();
                    let dst = h.gpus()[0].global().alloc(512).unwrap();
                    for round in 0..10u64 {
                        let offset = ((slot as u64 * 10 + round) % 8) * 512;
                        let (ok, _) = h
                            .hub()
                            .call(
                                0,
                                0,
                                0,
                                &t,
                                Request::ReadPages {
                                    fd,
                                    pages: vec![PageRead {
                                        offset,
                                        len: 512,
                                        dst,
                                    }],
                                    gpu: 0,
                                },
                            )
                            .unwrap();
                        let RespOk::Read { ns } = ok else { panic!() };
                        assert_eq!(ns, vec![512]);
                        let mut out = vec![0u8; 512];
                        h.gpus()[0].global().read(dst, &mut out);
                        for (i, &b) in out.iter().enumerate() {
                            assert_eq!(b, (offset as usize + i) as u8, "byte {i} of {offset}");
                        }
                    }
                });
            }
        });
        assert_eq!(h.stats().requests.get(), 1 + 8 * 10);
    }

    /// The victim's read latencies, in virtual ns, when a scan tenant
    /// floods the daemon's one worker: each round the scan issues eight
    /// 4 KB reads and the victim one a microsecond later, more CPU than
    /// the worker has. DMA is free, so the worker is the one shared
    /// resource that queues. One thread issues every call, so the result
    /// is the same on every run.
    fn victim_latencies(config: &crate::config::GpufsConfig) -> Vec<Nanos> {
        use crate::rpc::PageRead;
        let fs = Arc::new(HostFs::new(hostfs::HostFsConfig::default()));
        let no_dma = Timings::default().without_dma();
        let gpu = Arc::new(Gpu::with_timings(0, gpusim::GpuSpec::small_test(), &no_dma));
        let h = GpufsHost::with_config(Arc::clone(&fs), vec![Arc::clone(&gpu)], config);
        fs.create_synthetic("/data", 1 << 20, 3).unwrap();
        let _ = fs.read_whole("/data", 0).unwrap();
        fs.reset_device_time();
        let t = Timings::default();
        let (RespOk::Meta(MetaOk::Opened { fd, .. }), _) = call(
            &h,
            Request::Meta(MetaOp::Open {
                path: "/data".into(),
                write: false,
                create: false,
                truncate: false,
            }),
        )
        .unwrap() else {
            panic!("open answers Opened")
        };
        let dst = gpu.global().alloc(4096).unwrap();
        let read = |tenant, issue, offset: u64, len| {
            let pages = vec![PageRead { offset, len, dst }];
            let req = Request::ReadPages { fd, pages, gpu: 0 };
            h.hub().call(tenant, 0, issue, &t, req).unwrap().1 - issue
        };
        (0..64u64)
            .map(|round| {
                let at = 100_000 + round * 20_000;
                for i in 0..8 {
                    read(1, at, ((round * 8 + i) % 256) * 4096, 4096);
                }
                read(0, at + 1_000, (round % 256) * 4096, 4096)
            })
            .collect()
    }

    #[test]
    fn weights_lower_the_victims_p99_in_virtual_time() {
        use crate::config::GpufsConfig;
        let p99 = |mut v: Vec<Nanos>| {
            v.sort_unstable();
            v[v.len() * 99 / 100]
        };
        // Two tenants either way; only the weights differ.
        let fifo = victim_latencies(&GpufsConfig::default().with_tenant_admission(vec![0, 0]));
        let fair = victim_latencies(&GpufsConfig::default().with_tenant_weights(vec![8, 1]));
        let (fifo, fair) = (p99(fifo), p99(fair));
        assert!(
            fair * 2 < fifo,
            "weights [8, 1] cut the victim's p99: {fair} ns vs {fifo} ns unweighted"
        );
        // Bit-for-bit repeatable: no real thread decided anything.
        let again = victim_latencies(&GpufsConfig::default().with_tenant_weights(vec![8, 1]));
        assert_eq!(p99(again), fair);
    }
}
