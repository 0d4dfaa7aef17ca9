//! GPUfs mount configuration and open modes.

/// Access and consistency mode of one `gopen` (paper Table 1 and §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GOpenMode {
    /// `O_RDONLY`: read-only; pages are fetched on demand and never
    /// written back.
    ReadOnly,
    /// `O_RDWR`: read-write. A pristine copy of each fetched page is kept
    /// so `gfsync`/`gmsync` can diff-and-merge concurrent non-overlapping
    /// writers (paper §3.1; implemented here although the paper's
    /// prototype restricted itself to a single writer).
    ReadWrite,
    /// `O_GWRONCE`: create a write-once file. Pages are never fetched from
    /// the host; the pristine copy is implicitly all zeros, so write-back
    /// reduces to a "diff against zeros" (paper §3.1–3.2). Each byte may
    /// be written at most once; overwrites may be partially lost.
    WriteOnce,
    /// `O_NOSYNC`: a GPU-private temporary file. Data is never propagated
    /// to the host except under memory pressure, and is discarded on
    /// close.
    Temp,
}

impl GOpenMode {
    /// Whether the mode permits reads.
    #[must_use]
    pub fn readable(self) -> bool {
        !matches!(self, GOpenMode::WriteOnce)
    }

    /// Whether the mode permits writes.
    #[must_use]
    pub fn writable(self) -> bool {
        !matches!(self, GOpenMode::ReadOnly)
    }

    /// Whether dirty pages ever propagate back to the host.
    #[must_use]
    pub fn syncs_to_host(self) -> bool {
        !matches!(self, GOpenMode::ReadOnly | GOpenMode::Temp)
    }

    /// Whether a pristine copy of each fetched page is needed for
    /// diff-and-merge write-back. Only full read-write sharing needs one;
    /// write-once diffs against zeros.
    #[must_use]
    pub fn needs_pristine(self) -> bool {
        matches!(self, GOpenMode::ReadWrite)
    }
}

/// How many times a buffer-cache lookup retries lock-free before falling
/// back to the fpage lock. The paper retries once and locks on the third
/// attempt (§4.2).
pub(crate) const LOCKFREE_RETRIES: u32 = 1;

/// Shard count of the buffer-cache control plane: the frame freelist,
/// the radix node arena/leaf registry, and the open/closed/path-lock file
/// tables each split into this many independently locked shards (frames
/// are keyed by the faulting threadblock, tables by key hash) so
/// concurrent misses on different shards never contend on one `Mutex`.
/// Frame allocation steals from sibling shards on local exhaustion, so
/// capacity semantics are shard-count-independent.
pub(crate) const CACHE_SHARDS: usize = 8;

/// Leaf counter sheets per tenant: a lane's cache counters land on
/// stripe `lane % LANE_STRIPES` of its tenant, and the tenant and mount
/// sheets are sum views over the stripes. 32 gives each of the C2075's
/// 28 resident threadblocks a stripe of its own, so a hit bumps no
/// counter another resident block bumps.
pub const LANE_STRIPES: usize = 32;

/// Upper bound on the dirty pages of one file that `gfsync`, the
/// stale-reopen flush, and eviction gather into a single batched
/// `WritePages` RPC (one round-trip, one scatter-gather D2H DMA charge).
/// Batching never changes *which* bytes are written — only how many
/// round-trips carry them. This page count is the only limit, under
/// either daemon engine: no workload writes back through the serialized
/// engine ([`GpufsConfig::io_chunk_pages`] `= 0`), and the pipelined one
/// overlaps each chunk's gather with the previous chunk's `pwrite`s.
pub(crate) const WRITE_BATCH_PAGES: usize = 32;

/// Configuration of one GPU's GPUfs instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpufsConfig {
    /// Buffer-cache page size in bytes. The paper explores 16 KB–16 MB and
    /// finds 128 KB–512 KB a good balance (§5.1); the default follows.
    pub page_size: usize,
    /// Total buffer-cache capacity in bytes (the raw data array).
    pub cache_bytes: usize,
    /// Disable the lock-free fast path entirely: every lookup takes the
    /// fpage lock instead of first retrying lock-free once (§4.2). This
    /// exists only for the Figure 7 ablation ("locked" series) and the
    /// corresponding Criterion microbenchmark.
    pub force_locked: bool,
    /// Ablation: disable the closed-file table (paper §4.1). Closing a
    /// file discards its cached pages (dirty data is flushed first), so
    /// every reopen refetches from the host.
    pub disable_closed_table: bool,
    /// Ablation: restore POSIX close semantics (paper §3.2 argues against
    /// them): the last `gclose` synchronously writes back all dirty pages,
    /// even though the nondeterministic block scheduler may reopen the
    /// file moments later.
    pub sync_on_close: bool,
    /// Readahead window: on a page miss during *sequential* access, up to
    /// this many consecutive pages are fetched in a single batched
    /// `ReadPages` RPC (one daemon round-trip, one scatter-gather DMA
    /// charge) instead of one page per round-trip. `1` disables readahead
    /// and reproduces the paper prototype's strictly on-demand paging;
    /// random access is detected and never widened — a non-sequential
    /// `gread` batches at most the pages it itself spans, so random
    /// workloads fetch identical bytes at any window.
    pub readahead_pages: usize,
    /// Chunk size, in buffer-cache pages, of the daemon's pipelined I/O
    /// engine. A batched `ReadPages`/`WritePages` RPC is streamed through
    /// the daemon in chunks of this many pages so the host file I/O of
    /// chunk *k+1* overlaps the DMA of chunk *k* (reads: pread ahead of
    /// the in-flight scatter DMA; writes: D2H gather ahead of the
    /// in-flight `pwrite`s). The whole batch stays one scatter-gather DMA
    /// transaction — setup is paid once, on the first chunk; each extra
    /// chunk costs only a cheap CPU-side submit
    /// ([`simtime::Timings::dma_chunk_ns`]).
    ///
    /// Any value at least the batch width disables the pipeline for that
    /// batch: all preads, then one DMA (and the inverse for writes). `0`
    /// is the serialized engine proper on the **paper prototype's DMA
    /// path**, the ablation of the descriptor ring (Figures 4 and 5): each
    /// RPC's DMA is a one-shot transaction that pays its own setup and
    /// never joins the ring. Its worker CPU is drawn from the same
    /// [`GpufsConfig::daemon_workers`] pool as any other setting's.
    /// Host-side state like
    /// [`GpufsConfig::daemon_workers`]: consumed by
    /// [`crate::GpufsHost::with_config`] and validated at `mount`.
    pub io_chunk_pages: usize,
    /// Workers of the host daemon (paper §4.3: a multi-threaded daemon
    /// overlapping host file I/O with DMA). `1` is the paper's
    /// single-threaded event loop. The workers are the CPU the daemon
    /// has in virtual time: requests draw their dispatch, file-I/O and
    /// DMA-submit costs from a pool of this many servers and queue once
    /// they ask for more ([`simtime::WorkerPool`]). Host-side state:
    /// consumed by [`crate::GpufsHost::with_config`], and `mount` rejects
    /// a config whose value disagrees with the daemon it is mounted on
    /// (never a silent no-op).
    pub daemon_workers: usize,
    /// Cap, in pages, on the mount's dirty pages. `0` (the default)
    /// leaves the cache uncapped: dirty pages wait for `gfsync`,
    /// `gmsync` or eviction. When > 0, a `gwrite` that finds
    /// `dirty_high_pages` or more dirty pages first writes back the
    /// mount's syncable files on its own threadblock, through the
    /// batched `WritePages` path, until at most
    /// [`GpufsConfig::dirty_low_pages`] remain; the block pays for that
    /// write-back in virtual time.
    pub dirty_high_pages: usize,
    /// How far a writer at the dirty-page cap drains the cache: down to
    /// this many dirty pages. Meaningful only when
    /// [`GpufsConfig::dirty_high_pages`] > 0; clamped below it.
    pub dirty_low_pages: usize,
    /// Service weights per tenant, indexed by [`crate::rpc::TenantId`].
    /// Empty (the default), or a single weight, leaves the daemon's
    /// workers one FIFO; two or more share them by start-time fair
    /// queueing in proportion to these weights, in virtual time
    /// ([`simtime::WorkerPool::weighted`]; a weight-0 tenant counts as 1).
    /// Host-side state: consumed by [`crate::GpufsHost::with_config`] and
    /// validated at `mount` like [`GpufsConfig::daemon_workers`].
    pub tenant_weights: Vec<u32>,
    /// Per-tenant admission caps: the most RPCs one tenant may have
    /// unfinished at any virtual instant. `0` for a tenant means
    /// unlimited; empty (the default) disables admission control
    /// entirely. A request over its tenant's cap starts when the tenant's
    /// earliest unfinished request completes. Host-side state, validated
    /// at `mount` like [`GpufsConfig::daemon_workers`].
    pub tenant_admission: Vec<usize>,
    /// Per-tenant buffer-cache frame quotas, in pages. Soft quotas with
    /// steal-when-idle: allocation is never refused while free frames
    /// exist, but reclaim under pressure prefers the frames of over-quota
    /// tenants (the caller's own first), so a hot tenant evicts its own
    /// pages before anyone else's. Empty (the default) disables
    /// partitioning. Client-side state: the host daemon never sees it.
    pub tenant_frame_quotas: Vec<usize>,
}

impl Default for GpufsConfig {
    fn default() -> Self {
        Self {
            page_size: 256 << 10,
            cache_bytes: 1 << 30,
            force_locked: false,
            disable_closed_table: false,
            sync_on_close: false,
            readahead_pages: 1,
            io_chunk_pages: 2,
            daemon_workers: 1,
            dirty_high_pages: 0,
            dirty_low_pages: 0,
            tenant_weights: Vec::new(),
            tenant_admission: Vec::new(),
            tenant_frame_quotas: Vec::new(),
        }
    }
}

/// [`GpufsConfig::daemon_key`]: the knobs that are state of the host
/// daemon, with the values the daemon runs them at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DaemonKey {
    pub daemon_workers: usize,
    pub io_chunk_pages: usize,
    pub tenant_weights: Vec<u32>,
    pub tenant_admission: Vec<usize>,
}

impl GpufsConfig {
    /// A configuration with the given page size and cache capacity.
    ///
    /// # Panics
    ///
    /// Panics unless `page_size` is a positive power of two no larger
    /// than `cache_bytes`.
    #[must_use]
    pub fn new(page_size: usize, cache_bytes: usize) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(
            page_size <= cache_bytes,
            "cache must hold at least one page"
        );
        Self {
            page_size,
            cache_bytes,
            ..Self::default()
        }
    }

    /// Number of page frames in the raw data array.
    #[must_use]
    pub fn num_frames(&self) -> usize {
        self.cache_bytes / self.page_size
    }

    /// Copy with the readahead window set to `pages` (clamped to ≥ 1).
    #[must_use]
    pub fn with_readahead(self, pages: usize) -> Self {
        Self {
            readahead_pages: pages.max(1),
            ..self
        }
    }

    /// Copy with the daemon's pipelined-I/O chunk size set to `pages`
    /// (`0` = the serialized engine: all file I/O of a batch, then one
    /// one-shot DMA — the paper prototype's DMA path).
    #[must_use]
    pub fn with_io_chunk(self, pages: usize) -> Self {
        Self {
            io_chunk_pages: pages,
            ..self
        }
    }

    /// Copy with the daemon's worker count set to `workers` (clamped to
    /// ≥ 1; `1` = the paper's single-threaded event loop).
    ///
    /// `channels` has no effect. It named the paper's independent
    /// CPU-GPU request channels (§4.3); every threadblock now reaches the
    /// daemon on its own thread, so no request ever queues behind another
    /// block's in a channel, and only the workers are daemon state.
    #[must_use]
    pub fn with_concurrency(self, channels: usize, workers: usize) -> Self {
        let _ = channels;
        Self {
            daemon_workers: workers.max(1),
            ..self
        }
    }

    /// Copy with a dirty-page cap of `high` pages that a writer drains
    /// inline down to `low` (`high = 0` leaves the cache uncapped; `low`
    /// is clamped below `high` when the cap is on).
    #[must_use]
    pub fn with_async_writeback(self, high: usize, low: usize) -> Self {
        Self {
            dirty_high_pages: high,
            dirty_low_pages: if high == 0 { low } else { low.min(high - 1) },
            ..self
        }
    }

    /// Copy with weighted service of the daemon's workers for
    /// `weights.len()` tenants (empty = one FIFO).
    #[must_use]
    pub fn with_tenant_weights(self, weights: Vec<u32>) -> Self {
        Self {
            tenant_weights: weights,
            ..self
        }
    }

    /// Copy with per-tenant admission caps (`0` = unlimited for that
    /// tenant; empty = no admission control).
    #[must_use]
    pub fn with_tenant_admission(self, caps: Vec<usize>) -> Self {
        Self {
            tenant_admission: caps,
            ..self
        }
    }

    /// Copy with per-tenant soft frame quotas, in pages (empty = no
    /// cache partitioning).
    #[must_use]
    pub fn with_tenant_quotas(self, quotas: Vec<usize>) -> Self {
        Self {
            tenant_frame_quotas: quotas,
            ..self
        }
    }

    /// Number of tenant classes this configuration distinguishes: the
    /// widest of the three tenant vectors, and at least 1 (the
    /// single-tenant default).
    #[must_use]
    pub fn num_tenants(&self) -> usize {
        self.tenant_weights
            .len()
            .max(self.tenant_admission.len())
            .max(self.tenant_frame_quotas.len())
            .max(1)
    }

    /// The knobs that are state of the host daemon rather than of a mount
    /// — fixed when the host starts, clamped as the host clamps them.
    pub(crate) fn daemon_key(&self) -> DaemonKey {
        DaemonKey {
            daemon_workers: self.daemon_workers.max(1),
            io_chunk_pages: self.io_chunk_pages,
            tenant_weights: self.tenant_weights.clone(),
            tenant_admission: self.tenant_admission.clone(),
        }
    }

    /// Whether this configuration can run on a daemon started with
    /// `daemon`'s knobs: exactly when its own key is equal. Every place
    /// that has to decide whether two configurations share one daemon
    /// asks this.
    pub(crate) fn fits_daemon(&self, daemon: &DaemonKey) -> bool {
        self.daemon_key() == *daemon
    }

    /// A small configuration for unit tests: 4 KB pages, 16 frames.
    #[must_use]
    pub fn small_test() -> Self {
        Self::new(4 << 10, 64 << 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_capabilities_match_paper_semantics() {
        assert!(GOpenMode::ReadOnly.readable() && !GOpenMode::ReadOnly.writable());
        assert!(!GOpenMode::ReadOnly.syncs_to_host());
        assert!(GOpenMode::ReadWrite.readable() && GOpenMode::ReadWrite.writable());
        assert!(GOpenMode::ReadWrite.needs_pristine());
        assert!(!GOpenMode::WriteOnce.readable() && GOpenMode::WriteOnce.writable());
        assert!(GOpenMode::WriteOnce.syncs_to_host());
        assert!(
            !GOpenMode::WriteOnce.needs_pristine(),
            "wronce diffs against zeros"
        );
        assert!(!GOpenMode::Temp.syncs_to_host());
    }

    #[test]
    fn config_frame_count() {
        let c = GpufsConfig::new(4096, 64 * 4096);
        assert_eq!(c.num_frames(), 64);
    }

    #[test]
    fn readahead_defaults_off_and_clamps() {
        assert_eq!(GpufsConfig::default().readahead_pages, 1);
        assert_eq!(
            GpufsConfig::small_test().with_readahead(8).readahead_pages,
            8
        );
        assert_eq!(
            GpufsConfig::small_test().with_readahead(0).readahead_pages,
            1
        );
    }

    #[test]
    fn concurrency_defaults_to_paper_prototype_and_clamps() {
        let c = GpufsConfig::default();
        assert_eq!(c.daemon_workers, 1, "single-threaded daemon by default");
        let c = GpufsConfig::small_test().with_concurrency(0, 0);
        assert_eq!(c.daemon_workers, 1);
        let c = GpufsConfig::small_test().with_concurrency(4, 3);
        assert_eq!(c.daemon_workers, 3);
        assert_eq!(
            c.daemon_key(),
            GpufsConfig::small_test()
                .with_concurrency(1, 3)
                .daemon_key(),
            "the channel count is no daemon state"
        );
    }

    #[test]
    fn io_chunk_defaults_to_pipelined_and_zero_means_serialized() {
        assert!(
            GpufsConfig::default().io_chunk_pages > 0,
            "the pipelined engine defaults on"
        );
        assert_eq!(
            GpufsConfig::small_test().with_io_chunk(0).io_chunk_pages,
            0,
            "0 is the serialized engine, the ring's ablation, never clamped away"
        );
        assert_eq!(GpufsConfig::small_test().with_io_chunk(7).io_chunk_pages, 7);
    }

    #[test]
    fn async_writeback_defaults_off_and_watermarks_order() {
        let c = GpufsConfig::default();
        assert_eq!((c.dirty_high_pages, c.dirty_low_pages), (0, 0));
        let c = GpufsConfig::small_test().with_async_writeback(8, 2);
        assert_eq!((c.dirty_high_pages, c.dirty_low_pages), (8, 2));
        let c = GpufsConfig::small_test().with_async_writeback(8, 99);
        assert_eq!(c.dirty_low_pages, 7, "low clamps below high");
        let c = GpufsConfig::small_test().with_async_writeback(0, 5);
        assert_eq!(c.dirty_high_pages, 0, "0 high = no cap");
    }

    #[test]
    fn tenant_knobs_default_off_and_count_tenants() {
        let c = GpufsConfig::default();
        assert!(c.tenant_weights.is_empty(), "one FIFO by default");
        assert!(c.tenant_admission.is_empty(), "no admission control");
        assert!(c.tenant_frame_quotas.is_empty(), "no cache partitioning");
        assert_eq!(c.num_tenants(), 1, "single-tenant default");
        let c = GpufsConfig::small_test()
            .with_tenant_weights(vec![3, 1])
            .with_tenant_admission(vec![0, 4, 2])
            .with_tenant_quotas(vec![8]);
        assert_eq!(c.num_tenants(), 3, "widest tenant vector wins");
        assert_eq!(c.tenant_weights, vec![3, 1]);
        assert_eq!(c.tenant_admission, vec![0, 4, 2]);
        assert_eq!(c.tenant_frame_quotas, vec![8]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_page_panics() {
        let _ = GpufsConfig::new(3000, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn cache_smaller_than_page_panics() {
        let _ = GpufsConfig::new(1 << 20, 1 << 10);
    }
}
