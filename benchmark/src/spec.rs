//! The names this benchmark emits: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root declares the same lists (a self-test compares them name for
//! name); this table adds what that file has no key for — whether a
//! number is *modelled* (virtual time from `Timings::paper_platform`),
//! *measured* (host wall-clock or memory), or a *count*, and a bound per
//! workload where the file has one per metric.

/// What a value is a reading of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Virtual-time output of the unvalidated timing model.
    Modelled,
    /// Host wall-clock, CPU time or memory of this sandbox.
    Measured,
    /// A count (or a ratio of counts) the program or benchmark tallied.
    Count,
}

impl Kind {
    /// The spelling used in tables and result files.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Modelled => "modelled",
            Kind::Measured => "measured",
            Kind::Count => "count",
        }
    }
}

/// One metric: name, unit, kind, and which way is better.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Modelled, measured, or a count.
    pub kind: Kind,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

const fn metric(name: &'static str, unit: &'static str, kind: Kind, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        kind,
        higher_is_better: higher,
    }
}

/// The six workloads and why each exists (one line; the README has the
/// paragraph).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "seq_read_cold",
        "Fig. 4 path: cold GPU cache, 28 blocks stream disjoint slices, so paging miss, rpc, daemon pipeline, hostfs pread and PCIe DMA do the work",
    ),
    (
        "hot_reread",
        "Fig. 7 / Table 2 path: everything resident, so api, the radix seqlock pin and the file table do the work; rpc, daemon and DMA must stay at zero",
    ),
    (
        "write_back",
        "the write side: sub-page gwrites of a write-once file, then diff-merged read-modify-write under the async flusher; only here do diff, WritePages, D2H gather and pwrite run",
    ),
    (
        "evict_random",
        "working set 4x the GPU cache, Zipf(0.9) random 16 KB reads: reclaim, frame allocation and single-page rpc latency dominate, bandwidth layers idle",
    ),
    (
        "tenant_mix",
        "open loop on the virtual clock, three tenants sharing one mount: the only workload where weighted dispatch, admission and frame quotas decide anything",
    ),
    (
        "dist_search",
        "2 hosts x 2 GPUs behind host proxies on a LAN link, work-stealing image search: the only workload that crosses the remote wire tier and the cluster scheduler",
    ),
];

/// End-to-end metrics: what a user of the stack would see. Every one is
/// reported for every workload and is never zero.
pub const END_TO_END: &[Metric] = &[
    metric("virt_mb_s", "MB/s", Kind::Modelled, true),
    metric("virt_op_p50_us", "us", Kind::Modelled, false),
    metric("virt_op_p99_us", "us", Kind::Modelled, false),
    metric("host_ops_per_s", "1/s", Kind::Measured, true),
    metric("peak_rss_mb", "MB", Kind::Measured, false),
    metric("setup_s", "s", Kind::Measured, false),
];

/// How far each end-to-end median may worsen, as a share of the
/// reference median, before `check` calls it a regression: one row per
/// metric in [`END_TO_END`] order, one column per workload in
/// [`WORKLOADS`] order. Each entry is at least three times the widest
/// quartile distance sets of ten runs with ten seeds showed for that
/// pairing, where the contract's ceiling of 0.25 allows (README, "the
/// noise behind each bound"; `evict_random`'s `virt_mb_s` alone is 2.3
/// times), and never under the figure the issue asked for. `BENCHMARK.json` has room for one bound per metric and
/// declares each row's largest entry ([`declared_bound`]).
pub const BOUNDS: [[f64; 6]; 6] = [
    // seq_read_cold, hot_reread, write_back, evict_random, tenant_mix, dist_search
    [0.03, 0.03, 0.05, 0.05, 0.05, 0.05], // virt_mb_s
    [0.05, 0.05, 0.05, 0.05, 0.05, 0.05], // virt_op_p50_us
    [0.10, 0.10, 0.15, 0.25, 0.25, 0.10], // virt_op_p99_us
    // Host speed of one build moved 17-27 % between sets of runs minutes
    // apart on this sandbox: nothing under the ceiling would hold.
    [0.25, 0.25, 0.25, 0.25, 0.25, 0.25], // host_ops_per_s
    [0.10, 0.10, 0.10, 0.10, 0.10, 0.10], // peak_rss_mb
    [0.25, 0.25, 0.25, 0.25, 0.25, 0.25], // setup_s
];

/// The bound on end-to-end `metric` in `workload`.
#[must_use]
pub fn bound(workload: &str, metric: &str) -> Option<f64> {
    let m = END_TO_END.iter().position(|e| e.name == metric)?;
    let w = WORKLOADS.iter().position(|(n, _)| *n == workload)?;
    Some(BOUNDS[m][w])
}

/// The one bound `BENCHMARK.json` declares for end-to-end `metric`: the
/// loosest any workload needs.
#[must_use]
pub fn declared_bound(metric: &str) -> Option<f64> {
    let m = END_TO_END.iter().position(|e| e.name == metric)?;
    Some(BOUNDS[m].iter().copied().fold(0.0, f64::max))
}

/// The g* calls the api rows break down by, in [`crate::record::Call`]
/// order.
pub const CALLS: [&str; 6] = ["gopen", "gread", "gwrite", "gmmap", "gfsync", "gclose"];

/// The three api rows of each call, in [`CALLS`] order: virtual p50,
/// virtual p99, host p50.
pub const API_ROWS: [[&str; 3]; 6] = [
    [
        "api.gopen.virt_us_p50",
        "api.gopen.virt_us_p99",
        "api.gopen.host_us_p50",
    ],
    [
        "api.gread.virt_us_p50",
        "api.gread.virt_us_p99",
        "api.gread.host_us_p50",
    ],
    [
        "api.gwrite.virt_us_p50",
        "api.gwrite.virt_us_p99",
        "api.gwrite.host_us_p50",
    ],
    [
        "api.gmmap.virt_us_p50",
        "api.gmmap.virt_us_p99",
        "api.gmmap.host_us_p50",
    ],
    [
        "api.gfsync.virt_us_p50",
        "api.gfsync.virt_us_p99",
        "api.gfsync.host_us_p50",
    ],
    [
        "api.gclose.virt_us_p50",
        "api.gclose.virt_us_p99",
        "api.gclose.host_us_p50",
    ],
];

/// Per-layer metrics, prefix = module. Counts are per iteration (the
/// median iteration of the run); `micro.*` rows come from the `layers`
/// pass and are the same whichever workload the run names.
pub const PER_LAYER: &[Metric] = &[
    // api
    metric("api.ops", "count", Kind::Count, true),
    metric("api.bytes", "B", Kind::Count, true),
    metric("api.gopen.virt_us_p50", "us", Kind::Modelled, false),
    metric("api.gopen.virt_us_p99", "us", Kind::Modelled, false),
    metric("api.gopen.host_us_p50", "us", Kind::Measured, false),
    metric("api.gread.virt_us_p50", "us", Kind::Modelled, false),
    metric("api.gread.virt_us_p99", "us", Kind::Modelled, false),
    metric("api.gread.host_us_p50", "us", Kind::Measured, false),
    metric("api.gwrite.virt_us_p50", "us", Kind::Modelled, false),
    metric("api.gwrite.virt_us_p99", "us", Kind::Modelled, false),
    metric("api.gwrite.host_us_p50", "us", Kind::Measured, false),
    metric("api.gmmap.virt_us_p50", "us", Kind::Modelled, false),
    metric("api.gmmap.virt_us_p99", "us", Kind::Modelled, false),
    metric("api.gmmap.host_us_p50", "us", Kind::Measured, false),
    metric("api.gfsync.virt_us_p50", "us", Kind::Modelled, false),
    metric("api.gfsync.virt_us_p99", "us", Kind::Modelled, false),
    metric("api.gfsync.host_us_p50", "us", Kind::Measured, false),
    metric("api.gclose.virt_us_p50", "us", Kind::Modelled, false),
    metric("api.gclose.virt_us_p99", "us", Kind::Modelled, false),
    metric("api.gclose.host_us_p50", "us", Kind::Measured, false),
    // cache
    metric("cache.hits", "count", Kind::Count, true),
    metric("cache.misses", "count", Kind::Count, false),
    metric("cache.hit_ratio", "ratio", Kind::Count, true),
    metric("cache.lockfree_accesses", "count", Kind::Count, true),
    metric("cache.locked_accesses", "count", Kind::Count, false),
    metric("cache.lockfree_ratio", "ratio", Kind::Count, true),
    metric("cache.pages_reclaimed", "count", Kind::Count, false),
    metric("cache.readahead_hits", "count", Kind::Count, true),
    metric("cache.readahead_useful_ratio", "ratio", Kind::Count, true),
    metric("cache.read_rpcs", "count", Kind::Count, false),
    metric("cache.pages_per_read_rpc", "ratio", Kind::Count, true),
    metric("cache.writebacks", "count", Kind::Count, false),
    metric("cache.write_rpcs", "count", Kind::Count, false),
    metric("cache.pages_per_write_rpc", "ratio", Kind::Count, true),
    metric("cache.flusher_passes", "count", Kind::Count, false),
    metric("cache.throttle_stalls", "count", Kind::Count, false),
    metric("cache.writeback.once_mb_s", "MB/s", Kind::Modelled, true),
    metric("cache.writeback.rmw_mb_s", "MB/s", Kind::Modelled, true),
    // rpc
    metric("rpc.requests", "count", Kind::Count, false),
    metric("rpc.tenant_stalls", "count", Kind::Count, false),
    metric("rpc.gen_lag_p99_us", "us", Kind::Modelled, false),
    metric("rpc.session_p99_us", "us", Kind::Modelled, false),
    // daemon
    metric("daemon.bytes_h2d", "B", Kind::Count, false),
    metric("daemon.bytes_d2h", "B", Kind::Count, false),
    metric("daemon.opens", "count", Kind::Count, false),
    metric("daemon.read_dma_chunks", "count", Kind::Count, false),
    metric("daemon.write_dma_chunks", "count", Kind::Count, false),
    metric("daemon.bytes_per_user_byte", "ratio", Kind::Count, false),
    // hostfs
    metric("hostfs.pagecache_hits", "count", Kind::Count, true),
    metric("hostfs.pagecache_misses", "count", Kind::Count, false),
    metric("hostfs.evictions", "count", Kind::Count, false),
    metric("hostfs.writebacks", "count", Kind::Count, false),
    // roofline: bytes / (Timings peak x virtual elapsed), computed here
    metric("gpusim.pcie_h2d_util", "ratio", Kind::Modelled, true),
    metric("gpusim.pcie_d2h_util", "ratio", Kind::Modelled, true),
    metric("remote.net_util", "ratio", Kind::Modelled, true),
    // remote
    metric("remote.wire_rpcs", "count", Kind::Count, false),
    metric("remote.wire_req_bytes", "B", Kind::Count, false),
    metric("remote.wire_resp_bytes", "B", Kind::Count, false),
    metric("remote.writeback_batches", "count", Kind::Count, false),
    metric("remote.hostcache_hits", "count", Kind::Count, true),
    metric("remote.hostcache_misses", "count", Kind::Count, false),
    metric("remote.hostcache_hit_ratio", "ratio", Kind::Count, true),
    metric("remote.lazy_invalidations", "count", Kind::Count, false),
    metric("remote.hostcache_evictions", "count", Kind::Count, false),
    metric("remote.server_frames", "count", Kind::Count, false),
    metric("remote.server_errors", "count", Kind::Count, false),
    // cluster
    metric("cluster.steals", "count", Kind::Count, false),
    metric("cluster.gpu_imbalance", "ratio", Kind::Modelled, false),
    // the simulator itself
    metric("host.iter_ms_p50", "ms", Kind::Measured, false),
    metric("host.iter_ms_iqr", "ms", Kind::Measured, false),
    metric("host.cpu_s", "s", Kind::Measured, false),
    // traced run: virtual self time per span name, per iteration
    metric("trace.gread_self_ms", "ms", Kind::Modelled, false),
    metric("trace.gwrite_self_ms", "ms", Kind::Modelled, false),
    metric("trace.gmmap_self_ms", "ms", Kind::Modelled, false),
    metric("trace.gfsync_self_ms", "ms", Kind::Modelled, false),
    metric("trace.flush_pass_self_ms", "ms", Kind::Modelled, false),
    metric("trace.pin_miss_self_ms", "ms", Kind::Modelled, false),
    metric("trace.rpc_self_ms", "ms", Kind::Modelled, false),
    metric("trace.serve_self_ms", "ms", Kind::Modelled, false),
    metric("trace.pread_ms", "ms", Kind::Modelled, false),
    metric("trace.dma_ms", "ms", Kind::Modelled, false),
    metric("trace.gather_ms", "ms", Kind::Modelled, false),
    metric("trace.pwrite_ms", "ms", Kind::Modelled, false),
    metric("trace.net_roundtrip_ms", "ms", Kind::Modelled, false),
    metric("trace.server_ms", "ms", Kind::Modelled, false),
    metric("obs.spans", "count", Kind::Count, false),
    metric("obs.trace_overhead_pct", "%", Kind::Measured, false),
    // layers pass: host ns per call into a layer's public functions
    metric("micro.cache.radix_lookup_ns", "ns", Kind::Measured, false),
    metric(
        "micro.cache.radix_lookup_mt_ns",
        "ns",
        Kind::Measured,
        false,
    ),
    metric("micro.cache.pin_lockfree_ns", "ns", Kind::Measured, false),
    metric("micro.cache.pin_locked_ns", "ns", Kind::Measured, false),
    metric(
        "micro.cache.frame_alloc_release_ns",
        "ns",
        Kind::Measured,
        false,
    ),
    metric(
        "micro.cache.frame_alloc_release_mt_ns",
        "ns",
        Kind::Measured,
        false,
    ),
    metric(
        "micro.cache.diff_extents_ns_per_page",
        "ns",
        Kind::Measured,
        false,
    ),
    metric("micro.api.gread_hit_4k_ns", "ns", Kind::Measured, false),
    metric("micro.api.gmmap_hit_ns", "ns", Kind::Measured, false),
    metric("micro.api.gopen_revive_ns", "ns", Kind::Measured, false),
    metric("micro.rpc.roundtrip_ns", "ns", Kind::Measured, false),
    metric(
        "micro.daemon.read_fault_64k_ns",
        "ns",
        Kind::Measured,
        false,
    ),
    metric("micro.hostfs.pread_64k_ns", "ns", Kind::Measured, false),
    metric("micro.hostfs.pwrite_64k_ns", "ns", Kind::Measured, false),
    metric("micro.gpusim.dma_h2d_gb_s", "GB/s", Kind::Measured, true),
    metric("micro.gpusim.launch_28_us", "us", Kind::Measured, false),
    metric("micro.simtime.transfer_ns", "ns", Kind::Measured, false),
    metric("micro.simtime.transfer_mt_ns", "ns", Kind::Measured, false),
    metric(
        "micro.remote.proto_readpages_ns",
        "ns",
        Kind::Measured,
        false,
    ),
    metric(
        "micro.remote.hostcache_lookup_ns",
        "ns",
        Kind::Measured,
        false,
    ),
    metric(
        "micro.cluster.workqueue_next_ns",
        "ns",
        Kind::Measured,
        false,
    ),
    metric("micro.obs.span_ns", "ns", Kind::Measured, false),
    metric("micro.obs.counter_incr_ns", "ns", Kind::Measured, false),
    metric(
        "micro.obs.registry_snapshot_us",
        "us",
        Kind::Measured,
        false,
    ),
];

/// Printed (and written, as -1) for a counter row the program's
/// `snapshot()` no longer has: rows are looked up by name at run time,
/// never bound at compile time, so a renamed counter shows here instead
/// of breaking the build of a benchmark later changes may not edit.
pub const ABSENT: f64 = -1.0;

/// Look a metric up in either list.
#[must_use]
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
