//! Assembling the simulated machine the way the repository's own
//! figures do, and reading its public counter sheets after a run.

use std::sync::Arc;

use gpufs::{GpuFsMount, GpufsConfig, GpufsHost, HostFleet};
use gpusim::{Gpu, GpuSpec};
use hostfs::{HostFs, HostFsConfig};
use simtime::Timings;

use crate::record::{ratio, row, Observe, Phases, Sheet};

/// Dataset scale-down relative to the paper's testbed, like the rest of
/// the repository (EXPERIMENTS.md): files and cache budgets shrink
/// together.
pub const SCALE: u64 = 16;

/// Threadblocks resident on the paper's C2075 — the closed-loop client
/// count of every single-GPU workload.
pub const BLOCKS: usize = 28;

/// The paper-platform host file system every workload mounts over:
/// 8 GB of RAM, 64 KB host-cache pages, host readahead 8.
#[must_use]
pub fn paper_fs(timings: &Timings) -> Arc<HostFs> {
    Arc::new(HostFs::new(HostFsConfig {
        timings: timings.clone(),
        host_mem_bytes: 8 << 30,
        cache_page_size: 64 << 10,
        readahead_pages: 8,
    }))
}

/// A TESLA C2075 with its memory pinned to `memory_bytes`.
#[must_use]
pub fn c2075(memory_bytes: usize) -> GpuSpec {
    GpuSpec {
        memory_bytes,
        ..GpuSpec::tesla_c2075()
    }
}

/// One GPU, its daemon, one mount — built fresh for every iteration so
/// the GPU cache starts cold and no DMA queue carries over.
///
/// Field order is drop order: the mount (whose flusher still talks to
/// the daemon) goes first, the daemon's workers are joined next.
pub struct Rig {
    /// The mount the kernels call into.
    pub mount: Arc<GpuFsMount>,
    /// The host daemon.
    pub host: GpufsHost,
    /// The GPU.
    pub gpu: Arc<Gpu>,
}

impl Rig {
    /// Assemble over `fs` with `cfg`, each step a phase of `ph`; a
    /// traced iteration turns the program's span tracer on.
    ///
    /// # Panics
    ///
    /// Panics if the mount is refused — a geometry bug in the benchmark.
    #[must_use]
    pub fn new(fs: &Arc<HostFs>, cfg: &GpufsConfig, ph: &mut Phases<'_>) -> Self {
        let timings = Timings::paper_platform();
        let gpu = ph.time("gpu_build", || {
            Arc::new(Gpu::with_timings(
                0,
                c2075(cfg.cache_bytes + (64 << 20)),
                &timings,
            ))
        });
        let host = ph.time("daemon_start", || {
            GpufsHost::with_config(Arc::clone(fs), vec![Arc::clone(&gpu)], cfg)
        });
        host.set_tracing(ph.obs.traced);
        let mount = ph.time("mount", || {
            host.mount(0, cfg.clone())
                .expect("benchmark geometry mounts")
        });
        Self { mount, host, gpu }
    }

    /// [`Rig::new`] outside any observed iteration (setup, micro passes).
    #[must_use]
    pub fn untraced(fs: &Arc<HostFs>, cfg: &GpufsConfig) -> Self {
        let obs = Observe::untraced(std::time::Instant::now());
        Self::new(fs, cfg, &mut Phases::new(&obs))
    }
}

/// Row `name` summed over the sheets of several mounts, daemons or
/// links; absent from any of them, it is absent.
fn sum_rows(sheets: &[Vec<(&'static str, u64)>], name: &str) -> f64 {
    let mut total = 0.0;
    for s in sheets {
        let v = row(s, name);
        if v < 0.0 {
            return crate::spec::ABSENT;
        }
        total += v;
    }
    total
}

/// The cumulative cache, daemon and hub counters of a set of mounts and
/// hosts at one instant, rows summed by name. A mount that outlives an
/// iteration is read before and after it and the difference reported.
#[derive(Debug, Clone, Default)]
pub struct LocalCounts {
    cache: Vec<(&'static str, f64)>,
    daemon: Vec<(&'static str, f64)>,
    tenant_stalls: f64,
}

impl LocalCounts {
    /// Read the public sheets of `mounts` and `hosts`.
    #[must_use]
    pub fn read(mounts: &[&GpuFsMount], hosts: &[&GpufsHost]) -> Self {
        let summed = |sheets: Vec<Vec<(&'static str, u64)>>| -> Vec<(&'static str, f64)> {
            let names: Vec<&'static str> = sheets
                .first()
                .map(|s| s.iter().map(|&(n, _)| n).collect())
                .unwrap_or_default();
            names
                .into_iter()
                .map(|n| (n, sum_rows(&sheets, n)))
                .collect()
        };
        Self {
            cache: summed(mounts.iter().map(|m| m.counters().snapshot()).collect()),
            daemon: summed(hosts.iter().map(|h| h.stats().snapshot()).collect()),
            tenant_stalls: hosts
                .iter()
                .map(|h| {
                    (0..h.num_tenants())
                        .map(|t| h.hub().tenant_stalls(t))
                        .sum::<u64>()
                })
                .sum::<u64>() as f64,
        }
    }

    /// What was counted since `before`.
    #[must_use]
    pub fn since(&self, before: &Self) -> Self {
        let sub = |now: &[(&'static str, f64)], then: &[(&'static str, f64)]| {
            now.iter()
                .map(|&(n, v)| {
                    let was = then.iter().find(|(m, _)| *m == n).map_or(0.0, |&(_, w)| w);
                    (n, v - was)
                })
                .collect()
        };
        Self {
            cache: sub(&self.cache, &before.cache),
            daemon: sub(&self.daemon, &before.daemon),
            tenant_stalls: self.tenant_stalls - before.tenant_stalls,
        }
    }
}

fn named(rows: &[(&'static str, f64)], name: &str) -> f64 {
    rows.iter()
        .find(|(n, _)| *n == name)
        .map_or(crate::spec::ABSENT, |&(_, v)| v)
}

/// Fill the cache, rpc, daemon, hostfs and PCIe-roofline rows from
/// `counts`, for a run on `gpus` GPUs that took `virt_ns` and moved
/// `user_bytes` through the api.
pub fn fill_local_layers(
    sheet: &mut Sheet,
    counts: &LocalCounts,
    gpus: usize,
    fs: &HostFs,
    virt_ns: u64,
    user_bytes: u64,
) {
    let c = |name: &str| named(&counts.cache, name);
    for (metric, name) in [
        ("cache.hits", "hits"),
        ("cache.misses", "misses"),
        ("cache.lockfree_accesses", "lockfree_accesses"),
        ("cache.locked_accesses", "locked_accesses"),
        ("cache.pages_reclaimed", "pages_reclaimed"),
        ("cache.readahead_hits", "readahead_hits"),
        ("cache.read_rpcs", "read_rpcs"),
        ("cache.writebacks", "writebacks"),
        ("cache.write_rpcs", "write_rpcs"),
        ("cache.flusher_passes", "flusher_passes"),
        ("cache.throttle_stalls", "throttle_stalls"),
    ] {
        sheet.insert(metric, c(name));
    }
    sheet.insert("cache.hit_ratio", ratio(c("hits"), c("hits") + c("misses")));
    sheet.insert(
        "cache.lockfree_ratio",
        ratio(
            c("lockfree_accesses"),
            c("lockfree_accesses") + c("locked_accesses"),
        ),
    );
    // Pages a multi-page ReadPages carried beyond the one that faulted.
    let prefetched = c("pages_per_rpc") - c("batched_rpcs");
    sheet.insert(
        "cache.readahead_useful_ratio",
        ratio(c("readahead_hits"), prefetched),
    );
    sheet.insert(
        "cache.pages_per_read_rpc",
        ratio(c("read_rpcs") + prefetched, c("read_rpcs")),
    );
    sheet.insert(
        "cache.pages_per_write_rpc",
        ratio(c("pages_per_write_rpc"), c("write_rpcs")),
    );

    let d = |name: &str| named(&counts.daemon, name);
    sheet.insert("rpc.requests", d("requests"));
    sheet.insert("rpc.tenant_stalls", counts.tenant_stalls);
    for (metric, name) in [
        ("daemon.bytes_h2d", "bytes_h2d"),
        ("daemon.bytes_d2h", "bytes_d2h"),
        ("daemon.opens", "opens"),
        ("daemon.read_dma_chunks", "read_dma_chunks"),
        ("daemon.write_dma_chunks", "write_dma_chunks"),
    ] {
        sheet.insert(metric, d(name));
    }
    sheet.insert(
        "daemon.bytes_per_user_byte",
        ratio(d("bytes_h2d") + d("bytes_d2h"), user_bytes as f64),
    );

    let pc = fs.cache_stats();
    sheet.insert("hostfs.pagecache_hits", pc.hits as f64);
    sheet.insert("hostfs.pagecache_misses", pc.misses as f64);
    sheet.insert("hostfs.evictions", pc.evictions as f64);
    sheet.insert("hostfs.writebacks", pc.writebacks as f64);

    // The roofline line: bytes moved over what each GPU's link could
    // have moved in the same virtual time at its `Timings` peak.
    let t = Timings::paper_platform();
    let link_bytes = t.pcie_mb_s * 1e6 * (virt_ns as f64 / 1e9) * gpus as f64;
    sheet.insert("gpusim.pcie_h2d_util", ratio(d("bytes_h2d"), link_bytes));
    sheet.insert("gpusim.pcie_d2h_util", ratio(d("bytes_d2h"), link_bytes));
}

/// Fill the remote rows from a cross-host fleet's proxies and server.
pub fn read_remote_layers(sheet: &mut Sheet, fleet: &HostFleet, virt_ns: u64) {
    let hosts = fleet.num_hosts();
    let wire: Vec<_> = (0..hosts)
        .map(|h| fleet.proxy(h).wire().snapshot())
        .collect();
    let hc: Vec<_> = (0..hosts)
        .map(|h| fleet.proxy(h).cache().stats().snapshot())
        .collect();
    let sum = sum_rows;
    for (metric, name) in [
        ("remote.wire_rpcs", "wire_rpcs"),
        ("remote.wire_req_bytes", "wire_req_bytes"),
        ("remote.wire_resp_bytes", "wire_resp_bytes"),
        ("remote.writeback_batches", "writeback_batches"),
    ] {
        sheet.insert(metric, sum(&wire, name));
    }
    for (metric, name) in [
        ("remote.hostcache_hits", "hits"),
        ("remote.hostcache_misses", "misses"),
        ("remote.lazy_invalidations", "lazy_invalidations"),
        ("remote.hostcache_evictions", "evictions"),
    ] {
        sheet.insert(metric, sum(&hc, name));
    }
    sheet.insert(
        "remote.hostcache_hit_ratio",
        ratio(sum(&hc, "hits"), sum(&hc, "hits") + sum(&hc, "misses")),
    );
    let server = fleet.server().stats().snapshot();
    sheet.insert("remote.server_frames", row(&server, "frames"));
    sheet.insert("remote.server_errors", row(&server, "errors"));
    // Both directions of every host's link at the `Timings` peak.
    let t = Timings::paper_platform();
    let link_bytes = t.net_mb_s * 1e6 * (virt_ns as f64 / 1e9) * 2.0 * hosts as f64;
    sheet.insert(
        "remote.net_util",
        ratio(
            sum(&wire, "wire_req_bytes") + sum(&wire, "wire_resp_bytes"),
            link_bytes,
        ),
    );
}
