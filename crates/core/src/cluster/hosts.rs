//! [`HostFleet`]: fleets of fleets — M hosts × N GPUs over one shared
//! storage server.
//!
//! The cross-host tier composes what the crate already has: every host
//! is a plain [`GpuFleet`] (its own GPUs, PCIe links, daemon worker
//! pool), except its daemon serves through a [`HostProxy`] — one
//! simulated network link plus a host-local page cache — instead of a
//! local file system. All M proxies answer to one [`StorageServer`],
//! whose file system carries the §4.4 close-to-open consistency
//! registry; mounts register with host-qualified coherence ids
//! (`host * gpus_per_host + gpu`), so the registry, audits, and the
//! schedule driver span hosts with no new machinery.
//!
//! GPUs are addressed by a **global index** `g`: host `g / N`, local GPU
//! `g % N`. [`HostFleet`] implements [`FleetView`] under that indexing,
//! so the distributed search and the coherence schedule driver run over
//! a cross-host fleet exactly as they do over a single-host one.

use std::sync::Arc;

use gpusim::{Gpu, GpuSpec};
use hostfs::{HostFs, HostFsConfig};
use simtime::Timings;

use crate::cluster::fleet::GpuFleet;
use crate::cluster::view::FleetView;
use crate::config::GpufsConfig;
use crate::daemon::DaemonStats;
use crate::error::{GpufsError, GpufsResult};
use crate::mount::GpuFsMount;
use crate::remote::{HostProxy, StorageServer};

/// Builder for a [`HostFleet`], mirroring [`crate::FleetBuilder`]'s
/// style. Defaults: TESLA C2075 GPUs, default [`Timings`] (whose
/// `net_rtt_ns`/`net_mb_s` calibrate every host link), the default
/// [`GpufsConfig`], host caches off, and a fresh storage file system.
#[derive(Debug, Clone)]
pub struct HostFleetBuilder {
    hosts: usize,
    gpus_per_host: usize,
    config: GpufsConfig,
    spec: GpuSpec,
    timings: Timings,
    cache_pages: usize,
    fs: Option<Arc<HostFs>>,
}

impl HostFleetBuilder {
    /// A builder for `hosts` hosts of `gpus_per_host` GPUs each.
    #[must_use]
    pub fn new(hosts: usize, gpus_per_host: usize) -> Self {
        Self {
            hosts,
            gpus_per_host,
            config: GpufsConfig::default(),
            spec: GpuSpec::tesla_c2075(),
            timings: Timings::default(),
            cache_pages: 0,
            fs: None,
        }
    }

    /// GPUfs configuration of every mount on every host.
    #[must_use]
    pub fn config(mut self, config: GpufsConfig) -> Self {
        self.config = config;
        self
    }

    /// Hardware spec of every GPU.
    #[must_use]
    pub fn spec(mut self, spec: GpuSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Timing calibration: PCIe per GPU, and — through `net_rtt_ns` /
    /// `net_mb_s` — every host's network link to the storage server.
    /// [`Timings::without_net`] makes the links free, which reduces one
    /// host to the local fleet it wraps.
    #[must_use]
    pub fn timings(mut self, timings: Timings) -> Self {
        self.timings = timings;
        self
    }

    /// Capacity of each host's local page cache, in pages (0 = off, the
    /// default). Hits are served at host-DRAM speed without touching the
    /// wire; coherence stays close-to-open via lazy generation checks.
    #[must_use]
    pub fn host_cache_pages(mut self, pages: usize) -> Self {
        self.cache_pages = pages;
        self
    }

    /// Put the storage server over an existing file system instead of a
    /// fresh one built from the builder's timings (shared corpora,
    /// custom memory budgets). Its [`Timings`] calibrate the host links.
    #[must_use]
    pub fn storage_fs(mut self, fs: Arc<HostFs>) -> Self {
        self.fs = Some(fs);
        self
    }

    /// Build the fleet: one [`StorageServer`], M proxies, M per-host
    /// [`GpuFleet`]s with disjoint coherence-id ranges.
    ///
    /// # Errors
    ///
    /// Fails on an empty dimension and on any per-host fleet build error
    /// (cache larger than GPU memory, ...).
    pub fn build(self) -> GpufsResult<HostFleet> {
        if self.hosts == 0 || self.gpus_per_host == 0 {
            return Err(GpufsError::InvalidMode(
                "a host fleet needs at least one host and one GPU per host",
            ));
        }
        let fs = self.fs.clone().unwrap_or_else(|| {
            Arc::new(HostFs::new(HostFsConfig {
                timings: self.timings.clone(),
                ..HostFsConfig::default()
            }))
        });
        let server = Arc::new(StorageServer::new(fs));
        let mut proxies = Vec::with_capacity(self.hosts);
        let mut fleets = Vec::with_capacity(self.hosts);
        for h in 0..self.hosts {
            let proxy = Arc::new(HostProxy::new(Arc::clone(&server), self.cache_pages));
            let fleet = GpuFleet::builder(self.gpus_per_host)
                .spec(self.spec.clone())
                .timings(self.timings.clone())
                .config(self.config.clone())
                .proxy(Arc::clone(&proxy))
                .coherence_base(h * self.gpus_per_host)
                .build()?;
            proxies.push(proxy);
            fleets.push(fleet);
        }
        Ok(HostFleet {
            server,
            proxies,
            fleets,
            gpus_per_host: self.gpus_per_host,
        })
    }
}

/// M hosts × N GPUs over one shared storage server (see module docs).
pub struct HostFleet {
    server: Arc<StorageServer>,
    proxies: Vec<Arc<HostProxy>>,
    fleets: Vec<GpuFleet>,
    gpus_per_host: usize,
}

impl std::fmt::Debug for HostFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostFleet")
            .field("hosts", &self.fleets.len())
            .field("gpus_per_host", &self.gpus_per_host)
            .finish()
    }
}

impl HostFleet {
    /// A builder for `hosts` hosts of `gpus_per_host` GPUs each.
    #[must_use]
    pub fn builder(hosts: usize, gpus_per_host: usize) -> HostFleetBuilder {
        HostFleetBuilder::new(hosts, gpus_per_host)
    }

    /// Number of hosts.
    #[must_use]
    pub fn num_hosts(&self) -> usize {
        self.fleets.len()
    }

    /// GPUs on each host.
    #[must_use]
    pub fn gpus_per_host(&self) -> usize {
        self.gpus_per_host
    }

    /// The shared storage server.
    #[must_use]
    pub fn server(&self) -> &Arc<StorageServer> {
        &self.server
    }

    /// The storage server's file system (and through it the consistency
    /// registry).
    #[must_use]
    pub fn fs(&self) -> &Arc<HostFs> {
        self.server.fs()
    }

    /// Host `h`'s fleet.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    #[must_use]
    pub fn fleet(&self, h: usize) -> &GpuFleet {
        &self.fleets[h]
    }

    /// Host `h`'s proxy (network link, wire counters, host page cache).
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    #[must_use]
    pub fn proxy(&self, h: usize) -> &Arc<HostProxy> {
        &self.proxies[h]
    }

    /// The host that global GPU `g` lives on.
    #[cfg(test)]
    #[must_use]
    pub fn host_of(&self, g: usize) -> usize {
        g / self.gpus_per_host
    }

    /// Host `h`'s daemon stat sheet — the per-host slice of the fleet's
    /// activity. Summing any counter over every host reproduces the
    /// whole fleet's traffic (each request is served by exactly one
    /// host's daemon).
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    #[must_use]
    pub fn host_stats(&self, h: usize) -> &DaemonStats {
        self.fleets[h].host().stats()
    }

    /// Stop every host's daemon. Idempotent; in-flight requests drain
    /// first.
    pub fn shutdown(&mut self) {
        for fleet in &mut self.fleets {
            fleet.shutdown();
        }
    }
}

impl FleetView for HostFleet {
    fn len(&self) -> usize {
        self.fleets.len() * self.gpus_per_host
    }

    fn gpu(&self, g: usize) -> &Arc<Gpu> {
        self.fleets[g / self.gpus_per_host].gpu(g % self.gpus_per_host)
    }

    fn mount(&self, g: usize) -> &Arc<GpuFsMount> {
        self.fleets[g / self.gpus_per_host].mount(g % self.gpus_per_host)
    }

    fn fs(&self) -> &Arc<HostFs> {
        self.server.fs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::CoherenceOp;

    fn small(hosts: usize, gpus: usize, cache_pages: usize) -> HostFleet {
        HostFleet::builder(hosts, gpus)
            .spec(GpuSpec::small_test())
            .config(GpufsConfig::small_test())
            .host_cache_pages(cache_pages)
            .build()
            .unwrap()
    }

    #[test]
    fn hosts_share_one_server_with_disjoint_coherence_ids() {
        let hf = small(2, 2, 0);
        assert_eq!(FleetView::len(&hf), 4);
        assert_eq!(hf.num_hosts(), 2);
        for h in 0..2 {
            assert!(Arc::ptr_eq(hf.fleet(h).fs(), hf.fs()));
            assert!(Arc::ptr_eq(hf.proxy(h).server().fs(), hf.fs()));
        }
        for g in 0..4 {
            assert_eq!(FleetView::mount(&hf, g).coherence_id(), g);
            assert_eq!(
                FleetView::gpu(&hf, g).id(),
                g % 2,
                "GPU ids stay positional"
            );
            assert_eq!(hf.host_of(g), g / 2);
        }
        // Empty dimensions are rejected loudly.
        assert!(matches!(
            HostFleet::builder(0, 2).build(),
            Err(GpufsError::InvalidMode(_))
        ));
        assert!(matches!(
            HostFleet::builder(2, 0).build(),
            Err(GpufsError::InvalidMode(_))
        ));
    }

    #[test]
    fn cross_host_schedule_respects_close_to_open() {
        let hf = small(2, 2, 64);
        // Writers and readers alternate hosts: GPU 0/1 on host 0,
        // GPU 2/3 on host 1.
        let report = hf
            .run_close_to_open_schedule(
                "/xh",
                &[
                    CoherenceOp::OpenCheck { gpu: 3 },
                    CoherenceOp::WriteClose { gpu: 0, tag: 11 },
                    CoherenceOp::OpenCheck { gpu: 2 },
                    CoherenceOp::WriteClose { gpu: 3, tag: 12 },
                    CoherenceOp::OpenCheck { gpu: 0 },
                    CoherenceOp::OpenCheck { gpu: 1 },
                ],
            )
            .unwrap();
        assert_eq!(report.checks, 4);
        assert_eq!(
            report.mismatches,
            vec![],
            "close-to-open violated across hosts"
        );
        // The audit sees host-qualified cachers from both hosts.
        let audit = hf.audit_file("/xh").unwrap();
        assert!(audit.cachers.iter().any(|&(id, _)| id >= 2));
        assert!(audit.cachers.iter().any(|&(id, _)| id < 2));
    }

    #[test]
    fn stale_host_caches_are_invalidated_lazily_never_eagerly() {
        let hf = small(2, 1, 64);
        // Host 1 reads (fills its host cache), then host 0 publishes.
        hf.run_close_to_open_schedule(
            "/lazy-xh",
            &[
                CoherenceOp::OpenCheck { gpu: 1 },
                CoherenceOp::WriteClose { gpu: 0, tag: 3 },
            ],
        )
        .unwrap();
        let before = hf.proxy(1).cache().stats().lazy_invalidations.get();
        assert_eq!(before, 0, "publication must not reach into host 1's cache");
        assert!(
            !hf.proxy(1).cache().is_empty(),
            "host 1 still holds its (now stale) pages"
        );
        // Only when host 1 reads again do its stale pages fall out —
        // detected page by page at lookup, the §4.4 lazy discipline
        // extended to the host tier.
        hf.run_close_to_open_schedule("/lazy-xh", &[CoherenceOp::OpenCheck { gpu: 1 }])
            .unwrap();
        assert!(
            hf.proxy(1).cache().stats().lazy_invalidations.get() > 0,
            "stale host-cache pages must be dropped at lookup"
        );
    }

    #[test]
    fn per_host_stats_sum_to_the_fleet_aggregate() {
        use crate::config::GOpenMode;
        use gpusim::Grid;

        // The full fleets-of-fleets matrix: 4 hosts × 8 GPUs × 2
        // tenants. Every rollup anyone reads — per-cell, per-GPU,
        // per-tenant, per-host, fleet-wide — must reconcile counter by
        // counter, because they are all sum views over the same
        // (gpu, tenant) leaf sheets.
        const HOSTS: usize = 4;
        const GPUS: usize = 8;
        let hf = HostFleet::builder(HOSTS, GPUS)
            .spec(GpuSpec::small_test())
            .config(GpufsConfig::small_test().with_tenant_weights(vec![2, 1]))
            .host_cache_pages(16)
            .build()
            .unwrap();
        hf.fs().create("/sum", &vec![7u8; 32 << 10]).unwrap();
        for g in 0..HOSTS * GPUS {
            let mount = Arc::clone(FleetView::mount(&hf, g));
            // Odd blocks run as tenant 1 (the lane is the block id), and
            // every block faults a page of its own — so both breakdown
            // columns see a ReadPages on every GPU by construction. With
            // all four blocks on one shared page, which tenant's block
            // won the open and the fault was scheduling luck, and now and
            // then one tenant won every race on a host.
            for slot in 0..4 {
                mount.set_tenant(slot, slot % 2);
            }
            FleetView::gpu(&hf, g).launch(Grid::new(4, 8), 0, move |blk| {
                let fd = mount.open(blk, "/sum", GOpenMode::ReadOnly).unwrap();
                let mut buf = [0u8; 4096];
                let own_page = blk.block_id() as u64 * 4096;
                mount.read(blk, &fd, own_page, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == 7));
                mount.close(blk, fd).unwrap();
            });
        }
        let find =
            |sheet: &[(&str, u64)], name: &str| sheet.iter().find(|&&(n, _)| n == name).unwrap().1;
        let fleet_total: u64 = (0..HOSTS)
            .map(|h| find(&hf.host_stats(h).snapshot(), "requests"))
            .sum();
        assert!(fleet_total > 0);
        for h in 0..HOSTS {
            let host = hf.fleet(h).host();
            for (name, host_v) in host.stats().snapshot() {
                // Host aggregate == Σ its per-GPU sheets == Σ its
                // per-tenant sheets == Σ its (gpu, tenant) cells.
                let by_gpu: u64 = (0..GPUS)
                    .map(|g| find(&host.stats_for(g).snapshot(), name))
                    .sum();
                let by_tenant: u64 = (0..host.num_tenants())
                    .map(|t| find(&host.stats_for_tenant(t).snapshot(), name))
                    .sum();
                let by_cell: u64 = (0..GPUS)
                    .flat_map(|g| (0..host.num_tenants()).map(move |t| (g, t)))
                    .map(|(g, t)| find(&host.stats_for_cell(g, t).snapshot(), name))
                    .sum();
                assert_eq!(host_v, by_gpu, "per-GPU attribution of {name} on host {h}");
                assert_eq!(
                    host_v, by_tenant,
                    "per-tenant attribution of {name} on host {h}"
                );
                assert_eq!(
                    host_v, by_cell,
                    "per-cell attribution of {name} on host {h}"
                );
            }
            // Both tenants really saw traffic on this host.
            for t in 0..host.num_tenants() {
                assert!(
                    find(&host.stats_for_tenant(t).snapshot(), "requests") > 0,
                    "tenant {t} idle on host {h}"
                );
            }
        }
        // Wire counters: every host RPC hit the shared server exactly
        // once, so per-host wire_rpcs sum to the server's frame count.
        let wire: u64 = (0..HOSTS).map(|h| hf.proxy(h).wire().wire_rpcs.get()).sum();
        assert_eq!(wire, hf.server().stats().frames.get());
    }
}
