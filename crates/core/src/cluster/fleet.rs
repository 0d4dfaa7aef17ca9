//! [`GpuFleet`]: N GPUfs mounts over one shared host file system.
//!
//! A fleet is the paper's multi-GPU testbed in one object: every GPU has
//! its own simulated PCIe link ([`gpusim::Gpu`] with its own
//! [`simtime::Timings`]-calibrated DMA engines) and its own buffer
//! cache, while the host file system — and with it the §4.4 consistency
//! registry — is shared, so cross-GPU coherence traffic is real.
//!
//! One [`GpufsHost`] serves every GPU, as the paper's single daemon
//! process does. The host-side knobs ([`GpufsConfig::daemon_workers`],
//! [`GpufsConfig::io_chunk_pages`], the tenant weights and caps) come
//! from the fleet's base config, and each GPU's mount validates its own
//! config against it ([`GpufsConfig::validate`]), so `build` refuses a
//! per-GPU override that names different values. Per-GPU RPC
//! attribution still works through [`GpufsHost::stats_for`].

use std::collections::HashMap;
use std::sync::Arc;

use gpusim::{Gpu, GpuSpec};
use hostfs::{HostFs, HostFsConfig};
use simtime::Timings;

use crate::config::GpufsConfig;
use crate::daemon::{DaemonStats, GpufsHost};
use crate::error::{GpufsError, GpufsResult};
use crate::mount::GpuFsMount;
use crate::remote::HostProxy;

/// Builder for a [`GpuFleet`], mirroring [`GpufsConfig`]'s builder style.
///
/// Defaults: TESLA C2075 GPUs on the platform-default [`Timings`], the
/// default [`GpufsConfig`], a shared daemon, and a fresh default host
/// file system. Everything can be overridden fleet-wide, and the
/// GPUfs configuration also per GPU.
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    n_gpus: usize,
    base: GpufsConfig,
    overrides: HashMap<usize, GpufsConfig>,
    spec: GpuSpec,
    timings: Timings,
    fs: Option<Arc<HostFs>>,
    proxy: Option<Arc<HostProxy>>,
    coherence_base: usize,
}

impl FleetBuilder {
    /// A builder for a fleet of `n_gpus` GPUs.
    #[must_use]
    pub fn new(n_gpus: usize) -> Self {
        Self {
            n_gpus,
            base: GpufsConfig::default(),
            overrides: HashMap::new(),
            spec: GpuSpec::tesla_c2075(),
            timings: Timings::default(),
            fs: None,
            proxy: None,
            coherence_base: 0,
        }
    }

    /// Fleet-wide GPUfs configuration (every GPU, unless overridden).
    #[must_use]
    pub fn config(mut self, config: GpufsConfig) -> Self {
        self.base = config;
        self
    }

    /// Override the configuration of one GPU (page size, cache budget,
    /// readahead, ... — the host-side knobs must still match the fleet's
    /// base config, since one daemon serves every GPU;
    /// [`FleetBuilder::build`] rejects an override that disagrees).
    #[must_use]
    // lint:allow dead-pub -- the per-GPU override of the GPU-side knobs, kept on purpose; this file's tests exercise it
    pub fn gpu_config(mut self, gpu: usize, config: GpufsConfig) -> Self {
        self.overrides.insert(gpu, config);
        self
    }

    /// Hardware spec of every GPU.
    #[must_use]
    pub fn spec(mut self, spec: GpuSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Fleet-default timing calibration (PCIe link, and the host FS when
    /// the builder creates one).
    #[must_use]
    pub fn timings(mut self, timings: Timings) -> Self {
        self.timings = timings;
        self
    }

    /// Mount the fleet over an existing host file system instead of a
    /// fresh default one (shared corpora, custom memory budgets).
    #[must_use]
    pub fn host_fs(mut self, fs: Arc<HostFs>) -> Self {
        self.fs = Some(fs);
        self
    }

    /// Serve the fleet's daemon through a cross-host storage proxy
    /// instead of a local file system: every request crosses `proxy`'s
    /// simulated network link to the shared [`crate::StorageServer`].
    /// The fleet's file-system handle aliases the server's (for seeding
    /// corpora and auditing coherence); combine with
    /// [`FleetBuilder::coherence_base`] so mounts of different hosts
    /// register distinctly.
    #[must_use]
    pub fn proxy(mut self, proxy: Arc<HostProxy>) -> Self {
        self.proxy = Some(proxy);
        self
    }

    /// Offset every mount's consistency-registry identity by `base`
    /// (GPU `g` registers as `base + g`). Hosts of a cross-host fleet
    /// use disjoint bases so positional GPU ids never collide in the
    /// shared registry. Default 0: identity = GPU id, the single-host
    /// behaviour.
    #[must_use]
    pub fn coherence_base(mut self, base: usize) -> Self {
        self.coherence_base = base;
        self
    }

    /// Effective configuration of GPU `gpu`.
    fn config_of(&self, gpu: usize) -> GpufsConfig {
        self.overrides
            .get(&gpu)
            .cloned()
            .unwrap_or_else(|| self.base.clone())
    }

    /// Build the fleet: construct the GPUs, start the daemon, and mount
    /// GPUfs on every GPU.
    ///
    /// # Errors
    ///
    /// Fails on an empty fleet, or on any `mount` error: a per-GPU
    /// override whose host-side knobs disagree with the shared daemon,
    /// a cache larger than GPU memory, ...
    pub fn build(self) -> GpufsResult<GpuFleet> {
        if self.n_gpus == 0 {
            return Err(GpufsError::InvalidConfig("a fleet needs at least one GPU"));
        }
        // An override keyed outside the fleet would be silently dropped
        // by the loops below — the exact silent no-op this builder exists
        // to reject (an experiment "slowing GPU 4" of a 4-GPU fleet must
        // fail loudly, not measure a uniform fleet).
        if self.overrides.keys().any(|&g| g >= self.n_gpus) {
            return Err(GpufsError::InvalidConfig(
                "per-GPU config override names a GPU outside the fleet",
            ));
        }
        if let (Some(proxy), Some(fs)) = (&self.proxy, &self.fs) {
            if !Arc::ptr_eq(proxy.server().fs(), fs) {
                return Err(GpufsError::InvalidConfig(
                    "host_fs and proxy name different file systems; a proxied \
                     fleet's fs is always its server's",
                ));
            }
        }
        let fs = match &self.proxy {
            // A proxied fleet's device view *is* the server's file
            // system: probing/seeding stays direct, data requests cross
            // the wire.
            Some(proxy) => Arc::clone(proxy.server().fs()),
            None => self.fs.clone().unwrap_or_else(|| {
                Arc::new(HostFs::new(HostFsConfig {
                    timings: self.timings.clone(),
                    ..HostFsConfig::default()
                }))
            }),
        };
        let gpus: Vec<Arc<Gpu>> = (0..self.n_gpus)
            .map(|g| Arc::new(Gpu::with_timings(g, self.spec.clone(), &self.timings)))
            .collect();

        let host = match &self.proxy {
            Some(proxy) => GpufsHost::with_proxy(Arc::clone(proxy), gpus.clone(), &self.base),
            None => GpufsHost::with_config(Arc::clone(&fs), gpus.clone(), &self.base),
        };

        let mut mounts = Vec::with_capacity(self.n_gpus);
        for g in 0..self.n_gpus {
            mounts.push(host.mount_with_coherence_id(
                g,
                self.config_of(g),
                self.coherence_base + g,
            )?);
        }
        Ok(GpuFleet {
            fs,
            gpus,
            host,
            mounts,
        })
    }
}

/// N GPUfs mounts over one shared host file system (see module docs).
pub struct GpuFleet {
    fs: Arc<HostFs>,
    gpus: Vec<Arc<Gpu>>,
    host: GpufsHost,
    mounts: Vec<Arc<GpuFsMount>>,
}

impl std::fmt::Debug for GpuFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuFleet")
            .field("gpus", &self.gpus.len())
            .finish()
    }
}

impl GpuFleet {
    /// A builder for a fleet of `n_gpus` GPUs.
    #[must_use]
    pub fn builder(n_gpus: usize) -> FleetBuilder {
        FleetBuilder::new(n_gpus)
    }

    /// Number of GPUs in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    /// Whether the fleet is empty (never: `build` rejects zero GPUs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gpus.is_empty()
    }

    /// The shared host file system (and through it the consistency
    /// registry).
    #[must_use]
    pub fn fs(&self) -> &Arc<HostFs> {
        &self.fs
    }

    /// The fleet's GPUs.
    #[must_use]
    pub fn gpus(&self) -> &[Arc<Gpu>] {
        &self.gpus
    }

    /// GPU `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn gpu(&self, g: usize) -> &Arc<Gpu> {
        &self.gpus[g]
    }

    /// Every GPU's mount, indexed by GPU id.
    #[must_use]
    pub fn mounts(&self) -> &[Arc<GpuFsMount>] {
        &self.mounts
    }

    /// GPU `g`'s mount.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn mount(&self, g: usize) -> &Arc<GpuFsMount> {
        &self.mounts[g]
    }

    /// The daemon serving every GPU of the fleet.
    #[must_use]
    pub fn host(&self) -> &GpufsHost {
        &self.host
    }

    /// The daemon serving GPU `g`: the fleet's one daemon.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn host_for(&self, g: usize) -> &GpufsHost {
        assert!(
            g < self.len(),
            "GPU {g} is outside a {}-GPU fleet",
            self.len()
        );
        &self.host
    }

    /// Daemon activity attributed to GPU `g` alone
    /// ([`GpufsHost::stats_for`]).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn stats_for(&self, g: usize) -> &DaemonStats {
        self.host.stats_for(g)
    }

    /// Stop the daemon. Idempotent; in-flight requests drain first.
    pub fn shutdown(&mut self) {
        self.host.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GOpenMode;
    use gpusim::Grid;

    fn small_fleet(n: usize) -> FleetBuilder {
        GpuFleet::builder(n)
            .spec(GpuSpec::small_test())
            .config(GpufsConfig::small_test())
    }

    #[test]
    fn fleet_builds_n_mounts_over_one_shared_fs() {
        let fleet = small_fleet(4).build().unwrap();
        assert_eq!(fleet.len(), 4);
        for g in 0..4 {
            assert_eq!(fleet.gpu(g).id(), g);
            assert!(Arc::ptr_eq(fleet.fs(), fleet.host_for(g).fs()));
        }
        // All four mounts read the same shared file.
        fleet.fs().create("/shared", &[3u8; 4096]).unwrap();
        for g in 0..4 {
            let mount = Arc::clone(fleet.mount(g));
            fleet.gpu(g).launch(Grid::new(1, 32), 0, move |blk| {
                let fd = mount.open(blk, "/shared", GOpenMode::ReadOnly).unwrap();
                let mut buf = [0u8; 64];
                mount.read(blk, &fd, 0, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == 3));
                mount.close(blk, fd).unwrap();
            });
        }
        let ino = fleet.fs().ino_of("/shared").unwrap();
        assert_eq!(
            fleet.fs().consistency().cachers(ino),
            (0..4).collect(),
            "every GPU registered its cached copy"
        );
    }

    #[test]
    fn shared_daemon_rejects_host_side_knob_overrides() {
        // Every daemon-state knob is refused by the override's mount,
        // whose message names the shared daemon.
        for over in [
            GpufsConfig::small_test().with_concurrency(4, 2),
            GpufsConfig::small_test().with_io_chunk(0),
            GpufsConfig::small_test().with_tenant_weights(vec![2, 1]),
            GpufsConfig::small_test().with_tenant_admission(vec![4]),
        ] {
            let err = small_fleet(2).gpu_config(1, over).build();
            assert!(
                matches!(err, Err(GpufsError::InvalidConfig(why)) if why.contains("shared daemon"))
            );
        }
        // GPU-side overrides are fine under a shared daemon.
        let fleet = small_fleet(2)
            .gpu_config(1, GpufsConfig::small_test().with_readahead(8))
            .build()
            .unwrap();
        assert_eq!(
            fleet.mount(1).page_size(),
            GpufsConfig::small_test().page_size
        );
        // And a zero-GPU fleet is rejected outright.
        assert!(matches!(
            GpuFleet::builder(0).build(),
            Err(GpufsError::InvalidConfig(_))
        ));
        // An override naming a GPU outside the fleet must fail loudly,
        // never be silently dropped.
        assert!(matches!(
            small_fleet(2)
                .gpu_config(2, GpufsConfig::small_test())
                .build(),
            Err(GpufsError::InvalidConfig(_))
        ));
    }

    #[test]
    fn a_fleet_of_one_times_exactly_like_a_hand_assembled_mount() {
        // The cluster layer is a zero-cost composition: a single-block
        // sequential `gmmap` walk over a fleet of one GPU ends at the same
        // virtual nanosecond as over the mount it wraps, assembled by hand.
        let page = 16 << 10;
        let file_bytes = 64 * page as u64;
        let config = GpufsConfig::new(page, 2 * file_bytes as usize).with_readahead(4);
        let walk = |fs: &HostFs, gpu: &Gpu, mount: &Arc<GpuFsMount>| {
            fs.create_synthetic("/seq", file_bytes, 4).unwrap();
            let _ = fs.read_whole("/seq", 0).unwrap();
            fs.reset_device_time();
            gpu.launch(Grid::new(1, 256), 0, |blk| {
                let fd = mount.open(blk, "/seq", GOpenMode::ReadOnly).unwrap();
                let mut off = 0;
                while off < file_bytes {
                    let map = mount.mmap(blk, &fd, off, page).unwrap();
                    off += map.len() as u64;
                    mount.munmap(blk, map);
                }
                mount.close(blk, fd).unwrap();
            })
            .end
        };
        let new_fs = || Arc::new(HostFs::new(HostFsConfig::default()));

        let fs = new_fs();
        let fleet = small_fleet(1)
            .config(config.clone())
            .host_fs(Arc::clone(&fs))
            .build()
            .unwrap();
        let fleet_end = walk(&fs, fleet.gpu(0), fleet.mount(0));

        let fs = new_fs();
        let gpu = Arc::new(Gpu::with_timings(
            0,
            GpuSpec::small_test(),
            &Timings::default(),
        ));
        let host = GpufsHost::with_config(Arc::clone(&fs), vec![Arc::clone(&gpu)], &config);
        let mount = host.mount(0, config).unwrap();
        let hand_end = walk(&fs, &gpu, &mount);

        assert!(hand_end > 0);
        assert_eq!(fleet_end, hand_end, "the fleet layer moved virtual time");
    }

    #[test]
    fn fleet_attributes_daemon_stats_per_gpu() {
        let fleet = small_fleet(2).build().unwrap();
        fleet.fs().create("/a", &[1u8; 8192]).unwrap();
        // GPU 0 reads two pages, GPU 1 none.
        let mount = Arc::clone(fleet.mount(0));
        fleet.gpu(0).launch(Grid::new(1, 32), 0, move |blk| {
            let fd = mount.open(blk, "/a", GOpenMode::ReadOnly).unwrap();
            let mut buf = [0u8; 8192];
            mount.read(blk, &fd, 0, &mut buf).unwrap();
            mount.close(blk, fd).unwrap();
        });
        assert_eq!(fleet.stats_for(0).bytes_h2d.get(), 8192);
        assert_eq!(fleet.stats_for(1).bytes_h2d.get(), 0);
        assert_eq!(fleet.stats_for(1).requests.get(), 0);
        assert_eq!(
            fleet.host_for(0).stats().bytes_h2d.get(),
            8192,
            "aggregate equals the per-GPU sum"
        );
    }
}
