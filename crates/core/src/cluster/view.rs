//! [`FleetView`]: the surface workload drivers need from "a set of
//! GPUfs mounts over one coherent file system".
//!
//! A single-host [`GpuFleet`] and a cross-host
//! [`crate::cluster::HostFleet`] differ in what sits between a mount and
//! the storage (nothing vs a wire), but not in how work is driven over
//! them: pick a GPU, take its mount, launch kernels, audit the shared
//! registry. Drivers written against this trait — the distributed image
//! search, the close-to-open schedule runner — run unchanged over both.
//! The registry audits and the schedule runner are provided methods, so
//! both fleet types share one copy.

use std::sync::Arc;

use gpusim::{Gpu, Grid};
use hostfs::HostFs;
use parking_lot::Mutex;

use crate::cluster::coherence::{CoherenceOp, FileCoherence, ScheduleReport, TAG_STRIDE};
use crate::cluster::fleet::GpuFleet;
use crate::config::GOpenMode;
use crate::error::{GpufsError, GpufsResult};
use crate::mount::GpuFsMount;

/// A fleet of GPUfs mounts addressable by one global GPU index, sharing
/// one (coherence-bearing) host file system. See module docs.
pub trait FleetView {
    /// Total GPUs addressable through this view.
    fn len(&self) -> usize;

    /// Whether the view holds no GPUs (builders reject this, so `false`
    /// for both fleet types).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// GPU `g` (global index).
    fn gpu(&self, g: usize) -> &Arc<Gpu>;

    /// GPU `g`'s mount (global index).
    fn mount(&self, g: usize) -> &Arc<GpuFsMount>;

    /// The shared host file system — the storage-server view in a
    /// cross-host fleet — carrying the consistency registry.
    fn fs(&self) -> &Arc<HostFs>;

    /// Point-in-time coherence audit of every file the shared registry
    /// tracks, sorted by inode. Cachers carry coherence ids: the GPU id
    /// in a single-host fleet, host-qualified in a cross-host one.
    #[must_use]
    fn coherence_audit(&self) -> Vec<FileCoherence> {
        self.fs()
            .consistency()
            .snapshot()
            .into_iter()
            .map(|s| {
                let stale = s.stale_cachers();
                FileCoherence {
                    ino: s.ino,
                    generation: s.generation,
                    cachers: s.cachers,
                    stale,
                }
            })
            .collect()
    }

    /// Coherence audit of the file at `path`, if the registry tracks it
    /// (one registry entry is read — a per-file audit never pays for the
    /// whole registry).
    #[must_use]
    fn audit_file(&self, path: &str) -> Option<FileCoherence> {
        let fs = self.fs();
        let s = fs.consistency().file_snapshot(fs.ino_of(path).ok()?)?;
        let stale = s.stale_cachers();
        Some(FileCoherence {
            ino: s.ino,
            generation: s.generation,
            cachers: s.cachers,
            stale,
        })
    }

    /// Run a sequential close-to-open schedule against `path` (created
    /// with tag 0 if missing). Ops name GPUs by the view's global index,
    /// so one schedule interleaves writers and readers across hosts when
    /// the view spans them. Each op runs to completion — every
    /// `WriteClose` fully publishes before the next op starts — so each
    /// `OpenCheck` has exactly one correct answer, the latest closed
    /// tag. Both tag cells (offset 0 and offset `TAG_STRIDE` = 64 KB)
    /// must agree; a disagreement between them, or with the expected
    /// tag, lands in [`ScheduleReport::mismatches`].
    ///
    /// # Errors
    ///
    /// Fails on host errors seeding the file and on GPUfs errors inside
    /// any step (daemon down, cache exhausted, ...), never on a
    /// consistency violation — those are the report's job.
    ///
    /// # Panics
    ///
    /// Panics if an op names a GPU outside the fleet.
    fn run_close_to_open_schedule(
        &self,
        path: &str,
        ops: &[CoherenceOp],
    ) -> GpufsResult<ScheduleReport> {
        if !self.fs().exists(path) {
            self.fs()
                .create(path, &vec![0u8; (TAG_STRIDE + 8) as usize])
                .map_err(GpufsError::Host)?;
        }
        let mut report = ScheduleReport::default();
        // Seed the expectation from the file's current (host-visible)
        // tag: every WriteClose publishes before returning, so on a
        // reused path the first tag cell *is* the latest closed write —
        // resetting to 0 instead would report phantom mismatches.
        let mut latest: u64 = {
            let (data, _) = self.fs().read_whole(path, 0).map_err(GpufsError::Host)?;
            let mut cell = [0u8; 8];
            let n = data.len().min(8);
            cell[..n].copy_from_slice(&data[..n]);
            u64::from_le_bytes(cell)
        };
        for (i, &op) in ops.iter().enumerate() {
            match op {
                CoherenceOp::WriteClose { gpu, tag } => {
                    let mount = self.mount(gpu);
                    self.gpu(gpu).try_launch(Grid::new(1, 32), 0, |blk| {
                        let fd = mount.open(blk, path, GOpenMode::ReadWrite)?;
                        mount.write(blk, &fd, 0, &tag.to_le_bytes())?;
                        mount.write(blk, &fd, TAG_STRIDE, &tag.to_le_bytes())?;
                        mount.fsync(blk, &fd)?;
                        mount.close(blk, fd)
                    })?;
                    latest = tag;
                }
                CoherenceOp::OpenCheck { gpu } => {
                    let mount = self.mount(gpu);
                    let observed = Mutex::new((0, 0));
                    self.gpu(gpu).try_launch(Grid::new(1, 32), 0, |blk| {
                        let fd = mount.open(blk, path, GOpenMode::ReadOnly)?;
                        let mut a = [0u8; 8];
                        let mut b = [0u8; 8];
                        mount.read(blk, &fd, 0, &mut a)?;
                        mount.read(blk, &fd, TAG_STRIDE, &mut b)?;
                        *observed.lock() = (u64::from_le_bytes(a), u64::from_le_bytes(b));
                        mount.close(blk, fd)
                    })?;
                    report.checks += 1;
                    let (a, b) = observed.into_inner();
                    if a != latest {
                        report.mismatches.push((i, latest, a));
                    }
                    if b != latest {
                        report.mismatches.push((i, latest, b));
                    }
                }
            }
        }
        Ok(report)
    }
}

impl FleetView for GpuFleet {
    fn len(&self) -> usize {
        GpuFleet::len(self)
    }

    fn gpu(&self, g: usize) -> &Arc<Gpu> {
        GpuFleet::gpu(self, g)
    }

    fn mount(&self, g: usize) -> &Arc<GpuFsMount> {
        GpuFleet::mount(self, g)
    }

    fn fs(&self) -> &Arc<HostFs> {
        GpuFleet::fs(self)
    }
}
