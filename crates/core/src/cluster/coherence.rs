//! Fleet-level close-to-open consistency: enforcement, auditing, and
//! stress machinery (paper §4.4).
//!
//! The consistency model is deliberately weak — a GPU's writes become
//! visible to another GPU only after the writer closes and the reader
//! (re)opens — and deliberately *lazy*: closing pushes nothing; a stale
//! cache is discovered, and dropped, at reopen time on the GPU that
//! holds it. This module gives the fleet the tools to observe and stress
//! exactly that contract:
//!
//! * [`FleetView::coherence_audit`] / [`FleetView::audit_file`] — a
//!   point-in-time view over the shared registry ([`hostfs::Consistency`
//!   `::snapshot`]): per file, the host generation, every GPU's
//!   registered cached generation, and which of those are lazily stale.
//! * [`CoherenceOp`] + [`FleetView::run_close_to_open_schedule`] — a
//!   schedule driver for randomized cross-GPU open→write→close→reopen
//!   interleavings: every `OpenCheck` must observe the latest *closed*
//!   write, whichever GPU made it. The driver reports mismatches as data
//!   (not panics) so property harnesses can attach case numbers.
//!
//! Both are provided methods of [`FleetView`], written once for the
//! single-host and the cross-host fleet; this module holds their types.

use hostfs::Ino;

#[cfg(doc)]
use crate::cluster::view::FleetView;

/// Audited coherence state of one file across the fleet (a
/// [`hostfs::FileSnapshot`] with the staleness verdict applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCoherence {
    /// The file's host inode.
    pub ino: Ino,
    /// Current host generation.
    pub generation: u64,
    /// Every registered GPU cache as `(coherence_id, cached_generation)`
    /// — the coherence id is the GPU id in a single-host fleet, and the
    /// host-qualified [`crate::GpuFsMount::coherence_id`] in a
    /// cross-host one.
    pub cachers: Vec<(usize, u64)>,
    /// Coherence ids whose cached generation lags — still registered
    /// (lazy invalidation has not reached them) but guaranteed to
    /// refetch on their next open.
    pub stale: Vec<usize>,
}

/// One step of a randomized close-to-open schedule
/// (see [`FleetView::run_close_to_open_schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceOp {
    /// GPU `gpu` opens the file read-write, writes `tag` (to two
    /// separate pages), syncs, and closes — a complete close-to-open
    /// publication.
    WriteClose {
        /// The writing GPU.
        gpu: usize,
        /// The value published.
        tag: u64,
    },
    /// GPU `gpu` opens the file read-only, reads both tag cells, and
    /// closes. Close-to-open requires it to observe the latest
    /// `WriteClose` tag, whichever GPU wrote it.
    OpenCheck {
        /// The reading GPU.
        gpu: usize,
    },
}

/// Outcome of one [`FleetView::run_close_to_open_schedule`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleReport {
    /// `OpenCheck` steps executed.
    pub checks: usize,
    /// Violations as `(op_index, expected_tag, observed_tag)` — empty on
    /// a consistency-respecting run.
    pub mismatches: Vec<(usize, u64, u64)>,
}

/// Byte offset of the second tag cell: one page past the first at the
/// fleet's smallest configured page size would depend on config, so the
/// driver uses a fixed 64 KB stride and sizes the file accordingly —
/// with ≤ 64 KB pages the two cells exercise two separate cache pages.
pub(crate) const TAG_STRIDE: u64 = 64 << 10;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::cluster::fleet::{FleetBuilder, GpuFleet};
    use crate::cluster::view::FleetView;
    use crate::config::{GOpenMode, GpufsConfig};
    use gpusim::{GpuSpec, Grid};

    fn fleet(n: usize) -> GpuFleet {
        FleetBuilder::new(n)
            .spec(GpuSpec::small_test())
            .config(GpufsConfig::small_test())
            .build()
            .unwrap()
    }

    #[test]
    fn open_after_write_observes_the_writers_generation() {
        let fleet = fleet(3);
        let report = fleet
            .run_close_to_open_schedule(
                "/c2o",
                &[
                    CoherenceOp::OpenCheck { gpu: 2 },
                    CoherenceOp::WriteClose { gpu: 0, tag: 7 },
                    CoherenceOp::OpenCheck { gpu: 1 },
                    CoherenceOp::OpenCheck { gpu: 2 },
                    CoherenceOp::WriteClose { gpu: 1, tag: 9 },
                    CoherenceOp::OpenCheck { gpu: 0 },
                ],
            )
            .unwrap();
        assert_eq!(report.checks, 4);
        assert_eq!(report.mismatches, vec![], "close-to-open violated");
        // After the dust settles, every cacher that reopened since the
        // last write is at the writer's generation.
        let audit = fleet.audit_file("/c2o").unwrap();
        let reader0 = audit.cachers.iter().find(|&&(g, _)| g == 0).unwrap();
        assert_eq!(
            reader0.1, audit.generation,
            "the reopened reader observed the writer's generation"
        );
    }

    #[test]
    fn stale_readers_are_invalidated_lazily_not_eagerly() {
        let fleet = fleet(3);
        // GPUs 1 and 2 cache the file, then GPU 0 publishes a write.
        fleet
            .run_close_to_open_schedule(
                "/lazy",
                &[
                    CoherenceOp::OpenCheck { gpu: 1 },
                    CoherenceOp::OpenCheck { gpu: 2 },
                    CoherenceOp::WriteClose { gpu: 0, tag: 5 },
                ],
            )
            .unwrap();
        // Nothing was broadcast: both readers still hold their (parked)
        // caches, registered at the old generation — stale, not dropped.
        let audit = fleet.audit_file("/lazy").unwrap();
        assert!(audit.stale.contains(&1) && audit.stale.contains(&2));
        // GPU 1 reopens: only *its* staleness resolves; GPU 2 stays
        // lazily stale until it reopens itself. The reused path seeds
        // the schedule's expectation from the file's current tag, so
        // the check must observe tag 5 — not a phantom 0.
        let report = fleet
            .run_close_to_open_schedule("/lazy", &[CoherenceOp::OpenCheck { gpu: 1 }])
            .unwrap();
        assert_eq!(report.mismatches, vec![], "reused path keeps its tag");
        let audit = fleet.audit_file("/lazy").unwrap();
        assert!(!audit.stale.contains(&1), "reopen resolved GPU 1");
        assert!(audit.stale.contains(&2), "GPU 2 still lazily stale");
    }

    #[test]
    fn concurrent_writers_to_disjoint_pages_merge_via_the_diff_protocol() {
        let fleet = fleet(4);
        let page = GpufsConfig::small_test().page_size as u64;
        fleet
            .fs()
            .create("/merge", &vec![0u8; (4 * page) as usize])
            .unwrap();
        // All four GPUs write their own page of one shared file at once.
        std::thread::scope(|s| {
            for g in 0..4usize {
                let mount = Arc::clone(fleet.mount(g));
                let gpu = Arc::clone(fleet.gpu(g));
                s.spawn(move || {
                    gpu.launch(Grid::new(1, 32), 0, move |blk| {
                        let fd = mount.open(blk, "/merge", GOpenMode::ReadWrite).unwrap();
                        mount
                            .write(blk, &fd, g as u64 * page, &vec![g as u8 + 1; page as usize])
                            .unwrap();
                        mount.fsync(blk, &fd).unwrap();
                        mount.close(blk, fd).unwrap();
                    });
                });
            }
        });
        let (data, _) = fleet.fs().read_whole("/merge", 0).unwrap();
        for g in 0..4usize {
            assert!(
                data[g * page as usize..(g + 1) * page as usize]
                    .iter()
                    .all(|&b| b == g as u8 + 1),
                "GPU {g}'s page lost in the merge"
            );
        }
        // A follow-up reader on any GPU sees the merged file.
        let report = fleet
            .run_close_to_open_schedule("/probe", &[CoherenceOp::OpenCheck { gpu: 3 }])
            .unwrap();
        assert_eq!(report.mismatches, vec![]);
    }

    #[test]
    fn audit_reports_unknown_paths_as_none() {
        let fleet = fleet(1);
        assert!(fleet.audit_file("/nope").is_none());
        assert!(fleet.coherence_audit().is_empty());
    }
}
