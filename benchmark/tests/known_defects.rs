//! Geometries the benchmark steers clear of because the program fails on
//! them. The workloads must be ones on which no operation fails, and this
//! package may not change the program, so what its oracles found is kept
//! runnable here instead of tuned out of sight:
//!
//! ```sh
//! cargo test --release --manifest-path benchmark/Cargo.toml -- --ignored
//! ```

use std::time::Instant;

use gpufs_benchmark::record::Observe;
use gpufs_benchmark::workloads::tenant_mix::TenantMix;
use gpufs_benchmark::workloads::Workload;

/// `tenant_mix` with 8-page logger sessions and the quotas the issue
/// named, `[48, 8, 8]` over 64 frames: 16 dirty `O_GWRONCE` pages against
/// the logger's 8-frame quota, so the pages it is writing are reclaimed
/// under it. About one replay in fifty leaves a log file with one to
/// three wrong or all-zero 4 KB pages after `gfsync` + `gclose` (seed 2;
/// the two logger blocks' concurrent sessions fail together; with 4-page
/// sessions, 8 dirty pages, it is one replay in 700). With a quota that
/// covers the pages in flight plus a reclaim batch — 32, or the
/// benchmarked workload's 16 for 4-page sessions — 2600 replays passed.
/// Passes once reclaim of pages of a file being written loses no data;
/// until then it is expected to fail within its 200 replays (about two
/// minutes; the 45th, when this was written).
#[test]
#[ignore = "known program defect: a tenant over its frame quota loses dirty pages"]
fn tenant_mix_with_logger_sessions_over_quota_loses_no_data() {
    let obs = Observe::untraced(Instant::now());
    let mut w = TenantMix::with_logger(2, false, 8, 8);
    for replay in 1..=200 {
        let failed = w.iterate(&obs).failed;
        assert_eq!(
            failed, 0,
            "replay {replay}: {failed} reads or log files did not hold what was written"
        );
    }
}
