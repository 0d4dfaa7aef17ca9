//! Disk timing model: one head, seeks, and streaming bandwidth.

use parking_lot::Mutex;
use simtime::{BandwidthResource, Nanos, Reservation, Timings};

use crate::Ino;

/// The timing model of the backing disk (paper testbed: 500 GB WDC WD5003,
/// 7200 RPM, 132 MB/s streaming reads).
///
/// The disk is a serial device — a [`BandwidthResource`] whose setup is
/// its seek, so requests from any number of callers are served one at a
/// time by the same start rule as every other device
/// ([`simtime::Timeline`]). A request whose start offset does not continue
/// the previous request on the same file pays a seek; switching files
/// always pays a seek. This is what makes many-small-file workloads (the
/// Linux source tree of Table 4) disk-seek-bound when cold.
#[derive(Debug)]
pub struct DiskModel {
    head: Mutex<HeadState>,
    stream: BandwidthResource,
}

#[derive(Debug, Default)]
struct HeadState {
    last_ino: Option<Ino>,
    last_end: u64,
}

impl DiskModel {
    /// Build from the calibration table.
    #[must_use]
    pub fn from_timings(t: &Timings) -> Self {
        Self {
            head: Mutex::new(HeadState::default()),
            stream: BandwidthResource::new(t.disk_mb_s, t.disk_seek_ns),
        }
    }

    /// Serve a read/write of `bytes` at `offset` of file `ino`, not before
    /// `earliest`. Returns the reservation window on the disk head.
    pub fn access(&self, ino: Ino, offset: u64, bytes: u64, earliest: Nanos) -> Reservation {
        let seek = {
            let mut head = self.head.lock();
            let contiguous = head.last_ino == Some(ino) && head.last_end == offset;
            head.last_ino = Some(ino);
            head.last_end = offset + bytes;
            !contiguous
        };
        self.stream.transfer_with_setup(earliest, bytes, seek)
    }

    /// Service time — seeks included — accepted since the last reset.
    #[must_use]
    pub fn busy_ns(&self) -> Nanos {
        self.stream.busy_ns()
    }

    /// Forget head position and queued work (between benchmark phases).
    pub fn reset(&self) {
        self.stream.reset();
        *self.head.lock() = HeadState::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskModel {
        DiskModel::from_timings(&Timings::default())
    }

    #[test]
    fn sequential_reads_pay_one_seek() {
        let d = disk();
        let a = d.access(1, 0, 1_000_000, 0);
        let b = d.access(1, 1_000_000, 1_000_000, a.end);
        // First access seeks; second continues.
        assert!(a.busy() > b.busy());
        assert_eq!(a.busy() - b.busy(), Timings::default().disk_seek_ns);
    }

    #[test]
    fn switching_files_seeks_again() {
        let d = disk();
        let a = d.access(1, 0, 1_000, 0);
        let b = d.access(2, 1_000, 1_000, a.end);
        assert_eq!(b.busy(), a.busy(), "file switch must seek");
    }

    #[test]
    fn head_serializes_concurrent_requests() {
        let d = disk();
        let a = d.access(1, 0, 1_000_000, 0);
        let b = d.access(1, 0, 1_000_000, 0);
        assert!(b.start >= a.end || a.start >= b.end);
    }

    #[test]
    fn disk_windows_are_exact() {
        use simtime::bw_time_ns;
        let t = Timings::default();
        let seek = t.disk_seek_ns;
        let bw = |bytes| bw_time_ns(bytes, t.disk_mb_s);
        let d = disk();
        // Two accesses issued at 0: the first starts at 0 and seeks, the
        // second continues it and starts when the first has been served.
        let a = d.access(1, 0, 1_000_000, 0);
        assert_eq!((a.start, a.end), (0, seek + bw(1_000_000)));
        let b = d.access(1, 1_000_000, 500_000, 0);
        assert_eq!((b.start, b.end), (a.end, a.end + bw(500_000)));
        // A seek iff the access does not continue the head's file and
        // offset: a jump back seeks, a file switch seeks even at the
        // offset the head stopped at, a continuation never does.
        let back = d.access(1, 0, 4096, 0);
        assert_eq!((back.start, back.busy()), (b.end, seek + bw(4096)));
        let switch = d.access(2, 4096, 4096, 0);
        assert_eq!((switch.start, switch.busy()), (back.end, seek + bw(4096)));
        let on = d.access(2, 8192, 4096, 0);
        assert_eq!((on.start, on.busy()), (switch.end, bw(4096)));
        // After an idle gap an access starts when issued, and only the
        // head's position decides its seek.
        let late = on.end + 1_000_000;
        let idle = d.access(2, 12_288, 4096, late);
        assert_eq!((idle.start, idle.end), (late, late + bw(4096)));
        // Reset forgets the head and the queue alike.
        d.reset();
        let fresh = d.access(2, 16_384, 4096, 0);
        assert_eq!((fresh.start, fresh.end), (0, seek + bw(4096)));
    }

    #[test]
    fn zero_disk_bandwidth_means_free_access() {
        let d = DiskModel::from_timings(&Timings::default().without_host_io());
        let a = d.access(1, 0, 1 << 30, 0);
        assert_eq!(a.busy(), 0);
    }
}
