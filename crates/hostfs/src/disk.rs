//! Disk timing model: one head, seeks, and streaming bandwidth.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use simtime::{bw_time_ns, Nanos, Reservation, Timings};

use crate::Ino;

/// The timing model of the backing disk (paper testbed: 500 GB WDC WD5003,
/// 7200 RPM, 132 MB/s streaming reads).
///
/// The disk is a serial device: requests from any number of callers are
/// served one at a time. A request whose start offset does not continue the
/// previous request on the same file pays a seek; switching files always
/// pays a seek. This is what makes many-small-file workloads (the Linux
/// source tree of Table 4) disk-seek-bound when cold.
///
/// Capacity is enforced with a *work-conserving* cumulative-busy model
/// rather than a strict FIFO on request arrival: a request completes at
/// `max(its issue time, total work already accepted) + its service time`.
/// At low utilization requests start when issued; under saturation the
/// accumulated work term dominates and the device serializes at full
/// capacity. Crucially, the model is insensitive to the *real-time* order
/// in which simulated actors (whose virtual clocks legitimately diverge)
/// happen to call in.
#[derive(Debug)]
pub struct DiskModel {
    /// Cumulative service time accepted since the last reset.
    busy: AtomicU64,
    state: Mutex<HeadState>,
    stream_mb_s: f64,
    seek_ns: Nanos,
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
            busy: AtomicU64::new(0),
            state: Mutex::new(HeadState::default()),
            stream_mb_s: t.disk_mb_s,
            seek_ns: t.disk_seek_ns,
        }
    }

    /// Serve a read/write of `bytes` at `offset` of file `ino`, not before
    /// `earliest`. Returns the reservation window on the disk head.
    pub fn access(&self, ino: Ino, offset: u64, bytes: u64, earliest: Nanos) -> Reservation {
        let seek = {
            let mut st = self.state.lock();
            let contiguous = st.last_ino == Some(ino) && st.last_end == offset;
            st.last_ino = Some(ino);
            st.last_end = offset + bytes;
            !contiguous
        };
        let mut dur = bw_time_ns(bytes, self.stream_mb_s);
        if seek {
            dur = dur.saturating_add(self.seek_ns);
        }
        let prior_work = self.busy.fetch_add(dur, Ordering::AcqRel);
        let start = earliest.max(prior_work);
        Reservation {
            start,
            end: start.saturating_add(dur),
            joined: false,
        }
    }

    /// Streaming bandwidth in MB/s.
    #[must_use]
    pub fn bandwidth_mb_s(&self) -> f64 {
        self.stream_mb_s
    }

    /// Forget head position and queued work (between benchmark phases).
    pub fn reset(&self) {
        self.busy.store(0, Ordering::Release);
        *self.state.lock() = HeadState::default();
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
    fn zero_disk_bandwidth_means_free_access() {
        let d = DiskModel::from_timings(&Timings::default().without_host_io());
        let a = d.access(1, 0, 1 << 30, 0);
        assert_eq!(a.busy(), 0);
    }
}
