//! Virtual-time engine for the GPUfs reproduction.
//!
//! The original GPUfs evaluation runs on real hardware (PCIe 2.0 bus, GDDR5
//! GPU memory, a 7200 RPM disk). This crate replaces the *timing* of those
//! devices with a calibrated analytic model while the surrounding code still
//! moves real bytes through real data structures on real threads.
//!
//! The model is a conservative parallel discrete-event approximation:
//!
//! * every simulated executor (a GPU threadblock slot, an RPC being served,
//!   a DMA engine) owns an [`Clock`] holding its local virtual time;
//! * every shared device reserves through a [`Timeline`] (one atomic add
//!   on the work it has accepted so far): a [`BandwidthResource`] (PCIe
//!   direction, network link, or the disk, whose setup is its seek) on
//!   one server, a [`WorkerPool`] (the RPC daemon's workers) on `k`;
//! * cross-actor waits take the maximum of the waiter's clock and the
//!   producer's completion time, and actors pace on a [`ClockBoard`] to
//!   stay virtually concurrent.
//!
//! Because reservations never block real threads, experiments that model
//! minutes of device time execute in milliseconds of wall time. A real
//! thread that must wait for another actor parks on a [`ClockBoard`], the
//! one real-time wait; a [`ClockBoard::wait`] round ends after one 50 µs
//! quantum at most, so a wait whose notifier is gone still ends.
//!
//! # Example
//!
//! ```
//! use simtime::{bw_time_ns, BandwidthResource, Clock};
//!
//! // A PCIe-like link: 5731 MB/s with a 10 us per-transfer setup cost.
//! let pcie = BandwidthResource::new(5731.0, 10_000);
//! let mut block = Clock::new();
//! let xfer = pcie.transfer(block.now(), 1 << 20); // move 1 MiB
//! block.wait_until(xfer.end);
//! assert!(block.now() >= bw_time_ns(1 << 20, 5731.0));
//! ```

mod board;
mod clock;
mod resource;
mod stats;
mod timings;

pub use board::{ClockBoard, Seat, Waiter};
pub use clock::Clock;
pub use resource::{BandwidthResource, Reservation, Timeline, WorkerPool};
pub use stats::{ByteLedger, Counter};
pub use timings::Timings;

/// Virtual nanoseconds. All virtual timestamps and durations use this unit.
pub type Nanos = u64;

/// Time to move `bytes` at `mb_per_s` megabytes per second, in nanoseconds.
///
/// A "megabyte" here is 10^6 bytes, matching how the paper reports device
/// bandwidths (e.g. 5731 MB/s effective PCIe 2.0 bandwidth).
///
/// ```
/// // 1 MB at 1000 MB/s takes exactly 1 ms.
/// assert_eq!(simtime::bw_time_ns(1_000_000, 1000.0), 1_000_000);
/// ```
#[must_use]
pub fn bw_time_ns(bytes: u64, mb_per_s: f64) -> Nanos {
    if mb_per_s <= 0.0 {
        return 0;
    }
    // bytes / (mb_per_s * 1e6 B/s) seconds  ==  bytes * 1000 / mb_per_s ns
    ((bytes as f64) * 1000.0 / mb_per_s).round() as Nanos
}

/// Throughput in MB/s achieved moving `bytes` over `elapsed` nanoseconds.
///
/// Returns 0.0 when `elapsed` is zero.
#[must_use]
pub fn throughput_mb_s(bytes: u64, elapsed: Nanos) -> f64 {
    if elapsed == 0 {
        return 0.0;
    }
    (bytes as f64) * 1000.0 / (elapsed as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bw_time_roundtrip() {
        let ns = bw_time_ns(10_000_000, 2500.0);
        assert_eq!(ns, 4_000_000);
        let mbs = throughput_mb_s(10_000_000, ns);
        assert!((mbs - 2500.0).abs() < 1e-6);
    }

    #[test]
    fn bw_time_zero_bandwidth_is_free() {
        assert_eq!(bw_time_ns(123, 0.0), 0);
        assert_eq!(bw_time_ns(123, -1.0), 0);
    }

    #[test]
    fn throughput_of_zero_elapsed() {
        assert_eq!(throughput_mb_s(100, 0), 0.0);
    }
}
