//! PCIe DMA engines: full-duplex, bandwidth-arbitrated, setup-priced.

use simtime::{BandwidthResource, Nanos, Reservation, Timings};

use crate::{DevPtr, Gpu};

/// The two DMA directions of one GPU's PCIe link.
///
/// The link is full duplex (the paper's RPC daemon "uses multiple
/// asynchronous CPU-GPU channels to utilize full-duplex DMA"), so
/// host-to-device and device-to-host transfers are arbitrated
/// independently. Transfers on the same direction queue FIFO.
#[derive(Debug)]
pub struct DmaEngines {
    timings: Timings,
    h2d: BandwidthResource,
    d2h: BandwidthResource,
}

impl DmaEngines {
    /// Build both directions from a calibration table.
    #[must_use]
    pub fn from_timings(timings: &Timings) -> Self {
        Self {
            h2d: BandwidthResource::new(timings.pcie_mb_s, timings.dma_setup_ns),
            d2h: BandwidthResource::new(timings.pcie_mb_s, timings.dma_setup_ns),
            timings: timings.clone(),
        }
    }

    /// The calibration this engine was built from.
    #[must_use]
    pub fn timings(&self) -> &Timings {
        &self.timings
    }

    /// Reserve the host-to-device direction for `bytes`, without moving
    /// data (used for modeling a transfer whose bytes are moved elsewhere).
    pub fn reserve_h2d(&self, earliest: Nanos, bytes: u64) -> Reservation {
        self.h2d.transfer(earliest, bytes)
    }

    /// Reserve the device-to-host direction for `bytes`.
    pub fn reserve_d2h(&self, earliest: Nanos, bytes: u64) -> Reservation {
        self.d2h.transfer(earliest, bytes)
    }

    /// Reserve the host-to-device direction for one scatter-gather
    /// transaction over the given extents: setup is paid once for the
    /// whole descriptor list (see [`simtime::BandwidthResource::transfer_scattered`]).
    /// This is the timing model of a batched `ReadPages` on the paper
    /// prototype's DMA path: one driver call per RPC, which neither joins
    /// the descriptor ring nor leaves it running. Only the extents'
    /// lengths matter; the caller moves the bytes.
    pub fn reserve_h2d_scattered(&self, earliest: Nanos, extent_bytes: &[u64]) -> Reservation {
        self.h2d.transfer_scattered(earliest, extent_bytes)
    }

    /// Reserve the device-to-host direction for one scatter-gather
    /// transaction over the given extents — the write-back mirror of
    /// [`DmaEngines::reserve_h2d_scattered`].
    pub fn reserve_d2h_scattered(&self, earliest: Nanos, extent_bytes: &[u64]) -> Reservation {
        self.d2h.transfer_scattered(earliest, extent_bytes)
    }

    /// Reserve the host-to-device direction for one *chunk* of a
    /// scatter-gather transaction fed through the direction's descriptor
    /// ring: setup is paid by the `first` chunk — unless the ring is still
    /// running when its data is ready, in which case it is appended;
    /// continuations stream the already-programmed list at pure bandwidth
    /// (see [`simtime::BandwidthResource::transfer_chunk`]). This is the
    /// timing model of the daemon's pipelined `ReadPages` engine. The
    /// caller serializes chunks of one transaction by threading the
    /// previous chunk's `end` into `earliest`.
    pub fn reserve_h2d_chunk(
        &self,
        earliest: Nanos,
        extent_bytes: &[u64],
        first: bool,
    ) -> Reservation {
        self.h2d.transfer_chunk(earliest, extent_bytes, first)
    }

    /// Reserve the device-to-host direction for one chunk of a larger
    /// scatter-gather transaction — the write-back mirror of
    /// [`DmaEngines::reserve_h2d_chunk`].
    pub fn reserve_d2h_chunk(
        &self,
        earliest: Nanos,
        extent_bytes: &[u64],
        first: bool,
    ) -> Reservation {
        self.d2h.transfer_chunk(earliest, extent_bytes, first)
    }

    /// Engine time — setup included — each direction has accepted since
    /// the last reset, as `(h2d, d2h)`: the numerator of per-direction
    /// link occupancy.
    #[must_use]
    pub fn busy_ns(&self) -> (Nanos, Nanos) {
        (self.h2d.busy_ns(), self.d2h.busy_ns())
    }

    /// Forget queued work in both directions (between benchmark phases).
    pub fn reset(&self) {
        self.h2d.reset();
        self.d2h.reset();
    }
}

impl Gpu {
    /// DMA host memory into device memory: copies the bytes and charges
    /// the PCIe host-to-device direction. Returns the transfer window.
    ///
    /// # Panics
    ///
    /// Panics if the destination range is out of bounds.
    pub fn dma_h2d(&self, src: &[u8], dst: DevPtr, earliest: Nanos) -> Reservation {
        self.global().write(dst, src);
        self.dma().reserve_h2d(earliest, src.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuSpec;

    #[test]
    fn h2d_moves_bytes_and_charges_time() {
        let gpu = Gpu::new(0, GpuSpec::small_test());
        let dst = gpu.global().alloc(1 << 20).unwrap();
        let src = vec![0xabu8; 1 << 20];
        let r = gpu.dma_h2d(&src, dst, 0);
        assert!(r.end > r.start);
        // 1 MiB at 5731 MB/s ≈ 183 us plus the 25 us setup.
        assert!(
            r.busy() > 200_000 && r.busy() < 215_000,
            "busy = {}",
            r.busy()
        );
        let mut out = vec![0u8; 1 << 20];
        gpu.global().read(dst, &mut out);
        assert_eq!(out, src);
    }

    #[test]
    fn directions_are_independent() {
        let gpu = Gpu::new(0, GpuSpec::small_test());
        let a = gpu.global().alloc(1 << 20).unwrap();
        let r1 = gpu.dma_h2d(&vec![1u8; 1 << 20], a, 0);
        let r2 = gpu.dma().reserve_d2h(0, 1 << 20);
        // d2h did not queue behind h2d.
        assert_eq!(r2.start, 0);
        assert!(r1.start == 0);
    }

    #[test]
    fn same_direction_queues() {
        let gpu = Gpu::new(0, GpuSpec::small_test());
        let a = gpu.global().alloc(2 << 20).unwrap();
        let r1 = gpu.dma_h2d(&vec![1u8; 1 << 20], a, 0);
        let r2 = gpu.dma_h2d(&vec![2u8; 1 << 20], a + (1 << 20), 0);
        assert_eq!(r2.start, r1.end);
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn scattered_h2d_pays_one_setup_for_all_extents() {
        let dma = DmaEngines::from_timings(&Timings::default());
        let scattered = dma.reserve_h2d_scattered(0, &[MB, MB]);
        // Same bytes as two singleton DMAs, minus one setup charge.
        let dma2 = DmaEngines::from_timings(&Timings::default());
        let r1 = dma2.reserve_h2d(0, MB);
        let r2 = dma2.reserve_h2d(0, MB);
        let serial = r1.busy() + r2.busy();
        let saved = serial - scattered.busy();
        let setup = dma.timings().dma_setup_ns;
        // Modulo per-extent integer rounding of the bandwidth term.
        assert!(
            (setup..=setup + 2).contains(&saved),
            "batch pays setup once: saved {saved}, setup {setup}"
        );
    }

    #[test]
    fn scattered_d2h_pays_one_setup_for_all_extents() {
        let dma = DmaEngines::from_timings(&Timings::default());
        let scattered = dma.reserve_d2h_scattered(0, &[MB, MB]);
        // Same bytes as two singleton DMAs, minus one setup charge.
        let dma2 = DmaEngines::from_timings(&Timings::default());
        let r1 = dma2.reserve_d2h(0, MB);
        let r2 = dma2.reserve_d2h(0, MB);
        let saved = r1.busy() + r2.busy() - scattered.busy();
        let setup = dma.timings().dma_setup_ns;
        assert!(
            (setup..=setup + 2).contains(&saved),
            "batch pays setup once: saved {saved}, setup {setup}"
        );
    }

    #[test]
    fn chunked_scattered_transfer_pays_setup_once() {
        let dma = DmaEngines::from_timings(&Timings::default());
        let c1 = dma.reserve_h2d_chunk(0, &[MB], true);
        let c2 = dma.reserve_h2d_chunk(c1.end, &[MB], false);
        assert_eq!(c2.start, c1.end, "chunks of one transaction serialize");
        // Whole transaction costs the same as one scattered batch.
        let dma2 = DmaEngines::from_timings(&Timings::default());
        let whole = dma2.reserve_h2d_scattered(0, &[MB, MB]);
        // Modulo per-chunk integer rounding of the bandwidth term.
        let chunked = c2.end - c1.start;
        assert!(
            (whole.busy()..=whole.busy() + 1).contains(&chunked),
            "chunked {chunked} vs whole {}",
            whole.busy()
        );
    }

    #[test]
    fn a_chunk_joins_an_open_stream_on_its_own_direction_only() {
        let gpu = Gpu::new(0, GpuSpec::small_test());
        let dst = gpu.global().alloc(4 << 20).unwrap();
        let mb = vec![6u8; 1 << 20];
        let dma = gpu.dma();
        let setup = dma.timings().dma_setup_ns;
        let bw = gpu.dma_h2d(&mb, dst, 0).busy() - setup;
        dma.reset();
        let open = dma.reserve_h2d_chunk(0, &[MB], true);
        assert_eq!(open.busy(), setup + bw);
        // Another transaction, ready while `open` is on the engine.
        let other = dma.reserve_h2d_chunk(open.end / 2, &[MB], true);
        assert!(other.joined);
        assert_eq!(other.busy(), bw, "joined: no setup of its own");
        // One-shot transfers keep their cost, and the other direction's
        // ring is not running at all.
        let plain = gpu.dma_h2d(&mb, dst + (2 << 20), open.end / 2);
        assert_eq!(plain.busy(), setup + bw);
        let shot = dma.reserve_h2d_scattered(open.end / 2, &[MB]);
        assert_eq!((shot.joined, shot.busy()), (false, setup + bw));
        let up = dma.reserve_d2h_chunk(open.end / 2, &[MB], true);
        assert!(!up.joined);
        assert_eq!(up.busy(), setup + bw);
        assert_eq!(dma.busy_ns(), (3 * setup + 4 * bw, setup + bw));
    }

    #[test]
    fn zeroed_timings_make_dma_free_but_still_move_data() {
        let t = Timings::default().without_dma();
        let gpu = Gpu::with_timings(0, GpuSpec::small_test(), &t);
        let dst = gpu.global().alloc(4096).unwrap();
        let r = gpu.dma_h2d(&[5u8; 4096], dst, 0);
        assert_eq!(r.busy(), 0);
        let mut out = [0u8; 4096];
        gpu.global().read(dst, &mut out);
        assert_eq!(out, [5u8; 4096]);
    }
}
