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
    /// (see [`simtime::BandwidthResource::transfer_chunk`]). The caller
    /// serializes chunks of one transaction by threading the previous
    /// chunk's `end` into `earliest`.
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

    /// DMA device memory into host memory: copies the bytes and charges
    /// the PCIe device-to-host direction. Returns the transfer window.
    ///
    /// # Panics
    ///
    /// Panics if the source range is out of bounds.
    pub fn dma_d2h(&self, src: DevPtr, dst: &mut [u8], earliest: Nanos) -> Reservation {
        self.global().read(src, dst);
        self.dma().reserve_d2h(earliest, dst.len() as u64)
    }

    /// DMA several host buffers into device memory as one scatter-gather
    /// transaction: every extent is copied, but the host-to-device
    /// direction is charged a single setup cost for the whole batch. This
    /// is the timing model behind the batched multi-page `ReadPages` RPC
    /// on the paper prototype's DMA path: one driver call per RPC, which
    /// neither joins the descriptor ring nor leaves it running.
    ///
    /// # Panics
    ///
    /// Panics if any destination range is out of bounds.
    pub fn dma_h2d_scattered(&self, parts: &[(&[u8], DevPtr)], earliest: Nanos) -> Reservation {
        let extent_bytes = self.write_extents(parts);
        self.dma().reserve_h2d_scattered(earliest, &extent_bytes)
    }

    /// DMA one *chunk* of a scatter-gather transaction into device memory
    /// through the host-to-device descriptor ring: every extent is copied,
    /// but setup is charged only to the transaction's `first` chunk, and
    /// not even to that one when the ring is still running as its data
    /// becomes ready ([`Reservation::joined`]). This is the timing model
    /// behind the daemon's pipelined `ReadPages` engine, which streams a
    /// batch chunk by chunk so host file I/O of chunk *k+1* overlaps the
    /// DMA of chunk *k*. Callers serialize the chunks of one transaction
    /// by passing the previous chunk's `end` (max'ed with the data-ready
    /// time) as `earliest`.
    ///
    /// # Panics
    ///
    /// Panics if any destination range is out of bounds.
    pub fn dma_h2d_scattered_chunk(
        &self,
        parts: &[(&[u8], DevPtr)],
        earliest: Nanos,
        first: bool,
    ) -> Reservation {
        let extent_bytes = self.write_extents(parts);
        self.dma().reserve_h2d_chunk(earliest, &extent_bytes, first)
    }

    /// DMA several device extents into host buffers as one scatter-gather
    /// transaction: every extent is copied, but the device-to-host
    /// direction is charged a single setup cost for the whole batch. This
    /// is the timing model behind the batched multi-page `WritePages`
    /// write-back RPC, mirroring [`Gpu::dma_h2d_scattered`] on reads.
    ///
    /// # Panics
    ///
    /// Panics if any source range is out of bounds.
    pub fn dma_d2h_scattered(
        &self,
        parts: &mut [(DevPtr, &mut [u8])],
        earliest: Nanos,
    ) -> Reservation {
        let extent_bytes = self.read_extents(parts);
        self.dma().reserve_d2h_scattered(earliest, &extent_bytes)
    }

    /// DMA one chunk of a device-to-host scatter-gather transaction — the
    /// write-back mirror of [`Gpu::dma_h2d_scattered_chunk`], behind the
    /// daemon's pipelined `WritePages` engine (the D2H gather of chunk
    /// *k+1* overlaps the host `pwrite`s of chunk *k*).
    ///
    /// # Panics
    ///
    /// Panics if any source range is out of bounds.
    pub fn dma_d2h_scattered_chunk(
        &self,
        parts: &mut [(DevPtr, &mut [u8])],
        earliest: Nanos,
        first: bool,
    ) -> Reservation {
        let extent_bytes = self.read_extents(parts);
        self.dma().reserve_d2h_chunk(earliest, &extent_bytes, first)
    }

    /// Copy every extent into device memory; returns the extent lengths.
    fn write_extents(&self, parts: &[(&[u8], DevPtr)]) -> Vec<u64> {
        parts
            .iter()
            .map(|(src, dst)| {
                self.global().write(*dst, src);
                src.len() as u64
            })
            .collect()
    }

    /// Copy every extent out of device memory; returns the extent lengths.
    fn read_extents(&self, parts: &mut [(DevPtr, &mut [u8])]) -> Vec<u64> {
        parts
            .iter_mut()
            .map(|(src, dst)| {
                self.global().read(*src, dst);
                dst.len() as u64
            })
            .collect()
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
        let mut sink = vec![0u8; 1 << 20];
        let r2 = gpu.dma_d2h(a, &mut sink, 0);
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

    #[test]
    fn scattered_h2d_moves_all_extents_for_one_setup() {
        let gpu = Gpu::new(0, GpuSpec::small_test());
        let dst = gpu.global().alloc(3 << 20).unwrap();
        let a = vec![1u8; 1 << 20];
        let b = vec![2u8; 1 << 20];
        let scattered = gpu.dma_h2d_scattered(&[(&a, dst), (&b, dst + (2 << 20))], 0);
        let mut out = vec![0u8; 1 << 20];
        gpu.global().read(dst, &mut out);
        assert_eq!(out, a);
        gpu.global().read(dst + (2 << 20), &mut out);
        assert_eq!(out, b);
        // Same bytes as two singleton DMAs, minus one setup charge.
        let gpu2 = Gpu::new(1, GpuSpec::small_test());
        let dst2 = gpu2.global().alloc(2 << 20).unwrap();
        let r1 = gpu2.dma_h2d(&a, dst2, 0);
        let r2 = gpu2.dma_h2d(&b, dst2 + (1 << 20), 0);
        let serial = r1.busy() + r2.busy();
        let saved = serial - scattered.busy();
        let setup = gpu.dma().timings().dma_setup_ns;
        // Modulo per-extent integer rounding of the bandwidth term.
        assert!(
            (setup..=setup + 2).contains(&saved),
            "batch pays setup once: saved {saved}, setup {setup}"
        );
    }

    #[test]
    fn scattered_d2h_moves_all_extents_for_one_setup() {
        let gpu = Gpu::new(0, GpuSpec::small_test());
        let src = gpu.global().alloc(3 << 20).unwrap();
        gpu.global().write(src, &vec![7u8; 1 << 20]);
        gpu.global().write(src + (2 << 20), &vec![8u8; 1 << 20]);
        let mut a = vec![0u8; 1 << 20];
        let mut b = vec![0u8; 1 << 20];
        let scattered = {
            let mut parts: Vec<(DevPtr, &mut [u8])> =
                vec![(src, a.as_mut_slice()), (src + (2 << 20), b.as_mut_slice())];
            gpu.dma_d2h_scattered(&mut parts, 0)
        };
        assert!(a.iter().all(|&x| x == 7));
        assert!(b.iter().all(|&x| x == 8));
        // Same bytes as two singleton DMAs, minus one setup charge.
        let gpu2 = Gpu::new(1, GpuSpec::small_test());
        let src2 = gpu2.global().alloc(2 << 20).unwrap();
        let mut sink = vec![0u8; 1 << 20];
        let r1 = gpu2.dma_d2h(src2, &mut sink, 0);
        let r2 = gpu2.dma_d2h(src2 + (1 << 20), &mut sink, 0);
        let saved = r1.busy() + r2.busy() - scattered.busy();
        let setup = gpu.dma().timings().dma_setup_ns;
        assert!(
            (setup..=setup + 2).contains(&saved),
            "batch pays setup once: saved {saved}, setup {setup}"
        );
    }

    #[test]
    fn chunked_scattered_transfer_moves_data_and_pays_setup_once() {
        let gpu = Gpu::new(0, GpuSpec::small_test());
        let dst = gpu.global().alloc(2 << 20).unwrap();
        let a = vec![3u8; 1 << 20];
        let b = vec![4u8; 1 << 20];
        let c1 = gpu.dma_h2d_scattered_chunk(&[(&a, dst)], 0, true);
        let c2 = gpu.dma_h2d_scattered_chunk(&[(&b, dst + (1 << 20))], c1.end, false);
        let mut out = vec![0u8; 1 << 20];
        gpu.global().read(dst, &mut out);
        assert_eq!(out, a);
        gpu.global().read(dst + (1 << 20), &mut out);
        assert_eq!(out, b);
        assert_eq!(c2.start, c1.end, "chunks of one transaction serialize");
        // Whole transaction costs the same as one scattered batch.
        let gpu2 = Gpu::new(1, GpuSpec::small_test());
        let dst2 = gpu2.global().alloc(2 << 20).unwrap();
        let whole = gpu2.dma_h2d_scattered(&[(&a, dst2), (&b, dst2 + (1 << 20))], 0);
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
        let setup = gpu.dma().timings().dma_setup_ns;
        let bw = gpu.dma_h2d(&mb, dst, 0).busy() - setup;
        gpu.dma().reset();
        let open = gpu.dma_h2d_scattered_chunk(&[(&mb, dst)], 0, true);
        assert_eq!(open.busy(), setup + bw);
        // Another transaction, ready while `open` is on the engine.
        let other = gpu.dma_h2d_scattered_chunk(&[(&mb, dst + (1 << 20))], open.end / 2, true);
        assert!(other.joined);
        assert_eq!(other.busy(), bw, "joined: no setup of its own");
        // One-shot transfers keep their cost, and the other direction's
        // ring is not running at all.
        let plain = gpu.dma_h2d(&mb, dst + (2 << 20), open.end / 2);
        assert_eq!(plain.busy(), setup + bw);
        let shot = gpu.dma_h2d_scattered(&[(&mb, dst + (3 << 20))], open.end / 2);
        assert_eq!((shot.joined, shot.busy()), (false, setup + bw));
        let mut sink = vec![0u8; 1 << 20];
        let mut parts: Vec<(DevPtr, &mut [u8])> = vec![(dst, sink.as_mut_slice())];
        let up = gpu.dma_d2h_scattered_chunk(&mut parts, open.end / 2, true);
        assert!(!up.joined);
        assert_eq!(up.busy(), setup + bw);
        assert_eq!(gpu.dma().busy_ns(), (3 * setup + 4 * bw, setup + bw));
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
