//! Stage 2 of the bulk-data engine: the asynchronous DMA lane.
//!
//! A batch streamed chunk by chunk is one scatter-gather transaction on
//! its PCIe direction. The lane owns everything the read and the write
//! side of `pipeline.rs` do identically to ship a chunk: charge the
//! CPU-side submit, chain the reservation behind the transaction's
//! previous chunk, count it, and emit its span. It never sees bytes at
//! all: the backing has already read them into the GPU frames, or will
//! write them out of the frames, so the lane only charges the link for a
//! chunk's byte count — and a proxied daemon's DMA is a local daemon's
//! DMA.
//!
//! Setup is owed by the first chunk a transaction ships — unless the
//! engine's descriptor ring is still running when the chunk's data is
//! ready, in which case the chunk is appended to it (see
//! [`simtime::BandwidthResource::transfer_chunk`]): no setup on the
//! engine, and the same [`simtime::Timings::dma_chunk_ns`] submit a
//! continuation pays, drawn like it from the worker pool. Every chunk the
//! lane ships keeps the ring running until it lands, so under load —
//! faults queueing behind a busy engine — setups all but disappear and the
//! submits, which only `daemon_workers` threads can issue, become the
//! bound.
//!
//! The serialized engine (`io_chunk_pages = 0`) is the paper prototype's
//! DMA path and the ring's ablation: it ships each RPC as one one-shot
//! scatter-gather transaction, which pays its setup whatever the engine
//! is doing and leaves no ring behind it. Only the DMA differs: its
//! worker CPU comes from the same bounded pool.

use gpusim::Gpu;
use simtime::{Clock, Nanos, Reservation};

use super::{DaemonStats, ServeCtx};

/// A PCIe direction, as the lane accounts for it.
#[derive(Clone, Copy)]
enum Dir {
    /// Host to device: the read side's `dma` spans. A chunk's data is
    /// ready when the worker's clock gets to it.
    H2d,
    /// Device to host: the write side's `gather` spans. The dirty bytes
    /// have sat in GPU memory since `ready`, when the RPC was issued.
    D2h { ready: Nanos },
}

/// The DMA chain of one `ReadPages` or `WritePages` transaction.
pub(crate) struct DmaLane<'a> {
    gpu: &'a Gpu,
    ctx: &'a ServeCtx<'a>,
    /// Chunks shipped so far (empty chunks ship nothing and do not count).
    shipped: u64,
    /// When the last shipped chunk leaves the engine (0 before the first).
    end: Nanos,
}

impl<'a> DmaLane<'a> {
    pub(crate) fn new(gpu: &'a Gpu, ctx: &'a ServeCtx<'a>) -> Self {
        Self {
            gpu,
            ctx,
            shipped: 0,
            end: 0,
        }
    }

    /// When the last shipped chunk's DMA completes (0 if none shipped).
    pub(crate) fn end(&self) -> Nanos {
        self.end
    }

    /// Ship one read chunk of `bytes` host-to-device, its data ready now
    /// on the worker's `clock`. The worker does not wait for it.
    pub(crate) fn read_chunk(&mut self, clock: &mut Clock, bytes: u64) {
        let (dma, one_shot) = (self.gpu.dma(), self.one_shot());
        self.ship(clock, Dir::H2d, bytes, |issue, first| {
            if one_shot {
                dma.reserve_h2d_scattered(issue, &[bytes])
            } else {
                dma.reserve_h2d_chunk(issue, &[bytes], first)
            }
        });
    }

    /// Gather one write chunk of `bytes` device-to-host. The dirty bytes
    /// have been in GPU memory since the RPC was issued (`ready`), so the
    /// gather chain runs ahead of the worker's `pwrite` lane; the caller
    /// waits for the returned reservation before writing the chunk out.
    pub(crate) fn write_chunk(
        &mut self,
        clock: &mut Clock,
        ready: Nanos,
        bytes: u64,
    ) -> Reservation {
        let (dma, one_shot) = (self.gpu.dma(), self.one_shot());
        self.ship(clock, Dir::D2h { ready }, bytes, |issue, first| {
            if one_shot {
                dma.reserve_d2h_scattered(issue, &[bytes])
            } else {
                dma.reserve_d2h_chunk(issue, &[bytes], first)
            }
        })
    }

    /// The serialized engine has one chunk per RPC and ships it whole,
    /// past the ring.
    fn one_shot(&self) -> bool {
        self.ctx.engine.io_chunk_pages == 0
    }

    fn ship(
        &mut self,
        clock: &mut Clock,
        dir: Dir,
        bytes: u64,
        reserve: impl FnOnce(Nanos, bool) -> Reservation,
    ) -> Reservation {
        let submit_ns = self.ctx.engine.timings.dma_chunk_ns;
        let first = self.shipped == 0;
        if !first {
            self.ctx.cpu(clock, submit_ns);
        }
        // Issued when the data is ready and the transaction's previous
        // chunk has left the engine: chunks of one transaction never
        // overlap each other.
        let (name, ready) = match dir {
            Dir::H2d => ("dma", clock.now()),
            Dir::D2h { ready } => ("gather", ready),
        };
        let sp = obs::span(name);
        let issue = ready.max(self.end);
        let r = reserve(issue, first);
        if r.joined {
            // Appended to the running ring: a continuation's submit
            // instead of a transaction's setup.
            self.ctx.cpu(clock, submit_ns);
        }
        self.ctx.on(|s: &DaemonStats| {
            let (moved, chunks, setups) = match dir {
                Dir::H2d => (&s.bytes_h2d, &s.read_dma_chunks, &s.h2d_setups),
                Dir::D2h { .. } => (&s.bytes_d2h, &s.write_dma_chunks, &s.d2h_setups),
            };
            moved.add(bytes);
            chunks.incr();
            if first && !r.joined {
                setups.incr();
            }
        });
        // The DMA runs asynchronously: its span covers the engine
        // reservation (issue to completion), not worker wall time, split
        // into time queued behind other work and time being served.
        sp.finish_attrs(
            issue,
            r.end,
            &[
                ("chunk", self.shipped),
                ("bytes", bytes),
                ("queue_ns", r.start - issue),
                ("service_ns", r.end - r.start),
                ("joined", u64::from(r.joined)),
            ],
        );
        self.shipped += 1;
        self.end = r.end;
        r
    }
}
